//! `flex_mine`: the acceptance configuration (DNA L = 10,000, gap
//! [0,9], ρs = 0.003%, MPP n = 8, two threads), mined in full by the
//! `pgmine` binary. Join, candidate generation, arena memory and the
//! worker pool do nearly all of the work; the seed scan is under 1%.

use crate::ctx::{io_err, offset_counts, read_input, Ctx, MineArgs};
use crate::gen;
use crate::oracle::{corrupt, digest, outcome_rows, read_tsv, same_set};
use crate::spans::observed;
use perigap_core::mpp::MppConfig;
use perigap_core::parallel::{mpp_parallel, mpp_parallel_traced};
use perigap_core::reference::mpp_reference;
use perigap_math::stats::median;
use std::io;
use std::time::Instant;

const ARGS: MineArgs = MineArgs {
    gap: "0:9",
    gap_req: (0, 9),
    rho: "0.003%",
    rho_frac: 0.00003,
    n: 8,
    threads: 2,
};

/// `setup_s` is the median over batches of parses: one 10 kB parse is
/// ~0.1 ms, so each batch times enough of them (~3 ms) to keep timer
/// and scheduler noise out, after warm-up parses that fill the caches.
const PARSE_WARMUP: usize = 10;
const PARSE_BATCHES: usize = 41;
const PARSES_PER_BATCH: usize = 25;

pub fn run(ctx: &mut Ctx) -> io::Result<()> {
    let a = ARGS;
    let seq = gen::dna(ctx.seed, ctx.scale.flex_len);
    let input = ctx.path("flex.fa");
    gen::write(&input, "flex", &seq)?;

    for _ in 0..PARSE_WARMUP {
        std::hint::black_box(read_input(&input)?);
    }
    let mut parses = Vec::with_capacity(PARSE_BATCHES);
    for _ in 0..PARSE_BATCHES {
        let t = Instant::now();
        for _ in 0..PARSES_PER_BATCH {
            std::hint::black_box(read_input(&input)?);
        }
        parses.push(t.elapsed().as_secs_f64() / PARSES_PER_BATCH as f64);
    }
    ctx.report.put_median("setup_s", "s", &parses);

    let (mut wall, mut rss, mut user, mut sys, mut flt) = (vec![], vec![], vec![], vec![], vec![]);
    let mut outputs = Vec::new();
    let start = Instant::now();
    for attempt in 0.. {
        let out = ctx.path(&format!("flex-{attempt}.tsv"));
        let mut cmd = ctx.mine_cmd(&input, &a, &out)?;
        let u = ctx.run_counted(&mut cmd)?;
        if u.ok {
            wall.push(u.wall.as_secs_f64());
            rss.push(u.peak_rss_mb);
            user.push(u.user_s);
            sys.push(u.sys_s);
            flt.push(u.minflt as f64);
            outputs.push(out);
        }
        if start.elapsed().as_secs_f64() >= ctx.seconds {
            break;
        }
    }
    let r = &mut ctx.report;
    r.put_median("mine_s", "s", &wall);
    r.put_median("peak_rss_mb", "MB", &rss);
    r.put_median("proc.user_s", "s", &user);
    r.put_median("proc.sys_s", "s", &sys);
    r.put_median("proc.minflt", "count", &flt);
    r.note("flex.mine_walls_s", format!("{wall:.3?}"));

    // Oracle: the seed reference miner at the same seed.
    let reference = mpp_reference(
        &seq,
        a.gap(),
        a.rho_frac,
        a.n,
        MppConfig::default(),
        a.threads,
    )
    .map_err(io_err)?;
    let expected = outcome_rows(&reference, seq.alphabet());
    drop(reference);
    ctx.report.note("flex.patterns", expected.len());
    ctx.report
        .note("flex.digest", format!("{:016x}", digest(&expected)));
    for (i, out) in outputs.iter().enumerate() {
        let checked = read_tsv(out).and_then(|mut got| {
            if ctx.corrupt && i == 0 {
                corrupt(&mut got);
            }
            same_set(
                &format!("flex CLI mine {i} vs mpp_reference"),
                &expected,
                &got,
            )
        });
        if let Err(e) = checked {
            ctx.report.mismatch(e);
        }
        std::fs::remove_file(out)?;
    }

    // With no successful mine, `mine_s` has already failed the run.
    if let Some(cli_mine_s) = median(&wall).filter(|_| ctx.trace) {
        traced(ctx, &input, &expected, cli_mine_s)?;
    }
    Ok(())
}

/// In-process run of each layer's public functions: an untraced mine
/// for the CLI and trace overheads, then a traced one for the spans.
fn traced(
    ctx: &mut Ctx,
    input: &std::path::Path,
    expected: &[crate::oracle::Row],
    cli_mine_s: f64,
) -> io::Result<()> {
    let a = ARGS;
    ctx.rec.next_run();
    let (seq, parse) = ctx.rec.time("seq.parse", || read_input(input));
    let seq = seq?;
    let (_, counts) = ctx
        .rec
        .time("core.counts", || offset_counts(seq.len(), a.gap(), a.n));

    let t = Instant::now();
    let plain = mpp_parallel(
        &seq,
        a.gap(),
        a.rho_frac,
        a.n,
        MppConfig::default(),
        a.threads,
    )
    .map_err(io_err)?;
    let untraced = t.elapsed().as_secs_f64();
    let plain_rows = outcome_rows(&plain, seq.alphabet());
    drop(plain);

    let (traced, traced_s) = observed(&mut ctx.rec, &mut ctx.counters, "core.mine", |obs| {
        mpp_parallel_traced(
            &seq,
            a.gap(),
            a.rho_frac,
            a.n,
            MppConfig::default(),
            a.threads,
            obs,
        )
    });
    let traced = traced.map_err(io_err)?;
    let traced_rows = outcome_rows(&traced, seq.alphabet());
    drop(traced);

    for (what, rows) in [("untraced", &plain_rows), ("traced", &traced_rows)] {
        if let Err(e) = same_set(
            &format!("flex in-process {what} mine vs mpp_reference"),
            expected,
            rows,
        ) {
            ctx.report.mismatch(e);
        }
    }
    let r = &mut ctx.report;
    r.put("seq.parse_s", "s", parse.as_secs_f64(), 1);
    r.put("core.counts_s", "s", counts.as_secs_f64(), 1);
    r.put("cli.overhead_s", "s", cli_mine_s - untraced, 1);
    r.put("trace.overhead_ratio", "ratio", traced_s / untraced, 1);
    ctx.counters.report(&mut ctx.report);
    Ok(())
}
