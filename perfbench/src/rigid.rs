//! `rigid_append`: a 1,000,000-symbol DNA base at gap [0,0], ρs =
//! 0.003%, MPP n = 8. Set-up seeds the result cache with a cold
//! `--incremental` mine; then each 0.1% append is re-mined through the
//! cache and also mined plain (no cache) on the same grown sequence.
//! The seed scan is a large share of a plain mine and joins are cheap
//! (W = 1): the opposite layer mix to `flex_mine`, and the only
//! workload that reaches `core::incremental` and the result cache.

use crate::ctx::{io_err, offset_counts, read_input, Ctx, MineArgs};
use crate::gen;
use crate::oracle::{corrupt, outcome_rows, read_tsv, same_set};
use crate::spans::{observed, Counters};
use perigap_core::mpp::{mpp, mpp_traced, MppConfig};
use perigap_core::{load_result_cache, mine_incremental, write_result_cache};
use perigap_core::{EngineSelection, IncrementalMode};
use perigap_math::stats::median;
use perigap_seq::{Alphabet, Sequence};
use std::io;
use std::path::Path;
use std::time::Instant;

const ARGS: MineArgs = MineArgs {
    gap: "0:0",
    gap_req: (0, 0),
    rho: "0.003%",
    rho_frac: 0.00003,
    n: 8,
    threads: 1,
};

/// Untraced/traced in-process mine pairs in the traced run.
const PAIRS: usize = 2;
/// Appends replayed in-process by the traced run.
const TRACED_APPENDS: usize = 4;

fn incremental_cmd(
    ctx: &Ctx,
    input: &Path,
    cache: &Path,
    out: &Path,
) -> io::Result<std::process::Command> {
    let mut cmd = ctx.mine_cmd(input, &ARGS, out)?;
    cmd.arg("--incremental").arg("--cache-path").arg(cache);
    Ok(cmd)
}

/// Appends in one cycle. A run that gets through them all restores the
/// seeded cache and starts the cycle again, so the input never grows
/// past 1.064 times the base.
const APPENDS: usize = 64;

/// The first `len` symbols of `full`.
fn prefix(full: &Sequence, len: usize) -> Sequence {
    Sequence::from_codes(Alphabet::Dna, full.codes()[..len].to_vec()).expect("DNA codes")
}

pub fn run(ctx: &mut Ctx) -> io::Result<()> {
    let base_len = ctx.scale.rigid_base;
    let chunk = (base_len / 1000).max(1);
    // One sequence holds the base and every append, so the appended
    // symbols follow the distribution of the base they extend.
    let full = gen::dna(ctx.seed, base_len + APPENDS * chunk);
    let base_fa = ctx.path("base.fa");
    gen::write(&base_fa, "rigid", &prefix(&full, base_len))?;

    let mut setups = Vec::new();
    let mut seeded = None;
    for k in 0..ctx.scale.setups {
        let cache = ctx.path(&format!("setup-{k}.pgrc"));
        let out = ctx.path(&format!("setup-{k}.tsv"));
        let u = ctx.run_counted(&mut incremental_cmd(ctx, &base_fa, &cache, &out)?)?;
        if u.ok {
            setups.push(u.wall.as_secs_f64());
            seeded = Some(cache);
        }
    }
    ctx.report.put_median("setup_s", "s", &setups);
    let Some(seeded) = seeded else {
        return Ok(());
    };

    let input = ctx.path("grown.fa");
    let cache = ctx.path("append.pgrc");
    let (mut inc, mut plain, mut rss) = (vec![], vec![], vec![]);
    let (mut user, mut sys, mut flt) = (vec![], vec![], vec![]);
    let mut pairs = Vec::new();
    let start = Instant::now();
    loop {
        let i = pairs.len();
        if i % APPENDS == 0 {
            std::fs::copy(&seeded, &cache)?;
        }
        let grown_len = base_len + (i % APPENDS + 1) * chunk;
        gen::write(&input, "rigid", &prefix(&full, grown_len))?;
        let inc_out = ctx.path(&format!("inc-{i}.tsv"));
        let plain_out = ctx.path(&format!("plain-{i}.tsv"));
        let u = ctx.run_counted(&mut incremental_cmd(ctx, &input, &cache, &inc_out)?)?;
        if u.ok {
            inc.push(u.wall.as_secs_f64());
        }
        let p = ctx.run_counted(&mut ctx.mine_cmd(&input, &ARGS, &plain_out)?)?;
        if p.ok {
            plain.push(p.wall.as_secs_f64());
            rss.push(p.peak_rss_mb);
            user.push(p.user_s);
            sys.push(p.sys_s);
            flt.push(p.minflt as f64);
        }
        pairs.push((u.ok && p.ok).then_some((inc_out, plain_out)));
        if start.elapsed().as_secs_f64() >= ctx.seconds {
            break;
        }
    }
    let r = &mut ctx.report;
    r.put_median("mine_s", "s", &plain);
    r.put_median("append_remine_s", "s", &inc);
    r.put_median("peak_rss_mb", "MB", &rss);
    r.put_median("proc.user_s", "s", &user);
    r.put_median("proc.sys_s", "s", &sys);
    r.put_median("proc.minflt", "count", &flt);
    r.note("rigid.appends", pairs.len());
    r.note("rigid.plain_walls_s", format!("{plain:.3?}"));
    r.note("rigid.incremental_walls_s", format!("{inc:.3?}"));

    // Oracle: every incremental result equals the plain mine of the
    // same grown sequence.
    let mut plain_rows = Vec::new();
    for (i, pair) in pairs.iter().enumerate() {
        let Some((inc_out, plain_out)) = pair else {
            plain_rows.push(None);
            continue;
        };
        let want = match read_tsv(plain_out) {
            Ok(want) => want,
            Err(e) => {
                ctx.report.mismatch(e);
                plain_rows.push(None);
                continue;
            }
        };
        let checked = read_tsv(inc_out).and_then(|mut got| {
            if ctx.corrupt && i == 0 {
                corrupt(&mut got);
            }
            same_set(
                &format!("rigid append {i}: incremental vs plain"),
                &want,
                &got,
            )
        });
        if let Err(e) = checked {
            ctx.report.mismatch(e);
        }
        plain_rows.push((i < TRACED_APPENDS || i + 1 == pairs.len()).then_some(want));
    }
    if plain_rows.iter().all(Option::is_none) {
        ctx.report
            .mismatch("rigid: no incremental/plain pair to compare");
    }

    if ctx.trace {
        let last_plain_s = plain.last().copied().unwrap_or(0.0);
        traced(ctx, &full, base_len, chunk, &plain_rows, last_plain_s)?;
    }
    Ok(())
}

/// In-process layers: parse, counts, a plain mine untraced and traced
/// on the last grown sequence, then the first appends replayed through
/// `mine_incremental` with the cache record read and written directly.
fn traced(
    ctx: &mut Ctx,
    full: &Sequence,
    base_len: usize,
    chunk: usize,
    plain_rows: &[Option<Vec<crate::oracle::Row>>],
    last_cli_plain_s: f64,
) -> io::Result<()> {
    let a = ARGS;
    let input = ctx.path("grown.fa");
    ctx.rec.next_run();
    let (seq, parse) = ctx.rec.time("seq.parse", || read_input(&input));
    let seq = seq?;
    let (_, counts) = ctx
        .rec
        .time("core.counts", || offset_counts(seq.len(), a.gap(), a.n));

    // Untraced and traced mines alternate so neither always runs on a
    // cold heap.
    let (mut untraced, mut traced_s) = (vec![], vec![]);
    for _ in 0..PAIRS {
        let t = Instant::now();
        let plain = mpp(&seq, a.gap(), a.rho_frac, a.n, MppConfig::default()).map_err(io_err)?;
        untraced.push(t.elapsed().as_secs_f64());
        ctx.rec.next_run();
        let (traced, secs) = observed(&mut ctx.rec, &mut ctx.counters, "core.mine", |obs| {
            mpp_traced(&seq, a.gap(), a.rho_frac, a.n, MppConfig::default(), obs)
        });
        let traced = traced.map_err(io_err)?;
        traced_s.push(secs);
        if let Some(Some(want)) = plain_rows.last() {
            for (what, o) in [("untraced", &plain), ("traced", &traced)] {
                let got = outcome_rows(o, seq.alphabet());
                if let Err(e) =
                    same_set(&format!("rigid in-process {what} mine vs CLI"), want, &got)
                {
                    ctx.report.mismatch(e);
                }
            }
        }
    }
    let untraced = median(&untraced).expect("PAIRS > 0");
    let traced_s = median(&traced_s).expect("PAIRS > 0");

    // Incremental replay on a cache of its own.
    let cache = ctx.path("traced.pgrc");
    let selection = EngineSelection::MppBfs { n: a.n };
    let config = MppConfig::default();
    let mut inc_counters = Counters::default();
    let incremental = |ctx: &mut Ctx, seq: &Sequence, c: &mut Counters| {
        let (out, _) = observed(&mut ctx.rec, c, "core.incremental", |obs| {
            let (gap, rho) = (a.gap(), a.rho_frac);
            mine_incremental(seq, gap, rho, &selection, &config, a.threads, &cache, obs)
        });
        out.map_err(io_err)
    };
    ctx.rec.next_run();
    incremental(ctx, &prefix(full, base_len), &mut inc_counters)?;
    let (mut delta, mut scans, mut loads, mut writes, mut bytes) =
        (0usize, 0u64, vec![], vec![], 0u64);
    let replay = plain_rows.len().min(TRACED_APPENDS);
    for i in 0..replay {
        ctx.rec.next_run();
        let seq = prefix(full, base_len + (i + 1) * chunk);
        let inc = incremental(ctx, &seq, &mut inc_counters)?;
        if matches!(inc.mode, IncrementalMode::Incremental(_)) {
            delta += 1;
        }
        scans += inc.suspect_scans;
        if let Some(Some(want)) = plain_rows.get(i) {
            let got = outcome_rows(&inc.outcome, seq.alphabet());
            if let Err(e) = same_set(
                &format!("rigid in-process incremental {i} vs plain CLI"),
                want,
                &got,
            ) {
                ctx.report.mismatch(e);
            }
        }
        let (loaded, took) = ctx
            .rec
            .time("core.cache.load", || load_result_cache(&cache));
        loads.push(took.as_secs_f64());
        let loaded = loaded.map_err(io_err)?;
        let copy = ctx.path("traced-copy.pgrc");
        let (written, took) = ctx
            .rec
            .time("core.cache.write", || write_result_cache(&copy, &loaded));
        written.map_err(io_err)?;
        writes.push(took.as_secs_f64());
        bytes = std::fs::metadata(&copy)?.len();
    }

    let r = &mut ctx.report;
    let appends = replay.max(1) as f64;
    r.put("seq.parse_s", "s", parse.as_secs_f64(), 1);
    r.put("core.counts_s", "s", counts.as_secs_f64(), 1);
    r.put("cli.overhead_s", "s", last_cli_plain_s - untraced, 1);
    r.put("trace.overhead_ratio", "ratio", traced_s / untraced, 1);
    r.put(
        "core.incremental.delta_ratio",
        "ratio",
        delta as f64 / appends,
        replay,
    );
    r.put(
        "core.incremental.suspect_scans",
        "count",
        scans as f64 / appends,
        replay,
    );
    r.put_median("core.cache.load_s", "s", &loads);
    r.put_median("core.cache.write_s", "s", &writes);
    r.put("core.cache.bytes", "bytes", bytes as f64, replay);
    ctx.counters.report(&mut ctx.report);
    Ok(())
}
