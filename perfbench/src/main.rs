//! perfbench — the benchmark of record for perigap.
//!
//! ```text
//! bash perfbench/run.sh --workload <flex_mine|rigid_append|serve_mix> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! bash perfbench/run.sh --smoke
//! ```
//!
//! Every workload builds its input from the seed, drives the built
//! `pgmine` binary as child processes (`--trace 0`: the end-to-end
//! metrics), checks every output against an oracle, and with
//! `--trace 1` also calls each layer's public functions in-process under
//! a span recorder (the per-layer metrics). The last stdout line is the
//! JSON result; the exit status is non-zero on any oracle mismatch.
//! See `perfbench/README.md` for the metric → layer → workload map.

mod child;
mod ctx;
mod flex;
mod gen;
mod oracle;
mod provenance;
mod report;
mod rigid;
mod serve;
mod spans;

use ctx::{Ctx, Scale};
use report::Report;
use spans::{Counters, Recorder};
use std::fmt::Write as _;
use std::io;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

/// Metrics a user of the system sees (`--trace 0`).
const END_TO_END: &[(&str, &str)] = &[("setup_s", "s"), ("mine_s", "s"), ("peak_rss_mb", "MB")];

/// Metrics of single layers and of one workload each (`--trace 1`).
const PER_LAYER: &[(&str, &str)] = &[
    ("append_remine_s", "s"),
    ("lookup_p50_ms", "ms"),
    ("lookup_p99_ms", "ms"),
    ("lookup_capacity_qps", "1/s"),
    ("mine_query_p50_s", "s"),
    ("error_ratio", "ratio"),
    ("seq.parse_s", "s"),
    ("core.counts_s", "s"),
    ("core.em_s", "s"),
    ("core.seed_s", "s"),
    ("core.seed.pil_entries", "count"),
    ("core.level_s", "s"),
    ("core.join_s", "s"),
    ("core.filter_s", "s"),
    ("core.join.calls", "count"),
    ("core.join.probed", "count"),
    ("core.join.reallocs", "count"),
    ("core.join.bytes_moved", "bytes"),
    ("core.candidates", "count"),
    ("core.useful_ratio", "ratio"),
    ("core.arena.peak_bytes", "bytes"),
    ("proc.user_s", "s"),
    ("proc.sys_s", "s"),
    ("proc.minflt", "count"),
    ("core.level.sys_s", "s"),
    ("core.level.minflt", "count"),
    ("core.pool.busy_s", "s"),
    ("core.pool.idle_s", "s"),
    ("core.pool.imbalance", "ratio"),
    ("core.dfs.subtrees", "count"),
    ("core.dfs.slowest_subtree_s", "s"),
    ("core.incremental.delta_ratio", "ratio"),
    ("core.incremental.suspect_scans", "count"),
    ("core.cache.load_s", "s"),
    ("core.cache.write_s", "s"),
    ("core.cache.bytes", "bytes"),
    ("store.index_build_s", "s"),
    ("store.lookup_us", "us"),
    ("serve.wait_ms", "ms"),
    ("serve.cache.hit_ratio", "ratio"),
    ("serve.gen_lag_ms", "ms"),
    ("cli.overhead_s", "s"),
    ("trace.overhead_ratio", "ratio"),
];

const WORKLOADS: &[&str] = &["flex_mine", "rigid_append", "serve_mix"];

/// Results, spans and per-run scratch live here, inside the checkout.
const OUT_DIR: &str = ".perfbench_out";

struct Opts {
    pgmine: PathBuf,
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
}

fn parse_args() -> Result<Opts, String> {
    let mut o = Opts {
        pgmine: PathBuf::new(),
        workload: String::new(),
        seed: 0,
        seconds: 10.0,
        trace: false,
        smoke: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--smoke" {
            o.smoke = true;
            continue;
        }
        let v = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--pgmine" => o.pgmine = PathBuf::from(v),
            "--workload" => o.workload = v,
            "--seed" => o.seed = v.parse().map_err(|_| format!("bad --seed {v:?}"))?,
            "--seconds" => o.seconds = v.parse().map_err(|_| format!("bad --seconds {v:?}"))?,
            "--trace" => {
                o.trace = match v.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad --trace {v:?} (0|1)")),
                }
            }
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    if !o.pgmine.is_file() {
        return Err(format!("no pgmine binary at {:?}", o.pgmine));
    }
    if !o.smoke && !WORKLOADS.contains(&o.workload.as_str()) {
        return Err(format!("--workload must be one of {WORKLOADS:?}"));
    }
    if !(o.seconds > 0.0 && o.seconds <= 120.0) {
        return Err("--seconds must be in (0, 120]".into());
    }
    Ok(o)
}

/// One run of one workload; the scratch directory is removed after.
fn run_once(o: &Opts, scale: Scale, corrupt: bool) -> io::Result<(Ctx, Vec<(String, String)>)> {
    let work = Path::new(OUT_DIR).join(format!("work-{}-{}", o.workload, std::process::id()));
    let _ = std::fs::remove_dir_all(&work);
    std::fs::create_dir_all(&work)?;
    let mut ctx = Ctx {
        pgmine: o.pgmine.clone(),
        work: work.clone(),
        seed: o.seed,
        seconds: o.seconds,
        trace: o.trace,
        scale,
        corrupt,
        rec: Recorder::new(),
        counters: Counters::default(),
        report: Report::default(),
    };
    let context = provenance::collect(&o.pgmine, &work);
    let outcome = match o.workload.as_str() {
        "flex_mine" => flex::run(&mut ctx),
        "rigid_append" => rigid::run(&mut ctx),
        _ => serve::run(&mut ctx),
    };
    ctx.report.put_error_ratio();
    let _ = std::fs::remove_dir_all(&work);
    outcome.map(|()| (ctx, context))
}

fn render(o: &Opts, ctx: &Ctx, context: &[(String, String)]) -> (String, String) {
    let r = &ctx.report;
    let mut human = String::new();
    let mut json = format!(
        "{{\"workload\": \"{}\", \"seed\": {}, \"seconds\": {}, \"trace\": {}, \"context\": {{",
        o.workload, o.seed, o.seconds, o.trace
    );
    for (i, (k, v)) in context.iter().enumerate() {
        let _ = writeln!(human, "context {k} = {v}");
        let _ = write!(
            json,
            "{}\"{k}\": \"{}\"",
            if i > 0 { ", " } else { "" },
            v.replace('"', "'")
        );
    }
    json.push_str("}, \"metrics\": [");
    for (i, m) in r.metrics.iter().enumerate() {
        let _ = writeln!(
            human,
            "metric {:<32} {:>16.6} {:<6} (n={})",
            m.name, m.value, m.unit, m.samples
        );
        let _ = write!(
            json,
            "{}{{\"name\": \"{}\", \"value\": {}, \"unit\": \"{}\", \"samples\": {}}}",
            if i > 0 { ", " } else { "" },
            m.name,
            m.value,
            m.unit,
            m.samples
        );
    }
    json.push_str("], \"notes\": {");
    for (i, (k, v)) in r.notes.iter().enumerate() {
        let _ = writeln!(human, "note {k} = {v}");
        let _ = write!(
            json,
            "{}\"{k}\": \"{}\"",
            if i > 0 { ", " } else { "" },
            v.replace('"', "'")
        );
    }
    json.push_str("}, \"self_s\": {");
    for (i, (name, s)) in ctx.rec.self_times().iter().enumerate() {
        let _ = writeln!(human, "self {name:<32} {s:>12.6} s");
        let _ = write!(json, "{}\"{name}\": {s}", if i > 0 { ", " } else { "" });
    }
    json.push_str("}, \"levels\": [");
    for (i, l) in ctx.counters.levels.iter().enumerate() {
        let _ = write!(
            json,
            "{}{{\"level\": {}, \"elapsed_s\": {}, \"join_s\": {}, \"evaluated\": {}, \"frequent\": {}, \
             \"sys_s\": {}, \"minflt\": {}}}",
            if i > 0 { ", " } else { "" },
            l.level,
            l.elapsed_s,
            l.join_s,
            l.evaluated,
            l.frequent,
            l.sys_s,
            l.minflt
        );
    }
    let _ = writeln!(
        json,
        "], \"attempted\": {}, \"failed\": {}, \"mismatches\": {}}}",
        r.attempted,
        r.failed,
        r.mismatches.len()
    );
    for m in &r.mismatches {
        let _ = writeln!(human, "MISMATCH {m}");
    }
    (human, json)
}

fn smoke(o: &Opts) -> ExitCode {
    let mut ok = true;
    for w in WORKLOADS {
        for (trace, corrupt) in [(false, false), (true, false), (false, true)] {
            let opts = Opts {
                pgmine: o.pgmine.clone(),
                workload: w.to_string(),
                seed: 7,
                seconds: 1.0,
                trace,
                smoke: true,
            };
            let verdict = match run_once(&opts, Scale::TINY, corrupt) {
                Err(e) => Err(format!("run failed: {e}")),
                Ok((ctx, _)) => {
                    let r = &ctx.report;
                    if corrupt {
                        if r.correct() {
                            Err("a corrupted output passed the oracle".to_string())
                        } else {
                            Ok(format!("oracle caught it: {}", r.mismatches[0]))
                        }
                    } else if !r.correct() {
                        Err(format!("oracle mismatch: {:?}", r.mismatches))
                    } else if r.failed > 0 {
                        Err(format!("{} of {} operations failed", r.failed, r.attempted))
                    } else if !trace
                        && END_TO_END
                            .iter()
                            .any(|(n, _)| r.get(n).map_or(0.0, |m| m.value) <= 0.0)
                    {
                        Err("an end-to-end metric read zero".to_string())
                    } else {
                        Ok(format!("{} operations", r.attempted))
                    }
                }
            };
            let label = format!("{w} trace={} corrupt={corrupt}", trace as u8);
            match verdict {
                Ok(msg) => println!("PASS {label}: {msg}"),
                Err(msg) => {
                    ok = false;
                    println!("FAIL {label}: {msg}");
                }
            }
        }
    }
    // A mining child that exits non-zero must fail the run, not read as
    // a zero-second mine: stand in for pgmine with this binary, which
    // rejects pgmine's arguments.
    for w in ["flex_mine", "rigid_append"] {
        let opts = Opts {
            pgmine: std::env::current_exe().unwrap_or_default(),
            workload: w.to_string(),
            seed: 7,
            seconds: 1.0,
            trace: false,
            smoke: true,
        };
        let verdict = match run_once(&opts, Scale::TINY, false) {
            Err(e) => Err(format!("run failed: {e}")),
            Ok((ctx, _)) => {
                let r = &ctx.report;
                let ratio = r.get("error_ratio").map_or(0.0, |m| m.value);
                if r.correct() || ratio != 1.0 {
                    Err(format!("correct {}, error_ratio {ratio}", r.correct()))
                } else {
                    Ok(format!("failed as it should: {}", r.mismatches[0]))
                }
            }
        };
        match verdict {
            Ok(msg) => println!("PASS {w} failing pgmine: {msg}"),
            Err(msg) => {
                ok = false;
                println!("FAIL {w} failing pgmine: {msg}");
            }
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let o = match parse_args() {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    if o.smoke {
        return smoke(&o);
    }
    let (ctx, context) = match run_once(&o, Scale::FULL, false) {
        Ok(v) => v,
        Err(e) => {
            eprintln!("perfbench: {} failed: {e}", o.workload);
            return ExitCode::FAILURE;
        }
    };
    let (human, json) = render(&o, &ctx, &context);
    print!("{human}");
    let stem = format!("{}-seed{}-trace{}", o.workload, o.seed, o.trace as u8);
    let out = Path::new(OUT_DIR);
    let saved = std::fs::write(out.join(format!("{stem}.json")), json).and_then(|()| {
        if o.trace {
            ctx.rec
                .write_jsonl(&out.join(format!("{stem}.spans.jsonl")))
        } else {
            Ok(())
        }
    });
    if let Err(e) = saved {
        eprintln!("perfbench: cannot write results: {e}");
    }
    println!(
        "{}",
        ctx.report
            .result_line(if o.trace { PER_LAYER } else { END_TO_END })
    );
    if ctx.report.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
