//! `pil-repr` — the adaptive dense/sparse PIL layout section.
//!
//! Two measurements (the first feeds the `pil_repr` section of
//! `BENCH_mining.json`, the second `dfs_sweep`):
//!
//! 1. **occupancy kernel sweep**: one suffix list at a controlled
//!    occupancy (entries / occupied span) of 1%, 10%, 50% and 90%,
//!    joined by eight prefix lists under the sparse sliding-window
//!    merge, the dense prefix-sum probe, and the engines' occupancy
//!    rule (`auto`). The dense build is paid once per generation and
//!    amortised over the eight prefixes, exactly as [`ReprCache`]
//!    reuses it inside the engines. This is where the acceptance bars
//!    live: `auto` must ride the dense kernel at ≥ 50% occupancy and
//!    stay within noise of sparse at ≤ 5%.
//! 2. **DFS-first mppm sweep** (ROADMAP): `mppm` vs `mppm_dfs` across
//!    the Figure 4–8 axes (ρs, n, W, N, L), wall-clock plus the
//!    deterministic peak live-arena bytes, recording the memory/time
//!    trade-off of depth-first mining under the λ′ bound.

use super::{paper, pct, timed_median};
use crate::data::{ax_fragment, scaling_sequence};
use perigap_analysis::report::{seconds, TextTable};
use perigap_core::adaptive::ReprCache;
use perigap_core::dfs::mpp_dfs_traced;
use perigap_core::mppm::{mppm_dfs_traced, mppm_traced};
use perigap_core::parallel::mpp_parallel_traced;
use perigap_core::pil::{
    join_dense_into, join_multi_into, DensePil, JoinCounters, MultiJoinScratch,
};
use perigap_core::trace::MetricsObserver;
use perigap_core::{GapRequirement, MineOutcome};
use std::fmt::Write as _;
use std::time::Duration;

/// The acceptance gap (matches `bench`).
const GAP: (usize, usize) = (0, 9);
/// Threads for the BFS-vs-DFS sweep (the ISSUE-3 acceptance config).
const ENGINE_THREADS: usize = 4;

/// Prefixes joined against each suffix: the dense build amortisation
/// factor, mirroring the per-generation reuse inside the engines.
const PREFIXES: usize = 8;

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// A synthetic PIL at a controlled occupancy: `round(span · occ)`
/// entries spread evenly over `span` offsets, with small deterministic
/// counts (no `u64` saturation, so [`DensePil::build`] always
/// succeeds).
fn occupancy_entries(span: usize, occ: f64, salt: u64) -> Vec<(u32, u64)> {
    let k = ((span as f64 * occ).round() as usize).clamp(2, span);
    let stride = span as f64 / k as f64;
    (0..k)
        .map(|i| {
            let off = (i as f64 * stride) as u32;
            let count = 1 + (i as u64).wrapping_mul(salt) % 13;
            (off, count)
        })
        .collect()
}

/// One occupancy row of the kernel sweep.
struct OccupancyRow {
    occ_pct: f64,
    entries: usize,
    span: usize,
    auto_chose_dense: bool,
    sparse: Duration,
    dense: Duration,
    auto: Duration,
}

/// The occupancy kernel sweep. Prints the table and returns the JSON
/// fragment for the `pil_repr.occupancy` array.
pub fn occupancy_section(quick: bool) -> String {
    let gap = GapRequirement::new(GAP.0, GAP.1).expect("static gap");
    let span: usize = if quick { 4_096 } else { 16_384 };
    let rounds = if quick { 5 } else { 30 };
    let reps = if quick { 2 } else { 3 };
    println!(
        "pil-repr: occupancy kernel sweep, span {span}, {PREFIXES} prefixes x {rounds} rounds, gap [{}, {}]",
        GAP.0, GAP.1
    );

    let mut rows = Vec::new();
    for &occ in &[0.01, 0.10, 0.50, 0.90] {
        let suffix = occupancy_entries(span, occ, 11);
        let prefixes: Vec<Vec<(u32, u64)>> = (0..PREFIXES)
            .map(|r| occupancy_entries(span, occ, 3 + 2 * r as u64))
            .collect();
        let mut scratch = MultiJoinScratch::default();
        let mut outs: Vec<Vec<(u32, u64)>> = vec![Vec::new()];
        let mut dout: Vec<(u32, u64)> = Vec::new();
        let mut jc = JoinCounters::default();

        // Cross-check once per occupancy: the dense probe must match
        // the sparse merge exactly before any timing is trusted.
        join_multi_into(
            &prefixes[0],
            &[&suffix],
            gap,
            &mut outs[..1],
            &mut scratch,
            &mut jc,
        );
        let check = DensePil::build(&suffix).expect("bench counts fit u64");
        join_dense_into(&prefixes[0], &check, gap, &mut dout, &mut jc);
        assert_eq!(outs[0], dout, "kernel mismatch at occupancy {occ}");

        let (_, sparse) = timed_median(reps, || {
            for _ in 0..rounds {
                for p in &prefixes {
                    join_multi_into(p, &[&suffix], gap, &mut outs[..1], &mut scratch, &mut jc);
                    std::hint::black_box(&outs);
                }
            }
        });
        let (_, dense) = timed_median(reps, || {
            for _ in 0..rounds {
                let d = DensePil::build(&suffix).expect("bench counts fit u64");
                for p in &prefixes {
                    dout.clear();
                    join_dense_into(p, &d, gap, &mut dout, &mut jc);
                    std::hint::black_box(&dout);
                }
            }
        });
        // Decide once per suffix per generation and then run the pure
        // path — the same partition-then-phase structure the engines
        // use, so the sparse branch is the sparse loop plus exactly
        // one occupancy test per generation.
        let mut cache = ReprCache::new();
        cache.begin(1);
        let auto_chose_dense = cache.decide(0, &suffix);
        let (_, auto) = timed_median(reps, || {
            for _ in 0..rounds {
                cache.begin(1);
                if cache.decide(0, &suffix) {
                    let d = cache.get(0).expect("decided dense");
                    for p in &prefixes {
                        dout.clear();
                        join_dense_into(p, d, gap, &mut dout, &mut jc);
                        std::hint::black_box(&dout);
                    }
                } else {
                    for p in &prefixes {
                        join_multi_into(p, &[&suffix], gap, &mut outs[..1], &mut scratch, &mut jc);
                        std::hint::black_box(&outs);
                    }
                }
            }
        });
        rows.push(OccupancyRow {
            occ_pct: occ * 100.0,
            entries: suffix.len(),
            span,
            auto_chose_dense,
            sparse,
            dense,
            auto,
        });
    }

    let mut table = TextTable::new(&[
        "occupancy",
        "entries",
        "auto picks",
        "sparse (ms)",
        "dense (ms)",
        "auto (ms)",
        "dense vs sparse",
        "auto vs sparse",
    ]);
    for r in &rows {
        table.row(&[
            format!("{:.0}%", r.occ_pct),
            r.entries.to_string(),
            if r.auto_chose_dense {
                "dense"
            } else {
                "sparse"
            }
            .to_string(),
            format!("{:.3}", ms(r.sparse)),
            format!("{:.3}", ms(r.dense)),
            format!("{:.3}", ms(r.auto)),
            format!("{:.2}x", r.sparse.as_secs_f64() / r.dense.as_secs_f64()),
            format!("{:.2}x", r.sparse.as_secs_f64() / r.auto.as_secs_f64()),
        ]);
    }
    print!("{}", table.render());

    // The acceptance bars: auto ≥ 1.5x on the dense regime (≥ 50%
    // occupancy), within 5% of sparse on the sparse regime (≤ 5%).
    // Reported, not asserted — wall-clock bars belong to the recorded
    // full run, not to whatever loaded machine runs the smoke.
    let dense_regime = rows
        .iter()
        .filter(|r| r.occ_pct >= 50.0)
        .map(|r| r.sparse.as_secs_f64() / r.auto.as_secs_f64())
        .fold(f64::INFINITY, f64::min);
    let sparse_regime = rows
        .iter()
        .filter(|r| r.occ_pct <= 5.0)
        .map(|r| (r.auto.as_secs_f64() / r.sparse.as_secs_f64() - 1.0) * 100.0)
        .fold(f64::NEG_INFINITY, f64::max);
    println!(
        "  acceptance: dense-regime auto speedup >= {dense_regime:.2}x (bar 1.5x) | sparse-regime auto penalty {sparse_regime:+.1}% (bar +5%)"
    );

    let mut s = String::from("[");
    for (i, r) in rows.iter().enumerate() {
        if i > 0 {
            s.push_str(", ");
        }
        let _ = write!(
            s,
            "{{\"occupancy_pct\": {}, \"entries\": {}, \"span\": {}, \"rounds\": {rounds}, \"prefixes\": {PREFIXES}, \"auto_chose_dense\": {}, \"sparse_ms\": {:.3}, \"dense_ms\": {:.3}, \"auto_ms\": {:.3}, \"dense_speedup\": {:.3}, \"auto_speedup\": {:.3}}}",
            r.occ_pct,
            r.entries,
            r.span,
            r.auto_chose_dense,
            ms(r.sparse),
            ms(r.dense),
            ms(r.auto),
            r.sparse.as_secs_f64() / r.dense.as_secs_f64(),
            r.sparse.as_secs_f64() / r.auto.as_secs_f64(),
        );
    }
    s.push(']');
    s
}

/// One point of a BFS-vs-DFS axis sweep.
struct SweepPoint {
    x: String,
    bfs: Duration,
    dfs: Duration,
    bfs_peak: usize,
    dfs_peak: usize,
    patterns: usize,
}

/// Run one axis point: median wall for both engines plus one traced
/// run each for the deterministic peak-arena gauge, with a hard check
/// that both engines find the same frequent set.
fn sweep_point(
    reps: usize,
    x: String,
    mut bfs: impl FnMut(&mut MetricsObserver) -> MineOutcome,
    mut dfs: impl FnMut(&mut MetricsObserver) -> MineOutcome,
) -> SweepPoint {
    let (_, bfs_wall) = timed_median(reps, || bfs(&mut MetricsObserver::new()));
    let (_, dfs_wall) = timed_median(reps, || dfs(&mut MetricsObserver::new()));
    let mut bm = MetricsObserver::new();
    let b = bfs(&mut bm);
    let mut dm = MetricsObserver::new();
    let d = dfs(&mut dm);
    assert_eq!(b.frequent, d.frequent, "engines disagree at {x}");
    SweepPoint {
        x,
        bfs: bfs_wall,
        dfs: dfs_wall,
        bfs_peak: bm
            .complete
            .as_ref()
            .expect("traced run completes")
            .peak_arena_bytes,
        dfs_peak: dm
            .complete
            .as_ref()
            .expect("traced run completes")
            .peak_arena_bytes,
        patterns: d.frequent.len(),
    }
}

/// Render one axis of the sweep as a table plus its JSON fragment.
fn render_axis(name: &str, xlabel: &str, points: &[SweepPoint]) -> String {
    let mut table = TextTable::new(&[
        xlabel,
        "bfs (s)",
        "dfs (s)",
        "wall ratio",
        "bfs peak (B)",
        "dfs peak (B)",
        "peak ratio",
    ]);
    for p in points {
        table.row(&[
            p.x.clone(),
            seconds(p.bfs),
            seconds(p.dfs),
            format!("{:.2}x", p.bfs.as_secs_f64() / p.dfs.as_secs_f64()),
            p.bfs_peak.to_string(),
            p.dfs_peak.to_string(),
            format!("{:.2}x", p.bfs_peak as f64 / p.dfs_peak.max(1) as f64),
        ]);
    }
    println!("pil-repr: dfs sweep axis {name}");
    print!("{}", table.render());

    let mut s = String::new();
    let _ = write!(s, "{{\"axis\": \"{name}\", \"points\": [");
    for (i, p) in points.iter().enumerate() {
        if i > 0 {
            s.push_str(", ");
        }
        let _ = write!(
            s,
            "{{\"x\": \"{}\", \"bfs_ms\": {:.3}, \"dfs_ms\": {:.3}, \"bfs_peak_arena_bytes\": {}, \"dfs_peak_arena_bytes\": {}, \"patterns\": {}}}",
            p.x,
            ms(p.bfs),
            ms(p.dfs),
            p.bfs_peak,
            p.dfs_peak,
            p.patterns
        );
    }
    s.push_str("]}");
    s
}

/// The DFS-first mppm sweep (ROADMAP item): `mppm` vs `mppm_dfs` (and
/// `mpp_parallel` vs `mpp_dfs` on the Figure 5 axis) across the
/// Figure 4–8 axes. Returns the JSON fragment for the `dfs_sweep`
/// array.
pub fn dfs_sweep(quick: bool) -> String {
    let reps = if quick { 1 } else { 3 };
    let seq_len = if quick { 600 } else { paper::SEQ_LEN };
    let config = perigap_core::mpp::MppConfig::default();
    let paper_gap = GapRequirement::new(paper::GAP_MIN, paper::GAP_MAX).expect("static gap");
    println!(
        "pil-repr: dfs-first mppm sweep, {ENGINE_THREADS} threads, L = {seq_len}, reps {reps}"
    );
    let mut axes = Vec::new();

    // Figure 4 axis: ρs sweep, mppm at m = 10, gap [9, 12].
    let rhos: Vec<f64> = if quick {
        vec![0.003e-2, 0.005e-2]
    } else {
        paper::RHO_SWEEP_PERCENT.iter().map(|p| p * 1e-2).collect()
    };
    let seq = ax_fragment(seq_len);
    let points: Vec<SweepPoint> = rhos
        .iter()
        .map(|&rho| {
            sweep_point(
                reps,
                pct(rho),
                |o| {
                    mppm_traced(&seq, paper_gap, rho, paper::M, config.clone(), o)
                        .expect("mppm runs")
                },
                |o| {
                    mppm_dfs_traced(
                        &seq,
                        paper_gap,
                        rho,
                        paper::M,
                        config.clone(),
                        ENGINE_THREADS,
                        o,
                    )
                    .expect("mppm_dfs runs")
                },
            )
        })
        .collect();
    axes.push(render_axis("rho", "rho", &points));

    // Figure 5 axis: user input n, mpp engines, gap [9, 12].
    let ns: Vec<usize> = if quick {
        vec![10, 40]
    } else {
        vec![10, 20, 40, 77]
    };
    let points: Vec<SweepPoint> = ns
        .iter()
        .map(|&n| {
            sweep_point(
                reps,
                n.to_string(),
                |o| {
                    mpp_parallel_traced(
                        &seq,
                        paper_gap,
                        paper::RHO,
                        n,
                        config.clone(),
                        ENGINE_THREADS,
                        o,
                    )
                    .expect("mpp_parallel runs")
                },
                |o| {
                    mpp_dfs_traced(
                        &seq,
                        paper_gap,
                        paper::RHO,
                        n,
                        config.clone(),
                        ENGINE_THREADS,
                        o,
                    )
                    .expect("mpp_dfs runs")
                },
            )
        })
        .collect();
    axes.push(render_axis("n", "n", &points));

    // Figure 6 axis: gap flexibility W (gap [9, 8+W]), m = 8.
    let ws: Vec<usize> = if quick {
        vec![4, 6]
    } else {
        vec![4, 5, 6, 7, 8]
    };
    let points: Vec<SweepPoint> = ws
        .iter()
        .map(|&w| {
            let gap =
                GapRequirement::new(paper::GAP_MIN, paper::GAP_MIN + w - 1).expect("sweep gap");
            sweep_point(
                reps,
                format!("W={w}"),
                |o| mppm_traced(&seq, gap, paper::RHO, 8, config.clone(), o).expect("mppm runs"),
                |o| {
                    mppm_dfs_traced(&seq, gap, paper::RHO, 8, config.clone(), ENGINE_THREADS, o)
                        .expect("mppm_dfs runs")
                },
            )
        })
        .collect();
    axes.push(render_axis("W", "W", &points));

    // Figure 7 axis: minimum gap N (gap [N, N+3]), m = 8.
    let gap_mins: Vec<usize> = if quick {
        vec![8, 12]
    } else {
        vec![8, 9, 10, 11, 12]
    };
    let points: Vec<SweepPoint> = gap_mins
        .iter()
        .map(|&gmin| {
            let gap = GapRequirement::new(gmin, gmin + 3).expect("sweep gap");
            sweep_point(
                reps,
                format!("N={gmin}"),
                |o| mppm_traced(&seq, gap, paper::RHO, 8, config.clone(), o).expect("mppm runs"),
                |o| {
                    mppm_dfs_traced(&seq, gap, paper::RHO, 8, config.clone(), ENGINE_THREADS, o)
                        .expect("mppm_dfs runs")
                },
            )
        })
        .collect();
    axes.push(render_axis("gap_min", "N", &points));

    // Figure 8 axis: sequence length L, homogeneous family, m = 10.
    let lens: Vec<usize> = if quick {
        vec![1_000, 2_000]
    } else {
        vec![2_000, 4_000, 6_000, 8_000, 10_000]
    };
    let points: Vec<SweepPoint> = lens
        .iter()
        .map(|&len| {
            let seq = scaling_sequence(len);
            sweep_point(
                reps,
                len.to_string(),
                |o| {
                    mppm_traced(&seq, paper_gap, paper::RHO, paper::M, config.clone(), o)
                        .expect("mppm runs")
                },
                |o| {
                    mppm_dfs_traced(
                        &seq,
                        paper_gap,
                        paper::RHO,
                        paper::M,
                        config.clone(),
                        ENGINE_THREADS,
                        o,
                    )
                    .expect("mppm_dfs runs")
                },
            )
        })
        .collect();
    axes.push(render_axis("length", "L", &points));

    format!("[{}]", axes.join(", "))
}

/// Standalone entry point for `repro pil-repr`: the occupancy kernel
/// sweep. The JSON fragment is discarded here; `repro bench` embeds it
/// in `BENCH_mining.json`.
pub fn run(quick: bool) {
    let _ = occupancy_section(quick);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn occupancy_entries_are_sorted_unique_and_sized() {
        for &occ in &[0.01, 0.5, 0.9] {
            let e = occupancy_entries(2_000, occ, 7);
            assert!(e.windows(2).all(|w| w[0].0 < w[1].0), "occ {occ}");
            let want = (2_000.0 * occ).round() as usize;
            assert_eq!(e.len(), want.max(2));
            assert!(e.iter().all(|&(_, c)| c >= 1));
        }
    }

    #[test]
    fn occupancy_section_reports_all_rows() {
        let json = occupancy_section(true);
        assert!(json.contains("\"occupancy_pct\": 1"), "{json}");
        assert!(json.contains("\"occupancy_pct\": 90"), "{json}");
        assert!(json.contains("\"auto_chose_dense\": true"), "{json}");
        assert!(json.contains("\"auto_chose_dense\": false"), "{json}");
    }

    #[test]
    fn dfs_sweep_covers_every_axis() {
        let json = dfs_sweep(true);
        for axis in ["rho", "n", "W", "gap_min", "length"] {
            assert!(json.contains(&format!("\"axis\": \"{axis}\"")), "{json}");
        }
        assert!(json.contains("dfs_peak_arena_bytes"), "{json}");
    }
}
