//! Differential property tests: the packed-key arena engine vs the
//! seed reference implementation, across random sequences, gap
//! requirements (including the degenerate `N == M`) and alphabets
//! (dense-table DNA, sparse-key protein, and an odd-sized custom set).

use perigap::core::adaptive::{repr_stats, ReprCache};
use perigap::core::naive::support_dp;
use perigap::core::pil::{
    join_dense_into, join_multi_into, DensePil, JoinCounters, MultiJoinScratch, Pil,
};
use perigap::core::reference::{build_all_reference, mpp_reference};
use perigap::prelude::*;
use proptest::prelude::*;

/// Strategy: an alphabet whose size exercises all three seeding paths —
/// 4 (dense, 2 bits/symbol), 20 (dense at level 3, sparse higher), and
/// a 3-letter custom alphabet (non-power-of-two bit width).
fn alphabet() -> impl Strategy<Value = Alphabet> {
    (0u8..3).prop_map(|which| match which {
        0 => Alphabet::Dna,
        1 => Alphabet::Protein,
        _ => Alphabet::custom(b"xyz").unwrap(),
    })
}

/// Strategy: codes valid for any of the alphabets above (< 3 always).
fn codes(max_len: usize) -> impl Strategy<Value = Vec<u8>> {
    proptest::collection::vec(0u8..3, 5..max_len)
}

/// Strategy: a gap requirement, biased to include `N == M`.
fn gap_req() -> impl Strategy<Value = (usize, usize)> {
    (0usize..4, 0usize..3).prop_map(|(n, w)| (n, n + w))
}

/// Strategy: one PIL entry count — mostly small, sometimes huge enough
/// that a handful of entries overflow `u64` when summed (the corner
/// where `DensePil::build` must refuse and the saturating sparse walk
/// takes over).
fn entry_count() -> impl Strategy<Value = u64> {
    (0u8..6, 1u64..1_000).prop_map(|(which, small)| match which {
        4 => u64::MAX / 3,
        5 => u64::MAX,
        _ => small,
    })
}

/// Strategy: arbitrary sorted-unique PIL entries over a narrow offset
/// range (so dense and sparse regimes both occur), including empty.
fn pil_entries() -> impl Strategy<Value = Vec<(u32, u64)>> {
    collection::vec((0u32..300, entry_count()), 0..40).prop_map(|mut v| {
        v.sort_by_key(|&(x, _)| x);
        v.dedup_by_key(|e| e.0);
        v
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn packed_seed_matches_reference(
        (alpha, codes, (n, m)) in (alphabet(), codes(60), gap_req())
    ) {
        let seq = Sequence::from_codes(alpha, codes).unwrap();
        let gap = GapRequirement::new(n, m).unwrap();
        for level in 1..=4usize {
            let engine = Pil::build_all(&seq, gap, level);
            let reference = build_all_reference(&seq, gap, level);
            prop_assert_eq!(engine.len(), reference.len(), "level {}", level);
            for (pattern, pil) in &reference {
                prop_assert_eq!(engine.get(pattern), Some(pil), "level {}", level);
            }
        }
    }

    #[test]
    fn packed_seed_matches_dp_oracle(
        (alpha, codes, (n, m)) in (alphabet(), codes(40), gap_req())
    ) {
        let seq = Sequence::from_codes(alpha, codes).unwrap();
        let gap = GapRequirement::new(n, m).unwrap();
        for level in 1..=3usize {
            for (pattern, pil) in &Pil::build_all(&seq, gap, level) {
                prop_assert_eq!(pil.support(), support_dp(&seq, gap, pattern));
            }
        }
    }

    #[test]
    fn degenerate_equal_gap_agrees(
        (alpha, codes, n) in (alphabet(), codes(50), 0usize..5)
    ) {
        // N == M: exactly one admissible step, so PILs collapse to
        // single-count entries and the join window has width one.
        let seq = Sequence::from_codes(alpha, codes).unwrap();
        let gap = GapRequirement::new(n, n).unwrap();
        let engine = Pil::build_all(&seq, gap, 3);
        let reference = build_all_reference(&seq, gap, 3);
        prop_assert_eq!(engine.len(), reference.len());
        for (pattern, pil) in &reference {
            prop_assert_eq!(engine.get(pattern), Some(pil));
        }
    }

    #[test]
    fn mined_frequent_sets_agree(
        (alpha, codes, (n, m), rho_scale, threads) in
            (alphabet(), codes(60), gap_req(), 1usize..40, 1usize..5)
    ) {
        let seq = Sequence::from_codes(alpha, codes).unwrap();
        let gap = GapRequirement::new(n, m).unwrap();
        let rho = rho_scale as f64 * 1e-4;
        let config = MppConfig::default();
        let old = mpp_reference(&seq, gap, rho, 8, config.clone(), threads);
        let new = mpp_parallel(&seq, gap, rho, 8, config.clone(), threads);
        // Sequences too short for a level-3 pattern under this gap are
        // rejected; both engines must agree on that too.
        prop_assert_eq!(old.is_ok(), new.is_ok());
        let Ok(old) = old else { return Ok(()) };
        let new = new.unwrap();
        prop_assert_eq!(old.frequent.len(), new.frequent.len());
        for (a, b) in old.frequent.iter().zip(&new.frequent) {
            prop_assert_eq!(&a.pattern, &b.pattern);
            prop_assert_eq!(a.support, b.support);
        }
        let serial = mpp(&seq, gap, rho, 8, config.clone()).unwrap();
        prop_assert_eq!(serial.frequent.len(), new.frequent.len());
        for (a, b) in serial.frequent.iter().zip(&new.frequent) {
            prop_assert_eq!(&a.pattern, &b.pattern);
            prop_assert_eq!(a.support, b.support);
        }
    }

    #[test]
    fn dense_join_agrees_with_sparse_reference(
        (a, b, (n, m)) in (pil_entries(), pil_entries(), gap_req())
    ) {
        let gap = GapRequirement::new(n, m).unwrap();
        let prefix = Pil::from_entries(a);
        let suffix = Pil::from_entries(b);
        let (sparse, sparse_sat) = Pil::join_checked(&prefix, &suffix, gap);
        // The public dense entry point (falls back to sparse when the
        // suffix total overflows u64) must be exactly equivalent,
        // saturation flag included.
        let (dense, dense_sat) = Pil::join_dense(&prefix, &suffix, gap);
        prop_assert_eq!(dense.entries(), sparse.entries());
        prop_assert_eq!(dense_sat, sparse_sat);
        // When the dense build is possible, the raw kernel agrees too —
        // and a buildable suffix can never saturate any window.
        if let Some(d) = DensePil::build(suffix.entries()) {
            let mut out = Vec::new();
            join_dense_into(prefix.entries(), &d, gap, &mut out, &mut JoinCounters::default());
            prop_assert_eq!(out.as_slice(), sparse.entries());
            prop_assert!(!sparse_sat);
        }
    }

    #[test]
    fn batched_and_cache_dispatched_joins_agree(
        (a, partners, (n, m)) in (
            pil_entries(),
            collection::vec(pil_entries(), 1..6),
            gap_req(),
        )
    ) {
        let gap = GapRequirement::new(n, m).unwrap();
        let prefix = Pil::from_entries(a);
        let suffixes: Vec<Pil> = partners.into_iter().map(Pil::from_entries).collect();
        let expected: Vec<(Pil, bool)> = suffixes
            .iter()
            .map(|s| Pil::join_checked(&prefix, s, gap))
            .collect();

        // The batched multi-suffix walk (one pass over the prefix).
        let views: Vec<&[(u32, u64)]> = suffixes.iter().map(|s| s.entries()).collect();
        let mut outs: Vec<Vec<(u32, u64)>> = vec![Vec::new(); views.len()];
        let mut scratch = MultiJoinScratch::default();
        join_multi_into(
            prefix.entries(),
            &views,
            gap,
            &mut outs,
            &mut scratch,
            &mut JoinCounters::default(),
        );
        for (j, (pil, sat)) in expected.iter().enumerate() {
            prop_assert_eq!(outs[j].as_slice(), pil.entries(), "partner {}", j);
            prop_assert_eq!(scratch.saturated[j], *sat, "partner {}", j);
        }

        // The occupancy-rule cache dispatch (what the engines run).
        let mut cache = ReprCache::new();
        cache.begin(suffixes.len());
        for (j, s) in suffixes.iter().enumerate() {
            let (pil, sat) = &expected[j];
            match cache.dense_for(j, s.entries()) {
                Some(d) => {
                    let mut out = Vec::new();
                    join_dense_into(prefix.entries(), d, gap, &mut out, &mut JoinCounters::default());
                    prop_assert_eq!(out.as_slice(), pil.entries(), "dense partner {}", j);
                    prop_assert!(!sat, "a dense-joinable partner cannot saturate");
                }
                None => {
                    let (again, sat_again) = Pil::join_checked(&prefix, s, gap);
                    prop_assert_eq!(again.entries(), pil.entries());
                    prop_assert_eq!(sat_again, *sat);
                }
            }
        }
    }

    /// The occupancy rule mixes dense and sparse suffix lists; the
    /// breadth-first and DFS engines must still match the seed
    /// reference, whose joins are all sparse.
    #[test]
    fn mining_agrees_across_pil_repr(
        (alpha, codes, (n, m), rho_scale) in (alphabet(), codes(60), gap_req(), 1usize..40)
    ) {
        let seq = Sequence::from_codes(alpha, codes).unwrap();
        let gap = GapRequirement::new(n, m).unwrap();
        let rho = rho_scale as f64 * 1e-4;
        let config = MppConfig::default();
        let base = mpp_reference(&seq, gap, rho, 8, config.clone(), 1);
        let run = mpp(&seq, gap, rho, 8, config.clone());
        prop_assert_eq!(base.is_ok(), run.is_ok());
        let Ok(base) = base else { return Ok(()) };
        let run = run.unwrap();
        prop_assert_eq!(base.frequent.len(), run.frequent.len());
        for (a, b) in base.frequent.iter().zip(&run.frequent) {
            prop_assert_eq!(&a.pattern, &b.pattern);
            prop_assert_eq!(a.support, b.support);
        }
        prop_assert_eq!(base.stats.support_saturated, run.stats.support_saturated);
        for (a, b) in base.stats.levels.iter().zip(&run.stats.levels) {
            prop_assert_eq!(a.candidates, b.candidates, "level {}", a.level);
            prop_assert_eq!(a.frequent, b.frequent, "level {}", a.level);
            prop_assert_eq!(a.extended, b.extended, "level {}", a.level);
        }
        let dfs = mpp_dfs(&seq, gap, rho, 8, config, 2).unwrap();
        prop_assert_eq!(base.frequent.len(), dfs.frequent.len());
        for (a, b) in base.frequent.iter().zip(&dfs.frequent) {
            prop_assert_eq!(&a.pattern, &b.pattern);
            prop_assert_eq!(a.support, b.support);
        }
    }

    #[test]
    fn dfs_engine_agrees_with_bfs_and_reference(
        (alpha, codes, (n, m), rho_scale, threads) in
            (alphabet(), codes(60), gap_req(), 1usize..40, 1usize..5)
    ) {
        let seq = Sequence::from_codes(alpha, codes).unwrap();
        let gap = GapRequirement::new(n, m).unwrap();
        let rho = rho_scale as f64 * 1e-4;
        let config = MppConfig::default();
        let bfs = mpp(&seq, gap, rho, 8, config.clone());
        let dfs = mpp_dfs(&seq, gap, rho, 8, config.clone(), threads);
        prop_assert_eq!(bfs.is_ok(), dfs.is_ok());
        let Ok(bfs) = bfs else { return Ok(()) };
        let dfs = dfs.unwrap();
        // Frequent sets, supports, and every stats counter must be
        // engine-invariant — only durations and arena bytes may differ.
        prop_assert_eq!(bfs.frequent.len(), dfs.frequent.len());
        for (a, b) in bfs.frequent.iter().zip(&dfs.frequent) {
            prop_assert_eq!(&a.pattern, &b.pattern);
            prop_assert_eq!(a.support, b.support);
        }
        prop_assert_eq!(bfs.stats.n_used, dfs.stats.n_used);
        prop_assert_eq!(bfs.stats.support_saturated, dfs.stats.support_saturated);
        prop_assert_eq!(bfs.stats.levels.len(), dfs.stats.levels.len());
        for (a, b) in bfs.stats.levels.iter().zip(&dfs.stats.levels) {
            prop_assert_eq!(a.level, b.level);
            prop_assert_eq!(a.candidates, b.candidates, "level {}", a.level);
            prop_assert_eq!(a.frequent, b.frequent, "level {}", a.level);
            prop_assert_eq!(a.extended, b.extended, "level {}", a.level);
        }
        let reference = mpp_reference(&seq, gap, rho, 8, config.clone(), 1).unwrap();
        prop_assert_eq!(reference.frequent.len(), dfs.frequent.len());
        for (a, b) in reference.frequent.iter().zip(&dfs.frequent) {
            prop_assert_eq!(&a.pattern, &b.pattern);
            prop_assert_eq!(a.support, b.support);
        }
    }
}

/// Everything observable except durations, arena bytes and the
/// physical diagnostics (spill and join counters) must be bit-identical
/// between two runs of the same mine — used for the spill and kernel
/// differentials alike.
fn assert_outcome_invariant(a: &MineOutcome, b: &MineOutcome, label: &str) {
    assert_eq!(a.frequent.len(), b.frequent.len(), "{label}");
    for (x, y) in a.frequent.iter().zip(&b.frequent) {
        assert_eq!(x.pattern, y.pattern, "{label}");
        assert_eq!(x.support, y.support, "{label}");
    }
    assert_eq!(a.stats.n_used, b.stats.n_used, "{label}");
    assert_eq!(a.stats.em, b.stats.em, "{label}");
    assert_eq!(
        a.stats.support_saturated, b.stats.support_saturated,
        "{label}"
    );
    assert_eq!(a.stats.levels.len(), b.stats.levels.len(), "{label}");
    for (x, y) in a.stats.levels.iter().zip(&b.stats.levels) {
        assert_eq!(x.level, y.level, "{label}");
        assert_eq!(x.candidates, y.candidates, "{label} level {}", x.level);
        assert_eq!(x.frequent, y.frequent, "{label} level {}", x.level);
        assert_eq!(x.extended, y.extended, "{label} level {}", x.level);
    }
}

// The join-kernel differential mines the same input six times per
// case, so it gets its own smaller budget. Each engine reaches the PILs
// through different join kernels — the seed reference's per-candidate
// sparse join, the batched multi-suffix walk of serial and pooled BFS
// and of the DFS subtree tasks, and the dense prefix-sum probe wherever
// the occupancy rule densifies a list — and every one must reproduce
// the reference (MPP) or serial MPPm bit-for-bit: patterns, supports,
// and all `MineStats` counters.
proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn mining_agrees_across_kernels(
        (alpha, codes, (n, m), rho_scale) in (alphabet(), codes(60), gap_req(), 1usize..40)
    ) {
        use perigap::core::mppm::{mppm, mppm_dfs};
        let seq = Sequence::from_codes(alpha, codes).unwrap();
        let gap = GapRequirement::new(n, m).unwrap();
        let rho = rho_scale as f64 * 1e-4;
        let cfg = MppConfig::default();
        let base = mpp_reference(&seq, gap, rho, 8, cfg.clone(), 1);
        let bfs = mpp(&seq, gap, rho, 8, cfg.clone());
        prop_assert_eq!(base.is_ok(), bfs.is_ok());
        let Ok(base) = base else { return Ok(()) };
        assert_outcome_invariant(&base, &bfs.unwrap(), "bfs");
        let par = mpp_parallel(&seq, gap, rho, 8, cfg.clone(), 3).unwrap();
        assert_outcome_invariant(&base, &par, "parallel");
        let dfs = mpp_dfs(&seq, gap, rho, 8, cfg.clone(), 2).unwrap();
        assert_outcome_invariant(&base, &dfs, "dfs");
        if let Ok(base_m) = mppm(&seq, gap, rho, 4, cfg.clone()) {
            let dfs_m = mppm_dfs(&seq, gap, rho, 4, cfg, 2).unwrap();
            assert_outcome_invariant(&base_m, &dfs_m, "mppm dfs");
        }
    }
}

/// A pruned outcome must carry exactly `expect` — patterns, supports,
/// and bit-identical ratios — in exactly the expected order.
fn assert_pruned_equal(
    expect: &[FrequentPattern],
    got: &MineOutcome,
    label: &str,
) -> Result<(), TestCaseError> {
    prop_assert_eq!(expect.len(), got.frequent.len(), "{}", label);
    for (x, y) in expect.iter().zip(&got.frequent) {
        prop_assert_eq!(&x.pattern, &y.pattern, "{}", label);
        prop_assert_eq!(x.support, y.support, "{}", label);
        prop_assert_eq!(x.ratio.to_bits(), y.ratio.to_bits(), "{}", label);
    }
    Ok(())
}

// The pruning differential runs a dozen mines per case (top-k and
// targeted, through every engine, with and without a spill ceiling),
// so it gets a small case budget. Pruned mining is an output
// contract: whatever the engine, gap regime (rigid `W == 1`, where the
// rising floor prunes the search itself, or flexible `W > 1`, where
// only emission is gated), thread count, or memory ceiling,
// the outcome must be bit-identical to post-filtering the full mine.
proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn topk_and_targeted_pruning_match_post_filtering(
        (alpha, codes, (n, m), rho_scale, k, mask_bits) in (
            alphabet(),
            codes(60),
            gap_req(), // biased toward N == M: both floor regimes occur
            1usize..40,
            1usize..12,
            1u8..8, // symbol mask over codes {0, 1, 2}; never empty
        )
    ) {
        use perigap::core::mppm::mppm;
        use perigap::core::spill::{MemSpillIo, SpillIo};
        use perigap::core::{select_top_k, PruneMode, TargetSpec};
        use std::sync::Arc;

        let alpha_size = alpha.size();
        let seq = Sequence::from_codes(alpha, codes).unwrap();
        let gap = GapRequirement::new(n, m).unwrap();
        let rho = rho_scale as f64 * 1e-4;
        let cfg = MppConfig::default();

        // Top-k: every engine must reproduce `select_top_k` over the
        // full mine — same rank order, same truncation, same ratios.
        let full = mpp(&seq, gap, rho, 8, cfg.clone());
        let topk_cfg = MppConfig {
            prune: PruneMode::top_k(k),
            ..cfg.clone()
        };
        let topk = mpp(&seq, gap, rho, 8, topk_cfg.clone());
        prop_assert_eq!(full.is_ok(), topk.is_ok());
        let Ok(full) = full else { return Ok(()) };
        let topk = topk.unwrap();
        prop_assert_eq!(topk.stats.top_k, Some(k));
        let expect_topk = select_top_k(&full.frequent, k);
        assert_pruned_equal(&expect_topk, &topk, "top-k bfs")?;
        let par = mpp_parallel(&seq, gap, rho, 8, topk_cfg.clone(), 3).unwrap();
        assert_pruned_equal(&expect_topk, &par, "top-k parallel")?;
        let dfs = mpp_dfs(&seq, gap, rho, 8, topk_cfg.clone(), 2).unwrap();
        assert_pruned_equal(&expect_topk, &dfs, "top-k dfs")?;

        // Under a memory ceiling the floor drops spilled components
        // outright instead of restoring them; the outcome must not
        // move.
        let spill_cfg = MppConfig {
            max_arena_bytes: Some(1 << 30),
            spill_watermark: 0.5,
            spill_io: Some(Arc::new(MemSpillIo::default()) as Arc<dyn SpillIo>),
            ..topk_cfg.clone()
        };
        let spilled = mpp_dfs(&seq, gap, rho, 8, spill_cfg, 2).unwrap();
        assert_pruned_equal(&expect_topk, &spilled, "top-k dfs spill")?;

        // Prefix target: emission-filtered only (the self-join needs
        // every window), canonical order preserved.
        let target_cfg = |spec: &TargetSpec| MppConfig {
            prune: PruneMode::targeted(spec.clone()),
            ..cfg.clone()
        };
        let prefix_codes: Vec<u8> = full
            .frequent
            .first()
            .map(|f| f.pattern.codes()[..f.pattern.len().min(2)].to_vec())
            .unwrap_or_else(|| vec![0]);
        let prefix = TargetSpec::prefix(prefix_codes);
        let expect_prefix: Vec<FrequentPattern> = full
            .frequent
            .iter()
            .filter(|f| prefix.admits_pattern(f.pattern.codes()))
            .cloned()
            .collect();
        let run = mpp(&seq, gap, rho, 8, target_cfg(&prefix)).unwrap();
        assert_pruned_equal(&expect_prefix, &run, "prefix bfs")?;
        let run = mpp_dfs(&seq, gap, rho, 8, target_cfg(&prefix), 2).unwrap();
        assert_pruned_equal(&expect_prefix, &run, "prefix dfs")?;

        // Symbol-set target: window-closed, so whole cones are cut —
        // yet the mined set must still equal masking the full mine.
        let allowed: Vec<u8> = (0u8..3).filter(|c| mask_bits >> c & 1 == 1).collect();
        let symbols = TargetSpec::symbols(&allowed, alpha_size);
        let expect_sym: Vec<FrequentPattern> = full
            .frequent
            .iter()
            .filter(|f| symbols.admits_pattern(f.pattern.codes()))
            .cloned()
            .collect();
        let run = mpp(&seq, gap, rho, 8, target_cfg(&symbols)).unwrap();
        assert_pruned_equal(&expect_sym, &run, "symbols bfs")?;
        let run = mpp_parallel(&seq, gap, rho, 8, target_cfg(&symbols), 3).unwrap();
        assert_pruned_equal(&expect_sym, &run, "symbols parallel")?;
        let run = mpp_dfs(&seq, gap, rho, 8, target_cfg(&symbols), 2).unwrap();
        assert_pruned_equal(&expect_sym, &run, "symbols dfs")?;

        // Combined: the floor only ever counts target-admitted
        // patterns, so target-then-top-k is the composition.
        let combined = MppConfig {
            prune: PruneMode {
                top_k: Some(k),
                target: Some(symbols.clone()),
            },
            ..cfg.clone()
        };
        let expect_combined = select_top_k(&expect_sym, k);
        let run = mpp(&seq, gap, rho, 8, combined).unwrap();
        assert_pruned_equal(&expect_combined, &run, "combined")?;

        // The multi-sequence-normalized engine honors the same
        // contract.
        let full_m = mppm(&seq, gap, rho, 4, cfg.clone());
        let topk_m = mppm(
            &seq,
            gap,
            rho,
            4,
            MppConfig {
                prune: PruneMode::top_k(k),
                ..cfg
            },
        );
        prop_assert_eq!(full_m.is_ok(), topk_m.is_ok());
        if let Ok(full_m) = full_m {
            let expect_m = select_top_k(&full_m.frequent, k);
            assert_pruned_equal(&expect_m, &topk_m.unwrap(), "top-k mppm")?;
        }
    }
}

// The spill differential runs three full mines per engine per case, so
// it gets its own smaller case budget.
proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn spilling_never_changes_the_mined_outcome(
        (alpha, codes, (n, m), rho_scale, watermark) in (
            alphabet(),
            codes(60),
            gap_req(),
            1usize..40,
            (0u8..3).prop_map(|w| match w {
                0 => 0.0f64,
                1 => 0.5,
                _ => 1.0,
            }),
        )
    ) {
        use perigap::core::dfs::mpp_dfs_traced;
        use perigap::core::mppm::mppm_dfs;
        use perigap::core::spill::{MemSpillIo, SpillIo};
        use perigap::core::trace::MetricsObserver;
        use std::sync::Arc;

        let seq = Sequence::from_codes(alpha, codes).unwrap();
        let gap = GapRequirement::new(n, m).unwrap();
        let rho = rho_scale as f64 * 1e-4;
        let unbounded_cfg = MppConfig::default();
        let spill_cfg = |cap: usize| MppConfig {
            max_arena_bytes: Some(cap),
            spill_watermark: watermark,
            spill_io: Some(Arc::new(MemSpillIo::default()) as Arc<dyn SpillIo>),
            ..MppConfig::default()
        };

        for threads in [1usize, 2] {
            let free = mpp_dfs(&seq, gap, rho, 8, unbounded_cfg.clone(), threads);
            let spill = mpp_dfs(&seq, gap, rho, 8, spill_cfg(1 << 30), threads);
            prop_assert_eq!(free.is_ok(), spill.is_ok());
            if let Ok(free) = free {
                assert_outcome_invariant(&free, &spill.unwrap(), &format!("mpp {threads}t"));
            }

            let free_m = mppm_dfs(&seq, gap, rho, 4, unbounded_cfg.clone(), threads);
            let spill_m = mppm_dfs(&seq, gap, rho, 4, spill_cfg(1 << 30), threads);
            prop_assert_eq!(free_m.is_ok(), spill_m.is_ok());
            if let Ok(free_m) = free_m {
                assert_outcome_invariant(&free_m, &spill_m.unwrap(), &format!("mppm {threads}t"));
            }
        }

        // Tiny cap: single-threaded, capped at exactly the peak the
        // spilling run itself reports — it must still complete, with
        // the same outcome.
        let mut metrics = MetricsObserver::new();
        let traced = mpp_dfs_traced(&seq, gap, rho, 8, spill_cfg(1 << 30), 1, &mut metrics);
        if let Ok(traced) = traced {
            let peak = metrics.complete.as_ref().unwrap().peak_arena_bytes.max(1);
            let tiny = mpp_dfs(&seq, gap, rho, 8, spill_cfg(peak), 1).unwrap();
            assert_outcome_invariant(&traced, &tiny, "tiny cap");
        }
    }
}

/// Level-6 patterns the pooled-path differential wants carried into
/// the join: at least the pool's threshold (256 kept parents), and few
/// enough that level 7 comes out smaller than level 6.
const POOLED_KEPT: std::ops::RangeInclusive<usize> = 256..=1500;

/// Bisect ρ (on a log scale) until level 6 keeps a [`POOLED_KEPT`]
/// frontier. Kept counts only fall as ρ rises, and a cap at level 6
/// stops each probe before the expensive join.
fn rho_for_partial_level6(seq: &Sequence, gap: GapRequirement) -> Option<f64> {
    let capped = MppConfig {
        max_level: Some(6),
        ..MppConfig::default()
    };
    let kept6 = |rho: f64| {
        mpp(seq, gap, rho, 8, capped.clone())
            .ok()
            .and_then(|o| {
                o.stats
                    .levels
                    .iter()
                    .find(|l| l.level == 6)
                    .map(|l| l.extended)
            })
            .unwrap_or(0)
    };
    let (mut lo, mut hi) = (1e-6f64.ln(), 1e-2f64.ln());
    for _ in 0..20 {
        let mid = (lo + hi) / 2.0;
        let kept = kept6(mid.exp());
        if POOLED_KEPT.contains(&kept) {
            return Some(mid.exp());
        }
        if kept > *POOLED_KEPT.end() {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    None
}

// The pooled breadth-first path: DNA long enough that levels 4, 5 and
// 6 each keep at least 256 parents, so the children at levels 5, 6 and
// 7 are all generated through the worker pool — and level 7 is smaller
// than level 6, so the recycled arenas of the dead level-5 parents hold
// a shrinking generation. Patterns, supports, saturation and every
// per-level counter must match serial `mpp` and the seed reference.
// The gap is flexible and the sequence ends in an A/T-only stretch, so
// the occupancy rule must route some partner lists through the dense
// probe and others through the sparse merge, in both the pooled and the
// serial mine — otherwise either join would go untested at engine
// level. (On uniform DNA a list fills at most P(first symbol) = 1/4 of
// its span, so it reaches the rule's crossover only when all four left
// parents of its run probe it; the uniform three quarters keep all 256
// level-4 patterns alive, which level 5 needs to reach the pool.)
proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    #[test]
    fn pooled_levels_agree_with_serial_and_reference(
        (seed, len, max_step, threads) in (any::<u64>(), 1_500usize..2_000, 3usize..=4, 2usize..=4)
    ) {
        use perigap::core::parallel::mpp_parallel_traced;
        use perigap::core::trace::MetricsObserver;
        use perigap::seq::gen::iid::{uniform, weighted};
        use rand::SeedableRng;

        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let background = uniform(&mut rng, Alphabet::Dna, len * 3 / 4);
        let tail = weighted(&mut rng, Alphabet::Dna, len - len * 3 / 4, &[0.7, 0.0, 0.0, 0.3]);
        let codes = [background.codes(), tail.codes()].concat();
        let seq = Sequence::from_codes(Alphabet::Dna, codes).unwrap();
        let gap = GapRequirement::new(0, max_step).unwrap();
        let rho = rho_for_partial_level6(&seq, gap);
        prop_assert!(rho.is_some(), "no ρ keeps a partial level 6");
        let rho = rho.unwrap();
        let config = MppConfig::default();

        let mut metrics = MetricsObserver::new();
        let before = repr_stats();
        let pooled =
            mpp_parallel_traced(&seq, gap, rho, 8, config.clone(), threads, &mut metrics).unwrap();
        let joined = repr_stats().since(before);
        prop_assert!(joined.dense > 0 && joined.sparse > 0, "pooled: {:?}", joined);
        let pool_levels: Vec<usize> = metrics.pool.iter().map(|p| p.level).collect();
        for level in 5..=7 {
            prop_assert!(pool_levels.contains(&level), "level {} not pooled: {:?}", level, pool_levels);
        }
        let at = |level: usize| pooled.stats.levels.iter().find(|l| l.level == level).unwrap();
        prop_assert!(at(7).candidates < at(6).candidates, "level 7 must shrink");

        let before = repr_stats();
        let serial = mpp(&seq, gap, rho, 8, config.clone()).unwrap();
        let joined = repr_stats().since(before);
        prop_assert!(joined.dense > 0 && joined.sparse > 0, "serial: {:?}", joined);
        let reference = mpp_reference(&seq, gap, rho, 8, config, 1).unwrap();
        for (other, label) in [(&serial, "mpp"), (&reference, "mpp_reference")] {
            prop_assert_eq!(pooled.frequent.len(), other.frequent.len(), "{}", label);
            for (a, b) in pooled.frequent.iter().zip(&other.frequent) {
                prop_assert_eq!(&a.pattern, &b.pattern, "{}", label);
                prop_assert_eq!(a.support, b.support, "{}", label);
            }
            prop_assert_eq!(pooled.stats.support_saturated, other.stats.support_saturated, "{}", label);
            prop_assert_eq!(pooled.stats.levels.len(), other.stats.levels.len(), "{}", label);
            for (x, y) in pooled.stats.levels.iter().zip(&other.stats.levels) {
                prop_assert_eq!(
                    (x.level, x.candidates, x.frequent, x.extended),
                    (y.level, y.candidates, y.frequent, y.extended),
                    "{}", label
                );
            }
        }
    }
}

// Capped mines: with `max_level` set, the last generation is never
// joined, so the breadth-first drivers write it with a keep floor of
// `u128::MAX` — codes and supports only. An 8-letter-skewed protein
// sequence gives level 3 a few hundred patterns, enough for the pooled
// driver to join level 4 on its workers. Serial, pooled and DFS mines
// must all match the seed reference, counters included.
proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn capped_mines_agree_with_reference(
        (seed, len, max_level, threads, rho_scale) in
            (any::<u64>(), 300usize..600, 3usize..=5, 2usize..=4, 1usize..20)
    ) {
        use perigap::core::parallel::mpp_parallel_traced;
        use perigap::core::trace::MetricsObserver;
        use perigap::seq::gen::iid::weighted;
        use rand::SeedableRng;

        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let mut weights = [0.0; 20];
        weights[..8].fill(1.0);
        let seq = weighted(&mut rng, Alphabet::Protein, len, &weights);
        let gap = GapRequirement::new(0, 2).unwrap();
        let rho = rho_scale as f64 * 1e-5;
        let config = MppConfig {
            max_level: Some(max_level),
            ..MppConfig::default()
        };
        let reference = mpp_reference(&seq, gap, rho, 8, config.clone(), 1).unwrap();
        prop_assert!(reference.stats.levels.iter().all(|l| l.level <= max_level));
        let serial = mpp(&seq, gap, rho, 8, config.clone()).unwrap();
        let mut metrics = MetricsObserver::new();
        let pooled =
            mpp_parallel_traced(&seq, gap, rho, 8, config.clone(), threads, &mut metrics).unwrap();
        if max_level > 3 {
            prop_assert!(!metrics.pool.is_empty(), "level 4 must be pooled");
        }
        let dfs = mpp_dfs(&seq, gap, rho, 8, config, threads).unwrap();
        for (other, label) in [(&serial, "mpp"), (&pooled, "mpp_parallel"), (&dfs, "mpp_dfs")] {
            assert_outcome_invariant(&reference, other, label);
        }
    }
}
