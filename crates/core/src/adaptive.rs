//! The adaptive-n strategy sketched at the end of Section 6.
//!
//! "If a user has no idea of a good n value, we could run MPP using a
//! small n … note the longest pattern discovered, use its length to
//! refine n and re-execute MPP. This process could continue until we
//! cannot refine n further." Each round with a small `n` is cheap, so a
//! few rounds still beat one worst-case run.
//!
//! Correctness note: a fixed point of this iteration is *heuristic* —
//! MPP with input `n` only guarantees completeness for lengths ≤ `n`,
//! so a frequent pattern longer than the fixed point could in principle
//! be missed if none of its length-`n` fragments surfaced. The paper
//! proposes the scheme on exactly those terms ("we do not explore this
//! approach further"); MPPm remains the sound way to choose `n`.
//!
//! This module is also home to the engines' other adaptive choice: the
//! per-list PIL *representation* rule ([`choose_dense`], cached per
//! generation by [`ReprCache`] for the DFS engine) that decides, from
//! occupancy and the number of left parents probing the list, whether a
//! partner's occurrence list is joined through the sparse
//! sliding-window merge or the dense prefix-sum probe of
//! [`crate::pil::DensePil`].

use crate::error::MineError;
use crate::gap::GapRequirement;
use crate::mpp::{mpp, MppConfig};
use crate::pil::DensePil;
use crate::result::MineOutcome;
use perigap_seq::Sequence;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// Outcome of an adaptive run, with the refinement trajectory.
#[derive(Clone, Debug)]
pub struct AdaptiveOutcome {
    /// The final mining outcome.
    pub outcome: MineOutcome,
    /// The `n` used at each round (first entry is `initial_n`).
    pub n_trajectory: Vec<usize>,
    /// Total wall-clock across rounds.
    pub total_elapsed: std::time::Duration,
}

/// Run MPP repeatedly, growing `n` to the longest pattern found, until
/// the estimate stops changing (or reaches `l1`).
///
/// `initial_n` is the first guess; the paper suggests 10.
pub fn adaptive_mpp(
    seq: &Sequence,
    gap: GapRequirement,
    rho: f64,
    initial_n: usize,
    config: MppConfig,
) -> Result<AdaptiveOutcome, MineError> {
    let started = Instant::now();
    let l1 = gap.l1(seq.len());
    let mut n = initial_n
        .max(config.start_level)
        .min(l1.max(config.start_level));
    let mut trajectory = vec![n];
    let mut outcome = mpp(seq, gap, rho, n, config.clone())?;
    loop {
        let longest = outcome.longest_len().max(config.start_level);
        // Refine: the next n must cover everything seen so far.
        let next_n = longest.min(l1.max(config.start_level));
        if next_n <= n {
            break;
        }
        n = next_n;
        trajectory.push(n);
        outcome = mpp(seq, gap, rho, n, config.clone())?;
    }
    Ok(AdaptiveOutcome {
        outcome,
        n_trajectory: trajectory,
        total_elapsed: started.elapsed(),
    })
}

// ---------------------------------------------------------------------
// Adaptive PIL representation (sparse merge vs dense prefix-sum probe).
// ---------------------------------------------------------------------

/// Densify a list when at least this fraction of its occupied offset
/// span holds an entry. Below it, the prefix-sum array spends more
/// memory traffic on empty slots than the O(1) probe saves over the
/// sliding-window merge.
const CROSSOVER: f64 = 0.25;

/// Lists shorter than this never densify — the `O(span)` build cannot
/// amortize over a handful of probes.
const MIN_DENSE_LEN: usize = 8;

/// The occupancy rule: join `entries` through the dense prefix-sum
/// probe when the list has at least [`MIN_DENSE_LEN`] entries and its
/// entries times its `users` (the left parents that probe it while the
/// build is live) cover at least [`CROSSOVER`] of its offset span. The
/// `O(span)` build is paid once and amortised over every user, so a
/// list probed by σ left parents densifies at a σ-th of the occupancy a
/// single user needs. (Feasibility — the `u64` total-count check —
/// still happens in [`DensePil::build`]; see [`choose_dense`].)
///
/// The choice is pure performance: whichever side is picked, mined
/// patterns, supports, and `MineStats` are bit-identical (see
/// [`DensePil::build`] for why the saturation corner is covered).
fn wants_dense(entries: &[(u32, u64)], users: usize) -> bool {
    let (Some(first), Some(last)) = (entries.first(), entries.last()) else {
        return false;
    };
    let span = last.0 as u64 - first.0 as u64 + 1;
    entries.len() >= MIN_DENSE_LEN && (entries.len() * users) as f64 >= CROSSOVER * span as f64
}

/// Decide the layout of one partner list probed by `users` left
/// parents, and count the decision in the process-wide histogram:
/// `Some` with the dense build (written into a buffer popped from
/// `spare`, see [`DensePil::build_reusing`]) when the occupancy rule
/// wants it and the total count fits `u64`, `None` for the sparse
/// merge. The breadth-first drivers make this call once per partner
/// list per level; [`ReprCache`] makes it once per list with one user.
pub(crate) fn choose_dense(
    entries: &[(u32, u64)],
    users: usize,
    spare: &mut Vec<Vec<u64>>,
) -> Option<DensePil> {
    let mut built = None;
    if wants_dense(entries, users) {
        built = DensePil::build_reusing(entries, spare);
        if built.is_none() {
            DENSE_FALLBACKS.fetch_add(1, Ordering::Relaxed);
        }
    }
    let decided = if built.is_some() {
        &DENSE_LISTS
    } else {
        &SPARSE_LISTS
    };
    decided.fetch_add(1, Ordering::Relaxed);
    built
}

const TAG_UNDECIDED: u8 = 0;
const TAG_SPARSE: u8 = 1;
const TAG_DENSE: u8 = 2;

/// Per-generation cache of representation decisions and dense builds,
/// keyed by pattern index into the generation's pattern set — the
/// hybrid DFS engine's layout choice. Its left parents meet a partner
/// list through [`crate::pil::join_multi_into`] batches one parent at a
/// time, so each list is decided with one user ([`choose_dense`]) and
/// its build is kept until [`ReprCache::begin`], reused by every later
/// left parent of the same pass.
///
/// The cache must be [`ReprCache::begin`]-reset whenever the indices
/// start referring to a different generation.
#[derive(Default)]
pub struct ReprCache {
    /// Decision per pattern index; `TAG_UNDECIDED` until first use.
    tags: Vec<u8>,
    /// Built prefix-sum arrays for the dense-tagged indices.
    dense: HashMap<usize, DensePil>,
    /// Dense builds since the last [`ReprCache::begin`].
    builds: u64,
}

impl ReprCache {
    /// An empty cache.
    pub fn new() -> ReprCache {
        ReprCache::default()
    }

    /// Forget every decision and build, and size for a generation of
    /// `patterns` lists. Keeps the tag allocation.
    pub fn begin(&mut self, patterns: usize) {
        self.dense.clear();
        self.builds = 0;
        self.tags.clear();
        self.tags.resize(patterns, TAG_UNDECIDED);
    }

    /// Dense builds made since the last [`ReprCache::begin`] (the
    /// `dense_builds` join counter).
    pub(crate) fn builds(&self) -> u64 {
        self.builds
    }

    /// Decide (once) the representation for pattern `id`, whose PIL is
    /// `entries`; returns `true` for dense. The first call per `id`
    /// applies the occupancy rule with one user, attempts the dense
    /// build, and counts the decision in the process-wide histogram;
    /// later calls are a tag load.
    pub fn decide(&mut self, id: usize, entries: &[(u32, u64)]) -> bool {
        match self.tags[id] {
            TAG_SPARSE => false,
            TAG_DENSE => true,
            _ => match choose_dense(entries, 1, &mut Vec::new()) {
                Some(d) => {
                    self.builds += 1;
                    self.dense.insert(id, d);
                    self.tags[id] = TAG_DENSE;
                    true
                }
                None => {
                    self.tags[id] = TAG_SPARSE;
                    false
                }
            },
        }
    }

    /// The dense build for `id`, present iff [`ReprCache::decide`]
    /// returned `true` for it since the last [`ReprCache::begin`].
    pub fn get(&self, id: usize) -> Option<&DensePil> {
        self.dense.get(&id)
    }

    /// [`ReprCache::decide`] and [`ReprCache::get`] in one step.
    pub fn dense_for(&mut self, id: usize, entries: &[(u32, u64)]) -> Option<&DensePil> {
        if self.decide(id, entries) {
            self.dense.get(&id)
        } else {
            None
        }
    }
}

static DENSE_LISTS: AtomicU64 = AtomicU64::new(0);
static SPARSE_LISTS: AtomicU64 = AtomicU64::new(0);
static DENSE_FALLBACKS: AtomicU64 = AtomicU64::new(0);

/// Process-wide totals of representation decisions — the
/// chosen-representation histogram. Deliberately *outside*
/// [`crate::result::MineStats`], which must stay representation-
/// invariant; these are diagnostics, read by `--metrics`, traces, and
/// the bench harness via snapshot deltas.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ReprStats {
    /// Suffix lists joined through the dense prefix-sum probe.
    pub dense: u64,
    /// Suffix lists joined through the sparse sliding-window merge.
    pub sparse: u64,
    /// Lists the occupancy rule wanted dense but [`DensePil::build`] refused
    /// (total count above `u64`); counted in `sparse` as well.
    pub fallbacks: u64,
}

impl ReprStats {
    /// Decisions made between the `earlier` snapshot and this one.
    /// Saturating, so concurrent mines in other threads cannot wrap the
    /// difference below zero.
    pub fn since(self, earlier: ReprStats) -> ReprStats {
        ReprStats {
            dense: self.dense.saturating_sub(earlier.dense),
            sparse: self.sparse.saturating_sub(earlier.sparse),
            fallbacks: self.fallbacks.saturating_sub(earlier.fallbacks),
        }
    }

    /// Total decisions in the snapshot.
    pub fn total(self) -> u64 {
        self.dense.saturating_add(self.sparse)
    }

    /// Render this (delta) snapshot as the trace event for a run.
    pub fn to_event(self) -> crate::trace::ReprEvent {
        crate::trace::ReprEvent {
            dense: self.dense,
            sparse: self.sparse,
            fallbacks: self.fallbacks,
        }
    }
}

/// Snapshot the process-wide representation histogram.
pub fn repr_stats() -> ReprStats {
    ReprStats {
        dense: DENSE_LISTS.load(Ordering::Relaxed),
        sparse: SPARSE_LISTS.load(Ordering::Relaxed),
        fallbacks: DENSE_FALLBACKS.load(Ordering::Relaxed),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use perigap_seq::gen::iid::uniform;
    use perigap_seq::Alphabet;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn gap(n: usize, m: usize) -> GapRequirement {
        GapRequirement::new(n, m).unwrap()
    }

    #[test]
    fn reaches_fixed_point() {
        let s = uniform(&mut StdRng::seed_from_u64(41), Alphabet::Dna, 250);
        let g = gap(1, 3);
        let adaptive = adaptive_mpp(&s, g, 0.0008, 4, MppConfig::default()).unwrap();
        // The final n covers the longest pattern found.
        let final_n = *adaptive.n_trajectory.last().unwrap();
        assert!(final_n >= adaptive.outcome.longest_len().min(g.l1(250)));
        // Trajectory grows strictly.
        assert!(adaptive.n_trajectory.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn agrees_with_worst_case_when_converged() {
        let s = uniform(&mut StdRng::seed_from_u64(42), Alphabet::Dna, 150);
        let g = gap(2, 4);
        let rho = 0.0015;
        let adaptive = adaptive_mpp(&s, g, rho, 10, MppConfig::default()).unwrap();
        let worst = mpp(&s, g, rho, g.l1(150), MppConfig::default()).unwrap();
        // On these inputs the heuristic converges to the complete set.
        assert_eq!(adaptive.outcome.frequent.len(), worst.frequent.len());
        for f in &worst.frequent {
            assert!(adaptive.outcome.get(&f.pattern).is_some());
        }
    }

    #[test]
    fn initial_n_above_l1_is_clamped() {
        let s = uniform(&mut StdRng::seed_from_u64(43), Alphabet::Dna, 60);
        let g = gap(9, 12);
        let adaptive = adaptive_mpp(&s, g, 0.01, 1_000, MppConfig::default()).unwrap();
        assert!(adaptive.n_trajectory[0] <= g.l1(60).max(3));
    }

    #[test]
    fn policy_crossover_splits_dense_from_sparse() {
        // Fully occupied span, long enough: dense.
        let packed: Vec<(u32, u64)> = (1..=64).map(|x| (x, 1)).collect();
        assert!(wants_dense(&packed, 1));
        // 2% occupancy: sparse.
        let thin: Vec<(u32, u64)> = (0..64).map(|k| (1 + k * 50, 1)).collect();
        assert!(!wants_dense(&thin, 1));
        // Eight entries over a span of 32 sit exactly on the crossover
        // (dense); one slot wider falls under it (sparse).
        let edge = |last: u32| -> Vec<(u32, u64)> {
            (0..7).map(|k| (1 + k * 4, 1)).chain([(last, 1)]).collect()
        };
        assert!(wants_dense(&edge(32), 1));
        assert!(!wants_dense(&edge(33), 1));
        // Tiny lists never densify, however many users share them.
        assert!(!wants_dense(&[(1, 1), (2, 1)], 4));
        assert!(!wants_dense(&[], 4));
        assert!(!wants_dense(&packed[..MIN_DENSE_LEN - 1], 64));
    }

    #[test]
    fn policy_counts_the_users_of_a_build() {
        // 16 entries over a span of 121: 13% occupancy. One user cannot
        // amortise the build; four users probing it reach the crossover.
        let list: Vec<(u32, u64)> = (0..16).map(|k| (1 + k * 8, 1)).collect();
        assert!(!wants_dense(&list, 1));
        assert!(wants_dense(&list, 4));
        let mut spare = Vec::new();
        assert!(choose_dense(&list, 1, &mut spare).is_none());
        let dense = choose_dense(&list, 4, &mut spare).expect("dense with 4 users");
        assert_eq!(dense.psum(), DensePil::build(&list).unwrap().psum());
        // The buffer goes back to the spare list and is reused.
        let buffer = dense.psum().as_ptr();
        dense.recycle(&mut spare);
        let again = choose_dense(&list, 4, &mut spare).unwrap();
        assert_eq!(again.psum().as_ptr(), buffer, "spare buffer reused");
        assert!(spare.is_empty());
    }

    #[test]
    fn cache_decides_once_and_resets_per_generation() {
        let packed: Vec<(u32, u64)> = (1..=64).map(|x| (x, 1)).collect();
        let before = repr_stats();
        let mut cache = ReprCache::new();
        cache.begin(2);
        assert!(cache.decide(0, &packed));
        assert!(cache.decide(0, &packed), "second call is a tag load");
        assert_eq!(cache.builds(), 1);
        assert!(cache.get(0).is_some());
        assert!(cache.get(1).is_none(), "undecided ids have no build");
        assert!(cache.dense_for(1, &[(5, 1)]).is_none());
        // Exactly one dense and one sparse decision were counted
        // (other concurrent tests may add their own, hence >=).
        let delta = repr_stats().since(before);
        assert!(delta.dense >= 1 && delta.sparse >= 1);
        // begin() drops every decision and build.
        cache.begin(1);
        assert!(cache.get(0).is_none());
        assert_eq!(cache.builds(), 0);
    }

    #[test]
    fn cache_counts_overflow_fallbacks() {
        // A list the occupancy rule wants dense but whose total overflows u64:
        // the decision must come back sparse and count a fallback.
        let hot: Vec<(u32, u64)> = (1..=8).map(|x| (x, u64::MAX / 4)).collect();
        assert!(wants_dense(&hot, 1));
        let before = repr_stats();
        let mut cache = ReprCache::new();
        cache.begin(1);
        assert!(!cache.decide(0, &hot));
        assert!(cache.get(0).is_none());
        assert_eq!(cache.builds(), 0);
        let delta = repr_stats().since(before);
        assert!(delta.fallbacks >= 1);
        assert!(delta.total() >= 1);
    }

    #[test]
    fn single_round_when_guess_is_good() {
        let s = uniform(&mut StdRng::seed_from_u64(44), Alphabet::Dna, 150);
        let g = gap(1, 2);
        // Worst-case first to learn the true longest.
        let no = mpp(&s, g, 0.001, g.l1(150), MppConfig::default())
            .unwrap()
            .longest_len();
        let adaptive = adaptive_mpp(&s, g, 0.001, no.max(3), MppConfig::default()).unwrap();
        assert_eq!(
            adaptive.n_trajectory.len(),
            1,
            "good guess needs no refinement"
        );
    }
}
