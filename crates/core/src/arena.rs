//! Arena-backed generation storage for the level-wise miners.
//!
//! A mining level owns thousands of short PILs. Storing each as its own
//! `Vec` (and each pattern as its own heap string, keyed in a
//! `HashMap`) made the seed scan and the join fan-out allocation-bound.
//! This module replaces both with one structure per generation:
//!
//! - [`PilSet`] holds every pattern of a generation in flat arrays —
//!   concatenated pattern codes (stride = level), each pattern's
//!   support, and entry arenas with a per-pattern `(arena, range)`
//!   span. A serially built generation has one arena; a pooled one
//!   keeps the arena each worker wrote, so assembling it moves buffers
//!   instead of copying entries. Patterns are kept in lexicographic
//!   code order.
//! - A generation written under a *keep floor* (see
//!   [`PilSet::set_keep_floor`]) stores entries only for the patterns
//!   the next level can join: the support is summed when a span closes,
//!   and a span below the floor is truncated back to its start.
//! - [`build_seed`] seeds a level directly into a [`PilSet`] using the
//!   packed keys of [`crate::packed::KeyCodec`]: for small alphabets a
//!   dense `σ`-ary table indexed by key absorbs every scan event with
//!   zero hashing and zero per-event allocation.
//! - Candidate generation exploits the sort order: all patterns sharing
//!   a `(level−1)`-prefix form a contiguous *run*, so the prefix-group
//!   `HashMap` of the old pipeline reduces to run detection plus a
//!   binary search ([`prefix_runs`] / [`generate_candidates`]), and the
//!   candidates come out already sorted and duplicate-free — candidate
//!   codes are `p1 · last(p2)`, which inherit the order of `(p1, p2)`.
//!
//! Everything here is `pub(crate)`: the public API (`Pil::build_all`,
//! `mpp`, `mppm`, `mpp_parallel`) is a thin shell over these types and
//! its behaviour — including byte-identical mining output — is
//! unchanged.

use crate::adaptive::ReprCache;
use crate::gap::GapRequirement;
use crate::packed::KeyCodec;
use crate::pattern::Pattern;
use crate::pil::{
    join_dense_into, join_into, join_multi_into, DensePil, JoinCounters, MultiJoinScratch, Pil,
};
use crate::prune::Pruner;
use perigap_seq::Sequence;
use std::collections::HashMap;

/// Above this many key bits the dense seed table would outgrow the
/// cache benefit (2^20 slots ≈ 24 MB of headers); fall back to hashing
/// the packed key.
const DENSE_KEY_BITS_MAX: u32 = 20;

/// Where one pattern's PIL lives: `len` entries from `start` in arena
/// `arena`.
#[derive(Clone, Copy, Debug)]
struct Span {
    start: usize,
    len: u32,
    arena: u32,
}

/// One generation of patterns with their PILs, in lexicographic code
/// order, arena-backed.
///
/// The entries live in one or more *arenas*: a set built in one pass
/// has a single arena, while a set assembled by [`PilSet::gather`] /
/// [`PilSet::concat`] keeps the arenas its parts were written into
/// (one per pool worker in [`crate::parallel`]) and records a span per
/// pattern — assembling a generation moves arenas and copies only
/// codes, supports and spans. Equality is logical: patterns, supports,
/// entries and the saturation flag, never the arena layout.
///
/// Each pattern's support is recorded when its span closes, while the
/// entries are still in cache, so [`PilSet::support`] is a read. A span
/// whose support is below the set's keep floor is truncated back to its
/// start: the pattern keeps its codes and support but holds no entries.
#[derive(Clone, Debug)]
pub(crate) struct PilSet {
    level: usize,
    /// Concatenated pattern codes; pattern `i` is
    /// `codes[i*level .. (i+1)*level]`.
    codes: Vec<u8>,
    /// Pattern `i`'s PIL is `spans[i]` into `arenas`.
    spans: Vec<Span>,
    /// `supports[i]` is pattern `i`'s support (Property 1), summed from
    /// its entries before any truncation.
    supports: Vec<u128>,
    /// Spans closing with a support below this keep no entries; 0 (the
    /// default) keeps every entry.
    floor: u128,
    /// The `(first offset, count)` arenas; never empty. Pushes append to
    /// the last one.
    arenas: Vec<Vec<(u32, u64)>>,
    /// True when any count in this generation clamped at `u64::MAX`
    /// during seeding or joining — supports are then lower bounds.
    saturated: bool,
}

impl Default for PilSet {
    fn default() -> PilSet {
        PilSet::new(0)
    }
}

impl PartialEq for PilSet {
    fn eq(&self, other: &PilSet) -> bool {
        self.level == other.level
            && self.len() == other.len()
            && self.saturated == other.saturated
            && self.codes == other.codes
            && self.supports == other.supports
            && (0..self.len()).all(|i| self.entries(i) == other.entries(i))
    }
}

impl Eq for PilSet {}

impl PilSet {
    pub(crate) fn new(level: usize) -> PilSet {
        PilSet::with_arena(level, Vec::new())
    }

    /// An empty set writing into `arena`, whose allocation is reused —
    /// the recycling path of the double-buffered pooled driver. Any
    /// entries the arena still holds are discarded; the keep floor is 0.
    pub(crate) fn with_arena(level: usize, mut arena: Vec<(u32, u64)>) -> PilSet {
        arena.clear();
        PilSet {
            level,
            codes: Vec::new(),
            spans: Vec::new(),
            supports: Vec::new(),
            floor: 0,
            arenas: vec![arena],
            saturated: false,
        }
    }

    /// Keep entries only for patterns pushed from now on whose support
    /// is at least `floor`. The breadth-first drivers set it to the next
    /// level's L̂ threshold, so every pattern the next level joins keeps
    /// its PIL and every other one is stored as codes and support only.
    pub(crate) fn set_keep_floor(&mut self, floor: u128) {
        self.floor = floor;
    }

    /// Consume the set, handing back its arenas for reuse.
    pub(crate) fn into_arenas(self) -> Vec<Vec<(u32, u64)>> {
        self.arenas
    }

    /// True when any count in this generation hit the `u64` ceiling.
    pub(crate) fn saturated(&self) -> bool {
        self.saturated
    }

    /// Restore the saturation flag on a set rebuilt from parts —
    /// [`push_pattern`](PilSet::push_pattern) deliberately never sets
    /// it, so deserialization (see [`crate::spill`]) must carry it over
    /// explicitly.
    pub(crate) fn set_saturated(&mut self, saturated: bool) {
        self.saturated = saturated;
    }

    /// Total PIL entries across all patterns (the arenas' payload size).
    pub(crate) fn entry_count(&self) -> usize {
        self.arenas.iter().map(Vec::len).sum()
    }

    /// Approximate heap bytes held by the generation: codes, spans,
    /// supports and the live entries of every arena.
    pub(crate) fn arena_bytes(&self) -> usize {
        self.codes.len()
            + self.entry_count() * std::mem::size_of::<(u32, u64)>()
            + self.spans.len() * std::mem::size_of::<Span>()
            + self.supports.len() * std::mem::size_of::<u128>()
    }

    pub(crate) fn level(&self) -> usize {
        self.level
    }

    /// Number of patterns stored.
    pub(crate) fn len(&self) -> usize {
        self.spans.len()
    }

    pub(crate) fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Pattern `i`'s codes.
    pub(crate) fn pattern_codes(&self, i: usize) -> &[u8] {
        &self.codes[i * self.level..(i + 1) * self.level]
    }

    /// Pattern `i`'s PIL entries — empty when the pattern closed below
    /// the keep floor.
    #[inline]
    pub(crate) fn entries(&self, i: usize) -> &[(u32, u64)] {
        let s = self.spans[i];
        &self.arenas[s.arena as usize][s.start..s.start + s.len as usize]
    }

    /// `sup` of pattern `i` (Property 1: sum of counts).
    #[inline]
    pub(crate) fn support(&self, i: usize) -> u128 {
        self.supports[i]
    }

    /// Largest support over all stored patterns (0 when empty).
    pub(crate) fn max_support(&self) -> u128 {
        self.supports.iter().copied().max().unwrap_or(0)
    }

    /// The arena pushes append to, with its current length (the start
    /// of the next pattern's span).
    #[inline]
    fn tail(&mut self) -> (usize, &mut Vec<(u32, u64)>) {
        let arena = self
            .arenas
            .last_mut()
            .expect("a PilSet always has an arena");
        (arena.len(), arena)
    }

    /// Close the pattern whose entries were appended to the tail arena
    /// from `start` on: record its support, and drop the entries again
    /// when that support is below the keep floor.
    #[inline]
    fn close_span(&mut self, start: usize) {
        let arena = self.arenas.len() - 1;
        let tail = &mut self.arenas[arena];
        let sup = tail[start..]
            .iter()
            .fold(0u128, |acc, &(_, y)| acc.saturating_add(y as u128));
        self.supports.push(sup);
        if sup < self.floor {
            tail.truncate(start);
        }
        let len = tail.len() - start;
        self.spans.push(Span {
            start,
            len: u32::try_from(len).expect("a PIL holds at most one entry per u32 offset"),
            arena: u32::try_from(arena).expect("arena count fits u32"),
        });
    }

    /// Append a pattern with pre-built entries. Patterns must arrive in
    /// strictly ascending code order; callers uphold this.
    pub(crate) fn push_pattern(&mut self, codes: &[u8], entries: &[(u32, u64)]) {
        debug_assert_eq!(codes.len(), self.level);
        self.codes.extend_from_slice(codes);
        let (start, arena) = self.tail();
        arena.extend_from_slice(entries);
        self.close_span(start);
    }

    /// Append the candidate `p1_codes · last`, computing its PIL by
    /// joining `prefix` and `suffix` straight into the arena.
    pub(crate) fn push_candidate(
        &mut self,
        p1_codes: &[u8],
        last: u8,
        prefix: &[(u32, u64)],
        suffix: &[(u32, u64)],
        gap: GapRequirement,
        counters: &mut JoinCounters,
    ) {
        debug_assert_eq!(p1_codes.len() + 1, self.level);
        self.codes.extend_from_slice(p1_codes);
        self.codes.push(last);
        let (start, arena) = self.tail();
        self.saturated |= join_into(prefix, suffix, gap, arena, counters);
        self.close_span(start);
    }

    /// [`PilSet::push_candidate`] through the dense prefix-sum kernel:
    /// the suffix arrives as a pre-built [`DensePil`] (held per suffix
    /// by [`ReprCache`]), so the join is one O(1) probe per prefix
    /// offset and can never saturate (see [`DensePil::build`]).
    pub(crate) fn push_candidate_dense(
        &mut self,
        p1_codes: &[u8],
        last: u8,
        prefix: &[(u32, u64)],
        suffix: &DensePil,
        gap: GapRequirement,
        counters: &mut JoinCounters,
    ) {
        debug_assert_eq!(p1_codes.len() + 1, self.level);
        self.codes.extend_from_slice(p1_codes);
        self.codes.push(last);
        let (start, arena) = self.tail();
        join_dense_into(prefix, suffix, gap, arena, counters);
        self.close_span(start);
    }

    /// Append the candidate `p1_codes · last` with a PIL already
    /// computed by the batched multi-suffix join — the entries are
    /// copied in and the partner's saturation flag is absorbed.
    pub(crate) fn push_batched(
        &mut self,
        p1_codes: &[u8],
        last: u8,
        entries: &[(u32, u64)],
        saturated: bool,
    ) {
        debug_assert_eq!(p1_codes.len() + 1, self.level);
        self.codes.extend_from_slice(p1_codes);
        self.codes.push(last);
        let (start, arena) = self.tail();
        arena.extend_from_slice(entries);
        self.saturated |= saturated;
        self.close_span(start);
    }

    /// Drop all patterns, clear the keep floor and set a new level,
    /// keeping the largest arena allocation as the write arena — the
    /// serial engine reuses one output set across levels this way.
    pub(crate) fn reset(&mut self, level: usize) {
        let biggest = (0..self.arenas.len())
            .max_by_key(|&a| self.arenas[a].capacity())
            .expect("a PilSet always has an arena");
        self.arenas.swap(0, biggest);
        self.arenas.truncate(1);
        self.arenas[0].clear();
        self.level = level;
        self.codes.clear();
        self.spans.clear();
        self.supports.clear();
        self.floor = 0;
        self.saturated = false;
    }

    /// Assemble one set from `pieces` — `(part, pattern range)` pairs,
    /// in output order — of `parts`. Every pattern of every part must
    /// appear in exactly one piece, and the pieces must hold ascending,
    /// disjoint code ranges. The parts' arenas move into the result
    /// unchanged; only codes, spans and supports are copied. The result
    /// has keep floor 0.
    pub(crate) fn gather(
        level: usize,
        parts: Vec<PilSet>,
        pieces: impl IntoIterator<Item = (usize, std::ops::Range<usize>)>,
    ) -> PilSet {
        let mut out = PilSet {
            level,
            codes: Vec::new(),
            spans: Vec::new(),
            supports: Vec::new(),
            floor: 0,
            arenas: Vec::new(),
            saturated: false,
        };
        let mut heads = Vec::with_capacity(parts.len());
        for part in parts {
            debug_assert_eq!(part.level, level);
            let base = out.arenas.len() as u32;
            out.arenas.extend(part.arenas);
            out.saturated |= part.saturated;
            heads.push((base, part.codes, part.spans, part.supports));
        }
        for (p, range) in pieces {
            let (base, codes, spans, supports) = &heads[p];
            out.codes
                .extend_from_slice(&codes[range.start * level..range.end * level]);
            out.supports.extend_from_slice(&supports[range.clone()]);
            out.spans.extend(spans[range].iter().map(|s| Span {
                arena: s.arena + base,
                ..*s
            }));
        }
        debug_assert_eq!(
            out.spans.len(),
            heads.iter().map(|(_, _, s, _)| s.len()).sum::<usize>(),
            "pieces must cover every part exactly"
        );
        if out.arenas.is_empty() {
            out.arenas.push(Vec::new());
        }
        out
    }

    /// Concatenate whole parts (in order) into one set, moving their
    /// arenas. Parts must hold disjoint ascending code ranges — true for
    /// chunked candidate generation, where chunk `k` covers left-parent
    /// indices before chunk `k+1`'s.
    pub(crate) fn concat(level: usize, parts: impl IntoIterator<Item = PilSet>) -> PilSet {
        let parts: Vec<PilSet> = parts.into_iter().collect();
        let ranges: Vec<_> = parts.iter().map(|p| 0..p.len()).collect();
        PilSet::gather(level, parts, ranges.into_iter().enumerate())
    }

    /// Convert to the public map form, omitting empty PILs (they only
    /// arise from joins, never from seeding).
    pub(crate) fn into_pil_map(self) -> HashMap<Pattern, Pil> {
        let mut map = HashMap::with_capacity(self.len());
        for i in 0..self.len() {
            let entries = self.entries(i);
            if entries.is_empty() {
                continue;
            }
            map.insert(
                Pattern::from_codes(self.pattern_codes(i).to_vec()),
                Pil::from_raw(entries.to_vec()),
            );
        }
        map
    }
}

/// Build the PILs of every length-`level` pattern occurring in `seq` —
/// the engine behind [`Pil::build_all`] — as a sorted [`PilSet`].
///
/// Strategy by alphabet size `σ` and level:
/// - `level · ⌈log₂ σ⌉ ≤ 20` bits: dense table of `2^bits` slots
///   indexed by the packed key (DNA level 3 = 64 slots; protein
///   level 3 = 32768). No hashing, no per-event allocation.
/// - key fits a `u64`: hash the packed key (still allocation-free per
///   event).
/// - otherwise: hash the code string (the original pipeline's shape).
pub(crate) fn build_seed(seq: &Sequence, gap: GapRequirement, level: usize) -> PilSet {
    assert!(level >= 1, "level must be at least 1");
    let codec = KeyCodec::new(seq.alphabet().size());
    if codec.fits(level) {
        if codec.key_bits(level) <= DENSE_KEY_BITS_MAX {
            build_seed_dense(seq, gap, level, codec)
        } else {
            build_seed_sparse(seq, gap, level, codec)
        }
    } else {
        build_seed_bytes(seq, gap, level)
    }
}

/// Accumulate one scan event (an offset sequence starting at `start`
/// matching the pattern) into an entry list. Returns `true` when the
/// count was already at `u64::MAX` and the event was lost to
/// saturation.
#[inline(always)]
fn bump(entries: &mut Vec<(u32, u64)>, start: u32) -> bool {
    match entries.last_mut() {
        Some(last) if last.0 == start => {
            let saturated = last.1 == u64::MAX;
            last.1 = last.1.saturating_add(1);
            saturated
        }
        _ => {
            entries.push((start, 1));
            false
        }
    }
}

fn build_seed_dense(seq: &Sequence, gap: GapRequirement, level: usize, codec: KeyCodec) -> PilSet {
    let mut slots: Vec<Vec<(u32, u64)>> = vec![Vec::new(); 1usize << codec.key_bits(level)];
    let mut saturated = false;
    for start in 1..=seq.len() {
        let key0 = codec.push(0, seq.at1(start));
        scan_keys(seq, gap, start, key0, level - 1, codec, &mut |key| {
            saturated |= bump(&mut slots[key as usize], start as u32);
        });
    }
    // Ascending slot index == ascending packed key == lexicographic
    // code order, so the set comes out sorted for free.
    let mut set = PilSet::new(level);
    let mut codes = Vec::with_capacity(level);
    for (key, entries) in slots.iter().enumerate() {
        if entries.is_empty() {
            continue;
        }
        codes.clear();
        codec.unpack_into(key as u64, level, &mut codes);
        set.push_pattern(&codes, entries);
    }
    set.saturated = saturated;
    set
}

fn build_seed_sparse(seq: &Sequence, gap: GapRequirement, level: usize, codec: KeyCodec) -> PilSet {
    let mut map: HashMap<u64, Vec<(u32, u64)>> = HashMap::new();
    let mut saturated = false;
    for start in 1..=seq.len() {
        let key0 = codec.push(0, seq.at1(start));
        scan_keys(seq, gap, start, key0, level - 1, codec, &mut |key| {
            saturated |= bump(map.entry(key).or_default(), start as u32);
        });
    }
    let mut pairs: Vec<(u64, Vec<(u32, u64)>)> = map.into_iter().collect();
    pairs.sort_unstable_by_key(|&(key, _)| key);
    let mut set = PilSet::new(level);
    let mut codes = Vec::with_capacity(level);
    for (key, entries) in pairs {
        codes.clear();
        codec.unpack_into(key, level, &mut codes);
        set.push_pattern(&codes, &entries);
    }
    set.saturated = saturated;
    set
}

fn build_seed_bytes(seq: &Sequence, gap: GapRequirement, level: usize) -> PilSet {
    let mut map: HashMap<Vec<u8>, Vec<(u32, u64)>> = HashMap::new();
    let mut chars = Vec::with_capacity(level);
    let mut saturated = false;
    for start in 1..=seq.len() {
        chars.clear();
        chars.push(seq.at1(start));
        scan_codes(seq, gap, level, start, &mut chars, &mut |codes| {
            saturated |= bump(map.entry(codes.to_vec()).or_default(), start as u32);
        });
    }
    let mut pairs: Vec<_> = map.into_iter().collect();
    pairs.sort_unstable_by(|a: &(Vec<u8>, _), b| a.0.cmp(&b.0));
    let mut set = PilSet::new(level);
    for (codes, entries) in pairs {
        set.push_pattern(&codes, &entries);
    }
    set.saturated = saturated;
    set
}

/// Depth-first scan over gap-admissible offset chains, carrying the
/// packed key of the characters seen so far. `remaining` counts the
/// symbols still to append.
fn scan_keys(
    seq: &Sequence,
    gap: GapRequirement,
    pos: usize,
    key: u64,
    remaining: usize,
    codec: KeyCodec,
    sink: &mut impl FnMut(u64),
) {
    if remaining == 0 {
        sink(key);
        return;
    }
    for step in gap.steps() {
        let next = pos + step;
        if next > seq.len() {
            break;
        }
        scan_keys(
            seq,
            gap,
            next,
            codec.push(key, seq.at1(next)),
            remaining - 1,
            codec,
            sink,
        );
    }
}

/// Byte-string twin of [`scan_keys`] for patterns too long to pack.
fn scan_codes(
    seq: &Sequence,
    gap: GapRequirement,
    level: usize,
    pos: usize,
    chars: &mut Vec<u8>,
    sink: &mut impl FnMut(&[u8]),
) {
    if chars.len() == level {
        sink(chars);
        return;
    }
    for step in gap.steps() {
        let next = pos + step;
        if next > seq.len() {
            break;
        }
        chars.push(seq.at1(next));
        scan_codes(seq, gap, level, next, chars, sink);
        chars.pop();
    }
}

/// Detect the runs of equal `(level−1)`-prefix over `kept` (positions
/// into `kept`, which itself holds ascending indices into `set`).
/// Because `set` is sorted, each prefix group is contiguous.
pub(crate) fn prefix_runs(set: &PilSet, kept: &[usize]) -> Vec<(usize, usize)> {
    let plen = set.level() - 1;
    let mut runs: Vec<(usize, usize)> = Vec::new();
    for (k, &idx) in kept.iter().enumerate() {
        let prefix = &set.pattern_codes(idx)[..plen];
        match runs.last_mut() {
            Some(run) if &set.pattern_codes(kept[run.0])[..plen] == prefix => run.1 = k + 1,
            _ => runs.push((k, k + 1)),
        }
    }
    runs
}

/// Generate candidates whose left parent is `kept[lo..hi]`, appending
/// them (already sorted) to `out`. The right-parent run is found by
/// binary search over the prefix runs.
///
/// `repr` decides per suffix list whether the join runs on the sparse
/// merge or the dense prefix-sum probe, and holds the dense builds for
/// as long as its scope says: the whole level (reused by every left
/// parent sharing the suffix, up to σ of them) or, for a pooled chunk,
/// only the current left parent's partner group — see [`ReprCache`].
/// The caller must have [`ReprCache::begin`]-reset it for `set`'s
/// pattern indices.
///
/// Each left parent's partner run is a *sibling group*: the sparse
/// subset shares one batched walk of the left PIL
/// ([`join_multi_into`]), the dense subset takes the per-partner
/// prefix-sum probe, and candidates are emitted back in
/// partner order — so the output is byte-identical to the per-candidate
/// path, saturation flags included.
#[allow(clippy::too_many_arguments)]
pub(crate) fn generate_candidates(
    set: &PilSet,
    kept: &[usize],
    runs: &[(usize, usize)],
    gap: GapRequirement,
    lo: usize,
    hi: usize,
    out: &mut PilSet,
    repr: &mut ReprCache,
    counters: &mut JoinCounters,
    pruner: &Pruner,
) {
    debug_assert_eq!(out.level(), set.level() + 1);
    let level = set.level();
    let mut scratch = MultiJoinScratch::default();
    let mut souts: Vec<Vec<(u32, u64)>> = Vec::new();
    let mut partners: Vec<&[(u32, u64)]> = Vec::new();
    let mut sparse_pos: Vec<usize> = Vec::new();
    for &i in &kept[lo..hi] {
        let p1 = set.pattern_codes(i);
        // Pruned modes: skip a left parent whose cone cannot reach the
        // target or whose support already sits under the top-k floor.
        if !pruner.admits_parent(p1, || set.support(i)) {
            continue;
        }
        let suffix = &p1[1..];
        let found =
            runs.binary_search_by(|&(s, _)| set.pattern_codes(kept[s])[..level - 1].cmp(suffix));
        if let Ok(r) = found {
            let (s, e) = runs[r];
            sparse_pos.clear();
            for (j, &m) in kept[s..e].iter().enumerate() {
                if !repr.decide(m, set.entries(m)) {
                    sparse_pos.push(j);
                }
            }
            if e - s == 1 && sparse_pos.len() == 1 {
                // Singleton sparse group: join straight into the arena,
                // skipping the staging buffer round-trip.
                let m = kept[s];
                let last = set.pattern_codes(m)[level - 1];
                out.push_candidate(p1, last, set.entries(i), set.entries(m), gap, counters);
                continue;
            }
            if !sparse_pos.is_empty() {
                let k = sparse_pos.len();
                partners.clear();
                partners.extend(sparse_pos.iter().map(|&j| set.entries(kept[s + j])));
                if souts.len() < k {
                    souts.resize_with(k, Vec::new);
                }
                join_multi_into(
                    set.entries(i),
                    &partners,
                    gap,
                    &mut souts[..k],
                    &mut scratch,
                    counters,
                );
            }
            let mut sp = 0usize;
            for (j, &m) in kept[s..e].iter().enumerate() {
                let last = set.pattern_codes(m)[level - 1];
                if sparse_pos.get(sp) == Some(&j) {
                    out.push_batched(p1, last, &souts[sp], scratch.saturated[sp]);
                    sp += 1;
                } else {
                    let dense = repr.get(m).expect("decided dense");
                    out.push_candidate_dense(p1, last, set.entries(i), dense, gap, counters);
                }
            }
            repr.end_parent();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::naive::support_dp;
    use perigap_seq::Sequence;

    fn gap(n: usize, m: usize) -> GapRequirement {
        GapRequirement::new(n, m).unwrap()
    }

    /// A fresh cache sized for `set`.
    fn cache_for(set: &PilSet) -> ReprCache {
        let mut cache = ReprCache::new();
        cache.begin(set.len());
        cache
    }

    /// `generate_candidates` with throwaway counters.
    #[allow(clippy::too_many_arguments)]
    fn gen(
        set: &PilSet,
        kept: &[usize],
        runs: &[(usize, usize)],
        g: GapRequirement,
        lo: usize,
        hi: usize,
        out: &mut PilSet,
        repr: &mut ReprCache,
    ) {
        let mut jc = JoinCounters::default();
        generate_candidates(
            set,
            kept,
            runs,
            g,
            lo,
            hi,
            out,
            repr,
            &mut jc,
            &Pruner::default(),
        );
    }

    fn dna(text: &str) -> Sequence {
        Sequence::dna(text).unwrap()
    }

    #[test]
    fn seed_is_sorted_and_matches_dp() {
        let s = dna("ACGTACGTTGCAACGT");
        let g = gap(1, 3);
        for level in 1..=3 {
            let set = build_seed(&s, g, level);
            for i in 1..set.len() {
                assert!(set.pattern_codes(i - 1) < set.pattern_codes(i), "sorted");
            }
            for i in 0..set.len() {
                let p = Pattern::from_codes(set.pattern_codes(i).to_vec());
                assert_eq!(set.support(i), support_dp(&s, g, &p), "level {level}");
                assert!(!set.entries(i).is_empty());
            }
        }
    }

    #[test]
    fn all_seed_strategies_agree() {
        // Force each strategy on the same data by varying the level so
        // the key width crosses the dense and u64 thresholds.
        let s = dna(&"ACGGTTA".repeat(30));
        let g = gap(0, 1);
        let dense = build_seed(&s, g, 3); // 6 key bits
        let sparse = build_seed_sparse(&s, g, 3, KeyCodec::new(4));
        let bytes = build_seed_bytes(&s, g, 3);
        assert_eq!(dense, sparse);
        assert_eq!(dense, bytes);
    }

    #[test]
    fn paper_example_via_pilset() {
        // S = AACCGTT, gap [1,2]: PIL(ACT) = {(1,3),(2,2)}.
        let s = dna("AACCGTT");
        let set = build_seed(&s, gap(1, 2), 3);
        let act: Vec<u8> = vec![0, 1, 3];
        let i = (0..set.len())
            .find(|&i| set.pattern_codes(i) == act)
            .unwrap();
        assert_eq!(set.entries(i), &[(1, 3), (2, 2)]);
        assert_eq!(set.support(i), 5);
        assert!(set.max_support() >= 5);
    }

    #[test]
    fn runs_group_shared_prefixes() {
        let s = dna("ACGTACGTACGT");
        let set = build_seed(&s, gap(0, 2), 2);
        let kept: Vec<usize> = (0..set.len()).collect();
        let runs = prefix_runs(&set, &kept);
        // Every pattern is in exactly one run and runs tile `kept`.
        assert_eq!(runs.first().unwrap().0, 0);
        assert_eq!(runs.last().unwrap().1, kept.len());
        for w in runs.windows(2) {
            assert_eq!(w[0].1, w[1].0, "runs tile without gaps");
        }
        for &(s_, e) in &runs {
            let p = &set.pattern_codes(kept[s_])[..1];
            for &k in &kept[s_..e] {
                assert_eq!(&set.pattern_codes(k)[..1], p);
            }
        }
    }

    #[test]
    fn candidates_match_naive_generation() {
        let s = dna("ACGTTGCAACGTTACG");
        let g = gap(1, 2);
        let set = build_seed(&s, g, 3);
        let kept: Vec<usize> = (0..set.len()).collect();
        let runs = prefix_runs(&set, &kept);
        let mut out = PilSet::new(4);
        let mut repr = cache_for(&set);
        gen(&set, &kept, &runs, g, 0, kept.len(), &mut out, &mut repr);

        // Naive: every ordered pair with suffix(p1) == prefix(p2).
        let mut expected: Vec<(Vec<u8>, Pil)> = Vec::new();
        for i in 0..set.len() {
            for j in 0..set.len() {
                let (p1, p2) = (set.pattern_codes(i), set.pattern_codes(j));
                if p1[1..] == p2[..2] {
                    let mut codes = p1.to_vec();
                    codes.push(p2[2]);
                    let pil = Pil::join(
                        &Pil::from_raw(set.entries(i).to_vec()),
                        &Pil::from_raw(set.entries(j).to_vec()),
                        g,
                    );
                    expected.push((codes, pil));
                }
            }
        }
        expected.sort_by(|a, b| a.0.cmp(&b.0));
        assert_eq!(out.len(), expected.len());
        for (i, (codes, pil)) in expected.iter().enumerate() {
            assert_eq!(out.pattern_codes(i), &codes[..]);
            assert_eq!(out.entries(i), pil.entries());
        }
        // And sorted output, by construction.
        for i in 1..out.len() {
            assert!(out.pattern_codes(i - 1) < out.pattern_codes(i));
        }
    }

    #[test]
    fn candidate_generation_is_representation_invariant() {
        // Generation through the occupancy rule — dense probes for the
        // well-filled suffix lists, batched sparse merges for the rest —
        // must be byte-identical to one sparse join per candidate:
        // codes, entries, bounds, and the saturation flag.
        let s = dna(&"ACGTTGCAACGTTACGGTCAACGT".repeat(12));
        for g in [gap(0, 2), gap(1, 3), gap(2, 5)] {
            let set = build_seed(&s, g, 3);
            let kept: Vec<usize> = (0..set.len()).collect();
            let runs = prefix_runs(&set, &kept);
            let mut out = PilSet::new(4);
            let mut repr = cache_for(&set);
            gen(&set, &kept, &runs, g, 0, kept.len(), &mut out, &mut repr);
            let dense = (0..set.len()).filter(|&m| repr.get(m).is_some()).count();
            assert!(dense > 0 && dense < set.len(), "both layouts under gap {g}");
            let mut sparse = PilSet::new(4);
            let mut jc = JoinCounters::default();
            for i in 0..set.len() {
                for j in 0..set.len() {
                    let (p1, p2) = (set.pattern_codes(i), set.pattern_codes(j));
                    if p1[1..] == p2[..2] {
                        let (a, b) = (set.entries(i), set.entries(j));
                        sparse.push_candidate(p1, p2[2], a, b, g, &mut jc);
                    }
                }
            }
            assert_eq!(out, sparse, "gap {g}");
        }
    }

    #[test]
    fn concat_preserves_chunked_generation() {
        let s = dna("ACGTTGCAACGTTACGGTCA");
        let g = gap(0, 2);
        let set = build_seed(&s, g, 3);
        let kept: Vec<usize> = (0..set.len()).collect();
        let runs = prefix_runs(&set, &kept);
        let mut whole = PilSet::new(4);
        let mut repr = cache_for(&set);
        gen(&set, &kept, &runs, g, 0, kept.len(), &mut whole, &mut repr);
        let mid = kept.len() / 2;
        let mut a = PilSet::new(4);
        let mut b = PilSet::new(4);
        // Chunked generation rebuilds the cache per chunk, as the
        // parallel engine does.
        let mut repr_a = cache_for(&set);
        let mut repr_b = cache_for(&set);
        gen(&set, &kept, &runs, g, 0, mid, &mut a, &mut repr_a);
        gen(&set, &kept, &runs, g, mid, kept.len(), &mut b, &mut repr_b);
        assert_eq!(PilSet::concat(4, [a, b]), whole);
    }

    /// Generate `kept[lo..hi]`'s candidates into `out` — one pooled
    /// chunk written into a worker's set.
    fn chunk_into(set: &PilSet, g: GapRequirement, lo: usize, hi: usize, out: &mut PilSet) {
        let kept: Vec<usize> = (0..set.len()).collect();
        let runs = prefix_runs(set, &kept);
        let mut repr = cache_for(set);
        gen(set, &kept, &runs, g, lo, hi, out, &mut repr);
    }

    #[test]
    fn segmented_set_equals_its_contiguous_form() {
        let s = dna("ACGTTGCAACGTTACGGTCAAGTCCATGA");
        let g = gap(0, 3);
        let set = build_seed(&s, g, 3);
        let n = set.len();
        let mut whole = PilSet::new(4);
        chunk_into(&set, g, 0, n, &mut whole);
        // Three chunks on two workers, claimed out of order: worker 0
        // writes chunks 0 and 2, worker 1 chunk 1.
        let (a, b) = (n / 3, 2 * n / 3);
        let mut w0 = PilSet::new(4);
        let mut w1 = PilSet::new(4);
        chunk_into(&set, g, b, n, &mut w0);
        let split = w0.len();
        chunk_into(&set, g, 0, a, &mut w0);
        chunk_into(&set, g, a, b, &mut w1);
        let (w0_len, w1_len) = (w0.len(), w1.len());
        let pieces = [(0, split..w0_len), (1, 0..w1_len), (0, 0..split)];
        let gathered = PilSet::gather(4, vec![w0, w1], pieces);
        assert_eq!(gathered.arenas.len(), 2);
        assert_eq!(whole.arenas.len(), 1);
        assert_eq!(gathered, whole, "equality ignores the arena layout");
        assert_eq!(gathered.entry_count(), whole.entry_count());
        assert_eq!(gathered.arena_bytes(), whole.arena_bytes());
        // ...but not the content: one count or the flag tells them apart.
        let mut other = PilSet::new(4);
        for i in 0..whole.len() {
            let mut entries = whole.entries(i).to_vec();
            if i == whole.len() / 2 {
                entries[0].1 += 1;
            }
            other.push_pattern(whole.pattern_codes(i), &entries);
        }
        assert_ne!(other, whole);
        let mut flagged = whole.clone();
        flagged.set_saturated(true);
        assert_ne!(flagged, whole);
    }

    #[test]
    fn keep_floor_drops_exactly_the_entries_below_it() {
        // The same parents joined with and without a floor: identical
        // codes, supports and flag; entries gone exactly where the
        // support is under the floor.
        let s = dna(&"ACGTTGCAACGTTACGGTCA".repeat(6));
        let g = gap(0, 3);
        let set = build_seed(&s, g, 3);
        let n = set.len();
        let mut full = PilSet::new(4);
        chunk_into(&set, g, 0, n, &mut full);
        let mut sups = full.supports.clone();
        sups.sort_unstable();
        let floor = sups[sups.len() / 2];
        assert!(sups[0] < floor, "both sides of the floor are populated");
        let floored_chunk = |lo: usize, hi: usize, out: &mut PilSet| {
            out.set_keep_floor(floor);
            chunk_into(&set, g, lo, hi, out);
        };
        let mut floored = PilSet::new(4);
        floored_chunk(0, n, &mut floored);
        assert_eq!(floored.codes, full.codes);
        assert_eq!(floored.supports, full.supports);
        assert_eq!(floored.saturated(), full.saturated());
        assert_eq!(floored.max_support(), full.max_support());
        for i in 0..full.len() {
            let kept = floored.entries(i);
            if full.support(i) < floor {
                assert!(kept.is_empty(), "pattern {i} is below the floor");
            } else {
                assert_eq!(kept, full.entries(i), "pattern {i} keeps its PIL");
            }
        }
        assert!(floored.entry_count() < full.entry_count());
        assert_ne!(floored, full, "equality compares entries");
        // The gauge counts codes, spans, supports and surviving entries.
        let per_pattern = 4 + std::mem::size_of::<Span>() + std::mem::size_of::<u128>();
        let entry = std::mem::size_of::<(u32, u64)>();
        assert_eq!(
            floored.arena_bytes(),
            floored.len() * per_pattern + floored.entry_count() * entry
        );

        // `gather` and `concat` carry supports with their spans.
        let mid = n / 2;
        let (mut a, mut b) = (PilSet::new(4), PilSet::new(4));
        floored_chunk(mid, n, &mut a);
        let split = a.len();
        floored_chunk(0, mid, &mut a);
        floored_chunk(mid, mid, &mut b);
        let a_len = a.len();
        let gathered = PilSet::gather(4, vec![a, b], [(0, split..a_len), (1, 0..0), (0, 0..split)]);
        assert_eq!(gathered, floored);
        let (mut lo, mut hi) = (PilSet::new(4), PilSet::new(4));
        floored_chunk(0, mid, &mut lo);
        floored_chunk(mid, n, &mut hi);
        assert_eq!(PilSet::concat(4, [lo, hi]), floored);

        // `reset` and `with_arena` clear the floor and the supports.
        let mut reused = floored.clone();
        reused.reset(4);
        assert!(reused.supports.is_empty());
        chunk_into(&set, g, 0, n, &mut reused);
        assert_eq!(reused, full);
        let arena = floored.into_arenas().swap_remove(0);
        let mut recycled = PilSet::with_arena(4, arena);
        assert!(recycled.supports.is_empty());
        chunk_into(&set, g, 0, n, &mut recycled);
        assert_eq!(recycled, full);

        // Supports alone tell sets apart: a truncated pattern keeps its
        // support, one pushed with no entries has support 0.
        let mut truncated = PilSet::new(3);
        truncated.set_keep_floor(u128::MAX);
        truncated.push_pattern(&[0, 1, 2], &[(1, 5)]);
        let mut empty = PilSet::new(3);
        empty.push_pattern(&[0, 1, 2], &[]);
        assert_eq!(truncated.entries(0), empty.entries(0));
        assert_eq!((truncated.support(0), empty.support(0)), (5, 0));
        assert_ne!(truncated, empty);
    }

    #[test]
    fn recycled_arenas_carry_no_stale_entries() {
        // A large generation's arenas, recycled to hold a smaller one,
        // keep their allocation but none of their old entries.
        let s = dna(&"ACGTTGCAACGTTACGGTCA".repeat(6));
        let g = gap(0, 3);
        let big = build_seed(&s, g, 4);
        let small_parent = build_seed(&s, g, 3);
        let mut fresh = PilSet::new(4);
        chunk_into(&small_parent, g, 0, 4, &mut fresh);
        assert!(fresh.entry_count() < big.entry_count());
        let old_len = big.entry_count();
        let mut arenas = big.into_arenas();
        let mut recycled = PilSet::with_arena(4, arenas.pop().unwrap());
        assert!(recycled.arenas[0].capacity() >= old_len);
        chunk_into(&small_parent, g, 0, 4, &mut recycled);
        assert_eq!(recycled, fresh);
        assert_eq!(recycled.entry_count(), fresh.entry_count());
        assert_eq!(recycled.arena_bytes(), fresh.arena_bytes());
        // `reset` recycles the same way.
        recycled.reset(4);
        assert_eq!(recycled.entry_count(), 0);
        chunk_into(&small_parent, g, 0, 4, &mut recycled);
        assert_eq!(recycled, fresh);
    }

    #[test]
    fn saturation_is_flagged_and_propagated() {
        // `bump` loses an event only at the ceiling — and says so.
        let mut entries = vec![(1u32, u64::MAX - 1)];
        assert!(!bump(&mut entries, 1));
        assert!(bump(&mut entries, 1));
        assert_eq!(entries, vec![(1, u64::MAX)]);
        // A join whose window sum overflows flags the candidate set.
        let g = gap(1, 2);
        let mut set = PilSet::new(3);
        let prefix = [(1u32, 1u64)];
        let suffix = [(3u32, u64::MAX), (4u32, 2u64)];
        set.push_candidate(
            &[0, 0],
            0,
            &prefix,
            &suffix,
            g,
            &mut JoinCounters::default(),
        );
        assert!(set.saturated());
        assert!(set.entry_count() > 0);
        assert!(set.arena_bytes() > 0);
        // The flag survives a floor that drops the entries.
        let mut dropped = PilSet::new(3);
        dropped.set_keep_floor(u128::MAX);
        dropped.push_candidate(
            &[0, 0],
            0,
            &prefix,
            &suffix,
            g,
            &mut JoinCounters::default(),
        );
        assert!(dropped.saturated());
        assert_eq!(dropped.entry_count(), 0);
        assert_eq!(dropped.support(0), set.support(0));
        // concat carries the flag; reset clears it.
        let clean = PilSet::new(3);
        assert!(!clean.saturated());
        let mut merged = PilSet::concat(3, [clean, set]);
        assert!(merged.saturated());
        merged.reset(4);
        assert!(!merged.saturated());
        // An ordinary seed never saturates.
        assert!(!build_seed(&dna("ACGTACGT"), g, 2).saturated());
    }

    #[test]
    fn reset_reuses_buffers() {
        let s = dna("ACGTACGT");
        let mut set = build_seed(&s, gap(0, 1), 2);
        assert!(!set.is_empty());
        let cap = set.arenas[0].capacity();
        set.reset(3);
        assert!(set.is_empty());
        assert_eq!(set.level(), 3);
        assert_eq!(set.arenas[0].capacity(), cap);
    }

    #[test]
    fn into_pil_map_round_trips() {
        let s = dna("AACCGTT");
        let g = gap(1, 2);
        let map = build_seed(&s, g, 3).into_pil_map();
        let direct = Pil::build_all(&s, g, 3);
        assert_eq!(map, direct);
    }
}
