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
//!   binary search ([`prefix_runs`] / [`JoinPlan`]). Candidate codes are
//!   `p1 · last(p2)`, which inherit the order of `(p1, p2)`, so the
//!   lexicographic slot of every candidate is known before any join:
//!   [`JoinPlan::generate`] visits the pairs partner by partner (one
//!   dense build per partner list, probed by all its left parents) and
//!   writes each candidate straight into its slot.
//!
//! Everything here is `pub(crate)`: the public API (`Pil::build_all`,
//! `mpp`, `mppm`, `mpp_parallel`) is a thin shell over these types and
//! its behaviour — including byte-identical mining output — is
//! unchanged.

use crate::adaptive::choose_dense;
use crate::gap::GapRequirement;
use crate::packed::KeyCodec;
use crate::pattern::Pattern;
use crate::pil::{join_dense_into, join_into, JoinCounters, Pil};
use crate::prune::Pruner;
use perigap_seq::Sequence;
use std::collections::HashMap;
use std::ops::Range;

/// Above this many key bits the dense seed table would outgrow the
/// cache benefit (2^20 slots ≈ 24 MB of headers); fall back to hashing
/// the packed key.
const DENSE_KEY_BITS_MAX: u32 = 20;

/// Where one pattern's PIL lives: `len` entries from `start` in arena
/// `arena`.
#[derive(Clone, Copy, Debug, Default)]
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
/// codes, supports and spans. Spans are an indirection, so entries need
/// not sit in pattern order: a candidate generation written by slot
/// ([`PilSet::presize`]) appends each PIL to the tail arena in join
/// order. Equality is logical: patterns, supports, entries and the
/// saturation flag, never the arena layout.
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
    /// from `start` on: sum its support, and drop the entries again
    /// when that support is below the keep floor. Returns the span and
    /// the support for the caller to record.
    #[inline]
    fn close_span(&mut self, start: usize) -> (Span, u128) {
        let arena = self.arenas.len() - 1;
        let tail = &mut self.arenas[arena];
        let sup = tail[start..]
            .iter()
            .fold(0u128, |acc, &(_, y)| acc.saturating_add(y as u128));
        if sup < self.floor {
            tail.truncate(start);
        }
        let len = tail.len() - start;
        let span = Span {
            start,
            len: u32::try_from(len).expect("a PIL holds at most one entry per u32 offset"),
            arena: u32::try_from(arena).expect("arena count fits u32"),
        };
        (span, sup)
    }

    /// Append a pattern with pre-built entries. Patterns must arrive in
    /// strictly ascending code order; callers uphold this.
    pub(crate) fn push_pattern(&mut self, codes: &[u8], entries: &[(u32, u64)]) {
        debug_assert_eq!(codes.len(), self.level);
        self.codes.extend_from_slice(codes);
        let (start, arena) = self.tail();
        arena.extend_from_slice(entries);
        let (span, sup) = self.close_span(start);
        self.spans.push(span);
        self.supports.push(sup);
    }

    /// Append the candidate `p1_codes · last`, computing its PIL by
    /// joining `prefix` and `suffix` straight into the arena.
    #[cfg(test)]
    pub(crate) fn push_candidate(
        &mut self,
        p1_codes: &[u8],
        last: u8,
        prefix: &[(u32, u64)],
        suffix: &[(u32, u64)],
        gap: GapRequirement,
        counters: &mut JoinCounters,
    ) {
        self.put_candidate(None, p1_codes, last, |arena| {
            join_into(prefix, suffix, gap, arena, counters)
        });
    }

    /// Size codes, spans and supports for `n` patterns that
    /// [`JoinPlan::generate`] then writes by slot. Every slot must be
    /// written before the set is read.
    pub(crate) fn presize(&mut self, n: usize) {
        debug_assert!(self.is_empty());
        self.codes.resize(n * self.level, 0);
        self.spans.resize(n, Span::default());
        self.supports.resize(n, 0);
    }

    /// Store the candidate `p1_codes · last` at `slot` of a
    /// [presized](PilSet::presize) set, or append it when `slot` is
    /// `None`. Its PIL is written by `join` straight into the tail
    /// arena; `join` returns the kernel's saturation flag.
    #[inline]
    fn put_candidate(
        &mut self,
        slot: Option<usize>,
        p1_codes: &[u8],
        last: u8,
        join: impl FnOnce(&mut Vec<(u32, u64)>) -> bool,
    ) {
        debug_assert_eq!(p1_codes.len() + 1, self.level);
        let (start, arena) = self.tail();
        self.saturated |= join(arena);
        let (span, sup) = self.close_span(start);
        match slot {
            Some(k) => {
                let codes = &mut self.codes[k * self.level..(k + 1) * self.level];
                codes[..p1_codes.len()].copy_from_slice(p1_codes);
                codes[p1_codes.len()] = last;
                self.spans[k] = span;
                self.supports[k] = sup;
            }
            None => {
                self.codes.extend_from_slice(p1_codes);
                self.codes.push(last);
                self.spans.push(span);
                self.supports.push(sup);
            }
        }
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

    /// Assemble one set of `total` patterns from `parts`: each
    /// `(part, pattern, slot)` of `placements` moves pattern `pattern`
    /// of part `part` to slot `slot`, and every pattern of every part
    /// must fill exactly one of the `total` slots. The parts' arenas
    /// move into the result unchanged; only codes, spans and supports
    /// are copied. The result has keep floor 0.
    pub(crate) fn gather(
        level: usize,
        parts: Vec<PilSet>,
        total: usize,
        placements: impl IntoIterator<Item = (usize, usize, usize)>,
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
        out.presize(total);
        let mut heads = Vec::with_capacity(parts.len());
        for part in parts {
            debug_assert_eq!(part.level, level);
            let base = out.arenas.len() as u32;
            out.arenas.extend(part.arenas);
            out.saturated |= part.saturated;
            heads.push((base, part.codes, part.spans, part.supports));
        }
        let mut placed = 0usize;
        for (p, k, slot) in placements {
            let (base, codes, spans, supports) = &heads[p];
            out.codes[slot * level..(slot + 1) * level]
                .copy_from_slice(&codes[k * level..(k + 1) * level]);
            out.supports[slot] = supports[k];
            out.spans[slot] = Span {
                arena: spans[k].arena + base,
                ..spans[k]
            };
            placed += 1;
        }
        debug_assert_eq!(placed, total, "placements must fill every slot");
        debug_assert_eq!(
            total,
            heads.iter().map(|(_, _, s, _)| s.len()).sum::<usize>(),
            "placements must cover every part exactly"
        );
        if out.arenas.is_empty() {
            out.arenas.push(Vec::new());
        }
        out
    }

    /// Concatenate whole parts (in order) into one set, moving their
    /// arenas. Parts must hold disjoint ascending code ranges.
    pub(crate) fn concat(level: usize, parts: impl IntoIterator<Item = PilSet>) -> PilSet {
        let parts: Vec<PilSet> = parts.into_iter().collect();
        let lens: Vec<usize> = parts.iter().map(PilSet::len).collect();
        let total = lens.iter().sum();
        let placements = lens.iter().enumerate().scan(0, |next, (p, &len)| {
            let first = std::mem::replace(next, *next + len);
            Some((0..len).map(move |k| (p, k, first + k)))
        });
        PilSet::gather(level, parts, total, placements.flatten())
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

/// Where [`JoinPlan::generate`] puts each candidate.
pub(crate) enum Placement<'a> {
    /// At its lexicographic slot of a set [presized](PilSet::presize) to
    /// the level's candidate count — the serial drivers.
    Slot,
    /// Appended in generation order, with its slot pushed here for
    /// [`PilSet::gather`] — a pooled chunk.
    Append(&'a mut Vec<usize>),
}

/// One level's `Gen(L̂)` (Section 5.1), planned before any join: the
/// partner runs over `kept`, and every admitted left parent bucketed
/// under the run its suffix selects, with the lexicographic slot of its
/// first candidate.
///
/// Left parent `x·s` meets the run of patterns with prefix `s`; its
/// `j`-th partner yields candidate `x·s·c_j` at slot `base + j`, where
/// `base` is the running sum of the run lengths of the admitted left
/// parents before it. Up to σ left parents share one run, spread over
/// the level about 1/σ apart, so visiting the pairs partner-major lets
/// one dense build serve all of them.
pub(crate) struct JoinPlan {
    /// Equal-prefix runs over `kept` (see [`prefix_runs`]).
    runs: Vec<(usize, usize)>,
    /// Run `r`'s left parents are `lefts[starts[r]..starts[r + 1]]`.
    starts: Vec<usize>,
    /// `(pattern index, slot of its first candidate)`, in code order
    /// within each run.
    lefts: Vec<(usize, usize)>,
    candidates: usize,
}

impl JoinPlan {
    /// Plan the join of `set`'s `kept` patterns (ascending indices).
    /// `pruner` vets every left parent exactly once, in order.
    pub(crate) fn new(set: &PilSet, kept: &[usize], pruner: &Pruner) -> JoinPlan {
        let plen = set.level() - 1;
        let runs = prefix_runs(set, kept);
        let mut starts = vec![0usize; runs.len() + 1];
        let mut picked: Vec<(usize, usize, usize)> = Vec::new();
        let mut candidates = 0usize;
        for &i in kept {
            let p1 = set.pattern_codes(i);
            // Pruned modes: skip a left parent whose cone cannot reach
            // the target or whose support already sits under the top-k
            // floor.
            if !pruner.admits_parent(p1, || set.support(i)) {
                continue;
            }
            let suffix = &p1[1..];
            let found =
                runs.binary_search_by(|&(s, _)| set.pattern_codes(kept[s])[..plen].cmp(suffix));
            if let Ok(r) = found {
                picked.push((r, i, candidates));
                starts[r + 1] += 1;
                candidates += runs[r].1 - runs[r].0;
            }
        }
        for r in 0..runs.len() {
            starts[r + 1] += starts[r];
        }
        // A stable bucket sort: each run's left parents stay in order.
        let mut fill = starts.clone();
        let mut lefts = vec![(0, 0); picked.len()];
        for (r, i, base) in picked {
            lefts[fill[r]] = (i, base);
            fill[r] += 1;
        }
        JoinPlan {
            runs,
            starts,
            lefts,
            candidates,
        }
    }

    /// The level's candidate count: the size of the child generation.
    pub(crate) fn candidates(&self) -> usize {
        self.candidates
    }

    /// Number of partner runs; [`JoinPlan::generate`] takes a range of
    /// them.
    pub(crate) fn runs(&self) -> usize {
        self.runs.len()
    }

    /// The left parents of run `r`.
    fn lefts(&self, r: usize) -> &[(usize, usize)] {
        &self.lefts[self.starts[r]..self.starts[r + 1]]
    }

    /// Candidates run `r` yields.
    fn run_candidates(&self, r: usize) -> usize {
        self.lefts(r).len() * (self.runs[r].1 - self.runs[r].0)
    }

    /// Split the runs into consecutive ranges of at least `target`
    /// candidates each (the last may be smaller); runs no left parent
    /// selects are left out. A run is never split.
    pub(crate) fn chunks(&self, target: usize) -> Vec<Range<usize>> {
        let mut chunks = Vec::new();
        let (mut lo, mut acc) = (0usize, 0usize);
        for r in 0..self.runs.len() {
            acc += self.run_candidates(r);
            if acc >= target {
                chunks.push(lo..r + 1);
                (lo, acc) = (r + 1, 0);
            }
        }
        if acc > 0 {
            chunks.push(lo..self.runs.len());
        }
        chunks
    }

    /// Generate the candidates of runs `runs`, partner by partner. Each
    /// partner list is decided dense or sparse once, with the number of
    /// its left parents as users ([`choose_dense`]); a dense build goes
    /// into a buffer from `spare`, is probed by every left parent of the
    /// run while it is hot, and then goes back to `spare`. Every pair is
    /// joined by [`join_into`] or [`join_dense_into`], so codes,
    /// supports, entries and the saturation flag match a pairwise
    /// sparse join in any visiting order.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn generate(
        &self,
        set: &PilSet,
        kept: &[usize],
        gap: GapRequirement,
        runs: Range<usize>,
        out: &mut PilSet,
        mut place: Placement<'_>,
        spare: &mut Vec<Vec<u64>>,
        counters: &mut JoinCounters,
    ) {
        debug_assert_eq!(out.level(), set.level() + 1);
        let level = set.level();
        for r in runs {
            let lefts = self.lefts(r);
            if lefts.is_empty() {
                continue;
            }
            let (s, e) = self.runs[r];
            for (j, &m) in kept[s..e].iter().enumerate() {
                let last = set.pattern_codes(m)[level - 1];
                let b = set.entries(m);
                let dense = choose_dense(b, lefts.len(), spare);
                counters.dense_builds += dense.is_some() as u64;
                for &(i, base) in lefts {
                    let a = set.entries(i);
                    let join = |arena: &mut Vec<(u32, u64)>| match &dense {
                        // A buildable list never saturates a window.
                        Some(d) => {
                            join_dense_into(a, d, gap, arena, counters);
                            false
                        }
                        None => join_into(a, b, gap, arena, counters),
                    };
                    let slot = base + j;
                    let slot = match &mut place {
                        Placement::Slot => Some(slot),
                        Placement::Append(slots) => {
                            slots.push(slot);
                            None
                        }
                    };
                    out.put_candidate(slot, set.pattern_codes(i), last, join);
                }
                if let Some(d) = dense {
                    d.recycle(spare);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::naive::support_dp;
    use crate::prune::{PruneMode, TargetSpec};
    use crate::result::MineOutcome;
    use perigap_seq::Sequence;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn gap(n: usize, m: usize) -> GapRequirement {
        GapRequirement::new(n, m).unwrap()
    }

    /// The left parents a level joins: every pattern of `set`.
    fn all(set: &PilSet) -> Vec<usize> {
        (0..set.len()).collect()
    }

    /// Generate `kept`'s whole next level into `out` by slot, as the
    /// serial drivers do.
    fn gen_level(
        set: &PilSet,
        kept: &[usize],
        g: GapRequirement,
        pruner: &Pruner,
        out: &mut PilSet,
    ) -> JoinCounters {
        let plan = JoinPlan::new(set, kept, pruner);
        out.presize(plan.candidates());
        let mut jc = JoinCounters::default();
        let runs = 0..plan.runs();
        plan.generate(
            set,
            kept,
            g,
            runs,
            out,
            Placement::Slot,
            &mut Vec::new(),
            &mut jc,
        );
        jc
    }

    /// Generate runs `runs` of the plan into `out` by appending, as one
    /// pooled chunk does; returns the slots written.
    fn chunk_into(
        set: &PilSet,
        plan: &JoinPlan,
        g: GapRequirement,
        runs: Range<usize>,
        out: &mut PilSet,
    ) -> Vec<usize> {
        let mut slots = Vec::new();
        let mut jc = JoinCounters::default();
        let kept = all(set);
        let place = Placement::Append(&mut slots);
        plan.generate(set, &kept, g, runs, out, place, &mut Vec::new(), &mut jc);
        slots
    }

    /// The plain left-major oracle: every pair with suffix(p1) =
    /// prefix(p2) joined by `join_into`, in lexicographic order, left
    /// parents vetted by `pruner` one by one.
    fn left_major(
        set: &PilSet,
        kept: &[usize],
        g: GapRequirement,
        pruner: &Pruner,
        out: &mut PilSet,
    ) -> JoinCounters {
        let level = set.level();
        let mut jc = JoinCounters::default();
        for &i in kept {
            let p1 = set.pattern_codes(i);
            if !pruner.admits_parent(p1, || set.support(i)) {
                continue;
            }
            for &m in kept {
                let p2 = set.pattern_codes(m);
                if p1[1..] == p2[..level - 1] {
                    let (a, b) = (set.entries(i), set.entries(m));
                    out.push_candidate(p1, p2[level - 1], a, b, g, &mut jc);
                }
            }
        }
        jc
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
        let mut out = PilSet::new(4);
        gen_level(&set, &all(&set), g, &Pruner::default(), &mut out);

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
        // well-filled partner lists, sparse merges for the rest — must
        // be byte-identical to one sparse join per candidate: codes,
        // entries, supports, and the saturation flag.
        let s = dna(&"ACGTTGCAACGTTACGGTCAACGT".repeat(12));
        for g in [gap(0, 2), gap(1, 3), gap(2, 5)] {
            let set = build_seed(&s, g, 3);
            let kept = all(&set);
            let mut out = PilSet::new(4);
            let jc = gen_level(&set, &kept, g, &Pruner::default(), &mut out);
            assert!(
                jc.dense_builds > 0 && jc.dense_builds < set.len() as u64,
                "both layouts under gap {g}: {jc:?}"
            );
            let mut sparse = PilSet::new(4);
            let oracle = left_major(&set, &kept, g, &Pruner::default(), &mut sparse);
            assert_eq!(out, sparse, "gap {g}");
            assert_eq!(jc.joins, oracle.joins);
        }
    }

    /// A random sorted level-3 set over `sigma` letters: each pattern
    /// present with probability 3/4, its PIL a random run of offsets —
    /// some packed (dense-worthy), some thin, counts small or, when
    /// `hot`, large enough that a window sum overflows `u64`.
    fn random_set(rng: &mut StdRng, sigma: u8) -> PilSet {
        let mut set = PilSet::new(3);
        for a in 0..sigma {
            for b in 0..sigma {
                for c in 0..sigma {
                    if rng.gen_range(0..4) == 0 {
                        continue;
                    }
                    let mut x = rng.gen_range(1u32..20);
                    let stride: u32 = if rng.gen_bool(0.5) { 2 } else { 9 };
                    let mut entries = Vec::new();
                    for _ in 0..rng.gen_range(0..40) {
                        entries.push((x, rng.gen_range(1u64..4)));
                        x += rng.gen_range(1..=stride);
                    }
                    set.push_pattern(&[a, b, c], &entries);
                }
            }
        }
        set
    }

    /// The same set with pattern `hot`'s list replaced by eight
    /// consecutive offsets of count `u64::MAX / 2`: dense-worthy, but
    /// its total overflows, so the build is refused and a sparse join
    /// against it saturates.
    fn with_hot_partner(set: &PilSet, hot: &[u8]) -> PilSet {
        let big: Vec<(u32, u64)> = (1..=8).map(|x| (x, u64::MAX / 2)).collect();
        let mut out = PilSet::new(set.level());
        for i in 0..set.len() {
            let codes = set.pattern_codes(i);
            let entries = if codes == hot { &big } else { set.entries(i) };
            out.push_pattern(codes, entries);
        }
        out
    }

    /// Partner-major generation against [`left_major`] on one set:
    /// serially by slot, and as pooled chunks of `chunk` candidates
    /// written round-robin into two workers and gathered. `make` builds
    /// a fresh pruner in a fixed state; the oracle and each generation
    /// get their own, and their prune counts must agree.
    fn check_against_oracle(
        set: &PilSet,
        kept: &[usize],
        g: GapRequirement,
        floor: u128,
        chunk: usize,
        make: &dyn Fn() -> Pruner,
    ) -> (PilSet, MineOutcome) {
        let pruned = |p: &Pruner| {
            let mut o = MineOutcome::default();
            p.finish(&mut o);
            o
        };
        let oracle_pruner = make();
        let mut oracle = PilSet::new(4);
        oracle.set_keep_floor(floor);
        let ojc = left_major(set, kept, g, &oracle_pruner, &mut oracle);
        let expect = pruned(&oracle_pruner);

        let serial_pruner = make();
        let mut serial = PilSet::new(4);
        serial.set_keep_floor(floor);
        let sjc = gen_level(set, kept, g, &serial_pruner, &mut serial);
        assert_eq!(serial, oracle);
        assert_eq!(serial.saturated(), oracle.saturated());
        assert_eq!(sjc.joins, ojc.joins);
        let got = pruned(&serial_pruner);
        assert_eq!(got.stats.pruned_by_floor, expect.stats.pruned_by_floor);
        assert_eq!(got.stats.pruned_by_target, expect.stats.pruned_by_target);

        let plan = JoinPlan::new(set, kept, &make());
        let mut workers = [PilSet::new(4), PilSet::new(4)];
        let mut placements = Vec::new();
        let mut jc = JoinCounters::default();
        for (c, runs) in plan.chunks(chunk).into_iter().enumerate() {
            let w = &mut workers[c % 2];
            w.set_keep_floor(floor);
            let first = w.len();
            let mut slots = Vec::new();
            let place = Placement::Append(&mut slots);
            plan.generate(set, kept, g, runs, w, place, &mut Vec::new(), &mut jc);
            placements.extend(
                slots
                    .into_iter()
                    .enumerate()
                    .map(|(k, s)| (c % 2, first + k, s)),
            );
        }
        let gathered = PilSet::gather(4, workers.into(), plan.candidates(), placements);
        assert_eq!(gathered, oracle);
        assert_eq!(jc.joins, ojc.joins);
        (oracle, expect)
    }

    #[test]
    fn partner_major_generation_matches_left_major_oracle() {
        let mut rng = StdRng::seed_from_u64(0x5eed);
        let (mut dense_seen, mut floored, mut saturated) = (false, false, false);
        let (mut by_target, mut by_floor) = (0, 0);
        for round in 0..24 {
            let sigma = [2u8, 3, 4][round % 3];
            let mut set = random_set(&mut rng, sigma);
            if round % 4 == 3 {
                set = with_hot_partner(&set, &[0, 0, 0]);
            }
            let kept: Vec<usize> = all(&set)
                .into_iter()
                .filter(|_| rng.gen_bool(0.9))
                .collect();
            let g = gap(rng.gen_range(0..2), rng.gen_range(2..5));
            let chunk = rng.gen_range(1..12);
            let mut probe = PilSet::new(4);
            let jc = gen_level(&set, &kept, g, &Pruner::default(), &mut probe);
            dense_seen |= jc.dense_builds > 0;
            saturated |= probe.saturated();

            // Plain, then under a keep floor at the median support.
            let plain = || Pruner::default();
            check_against_oracle(&set, &kept, g, 0, chunk, &plain);
            let mut sups = probe.supports.clone();
            sups.sort_unstable();
            let floor = sups.get(sups.len() / 2).copied().unwrap_or(0);
            let (kept_floor, _) = check_against_oracle(&set, &kept, g, floor, chunk, &plain);
            floored |= kept_floor.entry_count() < probe.entry_count();

            // A symbol target prunes left parents outside its cone.
            let target = || {
                let spec = TargetSpec::symbols(&[0, 1], sigma as usize);
                Pruner::new(&PruneMode::targeted(spec), g.flexibility())
            };
            by_target += check_against_oracle(&set, &kept, g, 0, chunk, &target)
                .1
                .stats
                .pruned_by_target;

            // A rigid-gap top-k floor, raised to the median parent
            // support, prunes the left parents under it.
            let rigid = gap(1, 1);
            let median = {
                let mut s: Vec<u128> = kept.iter().map(|&i| set.support(i)).collect();
                s.sort_unstable();
                s.get(s.len() / 2).copied().unwrap_or(0)
            };
            let top_k = || {
                let p = Pruner::new(&PruneMode::top_k(2), rigid.flexibility());
                p.admits_result(&[0, 0, 0], median);
                p.admits_result(&[0, 0, 1], median);
                p
            };
            by_floor += check_against_oracle(&set, &kept, rigid, 0, chunk, &top_k)
                .1
                .stats
                .pruned_by_floor;
        }
        assert!(dense_seen, "some partner list went dense");
        assert!(floored, "the keep floor dropped entries");
        assert!(saturated, "an overflowing partner saturated its joins");
        assert!(by_target > 0 && by_floor > 0, "{by_target} / {by_floor}");
    }

    #[test]
    fn plan_buckets_left_parents_by_partner_run() {
        let s = dna(&"ACGTTGCAACGTTACGGTCA".repeat(4));
        let g = gap(0, 3);
        let set = build_seed(&s, g, 3);
        let kept = all(&set);
        let plan = JoinPlan::new(&set, &kept, &Pruner::default());
        // Every left parent lands in the run its suffix selects, bases
        // step by run lengths in code order, and the count is the sum.
        let mut bases: Vec<usize> = Vec::new();
        for r in 0..plan.runs() {
            let (s_, e) = plan.runs[r];
            for &(i, base) in plan.lefts(r) {
                assert_eq!(set.pattern_codes(i)[1..], set.pattern_codes(kept[s_])[..2]);
                bases.push(base);
                assert!(base + (e - s_) <= plan.candidates());
            }
        }
        bases.sort_unstable();
        assert_eq!(bases.first(), Some(&0));
        let total: usize = (0..plan.runs()).map(|r| plan.run_candidates(r)).sum();
        assert_eq!(total, plan.candidates());
        // Chunks tile the selected runs in order, each at the target
        // but the last.
        for target in [1, 7, 40, usize::MAX] {
            let chunks = plan.chunks(target);
            for w in chunks.windows(2) {
                assert_eq!(w[0].end, w[1].start);
            }
            let sizes: Vec<usize> = chunks
                .iter()
                .map(|c| c.clone().map(|r| plan.run_candidates(r)).sum())
                .collect();
            assert_eq!(sizes.iter().sum::<usize>(), plan.candidates());
            let (last, rest) = sizes.split_last().unwrap();
            assert!(rest.iter().all(|&n| n >= target), "target {target}");
            assert!(*last > 0);
        }
    }

    #[test]
    fn concat_preserves_chunked_generation() {
        // The DFS engine's chunks are consecutive left parents, each
        // pushing its survivors in code order: concatenating the parts
        // (an empty one included) is the whole generation.
        let s = dna("ACGTTGCAACGTTACGGTCA");
        let g = gap(0, 2);
        let set = build_seed(&s, g, 3);
        let mut whole = PilSet::new(4);
        gen_level(&set, &all(&set), g, &Pruner::default(), &mut whole);
        let (a, b) = (whole.len() / 3, 2 * whole.len() / 3);
        let mut parts = [
            PilSet::new(4),
            PilSet::new(4),
            PilSet::new(4),
            PilSet::new(4),
        ];
        for i in 0..whole.len() {
            let part = &mut parts[(i >= a) as usize + 2 * (i >= b) as usize];
            part.push_pattern(whole.pattern_codes(i), whole.entries(i));
        }
        assert!(parts[2].is_empty() && !parts[1].is_empty() && !parts[3].is_empty());
        let joined = PilSet::concat(4, parts);
        assert_eq!(joined.arenas.len(), 4);
        assert_eq!(joined, whole);
    }

    #[test]
    fn segmented_set_equals_its_contiguous_form() {
        let s = dna("ACGTTGCAACGTTACGGTCAAGTCCATGA");
        let g = gap(0, 3);
        let set = build_seed(&s, g, 3);
        let kept = all(&set);
        let mut whole = PilSet::new(4);
        gen_level(&set, &kept, g, &Pruner::default(), &mut whole);
        let plan = JoinPlan::new(&set, &kept, &Pruner::default());
        let n = plan.runs();
        // Three chunks of runs on two workers, claimed out of order:
        // worker 0 writes chunks 2 and 0, worker 1 chunk 1.
        let (a, b) = (n / 3, 2 * n / 3);
        let mut w0 = PilSet::new(4);
        let mut w1 = PilSet::new(4);
        let mut s0 = chunk_into(&set, &plan, g, b..n, &mut w0);
        s0.extend(chunk_into(&set, &plan, g, 0..a, &mut w0));
        let s1 = chunk_into(&set, &plan, g, a..b, &mut w1);
        assert_eq!(s0.len(), w0.len());
        let placements = s0
            .into_iter()
            .enumerate()
            .map(|(k, slot)| (0, k, slot))
            .chain(s1.into_iter().enumerate().map(|(k, slot)| (1, k, slot)));
        let gathered = PilSet::gather(4, vec![w0, w1], plan.candidates(), placements);
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
        let kept = all(&set);
        let none = Pruner::default();
        let mut full = PilSet::new(4);
        gen_level(&set, &kept, g, &none, &mut full);
        let mut sups = full.supports.clone();
        sups.sort_unstable();
        let floor = sups[sups.len() / 2];
        assert!(sups[0] < floor, "both sides of the floor are populated");
        let mut floored = PilSet::new(4);
        floored.set_keep_floor(floor);
        gen_level(&set, &kept, g, &none, &mut floored);
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

        // `gather` carries supports with their spans.
        let plan = JoinPlan::new(&set, &kept, &none);
        let mid = plan.runs() / 2;
        let (mut a, mut b) = (PilSet::new(4), PilSet::new(4));
        a.set_keep_floor(floor);
        b.set_keep_floor(floor);
        let sa = chunk_into(&set, &plan, g, mid..plan.runs(), &mut a);
        let sb = chunk_into(&set, &plan, g, 0..mid, &mut b);
        let placements = sa
            .into_iter()
            .enumerate()
            .map(|(k, slot)| (0, k, slot))
            .chain(sb.into_iter().enumerate().map(|(k, slot)| (1, k, slot)));
        let gathered = PilSet::gather(4, vec![a, b], plan.candidates(), placements);
        assert_eq!(gathered, floored);

        // `reset` and `with_arena` clear the floor and the supports.
        let mut reused = floored.clone();
        reused.reset(4);
        assert!(reused.supports.is_empty());
        gen_level(&set, &kept, g, &none, &mut reused);
        assert_eq!(reused, full);
        let arena = floored.into_arenas().swap_remove(0);
        let mut recycled = PilSet::with_arena(4, arena);
        assert!(recycled.supports.is_empty());
        gen_level(&set, &kept, g, &none, &mut recycled);
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
        let plan = JoinPlan::new(&small_parent, &all(&small_parent), &Pruner::default());
        let mut fresh = PilSet::new(4);
        chunk_into(&small_parent, &plan, g, 0..2, &mut fresh);
        assert!(fresh.entry_count() < big.entry_count());
        let old_len = big.entry_count();
        let mut arenas = big.into_arenas();
        let mut recycled = PilSet::with_arena(4, arenas.pop().unwrap());
        assert!(recycled.arenas[0].capacity() >= old_len);
        chunk_into(&small_parent, &plan, g, 0..2, &mut recycled);
        assert_eq!(recycled, fresh);
        assert_eq!(recycled.entry_count(), fresh.entry_count());
        assert_eq!(recycled.arena_bytes(), fresh.arena_bytes());
        // `reset` recycles the same way.
        recycled.reset(4);
        assert_eq!(recycled.entry_count(), 0);
        chunk_into(&small_parent, &plan, g, 0..2, &mut recycled);
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
