//! In-memory span recorder and the `MineObserver` that turns engine
//! events into spans and per-layer counters.
//!
//! Spans carry a name, start and end (ns since the recorder's origin),
//! the id of the span that caused them, and a run id shared by every
//! span of one iteration. They are kept in memory and written out once
//! the run ends. Engine events arrive when a phase has finished and
//! carry its duration, so their spans end at the callback and start
//! `elapsed` earlier; a level's join time is a sum over its fan-out and
//! is recorded as one child span closing the level.

use perigap_core::trace::{
    CompleteEvent, EmEvent, LevelEvent, MineObserver, PoolLevelEvent, SeedEvent, SubtreeEvent,
};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::io;
use std::path::Path;
use std::time::{Duration, Instant};

#[derive(Clone, Debug)]
pub struct Span {
    pub id: usize,
    pub parent: Option<usize>,
    pub run: u32,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

pub struct Recorder {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    run: u32,
}

impl Recorder {
    pub fn new() -> Recorder {
        Recorder {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            run: 0,
        }
    }

    fn ns(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Start a new run id for the spans that follow.
    pub fn next_run(&mut self) {
        self.run += 1;
    }

    /// Open a span as a child of the innermost open span.
    pub fn begin(&mut self, name: &'static str) -> usize {
        let id = self.push(name, Instant::now(), Instant::now());
        self.open.push(id);
        id
    }

    /// Close the span `id` (and any span opened inside it and left open).
    pub fn end(&mut self, id: usize) -> Duration {
        let now = self.ns(Instant::now());
        while let Some(top) = self.open.pop() {
            self.spans[top].end_ns = now;
            if top == id {
                break;
            }
        }
        Duration::from_nanos(now - self.spans[id].start_ns)
    }

    /// Record an already finished interval under the innermost open span.
    pub fn push(&mut self, name: &'static str, start: Instant, end: Instant) -> usize {
        let id = self.spans.len();
        self.spans.push(Span {
            id,
            parent: self.open.last().copied(),
            run: self.run,
            name,
            start_ns: self.ns(start),
            end_ns: self.ns(end),
        });
        id
    }

    /// Record a finished interval under an explicit parent.
    fn push_child(&mut self, parent: usize, name: &'static str, start: Instant, end: Instant) {
        let id = self.spans.len();
        self.spans.push(Span {
            id,
            parent: Some(parent),
            run: self.run,
            name,
            start_ns: self.ns(start),
            end_ns: self.ns(end),
        });
    }

    /// Time `f` as a span.
    pub fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> (T, Duration) {
        let id = self.begin(name);
        let out = f();
        let took = self.end(id);
        (out, took)
    }

    /// Seconds of self time per span name: each span's duration minus
    /// the part of it that its children's intervals cover.
    pub fn self_times(&self) -> BTreeMap<&'static str, f64> {
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                children[p].push((s.start_ns, s.end_ns));
            }
        }
        let mut out = BTreeMap::new();
        for (s, kids) in self.spans.iter().zip(children.iter_mut()) {
            let total = s.end_ns.saturating_sub(s.start_ns);
            kids.sort_unstable();
            let (mut covered, mut reach) = (0u64, s.start_ns);
            for &(a, b) in kids.iter() {
                let (a, b) = (a.max(reach), b.min(s.end_ns));
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            *out.entry(s.name).or_insert(0.0) += total.saturating_sub(covered) as f64 / 1e9;
        }
        out
    }

    /// Write every span as one JSON line.
    pub fn write_jsonl(&self, path: &Path) -> io::Result<()> {
        let mut text = String::new();
        for s in &self.spans {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                text,
                "{{\"id\": {}, \"parent\": {parent}, \"run\": {}, \"name\": \"{}\", \
                 \"start_ns\": {}, \"end_ns\": {}}}",
                s.id, s.run, s.name, s.start_ns, s.end_ns
            );
        }
        std::fs::write(path, text)
    }
}

/// Process kernel time and minor faults: the counters `/proc/self/stat`
/// reports, read through `getrusage` for microsecond resolution (the
/// stat file counts 10 ms ticks, coarser than a rigid-gap level).
#[derive(Clone, Copy, Debug, Default)]
pub struct ProcSample {
    pub sys_s: f64,
    pub minflt: u64,
}

pub fn proc_self() -> ProcSample {
    let ru = crate::child::rusage_self();
    ProcSample {
        sys_s: ru.stime.sec as f64 + ru.stime.usec as f64 / 1e6,
        minflt: ru.minflt.max(0) as u64,
    }
}

/// One level as the observer saw it.
#[derive(Clone, Debug, Default)]
pub struct LevelSample {
    pub level: usize,
    pub elapsed_s: f64,
    pub join_s: f64,
    pub evaluated: usize,
    pub frequent: usize,
    pub sys_s: f64,
    pub minflt: u64,
}

/// Per-layer counters summed over every mine the observer watched.
#[derive(Clone, Debug, Default)]
pub struct Counters {
    pub mines: usize,
    pub seed_s: f64,
    pub seed_pil_entries: f64,
    pub em_s: f64,
    pub level_s: f64,
    pub join_s: f64,
    pub join_calls: u64,
    pub join_probed: u64,
    pub join_reallocs: u64,
    pub join_bytes_moved: u64,
    pub evaluated: u64,
    pub frequent: u64,
    pub arena_peak_bytes: f64,
    pub level_sys_s: f64,
    pub level_minflt: u64,
    /// Busy seconds per pool worker id.
    pub pool_busy: BTreeMap<usize, f64>,
    pub pool_idle_s: f64,
    pub subtrees: u64,
    pub slowest_subtree_s: f64,
    pub levels: Vec<LevelSample>,
}

/// Records engine events into a [`Recorder`] and [`Counters`].
pub struct LayerObserver<'a> {
    rec: &'a mut Recorder,
    pub counters: &'a mut Counters,
    last: ProcSample,
}

impl<'a> LayerObserver<'a> {
    pub fn new(rec: &'a mut Recorder, counters: &'a mut Counters) -> LayerObserver<'a> {
        counters.mines += 1;
        LayerObserver {
            rec,
            counters,
            last: proc_self(),
        }
    }

    /// CPU and faults since the previous sample.
    fn delta(&mut self) -> (f64, u64) {
        let now = proc_self();
        let d = (
            (now.sys_s - self.last.sys_s).max(0.0),
            now.minflt.saturating_sub(self.last.minflt),
        );
        self.last = now;
        d
    }
}

/// Run `mine` under a span named `name` with a [`LayerObserver`]
/// attached; returns its result and the span's seconds.
pub fn observed<T>(
    rec: &mut Recorder,
    counters: &mut Counters,
    name: &'static str,
    mine: impl FnOnce(&mut LayerObserver<'_>) -> T,
) -> (T, f64) {
    let id = rec.begin(name);
    let out = mine(&mut LayerObserver::new(rec, counters));
    (out, rec.end(id).as_secs_f64())
}

fn back(elapsed: Duration) -> (Instant, Instant) {
    let end = Instant::now();
    (end.checked_sub(elapsed).unwrap_or(end), end)
}

impl MineObserver for LayerObserver<'_> {
    fn on_seed(&mut self, e: &SeedEvent) {
        let (a, b) = back(e.elapsed);
        self.rec.push("core.seed", a, b);
        self.delta();
        self.counters.seed_s += e.elapsed.as_secs_f64();
        self.counters.seed_pil_entries += e.pil_entries as f64;
    }

    fn on_level(&mut self, e: &LevelEvent) {
        let (a, b) = back(e.elapsed);
        let level = self.rec.push("core.level", a, b);
        if !e.join_elapsed.is_zero() {
            let (ja, jb) = back(e.join_elapsed);
            self.rec.push_child(level, "core.join", ja.max(a), jb);
        }
        let (sys_s, minflt) = self.delta();
        let c = &mut *self.counters;
        c.level_s += e.elapsed.as_secs_f64();
        c.join_s += e.join_elapsed.as_secs_f64();
        c.join_calls += e.joins;
        c.join_probed += e.probed;
        c.join_reallocs += e.reallocs;
        c.join_bytes_moved += e.bytes_moved;
        c.evaluated += e.evaluated as u64;
        c.frequent += e.frequent as u64;
        c.level_sys_s += sys_s;
        c.level_minflt += minflt;
        c.levels.push(LevelSample {
            level: e.level,
            elapsed_s: e.elapsed.as_secs_f64(),
            join_s: e.join_elapsed.as_secs_f64(),
            evaluated: e.evaluated,
            frequent: e.frequent,
            sys_s,
            minflt,
        });
    }

    fn on_pool(&mut self, e: &PoolLevelEvent) {
        for w in &e.workers {
            *self.counters.pool_busy.entry(w.worker).or_insert(0.0) += w.busy.as_secs_f64();
            self.counters.pool_idle_s += w.idle.as_secs_f64();
        }
    }

    fn on_subtree(&mut self, e: &SubtreeEvent) {
        let (a, b) = back(e.elapsed);
        self.rec.push("core.dfs.subtree", a, b);
        self.counters.subtrees += 1;
        self.counters.slowest_subtree_s =
            self.counters.slowest_subtree_s.max(e.elapsed.as_secs_f64());
    }

    fn on_em(&mut self, e: &EmEvent) {
        let (a, b) = back(e.elapsed);
        self.rec.push("core.em", a, b);
        self.counters.em_s += e.elapsed.as_secs_f64();
    }

    fn on_complete(&mut self, e: &CompleteEvent) {
        self.counters.arena_peak_bytes = self
            .counters
            .arena_peak_bytes
            .max(e.peak_arena_bytes as f64);
    }
}

impl Counters {
    /// Per-mine layer metrics (sums divided by the mines observed).
    pub fn report(&self, r: &mut crate::report::Report) {
        let n = self.mines.max(1) as f64;
        let k = self.mines;
        r.put("core.seed_s", "s", self.seed_s / n, k);
        r.put(
            "core.seed.pil_entries",
            "count",
            self.seed_pil_entries / n,
            k,
        );
        r.put("core.em_s", "s", self.em_s / n, k);
        r.put("core.level_s", "s", self.level_s / n, k);
        r.put("core.join_s", "s", self.join_s / n, k);
        r.put(
            "core.filter_s",
            "s",
            (self.level_s - self.join_s).max(0.0) / n,
            k,
        );
        r.put("core.join.calls", "count", self.join_calls as f64 / n, k);
        r.put("core.join.probed", "count", self.join_probed as f64 / n, k);
        r.put(
            "core.join.reallocs",
            "count",
            self.join_reallocs as f64 / n,
            k,
        );
        r.put(
            "core.join.bytes_moved",
            "bytes",
            self.join_bytes_moved as f64 / n,
            k,
        );
        r.put("core.candidates", "count", self.evaluated as f64 / n, k);
        let useful = self.frequent as f64 / (self.evaluated.max(1)) as f64;
        r.put("core.useful_ratio", "ratio", useful, k);
        r.put("core.arena.peak_bytes", "bytes", self.arena_peak_bytes, k);
        r.put(
            "core.level.sys_s",
            "s",
            self.level_sys_s / n,
            self.levels.len(),
        );
        r.put(
            "core.level.minflt",
            "count",
            self.level_minflt as f64 / n,
            self.levels.len(),
        );
        let busy: Vec<f64> = self.pool_busy.values().copied().collect();
        r.put(
            "core.pool.busy_s",
            "s",
            busy.iter().fold(0.0, |a, b| a + b) / n,
            busy.len(),
        );
        r.put("core.pool.idle_s", "s", self.pool_idle_s / n, busy.len());
        let med = perigap_math::stats::median(&busy).unwrap_or(0.0);
        let imbalance = if med > 0.0 {
            busy.iter().copied().fold(0.0, f64::max) / med
        } else {
            0.0
        };
        r.put("core.pool.imbalance", "ratio", imbalance, busy.len());
        r.put("core.dfs.subtrees", "count", self.subtrees as f64 / n, k);
        r.put(
            "core.dfs.slowest_subtree_s",
            "s",
            self.slowest_subtree_s,
            self.subtrees as usize,
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_covered_child_time() {
        let mut rec = Recorder::new();
        let t0 = rec.origin;
        let at = |ms: u64| t0 + Duration::from_millis(ms);
        let root = rec.push("root", at(0), at(100));
        rec.open.push(root);
        rec.push("a", at(10), at(40));
        rec.push("a", at(30), at(50)); // overlaps the first child
        rec.push("b", at(90), at(120)); // clipped to the parent
        let st = rec.self_times();
        assert!((st["root"] - 0.050).abs() < 1e-9, "{st:?}");
        assert!((st["a"] - 0.050).abs() < 1e-9);
        assert_eq!(rec.spans[1].parent, Some(root));
    }
}
