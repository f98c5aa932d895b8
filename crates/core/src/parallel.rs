//! Parallel candidate evaluation (an engineering extension — the paper
//! is single-threaded).
//!
//! The dominant cost of a level is independent per candidate: join two
//! parent PILs, sum the result. This module runs the level-wise engine
//! with the join fan-out spread over a **persistent worker pool**: the
//! threads are spawned once per mine and live for the whole run.
//! Each level publishes one [`LevelJob`] (the kept generation, its
//! [`JoinPlan`], and an atomic chunk cursor); the main thread and every
//! worker *steal* chunks — consecutive ranges of partner runs — from
//! the cursor until the level is drained, so a skewed chunk cannot
//! stall the level the way statically partitioned spawns could.
//!
//! Determinism is preserved: the plan fixes every candidate's
//! lexicographic slot before any join, each chunk reports the slot of
//! every candidate it wrote, and the child is assembled by slot, so the
//! generation is the serial engine's whichever thread ran which chunk.
//! Output is byte-identical to [`crate::mpp::mpp`].
//!
//! ## Memory
//!
//! Each worker owns a persistent output [`PilSet`]; a chunk appends its
//! candidates there and reports their pattern range and slots. The
//! joined child generation is [gathered](PilSet::gather) by slot and
//! takes the workers' arenas over without copying an entry, and the
//! dead parent's arenas become the next level's outputs — two buffer
//! sets alternating as in Figure 3, so a level faults in fresh pages
//! only when its generation outgrows every earlier one.
//!
//! ## Failure handling
//!
//! The cursor hands each chunk to exactly one thread, so the merge loop
//! knows exactly how many results are outstanding. Worker-side join
//! work runs under `catch_unwind`: a panic becomes a
//! [`WorkerMsg::Failed`] report and the mine aborts with
//! [`MineError::WorkerFailed`] instead of blocking forever on a chunk
//! that will never arrive (the deadlock this module shipped with — the
//! old merge loop did a bare `recv()` while the pool's retained result
//! sender kept the channel open). A belt-and-braces liveness check
//! (`JoinHandle::is_finished` during receive timeouts) covers the
//! pathological case of a worker dying without managing to report.

use crate::arena::{build_seed, JoinPlan, PilSet, Placement};
use crate::counts::OffsetCounts;
use crate::error::MineError;
use crate::gap::GapRequirement;
use crate::lambda::{BoundRow, BoundTable};
use crate::mpp::{check_ceiling, prepare, MppConfig};
use crate::pattern::Pattern;
use crate::pil::JoinCounters;
use crate::prune::Pruner;
use crate::result::{FrequentPattern, LevelStats, MineOutcome, MineStats};
use crate::trace::{
    AbortEvent, CompleteEvent, LevelEvent, MineObserver, NoopObserver, PoolLevelEvent,
    ProcCounters, ResourceMeter, SeedEvent, WorkerLevelStats,
};
use perigap_seq::Sequence;
use std::ops::Range;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{mpsc, Arc};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Below this many join tasks a level runs serially — chunk handoff
/// overhead would dominate.
pub(crate) const PARALLEL_THRESHOLD: usize = 256;

/// Stealing granularity: aim for this many chunks per thread so a slow
/// chunk is absorbed by the others...
pub(crate) const CHUNKS_PER_THREAD: usize = 8;

/// ...but never bother stealing fewer than this many candidates (the
/// breadth-first engine) or left parents (the hybrid DFS engine).
pub(crate) const MIN_CHUNK: usize = 32;

/// How long the merge loop waits between liveness checks of the worker
/// threads while chunk results are outstanding.
const RECV_TICK: Duration = Duration::from_millis(50);

/// Once a worker thread is observed dead, how long the merge loop keeps
/// draining the channel for an in-flight failure report before giving
/// up with a generic [`MineError::WorkerFailed`].
const DEAD_WORKER_GRACE: Duration = Duration::from_secs(1);

/// MPP with the candidate-evaluation step parallelized over `threads`
/// OS threads. Produces byte-identical outcomes to [`crate::mpp::mpp`].
pub fn mpp_parallel(
    seq: &Sequence,
    gap: GapRequirement,
    rho: f64,
    n: usize,
    config: MppConfig,
    threads: usize,
) -> Result<MineOutcome, MineError> {
    mpp_parallel_traced(seq, gap, rho, n, config, threads, &mut NoopObserver)
}

/// [`mpp_parallel`] with a [`MineObserver`] attached. Beyond the serial
/// events, every pool-engaged level also emits a
/// [`PoolLevelEvent`] with the per-worker chunk/candidate/busy-time
/// breakdown.
pub fn mpp_parallel_traced<O: MineObserver>(
    seq: &Sequence,
    gap: GapRequirement,
    rho: f64,
    n: usize,
    config: MppConfig,
    threads: usize,
    observer: &mut O,
) -> Result<MineOutcome, MineError> {
    assert!(threads >= 1, "need at least one thread");
    let started = Instant::now();
    let repr_before = crate::adaptive::repr_stats();
    let (counts, rho_exact) = prepare(seq, gap, rho, &config)?;
    let seed_started = Instant::now();
    let mut meter = ResourceMeter::start(observer);
    let pils = build_seed(seq, gap, config.start_level);
    let ProcCounters { minflt, user, sys } = meter.lap();
    observer.on_seed(&SeedEvent {
        level: config.start_level,
        patterns: pils.len(),
        pil_entries: pils.entry_count(),
        arena_bytes: pils.arena_bytes(),
        minflt,
        user,
        sys,
        elapsed: seed_started.elapsed(),
    });
    let run = run_parallel(
        seq,
        &counts,
        &rho_exact,
        n,
        &config,
        pils,
        threads,
        PoolHooks::default(),
        observer,
    );
    let (mut outcome, peak) = match run {
        Ok(done) => done,
        Err(e) => {
            observer.on_abort(&AbortEvent {
                message: e.to_string(),
            });
            return Err(e);
        }
    };
    outcome.stats.total_elapsed = started.elapsed();
    observer.on_repr(&crate::adaptive::repr_stats().since(repr_before).to_event());
    observer.on_complete(&CompleteEvent::from_outcome(&outcome).with_peak_arena_bytes(peak));
    Ok(outcome)
}

/// Test-only fault injection, carried by every pool job. Outside
/// `cfg(test)` this is a zero-sized token whose accessors fold to
/// constants.
#[derive(Clone, Copy, Default)]
pub(crate) struct PoolHooks {
    /// Make every worker thread panic on the first item it claims.
    #[cfg(test)]
    pub(crate) panic_workers: bool,
    /// Keep the calling thread out of the stealing loop, guaranteeing a
    /// worker claims an item.
    #[cfg(test)]
    pub(crate) main_no_steal: bool,
}

impl PoolHooks {
    pub(crate) fn panic_workers(&self) -> bool {
        #[cfg(test)]
        {
            self.panic_workers
        }
        #[cfg(not(test))]
        {
            false
        }
    }

    pub(crate) fn main_no_steal(&self) -> bool {
        #[cfg(test)]
        {
            self.main_no_steal
        }
        #[cfg(not(test))]
        {
            false
        }
    }
}

/// A unit of pool work: a fixed roster of independent items claimed
/// off an atomic cursor. The breadth-first engine's [`LevelJob`] (items
/// = chunks of left parents) and the hybrid engine's subtree job
/// (items = prefix-run components, see [`crate::dfs`]) both implement
/// this, sharing one pool, one merge loop, and one failure protocol.
pub(crate) trait PoolJob: Send + Sync + 'static {
    /// What one item produces.
    type Out: Send + 'static;

    /// Per-worker state lent to the job for one [`WorkerPool::run_with`]
    /// and handed back when it returns — the breadth-first engine's
    /// output arena and dense scratch. `()` for jobs without any.
    type Local: Send + 'static;

    /// Number of items to claim; the cursor drains at this count.
    fn n_items(&self) -> usize;

    /// The shared claim cursor.
    fn cursor(&self) -> &AtomicUsize;

    /// Fault-injection switches.
    fn hooks(&self) -> &PoolHooks;

    /// The level this job's [`PoolLevelEvent`] reports.
    fn progress_level(&self) -> usize;

    /// Process item `item` with the claiming worker's `local`. Runs
    /// under `catch_unwind` on workers.
    fn process(&self, item: usize, local: &mut Self::Local) -> Self::Out;

    /// How many candidates `out` contributes to the per-worker
    /// [`WorkerLevelStats`] tally.
    fn out_weight(out: &Self::Out) -> usize;
}

/// One level's join fan-out, shared with the pool. Workers claim chunk
/// indices from `cursor` until it passes `chunks.len()`.
struct LevelJob {
    /// The current (kept-filtered inputs) generation.
    set: PilSet,
    /// Indices into `set` that survived the L̂ bound, ascending.
    kept: Vec<usize>,
    /// The level's partner runs, bucketed left parents and slots.
    plan: JoinPlan,
    /// Chunk `c` generates the partner runs `chunks[c]`.
    chunks: Vec<Range<usize>>,
    gap: GapRequirement,
    next_level: usize,
    cursor: AtomicUsize,
    hooks: PoolHooks,
}

/// One worker's persistent output state, lent to every level's job.
/// Its candidates go into `out`, whose arena becomes part of the child
/// generation once the level is joined; `dense` holds the worker's
/// recycled dense-build buffer.
struct LevelScratch {
    /// The worker id, i.e. the index of `out` among the level's parts.
    worker: usize,
    out: PilSet,
    dense: Vec<Vec<u64>>,
}

/// One chunk's candidates: patterns `range` of worker `worker`'s `out`,
/// whose `k`-th belongs at slot `slots[k]` of the child, with the
/// chunk's join counters (merged level-wide by the caller).
struct ChunkOut {
    worker: usize,
    range: Range<usize>,
    slots: Vec<usize>,
    jc: JoinCounters,
}

impl PoolJob for LevelJob {
    type Out = ChunkOut;
    type Local = LevelScratch;

    fn n_items(&self) -> usize {
        self.chunks.len()
    }

    fn cursor(&self) -> &AtomicUsize {
        &self.cursor
    }

    fn hooks(&self) -> &PoolHooks {
        &self.hooks
    }

    fn progress_level(&self) -> usize {
        self.next_level
    }

    /// Generate the candidates of chunk `c`'s partner runs, appending
    /// them to the worker's output set.
    fn process(&self, c: usize, scratch: &mut LevelScratch) -> ChunkOut {
        let first = scratch.out.len();
        let mut slots = Vec::new();
        let mut jc = JoinCounters::default();
        self.plan.generate(
            &self.set,
            &self.kept,
            self.gap,
            self.chunks[c].clone(),
            &mut scratch.out,
            Placement::Append(&mut slots),
            &mut scratch.dense,
            &mut jc,
        );
        ChunkOut {
            worker: scratch.worker,
            range: first..scratch.out.len(),
            slots,
            jc,
        }
    }

    fn out_weight(out: &ChunkOut) -> usize {
        out.range.len()
    }
}

/// What a worker sends back for each item it claimed. Exactly one
/// message per claimed item, success or not — the invariant the merge
/// loop's outstanding count rests on — plus one `Released` per job.
enum WorkerMsg<J: PoolJob> {
    /// Item `chunk` completed with the given output.
    Chunk {
        chunk: usize,
        worker: usize,
        out: J::Out,
        elapsed: Duration,
    },
    /// The worker panicked while processing `chunk` and is exiting.
    Failed { chunk: usize, message: String },
    /// The worker found the job's cursor drained and dropped its handle
    /// to the job; its local state comes back.
    Released { worker: usize, local: J::Local },
}

/// Render a panic payload for the failure report.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "worker panicked with a non-string payload".to_string()
    }
}

/// A worker thread: claim items of the current job until its cursor
/// drains, then release the job and hand its local state back. The
/// work runs under `catch_unwind` so every claimed item yields exactly
/// one [`WorkerMsg`]; after reporting a failure the worker exits.
fn worker_loop<J: PoolJob>(
    id: usize,
    job_rx: mpsc::Receiver<(Arc<J>, J::Local)>,
    results: mpsc::Sender<WorkerMsg<J>>,
) {
    while let Ok((job, mut local)) = job_rx.recv() {
        loop {
            let c = job.cursor().fetch_add(1, Ordering::Relaxed);
            if c >= job.n_items() {
                break;
            }
            let chunk_started = Instant::now();
            let outcome = catch_unwind(AssertUnwindSafe(|| {
                if job.hooks().panic_workers() {
                    panic!("injected worker panic");
                }
                job.process(c, &mut local)
            }));
            match outcome {
                Ok(out) => {
                    let msg = WorkerMsg::Chunk {
                        chunk: c,
                        worker: id,
                        out,
                        elapsed: chunk_started.elapsed(),
                    };
                    if results.send(msg).is_err() {
                        return;
                    }
                }
                Err(payload) => {
                    // `&*payload` reborrows the payload itself; a bare
                    // `&payload` would coerce the Box into the `dyn Any`
                    // and every downcast would miss.
                    let _ = results.send(WorkerMsg::Failed {
                        chunk: c,
                        message: panic_message(&*payload),
                    });
                    return;
                }
            }
        }
        // Drop the handle before reporting: once every worker has
        // reported, the caller holds the job alone.
        drop(job);
        if results
            .send(WorkerMsg::Released { worker: id, local })
            .is_err()
        {
            return;
        }
    }
}

/// The persistent pool: `threads − 1` workers (the main thread is the
/// remaining worker) that live for the whole mine and steal items of
/// whatever job is current. Worker `0` is the calling thread; pool
/// threads are `1..threads` (named `pgmine-worker-<id>`).
pub(crate) struct WorkerPool<J: PoolJob> {
    job_txs: Vec<mpsc::Sender<(Arc<J>, J::Local)>>,
    results_rx: mpsc::Receiver<WorkerMsg<J>>,
    handles: Vec<JoinHandle<()>>,
}

/// A drained job, handed back by [`WorkerPool::run_with`].
pub(crate) struct PoolRun<J: PoolJob> {
    /// Per-item outputs, in item order.
    pub(crate) outs: Vec<J::Out>,
    /// The workers' local states, in worker order.
    pub(crate) locals: Vec<J::Local>,
    /// The job; every worker has dropped its handle, so this is the only
    /// one unless the caller kept a clone.
    pub(crate) job: Arc<J>,
    /// Per-worker chunk/busy-time breakdown.
    pub(crate) event: PoolLevelEvent,
}

impl<J: PoolJob> WorkerPool<J> {
    pub(crate) fn new(workers: usize) -> WorkerPool<J> {
        let (results_tx, results_rx) = mpsc::channel();
        let mut job_txs = Vec::with_capacity(workers);
        let mut handles = Vec::with_capacity(workers);
        for id in 1..=workers {
            let (job_tx, job_rx) = mpsc::channel::<(Arc<J>, J::Local)>();
            let results = results_tx.clone();
            let handle = std::thread::Builder::new()
                .name(format!("pgmine-worker-{id}"))
                .spawn(move || worker_loop(id, job_rx, results))
                .expect("spawn mining worker");
            handles.push(handle);
            job_txs.push(job_tx);
        }
        // `results_tx` is dropped here on purpose: only workers hold
        // senders, so if every worker dies the merge loop observes a
        // disconnect instead of blocking forever.
        WorkerPool {
            job_txs,
            results_rx,
            handles,
        }
    }

    /// Threads that process items: the pool's workers plus the caller.
    pub(crate) fn workers(&self) -> usize {
        self.handles.len() + 1
    }

    /// Drain one job across the pool plus the calling thread, lending
    /// `locals[w]` to worker `w` (worker 0 is this thread). Returns once
    /// every item is processed *and* every worker has released the job,
    /// so the handed-back [`PoolRun::job`] and locals are deterministic.
    /// A worker failure aborts with [`MineError::WorkerFailed`] in
    /// bounded time.
    pub(crate) fn run_with(
        &self,
        job: Arc<J>,
        locals: Vec<J::Local>,
    ) -> Result<PoolRun<J>, MineError> {
        let workers = self.workers();
        assert_eq!(locals.len(), workers, "one local state per worker");
        let level_started = Instant::now();
        let mut back: Vec<Option<J::Local>> = (0..workers).map(|_| None).collect();
        let mut locals = locals.into_iter();
        let mut main_local = locals.next().expect("worker 0 is this thread");
        let mut releasing = 0usize;
        for (w, (tx, local)) in self.job_txs.iter().zip(locals).enumerate() {
            // A send only fails if a worker died; the stealing loop
            // below still completes the level without it (and the
            // liveness check reports the death if it claimed a chunk).
            match tx.send((Arc::clone(&job), local)) {
                Ok(()) => releasing += 1,
                Err(mpsc::SendError((_, local))) => back[w + 1] = Some(local),
            }
        }
        let n_items = job.n_items();
        let mut chunks = vec![0usize; workers];
        let mut candidates = vec![0usize; workers];
        let mut busy = vec![Duration::ZERO; workers];
        let mut parts: Vec<Option<J::Out>> = (0..n_items).map(|_| None).collect();
        let mut mined_here = 0usize;
        if !job.hooks().main_no_steal() {
            loop {
                let c = job.cursor().fetch_add(1, Ordering::Relaxed);
                if c >= n_items {
                    break;
                }
                let chunk_started = Instant::now();
                let out = job.process(c, &mut main_local);
                busy[0] += chunk_started.elapsed();
                chunks[0] += 1;
                candidates[0] += J::out_weight(&out);
                parts[c] = Some(out);
                mined_here += 1;
            }
        }
        back[0] = Some(main_local);
        // Each item was claimed by exactly one thread, and every
        // worker-claimed item sends exactly one message (success or
        // failure — see `worker_loop`), so the merge waits on a count.
        let mut outstanding = n_items - mined_here;
        let mut dead_since: Option<Instant> = None;
        while outstanding > 0 || releasing > 0 {
            match self.results_rx.recv_timeout(RECV_TICK) {
                Ok(WorkerMsg::Chunk {
                    chunk,
                    worker,
                    out,
                    elapsed,
                }) => {
                    chunks[worker] += 1;
                    candidates[worker] += J::out_weight(&out);
                    busy[worker] += elapsed;
                    parts[chunk] = Some(out);
                    outstanding -= 1;
                }
                Ok(WorkerMsg::Released { worker, local }) => {
                    back[worker] = Some(local);
                    releasing -= 1;
                }
                Ok(WorkerMsg::Failed { chunk, message }) => {
                    return Err(MineError::WorkerFailed { chunk, message });
                }
                Err(mpsc::RecvTimeoutError::Disconnected) => {
                    // Every worker is gone and no failure report made
                    // it out.
                    return Err(MineError::WorkerFailed {
                        chunk: usize::MAX,
                        message: "all worker threads exited with chunks outstanding".into(),
                    });
                }
                Err(mpsc::RecvTimeoutError::Timeout) => {
                    // A worker never exits while the pool lives unless
                    // it failed, so a finished handle here means a
                    // death the channel may still be carrying a report
                    // for — drain a little longer, then give up.
                    if self.handles.iter().any(JoinHandle::is_finished) {
                        let since = *dead_since.get_or_insert_with(Instant::now);
                        if since.elapsed() > DEAD_WORKER_GRACE {
                            return Err(MineError::WorkerFailed {
                                chunk: usize::MAX,
                                message: "a worker thread died without reporting a failure".into(),
                            });
                        }
                    }
                }
            }
        }
        let wall = level_started.elapsed();
        let event = PoolLevelEvent {
            level: job.progress_level(),
            chunks: n_items,
            workers: (0..workers)
                .map(|w| WorkerLevelStats {
                    worker: w,
                    chunks: chunks[w],
                    candidates: candidates[w],
                    busy: busy[w],
                    idle: wall.saturating_sub(busy[w]),
                })
                .collect(),
        };
        Ok(PoolRun {
            outs: parts
                .into_iter()
                .map(|p| p.expect("all items accounted for"))
                .collect(),
            locals: back
                .into_iter()
                .map(|l| l.expect("every local handed back"))
                .collect(),
            job,
            event,
        })
    }
}

impl<J: PoolJob<Local = ()>> WorkerPool<J> {
    /// [`WorkerPool::run_with`] for jobs without local state: the
    /// per-item outputs in item order plus the pool event.
    pub(crate) fn run(&self, job: Arc<J>) -> Result<(Vec<J::Out>, PoolLevelEvent), MineError> {
        let run = self.run_with(job, vec![(); self.workers()])?;
        Ok((run.outs, run.event))
    }
}

impl<J: PoolJob> Drop for WorkerPool<J> {
    fn drop(&mut self) {
        // Closing the job channels lands every worker's `recv` on Err.
        self.job_txs.clear();
        for handle in self.handles.drain(..) {
            let _ = handle.join();
        }
    }
}

/// The parallel twin of `run_levelwise`. Kept separate so the serial
/// engine stays dependency-free and obviously faithful to Figure 3.
/// Returns the outcome plus the peak live arena bytes, like the serial
/// engine.
#[allow(clippy::too_many_arguments)]
fn run_parallel<O: MineObserver>(
    seq: &Sequence,
    counts: &OffsetCounts,
    rho: &perigap_math::BigRatio,
    n: usize,
    config: &MppConfig,
    seed: PilSet,
    threads: usize,
    hooks: PoolHooks,
    observer: &mut O,
) -> Result<(MineOutcome, usize), MineError> {
    let gap = counts.gap();
    let sigma = seq.alphabet().size() as u128;
    let start = config.start_level;
    let n = n.clamp(start, counts.l1().max(start));
    let hard_cap = config.max_level.unwrap_or(usize::MAX).min(counts.l2());

    // Spawned once; lives until the mine returns.
    let pool = (threads > 1).then(|| WorkerPool::<LevelJob>::new(threads - 1));
    // Figure 3 needs two generations at a time, and so do the buffers:
    // the child is written into the workers' arenas, and once it is
    // joined the dead parent's arenas wait in `spare` to hold the next
    // child — no merge copy, no per-level unmap and re-fault.
    let mut spare: Vec<Vec<(u32, u64)>> = Vec::new();
    let mut scratches: Vec<LevelScratch> = (0..threads)
        .map(|worker| LevelScratch {
            worker,
            out: PilSet::default(),
            dense: Vec::new(),
        })
        .collect();

    let mut stats = MineStats {
        n_used: n,
        ..MineStats::default()
    };
    let pruner = Pruner::new(&config.prune, counts.gap().flexibility());
    let mut frequent: Vec<FrequentPattern> = Vec::new();
    let mut bounds = BoundTable::new(counts, rho, n);
    let mut current = seed;
    let mut kept: Vec<usize> = Vec::new();
    let mut level = start;
    let mut candidates_at_level: u128 = sigma.saturating_pow(start as u32);
    let mut peak = current.arena_bytes();
    check_ceiling(config.max_arena_bytes, peak)?;
    let mut meter = ResourceMeter::start(observer);

    while level <= hard_cap {
        let level_started = Instant::now();
        if counts.n(level).is_zero() {
            break;
        }
        let &BoundRow {
            exact_min,
            lhat_min,
            n_f64,
            ..
        } = bounds.row(level);

        kept.clear();
        let mut frequent_here = 0usize;
        for i in 0..current.len() {
            let sup = current.support(i);
            let admits_exact = sup >= exact_min;
            let admits_lhat = sup >= lhat_min;
            if (admits_exact || admits_lhat) && !pruner.admits_search(sup) {
                continue;
            }
            if admits_exact && pruner.admits_result(current.pattern_codes(i), sup) {
                frequent.push(FrequentPattern {
                    pattern: Pattern::from_codes(current.pattern_codes(i).to_vec()),
                    support: sup,
                    ratio: sup as f64 / n_f64,
                });
                frequent_here += 1;
            }
            if admits_lhat && pruner.admits_frontier(current.pattern_codes(i)) {
                kept.push(i);
            }
        }
        let evaluated = current.len();
        let extended = kept.len();
        let gen_saturated = current.saturated();
        stats.support_saturated |= gen_saturated;
        let finish_level = |stats: &mut MineStats,
                            observer: &mut O,
                            meter: &mut ResourceMeter,
                            join_elapsed: Duration,
                            elapsed,
                            arena_bytes: usize,
                            jc: JoinCounters| {
            stats.levels.push(LevelStats {
                level,
                candidates: candidates_at_level,
                frequent: frequent_here,
                extended,
                elapsed,
            });
            let ProcCounters { minflt, user, sys } = meter.lap();
            observer.on_level(&LevelEvent {
                level,
                candidates: candidates_at_level,
                evaluated,
                frequent: frequent_here,
                kept: extended,
                pruned_bound: evaluated - extended,
                pruned_support: evaluated - frequent_here,
                arena_bytes,
                joins: jc.joins,
                probed: jc.probed,
                reallocs: jc.reallocs,
                bytes_moved: jc.bytes_moved,
                dense_builds: jc.dense_builds,
                minflt,
                user,
                sys,
                join_elapsed,
                elapsed,
                saturated: gen_saturated,
            });
        };

        if kept.is_empty() || level == hard_cap {
            finish_level(
                &mut stats,
                observer,
                &mut meter,
                Duration::ZERO,
                level_started.elapsed(),
                current.arena_bytes(),
                JoinCounters::default(),
            );
            break;
        }

        // Join fan-out: stolen in chunks when it is worth the handoff.
        let join_started = Instant::now();
        let plan = JoinPlan::new(&current, &kept, &pruner);
        let total = plan.candidates();
        // The parents move into the job below; their size is part of
        // the live footprint either way.
        let parent_bytes = current.arena_bytes();
        // The child keeps entries only for what the next level can join.
        let floor = bounds.keep_floor(level + 1, hard_cap);
        let mut level_jc = JoinCounters::default();
        let (next, parent) = match &pool {
            Some(pool) if kept.len() >= PARALLEL_THRESHOLD => {
                let target = total.div_ceil(threads * CHUNKS_PER_THREAD).max(MIN_CHUNK);
                let chunks = plan.chunks(target);
                for s in &mut scratches {
                    s.out = PilSet::with_arena(level + 1, spare.pop().unwrap_or_default());
                    s.out.set_keep_floor(floor);
                }
                let job = Arc::new(LevelJob {
                    set: std::mem::take(&mut current),
                    kept: std::mem::take(&mut kept),
                    plan,
                    chunks,
                    gap,
                    next_level: level + 1,
                    cursor: AtomicUsize::new(0),
                    hooks,
                });
                let run = pool.run_with(job, std::mem::take(&mut scratches))?;
                observer.on_pool(&run.event);
                scratches = run.locals;
                let job = Arc::try_unwrap(run.job)
                    .ok()
                    .expect("every worker released the level job");
                kept = job.kept;
                let parts: Vec<PilSet> = scratches
                    .iter_mut()
                    .map(|s| std::mem::take(&mut s.out))
                    .collect();
                for out in &run.outs {
                    level_jc.absorb(&out.jc);
                }
                let placements = run.outs.into_iter().flat_map(|o| {
                    let worker = o.worker;
                    o.range.zip(o.slots).map(move |(k, slot)| (worker, k, slot))
                });
                (PilSet::gather(level + 1, parts, total, placements), job.set)
            }
            _ => {
                let mut out = PilSet::with_arena(level + 1, spare.pop().unwrap_or_default());
                out.set_keep_floor(floor);
                out.presize(total);
                plan.generate(
                    &current,
                    &kept,
                    gap,
                    0..plan.runs(),
                    &mut out,
                    Placement::Slot,
                    &mut scratches[0].dense,
                    &mut level_jc,
                );
                (out, std::mem::take(&mut current))
            }
        };
        // The parent is dead once its child exists: its arenas hold the
        // next child. Keep at most one per worker, the roomiest.
        spare.extend(parent.into_arenas());
        spare.sort_unstable_by_key(|a| std::cmp::Reverse(a.capacity()));
        spare.truncate(threads);
        // Parent + child are every entry alive now: the child's arenas
        // are the workers' own, gathered without a copy. (The spare
        // arenas' leftover capacity is not counted.)
        let live = parent_bytes + next.arena_bytes();
        peak = peak.max(live);
        check_ceiling(config.max_arena_bytes, live)?;
        finish_level(
            &mut stats,
            observer,
            &mut meter,
            join_started.elapsed(),
            level_started.elapsed(),
            live,
            level_jc,
        );

        candidates_at_level = next.len() as u128;
        if next.is_empty() {
            break;
        }
        current = next;
        level += 1;
    }

    let mut outcome = MineOutcome { frequent, stats };
    pruner.finish(&mut outcome);
    Ok((outcome, peak))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mpp::mpp;
    use crate::trace::MetricsObserver;
    use perigap_seq::gen::iid::uniform;
    use perigap_seq::Alphabet;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn gap(n: usize, m: usize) -> GapRequirement {
        GapRequirement::new(n, m).unwrap()
    }

    /// `mpp_parallel` with fault injection, for the regression tests.
    fn mpp_parallel_with_hooks(
        seq: &Sequence,
        g: GapRequirement,
        rho: f64,
        n: usize,
        config: MppConfig,
        threads: usize,
        hooks: PoolHooks,
    ) -> Result<MineOutcome, MineError> {
        let (counts, rho_exact) = prepare(seq, g, rho, &config)?;
        let pils = build_seed(seq, g, config.start_level);
        run_parallel(
            seq,
            &counts,
            &rho_exact,
            n,
            &config,
            pils,
            threads,
            hooks,
            &mut NoopObserver,
        )
        .map(|(outcome, _peak)| outcome)
    }

    fn assert_same_outcome(parallel: &MineOutcome, serial: &MineOutcome, label: &str) {
        assert_eq!(parallel.frequent.len(), serial.frequent.len(), "{label}");
        for (a, b) in parallel.frequent.iter().zip(&serial.frequent) {
            assert_eq!(a.pattern, b.pattern, "{label}");
            assert_eq!(a.support, b.support, "{label}");
        }
        assert_eq!(parallel.stats.n_used, serial.stats.n_used, "{label}");
    }

    #[test]
    fn parallel_matches_serial_exactly() {
        let seq = uniform(&mut StdRng::seed_from_u64(95), Alphabet::Dna, 400);
        let g = gap(1, 3);
        let rho = 0.0008;
        let serial = mpp(&seq, g, rho, 12, MppConfig::default()).unwrap();
        for threads in [1usize, 2, 4, 8] {
            let parallel = mpp_parallel(&seq, g, rho, 12, MppConfig::default(), threads).unwrap();
            assert_same_outcome(&parallel, &serial, &format!("{threads} threads"));
        }
    }

    #[test]
    fn pool_engages_above_threshold_and_matches_serial() {
        // A protein alphabet seeds 20^3 = 8000 level-3 patterns, so the
        // kept set comfortably exceeds PARALLEL_THRESHOLD and the level
        // actually crosses the worker pool.
        let seq = uniform(&mut StdRng::seed_from_u64(99), Alphabet::Protein, 3_000);
        let g = gap(0, 2);
        let rho = 1e-6;
        let serial = mpp(&seq, g, rho, 6, MppConfig::default()).unwrap();
        let kept_level3 = serial.stats.levels[0].extended;
        assert!(
            kept_level3 >= PARALLEL_THRESHOLD,
            "test must exercise the pool (kept = {kept_level3})"
        );
        for threads in [2usize, 4, 8] {
            let parallel = mpp_parallel(&seq, g, rho, 6, MppConfig::default(), threads).unwrap();
            assert_same_outcome(&parallel, &serial, &format!("{threads} threads"));
        }
    }

    #[test]
    fn chunks_of_partner_runs_reassemble_the_serial_generation() {
        // Pooled levels cut the partner runs into several chunks, claimed
        // by whichever thread is free and gathered by slot. Protein runs
        // are long (up to 20 partners, 20 left parents); DNA runs hold at
        // most 4, so a chunk spans many. Either way the outcome and every
        // per-level counter match serial `mpp` — the join counters too,
        // since each partner list is decided once per level with the
        // same number of users on both paths.
        use crate::mpp::mpp_traced;
        let protein = uniform(&mut StdRng::seed_from_u64(99), Alphabet::Protein, 3_000);
        let dna = uniform(&mut StdRng::seed_from_u64(100), Alphabet::Dna, 2_000);
        for (seq, g, rho, n) in [(&protein, gap(0, 2), 1e-6, 6), (&dna, gap(0, 3), 2e-5, 8)] {
            let mut serial_m = MetricsObserver::new();
            let serial = mpp_traced(seq, g, rho, n, MppConfig::default(), &mut serial_m).unwrap();
            for threads in [2usize, 3, 4] {
                let label = format!("{} threads, σ = {}", threads, seq.alphabet().size());
                let mut m = MetricsObserver::new();
                let pooled =
                    mpp_parallel_traced(seq, g, rho, n, MppConfig::default(), threads, &mut m)
                        .unwrap();
                assert_eq!(pooled.frequent, serial.frequent, "{label}");
                assert!(
                    m.pool.iter().any(|p| p.chunks > threads),
                    "{label}: a level is cut into more chunks than threads"
                );
                assert_eq!(m.levels.len(), serial_m.levels.len(), "{label}");
                for (a, b) in m.levels.iter().zip(&serial_m.levels) {
                    assert_eq!(
                        (a.level, a.candidates, a.evaluated, a.frequent, a.kept),
                        (b.level, b.candidates, b.evaluated, b.frequent, b.kept),
                        "{label}"
                    );
                    assert_eq!(
                        (a.joins, a.probed, a.dense_builds, a.arena_bytes),
                        (b.joins, b.probed, b.dense_builds, b.arena_bytes),
                        "{label}: level {}",
                        a.level
                    );
                }
            }
        }
    }

    #[test]
    fn ceiling_gauge_is_exact_on_the_pooled_path() {
        // The gauge is parent + child, exactly the arenas held: the
        // unbounded run's peak is itself an admissible ceiling, and one
        // byte less aborts with a terminal abort event.
        let seq = uniform(&mut StdRng::seed_from_u64(99), Alphabet::Protein, 3_000);
        let (g, rho) = (gap(0, 2), 1e-6);
        let capped = |cap: usize| MppConfig {
            max_arena_bytes: Some(cap),
            ..MppConfig::default()
        };
        for threads in [2usize, 4] {
            let mut metrics = MetricsObserver::new();
            let unbounded =
                mpp_parallel_traced(&seq, g, rho, 6, MppConfig::default(), threads, &mut metrics)
                    .unwrap();
            let peak = metrics.complete.as_ref().unwrap().peak_arena_bytes;
            // The peak is reached on a pooled level.
            let peak_level = metrics
                .levels
                .iter()
                .find(|l| l.arena_bytes == peak)
                .expect("peak comes from a level")
                .level;
            assert!(
                metrics.pool.iter().any(|p| p.level == peak_level + 1),
                "{threads} threads: level {peak_level} not pooled"
            );
            let at_peak = mpp_parallel(&seq, g, rho, 6, capped(peak), threads).unwrap();
            assert_same_outcome(&at_peak, &unbounded, &format!("{threads} threads at peak"));
            let mut sink = crate::trace::JsonlObserver::new(Vec::new());
            let err = mpp_parallel_traced(&seq, g, rho, 6, capped(peak - 1), threads, &mut sink)
                .unwrap_err();
            match err {
                MineError::MemoryCeiling { limit, required } => {
                    assert_eq!(limit, peak - 1);
                    assert_eq!(required, peak);
                }
                other => panic!("expected MemoryCeiling, got {other:?}"),
            }
            let trace = String::from_utf8(sink.finish().unwrap()).unwrap();
            let report = crate::trace::validate_trace(&trace).unwrap();
            assert!(
                report.aborted,
                "{threads} threads: abort must end the trace"
            );
        }
    }

    #[test]
    fn worker_panic_surfaces_as_error_not_hang() {
        // Regression: a panicking worker used to leave the merge loop
        // blocked on `recv()` forever. The mine must now abort with
        // `WorkerFailed` in bounded time. `main_no_steal` keeps the
        // main thread out of the cursor race so a worker is guaranteed
        // to claim (and die on) a chunk.
        let (tx, rx) = mpsc::channel();
        std::thread::spawn(move || {
            let seq = uniform(&mut StdRng::seed_from_u64(99), Alphabet::Protein, 3_000);
            let hooks = PoolHooks {
                panic_workers: true,
                main_no_steal: true,
            };
            let result =
                mpp_parallel_with_hooks(&seq, gap(0, 2), 1e-6, 6, MppConfig::default(), 4, hooks);
            let _ = tx.send(result);
        });
        let result = rx
            .recv_timeout(Duration::from_secs(60))
            .expect("mine must error out in bounded time, not deadlock");
        match result {
            Err(MineError::WorkerFailed { message, .. }) => {
                assert!(message.contains("injected"), "unexpected message {message}");
            }
            Ok(_) => panic!("mine must fail when every worker panics"),
            Err(other) => panic!("expected WorkerFailed, got {other:?}"),
        }
    }

    #[test]
    fn pool_events_account_every_chunk() {
        let seq = uniform(&mut StdRng::seed_from_u64(99), Alphabet::Protein, 3_000);
        let mut metrics = MetricsObserver::new();
        let outcome = mpp_parallel_traced(
            &seq,
            gap(0, 2),
            1e-6,
            6,
            MppConfig::default(),
            4,
            &mut metrics,
        )
        .unwrap();
        assert!(
            !metrics.pool.is_empty(),
            "pool must engage above the threshold"
        );
        for p in &metrics.pool {
            assert_eq!(p.workers.len(), 4, "main + 3 pool workers");
            let claimed: usize = p.workers.iter().map(|w| w.chunks).sum();
            assert_eq!(claimed, p.chunks, "level {}", p.level);
        }
        // Observer totals agree with the engine's own stats.
        assert_eq!(metrics.levels.len(), outcome.stats.levels.len());
        for (e, s) in metrics.levels.iter().zip(&outcome.stats.levels) {
            assert_eq!(e.level, s.level);
            assert_eq!(e.candidates, s.candidates);
            assert_eq!(e.frequent, s.frequent);
            assert_eq!(e.kept, s.extended);
        }
        assert!(metrics.seed.is_some());
        assert_eq!(
            metrics.complete.as_ref().unwrap().frequent,
            outcome.frequent.len()
        );
    }

    #[test]
    fn parallel_runs_are_deterministic() {
        let seq = uniform(&mut StdRng::seed_from_u64(96), Alphabet::Dna, 300);
        let g = gap(2, 4);
        let a = mpp_parallel(&seq, g, 0.001, 10, MppConfig::default(), 4).unwrap();
        let b = mpp_parallel(&seq, g, 0.001, 10, MppConfig::default(), 4).unwrap();
        assert_eq!(a.frequent.len(), b.frequent.len());
        for (x, y) in a.frequent.iter().zip(&b.frequent) {
            assert_eq!(x.pattern, y.pattern);
            assert_eq!(x.support, y.support);
        }
    }

    #[test]
    fn level_elapsed_covers_filter_and_join() {
        // Every level must report a non-degenerate duration, and the
        // sum of level times must not exceed the total.
        let seq = uniform(&mut StdRng::seed_from_u64(101), Alphabet::Dna, 500);
        let outcome = mpp_parallel(&seq, gap(1, 3), 0.0008, 12, MppConfig::default(), 4).unwrap();
        let level_sum: std::time::Duration = outcome.stats.levels.iter().map(|l| l.elapsed).sum();
        assert!(level_sum <= outcome.stats.total_elapsed);
        assert!(!outcome.stats.levels.is_empty());
    }

    #[test]
    #[should_panic(expected = "at least one thread")]
    fn zero_threads_panics() {
        let seq = uniform(&mut StdRng::seed_from_u64(97), Alphabet::Dna, 100);
        let _ = mpp_parallel(&seq, gap(1, 2), 0.01, 5, MppConfig::default(), 0);
    }

    #[test]
    fn error_paths_match_serial() {
        let seq = uniform(&mut StdRng::seed_from_u64(98), Alphabet::Dna, 100);
        assert!(matches!(
            mpp_parallel(&seq, gap(1, 2), 0.0, 5, MppConfig::default(), 2),
            Err(MineError::InvalidThreshold(_))
        ));
    }
}
