//! `serve_mix`: `pgmine serve --input` over DNA L = 20,000, gap [0,9],
//! ρs = 0.1% (default MPPm, m = 4, ~700 patterns, source attached).
//! Cheap reads run beside heavy compute on one daemon:
//!
//! - **lookups**: an open loop at fixed rates on one connection, mixing
//!   `support` (present and absent patterns), `topk`, `prefix` and
//!   `overlap` in the 8:1:8:1 proportions and with the result limit of
//!   the repository's `query_throughput` bench, but with Zipf-skewed keys
//!   so the daemon's 64-entry response cache hits only part of the time.
//!   Each lookup is timed from when it was due to be sent.
//! - **mines**: one closed-loop caller on a second connection sending
//!   `mine_topk` / `mine_target` drawn from ~2,400 parameter sets, so
//!   few hit the cache.
//!
//! Two connections and two threads: at most `nproc` of each on the
//! two-core machine the benchmark is sized for.

use crate::child::{self, Running};
use crate::ctx::{io_err, offset_counts, quiet, read_input, Ctx, CHILD_DEADLINE};
use crate::gen;
use crate::oracle::{outcome_rows, same_list, Row};
use crate::spans::observed;
use perigap_core::mpp::MppConfig;
use perigap_core::mppm::{mppm, mppm_traced};
use perigap_core::trace::Json;
use perigap_core::{select_top_k, GapRequirement, MineOutcome, Pattern};
use perigap_math::stats::{median, percentile};
use perigap_seq::{Alphabet, Sequence};
use perigap_serve::Client;
use perigap_store::{Backend, PatternIndex};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use std::collections::VecDeque;
use std::io::{self, Read, Write};
use std::net::TcpStream;
use std::path::Path;
use std::process::Command;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

const GAP: (usize, usize) = (0, 9);
const RHO: &str = "0.1%";
const RHO_FRAC: f64 = 0.001;
const M: usize = 4;

// No recorded serve traffic exists to derive the rates and the latency
// limit from; they are this benchmark's own choices, recorded with every
// result.

/// Untimed warm-up at the main rate before the timed phases, so the
/// daemon's first mines on the caller's fresh connection thread (often
/// 5-20% slower than later ones) fall outside every timed interval.
const WARMUP: Duration = Duration::from_secs(2);
/// Share of the run spent in the fixed-rate main phase; the ladder
/// takes the rest.
const MAIN_SHARE: f64 = 0.7;
/// Offered lookup rate of the main phase, per second: a quarter of the
/// top rung, which the daemon meets on two cores with the mine caller
/// running, so the main phase measures latency below saturation.
const MAIN_RATE: f64 = 1_000.0;
/// The capacity ladder's offered rates, per second, doubling from half
/// the main rate.
const LADDER: [f64; 4] = [500.0, 1_000.0, 2_000.0, 4_000.0];
/// A rung passes when its p99 lookup latency stays within this limit
/// and every lookup is answered: several times the p99 at the main rate,
/// so a rung fails when a backlog builds rather than on one stall.
const P99_LIMIT_MS: f64 = 50.0;
/// Result limit of `prefix` and `overlap` lookups, as in
/// `query_throughput`.
const LIMIT: usize = 16;
/// How long a rung waits for stragglers after its last send.
const DRAIN: Duration = Duration::from_secs(1);
/// Untraced/traced in-process mine pairs in the traced run.
const PAIRS: usize = 2;
/// Keep every n-th lookup reply for the oracle.
const SAMPLE_EVERY: usize = 5;

fn gap() -> GapRequirement {
    GapRequirement::new(GAP.0, GAP.1).expect("valid gap")
}

/// One lookup request.
#[derive(Clone, Debug)]
enum Lookup {
    Support(String),
    TopK(usize),
    Prefix(String, usize),
    Overlap(u32, u32, usize),
}

impl Lookup {
    fn line(&self) -> String {
        match self {
            Lookup::Support(p) => format!("{{\"q\": \"support\", \"pattern\": \"{p}\"}}\n"),
            Lookup::TopK(k) => format!("{{\"q\": \"topk\", \"k\": {k}}}\n"),
            Lookup::Prefix(p, l) => {
                format!("{{\"q\": \"prefix\", \"prefix\": \"{p}\", \"limit\": {l}}}\n")
            }
            Lookup::Overlap(a, b, l) => {
                format!("{{\"q\": \"overlap\", \"a\": {a}, \"b\": {b}, \"limit\": {l}}}\n")
            }
        }
    }
}

/// Zipf(1) sampler over `n` ranks.
struct Zipf(Vec<f64>);

impl Zipf {
    fn new(n: usize) -> Zipf {
        let mut acc = 0.0;
        Zipf(
            (1..=n)
                .map(|r| {
                    acc += 1.0 / r as f64;
                    acc
                })
                .collect(),
        )
    }

    fn sample(&self, rng: &mut StdRng) -> usize {
        let u = rng.gen::<f64>() * self.0.last().copied().unwrap_or(0.0);
        self.0.partition_point(|&c| c < u).min(self.0.len() - 1)
    }
}

fn dna_text(rng: &mut StdRng, len: usize) -> String {
    (0..len)
        .map(|_| b"ACGT"[rng.gen_range(0..4usize)] as char)
        .collect()
}

/// The lookup key space, shuffled per seed so hot keys differ by seed.
/// Half the support keys are absent from the index. Every key list is
/// drawn with Zipf(1) skew: with no recorded traffic to fit, the
/// classic web-request skew keeps the response cache partly warm.
struct Keys {
    support: Vec<String>,
    support_zipf: Zipf,
    prefixes: Vec<String>,
    prefix_zipf: Zipf,
    topk_zipf: Zipf,
    len: usize,
}

impl Keys {
    fn new(rng: &mut StdRng, index: &PatternIndex, len: usize) -> Keys {
        let present: Vec<String> = index
            .top_k(index.len())
            .map(|e| e.display(index.alphabet()))
            .collect();
        let mut support = present.clone();
        while support.len() < 2 * present.len().max(1) {
            let l = rng.gen_range(4..=9);
            let p = dna_text(rng, l);
            let codes = Pattern::parse(&p, index.alphabet()).expect("DNA text");
            if index.support(codes.codes()).is_none() {
                support.push(p);
            }
        }
        support.shuffle(rng);
        let mut prefixes: Vec<String> = (1..=3usize)
            .flat_map(|l| (0..4usize.pow(l as u32)).map(move |i| prefix_text(i, l)))
            .collect();
        prefixes.shuffle(rng);
        Keys {
            support_zipf: Zipf::new(support.len()),
            support,
            prefix_zipf: Zipf::new(prefixes.len()),
            prefixes,
            topk_zipf: Zipf::new(50),
            len,
        }
    }

    /// Kinds in `query_throughput`'s proportions: of every 18 lookups,
    /// 8 support, 8 prefix, 1 topk and 1 overlap.
    fn draw(&self, rng: &mut StdRng) -> Lookup {
        match rng.gen_range(0..18u32) {
            0..=7 => Lookup::Support(self.support[self.support_zipf.sample(rng)].clone()),
            8..=15 => Lookup::Prefix(self.prefixes[self.prefix_zipf.sample(rng)].clone(), LIMIT),
            16 => Lookup::TopK(self.topk_zipf.sample(rng) + 1),
            _ => {
                let a = rng.gen_range(1..=(self.len as u32).saturating_sub(24).max(1));
                Lookup::Overlap(a, a + rng.gen_range(0..=20u32), LIMIT)
            }
        }
    }
}

fn prefix_text(mut i: usize, len: usize) -> String {
    let mut s = vec![b'A'; len];
    for c in s.iter_mut().rev() {
        *c = b"ACGT"[i % 4];
        i /= 4;
    }
    String::from_utf8(s).expect("ASCII")
}

/// One on-demand mine request.
#[derive(Clone, Debug)]
enum MineQuery {
    TopK(usize),
    Target(String),
}

impl MineQuery {
    /// `mine_topk` with k in 1..=1000 or `mine_target` over the 1,364
    /// prefixes of length 1..=5, half each (an unverified even split).
    /// Both cost about one full mine.
    fn draw(rng: &mut StdRng) -> MineQuery {
        if rng.gen::<bool>() {
            MineQuery::TopK(rng.gen_range(1..=1000))
        } else {
            let l = rng.gen_range(1..=5);
            MineQuery::Target(dna_text(rng, l))
        }
    }

    fn line(&self) -> String {
        match self {
            MineQuery::TopK(k) => format!("{{\"q\": \"mine_topk\", \"k\": {k}}}\n"),
            MineQuery::Target(t) => {
                format!("{{\"q\": \"mine_target\", \"target\": \"{t}\", \"limit\": 20}}\n")
            }
        }
    }
}

/// A running daemon.
struct Daemon {
    running: Running,
    addr: String,
}

impl Daemon {
    /// Launch and wait for the first `"ok": true` reply; returns the
    /// daemon and the seconds that took.
    fn start(ctx: &Ctx, input: &Path, k: usize, trace: Option<&Path>) -> io::Result<(Daemon, f64)> {
        let port = ctx.path(&format!("port-{k}"));
        let _ = std::fs::remove_file(&port);
        let mut cmd = Command::new(&ctx.pgmine);
        cmd.arg("serve").arg("--input").arg(input);
        cmd.args(["--gap", &format!("{}:{}", GAP.0, GAP.1), "--rho", RHO]);
        cmd.args(["--addr", "127.0.0.1:0", "--port-file"])
            .arg(&port);
        if let Some(t) = trace {
            cmd.arg("--trace").arg(t);
        }
        quiet(&mut cmd, &ctx.path(&format!("serve-{k}.out")))?;
        let running = child::spawn(&mut cmd, CHILD_DEADLINE)?;
        let started = running.started();
        let mut daemon = Daemon {
            running,
            addr: String::new(),
        };
        loop {
            if started.elapsed() > Duration::from_secs(60) {
                let _ = daemon.running.wait();
                return Err(io_err("daemon did not answer within 60 s"));
            }
            if daemon.addr.is_empty() {
                match std::fs::read_to_string(&port) {
                    Ok(a) if !a.is_empty() => daemon.addr = a.trim().to_string(),
                    _ => {
                        std::thread::sleep(Duration::from_millis(2));
                        continue;
                    }
                }
            }
            if let Ok(reply) = daemon.request(STATS) {
                if reply.starts_with("{\"ok\": true") {
                    return Ok((daemon, started.elapsed().as_secs_f64()));
                }
            }
            std::thread::sleep(Duration::from_millis(2));
        }
    }

    /// One request on a connection of its own.
    fn request(&self, line: &str) -> io::Result<String> {
        Client::connect(self.addr.as_str(), REPLY_DEADLINE)?.roundtrip(line)
    }

    /// Ask the daemon to stop and reap it.
    fn stop(self) -> io::Result<child::Usage> {
        let _ = self.request("{\"q\": \"shutdown\"}");
        self.running.wait()
    }
}

const STATS: &str = "{\"q\": \"stats\"}";
/// Longest a blocking request waits for its reply.
const REPLY_DEADLINE: Duration = Duration::from_secs(60);

/// The open loop's own connection: it pipelines, which `Client` does not.
fn connect(addr: &str) -> io::Result<TcpStream> {
    let s = TcpStream::connect(addr)?;
    s.set_nodelay(true)?;
    Ok(s)
}

/// What one open-loop phase measured.
#[derive(Default)]
struct Phase {
    rate: f64,
    latency_ms: Vec<f64>,
    lag_ms: Vec<f64>,
    sent: usize,
    failed: usize,
    elapsed_s: f64,
    samples: Vec<(Lookup, String)>,
}

impl Phase {
    fn p99(&self) -> f64 {
        percentile(&self.latency_ms, 0.99).unwrap_or(f64::INFINITY)
    }

    /// Within the limit with every lookup answered: no growing backlog.
    fn passes(&self) -> bool {
        self.failed == 0 && self.p99() <= P99_LIMIT_MS
    }
}

/// Send `rate` lookups per second for `dur` on a fresh connection,
/// reading replies in between sends; unanswered lookups after the
/// drain count as failed.
fn open_loop(
    addr: &str,
    rate: f64,
    dur: Duration,
    keys: &Keys,
    rng: &mut StdRng,
) -> io::Result<Phase> {
    let mut out = connect(addr)?;
    let mut inp = out.try_clone()?;
    let interval = Duration::from_secs_f64(1.0 / rate);
    let total = (rate * dur.as_secs_f64()).round() as usize;
    let mut phase = Phase {
        rate,
        ..Phase::default()
    };
    let mut pending: VecDeque<(Instant, Option<Lookup>)> = VecDeque::new();
    let mut buf: Vec<u8> = Vec::with_capacity(1 << 16);
    let mut chunk = vec![0u8; 1 << 16];
    let t0 = Instant::now();
    let due = |i: usize| t0 + interval * i as u32;
    loop {
        let now = Instant::now();
        while phase.sent < total && due(phase.sent) <= now {
            let q = keys.draw(rng);
            out.write_all(q.line().as_bytes())?;
            phase
                .lag_ms
                .push(due(phase.sent).elapsed().as_secs_f64() * 1e3);
            let keep = phase.sent.is_multiple_of(SAMPLE_EVERY).then_some(q);
            pending.push_back((due(phase.sent), keep));
            phase.sent += 1;
        }
        let done_sending = phase.sent >= total;
        if done_sending && pending.is_empty() {
            break;
        }
        let wake = if done_sending {
            let cutoff = t0 + dur + DRAIN;
            if now >= cutoff {
                break;
            }
            cutoff - now
        } else {
            due(phase.sent).saturating_duration_since(now)
        };
        inp.set_read_timeout(Some(wake.max(Duration::from_micros(50))))?;
        match inp.read(&mut chunk) {
            Ok(0) => break,
            Ok(k) => {
                let at = Instant::now();
                buf.extend_from_slice(&chunk[..k]);
                while let Some(nl) = buf.iter().position(|&b| b == b'\n') {
                    let line: Vec<u8> = buf.drain(..=nl).collect();
                    let Some((due_at, keep)) = pending.pop_front() else {
                        return Err(io_err("reply without a request"));
                    };
                    let ok = line.starts_with(b"{\"ok\": true");
                    if ok {
                        phase.latency_ms.push((at - due_at).as_secs_f64() * 1e3);
                    } else {
                        phase.failed += 1;
                    }
                    if let Some(q) = keep {
                        phase
                            .samples
                            .push((q, String::from_utf8_lossy(&line).trim().to_string()));
                    }
                }
            }
            Err(e)
                if matches!(
                    e.kind(),
                    io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                ) => {}
            Err(e) => return Err(e),
        }
    }
    // Unanswered lookups missed every limit: count them as failed and
    // as latency past the drain.
    let missed = pending.len();
    phase.failed += missed;
    let past = (dur + DRAIN).as_secs_f64() * 1e3;
    phase.latency_ms.extend(std::iter::repeat_n(past, missed));
    phase.elapsed_s = t0.elapsed().as_secs_f64();
    Ok(phase)
}

/// One on-demand mine as the caller saw it.
struct MineCall {
    query: MineQuery,
    started: Instant,
    secs: f64,
    reply: String,
}

impl MineCall {
    fn ok(&self) -> bool {
        self.reply.starts_with("{\"ok\": true")
    }
}

/// The closed-loop mine caller: one request at a time until `stop`. A
/// request that errors or times out ends the loop as a failed call.
fn mine_loop(addr: &str, seed: u64, stop: &AtomicBool) -> io::Result<Vec<MineCall>> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x4D1E_5EED);
    let mut client = Client::connect(addr, REPLY_DEADLINE)?;
    let mut done = Vec::new();
    while !stop.load(Ordering::SeqCst) {
        let q = MineQuery::draw(&mut rng);
        let t = Instant::now();
        let reply = client.roundtrip(&q.line());
        let ended = reply.is_err();
        done.push(MineCall {
            query: q,
            started: t,
            secs: t.elapsed().as_secs_f64(),
            reply: reply.unwrap_or_default(),
        });
        if ended {
            break;
        }
    }
    Ok(done)
}

fn rows_of(v: &Json) -> Result<Vec<Row>, String> {
    v.get("patterns")
        .and_then(Json::as_arr)
        .ok_or("reply has no patterns")?
        .iter()
        .map(|p| {
            let text = p
                .get("pattern")
                .and_then(Json::as_str)
                .ok_or("row without pattern")?;
            let sup = p
                .get("support")
                .and_then(Json::as_u128)
                .ok_or("row without support")?;
            Ok((text.to_string(), sup))
        })
        .collect()
}

fn total_of(v: &Json) -> Option<usize> {
    v.get("total").and_then(Json::as_usize)
}

fn index_rows<'a>(
    index: &PatternIndex,
    rows: impl IntoIterator<Item = &'a perigap_store::IndexEntry>,
) -> Vec<Row> {
    rows.into_iter()
        .map(|e| (e.display(index.alphabet()), e.support))
        .collect()
}

fn codes(text: &str) -> Vec<u8> {
    Pattern::parse(text, &Alphabet::Dna)
        .map(|p| p.codes().to_vec())
        .unwrap_or_default()
}

/// Check one sampled lookup reply against the in-process index.
fn check_lookup(index: &PatternIndex, q: &Lookup, reply: &str) -> Result<(), String> {
    let v = Json::parse(reply).map_err(|e| format!("{q:?}: bad JSON {e}"))?;
    if v.get("ok").and_then(Json::as_bool) != Some(true) {
        return Err(format!("{q:?}: refused: {reply}"));
    }
    match q {
        Lookup::Support(p) => {
            let want = index.support(&codes(p)).map(|e| e.support);
            let found = v.get("found").and_then(Json::as_bool);
            let got = v.get("support").and_then(Json::as_u128);
            if found != Some(want.is_some()) || (want.is_some() && got != want) {
                return Err(format!("support {p}: want {want:?}, got {reply}"));
            }
            Ok(())
        }
        Lookup::TopK(k) => same_list(
            &format!("topk {k}"),
            &index_rows(index, index.top_k(*k)),
            &rows_of(&v)?,
        ),
        Lookup::Prefix(p, l) => {
            let (rows, total) = index.prefix(&codes(p), *l);
            if total_of(&v) != Some(total) {
                return Err(format!("prefix {p}: total {total} expected, got {reply}"));
            }
            same_list(
                &format!("prefix {p}"),
                &index_rows(index, rows),
                &rows_of(&v)?,
            )
        }
        Lookup::Overlap(a, b, l) => {
            let (rows, total) = index.overlap(*a, *b, *l).ok_or("index lacks occurrences")?;
            if total_of(&v) != Some(total) {
                return Err(format!(
                    "overlap {a}..{b}: total {total} expected, got {reply}"
                ));
            }
            same_list(
                &format!("overlap {a}..{b}"),
                &index_rows(index, rows),
                &rows_of(&v)?,
            )
        }
    }
}

/// Check a mine reply against the full mine the daemon serves.
fn check_mine(full: &MineOutcome, q: &MineQuery, reply: &str) -> Result<(), String> {
    let v = Json::parse(reply).map_err(|e| format!("{q:?}: bad JSON {e}"))?;
    if v.get("ok").and_then(Json::as_bool) != Some(true) {
        return Err(format!("{q:?}: refused: {reply}"));
    }
    match q {
        MineQuery::TopK(k) => {
            let want: Vec<Row> = select_top_k(&full.frequent, *k)
                .iter()
                .map(|f| (f.pattern.display(&Alphabet::Dna), f.support))
                .collect();
            same_list(
                &format!("mine_topk {k} vs select_top_k"),
                &want,
                &rows_of(&v)?,
            )
        }
        MineQuery::Target(t) => {
            let prefix = codes(t);
            let want: Vec<Row> = full
                .frequent
                .iter()
                .filter(|f| f.pattern.codes().starts_with(&prefix))
                .map(|f| (f.pattern.display(&Alphabet::Dna), f.support))
                .collect();
            if total_of(&v) != Some(want.len()) {
                return Err(format!(
                    "mine_target {t}: total {} expected, got {reply}",
                    want.len()
                ));
            }
            match rows_of(&v)?.into_iter().find(|r| !want.contains(r)) {
                Some(r) => Err(format!(
                    "mine_target {t}: row {r:?} is not in the full mine"
                )),
                None => Ok(()),
            }
        }
    }
}

pub fn run(ctx: &mut Ctx) -> io::Result<()> {
    let seq = gen::dna(ctx.seed, ctx.scale.serve_len);
    let input = ctx.path("serve.fa");
    gen::write(&input, "serve", &seq)?;

    // The full mine the daemon serves, for the key space and the oracle.
    let full = mppm(&seq, gap(), RHO_FRAC, M, MppConfig::default()).map_err(io_err)?;
    let loaded = Backend::memory(full.clone(), gap(), RHO_FRAC)
        .load()
        .map_err(io_err)?;
    let index = PatternIndex::build(&loaded, Alphabet::Dna, Some(&seq));
    let mut rng = StdRng::seed_from_u64(ctx.seed ^ 0x10_0C_0F);
    let keys = Keys::new(&mut rng, &index, seq.len());
    ctx.report.note("serve.patterns", index.len());

    let mut setups = Vec::new();
    let mut daemon = None;
    let trace_file = ctx.path("serve-trace.jsonl");
    for k in 0..ctx.scale.setups {
        let last = k + 1 == ctx.scale.setups;
        let trace = (ctx.trace && last).then_some(trace_file.as_path());
        ctx.report.attempted += 1;
        match Daemon::start(ctx, &input, k, trace) {
            Ok((d, took)) => {
                setups.push(took);
                if last {
                    daemon = Some(d);
                } else if !d.stop()?.ok {
                    ctx.report.failed += 1;
                }
            }
            Err(_) => ctx.report.failed += 1,
        }
    }
    ctx.report.put_median("setup_s", "s", &setups);
    let Some(daemon) = daemon else {
        return Err(io_err("the daemon never came up"));
    };

    // An untimed warm-up and the main phase at a fixed rate, then the
    // capacity ladder, with the mine caller running throughout.
    let stop = AtomicBool::new(false);
    let main_dur = Duration::from_secs_f64(ctx.seconds * MAIN_SHARE);
    let rung_dur = Duration::from_secs_f64(ctx.seconds * (1.0 - MAIN_SHARE) / LADDER.len() as f64);
    let addr = daemon.addr.clone();
    let mut main_window = (Instant::now(), Instant::now());
    let (warm, main, rungs, mines) = std::thread::scope(|s| {
        let miner = s.spawn(|| mine_loop(&addr, ctx.seed, &stop));
        let phases = (|| {
            let warm = open_loop(&addr, MAIN_RATE, WARMUP, &keys, &mut rng)?;
            main_window.0 = Instant::now();
            let main = open_loop(&addr, MAIN_RATE, main_dur, &keys, &mut rng)?;
            main_window.1 = Instant::now();
            let mut rungs = Vec::new();
            for rate in LADDER {
                rungs.push(open_loop(&addr, rate, rung_dur, &keys, &mut rng)?);
            }
            Ok::<_, io::Error>((warm, main, rungs))
        })();
        stop.store(true, Ordering::SeqCst);
        let mines = miner.join().expect("mine caller panicked");
        phases.map(|(w, m, r)| (w, m, r, mines))
    })?;
    let mines = mines?;

    let stats = daemon.request(STATS)?;
    let usage = daemon.stop()?;
    ctx.report.attempted += 1;
    if !usage.ok {
        ctx.report.failed += 1;
    }

    let r = &mut ctx.report;
    let all = || std::iter::once(&warm).chain([&main]).chain(&rungs);
    let lookups: usize = all().map(|p| p.sent).sum();
    let lookup_failed: usize = all().map(|p| p.failed).sum();
    let mine_failed = mines.iter().filter(|m| !m.ok()).count();
    r.attempted += (lookups + mines.len()) as u64;
    r.failed += (lookup_failed + mine_failed) as u64;
    // Mines that ran wholly inside the fixed-rate main phase: the ladder's
    // overloaded rungs would otherwise weigh on them by chance.
    let in_main = |m: &&MineCall| {
        m.started >= main_window.0 && m.started + Duration::from_secs_f64(m.secs) <= main_window.1
    };
    let mine_lat: Vec<f64> = mines
        .iter()
        .filter(|m| m.ok())
        .filter(in_main)
        .map(|m| m.secs)
        .collect();
    r.put_median("mine_s", "s", &mine_lat);
    r.put_median("mine_query_p50_s", "s", &mine_lat);
    let q = |p: f64| percentile(&mine_lat, p).unwrap_or(0.0);
    r.note(
        "serve.mine_p10_p50_p90_s",
        format!("{:.3} {:.3} {:.3}", q(0.1), q(0.5), q(0.9)),
    );
    r.put("peak_rss_mb", "MB", usage.peak_rss_mb, 1);
    r.put("proc.user_s", "s", usage.user_s, 1);
    r.put("proc.sys_s", "s", usage.sys_s, 1);
    r.put("proc.minflt", "count", usage.minflt as f64, 1);
    r.put_median("lookup_p50_ms", "ms", &main.latency_ms);
    r.put("lookup_p99_ms", "ms", main.p99(), main.latency_ms.len());
    let best = rungs
        .iter()
        .filter(|p| p.passes())
        .max_by(|a, b| a.rate.total_cmp(&b.rate));
    let capacity = best.map_or(0.0, |p| p.latency_ms.len() as f64 / p.elapsed_s.max(1e-9));
    r.put(
        "lookup_capacity_qps",
        "1/s",
        capacity,
        best.map_or(0, |p| p.latency_ms.len()),
    );
    r.note("serve.p99_limit_ms", P99_LIMIT_MS);
    r.note("serve.main_rate", MAIN_RATE);
    r.note("serve.ladder", format!("{LADDER:?}"));
    for p in &rungs {
        r.note(
            &format!("serve.rung_{}", p.rate),
            format!("p99 {:.3} ms, failed {}", p.p99(), p.failed),
        );
    }
    let all_lag: Vec<f64> = main
        .lag_ms
        .iter()
        .chain(rungs.iter().flat_map(|p| &p.lag_ms))
        .copied()
        .collect();
    r.put(
        "serve.gen_lag_ms",
        "ms",
        percentile(&all_lag, 0.99).unwrap_or(0.0),
        all_lag.len(),
    );
    let sv = Json::parse(stats.trim()).map_err(io_err)?;
    let hits = sv.get("cache_hits").and_then(Json::as_u128).unwrap_or(0) as f64;
    let misses = sv.get("cache_misses").and_then(Json::as_u128).unwrap_or(0) as f64;
    r.put(
        "serve.cache.hit_ratio",
        "ratio",
        hits / (hits + misses).max(1.0),
        (hits + misses) as usize,
    );

    // Oracles, after the daemon is gone.
    let mut samples: Vec<(Lookup, String)> = warm.samples;
    samples.extend(main.samples);
    samples.extend(rungs.into_iter().flat_map(|p| p.samples));
    if ctx.corrupt {
        if let Some((Lookup::TopK(_), reply)) = samples
            .iter_mut()
            .find(|(q, _)| matches!(q, Lookup::TopK(_)))
        {
            *reply = reply.replacen("\"support\": ", "\"support\": 1", 1);
        }
    }
    let (mut bad, mut checked_lookups) = (0, 0);
    for (q, reply) in samples.iter().filter(|s| s.1.starts_with("{\"ok\": true")) {
        checked_lookups += 1;
        if let Err(e) = check_lookup(&index, q, reply) {
            bad += 1;
            if bad <= 5 {
                ctx.report.mismatch(format!("serve lookup: {e}"));
            }
        }
    }
    let mut checked_mines = 0;
    for m in mines.iter().filter(|m| m.ok()) {
        checked_mines += 1;
        if let Err(e) = check_mine(&full, &m.query, &m.reply) {
            ctx.report.mismatch(format!("serve mine: {e}"));
        }
    }
    if checked_lookups == 0 || checked_mines == 0 {
        ctx.report.mismatch(format!(
            "serve: oracle checked {checked_lookups} lookups and {checked_mines} mines"
        ));
    }
    ctx.report.note("serve.checked_lookups", checked_lookups);
    ctx.report.note("serve.checked_mines", checked_mines);

    if ctx.trace {
        traced(
            ctx,
            &input,
            &keys,
            &mut rng,
            &trace_file,
            &full,
            median(&main.latency_ms).unwrap_or(0.0),
            median(&setups).unwrap_or(0.0),
        )?;
    }
    Ok(())
}

/// In-process layers: parse, counts, the daemon's MPPm mine untraced
/// and traced, the index build, and direct `PatternIndex` lookups; the
/// daemon's own per-query service times come from its `--trace` file.
#[allow(clippy::too_many_arguments)]
fn traced(
    ctx: &mut Ctx,
    input: &Path,
    keys: &Keys,
    rng: &mut StdRng,
    trace_file: &Path,
    full: &MineOutcome,
    client_p50_ms: f64,
    setup_s: f64,
) -> io::Result<()> {
    ctx.rec.next_run();
    let (seq, parse) = ctx.rec.time("seq.parse", || read_input(input));
    let seq: Sequence = seq?;
    let (_, counts) = ctx.rec.time("core.counts", || {
        offset_counts(seq.len(), gap(), full.stats.n_used)
    });

    // Untraced and traced mines alternate so neither always runs on a
    // cold heap.
    let (mut untraced, mut traced_s) = (vec![], vec![]);
    let want = outcome_rows(full, &Alphabet::Dna);
    let mut last = None;
    for _ in 0..PAIRS {
        let t = Instant::now();
        let plain = mppm(&seq, gap(), RHO_FRAC, M, MppConfig::default()).map_err(io_err)?;
        untraced.push(t.elapsed().as_secs_f64());
        ctx.rec.next_run();
        let (traced, secs) = observed(&mut ctx.rec, &mut ctx.counters, "core.mine", |obs| {
            mppm_traced(&seq, gap(), RHO_FRAC, M, MppConfig::default(), obs)
        });
        let traced = traced.map_err(io_err)?;
        traced_s.push(secs);
        for (what, o) in [("untraced", &plain), ("traced", &traced)] {
            let got = outcome_rows(o, &Alphabet::Dna);
            if let Err(e) =
                crate::oracle::same_set(&format!("serve in-process {what} mine"), &want, &got)
            {
                ctx.report.mismatch(e);
            }
        }
        last = Some(traced);
    }
    let traced = last.expect("PAIRS > 0");
    let untraced = median(&untraced).expect("PAIRS > 0");
    let traced_s = median(&traced_s).expect("PAIRS > 0");
    let loaded = Backend::memory(traced, gap(), RHO_FRAC)
        .load()
        .map_err(io_err)?;
    let (index, build) = ctx.rec.time("store.index_build", || {
        PatternIndex::build(&loaded, Alphabet::Dna, Some(&seq))
    });

    let id = ctx.rec.begin("store.lookup");
    let mut per_call = Vec::with_capacity(5_000);
    for _ in 0..5_000 {
        let q = keys.draw(rng);
        let t = Instant::now();
        match &q {
            Lookup::Support(p) => {
                std::hint::black_box(index.support(&codes(p)));
            }
            Lookup::TopK(k) => {
                std::hint::black_box(index.top_k(*k).count());
            }
            Lookup::Prefix(p, l) => {
                std::hint::black_box(index.prefix(&codes(p), *l));
            }
            Lookup::Overlap(a, b, l) => {
                std::hint::black_box(index.overlap(*a, *b, *l));
            }
        }
        per_call.push(t.elapsed().as_secs_f64() * 1e6);
    }
    ctx.rec.end(id);

    // The daemon's service time per lookup, from its query events.
    let mut service_ms = Vec::new();
    for line in std::fs::read_to_string(trace_file)?.lines() {
        let Ok(v) = Json::parse(line) else { continue };
        let kind = v.get("kind").and_then(Json::as_str).unwrap_or("");
        if v.get("event").and_then(Json::as_str) == Some("query")
            && matches!(kind, "support" | "topk" | "prefix" | "overlap")
        {
            if let Some(ms) = v.get("latency_ms").and_then(Json::as_f64) {
                service_ms.push(ms);
            }
        }
    }

    let r = &mut ctx.report;
    r.put("seq.parse_s", "s", parse.as_secs_f64(), 1);
    r.put("core.counts_s", "s", counts.as_secs_f64(), 1);
    r.put("store.index_build_s", "s", build.as_secs_f64(), 1);
    r.put_median("store.lookup_us", "us", &per_call);
    match median(&service_ms) {
        Some(service) => r.put(
            "serve.wait_ms",
            "ms",
            (client_p50_ms - service).max(0.0),
            service_ms.len(),
        ),
        None => r.mismatch("serve: the daemon's trace holds no lookup events"),
    }
    let in_process = parse.as_secs_f64() + untraced + build.as_secs_f64();
    r.put("cli.overhead_s", "s", setup_s - in_process, 1);
    r.put("trace.overhead_ratio", "ratio", traced_s / untraced, 1);
    ctx.counters.report(&mut ctx.report);
    Ok(())
}
