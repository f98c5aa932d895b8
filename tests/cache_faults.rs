//! Fault injection for the incremental result cache: whatever happens
//! to the record on disk — truncation at any byte, flipped bits, a
//! record seeded from a different sequence, a stale configuration key,
//! or a record in the retired layout — the loader must fail with a **typed** `MineError` and
//! `mine_incremental` must recover with a cold mine whose answer is
//! bit-identical to a healthy run. It must never serve a wrong or
//! partial pattern set.

use perigap::core::trace::NoopObserver;
use perigap::core::{
    load_result_cache, mine_incremental, write_result_cache, CacheKey, CachedPattern,
    EngineSelection, IncrementalMode, IncrementalOutcome, ResultCache,
};
use perigap::prelude::*;
use perigap::store::wire::Fnv1a;
use std::path::{Path, PathBuf};

fn cache_path(name: &str) -> PathBuf {
    let mut path = std::env::temp_dir();
    path.push(format!("pginc-fault-{}-{name}.pgrc", std::process::id()));
    let _ = std::fs::remove_file(&path);
    path
}

// Small on purpose: the truncation test rewrites the record once per
// byte, so the subject is sized to keep the record at a few KB.
fn subject() -> (Sequence, GapRequirement, f64, EngineSelection) {
    let seq = Sequence::dna(&"ACGTT".repeat(30)).unwrap();
    let gap = GapRequirement::new(1, 1).unwrap();
    (seq, gap, 0.02, EngineSelection::MppBfs { n: 4 })
}

fn run(
    seq: &Sequence,
    gap: GapRequirement,
    rho: f64,
    engine: &EngineSelection,
    cache: &Path,
) -> IncrementalOutcome {
    mine_incremental(
        seq,
        gap,
        rho,
        engine,
        &MppConfig::default(),
        1,
        cache,
        &mut NoopObserver,
    )
    .unwrap()
}

/// Seed a healthy record and return its bytes plus the healthy outcome.
fn seeded(cache: &Path) -> (Vec<u8>, MineOutcome) {
    let (seq, gap, rho, engine) = subject();
    let out = run(&seq, gap, rho, &engine, cache);
    assert_eq!(out.mode, IncrementalMode::Cold);
    (std::fs::read(cache).unwrap(), out.outcome)
}

/// A faulted run must record a typed fault, mine cold, and answer
/// exactly what the healthy run answered.
fn assert_recovers(cache: &Path, healthy: &MineOutcome, label: &str) {
    let (seq, gap, rho, engine) = subject();
    let out = run(&seq, gap, rho, &engine, cache);
    assert_eq!(out.mode, IncrementalMode::Cold, "{label}: recovery is cold");
    let fault = out
        .cache_fault
        .as_ref()
        .unwrap_or_else(|| panic!("{label}: the fault must be recorded"));
    assert!(
        matches!(
            fault,
            MineError::CacheIo { .. } | MineError::CacheMismatch { .. }
        ),
        "{label}: expected a typed cache error, got {fault:?}"
    );
    assert_eq!(
        out.outcome.frequent, healthy.frequent,
        "{label}: a recovered run must not lie"
    );
    // Recovery reseeds the record: the next run serves it cleanly.
    let again = run(&seq, gap, rho, &engine, cache);
    assert_eq!(again.mode, IncrementalMode::Cached, "{label}: reseeded");
    assert_eq!(again.outcome.frequent, healthy.frequent);
}

/// Truncating the record at any byte is a typed `CacheIo`, never a
/// partial answer.
#[test]
fn truncation_at_every_byte_is_typed() {
    let cache = cache_path("truncate");
    let (bytes, healthy) = seeded(&cache);
    for keep in 0..bytes.len() {
        std::fs::write(&cache, &bytes[..keep]).unwrap();
        match load_result_cache(&cache) {
            Err(MineError::CacheIo { .. }) => {}
            Err(other) => panic!("truncated at {keep}: expected CacheIo, got {other:?}"),
            Ok(_) => panic!("truncated at {keep}: a short record must not decode"),
        }
    }
    // The full recovery path, spot-checked at the header, the payload
    // and just short of the checksum trailer.
    for keep in [0, 3, bytes.len() / 2, bytes.len() - 1] {
        std::fs::write(&cache, &bytes[..keep]).unwrap();
        assert_recovers(&cache, &healthy, &format!("truncated at {keep}"));
    }
    let _ = std::fs::remove_file(&cache);
}

/// Any single flipped bit trips the checksum (or magic) — typed, and
/// recovered by a cold mine.
#[test]
fn flipped_bits_are_typed_and_recovered() {
    let cache = cache_path("bitflip");
    let (bytes, healthy) = seeded(&cache);
    // Every eighth byte keeps the sweep cheap while still crossing the
    // magic, header, payload and trailer regions.
    for pos in (0..bytes.len()).step_by(8).chain([bytes.len() - 1]) {
        let mut corrupt = bytes.clone();
        corrupt[pos] ^= 0x10;
        std::fs::write(&cache, &corrupt).unwrap();
        match load_result_cache(&cache) {
            Err(MineError::CacheIo { .. }) => {}
            Err(other) => panic!("flip at {pos}: expected CacheIo, got {other:?}"),
            Ok(_) => panic!("flip at {pos}: a corrupt record must not decode"),
        }
    }
    let mid = bytes.len() / 2;
    let mut corrupt = bytes.clone();
    corrupt[mid] ^= 0x10;
    std::fs::write(&cache, &corrupt).unwrap();
    assert_recovers(&cache, &healthy, "bit flip");
    let _ = std::fs::remove_file(&cache);
}

/// A record seeded from a *different* sequence of the same length is a
/// typed `CacheMismatch` on the prefix hash — the stale answer must not
/// be served, and must not poison the delta path.
#[test]
fn hash_mismatched_sequence_is_a_typed_mismatch() {
    let cache = cache_path("seqhash");
    let (_, _, rho, engine) = subject();
    let gap = GapRequirement::new(1, 1).unwrap();
    let other = Sequence::dna(&"TTGCA".repeat(30)).unwrap();
    let out = run(&other, gap, rho, &engine, &cache);
    assert_eq!(out.mode, IncrementalMode::Cold);

    let (seq, gap, rho, engine) = subject();
    let out = run(&seq, gap, rho, &engine, &cache);
    match &out.cache_fault {
        Some(MineError::CacheMismatch { field, .. }) => {
            assert!(
                field.contains("hash") || field.contains("prefix"),
                "wrong field: {field}"
            );
        }
        other => panic!("expected CacheMismatch, got {other:?}"),
    }
    let cold = mpp(&seq, gap, rho, 4, MppConfig::default()).unwrap();
    assert_eq!(out.outcome.frequent, cold.frequent, "must not lie");
    let _ = std::fs::remove_file(&cache);
}

/// Every configuration axis in the key invalidates independently: the
/// same sequence re-mined under a different gap, threshold, engine or
/// engine parameter is a typed `CacheMismatch` naming the drifted
/// field.
#[test]
fn stale_config_keys_name_the_drifted_field() {
    let cache = cache_path("stalekey");
    let (seq, gap, rho, engine) = subject();
    let (_, healthy) = seeded(&cache);

    let reseed = |cache: &Path| {
        let _ = std::fs::remove_file(cache);
        let out = run(&seq, gap, rho, &engine, cache);
        assert_eq!(out.mode, IncrementalMode::Cold);
    };

    // Gap requirement.
    let out = run(
        &seq,
        GapRequirement::new(2, 2).unwrap(),
        rho,
        &engine,
        &cache,
    );
    match &out.cache_fault {
        Some(MineError::CacheMismatch { field, .. }) => assert_eq!(*field, "gap requirement"),
        other => panic!("gap: expected CacheMismatch, got {other:?}"),
    }

    // Support threshold.
    reseed(&cache);
    let out = run(&seq, gap, rho * 2.0, &engine, &cache);
    match &out.cache_fault {
        Some(MineError::CacheMismatch { field, .. }) => assert_eq!(*field, "support threshold"),
        other => panic!("rho: expected CacheMismatch, got {other:?}"),
    }

    // Engine (bfs -> dfs at the same n).
    reseed(&cache);
    let out = run(&seq, gap, rho, &EngineSelection::MppDfs { n: 4 }, &cache);
    match &out.cache_fault {
        Some(MineError::CacheMismatch { field, .. }) => assert_eq!(*field, "engine"),
        other => panic!("engine: expected CacheMismatch, got {other:?}"),
    }
    assert_eq!(out.outcome.frequent, healthy.frequent, "must not lie");

    // Engine parameter (n drift).
    reseed(&cache);
    let out = run(&seq, gap, rho, &EngineSelection::MppBfs { n: 5 }, &cache);
    match &out.cache_fault {
        Some(MineError::CacheMismatch { field, .. }) => assert_eq!(*field, "engine parameter"),
        other => panic!("param: expected CacheMismatch, got {other:?}"),
    }

    let _ = std::fs::remove_file(&cache);
}

/// A record in the retired tag-6 layout — whose key carried a PIL
/// representation byte and a kernel byte after the engine parameter —
/// is refused by its tag with a typed `CacheIo`, never decoded as the
/// current layout, and recovered by a cold mine.
#[test]
fn retired_layout_record_is_typed_and_recovered() {
    let cache = cache_path("retired");
    let (bytes, healthy) = seeded(&cache);
    // magic 4 + version 4, then the tag; the engine parameter ends at
    // byte 55 (hash 8, length 8, sigma 4, gap 4 + 4, rho 8, algorithm
    // 1, engine 1, parameter 8).
    const TAG_AT: usize = 8;
    const PARAM_END: usize = 55;
    let body = &bytes[..bytes.len() - 8];
    let mut old = body[..PARAM_END].to_vec();
    old[TAG_AT] = 6;
    old.extend_from_slice(&[0, 0]); // pil-repr = auto, kernel = auto
    old.extend_from_slice(&body[PARAM_END..]);
    let mut hash = Fnv1a::default();
    hash.update(&old);
    old.extend_from_slice(&hash.digest().to_le_bytes());
    std::fs::write(&cache, &old).unwrap();
    match load_result_cache(&cache) {
        Err(MineError::CacheIo { message }) => assert!(message.contains("retired"), "{message}"),
        other => panic!("expected CacheIo for the retired layout, got {other:?}"),
    }
    assert_recovers(&cache, &healthy, "retired layout");
    let _ = std::fs::remove_file(&cache);
}

/// Concurrent writers of one cache path (daemon connection threads do
/// this) each get their own tmp file: every write succeeds, the final
/// record is one of the records written, whole, and no tmp file is
/// left behind. A barrier releases the writers together, so their
/// writes overlap.
#[test]
fn concurrent_writes_to_one_path_never_collide() {
    const THREADS: usize = 8;
    const WRITES: usize = 20;
    let dir = std::env::temp_dir().join(format!("pginc-race-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("shared.pgrc");
    let record = |t: usize, i: usize| ResultCache {
        key: CacheKey {
            seq_hash: (t * WRITES + i) as u64,
            seq_len: 1_000 + t,
            sigma: 4,
            gap: (1, 1),
            rho_bits: 0.01f64.to_bits(),
            algorithm: 0,
            engine: 0,
            param: 4,
            prune: 0,
            start_level: 3,
            max_level: None,
        },
        n_used: 4,
        em: None,
        support_saturated: false,
        // A few KB per record, so writes overlap in time.
        outcome: (0..200)
            .map(|k| CachedPattern {
                codes: vec![(k % 4) as u8, (t % 4) as u8, (i % 4) as u8],
                support: (t * 1_000 + i * 10 + k) as u128,
                ratio_bits: 0.5f64.to_bits(),
            })
            .collect(),
        levels: None,
    };
    let start = std::sync::Barrier::new(THREADS);
    std::thread::scope(|s| {
        for t in 0..THREADS {
            let (path, record, start) = (&path, &record, &start);
            s.spawn(move || {
                start.wait();
                for i in 0..WRITES {
                    write_result_cache(path, &record(t, i))
                        .unwrap_or_else(|e| panic!("thread {t} write {i}: {e}"));
                }
            });
        }
    });
    let last = load_result_cache(&path).expect("the surviving record decodes");
    let id = last.key.seq_hash as usize;
    assert!(id < THREADS * WRITES, "unknown record {id}");
    assert_eq!(last, record(id / WRITES, id % WRITES));
    let leftovers: Vec<_> = std::fs::read_dir(&dir)
        .unwrap()
        .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
        .filter(|name| name.ends_with(".tmp"))
        .collect();
    assert!(leftovers.is_empty(), "tmp files left: {leftovers:?}");
    std::fs::remove_dir_all(&dir).unwrap();
}
