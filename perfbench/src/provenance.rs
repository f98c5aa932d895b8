//! Where a result came from — machine, toolchain and build — recorded
//! with every result, so results from different machines or builds are
//! never mixed.

use crate::ctx::quiet;
use crate::gen;
use crate::oracle::{fnv1a, FNV_OFFSET};
use std::path::Path;
use std::process::Command;

fn command_line(cmd: &str, args: &[&str]) -> String {
    Command::new(cmd)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".to_string())
}

fn mem_total_kb() -> String {
    std::fs::read_to_string("/proc/meminfo")
        .ok()
        .and_then(|m| {
            m.lines()
                .find(|l| l.starts_with("MemTotal:"))
                .and_then(|l| l.split_whitespace().nth(1).map(str::to_string))
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// FNV-1a over the program's sources and manifests, in path order: the
/// build identity when the checkout carries no git metadata.
fn source_digest() -> String {
    fn walk(dir: &Path, out: &mut Vec<std::path::PathBuf>) {
        let Ok(rd) = std::fs::read_dir(dir) else {
            return;
        };
        for e in rd.flatten() {
            let p = e.path();
            if p.is_dir() {
                walk(&p, out);
            } else if p.extension().is_some_and(|x| x == "rs" || x == "toml") {
                out.push(p);
            }
        }
    }
    let mut files = vec![
        Path::new("Cargo.toml").to_path_buf(),
        Path::new("Cargo.lock").to_path_buf(),
    ];
    walk(Path::new("crates"), &mut files);
    files.sort();
    let h = files.iter().fold(FNV_OFFSET, |h, f| {
        let bytes = std::fs::read(f).unwrap_or_default();
        fnv1a(h, f.to_string_lossy().bytes().chain(bytes))
    });
    format!("{h:016x}")
}

/// Ask `pgmine` itself which engine and kernel a default two-thread MPP
/// mine resolves to, by reading the trace of a tiny mine.
fn probe_engine(pgmine: &Path, work: &Path) -> (String, String) {
    let input = work.join("probe.fa");
    let trace = work.join("probe.jsonl");
    let text = (|| -> std::io::Result<String> {
        gen::write(&input, "probe", &gen::dna(1, 2_000))?;
        let mut cmd = Command::new(pgmine);
        cmd.arg("mine")
            .arg("--input")
            .arg(&input)
            .args([
                "--gap",
                "0:3",
                "--rho",
                "1%",
                "--algorithm",
                "mpp",
                "--threads",
                "2",
            ])
            .arg("--trace")
            .arg(&trace);
        quiet(&mut cmd, &work.join("probe.out"))?;
        if !cmd.status()?.success() {
            return Err(crate::ctx::io_err("probe mine failed"));
        }
        std::fs::read_to_string(&trace)
    })()
    .unwrap_or_default();
    // Only the depth-first hybrid engine emits subtree events.
    let engine = if text.is_empty() {
        "unknown"
    } else if text.contains("\"event\": \"subtree\"") {
        "dfs"
    } else {
        "bfs"
    };
    let kernel = text
        .lines()
        .find(|l| l.contains("\"event\": \"summary\""))
        .and_then(|l| perigap_core::trace::Json::parse(l).ok())
        .and_then(|v| v.get("kernel").and_then(|k| k.as_str().map(str::to_string)))
        .unwrap_or_else(|| "unknown".to_string());
    (engine.to_string(), kernel)
}

pub fn collect(pgmine: &Path, work: &Path) -> Vec<(String, String)> {
    let (engine, kernel) = probe_engine(pgmine, work);
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    vec![
        ("nproc".into(), nproc.to_string()),
        ("mem_total_kb".into(), mem_total_kb()),
        // Only the checkout's own .git: an export inside another
        // repository must not report that repository's revision.
        (
            "git_rev".into(),
            if Path::new(".git").exists() {
                command_line("git", &["rev-parse", "HEAD"])
            } else {
                "unknown".into()
            },
        ),
        ("source_digest".into(), source_digest()),
        ("rustc".into(), command_line("rustc", &["--version"])),
        (
            "avx2".into(),
            perigap_core::kernel::simd_available().to_string(),
        ),
        ("pgmine_kernel".into(), kernel),
        ("pgmine_mpp_engine_2_threads".into(), engine),
    ]
}
