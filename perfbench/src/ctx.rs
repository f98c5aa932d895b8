//! What every workload shares: paths, the seed, the run length, input
//! sizes, the span recorder, and helpers that drive `pgmine`.

use crate::child::{self, Usage};
use crate::report::Report;
use crate::spans::{Counters, Recorder};
use perigap_core::counts::OffsetCounts;
use perigap_core::GapRequirement;
use perigap_seq::fasta::read_fasta;
use perigap_seq::{Alphabet, Sequence};
use std::ffi::OsString;
use std::io;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::Duration;

/// Longest any single child may run before it counts as failed.
pub const CHILD_DEADLINE: Duration = Duration::from_secs(120);

/// Input sizes and repetition counts.
#[derive(Clone, Copy, Debug)]
pub struct Scale {
    pub flex_len: usize,
    pub rigid_base: usize,
    pub serve_len: usize,
    /// Set-ups per run; `setup_s` is their median.
    pub setups: usize,
}

impl Scale {
    /// The benchmark of record.
    pub const FULL: Scale = Scale {
        flex_len: 10_000,
        rigid_base: 1_000_000,
        serve_len: 20_000,
        setups: 3,
    };
    /// The smoke mode: every code path at about a second per mine. The
    /// support thresholds are ratios, so a rigid gap needs ~200k symbols
    /// before ρs·N_l reaches a few occurrences; shorter, every substring
    /// is frequent and the pattern set explodes.
    pub const TINY: Scale = Scale {
        flex_len: 1_000,
        rigid_base: 200_000,
        serve_len: 2_000,
        setups: 2,
    };
}

pub struct Ctx {
    pub pgmine: PathBuf,
    /// Scratch directory for this run, removed at the end.
    pub work: PathBuf,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub scale: Scale,
    /// Smoke only: alter one program output before its oracle sees it.
    pub corrupt: bool,
    pub rec: Recorder,
    pub counters: Counters,
    pub report: Report,
}

impl Ctx {
    pub fn path(&self, name: &str) -> PathBuf {
        self.work.join(name)
    }

    /// A `pgmine mine` command using only the semantic flags, writing
    /// the full pattern set as TSV to `out`.
    pub fn mine_cmd(&self, input: &Path, m: &MineArgs, out: &Path) -> io::Result<Command> {
        let mut cmd = Command::new(&self.pgmine);
        cmd.arg("mine")
            .arg("--input")
            .arg(input)
            .args(["--gap", m.gap, "--rho", m.rho, "--algorithm", "mpp"])
            .args(["--n", &m.n.to_string(), "--threads", &m.threads.to_string()])
            .args(["--format", "tsv"]);
        quiet(&mut cmd, out)?;
        Ok(cmd)
    }

    /// Run a child and count it as one attempted operation.
    pub fn run_counted(&mut self, cmd: &mut Command) -> io::Result<Usage> {
        let usage = child::run(cmd, CHILD_DEADLINE)?;
        self.report.attempted += 1;
        if !usage.ok {
            self.report.failed += 1;
        }
        Ok(usage)
    }
}

/// Send a child's stdout to `out` and its stderr to `out.err`.
pub fn quiet(cmd: &mut Command, out: &Path) -> io::Result<()> {
    let mut err = OsString::from(out.as_os_str());
    err.push(".err");
    cmd.stdin(Stdio::null())
        .stdout(std::fs::File::create(out)?)
        .stderr(std::fs::File::create(PathBuf::from(err))?);
    Ok(())
}

/// Mining parameters of a workload.
#[derive(Clone, Copy, Debug)]
pub struct MineArgs {
    pub gap: &'static str,
    pub gap_req: (usize, usize),
    pub rho: &'static str,
    pub rho_frac: f64,
    pub n: usize,
    pub threads: usize,
}

impl MineArgs {
    pub fn gap(&self) -> GapRequirement {
        GapRequirement::new(self.gap_req.0, self.gap_req.1).expect("workload gaps are valid")
    }
}

/// Parse a one-record FASTA file the way `pgmine` does.
pub fn read_input(path: &Path) -> io::Result<Sequence> {
    let file = io::BufReader::new(std::fs::File::open(path)?);
    read_fasta(file, &Alphabet::Dna)
        .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?
        .into_iter()
        .next()
        .map(|r| r.sequence)
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "empty FASTA"))
}

/// The offset-count layer on its own: `N_l` for every level up to `n`.
pub fn offset_counts(len: usize, gap: GapRequirement, n: usize) {
    let counts = OffsetCounts::new(len, gap);
    for l in 1..=n {
        std::hint::black_box(counts.n(l));
    }
}

pub fn io_err(e: impl ToString) -> io::Error {
    io::Error::other(e.to_string())
}
