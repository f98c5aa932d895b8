//! Processes timed by the kernel's own accounting: `wait4(2)` returns
//! the exact user/sys time, minor faults and peak RSS of a reaped child,
//! and `getrusage(2)` the same for this process; the standard library
//! exposes neither.

use std::io;
use std::process::{Child, Command};
use std::sync::mpsc;
use std::time::{Duration, Instant};

#[repr(C)]
#[derive(Default)]
pub struct Timeval {
    pub sec: i64,
    pub usec: i64,
}

/// `struct rusage` on 64-bit Linux (every field a `long`).
#[repr(C)]
#[derive(Default)]
pub struct Rusage {
    pub utime: Timeval,
    pub stime: Timeval,
    pub maxrss: i64,
    ixrss: i64,
    idrss: i64,
    isrss: i64,
    pub minflt: i64,
    majflt: i64,
    nswap: i64,
    inblock: i64,
    oublock: i64,
    msgsnd: i64,
    msgrcv: i64,
    nsignals: i64,
    nvcsw: i64,
    nivcsw: i64,
}

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
compile_error!("perfbench reads child rusage through the 64-bit Linux wait4 ABI");

extern "C" {
    fn wait4(pid: i32, status: *mut i32, options: i32, rusage: *mut Rusage) -> i32;
    fn getrusage(who: i32, rusage: *mut Rusage) -> i32;
}

const RUSAGE_SELF: i32 = 0;

/// This process's own usage, all threads included.
pub fn rusage_self() -> Rusage {
    let mut ru = Rusage::default();
    // SAFETY: `ru` is live, writable and laid out as the 64-bit Linux ABI
    // expects; RUSAGE_SELF needs no other argument.
    unsafe { getrusage(RUSAGE_SELF, &mut ru) };
    ru
}

/// What one finished child cost.
#[derive(Clone, Debug)]
pub struct Usage {
    /// Wall time from spawn to reap.
    pub wall: Duration,
    pub user_s: f64,
    pub sys_s: f64,
    pub minflt: u64,
    pub peak_rss_mb: f64,
    /// True when the child exited with status 0 before its deadline.
    pub ok: bool,
}

/// A spawned child. [`Running::wait`] reaps it; dropping it unreaped
/// kills and reaps it, so no early return leaves a process behind.
pub struct Running {
    pid: i32,
    started: Instant,
    /// Tells the watchdog the child was reaped; dropping it unsent
    /// tells the watchdog to kill and reap the child itself.
    done: Option<mpsc::Sender<()>>,
    watchdog: Option<std::thread::JoinHandle<bool>>,
}

/// Spawn `cmd`; it is killed if still running after `deadline`.
pub fn spawn(cmd: &mut Command, deadline: Duration) -> io::Result<Running> {
    let started = Instant::now();
    let mut child: Child = cmd.spawn()?;
    let pid = i32::try_from(child.id()).expect("pid fits in i32");
    let (done, rx) = mpsc::channel::<()>();
    let watchdog = std::thread::spawn(move || match rx.recv_timeout(deadline) {
        Ok(()) => false,
        Err(mpsc::RecvTimeoutError::Timeout) => {
            let _ = child.kill();
            // `wait` reaps the killed child unless the handle was dropped.
            if rx.recv().is_err() {
                let _ = child.wait();
            }
            true
        }
        Err(mpsc::RecvTimeoutError::Disconnected) => {
            let _ = child.kill();
            let _ = child.wait();
            true
        }
    });
    Ok(Running {
        pid,
        started,
        done: Some(done),
        watchdog: Some(watchdog),
    })
}

impl Running {
    pub fn started(&self) -> Instant {
        self.started
    }

    /// Block until the child exits and return its resource usage.
    pub fn wait(mut self) -> io::Result<Usage> {
        let mut status = 0i32;
        let mut ru = Rusage::default();
        loop {
            // SAFETY: `status` and `ru` are live, writable and laid out as
            // the 64-bit Linux ABI expects; `pid` is our own unreaped child.
            let r = unsafe { wait4(self.pid, &mut status, 0, &mut ru) };
            if r >= 0 {
                break;
            }
            let err = io::Error::last_os_error();
            if err.kind() != io::ErrorKind::Interrupted {
                return Err(err);
            }
        }
        let wall = self.started.elapsed();
        if let Some(done) = self.done.take() {
            let _ = done.send(());
        }
        let timed_out = self
            .watchdog
            .take()
            .is_some_and(|w| w.join().unwrap_or(true));
        // WIFEXITED && WEXITSTATUS == 0
        let exited_zero = status & 0x7f == 0 && (status >> 8) & 0xff == 0;
        let secs = |t: &Timeval| t.sec as f64 + t.usec as f64 / 1e6;
        Ok(Usage {
            wall,
            user_s: secs(&ru.utime),
            sys_s: secs(&ru.stime),
            minflt: ru.minflt.max(0) as u64,
            peak_rss_mb: ru.maxrss.max(0) as f64 / 1024.0,
            ok: exited_zero && !timed_out,
        })
    }
}

impl Drop for Running {
    fn drop(&mut self) {
        drop(self.done.take());
        if let Some(w) = self.watchdog.take() {
            let _ = w.join();
        }
    }
}

/// Spawn, wait, and return the usage.
pub fn run(cmd: &mut Command, deadline: Duration) -> io::Result<Usage> {
    spawn(cmd, deadline)?.wait()
}
