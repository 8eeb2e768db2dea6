//! Child processes: spawn, signal, and reap with resource usage.
//!
//! The peak-RSS metric is `ru_maxrss` of a `cmr` process and its waited
//! descendants (the shards of `cmr orchestrate`), as `wait4(2)` reports
//! it. But Linux charges a process the peak RSS of the address space it
//! replaced at `exec`, and `std::process::Command` spawns by sharing the
//! parent's address space until then: a `cmr` started directly from this
//! benchmark, which holds tens of megabytes of notes and outputs, would
//! report the benchmark's peak instead of its own. So every `cmr` runs
//! under a small re-exec of this binary (the [`CHILD_CMD`] subcommand)
//! that spawns it from a fresh address space, reaps it with `wait4`, and
//! writes the child's pid and then how it ended (status, wall time, peak
//! RSS) to a report file. The benchmark signals the child by that pid and
//! reaps the wrapper. Linux on a 64-bit target only.

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
compile_error!("the benchmark reaps children with Linux wait4 and needs a 64-bit Linux target");

use std::fs;
use std::io::{self, Write as _};
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};
use std::time::{Duration, Instant};

pub const SIGKILL: i32 = 9;
pub const SIGTERM: i32 = 15;
const WNOHANG: i32 = 1;
const EINTR: i32 = 4;

/// The hidden subcommand that runs one measured child.
pub const CHILD_CMD: &str = "__child";

/// Longest wait for a wrapper to report its child's pid.
const PID_TIMEOUT: Duration = Duration::from_secs(10);

/// `struct rusage` on 64-bit Linux: two `timeval`s, then fourteen longs
/// starting with `ru_maxrss` (kilobytes). Only `maxrss` is read; the other
/// fields are there for the layout.
#[repr(C)]
#[allow(dead_code)]
struct Rusage {
    utime: [i64; 2],
    stime: [i64; 2],
    maxrss: i64,
    rest: [i64; 13],
}

extern "C" {
    fn wait4(pid: i32, status: *mut i32, options: i32, rusage: *mut Rusage) -> i32;
    fn kill(pid: i32, sig: i32) -> i32;
}

/// `wait4` on `pid`, retried on EINTR: the raw status and `ru_maxrss`, or
/// `None` under `WNOHANG` while the child runs.
fn wait_pid(pid: i32, options: i32) -> io::Result<Option<(i32, i64)>> {
    let mut status = 0i32;
    let mut usage = Rusage {
        utime: [0; 2],
        stime: [0; 2],
        maxrss: 0,
        rest: [0; 13],
    };
    loop {
        // SAFETY: both pointers are to live, writable locals of the exact
        // types wait4 fills (int and struct rusage).
        let r = unsafe { wait4(pid, &mut status, options, &mut usage) };
        if r == pid {
            return Ok(Some((status, usage.maxrss)));
        }
        if r == 0 {
            return Ok(None);
        }
        let err = io::Error::last_os_error();
        if err.raw_os_error() != Some(EINTR) {
            return Err(err);
        }
    }
}

/// How a measured child ended.
#[derive(Debug, Clone, Copy)]
pub struct Exit {
    /// Exit code, when the child exited normally.
    pub code: Option<i32>,
    /// Terminating signal, when it was killed.
    pub signal: Option<i32>,
    /// Spawn to reap.
    pub wall: Duration,
    /// Peak resident set of the child and its waited descendants, in KiB.
    pub maxrss_kib: u64,
}

impl Exit {
    pub fn success(&self) -> bool {
        self.code == Some(0)
    }
}

impl std::fmt::Display for Exit {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match (self.code, self.signal) {
            (Some(code), _) => write!(f, "exit code {code}"),
            (None, Some(sig)) => write!(f, "signal {sig}"),
            (None, None) => write!(f, "an unknown status"),
        }
    }
}

fn report_path(dir: &Path, wrapper_pid: u32) -> PathBuf {
    dir.join(format!("proc-{wrapper_pid}.report"))
}

/// The wrapper: `__child REPORT_DIR -- PROGRAM ARGS...`. Its stdio is the
/// child's.
pub fn child_main(args: &[String]) -> ExitCode {
    match run_child(args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("cmr-benchmark {CHILD_CMD}: {e}");
            ExitCode::from(127)
        }
    }
}

fn run_child(args: &[String]) -> io::Result<()> {
    let [dir, sep, program, rest @ ..] = args else {
        return Err(io::Error::other("usage: REPORT_DIR -- PROGRAM ARGS..."));
    };
    if sep != "--" {
        return Err(io::Error::other("usage: REPORT_DIR -- PROGRAM ARGS..."));
    }
    let mut report = fs::File::create(report_path(Path::new(dir), std::process::id()))?;
    let started = Instant::now();
    let child = Command::new(program).args(rest).spawn()?;
    let pid = i32::try_from(child.id()).map_err(|_| io::Error::other("pid out of range"))?;
    // One write per line: a reader sees a line only once its newline is
    // there.
    report.write_all(format!("pid {pid}\n").as_bytes())?;
    let (status, maxrss) = wait_pid(pid, 0)?.expect("a blocking wait4 returns the child");
    let wall = started.elapsed().as_nanos();
    report.write_all(format!("exit {status} {wall} {maxrss}\n").as_bytes())
}

/// What a wrapper's report says so far.
#[derive(Debug, Default)]
struct Report {
    pid: Option<i32>,
    exit: Option<Exit>,
}

impl Report {
    fn parse(text: &str) -> Report {
        let mut r = Report::default();
        for line in text.split_inclusive('\n').filter(|l| l.ends_with('\n')) {
            let fields: Vec<&str> = line.split_whitespace().collect();
            match fields.as_slice() {
                ["pid", pid] => r.pid = pid.parse().ok(),
                ["exit", status, wall, maxrss] => {
                    let (Ok(status), Ok(wall), Ok(maxrss)) =
                        (status.parse::<i32>(), wall.parse(), maxrss.parse())
                    else {
                        continue;
                    };
                    let term = status & 0x7f;
                    r.exit = Some(Exit {
                        code: (term == 0).then_some((status >> 8) & 0xff),
                        signal: (term != 0).then_some(term),
                        wall: Duration::from_nanos(wall),
                        maxrss_kib: maxrss,
                    });
                }
                _ => {}
            }
        }
        r
    }
}

/// A running, wrapped child. Dropping it unreaped kills and reaps it, so
/// no error path leaves a process behind.
pub struct Proc {
    wrapper: i32,
    report: PathBuf,
    started: Instant,
    reaped: bool,
}

impl Proc {
    /// Spawns `cmd`, a [`CHILD_CMD`] wrapper reporting under `report_dir`.
    pub fn spawn(cmd: &mut Command, report_dir: &Path) -> io::Result<Proc> {
        let started = Instant::now();
        let child = cmd.spawn()?;
        let wrapper =
            i32::try_from(child.id()).map_err(|_| io::Error::other("pid out of range"))?;
        Ok(Proc {
            wrapper,
            report: report_path(report_dir, child.id()),
            started,
            reaped: false,
        })
    }

    /// When the wrapper was spawned.
    pub fn started(&self) -> Instant {
        self.started
    }

    fn read_report(&self) -> Report {
        Report::parse(&fs::read_to_string(&self.report).unwrap_or_default())
    }

    /// Blocks until the child ends.
    pub fn wait(mut self) -> io::Result<Exit> {
        self.reap(0)?
            .ok_or_else(|| io::Error::other("wait4 returned without a child"))
    }

    /// Reaps the child if it has ended, without blocking.
    pub fn try_wait(&mut self) -> io::Result<Option<Exit>> {
        self.reap(WNOHANG)
    }

    fn reap(&mut self, options: i32) -> io::Result<Option<Exit>> {
        if self.reaped {
            return Err(io::Error::other("child already reaped"));
        }
        if wait_pid(self.wrapper, options)?.is_none() {
            return Ok(None);
        }
        self.reaped = true;
        let exit = self.read_report().exit.ok_or_else(|| {
            io::Error::other(format!(
                "the wrapper left no exit in {}",
                self.report.display()
            ))
        });
        let _ = fs::remove_file(&self.report);
        exit.map(Some)
    }

    /// Sends `sig` to the child once its wrapper has reported the pid; a
    /// no-op when the child has already ended.
    pub fn signal(&self, sig: i32) -> io::Result<()> {
        if self.reaped {
            return Ok(());
        }
        loop {
            let r = self.read_report();
            match (r.pid, r.exit) {
                (_, Some(_)) => return Ok(()),
                (Some(pid), None) => {
                    // SAFETY: `kill` takes plain integers and touches no
                    // memory. The pid is the wrapper's unreaped child (the
                    // report has no exit line yet), so it names that process.
                    unsafe {
                        kill(pid, sig);
                    }
                    return Ok(());
                }
                (None, None) if self.started.elapsed() > PID_TIMEOUT => {
                    return Err(io::Error::other("the wrapper never reported its child"));
                }
                (None, None) => std::thread::sleep(Duration::from_micros(100)),
            }
        }
    }
}

impl Drop for Proc {
    fn drop(&mut self) {
        if !self.reaped {
            let _ = self.signal(SIGKILL);
            let _ = self.reap(0);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reports_parse_whole_lines_only() {
        let torn = Report::parse("pid 12");
        assert!(torn.pid.is_none() && torn.exit.is_none());
        let r = Report::parse("pid 1234\nexit 0 1500000 20480\n");
        assert_eq!(r.pid, Some(1234));
        let exit = r.exit.expect("exit line");
        assert!(exit.success());
        assert_eq!(exit.wall, Duration::from_micros(1500));
        assert_eq!(exit.maxrss_kib, 20480);
        // Raw wait status 9: killed by SIGKILL. 3 << 8: exit code 3.
        assert_eq!(
            Report::parse("exit 9 1 1\n").exit.map(|e| e.signal),
            Some(Some(9))
        );
        assert_eq!(
            Report::parse("exit 768 1 1\n").exit.map(|e| e.code),
            Some(Some(3))
        );
    }
}
