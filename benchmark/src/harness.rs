//! What every workload shares: where the binary and scratch files live,
//! how a `cmr` command is launched, and what a run reports.

use crate::procs::{self, Exit, Proc};
use crate::stats;
use serde::Value;
use std::collections::BTreeMap;
use std::fs;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

/// Fixed parallelism of every parallel setting (`--jobs`, `--shards`,
/// client connections). Results are only comparable at one CPU count,
/// which is recorded with every result.
pub const PARALLEL: usize = 2;

/// Per-run settings and locations.
pub struct Ctx {
    /// This benchmark's own executable, which wraps every measured child.
    pub exe: PathBuf,
    /// The release `cmr` binary under test.
    pub cmr: PathBuf,
    /// Scratch directory of this run (removed when the run ends).
    pub work: PathBuf,
    /// The run seed.
    pub seed: u64,
    /// How long the measured part of the workload runs.
    pub budget: Duration,
    /// The 1/50-size profile for checking the harness quickly.
    pub smoke: bool,
}

impl Ctx {
    /// A `cmr` invocation (under the measuring wrapper, see [`procs`];
    /// append `cmr`'s arguments) with stdin and stdout closed and stderr
    /// appended to the run's log, so a failure can be explained.
    pub fn cmr(&self) -> Command {
        let mut cmd = Command::new(&self.exe);
        cmd.arg(procs::CHILD_CMD)
            .arg(&self.work)
            .arg("--")
            .arg(&self.cmr)
            .stdin(Stdio::null())
            .stdout(Stdio::null());
        match fs::File::options()
            .create(true)
            .append(true)
            .open(self.log())
        {
            Ok(f) => cmd.stderr(f),
            Err(_) => cmd.stderr(Stdio::null()),
        };
        cmd
    }

    pub fn path(&self, name: &str) -> PathBuf {
        self.work.join(name)
    }

    fn log(&self) -> PathBuf {
        self.path("cmr.log")
    }

    /// Starts a command built by [`Ctx::cmr`].
    pub fn spawn(&self, cmd: &mut Command, what: &str) -> Result<Proc, String> {
        Proc::spawn(cmd, &self.work).map_err(|e| format!("{what}: spawning cmr: {e}"))
    }

    /// Runs `cmd` and requires exit code 0; the error names `what` and
    /// carries the tail of the log.
    pub fn run_ok(&self, cmd: &mut Command, what: &str) -> Result<Exit, String> {
        let exit = self
            .spawn(cmd, what)?
            .wait()
            .map_err(|e| format!("{what}: waiting for cmr: {e}"))?;
        if !exit.success() {
            return Err(format!(
                "{what}: cmr ended with {exit}\n{}",
                self.log_tail()
            ));
        }
        Ok(exit)
    }

    /// Last lines of the children's stderr log.
    pub fn log_tail(&self) -> String {
        let log = fs::read_to_string(self.log()).unwrap_or_default();
        let lines: Vec<&str> = log.lines().collect();
        lines[lines.len().saturating_sub(12)..].join("\n")
    }

    /// Median wall time of `n` spawns of `cmr extract` on an empty corpus:
    /// the fixed cost a user pays before the first note is read.
    pub fn extract_setup_s(&self, n: usize) -> Result<f64, String> {
        let empty = self.path("empty.ndjson");
        fs::write(&empty, "").map_err(|e| format!("writing {}: {e}", empty.display()))?;
        let mut walls = Vec::with_capacity(n);
        for _ in 0..n {
            let exit = self.run_ok(
                self.cmr()
                    .args(["extract", "--ndjson", "--jobs", &PARALLEL.to_string()])
                    .arg(&empty),
                "setup spawn",
            )?;
            walls.push(exit.wall.as_secs_f64());
        }
        Ok(stats::median(&walls))
    }

    /// Wall time of `cmr lint --format json` (the asset check every
    /// service start also runs).
    pub fn lint_s(&self) -> Result<f64, String> {
        let mut cmd = self.cmr();
        cmd.args(["lint", "--format", "json"]);
        Ok(self.run_ok(&mut cmd, "cmr lint")?.wall.as_secs_f64())
    }
}

/// What one workload run measured.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Every measured value by metric name (end-to-end and per-layer).
    pub metrics: BTreeMap<String, f64>,
    /// Notes or requests handed to the program.
    pub attempted: u64,
    /// Of those, how many failed (error records, non-2xx, refused).
    pub failed: u64,
    /// Names of the correctness checks that failed, with details.
    pub failures: Vec<String>,
    /// FNV-1a digest of the workload's input.
    pub digest: u64,
}

impl Outcome {
    pub fn set(&mut self, name: &str, value: f64) {
        self.metrics.insert(name.to_string(), value);
    }

    /// Records a correctness check; a failed one makes the run incorrect.
    pub fn check(&mut self, name: &str, ok: bool, detail: impl FnOnce() -> String) {
        if !ok {
            self.failures.push(format!("{name}: {}", detail()));
        }
    }
}

/// True while the measured budget that started at `start` lasts, and in
/// any case until one round is done.
pub fn keep_going(start: Instant, budget: Duration, rounds: usize) -> bool {
    rounds == 0 || start.elapsed() < budget
}

/// Reads a file that must exist.
pub fn read(path: &Path) -> Result<Vec<u8>, String> {
    fs::read(path).map_err(|e| format!("reading {}: {e}", path.display()))
}

/// Lines of an output file that are in-band error objects.
pub fn error_lines(output: &[u8]) -> u64 {
    output
        .split(|&b| b == b'\n')
        .filter(|l| l.starts_with(b"{\"error\""))
        .count() as u64
}

/// Counts newline bytes.
pub fn count_lines(bytes: &[u8]) -> usize {
    bytes.iter().filter(|&&b| b == b'\n').count()
}

/// Parses an engine `--metrics` file; `None` when absent or unreadable
/// (engine counters are optional inputs to per-layer metrics only).
pub fn engine_metrics(path: &Path) -> Option<Value> {
    serde_json::parse_value_str(&fs::read_to_string(path).ok()?).ok()
}

/// A numeric field at `path` (dot-separated) of a parsed JSON object.
pub fn number_at(v: &Value, path: &str) -> Option<f64> {
    let mut cur = v;
    for key in path.split('.') {
        cur = cur.get(key)?;
    }
    match cur {
        Value::Int(n) => Some(*n as f64),
        Value::Float(x) => Some(*x),
        _ => None,
    }
}

/// Engine counters of one `--metrics` file as per-layer metrics, for
/// whichever of the optional keys the program still writes.
pub fn set_engine_layers(out: &mut Outcome, metrics: &Value) {
    let jobs = number_at(metrics, "jobs")
        .unwrap_or(PARALLEL as f64)
        .max(1.0);
    if let (Some(wait), Some(wall)) = (
        number_at(metrics, "channel_wait_nanos"),
        number_at(metrics, "wall_nanos"),
    ) {
        if wall > 0.0 {
            out.set("engine.channel_wait_share", wait / (jobs * wall));
        }
    }
    if let (Some(hits), Some(shared), Some(misses)) = (
        number_at(metrics, "parse_cache.hits"),
        number_at(metrics, "parse_cache.shared_hits"),
        number_at(metrics, "parse_cache.misses"),
    ) {
        let lookups = hits + misses;
        if lookups > 0.0 {
            out.set("engine.shared_hit_ratio", shared / lookups);
        }
    }
    if let Some(hw) = number_at(metrics, "reorder_buffer_high_water") {
        out.set("engine.reorder_high_water", hw);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn engine_counters_are_optional() {
        let mut out = Outcome::default();
        set_engine_layers(&mut out, &serde_json::parse_value_str("{}").expect("json"));
        assert!(out.metrics.is_empty());
        let m = serde_json::parse_value_str(
            r#"{"jobs":2,"wall_nanos":1000,"channel_wait_nanos":500,
                "parse_cache":{"hits":90,"shared_hits":9,"misses":10}}"#,
        )
        .expect("json");
        set_engine_layers(&mut out, &m);
        assert_eq!(out.metrics["engine.channel_wait_share"], 0.25);
        assert_eq!(out.metrics["engine.shared_hit_ratio"], 0.09);
    }

    #[test]
    fn error_lines_are_counted() {
        assert_eq!(error_lines(b"{\"numeric\":{}}\n{\"error\":\"x\"}\n"), 1);
        assert_eq!(count_lines(b"a\nb\n"), 2);
    }
}
