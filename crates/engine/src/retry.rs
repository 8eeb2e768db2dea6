//! Bounded retry with exponential backoff, and the poison quarantine.
//!
//! Transient failures — a wall-clock budget trip on a loaded machine, a
//! watchdog timeout, a panic whose trigger was environmental — are worth a
//! bounded number of re-attempts with exponential backoff. Failures that
//! are deterministic properties of the input (a sentence budget on an
//! oversized note) fail the same way every time; retrying them burns the
//! batch's time for nothing, so the engine distinguishes the two classes
//! via [`is_transient`].
//!
//! A record that exhausts its attempts on a transient error is *poison*:
//! the engine reports it as a per-item error (the batch keeps going) and,
//! when a [`QuarantineFile`] is attached, appends one NDJSON entry with
//! the record text, its final typed error, and the full attempt history —
//! enough to replay the record in isolation later.

use crate::engine::EngineError;
use serde::{Deserialize, Serialize};
use std::fs::File;
use std::io::Write;
use std::path::Path;
use std::sync::Mutex;

/// Upper bound on a single backoff sleep, milliseconds.
const MAX_BACKOFF_MILLIS: u64 = 1_000;

/// Bounded-retry policy for transiently failing records.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Total attempts per record (first try included). `1` — the default —
    /// disables retry entirely; `0` is treated as `1`.
    pub max_attempts: u32,
    /// Backoff before attempt `k+1` is `base_delay_millis * 2^(k-1)`,
    /// capped at one second.
    pub base_delay_millis: u64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_attempts: 1,
            base_delay_millis: 25,
        }
    }
}

impl RetryPolicy {
    /// Total attempts, normalized to at least one.
    pub fn attempts(&self) -> u32 {
        self.max_attempts.max(1)
    }

    /// Backoff after failed attempt `attempt` (1-based), milliseconds.
    /// Deterministic — no jitter — so runs are reproducible.
    pub fn backoff_millis(&self, attempt: u32) -> u64 {
        let shift = attempt.saturating_sub(1).min(16);
        self.base_delay_millis
            .saturating_mul(1u64 << shift)
            .min(MAX_BACKOFF_MILLIS)
    }
}

/// Whether an error class is worth retrying. Panics and wall-clock trips
/// (budget, watchdog timeout) can be environmental; aborts and lint
/// failures are deterministic verdicts about the run, not the record.
pub fn is_transient(error: &EngineError) -> bool {
    matches!(
        error,
        EngineError::Panicked { .. } | EngineError::Budget { .. } | EngineError::Timeout { .. }
    )
}

/// One failed attempt in a quarantine entry's history.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct AttemptRecord {
    /// 1-based attempt number.
    pub attempt: u32,
    /// The typed error this attempt ended with.
    pub error: EngineError,
    /// Backoff slept after this attempt (0 for the final one).
    pub backoff_millis: u64,
}

/// One poisoned record, as serialized into the quarantine file.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct QuarantineEntry {
    /// The record's index in the input stream.
    pub index: usize,
    /// The full record text, so the entry is self-contained for replay.
    pub text: String,
    /// The error of the final attempt.
    pub error: EngineError,
    /// Every attempt, in order (the final one included).
    pub attempts: Vec<AttemptRecord>,
}

/// An append-only NDJSON file of poisoned records, shared by the pool's
/// workers. Writes are serialized by a mutex and flushed per entry;
/// they are *best-effort* — an IO error while quarantining must never
/// take down the batch the quarantine exists to protect.
#[derive(Debug)]
pub struct QuarantineFile {
    inner: Mutex<File>,
    /// Entry indices are rewritten to `base + index * stride` at append
    /// time: a shard run (`--shard i/N`) quarantines under *global*
    /// corpus indices, so merged quarantine files from different shards
    /// never collide. Identity (`0`, `1`) for unsharded runs.
    index_base: usize,
    index_stride: usize,
}

impl QuarantineFile {
    /// Creates (truncating) the quarantine file at `path`.
    pub fn create(path: &Path) -> std::io::Result<QuarantineFile> {
        Ok(QuarantineFile {
            inner: Mutex::new(File::create(path)?),
            index_base: 0,
            index_stride: 1,
        })
    }

    /// Opens the quarantine file at `path` for appending, creating it if
    /// absent — the resume path, where entries from a previous killed
    /// attempt must survive. (A record quarantined but not yet journaled
    /// at the kill is re-quarantined by the resumed attempt; `cmr merge`
    /// dedupes such double entries by index.)
    pub fn open_append(path: &Path) -> std::io::Result<QuarantineFile> {
        Ok(QuarantineFile {
            inner: Mutex::new(
                std::fs::OpenOptions::new()
                    .create(true)
                    .append(true)
                    .open(path)?,
            ),
            index_base: 0,
            index_stride: 1,
        })
    }

    /// Maps the stream-local indices this file is handed onto global
    /// corpus indices: entry `i` is written as `base + i * stride`.
    /// Shard `s` of `N` passes (`s`, `N`).
    pub fn with_index_mapping(mut self, base: usize, stride: usize) -> QuarantineFile {
        self.index_base = base;
        self.index_stride = stride.max(1);
        self
    }

    /// Appends one entry as a single NDJSON line, rewriting its index
    /// through the global index mapping. Returns whether the write fully
    /// succeeded; failure is reported, not propagated.
    ///
    /// Carries the `quarantine::append` failpoint (partial writes land
    /// their torn prefix, which `read_quarantine`'s blank-line filter and
    /// per-line parse surface rather than crash on).
    pub fn append(&self, entry: &QuarantineEntry) -> bool {
        let mapped;
        let entry = if self.index_base == 0 && self.index_stride == 1 {
            entry
        } else {
            mapped = QuarantineEntry {
                index: self.index_base + entry.index * self.index_stride,
                text: entry.text.clone(),
                error: entry.error.clone(),
                attempts: entry.attempts.clone(),
            };
            &mapped
        };
        let Ok(mut line) = serde_json::to_string(entry) else {
            return false;
        };
        line.push('\n');
        let mut file = self
            .inner
            .lock() // cmr:allow(S001) -- this mutex exists to serialize appends to one file; the write IS the critical section
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        if let Some(inj) = cmr_failpoint::io_inject("quarantine::append") {
            if let cmr_failpoint::IoInjection::Partial(n) = inj {
                let cut = n.min(line.len());
                let _ = file.write_all(&line.as_bytes()[..cut]);
            }
            return false;
        }
        file.write_all(line.as_bytes()).is_ok() && file.flush().is_ok()
    }
}

/// Parses a quarantine file back into entries (diagnostics, tests).
pub fn read_quarantine(path: &Path) -> std::io::Result<Vec<QuarantineEntry>> {
    let text = std::fs::read_to_string(path)?;
    text.lines()
        .filter(|l| !l.trim().is_empty())
        .map(|line| serde_json::from_str(line).map_err(|e| std::io::Error::other(format!("{e:?}"))))
        .collect()
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;

    #[test]
    fn backoff_doubles_and_caps() {
        let p = RetryPolicy {
            max_attempts: 10,
            base_delay_millis: 25,
        };
        assert_eq!(p.backoff_millis(1), 25);
        assert_eq!(p.backoff_millis(2), 50);
        assert_eq!(p.backoff_millis(3), 100);
        assert_eq!(p.backoff_millis(7), 1_000, "capped at one second");
        assert_eq!(p.backoff_millis(40), 1_000, "shift saturates, no overflow");
    }

    #[test]
    fn transient_classification() {
        assert!(is_transient(&EngineError::Budget { sentences_done: 3 }));
        assert!(is_transient(&EngineError::Timeout { millis: 50 }));
        assert!(is_transient(&EngineError::Panicked {
            message: "boom".into()
        }));
        assert!(!is_transient(&EngineError::Lint {
            message: "bad asset".into()
        }));
    }

    #[test]
    fn quarantine_index_mapping_and_append_reopen() {
        let path = std::env::temp_dir().join(format!("cmr-quar-map-{}.ndjson", std::process::id()));
        let entry = |index| QuarantineEntry {
            index,
            text: "note".into(),
            error: EngineError::Timeout { millis: 50 },
            attempts: vec![],
        };
        // Shard 1 of 3: local index 2 is global index 1 + 2*3 = 7.
        let q = QuarantineFile::create(&path)
            .unwrap()
            .with_index_mapping(1, 3);
        assert!(q.append(&entry(2)));
        drop(q);
        let back = read_quarantine(&path).unwrap();
        assert_eq!(back[0].index, 7, "entries carry global corpus indices");

        // A resumed attempt reopens in append mode: prior entries survive.
        let q = QuarantineFile::open_append(&path)
            .unwrap()
            .with_index_mapping(1, 3);
        assert!(q.append(&entry(2)));
        drop(q);
        let back = read_quarantine(&path).unwrap();
        assert_eq!(back.len(), 2, "killed-attempt entry survives the resume");
        assert_eq!(back[0].index, back[1].index);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn quarantine_roundtrips_through_the_file() {
        let path =
            std::env::temp_dir().join(format!("cmr-quar-test-{}.ndjson", std::process::id()));
        let q = QuarantineFile::create(&path).unwrap();
        let entry = QuarantineEntry {
            index: 7,
            text: "Patient: 1\nPulse is 84.\n".into(),
            error: EngineError::Timeout { millis: 50 },
            attempts: vec![
                AttemptRecord {
                    attempt: 1,
                    error: EngineError::Budget { sentences_done: 2 },
                    backoff_millis: 25,
                },
                AttemptRecord {
                    attempt: 2,
                    error: EngineError::Timeout { millis: 50 },
                    backoff_millis: 0,
                },
            ],
        };
        assert!(q.append(&entry));
        let back = read_quarantine(&path).unwrap();
        assert_eq!(back, vec![entry]);
        let _ = std::fs::remove_file(&path);
    }
}
