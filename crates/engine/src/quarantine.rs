//! The poison quarantine.
//!
//! A record whose extraction fails (it panics, trips its sentence budget,
//! or runs past its deadline) is reported as a per-item error and the
//! batch keeps going. When a [`QuarantineFile`] is attached, the engine
//! also appends one NDJSON entry with the record text and its typed error
//! — enough to replay the record in isolation later. Extraction is a pure
//! function of the note, so the record is never re-run: a second attempt
//! would fail the same way.

use crate::engine::EngineError;
use serde::{Deserialize, Serialize};
use std::fs::File;
use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// One poisoned record, as serialized into the quarantine file.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct QuarantineEntry {
    /// The record's index in the input stream.
    pub index: usize,
    /// The full record text, so the entry is self-contained for replay.
    pub text: String,
    /// Why the record failed.
    pub error: EngineError,
}

/// An append-only NDJSON file of poisoned records, shared by the pool's
/// workers. Writes are serialized by a mutex and flushed per entry;
/// they are *best-effort* — an IO error while quarantining must never
/// take down the batch the quarantine exists to protect.
#[derive(Debug)]
pub struct QuarantineFile {
    inner: Mutex<File>,
    /// Entries fully written since the file was opened.
    written: AtomicU64,
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
            written: AtomicU64::new(0),
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
            written: AtomicU64::new(0),
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
        let ok = file.write_all(line.as_bytes()).is_ok() && file.flush().is_ok();
        if ok {
            self.written.fetch_add(1, Ordering::Relaxed);
        }
        ok
    }

    /// Entries fully written since the file was opened — what
    /// [`EngineMetrics::quarantined`](crate::EngineMetrics::quarantined)
    /// reports.
    pub fn written(&self) -> u64 {
        self.written.load(Ordering::Relaxed)
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
    fn quarantine_index_mapping_and_append_reopen() {
        let path = std::env::temp_dir().join(format!("cmr-quar-map-{}.ndjson", std::process::id()));
        let entry = |index| QuarantineEntry {
            index,
            text: "note".into(),
            error: EngineError::Timeout { millis: 50 },
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
        };
        assert!(q.append(&entry));
        assert_eq!(q.written(), 1);
        let back = read_quarantine(&path).unwrap();
        assert_eq!(back, vec![entry]);
        let _ = std::fs::remove_file(&path);
    }
}
