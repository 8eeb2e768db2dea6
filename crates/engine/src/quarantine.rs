//! The poison quarantine.
//!
//! A record whose extraction fails (it panics, trips its sentence budget,
//! or runs past its deadline) is reported as a per-item error and the
//! batch keeps going. With a quarantine file attached, the
//! [`RecordSink`](crate::RecordSink) also writes one NDJSON entry with the
//! record text and its typed error — enough to replay the record in
//! isolation later. Extraction is a pure function of the note, so the
//! record is never re-run: a second attempt would fail the same way.
//!
//! The sink writes entries next to the output lines, on the emitting
//! thread, so they are in stream order and a resumed journaled run
//! rebuilds the file like the output. `cmr merge` maps a shard's stream
//! indices onto global ones.

use crate::engine::EngineError;
use crate::journal::Snapshot;
use crate::journaled::{io_fault, truncate_to_snapshot};
use serde::{Deserialize, Serialize};
use std::fs::File;
use std::io::{BufRead, BufWriter, Write};
use std::path::Path;

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

/// A sink's quarantine file, buffered like its output file.
pub(crate) struct QuarantineFile {
    w: BufWriter<File>,
    /// The path, as error messages show it.
    name: String,
}

impl QuarantineFile {
    /// Creates (truncating) the quarantine file at `path`; or, for a run
    /// resumed from a journal compacted at `snapshot`, keeps one entry per
    /// failure the snapshot counts (the entries of the records before it)
    /// and drops what follows, a torn line included: the resumed run
    /// rewrites those from the journal.
    pub(crate) fn open(path: &Path, snapshot: Option<&Snapshot>) -> Result<QuarantineFile, String> {
        let name = path.display().to_string();
        let file = match snapshot {
            None => File::create(path).map_err(|e| format!("creating {name}: {e}"))?,
            Some(snap) => truncate_to_snapshot(path, "quarantine", |r| {
                let (failed, mut valid_bytes) = (snap.errors.total(), 0);
                for kept in 0..failed {
                    let mut line = Vec::new();
                    r.read_until(b'\n', &mut line)?;
                    if line.last() != Some(&b'\n') {
                        return Err(std::io::Error::other(format!(
                            "its quarantine file {name} holds {kept} entries, but the \
                             journal snapshot counts {failed} failed record(s)"
                        )));
                    }
                    valid_bytes += line.len() as u64;
                }
                Ok(valid_bytes)
            })?,
        };
        Ok(QuarantineFile {
            w: BufWriter::new(file),
            name,
        })
    }

    /// Buffers record `index`'s entry as an NDJSON line.
    ///
    /// Carries the `quarantine::append` failpoint: a partial write lands
    /// its torn prefix in the file, which a resume drops.
    pub(crate) fn append(
        &mut self,
        index: usize,
        text: String,
        error: &EngineError,
    ) -> Result<(), String> {
        let error = error.clone();
        let mut line = serde_json::to_string(&QuarantineEntry { index, text, error })
            .map_err(|e| format!("serializing a quarantine entry: {e:?}"))?;
        line.push('\n');
        let written = match cmr_failpoint::io_inject("quarantine::append") {
            Some(inj) => {
                if let cmr_failpoint::IoInjection::Partial(n) = inj {
                    let _ = self.w.write_all(&line.as_bytes()[..n.min(line.len())]);
                    let _ = self.w.flush();
                }
                Err(inj.into_io_error())
            }
            None => self.w.write_all(line.as_bytes()),
        };
        written.map_err(|e| io_fault("writing", &self.name, &e))
    }

    /// Pushes buffered entries to the file.
    pub(crate) fn flush(&mut self) -> Result<(), String> {
        self.w
            .flush()
            .map_err(|e| io_fault("writing", &self.name, &e))
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
    use crate::metrics::ErrorCounts;
    use std::fs::OpenOptions;

    fn entry(index: usize) -> QuarantineEntry {
        QuarantineEntry {
            index,
            text: format!("Patient: {index}\nPulse is 84.\n"),
            error: EngineError::Timeout { millis: 50 },
        }
    }

    fn write(path: &Path, indices: &[usize]) {
        let mut q = QuarantineFile::open(path, None).unwrap();
        for &index in indices {
            let e = entry(index);
            q.append(index, e.text, &e.error).unwrap();
        }
        q.flush().unwrap();
    }

    #[test]
    fn quarantine_roundtrips_through_the_file() {
        let path =
            std::env::temp_dir().join(format!("cmr-quar-test-{}.ndjson", std::process::id()));
        write(&path, &[7]);
        assert_eq!(read_quarantine(&path).unwrap(), vec![entry(7)]);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn resume_keeps_the_snapshot_prefix_and_drops_the_rest() {
        let path =
            std::env::temp_dir().join(format!("cmr-quar-resume-{}.ndjson", std::process::id()));
        let snapshot = |completed, failed| Snapshot {
            completed,
            errors: ErrorCounts {
                timeouts: failed,
                ..ErrorCounts::default()
            },
            ..Snapshot::default()
        };
        let torn = |path: &Path| {
            write(path, &[0, 2, 5]);
            let mut f = OpenOptions::new().append(true).open(path).unwrap();
            f.write_all(b"{\"index\":9,\"te").unwrap();
        };

        // Records 0..3 precede the snapshot: entries 0 and 2 stay; 5 and
        // the torn line go, and the resumed run appends after them.
        torn(&path);
        let mut q = QuarantineFile::open(&path, Some(&snapshot(3, 2))).unwrap();
        let e = entry(4);
        q.append(4, e.text, &e.error).unwrap();
        q.flush().unwrap();
        drop(q);
        let indices: Vec<usize> = read_quarantine(&path)
            .unwrap()
            .iter()
            .map(|e| e.index)
            .collect();
        assert_eq!(indices, vec![0, 2, 4]);

        // Without a snapshot the journal replays everything: start empty.
        torn(&path);
        drop(QuarantineFile::open(&path, None).unwrap());
        assert!(read_quarantine(&path).unwrap().is_empty());

        // Fewer complete entries than the snapshot's failures, or no
        // file, is refused, not rebuilt.
        torn(&path);
        let err = QuarantineFile::open(&path, Some(&snapshot(6, 4)))
            .err()
            .unwrap();
        assert!(err.contains("holds 3 entries"), "{err}");
        let _ = std::fs::remove_file(&path);
        assert!(QuarantineFile::open(&path, Some(&snapshot(3, 2))).is_err());
    }
}
