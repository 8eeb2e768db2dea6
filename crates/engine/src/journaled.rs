//! The journaled run: write-ahead batch extraction that survives a crash.
//!
//! [`run_journaled`] is the one loop behind `cmr extract --journal` and
//! the I/O fault sweep. Per record, in input order, it appends the
//! journal entry and only then emits the output line, so every line a
//! consumer has seen is recoverable from the journal.
//!
//! * **Resume.** A journal that died at birth (no complete manifest
//!   line) is started fresh. Otherwise the manifest must match this run.
//!   The journaled prefix streams back to the output, one entry at a
//!   time, and only the remainder is extracted. After a compaction the
//!   output file's prefix is verified against the snapshot fingerprint
//!   and anything after it is truncated. The run's metrics start from
//!   the snapshot's counts, and every replayed entry is counted the way
//!   the engine counts a live record, so they cover the whole corpus.
//! * **Compaction.** Every `compact_every` records this run journals, the
//!   output is flushed and then the journal is rewritten as manifest +
//!   snapshot, which carries the counts of every record so far. The
//!   flush comes first: the snapshot may only describe bytes that
//!   survive a crash.
//! * **Clean abort.** An I/O failure on the journal or the output raises
//!   the engine's shutdown flag. In-flight records drain without being
//!   journaled or emitted, and the journal stays a valid prefix that a
//!   later resume completes.
//!
//! Fault injection: the `shard::kill` failpoint is checked before each
//! record is journaled; a fire stands in for the process dying there.

use crate::engine::{Engine, EngineError};
use crate::journal::{
    verify_output_prefix, JournalEntry, JournalReplay, JournalWriter, OutputFingerprint,
    RunManifest, Snapshot,
};
use crate::metrics::EngineMetrics;
use cmr_core::ExtractedRecord;
use std::fs::{File, OpenOptions};
use std::io::{BufRead, BufReader, BufWriter, Seek, SeekFrom, StdoutLock, Write};
use std::path::Path;
use std::sync::atomic::Ordering;
use std::sync::Arc;

/// One record's output line, without its newline: the record's JSON, or
/// the in-band [`error_line`] of its error. `cmr extract` and the
/// service's `/extract/batch` both write this format.
pub fn outcome_line(outcome: &Result<ExtractedRecord, EngineError>) -> String {
    match outcome {
        Ok(record) => serde_json::to_string(record).unwrap_or_else(|e| error_line(&e.to_string())),
        Err(e) => error_line(&e.to_string()),
    }
}

/// The in-band error object `{"error":"…"}`, `message` JSON-escaped.
pub fn error_line(message: &str) -> String {
    let quoted = serde_json::to_string(message).unwrap_or_else(|_| "\"error\"".into());
    format!("{{\"error\":{quoted}}}")
}

/// Where extraction's record lines land: one [`outcome_line`] per
/// record.
///
/// Stdout is flushed per line, so a downstream consumer (or a post-crash
/// inspection) sees every completed record, and a closed pipe (`| head`)
/// stops output without failing the batch. A file is buffered (flushed at
/// compaction points and at the end). Its first write error is kept,
/// later lines are dropped, and [`RecordSink::flush`] reports the error:
/// a truncated shard output would poison the merge.
///
/// Every line also feeds the rolling [`OutputFingerprint`] that journal
/// compaction snapshots.
pub struct RecordSink {
    dest: Dest,
    fingerprint: OutputFingerprint,
    write_error: Option<std::io::Error>,
}

enum Dest {
    Stdout {
        w: StdoutLock<'static>,
        closed: bool,
    },
    File(BufWriter<File>),
}

impl RecordSink {
    /// Record lines to the file at `path` (created or truncated), or to
    /// stdout when `path` is `None`.
    pub fn open(path: Option<&Path>) -> std::io::Result<RecordSink> {
        Ok(RecordSink::new(match path {
            Some(path) => Dest::File(BufWriter::new(File::create(path)?)),
            None => Dest::Stdout {
                w: std::io::stdout().lock(),
                closed: false,
            },
        }))
    }

    fn new(dest: Dest) -> RecordSink {
        RecordSink {
            dest,
            fingerprint: OutputFingerprint::new(),
            write_error: None,
        }
    }

    /// Writes one record's line.
    pub fn emit(&mut self, result: &Result<ExtractedRecord, EngineError>) {
        let line = outcome_line(result);
        self.fingerprint.add_line(&line);
        match &mut self.dest {
            Dest::Stdout { w, closed } => {
                if !*closed && (writeln!(w, "{line}").is_err() || w.flush().is_err()) {
                    *closed = true;
                }
            }
            Dest::File(w) => {
                if self.write_error.is_none() {
                    if let Err(e) = writeln!(w, "{line}") {
                        self.write_error = Some(e);
                    }
                }
            }
        }
    }

    /// Pushes buffered lines to the file, or reports the first write
    /// error. A no-op for stdout, which flushes per line.
    pub fn flush(&mut self) -> std::io::Result<()> {
        match &mut self.dest {
            Dest::Stdout { .. } => Ok(()),
            Dest::File(w) => match self.write_error.take() {
                Some(e) => Err(e),
                None => w.flush(),
            },
        }
    }
}

/// The durable files of a journaled run, and what to do with the ones
/// already on disk.
#[derive(Debug, Clone, Copy)]
pub struct JournalRun<'a> {
    /// The write-ahead journal.
    pub journal: &'a Path,
    /// Record lines go to this file, or to stdout when `None`.
    pub output: Option<&'a Path>,
    /// Continue from the journal if it holds a manifest; otherwise (and
    /// always when `false`) start a fresh journal and output.
    pub resume: bool,
    /// Compact the journal after every `compact_every` records this run
    /// journals; `0` never compacts.
    pub compact_every: u64,
}

/// Progress [`run_journaled`] reports while it runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RunEvent {
    /// A resume replayed its journal, which accounts for `start` records.
    /// `replayed` of them were re-emitted from entry lines; the rest
    /// precede the compaction snapshot and were emitted by an earlier run.
    Resumed {
        /// Records the journal accounts for.
        start: usize,
        /// Entry lines streamed back to the output.
        replayed: usize,
    },
    /// The `n`-th record of this run (1-based) is journaled and emitted.
    Journaled(u64),
}

/// What a journaled run did.
#[derive(Debug)]
pub struct JournalOutcome {
    /// The engine's metrics. The deterministic counts (`records`,
    /// `errors`, `methods`, `degradation`) cover every record the journal
    /// accounts for, compacted and replayed ones included.
    pub metrics: EngineMetrics,
    /// Records the journal accounts for, replayed ones included.
    pub completed: usize,
    /// The I/O failure that ended the run early, if one did. The journal
    /// is then a valid prefix, and nothing was emitted beyond it.
    pub abort: Option<String>,
}

/// Why a journaled run processed no record at all.
#[derive(Debug)]
pub enum JournalRunError {
    /// The journal cannot be resumed as this run (another manifest, a
    /// corrupt journal, an output prefix that is missing or was
    /// modified), or the output file could not be opened.
    Refused(String),
    /// Creating or reopening the journal failed.
    Journal(String),
}

impl std::fmt::Display for JournalRunError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            JournalRunError::Refused(why) | JournalRunError::Journal(why) => f.write_str(why),
        }
    }
}

impl std::error::Error for JournalRunError {}

/// Labels an I/O failure on a durability path with its class (ENOSPC,
/// permission, …), the "why" printed beside a clean abort.
fn io_fault(action: &str, path: &str, e: &std::io::Error) -> String {
    let class = match e.kind() {
        std::io::ErrorKind::StorageFull => "disk full (ENOSPC)",
        std::io::ErrorKind::PermissionDenied => "permission denied",
        std::io::ErrorKind::WriteZero => "write made no progress",
        _ => "I/O error",
    };
    format!("{action} {path}: {class} ({e})")
}

/// Runs `feed` (the whole corpus `manifest` describes, in order) through
/// `engine` under the write-ahead journal at `run.journal`, resuming from
/// it when asked. See the module docs for the protocol. `on_event` sees
/// the resume and every newly journaled record.
pub fn run_journaled<I>(
    engine: Engine,
    manifest: &RunManifest,
    feed: I,
    run: JournalRun<'_>,
    mut on_event: impl FnMut(RunEvent),
) -> Result<JournalOutcome, JournalRunError>
where
    I: Iterator<Item = String> + Send,
{
    let journal = run.journal.display().to_string();
    let output = run
        .output
        .map_or_else(|| "stdout".to_string(), |p| p.display().to_string());
    let refused = |why: String| JournalRunError::Refused(format!("cannot resume {journal}: {why}"));
    let open_output = || {
        RecordSink::open(run.output)
            .map_err(|e| JournalRunError::Refused(format!("creating {output}: {e}")))
    };
    // A journal that died at birth — the crash or ENOSPC hit before the
    // manifest line was complete — holds nothing and proves nothing was
    // emitted (the manifest precedes every record). Resume heals it by
    // starting fresh, like a torn tail.
    let born = File::open(run.journal).is_ok_and(|f| {
        let mut first = Vec::new();
        BufReader::new(f).read_until(b'\n', &mut first).is_ok() && first.ends_with(b"\n")
    });
    let mut counts = EngineMetrics::default();
    let (mut writer, start, mut sink) = if run.resume && born {
        let mut replay = JournalReplay::open(run.journal).map_err(|e| refused(e.to_string()))?;
        if let Some(why) = replay.manifest().mismatch(manifest) {
            return Err(refused(why));
        }
        // A compacted journal has no entries left for the records before
        // its snapshot: a file output must still hold them. The snapshot's
        // rolling fingerprint carries the output identity across the gap.
        let mut sink = match (replay.snapshot(), run.output) {
            (Some(snap), Some(path)) => RecordSink::new(Dest::File(BufWriter::new(
                truncate_to_snapshot(path, snap).map_err(refused)?,
            ))),
            _ => open_output()?,
        };
        if let Some(snap) = replay.snapshot() {
            sink.fingerprint = OutputFingerprint::from_hex(&snap.output_fingerprint)
                .ok_or_else(|| refused("corrupt snapshot".to_string()))?;
            counts = EngineMetrics {
                records: snap.records,
                errors: snap.errors,
                methods: snap.methods,
                degradation: snap.degradation,
                ..EngineMetrics::default()
            };
        }
        // Stream the journaled prefix straight to the output, O(one
        // entry) memory, so the final output is byte-identical to an
        // uninterrupted run.
        let mut replayed = 0;
        while let Some(step) = replay.next_entry() {
            let entry = step.map_err(|e| refused(e.to_string()))?;
            counts.count(&entry.output);
            sink.emit(&entry.output);
            replayed += 1;
        }
        let start = replay.completed();
        on_event(RunEvent::Resumed { start, replayed });
        let writer = JournalWriter::append_to(run.journal, replay.valid_len()).map_err(|e| {
            JournalRunError::Journal(format!(
                "{}; the journal is untouched",
                io_fault("reopening", &journal, &e)
            ))
        })?;
        (writer, start, sink)
    } else {
        let writer = JournalWriter::create(run.journal, manifest)
            .map_err(|e| JournalRunError::Journal(io_fault("creating", &journal, &e)))?;
        (writer, 0, open_output()?)
    };

    // An abort must stop the feeder, so the engine always has a shutdown
    // flag: the caller's (a signal handler's) when it installed one.
    let stop = engine.shutdown.clone().unwrap_or_default();
    let engine = engine.with_shutdown(Arc::clone(&stop));
    let mut journaled = 0u64;
    let mut abort: Option<String> = None;
    let metrics = engine.extract_counted(counts, feed.skip(start), |idx, result, counted| {
        if abort.is_some() {
            return;
        }
        let step = (|| {
            if let Some(inj) = cmr_failpoint::io_inject("shard::kill") {
                return Err(format!("killed before journaling: {}", inj.into_io_error()));
            }
            let entry = JournalEntry {
                index: start + idx,
                output: result,
            };
            writer
                .append(&entry)
                .map_err(|e| io_fault("writing", &journal, &e))?;
            sink.emit(&entry.output);
            if let Some(e) = sink.write_error.take() {
                // Journaled but not durable on the output: resume rebuilds
                // the output from the journal.
                return Err(io_fault("writing", &output, &e));
            }
            journaled += 1;
            on_event(RunEvent::Journaled(journaled));
            if run.compact_every > 0 && journaled.is_multiple_of(run.compact_every) {
                sink.flush().map_err(|e| io_fault("writing", &output, &e))?;
                let snap = Snapshot {
                    completed: start + journaled as usize,
                    output_fingerprint: sink.fingerprint.as_hex(),
                    records: counted.records,
                    errors: counted.errors,
                    methods: counted.methods,
                    degradation: counted.degradation,
                };
                // On error the old journal is untouched and still a valid
                // prefix, so this aborts exactly like a failed append.
                writer = JournalWriter::compact(run.journal, manifest, &snap)
                    .map_err(|e| io_fault("compacting", &journal, &e))?;
            }
            Ok(())
        })();
        if let Err(why) = step {
            abort = Some(why);
            stop.store(true, Ordering::Relaxed);
        }
    });
    if abort.is_none() {
        abort = sink.flush().err().map(|e| io_fault("writing", &output, &e));
    }
    Ok(JournalOutcome {
        metrics,
        completed: start + journaled as usize,
        abort,
    })
}

/// Opens the output of a compacted journal for appending: proves its
/// first `snap.completed` lines are the ones the snapshot fingerprinted,
/// and drops whatever follows them (the un-journaled tail of a crash).
fn truncate_to_snapshot(path: &Path, snap: &Snapshot) -> Result<File, String> {
    let shown = path.display();
    let mut f = OpenOptions::new()
        .read(true)
        .write(true)
        .open(path)
        .map_err(|e| format!("opening its output file {shown}: {e}"))?;
    let (valid_bytes, _) =
        verify_output_prefix(&mut BufReader::new(&f), snap).map_err(|e| e.to_string())?;
    f.set_len(valid_bytes)
        .and_then(|()| f.seek(SeekFrom::Start(valid_bytes)))
        .map_err(|e| format!("truncating {shown}: {e}"))?;
    Ok(f)
}
