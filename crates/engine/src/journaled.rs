//! The journaled run: write-ahead batch extraction that survives a crash.
//!
//! [`run_journaled`] is the one loop behind `cmr extract --journal` and
//! the I/O fault sweep. Per record, in input order, it appends the
//! journal entry and only then emits the output line (and, for a failed
//! record, the quarantine entry), so every line a consumer has seen is
//! recoverable from the journal.
//!
//! * **Resume.** A journal that died at birth (no complete manifest
//!   line) is started fresh. Otherwise the manifest must match this run.
//!   The journaled prefix streams back to the output and the quarantine
//!   (the feed, read in step, gives failed records' texts), and only the
//!   remainder is extracted. After a compaction the output file's prefix
//!   is verified against the snapshot fingerprint, the quarantine keeps
//!   its entries before the snapshot, and the rest is truncated. The
//!   run's metrics start from the snapshot's counts, and every replayed
//!   entry is counted the way the engine counts a live record, so they
//!   cover the whole corpus.
//! * **Compaction.** Every `compact_every` records this run journals, the
//!   output and the quarantine are flushed and then the journal is
//!   rewritten as manifest + snapshot, which carries the counts of every
//!   record so far. The flush comes first: the snapshot may only
//!   describe bytes that survive a crash.
//! * **Clean abort.** An I/O failure on the journal, the output or the
//!   quarantine raises the engine's shutdown flag. In-flight records
//!   drain without being journaled or emitted, and the journal stays a
//!   valid prefix that a later resume completes.
//!
//! Fault injection: the `shard::kill` failpoint is checked before each
//! record is journaled; a fire stands in for the process dying there.

use crate::engine::{Engine, EngineError};
use crate::journal::{
    verify_output_prefix, JournalEntry, JournalReplay, JournalWriter, OutputFingerprint,
    RunManifest, Snapshot,
};
use crate::metrics::EngineMetrics;
use crate::quarantine::QuarantineFile;
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
/// record, and with a quarantine attached one
/// [`QuarantineEntry`](crate::QuarantineEntry) per failed record, both in
/// stream order on the emitting thread.
///
/// Stdout is flushed per line, so a downstream consumer (or a post-crash
/// inspection) sees every completed record, and a closed pipe (`| head`)
/// stops output without failing the batch. A file is buffered (flushed at
/// compaction points and at the end), and so is the quarantine. The first
/// write error on either file is kept, later lines are dropped, and
/// [`RecordSink::flush`] reports the error: a truncated shard output
/// would poison the merge.
///
/// Every output line also feeds the rolling [`OutputFingerprint`] that
/// journal compaction snapshots.
pub struct RecordSink {
    dest: Dest,
    quarantine: Option<QuarantineFile>,
    fingerprint: OutputFingerprint,
    /// The first failed write, described.
    write_error: Option<String>,
}

enum Dest {
    Stdout {
        w: StdoutLock<'static>,
        closed: bool,
    },
    /// A buffered file, and its path as error messages show it.
    File(BufWriter<File>, String),
}

impl RecordSink {
    /// Record lines to the file at `output` (created or truncated), or to
    /// stdout when it is `None`; failed records to the quarantine file at
    /// `quarantine` (created or truncated), when given.
    pub fn open(output: Option<&Path>, quarantine: Option<&Path>) -> Result<RecordSink, String> {
        RecordSink::reopen(output, quarantine, None)
    }

    /// [`RecordSink::open`] for a resumed run whose journal was compacted
    /// at `snapshot`: the output file keeps the lines the snapshot
    /// fingerprinted, the quarantine its entries before the snapshot, and
    /// what follows either is dropped.
    fn reopen(
        output: Option<&Path>,
        quarantine: Option<&Path>,
        snapshot: Option<&Snapshot>,
    ) -> Result<RecordSink, String> {
        let dest = match output {
            Some(path) => {
                let file = match snapshot {
                    Some(snap) => truncate_to_snapshot(path, "output", |r| {
                        verify_output_prefix(r, snap).map(|(valid_bytes, _)| valid_bytes)
                    })?,
                    None => File::create(path)
                        .map_err(|e| format!("creating {}: {e}", path.display()))?,
                };
                Dest::File(BufWriter::new(file), path.display().to_string())
            }
            None => Dest::Stdout {
                w: std::io::stdout().lock(),
                closed: false,
            },
        };
        let fingerprint = match snapshot {
            Some(snap) => OutputFingerprint::from_hex(&snap.output_fingerprint)
                .ok_or_else(|| "corrupt snapshot".to_string())?,
            None => OutputFingerprint::new(),
        };
        Ok(RecordSink {
            dest,
            quarantine: quarantine
                .map(|path| QuarantineFile::open(path, snapshot))
                .transpose()?,
            fingerprint,
            write_error: None,
        })
    }

    /// Writes record `index`'s line and, when it failed and a quarantine
    /// is attached, its quarantine entry with `text`, the record's text.
    pub(crate) fn emit(
        &mut self,
        index: usize,
        result: &Result<ExtractedRecord, EngineError>,
        text: Option<String>,
    ) {
        let line = outcome_line(result);
        self.fingerprint.add_line(&line);
        match &mut self.dest {
            Dest::Stdout { w, closed } => {
                if !*closed && (writeln!(w, "{line}").is_err() || w.flush().is_err()) {
                    *closed = true;
                }
            }
            Dest::File(w, name) => {
                if self.write_error.is_none() {
                    if let Err(e) = writeln!(w, "{line}") {
                        self.write_error = Some(io_fault("writing", name, &e));
                    }
                }
            }
        }
        if let (Err(error), Some(q)) = (result, &mut self.quarantine) {
            if self.write_error.is_none() {
                self.write_error = q.append(index, text.unwrap_or_default(), error).err();
            }
        }
    }

    /// Pushes buffered lines to the output file and the quarantine, or
    /// reports the first write error. Stdout flushes per line.
    pub fn flush(&mut self) -> Result<(), String> {
        if let Some(why) = self.write_error.take() {
            return Err(why);
        }
        if let Dest::File(w, name) = &mut self.dest {
            w.flush().map_err(|e| io_fault("writing", name, &e))?;
        }
        if let Some(q) = &mut self.quarantine {
            q.flush()?;
        }
        Ok(())
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
    /// Failed records go to this quarantine file, when given.
    pub quarantine: Option<&'a Path>,
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
    /// corrupt journal, a missing or modified output prefix, too few
    /// quarantine entries), or the output or quarantine can't be opened.
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
pub(crate) fn io_fault(action: &str, path: &str, e: &std::io::Error) -> String {
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
    mut feed: I,
    run: JournalRun<'_>,
    mut on_event: impl FnMut(RunEvent),
) -> Result<JournalOutcome, JournalRunError>
where
    I: Iterator<Item = String> + Send,
{
    let journal = run.journal.display().to_string();
    let refused = |why: String| JournalRunError::Refused(format!("cannot resume {journal}: {why}"));
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
        // its snapshot: a file output and the quarantine must still hold
        // them. The snapshot's rolling fingerprint carries the output
        // identity across the gap.
        let snapshot = replay.snapshot();
        let mut sink = RecordSink::reopen(run.output, run.quarantine, snapshot).map_err(refused)?;
        if let Some(snap) = snapshot {
            counts = EngineMetrics {
                records: snap.records,
                errors: snap.errors,
                methods: snap.methods,
                degradation: snap.degradation,
                ..EngineMetrics::default()
            };
            feed.by_ref().take(snap.completed).for_each(drop);
        }
        // Stream the journaled prefix straight to the output and the
        // quarantine, O(one entry) memory, so both end byte-identical to
        // an uninterrupted run. The feed is read in step for the failed
        // records' texts.
        let mut replayed = 0;
        while let Some(step) = replay.next_entry() {
            let entry = step.map_err(|e| refused(e.to_string()))?;
            counts.count(&entry.output);
            sink.emit(entry.index, &entry.output, feed.next());
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
        let sink =
            RecordSink::open(run.output, run.quarantine).map_err(JournalRunError::Refused)?;
        (writer, 0, sink)
    };

    // An abort must stop the feeder, so the engine always has a shutdown
    // flag: the caller's (a signal handler's) when it installed one.
    let stop = engine.shutdown.clone().unwrap_or_default();
    let engine = engine.with_shutdown(Arc::clone(&stop));
    let mut journaled = 0u64;
    let mut abort: Option<String> = None;
    let metrics = engine.extract_counted(counts, feed, |idx, result, text, counted| {
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
            journaled += 1;
            sink.emit(entry.index, &entry.output, text);
            if let Some(why) = sink.write_error.take() {
                // Journaled but not durable on the output or the
                // quarantine: resume rebuilds both from the journal.
                return Err(why);
            }
            on_event(RunEvent::Journaled(journaled));
            if run.compact_every > 0 && journaled.is_multiple_of(run.compact_every) {
                sink.flush()?;
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
        abort = sink.flush().err();
    }
    Ok(JournalOutcome {
        metrics,
        completed: start + journaled as usize,
        abort,
    })
}

/// Opens the `what` file of a compacted journal for appending: `prefix`
/// proves and measures the part the snapshot covers, and whatever follows
/// it (the un-journaled tail of a crash) is dropped.
pub(crate) fn truncate_to_snapshot(
    path: &Path,
    what: &str,
    prefix: impl FnOnce(&mut BufReader<&File>) -> std::io::Result<u64>,
) -> Result<File, String> {
    let shown = path.display();
    let mut f = OpenOptions::new()
        .read(true)
        .write(true)
        .open(path)
        .map_err(|e| format!("opening its {what} file {shown}: {e}"))?;
    let valid_bytes = prefix(&mut BufReader::new(&f)).map_err(|e| e.to_string())?;
    f.set_len(valid_bytes)
        .and_then(|()| f.seek(SeekFrom::Start(valid_bytes)))
        .map_err(|e| format!("truncating {shown}: {e}"))?;
    Ok(f)
}
