//! The write-ahead run journal: crash-recovery for batch extraction.
//!
//! Format — NDJSON, one flushed line per event:
//!
//! ```text
//! {"version":6,"config_fingerprint":"6c62…","build_fingerprint":"a3f9…","corpus_hash":"08b1…","records":N}
//! {"snapshot":{"completed":K,"output_fingerprint":"5e1c…","records":R,"errors":{…},"methods":{…},"degradation":{…}},"crc":"77aa…"}   (optional, at most one)
//! {"entry":{"index":K,"output":{"Ok":{…extracted record…}}},"crc":"9f3a…"}
//! {"entry":{"index":K+1,"output":{"Err":{"Budget":{"sentences_done":4}}}},"crc":"08b1…"}
//! …
//! ```
//!
//! The first line is the [`RunManifest`]: fingerprints of everything that
//! determines the output bytes (engine config, the `cmr` build with its
//! compiled-in rule assets, the corpus itself), so a resume against a
//! *different* run is rejected instead of silently merging incompatible
//! outputs. Each subsequent line is one completed record, appended from
//! the engine's ordered sink — the sink runs strictly in input order, so
//! a journal is always a contiguous prefix `0..k` of the run. Every entry
//! line carries a trailing FNV-1a checksum of its serialized entry, so a
//! line that *looks* complete but was assembled from torn fragments (or
//! rotted on disk) is caught, not parsed.
//!
//! Crash tolerance: every line is written with a trailing `\n` in one
//! `write_all` followed by a flush, so a process killed mid-write leaves
//! at most one torn final line, which [`read_journal`] detects (no
//! trailing newline) and drops. The reported [`JournalRead::valid_len`]
//! is the byte offset of the last intact line; [`JournalWriter::append_to`]
//! truncates there before appending, so a resumed journal is
//! self-healing. A damaged line that is *not* final — or a complete
//! final line failing its checksum — is structural corruption and is
//! rejected as [`JournalError::Corrupt`] with the byte offset, never
//! silently skipped. Durability is against process death (the threat
//! model here), not OS crash — lines reach the page cache, no fsync per
//! record.
//!
//! Resume contract: replaying the journaled entries and processing the
//! remaining `k..n` records yields output byte-identical to an
//! uninterrupted run, because extraction is deterministic per record and
//! serialization is canonical.
//!
//! Compaction: once a long run has journaled many records, replay
//! cost is O(completed). [`JournalWriter::compact`] rewrites the journal
//! as manifest + one [`Snapshot`] line — the completed count, a rolling
//! [`OutputFingerprint`] over every output line emitted so far, and the
//! deterministic metrics counts of those records — then entries continue
//! from there. Resume against a compacted journal replays only the
//! post-snapshot remainder; the snapshot fingerprint lets the resuming
//! process verify (and truncate to) the prefix already present in a
//! durable output file, and its counts stand in for the entries the
//! compaction discarded, so a resumed run's metrics cover every record. The rewrite goes through a temp
//! file and an atomic rename, so a crash mid-compaction leaves either
//! the old journal or the new one, never a hybrid.
//!
//! Fault injection: the write paths carry `journal::manifest`,
//! `journal::append`, `journal::truncate`, and `journal::compact`
//! failpoints (see cmr-failpoint; no-ops unless built with
//! `--features failpoints`).

use crate::engine::{EngineConfig, EngineError};
use crate::metrics::{DegradationTotals, ErrorCounts, MethodCounts};
use cmr_core::ExtractedRecord;
use serde::{Deserialize, Serialize};
use std::fs::{File, OpenOptions};
use std::io::{BufRead, BufReader, Read, Seek, SeekFrom, Write};
use std::path::Path;
use std::sync::OnceLock;

/// Journal format version; bumped on any incompatible layout change, and
/// the only version this build reads. v2 added the per-line entry
/// checksum; v3 added the optional compaction snapshot line; v4 entry
/// lines carry records with a per-field `methods` map and top-level
/// `parse_failures`; v5 snapshots carry the metrics counts of the
/// records they summarize; v6 manifests fingerprint the build that wrote
/// them instead of the asset lint's findings.
pub const JOURNAL_VERSION: u32 = 6;

/// Identity of a run: everything that determines its output bytes.
///
/// The three fingerprints are stored as 16-digit hex strings, not JSON
/// numbers: a u64 hash routinely exceeds `i64::MAX`, which plain JSON
/// integers (and this workspace's serializer) cannot represent.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct RunManifest {
    /// Journal format version ([`JOURNAL_VERSION`]).
    pub version: u32,
    /// Fingerprint of the output-affecting engine configuration (hex).
    pub config_fingerprint: String,
    /// [`build_fingerprint`] of the executable that wrote the journal
    /// (hex).
    pub build_fingerprint: String,
    /// Hash of the input corpus (order-sensitive, length-prefixed; hex).
    pub corpus_hash: String,
    /// Number of records in the corpus.
    pub records: usize,
}

/// Formats a fingerprint the way [`RunManifest`] stores it.
fn hex(fingerprint: u64) -> String {
    format!("{fingerprint:016x}")
}

impl RunManifest {
    /// The manifest of a fresh run over `texts` with `cfg`. Fails when
    /// the running executable cannot be read for [`build_fingerprint`].
    pub fn for_run(cfg: &EngineConfig, texts: &[String]) -> Result<RunManifest, String> {
        RunManifest::for_corpus(cfg, corpus_hash(texts), texts.len())
    }

    /// The manifest of a fresh run whose corpus was hashed incrementally
    /// (see [`CorpusHasher`]) — the streaming counterpart of
    /// [`RunManifest::for_run`], for corpora never materialized in memory.
    pub fn for_corpus(
        cfg: &EngineConfig,
        corpus_hash: u64,
        records: usize,
    ) -> Result<RunManifest, String> {
        Ok(RunManifest {
            version: JOURNAL_VERSION,
            config_fingerprint: hex(config_fingerprint(cfg)),
            build_fingerprint: hex(build_fingerprint()?),
            corpus_hash: hex(corpus_hash),
            records,
        })
    }

    /// Explains the first incompatibility with `current`, or `None` when a
    /// journal under `self` may be resumed as `current`. Only
    /// [`JOURNAL_VERSION`] is resumable.
    pub fn mismatch(&self, current: &RunManifest) -> Option<String> {
        if self.version != JOURNAL_VERSION {
            return Some(format!(
                "journal format v{} (this build writes v{})",
                self.version, current.version
            ));
        }
        if self.config_fingerprint != current.config_fingerprint {
            return Some("engine configuration changed since the journal was written".into());
        }
        if self.build_fingerprint != current.build_fingerprint {
            return Some("the journal was written by a different cmr build".into());
        }
        if self.records != current.records || self.corpus_hash != current.corpus_hash {
            return Some(format!(
                "input corpus changed ({} records then, {} now)",
                self.records, current.records
            ));
        }
        None
    }
}

/// The one manifest field every format version shares.
#[derive(Deserialize)]
struct ManifestVersion {
    version: u32,
}

/// One journaled record: its input index and its full outcome.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct JournalEntry {
    /// Index in the input stream.
    pub index: usize,
    /// The record's outcome, exactly as the sink saw it.
    pub output: Result<ExtractedRecord, EngineError>,
}

/// On-disk shape of an entry line: the entry plus a trailing checksum of
/// its canonical serialization (16-hex-digit FNV-1a, like the manifest
/// fingerprints). Internal — the public API speaks [`JournalEntry`].
#[derive(Debug, Deserialize)]
struct JournalLine {
    entry: JournalEntry,
    crc: String,
}

/// The checksum a well-formed entry line carries for `entry_json`.
fn line_crc(entry_json: &str) -> String {
    hex(fnv1a(entry_json.as_bytes(), FNV_OFFSET))
}

/// A compaction snapshot: everything resume needs in place of the entry
/// lines the compaction discarded.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct Snapshot {
    /// Records `0..completed` were journaled (and their output emitted)
    /// before the snapshot was taken; entry lines resume at `completed`.
    pub completed: usize,
    /// Rolling [`OutputFingerprint`] over the `completed` output lines
    /// already emitted, as a 16-digit hex string. Lets a resuming
    /// process verify that a durable output file still carries the
    /// exact prefix the snapshot summarizes.
    pub output_fingerprint: String,
    /// [`EngineMetrics::records`](crate::EngineMetrics::records) over
    /// records `0..completed`.
    pub records: u64,
    /// [`EngineMetrics::errors`](crate::EngineMetrics::errors) over
    /// records `0..completed`.
    pub errors: ErrorCounts,
    /// [`EngineMetrics::methods`](crate::EngineMetrics::methods) over
    /// records `0..completed`.
    pub methods: MethodCounts,
    /// [`EngineMetrics::degradation`](crate::EngineMetrics::degradation)
    /// over records `0..completed`.
    pub degradation: DegradationTotals,
}

/// On-disk shape of a snapshot line, mirroring [`JournalLine`].
#[derive(Debug, Deserialize)]
struct SnapshotLine {
    snapshot: Snapshot,
    crc: String,
}

/// Appends manifest and entry lines, one flushed `write_all` per line.
#[derive(Debug)]
pub struct JournalWriter {
    file: File,
}

impl JournalWriter {
    /// Starts a fresh journal at `path` (truncating), writing the manifest
    /// line immediately.
    pub fn create(path: &Path, manifest: &RunManifest) -> std::io::Result<JournalWriter> {
        let mut writer = JournalWriter {
            file: File::create(path)?,
        };
        let line = serde_json::to_string(manifest)
            .map_err(|e| std::io::Error::other(format!("journal serialization failed: {e:?}")))?;
        writer.write_line("journal::manifest", line)?;
        Ok(writer)
    }

    /// Reopens an existing journal for resume: truncates to `valid_len`
    /// (dropping a torn final line, see [`read_journal`]) and positions at
    /// the end for appending.
    pub fn append_to(path: &Path, valid_len: u64) -> std::io::Result<JournalWriter> {
        let mut file = OpenOptions::new().write(true).open(path)?;
        if let Some(inj) = cmr_failpoint::io_inject("journal::truncate") {
            return Err(inj.into_io_error());
        }
        file.set_len(valid_len)?;
        file.seek(SeekFrom::Start(valid_len))?;
        Ok(JournalWriter { file })
    }

    /// Compacts the journal at `path` down to manifest + snapshot and
    /// reopens it for appending, discarding every entry line: resume
    /// cost drops from O(completed) to O(remainder).
    ///
    /// The caller's existing writer for `path` must be dropped first.
    /// The rewrite lands in `<path>.compact-tmp` and is renamed over the
    /// journal atomically, so a crash here leaves either the old journal
    /// or the compacted one — never a torn hybrid. On any error the
    /// original journal is untouched and still valid.
    pub fn compact(
        path: &Path,
        manifest: &RunManifest,
        snapshot: &Snapshot,
    ) -> std::io::Result<JournalWriter> {
        let tmp = path.with_extension("compact-tmp");
        {
            let mut w = JournalWriter {
                file: File::create(&tmp)?,
            };
            let mline = serde_json::to_string(manifest).map_err(|e| {
                std::io::Error::other(format!("journal serialization failed: {e:?}"))
            })?;
            w.write_line("journal::compact", mline)?;
            let sjson = serde_json::to_string(snapshot).map_err(|e| {
                std::io::Error::other(format!("journal serialization failed: {e:?}"))
            })?;
            let crc = line_crc(&sjson);
            w.write_line(
                "journal::compact",
                format!("{{\"snapshot\":{sjson},\"crc\":\"{crc}\"}}"),
            )?;
        }
        if let Some(inj) = cmr_failpoint::io_inject("journal::compact") {
            let _ = std::fs::remove_file(&tmp);
            return Err(inj.into_io_error());
        }
        std::fs::rename(&tmp, path)?;
        let file = OpenOptions::new().append(true).open(path)?;
        Ok(JournalWriter { file })
    }

    /// Appends one completed record, checksummed.
    pub fn append(&mut self, entry: &JournalEntry) -> std::io::Result<()> {
        let entry_json = serde_json::to_string(entry)
            .map_err(|e| std::io::Error::other(format!("journal serialization failed: {e:?}")))?;
        let crc = line_crc(&entry_json);
        self.write_line(
            "journal::append",
            format!("{{\"entry\":{entry_json},\"crc\":\"{crc}\"}}"),
        )
    }

    fn write_line(&mut self, failpoint: &str, mut line: String) -> std::io::Result<()> {
        line.push('\n');
        if let Some(inj) = cmr_failpoint::io_inject(failpoint) {
            if let cmr_failpoint::IoInjection::Partial(n) = inj {
                // A torn write: the prefix lands on disk, then the
                // operation fails — exactly what a kill or a full disk
                // mid-`write` leaves behind.
                let cut = n.min(line.len());
                self.file.write_all(&line.as_bytes()[..cut])?;
                let _ = self.file.flush();
                return Err(cmr_failpoint::IoInjection::Partial(n).into_io_error());
            }
            return Err(inj.into_io_error());
        }
        // One unbuffered write per line: the OS sees whole lines or a
        // single torn tail, never interleaved fragments. The flush is a
        // no-op on `File` but keeps the write-then-flush contract explicit
        // for any buffered writer swapped in later.
        self.file.write_all(line.as_bytes())?;
        self.file.flush()
    }
}

/// A parsed journal: the manifest, the contiguous completed prefix, and
/// where the intact bytes end.
#[derive(Debug)]
pub struct JournalRead {
    /// The manifest from line one.
    pub manifest: RunManifest,
    /// The compaction snapshot, if the journal has been compacted.
    pub snapshot: Option<Snapshot>,
    /// Journaled outcomes for records `snapshot_completed()..completed()`
    /// — from `0` when the journal was never compacted.
    pub entries: Vec<JournalEntry>,
    /// Byte offset just past the last intact line; a torn tail (kill
    /// mid-write) lies beyond it and is dropped on resume.
    pub valid_len: u64,
}

impl JournalRead {
    /// Records covered by the snapshot alone (0 when uncompacted).
    pub fn snapshot_completed(&self) -> usize {
        self.snapshot.as_ref().map_or(0, |s| s.completed)
    }

    /// Total records this journal accounts for: snapshot + entry lines.
    pub fn completed(&self) -> usize {
        self.snapshot_completed() + self.entries.len()
    }
}

/// Why a journal could not be read.
#[derive(Debug)]
pub enum JournalError {
    /// The file could not be read at all.
    Io(std::io::Error),
    /// A structurally impossible journal: an unparseable or
    /// checksum-failing *complete* line, or a gap in the record indices.
    /// Only a torn *final* line (no trailing newline) is tolerated; a
    /// damaged line with intact lines after it is never skipped.
    Corrupt {
        /// 1-based line number.
        line: usize,
        /// Byte offset where the offending line starts.
        offset: u64,
        /// What was wrong with it.
        reason: String,
    },
}

impl std::fmt::Display for JournalError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            JournalError::Io(e) => write!(f, "cannot read journal: {e}"),
            JournalError::Corrupt {
                line,
                offset,
                reason,
            } => {
                write!(
                    f,
                    "journal corrupt at line {line} (byte offset {offset}): {reason}"
                )
            }
        }
    }
}

impl std::error::Error for JournalError {}

impl From<std::io::Error> for JournalError {
    fn from(e: std::io::Error) -> JournalError {
        JournalError::Io(e)
    }
}

/// Streaming journal reader: validates the manifest (and snapshot, if
/// present) up front, then yields entries one at a time from a buffered
/// reader, so replaying a large journal never materializes it. The same
/// torn-tail and corruption rules as [`read_journal`] apply — in fact
/// `read_journal` is this iterator, collected.
#[derive(Debug)]
pub struct JournalReplay {
    reader: BufReader<File>,
    manifest: RunManifest,
    snapshot: Option<Snapshot>,
    /// A complete line read during open() that turned out to be the
    /// first entry (not a snapshot), held for the first `next_entry`.
    pending: Option<String>,
    next_index: usize,
    entries_seen: usize,
    valid_len: u64,
    line_no: usize,
    done: bool,
}

impl JournalReplay {
    /// Opens the journal at `path`, reading and validating the manifest
    /// line and — when the format version allows it — the optional
    /// snapshot line that may follow.
    pub fn open(path: &Path) -> Result<JournalReplay, JournalError> {
        let mut reader = BufReader::new(File::open(path)?);
        let first = match read_complete_line(&mut reader)? {
            Some(line) => line,
            None => {
                return Err(JournalError::Corrupt {
                    line: 1,
                    offset: 0,
                    reason: "no complete manifest line (journal truncated at birth)".into(),
                })
            }
        };
        let unparsed = |e: serde_json::Error| JournalError::Corrupt {
            line: 1,
            offset: 0,
            reason: format!("manifest does not parse: {e:?}"),
        };
        // Another format version's manifest need not have this version's
        // fields: only its version is read, and the caller's `mismatch`
        // check then reports the version.
        let version = serde_json::from_str::<ManifestVersion>(&first)
            .map_err(unparsed)?
            .version;
        let manifest = if version == JOURNAL_VERSION {
            serde_json::from_str(&first).map_err(unparsed)?
        } else {
            RunManifest {
                version,
                config_fingerprint: String::new(),
                build_fingerprint: String::new(),
                corpus_hash: String::new(),
                records: 0,
            }
        };
        let mut replay = JournalReplay {
            reader,
            valid_len: first.len() as u64 + 1,
            manifest,
            snapshot: None,
            pending: None,
            next_index: 0,
            entries_seen: 0,
            line_no: 1,
            done: false,
        };
        // A journal written by an unsupported format version has lines
        // this reader cannot judge; stop at its manifest.
        if replay.manifest.version != JOURNAL_VERSION {
            replay.done = true;
            return Ok(replay);
        }
        // Peek line 2: a compacted journal carries its snapshot there.
        if let Some(line) = read_complete_line(&mut replay.reader)? {
            if line.contains("\"snapshot\"") {
                let offset = replay.valid_len;
                let parsed: SnapshotLine =
                    serde_json::from_str(&line).map_err(|e| JournalError::Corrupt {
                        line: 2,
                        offset,
                        reason: format!("snapshot does not parse: {e:?}"),
                    })?;
                let sjson =
                    serde_json::to_string(&parsed.snapshot).map_err(|e| JournalError::Corrupt {
                        line: 2,
                        offset,
                        reason: format!("snapshot does not reserialize: {e:?}"),
                    })?;
                let expected = line_crc(&sjson);
                if parsed.crc != expected {
                    return Err(JournalError::Corrupt {
                        line: 2,
                        offset,
                        reason: format!(
                            "snapshot checksum mismatch (line says {}, content hashes to {expected})",
                            parsed.crc
                        ),
                    });
                }
                replay.next_index = parsed.snapshot.completed;
                replay.snapshot = Some(parsed.snapshot);
                replay.line_no = 2;
                replay.valid_len += line.len() as u64 + 1;
            } else {
                replay.pending = Some(line);
            }
        }
        Ok(replay)
    }

    /// The manifest from line one.
    pub fn manifest(&self) -> &RunManifest {
        &self.manifest
    }

    /// The compaction snapshot, if the journal has been compacted.
    pub fn snapshot(&self) -> Option<&Snapshot> {
        self.snapshot.as_ref()
    }

    /// Byte offset just past the last intact line seen so far; final
    /// once `next_entry` has returned `None`.
    pub fn valid_len(&self) -> u64 {
        self.valid_len
    }

    /// Total records accounted for so far: snapshot + entries yielded.
    pub fn completed(&self) -> usize {
        self.snapshot.as_ref().map_or(0, |s| s.completed) + self.entries_seen
    }

    /// The next journaled entry, or `None` at the end of the intact
    /// prefix (a torn trailing line is dropped, not an error). After an
    /// `Err` the iterator is exhausted.
    pub fn next_entry(&mut self) -> Option<Result<JournalEntry, JournalError>> {
        if self.done {
            return None;
        }
        let line = match self.pending.take() {
            Some(line) => line,
            None => match read_complete_line(&mut self.reader) {
                Ok(Some(line)) => line,
                Ok(None) => {
                    self.done = true;
                    return None;
                }
                Err(e) => {
                    self.done = true;
                    return Some(Err(e));
                }
            },
        };
        self.line_no += 1;
        let offset = self.valid_len;
        let line_no = self.line_no;
        let corrupt = |reason: String| JournalError::Corrupt {
            line: line_no,
            offset,
            reason,
        };
        let step = (|| {
            let parsed: JournalLine = serde_json::from_str(&line)
                .map_err(|e| corrupt(format!("entry does not parse: {e:?}")))?;
            let entry_json = serde_json::to_string(&parsed.entry)
                .map_err(|e| corrupt(format!("entry does not reserialize: {e:?}")))?;
            let expected = line_crc(&entry_json);
            if parsed.crc != expected {
                return Err(corrupt(format!(
                    "entry checksum mismatch (line says {}, content hashes to {expected})",
                    parsed.crc
                )));
            }
            if parsed.entry.index != self.next_index {
                return Err(corrupt(format!(
                    "entry index {} where {} was expected (journal must be a contiguous prefix)",
                    parsed.entry.index, self.next_index
                )));
            }
            if self.completed() + 1 > self.manifest.records {
                return Err(corrupt(format!(
                    "{} entries for a {}-record corpus",
                    self.completed() + 1,
                    self.manifest.records
                )));
            }
            Ok(parsed.entry)
        })();
        match step {
            Ok(entry) => {
                self.next_index += 1;
                self.entries_seen += 1;
                self.valid_len += line.len() as u64 + 1;
                Some(Ok(entry))
            }
            Err(e) => {
                self.done = true;
                Some(Err(e))
            }
        }
    }
}

/// Reads one `\n`-terminated line, without the newline. `None` means
/// clean EOF *or* a torn tail (bytes with no trailing newline — a kill
/// mid-write); either way the intact prefix ended before these bytes.
fn read_complete_line(reader: &mut BufReader<File>) -> Result<Option<String>, JournalError> {
    let mut buf = Vec::new();
    reader.read_until(b'\n', &mut buf)?;
    if buf.last() != Some(&b'\n') {
        return Ok(None);
    }
    buf.pop();
    String::from_utf8(buf).map(Some).map_err(|_| {
        // Offset/line bookkeeping lives in the caller; a non-UTF-8
        // complete line is rejected there with context.
        JournalError::Corrupt {
            line: 0,
            offset: 0,
            reason: "complete line is not UTF-8".into(),
        }
    })
}

/// Reads and validates a journal, collecting every entry. Tolerates
/// exactly one torn trailing line (no newline — a kill mid-write);
/// rejects anything else malformed, including checksum failures, with
/// the byte offset of the damage (see [`JournalError::Corrupt`]). For
/// large journals prefer the streaming [`JournalReplay`], which this
/// wraps.
pub fn read_journal(path: &Path) -> Result<JournalRead, JournalError> {
    let mut replay = JournalReplay::open(path)?;
    let mut entries = Vec::new();
    while let Some(step) = replay.next_entry() {
        entries.push(step?);
    }
    Ok(JournalRead {
        manifest: replay.manifest,
        snapshot: replay.snapshot,
        entries,
        valid_len: replay.valid_len,
    })
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

fn fnv1a(bytes: &[u8], mut hash: u64) -> u64 {
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(FNV_PRIME);
    }
    hash
}

/// Fingerprint of the running `cmr` build: an FNV hash of its
/// executable's bytes, read once per process. The rule assets are
/// compiled in, so any rebuild, of assets or of code, changes it.
/// Linux reads `/proc/self/exe`, which opens the running file even after
/// it was replaced on disk; elsewhere the file at `current_exe()` is
/// read. Fails when the executable cannot be read.
pub fn build_fingerprint() -> Result<u64, String> {
    static FINGERPRINT: OnceLock<Result<u64, String>> = OnceLock::new();
    FINGERPRINT
        .get_or_init(|| {
            let exe = if cfg!(target_os = "linux") {
                Ok("/proc/self/exe".into())
            } else {
                std::env::current_exe()
            };
            exe.and_then(|path| File::open(path).and_then(fnv_words))
                .map_err(|e| format!("cannot fingerprint the running cmr build: {e}"))
        })
        .clone()
}

/// FNV over a file, folded a little-endian 64-bit word at a time (the
/// tail byte-wise): a quarter of the multiplies of byte-wise FNV-1a, in
/// a fixed 64 KiB buffer.
fn fnv_words(mut file: File) -> std::io::Result<u64> {
    const CHUNK: u64 = 1 << 16;
    let mut buf = Vec::with_capacity(CHUNK as usize);
    let mut hash = FNV_OFFSET;
    loop {
        buf.clear();
        (&mut file).take(CHUNK).read_to_end(&mut buf)?;
        let mut words = buf.chunks_exact(8);
        for word in &mut words {
            let mut le = [0u8; 8];
            le.copy_from_slice(word);
            hash ^= u64::from_le_bytes(le);
            hash = hash.wrapping_mul(FNV_PRIME);
        }
        hash = fnv1a(words.remainder(), hash);
        if (buf.len() as u64) < CHUNK {
            return Ok(hash);
        }
    }
}

/// Order-sensitive FNV-1a hash of the corpus, with each text
/// length-prefixed so record boundaries are part of the identity.
pub fn corpus_hash(texts: &[String]) -> u64 {
    let mut h = CorpusHasher::new();
    for t in texts {
        h.add(t);
    }
    h.finish()
}

/// Incremental [`corpus_hash`]: feed records one at a time so a corpus
/// streamed from disk is fingerprinted without ever being materialized.
/// `corpus_hash(texts)` and `add`-ing each text produce the same hash.
#[derive(Debug, Clone)]
pub struct CorpusHasher {
    hash: u64,
    records: usize,
}

impl Default for CorpusHasher {
    fn default() -> Self {
        CorpusHasher::new()
    }
}

impl CorpusHasher {
    /// An empty-corpus hasher.
    pub fn new() -> CorpusHasher {
        CorpusHasher {
            hash: FNV_OFFSET,
            records: 0,
        }
    }

    /// Folds in the next record, length-prefixed like [`corpus_hash`].
    pub fn add(&mut self, text: &str) {
        self.hash = fnv1a(&(text.len() as u64).to_le_bytes(), self.hash);
        self.hash = fnv1a(text.as_bytes(), self.hash);
        self.records += 1;
    }

    /// How many records have been folded in.
    pub fn records(&self) -> usize {
        self.records
    }

    /// The corpus hash over everything added so far.
    pub fn finish(&self) -> u64 {
        self.hash
    }
}

/// Rolling hash over emitted output lines — the fingerprint a
/// compaction [`Snapshot`] carries. Each line (without its newline) is
/// folded in length-prefixed, so resume can verify that the first
/// `completed` lines of a durable output file are exactly the ones the
/// snapshot summarizes, and continue the roll from there.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OutputFingerprint {
    hash: u64,
}

impl Default for OutputFingerprint {
    fn default() -> Self {
        OutputFingerprint::new()
    }
}

impl OutputFingerprint {
    /// The fingerprint of zero output lines.
    pub fn new() -> OutputFingerprint {
        OutputFingerprint { hash: FNV_OFFSET }
    }

    /// Restores the rolling state a [`Snapshot`] recorded, so hashing
    /// continues across a process restart. `None` if `hex` is not a
    /// 16-digit hex fingerprint.
    pub fn from_hex(fingerprint: &str) -> Option<OutputFingerprint> {
        if fingerprint.len() != 16 {
            return None;
        }
        u64::from_str_radix(fingerprint, 16)
            .ok()
            .map(|hash| OutputFingerprint { hash })
    }

    /// Folds in the next output line (newline excluded).
    pub fn add_line(&mut self, line: &str) {
        self.hash = fnv1a(&(line.len() as u64).to_le_bytes(), self.hash);
        self.hash = fnv1a(line.as_bytes(), self.hash);
    }

    /// The fingerprint as the 16-digit hex string snapshots store.
    pub fn as_hex(&self) -> String {
        hex(self.hash)
    }
}

/// Verifies that the first `snapshot.completed` lines of `output` are
/// exactly the prefix the snapshot fingerprinted. On success, returns
/// the byte offset just past that prefix (where a resuming process
/// truncates the output file and continues appending) and the restored
/// rolling fingerprint. A short or divergent output file is an error:
/// resume cannot reconstruct a compacted-away prefix.
pub fn verify_output_prefix<R: BufRead>(
    output: &mut R,
    snapshot: &Snapshot,
) -> std::io::Result<(u64, OutputFingerprint)> {
    let mut fp = OutputFingerprint::new();
    let mut offset = 0u64;
    for line_no in 0..snapshot.completed {
        let mut buf = Vec::new();
        output.read_until(b'\n', &mut buf)?;
        if buf.last() != Some(&b'\n') {
            return Err(std::io::Error::other(format!(
                "output file holds {line_no} complete lines but the journal snapshot \
                 covers {}; cannot resume",
                snapshot.completed
            )));
        }
        offset += buf.len() as u64;
        buf.pop();
        let line = String::from_utf8(buf)
            .map_err(|_| std::io::Error::other("output file line is not UTF-8"))?;
        fp.add_line(&line);
    }
    if fp.as_hex() != snapshot.output_fingerprint {
        return Err(std::io::Error::other(format!(
            "output file prefix hashes to {} but the journal snapshot recorded {}; \
             the output was modified since the snapshot — cannot resume",
            fp.as_hex(),
            snapshot.output_fingerprint
        )));
    }
    Ok((offset, fp))
}

/// Fingerprint of the *output-affecting* engine configuration. Scheduling
/// knobs (`jobs`, `queue_depth`) are excluded by design: the engine
/// guarantees byte-identical output for any worker count, so resuming
/// with a different `--jobs` is sound and allowed.
pub fn config_fingerprint(cfg: &EngineConfig) -> u64 {
    let key = format!(
        "{:?}|{:?}|{}|{:?}|{:?}",
        cfg.method, cfg.term_patterns, cfg.salvage, cfg.max_record_millis, cfg.max_record_sentences,
    );
    fnv1a(key.as_bytes(), FNV_OFFSET)
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;

    fn scratch_path(name: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!("cmr-journal-{name}-{}.ndjson", std::process::id()))
    }

    fn manifest() -> RunManifest {
        RunManifest {
            version: JOURNAL_VERSION,
            config_fingerprint: hex(11),
            build_fingerprint: hex(22),
            corpus_hash: hex(33),
            records: 3,
        }
    }

    fn entry(index: usize) -> JournalEntry {
        JournalEntry {
            index,
            output: Err(EngineError::Budget {
                sentences_done: index,
            }),
        }
    }

    #[test]
    fn write_then_read_roundtrips() {
        let path = scratch_path("roundtrip");
        let mut w = JournalWriter::create(&path, &manifest()).unwrap();
        w.append(&entry(0)).unwrap();
        w.append(&entry(1)).unwrap();
        drop(w);
        let read = read_journal(&path).unwrap();
        assert_eq!(read.manifest, manifest());
        assert_eq!(read.entries.len(), 2);
        assert_eq!(read.entries[1].index, 1);
        assert_eq!(
            read.valid_len,
            std::fs::metadata(&path).unwrap().len(),
            "fully intact journal is valid to its end"
        );
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn torn_final_line_is_dropped_and_resume_heals_it() {
        let path = scratch_path("torn");
        let mut w = JournalWriter::create(&path, &manifest()).unwrap();
        w.append(&entry(0)).unwrap();
        drop(w);
        let intact = std::fs::metadata(&path).unwrap().len();
        // Simulate a kill mid-write of entry 1.
        let mut f = OpenOptions::new().append(true).open(&path).unwrap();
        f.write_all(b"{\"index\":1,\"outp").unwrap();
        drop(f);

        let read = read_journal(&path).unwrap();
        assert_eq!(read.entries.len(), 1, "torn line is not an entry");
        assert_eq!(read.valid_len, intact);

        // Resume truncates the tear and appends cleanly.
        let mut w = JournalWriter::append_to(&path, read.valid_len).unwrap();
        w.append(&entry(1)).unwrap();
        drop(w);
        let healed = read_journal(&path).unwrap();
        assert_eq!(healed.entries.len(), 2);
        assert_eq!(healed.entries[1].index, 1);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn gap_in_indices_is_corrupt() {
        let path = scratch_path("gap");
        let mut w = JournalWriter::create(&path, &manifest()).unwrap();
        w.append(&entry(0)).unwrap();
        w.append(&entry(2)).unwrap();
        drop(w);
        assert!(matches!(
            read_journal(&path),
            Err(JournalError::Corrupt { line: 3, .. })
        ));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn garbage_on_a_complete_line_is_corrupt() {
        let path = scratch_path("garbage");
        let w = JournalWriter::create(&path, &manifest()).unwrap();
        drop(w);
        let mut f = OpenOptions::new().append(true).open(&path).unwrap();
        f.write_all(b"not json\n").unwrap();
        drop(f);
        assert!(matches!(
            read_journal(&path),
            Err(JournalError::Corrupt { line: 2, .. })
        ));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn manifest_mismatch_reports_the_reason() {
        let a = manifest();
        assert_eq!(a.mismatch(&a), None);
        let mut b = a.clone();
        b.corpus_hash = hex(99);
        assert!(a.mismatch(&b).unwrap().contains("corpus"));
        let mut c = a.clone();
        c.config_fingerprint = hex(99);
        assert!(a.mismatch(&c).unwrap().contains("configuration"));
        let mut e = a.clone();
        e.build_fingerprint = hex(99);
        assert!(a.mismatch(&e).unwrap().contains("different cmr build"));
        let mut d = a.clone();
        d.version = 0;
        assert!(
            d.mismatch(&a).unwrap().contains("format"),
            "a journal at another format version is not resumable"
        );

        // The hex encoding must survive values above i64::MAX, which JSON
        // integers cannot carry.
        let wide = hex(u64::MAX - 3);
        assert_eq!(wide, "fffffffffffffffc");
    }

    #[test]
    fn damaged_non_final_line_is_rejected_with_byte_offset() {
        let path = scratch_path("damaged-mid");
        let mut w = JournalWriter::create(&path, &manifest()).unwrap();
        w.append(&entry(0)).unwrap();
        w.append(&entry(1)).unwrap();
        drop(w);
        let mut data = std::fs::read(&path).unwrap();
        let manifest_end = data
            .iter()
            .position(|&b| b == b'\n')
            .map(|p| p + 1)
            .unwrap();
        // Flip entry 0's index digit: the line still parses, but the
        // checksum no longer matches the content.
        let needle = b"\"index\":0";
        let pos = (manifest_end..data.len())
            .find(|&i| data[i..].starts_with(needle))
            .unwrap();
        data[pos + needle.len() - 1] = b'9';
        std::fs::write(&path, &data).unwrap();

        match read_journal(&path) {
            Err(JournalError::Corrupt {
                line: 2,
                offset,
                reason,
            }) => {
                assert_eq!(offset, manifest_end as u64, "offset names the damaged line");
                assert!(reason.contains("checksum"), "reason was: {reason}");
            }
            other => panic!("expected Corrupt at line 2, got {other:?}"),
        }
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn bit_rot_on_a_complete_final_line_is_corrupt_not_dropped() {
        let path = scratch_path("rot-final");
        let mut w = JournalWriter::create(&path, &manifest()).unwrap();
        w.append(&entry(0)).unwrap();
        drop(w);
        let mut data = std::fs::read(&path).unwrap();
        let needle = b"\"sentences_done\":0";
        let pos = (0..data.len())
            .find(|&i| data[i..].starts_with(needle))
            .unwrap();
        data[pos + needle.len() - 1] = b'7';
        std::fs::write(&path, &data).unwrap();
        assert!(
            matches!(
                read_journal(&path),
                Err(JournalError::Corrupt { line: 2, .. })
            ),
            "a complete line failing its checksum is corruption even at the tail"
        );
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn old_format_version_surfaces_via_manifest_mismatch_not_corruption() {
        let path = scratch_path("v1");
        // A v1 journal: no per-line checksums, version 1 in the manifest.
        std::fs::write(
            &path,
            concat!(
                "{\"version\":1,\"config_fingerprint\":\"000000000000000b\",",
                "\"asset_fingerprint\":\"0000000000000016\",",
                "\"corpus_hash\":\"0000000000000021\",\"records\":3}\n",
                "{\"index\":0,\"output\":{\"Err\":{\"Budget\":{\"sentences_done\":0}}}}\n",
            ),
        )
        .unwrap();
        let read = read_journal(&path).unwrap();
        assert_eq!(read.entries.len(), 0, "old entries are not interpreted");
        let why = read.manifest.mismatch(&manifest()).unwrap();
        assert!(why.contains("format"), "mismatch was: {why}");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn compact_then_resume_replays_only_the_remainder() {
        let path = scratch_path("compact");
        let mut m = manifest();
        m.records = 6;
        let mut w = JournalWriter::create(&path, &m).unwrap();
        let mut fp = OutputFingerprint::new();
        for i in 0..4 {
            w.append(&entry(i)).unwrap();
            fp.add_line(&format!("output line {i}"));
        }
        drop(w);

        let snap = Snapshot {
            completed: 4,
            output_fingerprint: fp.as_hex(),
            records: 3,
            errors: ErrorCounts {
                budget: 1,
                ..ErrorCounts::default()
            },
            methods: MethodCounts {
                link_grammar: 20,
                pattern: 7,
                ..MethodCounts::default()
            },
            degradation: DegradationTotals {
                parse_failures: 2,
                degraded_records: 1,
            },
        };
        let mut w = JournalWriter::compact(&path, &m, &snap).unwrap();
        w.append(&entry(4)).unwrap();
        drop(w);

        let read = read_journal(&path).unwrap();
        assert_eq!(
            read.snapshot.as_ref(),
            Some(&snap),
            "the snapshot's counts survive the round trip"
        );
        assert_eq!(read.snapshot_completed(), 4);
        assert_eq!(read.entries.len(), 1, "only the post-snapshot remainder");
        assert_eq!(read.entries[0].index, 4);
        assert_eq!(read.completed(), 5);
        let lines = std::fs::read_to_string(&path).unwrap().lines().count();
        assert_eq!(lines, 3, "manifest + snapshot + one entry");

        // Resume heals and appends past the snapshot.
        let mut w = JournalWriter::append_to(&path, read.valid_len).unwrap();
        w.append(&entry(5)).unwrap();
        drop(w);
        let healed = read_journal(&path).unwrap();
        assert_eq!(healed.completed(), 6);
        assert_eq!(healed.entries.last().unwrap().index, 5);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn streaming_replay_yields_what_read_journal_collects() {
        let path = scratch_path("replay");
        let mut w = JournalWriter::create(&path, &manifest()).unwrap();
        w.append(&entry(0)).unwrap();
        w.append(&entry(1)).unwrap();
        drop(w);
        let collected = read_journal(&path).unwrap();
        let mut replay = JournalReplay::open(&path).unwrap();
        assert_eq!(replay.manifest(), &collected.manifest);
        let mut n = 0;
        while let Some(step) = replay.next_entry() {
            assert_eq!(step.unwrap().index, collected.entries[n].index);
            n += 1;
        }
        assert_eq!(n, collected.entries.len());
        assert_eq!(replay.valid_len(), collected.valid_len);
        assert_eq!(replay.completed(), 2);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn snapshot_checksum_is_validated() {
        let path = scratch_path("snap-crc");
        let m = manifest();
        let w = JournalWriter::create(&path, &m).unwrap();
        drop(w);
        let snapshot = serde_json::to_string(&Snapshot {
            completed: 2,
            output_fingerprint: "00000000000000aa".into(),
            ..Snapshot::default()
        })
        .unwrap();
        let mut f = OpenOptions::new().append(true).open(&path).unwrap();
        writeln!(
            f,
            "{{\"snapshot\":{snapshot},\"crc\":\"0000000000000000\"}}"
        )
        .unwrap();
        drop(f);
        match read_journal(&path) {
            Err(JournalError::Corrupt {
                line: 2, reason, ..
            }) => {
                assert!(reason.contains("snapshot checksum"), "reason was: {reason}");
            }
            other => panic!("expected snapshot corruption, got {other:?}"),
        }
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn build_fingerprint_reads_the_executable_and_folds_every_byte() {
        assert!(build_fingerprint().is_ok(), "the test binary is readable");
        let path = scratch_path("words");
        // 20 bytes: two whole words and a 4-byte tail.
        let bytes: Vec<u8> = (1..=20).collect();
        std::fs::write(&path, &bytes).unwrap();
        let whole = fnv_words(File::open(&path).unwrap()).unwrap();
        let mut flipped = bytes.clone();
        flipped[19] ^= 1;
        std::fs::write(&path, &flipped).unwrap();
        assert_ne!(fnv_words(File::open(&path).unwrap()).unwrap(), whole);
        std::fs::write(&path, [&bytes[..], &[0]].concat()).unwrap();
        assert_ne!(
            fnv_words(File::open(&path).unwrap()).unwrap(),
            whole,
            "a trailing zero byte changes the fingerprint"
        );
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn output_fingerprint_roundtrips_through_hex() {
        let mut a = OutputFingerprint::new();
        a.add_line("{\"x\":1}");
        a.add_line("{\"x\":2}");
        let restored = OutputFingerprint::from_hex(&a.as_hex()).unwrap();
        let mut b = restored;
        let mut c = a;
        b.add_line("tail");
        c.add_line("tail");
        assert_eq!(b, c, "rolling state survives the hex round-trip");
        assert!(OutputFingerprint::from_hex("xyz").is_none());

        let mut split = OutputFingerprint::new();
        split.add_line("ab");
        split.add_line("c");
        let mut joined = OutputFingerprint::new();
        joined.add_line("abc");
        assert_ne!(split, joined, "line boundaries are part of the identity");
    }

    #[test]
    fn corpus_hasher_matches_batch_hash() {
        let texts: Vec<String> = vec!["alpha".into(), "beta".into(), "".into()];
        let mut h = CorpusHasher::new();
        for t in &texts {
            h.add(t);
        }
        assert_eq!(h.finish(), corpus_hash(&texts));
        assert_eq!(h.records(), 3);
    }

    #[test]
    fn corpus_hash_is_order_and_boundary_sensitive() {
        let ab = corpus_hash(&["ab".into(), "c".into()]);
        let a_bc = corpus_hash(&["a".into(), "bc".into()]);
        let reversed = corpus_hash(&["c".into(), "ab".into()]);
        assert_ne!(ab, a_bc, "length prefix separates boundaries");
        assert_ne!(ab, reversed, "order matters");
        assert_eq!(ab, corpus_hash(&["ab".into(), "c".into()]));
    }
}
