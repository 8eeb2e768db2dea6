//! `cmr` — command-line interface to the extraction system.
//!
//! ```text
//! cmr generate --records 50 --seed 7 --out notes/     # write synthetic notes
//! cmr extract notes/patient_001.txt …                 # notes → JSON lines
//! cmr extract --jobs 4 --stats notes/*.txt            # parallel, with metrics
//! cmr generate --records 200 --out - | cmr extract -  # NDJSON streaming
//! cmr parse "She quit smoking five years ago."        # linkage diagram
//! cmr terms "Significant for diabetes and a midline hernia closure."
//! ```

#![deny(clippy::unwrap_used)]

use cmr::engine::{
    merge_outputs, merge_quarantine, verify_output_prefix, CorpusHasher, JournalReplay,
    OutputFingerprint, ShardSpec, Snapshot,
};
use cmr::prelude::*;
use cmr::serve::ndjson::note_from_line;
use std::fs;
use std::io::{BufRead, Seek, Write};
use std::path::{Path, PathBuf};
use std::process::ExitCode;

/// Graceful-shutdown plumbing: SIGINT/SIGTERM raise one shared flag the
/// engine's feeder and the chaos sweep poll. The handler body is a single
/// relaxed store — async-signal-safe. A second signal while draining
/// falls back to the default disposition (immediate death), so a hung
/// drain can still be killed interactively.
#[cfg(unix)]
mod shutdown {
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::{Arc, OnceLock};

    static FLAG: OnceLock<Arc<AtomicBool>> = OnceLock::new();

    const SIGINT: i32 = 2;
    const SIGTERM: i32 = 15;
    const SIG_DFL: usize = 0;

    extern "C" {
        fn signal(signum: i32, handler: usize) -> usize;
    }

    extern "C" fn on_signal(signum: i32) {
        if let Some(flag) = FLAG.get() {
            flag.store(true, Ordering::Relaxed);
        }
        // Restore the default disposition so the *next* signal kills the
        // process even if the drain wedges.
        unsafe {
            signal(signum, SIG_DFL);
        }
    }

    /// Installs the handlers (idempotent) and returns the shared flag.
    pub fn install() -> Arc<AtomicBool> {
        let flag = Arc::clone(FLAG.get_or_init(|| Arc::new(AtomicBool::new(false))));
        let handler = on_signal as extern "C" fn(i32) as *const () as usize;
        unsafe {
            signal(SIGINT, handler);
            signal(SIGTERM, handler);
        }
        flag
    }

    /// Forwards SIGTERM to a child process, so a draining supervisor
    /// passes its shutdown on and each shard flushes its own journal
    /// (`Child::kill` would SIGKILL, losing the child's drain).
    pub fn terminate(child: &mut std::process::Child) {
        extern "C" {
            fn kill(pid: i32, sig: i32) -> i32;
        }
        unsafe {
            kill(child.id() as i32, SIGTERM);
        }
    }
}

#[cfg(not(unix))]
mod shutdown {
    use std::sync::atomic::AtomicBool;
    use std::sync::Arc;

    /// No signal handling off unix: the flag exists but is never raised.
    pub fn install() -> Arc<AtomicBool> {
        Arc::new(AtomicBool::new(false))
    }

    /// Off unix there is no SIGTERM to forward; hard-kill the child.
    pub fn terminate(child: &mut std::process::Child) {
        let _ = child.kill();
    }
}

/// Exit code for a run that was interrupted but shut down cleanly (journal
/// flushed, in-flight records drained). Distinct from success (0), runtime
/// failure (1), and usage errors (2).
const EXIT_PARTIAL: u8 = 3;

/// Exit code for a run aborted cleanly by an I/O fault on a durability
/// path (ENOSPC or another write failure on the journal): in-flight
/// records drained, the journal is a valid prefix, nothing was emitted
/// that is not journaled. Rerun with `--resume` once the condition is
/// fixed.
const EXIT_IO_FAULT: u8 = 4;

/// Human label for the I/O failure classes the durability paths
/// distinguish (the exit-code taxonomy's "why", printed alongside code 4).
fn classify_io_error(e: &std::io::Error) -> &'static str {
    match e.kind() {
        std::io::ErrorKind::StorageFull => "disk full (ENOSPC)",
        std::io::ErrorKind::PermissionDenied => "permission denied",
        std::io::ErrorKind::WriteZero => "write made no progress",
        _ => "I/O error",
    }
}

/// `outln!`, minus the abort when the consumer hangs up: `cmr parse ... |
/// head` closes stdout early, and a write to a closed pipe must end the
/// output quietly instead of panicking.
macro_rules! outln {
    ($($arg:tt)*) => {{
        use std::io::Write as _;
        let _ = writeln!(std::io::stdout(), $($arg)*);
    }};
}

fn main() -> ExitCode {
    // Fault-injection builds only: arm the schedule in CMR_FAILPOINTS, if
    // any. Plain builds compile none of this (and carry no failpoints).
    #[cfg(feature = "failpoints")]
    if let Err(e) = cmr_failpoint::configure_from_env() {
        eprintln!("cmr: CMR_FAILPOINTS: {e}");
        return ExitCode::from(2);
    }
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(cmd) = args.first() else {
        usage();
        return ExitCode::from(2);
    };
    let rest = &args[1..];
    let result = match cmd.as_str() {
        "generate" => generate(rest),
        "extract" => match extract(rest) {
            Ok(code) => return code,
            Err(e) => Err(e),
        },
        "merge" => match merge(rest) {
            Ok(code) => return code,
            Err(e) => Err(e),
        },
        "orchestrate" => match orchestrate(rest) {
            Ok(code) => return code,
            Err(e) => Err(e),
        },
        "chaos" => match chaos(rest) {
            Ok(code) => return code,
            Err(e) => Err(e),
        },
        "parse" => parse(rest),
        "terms" => terms(rest),
        "lint" => match lint(rest) {
            Ok(code) => return code,
            Err(e) => Err(e),
        },
        "serve" => match serve(rest) {
            Ok(code) => return code,
            Err(e) => Err(e),
        },
        "--help" | "-h" | "help" => {
            usage();
            Ok(())
        }
        other => Err(format!("unknown command `{other}`")),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("cmr: {e}");
            usage();
            ExitCode::from(2)
        }
    }
}

fn usage() {
    eprintln!(
        "cmr — clinical medical record information extraction (Zhou et al., ICDE 2005)\n\
         \n\
         USAGE:\n\
         \u{20}  cmr generate [--records N] [--seed S] [--style V] [--out DIR]\n\
         \u{20}      write synthetic consultation notes (and gold labels as JSON);\n\
         \u{20}      --out - streams records as NDJSON to stdout instead\n\
         \u{20}  cmr extract [--jobs N] [--queue-depth Q] [--stats] [--fail-fast]\n\
         \u{20}              [--journal FILE [--resume] [--compact-every N]] [--retries N]\n\
         \u{20}              [--quarantine FILE] [--timeout-ms MS] [--max-sentences N]\n\
         \u{20}              [--ndjson] [--shard i/N] [--out FILE] [--metrics FILE] FILE...\n\
         \u{20}      extract structured records from note files, one JSON object per line,\n\
         \u{20}      in input order (byte-identical for any --jobs; 0 = one per core);\n\
         \u{20}      FILE of - reads NDJSON records (objects with a \"text\" field, or\n\
         \u{20}      JSON strings) from stdin, --ndjson streams the same format from a\n\
         \u{20}      file in O(queue) memory; --out writes records to FILE instead of\n\
         \u{20}      stdout and --metrics writes the metrics JSON to FILE;\n\
         \u{20}      --shard i/N processes only records with index % N == i (0-based;\n\
         \u{20}      needs --ndjson), for `cmr merge` to recombine; --stats prints\n\
         \u{20}      metrics JSON to stderr; --journal writes a crash-safe NDJSON run\n\
         \u{20}      journal, --resume replays it and finishes only the remaining\n\
         \u{20}      records (output stays byte-identical to an uninterrupted run), and\n\
         \u{20}      --compact-every N truncates the journal to a snapshot line every N\n\
         \u{20}      records so resume replays O(remainder), not O(completed);\n\
         \u{20}      --retries retries transient failures with backoff and --quarantine\n\
         \u{20}      files records that still fail; --timeout-ms sets a per-record\n\
         \u{20}      wall-clock deadline enforced by a watchdog; SIGINT/SIGTERM drain\n\
         \u{20}      in-flight records, flush the journal, and exit 3 (partial run); a\n\
         \u{20}      journal write failure (e.g. ENOSPC) drains and exits 4 (clean I/O\n\
         \u{20}      abort, resumable)\n\
         \u{20}  cmr merge --dir DIR --shards N [--out FILE] [--metrics FILE]\n\
         \u{20}            [--quarantine FILE]\n\
         \u{20}      recombine the artifacts of an N-way sharded run (DIR/shard-i.*)\n\
         \u{20}      into what an unsharded run would have produced: outputs round-robin\n\
         \u{20}      interleaved in input order, metrics summed, quarantines globally\n\
         \u{20}      ordered with kill/resume duplicates dropped\n\
         \u{20}  cmr orchestrate --shards N --dir DIR [--workers K] [--jobs J]\n\
         \u{20}                  [--compact-every N] [--max-restarts R] [--backoff-ms MS]\n\
         \u{20}                  [--out FILE] [--metrics FILE] [--quarantine FILE] CORPUS\n\
         \u{20}      run an N-way sharded extraction of the NDJSON CORPUS under a crash\n\
         \u{20}      supervisor: at most K shard subprocesses at a time (0 = all), each\n\
         \u{20}      journaled in DIR; a shard that dies (signal, panic, exit 4) is\n\
         \u{20}      restarted from its journal with exponential backoff, up to R times;\n\
         \u{20}      when every shard completes the artifacts are merged as `cmr merge`\n\
         \u{20}      would; SIGINT/SIGTERM forward to the shards, drain, and exit 3\n\
         \u{20}  cmr chaos [--noise SPEC] [--seed S] [--records N] [--jobs N] [--stats] [--out FILE]\n\
         \u{20}      corrupt the gold corpus at each noise level (SPEC: `0.3`, `0,0.1,0.3`,\n\
         \u{20}      or `A..B[:STEP]`), extract it, and print the degradation curve;\n\
         \u{20}      --stats adds per-tier field counts, --out writes the report as JSON\n\
         \u{20}      (- for stdout); exits 2 if any worker panicked\n\
         \u{20}  cmr chaos --io-faults standard|SPEC [--seed S] [--records N] [--jobs N] [--out FILE]\n\
         \u{20}      (builds with --features failpoints only) run each seeded I/O fault\n\
         \u{20}      schedule (SPEC in the CMR_FAILPOINTS grammar, e.g.\n\
         \u{20}      `journal::append=enospc@3`) against journaled extraction + resume\n\
         \u{20}      and a service burst; exits 2 on any invariant violation (lost or\n\
         \u{20}      duplicated record, divergent resume, non-deterministic replay)\n\
         \u{20}  cmr parse \"SENTENCE\"\n\
         \u{20}      print the link grammar linkage diagram and constituents\n\
         \u{20}  cmr terms \"TEXT\"\n\
         \u{20}      print the medical terms found in TEXT\n\
         \u{20}  cmr lint [--code] [--format human|json|sarif] [--deny notes|warnings|errors] [--no-color]\n\
         \u{20}      statically analyze the rule assets (dictionary, lexicon, ontology,\n\
         \u{20}      field specs, ID3 config); exits 1 when a finding reaches the --deny\n\
         \u{20}      threshold (default: errors)\n\
         \u{20}  cmr serve [--addr HOST:PORT] [--jobs N] [--queue-depth Q]\n\
         \u{20}            [--timeout-ms MS] [--max-sentences N] [--max-body-mb MB]\n\
         \u{20}      run the resident extraction service (POST /extract,\n\
         \u{20}      POST /extract/batch NDJSON, GET /health, GET /metrics); a full\n\
         \u{20}      queue answers 429 + Retry-After; SIGINT/SIGTERM drain in-flight\n\
         \u{20}      requests and exit 3"
    );
}

/// Parses `--flag value` pairs and `--switch` toggles; returns positionals.
/// A lone `-` is a positional (stdin), not a flag.
fn parse_flags(
    args: &[String],
    flags: &mut [(&str, &mut String)],
    switches: &mut [(&str, &mut bool)],
) -> Result<Vec<String>, String> {
    let mut positional = Vec::new();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        if let Some(name) = a.strip_prefix("--") {
            if let Some(slot) = switches.iter_mut().find(|(n, _)| *n == name) {
                *slot.1 = true;
                continue;
            }
            let slot = flags
                .iter_mut()
                .find(|(n, _)| *n == name)
                .ok_or_else(|| format!("unknown flag --{name}"))?;
            let value = it.next().ok_or_else(|| format!("--{name} needs a value"))?;
            *slot.1 = value.clone();
        } else {
            positional.push(a.clone());
        }
    }
    Ok(positional)
}

fn generate(args: &[String]) -> Result<(), String> {
    let mut records = "50".to_string();
    let mut count = String::new();
    let mut seed = "2005".to_string();
    let mut style = "0".to_string();
    let mut out = "notes".to_string();
    parse_flags(
        args,
        &mut [
            ("records", &mut records),
            ("count", &mut count),
            ("seed", &mut seed),
            ("style", &mut style),
            ("out", &mut out),
        ],
        &mut [],
    )?;
    if !count.is_empty() {
        records = count;
    }
    let n: usize = records
        .parse()
        .map_err(|_| "--records must be an integer".to_string())?;
    let seed: u64 = seed
        .parse()
        .map_err(|_| "--seed must be an integer".to_string())?;
    let style: f64 = style
        .parse()
        .map_err(|_| "--style must be a number".to_string())?;
    // A plan, not a built corpus: records are generated one at a time and
    // dropped after writing, so a million-note corpus streams in O(1)
    // memory while staying byte-identical to `CorpusBuilder::build`.
    let plan = CorpusBuilder::new()
        .records(n)
        .seed(seed)
        .style_variation(style)
        .plan();
    if out == "-" {
        // NDJSON streaming: one full gold record (text included) per line,
        // ready to pipe into `cmr extract -`.
        let stdout = std::io::stdout();
        let mut w = std::io::BufWriter::new(stdout.lock());
        for i in 0..plan.len() {
            let rec = plan.record(i);
            let json = serde_json::to_string(&rec).map_err(|e| e.to_string())?;
            writeln!(w, "{json}").map_err(|e| format!("writing stdout: {e}"))?;
        }
        w.flush().map_err(|e| format!("writing stdout: {e}"))?;
        return Ok(());
    }
    let dir = PathBuf::from(out);
    fs::create_dir_all(&dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
    for i in 0..plan.len() {
        let rec = plan.record(i);
        let path = dir.join(format!("patient_{:03}.txt", rec.patient_id));
        fs::write(&path, &rec.text).map_err(|e| format!("writing {}: {e}", path.display()))?;
        let gold = dir.join(format!("patient_{:03}.gold.json", rec.patient_id));
        let json = serde_json::to_string_pretty(&rec).map_err(|e| e.to_string())?;
        fs::write(&gold, json).map_err(|e| format!("writing {}: {e}", gold.display()))?;
    }
    outln!("wrote {n} notes (+ gold labels) to {}", dir.display());
    Ok(())
}

/// Where extraction's record lines land. Stdout is flushed per line —
/// a downstream consumer (or a post-crash inspection) sees every
/// completed record, and a closed pipe (`| head`) stops output without
/// panicking the batch. An `--out` file is buffered (flushed at
/// compaction points and at the end), and write errors are surfaced
/// instead of swallowed: a truncated shard output would poison the merge.
///
/// Every emitted line also feeds the rolling [`OutputFingerprint`], which
/// journal compaction snapshots so a resume can prove the output prefix
/// on disk is the one the discarded journal entries produced.
struct RecordSink {
    dest: SinkDest,
    failed: u64,
    fingerprint: OutputFingerprint,
    write_error: Option<std::io::Error>,
}

enum SinkDest {
    Stdout {
        w: std::io::StdoutLock<'static>,
        closed: bool,
    },
    File {
        w: std::io::BufWriter<fs::File>,
    },
}

impl RecordSink {
    fn stdout() -> RecordSink {
        RecordSink {
            dest: SinkDest::Stdout {
                w: std::io::stdout().lock(),
                closed: false,
            },
            failed: 0,
            fingerprint: OutputFingerprint::new(),
            write_error: None,
        }
    }

    fn file(f: fs::File) -> RecordSink {
        RecordSink {
            dest: SinkDest::File {
                w: std::io::BufWriter::new(f),
            },
            failed: 0,
            fingerprint: OutputFingerprint::new(),
            write_error: None,
        }
    }

    fn create(path: &str) -> Result<RecordSink, String> {
        let f = fs::File::create(path).map_err(|e| format!("creating {path}: {e}"))?;
        Ok(RecordSink::file(f))
    }

    /// Continues the fingerprint from a compaction snapshot instead of
    /// from the empty stream.
    fn with_fingerprint(mut self, fingerprint: OutputFingerprint) -> RecordSink {
        self.fingerprint = fingerprint;
        self
    }

    /// One line per record, in input order: the record JSON, or an
    /// in-band error object so the stream stays one object per input.
    fn emit(&mut self, result: &Result<ExtractedRecord, EngineError>) {
        let line = match result {
            Ok(rec) => serde_json::to_string(rec).expect("record serializes"),
            Err(e) => {
                self.failed += 1;
                format!(
                    "{{\"error\":{}}}",
                    serde_json::to_string(&e.to_string()).expect("string serializes")
                )
            }
        };
        self.fingerprint.add_line(&line);
        match &mut self.dest {
            SinkDest::Stdout { w, closed } => {
                if !*closed && (writeln!(w, "{line}").is_err() || w.flush().is_err()) {
                    *closed = true;
                }
            }
            SinkDest::File { w } => {
                if self.write_error.is_none() {
                    if let Err(e) = writeln!(w, "{line}") {
                        self.write_error = Some(e);
                    }
                }
            }
        }
    }

    /// Pushes buffered lines to disk (no-op for stdout, which flushes
    /// per line). Compaction must call this first: once the journal
    /// entries are gone, the snapshot fingerprint is only honest about
    /// bytes that survive a crash.
    fn flush(&mut self) -> std::io::Result<()> {
        match &mut self.dest {
            SinkDest::Stdout { .. } => Ok(()),
            SinkDest::File { w } => {
                if let Some(e) = self.write_error.take() {
                    return Err(e);
                }
                w.flush()
            }
        }
    }
}

/// Streams the cleaned note texts of an NDJSON corpus file, optionally
/// keeping only one shard's slice of the global index space. O(one line)
/// memory; the file can be re-read for a second pass (corpus hashing,
/// then feeding), which stdin cannot.
fn ndjson_notes(
    path: &str,
    shard: Option<ShardSpec>,
) -> Result<impl Iterator<Item = String> + Send, String> {
    let f = fs::File::open(path).map_err(|e| format!("opening {path}: {e}"))?;
    Ok(std::io::BufReader::new(f)
        .lines()
        .map_while(Result::ok)
        .filter_map(|l| note_from_line(&l))
        .enumerate()
        .filter(move |(g, _)| shard.is_none_or(|s| s.owns(*g)))
        .map(|(_, text)| text))
}

fn extract(args: &[String]) -> Result<ExitCode, String> {
    let mut jobs = "1".to_string();
    let mut queue_depth = "32".to_string();
    let mut journal = String::new();
    let mut retries = "1".to_string();
    let mut quarantine = String::new();
    let mut timeout_ms = String::new();
    let mut max_sentences = String::new();
    let mut kill_after = String::new();
    let mut shard_spec = String::new();
    let mut out = "-".to_string();
    let mut metrics_out = String::new();
    let mut compact_every = String::new();
    let mut stats = false;
    let mut fail_fast = false;
    let mut resume = false;
    let mut ndjson = false;
    let inputs = parse_flags(
        args,
        &mut [
            ("jobs", &mut jobs),
            ("queue-depth", &mut queue_depth),
            ("journal", &mut journal),
            ("retries", &mut retries),
            ("quarantine", &mut quarantine),
            ("timeout-ms", &mut timeout_ms),
            ("max-sentences", &mut max_sentences),
            ("kill-after", &mut kill_after),
            ("shard", &mut shard_spec),
            ("out", &mut out),
            ("metrics", &mut metrics_out),
            ("compact-every", &mut compact_every),
        ],
        &mut [
            ("stats", &mut stats),
            ("fail-fast", &mut fail_fast),
            ("resume", &mut resume),
            ("ndjson", &mut ndjson),
        ],
    )?;
    if inputs.is_empty() {
        return Err("extract needs at least one file (or - for stdin NDJSON)".to_string());
    }
    if resume && journal.is_empty() {
        return Err("--resume needs --journal".to_string());
    }
    if !kill_after.is_empty() && journal.is_empty() {
        return Err("--kill-after needs --journal (it counts newly journaled records)".to_string());
    }
    if !compact_every.is_empty() && journal.is_empty() {
        return Err("--compact-every needs --journal".to_string());
    }
    if ndjson && inputs.len() != 1 {
        return Err("--ndjson takes exactly one corpus FILE".to_string());
    }
    let jobs: usize = jobs
        .parse()
        .map_err(|_| "--jobs must be an integer".to_string())?;
    let queue_depth: usize = queue_depth
        .parse()
        .map_err(|_| "--queue-depth must be an integer".to_string())?;
    let retries: u32 = retries
        .parse()
        .map_err(|_| "--retries must be an integer".to_string())?;
    let parse_opt = |name: &str, value: &str| -> Result<Option<u64>, String> {
        if value.is_empty() {
            Ok(None)
        } else {
            value
                .parse()
                .map(Some)
                .map_err(|_| format!("--{name} must be an integer"))
        }
    };
    let timeout_ms = parse_opt("timeout-ms", &timeout_ms)?;
    let max_sentences = parse_opt("max-sentences", &max_sentences)?;
    let kill_after = parse_opt("kill-after", &kill_after)?;
    let compact_every = parse_opt("compact-every", &compact_every)?.unwrap_or(0);
    let shard: Option<ShardSpec> = if shard_spec.is_empty() {
        None
    } else {
        Some(ShardSpec::parse(&shard_spec)?)
    };
    let from_stdin = inputs.len() == 1 && inputs[0] == "-";
    // The corpus file of a streamed (--ndjson) run; stdin stays the
    // materialized path because it cannot be re-read for a second pass.
    let ndjson_file: Option<String> = if ndjson && !from_stdin {
        Some(inputs[0].clone())
    } else {
        None
    };
    if shard.is_some() && ndjson_file.is_none() {
        return Err("--shard needs --ndjson with a corpus file (a re-readable input)".to_string());
    }
    let cfg = EngineConfig {
        jobs,
        queue_depth: queue_depth.max(1),
        fail_fast,
        max_record_millis: timeout_ms,
        max_record_sentences: max_sentences.map(|n| n as usize),
        retry: RetryPolicy {
            max_attempts: retries.max(1),
            ..RetryPolicy::default()
        },
        ..EngineConfig::default()
    };
    let shutdown_flag = shutdown::install();
    let mut engine = Engine::new(cfg.clone(), Schema::paper(), Ontology::full())
        .with_shutdown(std::sync::Arc::clone(&shutdown_flag));
    if !quarantine.is_empty() {
        let qpath = PathBuf::from(&quarantine);
        // A resumed run appends: entries from the killed attempt survive,
        // and `cmr merge` dedupes the double-quarantine that a kill
        // between quarantine-append and journal-append leaves behind.
        let file = if resume {
            QuarantineFile::open_append(&qpath)
        } else {
            QuarantineFile::create(&qpath)
        }
        .map_err(|e| format!("opening {quarantine}: {e}"))?;
        // Sharded entries carry their *global* corpus index, so merged
        // quarantine files read like an unsharded run's.
        let file = match shard {
            Some(s) => file.with_index_mapping(s.index, s.total),
            None => file,
        };
        engine = engine.with_quarantine(file);
    }

    let (sink, metrics, partial) = if !journal.is_empty() {
        // Journaled (durable) run. The manifest fingerprints the corpus
        // so a resume against different input is rejected. An --ndjson
        // file corpus streams twice (hash pass, then feed pass) in
        // O(one record) memory; stdin and note files are materialized as
        // before (stdin cannot be re-read, and argv-sized file lists are
        // not the corpus-scale path).
        let (manifest, total, texts): (RunManifest, usize, Option<Vec<String>>) =
            if let Some(corpus) = &ndjson_file {
                let mut hasher = CorpusHasher::new();
                for note in ndjson_notes(corpus, shard)? {
                    hasher.add(&note);
                }
                let total = hasher.records();
                (
                    RunManifest::for_corpus(&cfg, hasher.finish(), total),
                    total,
                    None,
                )
            } else {
                let texts: Vec<String> = if from_stdin {
                    std::io::stdin()
                        .lock()
                        .lines()
                        .map_while(Result::ok)
                        .filter_map(|l| note_from_line(&l))
                        .collect()
                } else {
                    let mut texts = Vec::with_capacity(inputs.len());
                    for path in &inputs {
                        texts.push(
                            fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?,
                        );
                    }
                    texts
                };
                let total = texts.len();
                (RunManifest::for_run(&cfg, &texts), total, Some(texts))
            };
        let jpath = PathBuf::from(&journal);
        // A journal that died at birth — the crash or ENOSPC hit before
        // the manifest line was complete — holds nothing and proves
        // nothing was emitted (write-ahead: the manifest precedes every
        // record). Resume heals it by starting fresh, like a torn tail.
        let journal_born = jpath.exists()
            && fs::read(&jpath)
                .map(|bytes| bytes.contains(&b'\n'))
                .unwrap_or(false);
        // Deterministic counters reconstructed from replayed entries, so
        // a resumed run's metrics cover the whole shard (merged with the
        // engine's own snapshot below).
        let mut replay_metrics = EngineMetrics::default();
        let (mut writer, start, mut sink) = if resume && journal_born {
            let mut replay = JournalReplay::open(&jpath).map_err(|e| e.to_string())?;
            if let Some(why) = replay.manifest().mismatch(&manifest) {
                return Err(format!("cannot resume {journal}: {why}"));
            }
            let snapshot = replay.snapshot().cloned();
            let mut sink = match &snapshot {
                Some(snap) => {
                    // Compacted journal: the pre-snapshot records have no
                    // entries left to replay. The snapshot's rolling
                    // fingerprint carries the output identity across the
                    // gap.
                    let fp = OutputFingerprint::from_hex(&snap.output_fingerprint)
                        .ok_or_else(|| format!("cannot resume {journal}: corrupt snapshot"))?;
                    if out == "-" {
                        eprintln!(
                            "cmr: resuming a compacted journal to stdout: the {} record(s) \
                             before the snapshot were emitted by the previous run and are \
                             not replayed",
                            snap.completed
                        );
                        RecordSink::stdout().with_fingerprint(fp)
                    } else {
                        // Prove the --out file's prefix is the one the
                        // discarded entries produced, drop anything after
                        // it (un-journaled tail from the crash), and
                        // append.
                        let f = fs::File::open(&out).map_err(|e| {
                            format!(
                                "cannot resume a compacted journal without its output \
                                 file {out}: {e}"
                            )
                        })?;
                        let (valid_bytes, _) =
                            verify_output_prefix(&mut std::io::BufReader::new(f), snap)
                                .map_err(|e| format!("cannot resume {journal}: {e}"))?;
                        let mut f = fs::OpenOptions::new()
                            .write(true)
                            .open(&out)
                            .map_err(|e| format!("opening {out}: {e}"))?;
                        f.set_len(valid_bytes)
                            .and_then(|()| f.seek(std::io::SeekFrom::Start(valid_bytes)))
                            .map_err(|e| format!("truncating {out}: {e}"))?;
                        RecordSink::file(f).with_fingerprint(fp)
                    }
                }
                None => {
                    if out == "-" {
                        RecordSink::stdout()
                    } else {
                        // Uncompacted resume rebuilds the output file from
                        // the full replay.
                        RecordSink::create(&out)?
                    }
                }
            };
            // Stream the journaled prefix straight to output — O(one
            // entry) memory — so the final output is byte-identical to an
            // uninterrupted run.
            let mut replayed = 0usize;
            while let Some(step) = replay.next_entry() {
                let entry = step.map_err(|e| e.to_string())?;
                replay_metrics.absorb_replayed(&entry.output);
                sink.emit(&entry.output);
                replayed += 1;
            }
            let start = replay.completed();
            eprintln!(
                "cmr: resuming {journal}: {start}/{total} record(s) already journaled \
                 ({replayed} replayed)"
            );
            let writer = match JournalWriter::append_to(&jpath, replay.valid_len()) {
                Ok(w) => w,
                Err(e) => {
                    eprintln!(
                        "cmr: reopening {journal}: {} ({e})\n\
                         cmr: no records were processed; the journal is untouched",
                        classify_io_error(&e)
                    );
                    return Ok(ExitCode::from(EXIT_IO_FAULT));
                }
            };
            (writer, start, sink)
        } else {
            let writer = match JournalWriter::create(&jpath, &manifest) {
                Ok(w) => w,
                Err(e) => {
                    eprintln!(
                        "cmr: creating {journal}: {} ({e})\n\
                         cmr: no records were processed",
                        classify_io_error(&e)
                    );
                    return Ok(ExitCode::from(EXIT_IO_FAULT));
                }
            };
            let sink = if out == "-" {
                RecordSink::stdout()
            } else {
                RecordSink::create(&out)?
            };
            (writer, 0, sink)
        };

        let feed: Box<dyn Iterator<Item = String> + Send> = match (ndjson_file.as_ref(), texts) {
            (Some(corpus), _) => Box::new(ndjson_notes(corpus, shard)?.skip(start)),
            (None, Some(texts)) => Box::new(texts.into_iter().skip(start)),
            (None, None) => unreachable!("materialized paths always carry texts"),
        };
        let mut abort_error: Option<String> = None;
        let mut newly_journaled = 0u64;
        let mut seen = 0usize;
        let fault_flag = std::sync::Arc::clone(&shutdown_flag);
        let metrics = engine.extract_stream(feed, |idx, result| {
            let entry = JournalEntry {
                index: start + idx,
                output: result,
            };
            // Write-ahead ordering: the journal line lands before the
            // record becomes visible on the output, so every record a
            // consumer has seen is recoverable after a crash. A failed
            // append (ENOSPC, torn write) therefore aborts cleanly: raise
            // the shutdown flag so the pool drains, and emit nothing
            // further — an un-journaled record in the output would be
            // lost to resume.
            if abort_error.is_none() {
                if let Err(e) = writer.append(&entry) {
                    abort_error = Some(format!(
                        "writing {journal}: {} ({e})",
                        classify_io_error(&e)
                    ));
                    fault_flag.store(true, std::sync::atomic::Ordering::Relaxed);
                }
            }
            if abort_error.is_some() {
                return;
            }
            sink.emit(&entry.output);
            if let Some(e) = sink.write_error.take() {
                // The inverse failure: the record is journaled but its
                // output line is not durable. Abort cleanly; resume
                // rebuilds the output from the journal.
                abort_error = Some(format!("writing {out}: {} ({e})", classify_io_error(&e)));
                fault_flag.store(true, std::sync::atomic::Ordering::Relaxed);
                return;
            }
            seen += 1;
            newly_journaled += 1;
            if kill_after == Some(newly_journaled) {
                // Crash-injection hook for the durability tests: die hard
                // (no unwinding, no flushes) right after journaling the
                // N-th new record, like a `kill -9` at the worst moment.
                std::process::abort();
            }
            if compact_every > 0 && newly_journaled.is_multiple_of(compact_every) {
                // The output must be on disk before the entry lines
                // vanish: after compaction the journal proves only the
                // snapshot, whose fingerprint must describe bytes that
                // survive a crash.
                if let Err(e) = sink.flush() {
                    abort_error = Some(format!("writing {out}: {} ({e})", classify_io_error(&e)));
                    fault_flag.store(true, std::sync::atomic::Ordering::Relaxed);
                    return;
                }
                let snap = Snapshot {
                    completed: start + seen,
                    output_fingerprint: sink.fingerprint.as_hex(),
                };
                match JournalWriter::compact(&jpath, &manifest, &snap) {
                    Ok(compacted) => writer = compacted,
                    Err(e) => {
                        // The old journal is untouched on error — still a
                        // valid prefix, so this aborts exactly like a
                        // failed append.
                        abort_error = Some(format!(
                            "compacting {journal}: {} ({e})",
                            classify_io_error(&e)
                        ));
                        fault_flag.store(true, std::sync::atomic::Ordering::Relaxed);
                    }
                }
            }
        });
        let mut metrics = metrics;
        metrics.merge(&replay_metrics);
        let completed = start + seen;
        if abort_error.is_none() {
            if let Err(e) = sink.flush() {
                abort_error = Some(format!("writing {out}: {} ({e})", classify_io_error(&e)));
            }
        }
        if let Some(e) = abort_error {
            eprintln!(
                "cmr: {e}\n\
                 cmr: aborted cleanly — {completed}/{total} record(s) journaled, \
                 nothing emitted beyond the journal; fix the underlying condition \
                 and rerun with --journal {journal} --resume"
            );
            if stats {
                if let Ok(json) = serde_json::to_string_pretty(&metrics) {
                    eprintln!("{json}");
                }
            }
            return Ok(ExitCode::from(EXIT_IO_FAULT));
        }
        if completed < total {
            eprintln!(
                "cmr: interrupted — {completed}/{total} record(s) journaled; \
                 rerun with --journal {journal} --resume to finish"
            );
        }
        (sink, metrics, completed < total)
    } else if let Some(corpus) = &ndjson_file {
        // Streamed, un-journaled corpus run: one pass, O(queue) memory.
        let mut sink = if out == "-" {
            RecordSink::stdout()
        } else {
            RecordSink::create(&out)?
        };
        let metrics = engine.extract_stream(ndjson_notes(corpus, shard)?, |_idx, result| {
            sink.emit(&result);
        });
        sink.flush().map_err(|e| format!("writing {out}: {e}"))?;
        let partial = shutdown_flag.load(std::sync::atomic::Ordering::Relaxed);
        (sink, metrics, partial)
    } else if from_stdin {
        // Stream NDJSON records from stdin through the engine under
        // backpressure: at most `queue_depth` records are buffered.
        // (`StdinLock` is not `Send`, and the feeder thread consumes the
        // iterator — so take the lock per line.)
        let mut sink = if out == "-" {
            RecordSink::stdout()
        } else {
            RecordSink::create(&out)?
        };
        let stdin = std::io::stdin();
        let lines = std::iter::from_fn(move || {
            let mut buf = String::new();
            match stdin.lock().read_line(&mut buf) {
                Ok(0) | Err(_) => None,
                Ok(_) => Some(buf),
            }
        })
        .filter_map(|l| note_from_line(&l));
        let metrics = engine.extract_stream(lines, |_idx, result| {
            sink.emit(&result);
        });
        sink.flush().map_err(|e| format!("writing {out}: {e}"))?;
        // Without a known corpus length, "partial" means the stop was
        // signal-initiated rather than end-of-input.
        let partial = shutdown_flag.load(std::sync::atomic::Ordering::Relaxed);
        (sink, metrics, partial)
    } else {
        // Read the files up front so I/O errors fail the command before
        // any output is produced.
        let mut texts = Vec::with_capacity(inputs.len());
        for path in &inputs {
            texts.push(fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?);
        }
        let total = texts.len();
        let mut sink = if out == "-" {
            RecordSink::stdout()
        } else {
            RecordSink::create(&out)?
        };
        let mut seen = 0usize;
        let metrics = engine.extract_stream(texts.into_iter(), |_idx, result| {
            sink.emit(&result);
            seen += 1;
        });
        sink.flush().map_err(|e| format!("writing {out}: {e}"))?;
        if seen < total {
            eprintln!("cmr: interrupted — {seen}/{total} record(s) extracted");
        }
        (sink, metrics, seen < total)
    };

    if !metrics_out.is_empty() {
        let json = serde_json::to_string_pretty(&metrics).map_err(|e| e.to_string())?;
        fs::write(&metrics_out, format!("{json}\n"))
            .map_err(|e| format!("writing {metrics_out}: {e}"))?;
    }
    if stats {
        // `cli::metrics-dump`: the last write of a batch; a fault here
        // must cost the stats line only, never the records above it.
        if let Some(inj) = cmr_failpoint::io_inject("cli::metrics-dump") {
            eprintln!("cmr: metrics dump failed: {}", inj.into_io_error());
        } else {
            let json = serde_json::to_string_pretty(&metrics).map_err(|e| e.to_string())?;
            eprintln!("{json}");
        }
    }
    if sink.failed > 0 {
        eprintln!(
            "cmr: {} record(s) failed (see in-band \"error\" objects)",
            sink.failed
        );
    }
    Ok(if partial {
        ExitCode::from(EXIT_PARTIAL)
    } else {
        ExitCode::SUCCESS
    })
}

/// Path of one shard's artifact inside the shared run directory, by the
/// convention `cmr orchestrate` writes and `cmr merge` reads:
/// `DIR/shard-<i>.<suffix>`.
fn shard_path(dir: &str, index: usize, suffix: &str) -> PathBuf {
    PathBuf::from(dir).join(format!("shard-{index}.{suffix}"))
}

/// Recombines the artifacts of an `n`-way sharded run under `dir` into
/// unsharded-identical files: outputs round-robin interleaved (required),
/// metrics summed and quarantines deduped (each optional, gated on a
/// destination path). Returns the merged record-line count.
fn merge_artifacts(
    dir: &str,
    n: usize,
    out: &str,
    metrics_out: &str,
    quarantine_out: &str,
) -> Result<u64, String> {
    let mut readers = Vec::with_capacity(n);
    for i in 0..n {
        let p = shard_path(dir, i, "out.ndjson");
        let f = fs::File::open(&p).map_err(|e| format!("opening {}: {e}", p.display()))?;
        readers.push(std::io::BufReader::new(f));
    }
    let lines = if out == "-" {
        let stdout = std::io::stdout();
        let mut w = stdout.lock();
        merge_outputs(&mut readers, &mut w).map_err(|e| e.to_string())?
    } else {
        let f = fs::File::create(out).map_err(|e| format!("creating {out}: {e}"))?;
        let mut w = std::io::BufWriter::new(f);
        let lines = merge_outputs(&mut readers, &mut w).map_err(|e| e.to_string())?;
        w.flush().map_err(|e| format!("writing {out}: {e}"))?;
        lines
    };
    if !metrics_out.is_empty() {
        let mut total = EngineMetrics::default();
        for i in 0..n {
            let p = shard_path(dir, i, "metrics.json");
            let json =
                fs::read_to_string(&p).map_err(|e| format!("reading {}: {e}", p.display()))?;
            let m: EngineMetrics =
                serde_json::from_str(&json).map_err(|e| format!("parsing {}: {e}", p.display()))?;
            total.merge(&m);
        }
        let json = serde_json::to_string_pretty(&total).map_err(|e| e.to_string())?;
        fs::write(metrics_out, format!("{json}\n"))
            .map_err(|e| format!("writing {metrics_out}: {e}"))?;
    }
    if !quarantine_out.is_empty() {
        let mut entries = Vec::new();
        for i in 0..n {
            let p = shard_path(dir, i, "quarantine.ndjson");
            // A shard that never quarantined anything may simply have no
            // file (orchestrate always passes --quarantine, but hand-run
            // shards might not).
            if p.exists() {
                entries.extend(
                    read_quarantine(&p).map_err(|e| format!("reading {}: {e}", p.display()))?,
                );
            }
        }
        let merged = merge_quarantine(entries);
        let mut body = String::new();
        for e in &merged {
            body.push_str(&serde_json::to_string(e).map_err(|e| e.to_string())?);
            body.push('\n');
        }
        fs::write(quarantine_out, body).map_err(|e| format!("writing {quarantine_out}: {e}"))?;
        eprintln!(
            "cmr: merged quarantine: {} record(s) after dedupe",
            merged.len()
        );
    }
    Ok(lines)
}

/// `cmr merge`: recombine an N-way sharded run's artifacts into what the
/// unsharded run would have produced.
fn merge(args: &[String]) -> Result<ExitCode, String> {
    let mut dir = String::new();
    let mut shards = String::new();
    let mut out = "-".to_string();
    let mut metrics_out = String::new();
    let mut quarantine_out = String::new();
    let extra = parse_flags(
        args,
        &mut [
            ("dir", &mut dir),
            ("shards", &mut shards),
            ("out", &mut out),
            ("metrics", &mut metrics_out),
            ("quarantine", &mut quarantine_out),
        ],
        &mut [],
    )?;
    if !extra.is_empty() {
        return Err(format!("merge takes no positional arguments: {extra:?}"));
    }
    if dir.is_empty() {
        return Err("merge needs --dir (the shard artifact directory)".to_string());
    }
    let n: usize = shards
        .parse()
        .map_err(|_| "--shards must be an integer >= 1".to_string())?;
    if n == 0 {
        return Err("--shards must be an integer >= 1".to_string());
    }
    let lines = merge_artifacts(&dir, n, &out, &metrics_out, &quarantine_out)?;
    eprintln!("cmr: merged {lines} record(s) from {n} shard(s)");
    Ok(ExitCode::SUCCESS)
}

/// Spawns one shard subprocess of an `n`-way orchestrated run. `--resume`
/// is always passed: a fresh shard has no journal and starts from zero,
/// a restarted one picks up where its journal proves it left off.
fn spawn_shard(
    exe: &Path,
    corpus: &str,
    dir: &str,
    index: usize,
    n: usize,
    jobs: &str,
    compact_every: &str,
) -> std::io::Result<std::process::Child> {
    if let Some(inj) = cmr_failpoint::io_inject("orchestrate::spawn") {
        return Err(inj.into_io_error());
    }
    let mut cmd = std::process::Command::new(exe);
    cmd.arg("extract")
        .arg("--ndjson")
        .arg("--shard")
        .arg(format!("{index}/{n}"))
        .arg("--jobs")
        .arg(jobs)
        .arg("--journal")
        .arg(shard_path(dir, index, "journal"))
        .arg("--resume")
        .arg("--out")
        .arg(shard_path(dir, index, "out.ndjson"))
        .arg("--metrics")
        .arg(shard_path(dir, index, "metrics.json"))
        .arg("--quarantine")
        .arg(shard_path(dir, index, "quarantine.ndjson"));
    if !compact_every.is_empty() {
        cmd.arg("--compact-every").arg(compact_every);
    }
    cmd.arg(corpus)
        .stdin(std::process::Stdio::null())
        .stdout(std::process::Stdio::null())
        .stderr(std::process::Stdio::inherit());
    cmd.spawn()
}

/// `cmr orchestrate`: crash-supervised sharded extraction. Spawns the N
/// shards as subprocesses (at most `--workers` at a time), restarts any
/// that die — signal kill, panic, or a clean I/O abort (exit 4) — from
/// their journals with exponential backoff, gives a shard up after
/// `--max-restarts` failed attempts, and merges the artifacts once every
/// shard completes. SIGINT/SIGTERM forward to the shards so each drains
/// and flushes its own journal, then the supervisor exits 3.
fn orchestrate(args: &[String]) -> Result<ExitCode, String> {
    use std::time::{Duration, Instant};

    let mut shards = "4".to_string();
    let mut workers = "0".to_string();
    let mut dir = String::new();
    let mut jobs = "1".to_string();
    let mut compact_every = String::new();
    let mut max_restarts = "3".to_string();
    let mut backoff_ms = "200".to_string();
    let mut out = "-".to_string();
    let mut metrics_out = String::new();
    let mut quarantine_out = String::new();
    let inputs = parse_flags(
        args,
        &mut [
            ("shards", &mut shards),
            ("workers", &mut workers),
            ("dir", &mut dir),
            ("jobs", &mut jobs),
            ("compact-every", &mut compact_every),
            ("max-restarts", &mut max_restarts),
            ("backoff-ms", &mut backoff_ms),
            ("out", &mut out),
            ("metrics", &mut metrics_out),
            ("quarantine", &mut quarantine_out),
        ],
        &mut [],
    )?;
    if inputs.len() != 1 {
        return Err("orchestrate needs exactly one NDJSON corpus FILE".to_string());
    }
    let corpus = inputs[0].clone();
    if corpus == "-" {
        return Err(
            "orchestrate needs a corpus file (shards re-read it; stdin is not re-readable)"
                .to_string(),
        );
    }
    if dir.is_empty() {
        return Err("orchestrate needs --dir (the shard artifact directory)".to_string());
    }
    let n: usize = shards
        .parse()
        .map_err(|_| "--shards must be an integer >= 1".to_string())?;
    if n == 0 {
        return Err("--shards must be an integer >= 1".to_string());
    }
    let workers: usize = workers
        .parse()
        .map_err(|_| "--workers must be an integer (0 = all shards at once)".to_string())?;
    let workers = if workers == 0 { n } else { workers };
    let _: usize = jobs
        .parse()
        .map_err(|_| "--jobs must be an integer".to_string())?;
    if !compact_every.is_empty() {
        let _: u64 = compact_every
            .parse()
            .map_err(|_| "--compact-every must be an integer".to_string())?;
    }
    let max_restarts: u32 = max_restarts
        .parse()
        .map_err(|_| "--max-restarts must be an integer".to_string())?;
    let backoff_ms: u64 = backoff_ms
        .parse()
        .map_err(|_| "--backoff-ms must be an integer".to_string())?;
    fs::create_dir_all(&dir).map_err(|e| format!("creating {dir}: {e}"))?;
    let exe = std::env::current_exe().map_err(|e| format!("locating the cmr executable: {e}"))?;
    let shutdown_flag = shutdown::install();

    struct ShardState {
        child: Option<std::process::Child>,
        attempts: u32,
        done: bool,
        gave_up: bool,
        not_before: Instant,
    }
    let now = Instant::now();
    let mut states: Vec<ShardState> = (0..n)
        .map(|_| ShardState {
            child: None,
            attempts: 0,
            done: false,
            gave_up: false,
            not_before: now,
        })
        .collect();
    // One failure-accounting path for every way an attempt can die:
    // schedule a backed-off restart, or give the shard up once the
    // retry budget is spent.
    let record_failure = |s: &mut ShardState, i: usize, why: &str| {
        s.attempts += 1;
        if s.attempts > max_restarts {
            s.gave_up = true;
            eprintln!(
                "cmr: shard {i}/{n}: {why}; retry budget ({max_restarts}) exhausted — giving up"
            );
        } else {
            let delay = backoff_ms
                .saturating_mul(1 << (s.attempts - 1).min(6))
                .min(30_000);
            s.not_before = Instant::now() + Duration::from_millis(delay);
            eprintln!(
                "cmr: shard {i}/{n}: {why}; restart {}/{max_restarts} in {delay} ms \
                 (resuming from its journal)",
                s.attempts
            );
        }
    };

    loop {
        if shutdown_flag.load(std::sync::atomic::Ordering::Relaxed) {
            break;
        }
        // Reap finished children.
        for (i, state) in states.iter_mut().enumerate() {
            let Some(child) = state.child.as_mut() else {
                continue;
            };
            if let Some(inj) = cmr_failpoint::io_inject("orchestrate::wait") {
                // An injected wait failure loses track of the child; the
                // only safe recovery is to kill it and restart from the
                // journal, like any other dead shard.
                eprintln!("cmr: shard {i}/{n}: wait failed: {}", inj.into_io_error());
                let _ = child.kill();
                let _ = child.wait();
                state.child = None;
                record_failure(state, i, "supervisor lost the child");
                continue;
            }
            match child.try_wait() {
                Ok(None) => {}
                Ok(Some(status)) => {
                    state.child = None;
                    match status.code() {
                        Some(0) => {
                            state.done = true;
                            eprintln!("cmr: shard {i}/{n} completed");
                        }
                        Some(2) => {
                            // A usage error is deterministic: the same
                            // argv fails the same way every time, so
                            // restarting is noise.
                            state.gave_up = true;
                            eprintln!("cmr: shard {i}/{n}: exit 2 (usage) — not restartable");
                        }
                        Some(code) => {
                            record_failure(state, i, &format!("exit {code}"));
                        }
                        None => {
                            record_failure(state, i, "killed by a signal");
                        }
                    }
                }
                Err(e) => {
                    let _ = child.kill();
                    let _ = child.wait();
                    state.child = None;
                    record_failure(state, i, &format!("wait failed: {e}"));
                }
            }
        }
        // Spawn (or restart) shards while worker slots are free.
        let mut running = states.iter().filter(|s| s.child.is_some()).count();
        for (i, state) in states.iter_mut().enumerate() {
            if running >= workers {
                break;
            }
            let ready = state.child.is_none()
                && !state.done
                && !state.gave_up
                && Instant::now() >= state.not_before;
            if !ready {
                continue;
            }
            match spawn_shard(&exe, &corpus, &dir, i, n, &jobs, &compact_every) {
                Ok(child) => {
                    state.child = Some(child);
                    running += 1;
                }
                Err(e) => {
                    record_failure(state, i, &format!("spawn failed: {e}"));
                }
            }
        }
        if states.iter().all(|s| s.done || s.gave_up) {
            break;
        }
        std::thread::sleep(Duration::from_millis(50));
    }

    if shutdown_flag.load(std::sync::atomic::Ordering::Relaxed) {
        // Drain: forward the signal so each shard flushes its journal
        // and exits cleanly, then collect them all.
        for s in states.iter_mut() {
            if let Some(child) = s.child.as_mut() {
                shutdown::terminate(child);
            }
        }
        for s in states.iter_mut() {
            if let Some(mut child) = s.child.take() {
                let _ = child.wait();
            }
        }
        let done = states.iter().filter(|s| s.done).count();
        eprintln!(
            "cmr: interrupted — {done}/{n} shard(s) complete, journals flushed; \
             rerun the same command to resume"
        );
        return Ok(ExitCode::from(EXIT_PARTIAL));
    }

    let failed: Vec<usize> = states
        .iter()
        .enumerate()
        .filter(|(_, s)| s.gave_up)
        .map(|(i, _)| i)
        .collect();
    if !failed.is_empty() {
        eprintln!(
            "cmr: shard(s) {failed:?} did not complete; their journals and partial \
             artifacts are in {dir} — fix the underlying condition and rerun to resume"
        );
        return Ok(ExitCode::from(1));
    }
    let lines = merge_artifacts(&dir, n, &out, &metrics_out, &quarantine_out)?;
    eprintln!("cmr: all {n} shard(s) completed — merged {lines} record(s)");
    Ok(ExitCode::SUCCESS)
}

/// `cmr serve`: the resident extraction service. Runs until SIGINT or
/// SIGTERM, then drains (in-flight and queued requests complete, the
/// listener closes) and exits with the partial-run code — a drained stop
/// is an interruption, not a completed batch.
fn serve(args: &[String]) -> Result<ExitCode, String> {
    let mut addr = "127.0.0.1:7171".to_string();
    let mut jobs = "0".to_string();
    let mut queue_depth = "64".to_string();
    let mut timeout_ms = String::new();
    let mut max_sentences = String::new();
    let mut max_body_mb = "8".to_string();
    let extra = parse_flags(
        args,
        &mut [
            ("addr", &mut addr),
            ("jobs", &mut jobs),
            ("queue-depth", &mut queue_depth),
            ("timeout-ms", &mut timeout_ms),
            ("max-sentences", &mut max_sentences),
            ("max-body-mb", &mut max_body_mb),
        ],
        &mut [],
    )?;
    if !extra.is_empty() {
        return Err(format!("serve takes no positional arguments: {extra:?}"));
    }
    let parse_opt = |name: &str, value: &str| -> Result<Option<u64>, String> {
        if value.is_empty() {
            Ok(None)
        } else {
            value
                .parse()
                .map(Some)
                .map_err(|_| format!("--{name} must be an integer"))
        }
    };
    let cfg = ServeConfig {
        addr,
        jobs: jobs
            .parse()
            .map_err(|_| "--jobs must be an integer".to_string())?,
        queue_depth: queue_depth
            .parse()
            .map_err(|_| "--queue-depth must be an integer".to_string())?,
        timeout_ms: parse_opt("timeout-ms", &timeout_ms)?,
        max_sentences: parse_opt("max-sentences", &max_sentences)?.map(|n| n as usize),
        max_body_bytes: parse_opt("max-body-mb", &max_body_mb)?.unwrap_or(8) as usize * 1024 * 1024,
    };
    let shutdown_flag = shutdown::install();
    let server = Server::bind(cfg, shutdown_flag).map_err(|e| e.to_string())?;
    let addr = server
        .local_addr()
        .map_err(|e| format!("resolving listen address: {e}"))?;
    eprintln!("cmr: serving on {addr} (SIGINT/SIGTERM to drain and stop)");
    let summary = server.run().map_err(|e| format!("serve loop: {e}"))?;
    eprintln!(
        "cmr: drained — {} request(s) answered, {} rejected with 429",
        summary.requests, summary.rejected
    );
    Ok(ExitCode::from(EXIT_PARTIAL))
}

fn chaos(args: &[String]) -> Result<ExitCode, String> {
    let mut noise = "0..0.5".to_string();
    let mut seed = "7".to_string();
    let mut records = "50".to_string();
    let mut jobs = "0".to_string();
    let mut out = String::new();
    let mut io_faults = String::new();
    let mut stats = false;
    let extra = parse_flags(
        args,
        &mut [
            ("noise", &mut noise),
            ("seed", &mut seed),
            ("records", &mut records),
            ("jobs", &mut jobs),
            ("out", &mut out),
            ("io-faults", &mut io_faults),
        ],
        &mut [("stats", &mut stats)],
    )?;
    if !extra.is_empty() {
        return Err(format!("chaos takes no positional arguments: {extra:?}"));
    }
    if !io_faults.is_empty() {
        return chaos_io_faults(&io_faults, &seed, &records, &jobs, &out);
    }
    let cfg = ChaosConfig {
        levels: parse_levels(&noise)?,
        seed: seed
            .parse()
            .map_err(|_| "--seed must be an integer".to_string())?,
        records: records
            .parse()
            .map_err(|_| "--records must be an integer".to_string())?,
        jobs: jobs
            .parse()
            .map_err(|_| "--jobs must be an integer".to_string())?,
    };
    // SIGINT/SIGTERM stop the sweep between noise levels; the finished
    // levels are still printed and written to --out below, marked
    // `"interrupted": true` in the JSON, instead of being lost.
    let interrupt = shutdown::install();
    let report = run_chaos_with(&cfg, Some(interrupt.as_ref()));

    outln!(
        "chaos sweep: {} records, seed {}, {} level(s)",
        report.records,
        report.seed,
        report.levels.len()
    );
    outln!("noise   num-P   num-R   num-F1  term-F1  parse-fail  degraded  failed");
    for l in &report.levels {
        outln!(
            "{:<7.2} {:<7.3} {:<7.3} {:<7.3} {:<8.3} {:<11} {:<9} {}",
            l.noise,
            l.numeric_precision,
            l.numeric_recall,
            l.numeric_f1,
            l.term_f1,
            l.parse_failures,
            l.degraded_records,
            l.failed_records
        );
    }
    if stats {
        outln!("\nnoise   link-grammar  pattern  salvage");
        for l in &report.levels {
            outln!(
                "{:<7.2} {:<13} {:<8} {}",
                l.noise,
                l.link_grammar_fields,
                l.pattern_fields,
                l.salvage_fields
            );
        }
    }
    if !out.is_empty() {
        let json = serde_json::to_string_pretty(&report).map_err(|e| e.to_string())?;
        if out == "-" {
            outln!("{json}");
        } else {
            fs::write(&out, json).map_err(|e| format!("writing {out}: {e}"))?;
            eprintln!("cmr: wrote chaos report to {out}");
        }
    }
    let panics = report.total_panics();
    if panics > 0 {
        return Err(format!("{panics} worker panic(s) during the sweep"));
    }
    if report.interrupted {
        eprintln!(
            "cmr: chaos sweep interrupted after {} of {} level(s); partial report flushed",
            report.levels.len(),
            cfg.levels.len()
        );
        return Ok(ExitCode::from(EXIT_PARTIAL));
    }
    Ok(ExitCode::SUCCESS)
}

/// `cmr chaos --io-faults`: the deterministic I/O fault sweep. Runs each
/// seeded fault schedule against an in-process journaled extraction
/// and/or a service burst and checks the robustness invariants (clean
/// containment, resume identity, exactly-once, replay determinism,
/// liveness). Requires a `--features failpoints` build.
fn chaos_io_faults(
    spec: &str,
    seed: &str,
    records: &str,
    jobs: &str,
    out: &str,
) -> Result<ExitCode, String> {
    use cmr::bench::iofaults::{run_io_faults, IoFaultConfig};
    let cfg = IoFaultConfig {
        spec: spec.to_string(),
        seed: seed
            .parse()
            .map_err(|_| "--seed must be an integer".to_string())?,
        records: records
            .parse()
            .map_err(|_| "--records must be an integer".to_string())?,
        jobs: jobs
            .parse()
            .map_err(|_| "--jobs must be an integer".to_string())?,
    };
    let report = run_io_faults(&cfg)?;
    outln!(
        "io-fault sweep: {} record(s), seed {}, {} schedule(s)",
        report.records,
        report.seed,
        report.schedules.len()
    );
    outln!("kind        fires  abort  ok  schedule");
    for s in &report.schedules {
        outln!(
            "{:<11} {:<6} {:<6} {:<3} {}",
            s.kind,
            s.fires,
            if s.clean_abort { "yes" } else { "no" },
            if s.violations.is_empty() {
                "ok"
            } else {
                "FAIL"
            },
            s.schedule
        );
        for v in &s.violations {
            outln!("            violation: {v}");
        }
    }
    if !out.is_empty() {
        let json = serde_json::to_string_pretty(&report).map_err(|e| e.to_string())?;
        if out == "-" {
            outln!("{json}");
        } else {
            fs::write(out, json).map_err(|e| format!("writing {out}: {e}"))?;
            eprintln!("cmr: wrote io-fault report to {out}");
        }
    }
    let violations = report.total_violations();
    if violations > 0 {
        return Err(format!(
            "{violations} invariant violation(s) in the I/O fault sweep"
        ));
    }
    Ok(ExitCode::SUCCESS)
}

/// `cmr lint`: run the static analyzer over the committed rule assets,
/// or — with `--code` — the CMR-S concurrency-soundness checks over the
/// workspace's own sources. Returns the process exit code directly so a
/// deny-threshold failure exits 1 (distinct from usage errors, exit 2).
fn lint(args: &[String]) -> Result<ExitCode, String> {
    let mut format = String::from("human");
    let mut deny = String::from("errors");
    let mut no_color = false;
    let mut code = false;
    let positional = parse_flags(
        args,
        &mut [("format", &mut format), ("deny", &mut deny)],
        &mut [("no-color", &mut no_color), ("code", &mut code)],
    )?;
    if let Some(extra) = positional.first() {
        return Err(format!(
            "lint takes no positional arguments (got `{extra}`)"
        ));
    }
    let deny = match deny.as_str() {
        "notes" => cmr::analyze::Severity::Note,
        "warnings" => cmr::analyze::Severity::Warning,
        "errors" => cmr::analyze::Severity::Error,
        other => {
            return Err(format!(
                "--deny must be notes, warnings, or errors, got `{other}`"
            ))
        }
    };
    let report = if code {
        cmr::analyze::analyze_sources()
    } else {
        cmr::analyze::analyze_assets()
    };
    match format.as_str() {
        "human" => {
            use std::io::IsTerminal as _;
            let color = !no_color && std::io::stdout().is_terminal();
            outln!("{}", report.render_human(color));
        }
        "json" => outln!("{}", report.to_json()),
        "sarif" => outln!("{}", report.to_sarif()),
        other => {
            return Err(format!(
                "--format must be human, json, or sarif, got `{other}`"
            ))
        }
    }
    Ok(if report.passes(deny) {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    })
}

fn parse(args: &[String]) -> Result<(), String> {
    let sentence = args.join(" ");
    if sentence.trim().is_empty() {
        return Err("parse needs a sentence".to_string());
    }
    let parser = LinkParser::new();
    match parser.parse_sentence(&sentence) {
        Some(linkage) => {
            outln!("{}", linkage.diagram());
            let c = linkage.constituents();
            let toks = tokenize(&sentence);
            let words = |idxs: &[usize]| {
                idxs.iter()
                    .map(|&i| toks[i].text.as_str())
                    .collect::<Vec<_>>()
                    .join(" ")
            };
            outln!("subject:    [{}]", words(&c.subject));
            outln!("verb:       [{}]", words(&c.verb));
            outln!("object:     [{}]", words(&c.object));
            outln!("supplement: [{}]", words(&c.supplement));
            Ok(())
        }
        None => {
            Err("no linkage (a fragment? the extractors fall back to patterns here)".to_string())
        }
    }
}

fn terms(args: &[String]) -> Result<(), String> {
    let text = args.join(" ");
    if text.trim().is_empty() {
        return Err("terms needs text".to_string());
    }
    let ex = MedicalTermExtractor::new(Ontology::full());
    let hits = ex.extract(&text);
    if hits.is_empty() {
        outln!("no medical terms found");
    }
    for h in hits {
        outln!(
            "{:<30} -> {} [{}] ({})",
            format!("\"{}\"", h.surface),
            h.concept.preferred,
            h.concept.cui,
            h.concept.semtype
        );
    }
    Ok(())
}
