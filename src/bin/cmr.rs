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
    merge_outputs, merge_quarantine, run_journaled, CorpusHasher, JournalRun, JournalRunError,
    RecordSink, RunEvent, ShardSpec,
};
use cmr::prelude::*;
use cmr::serve::ndjson::note_from_line;
use std::fs;
use std::io::{BufRead, Write};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::sync::{Arc, OnceLock};

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

/// `outln!`, minus the abort when the consumer hangs up: `cmr parse ... |
/// head` closes stdout early, and a write to a closed pipe must end the
/// output quietly instead of panicking.
macro_rules! outln {
    ($($arg:tt)*) => {{
        use std::io::Write as _;
        let _ = writeln!(std::io::stdout(), $($arg)*);
    }};
}

/// Why a command failed. Both kinds exit 2 with one `cmr: …` line; only
/// a usage error (a bad command line) adds the usage text.
enum Failure {
    Usage(String),
    Error(String),
}

impl From<String> for Failure {
    fn from(e: String) -> Failure {
        Failure::Error(e)
    }
}

fn usage_error(message: impl Into<String>) -> Failure {
    Failure::Usage(message.into())
}

fn not_positive(name: &str) -> Failure {
    usage_error(format!("--{name} must be an integer >= 1"))
}

type CmdResult = Result<ExitCode, Failure>;

/// A subcommand's flags, each declared once: `--name VALUE` flags and
/// `--name` switches.
struct FlagTable {
    values: &'static [&'static str],
    switches: &'static [&'static str],
}

/// A parsed command line. A lone `-` is a positional (stdin), not a flag;
/// a flag given twice keeps its last value.
struct Args {
    values: Vec<(&'static str, String)>,
    switches: Vec<&'static str>,
    positional: Vec<String>,
}

/// A type a flag value parses to, and how its error message names it.
trait FlagValue: std::str::FromStr {
    const WHAT: &'static str;
}

impl FlagValue for usize {
    const WHAT: &'static str = "an integer";
}
impl FlagValue for u64 {
    const WHAT: &'static str = "an integer";
}
impl FlagValue for u32 {
    const WHAT: &'static str = "an integer";
}
impl FlagValue for f64 {
    const WHAT: &'static str = "a number";
}

impl Args {
    fn parse(args: &[String], table: &FlagTable) -> Result<Args, Failure> {
        let mut parsed = Args {
            values: Vec::new(),
            switches: Vec::new(),
            positional: Vec::new(),
        };
        let mut it = args.iter();
        while let Some(arg) = it.next() {
            let Some(name) = arg.strip_prefix("--") else {
                parsed.positional.push(arg.clone());
                continue;
            };
            if let Some(&switch) = table.switches.iter().find(|s| **s == name) {
                parsed.switches.push(switch);
            } else if let Some(&flag) = table.values.iter().find(|f| **f == name) {
                let value = it
                    .next()
                    .ok_or_else(|| usage_error(format!("--{name} needs a value")))?;
                parsed.values.push((flag, value.clone()));
            } else {
                return Err(usage_error(format!("unknown flag --{name}")));
            }
        }
        Ok(parsed)
    }

    /// The flag's value as written, if it was given.
    fn text(&self, name: &str) -> Option<&str> {
        self.values
            .iter()
            .rev()
            .find(|(n, _)| *n == name)
            .map(|(_, v)| v.as_str())
    }

    fn switch(&self, name: &str) -> bool {
        self.switches.contains(&name)
    }

    /// The flag parsed as a `T`, if it was given.
    fn opt<T: FlagValue>(&self, name: &str) -> Result<Option<T>, Failure> {
        self.text(name)
            .map(|v| {
                v.parse()
                    .map_err(|_| usage_error(format!("--{name} must be {}", T::WHAT)))
            })
            .transpose()
    }

    /// The flag parsed as a `T`, or `default` when it was not given.
    fn get<T: FlagValue>(&self, name: &str, default: T) -> Result<T, Failure> {
        Ok(self.opt(name)?.unwrap_or(default))
    }

    /// The flag as an integer >= 1, if it was given.
    fn opt_positive<T: FlagValue + PartialOrd + From<u8>>(
        &self,
        name: &str,
    ) -> Result<Option<T>, Failure> {
        match self.opt::<T>(name).map_err(|_| not_positive(name))? {
            Some(n) if n < T::from(1) => Err(not_positive(name)),
            n => Ok(n),
        }
    }

    /// The flag as an integer >= 1, or `default` when it was not given
    /// (`None`: the flag is required).
    fn positive(&self, name: &str, default: Option<usize>) -> Result<usize, Failure> {
        self.opt_positive(name)?
            .or(default)
            .ok_or_else(|| not_positive(name))
    }

    /// Refuses positional arguments, for subcommands that take none.
    fn no_positional(&self, command: &str) -> Result<(), Failure> {
        match self.positional.first() {
            Some(extra) => Err(usage_error(format!(
                "{command} takes no positional arguments (got `{extra}`)"
            ))),
            None => Ok(()),
        }
    }
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
        "extract" => extract(rest),
        "merge" => merge(rest),
        "orchestrate" => orchestrate(rest),
        "chaos" => chaos(rest),
        "parse" => parse(rest),
        "terms" => terms(rest),
        "lint" => lint(rest),
        "serve" => serve(rest),
        "--help" | "-h" | "help" => {
            usage();
            Ok(ExitCode::SUCCESS)
        }
        other => Err(usage_error(format!("unknown command `{other}`"))),
    };
    match result {
        Ok(code) => code,
        Err(Failure::Usage(e)) => {
            eprintln!("cmr: {e}");
            usage();
            ExitCode::from(2)
        }
        Err(Failure::Error(e)) => {
            eprintln!("cmr: {e}");
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
         \u{20}  cmr extract [--jobs N] [--queue-depth Q] [--stats]\n\
         \u{20}              [--journal FILE [--resume] [--compact-every N]]\n\
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
         \u{20}      --quarantine files every record that fails; --timeout-ms sets a\n\
         \u{20}      per-record wall-clock deadline, checked inside the link parser's\n\
         \u{20}      search too (a record past it fails as Timeout); SIGINT/SIGTERM drain\n\
         \u{20}      in-flight records, flush the journal, and exit 3 (partial run); a\n\
         \u{20}      journaled run's write failure on the journal, output or quarantine\n\
         \u{20}      (e.g. ENOSPC) drains and exits 4 (clean I/O abort, resumable)\n\
         \u{20}  cmr merge --dir DIR --shards N [--out FILE] [--metrics FILE]\n\
         \u{20}            [--quarantine FILE]\n\
         \u{20}      recombine the artifacts of an N-way sharded run (DIR/shard-i.*)\n\
         \u{20}      into what an unsharded run would have produced: outputs round-robin\n\
         \u{20}      interleaved in input order, metrics summed, quarantine entries\n\
         \u{20}      mapped to global indices and interleaved the same way\n\
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

const GENERATE: FlagTable = FlagTable {
    values: &["records", "seed", "style", "out"],
    switches: &[],
};

fn generate(args: &[String]) -> CmdResult {
    let args = Args::parse(args, &GENERATE)?;
    args.no_positional("generate")?;
    let n: usize = args.get("records", 50)?;
    // A plan, not a built corpus: records are generated one at a time and
    // dropped after writing, so a million-note corpus streams in O(1)
    // memory while staying byte-identical to `CorpusBuilder::build`.
    let plan = CorpusBuilder::new()
        .records(n)
        .seed(args.get("seed", 2005)?)
        .style_variation(args.get("style", 0.0)?)
        .plan();
    let out = args.text("out").unwrap_or("notes");
    if out == "-" {
        // NDJSON streaming: one full gold record (text included) per line,
        // ready to pipe into `cmr extract -`. A consumer that hangs up
        // (`| head`) ends the stream quietly.
        let mut w = std::io::BufWriter::new(std::io::stdout().lock());
        let written = (0..plan.len())
            .try_for_each(|i| {
                let json = serde_json::to_string(&plan.record(i))
                    .map_err(|e| std::io::Error::other(e.to_string()))?;
                writeln!(w, "{json}")
            })
            .and_then(|()| w.flush());
        return match written {
            Err(e) if e.kind() != std::io::ErrorKind::BrokenPipe => {
                Err(format!("writing stdout: {e}").into())
            }
            _ => Ok(ExitCode::SUCCESS),
        };
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
    Ok(ExitCode::SUCCESS)
}

/// One note text, or why the input line could not be read.
type NoteResult = Result<String, String>;

/// Decodes NDJSON lines into note texts, skipping blank lines. A line that
/// cannot be read (invalid UTF-8, an I/O error) yields one
/// `line N: why` error (N is 1-based) and ends the stream.
fn notes_of_lines(
    lines: impl Iterator<Item = std::io::Result<String>>,
) -> impl Iterator<Item = NoteResult> {
    lines
        .enumerate()
        .scan(false, |failed, (i, line)| {
            if *failed {
                return None;
            }
            Some(match line {
                Ok(line) => note_from_line(&line).map(Ok),
                Err(e) => {
                    *failed = true;
                    Some(Err(format!("line {}: {e}", i + 1)))
                }
            })
        })
        .flatten()
}

/// Streams the cleaned note texts of an NDJSON corpus file, optionally
/// keeping only one shard's slice of the global index space. O(one line)
/// memory; the file can be re-read for a second pass (corpus hashing,
/// then feeding), which stdin cannot.
fn ndjson_notes(
    path: &str,
    shard: Option<ShardSpec>,
) -> Result<impl Iterator<Item = NoteResult> + Send, String> {
    let f = fs::File::open(path).map_err(|e| format!("opening {path}: {e}"))?;
    Ok(notes_of_lines(std::io::BufReader::new(f).lines())
        .enumerate()
        .filter(move |(g, note)| note.is_err() || shard.is_none_or(|s| s.owns(*g)))
        .map(|(_, note)| note))
}

/// Streams the note texts of NDJSON records on stdin. `StdinLock` is not
/// `Send` and the engine's feeder thread consumes the iterator, so the
/// lock is taken per line.
fn stdin_notes() -> impl Iterator<Item = NoteResult> + Send {
    let stdin = std::io::stdin();
    notes_of_lines(std::iter::from_fn(move || {
        let mut buf = String::new();
        match stdin.lock().read_line(&mut buf) {
            Ok(0) => None,
            Ok(_) => Some(Ok(buf)),
            Err(e) => Some(Err(e)),
        }
    }))
}

const EXTRACT: FlagTable = FlagTable {
    values: &[
        "jobs",
        "queue-depth",
        "journal",
        "quarantine",
        "timeout-ms",
        "max-sentences",
        "kill-after",
        "shard",
        "out",
        "metrics",
        "compact-every",
    ],
    switches: &["stats", "resume", "ndjson"],
};

/// `cmr extract`: pick the source, open one sink (the journaled run opens
/// its own), and stream the source through the engine once.
fn extract(args: &[String]) -> CmdResult {
    let args = Args::parse(args, &EXTRACT)?;
    let inputs = &args.positional;
    let journal = args.text("journal");
    let resume = args.switch("resume");
    let kill_after: Option<u64> = args.opt("kill-after")?;
    let compact_every: Option<u64> = args.opt("compact-every")?;
    if inputs.is_empty() {
        return Err(usage_error(
            "extract needs at least one file (or - for stdin NDJSON)",
        ));
    }
    for (given, flag) in [
        (resume, "--resume"),
        (kill_after.is_some(), "--kill-after"),
        (compact_every.is_some(), "--compact-every"),
    ] {
        if given && journal.is_none() {
            return Err(usage_error(format!("{flag} needs --journal")));
        }
    }
    let ndjson = args.switch("ndjson");
    if ndjson && inputs.len() != 1 {
        return Err(usage_error("--ndjson takes exactly one corpus FILE"));
    }
    let shard = args
        .text("shard")
        .map(ShardSpec::parse)
        .transpose()
        .map_err(Failure::Usage)?;
    let from_stdin = inputs.len() == 1 && inputs[0] == "-";
    let ndjson_file = (ndjson && !from_stdin).then(|| inputs[0].as_str());
    if shard.is_some() && ndjson_file.is_none() {
        return Err(usage_error(
            "--shard needs --ndjson with a corpus file (a re-readable input)",
        ));
    }
    let out_name = args.text("out").unwrap_or("-");
    let out = (out_name != "-").then(|| Path::new(out_name));
    let stats = args.switch("stats");
    let cfg = EngineConfig {
        jobs: args.get("jobs", 1)?,
        queue_depth: args.get("queue-depth", 32usize)?.max(1),
        max_record_millis: args.opt_positive("timeout-ms")?,
        max_record_sentences: args.opt_positive("max-sentences")?,
        ..EngineConfig::default()
    };
    let quarantine = args.text("quarantine").map(Path::new);
    let shutdown_flag = shutdown::install();
    let engine = Engine::new(cfg.clone(), Schema::paper(), Ontology::full())
        .with_shutdown(Arc::clone(&shutdown_flag));

    // The source. Note files are read up front, so a missing file fails
    // the command before any output. An --ndjson file streams in O(one
    // record) memory; a journaled run hashes it in a first pass for the
    // manifest. Stdin streams too, except when journaled: the manifest
    // needs the whole corpus, and stdin cannot be read twice. A streamed
    // line that cannot be read ends the feed; the records before it are
    // emitted and the command then fails, naming the line.
    let source = ndjson_file.unwrap_or("stdin");
    let (feed, manifest): (
        Box<dyn Iterator<Item = NoteResult> + Send>,
        Option<RunManifest>,
    ) = match ndjson_file {
        Some(corpus) => {
            let manifest = if journal.is_some() {
                let mut hasher = CorpusHasher::new();
                for note in ndjson_notes(corpus, shard)? {
                    hasher.add(&note.map_err(|e| format!("reading {corpus}: {e}"))?);
                }
                Some(RunManifest::for_corpus(
                    &cfg,
                    hasher.finish(),
                    hasher.records(),
                )?)
            } else {
                None
            };
            (Box::new(ndjson_notes(corpus, shard)?), manifest)
        }
        None if from_stdin && journal.is_none() => (Box::new(stdin_notes()), None),
        None => {
            let texts: Vec<String> = if from_stdin {
                stdin_notes()
                    .collect::<Result<_, _>>()
                    .map_err(|e| format!("reading stdin: {e}"))?
            } else {
                inputs
                    .iter()
                    .map(|p| fs::read_to_string(p).map_err(|e| format!("reading {p}: {e}")))
                    .collect::<Result<_, _>>()?
            };
            let manifest = journal
                .map(|_| RunManifest::for_run(&cfg, &texts))
                .transpose()?;
            (Box::new(texts.into_iter().map(Ok)), manifest)
        }
    };
    // How the feed ended: `Ok` once it ran dry, `Err` at an unreadable
    // line, unset while input remains. Exit 3 means input was left
    // unprocessed, which only a shutdown does.
    let ended: Arc<OnceLock<Result<(), String>>> = Arc::new(OnceLock::new());
    let feed = {
        let (mut feed, ended) = (feed, Arc::clone(&ended));
        std::iter::from_fn(move || match feed.next() {
            Some(Ok(note)) => Some(note),
            Some(Err(e)) => {
                let _ = ended.set(Err(e));
                None
            }
            None => {
                let _ = ended.set(Ok(()));
                None
            }
        })
    };

    let (metrics, progress) = match (journal, manifest) {
        (Some(journal), Some(manifest)) => {
            let total = manifest.records;
            let run = JournalRun {
                journal: Path::new(journal),
                output: out,
                quarantine,
                resume,
                compact_every: compact_every.unwrap_or(0),
            };
            let outcome = run_journaled(engine, &manifest, feed, run, |event| match event {
                RunEvent::Resumed { start, replayed } => {
                    if out.is_none() && replayed < start {
                        eprintln!(
                            "cmr: resuming a compacted journal to stdout: the {} record(s) \
                             before the snapshot were emitted by the previous run and are \
                             not replayed",
                            start - replayed
                        );
                    }
                    eprintln!(
                        "cmr: resuming {journal}: {start}/{total} record(s) already journaled \
                         ({replayed} replayed)"
                    );
                }
                // Crash-injection hook for the durability tests: die hard
                // (no unwinding, no flushes) right after journaling the
                // N-th new record, like a `kill -9` at the worst moment.
                RunEvent::Journaled(n) => {
                    if kill_after == Some(n) {
                        std::process::abort();
                    }
                }
            });
            let outcome = match outcome {
                Ok(outcome) => outcome,
                Err(JournalRunError::Refused(why)) => return Err(why.into()),
                Err(JournalRunError::Journal(why)) => {
                    eprintln!("cmr: {why}\ncmr: no records were processed");
                    return Ok(ExitCode::from(EXIT_IO_FAULT));
                }
            };
            if let Some(why) = outcome.abort {
                eprintln!(
                    "cmr: {why}\n\
                     cmr: aborted cleanly — {}/{total} record(s) journaled, nothing emitted \
                     beyond the journal; fix the underlying condition and rerun with \
                     --journal {journal} --resume",
                    outcome.completed
                );
                if stats {
                    dump_stats(&outcome.metrics)?;
                }
                return Ok(ExitCode::from(EXIT_IO_FAULT));
            }
            let progress = format!(
                "{}/{total} record(s) journaled; rerun with --journal {journal} --resume \
                 to finish",
                outcome.completed
            );
            (outcome.metrics, progress)
        }
        _ => {
            let mut sink = RecordSink::open(out, quarantine)?;
            let metrics = engine.extract_to(feed, &mut sink);
            sink.flush()?;
            let extracted = metrics.records + metrics.errors.total();
            let progress = format!("{extracted} record(s) extracted");
            (metrics, progress)
        }
    };
    let partial = match ended.get() {
        Some(Err(e)) => return Err(format!("reading {source}: {e}").into()),
        Some(Ok(())) => false,
        None => true,
    };
    if partial {
        eprintln!("cmr: interrupted — {progress}");
    }

    if let Some(path) = args.text("metrics") {
        let json = serde_json::to_string_pretty(&metrics).map_err(|e| e.to_string())?;
        fs::write(path, format!("{json}\n")).map_err(|e| format!("writing {path}: {e}"))?;
    }
    if stats {
        dump_stats(&metrics)?;
    }
    let failed = metrics.errors.total();
    if failed > 0 {
        eprintln!("cmr: {failed} record(s) failed (see in-band \"error\" objects)");
    }
    Ok(if partial {
        ExitCode::from(EXIT_PARTIAL)
    } else {
        ExitCode::SUCCESS
    })
}

/// `--stats`: the metrics JSON on stderr. `cli::metrics-dump` is the last
/// write of a batch; a fault there costs the stats only, never the
/// records already emitted.
fn dump_stats(metrics: &EngineMetrics) -> Result<(), String> {
    if let Some(inj) = cmr_failpoint::io_inject("cli::metrics-dump") {
        eprintln!("cmr: metrics dump failed: {}", inj.into_io_error());
    } else {
        let json = serde_json::to_string_pretty(metrics).map_err(|e| e.to_string())?;
        eprintln!("{json}");
    }
    Ok(())
}

/// Path of one shard's artifact inside the shared run directory, by the
/// convention `cmr orchestrate` writes and `cmr merge` reads:
/// `DIR/shard-<i>.<suffix>`.
fn shard_path(dir: &str, index: usize, suffix: &str) -> PathBuf {
    PathBuf::from(dir).join(format!("shard-{index}.{suffix}"))
}

/// Recombines the artifacts of an `n`-way sharded run under `dir` into
/// unsharded-identical files: outputs round-robin interleaved to `--out`
/// (stdout by default), metrics summed to `--metrics` and quarantines
/// merged in global order to `--quarantine` (each only when given).
/// Returns the merged record-line count.
fn merge_artifacts(dir: &str, n: usize, args: &Args) -> Result<u64, String> {
    let out = args.text("out").unwrap_or("-");
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
    if let Some(metrics_out) = args.text("metrics") {
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
    if let Some(quarantine_out) = args.text("quarantine") {
        let mut shards = Vec::with_capacity(n);
        for i in 0..n {
            let p = shard_path(dir, i, "quarantine.ndjson");
            // A hand-run shard without --quarantine has no file
            // (orchestrate always passes it).
            shards.push(if p.exists() {
                read_quarantine(&p).map_err(|e| format!("reading {}: {e}", p.display()))?
            } else {
                Vec::new()
            });
        }
        let merged = merge_quarantine(shards);
        let mut body = String::new();
        for e in &merged {
            body.push_str(&serde_json::to_string(e).map_err(|e| e.to_string())?);
            body.push('\n');
        }
        fs::write(quarantine_out, body).map_err(|e| format!("writing {quarantine_out}: {e}"))?;
        eprintln!("cmr: merged quarantine: {} record(s)", merged.len());
    }
    Ok(lines)
}

const MERGE: FlagTable = FlagTable {
    values: &["dir", "shards", "out", "metrics", "quarantine"],
    switches: &[],
};

/// `cmr merge`: recombine an N-way sharded run's artifacts into what the
/// unsharded run would have produced.
fn merge(args: &[String]) -> CmdResult {
    let args = Args::parse(args, &MERGE)?;
    args.no_positional("merge")?;
    let dir = args
        .text("dir")
        .ok_or_else(|| usage_error("merge needs --dir (the shard artifact directory)"))?;
    let n = args.positive("shards", None)?;
    let lines = merge_artifacts(dir, n, &args)?;
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
    jobs: usize,
    compact_every: Option<u64>,
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
        .arg(jobs.to_string())
        .arg("--journal")
        .arg(shard_path(dir, index, "journal"))
        .arg("--resume")
        .arg("--out")
        .arg(shard_path(dir, index, "out.ndjson"))
        .arg("--metrics")
        .arg(shard_path(dir, index, "metrics.json"))
        .arg("--quarantine")
        .arg(shard_path(dir, index, "quarantine.ndjson"));
    if let Some(k) = compact_every {
        cmd.arg("--compact-every").arg(k.to_string());
    }
    cmd.arg(corpus)
        .stdin(std::process::Stdio::null())
        .stdout(std::process::Stdio::null())
        .stderr(std::process::Stdio::inherit());
    cmd.spawn()
}

const ORCHESTRATE: FlagTable = FlagTable {
    values: &[
        "shards",
        "workers",
        "dir",
        "jobs",
        "compact-every",
        "max-restarts",
        "backoff-ms",
        "out",
        "metrics",
        "quarantine",
    ],
    switches: &[],
};

/// `cmr orchestrate`: crash-supervised sharded extraction. Spawns the N
/// shards as subprocesses (at most `--workers` at a time), restarts any
/// that die — signal kill, panic, or a clean I/O abort (exit 4) — from
/// their journals with exponential backoff, gives a shard up after
/// `--max-restarts` failed attempts, and merges the artifacts once every
/// shard completes. SIGINT/SIGTERM forward to the shards so each drains
/// and flushes its own journal, then the supervisor exits 3.
fn orchestrate(args: &[String]) -> CmdResult {
    use std::time::{Duration, Instant};

    let args = Args::parse(args, &ORCHESTRATE)?;
    let [corpus] = args.positional.as_slice() else {
        return Err(usage_error(
            "orchestrate needs exactly one NDJSON corpus FILE",
        ));
    };
    if corpus == "-" {
        return Err(usage_error(
            "orchestrate needs a corpus file (shards re-read it; stdin is not re-readable)",
        ));
    }
    let dir = args
        .text("dir")
        .ok_or_else(|| usage_error("orchestrate needs --dir (the shard artifact directory)"))?;
    let n = args.positive("shards", Some(4))?;
    // 0 = all shards at once.
    let workers = match args.get("workers", 0usize)? {
        0 => n,
        k => k,
    };
    let jobs: usize = args.get("jobs", 1)?;
    let compact_every: Option<u64> = args.opt("compact-every")?;
    let max_restarts: u32 = args.get("max-restarts", 3)?;
    let backoff_ms: u64 = args.get("backoff-ms", 200)?;
    fs::create_dir_all(dir).map_err(|e| format!("creating {dir}: {e}"))?;
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
            match spawn_shard(&exe, corpus, dir, i, n, jobs, compact_every) {
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
    let lines = merge_artifacts(dir, n, &args)?;
    eprintln!("cmr: all {n} shard(s) completed — merged {lines} record(s)");
    Ok(ExitCode::SUCCESS)
}

const SERVE: FlagTable = FlagTable {
    values: &[
        "addr",
        "jobs",
        "queue-depth",
        "timeout-ms",
        "max-sentences",
        "max-body-mb",
    ],
    switches: &[],
};

/// `cmr serve`: the resident extraction service. Runs until SIGINT or
/// SIGTERM, then drains (in-flight and queued requests complete, the
/// listener closes) and exits with the partial-run code — a drained stop
/// is an interruption, not a completed batch.
fn serve(args: &[String]) -> CmdResult {
    let args = Args::parse(args, &SERVE)?;
    args.no_positional("serve")?;
    let max_body_mb = args.positive("max-body-mb", Some(8))?;
    let max_body_bytes = max_body_mb.checked_mul(1 << 20).ok_or_else(|| {
        usage_error(format!(
            "--max-body-mb {max_body_mb} is too large: the byte limit overflows"
        ))
    })?;
    let cfg = ServeConfig {
        addr: args.text("addr").unwrap_or("127.0.0.1:7171").to_string(),
        jobs: args.get("jobs", 0)?,
        queue_depth: args.get("queue-depth", 64)?,
        timeout_ms: args.opt_positive("timeout-ms")?,
        max_sentences: args.opt_positive("max-sentences")?,
        max_body_bytes,
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

const CHAOS: FlagTable = FlagTable {
    values: &["noise", "seed", "records", "jobs", "out", "io-faults"],
    switches: &["stats"],
};

fn chaos(args: &[String]) -> CmdResult {
    let args = Args::parse(args, &CHAOS)?;
    args.no_positional("chaos")?;
    let seed: u64 = args.get("seed", 7)?;
    let records: usize = args.get("records", 50)?;
    let jobs: usize = args.get("jobs", 0)?;
    let out = args.text("out");
    if let Some(spec) = args.text("io-faults") {
        return chaos_io_faults(spec, seed, records, jobs, out);
    }
    let cfg = ChaosConfig {
        levels: parse_levels(args.text("noise").unwrap_or("0..0.5")).map_err(Failure::Usage)?,
        seed,
        records,
        jobs,
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
    if args.switch("stats") {
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
    write_report(out, &report, "chaos")?;
    let panics = report.total_panics();
    if panics > 0 {
        return Err(format!("{panics} worker panic(s) during the sweep").into());
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

/// Writes a sweep's report as JSON to `out`, or to stdout for `-`.
fn write_report(
    out: Option<&str>,
    report: &impl serde::Serialize,
    what: &str,
) -> Result<(), String> {
    let Some(out) = out else {
        return Ok(());
    };
    let json = serde_json::to_string_pretty(report).map_err(|e| e.to_string())?;
    if out == "-" {
        outln!("{json}");
    } else {
        fs::write(out, json).map_err(|e| format!("writing {out}: {e}"))?;
        eprintln!("cmr: wrote {what} report to {out}");
    }
    Ok(())
}

/// `cmr chaos --io-faults`: the deterministic I/O fault sweep. Runs each
/// seeded fault schedule against an in-process journaled extraction
/// and/or a service burst and checks the robustness invariants (clean
/// containment, resume identity, exactly-once, replay determinism,
/// liveness). Requires a `--features failpoints` build.
fn chaos_io_faults(
    spec: &str,
    seed: u64,
    records: usize,
    jobs: usize,
    out: Option<&str>,
) -> CmdResult {
    use cmr::bench::iofaults::{run_io_faults, IoFaultConfig};
    let cfg = IoFaultConfig {
        spec: spec.to_string(),
        seed,
        records,
        jobs,
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
    write_report(out, &report, "io-fault")?;
    let violations = report.total_violations();
    if violations > 0 {
        return Err(format!("{violations} invariant violation(s) in the I/O fault sweep").into());
    }
    Ok(ExitCode::SUCCESS)
}

const LINT: FlagTable = FlagTable {
    values: &["format", "deny"],
    switches: &["no-color", "code"],
};

/// `cmr lint`: run the static analyzer over the committed rule assets,
/// or — with `--code` — the CMR-S concurrency-soundness checks over the
/// workspace's own sources. Returns the process exit code directly so a
/// deny-threshold failure exits 1 (distinct from usage errors, exit 2).
fn lint(args: &[String]) -> CmdResult {
    let args = Args::parse(args, &LINT)?;
    args.no_positional("lint")?;
    let deny = match args.text("deny").unwrap_or("errors") {
        "notes" => cmr::analyze::Severity::Note,
        "warnings" => cmr::analyze::Severity::Warning,
        "errors" => cmr::analyze::Severity::Error,
        other => {
            return Err(usage_error(format!(
                "--deny must be notes, warnings, or errors, got `{other}`"
            )))
        }
    };
    let report = if args.switch("code") {
        cmr::analyze::analyze_sources()
    } else {
        cmr::analyze::analyze_assets()
    };
    match args.text("format").unwrap_or("human") {
        "human" => {
            use std::io::IsTerminal as _;
            let color = !args.switch("no-color") && std::io::stdout().is_terminal();
            outln!("{}", report.render_human(color));
        }
        "json" => outln!("{}", report.to_json()),
        "sarif" => outln!("{}", report.to_sarif()),
        other => {
            return Err(usage_error(format!(
                "--format must be human, json, or sarif, got `{other}`"
            )))
        }
    }
    Ok(if report.passes(deny) {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    })
}

fn parse(args: &[String]) -> CmdResult {
    let sentence = args.join(" ");
    if sentence.trim().is_empty() {
        return Err(usage_error("parse needs a sentence"));
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
            Ok(ExitCode::SUCCESS)
        }
        None => Err(
            "no linkage (a fragment? the extractors fall back to patterns here)"
                .to_string()
                .into(),
        ),
    }
}

fn terms(args: &[String]) -> CmdResult {
    let text = args.join(" ");
    if text.trim().is_empty() {
        return Err(usage_error("terms needs text"));
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
    Ok(ExitCode::SUCCESS)
}
