//! I/O fault sweep: deterministic fault injection over the durability
//! and service write paths.
//!
//! Each *schedule* (a `CMR_FAILPOINTS`-grammar string, seeded) is run
//! against an in-process journaled extraction — cmr-engine's
//! [`run_journaled`], the same loop `cmr extract --journal` runs — and/or
//! a service burst, and the sweep asserts the robustness invariants the
//! rest of the system promises:
//!
//! * **clean containment** — an injected ENOSPC, torn write, delay, or
//!   panic never takes the harness down and never corrupts state beyond
//!   what resume heals;
//! * **resume identity** — after the fault clears, resuming the journal
//!   produces output byte-identical to an unfaulted run;
//! * **exactly-once** — every submitted record lands exactly once in the
//!   journal/output (or is part of a cleanly-reported abort), never
//!   silently lost and never duplicated;
//! * **replay determinism** — re-running a schedule from its seed fires
//!   the identical event sequence (the whole point of seeding them);
//! * **service liveness** — a server taking socket faults keeps
//!   answering once the schedule clears.
//!
//! The sweep requires a build with the `failpoints` feature; plain
//! builds get a clear error instead of a silently-empty report.

use cmr_core::Schema;
use cmr_corpus::CorpusBuilder;
use cmr_engine::{
    merge_outputs, read_journal, run_journaled, shard_of, Engine, EngineConfig, JournalRun,
    QuarantineFile, RecordSink, RetryPolicy, RunManifest,
};
use cmr_failpoint::FailpointRegistry;
use cmr_ontology::Ontology;
use cmr_serve::{ServeConfig, Server};
use serde::Serialize;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Configuration for [`run_io_faults`].
#[derive(Debug, Clone)]
pub struct IoFaultConfig {
    /// `standard` for the built-in schedule matrix, or one schedule in
    /// the `CMR_FAILPOINTS` grammar (e.g. `journal::append=enospc@3`).
    pub spec: String,
    /// Seed applied to every schedule (overridden by an explicit
    /// `seed=` item inside a custom spec).
    pub seed: u64,
    /// Records in the synthetic corpus each schedule extracts.
    pub records: usize,
    /// Worker threads for the extraction engine (`0` = one per core).
    pub jobs: usize,
}

/// Outcome of one schedule.
#[derive(Debug, Clone, Serialize)]
pub struct ScheduleReport {
    /// The schedule, in spec grammar (seed included — replayable as-is
    /// via `CMR_FAILPOINTS`).
    pub schedule: String,
    /// `journal`, `quarantine`, `engine`, or `serve` — which surface it
    /// targets.
    pub kind: String,
    /// Failpoint fires observed during the faulted phase.
    pub fires: usize,
    /// The faulted phase ended in a contained abort (injected error or
    /// panic) rather than completing; `false` is fine for schedules
    /// whose action is benign (delay) or probabilistic.
    pub clean_abort: bool,
    /// Invariant violations; empty means the schedule passed.
    pub violations: Vec<String>,
}

/// The sweep's full result.
#[derive(Debug, Clone, Serialize)]
pub struct IoFaultReport {
    /// Base seed of the sweep.
    pub seed: u64,
    /// Corpus size per schedule.
    pub records: usize,
    /// One entry per schedule, in run order.
    pub schedules: Vec<ScheduleReport>,
}

impl IoFaultReport {
    /// Total invariant violations across all schedules.
    pub fn total_violations(&self) -> usize {
        self.schedules.iter().map(|s| s.violations.len()).sum()
    }
}

/// The built-in schedule matrix: every registered write-path failpoint
/// crossed with the action classes that stress it.
fn standard_schedules() -> Vec<&'static str> {
    vec![
        "journal::manifest=enospc@1",
        "journal::append=enospc@3",
        "journal::append=partial-write(25)@3",
        "journal::append=return-err@4",
        "journal::append=delay(10)@2",
        "journal::append=panic@3",
        "journal::truncate=return-err@1",
        "quarantine::append=partial-write(11)@1",
        // Panic mid-chunk: the third record-extraction attempt panics
        // inside a 16-record dispatch chunk. Its chunk-mates must be
        // unaffected (per-record isolation survived batching) and the
        // retry policy heals the panicked record, so the faulted run
        // stays byte-identical to the unfaulted baseline.
        "engine::record=panic@3",
        // Sharded-run schedules: a 3-way sharded, compaction-enabled
        // extraction where one shard "dies" mid-run (the in-process
        // stand-in for kill -9 on a supervisor-managed subprocess) or
        // compaction itself hits ENOSPC. Resuming the dead shard and
        // merging must reproduce the unsharded baseline byte-for-byte,
        // and compaction must keep every healed journal O(interval).
        "shard::kill=return-err@5",
        "shard::kill=enospc@2",
        "journal::compact=enospc@1",
        "serve::read=return-err%0.3",
        "serve::write=return-err%0.3",
        "serve::accept=return-err@2",
        "serve::chunk=return-err%0.5",
    ]
}

/// Runs the sweep. Errors when the build has no fault-injection layer
/// or a schedule fails to parse; invariant *violations* are reported in
/// the result, not as an `Err`.
pub fn run_io_faults(cfg: &IoFaultConfig) -> Result<IoFaultReport, String> {
    if !cmr_failpoint::ENABLED {
        return Err("this build does not include the fault-injection layer; \
             rebuild with `--features failpoints` to run --io-faults"
            .to_string());
    }
    let schedules: Vec<String> = if cfg.spec == "standard" {
        standard_schedules().into_iter().map(String::from).collect()
    } else {
        vec![cfg.spec.clone()]
    };
    let dir = std::env::temp_dir().join(format!("cmr-io-faults-{}", std::process::id()));
    std::fs::create_dir_all(&dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;

    let texts: Vec<String> = CorpusBuilder::new()
        .records(cfg.records.max(1))
        .seed(cfg.seed)
        .build()
        .records
        .into_iter()
        .map(|r| r.text)
        .collect();
    let engine_cfg = EngineConfig {
        jobs: cfg.jobs,
        ..EngineConfig::default()
    };
    // A config that poisons every record (zero sentence budget, single
    // attempt): the only way to exercise the quarantine write path
    // deterministically.
    let poison_cfg = EngineConfig {
        jobs: cfg.jobs,
        max_record_sentences: Some(0),
        ..EngineConfig::default()
    };
    // Engine-surface schedules (`engine::`/`pool::` failpoints) run with
    // retry enabled: an injected per-record panic classifies as transient
    // and the second attempt — with the one-shot trigger spent — heals it,
    // so the faulted run itself must already match the baseline.
    let retry_cfg = EngineConfig {
        jobs: cfg.jobs,
        retry: RetryPolicy {
            max_attempts: 3,
            base_delay_millis: 0,
        },
        ..EngineConfig::default()
    };
    cmr_failpoint::clear();
    let baseline = unfaulted_baseline(&texts, &engine_cfg, &dir.join("baseline.out"));
    let poison_baseline = unfaulted_baseline(&texts, &poison_cfg, &dir.join("poison.out"));
    let retry_baseline = unfaulted_baseline(&texts, &retry_cfg, &dir.join("retry.out"));

    let mut reports = Vec::with_capacity(schedules.len());
    for (idx, schedule) in schedules.iter().enumerate() {
        let mut reg = FailpointRegistry::parse(schedule)?;
        if !schedule.contains("seed=") {
            reg = FailpointRegistry::parse(&format!("{schedule};seed={}", cfg.seed))?;
        }
        let spec = reg.to_spec();
        let kind = classify(schedule);
        let report = match kind {
            "serve" => run_serve_schedule(&spec),
            _ => {
                let (cfg, baseline) = match kind {
                    "quarantine" => (&poison_cfg, &poison_baseline),
                    "engine" => (&retry_cfg, &retry_baseline),
                    _ => (&engine_cfg, &baseline),
                };
                let dir = dir.join(format!("sched-{idx}"));
                run_journal_schedule(&spec, schedule, &texts, cfg, baseline, &dir)
            }
        };
        reports.push(report);
    }
    let _ = std::fs::remove_dir_all(&dir);
    Ok(IoFaultReport {
        seed: cfg.seed,
        records: texts.len(),
        schedules: reports,
    })
}

fn classify(schedule: &str) -> &'static str {
    if schedule.contains("shard::") || schedule.contains("journal::compact") {
        // `journal::compact` only has a site in the compaction-enabled
        // sharded schedules; the plain journaled phases never compact.
        "shard"
    } else if schedule.contains("serve::") {
        "serve"
    } else if schedule.contains("quarantine::") {
        "quarantine"
    } else if schedule.contains("engine::") || schedule.contains("pool::") {
        "engine"
    } else {
        "journal"
    }
}

/// Output of an unfaulted, unjournaled run: the identity target, written
/// by the same [`RecordSink`] the journaled runs use and read back.
fn unfaulted_baseline(texts: &[String], cfg: &EngineConfig, path: &Path) -> String {
    let engine = Engine::new(cfg.clone(), Schema::paper(), Ontology::full());
    if let Ok(mut sink) = RecordSink::open(Some(path)) {
        engine.extract_stream(texts.iter().cloned(), |_idx, result| sink.emit(&result));
        let _ = sink.flush();
    }
    read(path)
}

/// A file's contents, or nothing when it cannot be read.
fn read(path: &Path) -> String {
    std::fs::read_to_string(path).unwrap_or_default()
}

/// How many ways the shard schedules partition the corpus.
const SHARD_WAYS: usize = 3;
/// Compaction interval of the sharded phases: small enough that every
/// shard snapshots several times, so `journal::compact` faults have a
/// site to hit and the O(remainder) bound is actually exercised.
const SHARD_COMPACT_EVERY: usize = 4;

/// One journaled schedule (every kind but `serve`), through the shipped
/// loop, [`run_journaled`]. `shard` schedules split the corpus 3 ways and
/// compact every 4 records — each shard the in-process analogue of one
/// `cmr extract --shard s/3 --compact-every 4` subprocess — so shard
/// kills and compaction faults have sites to hit; the other kinds run
/// one unsharded, uncompacted journal.
///
/// The faulted phase runs twice (the second run only pins replay
/// determinism: same schedule + seed must fire identically), each shard
/// on its own thread so an injected panic is contained. Then, with the
/// faults cleared, every shard resumes, as a supervisor restarts whatever
/// died. The invariants: each faulted output is a prefix of its slice of
/// the baseline and no longer than its journal (nothing a consumer saw is
/// outside the journal); each healed journal accounts for exactly its
/// slice (`read_journal` rejects gaps and duplicates) and stays within
/// the compaction interval; and the merged outputs are byte-identical to
/// the unfaulted baseline.
fn run_journal_schedule(
    spec: &str,
    schedule: &str,
    texts: &[String],
    cfg: &EngineConfig,
    baseline: &str,
    dir: &Path,
) -> ScheduleReport {
    let _ = std::fs::create_dir_all(dir);
    let kind = classify(schedule);
    let (ways, compact_every) = if kind == "shard" {
        (SHARD_WAYS, SHARD_COMPACT_EVERY)
    } else {
        (1, 0)
    };
    // `journal::truncate` only has a site on the resume path, so those
    // schedules pre-build an unfaulted journal and fault its reopening.
    let fault_on_resume = schedule.contains("journal::truncate");
    let slices: Vec<Vec<String>> = (0..ways)
        .map(|s| {
            texts
                .iter()
                .enumerate()
                .filter(|(g, _)| shard_of(*g, ways) == s)
                .map(|(_, t)| t.clone())
                .collect()
        })
        .collect();
    let file =
        |round: usize, s: usize, ext: &str| dir.join(format!("round-{round}-shard-{s}.{ext}"));
    // One phase of shard `s`; returns why it ended early, if it did.
    let phase = |round: usize, s: usize, resume: bool| {
        let (journal, output) = (file(round, s, "journal"), file(round, s, "out"));
        let mut engine = Engine::new(cfg.clone(), Schema::paper(), Ontology::full());
        if kind == "quarantine" {
            if let Ok(q) = QuarantineFile::create(&file(round, s, "quarantine")) {
                engine = engine.with_quarantine(q);
            }
        }
        let run = JournalRun {
            journal: &journal,
            output: Some(&output),
            resume,
            compact_every: compact_every as u64,
        };
        let manifest = RunManifest::for_run(cfg, &slices[s]);
        match run_journaled(engine, &manifest, slices[s].iter().cloned(), run, |_| {}) {
            Ok(outcome) => outcome.abort,
            Err(e) => Some(e.to_string()),
        }
    };

    let mut violations = Vec::new();
    let mut round0_aborts = Vec::new();
    let mut event_logs = Vec::new();
    'rounds: for round in 0..2 {
        if fault_on_resume {
            for s in 0..ways {
                if let Some(e) = phase(round, s, false) {
                    violations.push(format!("pre-building the journal failed: {e}"));
                    break 'rounds;
                }
            }
        }
        if let Err(e) = FailpointRegistry::parse(spec).and_then(FailpointRegistry::install) {
            violations.push(format!("installing schedule: {e}"));
            break;
        }
        let aborts: Vec<Option<String>> = (0..ways)
            .map(|s| {
                std::thread::scope(|t| t.spawn(|| phase(round, s, fault_on_resume)).join())
                    .unwrap_or_else(|_| Some("panicked (contained)".to_string()))
            })
            .collect();
        event_logs.push(cmr_failpoint::events());
        cmr_failpoint::clear();
        if round == 0 {
            round0_aborts = aborts;
        }
    }
    let fires = event_logs.first().map_or(0, Vec::len);
    if event_logs.len() == 2 && event_logs[0] != event_logs[1] {
        violations.push(format!(
            "replay diverged: round 1 fired {:?}, round 2 fired {:?}",
            event_logs[0], event_logs[1]
        ));
    }
    let clean_abort = round0_aborts.iter().any(Option::is_some);

    let mut outputs = Vec::with_capacity(ways);
    for (s, slice) in slices.iter().enumerate() {
        let (jpath, opath) = (file(0, s, "journal"), file(0, s, "out"));
        let want: String = baseline
            .lines()
            .skip(s)
            .step_by(ways)
            .map(|l| format!("{l}\n"))
            .collect();
        let faulted = read(&opath);
        if !want.starts_with(&faulted) {
            violations.push(format!(
                "shard {s}: the faulted phase emitted lines that are not a prefix of the baseline"
            ));
        }
        // Write-ahead: every line the faulted phase emitted is journaled.
        let journaled = read_journal(&jpath).map_or(0, |read| read.completed());
        if faulted.lines().count() > journaled {
            violations.push(format!(
                "shard {s}: the faulted phase emitted {} line(s) but journaled {journaled}",
                faulted.lines().count()
            ));
        }
        if let Some(e) = phase(0, s, jpath.exists()) {
            violations.push(format!("shard {s}: resume after fault aborted: {e}"));
        }
        // O(remainder) resume: compaction bounds the healed journal to
        // manifest + snapshot plus less than one interval of entries.
        let lines = read(&jpath).lines().count();
        if compact_every > 0 && lines > compact_every + 1 {
            violations.push(format!(
                "shard {s}: journal holds {lines} line(s) after resume; compaction every \
                 {compact_every} records should bound it to {}",
                compact_every + 1
            ));
        }
        match read_journal(&jpath) {
            Ok(read) if read.completed() != slice.len() => violations.push(format!(
                "shard {s}: journal accounts for {} of {} record(s) after resume",
                read.completed(),
                slice.len()
            )),
            Ok(_) => {}
            Err(e) => violations.push(format!("shard {s}: journal unreadable after resume: {e}")),
        }
        outputs.push(read(&opath));
    }

    // Merge identity, through the real merge path.
    let mut readers: Vec<&[u8]> = outputs.iter().map(String::as_bytes).collect();
    let mut merged = Vec::new();
    if let Err(e) = merge_outputs(&mut readers, &mut merged) {
        violations.push(format!("merging shard outputs: {e}"));
    }
    if merged != baseline.as_bytes() {
        violations.push(format!(
            "output after resume diverged from the unfaulted baseline ({} vs {} byte(s))",
            merged.len(),
            baseline.len()
        ));
    }
    ScheduleReport {
        schedule: spec.to_string(),
        kind: kind.to_string(),
        fires,
        clean_abort,
        violations,
    }
}

/// One serve schedule: a request burst against an in-process server
/// under socket faults, then a liveness probe with the schedule cleared.
fn run_serve_schedule(spec: &str) -> ScheduleReport {
    let mut violations = Vec::new();
    if let Err(e) = FailpointRegistry::parse(spec).and_then(FailpointRegistry::install) {
        violations.push(format!("installing schedule: {e}"));
    }
    let shutdown = Arc::new(AtomicBool::new(false));
    let server = match Server::bind(
        ServeConfig {
            addr: "127.0.0.1:0".to_string(),
            jobs: 1,
            queue_depth: 16,
            ..ServeConfig::default()
        },
        Arc::clone(&shutdown),
    ) {
        Ok(s) => s,
        Err(e) => {
            cmr_failpoint::clear();
            violations.push(format!("binding server: {e}"));
            return ScheduleReport {
                schedule: spec.to_string(),
                kind: "serve".to_string(),
                fires: 0,
                clean_abort: false,
                violations,
            };
        }
    };
    let addr = server
        .local_addr()
        .map(|a| a.to_string())
        .unwrap_or_default();
    let handle = std::thread::spawn(move || server.run());

    // The burst: single notes and NDJSON batches (the latter exercise
    // the chunked writer). Every request must resolve — a response or a
    // transport error within the timeout — never a hang.
    let note = "Vitals:  Blood pressure is 144/90, pulse of 84.\n";
    let batch = format!("{:?}\n{:?}\n", note, "Pulse is 72. Temperature is 37.2.");
    let mut answered = 0usize;
    let mut refused = 0usize;
    for i in 0..20 {
        let (path, body) = if i % 3 == 0 {
            ("/extract/batch", batch.as_str())
        } else {
            ("/extract", note)
        };
        match burst_request(&addr, path, body) {
            Some(status) if (200..500).contains(&status) => answered += 1,
            Some(status) => violations.push(format!("request {i}: server error {status}")),
            None => refused += 1,
        }
    }
    let fires = cmr_failpoint::events().len();
    cmr_failpoint::clear();

    // Liveness: with the schedule cleared the same server must answer.
    match burst_request(&addr, "/extract", note) {
        Some(200) => {}
        outcome => violations.push(format!(
            "liveness probe after clearing faults got {outcome:?}, want 200"
        )),
    }
    shutdown.store(true, Ordering::Relaxed);
    let _ = TcpStream::connect(&addr); // nudge a blocked accept pass
    if handle.join().is_err() {
        violations.push("server thread panicked".to_string());
    }
    if answered == 0 && refused > 0 && fires == 0 {
        violations.push("no request was answered yet no failpoint fired".to_string());
    }
    ScheduleReport {
        schedule: spec.to_string(),
        kind: "serve".to_string(),
        fires,
        clean_abort: false,
        violations,
    }
}

/// One bounded-time request; `Some(status)` when a well-formed response
/// came back, `None` on connect/read/write failure (an acceptable
/// outcome *under faults* — the invariant is resolution, not success).
fn burst_request(addr: &str, path: &str, body: &str) -> Option<u16> {
    let mut stream = TcpStream::connect(addr).ok()?;
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .ok()?;
    stream
        .set_write_timeout(Some(Duration::from_secs(10)))
        .ok()?;
    let raw = format!(
        "POST {path} HTTP/1.1\r\nHost: {addr}\r\nConnection: close\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    );
    stream.write_all(raw.as_bytes()).ok()?;
    let mut response = Vec::new();
    let mut chunk = [0u8; 4096];
    loop {
        match stream.read(&mut chunk) {
            Ok(0) => break,
            Ok(n) => response.extend_from_slice(&chunk[..n]),
            Err(_) => break,
        }
    }
    let head = std::str::from_utf8(&response).ok()?;
    head.strip_prefix("HTTP/1.1 ")?
        .split(' ')
        .next()?
        .parse()
        .ok()
}
