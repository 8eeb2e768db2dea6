//! Durability integration tests: journal + resume equivalence, poison
//! quarantine, the per-record deadline, and graceful shutdown.

use cmr_engine::{
    read_journal, read_quarantine, Engine, EngineConfig, EngineError, JournalEntry, JournalWriter,
    RecordSink, RunManifest,
};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

fn scratch(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("cmr-durability-{name}-{}", std::process::id()))
}

fn engine(cfg: EngineConfig) -> Engine {
    Engine::new(
        cfg,
        cmr_core::Schema::paper(),
        cmr_ontology::Ontology::full(),
    )
}

fn corpus(n: usize, seed: u64) -> Vec<String> {
    cmr_corpus::CorpusBuilder::new()
        .records(n)
        .seed(seed)
        .build()
        .records
        .into_iter()
        .map(|r| r.text)
        .collect()
}

/// A record whose link parses take far longer than the deadlines used in
/// these tests: sixteen coordination chains of twelve conjuncts ("Pulse of
/// 84 and pressure of 90, temperature of 98 …"), each joined by its own
/// mix of "and" and "," so that every sentence is a distinct shape and a
/// cold parse. One chain parses in ~10 ms; the record takes ~210 ms
/// uncancelled (release build, 2-CPU x86-64 box), over 8× a 25 ms deadline.
/// The deadline covers the whole record, so it trips mid-record.
fn slow_record() -> String {
    const ITEMS: [&str; 5] = [
        "pulse of 84",
        "pressure of 90",
        "temperature of 98",
        "weight of 150",
        "rate of 20",
    ];
    let mut s = String::from("Vitals: ");
    for chain in 1..=16u32 {
        s.push_str(" Pulse of 84");
        for (i, item) in ITEMS.iter().cycle().enumerate().take(12).skip(1) {
            s.push_str(if chain >> (i - 1) & 1 == 1 {
                ", "
            } else {
                " and "
            });
            s.push_str(item);
        }
        s.push('.');
    }
    s.push('\n');
    s
}

/// The kill-at-record-k scenario at engine level: journal the first `k`
/// outcomes, "crash", then resume — replay the journal, extract only the
/// remainder — and require the merged output byte-identical to an
/// uninterrupted run.
#[test]
fn kill_at_fixed_record_then_resume_is_byte_identical() {
    let texts = corpus(6, 2005);
    let cfg = EngineConfig {
        jobs: 2,
        ..EngineConfig::default()
    };
    let uninterrupted = engine(cfg.clone()).extract_batch(&texts);

    let k = 3usize;
    let path = scratch("fixed-k.journal");
    let manifest = RunManifest::for_run(&cfg, &texts).expect("readable test binary");
    {
        let mut journal = JournalWriter::create(&path, &manifest).expect("create journal");
        for (index, output) in uninterrupted.items.iter().take(k).enumerate() {
            journal
                .append(&JournalEntry {
                    index,
                    output: output.clone(),
                })
                .expect("journal prefix");
        }
        // The writer is dropped here: the "crash".
    }

    // Resume: validate the manifest, replay the journaled prefix, process
    // only the remainder with a *fresh* engine (fresh caches, different
    // process in real life).
    let read = read_journal(&path).expect("journal reads back");
    assert_eq!(
        read.manifest
            .mismatch(&RunManifest::for_run(&cfg, &texts).expect("readable test binary")),
        None
    );
    assert_eq!(read.entries.len(), k);
    let mut merged: Vec<_> = read.entries.into_iter().map(|e| e.output).collect();
    let tail = engine(cfg).extract_batch(&texts[k..]);
    merged.extend(tail.items);

    assert_eq!(
        serde_json::to_string(&merged).expect("serialize"),
        serde_json::to_string(&uninterrupted.items).expect("serialize"),
        "resumed run must be byte-identical to the uninterrupted one"
    );
    let _ = std::fs::remove_file(&path);
}

/// A poison record is quarantined exactly once with its typed error after
/// its one attempt; the rest of the batch is unaffected.
#[test]
fn poison_record_is_quarantined_exactly_once_and_batch_survives() {
    let quarantine_path = scratch("poison.ndjson");
    let output_path = scratch("poison.out");
    let good = "Vitals:  Blood pressure is 144/90, pulse of 84.\n";
    // Two parse-worthy sentences against a one-sentence budget: a
    // deterministic Budget failure.
    let poison = "Vitals:  Blood pressure is 144/90.  Pulse of 84 was noted.  \
                  Temperature is 98.6 today.\n";
    let cfg = EngineConfig {
        jobs: 2,
        max_record_sentences: Some(1),
        ..EngineConfig::default()
    };
    let mut sink = RecordSink::open(Some(&output_path), Some(&quarantine_path)).expect("open sink");
    let metrics = engine(cfg).extract_to([poison, good].map(String::from).into_iter(), &mut sink);
    sink.flush().expect("flush sink");

    let lines: Vec<String> = std::fs::read_to_string(&output_path)
        .expect("output reads back")
        .lines()
        .map(String::from)
        .collect();
    assert!(
        lines[0].starts_with("{\"error\":\"budget exceeded"),
        "poison record fails as budget: {}",
        lines[0]
    );
    assert!(
        !lines[1].starts_with("{\"error\""),
        "batch survives the poison record"
    );
    assert_eq!(metrics.errors.total(), 1);
    assert_eq!(metrics.errors.budget, 1, "final outcome counted once");

    let entries = read_quarantine(&quarantine_path).expect("quarantine reads back");
    assert_eq!(entries.len(), 1, "poison record appears exactly once");
    assert_eq!(entries[0].index, 0);
    assert_eq!(entries[0].text, poison);
    assert!(matches!(entries[0].error, EngineError::Budget { .. }));
    let _ = std::fs::remove_file(&quarantine_path);
    let _ = std::fs::remove_file(&output_path);
}

/// Without a quarantine attached, the failing record only errors in-band.
#[test]
fn failed_record_without_quarantine_only_errors_in_band() {
    let poison = "Vitals:  Blood pressure is 144/90.  Pulse of 84 was noted.\n";
    let cfg = EngineConfig {
        jobs: 1,
        max_record_sentences: Some(1),
        ..EngineConfig::default()
    };
    let out = engine(cfg).extract_batch(&[poison]);
    assert!(matches!(out.items[0], Err(EngineError::Budget { .. })));
    assert_eq!(out.metrics.errors.budget, 1);
    assert_eq!(out.metrics.errors.total(), 1);
}

/// A record whose single sentence parses longer than the wall-clock
/// deadline is cancelled mid-parse and surfaces as a Timeout (not a
/// Budget trip), counted in the metrics — and well before the parse would
/// have finished on its own.
#[test]
fn deadline_cancels_stuck_parse_as_timeout() {
    let cfg = EngineConfig {
        jobs: 1,
        max_record_millis: Some(25),
        ..EngineConfig::default()
    };
    let out = engine(cfg).extract_batch(&[slow_record()]);
    assert!(
        matches!(out.items[0], Err(EngineError::Timeout { millis: 25 })),
        "expected a timeout: {:?}",
        out.items[0]
    );
    assert_eq!(out.metrics.errors.timeouts, 1);
    assert_eq!(
        out.metrics.errors.budget, 0,
        "classified as timeout, not budget"
    );
    assert_eq!(out.metrics.records, 0, "cancelled record is not a success");
}

/// The same pathological record under no deadline extracts fine — the
/// deadline, not the record, is what fails it above.
#[test]
fn slow_record_succeeds_without_a_deadline() {
    let out = engine(EngineConfig {
        jobs: 1,
        ..EngineConfig::default()
    })
    .extract_batch(&[slow_record()]);
    assert!(out.items[0].is_ok(), "{:?}", out.items[0]);
    assert_eq!(out.metrics.errors.total(), 0);
}

/// Raising the shutdown flag before the run starts means nothing is fed:
/// the engine returns promptly with an empty, clean result — the
/// already-journaled prefix (none here) stays a valid resume point.
#[test]
fn pre_raised_shutdown_flag_processes_nothing() {
    let flag = Arc::new(AtomicBool::new(true));
    let texts = corpus(4, 7);
    let mut seen = 0usize;
    let metrics = engine(EngineConfig {
        jobs: 2,
        ..EngineConfig::default()
    })
    .with_shutdown(flag)
    .extract_stream(texts.iter().cloned(), |_idx, _result| seen += 1);
    assert_eq!(seen, 0, "no record may be fed after shutdown");
    assert_eq!(metrics.records, 0);
    assert_eq!(metrics.errors.total(), 0, "shutdown is not an error");
}

/// A flag raised mid-run drains what was fed and stops: the sink sees a
/// contiguous prefix of successes, never a gap or an aborted tail.
#[test]
fn mid_run_shutdown_drains_a_clean_prefix() {
    let flag = Arc::new(AtomicBool::new(false));
    let texts: Vec<String> = corpus(1, 7).into_iter().cycle().take(500).collect();
    let sink_flag = Arc::clone(&flag);
    let mut outputs = Vec::new();
    let _metrics = engine(EngineConfig {
        jobs: 2,
        queue_depth: 2,
        ..EngineConfig::default()
    })
    .with_shutdown(Arc::clone(&flag))
    .extract_stream(texts.iter().cloned(), |idx, result| {
        // Ask for shutdown as soon as the first record lands.
        sink_flag.store(true, Ordering::Relaxed);
        outputs.push((idx, result));
    });
    assert!(!outputs.is_empty(), "at least the first record completes");
    assert!(outputs.len() < 500, "shutdown flag did not stop the feeder");
    for (i, (idx, result)) in outputs.iter().enumerate() {
        assert_eq!(*idx, i, "prefix must be contiguous");
        assert!(result.is_ok(), "drained records are processed, not aborted");
    }
}
