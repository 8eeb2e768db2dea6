//! Property tests: the engine is a pure re-scheduling of the serial
//! pipeline. For any corpus and any worker count, the ordered output
//! sequence — successes and failures alike — must be identical to a
//! one-worker run, and metrics must stay internally consistent.

use cmr_engine::{
    read_journal, run_journaled, DegradationTotals, Engine, EngineConfig, EngineMetrics,
    ErrorCounts, JournalEntry, JournalOutcome, JournalRun, JournalWriter, MethodCounts, RecordSink,
    RunEvent, RunManifest,
};
use proptest::prelude::*;
use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

fn engine(jobs: usize) -> Engine {
    Engine::new(
        EngineConfig {
            jobs,
            ..EngineConfig::default()
        },
        cmr_core::Schema::paper(),
        cmr_ontology::Ontology::full(),
    )
}

/// One [`run_journaled`] pass over `texts` with the journal, output and
/// quarantine in `files`. With `stop_after`, the engine's shutdown flag
/// is raised once that many records are journaled, the way a SIGINT
/// handler stops `cmr extract`.
fn journaled_pass(
    cfg: &EngineConfig,
    texts: &[String],
    files: (&Path, &Path, &Path),
    resume: bool,
    compact_every: u64,
    stop_after: Option<u64>,
) -> JournalOutcome {
    let stop = Arc::new(AtomicBool::new(false));
    let engine = Engine::new(
        cfg.clone(),
        cmr_core::Schema::paper(),
        cmr_ontology::Ontology::full(),
    )
    .with_shutdown(Arc::clone(&stop));
    let run = JournalRun {
        journal: files.0,
        output: Some(files.1),
        quarantine: Some(files.2),
        resume,
        compact_every,
    };
    let manifest = RunManifest::for_run(cfg, texts).expect("readable test binary");
    run_journaled(engine, &manifest, texts.iter().cloned(), run, |event| {
        if matches!(event, RunEvent::Journaled(n) if Some(n) == stop_after) {
            stop.store(true, Ordering::Relaxed);
        }
    })
    .expect("journaled run")
}

/// The metrics counts that are a function of the corpus alone.
fn deterministic_counts(m: &EngineMetrics) -> (u64, ErrorCounts, MethodCounts, DegradationTotals) {
    (m.records, m.errors, m.methods, m.degradation)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// The production resume loop end to end: a [`run_journaled`] run
    /// stopped by its shutdown flag, then resumed through
    /// `run_journaled`, writes the output and quarantine bytes and
    /// reports the deterministic counts of one uninterrupted one-worker
    /// run — at any compaction interval and any stop point, over clean
    /// or noisy notes, with or without budget failures among them.
    #[test]
    fn stopped_and_resumed_journaled_run_matches_an_uninterrupted_one(
        n in 100usize..160,
        seed in 0u64..300,
        noise_pct in 0u32..=30,
        budget in 0usize..12,
        compact_every in 0u64..=12,
        stop_after in 1u64..32,
    ) {
        let injector = cmr_corpus::NoiseInjector::from_level(f64::from(noise_pct) / 100.0, seed);
        let texts: Vec<String> = cmr_corpus::CorpusBuilder::new()
            .records(n)
            .seed(seed)
            .build()
            .records
            .iter()
            .map(|r| injector.corrupt(&r.text))
            .collect();
        // A one-record queue keeps the feeder within a few dispatch
        // chunks of the sink, so the flag usually stops the run short of
        // the corpus end.
        let cfg = EngineConfig {
            jobs: 2,
            queue_depth: 1,
            max_record_sentences: (budget > 0).then_some(budget),
            ..EngineConfig::default()
        };
        let dir = std::env::temp_dir().join(format!(
            "cmr-proptest-journaled-{}-{n}-{seed}-{noise_pct}-{budget}-{compact_every}-{stop_after}",
            std::process::id()
        ));
        std::fs::create_dir_all(&dir).expect("scratch dir");
        let read = |name: &str| std::fs::read_to_string(dir.join(name)).expect("run file");

        let (want_out, want_q) = (dir.join("want.out"), dir.join("want.q"));
        let mut sink = RecordSink::open(Some(&want_out), Some(&want_q)).expect("sink");
        let uninterrupted = Engine::new(
            EngineConfig { jobs: 1, ..cfg },
            cmr_core::Schema::paper(),
            cmr_ontology::Ontology::full(),
        )
        .extract_to(texts.iter().cloned(), &mut sink);
        sink.flush().expect("flush");

        let files = (dir.join("run.journal"), dir.join("run.out"), dir.join("run.q"));
        let files = (files.0.as_path(), files.1.as_path(), files.2.as_path());
        let stopped = journaled_pass(&cfg, &texts, files, false, compact_every, Some(stop_after));
        prop_assert!(stopped.abort.is_none());
        prop_assert!(stopped.completed >= stop_after as usize);
        let resumed = journaled_pass(&cfg, &texts, files, true, compact_every, None);
        let (got, want) = ((read("run.out"), read("run.q")), (read("want.out"), read("want.q")));
        let _ = std::fs::remove_dir_all(&dir);

        prop_assert!(resumed.abort.is_none());
        prop_assert_eq!(resumed.completed, n);
        prop_assert_eq!(got, want);
        prop_assert_eq!(
            deterministic_counts(&resumed.metrics),
            deterministic_counts(&uninterrupted)
        );
    }

    /// Any corpus, any worker count 1–8: output identical to serial.
    #[test]
    fn any_worker_count_matches_serial(
        n in 1usize..8,
        seed in 0u64..500,
        jobs in 2usize..=8,
    ) {
        let corpus = cmr_corpus::CorpusBuilder::new().records(n).seed(seed).build();
        let texts: Vec<&str> = corpus.records.iter().map(|r| r.text.as_str()).collect();
        let serial = engine(1).extract_batch(&texts);
        let parallel = engine(jobs).extract_batch(&texts);
        prop_assert_eq!(
            serde_json::to_string(&serial.items).expect("serialize"),
            serde_json::to_string(&parallel.items).expect("serialize")
        );
    }

    /// Metrics bookkeeping holds for any run shape: every record is either
    /// counted as a success sample or as an error, never both or neither.
    #[test]
    fn metrics_account_for_every_record(
        n in 1usize..8,
        seed in 0u64..500,
        jobs in 1usize..=4,
    ) {
        let corpus = cmr_corpus::CorpusBuilder::new().records(n).seed(seed).build();
        let texts: Vec<&str> = corpus.records.iter().map(|r| r.text.as_str()).collect();
        let out = engine(jobs).extract_batch(&texts);
        prop_assert_eq!(out.items.len(), n);
        let failures = out.items.iter().filter(|r| r.is_err()).count();
        prop_assert_eq!(out.metrics.records as usize, n - failures);
        prop_assert_eq!(out.metrics.errors.total() as usize, failures);
    }

    /// Kill-at-any-record resume: journal the first `k` outcomes of a run,
    /// crash (optionally tearing the final journal line mid-write), resume
    /// from the journal with a fresh engine — the merged output must be
    /// byte-identical to the uninterrupted run for every kill point.
    #[test]
    fn resume_from_any_kill_point_is_byte_identical(
        n in 1usize..8,
        seed in 0u64..500,
        kill_pct in 0usize..=100,
        torn_tail in proptest::bool::ANY,
    ) {
        let corpus = cmr_corpus::CorpusBuilder::new().records(n).seed(seed).build();
        let texts: Vec<String> = corpus.records.iter().map(|r| r.text.clone()).collect();
        let cfg = EngineConfig { jobs: 2, ..EngineConfig::default() };
        let uninterrupted = engine(2).extract_batch(&texts);
        let k = n * kill_pct / 100;

        let path = std::env::temp_dir().join(format!(
            "cmr-proptest-resume-{}-{n}-{seed}-{k}.journal",
            std::process::id()
        ));
        let manifest = RunManifest::for_run(&cfg, &texts).expect("readable test binary");
        {
            let mut journal = JournalWriter::create(&path, &manifest).expect("create");
            for (index, output) in uninterrupted.items.iter().take(k).enumerate() {
                journal
                    .append(&JournalEntry { index, output: output.clone() })
                    .expect("append");
            }
        }
        if torn_tail {
            // A crash mid-write leaves a partial line with no trailing
            // newline; resume must drop it and re-process that record.
            let mut f = std::fs::OpenOptions::new()
                .append(true)
                .open(&path)
                .expect("reopen");
            f.write_all(b"{\"index\":999,\"outp").expect("tear");
        }

        let read = read_journal(&path).expect("read back");
        let rebuilt = RunManifest::for_run(&cfg, &texts).expect("readable test binary");
        prop_assert_eq!(read.manifest.mismatch(&rebuilt), None);
        prop_assert_eq!(read.entries.len(), k);
        let mut merged: Vec<_> = read.entries.into_iter().map(|e| e.output).collect();
        let tail = engine(2).extract_batch(&texts[k..]);
        merged.extend(tail.items);
        let _ = std::fs::remove_file(&path);

        prop_assert_eq!(
            serde_json::to_string(&merged).expect("serialize"),
            serde_json::to_string(&uninterrupted.items).expect("serialize")
        );
    }
}
