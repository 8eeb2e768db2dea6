//! Property tests: the engine is a pure re-scheduling of the serial
//! pipeline. For any corpus and any worker count, the ordered output
//! sequence — successes and failures alike — must be identical to a
//! one-worker run, and metrics must stay internally consistent.

use cmr_engine::{read_journal, Engine, EngineConfig, JournalEntry, JournalWriter, RunManifest};
use proptest::prelude::*;
use std::io::Write;

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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

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
        let manifest = RunManifest::for_run(&cfg, &texts);
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
        prop_assert_eq!(read.manifest.mismatch(&RunManifest::for_run(&cfg, &texts)), None);
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
