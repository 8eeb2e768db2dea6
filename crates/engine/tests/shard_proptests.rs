//! Property tests for corpus-scale sharding: for any corpus, any shard
//! count, and any crash point, the merged shard artifacts — output,
//! metrics totals, quarantine — must be identical to what one unsharded
//! run would have produced, and journal compaction must bound resume
//! replay to the post-snapshot remainder.

use cmr_engine::{
    merge_outputs, merge_quarantine, read_journal, verify_output_prefix, Engine, EngineConfig,
    EngineError, EngineMetrics, JournalEntry, JournalWriter, OutputFingerprint, QuarantineEntry,
    RunManifest, ShardSpec, Snapshot,
};
use proptest::prelude::*;
use std::io::Cursor;

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

fn corpus_texts(n: usize, seed: u64) -> Vec<String> {
    cmr_corpus::CorpusBuilder::new()
        .records(n)
        .seed(seed)
        .build()
        .records
        .into_iter()
        .map(|r| r.text)
        .collect()
}

/// The output lines an extraction run emits, one JSON line per record
/// (errors serialize in-band, exactly as the CLI sink writes them).
fn output_lines(items: &[Result<cmr_core::ExtractedRecord, EngineError>]) -> Vec<String> {
    items
        .iter()
        .map(|o| serde_json::to_string(o).expect("serialize outcome"))
        .collect()
}

/// The slice of `texts` that shard `index` of `total` owns.
fn shard_slice(texts: &[String], index: usize, total: usize) -> Vec<String> {
    let spec = ShardSpec { index, total };
    texts
        .iter()
        .enumerate()
        .filter(|(g, _)| spec.owns(*g))
        .map(|(_, t)| t.clone())
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// For any corpus and any shard count, running every shard
    /// independently and merging the outputs reproduces the unsharded
    /// run byte-for-byte.
    #[test]
    fn merged_output_matches_unsharded_for_any_shard_count(
        n in 1usize..12,
        seed in 0u64..300,
        shards in 1usize..=5,
    ) {
        let texts = corpus_texts(n, seed);
        let unsharded = output_lines(&engine(2).extract_batch(&texts).items);
        let want: String = unsharded.iter().map(|l| format!("{l}\n")).collect();

        let outputs: Vec<String> = (0..shards)
            .map(|s| {
                let slice = shard_slice(&texts, s, shards);
                output_lines(&engine(2).extract_batch(&slice).items)
                    .iter()
                    .map(|l| format!("{l}\n"))
                    .collect()
            })
            .collect();
        let mut readers: Vec<Cursor<&[u8]>> =
            outputs.iter().map(|o| Cursor::new(o.as_bytes())).collect();
        let mut merged = Vec::new();
        let lines = merge_outputs(&mut readers, &mut merged).expect("merge");
        prop_assert_eq!(lines as usize, n);
        prop_assert_eq!(merged, want.into_bytes());
    }

    /// Kill one shard at any record, resume it from its journal, merge:
    /// still identical to the unsharded run.
    #[test]
    fn killed_and_resumed_shard_merges_identically(
        n in 2usize..10,
        seed in 0u64..300,
        shards in 2usize..=4,
        victim in 0usize..4,
        kill_pct in 0usize..=100,
    ) {
        let texts = corpus_texts(n, seed);
        let victim = victim % shards;
        let unsharded = output_lines(&engine(2).extract_batch(&texts).items);
        let want: String = unsharded.iter().map(|l| format!("{l}\n")).collect();

        let cfg = EngineConfig { jobs: 2, ..EngineConfig::default() };
        let path = std::env::temp_dir().join(format!(
            "cmr-proptest-shard-{}-{n}-{seed}-{shards}-{victim}-{kill_pct}.journal",
            std::process::id()
        ));
        let outputs: Vec<String> = (0..shards)
            .map(|s| {
                let slice = shard_slice(&texts, s, shards);
                let lines = if s == victim {
                    // Crash after journaling the first k outcomes, then
                    // resume: replay the journal and extract the rest
                    // with a fresh engine, as `--resume` does.
                    let full = engine(2).extract_batch(&slice);
                    let k = slice.len() * kill_pct / 100;
                    let manifest = RunManifest::for_run(&cfg, &slice);
                    let mut journal =
                        JournalWriter::create(&path, &manifest).expect("create journal");
                    for (index, output) in full.items.iter().take(k).enumerate() {
                        journal
                            .append(&JournalEntry { index, output: output.clone() })
                            .expect("append");
                    }
                    drop(journal);
                    let read = read_journal(&path).expect("read back");
                    prop_assert_eq!(read.entries.len(), k);
                    let mut merged: Vec<_> =
                        read.entries.into_iter().map(|e| e.output).collect();
                    merged.extend(engine(2).extract_batch(&slice[k..]).items);
                    let _ = std::fs::remove_file(&path);
                    output_lines(&merged)
                } else {
                    output_lines(&engine(2).extract_batch(&slice).items)
                };
                Ok(lines.iter().map(|l| format!("{l}\n")).collect::<String>())
            })
            .collect::<Result<_, TestCaseError>>()?;
        let mut readers: Vec<Cursor<&[u8]>> =
            outputs.iter().map(|o| Cursor::new(o.as_bytes())).collect();
        let mut merged = Vec::new();
        merge_outputs(&mut readers, &mut merged).expect("merge");
        prop_assert_eq!(merged, want.into_bytes());
    }

    /// Summing per-shard metrics reproduces the unsharded run's
    /// deterministic counters exactly: record/error counts, method
    /// usage, degradation accounting, retries, quarantined records, and
    /// total parse-cache traffic. (Timings and the hit/miss *split* are
    /// scheduling-dependent and excluded by design.)
    #[test]
    fn merged_metrics_match_unsharded_totals(
        n in 1usize..10,
        seed in 0u64..300,
        shards in 1usize..=4,
    ) {
        let texts = corpus_texts(n, seed);
        let unsharded = engine(2).extract_batch(&texts).metrics;

        let mut merged = EngineMetrics::default();
        for s in 0..shards {
            let slice = shard_slice(&texts, s, shards);
            merged.merge(&engine(2).extract_batch(&slice).metrics);
        }
        prop_assert_eq!(merged.records, unsharded.records);
        prop_assert_eq!(merged.errors.total(), unsharded.errors.total());
        prop_assert_eq!(merged.methods.link_grammar, unsharded.methods.link_grammar);
        prop_assert_eq!(merged.methods.pattern, unsharded.methods.pattern);
        prop_assert_eq!(merged.methods.year_old, unsharded.methods.year_old);
        prop_assert_eq!(merged.methods.proximity, unsharded.methods.proximity);
        prop_assert_eq!(merged.methods.salvage, unsharded.methods.salvage);
        prop_assert_eq!(
            merged.degradation.degraded_records,
            unsharded.degradation.degraded_records
        );
        prop_assert_eq!(merged.retries, unsharded.retries);
        prop_assert_eq!(merged.quarantined, unsharded.quarantined);
        prop_assert_eq!(
            merged.parse_cache.hits + merged.parse_cache.misses,
            unsharded.parse_cache.hits + unsharded.parse_cache.misses
        );
    }

    /// Quarantine merging is a set union: whatever duplicate global
    /// indices kill-and-resume produced, the merged file is strictly
    /// ordered with exactly one entry per index.
    #[test]
    fn quarantine_merge_is_sorted_and_unique(
        indices in proptest::collection::vec(0usize..40, 0..25),
    ) {
        let entries: Vec<QuarantineEntry> = indices
            .iter()
            .map(|&index| QuarantineEntry {
                index,
                text: format!("note {index}"),
                error: EngineError::Timeout { millis: 50 },
                attempts: Vec::new(),
            })
            .collect();
        let merged = merge_quarantine(entries);
        let got: Vec<usize> = merged.iter().map(|e| e.index).collect();
        let mut want: Vec<usize> = indices;
        want.sort_unstable();
        want.dedup();
        prop_assert_eq!(got, want);
    }

    /// Compaction at any interval and any kill point: the healed journal
    /// holds at most `interval` entry lines past the snapshot, the
    /// snapshot fingerprint verifies the durable output prefix, and the
    /// resumed run is identical to the uninterrupted one.
    #[test]
    fn compaction_bounds_resume_replay_to_the_remainder(
        n in 1usize..12,
        seed in 0u64..300,
        interval in 1usize..=5,
        kill_pct in 0usize..=100,
    ) {
        let texts = corpus_texts(n, seed);
        let cfg = EngineConfig { jobs: 2, ..EngineConfig::default() };
        let full = engine(2).extract_batch(&texts);
        let lines = output_lines(&full.items);
        let k = n * kill_pct / 100;

        let path = std::env::temp_dir().join(format!(
            "cmr-proptest-compact-{}-{n}-{seed}-{interval}-{kill_pct}.journal",
            std::process::id()
        ));
        let manifest = RunManifest::for_run(&cfg, &texts);
        {
            let mut journal = JournalWriter::create(&path, &manifest).expect("create");
            let mut fingerprint = OutputFingerprint::new();
            for (index, output) in full.items.iter().take(k).enumerate() {
                journal
                    .append(&JournalEntry { index, output: output.clone() })
                    .expect("append");
                fingerprint.add_line(&lines[index]);
                if (index + 1) % interval == 0 {
                    let snapshot = Snapshot {
                        completed: index + 1,
                        output_fingerprint: fingerprint.as_hex(),
                    };
                    journal = JournalWriter::compact(&path, &manifest, &snapshot)
                        .expect("compact");
                }
            }
        }

        // O(remainder): line count is manifest (+ snapshot) + at most
        // `interval - 1` surviving entry lines — never O(k).
        let raw_lines = std::fs::read_to_string(&path).expect("read raw").lines().count();
        prop_assert!(
            raw_lines <= interval + 1,
            "journal holds {} lines at kill point {} (interval {})",
            raw_lines, k, interval
        );
        let read = read_journal(&path).expect("read back");
        prop_assert_eq!(read.completed(), k);
        let snapshot_completed = (k / interval) * interval;
        prop_assert_eq!(read.snapshot_completed(),
            if snapshot_completed > 0 { snapshot_completed } else { 0 });
        prop_assert_eq!(read.entries.len(), k - read.snapshot_completed());

        // The snapshot fingerprint proves the durable output prefix.
        if let Some(snapshot) = &read.snapshot {
            let durable: String = lines.iter().map(|l| format!("{l}\n")).collect();
            let (offset, fp) =
                verify_output_prefix(&mut Cursor::new(durable.as_bytes()), snapshot)
                    .expect("prefix verifies");
            let want_offset: usize = lines[..snapshot.completed]
                .iter()
                .map(|l| l.len() + 1)
                .sum();
            prop_assert_eq!(offset as usize, want_offset);
            prop_assert_eq!(fp.as_hex(), snapshot.output_fingerprint.clone());
        }

        // Resume: snapshot prefix (from the durable output) + replayed
        // entries + freshly extracted tail == the uninterrupted run.
        let mut resumed: Vec<String> = lines[..read.snapshot_completed()].to_vec();
        resumed.extend(read.entries.iter().map(|e| {
            serde_json::to_string(&e.output).expect("serialize entry")
        }));
        resumed.extend(output_lines(&engine(2).extract_batch(&texts[k..]).items));
        let _ = std::fs::remove_file(&path);
        prop_assert_eq!(resumed, lines);
    }
}
