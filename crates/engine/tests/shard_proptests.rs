//! Property tests for corpus-scale sharding: for any corpus, any shard
//! count, and any crash point, the merged shard artifacts — output,
//! metrics totals, quarantine — must be identical to what one unsharded
//! run would have produced, and journal compaction must bound resume
//! replay to the post-snapshot remainder.

use cmr_engine::{
    merge_outputs, merge_quarantine, read_journal, read_quarantine, run_journaled,
    verify_output_prefix, Engine, EngineConfig, EngineError, EngineMetrics, JournalEntry,
    JournalRun, JournalWriter, OutputFingerprint, QuarantineEntry, RecordSink, RunEvent,
    RunManifest, ShardSpec, Snapshot,
};
use proptest::prelude::*;
use std::io::{Cursor, Write};
use std::path::{Path, PathBuf};
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

/// A fresh scratch directory for one test case.
fn scratch_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("cmr-proptest-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("scratch dir");
    dir
}

/// Extracts `texts` through a [`RecordSink`] into `DIR/NAME.out` and the
/// quarantine `DIR/NAME.q`; returns the run's metrics.
fn sink_run(cfg: &EngineConfig, texts: &[String], dir: &Path, name: &str) -> EngineMetrics {
    let (out, q) = (
        dir.join(format!("{name}.out")),
        dir.join(format!("{name}.q")),
    );
    let mut sink = RecordSink::open(Some(&out), Some(&q)).expect("open sink");
    let engine = Engine::new(
        cfg.clone(),
        cmr_core::Schema::paper(),
        cmr_ontology::Ontology::full(),
    );
    let metrics = engine.extract_to(texts.iter().cloned(), &mut sink);
    sink.flush().expect("flush sink");
    metrics
}

/// A shard's journaled run into `DIR/NAME.{journal,out,q}`. With
/// `kill_after`, a first pass is stopped by its shutdown flag once that
/// many records are journaled and, with `torn_tail`, its output and
/// quarantine get a torn last line; a second pass resumes it.
fn journaled_shard(
    cfg: &EngineConfig,
    slice: &[String],
    (dir, name): (&Path, &str),
    kill_after: Option<u64>,
    compact_every: u64,
    torn_tail: bool,
) {
    let file = |ext: &str| dir.join(format!("{name}.{ext}"));
    let (journal, out, q) = (file("journal"), file("out"), file("q"));
    let manifest = RunManifest::for_run(cfg, slice).expect("readable test binary");
    let pass = |resume: bool, stop_after: Option<u64>| {
        let stop = Arc::new(AtomicBool::new(false));
        let engine = Engine::new(
            cfg.clone(),
            cmr_core::Schema::paper(),
            cmr_ontology::Ontology::full(),
        )
        .with_shutdown(Arc::clone(&stop));
        let run = JournalRun {
            journal: &journal,
            output: Some(&out),
            quarantine: Some(&q),
            resume,
            compact_every,
        };
        let outcome = run_journaled(engine, &manifest, slice.iter().cloned(), run, |event| {
            if matches!(event, RunEvent::Journaled(n) if Some(n) == stop_after) {
                stop.store(true, Ordering::Relaxed);
            }
        })
        .expect("journaled run");
        assert!(outcome.abort.is_none(), "{:?}", outcome.abort);
    };
    pass(false, kill_after);
    if kill_after.is_some() {
        if torn_tail {
            for path in [&out, &q] {
                let mut f = std::fs::OpenOptions::new()
                    .append(true)
                    .open(path)
                    .expect("reopen");
                f.write_all(b"{\"index\":99").expect("tear");
            }
        }
        pass(true, None);
    }
}

/// What `cmr merge` writes for the shards' quarantine files.
fn merged_quarantine(dir: &Path, shards: usize) -> String {
    let entries = (0..shards)
        .map(|s| read_quarantine(&dir.join(format!("shard-{s}.q"))).expect("shard quarantine"))
        .collect();
    merge_quarantine(entries)
        .iter()
        .map(|e| serde_json::to_string(e).expect("serialize entry") + "\n")
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

    /// Kill one shard at any record (tearing its files' last line or
    /// not), resume it through `run_journaled` at any compaction
    /// interval, merge: the output and the quarantine are byte-identical
    /// to an unsharded one-worker run's.
    #[test]
    fn killed_and_resumed_shard_merges_identically(
        n in 2usize..10,
        seed in 0u64..300,
        shards in 2usize..=4,
        victim in 0usize..4,
        kill_pct in 0usize..=100,
        budget in 0usize..8,
        compact_every in 0u64..=4,
        torn_tail in proptest::bool::ANY,
    ) {
        let texts = corpus_texts(n, seed);
        let victim = victim % shards;
        let cfg = EngineConfig {
            jobs: 2,
            max_record_sentences: (budget > 0).then_some(budget),
            ..EngineConfig::default()
        };
        let dir = scratch_dir(&format!(
            "shard-{n}-{seed}-{shards}-{victim}-{kill_pct}-{budget}-{compact_every}-{torn_tail}"
        ));
        sink_run(&EngineConfig { jobs: 1, ..cfg }, &texts, &dir, "unsharded");
        for s in 0..shards {
            let slice = shard_slice(&texts, s, shards);
            let kill_after = (s == victim).then_some((slice.len() * kill_pct / 100) as u64);
            let name = format!("shard-{s}");
            journaled_shard(&cfg, &slice, (&dir, &name), kill_after, compact_every, torn_tail);
        }
        let read = |name: &str| std::fs::read_to_string(dir.join(name)).expect("run file");
        let outputs: Vec<String> = (0..shards).map(|s| read(&format!("shard-{s}.out"))).collect();
        let mut readers: Vec<Cursor<&[u8]>> =
            outputs.iter().map(|o| Cursor::new(o.as_bytes())).collect();
        let mut merged = Vec::new();
        merge_outputs(&mut readers, &mut merged).expect("merge");
        let quarantine = merged_quarantine(&dir, shards);
        let (want, want_quarantine) = (read("unsharded.out"), read("unsharded.q"));
        let _ = std::fs::remove_dir_all(&dir);
        prop_assert_eq!(String::from_utf8(merged).expect("utf-8"), want);
        prop_assert_eq!(quarantine, want_quarantine);
    }

    /// Summing per-shard metrics reproduces the unsharded run's
    /// deterministic counters exactly: record/error counts, method
    /// usage, degradation accounting and total parse-cache traffic; and
    /// the merged quarantine is the unsharded one. (Timings and the
    /// hit/miss *split* are scheduling-dependent and excluded by design.)
    #[test]
    fn merged_metrics_match_unsharded_totals(
        n in 1usize..10,
        seed in 0u64..300,
        shards in 1usize..=4,
        budget in 0usize..8,
    ) {
        let texts = corpus_texts(n, seed);
        let cfg = EngineConfig {
            jobs: 2,
            max_record_sentences: (budget > 0).then_some(budget),
            ..EngineConfig::default()
        };
        let dir = scratch_dir(&format!("metrics-{n}-{seed}-{shards}-{budget}"));
        let unsharded = sink_run(&cfg, &texts, &dir, "unsharded");

        let mut merged = EngineMetrics::default();
        for s in 0..shards {
            let slice = shard_slice(&texts, s, shards);
            merged.merge(&sink_run(&cfg, &slice, &dir, &format!("shard-{s}")));
        }
        let quarantine = merged_quarantine(&dir, shards);
        let want_quarantine = std::fs::read_to_string(dir.join("unsharded.q")).expect("quarantine");
        let _ = std::fs::remove_dir_all(&dir);
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
        prop_assert_eq!(quarantine, want_quarantine);
        prop_assert_eq!(
            merged.parse_cache.hits + merged.parse_cache.misses,
            unsharded.parse_cache.hits + unsharded.parse_cache.misses
        );
    }

    /// Quarantine merging maps each shard's stream indices to global
    /// ones: for any set of failed global indices, split across shards
    /// the way a sharded run would file them, the merged entries are
    /// exactly that set, strictly ordered, one entry per index.
    #[test]
    fn quarantine_merge_is_sorted_and_unique(
        indices in proptest::collection::vec(0usize..40, 0..25),
        shards in 1usize..=5,
    ) {
        let failed: std::collections::BTreeSet<usize> = indices.into_iter().collect();
        let entries: Vec<Vec<QuarantineEntry>> = (0..shards)
            .map(|s| {
                failed
                    .iter()
                    .filter(|&&g| ShardSpec { index: s, total: shards }.owns(g))
                    .map(|&g| QuarantineEntry {
                        index: g / shards,
                        text: format!("note {g}"),
                        error: EngineError::Timeout { millis: 50 },
                    })
                    .collect()
            })
            .collect();
        let merged = merge_quarantine(entries);
        for entry in &merged {
            prop_assert_eq!(&entry.text, &format!("note {}", entry.index));
        }
        let got: Vec<usize> = merged.iter().map(|e| e.index).collect();
        prop_assert_eq!(got, failed.into_iter().collect::<Vec<_>>());
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
        let manifest = RunManifest::for_run(&cfg, &texts).expect("readable test binary");
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
                        ..Snapshot::default()
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
