//! # cmr-engine — parallel batch extraction with backpressure and fault isolation
//!
//! The paper processes clinical records one at a time; a deployment
//! processes cohorts. This crate scales the [`cmr_core::Pipeline`] to
//! batches without changing its single-record semantics:
//!
//! * **Worker pool** — a fixed pool of scoped threads, each owning a full
//!   `Pipeline` (the pipeline is `!Sync`: its link parser keeps a
//!   per-instance structure cache). Workers share the `Arc<Schema>` and
//!   `Arc<Ontology>` — the concept table is built once.
//! * **Backpressure** — bounded channels on both sides of the pool; memory
//!   stays proportional to the queue depth, not the corpus.
//! * **Determinism** — results are emitted strictly in input order, so
//!   `--jobs 8` output is byte-identical to `--jobs 1`.
//! * **Fault isolation** — a panicking or over-budget record becomes a
//!   structured [`EngineError`] item; the batch survives.
//! * **Metrics** — a serializable [`EngineMetrics`] snapshot: throughput,
//!   per-stage wall-time histograms, link-parser cache hit rates,
//!   association-method counts, error counts.
//! * **Durability** — a write-ahead journal ([`JournalWriter`]) of
//!   completed records with crash-recovery resume ([`run_journaled`],
//!   the one journaled-run loop the CLI and the fault sweep share),
//!   bounded retry ([`RetryPolicy`]) with a poison quarantine
//!   ([`QuarantineFile`]), a stuck-worker watchdog that cancels
//!   over-deadline parses ([`EngineError::Timeout`]), and graceful
//!   shutdown ([`Engine::with_shutdown`]) that drains in-flight records.
//!
//! ```
//! use cmr_engine::{Engine, EngineConfig};
//!
//! let engine = Engine::new(
//!     EngineConfig { jobs: 2, ..EngineConfig::default() },
//!     cmr_core::Schema::paper(),
//!     cmr_ontology::Ontology::full(),
//! );
//! let out = engine.extract_batch(&[
//!     "Vitals:  Blood pressure is 144/90, pulse of 84.\n",
//!     "Vitals:  Temperature 98.6, weight 150 pounds.\n",
//! ]);
//! assert_eq!(out.items.len(), 2);
//! assert_eq!(out.metrics.records, 2);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// Batch failures are per-item values (EngineError); an engine unwrap would
// defeat the fault isolation the crate exists to provide.
#![deny(clippy::unwrap_used)]

mod engine;
mod journal;
mod journaled;
mod metrics;
mod pool;
mod retry;
mod service;
mod shard;
mod watchdog;

pub use engine::{
    asset_fingerprint, startup_lint_summary, BatchOutput, Engine, EngineConfig, EngineError,
};
pub use journal::{
    config_fingerprint, corpus_hash, read_journal, verify_output_prefix, CorpusHasher,
    JournalEntry, JournalError, JournalRead, JournalReplay, JournalWriter, OutputFingerprint,
    RunManifest, Snapshot, JOURNAL_VERSION,
};
pub use journaled::{
    run_journaled, JournalOutcome, JournalRun, JournalRunError, RecordSink, RunEvent,
};
pub use metrics::{
    DegradationTotals, DurationHistogram, EngineMetrics, ErrorCounts, MethodCounts,
    ParseCacheMetrics, ServiceLatency, HISTOGRAM_BUCKETS,
};
pub use retry::{
    is_transient, read_quarantine, AttemptRecord, QuarantineEntry, QuarantineFile, RetryPolicy,
};
pub use service::{LatencyKind, ServiceHandle, ServiceWorker};
pub use shard::{merge_outputs, merge_quarantine, shard_of, ShardSpec};
