//! The batch-extraction engine.

use crate::journaled::RecordSink;
use crate::metrics::{EngineMetrics, ParseCacheMetrics};
use crate::pool::{panic_message, run_ordered, PoolConfig, PoolStats};
use cmr_core::{
    AssociationMethod, BudgetExceeded, BudgetLimit, ExtractBudget, ExtractedRecord, PatternSet,
    Pipeline, Schema,
};
use cmr_ontology::Ontology;
use cmr_text::Record;
use serde::{Deserialize, Serialize};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::AtomicBool;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Engine configuration.
#[derive(Debug, Clone)]
pub struct EngineConfig {
    /// Worker threads; `0` means auto (one per available core).
    pub jobs: usize,
    /// Bound of the input queue (records buffered ahead of the workers).
    pub queue_depth: usize,
    /// Per-record wall-clock budget, milliseconds. The link parser checks
    /// it inside its search, so one pathological sentence cannot run far
    /// past it.
    pub max_record_millis: Option<u64>,
    /// Per-record sentence (link-parse step) budget.
    pub max_record_sentences: Option<usize>,
    /// Feature–number association method for the numeric stage.
    pub method: AssociationMethod,
    /// POS-pattern inventory for the medical-term stage.
    pub term_patterns: PatternSet,
    /// Run the last-resort salvage tier for fields the structured tiers
    /// missed. On by default; ablations turn it off to isolate the
    /// structured methods.
    pub salvage: bool,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            jobs: 0,
            queue_depth: 32,
            max_record_millis: None,
            max_record_sentences: None,
            method: AssociationMethod::LinkWithFallback,
            term_patterns: PatternSet::Paper,
            salvage: true,
        }
    }
}

impl EngineConfig {
    /// Resolves `jobs == 0` to the number of available cores.
    pub fn resolved_jobs(&self) -> usize {
        if self.jobs > 0 {
            self.jobs
        } else {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        }
    }
}

/// Why one record failed. The batch itself survives — failures are
/// per-item values in the output stream.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum EngineError {
    /// Extraction panicked; the payload message is preserved.
    Panicked {
        /// The panic message.
        message: String,
    },
    /// The record reached its sentence budget.
    Budget {
        /// Sentences fully processed before the budget tripped.
        sentences_done: usize,
    },
    /// The record ran past its wall-clock deadline, whether the deadline
    /// passed between sentences or cancelled a link parse mid-search.
    Timeout {
        /// The deadline that was exceeded, milliseconds.
        millis: u64,
    },
}

impl std::fmt::Display for EngineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EngineError::Panicked { message } => write!(f, "extraction panicked: {message}"),
            EngineError::Budget { sentences_done } => {
                write!(f, "budget exceeded after {sentences_done} sentence(s)")
            }
            EngineError::Timeout { millis } => {
                write!(f, "record exceeded its {millis} ms deadline")
            }
        }
    }
}

impl std::error::Error for EngineError {}

/// The result of [`Engine::extract_batch`]: one slot per input record, in
/// input order, plus the run's metrics.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct BatchOutput {
    /// Per-record outcomes, in input order.
    pub items: Vec<Result<ExtractedRecord, EngineError>>,
    /// Aggregate metrics for the run.
    pub metrics: EngineMetrics,
}

impl BatchOutput {
    /// Iterates over the successful records.
    pub fn successes(&self) -> impl Iterator<Item = &ExtractedRecord> {
        self.items.iter().filter_map(|r| r.as_ref().ok())
    }
}

/// The parallel batch-extraction engine.
///
/// Holds shared read-only configuration (`Arc<Schema>`, `Arc<Ontology>`);
/// each run spins up a scoped worker pool where every worker owns a
/// full [`Pipeline`] (and thus its own link-parser cache — the pipeline is
/// `!Sync` by design). Results stream out in input order regardless of the
/// worker count, so `--jobs N` output is byte-identical to serial.
pub struct Engine {
    cfg: EngineConfig,
    schema: Arc<Schema>,
    ontology: Arc<Ontology>,
    pub(crate) shutdown: Option<Arc<AtomicBool>>,
}

impl Default for Engine {
    fn default() -> Self {
        Engine::new(EngineConfig::default(), Schema::paper(), Ontology::full())
    }
}

impl Engine {
    /// Builds an engine over shared configuration. Accepts owned values or
    /// pre-shared `Arc`s.
    pub fn new(
        cfg: EngineConfig,
        schema: impl Into<Arc<Schema>>,
        ontology: impl Into<Arc<Ontology>>,
    ) -> Engine {
        Engine {
            cfg,
            schema: schema.into(),
            ontology: ontology.into(),
            shutdown: None,
        }
    }

    /// Installs a graceful-shutdown flag (typically raised from a
    /// SIGINT/SIGTERM handler). When raised mid-run, the feeder stops
    /// taking new records, everything already fed drains through the sink
    /// normally, and `extract_stream` returns — the sink's output remains
    /// a clean prefix of the full run, so a journal resumes exactly.
    pub fn with_shutdown(mut self, flag: Arc<AtomicBool>) -> Engine {
        self.shutdown = Some(flag);
        self
    }

    /// The configuration in use.
    pub fn config(&self) -> &EngineConfig {
        &self.cfg
    }

    /// Extracts a batch held in memory. Prefer [`Engine::extract_stream`]
    /// when the corpus is large or arrives incrementally.
    pub fn extract_batch<S: AsRef<str> + Sync>(&self, texts: &[S]) -> BatchOutput {
        let mut items = Vec::with_capacity(texts.len());
        let metrics = self.extract_stream(
            texts.iter().map(|t| t.as_ref().to_string()),
            |_idx, result| items.push(result),
        );
        BatchOutput { items, metrics }
    }

    /// Streams records through the worker pool. `sink` is called once per
    /// input, strictly in input order, from the calling thread; the input
    /// iterator is consumed from a feeder thread under backpressure
    /// (at most `queue_depth` records are buffered ahead of the workers).
    pub fn extract_stream<I, S>(&self, inputs: I, mut sink: S) -> EngineMetrics
    where
        I: Iterator<Item = String> + Send,
        S: FnMut(usize, Result<ExtractedRecord, EngineError>),
    {
        self.extract_counted(EngineMetrics::default(), inputs, |idx, result, _, _| {
            sink(idx, result)
        })
    }

    /// Streams records through the worker pool to `sink`'s output lines
    /// and, for failed records, its quarantine.
    pub fn extract_to<I>(&self, inputs: I, sink: &mut RecordSink) -> EngineMetrics
    where
        I: Iterator<Item = String> + Send,
    {
        self.extract_counted(EngineMetrics::default(), inputs, |idx, result, text, _| {
            sink.emit(idx, &result, text)
        })
    }

    /// [`Engine::extract_stream`] with its counts starting from `metrics`
    /// (a resumed journal's prefix). The sink also sees a failed record's
    /// text, moved from the feed, and the running metrics, which already
    /// count the outcome it is handed.
    pub(crate) fn extract_counted<I, S>(
        &self,
        mut metrics: EngineMetrics,
        inputs: I,
        mut sink: S,
    ) -> EngineMetrics
    where
        I: Iterator<Item = String> + Send,
        S: FnMut(usize, Result<ExtractedRecord, EngineError>, Option<String>, &EngineMetrics),
    {
        let jobs = self.cfg.resolved_jobs();
        let start = Instant::now();
        let pool_stats = self.run_pool(jobs, inputs, |idx, outcome| {
            let (outcome, text) = match outcome {
                Ok(ok) => (Ok(ok), None),
                Err((error, text)) => (Err(error), Some(text)),
            };
            let result = tally(&mut metrics, outcome);
            sink(idx, result, text, &metrics);
        });
        metrics.jobs = jobs;
        metrics.channel_wait_nanos = pool_stats.channel_wait_nanos;
        metrics.reorder_buffer_high_water = pool_stats.reorder_high_water;
        metrics.set_wall(start.elapsed().as_nanos() as u64);
        metrics
    }

    /// Runs `inputs` through `jobs` guarded workers, handing each outcome
    /// to `emit` in input order. A failed record's text rides with its
    /// error.
    fn run_pool<I>(
        &self,
        jobs: usize,
        inputs: I,
        emit: impl FnMut(usize, Result<(ExtractedRecord, ParseCacheMetrics), (EngineError, String)>),
    ) -> PoolStats
    where
        I: Iterator<Item = String> + Send,
    {
        // One pool-wide parse-structure cache: each worker keeps its
        // lock-free local cache as a fast path and falls back to this
        // lock-striped map, so a sentence shape is link-parsed once per
        // run, not once per worker. Without it, cold per-worker caches
        // multiply parse work by the job count.
        let parse_cache = cmr_core::SharedParseCache::new();
        let schema = &self.schema;
        let ontology = &self.ontology;
        let method = self.cfg.method;
        let term_patterns = self.cfg.term_patterns;
        let salvage = self.cfg.salvage;
        let max_record_millis = self.cfg.max_record_millis;
        let max_record_sentences = self.cfg.max_record_sentences;
        run_ordered(
            inputs,
            PoolConfig {
                jobs,
                queue_depth: self.cfg.queue_depth,
                shutdown: self.shutdown.clone(),
                chunk: 0,
            },
            // Each worker constructs its pipeline inside its own thread:
            // the pipeline is !Send, only the Arc'd config crosses threads.
            move |_widx| {
                let pipeline = Pipeline::new(Arc::clone(schema), Arc::clone(ontology), method)
                    .with_term_patterns(term_patterns)
                    .with_salvage(salvage)
                    .with_shared_parse_cache(parse_cache.clone());
                move |_idx: usize, text: String| {
                    let ctx = WorkerCtx {
                        pipeline: &pipeline,
                        max_record_millis,
                        max_record_sentences,
                    };
                    extract_isolated(&ctx, &text).map_err(|error| (error, text))
                }
            },
            // Backstop only: panics are normally caught per record inside
            // the worker; this path fires only if something outside
            // `extract_isolated`'s guard unwinds, and the text is gone
            // with the unwound closure.
            |message| (EngineError::Panicked { message }, String::new()),
            emit,
        )
    }
}

/// Everything one worker needs to process a record: pipeline and
/// budgets. Shared with the resident-service workers
/// (`crate::service`), which run the same guarded extraction around one
/// HTTP request at a time.
pub(crate) struct WorkerCtx<'a> {
    pub(crate) pipeline: &'a Pipeline,
    pub(crate) max_record_millis: Option<u64>,
    pub(crate) max_record_sentences: Option<usize>,
}

/// A worker's outcome for one record: the record and the parse-cache
/// traffic it caused, or why it failed.
pub(crate) type WorkerOutcome = Result<(ExtractedRecord, ParseCacheMetrics), EngineError>;

/// Counts a worker's outcome into `metrics` (its parse-cache traffic,
/// then [`EngineMetrics::count`]) and returns the outcome the sink or the
/// caller sees.
pub(crate) fn tally(
    metrics: &mut EngineMetrics,
    outcome: WorkerOutcome,
) -> Result<ExtractedRecord, EngineError> {
    let result = outcome.map(|(record, cache)| {
        metrics.parse_cache.merge(&cache);
        record
    });
    metrics.count(&result);
    result
}

/// Runs one record under one `catch_unwind`. The pipeline holds no
/// cross-record invariants (caches are valid at every unwind point), so
/// the worker keeps using it after a caught panic.
pub(crate) fn extract_isolated(ctx: &WorkerCtx<'_>, text: &str) -> WorkerOutcome {
    Err(
        match catch_unwind(AssertUnwindSafe(|| extract_one(ctx, text))) {
            Ok(Ok(out)) => return Ok(out),
            Ok(Err(exceeded)) => match exceeded.limit {
                BudgetLimit::Deadline => EngineError::Timeout {
                    millis: ctx.max_record_millis.unwrap_or(0),
                },
                BudgetLimit::Sentences => EngineError::Budget {
                    sentences_done: exceeded.sentences_done,
                },
            },
            Err(payload) => EngineError::Panicked {
                message: panic_message(payload.as_ref()),
            },
        },
    )
}

/// Processes one record on a worker: parse, budgeted extraction. Returns
/// the record plus the parse-cache lookups it made; failure
/// classification lives in [`extract_isolated`].
fn extract_one(
    ctx: &WorkerCtx<'_>,
    text: &str,
) -> Result<(ExtractedRecord, ParseCacheMetrics), BudgetExceeded> {
    // Inside `extract_isolated`'s catch_unwind: an injected `panic` action
    // is contained to this record (its chunk-mates survive), which is what
    // the chaos panic-mid-chunk schedule asserts. `io_inject` enacts panic
    // and delay; error-shaped actions have no I/O here to poison.
    let _ = cmr_failpoint::io_inject("engine::record");
    let budget = ExtractBudget {
        deadline: ctx
            .max_record_millis
            .map(|ms| Instant::now() + Duration::from_millis(ms)),
        max_sentences: ctx.max_record_sentences,
    };

    let record = Record::parse(text);
    let pipeline = ctx.pipeline;
    let stats_before = pipeline.parser_stats();
    let out = pipeline.extract_budgeted(&record, &budget)?;
    let stats = pipeline.parser_stats();
    let cache = ParseCacheMetrics {
        hits: stats.cache_hits - stats_before.cache_hits,
        shared_hits: stats.shared_hits - stats_before.shared_hits,
        misses: stats.cache_misses - stats_before.cache_misses,
    };
    Ok((out, cache))
}

// The engine itself crosses threads (it is borrowed by scoped workers).
const fn _assert_send_sync<T: Send + Sync>() {}
const _: () = _assert_send_sync::<Engine>();
const _: () = _assert_send_sync::<EngineConfig>();
const _: () = _assert_send_sync::<EngineError>();

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use cmr_corpus::APPENDIX_RECORD;

    fn serial_cfg() -> EngineConfig {
        EngineConfig {
            jobs: 1,
            ..EngineConfig::default()
        }
    }

    #[test]
    fn batch_matches_pipeline_output() {
        let engine = Engine::new(serial_cfg(), Schema::paper(), Ontology::full());
        let out = engine.extract_batch(&[APPENDIX_RECORD, "", APPENDIX_RECORD]);
        assert_eq!(out.items.len(), 3);
        let first = out.items[0].as_ref().expect("extracts");
        let reference = Pipeline::with_default_schema().extract(APPENDIX_RECORD);
        assert_eq!(
            serde_json::to_string(first).unwrap(),
            serde_json::to_string(&reference).unwrap()
        );
        assert_eq!(out.metrics.records, 3);
        assert_eq!(out.metrics.errors.total(), 0);
        assert!(out.metrics.records_per_sec > 0.0);
    }

    #[test]
    fn parallel_output_identical_to_serial() {
        let texts: Vec<String> = (0..12)
            .map(|i| APPENDIX_RECORD.replace("Patient: 2", &format!("Patient: {i}")))
            .collect();
        let serial =
            Engine::new(serial_cfg(), Schema::paper(), Ontology::full()).extract_batch(&texts);
        let parallel = Engine::new(
            EngineConfig {
                jobs: 4,
                ..EngineConfig::default()
            },
            Schema::paper(),
            Ontology::full(),
        )
        .extract_batch(&texts);
        assert_eq!(
            serde_json::to_string(&serial.items).unwrap(),
            serde_json::to_string(&parallel.items).unwrap()
        );
        assert_eq!(parallel.metrics.jobs, 4);
    }

    #[test]
    fn sentence_budget_fails_record_not_batch() {
        let cfg = EngineConfig {
            jobs: 2,
            max_record_sentences: Some(1),
            ..EngineConfig::default()
        };
        let engine = Engine::new(cfg, Schema::paper(), Ontology::full());
        let out = engine.extract_batch(&[APPENDIX_RECORD, APPENDIX_RECORD]);
        assert_eq!(out.items.len(), 2);
        for item in &out.items {
            assert!(
                matches!(item, Err(EngineError::Budget { .. })),
                "appendix record has >1 sentence: {item:?}"
            );
        }
        assert_eq!(out.metrics.errors.budget, 2);
        assert_eq!(out.metrics.records, 0);
    }

    #[test]
    fn deadline_between_sentences_is_a_timeout_not_a_budget_trip() {
        // A zero-millisecond deadline has passed by the first sentence
        // check, before any parse starts.
        let cfg = EngineConfig {
            jobs: 1,
            max_record_millis: Some(0),
            ..EngineConfig::default()
        };
        let out =
            Engine::new(cfg, Schema::paper(), Ontology::full()).extract_batch(&[APPENDIX_RECORD]);
        assert!(
            matches!(out.items[0], Err(EngineError::Timeout { millis: 0 })),
            "{:?}",
            out.items[0]
        );
        assert_eq!(out.metrics.errors.timeouts, 1);
        assert_eq!(out.metrics.errors.budget, 0);
    }

    #[test]
    fn zero_jobs_resolves_to_cores() {
        assert!(EngineConfig::default().resolved_jobs() >= 1);
    }

    #[test]
    fn stream_sees_inputs_in_order() {
        let engine = Engine::new(
            EngineConfig {
                jobs: 3,
                ..EngineConfig::default()
            },
            Schema::paper(),
            Ontology::full(),
        );
        let mut indices = Vec::new();
        engine.extract_stream((0..20).map(|_| APPENDIX_RECORD.to_string()), |idx, _| {
            indices.push(idx)
        });
        assert_eq!(indices, (0..20).collect::<Vec<_>>());
    }

    #[test]
    fn metrics_cache_counters_accumulate() {
        let engine = Engine::new(serial_cfg(), Schema::paper(), Ontology::full());
        let out = engine.extract_batch(&[APPENDIX_RECORD, APPENDIX_RECORD]);
        let cache = out.metrics.parse_cache;
        assert!(cache.misses > 0, "first record parses fresh");
        assert!(cache.hits > 0, "identical second record hits the cache");
    }
}
