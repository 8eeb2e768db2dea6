//! The batch-extraction engine.

use crate::metrics::{
    lock_collector, EngineMetrics, MetricsCollector, MetricsSink, RecordSample,
    COLLECTOR_LOCK_CLASS,
};
use crate::pool::{panic_message, run_ordered, PoolConfig};
use crate::retry::{is_transient, AttemptRecord, QuarantineEntry, QuarantineFile, RetryPolicy};
use crate::watchdog::Watchdog;
use cmr_core::{
    AssociationMethod, BudgetExceeded, ExtractBudget, ExtractedRecord, PatternSet, Pipeline, Schema,
};
use cmr_ontology::Ontology;
use cmr_sync::TrackedMutex;
use cmr_text::Record;
use serde::{Deserialize, Serialize};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::AtomicBool;
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

/// Engine configuration.
#[derive(Debug, Clone)]
pub struct EngineConfig {
    /// Worker threads; `0` means auto (one per available core).
    pub jobs: usize,
    /// Bound of the input queue (records buffered ahead of the workers).
    pub queue_depth: usize,
    /// Per-record wall-clock budget, milliseconds.
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
    /// Bounded retry with exponential backoff for transiently failing
    /// records (see [`crate::retry::RetryPolicy`]). The default policy
    /// (one attempt) disables retry.
    pub retry: RetryPolicy,
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
            retry: RetryPolicy::default(),
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
    /// The record exceeded its time or sentence budget.
    Budget {
        /// Sentences fully processed before the budget tripped.
        sentences_done: usize,
    },
    /// The stuck-worker watchdog cancelled the record: its wall-clock
    /// deadline passed while the link parser was mid-search. Distinct from
    /// [`EngineError::Budget`], where the record tripped its budget at an
    /// ordinary between-sentence check.
    Timeout {
        /// The deadline that was exceeded, milliseconds.
        millis: u64,
    },
    /// The startup asset lint found `Error`-severity findings; no record
    /// was processed (a broken rule asset would poison every record).
    Lint {
        /// The rendered diagnostics.
        message: String,
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
                write!(f, "watchdog cancelled the record after {millis} ms")
            }
            EngineError::Lint { message } => {
                write!(f, "rule assets failed the startup lint:\n{message}")
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
    quarantine: Option<Arc<QuarantineFile>>,
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
            quarantine: None,
            shutdown: None,
        }
    }

    /// Attaches a poison-quarantine file: records that exhaust the retry
    /// budget on a transient error are appended there (exactly once each)
    /// instead of only surfacing as per-item errors.
    pub fn with_quarantine(mut self, quarantine: QuarantineFile) -> Engine {
        self.quarantine = Some(Arc::new(quarantine));
        self
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
        let jobs = self.cfg.resolved_jobs();
        // Fail fast when the rule assets are broken: an Error-severity
        // finding means extraction would misbehave on every record, so the
        // batch never starts. Warnings only surface in the metrics.
        let lint = startup_lint();
        if lint.errors > 0 {
            let start = Instant::now();
            for (idx, _text) in inputs.enumerate() {
                sink(
                    idx,
                    Err(EngineError::Lint {
                        message: lint.message.clone(),
                    }),
                );
            }
            return EngineMetrics {
                jobs,
                wall_nanos: start.elapsed().as_nanos() as u64,
                lint_warnings: lint.warnings,
                ..EngineMetrics::default()
            };
        }
        let collector = Arc::new(TrackedMutex::new(
            COLLECTOR_LOCK_CLASS,
            MetricsCollector::default(),
        ));
        // One pool-wide parse-structure cache: each worker keeps its
        // lock-free local cache as a fast path and falls back to this
        // lock-striped map, so a sentence shape is link-parsed once per
        // run, not once per worker. Without it, cold per-worker caches
        // multiply parse work by the job count.
        let parse_cache = cmr_core::SharedParseCache::new();
        let start = Instant::now();

        let schema = &self.schema;
        let ontology = &self.ontology;
        let method = self.cfg.method;
        let term_patterns = self.cfg.term_patterns;
        let salvage = self.cfg.salvage;
        let max_record_millis = self.cfg.max_record_millis;
        let max_record_sentences = self.cfg.max_record_sentences;
        let retry = self.cfg.retry;
        let quarantine = self.quarantine.clone();
        let worker_collector = Arc::clone(&collector);
        let panic_collector = Arc::clone(&collector);

        // The watchdog exists only when a wall-clock deadline does: it
        // shares a cancellation flag with each worker's link parser and
        // cancels any record still in flight past the deadline.
        let watchdog = max_record_millis.map(|ms| Watchdog::new(jobs, ms));
        let watchdog_thread = watchdog.as_ref().map(Watchdog::spawn);
        let worker_watchdog = watchdog.clone();

        let pool_stats = run_ordered(
            inputs,
            PoolConfig {
                jobs,
                queue_depth: self.cfg.queue_depth,
                shutdown: self.shutdown.clone(),
                chunk: 0,
            },
            // Each worker constructs its pipeline inside its own thread:
            // the pipeline is !Send, only the Arc'd config crosses threads.
            move |widx| {
                let mut pipeline = Pipeline::new(Arc::clone(schema), Arc::clone(ontology), method)
                    .with_term_patterns(term_patterns)
                    .with_salvage(salvage)
                    .with_shared_parse_cache(parse_cache.clone());
                let watchdog = worker_watchdog.clone();
                if let Some(wd) = &watchdog {
                    pipeline = pipeline.with_cancel_flag(wd.cancel_flag(widx));
                }
                // Worker-private metrics: records accumulate lock-free
                // here and fold into the shared collector exactly once,
                // when the worker closure drops at pool drain (inside the
                // pool scope, before the collector is read below).
                let sink = MetricsSink::new(Arc::clone(&worker_collector));
                let quarantine = quarantine.clone();
                move |idx: usize, text: String| {
                    let ctx = WorkerCtx {
                        widx,
                        pipeline: &pipeline,
                        max_record_millis,
                        max_record_sentences,
                        retry,
                        watchdog: watchdog.as_deref(),
                        quarantine: quarantine.as_deref(),
                        collector: &sink,
                    };
                    extract_with_retry(&ctx, idx, &text)
                }
            },
            // Backstop only: panics are normally caught (and retried) per
            // attempt inside the worker; this path fires only if something
            // outside the retry loop unwinds.
            move |message| {
                lock_collector(&panic_collector).errors.panics += 1;
                EngineError::Panicked { message }
            },
            sink,
        );

        if let Some(wd) = &watchdog {
            wd.stop();
        }
        if let Some(handle) = watchdog_thread {
            let _ = handle.join();
        }

        let wall_nanos = start.elapsed().as_nanos() as u64;
        let collector = lock_collector(&collector);
        let mut metrics = EngineMetrics::from_collector(&collector, jobs, wall_nanos);
        metrics.lint_warnings = lint.warnings;
        metrics.channel_wait_nanos = pool_stats.channel_wait_nanos;
        metrics.reorder_buffer_high_water = pool_stats.reorder_high_water;
        metrics
    }
}

/// The cached outcome of the once-per-process startup asset lint.
pub(crate) struct LintStatus {
    pub(crate) errors: usize,
    pub(crate) warnings: u64,
    pub(crate) message: String,
    /// FNV-1a over the full analysis report: changes whenever the
    /// compiled-in rule assets (or what the analyzer sees in them) change.
    fingerprint: u64,
    /// Full severity rollup, for service health endpoints.
    summary: cmr_analyze::Summary,
}

/// Lints the committed rule assets once per process; every engine run
/// consults the cached result. The battery is pure over `&'static` tables,
/// so one run is valid for the process lifetime.
pub(crate) fn startup_lint() -> &'static LintStatus {
    static LINT: OnceLock<LintStatus> = OnceLock::new();
    LINT.get_or_init(|| {
        let report = cmr_analyze::analyze_assets();
        LintStatus {
            errors: report.errors(),
            warnings: report.warnings() as u64,
            message: if report.errors() > 0 {
                report.render_human(false)
            } else {
                String::new()
            },
            fingerprint: fnv1a_str(&report.to_json()),
            summary: report.summary(),
        }
    })
}

/// Fingerprint of the compiled-in rule assets, used by the run journal's
/// manifest so a resume against a build with different assets is rejected.
pub fn asset_fingerprint() -> u64 {
    startup_lint().fingerprint
}

/// Severity rollup of the once-per-process startup asset lint, for service
/// health endpoints (`GET /health` reports readiness including the lint
/// outcome without re-running the analyzer).
pub fn startup_lint_summary() -> cmr_analyze::Summary {
    startup_lint().summary
}

fn fnv1a_str(s: &str) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for &b in s.as_bytes() {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// Everything one worker needs to process (and possibly re-process) a
/// record: pipeline, budgets, durability hooks, metrics. Shared with the
/// resident-service workers (`crate::service`), which bracket the same
/// retry/watchdog/metrics machinery around one HTTP request at a time.
/// Metrics flow through the worker-local [`MetricsSink`] — per-record
/// updates never touch the run-wide collector lock.
pub(crate) struct WorkerCtx<'a> {
    pub(crate) widx: usize,
    pub(crate) pipeline: &'a Pipeline,
    pub(crate) max_record_millis: Option<u64>,
    pub(crate) max_record_sentences: Option<usize>,
    pub(crate) retry: RetryPolicy,
    pub(crate) watchdog: Option<&'a Watchdog>,
    pub(crate) quarantine: Option<&'a QuarantineFile>,
    pub(crate) collector: &'a MetricsSink,
}

/// Runs one record through the bounded-retry loop: each attempt is
/// individually panic-caught and watchdog-bracketed; transient failures
/// back off and retry; the final outcome is counted in the metrics
/// exactly once, and a record that exhausts its attempts on a transient
/// error is appended to the quarantine (when one is attached).
pub(crate) fn extract_with_retry(
    ctx: &WorkerCtx<'_>,
    idx: usize,
    text: &str,
) -> Result<ExtractedRecord, EngineError> {
    let attempts_allowed = ctx.retry.attempts();
    let mut attempts: Vec<AttemptRecord> = Vec::new();
    let mut attempt = 0u32;
    loop {
        attempt += 1;
        if let Some(wd) = ctx.watchdog {
            wd.begin(ctx.widx);
        }
        // Per-attempt catch_unwind so a panicking attempt can be retried;
        // the pool's own catch_unwind remains as a backstop. The pipeline
        // holds no cross-record invariants (caches are valid at every
        // unwind point), so resuming with it after a caught panic is safe.
        let outcome = catch_unwind(AssertUnwindSafe(|| extract_one(ctx, text)));
        let timed_out = ctx.watchdog.is_some_and(|wd| wd.end(ctx.widx));
        let error = match outcome {
            Err(payload) => EngineError::Panicked {
                message: panic_message(payload.as_ref()),
            },
            // A cancelled attempt fails wholesale as a timeout even if
            // extraction limped to an Ok on the pattern fallback: its
            // fields would silently depend on *when* the cancellation
            // landed, and `parse_failures` drops `Cancelled` parse
            // failures on the assumption the whole record is discarded.
            Ok(_) if timed_out => EngineError::Timeout {
                millis: ctx.max_record_millis.unwrap_or(0),
            },
            Ok(Ok((out, sample))) => {
                ctx.collector.with(|c| c.record_ok(sample, &out));
                return Ok(out);
            }
            Ok(Err(exceeded)) => EngineError::Budget {
                sentences_done: exceeded.sentences_done,
            },
        };
        if attempt < attempts_allowed && is_transient(&error) {
            let backoff = ctx.retry.backoff_millis(attempt);
            attempts.push(AttemptRecord {
                attempt,
                error,
                backoff_millis: backoff,
            });
            ctx.collector.with(|c| c.retries += 1);
            std::thread::sleep(Duration::from_millis(backoff));
            continue;
        }
        // Final outcome: count it exactly once, quarantine if poison.
        ctx.collector.with(|c| match &error {
            EngineError::Panicked { .. } => c.errors.panics += 1,
            EngineError::Budget { .. } => c.errors.budget += 1,
            EngineError::Timeout { .. } => c.errors.timeouts += 1,
            EngineError::Lint { .. } => {}
        });
        if is_transient(&error) {
            if let Some(q) = ctx.quarantine {
                attempts.push(AttemptRecord {
                    attempt,
                    error: error.clone(),
                    backoff_millis: 0,
                });
                let written = q.append(&QuarantineEntry {
                    index: idx,
                    text: text.to_string(),
                    error: error.clone(),
                    attempts,
                });
                if written {
                    ctx.collector.with(|c| c.quarantined += 1);
                }
            }
        }
        return Err(error);
    }
}

/// Processes one record on a worker: parse, budgeted extraction. Returns
/// the record plus its parse-cache sample; ALL metrics recording and
/// failure classification live in [`extract_with_retry`], so retried or
/// cancelled attempts are never multi-counted.
fn extract_one(
    ctx: &WorkerCtx<'_>,
    text: &str,
) -> Result<(ExtractedRecord, RecordSample), BudgetExceeded> {
    // Inside the per-attempt catch_unwind: an injected `panic` action is
    // contained to this record (its chunk-mates survive) and, being
    // transient, heals under a retry policy — which is exactly what the
    // chaos panic-mid-chunk schedule asserts. `io_inject` enacts panic
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
    let sample = RecordSample {
        cache_hits: stats.cache_hits - stats_before.cache_hits,
        shared_hits: stats.shared_hits - stats_before.shared_hits,
        cache_misses: stats.cache_misses - stats_before.cache_misses,
    };
    Ok((out, sample))
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
    fn startup_lint_passes_on_committed_assets() {
        // The committed rule assets must never carry Error findings (the
        // engine would refuse to start) and currently carry no warnings.
        let lint = startup_lint();
        assert_eq!(lint.errors, 0, "{}", lint.message);
        let out = Engine::new(serial_cfg(), Schema::paper(), Ontology::full())
            .extract_batch(&[APPENDIX_RECORD]);
        assert_eq!(out.metrics.lint_warnings, lint.warnings);
        assert!(out.items[0].is_ok());
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
