//! Resident-service support: the engine's warm state, held across requests.
//!
//! The batch engine ([`crate::Engine`]) builds its world per run — the
//! shared parse cache and the metrics live for one `extract_stream`
//! call. A resident process (`cmr serve`) needs the same
//! pieces to live for the *process*: the first request warms the caches and
//! every later request benefits. [`ServiceHandle`] is that long-lived core:
//!
//! * one pool-wide [`SharedParseCache`] (plus the process-global string
//!   interner, which is warm by construction),
//! * one [`EngineMetrics`] behind a lock, accumulating since startup,
//!   including the request-latency histograms in
//!   [`EngineMetrics::service`].
//!
//! Each server worker thread builds a [`ServiceWorker`] (the pipeline is
//! `!Sync`; per-thread construction is the same pattern the pool uses) and
//! calls [`ServiceWorker::extract`] once per request. Extraction runs
//! through the same budget and panic-isolation path as batch records
//! (`extract_isolated`), so a poison request costs one worker at most one
//! deadline, never the process.

use crate::engine::{extract_isolated, tally, Engine, EngineConfig, EngineError, WorkerCtx};
use crate::metrics::EngineMetrics;
use cmr_core::{ExtractedRecord, Pipeline, Schema, SharedParseCache};
use cmr_ontology::Ontology;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

/// Which service latency histogram a request sample belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LatencyKind {
    /// One `POST /extract` request, end to end.
    Extract,
    /// One `POST /extract/batch` request, end to end.
    Batch,
    /// One NDJSON line inside a batch request.
    BatchRecord,
}

/// The long-lived shared core of a resident extraction service.
///
/// Cheap to share (`Arc`); owns no threads.
pub struct ServiceHandle {
    cfg: EngineConfig,
    schema: Arc<Schema>,
    ontology: Arc<Ontology>,
    parse_cache: SharedParseCache,
    metrics: Mutex<EngineMetrics>,
    started: Instant,
}

impl ServiceHandle {
    /// Builds the shared service state.
    pub fn new(
        cfg: EngineConfig,
        schema: impl Into<Arc<Schema>>,
        ontology: impl Into<Arc<Ontology>>,
    ) -> Arc<ServiceHandle> {
        Arc::new(ServiceHandle {
            cfg,
            schema: schema.into(),
            ontology: ontology.into(),
            parse_cache: SharedParseCache::new(),
            metrics: Mutex::new(EngineMetrics::default()),
            started: Instant::now(),
        })
    }

    /// The configuration the service was built with.
    pub fn config(&self) -> &EngineConfig {
        &self.cfg
    }

    /// Resolved worker count: how many workers the server runs.
    pub fn jobs(&self) -> usize {
        self.cfg.resolved_jobs()
    }

    /// Time since the handle was built.
    pub fn uptime(&self) -> Duration {
        self.started.elapsed()
    }

    /// Builds one per-thread worker. Call from inside the worker's own
    /// thread: the pipeline's parse caches are thread-local by design,
    /// backed by the shared cache as the slow path, so a sentence shape is
    /// parsed once per *process*, not once per worker.
    pub fn worker(self: &Arc<Self>) -> ServiceWorker {
        let pipeline = Pipeline::new(
            Arc::clone(&self.schema),
            Arc::clone(&self.ontology),
            self.cfg.method,
        )
        .with_term_patterns(self.cfg.term_patterns)
        .with_salvage(self.cfg.salvage)
        .with_shared_parse_cache(self.parse_cache.clone());
        ServiceWorker {
            service: Arc::clone(self),
            pipeline,
        }
    }

    /// Locks the cumulative metrics, recovering from poisoning: every
    /// update under this lock is a field-wise add with no invariant
    /// spanning it, so a panic while it was held leaves usable counters.
    fn lock_metrics(&self) -> MutexGuard<'_, EngineMetrics> {
        self.metrics.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Records one request-latency sample into the cumulative metrics.
    pub fn record_latency(&self, kind: LatencyKind, nanos: u64) {
        let mut m = self.lock_metrics();
        let histogram = match kind {
            LatencyKind::Extract => &mut m.service.extract,
            LatencyKind::Batch => &mut m.service.batch,
            LatencyKind::BatchRecord => &mut m.service.batch_record,
        };
        histogram.record(nanos);
    }

    /// Cumulative metrics since the handle was built. `wall_nanos` (and
    /// thus `records_per_sec`) covers the whole uptime, idle included —
    /// it is a service-lifetime rate, not a batch throughput.
    pub fn metrics(&self) -> EngineMetrics {
        let mut m = self.lock_metrics().clone();
        m.jobs = self.jobs();
        m.set_wall(self.started.elapsed().as_nanos() as u64);
        m
    }
}

/// One worker's slice of the service: a warm pipeline. Build with
/// [`ServiceHandle::worker`] inside the worker thread.
pub struct ServiceWorker {
    service: Arc<ServiceHandle>,
    pipeline: Pipeline,
}

impl ServiceWorker {
    /// Extracts one note with the per-request protection stack: the
    /// wall-clock deadline (checked inside the link parser's search too),
    /// the sentence budget, and panic isolation. The outcome and its
    /// parse-cache traffic are counted into the service-wide metrics
    /// under one lock, taken after the extraction.
    pub fn extract(&self, text: &str) -> Result<ExtractedRecord, EngineError> {
        let ctx = WorkerCtx {
            pipeline: &self.pipeline,
            max_record_millis: self.service.cfg.max_record_millis,
            max_record_sentences: self.service.cfg.max_record_sentences,
        };
        let outcome = extract_isolated(&ctx, text);
        tally(&mut self.service.lock_metrics(), outcome)
    }

    /// The shared handle this worker feeds metrics into.
    pub fn service(&self) -> &Arc<ServiceHandle> {
        &self.service
    }
}

// A service handle is shared across the accept loop and every worker.
const fn _assert_send_sync<T: Send + Sync>() {}
const _: () = _assert_send_sync::<ServiceHandle>();

impl std::fmt::Debug for ServiceHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ServiceHandle")
            .field("jobs", &self.jobs())
            .field("uptime", &self.uptime())
            .finish_non_exhaustive()
    }
}

/// Batch compatibility check used by tests: a service worker must produce
/// byte-identical output to the batch engine for the same input.
#[doc(hidden)]
pub fn _batch_reference(text: &str) -> Result<ExtractedRecord, EngineError> {
    let engine = Engine::new(
        EngineConfig {
            jobs: 1,
            ..EngineConfig::default()
        },
        Schema::paper(),
        Ontology::full(),
    );
    engine.extract_batch(&[text]).items.remove(0)
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use cmr_corpus::APPENDIX_RECORD;

    fn handle(cfg: EngineConfig) -> Arc<ServiceHandle> {
        ServiceHandle::new(cfg, Schema::paper(), Ontology::full())
    }

    #[test]
    fn service_worker_matches_batch_engine_output() {
        let svc = handle(EngineConfig {
            jobs: 1,
            ..EngineConfig::default()
        });
        let worker = svc.worker();
        let got = worker.extract(APPENDIX_RECORD).expect("extracts");
        let want = _batch_reference(APPENDIX_RECORD).expect("extracts");
        assert_eq!(
            serde_json::to_string(&got).unwrap(),
            serde_json::to_string(&want).unwrap()
        );
    }

    #[test]
    fn metrics_accumulate_across_requests_and_cache_stays_warm() {
        let svc = handle(EngineConfig {
            jobs: 2,
            ..EngineConfig::default()
        });
        let worker = svc.worker();
        worker.extract(APPENDIX_RECORD).expect("extracts");
        let cold = svc.metrics();
        assert_eq!(cold.records, 1);
        assert!(cold.parse_cache.misses > 0, "first request parses fresh");

        // A second worker on the same note: every sentence shape must come
        // from the shared cache — the whole point of a resident process.
        let worker2 = svc.worker();
        worker2.extract(APPENDIX_RECORD).expect("extracts");
        let warm = svc.metrics();
        assert_eq!(warm.records, 2);
        assert_eq!(
            warm.parse_cache.misses, cold.parse_cache.misses,
            "second worker re-parsed shapes the shared cache already holds"
        );
        assert!(warm.parse_cache.hits > cold.parse_cache.hits);
    }

    #[test]
    fn latency_samples_land_in_their_histograms() {
        let svc = handle(EngineConfig::default());
        svc.record_latency(LatencyKind::Extract, 1_000_000);
        svc.record_latency(LatencyKind::Batch, 2_000_000);
        svc.record_latency(LatencyKind::BatchRecord, 500);
        svc.record_latency(LatencyKind::BatchRecord, 700);
        let m = svc.metrics();
        assert_eq!(m.service.extract.count, 1);
        assert_eq!(m.service.batch.count, 1);
        assert_eq!(m.service.batch_record.count, 2);
        assert_eq!(m.service.requests(), 2);
    }

    #[test]
    fn sentence_budget_fails_request_not_service() {
        let svc = handle(EngineConfig {
            jobs: 1,
            max_record_sentences: Some(1),
            ..EngineConfig::default()
        });
        let worker = svc.worker();
        let err = worker.extract(APPENDIX_RECORD).unwrap_err();
        assert!(matches!(err, EngineError::Budget { .. }), "{err:?}");
        // The worker is still usable afterwards.
        let m = svc.metrics();
        assert_eq!(m.errors.budget, 1);
        assert_eq!(m.records, 0);
    }
}
