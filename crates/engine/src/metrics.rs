//! Engine throughput, cache and extraction-method metrics.
//!
//! Workers record one [`RecordSample`] per record into a thread-local
//! [`MetricsSink`]; each sink folds into the run's shared
//! [`MetricsCollector`] once at drain (batch) or once per request
//! (service), and the engine folds the collector plus its own wall-clock
//! into a serializable [`EngineMetrics`] snapshot.

use cmr_core::{ExtractedRecord, MethodUsed};
use cmr_sync::{TrackedMutex, TrackedMutexGuard};
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// Number of log2 nanosecond buckets: bucket `i` counts durations `d` with
/// `floor(log2(d)) == i`, i.e. from 1 ns up past 2^39 ns (~9 minutes) —
/// wide enough for any single record.
pub const HISTOGRAM_BUCKETS: usize = 40;

/// A log2-bucketed duration histogram (nanoseconds).
///
/// Fixed buckets keep merging trivially exact and serialization compact;
/// percentile estimates are bucket-resolution (within 2×), which is
/// plenty for spotting pathological records.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct DurationHistogram {
    /// `buckets[i]` counts samples with `floor(log2(nanos)) == i`.
    pub buckets: Vec<u64>,
    /// Total samples recorded.
    pub count: u64,
    /// Sum of all samples, in nanoseconds.
    pub total_nanos: u64,
    /// Largest single sample, in nanoseconds.
    pub max_nanos: u64,
}

impl Default for DurationHistogram {
    fn default() -> Self {
        DurationHistogram {
            buckets: vec![0; HISTOGRAM_BUCKETS],
            count: 0,
            total_nanos: 0,
            max_nanos: 0,
        }
    }
}

impl DurationHistogram {
    /// Records one duration.
    pub fn record(&mut self, nanos: u64) {
        let bucket = if nanos == 0 {
            0
        } else {
            (63 - nanos.leading_zeros() as usize).min(HISTOGRAM_BUCKETS - 1)
        };
        self.buckets[bucket] += 1;
        self.count += 1;
        self.total_nanos += nanos;
        self.max_nanos = self.max_nanos.max(nanos);
    }

    /// Merges another histogram into this one.
    pub fn merge(&mut self, other: &DurationHistogram) {
        for (a, b) in self.buckets.iter_mut().zip(&other.buckets) {
            *a += b;
        }
        self.count += other.count;
        self.total_nanos += other.total_nanos;
        self.max_nanos = self.max_nanos.max(other.max_nanos);
    }

    /// Mean sample in nanoseconds (0 when empty).
    pub fn mean_nanos(&self) -> u64 {
        self.total_nanos.checked_div(self.count).unwrap_or(0)
    }

    /// Upper bound of the bucket holding the `q`-quantile sample
    /// (`q` in `0.0..=1.0`); 0 when empty. Bucket resolution: the true
    /// quantile is within a factor of 2 below the returned bound.
    pub fn quantile_upper_bound(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((self.count as f64) * q.clamp(0.0, 1.0)).ceil().max(1.0) as u64;
        let mut seen = 0u64;
        for (i, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= rank {
                return 1u64 << (i + 1).min(63);
            }
        }
        self.max_nanos
    }
}

/// Link-parser structure-cache counters, summed across workers.
#[derive(Debug, Clone, Copy, Default, Serialize, Deserialize)]
pub struct ParseCacheMetrics {
    /// Sentences answered from a structure cache (local L1 or shared).
    pub hits: u64,
    /// The subset of `hits` served by the pool-wide sharded cache — a
    /// shape some *other* worker parsed first. `hits - shared_hits` is
    /// the contention-free L1 fast path.
    pub shared_hits: u64,
    /// Sentences that required a fresh parse.
    pub misses: u64,
}

impl ParseCacheMetrics {
    /// Hit ratio in `0.0..=1.0` (0 when no lookups).
    pub fn hit_ratio(&self) -> f64 {
        let lookups = self.hits + self.misses;
        if lookups == 0 {
            0.0
        } else {
            self.hits as f64 / lookups as f64
        }
    }
}

/// How each field was extracted, summed across all records: one count per
/// entry of every record's `methods` map (numeric fields and term fields
/// alike). This is the only per-tier tally: the link-grammar tier is
/// `link_grammar`, the pattern tier is `pattern + year_old + proximity`,
/// and the salvage tier is `salvage`.
#[derive(Debug, Clone, Copy, Default, Serialize, Deserialize)]
pub struct MethodCounts {
    /// Link-grammar graph distance (§3.1's novel approach).
    pub link_grammar: u64,
    /// Linguistic-pattern fallback for numeric fields, and POS-pattern
    /// term fields.
    pub pattern: u64,
    /// The `{N}-year-old` dictation pattern.
    pub year_old: u64,
    /// Token-proximity baseline (ablations only).
    pub proximity: u64,
    /// Tier-3 raw-text salvage of numeric or term fields (degraded input
    /// only).
    pub salvage: u64,
}

impl MethodCounts {
    /// Bumps the counter for one association.
    pub fn count(&mut self, method: MethodUsed) {
        match method {
            MethodUsed::LinkGrammar => self.link_grammar += 1,
            MethodUsed::Pattern => self.pattern += 1,
            MethodUsed::YearOld => self.year_old += 1,
            MethodUsed::Proximity => self.proximity += 1,
            MethodUsed::Salvage => self.salvage += 1,
        }
    }

    /// Bumps one counter per entry of `record.methods`.
    pub(crate) fn count_record(&mut self, record: &ExtractedRecord) {
        for &method in record.methods.values() {
            self.count(method);
        }
    }

    fn merge(&mut self, other: &MethodCounts) {
        self.link_grammar += other.link_grammar;
        self.pattern += other.pattern;
        self.year_old += other.year_old;
        self.proximity += other.proximity;
        self.salvage += other.salvage;
    }
}

/// Degradation accounting summed across all successful records: how many
/// link parses failed on sentences that mattered, and how many records
/// needed the salvage tier at all.
#[derive(Debug, Clone, Copy, Default, Serialize, Deserialize)]
pub struct DegradationTotals {
    /// Link-parse failures on sentences carrying an extraction opportunity.
    pub parse_failures: u64,
    /// Records that needed the salvage tier (see
    /// [`ExtractedRecord::degraded`]).
    pub degraded_records: u64,
}

impl DegradationTotals {
    /// Folds one record into the totals.
    pub fn add(&mut self, record: &ExtractedRecord) {
        self.parse_failures += u64::from(record.parse_failures.total());
        if record.degraded() {
            self.degraded_records += 1;
        }
    }

    fn merge(&mut self, other: &DegradationTotals) {
        self.parse_failures += other.parse_failures;
        self.degraded_records += other.degraded_records;
    }
}

/// Request-latency histograms for the resident service (`cmr serve`).
///
/// Plain batch runs leave these empty; the service records one sample per
/// handled request (and one per NDJSON line inside batch requests), so
/// `/metrics` can report cumulative latency distributions next to the
/// engine's counters. The vendored serde stores every integer as
/// an `i64`, so u64 counters above `i64::MAX` would not round-trip (the
/// PR5 manifest-hash bug); nanosecond latency sums stay far below that,
/// pinned by `service_latency_serialize_roundtrip` below.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct ServiceLatency {
    /// End-to-end handling latency of `POST /extract`, per request
    /// (request fully read → response fully written).
    pub extract: DurationHistogram,
    /// End-to-end handling latency of `POST /extract/batch`, per request.
    pub batch: DurationHistogram,
    /// Per-record extraction latency inside batch requests (one sample
    /// per NDJSON input line).
    pub batch_record: DurationHistogram,
}

impl ServiceLatency {
    /// Total requests observed across both endpoints.
    pub fn requests(&self) -> u64 {
        self.extract.count + self.batch.count
    }

    /// Merges another latency block into this one.
    pub fn merge(&mut self, other: &ServiceLatency) {
        self.extract.merge(&other.extract);
        self.batch.merge(&other.batch);
        self.batch_record.merge(&other.batch_record);
    }
}

/// Error counters by kind.
#[derive(Debug, Clone, Copy, Default, Serialize, Deserialize)]
pub struct ErrorCounts {
    /// Records whose extraction panicked (caught; the batch survives).
    pub panics: u64,
    /// Records that exceeded the per-record budget.
    pub budget: u64,
    /// Records cancelled by the stuck-worker watchdog (wall-clock
    /// deadline exceeded mid-parse).
    pub timeouts: u64,
}

impl ErrorCounts {
    /// Total failed records.
    pub fn total(&self) -> u64 {
        self.panics + self.budget + self.timeouts
    }

    fn merge(&mut self, other: &ErrorCounts) {
        self.panics += other.panics;
        self.budget += other.budget;
        self.timeouts += other.timeouts;
    }
}

/// The serializable metrics snapshot an engine run returns.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct EngineMetrics {
    /// Records successfully extracted.
    pub records: u64,
    /// Failed records by kind.
    pub errors: ErrorCounts,
    /// Worker threads used.
    pub jobs: usize,
    /// End-to-end batch wall time (feeder start to last result emitted).
    pub wall_nanos: u64,
    /// Successful records per wall-clock second.
    pub records_per_sec: f64,
    /// Link-parser structure-cache counters.
    pub parse_cache: ParseCacheMetrics,
    /// Extraction-method counts over every field of every record.
    pub methods: MethodCounts,
    /// Degradation accounting (parse failures, salvaged records) summed
    /// over successful records.
    pub degradation: DegradationTotals,
    /// Warning-severity findings from the startup asset lint (the run
    /// proceeds; `Error` findings fail the batch before it starts).
    pub lint_warnings: u64,
    /// Retry attempts beyond each record's first (the durable-run retry
    /// policy); counts attempts, not records.
    pub retries: u64,
    /// Records appended to the poison-quarantine file after exhausting
    /// their retry budget on a transient error.
    pub quarantined: u64,
    /// Request-latency histograms (resident service only; empty for
    /// batch runs).
    pub service: ServiceLatency,
    /// Total nanoseconds workers spent blocked waiting on the input
    /// channel, summed over workers (pool starvation signal).
    pub channel_wait_nanos: u64,
    /// Peak number of out-of-order results parked in the consumer's
    /// reorder ring awaiting their predecessors.
    pub reorder_buffer_high_water: u64,
}

impl EngineMetrics {
    /// Finalizes a collector into a snapshot.
    pub(crate) fn from_collector(c: &MetricsCollector, jobs: usize, wall_nanos: u64) -> Self {
        let mut m = EngineMetrics {
            records: c.records,
            errors: c.errors,
            jobs,
            wall_nanos,
            records_per_sec: 0.0,
            parse_cache: c.parse_cache,
            methods: c.methods,
            degradation: c.degradation,
            lint_warnings: 0,
            retries: c.retries,
            quarantined: c.quarantined,
            service: c.service.clone(),
            channel_wait_nanos: 0,
            reorder_buffer_high_water: 0,
        };
        if wall_nanos > 0 {
            m.records_per_sec = m.records as f64 / (wall_nanos as f64 / 1e9);
        }
        m
    }

    /// Folds one replayed journal entry into the deterministic counters
    /// (`records`, `errors`, `methods`, `degradation`), so a resumed
    /// run's metrics cover the whole shard instead of just the
    /// post-resume remainder — which is what lets `cmr merge` report
    /// corpus totals identical to an uninterrupted run. The replayed
    /// counts use the same source as the live path (`record.methods`);
    /// cache counters of replayed records died with the killed process
    /// and are not reconstructed.
    pub fn absorb_replayed(
        &mut self,
        output: &Result<cmr_core::ExtractedRecord, crate::EngineError>,
    ) {
        match output {
            Ok(record) => {
                self.records += 1;
                self.methods.count_record(record);
                self.degradation.add(record);
            }
            Err(crate::EngineError::Panicked { .. }) => self.errors.panics += 1,
            Err(crate::EngineError::Budget { .. }) => self.errors.budget += 1,
            Err(crate::EngineError::Timeout { .. }) => self.errors.timeouts += 1,
            // A lint failure aborts the whole run before any journal
            // entry is written; a replayed one still counts as a panic
            // bucket's sibling rather than vanishing.
            Err(crate::EngineError::Lint { .. }) => self.errors.panics += 1,
        }
        if self.wall_nanos > 0 {
            self.records_per_sec = self.records as f64 / (self.wall_nanos as f64 / 1e9);
        }
    }

    /// Merges another run's snapshot into this one — how `cmr merge`
    /// combines per-shard metrics into corpus totals.
    ///
    /// Counters and histograms sum exactly. `jobs` sums (total workers
    /// across shards), `wall_nanos` takes the max (shards run
    /// concurrently, so the slowest shard is the run's wall time) and
    /// `records_per_sec` is recomputed from the merged totals.
    /// `reorder_buffer_high_water` is a high-water mark and takes the
    /// max.
    pub fn merge(&mut self, other: &EngineMetrics) {
        self.records += other.records;
        self.errors.merge(&other.errors);
        self.jobs += other.jobs;
        self.wall_nanos = self.wall_nanos.max(other.wall_nanos);
        self.records_per_sec = if self.wall_nanos > 0 {
            self.records as f64 / (self.wall_nanos as f64 / 1e9)
        } else {
            0.0
        };
        self.parse_cache.hits += other.parse_cache.hits;
        self.parse_cache.shared_hits += other.parse_cache.shared_hits;
        self.parse_cache.misses += other.parse_cache.misses;
        self.methods.merge(&other.methods);
        self.degradation.merge(&other.degradation);
        self.lint_warnings += other.lint_warnings;
        self.retries += other.retries;
        self.quarantined += other.quarantined;
        self.service.merge(&other.service);
        self.channel_wait_nanos += other.channel_wait_nanos;
        self.reorder_buffer_high_water = self
            .reorder_buffer_high_water
            .max(other.reorder_buffer_high_water);
    }
}

/// One record's parse-cache counters, produced by a worker from
/// `ParserStats` deltas.
#[derive(Debug, Clone, Copy, Default)]
pub struct RecordSample {
    /// Structure-cache hits during this record.
    pub cache_hits: u64,
    /// The subset of `cache_hits` served by the pool-wide shared cache.
    pub shared_hits: u64,
    /// Structure-cache misses during this record.
    pub cache_misses: u64,
}

/// Accumulates worker measurements. One lives behind `Arc<Mutex<..>>` per
/// engine run, but workers never touch that lock per record: each worker
/// accumulates into a private collector inside a [`MetricsSink`] and the
/// sinks merge into the shared one at drain.
#[derive(Debug, Default)]
pub(crate) struct MetricsCollector {
    pub records: u64,
    pub errors: ErrorCounts,
    pub parse_cache: ParseCacheMetrics,
    pub methods: MethodCounts,
    pub degradation: DegradationTotals,
    pub retries: u64,
    pub quarantined: u64,
    pub service: ServiceLatency,
}

impl MetricsCollector {
    /// Records one successful record.
    pub fn record_ok(&mut self, sample: RecordSample, record: &ExtractedRecord) {
        self.records += 1;
        self.parse_cache.hits += sample.cache_hits;
        self.parse_cache.shared_hits += sample.shared_hits;
        self.parse_cache.misses += sample.cache_misses;
        self.methods.count_record(record);
        self.degradation.add(record);
    }

    /// Merges a sibling collector — the drain step of [`MetricsSink`].
    pub fn merge(&mut self, other: &MetricsCollector) {
        self.records += other.records;
        self.errors.merge(&other.errors);
        self.parse_cache.hits += other.parse_cache.hits;
        self.parse_cache.shared_hits += other.parse_cache.shared_hits;
        self.parse_cache.misses += other.parse_cache.misses;
        self.methods.merge(&other.methods);
        self.degradation.merge(&other.degradation);
        self.retries += other.retries;
        self.quarantined += other.quarantined;
        self.service.merge(&other.service);
    }
}

/// Locks a shared metrics collector, recovering from poisoning: the
/// engine's whole point is that a panicking record must not take the
/// batch with it, and a worker that panicked *while holding* this lock
/// leaves only plain counters behind — every update is a field-wise add
/// with no invariant spanning the lock, so the data is safe to keep
/// using.
pub(crate) fn lock_collector(
    collector: &TrackedMutex<MetricsCollector>,
) -> TrackedMutexGuard<'_, MetricsCollector> {
    collector
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// The shared collector always lives under this ordering class.
pub(crate) const COLLECTOR_LOCK_CLASS: &str = "engine.metrics_collector";

/// A worker-local metrics accumulator in front of the run's shared
/// collector.
///
/// Per-record updates go to the private collector through [`with`] —
/// no lock, no atomic, no sharing. [`publish`] folds the accumulated
/// counters into the shared collector and resets the local one; dropping
/// the sink publishes any remainder, which is how batch workers merge
/// exactly once at drain (worker closures drop inside the pool scope,
/// before the engine reads the shared collector). Service workers call
/// [`publish`] at the end of each request instead, so `GET /metrics`
/// stays fresh while the per-request cost is still one lock, not one per
/// counter update.
///
/// [`with`]: MetricsSink::with
/// [`publish`]: MetricsSink::publish
#[derive(Debug)]
pub(crate) struct MetricsSink {
    local: std::cell::RefCell<MetricsCollector>,
    global: Arc<TrackedMutex<MetricsCollector>>,
}

impl MetricsSink {
    /// A sink draining into `global`.
    pub fn new(global: Arc<TrackedMutex<MetricsCollector>>) -> MetricsSink {
        MetricsSink {
            local: std::cell::RefCell::new(MetricsCollector::default()),
            global,
        }
    }

    /// Runs `f` against the worker-local collector.
    pub fn with<R>(&self, f: impl FnOnce(&mut MetricsCollector) -> R) -> R {
        f(&mut self.local.borrow_mut())
    }

    /// Folds the local counters into the shared collector and resets the
    /// local ones.
    pub fn publish(&self) {
        let local = std::mem::take(&mut *self.local.borrow_mut());
        lock_collector(&self.global).merge(&local);
    }
}

impl Drop for MetricsSink {
    fn drop(&mut self) {
        self.publish();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_buckets_by_log2() {
        let mut h = DurationHistogram::default();
        h.record(0); // bucket 0
        h.record(1); // bucket 0
        h.record(2); // bucket 1
        h.record(3); // bucket 1
        h.record(1024); // bucket 10
        assert_eq!(h.count, 5);
        assert_eq!(h.buckets[0], 2);
        assert_eq!(h.buckets[1], 2);
        assert_eq!(h.buckets[10], 1);
        assert_eq!(h.max_nanos, 1024);
        assert_eq!(h.total_nanos, 1030);
        assert_eq!(h.mean_nanos(), 206);
    }

    #[test]
    fn histogram_merge_and_quantile() {
        let mut a = DurationHistogram::default();
        let mut b = DurationHistogram::default();
        for _ in 0..99 {
            a.record(100); // bucket 6, upper bound 128
        }
        b.record(1_000_000); // bucket 19
        a.merge(&b);
        assert_eq!(a.count, 100);
        assert_eq!(a.quantile_upper_bound(0.5), 128);
        assert!(a.quantile_upper_bound(1.0) >= 1_000_000);
        assert_eq!(DurationHistogram::default().quantile_upper_bound(0.5), 0);
    }

    #[test]
    fn histogram_huge_sample_clamps() {
        let mut h = DurationHistogram::default();
        h.record(u64::MAX);
        assert_eq!(h.buckets[HISTOGRAM_BUCKETS - 1], 1);
    }

    #[test]
    fn cache_hit_ratio() {
        let m = ParseCacheMetrics {
            hits: 3,
            misses: 1,
            shared_hits: 1,
        };
        assert!((m.hit_ratio() - 0.75).abs() < 1e-9);
        assert_eq!(ParseCacheMetrics::default().hit_ratio(), 0.0);
    }

    #[test]
    fn method_counts() {
        let mut m = MethodCounts::default();
        m.count(MethodUsed::LinkGrammar);
        m.count(MethodUsed::LinkGrammar);
        m.count(MethodUsed::Pattern);
        m.count(MethodUsed::YearOld);
        assert_eq!(m.link_grammar, 2);
        assert_eq!(m.pattern, 1);
        assert_eq!(m.year_old, 1);
        assert_eq!(m.proximity, 0);
    }

    /// A record whose `methods` hold one entry per tier.
    fn record_with_methods(methods: &[(&str, MethodUsed)]) -> ExtractedRecord {
        let mut record = ExtractedRecord::default();
        for &(field, method) in methods {
            record.methods.insert(field.to_string(), method);
        }
        record
    }

    #[test]
    fn metrics_serialize_roundtrip() {
        let mut c = MetricsCollector::default();
        let mut record = record_with_methods(&[
            ("age", MethodUsed::LinkGrammar),
            ("past_medical_history", MethodUsed::Pattern),
            ("pulse", MethodUsed::Salvage),
        ]);
        record.parse_failures.no_linkage = 2;
        c.record_ok(
            RecordSample {
                cache_hits: 2,
                shared_hits: 1,
                cache_misses: 1,
            },
            &record,
        );
        c.errors.panics = 1;
        c.errors.timeouts = 2;
        c.retries = 3;
        c.quarantined = 1;
        let mut m = EngineMetrics::from_collector(&c, 4, 2_000_000_000);
        m.channel_wait_nanos = 123_456_789;
        m.reorder_buffer_high_water = 42;
        assert_eq!(m.records, 1);
        assert_eq!(m.errors.total(), 3, "timeouts count toward the total");
        assert!((m.records_per_sec - 0.5).abs() < 1e-9);
        let json = serde_json::to_string(&m).expect("serializes");
        let back: EngineMetrics = serde_json::from_str(&json).expect("deserializes");
        assert_eq!(back.records, 1);
        assert_eq!(back.channel_wait_nanos, 123_456_789);
        assert_eq!(back.reorder_buffer_high_water, 42);
        assert_eq!(back.parse_cache.shared_hits, 1);
        assert_eq!(back.jobs, 4);
        assert_eq!(back.methods.link_grammar, 1);
        assert_eq!(back.methods.pattern, 1);
        assert_eq!(back.methods.salvage, 1);
        assert_eq!(back.degradation.parse_failures, 2);
        assert_eq!(back.degradation.degraded_records, 1);
        assert_eq!(back.errors.timeouts, 2);
        assert_eq!(back.errors.total(), 3);
        assert_eq!(back.retries, 3);
        assert_eq!(back.quarantined, 1);
    }

    /// Satellite pin for the PR5 u64-as-i64 serde pitfall: the vendored
    /// serde stores integers as `i64`, so the new service-latency buckets
    /// must round-trip with realistic-but-large nanosecond sums (values
    /// beyond `i64::MAX` cannot survive; latency counters never get there
    /// — even a century of nanoseconds fits in 62 bits).
    #[test]
    fn service_latency_serialize_roundtrip() {
        let mut c = MetricsCollector::default();
        c.service.extract.record(1_500_000); // 1.5 ms request
        c.service.extract.record(40_000_000_000); // pathological 40 s
        c.service.batch.record(250_000_000);
        c.service.batch_record.record(800_000);
        c.service.batch_record.record(1u64 << 62); // largest representable class
        let m = EngineMetrics::from_collector(&c, 2, 1_000_000_000);
        let json = serde_json::to_string(&m).expect("serializes");
        let back: EngineMetrics = serde_json::from_str(&json).expect("deserializes");
        assert_eq!(back.service.extract.count, 2);
        assert_eq!(back.service.extract.total_nanos, 40_001_500_000);
        assert_eq!(back.service.extract.max_nanos, 40_000_000_000);
        assert_eq!(back.service.batch.count, 1);
        assert_eq!(back.service.batch_record.count, 2);
        assert_eq!(back.service.batch_record.max_nanos, 1u64 << 62);
        assert_eq!(
            back.service.batch_record.buckets,
            m.service.batch_record.buckets
        );
        assert_eq!(back.service.requests(), 3);
        // An empty service block (every batch run) round-trips too.
        let empty = EngineMetrics::default();
        let json = serde_json::to_string(&empty).expect("serializes");
        let back: EngineMetrics = serde_json::from_str(&json).expect("deserializes");
        assert_eq!(back.service.requests(), 0);
    }

    #[test]
    fn service_latency_merge() {
        let mut a = ServiceLatency::default();
        a.extract.record(100);
        let mut b = ServiceLatency::default();
        b.extract.record(200);
        b.batch.record(300);
        a.merge(&b);
        assert_eq!(a.extract.count, 2);
        assert_eq!(a.batch.count, 1);
        assert_eq!(a.requests(), 3);
    }

    #[test]
    fn method_counts_include_salvage() {
        let mut m = MethodCounts::default();
        m.count(MethodUsed::Salvage);
        assert_eq!(m.salvage, 1);
    }

    #[test]
    fn sink_publishes_on_drop_and_on_demand() {
        let global = Arc::new(TrackedMutex::new(
            COLLECTOR_LOCK_CLASS,
            MetricsCollector::default(),
        ));
        {
            let sink = MetricsSink::new(Arc::clone(&global));
            sink.with(|c| c.retries += 2);
            assert_eq!(
                lock_collector(&global).retries,
                0,
                "local counts must not leak before publish"
            );
            sink.publish();
            assert_eq!(lock_collector(&global).retries, 2);
            // Publish resets the local side: no double counting.
            sink.publish();
            assert_eq!(lock_collector(&global).retries, 2);
            sink.with(|c| c.errors.panics += 1);
        } // drop publishes the remainder
        let c = lock_collector(&global);
        assert_eq!(c.retries, 2);
        assert_eq!(c.errors.panics, 1);
    }

    #[test]
    fn engine_metrics_merge_sums_counters_and_maxes_wall() {
        let mut a = EngineMetrics {
            records: 10,
            jobs: 2,
            wall_nanos: 2_000_000_000,
            ..Default::default()
        };
        a.methods.pattern = 3;
        a.parse_cache.hits = 5;
        let mut b = EngineMetrics {
            records: 30,
            jobs: 4,
            wall_nanos: 4_000_000_000,
            quarantined: 1,
            reorder_buffer_high_water: 7,
            ..Default::default()
        };
        b.methods.pattern = 1;
        b.parse_cache.misses = 2;
        a.merge(&b);
        assert_eq!(a.records, 40);
        assert_eq!(a.jobs, 6);
        assert_eq!(a.wall_nanos, 4_000_000_000, "slowest shard wins");
        assert!((a.records_per_sec - 10.0).abs() < 1e-9);
        assert_eq!(a.methods.pattern, 4);
        assert_eq!(a.parse_cache.hits, 5);
        assert_eq!(a.parse_cache.misses, 2);
        assert_eq!(a.quarantined, 1);
        assert_eq!(a.reorder_buffer_high_water, 7);
    }

    #[test]
    fn absorb_replayed_matches_live_counting() {
        use crate::EngineError;
        let mut record = record_with_methods(&[
            ("pulse", MethodUsed::LinkGrammar),
            ("weight", MethodUsed::Salvage),
        ]);
        record.parse_failures.too_long = 1;
        let mut live = MetricsCollector::default();
        live.record_ok(RecordSample::default(), &record);
        let mut m = EngineMetrics::default();
        m.absorb_replayed(&Ok(record));
        m.absorb_replayed(&Err(EngineError::Budget { sentences_done: 3 }));
        m.absorb_replayed(&Err(EngineError::Timeout { millis: 10 }));
        assert_eq!(m.records, 1);
        assert_eq!(m.methods.link_grammar, live.methods.link_grammar);
        assert_eq!(m.methods.salvage, live.methods.salvage);
        assert_eq!(m.methods.salvage, 1);
        assert_eq!(
            m.degradation.parse_failures,
            live.degradation.parse_failures
        );
        assert_eq!(m.degradation.degraded_records, 1);
        assert_eq!(m.errors.budget, 1);
        assert_eq!(m.errors.timeouts, 1);
    }

    #[test]
    fn degradation_totals_merge() {
        let mut a = DegradationTotals {
            degraded_records: 1,
            ..Default::default()
        };
        a.merge(&DegradationTotals {
            parse_failures: 3,
            ..Default::default()
        });
        assert_eq!(a.parse_failures, 3);
        assert_eq!(a.degraded_records, 1);
    }
}
