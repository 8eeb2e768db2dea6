//! Engine throughput, cache and extraction-method metrics.
//!
//! [`EngineMetrics`] is the one accumulator. A batch run owns one on the
//! thread that emits results in input order, a resident service keeps
//! one behind a lock, and a resumed journal starts one from its
//! snapshot; each counts a record's outcome with [`EngineMetrics::count`].

use crate::EngineError;
use cmr_core::{ExtractedRecord, MethodUsed};
use serde::{Deserialize, Serialize};

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

    pub(crate) fn merge(&mut self, other: &ParseCacheMetrics) {
        self.hits += other.hits;
        self.shared_hits += other.shared_hits;
        self.misses += other.misses;
    }
}

/// How each field was extracted, summed across all records: one count per
/// entry of every record's `methods` map (numeric fields and term fields
/// alike). This is the only per-tier tally: the link-grammar tier is
/// `link_grammar`, the pattern tier is `pattern + year_old + proximity`,
/// and the salvage tier is `salvage`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
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
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct DegradationTotals {
    /// Link-parse failures on sentences carrying an extraction opportunity.
    pub parse_failures: u64,
    /// Records that needed the salvage tier (see
    /// [`ExtractedRecord::degraded`]).
    pub degraded_records: u64,
}

impl DegradationTotals {
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
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct ErrorCounts {
    /// Records whose extraction panicked (caught; the batch survives).
    pub panics: u64,
    /// Records that exceeded the per-record budget.
    pub budget: u64,
    /// Records that ran past their wall-clock deadline (between sentences
    /// or mid-parse).
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
    /// Tallies one record's outcome into `records`, `errors`, `methods`
    /// and `degradation` — the only code that does. The batch engine's
    /// ordered sink, each service request and each entry a resumed
    /// journal replays all come through here, so live, served and
    /// replayed records count alike.
    pub fn count(&mut self, outcome: &Result<ExtractedRecord, EngineError>) {
        match outcome {
            Ok(record) => {
                self.records += 1;
                for &method in record.methods.values() {
                    self.methods.count(method);
                }
                self.degradation.parse_failures += u64::from(record.parse_failures.total());
                self.degradation.degraded_records += u64::from(record.degraded());
            }
            Err(EngineError::Panicked { .. }) => self.errors.panics += 1,
            Err(EngineError::Budget { .. }) => self.errors.budget += 1,
            Err(EngineError::Timeout { .. }) => self.errors.timeouts += 1,
        }
    }

    /// Sets the wall time and `records_per_sec`, the rate over it.
    pub(crate) fn set_wall(&mut self, wall_nanos: u64) {
        self.wall_nanos = wall_nanos;
        self.records_per_sec = if wall_nanos > 0 {
            self.records as f64 / (wall_nanos as f64 / 1e9)
        } else {
            0.0
        };
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
        self.set_wall(self.wall_nanos.max(other.wall_nanos));
        self.parse_cache.merge(&other.parse_cache);
        self.methods.merge(&other.methods);
        self.degradation.merge(&other.degradation);
        self.service.merge(&other.service);
        self.channel_wait_nanos += other.channel_wait_nanos;
        self.reorder_buffer_high_water = self
            .reorder_buffer_high_water
            .max(other.reorder_buffer_high_water);
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
    }

    #[test]
    fn histogram_merge() {
        let mut a = DurationHistogram::default();
        let mut b = DurationHistogram::default();
        for _ in 0..99 {
            a.record(100); // bucket 6, upper bound 128
        }
        b.record(1_000_000); // bucket 19
        a.merge(&b);
        assert_eq!(a.count, 100);
        assert_eq!(a.buckets[6], 99);
        assert_eq!(a.buckets[19], 1);
        assert_eq!(a.total_nanos, 1_009_900);
        assert_eq!(a.max_nanos, 1_000_000);
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
        let mut m = EngineMetrics::default();
        let mut record = record_with_methods(&[
            ("age", MethodUsed::LinkGrammar),
            ("past_medical_history", MethodUsed::Pattern),
            ("pulse", MethodUsed::Salvage),
        ]);
        record.parse_failures.no_linkage = 2;
        m.count(&Ok(record));
        m.parse_cache.merge(&ParseCacheMetrics {
            hits: 2,
            shared_hits: 1,
            misses: 1,
        });
        m.errors.panics = 1;
        m.errors.timeouts = 2;
        m.jobs = 4;
        m.set_wall(2_000_000_000);
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
    }

    /// Satellite pin for the PR5 u64-as-i64 serde pitfall: the vendored
    /// serde stores integers as `i64`, so the new service-latency buckets
    /// must round-trip with realistic-but-large nanosecond sums (values
    /// beyond `i64::MAX` cannot survive; latency counters never get there
    /// — even a century of nanoseconds fits in 62 bits).
    #[test]
    fn service_latency_serialize_roundtrip() {
        let mut m = EngineMetrics::default();
        m.service.extract.record(1_500_000); // 1.5 ms request
        m.service.extract.record(40_000_000_000); // pathological 40 s
        m.service.batch.record(250_000_000);
        m.service.batch_record.record(800_000);
        m.service.batch_record.record(1u64 << 62); // largest representable class
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
        assert_eq!(a.reorder_buffer_high_water, 7);
    }

    #[test]
    fn count_tallies_each_outcome_kind() {
        let mut record = record_with_methods(&[
            ("pulse", MethodUsed::LinkGrammar),
            ("weight", MethodUsed::Salvage),
        ]);
        record.parse_failures.too_long = 1;
        let mut m = EngineMetrics::default();
        m.count(&Ok(record));
        m.count(&Err(EngineError::Budget { sentences_done: 3 }));
        m.count(&Err(EngineError::Timeout { millis: 10 }));
        m.count(&Err(EngineError::Panicked {
            message: "boom".into(),
        }));
        assert_eq!(m.records, 1);
        assert_eq!(m.methods.link_grammar, 1);
        assert_eq!(m.methods.salvage, 1);
        assert_eq!(m.degradation.parse_failures, 1);
        assert_eq!(m.degradation.degraded_records, 1);
        assert_eq!(m.errors.budget, 1);
        assert_eq!(m.errors.timeouts, 1);
        assert_eq!(m.errors.panics, 1);
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
