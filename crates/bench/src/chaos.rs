//! B2 — chaos harness: extraction quality under synthetic corruption.
//!
//! The paper's corpus is clean dictation; deployed OCR/ASR front ends are
//! not. This harness corrupts the gold corpus with the seeded
//! [`NoiseInjector`] at a sweep of noise levels, pushes every level through
//! the parallel engine, and scores the output against the (uncorrupted)
//! gold labels. The product is a degradation curve: precision/recall/F1
//! versus noise, alongside the per-tier field counts that show the salvage
//! chain absorbing what the structured tiers drop.
//!
//! Two invariants matter more than the curve itself:
//!
//! * **zero panics** — corruption must degrade scores, never the process;
//! * **noise-zero identity** — at level 0 the injector is a no-op and the
//!   salvage tier is inert, so the curve's first point reproduces the clean
//!   experiment exactly.

use crate::experiments::{gold_numeric, values_equal};
use cmr_core::Schema;
use cmr_corpus::{CorpusBuilder, GoldRecord, NoiseInjector};
use cmr_engine::{Engine, EngineConfig};
use cmr_eval::{MultiValueScore, PrecisionRecall};
use cmr_ontology::Ontology;
use serde::Serialize;
use std::sync::atomic::{AtomicBool, Ordering};

/// Parameters of one chaos sweep.
#[derive(Debug, Clone)]
pub struct ChaosConfig {
    /// Noise levels to sweep, each in `0.0..=1.0`.
    pub levels: Vec<f64>,
    /// Corruption seed (the corpus itself uses the builder default, so the
    /// gold labels stay those of the paper corpus).
    pub seed: u64,
    /// Corpus size.
    pub records: usize,
    /// Engine worker count (0 = one per core).
    pub jobs: usize,
}

impl Default for ChaosConfig {
    fn default() -> ChaosConfig {
        ChaosConfig {
            levels: vec![0.0, 0.1, 0.2, 0.3, 0.4, 0.5],
            seed: 7,
            records: 50,
            jobs: 0,
        }
    }
}

/// Scores and tier counts at one noise level.
#[derive(Debug, Clone, Serialize)]
pub struct ChaosLevelReport {
    /// The noise level.
    pub noise: f64,
    /// Pooled numeric precision over the paper's eight attributes.
    pub numeric_precision: f64,
    /// Pooled numeric recall.
    pub numeric_recall: f64,
    /// Pooled numeric F1.
    pub numeric_f1: f64,
    /// Pooled F1 over all medical/surgical history terms.
    pub term_f1: f64,
    /// Numeric fields resolved by the link-grammar tier.
    pub link_grammar_fields: u64,
    /// Fields (numeric or term) resolved by the pattern tier.
    pub pattern_fields: u64,
    /// Fields (numeric or term) recovered by the salvage tier.
    pub salvage_fields: u64,
    /// Link-grammar parse failures observed while extracting.
    pub parse_failures: u64,
    /// Records that needed the salvage tier at all.
    pub degraded_records: u64,
    /// Worker panics caught by the engine. The harness's contract is that
    /// this stays zero at every level.
    pub panics: u64,
    /// Records rejected by a time budget.
    pub budget_errors: u64,
    /// Records that produced no output (panic, budget, or abort).
    pub failed_records: u64,
}

/// A full sweep: one [`ChaosLevelReport`] per level, in sweep order.
#[derive(Debug, Clone, Serialize)]
pub struct ChaosReport {
    /// Corruption seed used for every level.
    pub seed: u64,
    /// Corpus size.
    pub records: usize,
    /// True when the sweep was interrupted (see [`run_chaos_with`]): the
    /// levels present are complete and valid, but the sweep is partial.
    pub interrupted: bool,
    /// Per-level results.
    pub levels: Vec<ChaosLevelReport>,
}

impl ChaosReport {
    /// Total panics across the sweep (the zero-panic acceptance gate).
    pub fn total_panics(&self) -> u64 {
        self.levels.iter().map(|l| l.panics).sum()
    }
}

/// All gold history terms of a record (medical and surgical pooled —
/// mirrors how the extractor's four term lists are pooled for scoring).
fn gold_terms(rec: &GoldRecord) -> Vec<String> {
    let mut terms = rec.medical_history.clone();
    terms.extend(rec.surgical_history.iter().cloned());
    terms
}

/// Runs the sweep. Every level re-corrupts the same gold corpus with the
/// same seed (the injector keys its RNG on `(seed, text)`, so levels are
/// comparable) and scores against the uncorrupted gold labels.
pub fn run_chaos(cfg: &ChaosConfig) -> ChaosReport {
    run_chaos_with(cfg, None)
}

/// [`run_chaos`] with an optional interrupt flag (e.g. raised by a
/// SIGINT handler): the sweep stops *between* noise levels when the flag
/// is seen, so every level in the report is complete and scoreable, and
/// the report is marked [`ChaosReport::interrupted`] for the caller to
/// flush as a partial result instead of losing the finished levels.
pub fn run_chaos_with(cfg: &ChaosConfig, interrupt: Option<&AtomicBool>) -> ChaosReport {
    let corpus = CorpusBuilder::new().records(cfg.records).build();
    let attrs = Schema::paper_numeric_names();
    let mut interrupted = false;
    let mut levels = Vec::with_capacity(cfg.levels.len());
    for &noise in &cfg.levels {
        if interrupt.is_some_and(|f| f.load(Ordering::Relaxed)) {
            interrupted = true;
            break;
        }
        let injector = NoiseInjector::from_level(noise, cfg.seed);
        let texts: Vec<String> = corpus
            .records
            .iter()
            .map(|r| injector.corrupt(&r.text))
            .collect();
        let refs: Vec<&str> = texts.iter().map(|t| t.as_str()).collect();
        let engine = Engine::new(
            EngineConfig {
                jobs: cfg.jobs,
                ..EngineConfig::default()
            },
            Schema::paper(),
            Ontology::full(),
        );
        let out = engine.extract_batch(&refs);

        let mut numeric = PrecisionRecall::new();
        let mut terms = MultiValueScore::new();
        let mut failed = 0u64;
        for (rec, item) in corpus.records.iter().zip(&out.items) {
            match item {
                Ok(x) => {
                    for attr in attrs {
                        let gold = gold_numeric(rec, attr);
                        match (x.numeric(attr), gold) {
                            (Some(g), Some(t)) if values_equal(&g, &t) => {
                                numeric.true_positives += 1;
                            }
                            (Some(_), Some(_)) => {
                                numeric.false_positives += 1;
                                numeric.false_negatives += 1;
                            }
                            (Some(_), None) => numeric.false_positives += 1,
                            (None, Some(_)) => numeric.false_negatives += 1,
                            (None, None) => {}
                        }
                    }
                    let mut got: Vec<String> = x.predefined_medical.clone();
                    got.extend(x.other_medical.iter().cloned());
                    got.extend(x.predefined_surgical.iter().cloned());
                    got.extend(x.other_surgical.iter().cloned());
                    terms.add_subject(&got, &gold_terms(rec));
                }
                Err(_) => {
                    // A failed record still owes its gold values: count
                    // every one as missed so failures depress recall
                    // instead of silently shrinking the denominator.
                    failed += 1;
                    for attr in attrs {
                        if gold_numeric(rec, attr).is_some() {
                            numeric.false_negatives += 1;
                        }
                    }
                    terms.add_subject::<String>(&[], &gold_terms(rec));
                }
            }
        }
        let m = out.metrics.methods;
        let d = out.metrics.degradation;
        levels.push(ChaosLevelReport {
            noise,
            numeric_precision: numeric.precision(),
            numeric_recall: numeric.recall(),
            numeric_f1: numeric.f1(),
            term_f1: terms.pooled().f1(),
            link_grammar_fields: m.link_grammar,
            pattern_fields: m.pattern + m.year_old + m.proximity,
            salvage_fields: m.salvage,
            parse_failures: d.parse_failures,
            degraded_records: d.degraded_records,
            panics: out.metrics.errors.panics,
            budget_errors: out.metrics.errors.budget,
            failed_records: failed,
        });
    }
    ChaosReport {
        seed: cfg.seed,
        records: cfg.records,
        interrupted,
        levels,
    }
}

/// Parses a noise-level specification:
///
/// * `"0.3"` — a single level;
/// * `"0,0.1,0.3"` — an explicit list;
/// * `"A..B"` or `"A..B:STEP"` — an inclusive range (default step `0.1`).
pub fn parse_levels(spec: &str) -> Result<Vec<f64>, String> {
    let parse_one = |s: &str| -> Result<f64, String> {
        let v: f64 = s
            .trim()
            .parse()
            .map_err(|_| format!("bad noise level `{s}`"))?;
        if !(0.0..=1.0).contains(&v) {
            return Err(format!("noise level {v} outside 0..=1"));
        }
        Ok(v)
    };
    if let Some((lo, rest)) = spec.split_once("..") {
        let (hi, step) = match rest.split_once(':') {
            Some((hi, step)) => (parse_one(hi)?, parse_one(step)?),
            None => (parse_one(rest)?, 0.1),
        };
        let lo = parse_one(lo)?;
        if step <= 0.0 {
            return Err(format!("range step {step} must be positive"));
        }
        if hi < lo {
            return Err(format!("empty range {lo}..{hi}"));
        }
        // Integer stepping avoids the accumulated float drift that would
        // drop or duplicate the endpoint.
        let n = ((hi - lo) / step + 1e-9).floor() as usize;
        let mut levels: Vec<f64> = (0..=n).map(|i| lo + step * i as f64).collect();
        if let Some(last) = levels.last_mut() {
            *last = last.min(hi);
        }
        return Ok(levels);
    }
    spec.split(',').map(parse_one).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn close(a: &[f64], b: &[f64]) -> bool {
        a.len() == b.len() && a.iter().zip(b).all(|(x, y)| (x - y).abs() < 1e-9)
    }

    #[test]
    fn parse_levels_single_list_and_range() {
        assert!(close(&parse_levels("0.3").expect("single"), &[0.3]));
        assert!(close(
            &parse_levels("0,0.1,0.3").expect("list"),
            &[0.0, 0.1, 0.3]
        ));
        assert!(close(
            &parse_levels("0..0.5").expect("range"),
            &[0.0, 0.1, 0.2, 0.3, 0.4, 0.5]
        ));
        assert!(close(
            &parse_levels("0.1..0.3:0.05").expect("stepped range"),
            &[0.1, 0.15, 0.2, 0.25, 0.3]
        ));
    }

    #[test]
    fn parse_levels_rejects_garbage() {
        assert!(parse_levels("zebra").is_err());
        assert!(parse_levels("1.5").is_err());
        assert!(parse_levels("0.5..0.1").is_err());
        assert!(parse_levels("0..0.5:0").is_err());
    }

    #[test]
    fn pre_raised_interrupt_yields_an_empty_partial_report() {
        let flag = AtomicBool::new(true);
        let report = run_chaos_with(
            &ChaosConfig {
                levels: vec![0.0, 0.3],
                seed: 7,
                records: 2,
                jobs: 1,
            },
            Some(&flag),
        );
        assert!(report.interrupted);
        assert!(
            report.levels.is_empty(),
            "no level may start after the flag"
        );
    }

    #[test]
    fn chaos_sweep_is_clean_at_level_zero_and_total_under_noise() {
        let report = run_chaos(&ChaosConfig {
            levels: vec![0.0, 0.3],
            seed: 7,
            records: 4,
            jobs: 2,
        });
        assert_eq!(report.levels.len(), 2);
        assert_eq!(report.total_panics(), 0, "corruption must never panic");
        let clean = &report.levels[0];
        assert!(
            clean.numeric_f1 > 0.999,
            "clean corpus should reproduce the paper's perfect numeric score, got {}",
            clean.numeric_f1
        );
        assert_eq!(clean.salvage_fields, 0, "salvage must be inert at noise 0");
        assert_eq!(clean.degraded_records, 0);
        for level in &report.levels {
            assert_eq!(level.failed_records, 0);
        }
    }
}
