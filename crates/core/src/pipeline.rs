//! The end-to-end pipeline: record in, structured information out.
//!
//! Mirrors Figure 2 of the paper: tokenization/splitting/tagging
//! (cmr-text/cmr-postag for GATE), the link grammar parser, the morphology
//! engine (cmr-lexicon for WordNet), the ontology (cmr-ontology for UMLS),
//! and the extractors of this crate; the output is a structured record
//! (serde-serializable, standing in for the paper's Access database).

use crate::degradation::{DegradationReport, FieldProvenance, Tier};
use crate::numeric::{AssociationMethod, MethodUsed, NumericExtractor, NumericHit};
use crate::schema::Schema;
use crate::terms::MedicalTermExtractor;
use cmr_ontology::{Ontology, ValueSet};
use cmr_text::{NumberValue, Record};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::sync::Arc;

/// Structured information extracted from one record.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct ExtractedRecord {
    /// Patient identifier from the `Patient:` section.
    pub patient_id: Option<String>,
    /// Numeric attributes by name.
    pub numeric: BTreeMap<String, NumberValue>,
    /// How each numeric attribute was associated (same keys as `numeric`).
    pub numeric_methods: BTreeMap<String, crate::numeric::MethodUsed>,
    /// Predefined past-medical-history terms (concept preferred names).
    pub predefined_medical: Vec<String>,
    /// Other past-medical-history terms.
    pub other_medical: Vec<String>,
    /// Predefined past-surgical-history terms.
    pub predefined_surgical: Vec<String>,
    /// Other past-surgical-history terms.
    pub other_surgical: Vec<String>,
    /// Which tier served each field (numeric attributes by name, term
    /// fields by field name) and with what confidence.
    pub provenance: BTreeMap<String, FieldProvenance>,
    /// The degradation story of this extraction: per-tier counts,
    /// link-parse failures, salvage usage.
    pub degradation: DegradationReport,
}

impl ExtractedRecord {
    /// Convenience accessor for a numeric attribute.
    pub fn numeric(&self, name: &str) -> Option<NumberValue> {
        self.numeric.get(name).copied()
    }
}

/// Per-stage wall time of one instrumented extraction (see
/// [`Pipeline::extract_instrumented`]). Link-parse time is a subset of
/// `numeric_nanos` and is reported separately through
/// [`Pipeline::parser_stats`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ExtractTiming {
    /// Wall time in the numeric extractor (tagging, number annotation,
    /// link parsing, association).
    pub numeric_nanos: u64,
    /// Wall time in the medical-term extractor (POS patterns,
    /// normalization, ontology lookup).
    pub terms_nanos: u64,
}

/// The extraction pipeline (numeric + medical terms; categorical fields
/// need training data and live in [`crate::CategoricalExtractor`]).
///
/// The schema and ontology are held behind [`Arc`], so a worker pool can
/// construct one pipeline per thread against shared read-only configuration
/// without cloning the concept table (see `cmr-engine`). The pipeline
/// itself is `!Sync` — the link parser keeps a per-instance structure
/// cache — which is exactly why workers each own one.
pub struct Pipeline {
    schema: Arc<Schema>,
    numeric: NumericExtractor,
    terms: MedicalTermExtractor,
    predefined_medical: ValueSet,
    predefined_surgical: ValueSet,
    salvage: bool,
}

impl Default for Pipeline {
    fn default() -> Self {
        Pipeline::with_default_schema()
    }
}

impl Pipeline {
    /// Paper schema, full ontology, link-grammar association with pattern
    /// fallback.
    pub fn with_default_schema() -> Pipeline {
        Pipeline::new(
            Schema::paper(),
            Ontology::full(),
            AssociationMethod::LinkWithFallback,
        )
    }

    /// Fully configured pipeline. Accepts owned configuration or
    /// pre-shared `Arc`s (workers in a pool pass clones of the same
    /// `Arc<Schema>` / `Arc<Ontology>`).
    pub fn new(
        schema: impl Into<Arc<Schema>>,
        ontology: impl Into<Arc<Ontology>>,
        method: AssociationMethod,
    ) -> Pipeline {
        Pipeline {
            schema: schema.into(),
            numeric: NumericExtractor::with_method(method),
            terms: MedicalTermExtractor::new(ontology),
            predefined_medical: ValueSet::predefined_medical_history(),
            predefined_surgical: ValueSet::predefined_surgical_history(),
            salvage: true,
        }
    }

    /// Enables or disables the tier-3 salvage stage (on by default).
    /// Salvage only ever runs for fields the link-grammar and pattern
    /// tiers both missed, so on clean input the output is identical either
    /// way; disabling it is for ablations and identity tests.
    pub fn with_salvage(mut self, salvage: bool) -> Pipeline {
        self.salvage = salvage;
        self
    }

    /// Selects the medical-term pattern inventory (the paper's four
    /// patterns by default; see [`crate::PatternSet`]).
    pub fn with_term_patterns(mut self, patterns: crate::PatternSet) -> Pipeline {
        self.terms.set_patterns(patterns);
        self
    }

    /// Attaches a pool-wide link-parse structure cache
    /// ([`cmr_linkgram::SharedParseCache`]): per-thread pipelines sharing
    /// one parse each sentence shape once per pool instead of once per
    /// worker.
    pub fn with_shared_parse_cache(mut self, cache: cmr_linkgram::SharedParseCache) -> Pipeline {
        self.numeric.set_shared_parse_cache(cache);
        self
    }

    /// Installs a cooperative-cancellation flag on the link parser. The
    /// engine's watchdog raises it when a record exceeds its wall-clock
    /// deadline, so a pathological sentence cannot pin a worker inside the
    /// O(n³) search.
    pub fn with_cancel_flag(mut self, flag: Arc<std::sync::atomic::AtomicBool>) -> Pipeline {
        self.numeric.set_cancel_flag(flag);
        self
    }

    /// The schema in use.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Link-parser cache and timing counters (see
    /// [`cmr_linkgram::ParserStats`]); cumulative over this pipeline's
    /// lifetime.
    pub fn parser_stats(&self) -> cmr_linkgram::ParserStats {
        self.numeric.parser_stats()
    }

    /// Extracts everything the untrained pipeline can from one record.
    pub fn extract(&self, text: &str) -> ExtractedRecord {
        self.extract_parsed(&Record::parse(text))
    }

    /// Like [`Pipeline::extract`], but over an already-parsed [`Record`].
    /// The record is parsed exactly once per extraction — section routing
    /// for numeric attributes and for term sections shares this parse.
    pub fn extract_parsed(&self, record: &Record) -> ExtractedRecord {
        self.extract_instrumented(record, &crate::ExtractBudget::NONE)
            .expect("unlimited budget never trips")
            .0
    }

    /// Like [`Pipeline::extract_parsed`], but enforces a per-record
    /// [`crate::ExtractBudget`]. The sentence/step budget applies to the
    /// numeric stage (where the link parser lives); the deadline is also
    /// re-checked between term sections.
    pub fn extract_budgeted(
        &self,
        record: &Record,
        budget: &crate::ExtractBudget,
    ) -> Result<ExtractedRecord, crate::BudgetExceeded> {
        self.extract_instrumented(record, budget)
            .map(|(out, _)| out)
    }

    /// Budgeted extraction that also reports per-stage wall time, so batch
    /// drivers (see `cmr-engine`) can fill stage histograms without timing
    /// the pipeline from outside.
    pub fn extract_instrumented(
        &self,
        record: &Record,
        budget: &crate::ExtractBudget,
    ) -> Result<(ExtractedRecord, ExtractTiming), crate::BudgetExceeded> {
        let mut timing = ExtractTiming::default();
        let mut out = ExtractedRecord {
            patient_id: record.patient_id.clone(),
            ..ExtractedRecord::default()
        };

        // Numeric attributes.
        let numeric_start = std::time::Instant::now();
        let numeric_hits = self
            .numeric
            .extract_counted(record, &self.schema.numeric, budget);
        timing.numeric_nanos = numeric_start.elapsed().as_nanos() as u64;
        let (hits, parse_failures) = numeric_hits?;
        out.degradation.parse_failures = parse_failures;
        for NumericHit {
            field,
            value,
            method,
        } in hits
        {
            out.numeric.insert(field.clone(), value);
            out.provenance
                .insert(field.clone(), FieldProvenance::of_method(method));
            out.degradation.tiers.record(Tier::of_method(method));
            out.numeric_methods.insert(field, method);
        }

        let terms_start = std::time::Instant::now();

        // Medical-term attributes. Term extraction has no step notion, but
        // the deadline still applies between term fields.
        for term_field in &self.schema.terms {
            if let Some(deadline) = budget.deadline {
                if std::time::Instant::now() >= deadline {
                    return Err(crate::BudgetExceeded { sentences_done: 0 });
                }
            }
            let (predefined_set, slots) = match term_field.name.as_str() {
                "past_medical_history" => (
                    &self.predefined_medical,
                    (&mut out.predefined_medical, &mut out.other_medical),
                ),
                "past_surgical_history" => (
                    &self.predefined_surgical,
                    (&mut out.predefined_surgical, &mut out.other_surgical),
                ),
                _ => continue,
            };
            let mut any_section_present = false;
            let mut extracted = 0u32;
            for section_name in &term_field.sections {
                let Some(section) = record.section(section_name) else {
                    continue;
                };
                any_section_present = true;
                let (pre, other) = self
                    .terms
                    .extract_partitioned(&section.body, predefined_set);
                for hit in pre {
                    let name = hit.concept.preferred.to_string();
                    if !slots.0.contains(&name) {
                        slots.0.push(name);
                        extracted += 1;
                    }
                }
                for hit in other {
                    let name = hit.concept.preferred.to_string();
                    if !slots.1.contains(&name) {
                        slots.1.push(name);
                        extracted += 1;
                    }
                }
            }
            if any_section_present {
                for _ in 0..extracted {
                    out.degradation.tiers.record(Tier::Pattern);
                }
                if extracted > 0 {
                    out.provenance
                        .insert(term_field.name.clone(), FieldProvenance::term_pattern());
                }
            } else if self.salvage {
                // Tier-3 term salvage: every section this field is dictated
                // in is gone (garbled headers merge their text into
                // neighbouring sections), so scan the whole record. This
                // recovers terms at the cost of precision — terms from
                // *other* history sections (e.g. family history) leak in.
                let whole: String = join_bodies(record, None);
                let (pre, other) = self.terms.extract_partitioned(&whole, predefined_set);
                let mut salvaged = 0u32;
                for hit in pre {
                    let name = hit.concept.preferred.to_string();
                    if !slots.0.contains(&name) {
                        slots.0.push(name);
                        salvaged += 1;
                    }
                }
                for hit in other {
                    let name = hit.concept.preferred.to_string();
                    if !slots.1.contains(&name) {
                        slots.1.push(name);
                        salvaged += 1;
                    }
                }
                if salvaged > 0 {
                    for _ in 0..salvaged {
                        out.degradation.tiers.record(Tier::Salvage);
                    }
                    out.provenance
                        .insert(term_field.name.clone(), FieldProvenance::term_salvage());
                    out.degradation
                        .salvaged_fields
                        .push(term_field.name.clone());
                }
            }
        }

        // Tier-3 numeric salvage: only for attributes both real tiers
        // missed. Scan the sections the spec routes to when any survived;
        // when the spec's sections are all gone (garbled headers), scan the
        // whole record — under header garbling the text still exists, just
        // inside a neighbouring section's body.
        if self.salvage {
            for spec in &self.schema.numeric {
                if out.numeric.contains_key(&spec.name) {
                    continue;
                }
                if let Some(deadline) = budget.deadline {
                    if std::time::Instant::now() >= deadline {
                        return Err(crate::BudgetExceeded { sentences_done: 0 });
                    }
                }
                let routed = join_bodies(record, Some(&spec.sections));
                let text = if routed.is_empty() {
                    join_bodies(record, None)
                } else {
                    routed
                };
                if let Some(value) = crate::salvage::salvage_numeric(&text, spec) {
                    out.numeric.insert(spec.name.clone(), value);
                    out.numeric_methods
                        .insert(spec.name.clone(), MethodUsed::Salvage);
                    out.provenance.insert(
                        spec.name.clone(),
                        FieldProvenance::of_method(MethodUsed::Salvage),
                    );
                    out.degradation.tiers.record(Tier::Salvage);
                    out.degradation.salvaged_fields.push(spec.name.clone());
                }
            }
        }
        out.degradation.degraded = out.degradation.tiers.salvage > 0;
        timing.terms_nanos = terms_start.elapsed().as_nanos() as u64;
        Ok((out, timing))
    }
}

/// Joins section bodies, newline-separated: all of them, or only those
/// whose header matches one of `sections` (case-insensitive, the numeric
/// extractor's routing rule). An empty `sections` filter matches nothing —
/// callers treat that as "scan everything" via the `None` branch.
fn join_bodies(record: &Record, sections: Option<&[String]>) -> String {
    let mut out = String::new();
    for section in &record.sections {
        let keep = match sections {
            None => true,
            Some(filter) => {
                let key = section.key();
                filter.iter().any(|x| crate::spec::section_named(x, &key))
            }
        };
        if keep {
            if !out.is_empty() {
                out.push('\n');
            }
            out.push_str(&section.body);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use cmr_corpus::APPENDIX_RECORD;

    #[test]
    fn appendix_record_end_to_end() {
        let p = Pipeline::with_default_schema();
        let out = p.extract(APPENDIX_RECORD);
        assert_eq!(out.patient_id.as_deref(), Some("2"));
        assert_eq!(
            out.numeric("blood_pressure"),
            Some(NumberValue::Ratio(142, 78))
        );
        assert_eq!(out.numeric("pulse"), Some(NumberValue::Int(96)));
        assert_eq!(out.numeric("weight"), Some(NumberValue::Int(211)));
        assert_eq!(out.numeric("menarche_age"), Some(NumberValue::Int(10)));
        assert_eq!(out.numeric("gravida"), Some(NumberValue::Int(4)));
        assert_eq!(out.numeric("para"), Some(NumberValue::Int(3)));
        assert_eq!(out.numeric("first_birth_age"), Some(NumberValue::Int(18)));
        assert_eq!(out.numeric("age"), Some(NumberValue::Int(50)));
        // The Appendix vitals line has no temperature.
        assert_eq!(out.numeric("temperature"), None);
        // PMH: diabetes, heart disease, high blood pressure (→ hypertension),
        // hypercholesterolemia, bronchitis, arrhythmia, depression.
        assert!(out.predefined_medical.contains(&"diabetes".to_string()));
        assert!(out.predefined_medical.contains(&"hypertension".to_string()));
        assert!(out.predefined_medical.contains(&"arrhythmia".to_string()));
        assert!(out.other_medical.contains(&"bronchitis".to_string()));
        // PSH: cervical laminectomy → laminectomy (not predefined).
        assert!(
            out.other_surgical.contains(&"laminectomy".to_string()),
            "{:?}",
            out.other_surgical
        );
        assert!(out.predefined_surgical.is_empty());
    }

    #[test]
    fn serializes_to_json() {
        let p = Pipeline::with_default_schema();
        let out = p.extract(APPENDIX_RECORD);
        let json = serde_json::to_string_pretty(&out).expect("serializes");
        assert!(json.contains("blood_pressure"));
        let back: ExtractedRecord = serde_json::from_str(&json).expect("deserializes");
        assert_eq!(back.numeric("pulse"), out.numeric("pulse"));
    }

    #[test]
    fn empty_record() {
        let p = Pipeline::with_default_schema();
        let out = p.extract("");
        assert!(out.numeric.is_empty());
        assert!(out.predefined_medical.is_empty());
    }

    #[test]
    fn clean_record_is_not_degraded() {
        let p = Pipeline::with_default_schema();
        let out = p.extract(APPENDIX_RECORD);
        assert!(!out.degradation.degraded);
        assert!(out.degradation.salvaged_fields.is_empty());
        assert_eq!(out.degradation.tiers.salvage, 0);
        assert!(
            out.degradation.tiers.link_grammar > 0,
            "{:?}",
            out.degradation
        );
        // Every numeric field has provenance.
        for field in out.numeric.keys() {
            assert!(out.provenance.contains_key(field), "{field}");
        }
    }

    #[test]
    fn salvage_recovers_ocr_garbled_vitals() {
        // The Vitals header is garbled (lowercase, no colon), so its text
        // merges into the HPI body; the sentence itself is OCR-corrupted,
        // so neither the link grammar nor the patterns can read it.
        let text = "HPI:  Ms. 2 is a 50-year-old woman.\n\
                    vitals  B1ood pre55ure is l44/9O.\n";
        let p = Pipeline::with_default_schema();
        let out = p.extract(text);
        assert_eq!(
            out.numeric("blood_pressure"),
            Some(NumberValue::Ratio(144, 90))
        );
        assert_eq!(
            out.numeric_methods.get("blood_pressure"),
            Some(&crate::MethodUsed::Salvage)
        );
        assert!(out.degradation.degraded);
        assert!(out
            .degradation
            .salvaged_fields
            .contains(&"blood_pressure".to_string()));
        let prov = out.provenance.get("blood_pressure").expect("provenance");
        assert_eq!(prov.tier, crate::Tier::Salvage);
        assert!(prov.confidence < 0.8);

        // With salvage disabled the field is simply missing.
        let bare = Pipeline::with_default_schema().with_salvage(false);
        let out = bare.extract(text);
        assert_eq!(out.numeric("blood_pressure"), None);
        assert!(!out.degradation.degraded);
    }

    #[test]
    fn parse_failures_are_counted_for_fragments() {
        // A fragment with a mention and a number: the link tier fails (and
        // is counted), the pattern tier recovers the value.
        let text = "Vitals:  Blood pressure: 144/90.\n";
        let p = Pipeline::with_default_schema();
        let out = p.extract(text);
        assert_eq!(
            out.numeric("blood_pressure"),
            Some(NumberValue::Ratio(144, 90))
        );
        assert!(out.degradation.parse_failures.total() > 0);
        assert!(!out.degradation.degraded, "fragments are tier 2, not 3");
    }
}
