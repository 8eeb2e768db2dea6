//! The end-to-end pipeline: record in, structured information out.
//!
//! Mirrors Figure 2 of the paper: tokenization/splitting/tagging
//! (cmr-text/cmr-postag for GATE), the link grammar parser, the morphology
//! engine (cmr-lexicon for WordNet), the ontology (cmr-ontology for UMLS),
//! and the extractors of this crate; the output is a structured record
//! (serde-serializable, standing in for the paper's Access database).

use crate::degradation::ParseFailureCounts;
use crate::numeric::{AssociationMethod, MethodUsed, NumericExtractor, NumericHit};
use crate::salvage::SalvageText;
use crate::schema::Schema;
use crate::spec::section_named;
use crate::terms::{MedicalTermExtractor, TermHit};
use cmr_ontology::{Ontology, ValueSet};
use cmr_text::{NumberValue, Record, Section};
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
    /// How each field was extracted: one entry per numeric attribute (the
    /// same keys as `numeric`), plus one per term field that produced a
    /// term, as [`MethodUsed::Pattern`] or [`MethodUsed::Salvage`].
    pub methods: BTreeMap<String, MethodUsed>,
    /// Predefined past-medical-history terms (concept preferred names).
    pub predefined_medical: Vec<String>,
    /// Other past-medical-history terms.
    pub other_medical: Vec<String>,
    /// Predefined past-surgical-history terms.
    pub predefined_surgical: Vec<String>,
    /// Other past-surgical-history terms.
    pub other_surgical: Vec<String>,
    /// Link-parse failures on sentences that carried an extraction
    /// opportunity. Fragments fail to link-parse even on pristine input,
    /// so failures alone do not make a record degraded.
    pub parse_failures: ParseFailureCounts,
}

impl ExtractedRecord {
    /// Convenience accessor for a numeric attribute.
    pub fn numeric(&self, name: &str) -> Option<NumberValue> {
        self.numeric.get(name).copied()
    }

    /// True when any field needed the salvage tier. Parse failures alone
    /// do not count: the pattern tier is the designed answer to them.
    pub fn degraded(&self) -> bool {
        self.methods.values().any(|&m| m == MethodUsed::Salvage)
    }
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
        self.extract_budgeted(record, &crate::ExtractBudget::NONE)
            .expect("unlimited budget never trips")
    }

    /// Like [`Pipeline::extract_parsed`], but enforces a per-record
    /// [`crate::ExtractBudget`]. The sentence/step budget applies to the
    /// numeric stage (where the link parser lives); the deadline also
    /// bounds each link parse and is re-checked between term fields and
    /// salvage scans.
    pub fn extract_budgeted(
        &self,
        record: &Record,
        budget: &crate::ExtractBudget,
    ) -> Result<ExtractedRecord, crate::BudgetExceeded> {
        let (hits, parse_failures) =
            self.numeric
                .extract_counted(record, &self.schema.numeric, budget)?;
        let mut out = ExtractedRecord {
            patient_id: record.patient_id.clone(),
            parse_failures,
            ..ExtractedRecord::default()
        };
        for NumericHit {
            field,
            value,
            method,
        } in hits
        {
            out.numeric.insert(field.clone(), value);
            out.methods.insert(field, method);
        }

        // Medical-term attributes. Term extraction has no step notion, but
        // the deadline still applies between term fields.
        let mut whole_record_terms: Option<Vec<TermHit>> = None;
        for term_field in &self.schema.terms {
            budget.check_deadline(0)?;
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
            let mut extracted = false;
            for section_name in &term_field.sections {
                let Some(section) = record.section(section_name) else {
                    continue;
                };
                any_section_present = true;
                let hits = self.terms.extract(&section.body);
                extracted |= push_new_terms(&hits, predefined_set, slots.0, slots.1);
            }
            let method = if any_section_present {
                MethodUsed::Pattern
            } else if self.salvage {
                // Tier-3 term salvage: every section this field is dictated
                // in is gone (garbled headers merge their text into
                // neighbouring sections), so scan the whole record. This
                // recovers terms at the cost of precision — terms from
                // *other* history sections (e.g. family history) leak in.
                // The scan is the same for every term field, so it runs
                // at most once per record.
                let hits = whole_record_terms
                    .get_or_insert_with(|| self.terms.extract(&join_bodies(&record.sections)));
                extracted = push_new_terms(hits, predefined_set, slots.0, slots.1);
                MethodUsed::Salvage
            } else {
                continue;
            };
            if extracted {
                out.methods.insert(term_field.name.clone(), method);
            }
        }

        // Tier-3 numeric salvage: only for attributes both real tiers
        // missed. Scan the sections the spec routes to when any survived;
        // when the spec's sections are all gone (garbled headers), scan the
        // whole record — under header garbling the text still exists, just
        // inside a neighbouring section's body. On noisy notes, nine in
        // ten salvage calls that rescan a text of their record rescan the
        // whole record's, so that text alone is prepared once per record.
        if self.salvage {
            let mut whole: Option<SalvageText> = None;
            for spec in &self.schema.numeric {
                if out.numeric.contains_key(&spec.name) {
                    continue;
                }
                budget.check_deadline(0)?;
                let routed = join_bodies(record.sections.iter().filter(|section| {
                    let key = section.key();
                    spec.sections.iter().any(|x| section_named(x, &key))
                }));
                let routed_text;
                let text = if routed.is_empty() {
                    whole.get_or_insert_with(|| SalvageText::new(&join_bodies(&record.sections)))
                } else {
                    routed_text = SalvageText::new(&routed);
                    &routed_text
                };
                if let Some(value) = text.salvage(spec) {
                    out.numeric.insert(spec.name.clone(), value);
                    out.methods.insert(spec.name.clone(), MethodUsed::Salvage);
                }
            }
        }
        Ok(out)
    }
}

/// Appends the preferred name of each term hit to the predefined or the
/// other slot, as `predefined` holds its concept or not, skipping names
/// already there. True when any was added.
fn push_new_terms(
    hits: &[TermHit],
    predefined: &ValueSet,
    predefined_slot: &mut Vec<String>,
    other_slot: &mut Vec<String>,
) -> bool {
    let mut added = false;
    for hit in hits {
        let slot = if predefined.contains(hit.concept) {
            &mut *predefined_slot
        } else {
            &mut *other_slot
        };
        let name = hit.concept.preferred;
        if !slot.iter().any(|s| s == name) {
            slot.push(name.to_string());
            added = true;
        }
    }
    added
}

/// Joins section bodies, newline-separated, skipping the separator before
/// a body while the joined text is still empty.
fn join_bodies<'a>(sections: impl IntoIterator<Item = &'a Section>) -> String {
    let mut out = String::new();
    for section in sections {
        if !out.is_empty() {
            out.push('\n');
        }
        out.push_str(&section.body);
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
        assert!(!out.degraded());
        assert!(
            out.methods.values().any(|&m| m == MethodUsed::LinkGrammar),
            "{:?}",
            out.methods
        );
        // Every numeric field has a method, and each term field that
        // produced a term is tagged as the pattern tier.
        for field in out.numeric.keys() {
            assert!(out.methods.contains_key(field), "{field}");
        }
        assert_eq!(
            out.methods.get("past_medical_history"),
            Some(&MethodUsed::Pattern)
        );
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
            out.methods.get("blood_pressure"),
            Some(&MethodUsed::Salvage)
        );
        assert!(out.degraded());

        // With salvage disabled the field is simply missing.
        let bare = Pipeline::with_default_schema().with_salvage(false);
        let out = bare.extract(text);
        assert_eq!(out.numeric("blood_pressure"), None);
        assert!(!out.degraded());
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
        assert!(out.parse_failures.total() > 0);
        assert!(!out.degraded(), "fragments are tier 2, not 3");
    }
}
