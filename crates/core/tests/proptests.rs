//! Property tests: the extractors must be total, deterministic, and honest
//! about how each field was extracted on arbitrary input.

use cmr_core::{
    ExtractedRecord, FeatureExtractor, FeatureOptions, FeatureSpec, MedicalTermExtractor,
    NumericExtractor, Pipeline, Schema,
};
use cmr_corpus::{CorpusBuilder, NoiseInjector};
use cmr_ontology::Ontology;
use proptest::prelude::*;

/// Structural invariants every extraction output must satisfy, no matter
/// how corrupted the input was: `methods` names exactly the numeric
/// fields plus each term field whose lists are non-empty.
fn assert_well_formed(out: &ExtractedRecord) -> Result<(), TestCaseError> {
    let mut expected: Vec<&str> = out.numeric.keys().map(String::as_str).collect();
    if !out.predefined_medical.is_empty() || !out.other_medical.is_empty() {
        expected.push("past_medical_history");
    }
    if !out.predefined_surgical.is_empty() || !out.other_surgical.is_empty() {
        expected.push("past_surgical_history");
    }
    expected.sort_unstable();
    let keys: Vec<&str> = out.methods.keys().map(String::as_str).collect();
    prop_assert_eq!(keys, expected);
    Ok(())
}

fn clinicalish() -> impl Strategy<Value = String> {
    let subj = prop::sample::select(vec!["She", "The patient", "Ms. Smith"]);
    let verb = prop::sample::select(vec!["is", "has", "denies", "reports", "underwent"]);
    let obj = prop::sample::select(vec![
        "a blood pressure of 140/90",
        "diabetes and hypertension",
        "a pulse of 84",
        "a cholecystectomy",
        "no complaints",
        "weight of 180 pounds",
        "menarche at age 12",
    ]);
    (subj, verb, obj).prop_map(|(s, v, o)| format!("{s} {v} {o}."))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Numeric extraction never panics and every hit names a schema field.
    #[test]
    fn numeric_total_and_well_formed(s in clinicalish()) {
        let schema = Schema::paper();
        let specs: Vec<&FeatureSpec> = schema.numeric.iter().collect();
        let ex = NumericExtractor::new();
        for hit in ex.extract_sentence(&s, &specs) {
            prop_assert!(schema.numeric_spec(&hit.field).is_some());
            let spec = schema.numeric_spec(&hit.field).unwrap();
            prop_assert!(spec.accepts(&hit.value), "{hit:?} violates its own spec");
        }
    }

    /// Numeric extraction is deterministic.
    #[test]
    fn numeric_deterministic(s in clinicalish()) {
        let schema = Schema::paper();
        let specs: Vec<&FeatureSpec> = schema.numeric.iter().collect();
        let ex = NumericExtractor::new();
        prop_assert_eq!(ex.extract_sentence(&s, &specs), ex.extract_sentence(&s, &specs));
    }

    /// Term extraction: spans always slice back to the reported surface,
    /// and every hit's normalized surface resolves in the ontology.
    #[test]
    fn terms_spans_and_resolution(s in clinicalish()) {
        let ex = MedicalTermExtractor::new(Ontology::full());
        for hit in ex.extract(&s) {
            prop_assert_eq!(hit.span.slice(&s), hit.surface.as_str());
            let resolved = ex.ontology().lookup(&hit.surface).expect("hit resolves");
            prop_assert_eq!(resolved.cui, hit.concept.cui);
        }
    }

    /// Term extraction tolerates arbitrary ASCII garbage.
    #[test]
    fn terms_total_on_garbage(s in "[ -~]{0,120}") {
        let ex = MedicalTermExtractor::new(Ontology::full());
        let _ = ex.extract(&s);
    }

    /// Numeric extraction tolerates arbitrary ASCII garbage.
    #[test]
    fn numeric_total_on_garbage(s in "[ -~]{0,120}") {
        let schema = Schema::paper();
        let specs: Vec<&FeatureSpec> = schema.numeric.iter().collect();
        let _ = NumericExtractor::new().extract_sentence(&s, &specs);
    }

    /// Feature extraction is deterministic and yields no duplicates.
    #[test]
    fn features_deterministic_and_unique(s in clinicalish()) {
        let fx = FeatureExtractor::new(FeatureOptions::paper_smoking());
        let a = fx.extract(&s);
        let b = fx.extract(&s);
        prop_assert_eq!(&a, &b);
        let mut dedup = a.clone();
        dedup.sort();
        dedup.dedup();
        prop_assert_eq!(a.len(), dedup.len());
    }

    /// The whole pipeline is total on arbitrary multi-line input.
    #[test]
    fn pipeline_total(s in "[ -~\n]{0,300}") {
        let pipeline = Pipeline::with_default_schema();
        let out = pipeline.extract(&s);
        assert_well_formed(&out)?;
    }

    /// The pipeline is total on arbitrary input including non-ASCII bytes
    /// (stray OCR artifacts, section glyphs, CJK), and the output is
    /// structurally well-formed.
    #[test]
    fn pipeline_total_on_unicode(s in "[ -~\n\t°é¶µß§温·]{0,300}") {
        let out = Pipeline::with_default_schema().extract(&s);
        assert_well_formed(&out)?;
    }

    /// Gold notes corrupted at any noise level and seed extract without
    /// panics into well-formed records.
    #[test]
    fn noisy_gold_notes_extract_cleanly(seed in 0u64..u64::MAX, level in 0u32..=100) {
        let corpus = CorpusBuilder::new().records(2).seed(2005).build();
        let injector = NoiseInjector::from_level(f64::from(level) / 100.0, seed);
        let pipeline = Pipeline::with_default_schema();
        for record in &corpus.records {
            let out = pipeline.extract(&injector.corrupt(&record.text));
            assert_well_formed(&out)?;
        }
    }
}

/// At noise zero the salvage tier must be inert: no field is tagged
/// `Salvage`, and enabling it reproduces the salvage-free output
/// byte-for-byte over the gold corpus.
#[test]
fn salvage_is_identity_at_noise_zero() {
    let corpus = CorpusBuilder::new().records(12).seed(2005).build();
    let with = Pipeline::with_default_schema();
    let without = Pipeline::with_default_schema().with_salvage(false);
    for record in &corpus.records {
        let out = with.extract(&record.text);
        assert!(
            !out.degraded(),
            "salvage at noise 0 for {}: {:?}",
            record.patient_id,
            out.methods
        );
        let a = serde_json::to_string(&out).expect("serializes");
        let b = serde_json::to_string(&without.extract(&record.text)).expect("serializes");
        assert_eq!(
            a, b,
            "salvage changed clean output for {}",
            record.patient_id
        );
    }
}
