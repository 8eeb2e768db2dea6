//! Experiment runners — one per table/figure of the paper, plus ablations.
//!
//! Each runner returns a structured report; the `repro` binary renders them
//! as text tables shaped like the paper's.

use cmr_core::{AssociationMethod, CategoricalExtractor, ExtractedRecord, FeatureOptions, Schema};
use cmr_corpus::{Corpus, CorpusBuilder, GoldRecord};
use cmr_engine::{Engine, EngineConfig};
use cmr_eval::{MultiValueScore, PrecisionRecall};
use cmr_ml::{CrossValidation, CvResult};
use cmr_ontology::{Ontology, OntologyProfile, ValueSet};
use cmr_text::{NumberValue, Record};

/// The default corpus for all experiments: the paper's setting.
pub fn paper_corpus() -> Corpus {
    CorpusBuilder::new().build()
}

/// Extracts every record of a corpus through the parallel engine (one
/// worker per core, no budget). Outputs come back in corpus order, so the
/// scoring loops below stay position-aligned with the gold records.
pub fn extract_corpus(
    corpus: &Corpus,
    cfg: EngineConfig,
    ontology: Ontology,
) -> Vec<ExtractedRecord> {
    let engine = Engine::new(cfg, Schema::paper(), ontology);
    let texts: Vec<&str> = corpus.records.iter().map(|r| r.text.as_str()).collect();
    engine
        .extract_batch(&texts)
        .items
        .into_iter()
        .map(|r| r.expect("no budget configured; extraction cannot fail"))
        .collect()
}

// ---------------------------------------------------------------------------
// E1 — numeric attributes (§5: "Precision (recall) for all eight numeric
// attributes is 100%").
// ---------------------------------------------------------------------------

/// Per-attribute precision/recall for the numeric experiment.
#[derive(Debug, Clone)]
pub struct NumericReport {
    /// (attribute, accumulator) rows in schema order.
    pub rows: Vec<(String, PrecisionRecall)>,
    /// Count of associations resolved by each mechanism.
    pub by_method: Vec<(String, usize)>,
}

impl NumericReport {
    /// True when every attribute hit 100/100.
    pub fn all_perfect(&self) -> bool {
        self.rows
            .iter()
            .all(|(_, pr)| pr.precision() == 1.0 && pr.recall() == 1.0)
    }
}

/// Gold numeric value for an attribute of a record.
pub(crate) fn gold_numeric(rec: &GoldRecord, attr: &str) -> Option<NumberValue> {
    Some(match attr {
        "blood_pressure" => NumberValue::Ratio(rec.blood_pressure.0, rec.blood_pressure.1),
        "pulse" => NumberValue::Int(rec.pulse),
        "temperature" => NumberValue::Float(rec.temperature),
        "weight" => NumberValue::Int(rec.weight),
        "menarche_age" => NumberValue::Int(rec.menarche_age),
        "gravida" => NumberValue::Int(rec.gravida),
        "para" => NumberValue::Int(rec.para),
        "first_birth_age" => NumberValue::Int(rec.first_birth_age),
        "age" => NumberValue::Int(rec.age),
        _ => return None,
    })
}

pub(crate) fn values_equal(a: &NumberValue, b: &NumberValue) -> bool {
    match (a, b) {
        (NumberValue::Float(x), NumberValue::Float(y)) => (x - y).abs() < 1e-9,
        (NumberValue::Int(x), NumberValue::Float(y))
        | (NumberValue::Float(y), NumberValue::Int(x)) => (*x as f64 - y).abs() < 1e-9,
        _ => a == b,
    }
}

/// Runs the numeric experiment with a given association method.
pub fn run_numeric(corpus: &Corpus, method: AssociationMethod) -> NumericReport {
    run_numeric_cfg(
        corpus,
        EngineConfig {
            method,
            ..EngineConfig::default()
        },
    )
}

/// Runs the numeric experiment with full engine control (the association
/// ablation turns the salvage tier off so the methods are compared bare).
pub fn run_numeric_cfg(corpus: &Corpus, cfg: EngineConfig) -> NumericReport {
    let outputs = extract_corpus(corpus, cfg, Ontology::full());
    let mut rows: Vec<(String, PrecisionRecall)> = Schema::paper_numeric_names()
        .iter()
        .map(|n| (n.to_string(), PrecisionRecall::new()))
        .collect();
    let mut link = 0usize;
    let mut pattern = 0usize;
    let mut yearold = 0usize;
    let mut proximity = 0usize;
    let mut salvage = 0usize;
    for (rec, out) in corpus.records.iter().zip(&outputs) {
        for (attr, pr) in rows.iter_mut() {
            let gold = gold_numeric(rec, attr);
            let got = out.numeric(attr);
            match (got, gold) {
                (Some(g), Some(t)) if values_equal(&g, &t) => pr.true_positives += 1,
                (Some(_), Some(_)) => {
                    pr.false_positives += 1;
                    pr.false_negatives += 1;
                }
                (Some(_), None) => pr.false_positives += 1,
                (None, Some(_)) => pr.false_negatives += 1,
                (None, None) => {}
            }
        }
        for m in out
            .numeric
            .keys()
            .filter_map(|field| out.methods.get(field))
        {
            match m {
                cmr_core::MethodUsed::LinkGrammar => link += 1,
                cmr_core::MethodUsed::Pattern => pattern += 1,
                cmr_core::MethodUsed::YearOld => yearold += 1,
                cmr_core::MethodUsed::Proximity => proximity += 1,
                cmr_core::MethodUsed::Salvage => salvage += 1,
            }
        }
    }
    NumericReport {
        rows,
        by_method: vec![
            ("link-grammar".into(), link),
            ("pattern".into(), pattern),
            ("year-old".into(), yearold),
            ("proximity".into(), proximity),
            ("salvage".into(), salvage),
        ],
    }
}

// ---------------------------------------------------------------------------
// E2 — smoking classification (§5: 45 cases, 5-fold CV × 10, ≈92.2%,
// 4–7 features).
// ---------------------------------------------------------------------------

/// Labeled smoking examples: (Social History text, class label).
pub fn smoking_examples(corpus: &Corpus) -> Vec<(String, String)> {
    corpus
        .records
        .iter()
        .filter_map(|rec| {
            let status = rec.smoking?;
            let parsed = Record::parse(&rec.text);
            let social = parsed.section("Social History")?;
            Some((social.body.clone(), status.label().to_string()))
        })
        .collect()
}

/// Runs the smoking cross-validation with given feature options.
pub fn run_smoking(corpus: &Corpus, options: FeatureOptions) -> CvResult {
    let examples = smoking_examples(corpus);
    let clf = CategoricalExtractor::new(options);
    clf.cross_validate(&examples, CrossValidation::default())
}

// ---------------------------------------------------------------------------
// X1 — alcohol classification with numeric boolean features (§3.3's
// proposed extension).
// ---------------------------------------------------------------------------

/// Labeled alcohol examples.
pub fn alcohol_examples(corpus: &Corpus) -> Vec<(String, String)> {
    corpus
        .records
        .iter()
        .filter_map(|rec| {
            let use_ = rec.alcohol?;
            let parsed = Record::parse(&rec.text);
            let social = parsed.section("Social History")?;
            Some((social.body.clone(), use_.label().to_string()))
        })
        .collect()
}

/// Alcohol CV with and without the numeric boolean features, to show the
/// extension's effect.
pub fn run_alcohol(corpus: &Corpus) -> (CvResult, CvResult) {
    let examples = alcohol_examples(corpus);
    let without = CategoricalExtractor::new(FeatureOptions::paper_smoking())
        .cross_validate(&examples, CrossValidation::default());
    let with = CategoricalExtractor::new(FeatureOptions::paper_alcohol())
        .cross_validate(&examples, CrossValidation::default());
    (without, with)
}

// ---------------------------------------------------------------------------
// X2 — the remaining categorical attributes of the schema (§5: "we have not
// completed classification of all categorical fields"): body shape and
// three binary fields, completed here with the same machinery.
// ---------------------------------------------------------------------------

/// Labeled examples for a categorical field: (section text, label).
fn field_examples(
    corpus: &Corpus,
    section: &str,
    label_of: impl Fn(&GoldRecord) -> Option<String>,
) -> Vec<(String, String)> {
    corpus
        .records
        .iter()
        .filter_map(|rec| {
            let label = label_of(rec)?;
            let parsed = Record::parse(&rec.text);
            Some((parsed.section(section)?.body.clone(), label))
        })
        .collect()
}

/// Cross-validates every categorical field the paper left incomplete.
/// Returns (field name, CV result, n cases).
pub fn run_remaining_categorical(corpus: &Corpus) -> Vec<(&'static str, CvResult, usize)> {
    type LabelFn = Box<dyn Fn(&GoldRecord) -> Option<String>>;
    let yn = |b: bool| Some(if b { "yes" } else { "no" }.to_string());
    let fields: Vec<(&'static str, &str, LabelFn)> = vec![
        (
            "shape",
            "Physical examination",
            Box::new(|r: &GoldRecord| r.shape.map(|s| s.label().to_string())),
        ),
        (
            "family_history_breast_cancer",
            "Family History",
            Box::new(move |r: &GoldRecord| yn(r.family_history_breast_cancer)),
        ),
        (
            "drug_use",
            "Social History",
            Box::new(move |r: &GoldRecord| yn(r.drug_use)),
        ),
        (
            "allergies_present",
            "Allergies",
            Box::new(move |r: &GoldRecord| yn(r.allergies_present)),
        ),
    ];
    fields
        .into_iter()
        .map(|(name, section, label_of)| {
            let examples = field_examples(corpus, section, label_of);
            let n = examples.len();
            let clf = CategoricalExtractor::new(FeatureOptions::paper_smoking());
            (
                name,
                clf.cross_validate(&examples, CrossValidation::default()),
                n,
            )
        })
        .collect()
}

// ---------------------------------------------------------------------------
// A5 — ablation: classifier choice. §3.3 claims "the ID3 decision tree is
// supposed to use less features than other decision tree algorithms".
// ---------------------------------------------------------------------------

/// One classifier-ablation row: name, mean accuracy, and the feature-count
/// range where the classifier has one (trees do, Naive Bayes does not).
pub type ClassifierRow = (&'static str, f64, Option<(usize, usize)>);

/// Classifier-ablation rows for the smoking task.
pub fn run_ablation_classifier(corpus: &Corpus) -> Vec<ClassifierRow> {
    use cmr_ml::{Id3Params, NaiveBayes, SplitCriterion};
    let examples = smoking_examples(corpus);
    let clf = CategoricalExtractor::new(FeatureOptions::paper_smoking());
    let data = clf.build_dataset(&examples);
    let mut out = Vec::new();
    for (name, criterion) in [
        ("ID3 (information gain)", SplitCriterion::InformationGain),
        ("tree (Gini)", SplitCriterion::GiniGain),
        ("tree (gain ratio)", SplitCriterion::GainRatio),
    ] {
        let cv = CrossValidation {
            params: Id3Params {
                criterion,
                ..Id3Params::default()
            },
            ..CrossValidation::default()
        };
        let r = cv.run(&data);
        out.push((name, r.mean_accuracy(), Some(r.feature_count_range())));
    }
    let r = CrossValidation::default().run_with::<NaiveBayes>(&data);
    out.push(("Naive Bayes (all features)", r.mean_accuracy(), None));
    out
}

// ---------------------------------------------------------------------------
// T1 — Table 1: medical term extraction.
// ---------------------------------------------------------------------------

/// One Table 1 row.
#[derive(Debug, Clone)]
pub struct Table1Row {
    /// Attribute name as in the paper's Table 1.
    pub attribute: &'static str,
    /// Pooled scores over all subjects.
    pub score: MultiValueScore,
}

/// The Table 1 report: four attributes.
#[derive(Debug, Clone)]
pub struct Table1Report {
    /// Rows in the paper's order.
    pub rows: Vec<Table1Row>,
}

/// Runs the medical-term experiment under an ontology profile with the
/// paper's pattern inventory.
pub fn run_table1(corpus: &Corpus, profile: OntologyProfile) -> Table1Report {
    run_table1_with(corpus, profile, cmr_core::PatternSet::Paper)
}

/// Runs the medical-term experiment with a chosen pattern inventory
/// (ablation A6: the paper's four patterns cannot reach terms longer than
/// three words).
pub fn run_table1_with(
    corpus: &Corpus,
    profile: OntologyProfile,
    patterns: cmr_core::PatternSet,
) -> Table1Report {
    let outputs = extract_corpus(
        corpus,
        EngineConfig {
            term_patterns: patterns,
            ..EngineConfig::default()
        },
        Ontology::with_profile(profile),
    );
    // Gold partition uses the *full* ontology (truth is independent of the
    // extractor's vocabulary).
    let full = Ontology::full();
    let med_set = ValueSet::predefined_medical_history();
    let surg_set = ValueSet::predefined_surgical_history();

    let mut pre_med = MultiValueScore::new();
    let mut other_med = MultiValueScore::new();
    let mut pre_surg = MultiValueScore::new();
    let mut other_surg = MultiValueScore::new();

    for (rec, out) in corpus.records.iter().zip(&outputs) {
        let (gold_pre_med, gold_other_med) = partition_gold(&rec.medical_history, &full, &med_set);
        let (gold_pre_surg, gold_other_surg) =
            partition_gold(&rec.surgical_history, &full, &surg_set);
        pre_med.add_subject(&out.predefined_medical, &gold_pre_med);
        other_med.add_subject(&out.other_medical, &gold_other_med);
        pre_surg.add_subject(&out.predefined_surgical, &gold_pre_surg);
        other_surg.add_subject(&out.other_surgical, &gold_other_surg);
    }
    Table1Report {
        rows: vec![
            Table1Row {
                attribute: "Predefined Past Medical History",
                score: pre_med,
            },
            Table1Row {
                attribute: "Other Past Medical History",
                score: other_med,
            },
            Table1Row {
                attribute: "Predefined Past Surgical History",
                score: pre_surg,
            },
            Table1Row {
                attribute: "Other Past Surgical History",
                score: other_surg,
            },
        ],
    }
}

fn partition_gold(gold: &[String], onto: &Ontology, set: &ValueSet) -> (Vec<String>, Vec<String>) {
    gold.iter()
        .cloned()
        .partition(|name| onto.lookup(name).map(|c| set.contains(c)).unwrap_or(false))
}

// ---------------------------------------------------------------------------
// F1 — Figure 1: the linkage diagram.
// ---------------------------------------------------------------------------

/// Renders the paper's Figure 1 linkage diagram (plus the full vitals
/// sentence) and the distance table that drives association.
pub fn run_figure1() -> String {
    let parser = cmr_linkgram::LinkParser::new();
    let weights = cmr_linkgram::LinkWeights::default();
    let mut out = String::new();
    let clause = "Blood pressure is 144/90.";
    let full =
        "Blood pressure is 144/90, pulse of 84, temperature of 98.3, and weight of 154 pounds.";
    for text in [clause, full] {
        out.push_str(&format!("Sentence: {text}\n"));
        match parser.parse_sentence(text) {
            Some(linkage) => {
                out.push_str(&linkage.diagram());
                out.push('\n');
                // Distances from each feature keyword to each number.
                for (feat, num) in [
                    ("pressure", "144/90"),
                    ("pulse", "84"),
                    ("temperature", "98.3"),
                    ("weight", "154"),
                ] {
                    let f = linkage.words.iter().position(|w| w == feat);
                    let n = linkage.words.iter().position(|w| w == num);
                    if let (Some(f), Some(n)) = (f, n) {
                        out.push_str(&format!(
                            "  d({feat}, {num}) = {:.2}\n",
                            linkage.distance(f, n, &weights)
                        ));
                    }
                }
            }
            None => out.push_str("  (no linkage)\n"),
        }
        out.push('\n');
    }
    out
}

// ---------------------------------------------------------------------------
// A1 — ablation: association method.
// ---------------------------------------------------------------------------

/// Association-method ablation across style variations: recall of correct
/// numeric values per method.
#[derive(Debug, Clone)]
pub struct AssocAblation {
    /// (style, method name, micro recall over the 8 attributes).
    pub cells: Vec<(f64, &'static str, f64)>,
}

/// Runs the association ablation.
pub fn run_ablation_assoc(styles: &[f64], seed: u64) -> AssocAblation {
    let mut cells = Vec::new();
    for &style in styles {
        let corpus = CorpusBuilder::new()
            .seed(seed)
            .style_variation(style)
            .build();
        for (name, method) in [
            ("link+fallback", AssociationMethod::LinkWithFallback),
            ("link-only", AssociationMethod::LinkOnly),
            ("pattern-only", AssociationMethod::PatternOnly),
            ("proximity", AssociationMethod::Proximity),
        ] {
            // Salvage off: the point of this ablation is how the structured
            // association methods compare, and the keyword-scan salvage tier
            // would paper over link-only's fragment blindness.
            let report = run_numeric_cfg(
                &corpus,
                EngineConfig {
                    method,
                    salvage: false,
                    ..EngineConfig::default()
                },
            );
            let mut pooled = PrecisionRecall::new();
            for (_, pr) in &report.rows {
                pooled.merge(pr);
            }
            cells.push((style, name, pooled.recall()));
        }
    }
    AssocAblation { cells }
}

// ---------------------------------------------------------------------------
// A2 — ablation: feature-extraction options.
// ---------------------------------------------------------------------------

/// Named option variants for the feature ablation.
pub fn feature_option_variants() -> Vec<(&'static str, FeatureOptions)> {
    let base = FeatureOptions::paper_smoking();
    vec![
        ("paper (all POS, lemma on)", base.clone()),
        (
            "lemma off",
            FeatureOptions {
                use_lemma: false,
                ..base.clone()
            },
        ),
        (
            "verbs only",
            FeatureOptions {
                nouns: false,
                adjectives: false,
                adverbs: false,
                ..base.clone()
            },
        ),
        (
            "nouns only",
            FeatureOptions {
                verbs: false,
                adjectives: false,
                adverbs: false,
                ..base.clone()
            },
        ),
        (
            "head words only",
            FeatureOptions {
                head_only: true,
                ..base.clone()
            },
        ),
        (
            "verb constituent only",
            FeatureOptions {
                subject: false,
                object: false,
                supplement: false,
                ..base
            },
        ),
    ]
}

// ---------------------------------------------------------------------------
// A3 — style sweep (the paper's degradation conjecture).
// ---------------------------------------------------------------------------

/// Style-sweep report: numeric recall and smoking accuracy per style level.
#[derive(Debug, Clone)]
pub struct StyleSweep {
    /// (style, numeric micro recall, smoking CV accuracy).
    pub rows: Vec<(f64, f64, f64)>,
}

/// Runs the style sweep.
pub fn run_style_sweep(styles: &[f64], seed: u64) -> StyleSweep {
    let mut rows = Vec::new();
    for &style in styles {
        let corpus = CorpusBuilder::new()
            .seed(seed)
            .style_variation(style)
            .build();
        let numeric = run_numeric(&corpus, AssociationMethod::LinkWithFallback);
        let mut pooled = PrecisionRecall::new();
        for (_, pr) in &numeric.rows {
            pooled.merge(pr);
        }
        let smoking = run_smoking(&corpus, FeatureOptions::paper_smoking());
        rows.push((style, pooled.recall(), smoking.mean_accuracy()));
    }
    StyleSweep { rows }
}

// ---------------------------------------------------------------------------
// X3 — negation handling (extension): the paper's extractor reports terms
// the note explicitly rules out. Family History is the natural test bed:
// two thirds of records dictate "Negative for breast cancer"-style lines.
// ---------------------------------------------------------------------------

/// Detecting "family history of breast cancer" by term presence in the
/// Family History section, with and without the negation filter.
/// Returns (without, with) accumulators against the binary gold flag.
pub fn run_negation(corpus: &Corpus) -> (PrecisionRecall, PrecisionRecall) {
    let plain = cmr_core::MedicalTermExtractor::new(Ontology::full());
    let filtered = cmr_core::MedicalTermExtractor::new(Ontology::full()).with_negation_filter(true);
    let mut without = PrecisionRecall::new();
    let mut with = PrecisionRecall::new();
    for rec in &corpus.records {
        let parsed = Record::parse(&rec.text);
        let Some(section) = parsed.section("Family History") else {
            continue;
        };
        let gold = rec.family_history_breast_cancer;
        for (ex, acc) in [(&plain, &mut without), (&filtered, &mut with)] {
            let found = ex
                .extract(&section.body)
                .iter()
                .any(|h| h.concept.preferred == "breast cancer");
            match (found, gold) {
                (true, true) => acc.true_positives += 1,
                (true, false) => acc.false_positives += 1,
                (false, true) => acc.false_negatives += 1,
                (false, false) => {}
            }
        }
    }
    (without, with)
}

// ---------------------------------------------------------------------------
// K1 — knowledge: cohort mining over extracted records (the paper's title
// and §1 motivation).
// ---------------------------------------------------------------------------

/// Builds a cohort from a corpus: extraction plus trained smoking labels.
pub fn build_cohort(corpus: &Corpus) -> cmr_knowledge::Cohort {
    build_cohort_with(corpus, cmr_core::PatternSet::Paper)
}

/// Builds a cohort with a chosen term-pattern inventory. The contrast
/// matters: the corpus plants a real smoker→COPD correlation, but COPD's
/// preferred name is four words — *unreachable* by the paper's patterns —
/// so the knowledge layer can only surface the factor when extraction can
/// see it.
pub fn build_cohort_with(corpus: &Corpus, patterns: cmr_core::PatternSet) -> cmr_knowledge::Cohort {
    let outputs = extract_corpus(
        corpus,
        EngineConfig {
            term_patterns: patterns,
            ..EngineConfig::default()
        },
        Ontology::full(),
    );
    let mut clf = CategoricalExtractor::new(FeatureOptions::paper_smoking());
    clf.train(&smoking_examples(corpus));
    let mut cohort = cmr_knowledge::Cohort::new();
    for (rec, out) in corpus.records.iter().zip(&outputs) {
        let parsed = Record::parse(&rec.text);
        let social = parsed.section("Social History").map(|s| s.body.clone());
        let smoking = social
            .as_deref()
            .and_then(|t| clf.classify(t))
            .unwrap_or("");
        cohort.push_extracted(out, &[("smoking", smoking)]);
    }
    cohort
}

/// Mines the cohort: (top rules, significant associations as formatted
/// strings).
pub fn run_knowledge(corpus: &Corpus) -> (Vec<cmr_knowledge::Rule>, Vec<String>) {
    run_knowledge_with(corpus, cmr_core::PatternSet::Paper)
}

/// Mines the cohort built with a chosen pattern inventory.
pub fn run_knowledge_with(
    corpus: &Corpus,
    patterns: cmr_core::PatternSet,
) -> (Vec<cmr_knowledge::Rule>, Vec<String>) {
    let cohort = build_cohort_with(corpus, patterns);
    let rules = cmr_knowledge::mine_rules(&cohort, cmr_knowledge::RuleParams::default());
    let mut findings = Vec::new();
    for attr in cohort.attributes() {
        if !attr.starts_with("has:") && !attr.starts_with("had:") {
            continue;
        }
        for class in ["current", "former", "never"] {
            if let Some((chi2, sig)) =
                cmr_knowledge::association(&cohort, "smoking", class, &attr, "yes")
            {
                if sig {
                    findings.push(format!(
                        "smoking={class} vs {attr}: chi2 = {chi2:.2} (significant at 95%)"
                    ));
                }
            }
        }
    }
    (rules, findings)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoking_examples_match_distribution() {
        let corpus = paper_corpus();
        let ex = smoking_examples(&corpus);
        assert_eq!(ex.len(), 45, "45 of 50 records document smoking");
        let never = ex.iter().filter(|(_, l)| l == "never").count();
        let former = ex.iter().filter(|(_, l)| l == "former").count();
        let current = ex.iter().filter(|(_, l)| l == "current").count();
        assert_eq!((never, former, current), (28, 5, 12));
    }

    #[test]
    fn figure1_renders() {
        let f = run_figure1();
        assert!(f.contains("LEFT-WALL"));
        assert!(f.contains("144/90"));
        assert!(f.contains("d(pulse, 84)"));
    }

    #[test]
    fn gold_numeric_covers_all_paper_attrs() {
        let corpus = CorpusBuilder::new().records(1).build();
        for attr in Schema::paper_numeric_names() {
            assert!(gold_numeric(&corpus.records[0], attr).is_some(), "{attr}");
        }
    }
}
