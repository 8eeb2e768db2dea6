//! Field specifications: what to extract, from where, in what form.

use cmr_lexicon::{expand_abbreviation, phrase_variants};
use cmr_text::{intern, Sym};
use serde::{Deserialize, Serialize};
use std::sync::OnceLock;

/// Expected value shape of a numeric attribute.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ValueKind {
    /// Integer (pulse, weight, gravida).
    Int,
    /// Decimal (temperature).
    Float,
    /// Slash pair (blood pressure `144/90`).
    Ratio,
}

/// Specification of one numeric attribute.
///
/// §3.1: feature identification uses "an exact text search of the feature
/// name … target synonyms and inflected (sic: "infected") variants of the feature and its
/// synonyms". [`FeatureSpec::matching_phrases`] materializes exactly that
/// expansion; each spec compiles it once, on first use, for the extractors.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct FeatureSpec {
    /// Canonical attribute name (`"blood_pressure"`).
    pub name: String,
    /// Keyword phrases: the feature name and its manually specified
    /// synonyms, lower-case. Private so the compiled matcher, derived from
    /// them, cannot go stale.
    keywords: Vec<String>,
    /// Sections this attribute is dictated in (case-insensitive header
    /// names). Empty = search the whole record.
    pub sections: Vec<String>,
    /// Expected numeric shape.
    pub kind: ValueKind,
    /// Plausible range, used to reject implausible associations.
    pub range: Option<(f64, f64)>,
    /// Additionally match the `"{N}-year-old"` dictation pattern (ages).
    pub year_old_pattern: bool,
    /// [`FeatureSpec::matching_phrases`] compiled for the extractors; built
    /// on first use, so deserialized specs compile lazily too.
    #[serde(skip)]
    matcher: OnceLock<Matcher>,
}

/// A spec's phrase expansion in the two forms the extractors scan for.
#[derive(Debug, Clone)]
struct Matcher {
    /// Each matching phrase as interned lower-case words (token matching).
    phrases: Vec<Vec<Sym>>,
    /// Each matching phrase under the salvage OCR folding, empty
    /// foldings dropped (raw-text salvage).
    needles: Vec<Vec<char>>,
}

impl FeatureSpec {
    /// Creates a spec with canonical name, keywords and sections.
    pub fn new(name: &str, keywords: &[&str], sections: &[&str], kind: ValueKind) -> FeatureSpec {
        FeatureSpec {
            name: name.to_string(),
            keywords: keywords.iter().map(|s| s.to_lowercase()).collect(),
            sections: sections.iter().map(|s| s.to_string()).collect(),
            kind,
            range: None,
            year_old_pattern: false,
            matcher: OnceLock::new(),
        }
    }

    /// Keyword phrases: the feature name and its synonyms, lower-case.
    pub fn keywords(&self) -> &[String] {
        &self.keywords
    }

    /// Sets the plausible value range.
    pub fn range(mut self, lo: f64, hi: f64) -> FeatureSpec {
        self.range = Some((lo, hi));
        self
    }

    /// Enables the `"{N}-year-old"` pattern.
    pub fn year_old(mut self) -> FeatureSpec {
        self.year_old_pattern = true;
        self
    }

    /// All surface phrases that identify this feature: every keyword, its
    /// inflected variants (head-word inflection for multi-word phrases) and
    /// abbreviation expansions. Lower-case, deduplicated.
    ///
    /// This is the single source of the expansion. The extractors do not
    /// call it per sentence: each spec compiles it once, on first use, into
    /// interned word lists for token matching and OCR-folded needles for
    /// the salvage scan.
    pub fn matching_phrases(&self) -> Vec<String> {
        let mut out: Vec<String> = Vec::new();
        let mut push = |p: String| {
            if !p.is_empty() && !out.contains(&p) {
                out.push(p);
            }
        };
        for kw in &self.keywords {
            push(kw.clone());
            for v in phrase_variants(kw) {
                push(v);
            }
            if let Some(exp) = expand_abbreviation(kw) {
                push(exp.to_string());
                for v in phrase_variants(exp) {
                    push(v);
                }
            }
        }
        out
    }

    fn matcher(&self) -> &Matcher {
        self.matcher.get_or_init(|| {
            let phrases = self.matching_phrases();
            Matcher {
                phrases: phrases
                    .iter()
                    .map(|p| p.split_whitespace().map(intern).collect())
                    .collect(),
                needles: phrases
                    .iter()
                    .map(|p| crate::salvage::fold_str(p))
                    .filter(|n| !n.is_empty())
                    .collect(),
            }
        })
    }

    /// [`FeatureSpec::matching_phrases`] as interned word lists, in order.
    pub(crate) fn phrase_words(&self) -> &[Vec<Sym>] {
        &self.matcher().phrases
    }

    /// [`FeatureSpec::matching_phrases`] under the salvage OCR folding, in
    /// order, empty foldings dropped.
    pub(crate) fn salvage_needles(&self) -> &[Vec<char>] {
        &self.matcher().needles
    }

    /// True when this spec searches the section whose
    /// [`cmr_text::Section::key`] is `key`: it names no sections, or one of
    /// them matches case-insensitively.
    pub(crate) fn routes_to(&self, key: &str) -> bool {
        self.sections.is_empty() || self.sections.iter().any(|x| section_named(x, key))
    }

    /// True when `value` fits this spec's kind and range.
    pub fn accepts(&self, value: &cmr_text::NumberValue) -> bool {
        use cmr_text::NumberValue as NV;
        let kind_ok = match (self.kind, value) {
            (ValueKind::Ratio, NV::Ratio(..)) => true,
            (ValueKind::Ratio, _) => false,
            (ValueKind::Int, NV::Int(_)) => true,
            (ValueKind::Int, _) => false,
            (ValueKind::Float, NV::Float(_) | NV::Int(_)) => true,
            (ValueKind::Float, NV::Ratio(..)) => false,
        };
        if !kind_ok {
            return false;
        }
        match self.range {
            None => true,
            Some((lo, hi)) => {
                let v = value.as_f64();
                v >= lo && v <= hi
            }
        }
    }
}

/// True when the spec header `name` names the section whose
/// [`cmr_text::Section::key`] is `key`, i.e. `name.to_lowercase() == key`.
/// ASCII names compare in place: `key` is lower-cased, so it holds no ASCII
/// capital that the case-insensitive byte compare could wrongly accept.
pub(crate) fn section_named(name: &str, key: &str) -> bool {
    if name.is_ascii() {
        name.eq_ignore_ascii_case(key)
    } else {
        name.to_lowercase() == key
    }
}

/// Specification of a multi-valued medical-term attribute.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TermFieldSpec {
    /// Canonical field name (`"past_medical_history"`).
    pub name: String,
    /// Sections to scan.
    pub sections: Vec<String>,
}

/// Specification of a categorical attribute.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct CategoricalFieldSpec {
    /// Canonical field name (`"smoking"`).
    pub name: String,
    /// Sections whose text feeds the feature extractor.
    pub sections: Vec<String>,
    /// Class labels.
    pub classes: Vec<String>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use cmr_text::NumberValue;

    #[test]
    fn matching_phrases_include_variants_and_abbreviations() {
        let spec = FeatureSpec::new(
            "blood_pressure",
            &["blood pressure", "bp"],
            &["Vitals"],
            ValueKind::Ratio,
        );
        let phrases = spec.matching_phrases();
        assert!(phrases.contains(&"blood pressure".to_string()));
        assert!(
            phrases.contains(&"blood pressures".to_string()),
            "inflected variant"
        );
        assert!(phrases.contains(&"bp".to_string()));
    }

    #[test]
    fn phrase_expansion_dedups() {
        let spec = FeatureSpec::new("x", &["pulse", "pulse"], &[], ValueKind::Int);
        let phrases = spec.matching_phrases();
        let mut sorted = phrases.clone();
        sorted.sort();
        sorted.dedup();
        assert_eq!(phrases.len(), sorted.len());
    }

    #[test]
    fn accepts_checks_kind() {
        let bp = FeatureSpec::new("bp", &["blood pressure"], &[], ValueKind::Ratio);
        assert!(bp.accepts(&NumberValue::Ratio(144, 90)));
        assert!(!bp.accepts(&NumberValue::Int(144)));
        let pulse = FeatureSpec::new("pulse", &["pulse"], &[], ValueKind::Int).range(20.0, 250.0);
        assert!(pulse.accepts(&NumberValue::Int(84)));
        assert!(!pulse.accepts(&NumberValue::Int(999)), "range");
        assert!(!pulse.accepts(&NumberValue::Float(84.5)), "kind");
        let temp = FeatureSpec::new("temp", &["temperature"], &[], ValueKind::Float);
        assert!(temp.accepts(&NumberValue::Float(98.3)));
        assert!(
            temp.accepts(&NumberValue::Int(98)),
            "ints acceptable as floats"
        );
    }
}
