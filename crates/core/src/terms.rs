//! Medical term extraction (§3.2).
//!
//! POS-tag the text, scan with the paper's four ordered patterns
//! (`JJ NN NN`, `NN NN`, `JJ NN`, `NN`), normalize each candidate
//! (lemmatize + alphabetize) and look it up in the ontology. On a hit,
//! save the term and continue after its endpoint; otherwise try the next
//! pattern from the same starting point.
//!
//! A text of n words has up to ~n × patterns candidate windows, and
//! adjacent windows share words. Normalizing each window's surface from
//! scratch would lemmatize one word up to three times per scan, so the
//! extractor lemmatizes each distinct word once
//! ([`cmr_ontology::normalized_words`], memoized by the word's interned
//! lower-case form) and builds a window's key by sorting and joining its
//! words' pieces. The key equals `normalize(surface)`: a word token is
//! ASCII `[A-Za-z0-9'-]` and only ASCII whitespace separates adjacent
//! tokens, so the surface splits into exactly its tokens' pieces.

use cmr_ontology::{normalized_words, Concept, Ontology, ValueSet};
use cmr_postag::{PosTagger, Tag, TaggedToken};
use cmr_text::{tokenize, Span, Sym};
use std::cell::RefCell;
use std::collections::HashMap;

/// Which ordered pattern inventory the scanner uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PatternSet {
    /// Exactly the paper's four patterns (§3.2): `JJ NN NN`, `NN NN`,
    /// `JJ NN`, `NN`. Terms longer than three words are unreachable — a
    /// real limitation of the published method ("chronic obstructive
    /// pulmonary disease" cannot match).
    #[default]
    Paper,
    /// The paper's patterns plus longer prefixed forms (up to four words,
    /// multiple adjectives), ordered longest-first.
    Extended,
}

/// The paper's ordered candidate patterns. `Adj` = adjective slot,
/// `Noun` = noun slot.
const PAPER_PATTERNS: &[&[Slot]] = &[
    &[Slot::Adj, Slot::Noun, Slot::Noun],
    &[Slot::Noun, Slot::Noun],
    &[Slot::Adj, Slot::Noun],
    &[Slot::Noun],
];

/// Extended inventory: adds four-word and double-adjective shapes.
const EXTENDED_PATTERNS: &[&[Slot]] = &[
    &[Slot::Adj, Slot::Adj, Slot::Adj, Slot::Noun],
    &[Slot::Adj, Slot::Adj, Slot::Noun, Slot::Noun],
    &[Slot::Adj, Slot::Noun, Slot::Noun, Slot::Noun],
    &[Slot::Noun, Slot::Noun, Slot::Noun],
    &[Slot::Adj, Slot::Adj, Slot::Noun],
    &[Slot::Adj, Slot::Noun, Slot::Noun],
    &[Slot::Noun, Slot::Noun],
    &[Slot::Adj, Slot::Noun],
    &[Slot::Noun],
];

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Slot {
    Adj,
    Noun,
}

fn slot_matches(slot: Slot, tag: Tag) -> bool {
    match slot {
        // Participial modifiers ("postoperative CVA" tags cleanly, but
        // "screening mammogram" may tag VBG) count as adjective slots.
        Slot::Adj => tag.is_adjective() || tag == Tag::VBG || tag == Tag::VBN,
        Slot::Noun => tag.is_noun(),
    }
}

/// One extracted medical term.
#[derive(Debug, Clone, PartialEq)]
pub struct TermHit {
    /// The resolved concept.
    pub concept: &'static Concept,
    /// The surface text as written.
    pub surface: String,
    /// Byte span of the surface in the scanned text.
    pub span: Span,
}

/// The medical term extractor.
///
/// The ontology is behind an [`Arc`](std::sync::Arc): extractors on
/// different worker threads share one concept table instead of cloning it.
/// Like its tagger, an extractor memoizes per word (`RefCell`, so it is
/// `!Sync` and each worker owns one); the memo only grows and holds one
/// entry per distinct slot-filling word, so it is bounded by the interned
/// vocabulary, not the corpus.
pub struct MedicalTermExtractor {
    ontology: std::sync::Arc<Ontology>,
    tagger: PosTagger,
    patterns: PatternSet,
    negation_filter: bool,
    /// [`normalized_words`] of each word that can fill a pattern slot, by
    /// its interned lower-case form.
    words: RefCell<HashMap<Sym, Box<[String]>>>,
}

impl MedicalTermExtractor {
    /// Creates an extractor over the given ontology (owned, or an `Arc`
    /// shared with other extractors) with the paper's pattern set.
    pub fn new(ontology: impl Into<std::sync::Arc<Ontology>>) -> MedicalTermExtractor {
        MedicalTermExtractor {
            ontology: ontology.into(),
            tagger: PosTagger::new(),
            patterns: PatternSet::Paper,
            negation_filter: false,
            words: RefCell::default(),
        }
    }

    /// Enables the NegEx-style negation filter (extension; see
    /// [`crate::NegationDetector`]): hits inside a negation scope
    /// ("negative for breast cancer") are dropped. Off by default — the
    /// paper's system has no negation handling.
    pub fn with_negation_filter(mut self, on: bool) -> MedicalTermExtractor {
        self.negation_filter = on;
        self
    }

    /// Selects the pattern inventory.
    pub fn with_patterns(mut self, patterns: PatternSet) -> MedicalTermExtractor {
        self.set_patterns(patterns);
        self
    }

    /// Selects the pattern inventory in place.
    pub fn set_patterns(&mut self, patterns: PatternSet) {
        self.patterns = patterns;
    }

    fn pattern_table(&self) -> &'static [&'static [Slot]] {
        match self.patterns {
            PatternSet::Paper => PAPER_PATTERNS,
            PatternSet::Extended => EXTENDED_PATTERNS,
        }
    }

    /// The ontology in use.
    pub fn ontology(&self) -> &Ontology {
        &self.ontology
    }

    /// Extracts all medical terms from `text` (typically a section body).
    /// Duplicate concepts are reported once (first occurrence).
    pub fn extract(&self, text: &str) -> Vec<TermHit> {
        let tagged = self.tagger.tag_owned(tokenize(text));
        let negated: Vec<Span> = if self.negation_filter {
            crate::negation::NegationDetector::new()
                .negated_ranges(&tagged)
                .into_iter()
                .map(|(s, e)| tagged[s].token.span.cover(&tagged[e - 1].token.span))
                .collect()
        } else {
            Vec::new()
        };
        let mut words = self.words.borrow_mut();
        for t in &tagged {
            if t.token.kind.is_word()
                && (slot_matches(Slot::Adj, t.tag) || slot_matches(Slot::Noun, t.tag))
            {
                words
                    .entry(t.lower)
                    .or_insert_with(|| normalized_words(t.lower.as_str()).into());
            }
        }
        let mut keys = WindowKeys {
            words: &words,
            pieces: Vec::new(),
            key: String::new(),
        };
        let mut hits: Vec<TermHit> = Vec::new();
        let mut i = 0;
        while i < tagged.len() {
            match self.match_at(&tagged, i, text, &mut keys) {
                Some((hit, consumed)) => {
                    let negated_hit = negated.iter().any(|n| n.overlaps(&hit.span));
                    if !negated_hit && !hits.iter().any(|h| h.concept.cui == hit.concept.cui) {
                        hits.push(hit);
                    }
                    i += consumed;
                }
                None => i += 1,
            }
        }
        hits
    }

    /// Tries the ordered patterns at position `i`; returns the hit and the
    /// number of tokens consumed.
    fn match_at(
        &self,
        tagged: &[TaggedToken],
        i: usize,
        text: &str,
        keys: &mut WindowKeys<'_>,
    ) -> Option<(TermHit, usize)> {
        for pattern in self.pattern_table() {
            let len = pattern.len();
            if i + len > tagged.len() {
                continue;
            }
            let window = &tagged[i..i + len];
            if !window
                .iter()
                .zip(pattern.iter())
                .all(|(t, s)| t.token.kind.is_word() && slot_matches(*s, t.tag))
            {
                continue;
            }
            if let Some(concept) = self.ontology.lookup_normalized(keys.key(window)) {
                let span = window[0].token.span.cover(&window[len - 1].token.span);
                return Some((
                    TermHit {
                        concept,
                        surface: span.slice(text).to_string(),
                        span,
                    },
                    len,
                ));
            }
        }
        None
    }

    /// Extracts and partitions terms into (predefined, other) by a value
    /// set — the paper's four attributes are exactly these partitions for
    /// the medical- and surgical-history sections.
    pub fn extract_partitioned(
        &self,
        text: &str,
        predefined: &ValueSet,
    ) -> (Vec<TermHit>, Vec<TermHit>) {
        self.extract(text)
            .into_iter()
            .partition(|h| predefined.contains(h.concept))
    }
}

/// Builds candidate windows' normalized keys from memoized per-word
/// pieces, in buffers reused across the windows of one scan.
struct WindowKeys<'w> {
    /// Every slot-filling word's pieces (see [`MedicalTermExtractor`]).
    words: &'w HashMap<Sym, Box<[String]>>,
    pieces: Vec<&'w str>,
    key: String,
}

impl WindowKeys<'_> {
    /// `normalize` of the window's surface: its words' pieces, sorted and
    /// space-joined.
    fn key(&mut self, window: &[TaggedToken]) -> &str {
        self.pieces.clear();
        for t in window {
            self.pieces
                .extend(self.words[&t.lower].iter().map(String::as_str));
        }
        self.pieces.sort_unstable();
        self.key.clear();
        for (i, piece) in self.pieces.iter().enumerate() {
            if i > 0 {
                self.key.push(' ');
            }
            self.key.push_str(piece);
        }
        &self.key
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn extractor() -> MedicalTermExtractor {
        MedicalTermExtractor::new(Ontology::full())
    }

    fn preferred(hits: &[TermHit]) -> Vec<&str> {
        hits.iter().map(|h| h.concept.preferred).collect()
    }

    #[test]
    fn paper_example_three_terms() {
        // §3.2: "Significant for a postoperative CVA after undergoing a
        // cholecystectomy and a midline hernia closure" → postoperative CVA,
        // cholecystectomy, midline hernia (closure).
        let hits = extractor().extract(
            "Significant for a postoperative CVA after undergoing a cholecystectomy and a midline hernia closure",
        );
        let names = preferred(&hits);
        assert!(names.contains(&"cerebrovascular accident"), "{names:?}");
        assert!(names.contains(&"cholecystectomy"), "{names:?}");
        assert!(names.contains(&"hernia repair"), "{names:?}");
    }

    #[test]
    fn appendix_pmh_line() {
        let hits = extractor().extract(
            "Significant for diabetes, heart disease, high blood pressure, hypercholesterolemia, bronchitis, arrhythmia, and depression.",
        );
        let names = preferred(&hits);
        for expect in [
            "diabetes",
            "heart disease",
            "hypertension",
            "hypercholesterolemia",
            "bronchitis",
            "arrhythmia",
            "depression",
        ] {
            assert!(names.contains(&expect), "missing {expect} in {names:?}");
        }
    }

    #[test]
    fn multiword_synonym_resolves_via_normalization() {
        let hits = extractor().extract("Her high blood pressures are controlled.");
        assert_eq!(preferred(&hits), vec!["hypertension"]);
    }

    #[test]
    fn longest_pattern_preferred() {
        // "midline hernia closure" (JJ NN NN) must win over "hernia" (NN).
        let hits = extractor().extract("a midline hernia closure");
        assert_eq!(preferred(&hits), vec!["hernia repair"]);
    }

    #[test]
    fn continue_after_endpoint() {
        let hits = extractor().extract("cholecystectomy and appendectomy");
        assert_eq!(preferred(&hits), vec!["cholecystectomy", "appendectomy"]);
    }

    #[test]
    fn window_keys_equal_normalized_surfaces() {
        let ex = extractor();
        let text = "Her high blood-pressures, C-section scars and Crohn's \
                    disease ; s/p 2 midline  hernia closures.";
        let tagged = ex.tagger.tag_owned(tokenize(text));
        let words: HashMap<Sym, Box<[String]>> = tagged
            .iter()
            .filter(|t| t.token.kind.is_word())
            .map(|t| (t.lower, normalized_words(t.lower.as_str()).into()))
            .collect();
        let mut keys = WindowKeys {
            words: &words,
            pieces: Vec::new(),
            key: String::new(),
        };
        let mut windows = 0;
        for start in 0..tagged.len() {
            for len in 1..=4 {
                let Some(window) = tagged.get(start..start + len) else {
                    continue;
                };
                if !window.iter().all(|t| t.token.kind.is_word()) {
                    continue;
                }
                let span = window[0].token.span.cover(&window[len - 1].token.span);
                let surface = span.slice(text);
                assert_eq!(
                    keys.key(window),
                    cmr_ontology::normalize(surface),
                    "{surface:?}"
                );
                windows += 1;
            }
        }
        assert!(windows > 20, "{windows}");
    }

    #[test]
    fn no_terms_in_plain_prose() {
        let hits = extractor().extract("She was referred for further management.");
        assert!(hits.is_empty(), "{:?}", preferred(&hits));
    }

    #[test]
    fn duplicates_reported_once() {
        let hits = extractor().extract("diabetes and diabetes and diabetes");
        assert_eq!(hits.len(), 1);
    }

    #[test]
    fn spans_point_into_text() {
        let text = "Significant for diabetes and arthritis.";
        for h in extractor().extract(text) {
            assert_eq!(h.span.slice(text), h.surface);
        }
    }

    #[test]
    fn partition_by_value_set() {
        let (pre, other) = extractor().extract_partitioned(
            "Significant for diabetes and gout.",
            &ValueSet::predefined_medical_history(),
        );
        assert_eq!(preferred(&pre), vec!["diabetes"]);
        assert_eq!(preferred(&other), vec!["gout"]);
    }

    #[test]
    fn degraded_ontology_misses_synonyms() {
        let ex = MedicalTermExtractor::new(Ontology::degraded());
        let hits = ex.extract("high blood pressure");
        assert!(hits.is_empty(), "degraded profile has no synonyms");
    }

    #[test]
    fn paper_patterns_cannot_reach_four_word_terms() {
        // A documented limitation of the published pattern set.
        let hits = extractor().extract("chronic obstructive pulmonary disease");
        assert!(
            !preferred(&hits).contains(&"chronic obstructive pulmonary disease"),
            "{:?}",
            preferred(&hits)
        );
    }

    #[test]
    fn extended_patterns_reach_four_word_terms() {
        let ex = MedicalTermExtractor::new(Ontology::full()).with_patterns(PatternSet::Extended);
        let hits =
            ex.extract("Significant for chronic obstructive pulmonary disease and arthritis.");
        let names = preferred(&hits);
        assert!(
            names.contains(&"chronic obstructive pulmonary disease"),
            "{names:?}"
        );
        assert!(names.contains(&"arthritis"), "{names:?}");
    }

    #[test]
    fn negation_filter_drops_ruled_out_terms() {
        let ex = MedicalTermExtractor::new(Ontology::full()).with_negation_filter(true);
        assert!(ex.extract("Negative for breast cancer.").is_empty());
        assert!(ex
            .extract("She denies chest pain and headaches.")
            .is_empty());
        let hits = ex.extract("Significant for diabetes; negative for gout.");
        assert_eq!(preferred(&hits), vec!["diabetes"]);
    }

    #[test]
    fn negation_filter_off_by_default() {
        let ex = extractor();
        let hits = ex.extract("Negative for breast cancer.");
        assert_eq!(
            preferred(&hits),
            vec!["breast cancer"],
            "paper behaviour: negation ignored"
        );
    }

    #[test]
    fn extended_patterns_preserve_three_word_behaviour() {
        let ex = MedicalTermExtractor::new(Ontology::full()).with_patterns(PatternSet::Extended);
        let hits = ex.extract("a midline hernia closure and high blood pressure");
        let names = preferred(&hits);
        assert!(names.contains(&"hernia repair"), "{names:?}");
        assert!(names.contains(&"hypertension"), "{names:?}");
    }
}
