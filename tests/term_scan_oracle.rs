//! Independent oracle for §3.2's medical-term scan. The oracle first
//! enumerates every (start, pattern) window whose tags fit the pattern and
//! whose normalized surface resolves in the ontology, and only then
//! selects from that set: left to right, the first pattern (in inventory
//! order) that resolves at the cursor wins and the scan resumes past its
//! endpoint; a cursor where nothing resolves advances one token. That
//! selection must equal `MedicalTermExtractor::extract`, which instead
//! tries patterns lazily at each cursor, for both pattern inventories over
//! generated notes, clean and corrupted.

use cmr::core::{MedicalTermExtractor, PatternSet};
use cmr::corpus::{CorpusBuilder, NoiseInjector};
use cmr::ontology::{normalize, Concept, Ontology};
use cmr::postag::{PosTagger, Tag, TaggedToken};
use cmr::text::tokenize;

/// What a token must be to fill a pattern slot: a word tagged as an
/// adjective (participles count, as in "screening mammogram") or a noun.
#[derive(Debug, Clone, Copy)]
enum Slot {
    Adj,
    Noun,
}
use Slot::{Adj, Noun};

/// §3.2's four patterns, in the paper's order.
const PAPER: &[&[Slot]] = &[&[Adj, Noun, Noun], &[Noun, Noun], &[Adj, Noun], &[Noun]];

/// The extended inventory: longer prefixed shapes, longest first.
const EXTENDED: &[&[Slot]] = &[
    &[Adj, Adj, Adj, Noun],
    &[Adj, Adj, Noun, Noun],
    &[Adj, Noun, Noun, Noun],
    &[Noun, Noun, Noun],
    &[Adj, Adj, Noun],
    &[Adj, Noun, Noun],
    &[Noun, Noun],
    &[Adj, Noun],
    &[Noun],
];

fn fills(slot: Slot, t: &TaggedToken) -> bool {
    t.token.kind.is_word()
        && match slot {
            Adj => t.tag.is_adjective() || t.tag == Tag::VBG || t.tag == Tag::VBN,
            Noun => t.tag.is_noun(),
        }
}

/// One window that resolves in the ontology.
struct Window {
    start: usize,
    pattern: usize,
    len: usize,
    concept: &'static Concept,
}

/// A selected term: concept id, byte span and surface text.
type Term = (&'static str, usize, usize, String);

/// Every (start, pattern) window that fits and resolves, in no particular
/// selection order.
fn resolving_windows(
    text: &str,
    tagged: &[TaggedToken],
    patterns: &[&[Slot]],
    ontology: &Ontology,
) -> Vec<Window> {
    let mut windows = Vec::new();
    for start in 0..tagged.len() {
        for (pattern, slots) in patterns.iter().enumerate() {
            let Some(window) = tagged.get(start..start + slots.len()) else {
                continue;
            };
            if !window.iter().zip(slots.iter()).all(|(t, s)| fills(*s, t)) {
                continue;
            }
            let surface = &text[window[0].token.span.start..window[slots.len() - 1].token.span.end];
            if let Some(concept) = ontology.lookup_normalized(&normalize(surface)) {
                windows.push(Window {
                    start,
                    pattern,
                    len: slots.len(),
                    concept,
                });
            }
        }
    }
    windows
}

/// §3.2's selection over the precomputed windows. A concept is reported
/// once, at its first selected occurrence; a repeat still moves the cursor
/// past its endpoint.
fn select(text: &str, tagged: &[TaggedToken], windows: &[Window]) -> Vec<Term> {
    let mut terms: Vec<Term> = Vec::new();
    let mut cursor = 0;
    while cursor < tagged.len() {
        let first = windows
            .iter()
            .filter(|w| w.start == cursor)
            .min_by_key(|w| w.pattern);
        let Some(w) = first else {
            cursor += 1;
            continue;
        };
        let (start, end) = (
            tagged[w.start].token.span.start,
            tagged[w.start + w.len - 1].token.span.end,
        );
        if !terms.iter().any(|t| t.0 == w.concept.cui) {
            terms.push((w.concept.cui, start, end, text[start..end].to_string()));
        }
        cursor += w.len;
    }
    terms
}

#[test]
fn term_scan_equals_all_windows_oracle() {
    let ontology = Ontology::full();
    let tagger = PosTagger::new();
    let corpus = CorpusBuilder::new().records(60).seed(32).build();
    let (mut terms, mut contested) = (0usize, 0usize);
    for (set, patterns) in [(PatternSet::Paper, PAPER), (PatternSet::Extended, EXTENDED)] {
        let extractor = MedicalTermExtractor::new(Ontology::full()).with_patterns(set);
        for noise in [0.0, 0.2] {
            let injector = NoiseInjector::from_level(noise, 32);
            for rec in &corpus.records {
                let text = injector.corrupt(&rec.text);
                let tagged = tagger.tag(&tokenize(&text));
                let windows = resolving_windows(&text, &tagged, patterns, &ontology);
                // Cursors where more than one pattern resolves are where
                // first-pattern-wins decides the outcome.
                contested += (0..tagged.len())
                    .filter(|&i| windows.iter().filter(|w| w.start == i).count() > 1)
                    .count();
                let want = select(&text, &tagged, &windows);
                let got: Vec<Term> = extractor
                    .extract(&text)
                    .into_iter()
                    .map(|h| (h.concept.cui, h.span.start, h.span.end, h.surface))
                    .collect();
                assert_eq!(
                    got, want,
                    "{set:?} at noise {noise}, patient {}",
                    rec.patient_id
                );
                terms += want.len();
            }
        }
    }
    assert!(terms >= 500, "too few terms to mean anything: {terms}");
    assert!(contested > 0, "no cursor had competing patterns");
}
