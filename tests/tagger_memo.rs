//! The tagger memoizes each word's pass-one analysis and its lemmas. The
//! memo is only sound if a warm tagger tags every sentence exactly as a
//! fresh one does, whatever it has seen before.

use cmr::postag::PosTagger;
use cmr::text::tokenize;
use proptest::prelude::*;

/// Lexicon words, closed-class words, unknown medical and brand words, and
/// number words. Each may be drawn capitalized, so the same word appears
/// sentence-initial, mid-sentence capitalized (a proper-noun guess for
/// unknown words) and lower-case.
const WORDS: &[&str] = &[
    "she",
    "denies",
    "alcohol",
    "use",
    "the",
    "her",
    "that",
    "there",
    "has",
    "had",
    "is",
    "was",
    "does",
    "not",
    "never",
    "smoked",
    "quit",
    "smoking",
    "will",
    "to",
    "diagnosed",
    "underwent",
    "pregnancies",
    "daily",
    "blood",
    "pressure",
    "pulse",
    "hypertension",
    "cholecystectomy",
    "mammographic",
    "lipitor",
    "zoloft",
    "smith",
    "four",
    "years",
    "ago",
];

/// Number, punctuation and symbol tokens. Sentence-final punctuation
/// inside a sentence makes the next word sentence-initial.
const OTHER: &[&str] = &[
    "84", "144/90", "98.3", ",", ".", ":", ";", "?", "-", "%", "(", ")",
];

fn capitalize(w: &str) -> String {
    let mut chars = w.chars();
    match chars.next() {
        Some(first) => first.to_uppercase().chain(chars).collect(),
        None => String::new(),
    }
}

fn sentence() -> impl Strategy<Value = String> {
    let word = (prop::sample::select(WORDS.to_vec()), prop::bool::ANY).prop_map(|(w, cap)| {
        if cap {
            capitalize(w)
        } else {
            w.to_string()
        }
    });
    let token = (word, prop::sample::select(OTHER.to_vec()), 0u8..5)
        .prop_map(|(w, other, pick)| if pick == 0 { other.to_string() } else { w });
    prop::collection::vec(token, 1..16).prop_map(|tokens| tokens.join(" "))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// One tagger tags a random sequence of sentences; each result equals
    /// a fresh tagger's on that sentence.
    #[test]
    fn warm_tagger_equals_cold_tagger(sentences in prop::collection::vec(sentence(), 1..12)) {
        let warm = PosTagger::new();
        for s in &sentences {
            let tokens = tokenize(s);
            let cold = PosTagger::new().tag(&tokens);
            prop_assert_eq!(warm.tag(&tokens), cold.clone(), "sentence {:?}", s);
            prop_assert_eq!(warm.tag_owned(tokens), cold, "owned, sentence {:?}", s);
        }
    }
}
