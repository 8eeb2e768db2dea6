//! Each feature spec compiles its phrase expansion once, on first use. The
//! compiled matcher must find exactly the mentions a naive scan finds that
//! re-expands `matching_phrases()` and interns the words on the spot, and a
//! schema that went through serde (which skips the compiled form) must
//! extract byte-identically.

use cmr::core::{
    find_mentions, AssociationMethod, FeatureSpec, Mention, NumericExtractor, Pipeline, Schema,
};
use cmr::corpus::{CorpusBuilder, NoiseInjector, APPENDIX_RECORD};
use cmr::ontology::Ontology;
use cmr::postag::{PosTagger, TaggedToken};
use cmr::text::{intern, tokenize, Sym};
use proptest::prelude::*;

/// The reference: the longest-phrase-wins scan over freshly expanded
/// phrases, earlier spec first on a tie.
fn naive_mentions(tagged: &[TaggedToken], specs: &[&FeatureSpec]) -> Vec<Mention> {
    let phrase_sets: Vec<Vec<Vec<Sym>>> = specs
        .iter()
        .map(|s| {
            s.matching_phrases()
                .iter()
                .map(|p| p.split_whitespace().map(intern).collect())
                .collect()
        })
        .collect();
    let mut mentions = Vec::new();
    let mut i = 0;
    while i < tagged.len() {
        let mut best: Option<(usize, usize)> = None;
        for (si, phrases) in phrase_sets.iter().enumerate() {
            for words in phrases {
                if words.is_empty() || i + words.len() > tagged.len() {
                    continue;
                }
                let all_match = words.iter().enumerate().all(|(k, &w)| {
                    let t = &tagged[i + k];
                    t.token.kind.is_word() && (t.lower == w || t.lemma == w)
                });
                if all_match && best.map(|(_, l)| words.len() > l).unwrap_or(true) {
                    best = Some((si, words.len()));
                }
            }
        }
        match best {
            Some((spec, len)) => {
                mentions.push(Mention {
                    spec,
                    head_token: i + len - 1,
                });
                i += len;
            }
            None => i += 1,
        }
    }
    mentions
}

/// Every matching phrase of the paper schema, lower-case, Title Case and
/// upper-case, plus filler words (some of them phrase words on their own,
/// so partial and overlapping matches occur), numbers and punctuation.
fn pieces() -> Vec<String> {
    let mut out: Vec<String> = Vec::new();
    for spec in &Schema::paper().numeric {
        for phrase in spec.matching_phrases() {
            let title: Vec<String> = phrase
                .split_whitespace()
                .map(|w| {
                    let mut c = w.chars();
                    c.next()
                        .map(|f| f.to_uppercase().chain(c).collect())
                        .unwrap_or_default()
                })
                .collect();
            out.push(title.join(" "));
            out.push(phrase.to_uppercase());
            out.push(phrase);
        }
    }
    for filler in [
        "is",
        "of",
        "at",
        "age",
        "the",
        "and",
        "a",
        "was",
        "her",
        "blood",
        "birth",
        "live",
        "first",
        "rate",
        "heart",
        "years",
        "old",
        "50-year-old",
        "84",
        "144/90",
        "98.3",
        ",",
        ".",
        ":",
    ] {
        out.push(filler.to_string());
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn compiled_matcher_equals_naive_scan(
        picks in prop::collection::vec(prop::sample::select(pieces()), 1..14),
    ) {
        let sentence = picks.join(" ");
        let schema = Schema::paper();
        let forward: Vec<&FeatureSpec> = schema.numeric.iter().collect();
        let backward: Vec<&FeatureSpec> = schema.numeric.iter().rev().collect();
        let tagged = PosTagger::new().tag(&tokenize(&sentence));
        for specs in [&forward, &backward] {
            prop_assert_eq!(
                find_mentions(&tagged, specs),
                naive_mentions(&tagged, specs),
                "sentence {:?}",
                sentence
            );
        }

        // Freshly compiled, cloned-after-compiling and deserialized specs
        // extract the same hits.
        let extractor = NumericExtractor::new();
        let hits = extractor.extract_sentence(&sentence, &forward);
        let cloned = schema.clone();
        let json = serde_json::to_string(&schema).expect("schema serializes");
        let parsed: Schema = serde_json::from_str(&json).expect("schema deserializes");
        for other in [&cloned, &parsed] {
            let specs: Vec<&FeatureSpec> = other.numeric.iter().collect();
            prop_assert_eq!(extractor.extract_sentence(&sentence, &specs), hits.clone());
        }
    }
}

#[test]
fn serde_round_tripped_schema_extracts_byte_identically() {
    let json = serde_json::to_string(&Schema::paper()).expect("schema serializes");
    let parsed: Schema = serde_json::from_str(&json).expect("schema deserializes");
    assert_eq!(
        serde_json::to_string(&parsed).expect("schema serializes"),
        json,
        "the compiled matcher must not leak into the serialized schema"
    );

    let direct = Pipeline::with_default_schema();
    let round_tripped = Pipeline::new(
        parsed,
        Ontology::full(),
        AssociationMethod::LinkWithFallback,
    );
    // Style-varied notes, every other one OCR-corrupted so the salvage
    // scan (which reads the compiled needles) runs too.
    let corpus = CorpusBuilder::new()
        .records(200)
        .seed(16)
        .style_variation(1.0)
        .build();
    let noise = NoiseInjector::from_level(0.3, 16);
    let mut notes = vec![APPENDIX_RECORD.to_string()];
    for (i, rec) in corpus.records.iter().enumerate() {
        notes.push(if i % 2 == 0 {
            rec.text.clone()
        } else {
            noise.corrupt(&rec.text)
        });
    }
    let mut salvaged = 0;
    for note in &notes {
        let a = direct.extract(note);
        let b = round_tripped.extract(note);
        salvaged += a
            .methods
            .values()
            .filter(|&&m| m == cmr::core::MethodUsed::Salvage)
            .count();
        assert_eq!(
            serde_json::to_string(&a).expect("record serializes"),
            serde_json::to_string(&b).expect("record serializes"),
            "note {note:?}"
        );
    }
    assert!(salvaged > 0, "the corrupted notes must exercise salvage");
}
