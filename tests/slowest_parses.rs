//! The twenty slowest cold parses, pinned. The sentences are the twenty
//! distinct sentence shapes that took longest to parse uncached among
//! the numeric extractor's parses of a 3,000-note corpus at noise 0.2
//! (without dropped punctuation or collapsed line breaks), and the links,
//! labels and cost are what the parser returned for them before its
//! dictionary interned connectors and its memo keyed regions by content.
//! A faster search must still find exactly these linkages.

use cmr::linkgram::LinkParser;
use cmr::postag::PosTagger;
use cmr::text::tokenize;
use serde::Value;

const SNAPSHOT_PATH: &str = "tests/snapshots/slowest_parses.json";

#[test]
fn slowest_sentences_parse_to_their_pinned_linkages() {
    let text = std::fs::read_to_string(SNAPSHOT_PATH).expect("snapshot is committed");
    let Value::Array(entries) = serde_json::parse_value_str(&text).expect("snapshot parses") else {
        panic!("snapshot is a JSON array");
    };
    assert_eq!(entries.len(), 20);
    let tagger = PosTagger::new();
    for entry in &entries {
        let Some(Value::String(sentence)) = entry.get("sentence") else {
            panic!("entry without a sentence: {entry:?}");
        };
        let parser = LinkParser::new();
        let result = parser.try_parse(&tagger.tag(&tokenize(sentence)));
        if let Some(Value::String(failure)) = entry.get("failure") {
            assert_eq!(
                result.as_ref().err().map(|f| format!("{f:?}")).as_deref(),
                Some(failure.as_str()),
                "{sentence}"
            );
            continue;
        }
        let linkage = result.unwrap_or_else(|f| panic!("{sentence}: {f}"));
        let Some(Value::Float(cost)) = entry.get("cost") else {
            panic!("entry without a cost: {entry:?}");
        };
        assert_eq!(linkage.cost.to_bits(), cost.to_bits(), "{sentence}: cost");
        let Some(Value::Array(links)) = entry.get("links") else {
            panic!("entry without links: {entry:?}");
        };
        let pinned: Vec<(i64, i64, &str)> = links
            .iter()
            .map(|l| match l {
                Value::Array(v) => match v.as_slice() {
                    [Value::Int(a), Value::Int(b), Value::String(label)] => {
                        (*a, *b, label.as_str())
                    }
                    _ => panic!("link is [left, right, label]: {l:?}"),
                },
                _ => panic!("link is an array: {l:?}"),
            })
            .collect();
        let got: Vec<(i64, i64, &str)> = linkage
            .links
            .iter()
            .map(|l| (l.left as i64, l.right as i64, l.label.as_str()))
            .collect();
        assert_eq!(got, pinned, "{sentence}: links");
    }
}
