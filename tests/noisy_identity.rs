//! Byte-identity regression gate for tier-3 salvage output.
//!
//! `tests/identity.rs` runs clean gold notes, where salvage never fires.
//! This gate runs generated notes under the benchmark's `noisy-batch`
//! corruption (the composite profile at level 0.2 without dropped
//! punctuation or collapsed whitespace) and compares the serialized
//! extractions, one JSON line per note, against the committed snapshot.
//! The snapshot must hold numeric and term fields that the salvage tier
//! produced, so a change to the salvage scans cannot pass unseen.
//!
//! To regenerate after an *intentional* output change:
//!
//! ```text
//! UPDATE_SNAPSHOT=1 cargo test --test noisy_identity
//! ```

use cmr::core::MethodUsed::Salvage;
use cmr::prelude::*;

const SNAPSHOT_PATH: &str = "tests/snapshots/noisy_extractions.ndjson";
const NOTES: usize = 160;

/// One compact JSON line per noisy note's extraction.
fn render_extractions() -> String {
    let corpus = CorpusBuilder::new()
        .records(NOTES)
        .seed(28)
        .style_variation(1.0)
        .build();
    let noise = NoiseInjector::new(
        NoiseConfig::level(0.2)
            .with_punct_drop(0.0)
            .with_whitespace_collapse(0.0),
        28,
    );
    let pipeline = Pipeline::with_default_schema();
    let mut out = String::new();
    for rec in &corpus.records {
        let extracted = pipeline.extract(&noise.corrupt(&rec.text));
        out.push_str(&serde_json::to_string(&extracted).expect("record serializes"));
        out.push('\n');
    }
    out
}

fn snapshot_path() -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join(SNAPSHOT_PATH)
}

#[test]
fn noisy_extraction_is_byte_identical_to_snapshot() {
    let current = render_extractions();
    let path = snapshot_path();
    if std::env::var_os("UPDATE_SNAPSHOT").is_some() {
        std::fs::write(&path, &current).expect("write snapshot");
        eprintln!("noisy_identity: snapshot regenerated at {}", path.display());
        return;
    }
    let committed = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing snapshot {} ({e}); run `UPDATE_SNAPSHOT=1 cargo test --test noisy_identity`",
            path.display()
        )
    });
    for (i, (now, then)) in current.lines().zip(committed.lines()).enumerate() {
        assert_eq!(now, then, "note {i} diverged from the committed snapshot");
    }
    assert_eq!(
        current.lines().count(),
        committed.lines().count(),
        "note count differs from the committed snapshot"
    );
}

#[test]
fn snapshot_holds_numeric_and_term_salvage() {
    let committed = std::fs::read_to_string(snapshot_path()).expect("snapshot file exists");
    let records: Vec<ExtractedRecord> = committed
        .lines()
        .map(|line| serde_json::from_str(line).expect("snapshot line is an extraction"))
        .collect();
    assert_eq!(records.len(), NOTES);
    let salvaged = |r: &ExtractedRecord, field: &str| r.methods.get(field) == Some(&Salvage);
    let numeric = records
        .iter()
        .flat_map(|r| r.numeric.keys().filter(move |f| salvaged(r, f)))
        .count();
    let terms = |field: &str| records.iter().filter(|r| salvaged(r, field)).count();
    assert!(numeric > 0, "no numeric field was salvaged");
    assert!(terms("past_medical_history") > 0, "no PMH term salvage");
    assert!(terms("past_surgical_history") > 0, "no PSH term salvage");
    // A note that lost both history sections scans its whole text for
    // both term fields.
    assert!(
        records
            .iter()
            .any(|r| salvaged(r, "past_medical_history") && salvaged(r, "past_surgical_history")),
        "no note salvaged both term fields"
    );
}
