//! The analyzer's output contract: running the battery is a pure function
//! of the committed assets — same findings, same order, same bytes —
//! and the committed assets themselves are clean at Warning-or-worse.

use cmr_analyze::{analyze_assets, check_info, Severity};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Byte-identical JSON across repeated runs: no iteration-order leaks
    /// from hash maps, no timestamps, no environment dependence.
    #[test]
    fn lint_json_is_byte_identical_across_runs(_run in 0u8..8) {
        let a = analyze_assets().to_json();
        let b = analyze_assets().to_json();
        prop_assert_eq!(a, b);
    }

    /// Same for SARIF and the human rendering.
    #[test]
    fn other_formats_are_deterministic_too(_run in 0u8..4) {
        let a = analyze_assets();
        let b = analyze_assets();
        prop_assert_eq!(a.to_sarif(), b.to_sarif());
        prop_assert_eq!(a.render_human(false), b.render_human(false));
    }
}

#[test]
fn committed_assets_are_clean_at_warning() {
    let report = analyze_assets();
    assert_eq!(
        report.errors() + report.warnings(),
        0,
        "committed assets regressed:\n{}",
        report.render_human(false)
    );
}

#[test]
fn every_emitted_code_is_registered() {
    for d in &analyze_assets().diagnostics {
        assert!(
            check_info(d.code).is_some(),
            "diagnostic {} missing from the registry",
            d.code
        );
        assert_eq!(d.severity, Severity::Note, "only notes on clean assets");
    }
}

// ---------------------------------------------------------------------
// The CMR-S source battery has the same contract as the asset battery.
// ---------------------------------------------------------------------

#[test]
fn source_lint_is_byte_identical_across_runs() {
    let a = cmr_analyze::analyze_sources();
    let b = cmr_analyze::analyze_sources();
    assert_eq!(a.to_json(), b.to_json());
    assert_eq!(a.to_sarif(), b.to_sarif());
    assert_eq!(a.render_human(false), b.render_human(false));
}

#[test]
fn committed_sources_are_clean_at_warning() {
    let report = cmr_analyze::analyze_sources();
    assert_eq!(
        report.errors() + report.warnings(),
        0,
        "committed sources regressed:\n{}",
        report.render_human(false)
    );
}

#[test]
fn every_emitted_source_code_is_registered() {
    for d in &cmr_analyze::analyze_sources().diagnostics {
        assert!(
            d.code.starts_with("CMR-S"),
            "source battery emits only S codes, got {}",
            d.code
        );
        assert!(
            check_info(d.code).is_some(),
            "diagnostic {} missing from the registry",
            d.code
        );
        assert_eq!(d.severity, Severity::Note, "only notes on a clean tree");
    }
}

#[test]
fn sarif_documents_at_least_six_s_codes() {
    let s_codes: Vec<&str> = cmr_analyze::registry()
        .iter()
        .map(|c| c.code)
        .filter(|c| c.starts_with("CMR-S"))
        .collect();
    assert!(
        s_codes.len() >= 6,
        "expected >= 6 documented CMR-S codes, got {s_codes:?}"
    );
    let sarif = cmr_analyze::analyze_sources().to_sarif();
    for code in s_codes {
        assert!(sarif.contains(code), "{code} missing from SARIF rules");
    }
}

/// The pass keeps finding the deliberate patterns it was built around —
/// a regression where the scanner goes blind would otherwise read as "the
/// tree got cleaner".
#[test]
fn known_deliberate_notes_are_still_seen() {
    let report = cmr_analyze::analyze_sources();
    let has = |code: &str, asset: &str| {
        report
            .diagnostics
            .iter()
            .any(|d| d.code == code && d.asset == asset)
    };
    assert!(
        has("CMR-S001", "crates/engine/src/pool.rs"),
        "pool recv-under-lock note vanished:\n{}",
        report.render_human(false)
    );
}
