//! # cmr-analyze — static analysis for the extraction knowledge base
//!
//! The whole pipeline is driven by hand-authored rule assets: the
//! link-grammar dictionary, the synonym/inflection lexicon, the embedded
//! ontology, the numeric field specs with their fallback patterns, and the
//! ID3 feature configuration. Nothing checks those assets until a sentence
//! happens to exercise a broken rule at runtime — exactly the failure mode
//! NILE (Yu & Cai 2013) calls out for clinical IE dictionaries.
//!
//! This crate is a compiler-front-end-style diagnostics engine over those
//! assets: [`analyze_assets`] runs an ordered battery of checks, each
//! emitting structured [`Diagnostic`]s with a stable code (`CMR-D012`), a
//! severity, the asset path and span, a message and a suggested fix. The
//! assets are compiled-in constants, so the battery runs where they
//! change, not in every process that uses them:
//!
//! * the `cmr lint` CLI subcommand (human, `--format json`, `--format
//!   sarif`, `--deny warnings` exit codes);
//! * the tier-1 test and the CI job that run `cmr lint --deny warnings`
//!   on the committed assets.
//!
//! ```
//! use cmr_analyze::{analyze_assets, Severity};
//!
//! let report = analyze_assets();
//! // The committed assets must be clean at Warning-or-worse; Notes are
//! // advisory (deliberate-but-suspicious patterns, documented per check).
//! assert_eq!(report.errors() + report.warnings(), 0, "{}", report.render_human(false));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![deny(clippy::unwrap_used)]

pub mod checks;
mod render;

use serde::{Serialize, Value};

/// How bad a finding is.
///
/// `Error` findings describe assets that will panic or misbehave at
/// runtime; `cmr lint` fails on them at any `--deny` level. `Warning`
/// findings are asset bugs (dead rules, shadowed entries) that silently
/// weaken extraction; `cmr lint --deny warnings` turns them into a
/// failing exit.
/// `Note` findings flag deliberate-but-suspicious patterns and never fail
/// a build.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Severity {
    /// Advisory: suspicious but possibly deliberate.
    Note,
    /// An asset bug that silently weakens extraction.
    Warning,
    /// An asset defect that breaks extraction at runtime.
    Error,
}

impl Severity {
    /// Lower-case label used in every output format.
    pub fn label(self) -> &'static str {
        match self {
            Severity::Note => "note",
            Severity::Warning => "warning",
            Severity::Error => "error",
        }
    }
}

impl std::fmt::Display for Severity {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

impl Serialize for Severity {
    fn to_value(&self) -> Value {
        Value::String(self.label().to_string())
    }
}

/// One structured finding.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct Diagnostic {
    /// Stable diagnostic code (`"CMR-D010"`). Codes are never reused.
    pub code: &'static str,
    /// Severity of the finding.
    pub severity: Severity,
    /// Workspace-relative path of the asset's source file.
    pub asset: &'static str,
    /// Where in the asset: table name, entry, class, or tree path.
    pub span: String,
    /// Human-readable statement of the defect.
    pub message: String,
    /// Suggested fix, when one is mechanical enough to state.
    pub fix: Option<String>,
}

impl Diagnostic {
    /// Creates a diagnostic without a suggested fix.
    pub fn new(
        code: &'static str,
        severity: Severity,
        asset: &'static str,
        span: impl Into<String>,
        message: impl Into<String>,
    ) -> Diagnostic {
        Diagnostic {
            code,
            severity,
            asset,
            span: span.into(),
            message: message.into(),
            fix: None,
        }
    }

    /// Attaches a suggested fix.
    pub fn with_fix(mut self, fix: impl Into<String>) -> Diagnostic {
        self.fix = Some(fix.into());
        self
    }
}

/// A completed analysis run.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct Report {
    /// All findings, in deterministic order (asset, code, span, message).
    pub diagnostics: Vec<Diagnostic>,
}

impl Report {
    /// Builds a report from raw findings, sorting them into the canonical
    /// deterministic order.
    pub fn from_diagnostics(mut diagnostics: Vec<Diagnostic>) -> Report {
        diagnostics.sort_by(|a, b| {
            (a.asset, a.code, &a.span, &a.message).cmp(&(b.asset, b.code, &b.span, &b.message))
        });
        Report { diagnostics }
    }

    /// Number of findings at exactly `severity`.
    pub fn count(&self, severity: Severity) -> usize {
        self.diagnostics
            .iter()
            .filter(|d| d.severity == severity)
            .count()
    }

    /// Number of `Error` findings.
    pub fn errors(&self) -> usize {
        self.count(Severity::Error)
    }

    /// Number of `Warning` findings.
    pub fn warnings(&self) -> usize {
        self.count(Severity::Warning)
    }

    /// Number of `Note` findings.
    pub fn notes(&self) -> usize {
        self.count(Severity::Note)
    }

    /// True when the report has no finding at `deny` severity or worse.
    pub fn passes(&self, deny: Severity) -> bool {
        self.diagnostics.iter().all(|d| d.severity < deny)
    }

    /// Deterministic JSON rendering: the same assets always produce a
    /// byte-identical report (pinned by proptest).
    pub fn to_json(&self) -> String {
        render::json(self)
    }

    /// SARIF 2.1.0 rendering for code-scanning UIs.
    pub fn to_sarif(&self) -> String {
        render::sarif(self)
    }

    /// Human-readable rendering, optionally ANSI-colored.
    pub fn render_human(&self, color: bool) -> String {
        render::human(self, color)
    }
}

/// Metadata for one check, used for SARIF rule tables and `cmr lint
/// --explain`-style docs.
#[derive(Debug, Clone, Copy)]
pub struct CheckInfo {
    /// The stable code.
    pub code: &'static str,
    /// Short kebab-case name.
    pub name: &'static str,
    /// One-line description of what the check finds.
    pub summary: &'static str,
}

/// Every diagnostic code this crate can emit, in code order.
pub fn registry() -> &'static [CheckInfo] {
    &[
        CheckInfo {
            code: "CMR-D001",
            name: "dict-expr-invalid",
            summary: "a dictionary class expression fails to parse or compile",
        },
        CheckInfo {
            code: "CMR-D002",
            name: "dict-unmated-connector",
            summary: "a connector has no possible mate anywhere in the dictionary",
        },
        CheckInfo {
            code: "CMR-D003",
            name: "dict-shadowed-disjunct",
            summary: "two disjuncts of a class normalize to the same shape (the costlier is dead)",
        },
        CheckInfo {
            code: "CMR-D004",
            name: "dict-undefined-class",
            summary: "a word or tag row references a class the dictionary never defines",
        },
        CheckInfo {
            code: "CMR-D005",
            name: "dict-duplicate-row",
            summary: "a dictionary table defines the same key twice (the later row shadows)",
        },
        CheckInfo {
            code: "CMR-D006",
            name: "dict-empty-class",
            summary: "a class compiles to zero disjuncts, so its words can never link",
        },
        CheckInfo {
            code: "CMR-D007",
            name: "dict-unreachable-class",
            summary: "a class no word row, tag row, or wall ever routes to",
        },
        CheckInfo {
            code: "CMR-D010",
            name: "lexicon-duplicate-entry",
            summary: "a word list contains the same entry twice",
        },
        CheckInfo {
            code: "CMR-D011",
            name: "lexicon-cross-class-entry",
            summary: "a word appears in more than one part-of-speech list",
        },
        CheckInfo {
            code: "CMR-D012",
            name: "lexicon-irregular-conflict",
            summary: "irregular analysis and generation tables disagree about a form",
        },
        CheckInfo {
            code: "CMR-D013",
            name: "lexicon-inflection-roundtrip",
            summary: "a generated inflection re-tokenizes or lemmatizes differently than its base",
        },
        CheckInfo {
            code: "CMR-D014",
            name: "lexicon-abbrev-cycle",
            summary: "the abbreviation table has a duplicate key or an expansion cycle",
        },
        CheckInfo {
            code: "CMR-D020",
            name: "ontology-duplicate-cui",
            summary: "two concepts share a CUI",
        },
        CheckInfo {
            code: "CMR-D021",
            name: "ontology-surface-collision",
            summary: "two concepts share a normalized surface form (the later one is unreachable)",
        },
        CheckInfo {
            code: "CMR-D022",
            name: "ontology-dangling-cui",
            summary: "a predefined checklist references a CUI no concept defines",
        },
        CheckInfo {
            code: "CMR-D023",
            name: "ontology-empty-surface",
            summary: "a surface form normalizes to the empty string",
        },
        CheckInfo {
            code: "CMR-D030",
            name: "spec-empty-range",
            summary: "a numeric spec's valid range contains no values",
        },
        CheckInfo {
            code: "CMR-D031",
            name: "spec-overlapping-ranges",
            summary: "two same-kind specs in one section have overlapping ranges",
        },
        CheckInfo {
            code: "CMR-D032",
            name: "spec-untokenizable-phrase",
            summary: "a keyword phrase re-tokenizes into tokens the matcher can never see",
        },
        CheckInfo {
            code: "CMR-D033",
            name: "spec-dead-filler",
            summary: "a pattern-fallback filler does not survive tokenization, so it never fires",
        },
        CheckInfo {
            code: "CMR-D034",
            name: "spec-salvage-collision",
            summary: "two fields' keyword sets collide under the salvage OCR folding",
        },
        CheckInfo {
            code: "CMR-D035",
            name: "spec-shadowed-negation-trigger",
            summary:
                "a phrase-table entry contains a negation trigger, hiding it from scope detection",
        },
        CheckInfo {
            code: "CMR-D040",
            name: "ml-dead-branch",
            summary: "an ID3 path tests the same feature twice (one side is unreachable)",
        },
        CheckInfo {
            code: "CMR-D041",
            name: "ml-redundant-split",
            summary: "both children of an ID3 split are leaves with the same label",
        },
        CheckInfo {
            code: "CMR-D042",
            name: "ml-unknown-feature",
            summary: "a tree feature can never be produced by the configured feature extractor",
        },
        CheckInfo {
            code: "CMR-S001",
            name: "source-guard-across-io",
            summary: "a Mutex/RwLock guard is held across a channel send/recv or file/socket I/O",
        },
        CheckInfo {
            code: "CMR-S002",
            name: "source-unwrap-in-deny-crate",
            summary:
                "unwrap()/expect() outside #[cfg(test)] in a crate that denies clippy::unwrap_used",
        },
        CheckInfo {
            code: "CMR-S003",
            name: "source-alloc-in-signal-handler",
            summary: "allocation or panic-capable call inside an extern \"C\" signal-handler body",
        },
        CheckInfo {
            code: "CMR-S004",
            name: "source-panic-in-drop",
            summary: "panic-capable call inside an impl Drop body (panic-in-unwind aborts)",
        },
        CheckInfo {
            code: "CMR-S006",
            name: "source-unwrap-on-lock",
            summary: "lock().unwrap() propagates poisoning where the convention is recovery",
        },
        CheckInfo {
            code: "CMR-S007",
            name: "source-guard-dropped-immediately",
            summary: "let _ = …lock() drops the guard at once, leaving an empty critical section",
        },
        CheckInfo {
            code: "CMR-S008",
            name: "source-sleep-under-guard",
            summary: "thread::sleep while a lock guard is live stalls every waiter",
        },
    ]
}

/// Looks up a check by code.
pub fn check_info(code: &str) -> Option<&'static CheckInfo> {
    registry().iter().find(|c| c.code == code)
}

/// Runs the full ordered battery over every committed rule asset in the
/// workspace and returns the findings.
pub fn analyze_assets() -> Report {
    let mut out = Vec::new();
    checks::dict::check(&mut out);
    checks::lexicon::check(&mut out);
    checks::ontology::check(&mut out);
    checks::specs::check(&mut out);
    checks::ml::check(&mut out);
    Report::from_diagnostics(out)
}

/// Runs the source-level concurrency-soundness checks (`CMR-S0xx`) over
/// the workspace's own `.rs` files. Exposed as `cmr lint --code`; the
/// asset battery stays the default.
pub fn analyze_sources() -> Report {
    let files = checks::source::workspace_sources();
    let mut out = Vec::new();
    checks::source::check(&files, &mut out);
    Report::from_diagnostics(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_codes_unique_and_sorted() {
        let codes: Vec<&str> = registry().iter().map(|c| c.code).collect();
        let mut sorted = codes.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(codes, sorted, "registry must be unique and in code order");
    }

    #[test]
    fn severity_ordering() {
        assert!(Severity::Note < Severity::Warning);
        assert!(Severity::Warning < Severity::Error);
    }

    #[test]
    fn report_sorts_deterministically() {
        let a = Diagnostic::new("CMR-D999", Severity::Note, "b.rs", "s", "m");
        let b = Diagnostic::new("CMR-D998", Severity::Error, "a.rs", "s", "m");
        let r1 = Report::from_diagnostics(vec![a.clone(), b.clone()]);
        let r2 = Report::from_diagnostics(vec![b, a]);
        assert_eq!(r1, r2);
        assert_eq!(r1.diagnostics[0].asset, "a.rs");
    }

    #[test]
    fn passes_thresholds() {
        let r = Report::from_diagnostics(vec![Diagnostic::new(
            "CMR-D001",
            Severity::Warning,
            "x",
            "s",
            "m",
        )]);
        assert!(r.passes(Severity::Error));
        assert!(!r.passes(Severity::Warning));
        assert_eq!(r.warnings(), 1);
        assert_eq!(r.errors() + r.notes(), 0);
    }
}
