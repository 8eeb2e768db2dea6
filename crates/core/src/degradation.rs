//! Link-parse failure accounting: what the parser failed on while a
//! record was extracted.
//!
//! Every [`crate::ExtractedRecord`] carries its [`ParseFailureCounts`]
//! next to its per-field `methods`, so batch drivers (and their
//! operators) can see *how* a record was extracted, not just *what* was
//! extracted.

use serde::{Deserialize, Serialize};

/// Why a sentence failed to link-parse — the serializable mirror of
/// [`cmr_linkgram::ParseFailure`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ParseFailureKind {
    /// No words after punctuation stripping.
    Empty,
    /// More words than the parser's `MAX_WORDS` window.
    TooLong,
    /// Some word has no disjunct that could ever link.
    NoDisjuncts,
    /// Disjuncts exist but no planar connected linkage does.
    NoLinkage,
    /// The search was abandoned because the record's deadline passed, not
    /// exhausted.
    Cancelled,
}

impl From<cmr_linkgram::ParseFailure> for ParseFailureKind {
    fn from(failure: cmr_linkgram::ParseFailure) -> ParseFailureKind {
        match failure {
            cmr_linkgram::ParseFailure::Empty => ParseFailureKind::Empty,
            cmr_linkgram::ParseFailure::TooLong { .. } => ParseFailureKind::TooLong,
            cmr_linkgram::ParseFailure::NoDisjuncts => ParseFailureKind::NoDisjuncts,
            cmr_linkgram::ParseFailure::NoLinkage => ParseFailureKind::NoLinkage,
            cmr_linkgram::ParseFailure::Cancelled => ParseFailureKind::Cancelled,
        }
    }
}

/// Link-parse failures observed during one record's extraction, by reason.
/// Only sentences that *mattered* are counted — ones with both a feature
/// mention and an unfilled spec — so the counts measure lost extraction
/// opportunities, not prose the parser was never going to help with.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct ParseFailureCounts {
    /// Sentences empty after punctuation stripping.
    pub empty: u32,
    /// Sentences longer than the parser window.
    pub too_long: u32,
    /// Sentences with an unlinkable word.
    pub no_disjuncts: u32,
    /// Sentences with no planar connected linkage.
    pub no_linkage: u32,
}

impl ParseFailureCounts {
    /// Records one failure.
    pub fn record(&mut self, kind: ParseFailureKind) {
        match kind {
            ParseFailureKind::Empty => self.empty += 1,
            ParseFailureKind::TooLong => self.too_long += 1,
            ParseFailureKind::NoDisjuncts => self.no_disjuncts += 1,
            ParseFailureKind::NoLinkage => self.no_linkage += 1,
            // Not a counter: a cancelled parse ends its record with the
            // deadline error, so its (discarded) counts must keep the
            // serialized shape of successful records.
            ParseFailureKind::Cancelled => {}
        }
    }

    /// Total failures across reasons.
    pub fn total(&self) -> u32 {
        self.empty + self.too_long + self.no_disjuncts + self.no_linkage
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_tally() {
        let mut failures = ParseFailureCounts::default();
        failures.record(ParseFailureKind::NoDisjuncts);
        failures.record(ParseFailureKind::TooLong);
        failures.record(ParseFailureKind::Cancelled);
        assert_eq!(failures.total(), 2);
    }
}
