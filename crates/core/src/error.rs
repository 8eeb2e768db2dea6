//! The crate-level error taxonomy.
//!
//! Library code in this workspace never panics on malformed input: every
//! failure mode is a value. [`CmrError`] is the umbrella type callers that
//! want a single error channel (the CLI, scripted harnesses) can collapse
//! the specific errors into; the extraction APIs themselves keep their
//! precise types ([`crate::BudgetExceeded`],
//! [`crate::ParseFailureKind`]).

use std::fmt;

/// Any failure the extraction system can report.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CmrError {
    /// A per-record extraction budget tripped.
    Budget(crate::BudgetExceeded),
    /// A sentence failed to link-parse (tiered extraction normally absorbs
    /// this; it surfaces only through APIs that expose single parses).
    Parse(crate::ParseFailureKind),
}

impl fmt::Display for CmrError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CmrError::Budget(b) => write!(
                f,
                "extraction budget exceeded after {} sentences",
                b.sentences_done
            ),
            CmrError::Parse(kind) => {
                let reason = match kind {
                    crate::ParseFailureKind::Empty => "sentence empty after stripping",
                    crate::ParseFailureKind::TooLong => "sentence exceeds parser window",
                    crate::ParseFailureKind::NoDisjuncts => "word with no usable disjunct",
                    crate::ParseFailureKind::NoLinkage => "no planar connected linkage",
                    crate::ParseFailureKind::Cancelled => "search cancelled by deadline",
                };
                write!(f, "link parse failed: {reason}")
            }
        }
    }
}

impl std::error::Error for CmrError {}

impl From<crate::BudgetExceeded> for CmrError {
    fn from(b: crate::BudgetExceeded) -> CmrError {
        CmrError::Budget(b)
    }
}

impl From<crate::ParseFailureKind> for CmrError {
    fn from(kind: crate::ParseFailureKind) -> CmrError {
        CmrError::Parse(kind)
    }
}

impl From<cmr_linkgram::ParseFailure> for CmrError {
    fn from(failure: cmr_linkgram::ParseFailure) -> CmrError {
        CmrError::Parse(failure.into())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn displays_and_converts() {
        let e: CmrError = crate::BudgetExceeded {
            sentences_done: 7,
            limit: crate::BudgetLimit::Sentences,
        }
        .into();
        assert!(e.to_string().contains("7 sentences"));
        let e: CmrError = cmr_linkgram::ParseFailure::NoLinkage.into();
        assert_eq!(e, CmrError::Parse(crate::ParseFailureKind::NoLinkage));
        assert!(e.to_string().contains("linkage"));
    }
}
