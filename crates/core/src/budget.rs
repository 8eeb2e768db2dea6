//! Per-record extraction budgets.
//!
//! The link parser is O(n³) in sentence length and a record may contain
//! arbitrarily many sentences, so batch drivers (see `cmr-engine`) bound
//! the work a single record may consume. The step count is checked before
//! each sentence. The deadline is checked there too, and also inside the
//! parser's region search, which abandons a sentence once the deadline
//! passes; the extractor then ends the record with [`BudgetExceeded`]
//! right after that sentence.

use std::time::Instant;

/// Work limits for one record's extraction.
#[derive(Debug, Clone, Copy, Default)]
pub struct ExtractBudget {
    /// Hard wall-clock deadline; checked before and after each sentence
    /// and inside the link parser's search.
    pub deadline: Option<Instant>,
    /// Maximum sentences the numeric extractor may process (the "step"
    /// budget — each step is at most one link parse).
    pub max_sentences: Option<usize>,
}

impl ExtractBudget {
    /// No limits: extraction never returns [`BudgetExceeded`].
    pub const NONE: ExtractBudget = ExtractBudget {
        deadline: None,
        max_sentences: None,
    };

    /// True when no limit is set.
    pub fn is_unlimited(&self) -> bool {
        self.deadline.is_none() && self.max_sentences.is_none()
    }

    /// Returns the error to raise before step `sentences_done`, if any
    /// limit is already exhausted.
    pub fn check(&self, sentences_done: usize) -> Result<(), BudgetExceeded> {
        if self.max_sentences.is_some_and(|max| sentences_done >= max) {
            return Err(BudgetExceeded {
                sentences_done,
                limit: BudgetLimit::Sentences,
            });
        }
        self.check_deadline(sentences_done)
    }

    /// Returns the error to raise once the deadline has passed.
    pub fn check_deadline(&self, sentences_done: usize) -> Result<(), BudgetExceeded> {
        if self.deadline.is_some_and(|d| Instant::now() >= d) {
            return Err(BudgetExceeded {
                sentences_done,
                limit: BudgetLimit::Deadline,
            });
        }
        Ok(())
    }
}

/// Which limit of an [`ExtractBudget`] tripped.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BudgetLimit {
    /// The wall-clock deadline passed.
    Deadline,
    /// The sentence (step) cap was reached.
    Sentences,
}

/// A record exceeded its [`ExtractBudget`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BudgetExceeded {
    /// Sentences fully processed before the budget ran out.
    pub sentences_done: usize,
    /// The limit that tripped.
    pub limit: BudgetLimit,
}

impl std::fmt::Display for BudgetExceeded {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let limit = match self.limit {
            BudgetLimit::Deadline => "deadline",
            BudgetLimit::Sentences => "sentence budget",
        };
        write!(
            f,
            "extraction {limit} exceeded after {} sentence(s)",
            self.sentences_done
        )
    }
}

impl std::error::Error for BudgetExceeded {}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn unlimited_never_trips() {
        assert!(ExtractBudget::NONE.check(usize::MAX - 1).is_ok());
        assert!(ExtractBudget::NONE.is_unlimited());
    }

    #[test]
    fn sentence_cap_trips_at_limit() {
        let b = ExtractBudget {
            max_sentences: Some(3),
            ..ExtractBudget::NONE
        };
        assert!(b.check(2).is_ok());
        assert_eq!(
            b.check(3),
            Err(BudgetExceeded {
                sentences_done: 3,
                limit: BudgetLimit::Sentences
            })
        );
    }

    #[test]
    fn past_deadline_trips() {
        let b = ExtractBudget {
            deadline: Some(Instant::now() - Duration::from_millis(1)),
            ..ExtractBudget::NONE
        };
        assert_eq!(b.check(0).map_err(|e| e.limit), Err(BudgetLimit::Deadline));
        let b = ExtractBudget {
            deadline: Some(Instant::now() + Duration::from_secs(3600)),
            ..ExtractBudget::NONE
        };
        assert!(b.check(0).is_ok());
    }
}
