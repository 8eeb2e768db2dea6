//! # cmr-core — the ICDE 2005 clinical information-extraction system
//!
//! The paper's contribution, on top of the workspace substrates:
//!
//! * [`NumericExtractor`] — numeric fields via link-grammar shortest
//!   distance with the linguistic-pattern fallback (§3.1);
//! * [`MedicalTermExtractor`] — POS-pattern candidates, normalization and
//!   ontology lookup (§3.2);
//! * [`CategoricalExtractor`] — the four-option NLP feature extractor and
//!   ID3 classifier (§3.3), including the numeric-boolean-feature
//!   extension the paper proposes for alcohol use;
//! * [`Pipeline`] — the assembled system of Figure 2, record text in,
//!   structured (serde-serializable) record out;
//! * [`Schema`] — the study's 18-field / 24-attribute task definition.
//!
//! ```
//! use cmr_core::Pipeline;
//!
//! let pipeline = Pipeline::with_default_schema();
//! let out = pipeline.extract("Vitals:  Blood pressure is 144/90, pulse of 84.\n");
//! assert_eq!(out.numeric("pulse").unwrap().to_string(), "84");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// Extraction failures are values (CmrError, BudgetExceeded,
// ParseFailureKind), never unwraps: a library panic would take a whole
// batch-engine worker with it.
#![deny(clippy::unwrap_used)]

mod budget;
mod categorical;
mod degradation;
mod error;
mod negation;
mod numeric;
mod pipeline;
mod salvage;
mod schema;
mod spec;
mod terms;

pub use budget::{BudgetExceeded, BudgetLimit, ExtractBudget};
pub use categorical::{CategoricalExtractor, FeatureExtractor, FeatureOptions};
pub use degradation::{ParseFailureCounts, ParseFailureKind};
pub use error::CmrError;
pub use negation::{negation_breakers, negation_triggers, NegationDetector};
pub use numeric::{
    find_mentions, pattern_fillers, AssociationMethod, Mention, MethodUsed, NumericExtractor,
    NumericHit,
};
pub use pipeline::{ExtractedRecord, Pipeline};
pub use salvage::salvage_fold;
pub use schema::Schema;
// Re-exported so engine-style pools can share one parse cache without a
// direct linkgram dependency.
pub use cmr_linkgram::{SharedCacheStats, SharedParseCache};
pub use spec::{CategoricalFieldSpec, FeatureSpec, TermFieldSpec, ValueKind};
pub use terms::{MedicalTermExtractor, PatternSet, TermHit};
