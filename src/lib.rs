//! # cmr — Clinical Medical Record information extraction
//!
//! A production-quality Rust reproduction of *"Converting Semi-structured
//! Clinical Medical Records into Information and Knowledge"* (Zhou, Han,
//! Chankai, Prestrud & Brooks, ICDE 2005).
//!
//! The paper extracts three kinds of information from dictated clinical
//! consultation notes:
//!
//! * **numeric fields** — associated with their feature keywords through the
//!   shortest path in a weighted [link-grammar](cmr_linkgram) linkage graph,
//!   with a linguistic-pattern fallback;
//! * **medical terms** — POS-pattern candidates normalized and looked up in a
//!   medical ontology ([`cmr_ontology`]);
//! * **categorical fields** — boolean NLP features classified by an
//!   [ID3 decision tree](cmr_ml).
//!
//! This facade crate re-exports every sub-crate of the workspace so that a
//! downstream user can depend on `cmr` alone.
//!
//! ## Quickstart
//!
//! ```
//! use cmr::prelude::*;
//!
//! // Generate a small synthetic corpus in the paper's Appendix format.
//! let corpus = CorpusBuilder::new().records(5).seed(7).build();
//!
//! // Run the full extraction pipeline on one record.
//! let pipeline = Pipeline::with_default_schema();
//! let extracted = pipeline.extract(&corpus.records[0].text);
//! assert!(extracted.numeric("pulse").is_some());
//! ```

#![forbid(unsafe_code)]
#![deny(clippy::unwrap_used)]

pub use cmr_analyze as analyze;
pub use cmr_bench as bench;
pub use cmr_core as core;
pub use cmr_corpus as corpus;
pub use cmr_engine as engine;
pub use cmr_eval as eval;
pub use cmr_knowledge as knowledge;
pub use cmr_lexicon as lexicon;
pub use cmr_linkgram as linkgram;
pub use cmr_ml as ml;
pub use cmr_ontology as ontology;
pub use cmr_postag as postag;
pub use cmr_serve as serve;
pub use cmr_text as text;

/// Convenience re-exports of the most commonly used types.
pub mod prelude {
    pub use cmr_analyze::{analyze_assets, Diagnostic, Report, Severity};
    pub use cmr_bench::{parse_levels, run_chaos, run_chaos_with, ChaosConfig, ChaosReport};
    pub use cmr_core::{
        CategoricalExtractor, CmrError, ExtractedRecord, FeatureOptions, FeatureSpec,
        MedicalTermExtractor, NumericExtractor, Pipeline, Schema,
    };
    pub use cmr_corpus::{CorpusBuilder, GoldRecord, NoiseConfig, NoiseInjector, SmokingStatus};
    pub use cmr_engine::{
        read_journal, read_quarantine, BatchOutput, DegradationTotals, Engine, EngineConfig,
        EngineError, EngineMetrics, JournalEntry, JournalWriter, QuarantineEntry, RunManifest,
    };
    pub use cmr_eval::{MultiValueScore, PrecisionRecall};
    pub use cmr_lexicon::Lemmatizer;
    pub use cmr_linkgram::{LinkParser, LinkWeights, Linkage};
    pub use cmr_ml::{CrossValidation, Dataset, Id3Tree};
    pub use cmr_ontology::{Ontology, OntologyProfile};
    pub use cmr_postag::PosTagger;
    pub use cmr_serve::{ServeConfig, ServeError, ServeSummary, Server};
    pub use cmr_text::{split_sentences, tokenize, Record, Token};
}
