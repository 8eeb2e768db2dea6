//! # cmr-ontology — embedded medical vocabulary (UMLS substitute)
//!
//! The original system queried UMLS (installed in DB2) by normalized string
//! to decide whether a candidate phrase is a medical term. UMLS is licensed
//! and cannot be redistributed, so this crate embeds a purpose-built
//! vocabulary for the breast-cancer consultation domain with the same lookup
//! discipline: normalize (lemmatize + alphabetize), then exact-match.
//!
//! Completeness *profiles* reproduce the paper's observed failure modes —
//! see [`OntologyProfile`].
//!
//! ```
//! use cmr_ontology::{Ontology, normalize};
//!
//! let onto = Ontology::full();
//! assert_eq!(normalize("high blood pressures"), "blood high pressure");
//! assert_eq!(onto.lookup("high blood pressures").unwrap().preferred, "hypertension");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![deny(clippy::unwrap_used)]

mod concept;
mod data;
mod normalize;
mod ontology;

pub use concept::{Concept, Rarity, SemanticType};
pub use data::{CONCEPTS, PREDEFINED_MEDICAL_CUIS, PREDEFINED_SURGICAL_CUIS};
pub use normalize::{normalize, normalized_words};
pub use ontology::{Ontology, OntologyProfile, ValueSet};
