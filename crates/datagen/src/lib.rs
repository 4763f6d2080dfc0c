//! # rapida-datagen
//!
//! Deterministic synthetic data generators for the three evaluation datasets
//! of the paper, plus the full query catalog (Fig. 7 + Appendix A):
//!
//! * [`bsbm`] — BSBM-like e-commerce data (Table 3 left, Fig. 8 a/b).
//! * [`chem`] — Chem2Bio2RDF-like chemogenomics data (Table 3 right,
//!   Fig. 8c).
//! * [`pubmed`] — PubMed/Bio2RDF-like publication data (Table 4).
//! * [`queries`] — G1–G9, MG1–MG4, MG6–MG18 with Fig. 7 structure metadata.
//! * [`traffic`] — seeded multi-client arrival streams for `rapida serve`.

// Library code reports damage with a typed value, never a panic.
#![cfg_attr(
    not(test),
    deny(clippy::unwrap_used, clippy::expect_used, clippy::panic, clippy::unreachable)
)]

pub mod bsbm;
pub mod chem;
pub mod pubmed;
pub mod queries;
pub mod traffic;

pub use bsbm::{generate as generate_bsbm, BsbmConfig};
pub use chem::{generate as generate_chem, ChemConfig};
pub use pubmed::{generate as generate_pubmed, PubmedConfig};
pub use queries::{catalog, mg_ids, query, try_query, CatalogQuery, Workload};
pub use traffic::{generate as generate_traffic, TrafficConfig, TrafficEvent};
