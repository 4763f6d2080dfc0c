//! # rapida-sparql
//!
//! SPARQL substrate for the RAPIDA workspace: lexer, recursive-descent parser
//! for the analytical-query subset (nested sub-`SELECT`s, aggregates,
//! `GROUP BY`, `FILTER`, `OPTIONAL`), structural analysis (subject-rooted
//! star decomposition, join roles — the Table 1 machinery of the paper), and
//! a direct in-memory reference evaluator used as the correctness oracle for
//! all scale-out engines.
//!
//! ```
//! use rapida_sparql::{parse_query, evaluate};
//! use rapida_rdf::{Graph, Term};
//!
//! let mut g = Graph::new();
//! g.insert_terms(
//!     &Term::iri("http://x/o1"),
//!     &Term::iri("http://x/price"),
//!     &Term::decimal(12.5),
//! );
//! let q = parse_query(
//!     "SELECT (SUM(?p) AS ?total) { ?o <http://x/price> ?p . }",
//! ).unwrap();
//! let result = evaluate(&q, &g);
//! assert_eq!(result.rows.len(), 1);
//! ```

// Library code reports damage with a typed value, never a panic.
#![cfg_attr(
    not(test),
    deny(clippy::unwrap_used, clippy::expect_used, clippy::panic, clippy::unreachable)
)]

pub mod analysis;
pub mod ast;
pub mod eval;
pub mod parser;
pub mod relation;
pub mod token;

pub use analysis::{
    decompose, role_equivalent, AnalysisError, JoinSide, PropKey, Role, StarDecomposition,
    StarJoin, StarPattern,
};
pub use ast::{
    AggFunc, CmpOp, FilterExpr, GroupGraphPattern, PatternElement, PatternTerm, ProjectionItem,
    Query, SelectQuery, TriplePattern, ValueExpr, Var,
};
pub use eval::{evaluate, evaluate_select};
pub use parser::{parse_query, ParseError};
pub use relation::{Cell, Relation};
