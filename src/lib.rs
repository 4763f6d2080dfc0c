//! # RAPIDA
//!
//! A from-scratch Rust reproduction of *"Optimization of Complex SPARQL
//! Analytical Queries"* (EDBT 2016): the RAPIDAnalytics system — algebraic
//! optimization of SPARQL analytical queries via composite graph patterns
//! and decoupled grouping-aggregation over the Nested TripleGroup Algebra —
//! together with the three baselines the paper compares against, a
//! MapReduce execution simulator, both storage layouts, synthetic dataset
//! generators and the full evaluated query catalog.
//!
//! This facade crate re-exports the workspace members:
//!
//! | Module | Crate | Contents |
//! |---|---|---|
//! | [`rdf`] | `rapida-rdf` | terms, dictionary, triples, N-Triples |
//! | [`sparql`] | `rapida-sparql` | parser, AST, analysis, reference evaluator |
//! | [`mapred`] | `rapida-mapred` | MapReduce simulator + cluster cost model |
//! | [`storage`] | `rapida-storage` | vertical partitions + triplegroup store |
//! | [`ntga`] | `rapida-ntga` | triplegroups + the paper's operators |
//! | [`core`] | `rapida-core` | overlap, composite patterns, the 4 engines |
//! | [`datagen`] | `rapida-datagen` | BSBM/Chem/PubMed generators + queries |
//! | [`serve`] | `rapida-serve` | batched-MQO serving front end + scan cache |
//!
//! ## Quickstart
//!
//! ```
//! use rapida::prelude::*;
//!
//! // Generate a small BSBM-like dataset and load it into both layouts.
//! let graph = rapida::datagen::generate_bsbm(&rapida::datagen::BsbmConfig::tiny());
//! let cat = DataCatalog::load(&graph);
//! let mr = MrEngine::new(cat.dfs.clone());
//!
//! // Run the paper's MG1 with the paper's engine.
//! let q = rapida::datagen::query("MG1");
//! let engine = RapidAnalytics::default();
//! let (result, metrics, _plan) = run_query(&engine, &q.sparql, &cat, &mr).unwrap();
//! assert_eq!(metrics.cycles(), 3); // the paper's cycle count for MG1
//! assert!(!result.is_empty());
//! ```

pub use rapida_core as core;
pub use rapida_datagen as datagen;
pub use rapida_mapred as mapred;
pub use rapida_ntga as ntga;
pub use rapida_rdf as rdf;
pub use rapida_serve as serve;
pub use rapida_sparql as sparql;
pub use rapida_storage as storage;

/// Common imports for applications.
pub mod prelude {
    pub use rapida_core::engines::{HiveMqo, HiveNaive, RapidAnalytics, RapidPlus};
    pub use rapida_core::{
        extract, run_query, AnalyticalQuery, DataCatalog, PlanError, PlanRules, QueryEngine,
        QueryPlan,
    };
    pub use rapida_mapred::{ClusterModel, Engine as MrEngine, SimDfs, WorkflowMetrics};
    pub use rapida_serve::{ServeConfig, ServeMode, ServeReport, Server};
    pub use rapida_rdf::{Dictionary, Graph, Term, TermId, Triple};
    pub use rapida_sparql::{evaluate, parse_query, Cell, Relation};
}
