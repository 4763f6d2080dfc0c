//! # rapida-core
//!
//! The paper's primary contribution — algebraic optimization of complex
//! SPARQL analytical queries — plus the three baselines it is evaluated
//! against:
//!
//! * [`aquery`] — the analytical-query IR (grouping blocks + outer join).
//! * [`overlap`] — overlap detection between graph patterns (Defs 3.1/3.2).
//! * [`composite`] — composite graph pattern construction and α-condition
//!   generation (§3, Table 2).
//! * [`filters`] — the conjunctive FILTER subset and its compilation.
//! * [`catalog`] — loaded datasets (both storage layouts + the dictionary).
//! * [`relops`] — relational physical MR operators (scans, joins, map-joins,
//!   group-agg, distinct).
//! * [`plan`] — query plans, the final map-only join, result assembly.
//! * [`rules`] — [`PlanRules`]: family, plan shape and ablation switches in
//!   one value; the paper's four systems are its presets. Also the left-deep
//!   join walk the planners run and the coster prices.
//! * [`engines`] — the one compiler, [`engines::compile`], and the presets
//!   under the paper's names: `HiveNaive`, `HiveMqo`, `RapidPlus`,
//!   `RapidAnalytics`.
//! * [`enumerate`] — cost-based choice among the rules values of one family.
//! * [`rollup`] — grouping sets / ROLLUP / CUBE over one pattern, compiled
//!   to an ordinary [`QueryPlan`] that runs every set in one Agg-Join cycle.
//!
//! ```no_run
//! use rapida_core::{DataCatalog, QueryEngine, engines::RapidAnalytics, extract};
//! use rapida_rdf::Graph;
//! use rapida_sparql::parse_query;
//! use rapida_mapred::Engine;
//!
//! let graph = Graph::new(); // load data here
//! let cat = DataCatalog::load(&graph);
//! let query = parse_query("SELECT (COUNT(?o) AS ?n) { ?s <http://x/p> ?o . }").unwrap();
//! let aq = extract(&query).unwrap();
//! let plan = RapidAnalytics::default().plan(&aq, &cat).unwrap();
//! let mr = Engine::new(cat.dfs.clone());
//! let (result, metrics) = plan.try_execute(&mr, &aq, &cat.dict).unwrap();
//! println!("{} rows in {} cycles", result.len(), metrics.cycles());
//! ```

pub mod aquery;
pub mod batch;
pub mod catalog;
pub mod composite;
pub mod engines;
pub mod enumerate;
pub mod filters;
pub mod overlap;
pub mod plan;
pub mod relops;
pub mod rollup;
pub mod rows;
pub mod rules;

pub use aquery::{extract, AnalyticalQuery, GroupingBlock};
pub use batch::{demux_member_plan, fusion_groups, plan_fused_group, FusedPlan};
pub use catalog::{DataCatalog, LoadConfig};
pub use composite::{build_composite, CompositeOutcome, CompositePattern};
pub use enumerate::{enumerate_best, CandidateReport, Enumerated};
pub use overlap::{graphs_overlap, stars_overlap, GraphOverlap};
pub use plan::{PlanError, QueryEngine, QueryPlan};
pub use rollup::{cube_sets, rollup_sets, GroupingSetsQuery};
pub use rules::{Family, PlanRules};

use rapida_mapred::{Engine, WorkflowMetrics};
use rapida_sparql::Relation;

/// Parse, extract, plan and execute a SPARQL analytical query with one
/// engine. Convenience entry point for examples and benchmarks.
pub fn run_query(
    engine: &dyn QueryEngine,
    sparql: &str,
    cat: &DataCatalog,
    mr: &Engine,
) -> Result<(Relation, WorkflowMetrics, QueryPlan), PlanError> {
    let query = rapida_sparql::parse_query(sparql)
        .map_err(|e| PlanError::Unsupported(format!("parse error: {e}")))?;
    let aq = extract(&query)?;
    let plan = engine.plan(&aq, cat)?;
    let (rel, wf) = plan.try_execute(mr, &aq, &cat.dict).inspect_err(|_| {
        // The caller never sees a failed plan, so drop what its jobs wrote.
        plan.cleanup(&mr.dfs);
        mr.dfs.remove(&plan.output_dataset);
    })?;
    Ok((rel, wf, plan))
}
