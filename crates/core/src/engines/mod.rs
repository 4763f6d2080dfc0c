//! The one plan compiler behind the four query engines the paper compares
//! (§5): [`compile`] resolves a [`PlanRules`] value and a query to a plan
//! [`Shape`] and builds it from the relational ([`hive`]) or NTGA
//! ([`rapid`]) job constructors. `HiveNaive`, `HiveMqo`, `RapidPlus` and
//! `RapidAnalytics` are the four rule presets under the paper's names.

pub mod hive;
pub mod rapid;

use crate::aquery::AnalyticalQuery;
use crate::catalog::DataCatalog;
use crate::composite::{build_composite, CompositeOutcome, CompositePattern};
use crate::plan::{PlanError, QueryEngine, QueryPlan};
use crate::rules::{Family, PlanRules};

/// Reduce-task count of every shuffle cycle the planners build.
pub(crate) const NUM_REDUCERS: usize = 8;

/// The shape of plan a rules value comes to on one query.
#[derive(Debug)]
pub enum Shape {
    /// Every grouping block evaluated on its own.
    PerBlock,
    /// One composite pattern evaluated once for all blocks.
    Composite(CompositePattern),
    /// §2.2: non-overlapping single-star blocks still share one scan — the
    /// union of their covering partitions, aggregated by one generalized
    /// Agg-Join (NTGA only).
    SharedSingleStar,
}

/// Decide the plan shape: the composite rewrite when the rules ask for it
/// and the blocks overlap (Def 3.2), per-block evaluation otherwise. The
/// relational MQO rewriting needs at least two patterns; the NTGA composite
/// of a single block is that block, planned through the same path.
pub fn resolve_shape(rules: &PlanRules, aq: &AnalyticalQuery) -> Result<Shape, PlanError> {
    if !rules.composite || (rules.family == Family::Hive && aq.blocks.len() < 2) {
        return Ok(Shape::PerBlock);
    }
    if let CompositeOutcome::Composite(c) = build_composite(&aq.blocks)? {
        return Ok(Shape::Composite(c));
    }
    if rules.family == Family::Rapid {
        let decs: Vec<_> = aq
            .blocks
            .iter()
            .map(|b| b.decomposition())
            .collect::<Result<_, _>>()?;
        if decs.iter().all(|d| d.stars.len() == 1) {
            return Ok(Shape::SharedSingleStar);
        }
    }
    Ok(Shape::PerBlock)
}

/// Compile `aq` under `rules`.
pub fn compile(
    rules: &PlanRules,
    aq: &AnalyticalQuery,
    cat: &DataCatalog,
) -> Result<QueryPlan, PlanError> {
    compile_shaped(rules, &resolve_shape(rules, aq)?, aq, cat)
}

/// [`compile`] with the shape already resolved (the enumerator resolves it
/// once for all its candidates). Jobs keep the labels of the shape that
/// built them; the plan carries the name of the rules it was asked for.
pub(crate) fn compile_shaped(
    rules: &PlanRules,
    shape: &Shape,
    aq: &AnalyticalQuery,
    cat: &DataCatalog,
) -> Result<QueryPlan, PlanError> {
    let mut plan = match (rules.family, shape) {
        (Family::Hive, Shape::Composite(c)) => hive::plan_composite(rules, aq, c, cat),
        (Family::Hive, _) => hive::plan_per_block(rules, aq, cat),
        (Family::Rapid, Shape::Composite(c)) => rapid::plan_composite(rules, aq, c, cat),
        (Family::Rapid, Shape::SharedSingleStar) => rapid::plan_shared_single_star(rules, aq, cat),
        (Family::Rapid, Shape::PerBlock) => rapid::plan_per_block(rules, aq, cat),
    }?;
    plan.engine = rules.name();
    Ok(plan)
}

/// A rule preset under the paper's system name. (Empty braces, not a unit
/// struct: every caller writes `Name::default()`.)
macro_rules! preset_engine {
    ($(#[$doc:meta])* $name:ident = $preset:ident) => {
        $(#[$doc])*
        #[derive(Debug, Clone, Copy, Default)]
        pub struct $name {}

        impl QueryEngine for $name {
            fn name(&self) -> &'static str {
                PlanRules::$preset().name()
            }

            fn plan(
                &self,
                aq: &AnalyticalQuery,
                cat: &DataCatalog,
            ) -> Result<QueryPlan, PlanError> {
                compile(&PlanRules::$preset(), aq, cat)
            }
        }
    };
}

preset_engine!(
    /// Hive (Naive) — [`PlanRules::hive_naive`].
    HiveNaive = hive_naive
);
preset_engine!(
    /// Hive (MQO) — [`PlanRules::hive_mqo`].
    HiveMqo = hive_mqo
);
preset_engine!(
    /// RAPID+ — [`PlanRules::rapid_plus`].
    RapidPlus = rapid_plus
);
preset_engine!(
    /// RAPIDAnalytics — [`PlanRules::rapida`].
    RapidAnalytics = rapida
);

#[cfg(test)]
mod tests {
    use super::*;

    fn shape_of(rules: PlanRules, sparql: &str) -> Shape {
        let q = rapida_sparql::parse_query(sparql).unwrap();
        resolve_shape(&rules, &crate::extract(&q).unwrap()).unwrap()
    }

    #[test]
    fn shapes_where_the_composite_rewrite_does_not_apply() {
        let one_block = "PREFIX ex: <http://x/>
             SELECT (COUNT(?c) AS ?n) { ?o ex:pr ?p ; ex:pc ?c . ?p ex:pf ?f . }";
        // MQO needs two patterns; the NTGA composite of one block is the block.
        assert!(matches!(
            shape_of(PlanRules::hive_mqo(), one_block),
            Shape::PerBlock
        ));
        assert!(matches!(
            shape_of(PlanRules::rapida(), one_block),
            Shape::Composite(_)
        ));

        let disjoint_single_stars = "PREFIX ex: <http://x/>
             SELECT ?nA ?nB {
               { SELECT (COUNT(?c) AS ?nA) { ?o ex:pr ?p ; ex:pc ?c . } }
               { SELECT (COUNT(?f2) AS ?nB) { ?p2 ex:pf ?f2 . } }
             }";
        assert!(matches!(
            shape_of(PlanRules::rapida(), disjoint_single_stars),
            Shape::SharedSingleStar
        ));
        assert!(matches!(
            shape_of(PlanRules::hive_mqo(), disjoint_single_stars),
            Shape::PerBlock
        ));

        // Block 0 has a join: no shared single-star scan.
        let disjoint_with_a_join = "PREFIX ex: <http://x/>
             SELECT ?nA ?nB {
               { SELECT (COUNT(?c) AS ?nA) { ?o ex:pr ?p ; ex:pc ?c . ?p ex:pf ?f . } }
               { SELECT (COUNT(?f2) AS ?nB) { ?p2 ex:pf ?f2 . } }
             }";
        assert!(matches!(
            shape_of(PlanRules::rapida(), disjoint_with_a_join),
            Shape::PerBlock
        ));
    }
}
