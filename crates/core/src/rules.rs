//! Planner rules: the one value that says which plan the compiler builds.
//!
//! The paper's four systems (§5) differ in two decisions — the algebra
//! ([`Family`]) and whether overlapping grouping blocks are rewritten into
//! one composite pattern (`composite`) — plus a handful of ablation
//! switches. [`PlanRules`] holds all of them, the four systems are its
//! presets, and [`crate::engines::compile`] is the only compiler. Whoever
//! wants a cost-based plan calls [`crate::enumerate_best`], which sweeps
//! rules values of one family.

use crate::aquery::AnalyticalQuery;
use crate::catalog::DataCatalog;
use crate::plan::{PlanError, QueryEngine, QueryPlan};

/// The two physical plan families (matching the paper's system pairs).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Family {
    /// Relational plans over vertically partitioned tables: Hive (Naive)
    /// and Hive (MQO).
    Hive,
    /// NTGA triplegroup plans: RAPID+ and RAPIDAnalytics.
    Rapid,
}

/// Everything the compiler may decide differently for one query.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PlanRules {
    /// Which algebra the plan is written in.
    pub family: Family,
    /// Rewrite overlapping blocks into one composite pattern (Hive: the
    /// MQO rewriting \[27\]; Rapid: the paper's composite graph pattern)
    /// instead of evaluating every block on its own. Where the rewrite does
    /// not apply [`crate::engines::resolve_shape`] says what runs instead.
    pub composite: bool,
    /// Hash-based partial aggregation on the map side (Hive's map-side
    /// aggregation; Algorithm 3's map-side combine in the Agg-Join).
    pub map_side_agg: bool,
    /// Use materialized ExtVP semi-join reductions. Hive substitutes them
    /// for full VP scans where a required join partner makes that sound;
    /// Rapid gates a star entering a join by its subject on the matching SO
    /// reduction's subject set. Either way only rows that could not survive
    /// the join are dropped, so query output is the same bytes, and Hive's
    /// map-join decisions keep pricing the base table, so plan shapes (and
    /// the paper's cycle counts) do not move.
    pub use_extvp: bool,
    /// Explicit star-join edge orders, one per planning unit (block index
    /// for per-block plans, unit 0 for a composite). See
    /// [`left_deep_walk`] for how an entry is consumed; a missing entry, or
    /// one that is no permutation of the unit's edge indexes, means index
    /// order. Set by the plan enumerator.
    pub join_orders: Vec<Vec<usize>>,
    /// Hive only. A join becomes a map-only broadcast join when every input
    /// but the largest is (estimated) below this many stored bytes — the
    /// `hive.mapjoin.smalltable.filesize` analog.
    pub map_join_threshold: usize,
    /// Rapid composite plans only. α-join pruning of invalid composite
    /// combinations; off materializes every combination (per-block α at
    /// aggregation time keeps results correct).
    pub alpha_pruning: bool,
    /// Rapid composite plans only. Evaluate the blocks' independent
    /// aggregations in one Agg-Join cycle (Fig. 6(b)); off = one cycle per
    /// block (Fig. 6(a)).
    pub parallel_agg: bool,
}

impl PlanRules {
    /// The preset of one of the paper's four systems.
    pub(crate) const fn preset(family: Family, composite: bool) -> Self {
        PlanRules {
            family,
            composite,
            map_side_agg: true,
            use_extvp: true,
            join_orders: Vec::new(),
            map_join_threshold: 24 * 1024,
            alpha_pruning: true,
            parallel_agg: true,
        }
    }

    /// Hive (Naive): sequential relational evaluation of every block.
    pub const fn hive_naive() -> Self {
        Self::preset(Family::Hive, false)
    }

    /// Hive (MQO): composite pattern via OPTIONAL-style left-outer joins,
    /// materialized, then per-block extraction + aggregation \[27\].
    pub const fn hive_mqo() -> Self {
        Self::preset(Family::Hive, true)
    }

    /// RAPID+: sequential NTGA evaluation of each grouping block \[25,33\].
    pub const fn rapid_plus() -> Self {
        Self::preset(Family::Rapid, false)
    }

    /// RAPIDAnalytics: composite graph pattern with shared scans, α-join
    /// pruning and parallel Agg-Join evaluation.
    pub const fn rapida() -> Self {
        Self::preset(Family::Rapid, true)
    }

    /// The [`Self::join_orders`] entry of planning unit `unit`; empty when
    /// none is set.
    pub fn join_order(&self, unit: usize) -> &[usize] {
        self.join_orders.get(unit).map_or(&[], Vec::as_slice)
    }
}

impl QueryEngine for PlanRules {
    fn name(&self) -> &'static str {
        match (self.family, self.composite) {
            (Family::Hive, false) => "Hive (Naive)",
            (Family::Hive, true) => "Hive (MQO)",
            (Family::Rapid, false) => "RAPID+ (Naive)",
            (Family::Rapid, true) => "RAPIDAnalytics",
        }
    }

    fn plan(&self, aq: &AnalyticalQuery, cat: &DataCatalog) -> Result<QueryPlan, PlanError> {
        crate::engines::compile(self, aq, cat)
    }
}

/// What one join cycle of the left-deep walk joins.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Attach {
    /// The first cycle: the edge's two stars, `(left, right)`.
    First(usize, usize),
    /// A later cycle: the intermediate so far with this new star.
    Star(usize),
}

/// One join cycle of a planning unit: the edge it joins on and what it adds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Step {
    /// Index of the join edge.
    pub edge: usize,
    /// The stars this cycle brings in.
    pub attach: Attach,
}

/// The join cycles of one planning unit, in execution order — the walk both
/// planners run and the coster prices, so the k-th priced join is the k-th
/// executed one.
///
/// `ends[i]` are the two stars of edge `i`; `order` is the unit's
/// [`PlanRules::join_orders`] entry. Edges are offered in `order` when it is
/// a permutation of the edge indexes, in index order otherwise. The first
/// offered edge starts the walk; every later cycle takes the first offered
/// edge that connects the joined set to a new star, so an order with a
/// disconnected prefix still yields a left-deep plan. A one-star unit has no
/// join cycle.
pub fn left_deep_walk(
    n_stars: usize,
    order: &[usize],
    ends: &[(usize, usize)],
) -> Result<Vec<Step>, PlanError> {
    if n_stars == 1 {
        return Ok(Vec::new());
    }
    let n = ends.len();
    let mut seen = vec![false; n];
    let is_permutation = order.len() == n
        && order
            .iter()
            .all(|&i| i < n && !std::mem::replace(&mut seen[i], true));
    let mut remaining: Vec<usize> = if is_permutation {
        order.to_vec()
    } else {
        (0..n).collect()
    };
    let mut joined: Vec<usize> = Vec::new();
    let mut steps = Vec::with_capacity(n);
    while !remaining.is_empty() {
        let pos = if joined.is_empty() {
            0
        } else {
            remaining
                .iter()
                .position(|&e| joined.contains(&ends[e].0) != joined.contains(&ends[e].1))
                .ok_or_else(|| {
                    PlanError::Unsupported(
                        "cyclic star-join graphs are outside the engine subset".into(),
                    )
                })?
        };
        let edge = remaining.remove(pos);
        let (l, r) = ends[edge];
        let attach = if joined.is_empty() {
            joined.extend([l, r]);
            Attach::First(l, r)
        } else {
            let new = if joined.contains(&l) { r } else { l };
            joined.push(new);
            Attach::Star(new)
        };
        steps.push(Step { edge, attach });
    }
    if joined.len() != n_stars {
        return Err(PlanError::Unsupported(
            "disconnected star-join graph".into(),
        ));
    }
    Ok(steps)
}
