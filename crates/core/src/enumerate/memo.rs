//! Join-order search over one planning unit's star graph: a tiny memo of
//! star subsets (the Volcano/Cascades "group" idea specialized to the
//! acyclic star-join trees the engines support), plus the cardinality
//! estimates that price them.
//!
//! Everything here is deterministic: star and edge estimates come from the
//! sorted [`rapida_storage::StatsCatalog`], the memo is a `BTreeMap` keyed
//! by sorted star subsets, edges are explored in index order, and ties keep
//! the first (lowest-index) alternative — so the best order is a pure
//! function of (query, statistics).

use crate::catalog::{DataCatalog, MISSING_ID};
use crate::composite::{joins_of, CompositeJoin, CompositePattern, EdgeKey};
use crate::plan::PlanError;
use crate::rules::{left_deep_walk, Attach, Step};
use rapida_rdf::TermId;
use rapida_sparql::analysis::{PropKey, StarDecomposition, StarPattern};
use rapida_sparql::ast::PatternTerm;
use std::borrow::Borrow;
use std::collections::BTreeMap;

/// Estimated size of one star pattern.
#[derive(Debug, Clone, Copy)]
pub struct StarEst {
    /// Distinct subjects satisfying every triple pattern (the star's key
    /// NDV on the subject side).
    pub subjects: f64,
    /// Result rows: subjects × per-subject multiplicity of each
    /// variable-object triple (a subject with two `feature` objects yields
    /// two rows).
    pub rows: f64,
}

/// One join edge of a unit graph, with the key NDV used by the
/// independence-assumption join estimate `rows_l · rows_r / ndv`.
#[derive(Debug, Clone, Copy)]
pub struct UnitEdge {
    /// Left star index.
    pub l: usize,
    /// Right star index.
    pub r: usize,
    /// Estimated distinct join-key values (min over both sides).
    pub key_ndv: f64,
}

/// The logical join graph of one planning unit — a grouping block, or the
/// composite pattern the MQO rewrites build.
#[derive(Debug, Clone)]
pub struct UnitGraph {
    /// Per-star estimates.
    pub stars: Vec<StarEst>,
    /// Join edges, in the planner's edge order (indexes into this vector
    /// are what `join_orders` permutes).
    pub edges: Vec<UnitEdge>,
}

impl UnitGraph {
    /// The unit graph over `stars` joined by `joins`.
    fn new(cat: &DataCatalog, stars: Vec<StarEst>, joins: &[CompositeJoin]) -> UnitGraph {
        let ndv_of = |star: usize, key: &EdgeKey| -> f64 {
            match key {
                EdgeKey::Subject => stars[star].subjects,
                EdgeKey::ObjectOf(p) => pred_of(cat, p)
                    .map(|ps| ps.ndv_objects as f64)
                    .unwrap_or(1.0),
            }
        };
        let edges = joins
            .iter()
            .map(|j| UnitEdge {
                l: j.left_star,
                r: j.right_star,
                key_ndv: ndv_of(j.left_star, &j.left)
                    .min(ndv_of(j.right_star, &j.right))
                    .max(1.0),
            })
            .collect();
        UnitGraph { stars, edges }
    }

    /// Build the unit graph of one block's star decomposition.
    pub fn from_dec(cat: &DataCatalog, dec: &StarDecomposition) -> UnitGraph {
        let stars = dec.stars.iter().map(|s| star_est(cat, s)).collect();
        Self::new(cat, stars, &joins_of(dec))
    }

    /// Estimated rows of joining two relations on a key with `ndv` distinct
    /// values (textbook independence assumption).
    pub fn join_rows(l_rows: f64, r_rows: f64, ndv: f64) -> f64 {
        l_rows * r_rows / ndv.max(1.0)
    }

    /// The join cycles the planners run for this unit under the
    /// `join_orders` entry `order` ([`left_deep_walk`]).
    pub fn walk(&self, order: &[usize]) -> Result<Vec<Step>, PlanError> {
        let ends: Vec<(usize, usize)> = self.edges.iter().map(|e| (e.l, e.r)).collect();
        left_deep_walk(self.stars.len(), order, &ends)
    }

    /// Rows after each join cycle of [`Self::walk`] (`result[k]` = rows of
    /// the intermediate the `k`-th cycle produces).
    pub fn prefix_rows(&self, order: &[usize]) -> Result<Vec<f64>, PlanError> {
        let mut rows = 0.0;
        let steps = self.walk(order)?;
        Ok(steps
            .iter()
            .map(|step| {
                let ndv = self.edges[step.edge].key_ndv;
                rows = match step.attach {
                    Attach::First(l, r) => {
                        Self::join_rows(self.stars[l].rows, self.stars[r].rows, ndv)
                    }
                    Attach::Star(s) => Self::join_rows(rows, self.stars[s].rows, ndv),
                };
                rows
            })
            .collect())
    }

    /// [`Self::best_order`] when it is not the order the planners take by
    /// default — the only case worth a candidate of its own.
    pub fn reorder(&self) -> Option<Vec<usize>> {
        let best = self.best_order()?;
        let default = self.walk(&[]).ok()?;
        (!default.iter().map(|s| s.edge).eq(best.iter().copied())).then_some(best)
    }

    /// The cheapest connected edge order by estimated cumulative
    /// intermediate cardinality, found by dynamic programming over star
    /// subsets. `None` when the unit has fewer than two edges (nothing to
    /// reorder) or the graph is disconnected/cyclic beyond the engines'
    /// left-deep subset.
    pub fn best_order(&self) -> Option<Vec<usize>> {
        if self.edges.len() < 2 {
            return None;
        }

        #[derive(Clone)]
        struct Group {
            cost: f64,
            rows: f64,
            order: Vec<usize>,
        }
        // Memo of explored groups, keyed by the sorted star subset — the
        // deduplication that makes this a memo rather than a plain
        // permutation sweep.
        let mut memo: BTreeMap<Vec<usize>, Group> = BTreeMap::new();

        // Seed: every edge as a first join, in index order.
        for (i, e) in self.edges.iter().enumerate() {
            let rows = Self::join_rows(self.stars[e.l].rows, self.stars[e.r].rows, e.key_ndv);
            let mut key = vec![e.l, e.r];
            key.sort_unstable();
            let cand = Group {
                cost: rows,
                rows,
                order: vec![i],
            };
            match memo.get(&key) {
                Some(g) if g.cost <= cand.cost => {}
                _ => {
                    memo.insert(key, cand);
                }
            }
        }

        // Expand each group with every connecting edge until the full star
        // set is covered. Iterating a BTreeMap snapshot per size keeps the
        // exploration order independent of insertion order.
        for _ in 2..self.stars.len() {
            let snapshot: Vec<(Vec<usize>, Group)> =
                memo.iter().map(|(k, g)| (k.clone(), g.clone())).collect();
            for (key, g) in snapshot {
                for (i, e) in self.edges.iter().enumerate() {
                    if g.order.contains(&i) {
                        continue;
                    }
                    let inside_l = key.binary_search(&e.l).is_ok();
                    let inside_r = key.binary_search(&e.r).is_ok();
                    if inside_l == inside_r {
                        continue; // disconnected or cycle-closing edge
                    }
                    let new = if inside_l { e.r } else { e.l };
                    let rows = Self::join_rows(g.rows, self.stars[new].rows, e.key_ndv);
                    let mut nkey = key.clone();
                    nkey.push(new);
                    nkey.sort_unstable();
                    let mut order = g.order.clone();
                    order.push(i);
                    let cand = Group {
                        cost: g.cost + rows,
                        rows,
                        order,
                    };
                    match memo.get(&nkey) {
                        Some(old) if old.cost <= cand.cost => {}
                        _ => {
                            memo.insert(nkey, cand);
                        }
                    }
                }
            }
        }

        let full: Vec<usize> = (0..self.stars.len()).collect();
        memo.get(&full)
            .filter(|g| g.order.len() == self.edges.len())
            .map(|g| g.order.clone())
    }
}

fn pred_of<'a>(
    cat: &'a DataCatalog,
    key: &PropKey,
) -> Option<&'a rapida_storage::PredStat> {
    let pid = cat.id_of(&key.prop);
    if pid == MISSING_ID {
        return None;
    }
    cat.pstats.pred(TermId(pid))
}

/// Estimate one star from the statistics catalog: subjects = min over the
/// patterns' candidate-subject counts, rows = subjects × the product of
/// variable-object multiplicities. `patterns` are the star's property keys,
/// each with whether its object is a constant.
fn est_of<K: Borrow<PropKey>>(
    cat: &DataCatalog,
    patterns: impl Iterator<Item = (K, bool)>,
) -> StarEst {
    let mut subjects = f64::INFINITY;
    let mut mult = 1.0;
    for (key, const_object) in patterns {
        let key = key.borrow();
        let cand = if let Some(obj) = &key.type_object {
            let oid = cat.id_of(obj);
            if oid == MISSING_ID {
                0.0
            } else {
                cat.pstats.type_count(TermId(oid)) as f64
            }
        } else {
            match pred_of(cat, key) {
                None => 0.0,
                // Constant object: expected subjects carrying that value.
                Some(ps) if const_object => ps.count as f64 / (ps.ndv_objects.max(1) as f64),
                Some(ps) => {
                    mult *= ps.avg_per_subject().max(1.0);
                    ps.ndv_subjects as f64
                }
            }
        };
        subjects = subjects.min(cand);
    }
    if !subjects.is_finite() {
        subjects = cat.pstats.subjects as f64;
    }
    StarEst {
        subjects,
        rows: subjects * mult,
    }
}

/// Estimate one star of a block from its triple patterns.
pub fn star_est(cat: &DataCatalog, star: &StarPattern) -> StarEst {
    let keys = star
        .triples
        .iter()
        .filter_map(|tp| Some((PropKey::of(tp)?, matches!(tp.o, PatternTerm::Term(_)))));
    est_of(cat, keys)
}

/// Estimate composite-star sizes: like [`star_est`] but over the composite
/// primary property keys (the shared scan pattern the MQO rewrites match).
pub fn composite_star_est(cat: &DataCatalog, c: &CompositePattern) -> Vec<StarEst> {
    c.stars
        .iter()
        .map(|cs| est_of(cat, cs.primary.iter().map(|k| (k, false))))
        .collect()
}

/// Build the unit graph of the composite pattern (stars from the primary
/// property intersection, edges from the composite joins).
pub fn unit_from_composite(cat: &DataCatalog, c: &CompositePattern) -> UnitGraph {
    UnitGraph::new(cat, composite_star_est(cat, c), &c.joins)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn chain(rows: &[f64], ndvs: &[f64]) -> UnitGraph {
        // Star i joins star i+1 on edge i.
        UnitGraph {
            stars: rows
                .iter()
                .map(|&r| StarEst {
                    subjects: r,
                    rows: r,
                })
                .collect(),
            edges: ndvs
                .iter()
                .enumerate()
                .map(|(i, &n)| UnitEdge {
                    l: i,
                    r: i + 1,
                    key_ndv: n,
                })
                .collect(),
        }
    }

    fn edges_of(g: &UnitGraph, order: &[usize]) -> Vec<usize> {
        g.walk(order).unwrap().iter().map(|s| s.edge).collect()
    }

    #[test]
    fn default_walk_consumes_first_connecting_edges() {
        let g = chain(&[10.0, 10.0, 10.0], &[10.0, 10.0]);
        assert_eq!(edges_of(&g, &[]), vec![0, 1]);
    }

    /// An order whose prefix is disconnected is priced as it is executed:
    /// on A–B–C–D, `[0, 2, 1]` cannot take edge 2 (C–D) second, the
    /// planners take edge 1 there, and so must the estimate.
    #[test]
    fn a_disconnected_prefix_is_priced_as_executed() {
        let g = chain(&[100.0, 50.0, 40.0, 20.0], &[10.0, 10.0, 4.0]);
        assert_eq!(edges_of(&g, &[0, 2, 1]), vec![0, 1, 2]);
        assert_eq!(g.prefix_rows(&[0, 2, 1]), g.prefix_rows(&[0, 1, 2]));
        let rows = g.prefix_rows(&[0, 1, 2]).unwrap();
        assert_eq!(rows, vec![500.0, 2000.0, 10000.0]);
        // Not a permutation: index order.
        assert_eq!(edges_of(&g, &[0, 0, 1]), vec![0, 1, 2]);
    }

    #[test]
    fn best_order_starts_with_the_most_selective_join() {
        // Edge 1 (stars 1-2) is far more selective than edge 0 (stars 0-1):
        // joining 1-2 first shrinks the intermediate the second join reads.
        let g = UnitGraph {
            stars: vec![
                StarEst {
                    subjects: 1000.0,
                    rows: 1000.0,
                },
                StarEst {
                    subjects: 1000.0,
                    rows: 1000.0,
                },
                StarEst {
                    subjects: 10.0,
                    rows: 10.0,
                },
            ],
            edges: vec![
                UnitEdge {
                    l: 0,
                    r: 1,
                    key_ndv: 2.0,
                },
                UnitEdge {
                    l: 1,
                    r: 2,
                    key_ndv: 1000.0,
                },
            ],
        };
        assert_eq!(g.best_order(), Some(vec![1, 0]));
    }

    #[test]
    fn best_order_is_none_for_single_edge_units() {
        let g = chain(&[10.0, 10.0], &[10.0]);
        assert_eq!(g.best_order(), None);
    }

    #[test]
    fn prefix_rows_follow_the_order() {
        let g = chain(&[100.0, 10.0, 1000.0], &[10.0, 100.0]);
        let rows = g.prefix_rows(&[0, 1]).unwrap();
        assert_eq!(rows.len(), 2);
        assert!((rows[0] - 100.0).abs() < 1e-9); // 100*10/10
        assert!((rows[1] - 1000.0).abs() < 1e-9); // 100*1000/100
    }

    #[test]
    fn memo_dedupes_equivalent_subsets() {
        // A 4-star chain has two seeds reaching {1,2}-adjacent subsets; the
        // memo must still produce a single full-coverage order.
        let g = chain(&[5.0, 5.0, 5.0, 5.0], &[5.0, 5.0, 5.0]);
        let order = g.best_order().expect("connected chain");
        assert_eq!(order.len(), 3);
        let mut sorted = order.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, vec![0, 1, 2]);
    }
}
