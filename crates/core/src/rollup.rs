//! OLAP grouping-set extension — the paper's stated future work (§6:
//! "a natural extension of this work is to support more complex OLAP
//! queries on RDF data models").
//!
//! A [`GroupingSetsQuery`] evaluates a whole lattice of groupings (GROUPING
//! SETS / ROLLUP / CUBE) over **one** graph pattern in a **single** Agg-Join
//! cycle: the generalized operator of §4.1 / Fig. 6(b) already evaluates
//! independent aggregations in parallel, and grouping sets are exactly such
//! a family — one `AggJoinSpec` per set, sharing the graph-pattern scan,
//! the join cycles and the aggregation cycle.
//!
//! The plan is an ordinary [`QueryPlan`]: a grouping set is a grouping
//! block of the paper's analytical query ([`GroupingSetsQuery::analytical`])
//! whose pattern every other block shares (full overlap, §3). Its result is
//! one relation in the SQL convention: a column per grouping variable
//! (unbound = `Null` for rolled-up levels, like SQL's NULL) plus the
//! aggregate columns, and a `__set` discriminator column holding the
//! grouping-set index.

use crate::aquery::{AnalyticalQuery, GroupingBlock};
use crate::catalog::DataCatalog;
use crate::engines::rapid::{agg_join_job, block_agg_spec, TgJoinPlanner};
use crate::enumerate::coster::CardTag;
use crate::plan::{all_group_fixups, next_plan_id, OutputKind, PlanError, QueryPlan};
use crate::relops::ScanKind;
use rapida_ntga::AlphaCond;
use rapida_sparql::ast::Var;

/// A grouping-sets query: one pattern block, many grouping levels.
#[derive(Debug, Clone)]
pub struct GroupingSetsQuery {
    /// The graph pattern, filters and aggregate list. `block.group_by` is
    /// ignored; the sets below take its place.
    pub block: GroupingBlock,
    /// The grouping sets (each a list of pattern variables; `[]` = ALL).
    pub sets: Vec<Vec<Var>>,
}

/// The ROLLUP lattice of `vars`: all prefixes, longest first, down to ALL.
pub fn rollup_sets(vars: &[Var]) -> Vec<Vec<Var>> {
    (0..=vars.len())
        .rev()
        .map(|k| vars[..k].to_vec())
        .collect()
}

/// The CUBE lattice of `vars`: every subset, by descending size.
pub fn cube_sets(vars: &[Var]) -> Vec<Vec<Var>> {
    let n = vars.len();
    assert!(n <= 6, "CUBE over more than 6 variables is a mistake");
    let mut sets: Vec<Vec<Var>> = (0..(1usize << n))
        .map(|mask| {
            vars.iter()
                .enumerate()
                .filter(|(i, _)| mask & (1 << i) != 0)
                .map(|(_, v)| v.clone())
                .collect()
        })
        .collect();
    sets.sort_by_key(|s: &Vec<Var>| std::cmp::Reverse(s.len()));
    sets
}

impl GroupingSetsQuery {
    /// The query the plan answers: one block per set (the pattern grouped
    /// by the set), projected to the sets' variables in first-appearance
    /// order, then the aggregate aliases, then `?__set`. A row of one set
    /// leaves the other sets' variables unbound.
    pub fn analytical(&self) -> AnalyticalQuery {
        let mut projection: Vec<Var> = Vec::new();
        for v in self.sets.iter().flatten() {
            if !projection.contains(v) {
                projection.push(v.clone());
            }
        }
        projection.extend(self.block.aggregates.iter().map(|a| a.alias.clone()));
        projection.push(Var::new("__set"));
        let blocks = self.sets.iter().map(|set| GroupingBlock { group_by: set.clone(), ..self.block.clone() });
        AnalyticalQuery { blocks: blocks.collect(), projection }
    }

    /// Compile to a [`QueryPlan`] answering [`Self::analytical`]: the
    /// block's graph-pattern join cycles plus one generalized Agg-Join cycle
    /// carrying a spec per grouping set, all sets writing one dataset, with
    /// the empty-ALL fixup of the `[]` set.
    pub fn plan(&self, cat: &DataCatalog) -> Result<QueryPlan, PlanError> {
        if self.sets.is_empty() {
            return Err(PlanError::Unsupported(
                "grouping-sets query requires at least one set".into(),
            ));
        }
        if self.sets.len() > u8::MAX as usize {
            return Err(PlanError::Unsupported("more than 255 grouping sets".into()));
        }
        let pid = next_plan_id("gs");
        let dec = self.block.decomposition()?;
        let planner = TgJoinPlanner::for_block(cat, &self.block, &dec, pid.clone(), 0, &[], false)?;
        let (mut jobs, joined) = planner.build_join_jobs()?;

        // One AggJoinSpec per set, all in one cycle.
        let aq = self.analytical();
        let agg_specs = (aq.blocks.iter().enumerate())
            .map(|(i, level)| block_agg_spec(cat, level, &dec, i as u8, None, AlphaCond::default()))
            .collect::<Result<Vec<_>, _>>()?;
        let out = format!("{pid}_sets");
        jobs.push(agg_join_job(
            cat,
            &format!("grouping-sets x{}", self.sets.len()),
            CardTag::AggPar,
            agg_specs,
            planner.agg_inputs(joined),
            true,
            &out,
        ));
        // A set variable's key column is its place in the projection.
        let column = |v: &Var| aq.projection.iter().position(|p| p == v);
        let aggs = self.block.aggregates.len();
        let scan = ScanKind::Sets {
            layouts: self.sets.iter().map(|set| set.iter().filter_map(column).collect()).collect(),
            keys: aq.projection.len() - aggs - 1,
            aggs,
        };
        Ok(QueryPlan {
            engine: "GroupingSets",
            plan_id: pid,
            jobs,
            fixups: all_group_fixups(&aq, &vec![out.clone(); aq.blocks.len()]),
            final_job: None,
            output_dataset: out,
            output: OutputKind {
                cols: (0..scan.width()).collect(),
                scan,
            },
            replay: None,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::aquery::extract;
    use rapida_mapred::{Engine, FnMapFactory, InputSrc, JobBuilder, MapOutput, MapTask, WorkflowError};
    use rapida_ntga::AggRec;
    use rapida_rdf::{Graph, Term, TermId};
    use rapida_sparql::{parse_query, Cell, Relation};
    use std::sync::Arc;

    fn iri(s: &str) -> Term {
        Term::iri(format!("http://x/{s}"))
    }

    fn sample_graph() -> Graph {
        let mut g = Graph::new();
        for i in 0..24 {
            let o = iri(&format!("o{i}"));
            g.insert_terms(&o, &iri("f"), &iri(&format!("feat{}", i % 3)));
            g.insert_terms(&o, &iri("c"), &iri(&format!("country{}", i % 2)));
            g.insert_terms(&o, &iri("pc"), &Term::decimal(10.0 * (i % 5) as f64));
        }
        g
    }

    fn block() -> GroupingBlock {
        let q = parse_query(
            "PREFIX ex: <http://x/>
             SELECT ?f ?c (COUNT(?p) AS ?n) (SUM(?p) AS ?s)
             { ?o ex:f ?f ; ex:c ?c ; ex:pc ?p . } GROUP BY ?f ?c",
        )
        .unwrap();
        extract(&q).unwrap().blocks.remove(0)
    }

    #[test]
    fn rollup_sets_are_prefixes() {
        let sets = rollup_sets(&[Var::new("a"), Var::new("b")]);
        assert_eq!(
            sets,
            vec![
                vec![Var::new("a"), Var::new("b")],
                vec![Var::new("a")],
                vec![],
            ]
        );
    }

    #[test]
    fn cube_sets_are_all_subsets() {
        let sets = cube_sets(&[Var::new("a"), Var::new("b")]);
        assert_eq!(sets.len(), 4);
        assert_eq!(sets[0].len(), 2);
        assert!(sets.contains(&vec![]));
        assert!(sets.contains(&vec![Var::new("b")]));
    }

    /// The single-cycle lattice must agree, level by level, with separately
    /// evaluated GROUP BY queries through the reference evaluator.
    #[test]
    fn rollup_agrees_with_separate_groupings() {
        let g = sample_graph();
        let cat = DataCatalog::load(&g);
        let mr = Engine::pinned(cat.dfs.clone());
        let q = GroupingSetsQuery {
            block: block(),
            sets: rollup_sets(&[Var::new("f"), Var::new("c")]),
        };
        let plan = q.plan(&cat).unwrap();
        // Single-star pattern: exactly ONE cycle for the whole lattice.
        assert_eq!(plan.cycles(), 1);
        let (rel, _wf) = plan.try_execute(&mr, &q.analytical(), &cat.dict).expect("plan executes");

        // Compare each level with the reference evaluator.
        let level_queries = [
            (
                0.0,
                "PREFIX ex: <http://x/>
                 SELECT ?f ?c (COUNT(?p) AS ?n) (SUM(?p) AS ?s)
                 { ?o ex:f ?f ; ex:c ?c ; ex:pc ?p . } GROUP BY ?f ?c",
            ),
            (
                1.0,
                "PREFIX ex: <http://x/>
                 SELECT ?f (COUNT(?p) AS ?n) (SUM(?p) AS ?s)
                 { ?o ex:f ?f ; ex:c ?c ; ex:pc ?p . } GROUP BY ?f",
            ),
            (
                2.0,
                "PREFIX ex: <http://x/>
                 SELECT (COUNT(?p) AS ?n) (SUM(?p) AS ?s)
                 { ?o ex:f ?f ; ex:c ?c ; ex:pc ?p . }",
            ),
        ];
        let set_col = rel.col(&Var::new("__set")).unwrap();
        for (set_id, lq) in level_queries {
            let expected = rapida_sparql::evaluate(&parse_query(lq).unwrap(), &g);
            let level_rows: Vec<Vec<Cell>> = rel
                .rows
                .iter()
                .filter(|r| r[set_col] == Cell::Num(set_id))
                .map(|r| {
                    // Project to the level's own columns (drop Null keys
                    // and the discriminator).
                    let mut row = Vec::new();
                    for (i, c) in r.iter().enumerate() {
                        if i == set_col {
                            continue;
                        }
                        if i < 2 && matches!(c, Cell::Null) {
                            continue; // rolled-up key column
                        }
                        row.push(*c);
                    }
                    row
                })
                .collect();
            let got = Relation {
                vars: expected.vars.clone(),
                rows: level_rows,
            };
            assert_eq!(
                got.canonicalized(&g.dict),
                expected.canonicalized(&g.dict),
                "grouping-set level {set_id} disagrees"
            );
        }
    }

    /// CUBE over (f, c) = 4 levels, still one aggregation cycle; row count
    /// is the sum of the level cardinalities.
    #[test]
    fn cube_row_counts() {
        let g = sample_graph();
        let cat = DataCatalog::load(&g);
        let mr = Engine::pinned(cat.dfs.clone());
        let q = GroupingSetsQuery {
            block: block(),
            sets: cube_sets(&[Var::new("f"), Var::new("c")]),
        };
        let plan = q.plan(&cat).unwrap();
        assert_eq!(plan.cycles(), 1);
        let (rel, _) = plan.try_execute(&mr, &q.analytical(), &cat.dict).expect("plan executes");
        // f×c = 6 groups, f = 3, c = 2, ALL = 1.
        assert_eq!(rel.len(), 6 + 3 + 2 + 1);
    }

    /// A job-kill schedule that outlasts the workflow retry budget is the
    /// typed error, carrying the jobs committed before the killed one and
    /// the recovery ledger — not a panic.
    #[test]
    fn exhausted_retry_budget_is_a_typed_error() {
        use rapida_mapred::{FaultPlan, ResiliencePolicy};

        let mut g = sample_graph();
        for i in 0..3 {
            g.insert_terms(&iri(&format!("feat{i}")), &iri("l"), &iri(&format!("label{i}")));
        }
        let q = parse_query(
            "PREFIX ex: <http://x/>
             SELECT ?l (COUNT(?p) AS ?n)
             { ?o ex:f ?f ; ex:pc ?p . ?f ex:l ?l . } GROUP BY ?l",
        )
        .unwrap();
        let cat = DataCatalog::load(&g);
        let q = GroupingSetsQuery {
            block: extract(&q).unwrap().blocks.remove(0),
            sets: rollup_sets(&[Var::new("l")]),
        };
        let plan = q.plan(&cat).unwrap();
        let last = plan.cycles() - 1;
        assert!(last > 0, "the two-star pattern must join before it aggregates");
        let mr = Engine::pinned(cat.dfs.clone())
            .with_faults(FaultPlan {
                abort_job: Some((last, 99)),
                ..FaultPlan::new(0)
            })
            .with_resilience(ResiliencePolicy {
                workflow_attempts: 3,
                ..ResiliencePolicy::default()
            });
        match plan.try_execute(&mr, &q.analytical(), &cat.dict) {
            Err(WorkflowError::RetryBudgetExhausted {
                job_index,
                attempts,
                partial,
                ..
            }) => {
                assert_eq!(job_index, last);
                assert_eq!(attempts, 3);
                assert_eq!(partial.jobs.len(), last, "the join cycles committed");
                assert_eq!(partial.recovery.aborted_job_attempts, 3);
            }
            other => panic!("expected RetryBudgetExhausted, got {:?}", other.map(|(r, _)| r.len())),
        }
    }

    struct Pass;
    impl MapTask for Pass {
        fn map(&mut self, _: InputSrc, record: &[u8], out: &mut MapOutput) {
            out.write(record);
        }
    }

    fn rec(id: u8, key: &[u64], values: &[Option<f64>]) -> AggRec {
        AggRec { id, key: key.to_vec(), values: values.to_vec() }
    }

    /// ROLLUP(f, c) with its aggregation cycle replaced by a job that copies
    /// `records` to the output: the relation, and the records the copying
    /// job's metrics count as skipped.
    fn assembled(records: &[AggRec]) -> (Vec<Vec<Cell>>, u64) {
        let cat = DataCatalog::load(&sample_graph());
        let q = GroupingSetsQuery {
            block: block(),
            sets: rollup_sets(&[Var::new("f"), Var::new("c")]),
        };
        let mut plan = q.plan(&cat).unwrap();
        let mut w = rapida_mapred::DatasetWriter::new(4096);
        let mut buf = Vec::new();
        for r in records {
            buf.clear();
            r.encode(&mut buf);
            w.push(&buf);
        }
        cat.dfs.put("damaged_sets", w.finish());
        plan.jobs = vec![JobBuilder::new("copy")
            .input("damaged_sets")
            .mapper(Arc::new(FnMapFactory(|| Pass)))
            .output(plan.output_dataset.clone())
            .build()];
        let mr = Engine::pinned(cat.dfs.clone());
        let (rel, wf) = plan.try_execute(&mr, &q.analytical(), &cat.dict).expect("the copy runs");
        (rel.rows, wf.jobs[0].corrupt_records_skipped)
    }

    const VALUES: &[Option<f64>] = &[Some(1.0), None];

    /// A record with fewer keys than its set's layout is skipped and
    /// counted; the records around it are kept.
    #[test]
    fn a_record_with_too_few_keys_is_skipped() {
        let (rows, skipped) =
            assembled(&[rec(0, &[7, 8], VALUES), rec(0, &[7], VALUES), rec(1, &[7], VALUES), rec(2, &[], VALUES)]);
        let (t, n) = (|k| Cell::Term(TermId(k)), Cell::Num);
        assert_eq!(
            rows,
            vec![
                vec![t(7), t(8), n(1.0), Cell::Null, n(0.0)],
                vec![t(7), Cell::Null, n(1.0), Cell::Null, n(1.0)],
                vec![Cell::Null, Cell::Null, n(1.0), Cell::Null, n(2.0)],
            ]
        );
        assert_eq!(skipped, 1);
    }

    /// A record with more values than the aggregates, more keys than its
    /// set, or a set id past the last set is skipped and counted, never
    /// read as a wider or shifted row.
    #[test]
    fn an_over_wide_or_unknown_set_record_is_skipped_and_counted() {
        let three = &[Some(1.0), None, Some(5.0)][..];
        let (rows, skipped) = assembled(&[
            rec(0, &[7, 8], three),
            rec(1, &[7, 8], VALUES),
            rec(3, &[], VALUES),
            rec(2, &[], VALUES),
        ]);
        let n = Cell::Num;
        assert_eq!(rows, vec![vec![Cell::Null, Cell::Null, n(1.0), Cell::Null, n(2.0)]]);
        assert_eq!(skipped, 3);
    }

    /// A ROLLUP whose pattern matches nothing still has its ALL row, the
    /// one the reference evaluator gives (COUNT 0, SUM unbound); and the
    /// plan's cleanup with the output's removal leaves none of its
    /// datasets behind.
    #[test]
    fn an_empty_match_keeps_the_all_row_and_leaves_no_dataset() {
        let g = sample_graph();
        // No feature has a country: the two stars never join.
        let text = "PREFIX ex: <http://x/>
             SELECT ?c (COUNT(?p) AS ?n) (SUM(?p) AS ?s)
             { ?o ex:f ?f ; ex:pc ?p . ?f ex:c ?c . } GROUP BY ?c";
        let cat = DataCatalog::load(&g);
        let q = GroupingSetsQuery {
            block: extract(&parse_query(text).unwrap()).unwrap().blocks.remove(0),
            sets: rollup_sets(&[Var::new("c")]),
        };
        let plan = q.plan(&cat).unwrap();
        assert!(plan.cycles() > 1, "the two-star pattern joins before it aggregates");
        assert!(plan.fingerprint().is_some(), "every job is signed");
        let mr = Engine::pinned(cat.dfs.clone());
        let (rel, _) = plan.try_execute(&mr, &q.analytical(), &cat.dict).expect("plan executes");
        let all = rapida_sparql::evaluate(
            &parse_query(
                "PREFIX ex: <http://x/>
                 SELECT (COUNT(?p) AS ?n) (SUM(?p) AS ?s)
                 { ?o ex:f ?f ; ex:pc ?p . ?f ex:c ?c . }",
            )
            .unwrap(),
            &g,
        );
        assert_eq!(all.rows, vec![vec![Cell::Num(0.0), Cell::Null]]);
        let mut row = vec![Cell::Null];
        row.extend_from_slice(&all.rows[0]);
        row.push(Cell::Num(1.0));
        assert_eq!(rel.rows, vec![row]);
        plan.cleanup(&cat.dfs);
        cat.dfs.remove(&plan.output_dataset);
        let left: Vec<String> = cat.dfs.names().into_iter().filter(|n| n.starts_with("gs")).collect();
        assert!(left.is_empty(), "datasets left behind: {left:?}");
    }

    /// The ROLLUP and CUBE relations over `sample_graph`, canonicalised, with
    /// their column order, as `tests/snapshots/rollup_lattice.txt` pins them.
    #[test]
    fn rollup_and_cube_relations_match_the_pin() {
        let g = sample_graph();
        let cat = DataCatalog::load(&g);
        let mr = Engine::pinned(cat.dfs.clone());
        let lattice = [Var::new("f"), Var::new("c")];
        let mut got = String::new();
        for (name, sets) in [("ROLLUP", rollup_sets(&lattice)), ("CUBE", cube_sets(&lattice))] {
            let q = GroupingSetsQuery { block: block(), sets };
            let plan = q.plan(&cat).unwrap();
            let (rel, _) = plan.try_execute(&mr, &q.analytical(), &cat.dict).expect("plan executes");
            got.push_str(&format!("{name} {:?}\n", rel.vars));
            for row in rel.canonicalized(&g.dict) {
                got.push_str(&format!("  {row}\n"));
            }
        }
        let pinned = include_str!("../tests/snapshots/rollup_lattice.txt");
        assert_eq!(got, pinned, "the grouping-set relations moved");
    }

    #[test]
    fn empty_sets_rejected() {
        let cat = DataCatalog::load(&sample_graph());
        let q = GroupingSetsQuery {
            block: block(),
            sets: vec![],
        };
        assert!(q.plan(&cat).is_err());
    }
}
