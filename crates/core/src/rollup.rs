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
//! The result is one relation in the SQL convention: a column per grouping
//! variable (unbound = `Null` for rolled-up levels, like SQL's NULL) plus
//! the aggregate columns, and a `__set` discriminator column holding the
//! grouping-set index.

use crate::aquery::GroupingBlock;
use crate::catalog::DataCatalog;
use crate::engines::rapid::{agg_join_job, block_agg_spec, TgJoinPlanner};
use crate::enumerate::coster::CardTag;
use crate::plan::{next_plan_id, PlanError};
use rapida_mapred::{Engine, WorkflowError, WorkflowMetrics};
use rapida_ntga::{AggRec, AlphaCond};
use rapida_rdf::TermId;
use rapida_sparql::ast::Var;
use rapida_sparql::{Cell, Relation};

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

/// The executable plan of a grouping-sets query.
pub struct GroupingSetsPlan {
    jobs: Vec<rapida_mapred::Job>,
    dataset: String,
    /// Distinct grouping variables, in first-appearance order (the output
    /// key columns).
    pub key_vars: Vec<Var>,
    /// Per set: position of each of its keys within `key_vars`.
    set_layouts: Vec<Vec<usize>>,
    /// Aggregate aliases (output value columns).
    agg_aliases: Vec<Var>,
}

impl GroupingSetsQuery {
    /// Compile to jobs: the block's graph-pattern join cycles plus one
    /// generalized Agg-Join cycle carrying a spec per grouping set.
    pub fn plan(&self, cat: &DataCatalog) -> Result<GroupingSetsPlan, PlanError> {
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

        // Output key layout: union of set variables.
        let mut key_vars: Vec<Var> = Vec::new();
        for set in &self.sets {
            for v in set {
                if !key_vars.contains(v) {
                    key_vars.push(v.clone());
                }
            }
        }
        let set_layouts: Vec<Vec<usize>> = self
            .sets
            .iter()
            .map(|set| {
                set.iter()
                    .map(|v| key_vars.iter().position(|k| k == v).expect("in union"))
                    .collect()
            })
            .collect();

        // One AggJoinSpec per set, all in one cycle.
        let mut agg_specs = Vec::with_capacity(self.sets.len());
        for (i, set) in self.sets.iter().enumerate() {
            let mut level = self.block.clone();
            level.group_by = set.clone();
            agg_specs.push(block_agg_spec(
                cat,
                &level,
                &dec,
                i as u8,
                None,
                AlphaCond::default(),
            )?);
        }
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
        Ok(GroupingSetsPlan {
            jobs,
            dataset: out,
            key_vars,
            set_layouts,
            agg_aliases: self.block.aggregates.iter().map(|a| a.alias.clone()).collect(),
        })
    }
}

impl GroupingSetsPlan {
    /// Number of MR cycles (pattern joins + the single aggregation cycle).
    pub fn cycles(&self) -> usize {
        self.jobs.len()
    }

    /// Execute, assembling the lattice result: columns
    /// `key_vars… aggregates… ?__set`. Runs with workflow-level
    /// checkpoint/recovery: an exhausted retry budget degrades to a typed
    /// [`WorkflowError`] carrying the partial metrics instead of panicking.
    pub fn try_execute(&self, mr: &Engine) -> Result<(Relation, WorkflowMetrics), WorkflowError> {
        let wf = mr.try_run_workflow(&self.jobs)?;
        let mut vars = self.key_vars.clone();
        vars.extend(self.agg_aliases.iter().cloned());
        vars.push(Var::new("__set"));
        let mut rows = Vec::new();
        // One record's keys then values, decoded straight into cells.
        let mut cells = Vec::new();
        if let Some(ds) = mr.dfs.peek(&self.dataset) {
            for rec in ds.iter_records() {
                cells.clear();
                let key = |k| Cell::Term(TermId(k));
                let value = |v: Option<f64>| v.map_or(Cell::Null, Cell::Num);
                let Some((id, keys)) = AggRec::decode_into(rec, &mut cells, key, value) else {
                    continue;
                };
                // A set's record carries a key per column of its layout.
                let layout = self.set_layouts.get(id as usize);
                let Some(layout) = layout.filter(|l| l.len() <= keys) else {
                    continue;
                };
                let mut row = Vec::with_capacity(self.key_vars.len() + cells.len() - keys + 1);
                row.resize(self.key_vars.len(), Cell::Null);
                for (&col, &cell) in layout.iter().zip(&cells) {
                    row[col] = cell;
                }
                row.extend_from_slice(&cells[keys..]);
                row.push(Cell::Num(f64::from(id)));
                rows.push(row);
            }
        }
        Ok((Relation { vars, rows }, wf))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::aquery::extract;
    use rapida_rdf::{Graph, Term};
    use rapida_sparql::parse_query;

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
        let (rel, _wf) = plan.try_execute(&mr).expect("plan executes");

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
        let (rel, _) = plan.try_execute(&mr).expect("plan executes");
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
        let plan = GroupingSetsQuery {
            block: extract(&q).unwrap().blocks.remove(0),
            sets: rollup_sets(&[Var::new("l")]),
        }
        .plan(&cat)
        .unwrap();
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
        match plan.try_execute(&mr) {
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

    /// A record with fewer keys than its set's layout is skipped, as one
    /// that does not decode is; the records around it are kept.
    #[test]
    fn a_record_with_too_few_keys_is_skipped() {
        let cat = DataCatalog::load(&sample_graph());
        let q = GroupingSetsQuery {
            block: block(),
            sets: rollup_sets(&[Var::new("f"), Var::new("c")]),
        };
        let mut plan = q.plan(&cat).unwrap();
        plan.jobs.clear();
        let mut w = rapida_mapred::DatasetWriter::new(4096);
        let mut buf = Vec::new();
        for (id, key) in [(0, vec![7, 8]), (0, vec![7]), (1, vec![7]), (2, vec![])] {
            buf.clear();
            AggRec { id, key, values: vec![Some(1.0), None] }.encode(&mut buf);
            w.push(&buf);
        }
        cat.dfs.put(&plan.dataset, w.finish());
        let (rel, wf) = plan.try_execute(&Engine::pinned(cat.dfs.clone())).expect("no job runs");
        assert!(wf.jobs.is_empty());
        let (t, n) = (|k| Cell::Term(TermId(k)), Cell::Num);
        assert_eq!(
            rel.rows,
            vec![
                vec![t(7), t(8), n(1.0), Cell::Null, n(0.0)],
                vec![t(7), Cell::Null, n(1.0), Cell::Null, n(1.0)],
                vec![Cell::Null, Cell::Null, n(1.0), Cell::Null, n(2.0)],
            ]
        );
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
