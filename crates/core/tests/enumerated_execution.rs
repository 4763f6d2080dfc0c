//! Executing the plan [`enumerate_best`] returns answers as a fresh run of
//! that plan does: the same relation, and job by job the same counters. Only
//! the clocks may differ (`wall`, busy times, `steals`), and `merge_shards`,
//! which counts the key-range shards the reduce merge was cut into for the
//! engine's worker count. Enumerating alone leaves the DFS as it found it:
//! every dry run drops what it wrote.
//!
//! On a plain engine the chosen plan replays the dry run that priced it: no
//! task runs, so every clock reads 0 and no broadcast side is built. Any
//! engine or DFS a dry run does not stand for runs the plan instead: one
//! with a fault plan, a deadline or a scan cache, a DFS on which a stored
//! table the plan reads was stored again, and another catalog's DFS.

use rapida_core::{enumerate_best, extract, AnalyticalQuery, DataCatalog, Enumerated, Family, QueryPlan};
use rapida_datagen::{generate_bsbm, query, BsbmConfig};
use rapida_mapred::{
    ClusterModel, Dataset, Engine, FaultPlan, JobDeadline, JobMetrics, ResiliencePolicy, ScanCache,
    WorkflowError, WorkflowMetrics,
};
use rapida_sparql::parse_query;
use std::time::Duration;

const QUERIES: [&str; 4] = ["MG1", "MG2", "MG3", "MG4"];
const FAMILIES: [Family; 2] = [Family::Hive, Family::Rapid];

fn aq_of(id: &str) -> AnalyticalQuery {
    extract(&parse_query(&query(id).sparql).expect("parse")).expect("extract")
}

/// A job's counters: its metrics with the clocks and the shard count read 0.
fn counters(m: &JobMetrics) -> String {
    let m = JobMetrics {
        wall: Duration::ZERO,
        map_busy_max_ns: 0,
        map_busy_total_ns: 0,
        reduce_busy_max_ns: 0,
        reduce_busy_total_ns: 0,
        steals: 0,
        merge_shards: 0,
        ..m.clone()
    };
    format!("{m:?}")
}

fn job_counters(wf: &WorkflowMetrics) -> Vec<String> {
    wf.jobs.iter().map(counters).collect()
}

/// Did a task run: does any job's clock read more than 0?
fn ran(wf: &WorkflowMetrics) -> bool {
    wf.jobs.iter().any(|j| {
        j.wall > Duration::ZERO
            || j.map_busy_max_ns + j.map_busy_total_ns + j.reduce_busy_max_ns + j.reduce_busy_total_ns > 0
            || j.steals > 0
            || j.merge_shards > 0
    })
}

fn best(family: Family, aq: &AnalyticalQuery, cat: &DataCatalog) -> Enumerated {
    enumerate_best(family, aq, cat, &ClusterModel::nodes10()).expect("a plan")
}

/// Execute `plan` on `mr`, then drop what it wrote from `mr`'s DFS.
fn execute(plan: &QueryPlan, mr: &Engine, aq: &AnalyticalQuery, cat: &DataCatalog) -> (Vec<String>, WorkflowMetrics) {
    let run = plan.try_execute(mr, aq, &cat.dict);
    plan.cleanup(&mr.dfs);
    mr.dfs.remove(&plan.output_dataset);
    let (rel, wf) = run.expect("it runs");
    (rel.canonicalized(&cat.dict), wf)
}

/// The stored tables `plan` reads: every job input and broadcast side that
/// no job of the plan writes. The flag is set for a table read only as a
/// broadcast side.
fn stored_tables(plan: &QueryPlan) -> Vec<(String, bool)> {
    let jobs: Vec<_> = plan.jobs.iter().chain(plan.final_job.iter()).collect();
    let written = |name: &String| jobs.iter().any(|j| &j.output == name);
    let inputs: Vec<String> = jobs.iter().flat_map(|j| j.inputs.clone()).filter(|n| !written(n)).collect();
    let mut tables: Vec<(String, bool)> = inputs.iter().map(|n| (n.clone(), false)).collect();
    for side in jobs.iter().flat_map(|j| j.mapper.side_inputs()) {
        if !written(&side) && !inputs.contains(&side) {
            tables.push((side, true));
        }
    }
    tables.sort();
    tables.dedup();
    tables
}

/// An engine that never replays a kept answer: its deadline is never
/// blown, but an engine with a deadline always runs the workflow.
fn never_blown(cat: &DataCatalog) -> Engine {
    let deadline = JobDeadline::new(ClusterModel::nodes10(), 1e12);
    Engine::pinned(cat.dfs.clone()).with_resilience(ResiliencePolicy {
        deadline: Some(deadline),
        ..ResiliencePolicy::default()
    })
}

#[test]
fn the_chosen_plan_answers_as_a_fresh_run_of_it() {
    let cat = DataCatalog::load(&generate_bsbm(&BsbmConfig::tiny()));
    let model = ClusterModel::nodes10();
    for id in QUERIES {
        let aq = aq_of(id);
        for family in FAMILIES {
            let best = enumerate_best(family, &aq, &cat, &model).expect("a plan");
            let plan = &best.plan;
            let mut runs = Vec::new();
            for mr in [Engine::pinned(cat.dfs.clone()), never_blown(&cat)] {
                let (rel, wf) = plan.try_execute(&mr, &aq, &cat.dict).expect("it runs");
                plan.cleanup(&cat.dfs);
                cat.dfs.remove(&plan.output_dataset);
                assert!(wf.recovery.is_clean(), "{id} {family:?}: {}", wf.recovery);
                runs.push((rel.canonicalized(&cat.dict), job_counters(&wf)));
            }
            let (chosen, fresh) = (&runs[0], &runs[1]);
            assert!(!chosen.0.is_empty(), "{id} {family:?}: no rows");
            assert_eq!(chosen.0, fresh.0, "{id} {family:?}: answer");
            assert_eq!(chosen.1.len(), plan.cycles(), "{id} {family:?}: one record per job");
            for (job, (a, b)) in chosen.1.iter().zip(&fresh.1).enumerate() {
                assert_eq!(a, b, "{id} {family:?}: job {job}");
            }
        }
    }
}

#[test]
fn enumerating_leaves_the_dfs_as_it_found_it() {
    let cat = DataCatalog::load(&generate_bsbm(&BsbmConfig::tiny()));
    let model = ClusterModel::nodes10();
    let names = cat.dfs.names();
    for id in QUERIES {
        let aq = aq_of(id);
        for family in FAMILIES {
            let best = enumerate_best(family, &aq, &cat, &model).expect("a plan");
            assert!(best.candidates.iter().any(|c| c.measured_s.is_some()));
            assert_eq!(cat.dfs.names(), names, "{id} {family:?}");
        }
    }
}

#[test]
fn on_a_plain_engine_the_chosen_plan_replays_its_dry_run() {
    let cat = DataCatalog::load(&generate_bsbm(&BsbmConfig::tiny()));
    for id in QUERIES {
        let aq = aq_of(id);
        for family in FAMILIES {
            let best = best(family, &aq, &cat);
            let fresh = execute(&best.plan, &never_blown(&cat), &aq, &cat);
            assert!(ran(&fresh.1), "{id} {family:?}: the fresh run ran");
            let builds = cat.dfs.derived_builds();
            let (rel, wf) = execute(&best.plan, &Engine::pinned(cat.dfs.clone()), &aq, &cat);
            assert!(!ran(&wf), "{id} {family:?}: a task ran");
            assert_eq!(cat.dfs.derived_builds(), builds, "{id} {family:?}: a side was built");
            assert_eq!((rel, job_counters(&wf)), (fresh.0, job_counters(&fresh.1)), "{id} {family:?}");
            // A kept answer replays as often as the plan is executed.
            let (_, again) = execute(&best.plan, &Engine::with_workers(cat.dfs.clone(), 1), &aq, &cat);
            assert!(!ran(&again), "{id} {family:?}: a task ran the second time");
        }
    }
}

/// Every plan recovers from killed tasks, and some from aborted jobs.
#[test]
fn a_faulty_engine_runs_the_chosen_plan() {
    let cat = DataCatalog::load(&generate_bsbm(&BsbmConfig::tiny()));
    let mut restarted = 0;
    for id in QUERIES {
        let aq = aq_of(id);
        for family in FAMILIES {
            let best = best(family, &aq, &cat);
            let fresh = execute(&best.plan, &never_blown(&cat), &aq, &cat);
            let mr = Engine::pinned(cat.dfs.clone()).with_faults(FaultPlan::chaotic(3));
            let (rel, wf) = execute(&best.plan, &mr, &aq, &cat);
            assert!(ran(&wf), "{id} {family:?}");
            assert!(wf.total(|j| j.failed_attempts) > 0, "{id} {family:?}");
            restarted += usize::from(!wf.recovery.is_clean());
            assert_eq!(rel, fresh.0, "{id} {family:?}: faults move no answer");
        }
    }
    assert!(restarted > 0, "no workflow recovered from an aborted job");
}

#[test]
fn a_blown_deadline_rejects_the_chosen_plan() {
    let cat = DataCatalog::load(&generate_bsbm(&BsbmConfig::tiny()));
    for id in QUERIES {
        let aq = aq_of(id);
        for family in FAMILIES {
            let best = best(family, &aq, &cat);
            let deadline = JobDeadline::new(ClusterModel::nodes10(), 1e-9);
            let mr = Engine::pinned(cat.dfs.clone()).with_resilience(ResiliencePolicy {
                deadline: Some(deadline),
                ..ResiliencePolicy::default()
            });
            let run = best.plan.try_execute(&mr, &aq, &cat.dict);
            best.plan.cleanup(&cat.dfs);
            cat.dfs.remove(&best.plan.output_dataset);
            let err = run.err().unwrap_or_else(|| panic!("{id} {family:?}: the deadline held"));
            assert!(matches!(err, WorkflowError::DeadlineExhausted { .. }), "{id} {family:?}: {err}");
        }
    }
}

#[test]
fn a_scan_cache_engine_runs_the_chosen_plan() {
    let cat = DataCatalog::load(&generate_bsbm(&BsbmConfig::tiny()));
    for id in QUERIES {
        let aq = aq_of(id);
        for family in FAMILIES {
            let best = best(family, &aq, &cat);
            let fresh = execute(&best.plan, &never_blown(&cat), &aq, &cat);
            let mr = Engine::pinned(cat.dfs.clone()).with_scan_cache(ScanCache::new(1 << 20));
            let (rel, wf) = execute(&best.plan, &mr, &aq, &cat);
            assert!(ran(&wf), "{id} {family:?}");
            assert_eq!((rel, job_counters(&wf)), (fresh.0, job_counters(&fresh.1)), "{id} {family:?}");
        }
    }
}

/// Each stored table a chosen plan reads, stored again: the same bytes give
/// the same answer, an emptied table the answer a fresh run gives over it.
/// Either way the plan runs. Tables read only as broadcast sides count as
/// much as the jobs' inputs.
#[test]
fn storing_a_table_the_plan_reads_again_runs_the_plan() {
    let cat = DataCatalog::load(&generate_bsbm(&BsbmConfig::tiny()));
    let (mut sides, mut moved) = (0, 0);
    for id in QUERIES {
        let aq = aq_of(id);
        for family in FAMILIES {
            let tables = stored_tables(&best(family, &aq, &cat).plan);
            assert!(!tables.is_empty(), "{id} {family:?}");
            for (table, side_only) in tables {
                sides += usize::from(side_only);
                let stored = cat.dfs.peek(&table).expect("a stored table");
                let chosen = best(family, &aq, &cat);
                let answer = execute(&chosen.plan, &never_blown(&cat), &aq, &cat).0;

                cat.dfs.put(&table, stored.clone());
                let (rel, wf) = execute(&chosen.plan, &Engine::pinned(cat.dfs.clone()), &aq, &cat);
                assert!(ran(&wf), "{id} {family:?} {table}: same bytes");
                assert_eq!(rel, answer, "{id} {family:?} {table}: same bytes");

                let chosen = best(family, &aq, &cat);
                cat.dfs.put(&table, Dataset::default());
                let fresh = execute(&chosen.plan, &never_blown(&cat), &aq, &cat).0;
                let (rel, wf) = execute(&chosen.plan, &Engine::pinned(cat.dfs.clone()), &aq, &cat);
                assert!(ran(&wf), "{id} {family:?} {table}: emptied");
                assert_eq!(rel, fresh, "{id} {family:?} {table}: emptied");
                moved += usize::from(rel != answer);
                cat.dfs.put(&table, stored);
            }
        }
    }
    assert!(sides > 0, "no plan reads a stored table only as a broadcast side");
    assert!(moved > 0, "no emptied table moved an answer");
}

/// A plan reads every dataset, broadcast sides included, from the engine
/// that runs it: on a second catalog loaded from the same graph it answers
/// as a fresh run on the catalog it was compiled against, job by job.
#[test]
fn another_catalogs_dfs_runs_the_chosen_plan() {
    let g = generate_bsbm(&BsbmConfig::tiny());
    let (cat, other) = (DataCatalog::load(&g), DataCatalog::load(&g));
    for id in QUERIES {
        let aq = aq_of(id);
        for family in FAMILIES {
            let best = best(family, &aq, &cat);
            let fresh = execute(&best.plan, &never_blown(&cat), &aq, &cat);
            let (rel, wf) = execute(&best.plan, &Engine::pinned(other.dfs.clone()), &aq, &other);
            assert!(ran(&wf), "{id} {family:?}");
            assert!(!rel.is_empty(), "{id} {family:?}: no rows");
            assert_eq!(rel, fresh.0, "{id} {family:?}: answer");
            assert_eq!(job_counters(&wf), job_counters(&fresh.1), "{id} {family:?}");
        }
    }
}
