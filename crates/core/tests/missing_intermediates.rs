//! A dataset that an earlier job of the same plan writes, and that is gone
//! when it is read, fails the run with `WorkflowError::MissingIntermediate`
//! rather than reading as empty. The final join runs as a continuation of
//! the block jobs, so a block output it reads — its stream input or a
//! broadcast side — counts as the plan's own there too; so does the block
//! output an empty-ALL fixup reads, which would otherwise come back as one
//! synthesized group.

use rapida_core::{extract, DataCatalog, PlanRules, QueryEngine, QueryPlan};
use rapida_datagen::{generate_bsbm, query, BsbmConfig};
use rapida_mapred::{
    DatasetWriter, Engine, InputSrc, JobBuilder, MapOutput, MapTask, MapTaskFactory, SimDfs, WorkflowError,
};
use rapida_sparql::parse_query;
use std::sync::Arc;

/// Passes records through; creating a task removes one dataset.
struct Vandal(String);

struct Pass;
impl MapTask for Pass {
    fn map(&mut self, _: InputSrc, record: &[u8], out: &mut MapOutput) {
        out.write(record);
    }
}

impl MapTaskFactory for Vandal {
    fn create(&self, dfs: &SimDfs) -> Box<dyn MapTask> {
        dfs.remove(&self.0);
        Box::new(Pass)
    }
}

/// MG1 on tiny BSBM as `rules` compile it, with a last block job appended
/// whose task removes the dataset `victim` picks from the final join.
fn plan_losing(rules: &PlanRules, cat: &DataCatalog, victim: impl Fn(&QueryPlan) -> String) -> (QueryPlan, String) {
    let aq = extract(&parse_query(&query("MG1").sparql).expect("parse")).expect("extract");
    let mut plan = rules.plan(&aq, cat).expect("a plan");
    let lost = victim(&plan);
    let mut one = DatasetWriter::new(64);
    one.push(b"x");
    cat.dfs.put("vandal_in", one.finish());
    let vandal = JobBuilder::new("vandal")
        .input("vandal_in")
        .mapper(Arc::new(Vandal(lost.clone())))
        .output("vandal_out")
        .build();
    plan.jobs.push(vandal);
    (plan, lost)
}

fn assert_missing(plan: &QueryPlan, cat: &DataCatalog, lost: &str) {
    match plan.try_run(&Engine::pinned(cat.dfs.clone())) {
        Err(WorkflowError::MissingIntermediate { job, job_index, dataset, partial }) => {
            assert_eq!(dataset, lost);
            match plan.fixups.iter().find(|f| f.dataset == lost) {
                // The fixup reads it first, after every block job committed.
                Some(f) => {
                    assert_eq!((job, job_index), (format!("empty-ALL fixup of block {}", f.block_id), plan.jobs.len()));
                    assert_eq!(partial.jobs.len(), plan.jobs.len());
                }
                // The final join reads it, as the workflow's next job.
                None => {
                    let final_job = plan.final_job.as_ref().expect("a final join");
                    assert_eq!((job.as_str(), job_index), (final_job.name.as_str(), plan.jobs.len()));
                    assert_eq!(partial.jobs.len(), plan.jobs.len(), "the block jobs committed");
                }
            }
        }
        other => panic!("expected {lost} to be missing, got {:?}", other.map(|wf| wf.jobs.len())),
    }
    plan.cleanup(&cat.dfs);
}

/// The datasets of `plan` that its final join or a fixup reads: the
/// stream input, each broadcast side, each fixup's block output.
fn block_reads(plan: &QueryPlan) -> Vec<String> {
    let final_job = plan.final_job.as_ref().expect("MG1 has a final join");
    let sides = final_job.mapper.side_inputs();
    let fixups = plan.fixups.iter().map(|f| f.dataset.clone());
    final_job.inputs.iter().cloned().chain(sides).chain(fixups).collect()
}

#[test]
fn every_block_output_the_tail_reads_missing_is_a_typed_error() {
    let cat = DataCatalog::load(&generate_bsbm(&BsbmConfig::tiny()));
    let (mut sides, mut fixups) = (0, 0);
    for rules in [PlanRules::hive_naive(), PlanRules::rapid_plus()] {
        let (plan, _) = plan_losing(&rules, &cat, |_| String::new());
        let reads = block_reads(&plan).len();
        sides += plan.final_job.as_ref().map_or(0, |j| j.mapper.side_inputs().len());
        fixups += plan.fixups.len();
        for k in 0..reads {
            // Each compilation names its datasets afresh: pick by position.
            let (plan, lost) = plan_losing(&rules, &cat, |p| block_reads(p)[k].clone());
            assert_missing(&plan, &cat, &lost);
        }
    }
    assert!(sides > 0 && fixups > 0, "{sides} sides, {fixups} fixups: every kind of read is covered");
}

#[test]
fn the_same_plan_without_the_loss_runs() {
    let cat = DataCatalog::load(&generate_bsbm(&BsbmConfig::tiny()));
    let (plan, _) = plan_losing(&PlanRules::hive_naive(), &cat, |_| "nothing".into());
    let wf = plan.try_run(&Engine::pinned(cat.dfs.clone())).expect("it runs");
    assert_eq!(wf.jobs.len(), plan.cycles());
}
