//! The four workloads: what set-up builds and what one round does.
//!
//! A round is the unit that is timed: every query of the workload once. Timing
//! single queries instead gives four well-separated latency modes with the
//! median on a mode boundary; a whole round is unimodal.

use crate::inputs::{self, Dataset, Inputs};
use crate::trace::Recorder;
use rapida_core::engines::{HiveMqo, HiveNaive, RapidAnalytics};
use rapida_core::{enumerate_best, extract, AnalyticalQuery, DataCatalog, Family, QueryEngine};
use rapida_core::{PlanError, QueryPlan};
use rapida_mapred::{ClusterModel, Engine, WorkflowMetrics};
use rapida_rdf::Graph;
use rapida_serve::{RequestOutcome, RequestStatus, ServeConfig, ServeLedger, Server};
use rapida_sparql::{parse_query, Relation};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    MgRapida,
    MgHive,
    PlanCosted,
    ServeFit,
}

impl Kind {
    pub const ALL: [Kind; 4] = [
        Kind::MgRapida,
        Kind::MgHive,
        Kind::PlanCosted,
        Kind::ServeFit,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Kind::MgRapida => "mg_rapida",
            Kind::MgHive => "mg_hive",
            Kind::PlanCosted => "plan_costed",
            Kind::ServeFit => "serve_fit",
        }
    }

    fn dataset(self, smoke: bool) -> Dataset {
        match self {
            _ if smoke => Dataset::Tiny,
            Kind::MgRapida | Kind::MgHive => Dataset::Bsbm24k,
            Kind::PlanCosted | Kind::ServeFit => Dataset::Bsbm8k,
        }
    }

    pub fn inputs(self, seed: u64, smoke: bool) -> Result<Inputs, String> {
        let dataset = self.dataset(smoke);
        match self {
            Kind::ServeFit => inputs::serve(dataset, seed, if smoke { 10 } else { 100 }),
            _ => inputs::mg(dataset, seed),
        }
    }

    /// The engine whose results the workload's are checked against at scale,
    /// where the reference evaluator is unusable (> 10 min on bsbm-24k):
    /// always one from the *other* plan family, so a bug in a shared operator
    /// of the measured family cannot hide in both.
    pub fn oracle_engine(self) -> Box<dyn QueryEngine> {
        match self {
            Kind::MgRapida => Box::new(HiveNaive::default()),
            Kind::MgHive | Kind::ServeFit => Box::new(RapidAnalytics::default()),
            Kind::PlanCosted => Box::new(HiveMqo::default()),
        }
    }
}

pub enum Exec {
    /// `Engine::new`: one worker per core, as the `rapida run` CLI does.
    Engine(Box<Engine>),
    Server(Server),
}

/// Everything set-up builds. The graph stays alive for the whole run, as it
/// does in the `rapida` CLI, so peak RSS is the one a user would see.
pub struct State {
    pub graph: Graph,
    pub cat: DataCatalog,
    pub exec: Exec,
}

/// Ingest the N-Triples text and stand up the engine or server.
pub fn setup<R: Recorder>(kind: Kind, inputs: &Inputs, rec: &mut R) -> Result<State, String> {
    let triples = rec
        .span("rdf.parse_ntriples", |_| {
            rapida_rdf::parse_ntriples(&inputs.ntriples)
        })
        .map_err(|e| format!("N-Triples: {e}"))?;
    let graph = rec.span("rdf.encode", |_| {
        let mut g = Graph::new();
        g.insert_term_triples(&triples);
        g
    });
    drop(triples);
    let cat = rec.span("core.catalog_load", |_| DataCatalog::load(&graph));
    let exec = match kind {
        Kind::ServeFit => Exec::Server(Server::over(cat.clone(), ServeConfig::default())),
        _ => Exec::Engine(Box::new(Engine::new(cat.dfs.clone()))),
    };
    Ok(State { graph, cat, exec })
}

/// What one round produced, kept for checking and attribution after the
/// round's timer has stopped.
#[derive(Default)]
pub struct RoundOut {
    /// Per operation: index into `Inputs::queries`, and the relation or why
    /// there is none (plan or workflow error, serve rejection).
    pub results: Vec<(usize, Result<Relation, String>)>,
    /// Metrics of the workflows whose plans this round executed itself.
    pub workflows: Vec<WorkflowMetrics>,
    /// `enumerate_best` candidates explored, and how many of them it dry-ran.
    pub candidates: usize,
    pub dry_runs: usize,
    pub ledger: Option<ServeLedger>,
    /// What the server reported, until [`RoundOut::settle`] moves it into
    /// `results`.
    served: Vec<RequestOutcome>,
}

impl RoundOut {
    /// Turn the server's outcomes into per-operation results. Called after the
    /// round's clock has stopped: this is the client's bookkeeping, and freeing
    /// the report can make the allocator hand the server's freed pages back to
    /// the kernel, ~5 ms that are not the round's.
    pub fn settle(&mut self, inputs: &Inputs) {
        for o in self.served.drain(..) {
            let qi = inputs.queries.iter().position(|q| q.id == o.query_id);
            self.results.push(match (qi, o.status) {
                (None, _) => (0, Err(format!("outcome for unknown query {}", o.query_id))),
                (Some(qi), RequestStatus::Completed { relation }) => (qi, Ok(relation)),
                (Some(qi), RequestStatus::Rejected { reason }) => {
                    (qi, Err(format!("rejected: {reason}")))
                }
            });
        }
    }
}

/// Synthesized job spans are named by the layer that built the job.
pub fn job_class(job_name: &str) -> &'static str {
    if job_name.contains("final-join") {
        "job.final_join"
    } else if job_name.contains("tg-join") {
        "job.tg_join"
    } else if job_name.contains("agg-join") {
        "job.agg_join"
    } else if ["star", "join", "group-agg", "extract", "distinct"]
        .iter()
        .any(|k| job_name.contains(k))
    {
        "job.relops"
    } else {
        "job.other"
    }
}

/// Execute `plan`, drop what it wrote, and return its relation and metrics.
fn execute<R: Recorder>(
    plan: &QueryPlan,
    aq: &AnalyticalQuery,
    cat: &DataCatalog,
    mr: &Engine,
    rec: &mut R,
) -> Result<(Relation, WorkflowMetrics), String> {
    let run = rec.span("core.execute", |_| {
        plan.try_execute(mr, aq, &cat.dict)
            .map_err(|e| format!("workflow: {e}"))
    });
    if let Ok((_, wf)) = &run {
        let jobs: Vec<_> = wf
            .jobs
            .iter()
            .map(|j| (job_class(&j.name), j.wall.as_nanos() as u64))
            .collect();
        rec.children_of_last(&jobs);
    }
    if rec.enabled() && run.is_ok() {
        // `assemble` runs inside `try_execute`, out of sight; decoding the
        // output once more is the only way to see its cost from outside.
        rec.span("core.assemble", |_| {
            std::hint::black_box(plan.assemble(&cat.dfs, aq, &cat.dict))
        });
    }
    rec.span("core.cleanup", |_| {
        plan.cleanup(&cat.dfs);
        cat.dfs.remove(&plan.output_dataset);
    });
    run
}

/// Parse → extract → `make_plan` → execute, as one `op` span.
fn one_query<R: Recorder>(
    sparql: &str,
    cat: &DataCatalog,
    mr: &Engine,
    rec: &mut R,
    out: &mut RoundOut,
    make_plan: impl FnOnce(&AnalyticalQuery, &mut R, &mut RoundOut) -> Result<QueryPlan, PlanError>,
) -> Result<Relation, String> {
    rec.span("op", |rec| {
        let query = rec
            .span("sparql.parse", |_| parse_query(sparql))
            .map_err(|e| format!("parse: {e}"))?;
        let aq = rec
            .span("core.extract", |_| extract(&query))
            .map_err(|e| format!("extract: {e}"))?;
        let plan = make_plan(&aq, rec, out).map_err(|e| format!("plan: {e}"))?;
        let (rel, wf) = execute(&plan, &aq, cat, mr, rec)?;
        out.workflows.push(wf);
        Ok(rel)
    })
}

/// One round: every query of the workload once.
pub fn round<R: Recorder>(kind: Kind, state: &State, inputs: &Inputs, rec: &mut R) -> RoundOut {
    rec.span("round", |rec| round_body(kind, state, inputs, rec))
}

fn round_body<R: Recorder>(kind: Kind, state: &State, inputs: &Inputs, rec: &mut R) -> RoundOut {
    let mut out = RoundOut::default();
    let cat = &state.cat;
    match (&state.exec, kind) {
        (Exec::Server(server), _) => {
            rec.span("serve.enqueue", |_| server.enqueue_traffic(&inputs.traffic));
            let report = rec.span("serve.drain", |_| server.drain());
            out.served = report.outcomes;
            out.ledger = Some(report.ledger);
        }
        (Exec::Engine(mr), Kind::PlanCosted) => {
            let model = ClusterModel::nodes10();
            for (qi, q) in inputs.queries.iter().enumerate() {
                for family in [Family::Hive, Family::Rapid] {
                    let res = one_query(&q.sparql, cat, mr, rec, &mut out, |aq, rec, out| {
                        let best = rec.span("core.enumerate", |_| {
                            enumerate_best(family, aq, cat, &model)
                        })?;
                        out.candidates += best.candidates.len();
                        out.dry_runs += best
                            .candidates
                            .iter()
                            .filter(|c| c.measured_s.is_some())
                            .count();
                        Ok(best.plan)
                    });
                    out.results.push((qi, res));
                }
            }
        }
        (Exec::Engine(mr), _) => {
            let engine: Box<dyn QueryEngine> = match kind {
                Kind::MgHive => Box::new(HiveNaive::default()),
                _ => Box::new(RapidAnalytics::default()),
            };
            for (qi, q) in inputs.queries.iter().enumerate() {
                let res = one_query(&q.sparql, cat, mr, rec, &mut out, |aq, rec, _| {
                    rec.span("core.plan", |_| engine.plan(aq, cat))
                });
                out.results.push((qi, res));
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn job_names_map_to_the_layer_that_built_them() {
        for (name, class) in [
            ("ra4:tg-join1", "job.tg_join"),
            ("RAPIDAnalytics:parallel-agg-join", "job.agg_join"),
            ("RAPIDAnalytics:shared-scan-agg-join", "job.agg_join"),
            ("RAPIDAnalytics:final-join", "job.final_join"),
            ("Hive (Naive):final-join", "job.final_join"),
            ("Hive b0:star ?p2", "job.relops"),
            ("Hive b1:join ?p1 [map-join]", "job.relops"),
            ("Hive b1:group-agg", "job.relops"),
            ("HiveMQO:extract b0", "job.relops"),
            ("HiveMQO:composite-star ?off2 [map-join]", "job.relops"),
            ("something else", "job.other"),
        ] {
            assert_eq!(job_class(name), class, "{name}");
        }
    }
}
