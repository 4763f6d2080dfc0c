//! # rapida-serve
//!
//! Concurrent serving front end over the query engines: N simulated client
//! sessions submit analytical queries against one loaded catalog; arrivals
//! are collected into batching windows; each window's batch is deduplicated
//! by canonical query signature, partitioned into MQO fusion groups
//! ([`rapida_core::fusion_groups`]), and executed as shared NTGA workflows
//! whose per-block outputs are demultiplexed back into per-query results.
//! A cross-query [`ScanCache`] persists keyed job outputs across windows.
//!
//! Two serving modes share one timeline model:
//!
//! * **Batched** — window-close batching, signature dedup, MQO fusion,
//!   scan cache. A request's simulated latency is the wait until its
//!   window closes plus the modeled cluster time of the shared jobs of
//!   its group and of every plan finishing before its own.
//! * **Serial** — the one-query-at-a-time baseline: requests are served
//!   in arrival order on the same engine with no batching, no dedup, no
//!   fusion and no cache.
//!
//! All times are *simulated* cluster seconds from [`ClusterModel`], so the
//! whole report — per-request latencies, queries/sec, cache ledger — is a
//! deterministic function of (catalog, traffic, config): two replays of
//! the same traffic produce byte-identical [`ServeLedger`]s. Admission is
//! governed by the engine's [`ResiliencePolicy`]: a per-query deadline
//! turns an over-budget query into a typed [`RequestStatus::Rejected`],
//! never a panic, and never partial rows.

// Library code reports damage with a typed value, never a panic.
#![cfg_attr(
    not(test),
    deny(clippy::unwrap_used, clippy::expect_used, clippy::panic, clippy::unreachable)
)]

use rapida_core::plan::attach_scan_cache_keys;
use rapida_core::{
    demux_member_plan, extract, fusion_groups, plan_fused_group, AnalyticalQuery, DataCatalog,
    PlanRules, QueryEngine, QueryPlan,
};
use rapida_datagen::queries::try_query;
use rapida_datagen::traffic::TrafficEvent;
use rapida_mapred::{
    pool, ClusterModel, Engine, FaultPlan, JobDeadline, ResiliencePolicy, ScanCache, ScanCacheStats,
};
use rapida_rdf::Graph;
use rapida_sparql::{parse_query, Relation};
use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

/// The planner every request goes through, in both modes; its `Debug` form
/// is part of each scan-cache key.
const RULES: PlanRules = PlanRules::hive_mqo();

/// A query's answer with its plan's modeled cluster seconds, or the typed
/// reason its requests are rejected with.
type Run = Result<(Relation, f64), String>;

/// A [`Run`] whose answer is in the drain's answer table ([`Board::store`]):
/// the answer's index there with the modeled seconds, or the reason.
type Stored = Result<(usize, f64), String>;

/// How the server schedules a drained queue.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServeMode {
    /// Window batching + signature dedup + MQO fusion + scan cache.
    Batched,
    /// One query at a time in arrival order; no sharing of any kind.
    Serial,
}

impl ServeMode {
    /// Stable lowercase name (ledger field, CLI flag, bench id).
    pub fn name(&self) -> &'static str {
        match self {
            ServeMode::Batched => "batched",
            ServeMode::Serial => "serial",
        }
    }
}

/// Server configuration. Construct with struct-update syntax over
/// [`ServeConfig::default`].
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Scheduling mode.
    pub mode: ServeMode,
    /// Batching window length, milliseconds of simulated arrival time
    /// (clamped to ≥ 1). A request arriving at `t` is executed when the
    /// window containing `t` closes.
    pub window_ms: u64,
    /// Scan-cache byte budget; 0 disables the cache entirely.
    pub cache_budget_bytes: usize,
    /// Optional per-job simulated deadline (seconds). Installed into the
    /// engine's [`ResiliencePolicy`] with no escalation, so a query whose
    /// jobs cannot meet it is deterministically rejected with a typed
    /// error instead of retried forever.
    pub deadline_s: Option<f64>,
    /// Cluster cost model used for all simulated latencies.
    pub model: ClusterModel,
    /// Optional chaos injection (a [`FaultPlan::chaotic`] seed) for the
    /// isolation suites.
    pub fault_seed: Option<u64>,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            mode: ServeMode::Batched,
            window_ms: 100,
            cache_budget_bytes: 8 << 20,
            deadline_s: None,
            model: ClusterModel::nodes10(),
            fault_seed: None,
        }
    }
}

/// One queued request.
#[derive(Debug, Clone)]
struct Request {
    at_ms: u64,
    client: usize,
    seq: usize,
    query_id: String,
    /// The SPARQL text, or why there is none (rejected with it at drain time).
    text: Result<Arc<str>, String>,
}

/// Terminal state of one request.
#[derive(Debug, Clone)]
pub enum RequestStatus {
    /// The query ran to completion; `relation` is its full result.
    Completed {
        /// The decoded result relation.
        relation: Relation,
    },
    /// The query was rejected (deadline/retry-budget exhaustion, planning
    /// failure, parse error). No rows were delivered — rejection is
    /// all-or-nothing per query, including every member of a fused group
    /// whose shared jobs failed.
    Rejected {
        /// Human-readable typed reason.
        reason: String,
    },
}

/// Per-request outcome, in (at_ms, client, seq) order.
#[derive(Debug, Clone)]
pub struct RequestOutcome {
    /// Submitting client id.
    pub client: usize,
    /// Per-client submission sequence number.
    pub seq: usize,
    /// Arrival time, ms.
    pub at_ms: u64,
    /// Catalog query id (or "adhoc" for raw SPARQL submissions).
    pub query_id: String,
    /// Simulated latency: completion (or rejection) minus arrival, ms.
    pub latency_ms: f64,
    /// Completion or typed rejection.
    pub status: RequestStatus,
}

impl RequestOutcome {
    /// Completed result rows, if any.
    pub fn rows(&self) -> Option<usize> {
        match &self.status {
            RequestStatus::Completed { relation } => Some(relation.len()),
            RequestStatus::Rejected { .. } => None,
        }
    }
}

/// The replayable trace of one request — everything about it except the
/// result relation itself, with the latency fixed to integer nanoseconds
/// so the ledger is `Eq`-comparable across replays.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RequestTrace {
    /// Submitting client id.
    pub client: usize,
    /// Per-client submission sequence number.
    pub seq: usize,
    /// Catalog query id.
    pub query_id: String,
    /// Simulated latency in nanoseconds.
    pub latency_ns: u64,
    /// Result rows, or `None` if rejected.
    pub rows: Option<u64>,
}

/// Per-window counters (batched mode; serial mode records none).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WindowTrace {
    /// Window index (`at_ms / window_ms`).
    pub window: u64,
    /// Requests that arrived in the window.
    pub arrivals: usize,
    /// Distinct query signatures among them.
    pub unique: usize,
    /// Fusion groups the unique queries partitioned into.
    pub groups: usize,
    /// Unique queries that executed inside a ≥2-member fused group.
    pub fused_members: usize,
    /// Shared MQO jobs run for the window's fused groups.
    pub shared_jobs: usize,
    /// Requests rejected in the window.
    pub rejected: usize,
    /// Cumulative scan-cache ledger after the window.
    pub cache: ScanCacheStats,
}

/// The deterministic metrics ledger of one drained traffic replay.
/// Everything in here is a pure function of (catalog, traffic, config);
/// the replay-determinism suite asserts two runs compare equal.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeLedger {
    /// Scheduling mode name ("batched" / "serial").
    pub mode: String,
    /// Batching window, ms.
    pub window_ms: u64,
    /// Per-window counters (empty in serial mode).
    pub windows: Vec<WindowTrace>,
    /// Per-request traces in (at_ms, client, seq) order.
    pub requests: Vec<RequestTrace>,
    /// Completed request count.
    pub completed: usize,
    /// Rejected request count.
    pub rejected: usize,
    /// End of the simulated timeline, ms.
    pub makespan_ms: f64,
    /// Completed queries per simulated second.
    pub qps: f64,
    /// Median simulated latency over completed requests, ms.
    pub p50_ms: f64,
    /// 95th-percentile simulated latency over completed requests, ms.
    pub p95_ms: f64,
    /// Final cumulative scan-cache ledger.
    pub cache: ScanCacheStats,
}

impl ServeLedger {
    /// Scan-cache hit ratio over the whole replay.
    pub fn cache_hit_ratio(&self) -> f64 {
        let total = self.cache.hits + self.cache.misses;
        if total == 0 {
            0.0
        } else {
            self.cache.hits as f64 / total as f64
        }
    }
}

/// A drained replay: the deterministic ledger plus the full per-request
/// outcomes (with result relations) for identity checking.
#[derive(Debug, Clone)]
pub struct ServeReport {
    /// The deterministic metrics ledger.
    pub ledger: ServeLedger,
    /// Per-request outcomes in (at_ms, client, seq) order.
    pub outcomes: Vec<RequestOutcome>,
}

impl ServeReport {
    /// One-paragraph human summary (CLI output).
    pub fn summary(&self) -> String {
        let l = &self.ledger;
        format!(
            "{} mode: {} completed, {} rejected over {:.1} simulated ms \
             ({:.2} q/s, p50 {:.1} ms, p95 {:.1} ms); scan cache {} hits / {} misses / \
             {} evictions ({:.0}% hit ratio)",
            l.mode,
            l.completed,
            l.rejected,
            l.makespan_ms,
            l.qps,
            l.p50_ms,
            l.p95_ms,
            l.cache.hits,
            l.cache.misses,
            l.cache.evictions,
            100.0 * l.cache_hit_ratio(),
        )
    }
}

struct Inner {
    cat: DataCatalog,
    config: ServeConfig,
    cache: Option<ScanCache>,
    queue: Mutex<Vec<Request>>,
}

impl Inner {
    /// The queue, locked. A holder only pushes onto it or takes it whole,
    /// which leave it a whole `Vec` even if the holder panicked, so a
    /// poisoned lock still guards a sound queue.
    fn queue(&self) -> MutexGuard<'_, Vec<Request>> {
        self.queue.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

/// The in-process server: one loaded catalog, one scan cache, one queue.
/// Cloning is cheap and shares all state, which is what [`Session`]
/// handles rely on to submit concurrently from many client threads.
#[derive(Clone)]
pub struct Server {
    inner: Arc<Inner>,
}

/// A per-client submission handle ([`Server::session`]). Sessions are
/// `Send + Sync`: N client threads can submit concurrently; the drain
/// sorts arrivals by `(at_ms, client, seq)`, so scheduling — and the
/// whole ledger — is independent of thread interleaving.
pub struct Session {
    server: Server,
    client: usize,
    seq: AtomicUsize,
}

impl Session {
    /// Submit a raw SPARQL query arriving at `at_ms`.
    pub fn submit(&self, at_ms: u64, sparql: &str) {
        self.push(at_ms, "adhoc", Ok(sparql.into()));
    }

    /// Submit a catalog query by id, arriving at `at_ms`.
    pub fn submit_catalog(&self, at_ms: u64, query_id: &str) {
        self.push(at_ms, query_id, catalog_text(query_id));
    }

    fn push(&self, at_ms: u64, query_id: &str, text: Result<Arc<str>, String>) {
        self.server.inner.queue().push(Request {
            at_ms,
            client: self.client,
            seq: self.seq.fetch_add(1, Ordering::Relaxed),
            query_id: query_id.to_string(),
            text,
        });
    }
}

impl Server {
    /// Load `graph` into a fresh catalog and stand up a server over it.
    pub fn new(graph: &Graph, config: ServeConfig) -> Server {
        Server::over(DataCatalog::load(graph), config)
    }

    /// Stand up a server over an already-loaded catalog.
    pub fn over(cat: DataCatalog, config: ServeConfig) -> Server {
        let cache = match (config.mode, config.cache_budget_bytes) {
            (ServeMode::Serial, _) | (_, 0) => None,
            (ServeMode::Batched, budget) => Some(ScanCache::new(budget as u64)),
        };
        Server {
            inner: Arc::new(Inner {
                cat,
                config,
                cache,
                queue: Mutex::new(Vec::new()),
            }),
        }
    }

    /// Open a submission handle for one simulated client.
    pub fn session(&self, client: usize) -> Session {
        Session {
            server: self.clone(),
            client,
            seq: AtomicUsize::new(0),
        }
    }

    /// Enqueue a pre-generated traffic trace (see
    /// [`rapida_datagen::traffic`]); event sequence numbers are preserved.
    pub fn enqueue_traffic(&self, events: &[TrafficEvent]) {
        // One catalog lookup per distinct id of the call, not per event.
        let mut texts: HashMap<&str, Result<Arc<str>, String>> = HashMap::new();
        let mut q = self.inner.queue();
        for ev in events {
            let text = texts
                .entry(&ev.query_id)
                .or_insert_with(|| catalog_text(&ev.query_id));
            q.push(Request {
                at_ms: ev.at_ms,
                client: ev.client,
                seq: ev.seq,
                query_id: ev.query_id.clone(),
                text: text.clone(),
            });
        }
    }

    /// Current cumulative scan-cache ledger.
    pub fn cache_stats(&self) -> ScanCacheStats {
        self.inner
            .cache
            .as_ref()
            .map(|c| c.stats())
            .unwrap_or_default()
    }

    /// Drain the queue: sort all pending requests by `(at_ms, client,
    /// seq)` and serve them under the configured mode. The scan cache
    /// persists across drains; the queue does not.
    pub fn drain(&self) -> ServeReport {
        let mut reqs: Vec<Request> = std::mem::take(&mut *self.inner.queue());
        reqs.sort_by(|a, b| {
            (a.at_ms, a.client, a.seq).cmp(&(b.at_ms, b.client, b.seq))
        });
        match self.inner.config.mode {
            ServeMode::Batched => self.drain_batched(reqs),
            ServeMode::Serial => self.drain_serial(reqs),
        }
    }

    /// The execution engine: pinned worker count for determinism, shared
    /// scan cache, optional chaos plan, deadline admission.
    fn engine(&self) -> Engine {
        let cfg = &self.inner.config;
        let mut mr = Engine::pinned(self.inner.cat.dfs.clone());
        if let Some(cache) = &self.inner.cache {
            mr = mr.with_scan_cache(cache.clone());
        }
        if let Some(seed) = cfg.fault_seed {
            mr = mr.with_faults(FaultPlan::chaotic(seed));
        }
        if let Some(limit_s) = cfg.deadline_s {
            let mut dl = JobDeadline::new(cfg.model, limit_s);
            dl.escalation = 1.0; // never escalate: reject, don't retry upward
            mr = mr.with_resilience(ResiliencePolicy {
                deadline: Some(dl),
                workflow_attempts: 2,
                ..ResiliencePolicy::default()
            });
        }
        mr
    }

    fn drain_batched(&self, reqs: Vec<Request>) -> ServeReport {
        let cat = &self.inner.cat;
        let cfg = &self.inner.config;
        let window_ms = cfg.window_ms.max(1);
        let mr = self.engine();

        // Window index -> request indexes, in (at_ms, client, seq) order.
        let mut windows: BTreeMap<u64, Vec<usize>> = BTreeMap::new();
        for (i, r) in reqs.iter().enumerate() {
            windows.entry(r.at_ms / window_ms).or_default().push(i);
        }

        let mut front = FrontEnd::default();
        let mut board = Board::new(reqs.len());
        let mut traces = Vec::new();

        for (w, members) in &windows {
            board.clock_ms = board.clock_ms.max(((w + 1) * window_ms) as f64);
            let rejected_before = board.rejected;

            // The window's distinct queries and who asks for each, in arrival order.
            let mut uniq: Vec<(usize, Vec<usize>)> = Vec::new();
            let mut slot_of: HashMap<usize, usize> = HashMap::new();
            for &i in members {
                match front.resolve(&reqs[i].text) {
                    Ok(q) => {
                        let slot = *slot_of.entry(q).or_insert_with(|| {
                            uniq.push((q, Vec::new()));
                            uniq.len() - 1
                        });
                        uniq[slot].1.push(i);
                    }
                    Err(reason) => board.reject(&[i], reason),
                }
            }

            let queries: Vec<AnalyticalQuery> = uniq
                .iter()
                .map(|&(q, _)| front.queries[q].1.clone())
                .collect();
            let groups = fusion_groups(&queries);
            let mut fused_members = 0usize;
            let mut shared_jobs = 0usize;

            for group in &groups {
                if let [u] = group[..] {
                    let (sig, aq) = &front.queries[uniq[u].0];
                    let run = board.store(self.run_solo(&mr, sig, aq));
                    board.settle(&uniq[u].1, &run);
                    continue;
                }
                fused_members += group.len();
                let refs: Vec<&AnalyticalQuery> = group.iter().map(|&u| &queries[u]).collect();
                let group_sig: Vec<&str> = group
                    .iter()
                    .map(|&u| front.queries[uniq[u].0].0.as_str())
                    .collect();
                let shared = plan_fused_group(&refs, &RULES, cat).and_then(|mut fused| {
                    let group_sig = format!("fused|{RULES:?}|{}", group_sig.join("&"));
                    attach_scan_cache_keys(&mut fused.jobs, &fused.plan_id, &group_sig);
                    let wf = mr.try_run_workflow(&fused.jobs).map_err(|e| {
                        rapida_core::PlanError::Unsupported(format!("shared jobs: {e}"))
                    })?;
                    Ok((fused, cfg.model.workflow_time(&wf)))
                });
                match shared {
                    Err(e) => {
                        // All-or-nothing per group: a failed shared workflow
                        // rejects every member — no partial block data ever
                        // reaches a demux.
                        let reason = format!("fused group rejected: {e}");
                        for &u in group {
                            board.reject(&uniq[u].1, &reason);
                        }
                    }
                    Ok((fused, shared_s)) => {
                        shared_jobs += fused.jobs.len();
                        board.clock_ms += shared_s * 1000.0;
                        for (m, &u) in group.iter().enumerate() {
                            let aq = &queries[u];
                            let run = demux_member_plan(&fused, m, aq, RULES.name(), &cat.dfs)
                                .map_err(|e| format!("demux: {e}"))
                                .and_then(|plan| {
                                    self.execute(&mr, &plan, aq)
                                        .map_err(|e| format!("finishing jobs: {e}"))
                                });
                            let run = board.store(run);
                            board.settle(&uniq[u].1, &run);
                        }
                        for ds in fused.intermediate_datasets() {
                            cat.dfs.remove(&ds);
                        }
                    }
                }
            }

            traces.push(WindowTrace {
                window: *w,
                arrivals: members.len(),
                unique: uniq.len(),
                groups: groups.len(),
                fused_members,
                shared_jobs,
                rejected: board.rejected - rejected_before,
                cache: self.cache_stats(),
            });
        }

        self.finish(reqs, board, traces)
    }

    fn drain_serial(&self, reqs: Vec<Request>) -> ServeReport {
        let mr = self.engine();

        // The engine is deterministic: identical queries produce identical
        // metrics and results, so repeated requests replay a memoized run
        // while still being *charged* full one-at-a-time simulated cost.
        // `memo` grows in step with `front.queries`, at a query's first
        // request; the answer itself is in the board's table, once.
        let mut front = FrontEnd::default();
        let mut memo: Vec<Stored> = Vec::new();
        let mut board = Board::new(reqs.len());

        for (i, r) in reqs.iter().enumerate() {
            board.clock_ms = board.clock_ms.max(r.at_ms as f64);
            let q = match front.resolve(&r.text) {
                Ok(q) => q,
                Err(reason) => {
                    board.reject(&[i], reason);
                    continue;
                }
            };
            if q == memo.len() {
                let (sig, aq) = &front.queries[q];
                memo.push(board.store(self.run_solo(&mr, sig, aq)));
            }
            board.settle(&[i], &memo[q]);
        }

        self.finish(reqs, board, Vec::new())
    }

    /// Plan one query by itself and run it. The scan-cache keys are inert on
    /// an engine without a cache (serial mode, a zero budget).
    fn run_solo(&self, mr: &Engine, sig: &str, aq: &AnalyticalQuery) -> Run {
        let mut plan = RULES
            .plan(aq, &self.inner.cat)
            .map_err(|e| format!("planning: {e}"))?;
        let jobs = plan.jobs.iter_mut().chain(plan.final_job.iter_mut());
        attach_scan_cache_keys(jobs, &plan.plan_id, &format!("solo|{RULES:?}|{sig}"));
        self.execute(mr, &plan, aq)
    }

    /// Run a compiled plan and drop what it wrote, whatever the outcome. The
    /// answer comes back with the plan's modeled cluster seconds.
    fn execute(&self, mr: &Engine, plan: &QueryPlan, aq: &AnalyticalQuery) -> Run {
        let cat = &self.inner.cat;
        let out = plan.try_execute(mr, aq, &cat.dict);
        plan.cleanup(&cat.dfs);
        cat.dfs.remove(&plan.output_dataset);
        out.map(|(rel, wf)| (rel, self.inner.config.model.workflow_time(&wf)))
            .map_err(|e| e.to_string())
    }

    /// Hand every request its outcome. The last requester of an answer takes
    /// the table's entry itself; every other one takes a copy, and all the
    /// copies are made in one pool phase ([`copy_answers`]).
    fn finish(&self, reqs: Vec<Request>, board: Board, windows: Vec<WindowTrace>) -> ServeReport {
        let cfg = &self.inner.config;
        let Board {
            clock_ms,
            mut answers,
            slots,
            ..
        } = board;
        // Each answer's last requester; its other requesters are the
        // duplicates, listed in request order, the order copies come back in.
        let mut last = vec![0usize; answers.len()];
        for (i, slot) in slots.iter().enumerate() {
            if let Some((Ok(a), _)) = slot {
                last[*a] = i;
            }
        }
        let duplicates: Vec<usize> = slots
            .iter()
            .enumerate()
            .filter_map(|(i, slot)| match slot {
                Some((Ok(a), _)) if last[*a] != i => Some(*a),
                _ => None,
            })
            .collect();
        let mut copies = copy_answers(&answers, &duplicates);
        let outcomes: Vec<RequestOutcome> = reqs
            .into_iter()
            .zip(slots)
            .enumerate()
            .map(|(i, (r, slot))| {
                // Invariant: `duplicates` lists every request but an answer's
                // last, so `copy_answers` made its copy, in request order.
                #[allow(clippy::expect_used)]
                let (status, done_ms) = match slot {
                    Some((Ok(a), done_ms)) => {
                        let relation = if last[a] == i {
                            std::mem::take(&mut answers[a])
                        } else {
                            copies
                                .next()
                                .expect("one copy per duplicate, in request order")
                        };
                        (RequestStatus::Completed { relation }, done_ms)
                    }
                    Some((Err(reason), done_ms)) => (RequestStatus::Rejected { reason }, done_ms),
                    None => {
                        let reason = "request was never scheduled".to_string();
                        (RequestStatus::Rejected { reason }, 0.0)
                    }
                };
                RequestOutcome {
                    client: r.client,
                    seq: r.seq,
                    at_ms: r.at_ms,
                    query_id: r.query_id,
                    latency_ms: (done_ms - r.at_ms as f64).max(0.0),
                    status,
                }
            })
            .collect();
        let mut lat: Vec<f64> = outcomes
            .iter()
            .filter(|o| matches!(o.status, RequestStatus::Completed { .. }))
            .map(|o| o.latency_ms)
            .collect();
        lat.sort_by(f64::total_cmp);
        let completed = lat.len();
        let qps = if clock_ms > 0.0 {
            completed as f64 / (clock_ms / 1000.0)
        } else {
            0.0
        };
        let ledger = ServeLedger {
            mode: cfg.mode.name().to_string(),
            window_ms: cfg.window_ms.max(1),
            windows,
            requests: outcomes
                .iter()
                .map(|o| RequestTrace {
                    client: o.client,
                    seq: o.seq,
                    query_id: o.query_id.clone(),
                    latency_ns: (o.latency_ms * 1e6).round() as u64,
                    rows: o.rows().map(|r| r as u64),
                })
                .collect(),
            completed,
            rejected: outcomes.len() - completed,
            makespan_ms: clock_ms,
            qps,
            p50_ms: percentile(&lat, 0.50),
            p95_ms: percentile(&lat, 0.95),
            cache: self.cache_stats(),
        };
        ServeReport { ledger, outcomes }
    }
}

/// The text of catalog query `id`, or the reason a request naming an id the
/// catalog does not have is rejected with when it is drained.
fn catalog_text(id: &str) -> Result<Arc<str>, String> {
    try_query(id)
        .map(|q| q.sparql.into())
        .ok_or_else(|| format!("unknown catalog query '{id}'"))
}

/// One drain's front end: a text is parsed, extracted and signed the first
/// time the drain meets it; every later request with the same bytes is one
/// lookup, and texts that spell the same query share one entry of `queries`.
/// The map is for lookup only — requests are walked in arrival order, so
/// nothing observable follows its iteration order — and dies with the drain.
#[derive(Default)]
struct FrontEnd<'r> {
    by_text: HashMap<&'r str, Result<usize, String>>,
    /// The drain's distinct `(signature, query)` pairs, in first-arrival order.
    queries: Vec<(String, AnalyticalQuery)>,
}

impl<'r> FrontEnd<'r> {
    /// The index in `queries` of what `text` asks for, or the typed reason
    /// the request is rejected with.
    fn resolve(&mut self, text: &'r Result<Arc<str>, String>) -> Result<usize, &str> {
        let text: &str = text.as_ref().map_err(String::as_str)?;
        let queries = &mut self.queries;
        let entry = self.by_text.entry(text).or_insert_with(|| {
            let query = parse_query(text).map_err(|e| format!("parse error: {e}"))?;
            let aq = extract(&query).map_err(|e| format!("not an analytical query: {e}"))?;
            let sig = aq.signature();
            let known = queries.iter().position(|(s, _)| *s == sig);
            Ok(known.unwrap_or_else(|| {
                queries.push((sig, aq));
                queries.len() - 1
            }))
        });
        entry.as_ref().map(|&q| q).map_err(String::as_str)
    }
}

/// One drain's timeline: the simulated clock, each answer the drain
/// computed (once, however many requests share it) and, per request, its
/// terminal state — its answer's index in `answers`, or the reason it was
/// rejected with — with the clock it was reached at; `rejected` counts as
/// they are made.
struct Board {
    clock_ms: f64,
    answers: Vec<Relation>,
    slots: Vec<Option<(Result<usize, String>, f64)>>,
    rejected: usize,
}

impl Board {
    fn new(requests: usize) -> Board {
        Board {
            clock_ms: 0.0,
            answers: Vec::new(),
            slots: vec![None; requests],
            rejected: 0,
        }
    }

    /// Put a finished run's answer into the table, once.
    fn store(&mut self, run: Run) -> Stored {
        let (relation, sim_s) = run?;
        self.answers.push(relation);
        Ok((self.answers.len() - 1, sim_s))
    }

    /// Reject every request of `idxs` with `reason`, whole: no rows.
    fn reject(&mut self, idxs: &[usize], reason: &str) {
        for &i in idxs {
            self.slots[i] = Some((Err(reason.to_string()), self.clock_ms));
        }
        self.rejected += idxs.len();
    }

    /// The tail every executed query shares: a finished run advances the
    /// clock by its modeled seconds and gives every request of `idxs` its
    /// answer's index, a failed one rejects them.
    fn settle(&mut self, idxs: &[usize], run: &Stored) {
        match run {
            Ok((answer, sim_s)) => {
                self.clock_ms += sim_s * 1000.0;
                for &i in idxs {
                    self.slots[i] = Some((Ok(*answer), self.clock_ms));
                }
            }
            Err(reason) => self.reject(idxs, reason),
        }
    }
}

/// Tasks per pool slot in the copy phase: a slot whose helper wakes late,
/// or runs slower, has the tail of its runs stolen by the others.
const RUNS_PER_SLOT: usize = 8;

/// A copy of `answers[a]` for every `a` of `duplicates`, in that order, made
/// in one pool phase as wide as the machine. Each task copies a run of
/// consecutive duplicates of about equal weight; an answer weighs its rows
/// plus one, so an empty answer's copy counts too.
fn copy_answers(answers: &[Relation], duplicates: &[usize]) -> impl Iterator<Item = Relation> {
    let width = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(4);
    let chunks = cut_by_weight(duplicates, |a| answers[a].len() + 1, width * RUNS_PER_SLOT);
    let (copies, _) = pool::run_tasks(width, chunks, |_, chunk: &[usize]| {
        chunk
            .iter()
            .map(|&a| answers[a].clone())
            .collect::<Vec<_>>()
    });
    copies.into_iter().flatten()
}

/// Cut `items` into at most `parts` runs of consecutive items, each closed
/// once the runs so far reach their share of the total weight. Every
/// weight must be positive.
fn cut_by_weight(items: &[usize], weight: impl Fn(usize) -> usize, parts: usize) -> Vec<&[usize]> {
    let total: usize = items.iter().map(|&x| weight(x)).sum();
    let mut runs = Vec::with_capacity(parts);
    let (mut start, mut so_far) = (0, 0);
    for (k, &x) in items.iter().enumerate() {
        so_far += weight(x);
        // The last item always closes a run: `so_far` is then `total`, and
        // each run closed before it had `so_far < total`, so at most
        // `parts − 1` runs precede it.
        if so_far * parts >= total * (runs.len() + 1) {
            runs.push(&items[start..=k]);
            start = k + 1;
        }
    }
    runs
}

/// Nearest-rank percentile over an already-sorted sample (0.0 if empty).
fn percentile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let idx = ((sorted.len() - 1) as f64 * q).round() as usize;
    sorted[idx.min(sorted.len() - 1)]
}

#[cfg(test)]
mod tests {
    use super::*;
    use rapida_datagen::traffic::{generate, TrafficConfig};
    use rapida_datagen::{generate_bsbm, BsbmConfig};

    fn tiny_server(config: ServeConfig) -> Server {
        let g = generate_bsbm(&BsbmConfig::tiny());
        Server::new(&g, config)
    }

    #[test]
    fn weighted_runs_cover_every_item_once_in_order() {
        let items: Vec<usize> = (0..40).collect();
        for weights in [
            vec![1usize; 40],
            (1..=40).collect(),
            [1000, 1, 1, 1].repeat(10),
        ] {
            for parts in 1..=8 {
                let runs = cut_by_weight(&items, |x| weights[x], parts);
                assert!(runs.len() <= parts && runs.iter().all(|r| !r.is_empty()));
                assert_eq!(runs.concat(), items, "{parts} parts");
            }
        }
        let even = cut_by_weight(&items, |_| 1, 4);
        assert_eq!(
            even.iter().map(|r| r.len()).collect::<Vec<_>>(),
            [10, 10, 10, 10]
        );
        assert!(cut_by_weight(&[], |_| 1, 4).is_empty());
    }

    #[test]
    fn batched_drain_completes_traffic_and_fills_the_ledger() {
        let server = tiny_server(ServeConfig::default());
        let events = generate(&TrafficConfig::bsbm_mix(7, 4, 300));
        server.enqueue_traffic(&events);
        let report = server.drain();
        assert_eq!(report.outcomes.len(), events.len());
        assert_eq!(report.ledger.completed, events.len());
        assert_eq!(report.ledger.rejected, 0);
        assert!(!report.ledger.windows.is_empty());
        assert!(report.ledger.qps > 0.0);
        assert!(report.ledger.p95_ms >= report.ledger.p50_ms);
        // Dedup actually bites: some window saw fewer uniques than arrivals.
        let arrivals: usize = report.ledger.windows.iter().map(|w| w.arrivals).sum();
        let uniques: usize = report.ledger.windows.iter().map(|w| w.unique).sum();
        assert!(uniques < arrivals, "{uniques} !< {arrivals}");
        // The cross-window cache ends up warm.
        assert!(report.ledger.cache.hits > 0, "{:?}", report.ledger.cache);
    }

    #[test]
    fn serial_mode_serves_in_arrival_order_without_sharing() {
        let config = ServeConfig {
            mode: ServeMode::Serial,
            ..ServeConfig::default()
        };
        let server = tiny_server(config);
        let events = generate(&TrafficConfig::bsbm_mix(7, 3, 200));
        server.enqueue_traffic(&events);
        let report = server.drain();
        assert_eq!(report.ledger.mode, "serial");
        assert_eq!(report.ledger.completed, events.len());
        assert!(report.ledger.windows.is_empty());
        assert_eq!(report.ledger.cache, ScanCacheStats::default());
        // Completion times are monotone in arrival order.
        let mut last = 0.0;
        for o in &report.outcomes {
            let done = o.at_ms as f64 + o.latency_ms;
            assert!(done >= last);
            last = done;
        }
    }

    #[test]
    fn batched_beats_serial_on_simulated_qps() {
        let events = generate(&TrafficConfig::bsbm_mix(11, 8, 400));
        let batched = {
            let s = tiny_server(ServeConfig::default());
            s.enqueue_traffic(&events);
            s.drain()
        };
        let serial = {
            let c = ServeConfig {
                mode: ServeMode::Serial,
                ..ServeConfig::default()
            };
            let s = tiny_server(c);
            s.enqueue_traffic(&events);
            s.drain()
        };
        assert!(
            batched.ledger.qps > serial.ledger.qps,
            "batched {} !> serial {}",
            batched.ledger.qps,
            serial.ledger.qps
        );
    }

    #[test]
    fn session_submissions_are_order_independent() {
        let events = generate(&TrafficConfig::bsbm_mix(3, 4, 200));
        let reference = {
            let s = tiny_server(ServeConfig::default());
            s.enqueue_traffic(&events);
            s.drain()
        };
        // Same traffic submitted from concurrent client threads.
        let server = tiny_server(ServeConfig::default());
        std::thread::scope(|scope| {
            for client in 0..4 {
                let session = server.session(client);
                let evs: Vec<_> = events.iter().filter(|e| e.client == client).collect();
                scope.spawn(move || {
                    for ev in evs {
                        session.submit_catalog(ev.at_ms, &ev.query_id);
                    }
                });
            }
        });
        let report = server.drain();
        assert_eq!(report.ledger, reference.ledger);
    }

    #[test]
    fn deadline_rejections_are_typed_and_total() {
        let config = ServeConfig {
            deadline_s: Some(1e-9), // nothing can meet this
            ..ServeConfig::default()
        };
        let server = tiny_server(config);
        let events = generate(&TrafficConfig::bsbm_mix(5, 2, 150));
        server.enqueue_traffic(&events);
        let report = server.drain();
        assert_eq!(report.ledger.completed, 0);
        assert_eq!(report.ledger.rejected, events.len());
        for o in &report.outcomes {
            match &o.status {
                RequestStatus::Rejected { reason } => {
                    assert!(reason.contains("deadline"), "untyped reason: {reason}")
                }
                RequestStatus::Completed { .. } => panic!("completed under 1ns deadline"),
            }
        }
    }

    #[test]
    fn replaying_identical_traffic_gives_an_identical_ledger() {
        let events = generate(&TrafficConfig::bsbm_mix(13, 6, 300));
        let run = |_: usize| {
            // Tiny budget forces evictions, exercising the LRU ledger too.
            let c = ServeConfig {
                cache_budget_bytes: 4 << 10,
                ..ServeConfig::default()
            };
            let s = tiny_server(c);
            s.enqueue_traffic(&events);
            s.drain()
        };
        let a = run(0);
        let b = run(1);
        assert!(a.ledger.cache.evictions > 0, "{:?}", a.ledger.cache);
        assert_eq!(a.ledger, b.ledger);
    }
}
