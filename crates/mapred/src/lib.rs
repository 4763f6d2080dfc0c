//! # rapida-mapred
//!
//! A MapReduce execution simulator: the scale-out substrate under every
//! engine in the workspace. Jobs run genuinely in parallel (map over splits,
//! hash-partitioned sorted shuffle, parallel reduce) over serialized byte
//! records, so the byte and record counts feeding the cluster cost model are
//! measured, not estimated.
//!
//! The shuffle data path is zero-copy: map tasks emit into contiguous
//! arenas ([`KvBuffer`] / [`RecBuffer`]) and spill them per partition in
//! emit order, and the reduce side orders the gathered runs once, with one
//! radix kernel (`radix`), into key groups handed straight to reducers
//! ([`merge`]) — no per-record heap pairs. See `DESIGN.md`, "Zero-copy
//! shuffle data path".
//!
//! Components:
//! * [`bytes`] — the cheap-clone immutable byte buffer ([`Bytes`]) blocks
//!   are made of.
//! * [`cache`] — the cross-query LRU scan cache ([`ScanCache`]) keyed jobs
//!   can be served from instead of re-running.
//! * [`codec`] — varint record encoding shared by all operators, plus the
//!   [`KvBuffer`] / [`RecBuffer`] emit arenas.
//! * [`merge`] — spill runs, their key-range shards and routes, and the
//!   reduce-side merge into key groups.
//! * [`dfs`] — the simulated DFS ([`SimDfs`]) holding named datasets of
//!   splits, each [`Sealed`] with its block checksums once, when first
//!   written.
//! * [`job`] — job specs with Hadoop-style task lifecycles (map / combiner /
//!   reduce, per-task `cleanup` hooks).
//! * [`pool`] — the work-stealing task pool both phases run on.
//! * [`engine`] — the executor ([`Engine`]).
//! * [`fault`] — deterministic fault injection ([`FaultPlan`]): task
//!   failures, stragglers, node loss, read-path corruption, job aborts,
//!   with bounded retry + speculation.
//! * [`integrity`] — FNV-1a block/spill checksums and the deterministic
//!   payload-safe bit-flip corruption the fault plan injects on read.
//! * [`resilience`] — the unified policy layer ([`ResiliencePolicy`]):
//!   retry budgets per task and per workflow, shared exponential backoff,
//!   per-job deadlines, checkpoint/recovery switches, and the typed
//!   [`WorkflowError`] exhausted budgets degrade to.
//! * [`metrics`] — measured per-job and per-workflow counters, including
//!   the workflow-level [`RecoveryLedger`].
//! * [`cost`] — the analytic cluster model turning metrics into simulated
//!   cluster seconds ([`ClusterModel`]).

pub mod bytes;
pub mod cache;
pub mod codec;
pub mod cost;
pub mod dfs;
pub mod engine;
pub mod fault;
pub mod integrity;
pub mod job;
pub mod merge;
pub mod metrics;
pub mod pool;
mod radix;
pub mod resilience;

pub use bytes::Bytes;
pub use cache::{ScanCache, ScanCacheStats};
pub use codec::{KvBuffer, KvRef, RecBuffer};
pub use cost::ClusterModel;
pub use dfs::{CopyId, Dataset, DatasetWriter, IntegrityReport, Sealed, SimDfs};
pub use engine::{shuffle_partition, Engine};
pub use merge::{merge_key_groups, plan_shards, Route, Run};
pub use fault::{FaultPlan, Outcome, TaskKind};
pub use job::{
    FnMapFactory, FnReduceFactory, InputSrc, Job, JobBuilder, KeyLocal, MapOutput, MapTask,
    MapTaskFactory, ReduceOutput, ReduceTask, ReduceTaskFactory,
};
pub use pool::PoolStats;
pub use metrics::{JobMetrics, RecoveryLedger, WorkflowMetrics};
pub use resilience::{backoff_s, JobDeadline, ResiliencePolicy, WorkflowError};
