//! Job specification: mapper / combiner / reducer task factories, mirroring
//! the Hadoop task lifecycle (`setup` via factory, `map`/`reduce` per record
//! or key group, `cleanup` at task end — the hook Algorithm 3's map-side
//! hash aggregation relies on).

use crate::codec::{KvBuffer, RecBuffer};
use crate::dfs::SimDfs;
use std::fmt;
use std::sync::Arc;

/// Identifies which job input a record came from (Hadoop: input path tag).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct InputSrc {
    /// Index into [`Job::inputs`].
    pub dataset: usize,
}

/// Output sink handed to map tasks. Emitted pairs and records land in
/// contiguous arenas ([`KvBuffer`] / [`RecBuffer`]) — the task borrows the
/// bytes it emits, and no per-record heap pair is ever allocated.
#[derive(Default)]
pub struct MapOutput {
    /// Key-value pairs destined for the shuffle.
    pub kvs: KvBuffer,
    /// Direct records (map-only jobs).
    pub records: RecBuffer,
    /// Input segments the task skipped whole via zone-map pruning (ORC
    /// row-group skipping). Mappers bump this instead of scanning.
    pub segments_skipped: u64,
    /// Input bytes of those skipped segments — work the scan never did.
    pub input_bytes_pruned: u64,
    /// Records this task quarantined because they failed to decode —
    /// record-level integrity, surfaced as
    /// `JobMetrics::corrupt_records_skipped` for committed attempts.
    pub corrupt_records: u64,
}

impl MapOutput {
    /// Emit a key-value pair into the shuffle.
    #[inline]
    pub fn emit(&mut self, key: &[u8], value: &[u8]) {
        self.kvs.push(key, value);
    }

    /// Write a record directly to the job output (map-only jobs).
    #[inline]
    pub fn write(&mut self, record: &[u8]) {
        self.records.push(record);
    }

    /// Record a zone-map skip of one whole input segment of `bytes` bytes.
    #[inline]
    pub fn skip_segment(&mut self, bytes: usize) {
        self.segments_skipped += 1;
        self.input_bytes_pruned += bytes as u64;
    }

    /// Record one quarantined (undecodable) input record.
    #[inline]
    pub fn skip_corrupt(&mut self) {
        self.corrupt_records += 1;
    }
}

/// Output sink handed to reduce tasks (arena-backed, like [`MapOutput`]).
#[derive(Default)]
pub struct ReduceOutput {
    /// Final output records.
    pub records: RecBuffer,
    /// Re-keyed pairs (used when a combiner runs map-side).
    pub kvs: KvBuffer,
    /// Shuffled values this task quarantined because they failed to decode
    /// (see [`MapOutput::corrupt_records`]).
    pub corrupt_records: u64,
}

impl ReduceOutput {
    /// Write a record to the job output.
    #[inline]
    pub fn write(&mut self, record: &[u8]) {
        self.records.push(record);
    }

    /// Emit a key-value pair (combiner path: stays in the shuffle).
    #[inline]
    pub fn emit(&mut self, key: &[u8], value: &[u8]) {
        self.kvs.push(key, value);
    }

    /// Record one quarantined (undecodable) shuffled value.
    #[inline]
    pub fn skip_corrupt(&mut self) {
        self.corrupt_records += 1;
    }
}

/// A per-split map task instance.
pub trait MapTask: Send {
    /// Process one input record.
    fn map(&mut self, src: InputSrc, record: &[u8], out: &mut MapOutput);
    /// Called once after the last record of the split (Hadoop `cleanup`).
    fn cleanup(&mut self, _out: &mut MapOutput) {}
}

/// Factory creating map task instances (one per split).
pub trait MapTaskFactory: Send + Sync {
    /// Create a fresh task for a job run on the engine over `dfs`, from
    /// which it reads its [`Self::side_inputs`].
    fn create(&self, dfs: &SimDfs) -> Box<dyn MapTask>;

    /// The datasets its tasks read from the DFS besides their split, such as
    /// a map-join's broadcast sides. A job's output is a function of these
    /// and of [`Job::inputs`].
    fn side_inputs(&self) -> Vec<String> {
        Vec::new()
    }
}

/// A per-partition reduce task instance.
pub trait ReduceTask: Send {
    /// Process one key group. `values` holds every value for `key`.
    fn reduce(&mut self, key: &[u8], values: &[&[u8]], out: &mut ReduceOutput);
    /// Called once after the last key group of the partition.
    fn cleanup(&mut self, _out: &mut ReduceOutput) {}
}

/// Factory creating reduce task instances (one per partition, and one per
/// map task when used as a combiner).
pub trait ReduceTaskFactory: Send + Sync {
    /// Create a fresh task.
    fn create(&self) -> Box<dyn ReduceTask>;

    /// Does this factory's reducer treat every key group independently?
    ///
    /// A *key-local* reducer's output for a key group depends only on that
    /// group (no state carried between `reduce` calls), and its `cleanup`
    /// emits nothing. Declaring key-locality lets the engine cut a reduce
    /// partition's key range into shards and merge-reduce the shards on
    /// separate workers — one fresh task instance per shard — and still
    /// produce the exact bytes of the serial merge by concatenating shard
    /// outputs in key-range order. The default is conservative: `false`
    /// keeps the whole partition on one task instance.
    fn key_local(&self) -> bool {
        false
    }
}

/// Marker wrapper declaring a factory's reducer key-local (see
/// [`ReduceTaskFactory::key_local`]). Wrapping is an assertion about the
/// inner reducer's semantics — per-group-only logic, no cleanup emissions —
/// that the engine trusts for shard-parallel reduce.
pub struct KeyLocal<F>(pub F);

impl<F: ReduceTaskFactory> ReduceTaskFactory for KeyLocal<F> {
    fn create(&self) -> Box<dyn ReduceTask> {
        self.0.create()
    }

    fn key_local(&self) -> bool {
        true
    }
}

/// Blanket factory over a cloneable function returning a task.
pub struct FnMapFactory<F>(pub F);

impl<F, T> MapTaskFactory for FnMapFactory<F>
where
    F: Fn() -> T + Send + Sync,
    T: MapTask + 'static,
{
    fn create(&self, _: &SimDfs) -> Box<dyn MapTask> {
        Box::new((self.0)())
    }
}

/// Blanket factory over a cloneable function returning a reduce task.
pub struct FnReduceFactory<F>(pub F);

impl<F, T> ReduceTaskFactory for FnReduceFactory<F>
where
    F: Fn() -> T + Send + Sync,
    T: ReduceTask + 'static,
{
    fn create(&self) -> Box<dyn ReduceTask> {
        Box::new((self.0)())
    }
}

/// A MapReduce job specification.
#[derive(Clone)]
pub struct Job {
    /// Human-readable name (shows up in metrics and workflow reports).
    pub name: String,
    /// Input dataset names; record origin is exposed to mappers as
    /// [`InputSrc`].
    pub inputs: Vec<String>,
    /// The mapper.
    pub mapper: Arc<dyn MapTaskFactory>,
    /// Optional map-side combiner (run per map task over sorted map output).
    pub combiner: Option<Arc<dyn ReduceTaskFactory>>,
    /// The reducer; `None` makes this a map-only job.
    pub reducer: Option<Arc<dyn ReduceTaskFactory>>,
    /// Output dataset name.
    pub output: String,
    /// Number of reduce partitions (ignored for map-only jobs).
    pub num_reducers: usize,
    /// Free-form structured tag describing the job's logical operation
    /// (e.g. `"join u0 k1"`). Planners set it; cost estimators parse it.
    /// Empty when the producer did not annotate the job.
    pub tag: String,
    /// Scan-cache key. When set and the engine carries a [`crate::ScanCache`],
    /// a cached output under this key short-circuits the job; on miss the
    /// job's output is inserted after it runs. `None` (the default) opts
    /// out entirely. Keys must uniquely determine the output bytes — the
    /// planner is responsible for folding in everything the job's output
    /// depends on (engine config, plan signature, input identity).
    pub cache_key: Option<String>,
    /// Operator fingerprint: the derived `Debug` of the whole operator
    /// config this job's task factories were built from
    /// ([`JobBuilder::sig_of`]), so it determines what they do to their
    /// input bytes. Two jobs with equal non-empty `sig`s, equal inputs and
    /// equal reducer count write the same output bytes and meter the same
    /// counters on an engine without a fault plan (injected faults are keyed
    /// by job *name*). Configs that hold the catalog's dictionary print it
    /// as its size, so `sig`s compare only within one catalog. Empty (the
    /// default) means unknown, and is equal to nothing.
    pub sig: String,
}

impl Job {
    /// Is this a map-only job (no shuffle, no reduce phase)?
    pub fn is_map_only(&self) -> bool {
        self.reducer.is_none()
    }
}

/// Builder for [`Job`].
pub struct JobBuilder {
    name: String,
    inputs: Vec<String>,
    mapper: Option<Arc<dyn MapTaskFactory>>,
    combiner: Option<Arc<dyn ReduceTaskFactory>>,
    reducer: Option<Arc<dyn ReduceTaskFactory>>,
    output: String,
    num_reducers: usize,
    tag: String,
    cache_key: Option<String>,
    sig: String,
}

impl JobBuilder {
    /// Start building a job.
    pub fn new(name: impl Into<String>) -> Self {
        JobBuilder {
            name: name.into(),
            inputs: Vec::new(),
            mapper: None,
            combiner: None,
            reducer: None,
            output: String::new(),
            num_reducers: 4,
            tag: String::new(),
            cache_key: None,
            sig: String::new(),
        }
    }

    /// Set the operator fingerprint to `cfg`'s `Debug` (see [`Job::sig`]):
    /// `cfg` is everything the task factories are built from.
    pub fn sig_of(mut self, cfg: &impl fmt::Debug) -> Self {
        self.sig = format!("{cfg:?}");
        self
    }

    /// Set the scan-cache key (see [`Job::cache_key`]).
    pub fn cache_key(mut self, key: impl Into<String>) -> Self {
        self.cache_key = Some(key.into());
        self
    }

    /// Set the logical-operation tag (see [`Job::tag`]).
    pub fn tag(mut self, tag: impl Into<String>) -> Self {
        self.tag = tag.into();
        self
    }

    /// Add an input dataset.
    pub fn input(mut self, name: impl Into<String>) -> Self {
        self.inputs.push(name.into());
        self
    }

    /// Set the mapper factory.
    pub fn mapper(mut self, m: Arc<dyn MapTaskFactory>) -> Self {
        self.mapper = Some(m);
        self
    }

    /// Set the combiner factory.
    pub fn combiner(mut self, c: Arc<dyn ReduceTaskFactory>) -> Self {
        self.combiner = Some(c);
        self
    }

    /// Set the reducer factory.
    pub fn reducer(mut self, r: Arc<dyn ReduceTaskFactory>) -> Self {
        self.reducer = Some(r);
        self
    }

    /// Set the output dataset name.
    pub fn output(mut self, name: impl Into<String>) -> Self {
        self.output = name.into();
        self
    }

    /// Set the number of reduce partitions.
    pub fn num_reducers(mut self, n: usize) -> Self {
        self.num_reducers = n.max(1);
        self
    }

    /// Finish. Panics if mapper or output are missing (programmer error in
    /// plan construction, not a runtime condition).
    pub fn build(self) -> Job {
        Job {
            name: self.name,
            inputs: self.inputs,
            mapper: self.mapper.expect("job requires a mapper"),
            combiner: self.combiner,
            reducer: self.reducer,
            output: self.output,
            num_reducers: self.num_reducers,
            tag: self.tag,
            cache_key: self.cache_key,
            sig: self.sig,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct NopMap;
    impl MapTask for NopMap {
        fn map(&mut self, _src: InputSrc, _r: &[u8], _o: &mut MapOutput) {}
    }

    #[test]
    fn builder_constructs_map_only_job() {
        let job = JobBuilder::new("j")
            .input("in")
            .mapper(Arc::new(FnMapFactory(|| NopMap)))
            .output("out")
            .build();
        assert!(job.is_map_only());
        assert_eq!(job.inputs, vec!["in".to_string()]);
    }

    #[test]
    #[should_panic(expected = "requires a mapper")]
    fn builder_panics_without_mapper() {
        let _ = JobBuilder::new("j").input("in").output("out").build();
    }
}
