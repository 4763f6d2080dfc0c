//! End-to-end data-integrity tests: read-path corruption of DFS blocks and
//! shuffle spill runs must be *detected* (checksums on, the default) and
//! quarantined with byte-identical committed output — and the detection
//! must be load-bearing: the same corruption with checksums disabled
//! reaches the committed output and diverges. A silent-corruption run that
//! still produced golden bytes would mean the fault injection is a no-op;
//! a checksummed run that diverges would mean quarantine is broken.

mod common;

use rapida_mapred::{
    ClusterModel, DatasetWriter, Engine, FaultPlan, FnMapFactory, FnReduceFactory, InputSrc,
    JobBuilder, MapOutput, MapTask, ReduceOutput, ReduceTask, ResiliencePolicy, ScanCache,
    SimDfs, WorkflowMetrics,
};
use rapida_testkit::rng::StdRng;
use std::sync::Arc;

/// Emits (word, 1) for every input record.
struct TokenMap;
impl MapTask for TokenMap {
    fn map(&mut self, _src: InputSrc, record: &[u8], out: &mut MapOutput) {
        out.emit(record, &1u32.to_le_bytes());
    }
}

/// Sums u32 values; writes `key \0 sum` as output or re-emits as combiner.
struct Sum {
    to_output: bool,
}
impl ReduceTask for Sum {
    fn reduce(&mut self, key: &[u8], values: &[&[u8]], out: &mut ReduceOutput) {
        let total: u32 = values
            .iter()
            .map(|v| {
                let mut b = [0u8; 4];
                b.copy_from_slice(v);
                u32::from_le_bytes(b)
            })
            .sum();
        if self.to_output {
            let mut rec = key.to_vec();
            rec.push(0);
            rec.extend_from_slice(&total.to_le_bytes());
            out.write(&rec);
        } else {
            out.emit(key, &total.to_le_bytes());
        }
    }
}

/// Two-cycle word count (combined count, then regroup) over a multi-block
/// input — enough block reads and spill runs for the corrupting preset to
/// fire many times per run.
fn workflow() -> Vec<rapida_mapred::Job> {
    vec![
        JobBuilder::new("wc")
            .input("in")
            .mapper(Arc::new(FnMapFactory(|| TokenMap)))
            .combiner(Arc::new(FnReduceFactory(|| Sum { to_output: false })))
            .reducer(Arc::new(FnReduceFactory(|| Sum { to_output: true })))
            .output("counts")
            .num_reducers(4)
            .build(),
        JobBuilder::new("regroup")
            .input("counts")
            .mapper(Arc::new(FnMapFactory(|| TokenMap)))
            .reducer(Arc::new(FnReduceFactory(|| Sum { to_output: true })))
            .output("out")
            .num_reducers(2)
            .build(),
    ]
}

/// A DFS holding the 500-word multi-block input as `in`.
fn word_dfs() -> SimDfs {
    let dfs = SimDfs::new();
    let mut rng = StdRng::seed_from_u64(0x1DEA);
    let mut w = DatasetWriter::new(64);
    for _ in 0..500 {
        let len = rng.gen_range(2usize..=5);
        let word: String = (0..len)
            .map(|_| (b'a' + rng.gen_range(0u8..6)) as char)
            .collect();
        w.push(word.as_bytes());
    }
    dfs.put("in", w.finish());
    dfs
}

fn run(
    faults: Option<FaultPlan>,
    policy: ResiliencePolicy,
) -> (WorkflowMetrics, Vec<Vec<u8>>) {
    let dfs = word_dfs();
    let mut engine = Engine::with_workers(dfs.clone(), 4).with_resilience(policy);
    engine.faults = faults;
    let wf = engine
        .try_run_workflow(&workflow())
        .expect("probabilistic fault plans never exhaust the recovery budget");
    let blocks: Vec<Vec<u8>> = dfs
        .peek("out")
        .expect("workflow output")
        .blocks
        .iter()
        .map(|b| b.as_ref().to_vec())
        .collect();
    (wf, blocks)
}

const SEEDS: [u64; 3] = [1, 0xC0FFEE, 0xDEAD_BEEF];

/// Checksums on (default): every injected corruption is detected, the
/// corrupt copy is quarantined (block → replica re-read, spill → clean
/// arena kept), and the committed output is byte-identical to the
/// fault-free golden. The detections and re-read bytes must be ledgered,
/// and the cost model must charge for the extra replica I/O.
#[test]
fn checksums_detect_quarantine_and_preserve_bytes() {
    let model = ClusterModel::nodes10();
    let (golden_wf, golden) = run(None, ResiliencePolicy::default());
    assert_eq!(golden_wf.total(|j| j.corrupt_blocks_detected), 0);
    assert_eq!(golden_wf.total(|j| j.silent_corruptions), 0);
    let golden_cost = model.workflow_time(&golden_wf);

    for seed in SEEDS {
        let (wf, blocks) = run(Some(FaultPlan::corrupting(seed)), ResiliencePolicy::default());
        assert_eq!(
            blocks, golden,
            "seed {seed:#x}: corruption leaked into committed output despite checksums"
        );
        let detected = wf.total(|j| j.corrupt_blocks_detected + j.corrupt_spills_detected);
        assert!(detected > 0, "seed {seed:#x}: corrupting plan injected nothing");
        assert_eq!(
            wf.total(|j| j.silent_corruptions),
            0,
            "seed {seed:#x}: corruption slipped past the checksum gate"
        );
        assert!(
            wf.total(|j| j.integrity_reread_bytes) > 0,
            "seed {seed:#x}: detections without replica re-read bytes"
        );
        assert!(
            model.workflow_time(&wf) > golden_cost,
            "seed {seed:#x}: {detected} detections but no simulated re-read cost"
        );
    }
}

/// Detection is load-bearing: the *same* corruption seeds with checksums
/// disabled reach the committed output — the run diverges from the golden
/// bytes and the silent-corruption ledger is non-zero. If this test ever
/// passes with identical bytes, the fault injection itself is broken and
/// the checksummed identity above proves nothing.
#[test]
fn corruption_without_checksums_diverges() {
    let (_, golden) = run(None, ResiliencePolicy::default());
    let unchecked = ResiliencePolicy {
        checksums: false,
        ..ResiliencePolicy::default()
    };
    for seed in SEEDS {
        let (wf, blocks) = run(Some(FaultPlan::corrupting(seed)), unchecked.clone());
        assert!(
            wf.total(|j| j.silent_corruptions) > 0,
            "seed {seed:#x}: no corruption applied with checksums off"
        );
        assert_eq!(
            wf.total(|j| j.corrupt_blocks_detected + j.corrupt_spills_detected),
            0,
            "seed {seed:#x}: detections ledgered while checksums were off"
        );
        assert_ne!(
            blocks, golden,
            "seed {seed:#x}: silent corruption left the output byte-identical"
        );
    }
}

/// The corruption ledger itself is deterministic: two runs with the same
/// seed produce identical detection counters *and* identical bytes.
#[test]
fn integrity_ledger_is_deterministic() {
    let sig = |wf: &WorkflowMetrics| {
        wf.jobs
            .iter()
            .map(|j| {
                (
                    j.corrupt_blocks_detected,
                    j.corrupt_spills_detected,
                    j.integrity_reread_bytes,
                    j.corrupt_records_skipped,
                )
            })
            .collect::<Vec<_>>()
    };
    let (wf_a, blocks_a) = run(Some(FaultPlan::corrupting(7)), ResiliencePolicy::default());
    let (wf_b, blocks_b) = run(Some(FaultPlan::corrupting(7)), ResiliencePolicy::default());
    assert_eq!(sig(&wf_a), sig(&wf_b));
    assert_eq!(blocks_a, blocks_b);
}

/// Writes every record with a `#` prefix: an output whose bytes, and so
/// whose block sums, differ from its input's.
struct TagMap;
impl MapTask for TagMap {
    fn map(&mut self, _src: InputSrc, record: &[u8], out: &mut MapOutput) {
        out.write(&[b"#", record].concat());
    }
}

/// A scan-cache hit republishes a dataset with the sums sealed when it was
/// first written, and a later job cannot tell it from a fresh copy. Job 0, a
/// keyed map-only scan, is served from `cache`; job 1 reads its output under
/// block corruption and is aborted once, so the recovery pass re-verifies
/// job 0's checkpoint against the stored sums. Job 1's ledger, the recovery
/// ledger and the output bytes must equal those of a run whose scan wrote
/// its output itself — with checksums on, and with checksums off.
#[test]
fn a_hit_republished_dataset_reads_like_a_freshly_written_one() {
    let workflow = || {
        vec![
            JobBuilder::new("scan")
                .input("in")
                .mapper(Arc::new(FnMapFactory(|| TagMap)))
                .output("scanned")
                .cache_key("k:scan")
                .build(),
            JobBuilder::new("count")
                .input("scanned")
                .mapper(Arc::new(FnMapFactory(|| TokenMap)))
                .reducer(Arc::new(FnReduceFactory(|| Sum { to_output: true })))
                .output("out")
                .num_reducers(2)
                .build(),
        ]
    };
    let faults = FaultPlan {
        block_corrupt_p: 0.5,
        abort_job: Some((1, 1)),
        ..FaultPlan::new(0xC0FFEE)
    };
    for checksums in [true, false] {
        let policy = ResiliencePolicy {
            checksums,
            ..ResiliencePolicy::default()
        };
        let run = |cache: &ScanCache| {
            let dfs = word_dfs();
            let engine = Engine::with_workers(dfs.clone(), 4)
                .with_resilience(policy.clone())
                .with_faults(faults.clone())
                .with_scan_cache(cache.clone());
            let wf = engine
                .try_run_workflow(&workflow())
                .expect("one abort, then commit");
            let out: Vec<Vec<u8>> = dfs
                .peek("out")
                .unwrap()
                .blocks
                .iter()
                .map(|b| b.to_vec())
                .collect();
            (wf, out)
        };
        // The first run misses and writes `scanned` itself; the second, on a
        // fresh DFS, is served it from the cache.
        let cache = ScanCache::new(1 << 20);
        let (fresh, fresh_out) = run(&cache);
        let (hit, hit_out) = run(&cache);
        assert!(hit.jobs[1].corrupt_blocks_detected + hit.jobs[1].silent_corruptions > 0);
        assert_eq!(
            common::signature(&hit.jobs[1]),
            common::signature(&fresh.jobs[1]),
            "checksums={checksums}: the reader saw a different dataset"
        );
        assert_eq!(
            format!("{:?}", hit.recovery),
            format!("{:?}", fresh.recovery),
            "checksums={checksums}: the republished checkpoint did not verify"
        );
        assert_eq!(hit_out, fresh_out);
        assert_eq!(fresh.total(|j| j.scan_cache_misses), 1);
        assert_eq!(
            hit.total(|j| j.scan_cache_hits),
            1,
            "the recovery pass keeps the checkpoint"
        );
        assert_eq!(hit.recovery.checkpoint_jobs_skipped, 1);
    }
}
