//! Property test for the shard-parallel reduce merge: cutting a partition's
//! emit-order runs into key-range shards with [`plan_shards`], routing each
//! run's pairs with a [`Route`], and merging each shard independently must
//! reproduce the serial [`merge_key_groups`]
//! pass exactly — same key groups, same value order inside each group, and
//! no key group straddling a shard boundary — and the serial pass must equal
//! "concatenate the runs in run order, stable-sort by key, group", for
//! arbitrary run shapes, duplicate-heavy key distributions, empty runs, and
//! degenerate shard counts.

use rapida_testkit::prelude::*;

use rapida_mapred::{merge_key_groups, plan_shards, KvBuffer, Route, Run};

/// [`merge_key_groups`] over a [`plan_shards`] plan, executed serially in
/// shard order: `f(shard, key, values)` sees exactly the groups the serial
/// merge would produce, in the same order, with the shard index attached.
/// The engine runs the same plan with one route per pool task, then one
/// merge per shard; this serial helper is what the properties below compare
/// against the serial merge.
fn shard_merge_key_groups<F: FnMut(usize, &[u8], &[&[u8]])>(
    bufs: &[KvBuffer],
    shards: usize,
    mut f: F,
) -> usize {
    let spills: Vec<&KvBuffer> = bufs.iter().collect();
    let cuts = plan_shards(&spills, shards);
    let routes: Vec<Route<'_>> = bufs.iter().map(|b| Route::new(b, &cuts)).collect();
    let mut consumed = 0usize;
    for s in 0..=cuts.len() {
        let shard: Vec<Run<'_>> = routes.iter().map(|rt| rt.shard(s)).collect();
        consumed += merge_key_groups(&shard, None, |k, vs| f(s, k, vs));
    }
    consumed
}

/// Build one emit-order run from `(key_id, value)` pairs. Keys come from a
/// tiny id space so equal keys frequently cross runs; values are tagged with
/// the run index and insertion order so value-order violations are visible.
fn run_buffer(run_idx: usize, pairs: &[(u8, u8)]) -> KvBuffer {
    let mut kvs = KvBuffer::default();
    for (i, (kid, v)) in pairs.iter().enumerate() {
        // Two-byte key: duplicates both within and across runs.
        kvs.push(&[b'k', kid % 7], &[*v, run_idx as u8, i as u8]);
    }
    kvs
}

/// One flattened group list: `(key, concatenated values in order)`.
type Groups = Vec<(Vec<u8>, Vec<Vec<u8>>)>;

/// The oracle: concatenate the runs in run order, stable-sort by key, group.
fn reference_groups(bufs: &[KvBuffer]) -> Groups {
    let mut pairs: Vec<(&[u8], &[u8])> =
        bufs.iter().flat_map(|b| b.iter().map(|kv| (kv.key, kv.value))).collect();
    pairs.sort_by(|a, b| a.0.cmp(b.0));
    let mut out: Groups = Vec::new();
    for (k, v) in pairs {
        match out.last_mut() {
            Some((last, vs)) if last.as_slice() == k => vs.push(v.to_vec()),
            _ => out.push((k.to_vec(), vec![v.to_vec()])),
        }
    }
    out
}

fn serial_groups(runs: &[Run<'_>]) -> Groups {
    let mut out: Groups = Vec::new();
    merge_key_groups(runs, None, |key, values| {
        out.push((key.to_vec(), values.iter().map(|v| v.to_vec()).collect()));
    });
    out
}

proptest! {
    #[test]
    fn sharded_merge_is_byte_identical_to_serial(
        runs in proptest::collection::vec(
            proptest::collection::vec((any::<u8>(), any::<u8>()), 0..40), 0..6),
        shards in 1usize..8,
    ) {
        let bufs: Vec<KvBuffer> = runs
            .iter()
            .enumerate()
            .map(|(i, pairs)| run_buffer(i, pairs))
            .collect();
        let runs: Vec<Run<'_>> = bufs.iter().map(Run::new).collect();
        let serial = serial_groups(&runs);
        prop_assert_eq!(&serial, &reference_groups(&bufs));

        // Shard-by-shard merge through the plan, concatenated in shard
        // order, must equal the serial merge...
        let mut sharded: Groups = Vec::new();
        let mut boundary_keys: Vec<Option<Vec<u8>>> = Vec::new();
        let consumed = shard_merge_key_groups(&bufs, shards, |s, key, values| {
            if boundary_keys.len() <= s {
                boundary_keys.resize(s + 1, None);
                boundary_keys[s] = Some(key.to_vec());
            }
            sharded.push((key.to_vec(), values.iter().map(|v| v.to_vec()).collect()));
        });
        prop_assert_eq!(&sharded, &serial);
        prop_assert_eq!(consumed, bufs.iter().map(KvBuffer::len).sum::<usize>());

        // ...and no key group may straddle a boundary. A straddled group
        // would surface as two adjacent entries with the same key in the
        // concatenation (the serial merge emits each key once), so adjacent
        // sharded groups must always have strictly increasing keys. The
        // per-shard first keys must be strictly increasing as well.
        for w in sharded.windows(2) {
            prop_assert!(w[0].0 < w[1].0, "adjacent groups share a key: {:?}", w[0].0);
        }
        let firsts: Vec<&Vec<u8>> = boundary_keys.iter().flatten().collect();
        for w in firsts.windows(2) {
            prop_assert!(w[0] < w[1], "shard first keys must strictly increase");
        }
    }

    #[test]
    fn empty_and_single_key_runs_never_break_the_plan(
        n_empty in 0usize..4,
        dup_len in 0usize..30,
        shards in 1usize..10,
    ) {
        // Pathological partition: some all-empty runs plus one run whose
        // keys are all identical — no legal cut point exists, so every
        // plan must collapse to one effective shard holding the whole run.
        let mut bufs: Vec<KvBuffer> = (0..n_empty).map(|_| KvBuffer::default()).collect();
        bufs.push(run_buffer(0, &vec![(3u8, 9u8); dup_len]));
        let runs: Vec<Run<'_>> = bufs.iter().map(Run::new).collect();
        let serial = serial_groups(&runs);
        prop_assert_eq!(&serial, &reference_groups(&bufs));

        let mut sharded: Groups = Vec::new();
        shard_merge_key_groups(&bufs, shards, |_, key, values| {
            sharded.push((key.to_vec(), values.iter().map(|v| v.to_vec()).collect()));
        });
        prop_assert_eq!(&sharded, &serial);
        if dup_len > 0 {
            // All duplicates of the single key stay in one group.
            prop_assert_eq!(sharded.len(), 1);
            prop_assert_eq!(sharded[0].1.len(), dup_len);
        }
    }
}
