//! The reduce-side shuffle: merge pre-sorted runs into key groups.
//!
//! Each map task leaves one key-sorted run per reduce partition. A merge
//! unit gathers its runs in run order and orders them with the crate's one
//! radix kernel (`radix`), then feeds the reducer a sequence of
//! key groups ([`merge_key_groups`]) — no materialized, re-framed `Vec` of
//! pairs.
//!
//! ## Determinism
//!
//! The merged order is `(key, run, emit)`: the kernel is stable, runs are
//! gathered in canonical map-task order, and every run is itself sorted by
//! `(key, emit order)` ([`KvBuffer::sort_unstable`]). That is exactly what
//! the old engine's stable reduce-side sort over the task-ordered
//! concatenation produced — equal keys surface in (map task, emit) order,
//! byte for byte.

use crate::codec::{KvBuffer, KvRef};
use crate::radix::{self, SortEnt};

/// One pre-sorted run: a [`KvBuffer`] (a map task's spill for one reduce
/// partition), optionally windowed to a contiguous subrange — the unit the
/// shard-parallel merge cuts runs into. With no window the whole buffer is
/// the run.
#[derive(Clone, Copy)]
pub struct Run<'a> {
    buf: &'a KvBuffer,
    /// First buffer position of the window.
    lo: usize,
    /// Window length.
    n: usize,
}

impl<'a> Run<'a> {
    /// A run covering the whole (pre-sorted) buffer.
    pub fn sorted(buf: &'a KvBuffer) -> Self {
        Run {
            buf,
            lo: 0,
            n: buf.len(),
        }
    }

    /// The window `[start, end)` of this run, in run positions. The new
    /// run sees positions `0..end - start`.
    pub fn subrange(&self, start: usize, end: usize) -> Run<'a> {
        debug_assert!(start <= end && end <= self.n);
        Run {
            buf: self.buf,
            lo: self.lo + start,
            n: end - start,
        }
    }

    /// Number of pairs in the run.
    pub fn len(&self) -> usize {
        self.n
    }

    /// True if the run holds no pairs.
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Key bytes of the run's `i`-th pair.
    #[inline]
    pub fn key(&self, i: usize) -> &'a [u8] {
        debug_assert!(i < self.n);
        self.buf.key(self.lo + i)
    }

    /// Value bytes of the run's `i`-th pair.
    #[inline]
    pub fn value(&self, i: usize) -> &'a [u8] {
        debug_assert!(i < self.n);
        self.buf.value(self.lo + i)
    }
}

/// Merge `runs` and hand each key group to `f(key, values)` — the
/// reduce-side shuffle of one unit: gather every pair in run order, order
/// the gathered entries with the radix kernel, then group. With
/// `limit = Some(n)` only the first `n` pairs of the merged order are
/// grouped, the final (possibly cut) group included — the fault-injection
/// kill point, matching the old engine's `kvs[..limit]` prefix semantics.
/// Returns the pairs consumed.
pub fn merge_key_groups<F: FnMut(&[u8], &[&[u8]])>(
    runs: &[Run<'_>],
    limit: Option<usize>,
    mut f: F,
) -> usize {
    let total: usize = runs.iter().map(Run::len).sum();
    let n = limit.map_or(total, |cap| cap.min(total));
    if n == 0 {
        return 0;
    }
    // A sorted run's first and last keys share exactly the prefix all of
    // its keys share.
    let bounds = runs.iter().filter(|r| !r.is_empty());
    let skip = radix::shared_prefix(bounds.flat_map(|r| [r.key(0), r.key(r.len() - 1)]));
    let mut pairs: Vec<KvRef<'_>> = Vec::with_capacity(total);
    let mut ents: Vec<SortEnt> = Vec::with_capacity(total);
    for r in runs {
        for i in 0..r.len() {
            let (key, value) = (r.key(i), r.value(i));
            ents.push(SortEnt::new(&key[skip..], pairs.len()));
            pairs.push(KvRef { key, value });
        }
    }
    let rest = |i: u32| &pairs[i as usize].key[skip..];
    // One sorted run is already in merged order.
    if runs.iter().filter(|r| !r.is_empty()).count() > 1 {
        radix::sort(&mut ents, rest);
    }
    let values: Vec<&[u8]> = ents[..n].iter().map(|e| pairs[e.idx as usize].value).collect();
    let mut start = 0;
    for i in 1..=n {
        if i == n || ents[i - 1].differs(&ents[i], rest) {
            f(pairs[ents[start].idx as usize].key, &values[start..i]);
            start = i;
        }
    }
    n
}

/// Cut a set of pre-sorted runs into at most `shards` disjoint key ranges,
/// each a full set of run windows ready for its own independent merge.
///
/// Cut keys are chosen from per-run quantile samples, then applied to every
/// run with the same `first position whose key >= cut` rule — so all
/// occurrences of any key, across all runs, land in exactly one shard, and
/// no key group ever straddles a shard boundary. Within each shard the runs
/// keep their original order (empty windows included), so the merge's
/// run-order tie-break inside a shard agrees with the serial merge.
/// Concatenating the shard merges in shard order therefore reproduces the
/// serial merge byte for byte: shard ranges partition the key space in
/// ascending order, and within a range the merge is the same merge.
///
/// The returned plan may have fewer than `shards` non-empty shards (duplicate
/// cut candidates collapse), and some shards may be empty; both are harmless
/// to merge and preserve the concatenation identity.
pub fn plan_shards<'a>(runs: &[Run<'a>], shards: usize) -> Vec<Vec<Run<'a>>> {
    let total: usize = runs.iter().map(|r| r.len()).sum();
    if shards <= 1 || total == 0 {
        return vec![runs.to_vec()];
    }

    // Candidate cut keys: each run contributes its quantile keys. Sampling
    // every run keeps the cuts near the true global quantiles even when run
    // key ranges are disjoint or heavily skewed.
    let mut cands: Vec<&'a [u8]> = Vec::new();
    for r in runs {
        if r.is_empty() {
            continue;
        }
        for j in 1..shards {
            let i = (r.len() * j / shards).min(r.len() - 1);
            cands.push(r.key(i));
        }
    }
    cands.sort_unstable();
    cands.dedup();

    // Pick `shards - 1` cuts at candidate quantiles, deduped: equal picks
    // would only manufacture empty shards.
    let mut cuts: Vec<&'a [u8]> = Vec::new();
    for s in 1..shards {
        let i = cands.len() * s / shards;
        if i < cands.len() && cuts.last() != Some(&cands[i]) {
            cuts.push(cands[i]);
        }
    }

    let mut out: Vec<Vec<Run<'a>>> = Vec::with_capacity(cuts.len() + 1);
    let mut prev: Vec<usize> = vec![0; runs.len()];
    for &cut in &cuts {
        let mut shard: Vec<Run<'a>> = Vec::with_capacity(runs.len());
        for (ri, r) in runs.iter().enumerate() {
            let b = lower_bound(r, prev[ri], cut);
            shard.push(r.subrange(prev[ri], b));
            prev[ri] = b;
        }
        out.push(shard);
    }
    out.push(
        runs.iter()
            .enumerate()
            .map(|(ri, r)| r.subrange(prev[ri], r.len()))
            .collect(),
    );
    out
}

/// First position in `[from, r.len())` whose key is `>= cut` (the run is
/// sorted by key, so this is a plain binary search).
fn lower_bound(r: &Run<'_>, from: usize, cut: &[u8]) -> usize {
    let (mut lo, mut hi) = (from, r.len());
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        if r.key(mid) < cut {
            lo = mid + 1;
        } else {
            hi = mid;
        }
    }
    lo
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sorted_buf(pairs: &[(&[u8], &[u8])]) -> KvBuffer {
        let mut b = KvBuffer::new();
        for (k, v) in pairs {
            b.push(k, v);
        }
        b.sort_unstable();
        b
    }

    /// The merged pair sequence, flattened out of the key groups.
    fn merged(runs: &[Run<'_>]) -> Vec<(Vec<u8>, Vec<u8>)> {
        let mut out = Vec::new();
        merge_key_groups(runs, None, |k, vs| {
            out.extend(vs.iter().map(|v| (k.to_vec(), v.to_vec())));
        });
        out
    }

    #[test]
    fn merges_in_key_order_with_run_tiebreak() {
        let a = sorted_buf(&[(b"b", b"a1"), (b"d", b"a2")]);
        let b = sorted_buf(&[(b"a", b"b1"), (b"b", b"b2"), (b"b", b"b3")]);
        let c = sorted_buf(&[(b"c", b"c1")]);
        let runs = [Run::sorted(&a), Run::sorted(&b), Run::sorted(&c)];
        let got = merged(&runs);
        let want: Vec<(Vec<u8>, Vec<u8>)> = vec![
            (b"a".to_vec(), b"b1".to_vec()),
            (b"b".to_vec(), b"a1".to_vec()), // run 0 wins the b-tie
            (b"b".to_vec(), b"b2".to_vec()),
            (b"b".to_vec(), b"b3".to_vec()),
            (b"c".to_vec(), b"c1".to_vec()),
            (b"d".to_vec(), b"a2".to_vec()),
        ];
        assert_eq!(got, want);
    }

    #[test]
    fn merge_matches_reference_sort_on_many_runs() {
        // 7 runs of varying sizes with heavy key overlap.
        let mut bufs = Vec::new();
        for r in 0..7u64 {
            let mut pairs: Vec<(Vec<u8>, Vec<u8>)> = Vec::new();
            for i in 0..(10 + 13 * r) {
                let key = ((i * 7 + r * 3) % 17).to_string().into_bytes();
                pairs.push((key, format!("r{r}i{i}").into_bytes()));
            }
            let mut b = KvBuffer::new();
            for (k, v) in &pairs {
                b.push(k, v);
            }
            b.sort_unstable();
            bufs.push((b, pairs));
        }
        // Reference: task-ordered concatenation, stable sort by key.
        let mut reference: Vec<(Vec<u8>, Vec<u8>)> = Vec::new();
        for (_, pairs) in &bufs {
            reference.extend(pairs.iter().cloned());
        }
        reference.sort_by(|x, y| x.0.cmp(&y.0));
        let runs: Vec<Run<'_>> = bufs.iter().map(|(b, _)| Run::sorted(b)).collect();
        assert_eq!(merged(&runs), reference);
    }

    #[test]
    fn empty_and_single_run_edges() {
        assert_eq!(merged(&[]), Vec::new());
        let empty = KvBuffer::new();
        assert_eq!(merged(&[Run::sorted(&empty)]), Vec::new());
        let one = sorted_buf(&[(b"k", b"v")]);
        assert_eq!(
            merged(&[Run::sorted(&one)]),
            vec![(b"k".to_vec(), b"v".to_vec())]
        );
    }

    #[test]
    fn grouped_merge_groups_and_limits() {
        let a = sorted_buf(&[(b"a", b"1"), (b"b", b"2")]);
        let b = sorted_buf(&[(b"a", b"3"), (b"c", b"4")]);
        let runs = [Run::sorted(&a), Run::sorted(&b)];
        let mut groups: Vec<(Vec<u8>, usize)> = Vec::new();
        let n = merge_key_groups(&runs, None, |k, vs| groups.push((k.to_vec(), vs.len())));
        assert_eq!(n, 4);
        assert_eq!(
            groups,
            vec![(b"a".to_vec(), 2), (b"b".to_vec(), 1), (b"c".to_vec(), 1)]
        );
        // A limit cutting the first group mid-way still emits the partial
        // group (prefix semantics of the fault kill point).
        let mut cut: Vec<(Vec<u8>, usize)> = Vec::new();
        let n = merge_key_groups(&runs, Some(1), |k, vs| cut.push((k.to_vec(), vs.len())));
        assert_eq!(n, 1);
        assert_eq!(cut, vec![(b"a".to_vec(), 1)]);
        assert_eq!(merge_key_groups(&runs, Some(0), |_, _| panic!()), 0);
    }

    #[test]
    fn subrange_windows_a_run() {
        let buf = sorted_buf(&[(b"a", b"1"), (b"b", b"2"), (b"c", b"3"), (b"d", b"4")]);
        let r = Run::sorted(&buf);
        let w = r.subrange(1, 3);
        assert_eq!(w.len(), 2);
        assert_eq!(w.key(0), b"b");
        assert_eq!(w.value(1), b"3");
        let ww = w.subrange(1, 2);
        assert_eq!(ww.len(), 1);
        assert_eq!(ww.key(0), b"c");
        assert!(w.subrange(1, 1).is_empty());
    }

    /// Flatten a shard plan's groups: `(shard, key, values)` triples in
    /// emission order, each shard merged on its own.
    fn sharded_groups(
        runs: &[Run<'_>],
        shards: usize,
    ) -> (usize, Vec<(usize, Vec<u8>, Vec<Vec<u8>>)>) {
        let mut out = Vec::new();
        let mut n = 0;
        for (s, shard) in plan_shards(runs, shards).iter().enumerate() {
            n += merge_key_groups(shard, None, |k, vs| {
                out.push((s, k.to_vec(), vs.iter().map(|v| v.to_vec()).collect()));
            });
        }
        (n, out)
    }

    fn serial_groups(runs: &[Run<'_>]) -> Vec<(Vec<u8>, Vec<Vec<u8>>)> {
        let mut out = Vec::new();
        merge_key_groups(runs, None, |k, vs| {
            out.push((k.to_vec(), vs.iter().map(|v| v.to_vec()).collect()));
        });
        out
    }

    #[test]
    fn shard_plan_covers_without_straddling() {
        // Heavy duplicate keys across runs: every shard must own whole key
        // groups, and concatenation must equal the serial merge.
        let mut bufs = Vec::new();
        for r in 0..5u64 {
            let mut b = KvBuffer::new();
            for i in 0..(40 + 11 * r) {
                let key = ((i * 5 + r) % 13).to_string().into_bytes();
                b.push(&key, format!("r{r}i{i}").into_bytes().as_slice());
            }
            b.sort_unstable();
            bufs.push(b);
        }
        let runs: Vec<Run<'_>> = bufs.iter().map(Run::sorted).collect();
        let serial = serial_groups(&runs);
        let total: usize = runs.iter().map(|r| r.len()).sum();
        for shards in [1, 2, 3, 4, 7, 50] {
            let (n, got) = sharded_groups(&runs, shards);
            assert_eq!(n, total, "shards={shards}: every pair consumed");
            // Shard indices non-decreasing, and each key appears in exactly
            // one shard.
            for pair in got.windows(2) {
                assert!(pair[0].0 <= pair[1].0, "shards={shards}: shard order");
                assert_ne!(pair[0].1, pair[1].1, "shards={shards}: split group");
            }
            let flat: Vec<(Vec<u8>, Vec<Vec<u8>>)> =
                got.into_iter().map(|(_, k, vs)| (k, vs)).collect();
            assert_eq!(flat, serial, "shards={shards}: concat == serial merge");
        }
    }

    #[test]
    fn shard_plan_handles_empty_and_degenerate_runs() {
        let empty = KvBuffer::new();
        let one = sorted_buf(&[(b"k", b"v")]);
        let same = sorted_buf(&[(b"k", b"1"), (b"k", b"2"), (b"k", b"3")]);
        let runs = [Run::sorted(&empty), Run::sorted(&one), Run::sorted(&same)];
        let serial = serial_groups(&runs);
        for shards in [1, 2, 4] {
            let (_, got) = sharded_groups(&runs, shards);
            let flat: Vec<(Vec<u8>, Vec<Vec<u8>>)> =
                got.into_iter().map(|(_, k, vs)| (k, vs)).collect();
            // A single key can never be split: one group, all four values,
            // tie-broken by run order.
            assert_eq!(flat, serial, "shards={shards}");
        }
        // All-empty run set.
        let runs = [Run::sorted(&empty)];
        assert_eq!(sharded_groups(&runs, 4), (0, Vec::new()));
        let plan = plan_shards(&[], 4);
        assert_eq!(plan.len(), 1);
        assert!(plan[0].is_empty());
    }
}
