//! The reduce-side shuffle: order spill runs into key groups.
//!
//! Each map task leaves one run per reduce partition, its pairs in emit
//! order. A merge unit gathers its runs in run order — each front to back,
//! or, in a shard, the positions routed to that shard — orders the gathered
//! entries with the crate's one radix kernel (`radix`), then feeds the
//! reducer a sequence of key groups ([`merge_key_groups`]) — no
//! materialized, re-framed `Vec` of pairs. This is the only place the
//! shuffle orders keys.
//!
//! A partition's merge may be cut into key-range shards: [`plan_shards`]
//! picks the cut keys, and one [`Route`] per run sends each of its pairs to
//! the shard whose range holds the key, so a shard reads only its own pairs.
//!
//! ## Determinism
//!
//! The merged order is `(key, run, emit)`: runs are gathered in canonical
//! map-task order, each in emit order, so gather order is `(run, emit)`, and
//! the kernel is stable. That is exactly what the old engine's stable
//! reduce-side sort over the task-ordered concatenation produced — equal
//! keys surface in (map task, emit) order, byte for byte.

use crate::codec::{KvBuffer, KvRef};
use crate::radix::{self, SortEnt};

/// One spill run: a [`KvBuffer`] (a map task's spill for one reduce
/// partition, pairs in emit order), or the part of one that a [`Route`]
/// sent to a shard.
#[derive(Clone, Copy)]
pub struct Run<'a> {
    buf: &'a KvBuffer,
    /// The buffer positions the run holds, ascending; `None` holds them all.
    picks: Option<&'a [u32]>,
}

impl<'a> Run<'a> {
    /// A run over the whole buffer.
    pub fn new(buf: &'a KvBuffer) -> Self {
        Run { buf, picks: None }
    }

    /// Number of pairs the run holds.
    fn len(&self) -> usize {
        self.picks.map_or(self.buf.len(), <[u32]>::len)
    }
}

/// Merge `runs` and hand each key group to `f(key, values)` — the
/// reduce-side shuffle of one unit: gather every pair in `(run, position)`
/// order, order the gathered entries with the radix kernel, then group.
/// With `limit = Some(n)` only the first `n` pairs of the merged order are
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
    // The unit's shared prefix: the least of each spill's own (recorded at
    // spill time) and of what the spills' first keys share — a bound for
    // any subset of their keys too.
    let spills = || runs.iter().map(|r| r.buf).filter(|b| !b.is_empty());
    let heads = radix::shared_prefix(spills().map(|b| b.key(0)));
    let skip = spills().fold(heads, |skip, b| skip.min(b.shared_prefix()));
    let mut pairs: Vec<KvRef<'_>> = Vec::with_capacity(total);
    let mut ents: Vec<SortEnt> = Vec::with_capacity(total);
    for r in runs {
        let mut gather = |i: usize| {
            let key = r.buf.key(i);
            ents.push(SortEnt::new(&key[skip..], pairs.len()));
            pairs.push(KvRef { key, value: r.buf.value(i) });
        };
        match r.picks {
            None => (0..r.buf.len()).for_each(&mut gather),
            Some(picks) => picks.iter().for_each(|&i| gather(i as usize)),
        }
    }
    let rest = |i: u32| &pairs[i as usize].key[skip..];
    radix::sort(&mut ents, rest);
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

/// Candidate cut keys drawn from each spill per requested shard.
const SAMPLES_PER_SHARD: usize = 8;

/// The cut keys that split the merge of a partition's `spills` into at most
/// `shards` key-range shards: shard `s` holds the keys in
/// `[cuts[s - 1], cuts[s])`, the first shard open below and the last open
/// above. No cuts means one shard.
///
/// Cut keys come from a deterministic sample of the spills' keys (evenly
/// spaced positions of every spill), sorted and deduplicated, so there may
/// be fewer than `shards - 1` of them and a shard may come out empty; both
/// are harmless to merge. All occurrences of a key, across all spills, land
/// in one shard, so no key group straddles a boundary, and the shard ranges
/// ascend: concatenating the shard merges in shard order reproduces the
/// serial merge byte for byte.
pub fn plan_shards<'a>(spills: &[&'a KvBuffer], shards: usize) -> Vec<&'a [u8]> {
    let total: usize = spills.iter().map(|b| b.len()).sum();
    if shards <= 1 || total == 0 {
        return Vec::new();
    }

    // Sampling every spill keeps the cuts near the true global quantiles
    // even when spill key ranges are disjoint or heavily skewed.
    let per_spill = shards * SAMPLES_PER_SHARD;
    let mut cands: Vec<&'a [u8]> = Vec::new();
    for &b in spills {
        let (n, m) = (b.len(), per_spill.min(b.len()));
        cands.extend((0..m).map(|j| b.key(j * n / m)));
    }
    cands.sort();
    cands.dedup();

    // Pick `shards - 1` cuts at candidate quantiles, deduped: equal picks
    // would only manufacture empty shards.
    let mut cuts: Vec<&'a [u8]> = Vec::new();
    for s in 1..shards {
        let i = cands.len() * s / shards;
        if cuts.last() != Some(&cands[i]) {
            cuts.push(cands[i]);
        }
    }
    cuts
}

/// One spill's pairs routed to the shards of a partition's cut keys
/// ([`plan_shards`]). One pass counts the cuts at or below each pair's key —
/// its shard — and lays the spill's positions out grouped by shard,
/// ascending within each, so a shard's merge reads only its own pairs, in
/// the serial merge's `(run, position)` order, and sizes its arrays by
/// their count. Cuts are few (the engine aims at about two merge units per
/// worker), and a linear count has no branch for the keys to mispredict, as
/// a binary search does.
pub struct Route<'a> {
    buf: &'a KvBuffer,
    /// The spill's positions, grouped by shard in shard order.
    picks: Vec<u32>,
    /// Shard `s` holds `picks[ends[s]..ends[s + 1]]`.
    ends: Vec<u32>,
}

impl<'a> Route<'a> {
    /// Route every pair of `buf` to the shard whose half-open range of
    /// `cuts` holds its key.
    pub fn new(buf: &'a KvBuffer, cuts: &[&[u8]]) -> Self {
        let shard: Vec<u32> = (0..buf.len())
            .map(|i| cuts.iter().filter(|&&cut| cut <= buf.key(i)).count() as u32)
            .collect();
        let mut ends = vec![0u32; cuts.len() + 2];
        for &s in &shard {
            ends[s as usize + 1] += 1;
        }
        for s in 1..ends.len() {
            ends[s] += ends[s - 1];
        }
        // Each shard's write cursor starts at its first slot.
        let mut next = ends.clone();
        let mut picks = vec![0u32; buf.len()];
        for (i, &s) in shard.iter().enumerate() {
            picks[next[s as usize] as usize] = i as u32;
            next[s as usize] += 1;
        }
        Route { buf, picks, ends }
    }

    /// The part of the spill routed to shard `s`.
    pub fn shard(&self, s: usize) -> Run<'_> {
        let (lo, hi) = (self.ends[s] as usize, self.ends[s + 1] as usize);
        Run {
            buf: self.buf,
            picks: Some(&self.picks[lo..hi]),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn buf(pairs: &[(&[u8], &[u8])]) -> KvBuffer {
        let mut b = KvBuffer::new();
        for (k, v) in pairs {
            b.push(k, v);
        }
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
        let a = buf(&[(b"d", b"a2"), (b"b", b"a1")]);
        let b = buf(&[(b"b", b"b2"), (b"a", b"b1"), (b"b", b"b3")]);
        let c = buf(&[(b"c", b"c1")]);
        let runs = [Run::new(&a), Run::new(&b), Run::new(&c)];
        let got = merged(&runs);
        let want: Vec<(Vec<u8>, Vec<u8>)> = vec![
            (b"a".to_vec(), b"b1".to_vec()),
            (b"b".to_vec(), b"a1".to_vec()), // run 0 wins the b-tie
            (b"b".to_vec(), b"b2".to_vec()), // then run 1 in emit order
            (b"b".to_vec(), b"b3".to_vec()),
            (b"c".to_vec(), b"c1".to_vec()),
            (b"d".to_vec(), b"a2".to_vec()),
        ];
        assert_eq!(got, want);
    }

    #[test]
    fn merge_matches_reference_sort_on_many_runs() {
        // 7 emit-order runs of varying sizes with heavy key overlap.
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
            bufs.push((b, pairs));
        }
        // Reference: task-ordered concatenation, stable sort by key.
        let mut reference: Vec<(Vec<u8>, Vec<u8>)> = Vec::new();
        for (_, pairs) in &bufs {
            reference.extend(pairs.iter().cloned());
        }
        reference.sort_by(|x, y| x.0.cmp(&y.0));
        let runs: Vec<Run<'_>> = bufs.iter().map(|(b, _)| Run::new(b)).collect();
        assert_eq!(merged(&runs), reference);
    }

    #[test]
    fn empty_and_single_run_edges() {
        assert_eq!(merged(&[]), Vec::new());
        let empty = KvBuffer::new();
        assert_eq!(merged(&[Run::new(&empty)]), Vec::new());
        // One run is ordered too: its pairs arrive in emit order.
        let one = buf(&[(b"k2", b"1"), (b"k1", b"2"), (b"k2", b"3")]);
        let pair = |k: &[u8], v: &[u8]| (k.to_vec(), v.to_vec());
        assert_eq!(
            merged(&[Run::new(&one)]),
            vec![pair(b"k1", b"2"), pair(b"k2", b"1"), pair(b"k2", b"3")]
        );
    }

    #[test]
    fn grouped_merge_groups_and_limits() {
        let a = buf(&[(b"b", b"2"), (b"a", b"1")]);
        let b = buf(&[(b"c", b"4"), (b"a", b"3")]);
        let runs = [Run::new(&a), Run::new(&b)];
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
    fn a_route_sends_each_key_to_its_half_open_range() {
        let b = buf(&[(b"d", b"1"), (b"a", b"2"), (b"b", b"3"), (b"e", b"4"), (b"c", b"5")]);
        let route = Route::new(&b, &[b"b", b"d"]);
        let keys = |s: usize| {
            let mut out = Vec::new();
            merge_key_groups(&[route.shard(s)], None, |k, vs| {
                out.extend(vs.iter().map(|_| k.to_vec()));
            });
            out
        };
        // A key equal to a cut opens the shard above it.
        assert_eq!(keys(0), [b"a".to_vec()]);
        assert_eq!(keys(1), [b"b".to_vec(), b"c".to_vec()]);
        assert_eq!(keys(2), [b"d".to_vec(), b"e".to_vec()]);
        // Positions stay in buffer order within a shard.
        assert_eq!(route.shard(2).picks, Some(&[0u32, 3][..]));
        let whole = Route::new(&b, &[]);
        assert_eq!(whole.shard(0).picks, Some(&[0u32, 1, 2, 3, 4][..]));
    }

    /// `(shard, key, values)` triples in emission order.
    type ShardGroups = Vec<(usize, Vec<u8>, Vec<Vec<u8>>)>;

    /// Flatten a shard plan's groups, each shard merged on its own.
    fn sharded_groups(bufs: &[&KvBuffer], shards: usize) -> (usize, ShardGroups) {
        let cuts = plan_shards(bufs, shards);
        let routes: Vec<Route<'_>> = bufs.iter().map(|b| Route::new(b, &cuts)).collect();
        let mut out = Vec::new();
        let mut n = 0;
        for s in 0..=cuts.len() {
            let shard: Vec<Run<'_>> = routes.iter().map(|rt| rt.shard(s)).collect();
            n += merge_key_groups(&shard, None, |k, vs| {
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
            bufs.push(b);
        }
        let runs: Vec<Run<'_>> = bufs.iter().map(Run::new).collect();
        let serial = serial_groups(&runs);
        let total: usize = bufs.iter().map(KvBuffer::len).sum();
        let spills: Vec<&KvBuffer> = bufs.iter().collect();
        for shards in [1, 2, 3, 4, 7, 50] {
            let (n, got) = sharded_groups(&spills, shards);
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
        let one = buf(&[(b"k", b"v")]);
        let same = buf(&[(b"k", b"1"), (b"k", b"2"), (b"k", b"3")]);
        let runs = [Run::new(&empty), Run::new(&one), Run::new(&same)];
        let serial = serial_groups(&runs);
        for shards in [1, 2, 4] {
            let (_, got) = sharded_groups(&[&empty, &one, &same], shards);
            let flat: Vec<(Vec<u8>, Vec<Vec<u8>>)> =
                got.into_iter().map(|(_, k, vs)| (k, vs)).collect();
            // A single key can never be split: one group, all four values,
            // tie-broken by run order.
            assert_eq!(flat, serial, "shards={shards}");
        }
        // All-empty run sets plan no cuts: one shard.
        assert_eq!(sharded_groups(&[&empty], 4), (0, Vec::new()));
        assert!(plan_shards(&[&empty], 4).is_empty());
        assert!(plan_shards(&[], 4).is_empty());
    }
}
