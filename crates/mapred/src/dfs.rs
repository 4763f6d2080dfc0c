//! A simulated distributed file system: named datasets of record blocks.
//!
//! Each block doubles as an input split for map tasks, mirroring HDFS's
//! block-per-split default. What a job reads and writes is metered by the
//! engine, per job ([`crate::JobMetrics`]), not by the DFS.
//!
//! What the DFS stores is a [`Sealed`] dataset: the blocks plus their
//! per-block checksums, computed once, by [`Sealed::new`], when the bytes are
//! first written. The blocks are immutable, so the sums stay valid for as
//! long as the dataset lives: republishing it ([`SimDfs::put_sealed`] — the
//! scan cache's hit path) and handing it out ([`SimDfs::peek_sealed`]) move
//! the sums along with the blocks instead of hashing every byte again. Only
//! the integrity checks of [`SimDfs::fetch`] and [`SimDfs::verify`] hash
//! stored bytes after that, against the sealed sums.
//!
//! Beside each stored dataset the DFS keeps a memo of read-only artefacts
//! derived from it, such as a broadcast side's hash table: built once per
//! stored copy, shared by every job and engine on the DFS, and dropped with
//! that copy ([`SimDfs::derived`]).

use crate::bytes::Bytes;
use crate::codec::{BlockBuilder, RecordIter};
use crate::fault::FaultPlan;
use crate::integrity;
use std::any::{Any, TypeId};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock, RwLock, Weak};

/// A named dataset: an immutable sequence of record blocks.
#[derive(Clone, Debug, Default)]
pub struct Dataset {
    /// The blocks; each block is a sequence of length-prefixed records.
    pub blocks: Vec<Bytes>,
    /// Total record count.
    pub records: usize,
    /// Per-block record counts, parallel to [`Self::blocks`]. May be empty
    /// on hand-assembled datasets (counts unknown); engine-written and
    /// [`DatasetWriter`]-written datasets always fill it, which lets the
    /// fault-injection kill point know a split's record count without a
    /// decode pass.
    pub block_records: Vec<usize>,
}

impl Dataset {
    /// Total size in bytes.
    pub fn total_bytes(&self) -> usize {
        self.blocks.iter().map(|b| b.len()).sum()
    }

    /// Iterate all records across all blocks.
    pub fn iter_records(&self) -> impl Iterator<Item = &[u8]> {
        self.blocks.iter().flat_map(|b| RecordIter::new(b))
    }

    /// Record count of block `i`, if tracked.
    pub fn block_record_count(&self, i: usize) -> Option<usize> {
        self.block_records.get(i).copied()
    }
}

/// Builder that packs records into blocks of roughly `split_bytes`.
pub struct DatasetWriter {
    split_bytes: usize,
    current: BlockBuilder,
    blocks: Vec<Bytes>,
    block_records: Vec<usize>,
    records: usize,
}

impl DatasetWriter {
    /// Create a writer with the given target split size.
    pub fn new(split_bytes: usize) -> Self {
        DatasetWriter {
            split_bytes: split_bytes.max(1),
            current: BlockBuilder::new(),
            blocks: Vec::new(),
            block_records: Vec::new(),
            records: 0,
        }
    }

    /// Append a record, rolling over to a new block at the split boundary.
    pub fn push(&mut self, record: &[u8]) {
        self.current.push(record);
        self.records += 1;
        if self.current.len() >= self.split_bytes {
            let b = std::mem::take(&mut self.current);
            self.block_records.push(b.records());
            self.blocks.push(Bytes::from(b.finish()));
        }
    }

    /// Finish, producing the dataset.
    pub fn finish(mut self) -> Dataset {
        if !self.current.is_empty() {
            self.block_records.push(self.current.records());
            self.blocks.push(Bytes::from(self.current.finish()));
        }
        Dataset {
            blocks: self.blocks,
            records: self.records,
            block_records: self.block_records,
        }
    }
}

/// A dataset plus the per-block checksums of its bytes — the DFS-side half
/// of the integrity contract, and the unit the DFS stores and the scan cache
/// holds. [`Sealed::new`] is the only place the sums are computed; the fields
/// are private, so a dataset and its sums can only travel together. Sums are
/// behind an `Arc` so clones stay cheap.
#[derive(Clone, Debug)]
pub struct Sealed {
    ds: Dataset,
    block_sums: Arc<Vec<u64>>,
}

impl Sealed {
    /// Seal `ds`: checksum every block, from the bytes being sealed — the
    /// ground truth integrity reads verify against.
    pub fn new(ds: Dataset) -> Sealed {
        let block_sums = ds
            .blocks
            .iter()
            .map(|b| integrity::block_checksum(b))
            .collect();
        Sealed {
            ds,
            block_sums: Arc::new(block_sums),
        }
    }

    /// The sealed dataset.
    pub fn dataset(&self) -> &Dataset {
        &self.ds
    }
}

/// What an integrity-checked read observed (see [`SimDfs::fetch`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IntegrityReport {
    /// Block reads whose checksum mismatched; each was quarantined and the
    /// block re-read from the next replica.
    pub corrupt_blocks: u64,
    /// Extra bytes read by those replica re-reads.
    pub reread_bytes: u64,
    /// Corrupted copies returned to the caller because verification was
    /// disabled. Always zero with checksums on.
    pub silent: u64,
}

/// An artefact derived from a stored dataset, type-erased.
type Artefact = Arc<dyn Any + Send + Sync>;

/// One memo slot: the artefact built for one key, once.
struct Slot {
    /// The artefact's type: one key may name artefacts of several types.
    ty: TypeId,
    key: Box<dyn Any + Send + Sync>,
    /// Shared, so a build runs with the memo unlocked and concurrent
    /// callers of the same key wait on the one build.
    value: Arc<OnceLock<Artefact>>,
}

/// One stored copy of a dataset: the sealed dataset and the memo of what
/// has been derived from it. Replacing or removing the copy drops both.
struct Stored {
    sealed: Sealed,
    derived: Mutex<Vec<Slot>>,
}

impl Stored {
    /// The memo slot of `(key, T)`, made empty if there is none. A dataset
    /// has few artefacts, so the lookup is a scan.
    fn slot<K, T>(&self, key: &K) -> Arc<OnceLock<Artefact>>
    where
        K: Clone + PartialEq + Send + Sync + 'static,
        T: Send + Sync + 'static,
    {
        let ty = TypeId::of::<T>();
        let mut slots = self.derived.lock().unwrap();
        let found = slots
            .iter()
            .find(|s| s.ty == ty && s.key.downcast_ref::<K>() == Some(key));
        if let Some(s) = found {
            return s.value.clone();
        }
        let value = Arc::new(OnceLock::new());
        slots.push(Slot {
            ty,
            key: Box::new(key.clone()),
            value: value.clone(),
        });
        value
    }
}

/// Which stored copy of a dataset a name held ([`SimDfs::copy_of`]): the
/// copy's identity, not its bytes. Storing the name again — [`SimDfs::put`]
/// or [`SimDfs::put_sealed`], of the same bytes too — or removing it makes
/// the id stale, and an id taken on another DFS never matches
/// ([`SimDfs::is_current`]). The id holds a `Weak` to the copy, so the
/// copy's allocation is not reused by a later copy while the id lives.
#[derive(Clone, Debug)]
pub struct CopyId(Weak<Stored>);

/// The simulated DFS, shared between jobs of a workflow.
#[derive(Clone, Default)]
pub struct SimDfs {
    inner: Arc<RwLock<HashMap<String, Arc<Stored>>>>,
    derived_builds: Arc<AtomicU64>,
}

impl SimDfs {
    /// Create an empty DFS.
    pub fn new() -> Self {
        Self::default()
    }

    /// Store a freshly written dataset under `name`, replacing any existing
    /// one: seal it (checksum every block), then [`Self::put_sealed`].
    pub fn put(&self, name: &str, ds: Dataset) {
        self.put_sealed(name, Sealed::new(ds));
    }

    /// Store an already sealed dataset under `name`, replacing any existing
    /// one. Its sums were computed when it was sealed and are stored as they
    /// are: O(blocks), whatever the byte size.
    pub fn put_sealed(&self, name: &str, sealed: Sealed) {
        let stored = Arc::new(Stored {
            sealed,
            derived: Mutex::default(),
        });
        self.inner.write().unwrap().insert(name.to_string(), stored);
    }

    /// The artefact `build` derives from the dataset stored under `name`,
    /// memoized under `key`: `build` runs at most once per stored copy and
    /// `(key, T)`, and a concurrent caller of the same key waits for that
    /// build. `None` when no dataset has that name.
    ///
    /// The artefact lives as long as the copy it was built from, or as long
    /// as a caller holds its `Arc`: [`Self::put`], [`Self::put_sealed`] and
    /// [`Self::remove`] of `name` drop the memo. It is not a stored dataset:
    /// [`Self::stored_bytes`] and the scan cache do not count it.
    pub fn derived<K, T>(
        &self,
        name: &str,
        key: &K,
        build: impl FnOnce(&Dataset) -> T,
    ) -> Option<Arc<T>>
    where
        K: Clone + PartialEq + Send + Sync + 'static,
        T: Send + Sync + 'static,
    {
        let stored = self.inner.read().unwrap().get(name).cloned()?;
        let slot = stored.slot::<K, T>(key);
        let artefact = slot.get_or_init(|| {
            self.derived_builds.fetch_add(1, Ordering::Relaxed);
            Arc::new(build(&stored.sealed.ds))
        });
        artefact.clone().downcast().ok()
    }

    /// How many artefacts [`Self::derived`] has built on this DFS.
    pub fn derived_builds(&self) -> u64 {
        self.derived_builds.load(Ordering::Relaxed)
    }

    /// Fetch a dataset through the integrity read path: every block read
    /// walks the replica chain under the fault plan's corruption decisions.
    /// With `verify` on, a corrupted copy is *detected* by recomputing its
    /// checksum against the sum the dataset was sealed with, quarantined,
    /// and the block re-read from the next replica (the last replica is never
    /// corrupted, so the walk terminates on clean bytes — see
    /// [`FaultPlan::REPLICAS`]). With `verify` off, the first replica's
    /// possibly-flipped copy is returned as-is and counted as silent.
    ///
    /// Without a fault plan this is exactly [`SimDfs::peek`].
    pub fn fetch(
        &self,
        name: &str,
        faults: Option<&FaultPlan>,
        verify: bool,
    ) -> Option<(Dataset, IntegrityReport)> {
        let Sealed {
            mut ds,
            block_sums: sums,
        } = self.peek_sealed(name)?;
        let mut report = IntegrityReport::default();
        let Some(plan) = faults.filter(|p| p.block_corrupt_p > 0.0) else {
            return Some((ds, report));
        };
        for (bi, block) in ds.blocks.iter_mut().enumerate() {
            for replica in 0..FaultPlan::REPLICAS {
                let copy = plan
                    .corrupt_block(name, bi, replica)
                    .and_then(|h| integrity::corrupt_block(block, h));
                let Some(bad) = copy else {
                    break; // this replica reads clean
                };
                if !verify {
                    report.silent += 1;
                    *block = bad;
                    break;
                }
                // Honest detection: recompute the checksum of the bytes we
                // actually got and compare to the sealed sum.
                if integrity::block_checksum(&bad) == sums[bi] {
                    *block = bad; // unreachable: a flip always changes the sum
                    break;
                }
                report.corrupt_blocks += 1;
                report.reread_bytes += block.len() as u64;
            }
        }
        Some((ds, report))
    }

    /// Recompute and verify every block checksum of `name` against the sums
    /// it was sealed with. Returns the dataset's byte size on success,
    /// `None` when the dataset is missing or any block mismatches — the
    /// checkpoint-validation primitive of workflow recovery.
    pub fn verify(&self, name: &str) -> Option<u64> {
        let stored = self.peek_sealed(name)?;
        if stored.ds.blocks.len() != stored.block_sums.len() {
            return None;
        }
        for (b, &sum) in stored.ds.blocks.iter().zip(stored.block_sums.iter()) {
            if integrity::block_checksum(b) != sum {
                return None;
            }
        }
        Some(stored.ds.total_bytes() as u64)
    }

    /// The stored per-block checksums of `name`, if present.
    pub fn block_sums(&self, name: &str) -> Option<Vec<u64>> {
        self.peek_sealed(name).map(|s| s.block_sums.to_vec())
    }

    /// The dataset stored under `name` (cheap: blocks are refcounted).
    pub fn peek(&self, name: &str) -> Option<Dataset> {
        self.peek_sealed(name).map(|s| s.ds)
    }

    /// What is stored under `name`: the dataset with the sums it was sealed
    /// with. Cheap: blocks and sums are refcounted.
    pub fn peek_sealed(&self, name: &str) -> Option<Sealed> {
        let inner = self.inner.read().unwrap();
        inner.get(name).map(|s| s.sealed.clone())
    }

    /// The identity of the copy stored under `name` now, if any.
    pub fn copy_of(&self, name: &str) -> Option<CopyId> {
        let inner = self.inner.read().unwrap();
        inner.get(name).map(|s| CopyId(Arc::downgrade(s)))
    }

    /// Does `name` still hold the copy `id` was taken of?
    pub fn is_current(&self, name: &str, id: &CopyId) -> bool {
        let inner = self.inner.read().unwrap();
        inner
            .get(name)
            .is_some_and(|s| Weak::ptr_eq(&Arc::downgrade(s), &id.0))
    }

    /// Remove a dataset, and with it what was derived from it.
    pub fn remove(&self, name: &str) -> Option<Dataset> {
        let stored = self.inner.write().unwrap().remove(name)?;
        Some(stored.sealed.ds.clone())
    }

    /// Does the dataset exist?
    pub fn contains(&self, name: &str) -> bool {
        self.inner.read().unwrap().contains_key(name)
    }

    /// Names of all stored datasets, sorted.
    pub fn names(&self) -> Vec<String> {
        let mut v: Vec<String> = self.inner.read().unwrap().keys().cloned().collect();
        v.sort();
        v
    }

    /// Current total stored bytes.
    pub fn stored_bytes(&self) -> u64 {
        self.inner
            .read()
            .unwrap()
            .values()
            .map(|s| s.sealed.ds.total_bytes() as u64)
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn writer_splits_blocks() {
        let mut w = DatasetWriter::new(64);
        for i in 0..100u32 {
            w.push(format!("record-{i:04}").as_bytes());
        }
        let ds = w.finish();
        assert!(ds.blocks.len() > 1, "expected multiple splits");
        assert_eq!(ds.records, 100);
        assert_eq!(ds.iter_records().count(), 100);
        // Per-block counts are tracked and consistent with the blocks.
        assert_eq!(ds.block_records.len(), ds.blocks.len());
        assert_eq!(ds.block_records.iter().sum::<usize>(), 100);
        for (i, b) in ds.blocks.iter().enumerate() {
            assert_eq!(ds.block_record_count(i), Some(RecordIter::new(b).count()));
        }
    }

    #[test]
    fn remove_frees_dataset() {
        let dfs = SimDfs::new();
        let mut w = DatasetWriter::new(1024);
        w.push(b"x");
        dfs.put("a", w.finish());
        assert!(dfs.remove("a").is_some());
        assert!(!dfs.contains("a"));
        assert_eq!(dfs.stored_bytes(), 0);
    }

    #[test]
    fn empty_dataset_is_valid() {
        let ds = DatasetWriter::new(128).finish();
        assert_eq!(ds.blocks.len(), 0);
        assert_eq!(ds.total_bytes(), 0);
    }

    fn small_ds(records: &[&[u8]]) -> Dataset {
        let mut w = DatasetWriter::new(1024);
        for r in records {
            w.push(r);
        }
        w.finish()
    }

    #[test]
    fn get_on_missing_name_is_none_and_counts_nothing() {
        let dfs = SimDfs::new();
        assert!(dfs.peek("nope").is_none());
        assert!(dfs.fetch("nope", None, true).is_none());
        assert!(dfs.verify("nope").is_none());
        assert!(dfs.derived("nope", &0u8, |ds| ds.records).is_none());
        assert_eq!(dfs.derived_builds(), 0, "a miss builds nothing");
    }

    #[test]
    fn put_overwrites_dataset_and_checksums_together() {
        let dfs = SimDfs::new();
        dfs.put("a", small_ds(&[b"old-contents"]));
        let old_sums = dfs.block_sums("a").unwrap();
        dfs.put("a", small_ds(&[b"new"]));
        // The replacement is fully visible: data, sums, and verification
        // all reflect the new bytes.
        let got = dfs.peek("a").unwrap();
        assert_eq!(got.iter_records().next().unwrap(), b"new");
        assert_ne!(dfs.block_sums("a").unwrap(), old_sums);
        assert_eq!(dfs.verify("a"), Some(got.total_bytes() as u64));
        assert_eq!(dfs.stored_bytes(), got.total_bytes() as u64);
        assert_eq!(dfs.names(), vec!["a".to_string()]);
    }

    #[test]
    fn remove_then_read_misses() {
        let dfs = SimDfs::new();
        dfs.put("a", small_ds(&[b"x"]));
        assert!(dfs.remove("a").is_some());
        assert!(dfs.peek("a").is_none());
        assert!(dfs.peek_sealed("a").is_none());
        assert!(dfs.block_sums("a").is_none());
        assert!(dfs.remove("a").is_none(), "double remove is a miss");
    }

    #[test]
    fn fetch_detects_quarantines_and_rereads_from_replica() {
        use crate::fault::FaultPlan;
        let dfs = SimDfs::new();
        let ds = small_ds(&[b"payload-record-one", b"payload-record-two"]);
        let size = ds.total_bytes() as u64;
        dfs.put("a", ds.clone());
        // Corrupt every non-final replica read: the verified fetch must
        // still return the clean bytes, charging one re-read per hop.
        let plan = FaultPlan {
            block_corrupt_p: 1.0,
            ..FaultPlan::new(7)
        };
        let (got, report) = dfs.fetch("a", Some(&plan), true).unwrap();
        assert_eq!(
            got.blocks[0].as_ref(),
            ds.blocks[0].as_ref(),
            "verified read must return clean bytes"
        );
        assert_eq!(report.corrupt_blocks as usize, FaultPlan::REPLICAS - 1);
        assert_eq!(report.reread_bytes, (FaultPlan::REPLICAS as u64 - 1) * size);
        assert_eq!(report.silent, 0);
    }

    #[test]
    fn unverified_fetch_returns_silently_corrupt_bytes() {
        use crate::fault::FaultPlan;
        let dfs = SimDfs::new();
        let ds = small_ds(&[b"payload-record-one"]);
        dfs.put("a", ds.clone());
        let plan = FaultPlan {
            block_corrupt_p: 1.0,
            ..FaultPlan::new(7)
        };
        let (got, report) = dfs.fetch("a", Some(&plan), false).unwrap();
        assert_ne!(
            got.blocks[0].as_ref(),
            ds.blocks[0].as_ref(),
            "without verification the flipped copy flows through"
        );
        assert_eq!(report.silent, 1);
        assert_eq!(report.corrupt_blocks, 0);
        // Storage itself was never touched: a later verified read is clean.
        assert_eq!(dfs.verify("a"), Some(ds.total_bytes() as u64));
    }

    #[test]
    fn derived_builds_once_per_stored_copy_and_key() {
        let dfs = SimDfs::new();
        dfs.put("a", small_ds(&[b"x", b"yy"]));
        let records = |ds: &Dataset| ds.records;
        let first = dfs.derived("a", &1u8, records).unwrap();
        let again = dfs.derived("a", &1u8, |_| -> usize { panic!("rebuilt") });
        assert!(Arc::ptr_eq(&first, &again.unwrap()));
        // Another key, or another artefact type under the same key, is
        // another artefact.
        assert_eq!(*dfs.derived("a", &2u8, |ds| ds.records + 1).unwrap(), 3);
        assert_eq!(*dfs.derived("a", &1u8, |ds| ds.blocks.len() as u32).unwrap(), 1);
        assert_eq!(dfs.derived_builds(), 3);
        // A new copy starts from an empty memo; the old artefact lives on
        // in its holder's hands.
        dfs.put("a", small_ds(&[b"z"]));
        assert_eq!(*dfs.derived("a", &1u8, records).unwrap(), 1);
        assert_eq!(*first, 2);
        let sealed = dfs.peek_sealed("a").unwrap();
        dfs.put_sealed("a", sealed);
        assert_eq!(*dfs.derived("a", &1u8, records).unwrap(), 1);
        assert_eq!(dfs.derived_builds(), 5);
        dfs.remove("a");
        assert!(dfs.derived("a", &1u8, records).is_none(), "no dataset, no artefact");
        assert_eq!(dfs.derived_builds(), 5);
    }

    #[test]
    fn concurrent_callers_of_one_key_share_one_build() {
        let dfs = SimDfs::new();
        dfs.put("a", small_ds(&[b"x"]));
        let calls: Vec<_> = (0..4)
            .map(|_| {
                let dfs = dfs.clone();
                std::thread::spawn(move || dfs.derived("a", &"k", |ds| ds.records).unwrap())
            })
            .collect();
        let got: Vec<Arc<usize>> = calls.into_iter().map(|c| c.join().unwrap()).collect();
        assert!(got.iter().all(|a| Arc::ptr_eq(a, &got[0])));
        assert_eq!(dfs.derived_builds(), 1);
    }

    #[test]
    fn a_copy_id_is_current_until_its_name_is_stored_again_or_removed() {
        let dfs = SimDfs::new();
        assert!(dfs.copy_of("a").is_none(), "no dataset, no copy");
        dfs.put("a", small_ds(&[b"x"]));
        dfs.put("b", small_ds(&[b"x"]));
        let a = dfs.copy_of("a").unwrap();
        assert!(dfs.is_current("a", &a));
        assert!(dfs.is_current("a", &dfs.copy_of("a").unwrap()));
        assert!(!dfs.is_current("b", &a), "equal bytes, another copy");
        // Another DFS holding the same bytes under the same name.
        let other = SimDfs::new();
        other.put("a", small_ds(&[b"x"]));
        assert!(!other.is_current("a", &a));
        assert!(!dfs.is_current("a", &other.copy_of("a").unwrap()));
        // Every way of storing the name again makes the id stale.
        dfs.put("a", dfs.peek("a").unwrap());
        assert!(!dfs.is_current("a", &a));
        let a = dfs.copy_of("a").unwrap();
        dfs.put_sealed("a", dfs.peek_sealed("a").unwrap());
        assert!(!dfs.is_current("a", &a));
        let a = dfs.copy_of("a").unwrap();
        dfs.remove("a");
        assert!(!dfs.is_current("a", &a));
        dfs.put("a", small_ds(&[b"x"]));
        assert!(!dfs.is_current("a", &a), "a removed copy stays stale");
    }

    #[test]
    fn fetch_without_faults_is_plain_get() {
        let dfs = SimDfs::new();
        dfs.put("a", small_ds(&[b"x"]));
        let (got, report) = dfs.fetch("a", None, true).unwrap();
        assert_eq!(got.records, 1);
        assert_eq!(report, IntegrityReport::default());
    }
}
