//! Cross-query scan cache: an LRU over keyed job outputs.
//!
//! The serving front end runs many workflows whose early jobs scan the
//! same base datasets with the same plan shape (same triplegroup store,
//! same VP/ExtVP reduction, same star filter). Those jobs carry a
//! `cache_key` (see [`crate::job::Job::cache_key`]); when the engine
//! meets a keyed job whose output is cached, it skips the job body and
//! republishes the cached dataset under the job's output name.
//!
//! An entry is a [`Sealed`] dataset: the blocks together with the per-block
//! checksums the DFS computed when the job's output was first written. A hit
//! hands both back, so republishing it ([`crate::SimDfs::put_sealed`]) costs
//! O(blocks), not a second pass over every byte.
//!
//! Determinism: eviction order is strict LRU driven by a monotone access
//! counter, never by wall time or pointer identity, so two identical
//! traffic replays produce identical hit/miss/eviction ledgers. The
//! byte budget is enforced at insert; entries larger than the whole
//! budget are never admitted.

use std::collections::HashMap;
use std::sync::{Arc, Mutex};

use crate::dfs::Sealed;

/// Running cache counters (monotone; read via [`ScanCache::stats`]).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ScanCacheStats {
    /// Lookups that found a live entry.
    pub hits: u64,
    /// Lookups that found nothing.
    pub misses: u64,
    /// Entries evicted to make room for an insert.
    pub evictions: u64,
    /// Inserts rejected because the entry alone exceeds the budget.
    pub rejected_oversize: u64,
    /// Bytes currently resident.
    pub resident_bytes: u64,
    /// Entries currently resident.
    pub resident_entries: u64,
}

#[derive(Debug)]
struct Entry {
    data: Sealed,
    bytes: u64,
    /// Last-use stamp from the monotone counter; unique per access, so
    /// LRU order is a total order and eviction is deterministic.
    used: u64,
}

#[derive(Debug, Default)]
struct Inner {
    entries: HashMap<String, Entry>,
    clock: u64,
    stats: ScanCacheStats,
}

/// Shared, thread-safe LRU scan cache with a byte budget.
///
/// Cloning shares the underlying store — one cache serves every engine
/// and workflow of a serving session.
#[derive(Debug, Clone)]
pub struct ScanCache {
    inner: Arc<Mutex<Inner>>,
    budget_bytes: u64,
}

impl ScanCache {
    /// Create a cache with the given byte budget.
    pub fn new(budget_bytes: u64) -> Self {
        ScanCache {
            inner: Arc::new(Mutex::new(Inner::default())),
            budget_bytes,
        }
    }

    /// The configured byte budget.
    pub fn budget_bytes(&self) -> u64 {
        self.budget_bytes
    }

    /// Look up a key, refreshing its LRU stamp on hit.
    pub fn get(&self, key: &str) -> Option<Sealed> {
        let mut inner = self.inner.lock().unwrap();
        inner.clock += 1;
        let clock = inner.clock;
        match inner.entries.get_mut(key) {
            Some(e) => {
                e.used = clock;
                let data = e.data.clone();
                inner.stats.hits += 1;
                Some(data)
            }
            None => {
                inner.stats.misses += 1;
                None
            }
        }
    }

    /// Insert (or refresh) an entry, evicting least-recently-used entries
    /// until the budget holds. Returns the number of evictions performed.
    /// Oversize entries (larger than the whole budget) are not admitted.
    pub fn insert(&self, key: &str, data: Sealed) -> u64 {
        let bytes = data.dataset().total_bytes() as u64;
        let mut inner = self.inner.lock().unwrap();
        if bytes > self.budget_bytes {
            inner.stats.rejected_oversize += 1;
            return 0;
        }
        inner.clock += 1;
        let clock = inner.clock;
        if let Some(old) = inner.entries.insert(
            key.to_string(),
            Entry { data, bytes, used: clock },
        ) {
            inner.stats.resident_bytes -= old.bytes;
        } else {
            inner.stats.resident_entries += 1;
        }
        inner.stats.resident_bytes += bytes;
        let mut evicted = 0;
        while inner.stats.resident_bytes > self.budget_bytes {
            // Strict LRU: smallest `used` stamp goes first. Stamps are
            // unique, so the victim is unambiguous.
            let victim = inner
                .entries
                .iter()
                .filter(|(k, _)| k.as_str() != key)
                .min_by_key(|(_, e)| e.used)
                .map(|(k, _)| k.clone());
            match victim {
                Some(k) => {
                    let e = inner.entries.remove(&k).unwrap();
                    inner.stats.resident_bytes -= e.bytes;
                    inner.stats.resident_entries -= 1;
                    inner.stats.evictions += 1;
                    evicted += 1;
                }
                None => break, // only the fresh entry left; budget holds by the oversize gate
            }
        }
        evicted
    }

    /// Snapshot the counters.
    pub fn stats(&self) -> ScanCacheStats {
        self.inner.lock().unwrap().stats.clone()
    }

    /// Drop every entry (counters are kept — they are a ledger, not state).
    pub fn clear(&self) {
        let mut inner = self.inner.lock().unwrap();
        inner.entries.clear();
        inner.stats.resident_bytes = 0;
        inner.stats.resident_entries = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dfs::DatasetWriter;

    fn dataset(records: usize, payload: &[u8]) -> Sealed {
        let mut w = DatasetWriter::new(1 << 20);
        for _ in 0..records {
            w.push(payload);
        }
        Sealed::new(w.finish())
    }

    #[test]
    fn hit_returns_identical_dataset() {
        let cache = ScanCache::new(1 << 20);
        let d = dataset(10, b"abcdef");
        cache.insert("k", d.clone());
        let got = cache.get("k").expect("hit");
        assert_eq!(got.dataset().records, d.dataset().records);
        assert_eq!(got.dataset().blocks.len(), d.dataset().blocks.len());
        let s = cache.stats();
        assert_eq!((s.hits, s.misses), (1, 0));
    }

    #[test]
    fn miss_is_counted() {
        let cache = ScanCache::new(1 << 20);
        assert!(cache.get("nope").is_none());
        assert_eq!(cache.stats().misses, 1);
    }

    #[test]
    fn lru_eviction_is_deterministic() {
        // Budget fits two entries; touching "a" makes "b" the victim.
        let d = dataset(1, &[0u8; 100]);
        let per = d.dataset().total_bytes() as u64;
        let cache = ScanCache::new(per * 2);
        cache.insert("a", d.clone());
        cache.insert("b", d.clone());
        assert!(cache.get("a").is_some());
        let evicted = cache.insert("c", d.clone());
        assert_eq!(evicted, 1);
        assert!(cache.get("b").is_none(), "b was least recently used");
        assert!(cache.get("a").is_some());
        assert!(cache.get("c").is_some());
    }

    #[test]
    fn oversize_entries_are_rejected() {
        let d = dataset(100, &[0u8; 100]);
        let cache = ScanCache::new(10);
        assert_eq!(cache.insert("big", d), 0);
        assert!(cache.get("big").is_none());
        assert_eq!(cache.stats().rejected_oversize, 1);
        assert_eq!(cache.stats().resident_bytes, 0);
    }

    #[test]
    fn replay_gives_identical_stats() {
        let run = || {
            let d = dataset(1, &[0u8; 64]);
            let per = d.dataset().total_bytes() as u64;
            let cache = ScanCache::new(per * 2);
            for key in ["a", "b", "a", "c", "b", "a", "d"] {
                if cache.get(key).is_none() {
                    cache.insert(key, d.clone());
                }
            }
            cache.stats()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn clones_share_state() {
        let cache = ScanCache::new(1 << 20);
        let alias = cache.clone();
        cache.insert("k", dataset(1, b"x"));
        assert!(alias.get("k").is_some());
    }
}
