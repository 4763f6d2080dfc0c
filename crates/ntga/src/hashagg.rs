//! Open-addressing partial-aggregation table for map-side combining.
//!
//! Replaces the `FxHashMap<Vec<u8>, Vec<PartialAgg>>` combine state: group
//! keys live in one flat `u64` arena (the table tag — spec id or key width
//! — is stored as the first key element), partial states in one flat
//! [`PartialAgg`] arena, and the open-addressed index holds only entry
//! numbers. No per-group boxing, no per-record key allocation: probing a
//! present key touches the index and the key arena only.
//!
//! Draining is deterministic regardless of insertion order:
//! [`AggTable::drain_sorted`] visits entries in lexicographic key order.
//! (Strictly, any drain order would yield byte-identical *final* output —
//! the shuffle re-sorts combiner records by key bytes — but sorted flushes
//! also pin intermediate map-output bytes, which the chaos suite and
//! metrics signatures compare.)

use crate::spec::PartialAgg;
use rapida_rdf::fxhash::FxHasher;
use std::hash::Hasher;

/// One table entry: spans into the key and slot arenas.
#[derive(Debug, Clone, Copy)]
struct Entry {
    hash: u64,
    key_off: u32,
    key_len: u32,
    slot_off: u32,
    slot_len: u32,
}

/// The partial-aggregation hash table. Keys are `(tag, group key)` tuples
/// of `u64`s; values are flat runs of [`PartialAgg`] slots (one per
/// aggregate of the owning spec — specs may differ in arity within one
/// table).
#[derive(Debug, Default)]
pub struct AggTable {
    /// Flat key arena: each entry's key is `tag` followed by its group key.
    keys: Vec<u64>,
    /// Flat partial-state arena.
    slots: Vec<PartialAgg>,
    entries: Vec<Entry>,
    /// Open-addressed index of `entry index + 1` (0 = empty). Power-of-two
    /// sized; linear probing.
    index: Vec<u32>,
}

fn hash_key(tag: u64, key: &[u64]) -> u64 {
    let mut h = FxHasher::default();
    h.write_u64(tag);
    for &k in key {
        h.write_u64(k);
    }
    h.finish()
}

impl AggTable {
    /// Number of distinct groups in the table.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Is the table empty?
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The partial-state slots for `(tag, key)`, inserting `nagg` default
    /// slots on first sight. `tag` disambiguates keys across specs sharing
    /// the table (and must determine `nagg`).
    pub fn slots_mut(&mut self, tag: u64, key: &[u64], nagg: usize) -> &mut [PartialAgg] {
        self.maybe_grow();
        let hash = hash_key(tag, key);
        let mask = self.index.len() - 1;
        let mut pos = (hash as usize) & mask;
        let entry_idx = loop {
            match self.index[pos] {
                0 => {
                    // Vacant: append a new entry.
                    let key_off = self.keys.len() as u32;
                    self.keys.push(tag);
                    self.keys.extend_from_slice(key);
                    let slot_off = self.slots.len() as u32;
                    self.slots
                        .extend(std::iter::repeat_n(PartialAgg::default(), nagg));
                    let idx = self.entries.len();
                    self.entries.push(Entry {
                        hash,
                        key_off,
                        key_len: (key.len() + 1) as u32,
                        slot_off,
                        slot_len: nagg as u32,
                    });
                    self.index[pos] = (idx + 1) as u32;
                    break idx;
                }
                slot => {
                    let idx = (slot - 1) as usize;
                    let e = self.entries[idx];
                    if e.hash == hash && self.entry_key(&e) == Some((tag, key)) {
                        break idx;
                    }
                    pos = (pos + 1) & mask;
                }
            }
        };
        let e = self.entries[entry_idx];
        &mut self.slots[e.slot_off as usize..(e.slot_off + e.slot_len) as usize]
    }

    fn entry_key(&self, e: &Entry) -> Option<(u64, &[u64])> {
        let span = &self.keys[e.key_off as usize..(e.key_off + e.key_len) as usize];
        span.split_first().map(|(&tag, key)| (tag, key))
    }

    /// Grow + rehash when the next insert could push load factor past 7/8.
    fn maybe_grow(&mut self) {
        if self.index.is_empty() {
            self.index = vec![0; 16];
            return;
        }
        if (self.entries.len() + 1) * 8 <= self.index.len() * 7 {
            return;
        }
        let new_cap = self.index.len() * 2;
        let mask = new_cap - 1;
        let mut index = vec![0u32; new_cap];
        for (i, e) in self.entries.iter().enumerate() {
            let mut pos = (e.hash as usize) & mask;
            while index[pos] != 0 {
                pos = (pos + 1) & mask;
            }
            index[pos] = (i + 1) as u32;
        }
        self.index = index;
    }

    /// Visit every `(full key, slots)` pair in lexicographic key order —
    /// `full key` includes the tag as element 0 — then clear the table,
    /// keeping its capacity for the next batch.
    pub fn drain_sorted(&mut self, mut f: impl FnMut(&[u64], &[PartialAgg])) {
        let mut order: Vec<u32> = (0..self.entries.len() as u32).collect();
        order.sort_unstable_by(|&a, &b| {
            let ea = self.entries[a as usize];
            let eb = self.entries[b as usize];
            let ka = &self.keys[ea.key_off as usize..(ea.key_off + ea.key_len) as usize];
            let kb = &self.keys[eb.key_off as usize..(eb.key_off + eb.key_len) as usize];
            ka.cmp(kb)
        });
        for i in order {
            let e = self.entries[i as usize];
            let key = &self.keys[e.key_off as usize..(e.key_off + e.key_len) as usize];
            let slots = &self.slots[e.slot_off as usize..(e.slot_off + e.slot_len) as usize];
            f(key, slots);
        }
        self.keys.clear();
        self.slots.clear();
        self.entries.clear();
        self.index.iter_mut().for_each(|s| *s = 0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn groups_accumulate_and_drain_sorted() {
        let mut t = AggTable::default();
        t.slots_mut(1, &[30, 2], 1)[0].add(Some(5.0));
        t.slots_mut(1, &[10, 4], 2)[1].add(None);
        t.slots_mut(1, &[30, 2], 1)[0].add(Some(7.0));
        t.slots_mut(0, &[99], 1)[0].add(None);
        assert_eq!(t.len(), 3);

        let mut seen: Vec<(Vec<u64>, Vec<u64>)> = Vec::new();
        t.drain_sorted(|k, s| {
            seen.push((k.to_vec(), s.iter().map(|p| p.count).collect()));
        });
        assert_eq!(
            seen,
            vec![
                (vec![0, 99], vec![1]),
                (vec![1, 10, 4], vec![0, 1]),
                (vec![1, 30, 2], vec![2]),
            ]
        );
        let folded: f64 = {
            let mut t2 = AggTable::default();
            t2.slots_mut(1, &[30, 2], 1)[0].add(Some(5.0));
            t2.slots_mut(1, &[30, 2], 1)[0].add(Some(7.0));
            let mut sum = 0.0;
            t2.drain_sorted(|_, s| sum = s[0].sum);
            sum
        };
        assert_eq!(folded, 12.0);
        // Drained table is empty and reusable.
        assert!(t.is_empty());
        t.slots_mut(5, &[], 1)[0].add(None);
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn survives_growth_and_collisions() {
        let mut t = AggTable::default();
        for i in 0..1000u64 {
            t.slots_mut(0, &[i % 250, (i / 250) % 2], 1)[0].add(Some(1.0));
        }
        assert_eq!(t.len(), 500);
        let mut total = 0u64;
        let mut last: Option<Vec<u64>> = None;
        t.drain_sorted(|k, s| {
            assert_eq!(s[0].count, 2);
            if let Some(prev) = &last {
                assert!(prev.as_slice() < k, "drain must be key-sorted");
            }
            last = Some(k.to_vec());
            total += s[0].count;
        });
        assert_eq!(total, 1000);
    }

    #[test]
    fn empty_key_group_by_all() {
        let mut t = AggTable::default();
        t.slots_mut(3, &[], 2)[0].add(Some(1.0));
        t.slots_mut(3, &[], 2)[1].add(None);
        assert_eq!(t.len(), 1);
        t.drain_sorted(|k, s| {
            assert_eq!(k, &[3]);
            assert_eq!((s[0].count, s[1].count), (1, 1));
        });
    }
}
