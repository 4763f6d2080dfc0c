//! A simple in-memory triple collection with its dictionary. Storage
//! layouts (vertical partitions, triplegroups) are built from a [`Graph`]
//! by `rapida-storage`.

use crate::dict::Dictionary;
use crate::fxhash::FxHasher;
use crate::ntriples::NtDocument;
use crate::term::Term;
use crate::triple::Triple;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

/// A set of dictionary-encoded triples plus the dictionary that encodes them.
#[derive(Clone, Debug, Default)]
pub struct Graph {
    /// The dictionary, shared read-only with whatever is loaded from this
    /// graph. Interning copies it first if it is shared (`Arc::make_mut`),
    /// so a catalog never sees a term the graph interns after the load.
    pub dict: Arc<Dictionary>,
    /// The triples, in insertion order (duplicates removed).
    pub triples: Vec<Triple>,
    index: DedupIndex,
}

impl Graph {
    /// Create an empty graph with a fresh dictionary.
    pub fn new() -> Self {
        Self::default()
    }

    /// Insert an encoded triple. Returns `true` if it was new.
    ///
    /// After a bulk load the first call rebuilds the dedup index from
    /// `triples` (one pass); later calls keep it.
    pub fn insert(&mut self, t: Triple) -> bool {
        self.index.reserve(&self.triples, 1);
        self.index.insert(&mut self.triples, t)
    }

    /// Intern and insert a term-level triple.
    pub fn insert_terms(&mut self, s: &Term, p: &Term, o: &Term) -> bool {
        let dict = Arc::make_mut(&mut self.dict);
        let t = Triple::new(dict.intern(s), dict.intern(p), dict.intern(o));
        self.insert(t)
    }

    /// Load a parsed N-Triples document: its terms are interned straight
    /// from the text, in document order. Ids and triple order are those of
    /// inserting the triples one by one.
    ///
    /// The dedup index is sized for the whole document up front and
    /// released before this returns: nothing reads it after a load.
    pub fn insert_term_triples(&mut self, doc: &NtDocument<'_>) {
        // A run of triples is interned, then inserted: alternating the
        // dictionary's tables and the dedup structure per triple made the load
        // ≈ 35 % slower on bsbm-24k.
        const RUN: usize = 4096;
        let Graph { dict, triples, index } = self;
        triples.reserve(doc.len());
        index.reserve(triples, doc.len());
        let dict = Arc::make_mut(dict);
        let mut terms = doc.term_refs();
        let mut run = Vec::with_capacity(RUN);
        loop {
            let interned = terms.by_ref().take(RUN);
            run.extend(interned.map(|[s, p, o]| Triple::new(dict.intern_ref(s), dict.intern_ref(p), dict.intern_ref(o))));
            if run.is_empty() {
                break;
            }
            for t in run.drain(..) {
                index.insert(triples, t);
            }
        }
        *index = DedupIndex::default();
    }

    /// Number of triples.
    pub fn len(&self) -> usize {
        self.triples.len()
    }

    /// True if the graph holds no triples.
    pub fn is_empty(&self) -> bool {
        self.triples.is_empty()
    }
}

/// An index slot that holds no position.
const EMPTY: u32 = u32::MAX;
/// The fewest slots a built index has.
const MIN_SLOTS: usize = 16;

/// The dedup index: an open-addressing table (linear probing) of positions
/// into `Graph::triples`, at 4 B a slot.
///
/// Contract: it is either released (no slots) or holds the position of
/// every triple in `triples` and is at most half full, so a probe always
/// ends at an empty slot. A slot is found from the Fx hash of the triple's
/// ids; equality is checked against `triples`. [`DedupIndex::reserve`] is
/// the one place it is built: growing and rebuilding a released index are
/// the same pass over `triples`.
#[derive(Clone, Debug, Default)]
struct DedupIndex {
    /// A power of two of slots, or none.
    slots: Vec<u32>,
}

impl DedupIndex {
    /// Make room for `additional` more triples: if the index would be more
    /// than half full (or is released), rebuild it from `triples` with the
    /// smallest power of two of slots that keeps it at most half full.
    fn reserve(&mut self, triples: &[Triple], additional: usize) {
        let needed = triples
            .len()
            .checked_add(additional)
            .and_then(|n| n.checked_mul(2))
            .and_then(usize::checked_next_power_of_two)
            .expect("a dedup index size that fits usize")
            .max(MIN_SLOTS);
        if self.slots.len() >= needed {
            return;
        }
        // Free the old slots before allocating the new ones.
        self.slots = Vec::new();
        self.slots = vec![EMPTY; needed];
        for (pos, t) in triples.iter().enumerate() {
            let mut slot = self.home(t);
            while self.slots[slot] != EMPTY {
                slot = (slot + 1) & (needed - 1);
            }
            self.slots[slot] = position(pos);
        }
    }

    /// Append `t` to `triples` unless it is there already; `true` if it was
    /// new. The caller has reserved room for it.
    #[inline]
    fn insert(&mut self, triples: &mut Vec<Triple>, t: Triple) -> bool {
        let mask = self.slots.len() - 1;
        let mut slot = self.home(&t);
        loop {
            match self.slots[slot] {
                EMPTY => {
                    self.slots[slot] = position(triples.len());
                    triples.push(t);
                    return true;
                }
                pos if triples[pos as usize] == t => return false,
                _ => slot = (slot + 1) & mask,
            }
        }
    }

    /// The slot a probe for `t` starts at: the top bits of its Fx hash,
    /// which the hash's final multiply mixes best.
    #[inline]
    fn home(&self, t: &Triple) -> usize {
        let mut h = FxHasher::default();
        t.hash(&mut h);
        (h.finish() >> (u64::BITS - self.slots.len().trailing_zeros())) as usize
    }
}

/// `triples[len]`'s position as an index slot value. A graph holds at most
/// `u32::MAX` triples (positions `0..u32::MAX`, `EMPTY` excluded); one
/// more fails here instead of wrapping.
#[inline]
fn position(len: usize) -> u32 {
    match u32::try_from(len) {
        Ok(pos) if pos != EMPTY => pos,
        _ => panic!("a graph holds at most {} triples", u32::MAX),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dict::TermId;

    fn iri(s: &str) -> Term {
        Term::iri(format!("http://x/{s}"))
    }

    #[test]
    fn insert_dedups() {
        let mut g = Graph::new();
        assert!(g.insert_terms(&iri("s"), &iri("p"), &iri("o")));
        assert!(!g.insert_terms(&iri("s"), &iri("p"), &iri("o")));
        assert_eq!(g.len(), 1);
    }

    #[test]
    fn a_cloned_graph_interns_without_touching_the_original() {
        let mut g = Graph::new();
        g.insert_terms(&iri("s"), &iri("p"), &iri("o"));
        let mut copy = g.clone();
        copy.insert_terms(&iri("s"), &iri("p"), &iri("new"));
        assert_eq!((g.dict.len(), g.len()), (3, 1));
        assert_eq!(g.dict.lookup(&iri("new")), None);
        assert_eq!((copy.dict.len(), copy.len()), (4, 2));
    }

    #[test]
    fn the_last_position_is_one_below_u32_max() {
        assert_eq!(position(0), 0);
        assert_eq!(position(u32::MAX as usize - 1), u32::MAX - 1);
    }

    #[test]
    #[should_panic(expected = "a graph holds at most 4294967295 triples")]
    fn a_graph_past_u32_max_triples_fails_loudly() {
        position(u32::MAX as usize);
    }

    #[test]
    #[should_panic(expected = "a graph holds at most 4294967295 triples")]
    fn a_position_past_u32_never_wraps() {
        position(u32::MAX as usize + 1);
    }

    #[test]
    fn a_load_releases_the_index_and_the_next_insert_rebuilds_it() {
        let text = "<http://x/s> <http://x/p> <http://x/o> .\n<http://x/s> <http://x/p> <http://x/o2> .\n";
        let doc = crate::parse_ntriples(text).unwrap();
        let mut g = Graph::new();
        g.insert_term_triples(&doc);
        assert!(g.index.slots.is_empty(), "released after the load");
        let again = g.triples[1];
        assert!(!g.insert(again));
        assert_eq!(g.index.slots.len(), MIN_SLOTS);
        assert_eq!(g.index.slots.iter().filter(|&&s| s != EMPTY).count(), 2, "every triple indexed");
    }

    #[test]
    fn the_index_stays_at_most_half_full() {
        let mut g = Graph::new();
        for i in 0..1000 {
            assert!(g.insert(Triple::new(TermId(i), TermId(0), TermId(i % 7))));
            assert!(2 * g.len() <= g.index.slots.len(), "{} triples in {} slots", g.len(), g.index.slots.len());
        }
        assert_eq!(g.index.slots.len(), 2048);
    }
}
