//! Sets of term ids as one bit per id of a graph's dense id space: the
//! load-time set representation of the ExtVP builder and the statistics.

use rapida_rdf::Graph;

/// One past the largest id any triple of `graph` holds: the size of a
/// bitmap that can hold every one of them. Dictionary ids are dense, so
/// this is at most the dictionary's length.
pub(crate) fn id_universe(graph: &Graph) -> usize {
    graph
        .triples
        .iter()
        .map(|t| t.s.0.max(t.p.0).max(t.o.0))
        .max()
        .map_or(0, |id| usize::try_from(id).map_or(usize::MAX, |id| id.saturating_add(1)))
}

/// A set of term ids below a fixed universe.
pub(crate) struct IdBitmap(Vec<u64>);

impl IdBitmap {
    /// The empty set over ids `0..universe`.
    pub(crate) fn new(universe: usize) -> IdBitmap {
        IdBitmap(vec![0u64; universe.div_ceil(64)])
    }

    /// The set of `ids`, each below `universe`.
    pub(crate) fn of(universe: usize, ids: impl Iterator<Item = u64>) -> IdBitmap {
        let mut set = IdBitmap::new(universe);
        ids.for_each(|id| set.insert(id));
        set
    }

    /// Add `id`; an id past the universe is not held.
    #[inline]
    pub(crate) fn insert(&mut self, id: u64) {
        if let Some(w) = self.0.get_mut((id / 64) as usize) {
            *w |= 1 << (id % 64);
        }
    }

    #[inline]
    pub(crate) fn contains(&self, id: u64) -> bool {
        self.0.get((id / 64) as usize).is_some_and(|w| w & (1 << (id % 64)) != 0)
    }

    /// Number of ids in the set.
    pub(crate) fn len(&self) -> u64 {
        self.0.iter().map(|w| u64::from(w.count_ones())).sum()
    }
}
