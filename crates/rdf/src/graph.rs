//! A simple in-memory triple collection with its dictionary. Storage
//! layouts (vertical partitions, triplegroups) are built from a [`Graph`]
//! by `rapida-storage`.

use crate::dict::Dictionary;
use crate::fxhash::FxHashSet;
use crate::ntriples::NtDocument;
use crate::term::Term;
use crate::triple::Triple;
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
    seen: FxHashSet<Triple>,
}

impl Graph {
    /// Create an empty graph with a fresh dictionary.
    pub fn new() -> Self {
        Self::default()
    }

    /// Insert an encoded triple. Returns `true` if it was new.
    pub fn insert(&mut self, t: Triple) -> bool {
        if self.seen.insert(t) {
            self.triples.push(t);
            true
        } else {
            false
        }
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
    pub fn insert_term_triples(&mut self, doc: &NtDocument<'_>) {
        // A run of triples is interned, then inserted: alternating the
        // dictionary's tables and the dedup set per triple made the load
        // ≈ 35 % slower on bsbm-24k.
        const RUN: usize = 4096;
        let Graph { dict, triples, seen } = self;
        triples.reserve(doc.len());
        seen.reserve(doc.len());
        let dict = Arc::make_mut(dict);
        let mut terms = doc.term_refs();
        let mut run = Vec::with_capacity(RUN);
        loop {
            let interned = terms.by_ref().take(RUN);
            run.extend(interned.map(|[s, p, o]| Triple::new(dict.intern_ref(s), dict.intern_ref(p), dict.intern_ref(o))));
            if run.is_empty() {
                return;
            }
            triples.extend(run.drain(..).filter(|&t| seen.insert(t)));
        }
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

#[cfg(test)]
mod tests {
    use super::*;

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
}
