//! A simple in-memory triple collection with its dictionary and summary
//! statistics. Storage layouts (vertical partitions, triplegroups) are built
//! from a [`Graph`] by `rapida-storage`.

use crate::dict::{Dictionary, TermId};
use crate::fxhash::{FxHashMap, FxHashSet};
use crate::term::Term;
use crate::ntriples::NtDocument;
use crate::triple::Triple;
use crate::vocab::RDF_TYPE;

/// A set of dictionary-encoded triples plus the dictionary that encodes them.
#[derive(Clone, Debug)]
pub struct Graph {
    /// Shared dictionary for this graph.
    pub dict: Dictionary,
    /// The triples, in insertion order (duplicates removed).
    pub triples: Vec<Triple>,
    seen: FxHashSet<Triple>,
}

impl Graph {
    /// Create an empty graph with a fresh dictionary.
    pub fn new() -> Self {
        Graph::with_dict(Dictionary::new())
    }

    /// Create an empty graph sharing an existing dictionary.
    pub fn with_dict(dict: Dictionary) -> Self {
        Graph {
            dict,
            triples: Vec::new(),
            seen: FxHashSet::default(),
        }
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
        let t = Triple::new(self.dict.intern(s), self.dict.intern(p), self.dict.intern(o));
        self.insert(t)
    }

    /// Load a parsed N-Triples document: its terms are interned straight
    /// from the text, in document order, under one dictionary write lock.
    /// Ids and triple order are those of inserting the triples one by one.
    pub fn insert_term_triples(&mut self, doc: &NtDocument<'_>) {
        // A run of triples is interned, then inserted: alternating the
        // dictionary's tables and the dedup set per triple made the load
        // ≈ 35 % slower on bsbm-24k.
        const RUN: usize = 4096;
        self.triples.reserve(doc.len());
        self.seen.reserve(doc.len());
        let dict = self.dict.clone();
        let mut dict = dict.write();
        let mut terms = doc.term_refs();
        let mut run = Vec::with_capacity(RUN);
        loop {
            let interned = terms.by_ref().take(RUN);
            run.extend(interned.map(|[s, p, o]| Triple::new(dict.intern(s), dict.intern(p), dict.intern(o))));
            if run.is_empty() {
                return;
            }
            for t in run.drain(..) {
                self.insert(t);
            }
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

    /// Compute summary statistics (property cardinalities etc.).
    pub fn stats(&self) -> GraphStats {
        let mut per_property: FxHashMap<TermId, usize> = FxHashMap::default();
        let mut type_objects: FxHashMap<TermId, usize> = FxHashMap::default();
        let mut subjects: FxHashSet<TermId> = FxHashSet::default();
        let rdf_type = self.dict.lookup(&Term::iri(RDF_TYPE));
        for t in &self.triples {
            *per_property.entry(t.p).or_default() += 1;
            subjects.insert(t.s);
            if Some(t.p) == rdf_type {
                *type_objects.entry(t.o).or_default() += 1;
            }
        }
        GraphStats {
            triples: self.triples.len(),
            distinct_subjects: subjects.len(),
            distinct_properties: per_property.len(),
            per_property,
            type_objects,
        }
    }
}

impl Default for Graph {
    fn default() -> Self {
        Self::new()
    }
}

/// Summary statistics about a [`Graph`], used for optimizer decisions
/// (e.g. Hive's map-join threshold) and test assertions.
#[derive(Clone, Debug)]
pub struct GraphStats {
    /// Total triple count.
    pub triples: usize,
    /// Distinct subject count.
    pub distinct_subjects: usize,
    /// Distinct property count.
    pub distinct_properties: usize,
    /// Triple count per property.
    pub per_property: FxHashMap<TermId, usize>,
    /// For `rdf:type`: instance count per type object.
    pub type_objects: FxHashMap<TermId, usize>,
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
    fn stats_counts_properties_and_types() {
        let mut g = Graph::new();
        g.insert_terms(&iri("a"), &Term::iri(RDF_TYPE), &iri("T1"));
        g.insert_terms(&iri("b"), &Term::iri(RDF_TYPE), &iri("T1"));
        g.insert_terms(&iri("c"), &Term::iri(RDF_TYPE), &iri("T2"));
        g.insert_terms(&iri("a"), &iri("p"), &Term::integer(1));
        let st = g.stats();
        assert_eq!(st.triples, 4);
        assert_eq!(st.distinct_subjects, 3);
        assert_eq!(st.distinct_properties, 2);
        let t1 = g.dict.lookup(&iri("T1")).unwrap();
        assert_eq!(st.type_objects[&t1], 2);
    }
}
