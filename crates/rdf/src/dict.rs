//! Dictionary encoding: a concurrent bidirectional interner mapping
//! [`Term`]s to dense `u64` [`TermId`]s.
//!
//! Numeric literal values are parsed once at intern time and cached, so
//! aggregation operators never re-parse lexical forms on the hot path.

use crate::term::Term;
use std::collections::HashMap;
use std::fmt;
use std::sync::{Arc, RwLock};

/// A dictionary-encoded term identifier.
///
/// Ids are dense, starting at 0, assigned in intern order. `TermId` is the
/// currency of the whole system: triples, triplegroups and binding rows all
/// hold `TermId`s.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TermId(pub u64);

impl TermId {
    /// The raw id value.
    #[inline]
    pub fn raw(self) -> u64 {
        self.0
    }
}

impl fmt::Display for TermId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "#{}", self.0)
    }
}

/// The term → id index. Term strings hash with std's SipHash: FxHash folds
/// a string eight bytes at a time with one multiply, so generated IRIs that
/// share a long prefix and differ in a short numeric suffix pile onto a few
/// buckets. FxHash is for ids. The index is never iterated, so its random
/// seed cannot leak into ids.
type TermIndex = HashMap<Term, TermId>;

#[derive(Default)]
struct DictInner {
    terms: Vec<Term>,
    /// Cached numeric value per id (same index as `terms`).
    numeric: Vec<Option<f64>>,
    index: TermIndex,
}

impl DictInner {
    fn intern(&mut self, term: &Term) -> TermId {
        if let Some(id) = self.index.get(term) {
            return *id;
        }
        let id = TermId(self.terms.len() as u64);
        self.terms.push(term.clone());
        self.numeric.push(term.numeric_value());
        self.index.insert(term.clone(), id);
        id
    }
}

/// A thread-safe term dictionary.
///
/// Cloning a `Dictionary` is cheap (it is an `Arc` handle); all clones share
/// the same underlying interner.
#[derive(Clone, Default)]
pub struct Dictionary {
    inner: Arc<RwLock<DictInner>>,
}

impl Dictionary {
    /// Create an empty dictionary.
    pub fn new() -> Self {
        Self::default()
    }

    /// Intern a term, returning its id. Idempotent.
    pub fn intern(&self, term: &Term) -> TermId {
        if let Some(id) = self.inner.read().unwrap().index.get(term) {
            return *id;
        }
        self.inner.write().unwrap().intern(term)
    }

    /// Intern `terms` in order under one write lock, appending each id to
    /// `ids`. Ids are those of interning the terms one by one.
    pub fn intern_batch<'a>(&self, terms: impl IntoIterator<Item = &'a Term>, ids: &mut Vec<TermId>) {
        let mut inner = self.inner.write().unwrap();
        ids.extend(terms.into_iter().map(|t| inner.intern(t)));
    }

    /// Intern an IRI given by string.
    pub fn intern_iri(&self, iri: &str) -> TermId {
        self.intern(&Term::iri(iri))
    }

    /// Look up an already-interned term without inserting.
    pub fn lookup(&self, term: &Term) -> Option<TermId> {
        self.inner.read().unwrap().index.get(term).copied()
    }

    /// Resolve an id back to its term. Panics on unknown ids (ids only come
    /// from this dictionary, so an unknown id is a logic error).
    pub fn term(&self, id: TermId) -> Term {
        self.inner.read().unwrap().terms[id.0 as usize].clone()
    }

    /// The lexical form of the term behind `id` (IRI string / literal lexical
    /// form / bnode label).
    pub fn lexical(&self, id: TermId) -> String {
        self.inner.read().unwrap().terms[id.0 as usize]
            .lexical()
            .to_string()
    }

    /// Cached numeric value of the literal behind `id`, if numeric.
    #[inline]
    pub fn numeric_value(&self, id: TermId) -> Option<f64> {
        self.inner.read().unwrap().numeric[id.0 as usize]
    }

    /// Number of distinct interned terms.
    pub fn len(&self) -> usize {
        self.inner.read().unwrap().terms.len()
    }

    /// True if nothing has been interned.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Snapshot of numeric values indexed by raw id, for lock-free access in
    /// parallel operators. Index `i` holds the numeric value of `TermId(i)`.
    pub fn numeric_snapshot(&self) -> Vec<Option<f64>> {
        self.inner.read().unwrap().numeric.clone()
    }

    /// Snapshot of lexical forms indexed by raw id, for lock-free access in
    /// parallel operators (e.g. `regex`-style FILTERs).
    pub fn lexical_snapshot(&self) -> Vec<String> {
        self.inner
            .read()
            .unwrap()
            .terms
            .iter()
            .map(|t| t.lexical().to_string())
            .collect()
    }
}

impl fmt::Debug for Dictionary {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Dictionary({} terms)", self.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::BuildHasher;

    #[test]
    fn intern_is_idempotent() {
        let d = Dictionary::new();
        let a = d.intern(&Term::iri("http://x/a"));
        let b = d.intern(&Term::iri("http://x/a"));
        assert_eq!(a, b);
        assert_eq!(d.len(), 1);
    }

    #[test]
    fn distinct_terms_get_distinct_ids() {
        let d = Dictionary::new();
        let a = d.intern(&Term::iri("http://x/a"));
        let b = d.intern(&Term::literal("http://x/a"));
        assert_ne!(a, b, "IRI and literal with same lexical form differ");
    }

    #[test]
    fn roundtrip_term() {
        let d = Dictionary::new();
        let t = Term::lang_literal("bonjour", "fr");
        let id = d.intern(&t);
        assert_eq!(d.term(id), t);
    }

    #[test]
    fn numeric_cache() {
        let d = Dictionary::new();
        let id = d.intern(&Term::decimal(3.25));
        assert_eq!(d.numeric_value(id), Some(3.25));
        let id2 = d.intern(&Term::literal("not a number"));
        assert_eq!(d.numeric_value(id2), None);
    }

    #[test]
    fn lookup_does_not_insert() {
        let d = Dictionary::new();
        assert_eq!(d.lookup(&Term::iri("http://x/a")), None);
        assert!(d.is_empty());
        let id = d.intern(&Term::iri("http://x/a"));
        assert_eq!(d.lookup(&Term::iri("http://x/a")), Some(id));
    }

    #[test]
    fn snapshots_align_with_ids() {
        let d = Dictionary::new();
        let a = d.intern(&Term::integer(10));
        let b = d.intern(&Term::literal("xyz"));
        let nums = d.numeric_snapshot();
        let lex = d.lexical_snapshot();
        assert_eq!(nums[a.0 as usize], Some(10.0));
        assert_eq!(nums[b.0 as usize], None);
        assert_eq!(lex[b.0 as usize], "xyz");
    }

    #[test]
    fn intern_batch_matches_one_by_one() {
        let terms: Vec<Term> = ["a", "b", "a", "c", "b"].iter().map(|l| Term::iri(format!("http://x/{l}"))).collect();
        let one = Dictionary::new();
        let want: Vec<TermId> = terms.iter().map(|t| one.intern(t)).collect();
        let batch = Dictionary::new();
        let mut ids = vec![TermId(99)];
        batch.intern_batch(&terms, &mut ids);
        assert_eq!(ids[1..], want[..]);
        assert_eq!(batch.len(), 3);
    }

    #[test]
    fn index_hash_spreads_generated_iris() {
        // 65 536 BSBM generator IRIs: FxHash gives 32 (Product) and 256
        // (Offer) distinct low-16-bit hash values; a uniform hash ≈ 41 400.
        let index = TermIndex::default();
        for stem in ["Product", "Offer"] {
            let low: std::collections::HashSet<u64> = (0..65_536)
                .map(|i| {
                    let iri = Term::iri(format!("http://bsbm.example.org/v01/{stem}{i}"));
                    index.hasher().hash_one(&iri) & 0xffff
                })
                .collect();
            assert!(low.len() >= 40_000, "{stem}{{i}}: {} distinct low-16-bit hashes", low.len());
        }
    }

    #[test]
    fn concurrent_intern_consistent() {
        let d = Dictionary::new();
        let handles: Vec<_> = (0..8)
            .map(|_| {
                let d = d.clone();
                std::thread::spawn(move || {
                    (0..1000)
                        .map(|i| d.intern(&Term::iri(format!("http://x/{i}"))))
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        let results: Vec<Vec<TermId>> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        for r in &results[1..] {
            assert_eq!(r, &results[0], "all threads see identical ids");
        }
        assert_eq!(d.len(), 1000);
    }
}
