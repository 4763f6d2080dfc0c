//! Dictionary encoding: a concurrent bidirectional interner mapping
//! [`Term`]s to dense `u64` [`TermId`]s.
//!
//! Each distinct term is stored once, as a kind-tagged key in one string
//! arena. Numeric literal values are parsed once at intern time and cached,
//! so aggregation operators never re-parse lexical forms on the hot path.

use crate::term::{Term, TermRef};
use std::cell::RefCell;
use std::collections::hash_map::RandomState;
use std::fmt;
use std::fmt::Write as _;
use std::hash::BuildHasher;
use std::sync::{Arc, RwLock, RwLockWriteGuard};

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

// The key of a term is one tag byte, then its text. A literal with a
// datatype or language tag counts its lexical form (`{len}:lexical`), and
// one with both counts its datatype too; the last field runs to the end.
const IRI: u8 = 0;
const BLANK: u8 = 1;
const PLAIN: u8 = 2;
const TYPED: u8 = 3;
const LANG: u8 = 4;
const TYPED_LANG: u8 = 5;

fn push_counted(field: &str, out: &mut String) {
    write!(out, "{}:{field}", field.len()).unwrap();
}

/// Append the key of `term` to `out`.
fn encode_key(term: TermRef<'_>, out: &mut String) {
    let (tag, text, rest) = match term {
        TermRef::Iri(iri) => (IRI, iri, [None, None]),
        TermRef::BlankNode(label) => (BLANK, label, [None, None]),
        TermRef::Literal { lexical, datatype, language } => {
            let tag = PLAIN + u8::from(datatype.is_some()) + 2 * u8::from(language.is_some());
            (tag, lexical, [datatype, language])
        }
    };
    out.push(char::from(tag));
    match rest {
        [None, None] => out.push_str(text),
        [Some(dt), Some(lang)] => {
            push_counted(text, out);
            push_counted(dt, out);
            out.push_str(lang);
        }
        [Some(last), None] | [None, Some(last)] => {
            push_counted(text, out);
            out.push_str(last);
        }
    }
}

/// The field `{len}:field` at the start of `s`, and what follows it.
fn split_counted(s: &str) -> (&str, &str) {
    let (len, rest) = s.split_once(':').expect("a counted key field");
    rest.split_at(len.parse().expect("a key field length"))
}

fn decode_key(key: &str) -> TermRef<'_> {
    let body = &key[1..];
    let literal = |lexical, datatype, language| TermRef::Literal { lexical, datatype, language };
    match key.as_bytes()[0] {
        IRI => TermRef::Iri(body),
        BLANK => TermRef::BlankNode(body),
        PLAIN => literal(body, None, None),
        tag => {
            let (lexical, rest) = split_counted(body);
            match tag {
                TYPED => literal(lexical, Some(rest), None),
                LANG => literal(lexical, None, Some(rest)),
                TYPED_LANG => {
                    let (dt, lang) = split_counted(rest);
                    literal(lexical, Some(dt), Some(lang))
                }
                _ => unreachable!("a term key starts with a tag, not {tag}"),
            }
        }
    }
}

thread_local! {
    /// Where `intern` and `lookup` encode the key they look for.
    static SCRATCH: RefCell<String> = const { RefCell::new(String::new()) };
}

/// Run `f` on the key of `term`.
fn with_key<R>(term: TermRef<'_>, f: impl FnOnce(&str) -> R) -> R {
    SCRATCH.with(|scratch| {
        let mut key = scratch.borrow_mut();
        key.clear();
        encode_key(term, &mut key);
        f(&key)
    })
}

/// The interner. Term `i`'s key is `keys[ends[i - 1]..ends[i]]`.
///
/// The index is an open-addressing table with linear probing, never more
/// than half full. A slot holds `id + 1` (0 = empty) under the top 32 bits
/// of the key's hash, so a probe compares keys only when those bits agree.
/// Keys hash with std's SipHash: FxHash folds a string eight bytes at a
/// time with one multiply, so generated IRIs that share a long prefix and
/// differ in a short numeric suffix would pile onto a few slots. Growing
/// the table re-slots ids by their stored hash, in id order.
#[derive(Default)]
pub(crate) struct DictInner {
    keys: String,
    ends: Vec<usize>,
    hashes: Vec<u64>,
    /// Cached numeric value per id.
    numeric: Vec<Option<f64>>,
    slots: Vec<u64>,
    hasher: RandomState,
}

const HASH_BITS: u64 = !0 << 32;

impl DictInner {
    fn hash(&self, key: &str) -> u64 {
        self.hasher.hash_one(key.as_bytes())
    }

    fn len(&self) -> usize {
        self.ends.len()
    }

    fn key(&self, id: usize) -> &str {
        let start = if id == 0 { 0 } else { self.ends[id - 1] };
        &self.keys[start..self.ends[id]]
    }

    fn find(&self, key: &str, hash: u64) -> Option<TermId> {
        if self.slots.is_empty() {
            return None;
        }
        let mask = self.slots.len() - 1;
        let mut i = hash as usize & mask;
        loop {
            let slot = self.slots[i];
            if slot == 0 {
                return None;
            }
            let id = (slot as u32 - 1) as usize;
            if slot & HASH_BITS == hash & HASH_BITS && self.key(id) == key {
                return Some(TermId(id as u64));
            }
            i = (i + 1) & mask;
        }
    }

    /// Put `id` in the first free slot from its hash's home slot.
    fn place(&mut self, id: usize) {
        let hash = self.hashes[id];
        let mask = self.slots.len() - 1;
        let mut i = hash as usize & mask;
        while self.slots[i] != 0 {
            i = (i + 1) & mask;
        }
        self.slots[i] = hash & HASH_BITS | (id as u64 + 1);
    }

    fn push(&mut self, key: &str, hash: u64, term: TermRef<'_>) -> TermId {
        let id = self.len();
        assert!(id < u32::MAX as usize, "a dictionary holds fewer than 2^32 - 1 terms");
        self.keys.push_str(key);
        self.ends.push(self.keys.len());
        self.hashes.push(hash);
        self.numeric.push(term.numeric_value());
        if 2 * (id + 1) > self.slots.len() {
            self.slots = vec![0; (2 * self.slots.len()).max(16)];
            (0..=id).for_each(|id| self.place(id));
        } else {
            self.place(id);
        }
        TermId(id as u64)
    }

    /// Intern a term, returning its id.
    pub(crate) fn intern(&mut self, term: TermRef<'_>) -> TermId {
        with_key(term, |key| {
            let hash = self.hash(key);
            self.find(key, hash).unwrap_or_else(|| self.push(key, hash, term))
        })
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
        let term = term.view();
        with_key(term, |key| {
            let inner = self.inner.read().unwrap();
            let hash = inner.hash(key);
            if let Some(id) = inner.find(key, hash) {
                return id;
            }
            drop(inner);
            let mut inner = self.inner.write().unwrap();
            inner.find(key, hash).unwrap_or_else(|| inner.push(key, hash, term))
        })
    }

    /// Hold the write lock, for interning many terms without taking it for
    /// each.
    pub(crate) fn write(&self) -> RwLockWriteGuard<'_, DictInner> {
        self.inner.write().unwrap()
    }

    /// Intern an IRI given by string.
    pub fn intern_iri(&self, iri: &str) -> TermId {
        self.intern(&Term::iri(iri))
    }

    /// Look up an already-interned term without inserting.
    pub fn lookup(&self, term: &Term) -> Option<TermId> {
        with_key(term.view(), |key| {
            let inner = self.inner.read().unwrap();
            inner.find(key, inner.hash(key))
        })
    }

    /// Resolve an id back to its term. Panics on unknown ids (ids only come
    /// from this dictionary, so an unknown id is a logic error).
    pub fn term(&self, id: TermId) -> Term {
        decode_key(self.inner.read().unwrap().key(id.0 as usize)).to_term()
    }

    /// The lexical form of the term behind `id` (IRI string / literal lexical
    /// form / bnode label).
    pub fn lexical(&self, id: TermId) -> String {
        decode_key(self.inner.read().unwrap().key(id.0 as usize)).lexical().to_owned()
    }

    /// Cached numeric value of the literal behind `id`, if numeric.
    #[inline]
    pub fn numeric_value(&self, id: TermId) -> Option<f64> {
        self.inner.read().unwrap().numeric[id.0 as usize]
    }

    /// Number of distinct interned terms.
    pub fn len(&self) -> usize {
        self.inner.read().unwrap().len()
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

    /// Every term's lexical form in id order, copied once out of the key
    /// arena, for lock-free access in parallel operators (e.g. `regex`-style
    /// FILTERs).
    pub fn lexical_forms(&self) -> LexicalForms {
        let inner = self.inner.read().unwrap();
        let mut forms = LexicalForms {
            text: String::with_capacity(inner.keys.len()),
            ends: Vec::with_capacity(inner.len()),
        };
        (0..inner.len()).for_each(|id| forms.push(decode_key(inner.key(id)).lexical()));
        forms
    }
}

impl fmt::Debug for Dictionary {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Dictionary({} terms)", self.len())
    }
}

/// Lexical forms by raw term id, back to back in one buffer.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct LexicalForms {
    text: String,
    /// Form `i` is `text[ends[i - 1]..ends[i]]`.
    ends: Vec<usize>,
}

impl LexicalForms {
    fn push(&mut self, form: &str) {
        self.text.push_str(form);
        self.ends.push(self.text.len());
    }

    /// The lexical form of raw id `id`, if the snapshot covers it.
    pub fn get(&self, id: u64) -> Option<&str> {
        let id = usize::try_from(id).ok()?;
        let end = *self.ends.get(id)?;
        let start = if id == 0 { 0 } else { self.ends[id - 1] };
        Some(&self.text[start..end])
    }

    /// The forms in id order.
    pub fn iter(&self) -> impl Iterator<Item = &str> {
        (0..self.ends.len() as u64).filter_map(|id| self.get(id))
    }
}

impl<S: AsRef<str>> FromIterator<S> for LexicalForms {
    fn from_iter<I: IntoIterator<Item = S>>(forms: I) -> Self {
        let mut out = LexicalForms::default();
        forms.into_iter().for_each(|form| out.push(form.as_ref()));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
        let c = d.intern(&Term::lang_literal("", "en"));
        let nums = d.numeric_snapshot();
        let lex = d.lexical_forms();
        assert_eq!(nums[a.0 as usize], Some(10.0));
        assert_eq!(nums[b.0 as usize], None);
        assert_eq!(lex.get(a.0), Some("10"));
        assert_eq!(lex.get(b.0), Some("xyz"));
        assert_eq!(lex.get(c.0), Some(""));
        assert_eq!(lex.get(3), None);
        assert_eq!(lex.iter().collect::<Vec<_>>(), ["10", "xyz", ""]);
    }

    #[test]
    fn growing_the_table_keeps_every_id() {
        let d = Dictionary::new();
        let terms: Vec<Term> = (0..5_000).map(|i| Term::iri(format!("http://x/{i}"))).collect();
        let ids: Vec<TermId> = terms.iter().map(|t| d.intern(t)).collect();
        assert_eq!(ids, (0..5_000).map(TermId).collect::<Vec<_>>());
        for (t, id) in terms.iter().zip(&ids) {
            assert_eq!(d.lookup(t), Some(*id));
        }
    }

    #[test]
    fn equal_hashes_still_compare_keys() {
        let mut inner = DictInner::default();
        let (a, b) = (Term::iri("http://x/a"), Term::iri("http://x/b"));
        let id_a = with_key(a.view(), |key| inner.push(key, 42, a.view()));
        let id_b = with_key(b.view(), |key| {
            assert_eq!(inner.find(key, 42), None, "a different key under the same hash");
            inner.push(key, 42, b.view())
        });
        assert_eq!(with_key(a.view(), |key| inner.find(key, 42)), Some(id_a));
        assert_eq!(with_key(b.view(), |key| inner.find(key, 42)), Some(id_b));
    }

    #[test]
    fn index_hash_spreads_generated_iris() {
        // 65 536 BSBM generator IRIs: FxHash gives 32 (Product) and 256
        // (Offer) distinct low-16-bit hash values; a uniform hash ≈ 41 400.
        let inner = DictInner::default();
        for stem in ["Product", "Offer"] {
            let low: std::collections::HashSet<u64> = (0..65_536)
                .map(|i| {
                    let iri = Term::iri(format!("http://bsbm.example.org/v01/{stem}{i}"));
                    with_key(iri.view(), |key| inner.hash(key)) & 0xffff
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
