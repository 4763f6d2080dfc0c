//! Dictionary encoding: a bidirectional interner mapping [`Term`]s to dense
//! `u64` [`TermId`]s.
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
    // `String`'s `fmt::Write` never returns an error.
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
    // Keys reach the arena only through `encode_key`, whose `push_counted`
    // wrote `{len}:` here, `len` ending on a char boundary of `field`.
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
                // `encode_key` writes no other tag, and nothing else writes keys.
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
///
/// Interning takes `&mut self` and every read `&self`, so a loaded
/// dictionary is shared read-only (one `Arc`, see [`crate::Graph::dict`])
/// with no lock. `Clone` is a deep copy that keeps the hasher, so ids and
/// slots stay valid in the copy.
#[derive(Clone, Default)]
pub struct Dictionary {
    keys: String,
    ends: Vec<usize>,
    hashes: Vec<u64>,
    /// Cached numeric value per id.
    numeric: Vec<Option<f64>>,
    slots: Vec<u64>,
    hasher: RandomState,
}

const HASH_BITS: u64 = !0 << 32;

impl Dictionary {
    /// Create an empty dictionary.
    pub fn new() -> Self {
        Self::default()
    }

    fn hash(&self, key: &str) -> u64 {
        self.hasher.hash_one(key.as_bytes())
    }

    /// The key of raw id `id`, if this dictionary issued it.
    fn key(&self, id: u64) -> Option<&str> {
        let id = usize::try_from(id).ok()?;
        let end = *self.ends.get(id)?;
        let start = if id == 0 { 0 } else { self.ends[id - 1] };
        Some(&self.keys[start..end])
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
            let id = u64::from(slot as u32 - 1);
            if slot & HASH_BITS == hash & HASH_BITS && self.key(id) == Some(key) {
                return Some(TermId(id));
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

    /// Intern a borrowed term, returning its id.
    pub(crate) fn intern_ref(&mut self, term: TermRef<'_>) -> TermId {
        with_key(term, |key| {
            let hash = self.hash(key);
            self.find(key, hash).unwrap_or_else(|| self.push(key, hash, term))
        })
    }

    /// Intern a term, returning its id. Idempotent.
    pub fn intern(&mut self, term: &Term) -> TermId {
        self.intern_ref(term.view())
    }

    /// Look up an already-interned term without inserting.
    pub fn lookup(&self, term: &Term) -> Option<TermId> {
        with_key(term.view(), |key| self.find(key, self.hash(key)))
    }

    /// Resolve an id back to its term. Panics on an id this dictionary did
    /// not issue.
    pub fn term(&self, id: TermId) -> Term {
        // A `TermId` is only ever issued by a dictionary: a miss is a logic error.
        decode_key(self.key(id.0).expect("an id this dictionary issued")).to_term()
    }

    /// The lexical form of the term behind `id` (IRI string / literal lexical
    /// form / bnode label); `None` for an id this dictionary did not issue.
    pub fn lexical(&self, id: TermId) -> Option<&str> {
        self.key(id.0).map(|key| decode_key(key).lexical())
    }

    /// Cached numeric value of the literal behind `id`, if numeric; `None`
    /// too for an id this dictionary did not issue.
    #[inline]
    pub fn numeric_value(&self, id: TermId) -> Option<f64> {
        self.numeric.get(id.0 as usize).copied().flatten()
    }

    /// Number of distinct interned terms.
    pub fn len(&self) -> usize {
        self.ends.len()
    }

    /// True if nothing has been interned.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
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

    #[test]
    fn intern_is_idempotent() {
        let mut d = Dictionary::new();
        let a = d.intern(&Term::iri("http://x/a"));
        let b = d.intern(&Term::iri("http://x/a"));
        assert_eq!(a, b);
        assert_eq!(d.len(), 1);
    }

    #[test]
    fn distinct_terms_get_distinct_ids() {
        let mut d = Dictionary::new();
        let a = d.intern(&Term::iri("http://x/a"));
        let b = d.intern(&Term::literal("http://x/a"));
        assert_ne!(a, b, "IRI and literal with same lexical form differ");
    }

    #[test]
    fn roundtrip_term() {
        let mut d = Dictionary::new();
        let t = Term::lang_literal("bonjour", "fr");
        let id = d.intern(&t);
        assert_eq!(d.term(id), t);
    }

    #[test]
    fn numeric_cache() {
        let mut d = Dictionary::new();
        let id = d.intern(&Term::decimal(3.25));
        assert_eq!(d.numeric_value(id), Some(3.25));
        let id2 = d.intern(&Term::literal("not a number"));
        assert_eq!(d.numeric_value(id2), None);
    }

    #[test]
    fn lookup_does_not_insert() {
        let mut d = Dictionary::new();
        assert_eq!(d.lookup(&Term::iri("http://x/a")), None);
        assert!(d.is_empty());
        let id = d.intern(&Term::iri("http://x/a"));
        assert_eq!(d.lookup(&Term::iri("http://x/a")), Some(id));
    }

    #[test]
    fn growing_the_table_keeps_every_id() {
        let mut d = Dictionary::new();
        let terms: Vec<Term> = (0..5_000).map(|i| Term::iri(format!("http://x/{i}"))).collect();
        let ids: Vec<TermId> = terms.iter().map(|t| d.intern(t)).collect();
        assert_eq!(ids, (0..5_000).map(TermId).collect::<Vec<_>>());
        for (t, id) in terms.iter().zip(&ids) {
            assert_eq!(d.lookup(t), Some(*id));
        }
    }

    #[test]
    fn equal_hashes_still_compare_keys() {
        let mut inner = Dictionary::default();
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
        let inner = Dictionary::default();
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
}
