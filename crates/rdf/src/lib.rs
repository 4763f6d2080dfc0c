//! # rapida-rdf
//!
//! RDF data model substrate for the RAPIDA workspace: terms, dictionary
//! (string interning) encoding, triples, and N-Triples I/O.
//!
//! Everything downstream (storage, NTGA operators, query engines) works over
//! dictionary-encoded [`TermId`]s; lexical forms and numeric literal values are
//! resolved through the [`Dictionary`], which is read-only once loaded.
//!
//! ```
//! use rapida_rdf::{Dictionary, Term, Triple};
//!
//! let mut dict = Dictionary::new();
//! let s = dict.intern(&Term::iri("http://example.org/p1"));
//! let p = dict.intern(&Term::iri("http://example.org/price"));
//! let o = dict.intern(&Term::typed_literal("42.5", "http://www.w3.org/2001/XMLSchema#decimal"));
//! let t = Triple::new(s, p, o);
//! assert_eq!(dict.numeric_value(t.o), Some(42.5));
//! ```

mod dict;
mod graph;
mod ntriples;
mod term;
mod triple;
pub mod vocab;

pub use dict::{Dictionary, TermId};
pub use graph::Graph;
pub use ntriples::{parse_ntriples, write_ntriples, NtDocument, NtError, NtTriples};
pub use term::{Term, XSD_DATE, XSD_DECIMAL, XSD_DOUBLE, XSD_INTEGER, XSD_STRING};
pub use triple::{TermTriple, Triple};

/// A fast, non-cryptographic hasher (FxHash algorithm as used by rustc).
///
/// The sanctioned dependency list has no `rustc-hash`, so the ~20-line
/// algorithm is reproduced here. Used for all hot-path hash maps keyed by
/// dictionary ids. Not HashDoS-resistant; inputs are internal ids, not
/// attacker-controlled strings.
pub mod fxhash {
    use std::hash::{BuildHasherDefault, Hasher};

    const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

    /// FxHash hasher state.
    #[derive(Default, Clone)]
    pub struct FxHasher {
        hash: u64,
    }

    impl FxHasher {
        #[inline]
        fn add_to_hash(&mut self, i: u64) {
            self.hash = (self.hash.rotate_left(5) ^ i).wrapping_mul(SEED);
        }
    }

    impl Hasher for FxHasher {
        #[inline]
        fn write(&mut self, bytes: &[u8]) {
            for chunk in bytes.chunks(8) {
                let mut buf = [0u8; 8];
                buf[..chunk.len()].copy_from_slice(chunk);
                self.add_to_hash(u64::from_le_bytes(buf));
            }
        }
        #[inline]
        fn write_u8(&mut self, i: u8) {
            self.add_to_hash(i as u64);
        }
        #[inline]
        fn write_u32(&mut self, i: u32) {
            self.add_to_hash(i as u64);
        }
        #[inline]
        fn write_u64(&mut self, i: u64) {
            self.add_to_hash(i);
        }
        #[inline]
        fn write_usize(&mut self, i: usize) {
            self.add_to_hash(i as u64);
        }
        #[inline]
        fn finish(&self) -> u64 {
            self.hash
        }
    }

    /// `HashMap` keyed with FxHash.
    pub type FxHashMap<K, V> = std::collections::HashMap<K, V, BuildHasherDefault<FxHasher>>;
    /// `HashSet` keyed with FxHash.
    pub type FxHashSet<K> = std::collections::HashSet<K, BuildHasherDefault<FxHasher>>;
}

pub use fxhash::{FxHashMap, FxHashSet};

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::{Hash, Hasher};

    #[test]
    fn fxhash_distributes_ids() {
        let mut seen = std::collections::HashSet::new();
        for i in 0..10_000u64 {
            let mut h = fxhash::FxHasher::default();
            i.hash(&mut h);
            seen.insert(h.finish());
        }
        assert_eq!(seen.len(), 10_000, "no collisions on small sequential ids");
    }

    #[test]
    fn fxhash_str_stable() {
        let mut h1 = fxhash::FxHasher::default();
        h1.write(b"hello world");
        let mut h2 = fxhash::FxHasher::default();
        h2.write(b"hello world");
        assert_eq!(h1.finish(), h2.finish());
        let mut h3 = fxhash::FxHasher::default();
        h3.write(b"hello worle");
        assert_ne!(h1.finish(), h3.finish());
    }
}
