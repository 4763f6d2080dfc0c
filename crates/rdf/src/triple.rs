//! Triples: dictionary-encoded [`Triple`] and term-level [`TermTriple`].

use crate::dict::{Dictionary, TermId};
use crate::term::Term;
use std::fmt;

/// A dictionary-encoded RDF triple.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Triple {
    /// Subject id.
    pub s: TermId,
    /// Property (predicate) id.
    pub p: TermId,
    /// Object id.
    pub o: TermId,
}

impl Triple {
    /// Construct a triple from ids.
    #[inline]
    pub fn new(s: TermId, p: TermId, o: TermId) -> Self {
        Triple { s, p, o }
    }

    /// Decode this triple against a dictionary.
    pub fn decode(&self, dict: &Dictionary) -> TermTriple {
        TermTriple {
            s: dict.term(self.s),
            p: dict.term(self.p),
            o: dict.term(self.o),
        }
    }
}

impl fmt::Display for Triple {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({} {} {})", self.s, self.p, self.o)
    }
}

/// A triple of full [`Term`]s (pre-encoding / post-decoding form).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct TermTriple {
    /// Subject term.
    pub s: Term,
    /// Property term.
    pub p: Term,
    /// Object term.
    pub o: Term,
}

impl TermTriple {
    /// Construct from terms.
    pub fn new(s: Term, p: Term, o: Term) -> Self {
        TermTriple { s, p, o }
    }

    /// Encode against a dictionary, interning all three components.
    pub fn encode(&self, dict: &mut Dictionary) -> Triple {
        Triple {
            s: dict.intern(&self.s),
            p: dict.intern(&self.p),
            o: dict.intern(&self.o),
        }
    }
}

impl fmt::Display for TermTriple {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} {} {} .", self.s, self.p, self.o)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn encode_decode_roundtrip() {
        let mut dict = Dictionary::new();
        let tt = TermTriple::new(
            Term::iri("http://x/s"),
            Term::iri("http://x/p"),
            Term::literal("o"),
        );
        let t = tt.encode(&mut dict);
        assert_eq!(t.decode(&dict), tt);
    }

    #[test]
    fn display_formats() {
        let tt = TermTriple::new(
            Term::iri("http://x/s"),
            Term::iri("http://x/p"),
            Term::integer(1),
        );
        let line = tt.to_string();
        assert!(line.starts_with("<http://x/s> <http://x/p> \"1\""));
        assert!(line.ends_with(" ."));
    }
}
