//! Property tests: N-Triples serialization round-trips for arbitrary terms
//! (also with `\u` / `\U` escapes in IRIs and literals), and dictionary
//! identity laws.

use rapida_testkit::prelude::*;
use rapida_rdf::{parse_ntriples, write_ntriples, Dictionary, Term, TermTriple};

/// Printable-ish strings including the characters the escaper must handle.
fn literal_text() -> impl Strategy<Value = String> {
    proptest::string::string_regex("[ -~\u{e0}-\u{ff}\n\t\"\\\\]{0,40}").unwrap()
}

/// IRIs, with the characters the writer must escape: `\`, `<`, `>`, `"`,
/// space and control characters.
fn iri_text() -> impl Strategy<Value = String> {
    proptest::string::string_regex("http://[a-z]{1,8}\\.example/[A-Za-z0-9_/#<>\" \\\\\t\n\u{1}\u{7f}\u{85}-]{0,24}").unwrap()
}

fn bnode_label() -> impl Strategy<Value = String> {
    proptest::string::string_regex("[A-Za-z][A-Za-z0-9]{0,12}").unwrap()
}

fn lang_tag() -> impl Strategy<Value = String> {
    proptest::string::string_regex("[a-z]{2}(-[A-Z]{2})?").unwrap()
}

fn arb_term() -> impl Strategy<Value = Term> {
    prop_oneof![
        iri_text().prop_map(Term::iri),
        literal_text().prop_map(Term::literal),
        (literal_text(), iri_text()).prop_map(|(l, d)| Term::typed_literal(l, d)),
        (literal_text(), lang_tag()).prop_map(|(l, t)| Term::lang_literal(l, t)),
        any::<i64>().prop_map(Term::integer),
        (-1e12f64..1e12).prop_map(Term::decimal),
    ]
}

fn arb_subject() -> impl Strategy<Value = Term> {
    prop_oneof![
        iri_text().prop_map(Term::iri),
        bnode_label().prop_map(Term::bnode),
    ]
}

/// `c` as a `\uXXXX` escape, or `\UXXXXXXXX` when `long` or outside the BMP.
fn uchar(c: char, long: bool, out: &mut String) {
    if long || u32::from(c) > 0xFFFF {
        out.push_str(&format!("\\U{:08X}", u32::from(c)));
    } else {
        out.push_str(&format!("\\u{:04x}", u32::from(c)));
    }
}

/// `text` with the characters `mask` picks written as `\u` / `\U` escapes;
/// in a literal the others take the writer's own escapes, and in an IRI the
/// ones it cannot hold as written are always escaped.
fn escaped(text: &str, mask: u64, literal: bool, out: &mut String) {
    for (i, c) in text.chars().enumerate() {
        let bit = (i * 7 % 64) as u32;
        let must = !literal && (c.is_control() || matches!(c, ' ' | '<' | '>' | '"' | '\\'));
        if must || mask.rotate_right(bit) & 1 == 1 {
            uchar(c, mask.rotate_right(bit + 1) & 1 == 1, out);
            continue;
        }
        match c {
            '"' if literal => out.push_str("\\\""),
            '\\' if literal => out.push_str("\\\\"),
            '\n' if literal => out.push_str("\\n"),
            '\t' if literal => out.push_str("\\t"),
            '\r' if literal => out.push_str("\\r"),
            _ => out.push(c),
        }
    }
}

/// One term in N-Triples with escapes picked by `mask` in its IRI, lexical
/// form and datatype; blank-node labels and language tags stay as written.
fn write_escaped_term(t: &Term, mask: u64, out: &mut String) {
    match t {
        Term::Iri(iri) => {
            out.push('<');
            escaped(iri, mask, false, out);
            out.push('>');
        }
        Term::Literal { lexical, datatype, language } => {
            out.push('"');
            escaped(lexical, mask, true, out);
            out.push('"');
            if let Some(lang) = language {
                out.push('@');
                out.push_str(lang);
            } else if let Some(dt) = datatype {
                out.push_str("^^<");
                escaped(dt, mask.rotate_left(17), false, out);
                out.push('>');
            }
        }
        Term::BlankNode(_) => out.push_str(&t.to_string()),
    }
}

proptest! {
    #[test]
    fn ntriples_roundtrip(
        triples in proptest::collection::vec(
            (arb_subject(), iri_text().prop_map(Term::iri), arb_term())
                .prop_map(|(s, p, o)| TermTriple::new(s, p, o)),
            0..20,
        ),
        mask in any::<u64>(),
    ) {
        let doc = write_ntriples(&triples);
        let parsed = parse_ntriples(&doc).expect("serialized output must parse");
        prop_assert_eq!(&parsed.to_vec(), &triples);

        // The same triples with some characters written as escapes.
        let mut doc = String::new();
        for (i, t) in triples.iter().enumerate() {
            for (k, term) in [&t.s, &t.p, &t.o].into_iter().enumerate() {
                write_escaped_term(term, mask.rotate_left((i * 3 + k) as u32 * 11), &mut doc);
                doc.push(' ');
            }
            doc.push_str(".\n");
        }
        let parsed = parse_ntriples(&doc).expect("escaped output must parse");
        prop_assert_eq!(parsed.to_vec(), triples, "escaped document:\n{}", doc);
    }

    #[test]
    fn dictionary_is_injective(terms in proptest::collection::vec(arb_term(), 0..50)) {
        let mut dict = Dictionary::new();
        let ids: Vec<_> = terms.iter().map(|t| dict.intern(t)).collect();
        // Same term -> same id; different terms -> different ids.
        for (i, a) in terms.iter().enumerate() {
            for (j, b) in terms.iter().enumerate() {
                prop_assert_eq!(a == b, ids[i] == ids[j]);
            }
        }
        // Ids resolve back to the interned term.
        for (t, id) in terms.iter().zip(&ids) {
            prop_assert_eq!(&dict.term(*id), t);
        }
    }

    #[test]
    fn numeric_cache_matches_term(term in arb_term()) {
        let mut dict = Dictionary::new();
        let id = dict.intern(&term);
        prop_assert_eq!(dict.numeric_value(id), term.numeric_value());
    }
}
