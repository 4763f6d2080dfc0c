//! `Dictionary` against a `HashMap<Term, TermId>` model: over random runs
//! of interns and lookups it hands out the model's ids, misses where the
//! model misses, and resolves every id back to its term, lexical form and
//! numeric value.

use rapida_rdf::{Dictionary, Term, TermId, XSD_STRING};
use rapida_testkit::prelude::*;
use std::collections::HashMap;

/// Texts that collide across term kinds and in the bytes a key encoding
/// might use as a separator.
const TEXTS: &[&str] = &["", "a", "b", "ab", "a\0", "\0", "\0a", "0", "1.5", " 2 ", "-7e3", "NaN", "é", "http://x/a", "a\"b"];

fn text() -> impl Strategy<Value = String> {
    (0..TEXTS.len()).prop_map(|i| TEXTS[i].to_owned())
}

fn term() -> impl Strategy<Value = Term> {
    prop_oneof![
        text().prop_map(Term::iri),
        text().prop_map(Term::bnode),
        text().prop_map(Term::literal),
        (text(), text()).prop_map(|(l, d)| Term::typed_literal(l, d)),
        text().prop_map(|l| Term::typed_literal(l, XSD_STRING)),
        (text(), text()).prop_map(|(l, t)| Term::lang_literal(l, t)),
        // Not built by any constructor, but a `Term` all the same.
        (text(), text(), text()).prop_map(|(lexical, d, t)| Term::Literal {
            lexical,
            datatype: Some(d),
            language: Some(t),
        }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 256, ..ProptestConfig::default() })]

    #[test]
    fn dictionary_matches_a_hash_map(ops in proptest::collection::vec((any::<bool>(), term()), 0..80)) {
        let mut dict = Dictionary::new();
        let mut model: HashMap<Term, TermId> = HashMap::new();
        let mut terms: Vec<Term> = Vec::new();
        for (intern, t) in &ops {
            if *intern {
                let want = *model.entry(t.clone()).or_insert_with(|| {
                    terms.push(t.clone());
                    TermId(terms.len() as u64 - 1)
                });
                prop_assert_eq!(dict.intern(t), want, "intern {:?}", t);
            } else {
                prop_assert_eq!(dict.lookup(t), model.get(t).copied(), "lookup {:?}", t);
            }
        }
        prop_assert_eq!(dict.len(), terms.len());
        for (i, t) in terms.iter().enumerate() {
            let id = TermId(i as u64);
            prop_assert_eq!(&dict.term(id), t);
            prop_assert_eq!(dict.lexical(id), Some(t.lexical()));
            prop_assert_eq!(dict.numeric_value(id).map(f64::to_bits), t.numeric_value().map(f64::to_bits), "{:?}", t);
        }
    }
}

#[test]
fn kinds_sharing_a_lexical_form_get_distinct_ids() {
    let terms = [
        Term::iri("a"),
        Term::literal("a"),
        Term::typed_literal("a", XSD_STRING),
        Term::lang_literal("a", "en"),
        Term::bnode("a"),
        Term::literal(""),
    ];
    let mut dict = Dictionary::new();
    for t in &terms {
        assert_eq!(dict.lookup(t), None, "{t} before interning");
    }
    let ids: Vec<TermId> = terms.iter().map(|t| dict.intern(t)).collect();
    assert_eq!(ids, (0..terms.len() as u64).map(TermId).collect::<Vec<_>>());
    for (t, id) in terms.iter().zip(&ids) {
        assert_eq!(dict.lookup(t), Some(*id), "{t}");
        assert_eq!(&dict.term(*id), t);
    }
}
