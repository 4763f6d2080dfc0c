//! `Graph` against a `HashSet<Triple>` + `Vec` model: over random
//! interleavings of `insert`, `insert_terms`, `insert_term_triples` (with
//! duplicates inside one document and across documents) and `clone`s
//! followed by inserts into both copies, the graph keeps the model's
//! triples in the model's order, hands out the model's ids, returns what
//! the model returns and has the model's length.

use rapida_rdf::{parse_ntriples, write_ntriples, Graph, Term, TermId, TermTriple, Triple};
use rapida_testkit::prelude::*;
use std::collections::{HashMap, HashSet};

/// Subjects: IRIs and blank nodes.
const SUBJECTS: usize = 6;
/// Properties: IRIs.
const PROPERTIES: usize = 3;
/// Objects: every term kind.
const OBJECTS: usize = 8;
/// Raw ids given to `insert`; they overlap the ids the dictionary issues.
const RAW_IDS: u64 = 6;
/// At most this many copies of the graph are alive at once.
const COPIES: usize = 3;

fn subject(i: usize) -> Term {
    if i.is_multiple_of(2) {
        Term::iri(format!("http://x/s{i}"))
    } else {
        Term::bnode(format!("b{i}"))
    }
}

fn property(i: usize) -> Term {
    Term::iri(format!("http://x/p{i}"))
}

fn object(i: usize) -> Term {
    match i % 4 {
        0 => Term::iri(format!("http://x/s{i}")),
        1 => Term::literal(format!("v{}", i / 2)),
        2 => Term::typed_literal(format!("{i}.5"), "http://www.w3.org/2001/XMLSchema#decimal"),
        _ => Term::lang_literal(format!("v{}", i / 2), "en"),
    }
}

fn term_triple((s, p, o): (usize, usize, usize)) -> TermTriple {
    TermTriple::new(subject(s), property(p), object(o))
}

#[derive(Debug, Clone)]
enum Op {
    /// `insert` of raw ids into copy `target`.
    Insert {
        target: usize,
        s: u64,
        p: u64,
        o: u64,
    },
    /// `insert_terms` into copy `target`.
    Terms {
        target: usize,
        triple: (usize, usize, usize),
    },
    /// `insert_term_triples` of a document (duplicates likely) into `target`.
    Document {
        target: usize,
        triples: Vec<(usize, usize, usize)>,
    },
    /// Clone copy `source` into a new copy (or over the last one, once
    /// `COPIES` are alive).
    Clone { source: usize },
}

fn indices() -> impl Strategy<Value = (usize, usize, usize)> {
    (0..SUBJECTS, 0..PROPERTIES, 0..OBJECTS)
}

fn op() -> impl Strategy<Value = Op> {
    prop_oneof![
        (0..COPIES, 0..RAW_IDS, 0..RAW_IDS, 0..RAW_IDS).prop_map(|(target, s, p, o)| Op::Insert {
            target,
            s,
            p,
            o
        }),
        (0..COPIES, indices()).prop_map(|(target, triple)| Op::Terms { target, triple }),
        (0..COPIES, proptest::collection::vec(indices(), 0..60))
            .prop_map(|(target, triples)| Op::Document { target, triples }),
        (0..COPIES).prop_map(|source| Op::Clone { source }),
    ]
}

/// The reference: a dictionary as a map plus its terms in id order, and
/// the triples as a set plus a vector in insertion order.
#[derive(Clone, Default)]
struct Model {
    ids: HashMap<Term, TermId>,
    terms: Vec<Term>,
    seen: HashSet<Triple>,
    triples: Vec<Triple>,
}

impl Model {
    fn intern(&mut self, t: &Term) -> TermId {
        *self.ids.entry(t.clone()).or_insert_with(|| {
            self.terms.push(t.clone());
            TermId(self.terms.len() as u64 - 1)
        })
    }

    fn insert(&mut self, t: Triple) -> bool {
        let new = self.seen.insert(t);
        if new {
            self.triples.push(t);
        }
        new
    }

    fn insert_terms(&mut self, t: &TermTriple) -> bool {
        let triple = Triple::new(self.intern(&t.s), self.intern(&t.p), self.intern(&t.o));
        self.insert(triple)
    }
}

fn assert_matches(graph: &Graph, model: &Model, context: &str) {
    assert_eq!(graph.len(), model.triples.len(), "{context}: len");
    assert_eq!(
        graph.is_empty(),
        model.triples.is_empty(),
        "{context}: is_empty"
    );
    assert_eq!(graph.triples, model.triples, "{context}: triples");
    assert_eq!(
        graph.dict.len(),
        model.terms.len(),
        "{context}: dictionary size"
    );
    for (i, t) in model.terms.iter().enumerate() {
        assert_eq!(
            graph.dict.term(TermId(i as u64)),
            *t,
            "{context}: term of id {i}"
        );
    }
}

/// Apply `ops` to a graph and to the model side by side, checking every
/// return value and, after every op, every copy.
fn check(ops: &[Op]) {
    let mut copies = vec![(Graph::new(), Model::default())];
    for (step, op) in ops.iter().enumerate() {
        let context = format!("op {step} {op:?}");
        let alive = copies.len();
        match op {
            Op::Insert { target, s, p, o } => {
                let (graph, model) = &mut copies[target % alive];
                let t = Triple::new(TermId(*s), TermId(*p), TermId(*o));
                assert_eq!(graph.insert(t), model.insert(t), "{context}: return value");
            }
            Op::Terms { target, triple } => {
                let (graph, model) = &mut copies[target % alive];
                let t = term_triple(*triple);
                assert_eq!(
                    graph.insert_terms(&t.s, &t.p, &t.o),
                    model.insert_terms(&t),
                    "{context}: return value"
                );
            }
            Op::Document { target, triples } => {
                let (graph, model) = &mut copies[target % alive];
                let triples: Vec<TermTriple> = triples.iter().copied().map(term_triple).collect();
                let text = write_ntriples(&triples);
                let doc = parse_ntriples(&text).expect("written N-Triples parse");
                graph.insert_term_triples(&doc);
                for t in &triples {
                    model.insert_terms(t);
                }
            }
            Op::Clone { source } => {
                let copy = copies[source % alive].clone();
                if alive < COPIES {
                    copies.push(copy);
                } else {
                    *copies.last_mut().expect("at least one copy") = copy;
                }
            }
        }
        for (i, (graph, model)) in copies.iter().enumerate() {
            assert_matches(graph, model, &format!("{context}, copy {i}"));
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 256, ..ProptestConfig::default() })]

    #[test]
    fn graph_matches_a_set_and_a_vector(ops in proptest::collection::vec(op(), 0..40)) {
        check(&ops);
    }
}

/// Documents longer than one interned run, each repeating triples of its
/// own and of the ones before it, then single inserts after the bulk load
/// and into a clone.
#[test]
fn bulk_loads_across_runs_then_single_inserts() {
    let document = |n: usize, stride: usize| -> Op {
        let triples = (0..n)
            .map(|i| {
                (
                    (i * stride) % SUBJECTS,
                    (i / 7) % PROPERTIES,
                    (i / 3 + i * stride) % OBJECTS,
                )
            })
            .collect();
        Op::Document { target: 0, triples }
    };
    let mut ops = vec![document(9_000, 1), document(5_000, 5)];
    ops.extend((0..RAW_IDS).map(|s| Op::Insert {
        target: 0,
        s,
        p: s % 2,
        o: 1,
    }));
    ops.push(Op::Clone { source: 0 });
    for (i, triple) in (0..SUBJECTS)
        .flat_map(|s| (0..OBJECTS).map(move |o| (s, 1, o)))
        .enumerate()
    {
        ops.push(Op::Terms {
            target: i % 2,
            triple,
        });
    }
    ops.push(document(6_000, 3));
    check(&ops);
}

/// Many distinct triples through every entry point, so the graph grows
/// through several sizes with both bulk and single inserts.
#[test]
fn distinct_triples_through_every_entry_point() {
    let mut graph = Graph::new();
    let mut model = Model::default();
    for round in 0..4u64 {
        let triples: Vec<TermTriple> = (0..3_000u64)
            .map(|i| {
                let n = round * 3_000 + i;
                TermTriple::new(
                    Term::iri(format!("http://x/s{}", n / 5)),
                    property((n % 3) as usize),
                    Term::literal(format!("{n}")),
                )
            })
            .collect();
        let text = write_ntriples(&triples);
        let doc = parse_ntriples(&text).expect("written N-Triples parse");
        graph.insert_term_triples(&doc);
        for t in &triples {
            model.insert_terms(t);
        }
        for i in 0..500 {
            let t = Triple::new(TermId(round * 1_000 + i), TermId(i % 3), TermId(i));
            assert_eq!(graph.insert(t), model.insert(t), "raw insert {t}");
            let t = term_triple(((i as usize) % SUBJECTS, 0, (i as usize) % OBJECTS));
            assert_eq!(
                graph.insert_terms(&t.s, &t.p, &t.o),
                model.insert_terms(&t),
                "insert_terms {t:?}"
            );
        }
        assert_matches(&graph, &model, &format!("round {round}"));
    }
}
