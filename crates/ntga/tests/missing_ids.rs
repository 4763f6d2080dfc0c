//! An id the dictionary never issued evaluates as "no match": one past the
//! dictionary's end, or `u64::MAX` (the catalog's `MISSING_ID`, the id of a
//! query constant absent from the data). Value predicates fail on it, an
//! aggregate sees no value for it, and a value filter drops its pair.
//!
//! Each case first shows the same predicate matching an id the dictionary
//! holds, so a "false" below is the unknown id's doing, not the predicate's.

use rapida_ntga::{AggOp, AggSpec, IdPred, ValueFilter};
use rapida_rdf::{Graph, Term};
use rapida_sparql::ast::CmpOp;

/// The catalog's id for a constant absent from the data.
const MISSING_ID: u64 = u64::MAX;

/// Ids 0..=4: `s`, `p`, `5.0`, `q`, `"abc"`.
fn graph() -> Graph {
    let mut g = Graph::new();
    let (s, p, q) = (Term::iri("http://x/s"), Term::iri("http://x/p"), Term::iri("http://x/q"));
    g.insert_terms(&s, &p, &Term::decimal(5.0));
    g.insert_terms(&s, &q, &Term::literal("abc"));
    g
}

const FIVE: u64 = 2;
const ABC: u64 = 4;
const PAST_END: u64 = 5;

fn eval(g: &Graph, pred: &IdPred, id: u64) -> bool {
    pred.eval(id, &g.dict)
}

fn agg_value(g: &Graph, spec: &AggSpec, id: u64) -> Option<f64> {
    spec.value(&[id], &g.dict)
}

fn filter(g: &Graph, pred: IdPred) -> ValueFilter {
    ValueFilter {
        preds: vec![(1, pred)],
        subjects: None,
        dict: g.dict.clone(),
    }
}

#[test]
fn the_fixture_ends_where_the_test_says() {
    assert_eq!(graph().dict.len() as u64, PAST_END);
}

#[test]
fn a_numeric_predicate_fails_on_an_unknown_id() {
    let g = graph();
    let ne = IdPred::Num { op: CmpOp::Ne, rhs: 0.0 };
    assert!(eval(&g, &ne, FIVE));
    for id in [PAST_END, MISSING_ID] {
        assert!(!eval(&g, &ne, id), "Num on id {id}");
    }
}

#[test]
fn a_substring_predicate_fails_on_an_unknown_id() {
    let g = graph();
    for case_insensitive in [false, true] {
        let any = IdPred::Contains { pattern: String::new(), case_insensitive };
        assert!(eval(&g, &any, ABC));
        for id in [PAST_END, MISSING_ID] {
            assert!(!eval(&g, &any, id), "Contains (ci={case_insensitive}) on id {id}");
        }
    }
}

#[test]
fn an_aggregate_sees_no_value_for_an_unknown_id() {
    let g = graph();
    let sum = AggSpec { op: AggOp::Sum, arg: Some(0) };
    assert_eq!(agg_value(&g, &sum, FIVE), Some(5.0));
    for id in [PAST_END, MISSING_ID] {
        assert_eq!(agg_value(&g, &sum, id), None, "value of id {id}");
    }
}

#[test]
fn a_value_filter_drops_the_pair_of_an_unknown_id() {
    let g = graph();
    let num = filter(&g, IdPred::Num { op: CmpOp::Ne, rhs: 0.0 });
    let sub = filter(&g, IdPred::Contains { pattern: String::new(), case_insensitive: false });
    assert!(num.admits(1, FIVE));
    assert!(sub.admits(1, ABC));
    for id in [PAST_END, MISSING_ID] {
        assert!(!num.admits(1, id), "Num filter on id {id}");
        assert!(!sub.admits(1, id), "Contains filter on id {id}");
    }
}
