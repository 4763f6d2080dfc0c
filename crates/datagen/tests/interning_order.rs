//! `Graph::insert_term_triples` interns a parsed document a run of triples
//! at a time; the result must be exactly that of inserting the triples
//! term by term: the same id for every term, the same triple order,
//! and the same duplicates dropped.

use rapida_datagen::{generate_bsbm, generate_chem, BsbmConfig, ChemConfig};
use rapida_rdf::{parse_ntriples, write_ntriples, Graph, TermId, TermTriple};

/// The generated graph as N-Triples text, with duplicates appended: every
/// seventh triple again, then the first ten again.
fn document_with_duplicates(graph: &Graph) -> String {
    let mut triples: Vec<TermTriple> = graph.triples.iter().map(|t| t.decode(&graph.dict)).collect();
    let again: Vec<TermTriple> = triples.iter().step_by(7).chain(triples.iter().take(10)).cloned().collect();
    triples.extend(again);
    write_ntriples(&triples)
}

fn assert_same_load(name: &str, generated: &Graph) {
    let text = document_with_duplicates(generated);
    let doc = parse_ntriples(&text).expect("generated N-Triples parse");
    let mut batched = Graph::new();
    batched.insert_term_triples(&doc);
    let mut one_by_one = Graph::new();
    for tt in &doc {
        one_by_one.insert_terms(&tt.s, &tt.p, &tt.o);
    }
    assert_eq!(batched.len(), generated.len(), "{name}: duplicates dropped");
    assert_eq!(batched.triples, one_by_one.triples, "{name}: ids and triple order");
    assert_eq!(batched.dict.len(), one_by_one.dict.len(), "{name}: dictionary size");
    for id in 0..batched.dict.len() as u64 {
        assert_eq!(batched.dict.term(TermId(id)), one_by_one.dict.term(TermId(id)), "{name}: term #{id}");
    }
}

#[test]
fn batched_interning_matches_term_by_term_insertion() {
    assert_same_load("bsbm", &generate_bsbm(&BsbmConfig::tiny()));
    assert_same_load("chem", &generate_chem(&ChemConfig::tiny()));
}
