//! A block aggregate that decodes but carries fewer grouping keys than its
//! block has is damage, wherever the plan reads it: the final join's
//! streamed block counts it in `corrupt_records_skipped`, a broadcast block
//! drops it while loading, and a single-block plan's output assembly drops
//! it. None of them indexes past the record's keys.

use rapida_core::plan::finish_plan;
use rapida_core::{extract, AnalyticalQuery};
use rapida_mapred::{DatasetWriter, Engine, SimDfs};
use rapida_ntga::AggRec;
use rapida_rdf::{Dictionary, TermId};
use rapida_sparql::{parse_query, Cell};

const TWO_BLOCKS: &str = "SELECT ?a ?n ?m {
  { SELECT ?a (COUNT(?x) AS ?n) { ?a <http://x/p> ?x } GROUP BY ?a }
  { SELECT ?a (COUNT(?y) AS ?m) { ?a <http://x/q> ?y } GROUP BY ?a }
}";

const ONE_BLOCK: &str = "SELECT ?a (COUNT(?x) AS ?n) { ?a <http://x/p> ?x } GROUP BY ?a";

fn aq(sparql: &str) -> AnalyticalQuery {
    extract(&parse_query(sparql).unwrap()).unwrap()
}

fn rec(id: u8, key: &[u64], value: f64) -> AggRec {
    AggRec {
        id,
        key: key.to_vec(),
        values: vec![Some(value)],
    }
}

fn put(dfs: &SimDfs, name: &str, recs: &[AggRec]) {
    let mut w = DatasetWriter::new(64);
    let mut buf = Vec::new();
    for r in recs {
        buf.clear();
        r.encode(&mut buf);
        w.push(&buf);
    }
    dfs.put(name, w.finish());
}

/// Run the two-block final join over block datasets `b0` and `b1`: the
/// assembled rows and the final job's skipped-record count.
fn final_join(b0: &[AggRec], b1: &[AggRec]) -> (Vec<Vec<Cell>>, u64) {
    let dfs = SimDfs::new();
    put(&dfs, "b0", b0);
    put(&dfs, "b1", b1);
    let aq = aq(TWO_BLOCKS);
    let plan = finish_plan(
        "test",
        &aq,
        Vec::new(),
        vec!["b0".into(), "b1".into()],
        &dfs,
        "dmg",
    )
    .expect("plan builds");
    let (rel, wf) = plan
        .try_execute(&Engine::pinned(dfs), &aq, &Dictionary::new())
        .expect("the final join runs");
    let skipped = wf.jobs.last().expect("a final job").corrupt_records_skipped;
    (rel.rows, skipped)
}

fn joined(a: u64, n: f64, m: f64) -> Vec<Cell> {
    vec![Cell::Term(TermId(a)), Cell::Num(n), Cell::Num(m)]
}

#[test]
fn a_short_aggregate_in_a_broadcast_block_is_dropped() {
    let (rows, skipped) = final_join(
        &[rec(0, &[1], 2.0), rec(0, &[2], 3.0)],
        &[rec(1, &[1], 5.0), rec(1, &[], 9.0), rec(1, &[2], 7.0)],
    );
    assert_eq!(rows, vec![joined(1, 2.0, 5.0), joined(2, 3.0, 7.0)]);
    assert_eq!(skipped, 0);
}

#[test]
fn a_short_aggregate_in_the_streamed_block_is_counted() {
    let (rows, skipped) = final_join(
        &[rec(0, &[1], 2.0), rec(0, &[], 4.0), rec(0, &[2], 3.0)],
        &[rec(1, &[1], 5.0), rec(1, &[2], 7.0)],
    );
    assert_eq!(rows, vec![joined(1, 2.0, 5.0), joined(2, 3.0, 7.0)]);
    assert_eq!(skipped, 1);
}

#[test]
fn a_short_aggregate_in_a_single_block_output_is_dropped() {
    let dfs = SimDfs::new();
    put(
        &dfs,
        "b0",
        &[rec(0, &[1], 2.0), rec(0, &[], 4.0), rec(0, &[2], 3.0)],
    );
    let aq = aq(ONE_BLOCK);
    let plan =
        finish_plan("test", &aq, Vec::new(), vec!["b0".into()], &dfs, "dmg").expect("plan builds");
    let (rel, _) = plan
        .try_execute(&Engine::pinned(dfs), &aq, &Dictionary::new())
        .expect("nothing to run");
    let row = |a, n| vec![Cell::Term(TermId(a)), Cell::Num(n)];
    assert_eq!(rel.rows, vec![row(1, 2.0), row(2, 3.0)]);
}
