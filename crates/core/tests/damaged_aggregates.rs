//! A damaged block aggregate is damage wherever the plan reads it: the
//! final join's streamed block counts it in `corrupt_records_skipped`, a
//! broadcast block drops it while building its table, and a single-block
//! plan's output assembly drops it. That holds for a record that decodes
//! but carries fewer grouping keys than its block has (none of the paths
//! indexes past its keys), and for one whose bytes do not decode strictly:
//! a value flag other than 0 or 1, or bytes after its last value. Neither
//! may be read as a different aggregate.
//!
//! A plan's output that a job wrote is read the same way, and each record
//! its scan drops is counted in that job's `corrupt_records_skipped`: a
//! block aggregate with a short or extra key or an over-wide value list,
//! a final-join row short of the projection.

use rapida_core::plan::finish_plan;
use rapida_core::rows::{row_bytes, RVal};
use rapida_core::{extract, AnalyticalQuery, QueryPlan};
use rapida_mapred::{
    DatasetWriter, Engine, FnMapFactory, InputSrc, Job, JobBuilder, MapOutput, MapTask, SimDfs,
};
use rapida_ntga::AggRec;
use rapida_rdf::{Dictionary, TermId};
use rapida_sparql::{parse_query, Cell};
use std::sync::Arc;

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

fn encoded(r: &AggRec) -> Vec<u8> {
    let mut buf = Vec::new();
    r.encode(&mut buf);
    buf
}

fn put(dfs: &SimDfs, name: &str, recs: &[AggRec]) {
    put_raw(dfs, name, &recs.iter().map(encoded).collect::<Vec<_>>());
}

fn put_raw(dfs: &SimDfs, name: &str, records: &[Vec<u8>]) {
    let mut w = DatasetWriter::new(64);
    for r in records {
        w.push(r);
    }
    dfs.put(name, w.finish());
}

/// Block `id`'s record `{key [7], values [Some(2.0)]}`, damaged two ways:
/// its value flag byte set to 9, and three bytes appended to it intact.
fn damaged(id: u8) -> [(&'static str, Vec<u8>); 2] {
    let intact = encoded(&rec(id, &[7], 2.0));
    // id, key count, key, value count, then the value's flag.
    let mut flag9 = intact.clone();
    assert_eq!(flag9[4], 1, "the flag of a bound value");
    flag9[4] = 9;
    let mut longer = intact;
    longer.extend_from_slice(&[1, 2, 3]);
    [("flag 9", flag9), ("3 trailing bytes", longer)]
}

/// Run the two-block final join over block datasets `b0` and `b1`: the
/// assembled rows and the final job's skipped-record count.
fn final_join(b0: &[AggRec], b1: &[AggRec]) -> (Vec<Vec<Cell>>, u64) {
    let raw = |recs: &[AggRec]| recs.iter().map(encoded).collect::<Vec<_>>();
    final_join_raw(&raw(b0), &raw(b1))
}

fn final_join_raw(b0: &[Vec<u8>], b1: &[Vec<u8>]) -> (Vec<Vec<Cell>>, u64) {
    let dfs = SimDfs::new();
    put_raw(&dfs, "b0", b0);
    put_raw(&dfs, "b1", b1);
    let aq = aq(TWO_BLOCKS);
    let plan = finish_plan(
        "test",
        &aq,
        Vec::new(),
        vec!["b0".into(), "b1".into()],
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
fn an_undecodable_aggregate_in_the_streamed_block_is_counted() {
    let other = [rec(1, &[1], 5.0), rec(1, &[2], 7.0), rec(1, &[7], 1.0)];
    let other: Vec<Vec<u8>> = other.iter().map(encoded).collect();
    for (what, bad) in damaged(0) {
        let b0 = [encoded(&rec(0, &[1], 2.0)), bad, encoded(&rec(0, &[2], 3.0))];
        let (rows, skipped) = final_join_raw(&b0, &other);
        assert_eq!(rows, vec![joined(1, 2.0, 5.0), joined(2, 3.0, 7.0)], "{what}");
        assert_eq!(skipped, 1, "{what}");
    }
}

#[test]
fn an_undecodable_aggregate_in_a_broadcast_block_is_dropped() {
    let stream = [rec(0, &[1], 2.0), rec(0, &[2], 3.0), rec(0, &[7], 4.0)];
    let stream: Vec<Vec<u8>> = stream.iter().map(encoded).collect();
    for (what, bad) in damaged(1) {
        let b1 = [encoded(&rec(1, &[1], 5.0)), bad, encoded(&rec(1, &[2], 7.0))];
        let (rows, skipped) = final_join_raw(&stream, &b1);
        assert_eq!(rows, vec![joined(1, 2.0, 5.0), joined(2, 3.0, 7.0)], "{what}");
        assert_eq!(skipped, 0, "{what}");
    }
}

#[test]
fn an_undecodable_aggregate_in_a_single_block_output_is_dropped() {
    for (what, bad) in damaged(0) {
        let dfs = SimDfs::new();
        let b0 = [encoded(&rec(0, &[1], 2.0)), bad, encoded(&rec(0, &[2], 3.0))];
        put_raw(&dfs, "b0", &b0);
        assert_eq!(single_block(dfs), vec![row(1, 2.0), row(2, 3.0)], "{what}");
    }
}

fn row(a: u64, n: f64) -> Vec<Cell> {
    vec![Cell::Term(TermId(a)), Cell::Num(n)]
}

/// Assemble the one-block plan's output from block dataset `b0`.
fn single_block(dfs: SimDfs) -> Vec<Vec<Cell>> {
    let aq = aq(ONE_BLOCK);
    let plan =
        finish_plan("test", &aq, Vec::new(), vec!["b0".into()], "dmg").expect("plan builds");
    let (rel, _) = plan
        .try_execute(&Engine::pinned(dfs), &aq, &Dictionary::new())
        .expect("nothing to run");
    rel.rows
}

#[test]
fn a_short_aggregate_in_a_single_block_output_is_dropped() {
    let dfs = SimDfs::new();
    put(
        &dfs,
        "b0",
        &[rec(0, &[1], 2.0), rec(0, &[], 4.0), rec(0, &[2], 3.0)],
    );
    assert_eq!(single_block(dfs), vec![row(1, 2.0), row(2, 3.0)]);
}

struct Pass;
impl MapTask for Pass {
    fn map(&mut self, _: InputSrc, record: &[u8], out: &mut MapOutput) {
        out.write(record);
    }
}

/// A job that copies dataset `from` to `to`, record for record.
fn copy_job(from: &str, to: &str) -> Job {
    JobBuilder::new(format!("copy {from}"))
        .input(from)
        .mapper(Arc::new(FnMapFactory(|| Pass)))
        .output(to)
        .build()
}

/// Execute `plan` over `dfs`: the rows, and per job its skipped records.
fn executed(plan: &QueryPlan, aq: &AnalyticalQuery, dfs: SimDfs) -> (Vec<Vec<Cell>>, Vec<u64>) {
    let (rel, wf) = plan
        .try_execute(&Engine::pinned(dfs), aq, &Dictionary::new())
        .expect("the plan runs");
    (rel.rows, wf.jobs.iter().map(|j| j.corrupt_records_skipped).collect())
}

#[test]
fn a_damaged_aggregate_in_a_job_written_single_block_output_is_counted() {
    let dfs = SimDfs::new();
    let wide = AggRec {
        values: vec![Some(4.0), Some(5.0)],
        ..rec(0, &[3], 4.0)
    };
    let short = rec(0, &[], 6.0);
    let extra = rec(0, &[4, 5], 7.0);
    put(&dfs, "raw", &[rec(0, &[1], 2.0), wide, short, extra, rec(0, &[2], 3.0)]);
    let aq = aq(ONE_BLOCK);
    let plan = finish_plan("test", &aq, vec![copy_job("raw", "b0")], vec!["b0".into()], "dmg")
        .expect("plan builds");
    let (rows, skipped) = executed(&plan, &aq, dfs);
    assert_eq!(rows, vec![row(1, 2.0), row(2, 3.0)]);
    assert_eq!(skipped, vec![3], "the wide, short and extra-key records");
}

#[test]
fn a_short_row_in_a_job_written_final_join_output_is_counted() {
    let dfs = SimDfs::new();
    let aq = aq(TWO_BLOCKS);
    let mut plan = finish_plan("test", &aq, Vec::new(), vec!["b0".into(), "b1".into()], "dmg")
        .expect("plan builds");
    let final_out = plan.output_dataset.clone();
    plan.final_job = Some(copy_job("raw", &final_out));
    let (id, num) = (RVal::Id, RVal::Num);
    let rows = [vec![id(1), num(2.0), num(5.0)], vec![id(9), num(1.0)], vec![id(2), num(3.0), num(7.0)]];
    put_raw(&dfs, "raw", &rows.iter().map(|r| row_bytes(r)).collect::<Vec<_>>());
    let (rows, skipped) = executed(&plan, &aq, dfs);
    assert_eq!(rows, vec![joined(1, 2.0, 5.0), joined(2, 3.0, 7.0)]);
    assert_eq!(skipped, vec![1], "the final job wrote the output");
}
