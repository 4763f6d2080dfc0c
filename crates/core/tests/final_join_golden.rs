//! Byte-level pin of the final map-only join of block aggregates and of the
//! output assembly. For every case — the tiny BSBM MG1–MG4 and chem
//! MG6–MG10 plus constructed queries (a final join over two shared grouping
//! keys, a keyless cross join of two GROUP-BY-ALL blocks, a GROUP-BY-ALL
//! block that matches nothing, single-block plans) × the four engines —
//! `tests/snapshots/final_join_golden.txt` records the final job's output
//! bytes (block count, size, FNV-1a), its task and record counters, and an
//! FNV-1a of the assembled rows in order.
//!
//! The golden is written from this test's own output when it is missing
//! (the run that writes it fails, so a lost file is never a silent pass);
//! it is never regenerated over an existing file.

use rapida_core::engines::{HiveMqo, HiveNaive, RapidAnalytics, RapidPlus};
use rapida_core::{extract, DataCatalog, QueryEngine};
use rapida_datagen::{generate_bsbm, generate_chem, query, BsbmConfig, ChemConfig};
use rapida_mapred::Engine;
use rapida_rdf::Graph;
use rapida_sparql::{evaluate, parse_query, Cell};
use std::fmt::Write;
use std::path::PathBuf;

const BSBM: &str = "PREFIX bsbm: <http://bsbm.example.org/v01/>\n";

/// Two blocks grouped on the same two keys, listed in opposite orders, so
/// the final join matches on two key pairs that are not position-aligned.
fn two_shared_keys() -> String {
    format!(
        "{BSBM}SELECT ?f ?c ?cntA ?sumB {{
  {{ SELECT ?f ?c (COUNT(?pr) AS ?cntA)
     {{ ?p a bsbm:ProductType1 ; rdfs:label ?l ; bsbm:productFeature ?f .
        ?o bsbm:product ?p ; bsbm:price ?pr ; bsbm:vendor ?v .
        ?v bsbm:country ?c . }} GROUP BY ?f ?c }}
  {{ SELECT ?c ?f (SUM(?pr2) AS ?sumB)
     {{ ?p2 a bsbm:ProductType1 ; rdfs:label ?l2 ; bsbm:productFeature ?f .
        ?o2 bsbm:product ?p2 ; bsbm:price ?pr2 ; bsbm:vendor ?v2 .
        ?v2 bsbm:country ?c . }} GROUP BY ?c ?f }}
}}"
    )
}

/// Two GROUP-BY-ALL blocks: the final join shares no key and is a cross
/// join of one row by one row.
fn keyless_cross_join() -> String {
    format!(
        "{BSBM}SELECT ?cntA ?sumB {{
  {{ SELECT (COUNT(?pr) AS ?cntA)
     {{ ?p a bsbm:ProductType1 ; rdfs:label ?l .
        ?o bsbm:product ?p ; bsbm:price ?pr . }} }}
  {{ SELECT (SUM(?pr2) AS ?sumB)
     {{ ?p2 a bsbm:ProductType1 ; rdfs:label ?l2 ; bsbm:productFeature ?f2 .
        ?o2 bsbm:product ?p2 ; bsbm:price ?pr2 . }} }}
}}"
    )
}

/// A GROUP-BY-ALL block whose pattern matches nothing: the driver's
/// empty-ALL fixup synthesizes its one group, which the final join reads.
fn empty_all_block() -> String {
    format!(
        "{BSBM}SELECT ?f ?cntF ?cntT ?sumT {{
  {{ SELECT ?f (COUNT(?pr2) AS ?cntF)
     {{ ?p2 a bsbm:ProductType1 ; rdfs:label ?l2 ; bsbm:productFeature ?f .
        ?off2 bsbm:product ?p2 ; bsbm:price ?pr2 . }} GROUP BY ?f }}
  {{ SELECT (COUNT(?pr) AS ?cntT) (SUM(?pr) AS ?sumT)
     {{ ?p1 a bsbm:ProductType1 ; rdfs:label ?l1 .
        ?off1 bsbm:product ?p1 ; bsbm:price ?pr .
        FILTER (?pr < 0) }} }}
}}"
    )
}

/// 64-bit FNV-1a.
fn fnv(bytes: impl IntoIterator<Item = u8>) -> u64 {
    bytes.into_iter().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// The bytes the row digest is taken over: per cell a tag byte and the
/// term id or the number's bits, little-endian.
fn cell_bytes(cell: &Cell) -> Vec<u8> {
    match cell {
        Cell::Term(t) => [&[1u8][..], &t.0.to_le_bytes()].concat(),
        Cell::Num(n) => [&[2u8][..], &n.to_bits().to_le_bytes()].concat(),
        Cell::Null => vec![0],
    }
}

/// Run `sparql` on every engine and append one line per engine to `out`.
/// With `check`, every engine's answer must equal the reference evaluator's.
fn pin(out: &mut String, label: &str, g: &Graph, cat: &DataCatalog, sparql: &str, check: bool) {
    let q = parse_query(sparql).expect("query parses");
    let aq = extract(&q).expect("analytical IR extracts");
    let expected = check.then(|| evaluate(&q, g).canonicalized(&g.dict));
    let engines: [Box<dyn QueryEngine>; 4] = [
        Box::new(HiveNaive::default()),
        Box::new(HiveMqo::default()),
        Box::new(RapidPlus::default()),
        Box::new(RapidAnalytics::default()),
    ];
    for e in &engines {
        let mr = Engine::pinned(cat.dfs.clone());
        let plan = e
            .plan(&aq, cat)
            .unwrap_or_else(|err| panic!("{label} {}: {err}", e.name()));
        let (rel, wf) = plan
            .try_execute(&mr, &aq, &cat.dict)
            .expect("plan executes");
        if let Some(want) = &expected {
            assert_eq!(
                &rel.canonicalized(&g.dict),
                want,
                "{label} {} vs the evaluator",
                e.name()
            );
        }
        let rows = fnv(rel.rows.iter().flatten().flat_map(cell_bytes));
        let _ = write!(
            out,
            "{label} {}: {} rows fnv {rows:016x}",
            e.name(),
            rel.rows.len()
        );
        if plan.final_job.is_some() {
            let job = wf.jobs.last().expect("the final join ran");
            let ds = cat.dfs.peek(&plan.output_dataset).unwrap_or_default();
            let bytes = fnv(ds.blocks.iter().flat_map(|b| b.iter().copied()));
            let _ = write!(
                out,
                " | final: {} blocks {} B fnv {bytes:016x}; map_tasks {} in {} rec {} B out {} rec {} B corrupt {}",
                ds.blocks.len(),
                ds.total_bytes(),
                job.map_tasks,
                job.input_records,
                job.input_bytes,
                job.output_records,
                job.output_bytes,
                job.corrupt_records_skipped,
            );
        } else {
            out.push_str(" | single block");
        }
        out.push('\n');
        plan.cleanup(&cat.dfs);
        cat.dfs.remove(&plan.output_dataset);
    }
}

#[test]
fn final_join_output_matches_the_golden() {
    let mut got = String::new();
    let bsbm = generate_bsbm(&BsbmConfig::tiny());
    let cat = DataCatalog::load(&bsbm);
    for id in ["MG1", "MG2", "MG3", "MG4", "G1", "G3"] {
        pin(&mut got, id, &bsbm, &cat, &query(id).sparql, false);
    }
    pin(
        &mut got,
        "two-shared-keys",
        &bsbm,
        &cat,
        &two_shared_keys(),
        true,
    );
    pin(
        &mut got,
        "keyless-cross",
        &bsbm,
        &cat,
        &keyless_cross_join(),
        true,
    );
    pin(&mut got, "empty-all", &bsbm, &cat, &empty_all_block(), true);
    let chem = generate_chem(&ChemConfig::tiny());
    let cat = DataCatalog::load(&chem);
    for id in ["MG6", "MG7", "MG8", "MG9", "MG10"] {
        pin(&mut got, id, &chem, &cat, &query(id).sparql, false);
    }

    let path =
        PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/snapshots/final_join_golden.txt");
    let Ok(want) = std::fs::read_to_string(&path) else {
        std::fs::write(&path, &got).expect("the snapshot directory is writable");
        panic!("{} was missing and has been written; rerun", path.display());
    };
    for (i, (w, g)) in want.lines().zip(got.lines()).enumerate() {
        assert_eq!(w, g, "line {} of {} drifted", i + 1, path.display());
    }
    assert_eq!(want, got, "{} drifted in length", path.display());
}
