//! Model test for the catalog builders: `TgStore::load`, `VpStore::load_ext`
//! and `StatsCatalog::compute` must give exactly what the per-subject,
//! per-key references in `common` give — the same `EcMeta` list, the same
//! table and ExtVP catalogs, every stored dataset byte for byte, and the
//! same statistics.
//!
//! Checked over random graphs (type partitions, multi-valued properties,
//! subjects in any order, dense and sparse ids, split and segment sizes
//! down to one record) and over the tiny BSBM, chem and PubMed graphs.

mod common;

use common::{reference_stats, reference_tg_load, reference_vp_load};
use rapida_datagen::{generate_bsbm, generate_chem, generate_pubmed, BsbmConfig, ChemConfig, PubmedConfig};
use rapida_mapred::SimDfs;
use rapida_rdf::{vocab, Graph, Term, TermId};
use rapida_storage::{StatsCatalog, TgStore, VpStore, VpTableMeta};
use rapida_testkit::prelude::*;
use std::sync::Arc;

/// Every dataset of `got` is stored in `want` under the same name with the
/// same blocks and record counts, and neither holds another.
fn same_datasets(tag: &str, got: &SimDfs, want: &SimDfs) -> Result<(), String> {
    let names = got.names();
    if names != want.names() {
        return Err(format!("{tag}: stored dataset names differ from the reference"));
    }
    for name in &names {
        let (Some(g), Some(w)) = (got.peek(name), want.peek(name)) else {
            return Err(format!("{tag}: dataset {name} vanished"));
        };
        let same = g.records == w.records
            && g.block_records == w.block_records
            && g.blocks.len() == w.blocks.len()
            && g.blocks.iter().zip(&w.blocks).all(|(a, b)| a[..] == b[..]);
        if !same {
            return Err(format!("{tag}: dataset {name} is not byte-identical to the reference"));
        }
    }
    Ok(())
}

/// Load `graph` with the library's builders and the references, and
/// compare catalogs, stored bytes and statistics.
fn check_against_references(graph: &Graph, split_bytes: usize, segment_rows: usize, threshold: Option<f64>) -> Result<(), String> {
    let tag = format!("split_bytes {split_bytes}, segment_rows {segment_rows}, threshold {threshold:?}");

    let (dfs, ref_dfs) = (SimDfs::new(), SimDfs::new());
    let tg = TgStore::load(graph, &dfs, split_bytes);
    let ref_classes = reference_tg_load(graph, &ref_dfs, split_bytes);
    let meta = |c: &rapida_storage::EcMeta| (c.props.clone(), c.dataset.clone(), c.groups, c.bytes);
    let (got, want): (Vec<_>, Vec<_>) = (tg.classes().iter().map(meta).collect(), ref_classes.iter().map(meta).collect());
    if got != want {
        return Err(format!("{tag}: classes {got:?} != reference {want:?}"));
    }
    same_datasets(&format!("{tag}, triplegroups"), &dfs, &ref_dfs)?;

    let (dfs, ref_dfs) = (SimDfs::new(), SimDfs::new());
    let vp = VpStore::load_ext(graph, &dfs, segment_rows, threshold);
    let (ref_tables, ref_ext) = reference_vp_load(graph, &ref_dfs, segment_rows, threshold);
    let mut tables: Vec<&VpTableMeta> = vp.tables().collect();
    tables.sort_unstable_by_key(|t| t.key);
    let row = |t: &VpTableMeta| (t.key, t.dataset.clone(), t.rows, t.bytes, t.raw_bytes);
    let (got, want): (Vec<_>, Vec<_>) = (tables.into_iter().map(row).collect(), ref_tables.iter().map(row).collect());
    if got != want {
        return Err(format!("{tag}: tables {got:?} != reference {want:?}"));
    }
    let ext = |e: &rapida_storage::ExtVpMeta| (e.kind, e.base, e.partner, e.dataset.clone(), e.rows, e.bytes, e.selectivity.to_bits());
    let (got, want): (Vec<_>, Vec<_>) = (vp.ext_tables().iter().map(ext).collect(), ref_ext.iter().map(ext).collect());
    if got != want {
        return Err(format!("{tag}: reductions {got:?} != reference {want:?}"));
    }
    same_datasets(&format!("{tag}, VP"), &dfs, &ref_dfs)?;

    let stats = StatsCatalog::compute(graph);
    let want = reference_stats(graph);
    let got = (stats.triples, stats.subjects, stats.preds().to_vec());
    if got != (want.triples, want.subjects, want.preds.clone()) {
        return Err(format!("{tag}: stats {got:?} != reference {want:?}"));
    }
    // Every issued id and one past them: the instance counts are exactly
    // the reference's list.
    for id in 0..=graph.dict.len() as u64 {
        let count = want.types.iter().find(|(o, _)| o.0 == id).map_or(0, |(_, n)| *n);
        if stats.type_count(TermId(id)) != count {
            return Err(format!("{tag}: type count of #{id} is {}, reference {count}", stats.type_count(TermId(id))));
        }
    }
    Ok(())
}

/// One random graph: `nodes` serve as subjects (IRIs or blank nodes) and
/// objects, property 0 is `rdf:type` over four classes, and `gap` filler
/// terms interned before each triple spread the ids sparsely.
fn random_graph(triples: &[(u64, u64, u64, bool)], gap: usize) -> Graph {
    let mut g = Graph::new();
    let node = |i: u64| if i % 5 == 4 { Term::bnode(format!("b{i}")) } else { Term::iri(format!("http://x/n{i}")) };
    for (i, &(s, p, o, literal)) in triples.iter().enumerate() {
        for j in 0..gap {
            Arc::make_mut(&mut g.dict).intern(&Term::iri(format!("http://x/filler{i}_{j}")));
        }
        let (p, o) = if p == 0 {
            (Term::iri(vocab::RDF_TYPE), Term::iri(format!("http://x/Class{}", o % 4)))
        } else if literal {
            (Term::iri(format!("http://x/p{p}")), Term::integer(o as i64))
        } else {
            (Term::iri(format!("http://x/p{p}")), node(o))
        };
        g.insert_terms(&node(s), &p, &o);
    }
    g
}

const THRESHOLDS: [Option<f64>; 4] = [None, Some(0.0), Some(0.25), Some(1.0)];

proptest! {
    #![proptest_config(ProptestConfig { cases: 96, ..ProptestConfig::default() })]

    #[test]
    fn catalog_builders_match_the_references(
        triples in proptest::collection::vec((0u64..30, 0u64..7, 0u64..30, any::<bool>()), 0..120),
        gap in prop_oneof![0usize..1, 1usize..5, 20usize..40],
        threshold in 0usize..4,
        split_bytes in prop_oneof![1usize..2, 2usize..64, 64usize..4096],
        segment_rows in 1usize..9,
    ) {
        let graph = random_graph(&triples, gap);
        check_against_references(&graph, split_bytes, segment_rows, THRESHOLDS[threshold])?;
    }
}

#[test]
fn an_empty_graph_matches_the_references() {
    for threshold in THRESHOLDS {
        check_against_references(&Graph::new(), 256, 8, threshold).unwrap();
    }
}

#[test]
fn tiny_datasets_match_the_references() {
    let graphs = [
        ("bsbm", generate_bsbm(&BsbmConfig::tiny())),
        ("chem", generate_chem(&ChemConfig::tiny())),
        ("pubmed", generate_pubmed(&PubmedConfig::tiny())),
    ];
    for (name, graph) in &graphs {
        for (split_bytes, segment_rows, threshold) in [(256 * 1024, 8192, Some(0.25)), (512, 64, Some(1.0))] {
            check_against_references(graph, split_bytes, segment_rows, threshold).unwrap_or_else(|e| panic!("{name}: {e}"));
        }
    }
}
