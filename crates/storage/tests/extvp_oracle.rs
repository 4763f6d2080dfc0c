//! Oracle for ExtVP construction: `VpStore::load_ext` must build exactly
//! the catalog and the stored bytes of the straightforward reference below,
//! which filters every (base, partner, kind) candidate by binary search over
//! the partner's sorted id set.
//!
//! Checked over random graphs (type partitions, single-row tables, empty
//! graphs, dense and sparse ids, thresholds 0, 0.25 and 1.0) and over the
//! tiny BSBM, chem and PubMed graphs: the ExtVP catalog must agree on kind,
//! base, partner, dataset, rows, bytes and the bits of `selectivity`, the
//! base-table catalog on dataset, rows and bytes, and every stored dataset
//! must be byte-identical.

use rapida_datagen::{generate_bsbm, generate_chem, generate_pubmed, BsbmConfig, ChemConfig, PubmedConfig};
use rapida_mapred::{DatasetWriter, SimDfs};
use rapida_rdf::{vocab, Graph, Term, TermId};
use rapida_storage::{encode_segment, ExtVpKind, ExtVpMeta, VpKey, VpStore, VpTableMeta};
use rapida_testkit::prelude::*;
use std::collections::BTreeMap;
use std::sync::Arc;

/// The reference load: base tables plus ExtVP reductions, each candidate
/// filtered row by row with a binary search of the partner's sorted,
/// deduplicated subject or object ids.
fn reference_load_ext(
    graph: &Graph,
    dfs: &SimDfs,
    segment_rows: usize,
    threshold: f64,
) -> (BTreeMap<VpKey, VpTableMeta>, Vec<ExtVpMeta>) {
    let dict = &graph.dict;
    let rdf_type = dict.lookup(&Term::iri(vocab::RDF_TYPE));
    let mut groups: BTreeMap<VpKey, Vec<(u64, u64)>> = BTreeMap::new();
    for t in &graph.triples {
        let key = if Some(t.p) == rdf_type {
            VpKey::TypePartition(t.o)
        } else {
            VpKey::Prop(t.p)
        };
        groups.entry(key).or_default().push((t.s.0, t.o.0));
    }

    let write_table = |name: &str, rows: &[(u64, u64)]| -> usize {
        let mut writer = DatasetWriter::new(1);
        for chunk in rows.chunks(segment_rows.max(1)) {
            let mut seg = Vec::new();
            encode_segment(chunk, |o| dict.numeric_value(TermId(o)), &mut seg);
            writer.push(&seg);
        }
        let ds = writer.finish();
        let bytes = ds.total_bytes();
        dfs.put(name, ds);
        bytes
    };

    let mut tables = BTreeMap::new();
    for (key, rows) in &mut groups {
        rows.sort_unstable();
        let dataset = format!("{key}");
        let bytes = write_table(&dataset, rows);
        tables.insert(
            *key,
            VpTableMeta {
                key: *key,
                dataset,
                rows: rows.len(),
                bytes,
                raw_bytes: rows.len() * 16,
            },
        );
    }

    let sets: Vec<(VpKey, Vec<u64>, Vec<u64>)> = groups
        .iter()
        .map(|(key, rows)| {
            let mut subjects: Vec<u64> = rows.iter().map(|r| r.0).collect();
            subjects.dedup();
            let mut objects: Vec<u64> = rows.iter().map(|r| r.1).collect();
            objects.sort_unstable();
            objects.dedup();
            (*key, subjects, objects)
        })
        .collect();
    let mut ext = Vec::new();
    for (base, rows) in &groups {
        for (partner, p_subjects, p_objects) in &sets {
            if partner == base {
                continue;
            }
            for kind in [ExtVpKind::SS, ExtVpKind::SO, ExtVpKind::OS] {
                let void = match kind {
                    ExtVpKind::SS => false,
                    ExtVpKind::SO => matches!(partner, VpKey::TypePartition(_)),
                    ExtVpKind::OS => matches!(base, VpKey::TypePartition(_)),
                };
                if void {
                    continue;
                }
                let set = match kind {
                    ExtVpKind::SS | ExtVpKind::OS => p_subjects,
                    ExtVpKind::SO => p_objects,
                };
                let reduced: Vec<(u64, u64)> = rows
                    .iter()
                    .filter(|(s, o)| {
                        let id = match kind {
                            ExtVpKind::SS | ExtVpKind::SO => s,
                            ExtVpKind::OS => o,
                        };
                        set.binary_search(id).is_ok()
                    })
                    .copied()
                    .collect();
                let selectivity = reduced.len() as f64 / rows.len().max(1) as f64;
                if reduced.len() >= rows.len() || selectivity > threshold {
                    continue;
                }
                let dataset = format!("extvp_{kind}__{base}__{partner}");
                let bytes = write_table(&dataset, &reduced);
                ext.push(ExtVpMeta {
                    kind,
                    base: *base,
                    partner: *partner,
                    dataset,
                    rows: reduced.len(),
                    bytes,
                    selectivity,
                });
            }
        }
    }
    ext.sort_unstable_by_key(|e| (e.base, e.kind, e.partner));
    (tables, ext)
}

/// Load `graph` both ways and compare catalogs and stored bytes.
fn check_against_reference(graph: &Graph, segment_rows: usize, threshold: f64) -> Result<(), String> {
    let dfs = SimDfs::new();
    let store = VpStore::load_ext(graph, &dfs, segment_rows, Some(threshold));
    let ref_dfs = SimDfs::new();
    let (ref_tables, ref_ext) = reference_load_ext(graph, &ref_dfs, segment_rows, threshold);

    let tag = format!("segment_rows {segment_rows}, threshold {threshold}");
    let mut tables: Vec<&VpTableMeta> = store.tables().collect();
    tables.sort_unstable_by_key(|t| t.key);
    if tables.len() != ref_tables.len() {
        return Err(format!("{tag}: {} tables, reference {}", tables.len(), ref_tables.len()));
    }
    for (got, want) in tables.iter().zip(ref_tables.values()) {
        let g = (got.key, &got.dataset, got.rows, got.bytes, got.raw_bytes);
        let w = (want.key, &want.dataset, want.rows, want.bytes, want.raw_bytes);
        if g != w {
            return Err(format!("{tag}: table {g:?} != reference {w:?}"));
        }
    }

    let ext = store.ext_tables();
    if ext.len() != ref_ext.len() {
        return Err(format!("{tag}: {} reductions, reference {}", ext.len(), ref_ext.len()));
    }
    for (got, want) in ext.iter().zip(&ref_ext) {
        let g = (got.kind, got.base, got.partner, &got.dataset, got.rows, got.bytes, got.selectivity.to_bits());
        let w = (want.kind, want.base, want.partner, &want.dataset, want.rows, want.bytes, want.selectivity.to_bits());
        if g != w {
            return Err(format!("{tag}: reduction {g:?} != reference {w:?}"));
        }
    }

    let names = dfs.names();
    if names != ref_dfs.names() {
        return Err(format!("{tag}: stored dataset names differ from the reference"));
    }
    for name in &names {
        let (got, want) = (dfs.peek(name).unwrap(), ref_dfs.peek(name).unwrap());
        let same = got.records == want.records
            && got.block_records == want.block_records
            && got.blocks.len() == want.blocks.len()
            && got.blocks.iter().zip(&want.blocks).all(|(a, b)| a[..] == b[..]);
        if !same {
            return Err(format!("{tag}: dataset {name} is not byte-identical to the reference"));
        }
    }
    Ok(())
}

const THRESHOLDS: [f64; 3] = [0.0, 0.25, 1.0];

/// One random graph: `nodes` serve as subjects and objects (so SO / OS
/// reductions join), property 0 is `rdf:type` over three classes, and
/// `gap` filler terms interned before each triple spread the graph's ids
/// sparsely over the dictionary.
fn random_graph(triples: &[(u64, u64, u64, bool)], gap: usize) -> Graph {
    let mut g = Graph::new();
    let node = |i: u64| Term::iri(format!("http://x/n{i}"));
    for (i, &(s, p, o, literal)) in triples.iter().enumerate() {
        for j in 0..gap {
            Arc::make_mut(&mut g.dict).intern(&Term::iri(format!("http://x/filler{i}_{j}")));
        }
        let (p, o) = if p == 0 {
            (Term::iri(vocab::RDF_TYPE), Term::iri(format!("http://x/Class{}", o % 3)))
        } else if literal {
            (Term::iri(format!("http://x/p{p}")), Term::integer(o as i64))
        } else {
            (Term::iri(format!("http://x/p{p}")), node(o))
        };
        g.insert_terms(&node(s), &p, &o);
    }
    g
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 96, ..ProptestConfig::default() })]

    #[test]
    fn load_ext_matches_the_binary_search_reference(
        triples in proptest::collection::vec((0u64..24, 0u64..6, 0u64..24, any::<bool>()), 0..90),
        gap in prop_oneof![0usize..1, 1usize..5, 20usize..40],
        threshold in 0usize..3,
        segment_rows in 1usize..9,
    ) {
        let graph = random_graph(&triples, gap);
        check_against_reference(&graph, segment_rows, THRESHOLDS[threshold])?;
    }
}

#[test]
fn single_row_tables_match_the_reference() {
    // Every table holds one row; reductions are empty or the whole table.
    let graph = random_graph(&[(0, 1, 1, false), (1, 2, 0, false), (0, 0, 0, false), (2, 3, 5, true)], 3);
    for threshold in THRESHOLDS {
        check_against_reference(&graph, 4, threshold).unwrap();
    }
}

#[test]
fn empty_graph_matches_the_reference() {
    for threshold in THRESHOLDS {
        check_against_reference(&Graph::new(), 8, threshold).unwrap();
    }
}

#[test]
fn tiny_datasets_match_the_reference() {
    let graphs = [
        ("bsbm", generate_bsbm(&BsbmConfig::tiny())),
        ("chem", generate_chem(&ChemConfig::tiny())),
        ("pubmed", generate_pubmed(&PubmedConfig::tiny())),
    ];
    for (name, graph) in &graphs {
        for (segment_rows, threshold) in [(8192, 0.25), (64, 1.0)] {
            check_against_reference(graph, segment_rows, threshold)
                .unwrap_or_else(|e| panic!("{name}: {e}"));
        }
    }
}
