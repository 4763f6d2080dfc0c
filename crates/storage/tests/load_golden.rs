//! Golden pin of ingest: the tiny BSBM, chem and PubMed graphs, written as
//! N-Triples, parsed and encoded with `Graph::insert_term_triples`, then
//! loaded into both storage layouts with the default catalog tuning
//! (8192-row VP segments, ExtVP at S2RDF's 0.25 cutoff, 256 KiB
//! triplegroup splits).
//!
//! Per dataset, `tests/snapshots/load_golden.txt` records every DFS
//! dataset's name, record count, byte count and an FNV-1a hash of its
//! blocks, then the dictionary's size and an FNV-1a hash of its terms in id
//! order. A change to ingest that moves a single id or stored byte fails
//! here. `RAPIDA_UPDATE_SNAPSHOTS=1` rewrites the file; do that only for a
//! change meant to move the stored data.

use rapida_datagen::{generate_bsbm, generate_chem, generate_pubmed, BsbmConfig, ChemConfig, PubmedConfig};
use rapida_mapred::SimDfs;
use rapida_rdf::{parse_ntriples, write_ntriples, Graph, TermId};
use rapida_storage::{TgStore, VpStore};
use std::fmt::Write as _;
use std::path::PathBuf;

const FNV_BASIS: u64 = 0xcbf2_9ce4_8422_2325;

/// FNV-1a over `bytes`, continued from state `h` (start at [`FNV_BASIS`]).
fn fnv1a_from(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

/// Re-ingest `generated` through the N-Triples text path.
fn reingest(generated: &Graph) -> Graph {
    let text: Vec<_> = generated.triples.iter().map(|t| t.decode(&generated.dict)).collect();
    let text = write_ntriples(&text);
    let triples = parse_ntriples(&text).expect("generated N-Triples parse");
    let mut g = Graph::new();
    g.insert_term_triples(&triples);
    g
}

fn dump(name: &str, graph: &Graph, out: &mut String) {
    let dfs = SimDfs::new();
    VpStore::load_ext(graph, &dfs, 8192, Some(0.25));
    TgStore::load(graph, &dfs, 256 * 1024);
    writeln!(out, "# {name}: {} triples", graph.len()).unwrap();
    for ds_name in dfs.names() {
        let ds = dfs.peek(&ds_name).unwrap();
        let mut h = FNV_BASIS;
        for block in &ds.blocks {
            h = fnv1a_from(h, &(block.len() as u64).to_le_bytes());
            h = fnv1a_from(h, block);
        }
        writeln!(out, "{ds_name} records={} bytes={} fnv={h:016x}", ds.records, ds.total_bytes()).unwrap();
    }
    let mut h = FNV_BASIS;
    for id in 0..graph.dict.len() {
        h = fnv1a_from(h, graph.dict.term(TermId(id as u64)).to_string().as_bytes());
        h = fnv1a_from(h, b"\n");
    }
    writeln!(out, "dict terms={} fnv={h:016x}", graph.dict.len()).unwrap();
}

#[test]
fn load_matches_the_golden() {
    let mut got = String::new();
    dump("bsbm", &reingest(&generate_bsbm(&BsbmConfig::tiny())), &mut got);
    dump("chem", &reingest(&generate_chem(&ChemConfig::tiny())), &mut got);
    dump("pubmed", &reingest(&generate_pubmed(&PubmedConfig::tiny())), &mut got);

    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/snapshots/load_golden.txt");
    if std::env::var("RAPIDA_UPDATE_SNAPSHOTS").is_ok() {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, &got).unwrap();
        return;
    }
    let want = std::fs::read_to_string(&path)
        .unwrap_or_else(|_| panic!("missing golden {}", path.display()));
    for (i, (w, g)) in want.lines().zip(got.lines()).enumerate() {
        assert_eq!(w, g, "load golden drifted at line {}", i + 1);
    }
    assert_eq!(want.lines().count(), got.lines().count(), "load golden line count");
}
