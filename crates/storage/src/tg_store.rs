//! Subject-triplegroup store: the NTGA-side storage layout.
//!
//! Triples are grouped on the subject column into *subject triplegroups* and
//! partitioned by **equivalence class** (the set of properties a subject
//! has), one DFS dataset per class — the paper's pre-processing for RAPID+ /
//! RAPIDAnalytics (§5.1). Query evaluation reads only the classes whose
//! property set covers a star pattern's required properties.
//!
//! The class catalog feeds the mapper as well as the input list: a shared
//! scan over several star patterns learns, per class it reads, which of the
//! patterns that class covers ([`TgStore::covering_any`]). The planner turns
//! that into the scan's route table, so a record is walked only by the star
//! routes its class can satisfy.

use rapida_mapred::codec::{read_varint, write_varint};
use rapida_mapred::{DatasetWriter, SimDfs};
use rapida_rdf::{FxHashMap, Graph, TermId};
use std::collections::BTreeSet;

/// Canonical triplegroup record codec: `subject, n, (p, o) * n`.
///
/// This is the on-DFS representation of a subject triplegroup; the NTGA
/// operator crate builds its richer annotated triplegroups on top.
pub fn encode_tg(subject: u64, pairs: &[(u64, u64)], out: &mut Vec<u8>) {
    write_varint(out, subject);
    write_varint(out, pairs.len() as u64);
    for (p, o) in pairs {
        write_varint(out, *p);
        write_varint(out, *o);
    }
}

/// Decode a triplegroup record. Returns `(subject, pairs)`.
pub fn decode_tg(mut rec: &[u8]) -> Option<(u64, Vec<(u64, u64)>)> {
    let subject = read_varint(&mut rec)?;
    let n = read_varint(&mut rec)? as usize;
    let mut pairs = Vec::with_capacity(n.min(1 << 16));
    for _ in 0..n {
        let p = read_varint(&mut rec)?;
        let o = read_varint(&mut rec)?;
        pairs.push((p, o));
    }
    Some((subject, pairs))
}

/// Metadata for one equivalence-class partition.
#[derive(Debug, Clone)]
pub struct EcMeta {
    /// The property set of this class.
    pub props: BTreeSet<TermId>,
    /// DFS dataset name.
    pub dataset: String,
    /// Number of triplegroups.
    pub groups: usize,
    /// Stored bytes.
    pub bytes: usize,
}

/// The triplegroup store catalog.
#[derive(Clone)]
pub struct TgStore {
    classes: Vec<EcMeta>,
}

impl TgStore {
    /// Build the store from a graph, writing one dataset per equivalence
    /// class into `dfs`. `split_bytes` is the target input-split size.
    pub fn load(graph: &Graph, dfs: &SimDfs, split_bytes: usize) -> TgStore {
        // Group triples by subject.
        let mut by_subject: FxHashMap<u64, Vec<(u64, u64)>> = FxHashMap::default();
        for t in &graph.triples {
            by_subject.entry(t.s.0).or_default().push((t.p.0, t.o.0));
        }
        // Partition subjects by equivalence class: each class's subjects,
        // with their sorted (predicate, object) pairs.
        type Members = Vec<(u64, Vec<(u64, u64)>)>;
        let mut by_ec: FxHashMap<BTreeSet<TermId>, Members> = FxHashMap::default();
        for (s, mut pairs) in by_subject {
            pairs.sort_unstable();
            let ec: BTreeSet<TermId> = pairs.iter().map(|(p, _)| TermId(*p)).collect();
            by_ec.entry(ec).or_default().push((s, pairs));
        }

        // Class indexes feed the `tg_ec{i}` dataset names, which appear in
        // compiled plans: assign them in property-set order, never in hash
        // order, so plan dumps are a pure function of the graph.
        let mut ecs: Vec<(BTreeSet<TermId>, Members)> = by_ec.into_iter().collect();
        ecs.sort_unstable_by(|(a, _), (b, _)| a.cmp(b));

        let mut classes = Vec::with_capacity(ecs.len());
        for (i, (props, mut groups)) in ecs.into_iter().enumerate() {
            groups.sort_unstable_by_key(|(s, _)| *s);
            let dataset = format!("tg_ec{i}");
            let mut writer = DatasetWriter::new(split_bytes);
            let mut buf = Vec::new();
            for (s, pairs) in &groups {
                buf.clear();
                encode_tg(*s, pairs, &mut buf);
                writer.push(&buf);
            }
            let ds = writer.finish();
            let bytes = ds.total_bytes();
            dfs.put(&dataset, ds);
            classes.push(EcMeta {
                props,
                dataset,
                groups: groups.len(),
                bytes,
            });
        }
        // Canonical class order on the commit path. sort_unstable is safe:
        // dataset names are unique (one per property-set equivalence
        // class), so no equal elements exist for stability to order.
        classes.sort_unstable_by(|a, b| a.dataset.cmp(&b.dataset));
        TgStore { classes }
    }

    /// All equivalence classes.
    pub fn classes(&self) -> &[EcMeta] {
        &self.classes
    }

    /// Dataset names of all classes whose property set covers `required` —
    /// the partitions a star pattern with those primary properties must scan.
    pub fn datasets_covering(&self, required: &[TermId]) -> Vec<String> {
        self.classes
            .iter()
            .filter(|ec| required.iter().all(|p| ec.props.contains(p)))
            .map(|ec| ec.dataset.clone())
            .collect()
    }

    /// The single shared scan of several star patterns: every class whose
    /// property set covers at least one of `requireds`, in class order, with
    /// the indexes (ascending) of the requirement sets it covers — the
    /// patterns its records can satisfy. Class datasets are unique, so no
    /// class is listed twice.
    pub fn covering_any(&self, requireds: &[Vec<TermId>]) -> Vec<(String, Vec<usize>)> {
        self.classes
            .iter()
            .filter_map(|ec| {
                let covers: Vec<usize> = requireds
                    .iter()
                    .enumerate()
                    .filter(|(_, req)| req.iter().all(|p| ec.props.contains(p)))
                    .map(|(i, _)| i)
                    .collect();
                (!covers.is_empty()).then(|| (ec.dataset.clone(), covers))
            })
            .collect()
    }

    /// Total stored bytes.
    pub fn total_bytes(&self) -> usize {
        self.classes.iter().map(|c| c.bytes).sum()
    }

    /// Total triplegroup count.
    pub fn total_groups(&self) -> usize {
        self.classes.iter().map(|c| c.groups).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rapida_rdf::{vocab, Term};

    fn iri(s: &str) -> Term {
        Term::iri(format!("http://x/{s}"))
    }

    fn sample() -> (Graph, SimDfs, TgStore) {
        let mut g = Graph::new();
        for i in 0..20 {
            let s = iri(&format!("prod{i}"));
            g.insert_terms(&s, &Term::iri(vocab::RDF_TYPE), &iri("T1"));
            g.insert_terms(&s, &iri("label"), &Term::literal(format!("product {i}")));
            if i % 2 == 0 {
                g.insert_terms(&s, &iri("feature"), &iri(&format!("f{}", i % 3)));
                g.insert_terms(&s, &iri("feature"), &iri(&format!("f{}", (i + 1) % 3)));
            }
        }
        let dfs = SimDfs::new();
        let store = TgStore::load(&g, &dfs, 512);
        (g, dfs, store)
    }

    #[test]
    fn partitions_by_equivalence_class() {
        let (_g, _dfs, store) = sample();
        // Two classes: {type,label} and {type,label,feature}.
        assert_eq!(store.classes().len(), 2);
        assert_eq!(store.total_groups(), 20);
    }

    #[test]
    fn covering_selects_superset_classes() {
        let (g, _dfs, store) = sample();
        let ty = g.dict.lookup(&Term::iri(vocab::RDF_TYPE)).unwrap();
        let feature = g.dict.lookup(&iri("feature")).unwrap();
        let label = g.dict.lookup(&iri("label")).unwrap();
        assert_eq!(store.datasets_covering(&[ty, label]).len(), 2);
        assert_eq!(store.datasets_covering(&[feature]).len(), 1);
        assert_eq!(store.datasets_covering(&[ty, feature, label]).len(), 1);
    }

    #[test]
    fn covering_any_lists_each_class_once_with_what_it_covers() {
        let (g, _dfs, store) = sample();
        let ty = g.dict.lookup(&Term::iri(vocab::RDF_TYPE)).unwrap();
        let label = g.dict.lookup(&iri("label")).unwrap();
        let feature = g.dict.lookup(&iri("feature")).unwrap();
        let covers = |reqs: &[Vec<TermId>]| -> Vec<Vec<usize>> {
            store
                .covering_any(reqs)
                .into_iter()
                .map(|(_, c)| c)
                .collect()
        };
        // Both classes have type and label: each listed once, covering both.
        assert_eq!(covers(&[vec![ty], vec![label]]), vec![vec![0, 1]; 2]);
        // Only {type, label, feature} covers the feature star.
        let both = store.covering_any(&[vec![ty, label], vec![feature]]);
        let with_feature = both.iter().find(|(_, c)| c.len() == 2);
        assert_eq!(both.len(), 2);
        assert_eq!(
            with_feature.map(|(ds, _)| vec![ds.clone()]),
            Some(store.datasets_covering(&[feature]))
        );
        assert_eq!(covers(&[vec![feature]]), vec![vec![0]]);
    }

    #[test]
    fn tg_records_roundtrip() {
        let (g, dfs, store) = sample();
        let mut groups = 0;
        let mut multi_valued_seen = false;
        for ec in store.classes() {
            let ds = dfs.peek(&ec.dataset).unwrap();
            for rec in ds.iter_records() {
                let (s, pairs) = decode_tg(rec).unwrap();
                assert!(g.dict.lexical(TermId(s)).is_some_and(|l| l.contains("prod")));
                assert!(!pairs.is_empty());
                let feature = g.dict.lookup(&iri("feature")).unwrap().0;
                if pairs.iter().filter(|(p, _)| *p == feature).count() == 2 {
                    multi_valued_seen = true;
                }
                groups += 1;
            }
        }
        assert_eq!(groups, 20);
        assert!(multi_valued_seen, "multi-valued property kept in one group");
    }

    #[test]
    fn encode_decode_empty_pairs() {
        let mut buf = Vec::new();
        encode_tg(7, &[], &mut buf);
        assert_eq!(decode_tg(&buf), Some((7, vec![])));
    }
}
