//! Per-predicate catalog statistics: triple counts and NDV (number of
//! distinct values) for the subject and object columns of every property,
//! plus per-type instance counts — the cardinality inputs of the plan
//! enumerator's coster.
//!
//! Everything here is stored in **sorted** vectors and looked up by binary
//! search: statistics sit on the plan-choice path, where hash-map iteration
//! order must never leak into the chosen plan.

use crate::bitmap::{id_universe, IdBitmap};
use rapida_rdf::{vocab, FxHashMap, Graph, Term, TermId};

/// Statistics of one property's triple table.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PredStat {
    /// The property id.
    pub prop: TermId,
    /// Triple count.
    pub count: u64,
    /// Distinct subjects.
    pub ndv_subjects: u64,
    /// Distinct objects.
    pub ndv_objects: u64,
}

impl PredStat {
    /// Average object multiplicity per subject (≥ 1 for non-empty tables).
    pub fn avg_per_subject(&self) -> f64 {
        if self.ndv_subjects == 0 {
            0.0
        } else {
            self.count as f64 / self.ndv_subjects as f64
        }
    }
}

/// Row/byte counts of one materialized ExtVP reduction, keyed by its DFS
/// dataset name — the coster prices ExtVP scans from these without touching
/// the DFS.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExtTableStat {
    /// DFS dataset name (`extvp_{kind}__{base}__{partner}`).
    pub dataset: String,
    /// Row count.
    pub rows: u64,
    /// Stored (compressed) bytes.
    pub bytes: u64,
}

/// Catalog-wide statistics over a loaded graph, ordered deterministically.
#[derive(Debug, Clone, Default)]
pub struct StatsCatalog {
    /// Total triples.
    pub triples: u64,
    /// Distinct subjects across the whole graph.
    pub subjects: u64,
    /// Per-property statistics, sorted by property id.
    preds: Vec<PredStat>,
    /// Per-`rdf:type`-object instance counts, sorted by object id.
    types: Vec<(TermId, u64)>,
    /// Registered ExtVP reduction stats, sorted by dataset name.
    ext: Vec<ExtTableStat>,
}

impl StatsCatalog {
    /// One pass over the graph. NDVs are exact (the simulator's datasets are
    /// small): each property's subjects and objects are marked in bitmaps
    /// over the dense id space and counted with popcount. A production
    /// system would substitute sketches here without changing the
    /// interface.
    pub fn compute(graph: &Graph) -> StatsCatalog {
        let rdf_type = graph.dict.lookup(&Term::iri(vocab::RDF_TYPE));
        let universe = id_universe(graph);
        struct Acc {
            count: u64,
            subjects: IdBitmap,
            objects: IdBitmap,
        }
        let mut by_prop: FxHashMap<TermId, Acc> = FxHashMap::default();
        let mut all_subjects = IdBitmap::new(universe);
        let mut type_counts: FxHashMap<TermId, u64> = FxHashMap::default();
        for t in &graph.triples {
            all_subjects.insert(t.s.0);
            if Some(t.p) == rdf_type {
                *type_counts.entry(t.o).or_insert(0) += 1;
            }
            let acc = by_prop.entry(t.p).or_insert_with(|| Acc {
                count: 0,
                subjects: IdBitmap::new(universe),
                objects: IdBitmap::new(universe),
            });
            acc.count += 1;
            acc.subjects.insert(t.s.0);
            acc.objects.insert(t.o.0);
        }
        let mut preds: Vec<PredStat> = by_prop
            .into_iter()
            .map(|(prop, acc)| PredStat {
                prop,
                count: acc.count,
                ndv_subjects: acc.subjects.len(),
                ndv_objects: acc.objects.len(),
            })
            .collect();
        preds.sort_unstable_by_key(|p| p.prop);
        let mut types: Vec<(TermId, u64)> = type_counts.into_iter().collect();
        types.sort_unstable_by_key(|(o, _)| *o);
        StatsCatalog {
            triples: graph.triples.len() as u64,
            subjects: all_subjects.len(),
            preds,
            types,
            ext: Vec::new(),
        }
    }

    /// Statistics of one property, if any triple carries it.
    pub fn pred(&self, prop: TermId) -> Option<&PredStat> {
        self.preds
            .binary_search_by_key(&prop, |p| p.prop)
            .ok()
            .map(|i| &self.preds[i])
    }

    /// Instance count of one `rdf:type` object (0 when absent).
    pub fn type_count(&self, object: TermId) -> u64 {
        self.types
            .binary_search_by_key(&object, |(o, _)| *o)
            .ok()
            .map(|i| self.types[i].1)
            .unwrap_or(0)
    }

    /// All per-property statistics, sorted by property id.
    pub fn preds(&self) -> &[PredStat] {
        &self.preds
    }

    /// Register the VP store's materialized ExtVP reductions so their sizes
    /// participate in cost estimation. Replaces any prior registration.
    pub fn register_ext_tables(&mut self, ext: &[crate::vp::ExtVpMeta]) {
        self.ext = ext
            .iter()
            .map(|e| ExtTableStat {
                dataset: e.dataset.clone(),
                rows: e.rows as u64,
                bytes: e.bytes as u64,
            })
            .collect();
        self.ext.sort_unstable_by(|a, b| a.dataset.cmp(&b.dataset));
    }

    /// Statistics of one registered ExtVP reduction, by dataset name.
    pub fn ext_table(&self, dataset: &str) -> Option<&ExtTableStat> {
        self.ext
            .binary_search_by(|e| e.dataset.as_str().cmp(dataset))
            .ok()
            .map(|i| &self.ext[i])
    }

    /// All registered ExtVP reduction stats, sorted by dataset name.
    pub fn ext_tables(&self) -> &[ExtTableStat] {
        &self.ext
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn iri(s: &str) -> Term {
        Term::iri(format!("http://x/{s}"))
    }

    fn sample() -> Graph {
        let mut g = Graph::new();
        for i in 0..6 {
            let s = iri(&format!("s{i}"));
            g.insert_terms(&s, &Term::iri(vocab::RDF_TYPE), &iri("T"));
            g.insert_terms(&s, &iri("p"), &iri(&format!("v{}", i % 3)));
            g.insert_terms(&s, &iri("p"), &iri("shared"));
        }
        g
    }

    #[test]
    fn counts_and_ndvs_are_exact() {
        let g = sample();
        let st = StatsCatalog::compute(&g);
        assert_eq!(st.triples, 18);
        assert_eq!(st.subjects, 6);
        let p = g.dict.lookup(&iri("p")).unwrap();
        let ps = st.pred(p).unwrap();
        assert_eq!(ps.count, 12);
        assert_eq!(ps.ndv_subjects, 6);
        assert_eq!(ps.ndv_objects, 4); // v0, v1, v2, shared
        assert!((ps.avg_per_subject() - 2.0).abs() < 1e-12);
        let t = g.dict.lookup(&iri("T")).unwrap();
        assert_eq!(st.type_count(t), 6);
        assert_eq!(st.type_count(TermId(u64::MAX)), 0);
    }

    #[test]
    fn preds_are_sorted_by_property_id() {
        let st = StatsCatalog::compute(&sample());
        let ids: Vec<u64> = st.preds().iter().map(|p| p.prop.0).collect();
        let mut sorted = ids.clone();
        sorted.sort_unstable();
        assert_eq!(ids, sorted);
    }

    #[test]
    fn empty_graph_has_zero_stats() {
        let st = StatsCatalog::compute(&Graph::new());
        assert_eq!(st.triples, 0);
        assert_eq!(st.subjects, 0);
        assert!(st.preds().is_empty());
        assert_eq!(st.type_count(TermId(0)), 0);
        assert!(st.ext_tables().is_empty());
    }

    #[test]
    fn single_predicate_graph() {
        let mut g = Graph::new();
        for i in 0..4 {
            g.insert_terms(&iri(&format!("s{i}")), &iri("only"), &iri("o"));
        }
        let st = StatsCatalog::compute(&g);
        assert_eq!(st.preds().len(), 1);
        let p = g.dict.lookup(&iri("only")).unwrap();
        let ps = st.pred(p).unwrap();
        assert_eq!((ps.count, ps.ndv_subjects, ps.ndv_objects), (4, 4, 1));
        assert_eq!(st.subjects, 4);
    }

    #[test]
    fn all_duplicate_subjects_gives_ndv_one() {
        let mut g = Graph::new();
        for i in 0..7 {
            g.insert_terms(&iri("hub"), &iri("edge"), &iri(&format!("o{i}")));
        }
        let st = StatsCatalog::compute(&g);
        let p = g.dict.lookup(&iri("edge")).unwrap();
        let ps = st.pred(p).unwrap();
        assert_eq!(ps.ndv_subjects, 1);
        assert_eq!(ps.count, 7);
        assert!((ps.avg_per_subject() - 7.0).abs() < 1e-12);
        assert_eq!(st.subjects, 1);
    }

    #[test]
    fn stats_rows_agree_with_vp_table_meta_including_extvp() {
        use crate::vp::{VpKey, VpStore};
        use rapida_mapred::SimDfs;

        let g = sample();
        let dfs = SimDfs::new();
        let store = VpStore::load_ext(&g, &dfs, 16, Some(1.0));
        let mut st = StatsCatalog::compute(&g);
        st.register_ext_tables(store.ext_tables());

        // Base tables: per-property counts and per-type instance counts must
        // match the VP metadata row for row.
        for meta in store.tables() {
            let expect = match meta.key {
                VpKey::Prop(p) => st.pred(p).unwrap().count,
                VpKey::TypePartition(o) => st.type_count(o),
            };
            assert_eq!(expect, meta.rows as u64, "{}", meta.dataset);
        }
        // ExtVP reductions: registered stats mirror the store metadata.
        assert_eq!(st.ext_tables().len(), store.ext_tables().len());
        for e in store.ext_tables() {
            let reg = st.ext_table(&e.dataset).unwrap();
            assert_eq!(reg.rows, e.rows as u64, "{}", e.dataset);
            assert_eq!(reg.bytes, e.bytes as u64, "{}", e.dataset);
        }
    }
}
