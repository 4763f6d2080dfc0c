//! The data catalog: one loaded dataset in both storage layouts, plus the
//! dictionary and statistics the planners need.

use rapida_mapred::SimDfs;
use rapida_rdf::{Dictionary, Graph, Term, TermId};
use rapida_sparql::analysis::PropKey;
use rapida_storage::{StatsCatalog, TgStore, VpKey, VpStore};
use std::sync::Arc;

/// Sentinel id for query constants absent from the data: matches nothing.
pub const MISSING_ID: u64 = u64::MAX;

/// A loaded dataset: dictionary, DFS, both storage layouts and statistics.
#[derive(Clone)]
pub struct DataCatalog {
    /// The graph's dictionary as loaded, shared read-only with every
    /// operator config planned over this catalog. Terms the graph interns
    /// later are not in it (see [`Graph::dict`]).
    pub dict: Arc<Dictionary>,
    /// The simulated DFS holding all table/partition datasets.
    pub dfs: SimDfs,
    /// Vertical-partition store (Hive engines).
    pub vp: VpStore,
    /// Triplegroup store (RAPID engines).
    pub tg: TgStore,
    /// Per-predicate count/NDV statistics (sorted; plan-enumeration inputs).
    pub pstats: Arc<StatsCatalog>,
}

/// Load-time tuning knobs.
#[derive(Debug, Clone, Copy)]
pub struct LoadConfig {
    /// Rows per VP columnar segment (ORC stripe analog; 1 segment = 1 split).
    pub vp_segment_rows: usize,
    /// Target triplegroup-store split size in bytes.
    pub tg_split_bytes: usize,
    /// Materialize ExtVP semi-join reductions at load time (S2RDF). On by
    /// default: the compilers substitute reductions for full-table scans,
    /// and the byte-identity oracles hold either way.
    pub extvp: bool,
    /// ExtVP selectivity cutoff: a reduction is kept only when it retains at
    /// most this fraction of its base table's rows (S2RDF's 0.25 default).
    pub extvp_threshold: f64,
}

impl Default for LoadConfig {
    fn default() -> Self {
        LoadConfig {
            vp_segment_rows: 8192,
            tg_split_bytes: 256 * 1024,
            extvp: true,
            extvp_threshold: 0.25,
        }
    }
}

impl DataCatalog {
    /// Load a graph into a fresh DFS with default tuning.
    pub fn load(graph: &Graph) -> DataCatalog {
        Self::load_with(graph, LoadConfig::default())
    }

    /// Load a graph with explicit tuning.
    pub fn load_with(graph: &Graph, cfg: LoadConfig) -> DataCatalog {
        let dfs = SimDfs::new();
        let extvp = cfg.extvp.then_some(cfg.extvp_threshold);
        let vp = VpStore::load_ext(graph, &dfs, cfg.vp_segment_rows, extvp);
        let tg = TgStore::load(graph, &dfs, cfg.tg_split_bytes);
        let mut pstats = StatsCatalog::compute(graph);
        pstats.register_ext_tables(vp.ext_tables());
        DataCatalog {
            dict: graph.dict.clone(),
            dfs,
            vp,
            tg,
            pstats: Arc::new(pstats),
        }
    }

    /// Raw id of a term, or [`MISSING_ID`] when the term is absent from the
    /// data (scans keyed on it match nothing).
    pub fn id_of(&self, term: &Term) -> u64 {
        self.dict.lookup(term).map(|t| t.0).unwrap_or(MISSING_ID)
    }

    /// Resolve a property key to `(property id, type-object id)`.
    pub fn resolve_prop(&self, key: &PropKey) -> (u64, Option<u64>) {
        let pid = self.id_of(&key.prop);
        let oid = key.type_object.as_ref().map(|o| self.id_of(o));
        (pid, oid)
    }

    /// The VP table key a triple-pattern property resolves to: type
    /// partitions for `rdf:type`-with-constant keys, plain property tables
    /// otherwise.
    pub fn vp_key(&self, key: &PropKey) -> VpKey {
        match &key.type_object {
            Some(obj) => VpKey::TypePartition(TermId(self.id_of(obj))),
            None => VpKey::Prop(TermId(self.id_of(&key.prop))),
        }
    }

    /// Stored size in bytes of the VP table for `key` (0 if absent) — the
    /// statistic behind Hive's map-join decision.
    pub fn vp_bytes(&self, key: &PropKey) -> usize {
        self.vp
            .table(self.vp_key(key))
            .map(|t| t.bytes)
            .unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rapida_rdf::vocab;

    fn iri(s: &str) -> Term {
        Term::iri(format!("http://x/{s}"))
    }

    fn catalog() -> DataCatalog {
        let mut g = Graph::new();
        for i in 0..10 {
            let s = iri(&format!("p{i}"));
            g.insert_terms(&s, &Term::iri(vocab::RDF_TYPE), &iri("T1"));
            g.insert_terms(&s, &iri("price"), &Term::decimal(i as f64 + 0.5));
        }
        DataCatalog::load(&g)
    }

    #[test]
    fn loads_both_layouts() {
        let c = catalog();
        assert!(c.vp.tables().count() >= 2);
        assert!(!c.tg.classes().is_empty());
        assert_eq!(c.pstats.triples, 20);
    }

    #[test]
    fn missing_terms_resolve_to_sentinel() {
        let c = catalog();
        assert_eq!(c.id_of(&iri("nonexistent")), MISSING_ID);
        assert_ne!(c.id_of(&iri("price")), MISSING_ID);
    }

    #[test]
    fn the_dictionary_exposes_values() {
        let c = catalog();
        let pid = TermId(c.id_of(&Term::decimal(0.5)));
        assert_eq!(c.dict.numeric_value(pid), Some(0.5));
        assert_eq!(c.dict.lexical(pid), Some("0.5"));
    }

    #[test]
    fn a_catalog_does_not_see_terms_interned_after_its_load() {
        let mut g = Graph::new();
        g.insert_terms(&iri("s"), &iri("p"), &iri("o"));
        let cat = DataCatalog::load(&g);
        let terms = cat.dict.len();
        g.insert_terms(&iri("s"), &iri("p"), &iri("new"));
        assert_eq!(cat.dict.len(), terms);
        assert_eq!(cat.id_of(&iri("new")), MISSING_ID);
        assert_ne!(DataCatalog::load(&g).id_of(&iri("new")), MISSING_ID);
    }

    #[test]
    fn vp_key_routes_type_patterns_to_partitions() {
        let c = catalog();
        let key = PropKey {
            prop: Term::iri(vocab::RDF_TYPE),
            type_object: Some(iri("T1")),
        };
        assert!(matches!(c.vp_key(&key), VpKey::TypePartition(_)));
        assert!(c.vp_bytes(&key) > 0);
        let plain = PropKey {
            prop: iri("price"),
            type_object: None,
        };
        assert!(matches!(c.vp_key(&plain), VpKey::Prop(_)));
    }
}
