//! Vertical-partition store: one `(s, o)` table per property, with
//! property–object partitions for `rdf:type` (Abadi et al. \[3\] + the paper's
//! pre-processing §5.1), stored as compressed columnar segments in the
//! simulated DFS.
//!
//! Optionally the store also materializes **ExtVP** reductions (S2RDF):
//! for every ordered pair of distinct tables, the semi-join reductions
//! SS (subjects of the base that are subjects of the partner),
//! SO (subjects of the base that are objects of the partner) and
//! OS (objects of the base that are subjects of the partner), kept only
//! when the reduction is selective enough (row ratio at or under a
//! threshold, S2RDF's 0.25 default). Compilers may substitute the smallest
//! applicable reduction for a full-table scan without changing query
//! output, because a semi-join against a *required* join partner only
//! removes rows that could never survive that join. Construction is
//! linear in the data per candidate: a subject and an object bitmap per
//! table over the dictionary's dense id space, then one bit test per base
//! row for each (base, partner, kind) candidate.

use crate::bitmap::{id_universe, IdBitmap};
use crate::segment::encode_segment;
use rapida_rdf::{vocab, FxHashMap, Graph, Term, TermId, Triple};
use rapida_mapred::{Dataset, DatasetWriter, SimDfs};
use std::fmt;

/// Identifies a VP table.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum VpKey {
    /// The table of one property.
    Prop(TermId),
    /// An `rdf:type` property–object partition: subjects of one type.
    TypePartition(TermId),
}

impl fmt::Display for VpKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            VpKey::Prop(p) => write!(f, "vp_p{}", p.0),
            VpKey::TypePartition(o) => write!(f, "vp_type_o{}", o.0),
        }
    }
}

/// Metadata about one VP table.
#[derive(Debug, Clone)]
pub struct VpTableMeta {
    /// The table key.
    pub key: VpKey,
    /// DFS dataset name.
    pub dataset: String,
    /// Row count.
    pub rows: usize,
    /// Stored (compressed) bytes.
    pub bytes: usize,
    /// Uncompressed estimate (16 bytes/row), for compression-ratio reporting.
    pub raw_bytes: usize,
}

/// Which semi-join reduction an ExtVP table holds, named for the columns
/// matched between base and partner (S2RDF's nomenclature).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum ExtVpKind {
    /// Rows of the base whose **subject** is a **subject** of the partner
    /// (star groups: both patterns share the subject variable).
    SS,
    /// Rows of the base whose **subject** is an **object** of the partner
    /// (path/α-join edges: the base's subject variable is the partner's
    /// object variable).
    SO,
    /// Rows of the base whose **object** is a **subject** of the partner
    /// (the mirror edge direction).
    OS,
}

impl fmt::Display for ExtVpKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExtVpKind::SS => write!(f, "ss"),
            ExtVpKind::SO => write!(f, "so"),
            ExtVpKind::OS => write!(f, "os"),
        }
    }
}

/// Metadata about one materialized ExtVP reduction.
#[derive(Debug, Clone)]
pub struct ExtVpMeta {
    /// Reduction kind.
    pub kind: ExtVpKind,
    /// The reduced table.
    pub base: VpKey,
    /// The semi-join partner.
    pub partner: VpKey,
    /// DFS dataset name (`extvp_{kind}__{base}__{partner}` — self-describing
    /// so plan dumps can annotate scans from the name alone).
    pub dataset: String,
    /// Row count of the reduction.
    pub rows: usize,
    /// Stored (compressed) bytes.
    pub bytes: usize,
    /// `rows / base rows` — the retention ratio the threshold cut on.
    pub selectivity: f64,
}

/// The vertical-partition store. Table contents live in the [`SimDfs`];
/// this struct holds the catalog.
#[derive(Clone)]
pub struct VpStore {
    tables: FxHashMap<VpKey, VpTableMeta>,
    /// ExtVP reductions, sorted by `(base, kind, partner)` for binary-search
    /// lookup (plan choice must not depend on hash order).
    ext: Vec<ExtVpMeta>,
}

impl VpStore {
    /// Build the store from a graph, writing table datasets into `dfs`.
    ///
    /// `segment_rows` is the row-group size (ORC stripe analog): each segment
    /// becomes one input split for Hive-style scans.
    pub fn load(graph: &Graph, dfs: &SimDfs, segment_rows: usize) -> VpStore {
        Self::load_ext(graph, dfs, segment_rows, None)
    }

    /// Like [`VpStore::load`], but when `extvp_threshold` is `Some(t)` also
    /// materialize ExtVP semi-join reductions for every ordered pair of
    /// distinct tables, keeping a reduction only when it is strictly smaller
    /// than its base and retains at most `t` of the base's rows (S2RDF's
    /// selectivity cutoff; empty reductions are kept — they prune the scan
    /// entirely).
    pub fn load_ext(
        graph: &Graph,
        dfs: &SimDfs,
        segment_rows: usize,
        extvp_threshold: Option<f64>,
    ) -> VpStore {
        let dict = &graph.dict;
        let rdf_type = dict.lookup(&Term::iri(vocab::RDF_TYPE));
        let key_of = |t: &Triple| {
            if Some(t.p) == rdf_type {
                VpKey::TypePartition(t.o)
            } else {
                VpKey::Prop(t.p)
            }
        };
        // Count the rows of each key, then turn each count into its key's
        // cursor in one exactly sized buffer, keys in order: one slice per
        // table. Materializing in key order keeps the load deterministic
        // end-to-end (DFS insertion order, block layout).
        let mut cursors: FxHashMap<VpKey, usize> = FxHashMap::default();
        for t in &graph.triples {
            *cursors.entry(key_of(t)).or_insert(0) += 1;
        }
        let mut keys: Vec<(VpKey, usize)> = cursors.iter().map(|(k, n)| (*k, *n)).collect();
        keys.sort_unstable_by_key(|(k, _)| *k);
        let mut start = 0;
        for (key, rows) in &keys {
            cursors.insert(*key, start);
            start += rows;
        }
        let mut rows = vec![(0u64, 0u64); graph.triples.len()];
        for t in &graph.triples {
            if let Some(at) = cursors.get_mut(&key_of(t)) {
                rows[*at] = (t.s.0, t.o.0);
                *at += 1;
            }
        }
        drop(cursors);
        let mut groups: Vec<(VpKey, &mut [(u64, u64)])> = Vec::with_capacity(keys.len());
        let mut rest = rows.as_mut_slice();
        for (key, n) in keys {
            let (table, tail) = rest.split_at_mut(n);
            groups.push((key, table));
            rest = tail;
        }

        let mut seg = Vec::new();
        let mut write_table = |name: &str, rows: &[(u64, u64)]| -> usize {
            // One segment per block: writer with split size 1 rolls a block
            // after every record (= segment).
            let mut writer = DatasetWriter::new(1);
            for chunk in rows.chunks(segment_rows.max(1)) {
                seg.clear();
                encode_segment(chunk, |o| dict.numeric_value(TermId(o)), &mut seg);
                writer.push(&seg);
            }
            let ds = writer.finish();
            let bytes = ds.total_bytes();
            dfs.put(name, ds);
            bytes
        };

        let mut tables = FxHashMap::default();
        for (key, rows) in &mut groups {
            rows.sort_unstable();
            let raw_bytes = rows.len() * 16;
            let dataset_name = format!("{key}");
            let bytes = write_table(&dataset_name, rows);
            tables.insert(
                *key,
                VpTableMeta {
                    key: *key,
                    dataset: dataset_name,
                    rows: rows.len(),
                    bytes,
                    raw_bytes,
                },
            );
        }

        let mut ext = Vec::new();
        if let Some(threshold) = extvp_threshold {
            // One subject bitmap and one object bitmap per table over the
            // dense id space, so each candidate costs one bit test per base
            // row. A type partition's objects are never tested (below), so
            // it gets no object bitmap.
            let universe = id_universe(graph);
            let sets: Vec<(VpKey, IdBitmap, Option<IdBitmap>)> = groups
                .iter()
                .map(|(key, rows)| {
                    let subjects = IdBitmap::of(universe, rows.iter().map(|r| r.0));
                    let objects = matches!(key, VpKey::Prop(_))
                        .then(|| IdBitmap::of(universe, rows.iter().map(|r| r.1)));
                    (*key, subjects, objects)
                })
                .collect();
            let mut reduced: Vec<(u64, u64)> = Vec::new();
            for (base, rows) in &groups {
                for (partner, p_subjects, p_objects) in &sets {
                    if partner == base {
                        continue;
                    }
                    for kind in [ExtVpKind::SS, ExtVpKind::SO, ExtVpKind::OS] {
                        // Semantically void pairs: a type partition's object
                        // column holds the type term itself, never a join
                        // variable — so it cannot feed an SO reduction as
                        // partner, nor an OS reduction as base.
                        let (set, test_object) = match kind {
                            ExtVpKind::SS => (p_subjects, false),
                            ExtVpKind::SO => match p_objects {
                                Some(objects) => (objects, false),
                                None => continue,
                            },
                            ExtVpKind::OS if matches!(base, VpKey::TypePartition(_)) => continue,
                            ExtVpKind::OS => (p_subjects, true),
                        };
                        let keep = |&(s, o): &(u64, u64)| set.contains(if test_object { o } else { s });
                        // Count first, so a candidate that fails the cutoff
                        // allocates nothing.
                        let kept = rows.iter().filter(|r| keep(r)).count();
                        let selectivity = kept as f64 / rows.len().max(1) as f64;
                        if kept >= rows.len() || selectivity > threshold {
                            continue;
                        }
                        // Filtering preserves the (s, o) sort order, so the
                        // reduction is written exactly like a base table.
                        reduced.clear();
                        reduced.extend(rows.iter().filter(|r| keep(r)));
                        let dataset = format!("extvp_{kind}__{base}__{partner}");
                        let bytes = write_table(&dataset, &reduced);
                        ext.push(ExtVpMeta {
                            kind,
                            base: *base,
                            partner: *partner,
                            dataset,
                            rows: kept,
                            bytes,
                            selectivity,
                        });
                    }
                }
            }
            ext.sort_unstable_by_key(|e| (e.base, e.kind, e.partner));
        }
        VpStore { tables, ext }
    }

    /// Table metadata, if the table exists (absent tables mean no triples
    /// with that property — scans over them are empty).
    pub fn table(&self, key: VpKey) -> Option<&VpTableMeta> {
        self.tables.get(&key)
    }

    /// All tables.
    pub fn tables(&self) -> impl Iterator<Item = &VpTableMeta> {
        self.tables.values()
    }

    /// All materialized ExtVP reductions, sorted by `(base, kind, partner)`.
    pub fn ext_tables(&self) -> &[ExtVpMeta] {
        &self.ext
    }

    /// The materialized reduction for one `(base, kind, partner)` triple, if
    /// it survived the selectivity cutoff.
    pub fn reduction(&self, base: VpKey, kind: ExtVpKind, partner: VpKey) -> Option<&ExtVpMeta> {
        self.ext
            .binary_search_by_key(&(base, kind, partner), |e| (e.base, e.kind, e.partner))
            .ok()
            .map(|i| &self.ext[i])
    }

    /// Total stored bytes across all tables.
    pub fn total_bytes(&self) -> usize {
        self.tables.values().map(|t| t.bytes).sum()
    }

    /// Overall compression ratio (stored / raw).
    pub fn compression_ratio(&self) -> f64 {
        let raw: usize = self.tables.values().map(|t| t.raw_bytes).sum();
        if raw == 0 {
            1.0
        } else {
            self.total_bytes() as f64 / raw as f64
        }
    }

    /// Read a table fully into `(s, o)` pairs (test / small-table helper —
    /// the map-join path in the engines uses this for in-memory hash sides).
    pub fn read_table(&self, dfs: &SimDfs, key: VpKey) -> Vec<(u64, u64)> {
        let Some(meta) = self.tables.get(&key) else {
            return Vec::new();
        };
        let Some(ds) = dfs.peek(&meta.dataset) else {
            return Vec::new();
        };
        read_dataset_rows(&ds)
    }
}

/// Decode every segment record of a VP dataset into `(s, o)` rows.
pub fn read_dataset_rows(ds: &Dataset) -> Vec<(u64, u64)> {
    let mut out = Vec::new();
    for rec in ds.iter_records() {
        if let Some(rows) = crate::segment::decode_segment(rec) {
            out.extend(rows);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn iri(s: &str) -> Term {
        Term::iri(format!("http://x/{s}"))
    }

    fn sample() -> (Graph, SimDfs, VpStore) {
        let mut g = Graph::new();
        for i in 0..50 {
            let s = iri(&format!("p{i}"));
            g.insert_terms(&s, &Term::iri(vocab::RDF_TYPE), &iri("T1"));
            g.insert_terms(&s, &iri("price"), &Term::decimal(i as f64));
            if i % 2 == 0 {
                g.insert_terms(&s, &iri("feature"), &iri(&format!("f{}", i % 5)));
            }
        }
        g.insert_terms(&iri("q"), &Term::iri(vocab::RDF_TYPE), &iri("T2"));
        let dfs = SimDfs::new();
        let store = VpStore::load(&g, &dfs, 16);
        (g, dfs, store)
    }

    #[test]
    fn creates_type_partitions_and_prop_tables() {
        let (g, _dfs, store) = sample();
        let t1 = g.dict.lookup(&iri("T1")).unwrap();
        let t2 = g.dict.lookup(&iri("T2")).unwrap();
        let price = g.dict.lookup(&iri("price")).unwrap();
        assert_eq!(store.table(VpKey::TypePartition(t1)).unwrap().rows, 50);
        assert_eq!(store.table(VpKey::TypePartition(t2)).unwrap().rows, 1);
        assert_eq!(store.table(VpKey::Prop(price)).unwrap().rows, 50);
        // No combined rdf:type table exists.
        let ty = g.dict.lookup(&Term::iri(vocab::RDF_TYPE)).unwrap();
        assert!(store.table(VpKey::Prop(ty)).is_none());
    }

    #[test]
    fn read_table_roundtrips_rows() {
        let (g, dfs, store) = sample();
        let price = g.dict.lookup(&iri("price")).unwrap();
        let rows = store.read_table(&dfs, VpKey::Prop(price));
        assert_eq!(rows.len(), 50);
        assert!(rows.windows(2).all(|w| w[0] <= w[1]), "sorted");
    }

    #[test]
    fn compression_beats_raw() {
        let (_g, _dfs, store) = sample();
        assert!(store.compression_ratio() < 0.5, "expected real compression");
    }

    #[test]
    fn segments_become_splits() {
        let (g, dfs, store) = sample();
        let price = g.dict.lookup(&iri("price")).unwrap();
        let meta = store.table(VpKey::Prop(price)).unwrap();
        let ds = dfs.peek(&meta.dataset).unwrap();
        // 50 rows / 16 per segment = 4 segments = 4 splits.
        assert_eq!(ds.blocks.len(), 4);
    }

    #[test]
    fn missing_table_reads_empty() {
        let (g, dfs, store) = sample();
        let nosuch = TermId(g.dict.len() as u64);
        assert!(store.read_table(&dfs, VpKey::Prop(nosuch)).is_empty());
    }

    #[test]
    fn plain_load_materializes_no_extvp() {
        let (_g, _dfs, store) = sample();
        assert!(store.ext_tables().is_empty());
    }

    fn sample_ext(threshold: f64) -> (Graph, SimDfs, VpStore) {
        let mut g = Graph::new();
        for i in 0..50 {
            let s = iri(&format!("p{i}"));
            g.insert_terms(&s, &Term::iri(vocab::RDF_TYPE), &iri("T1"));
            g.insert_terms(&s, &iri("price"), &Term::decimal(i as f64));
            if i % 2 == 0 {
                g.insert_terms(&s, &iri("feature"), &iri(&format!("f{}", i % 5)));
            }
        }
        let dfs = SimDfs::new();
        let store = VpStore::load_ext(&g, &dfs, 16, Some(threshold));
        (g, dfs, store)
    }

    #[test]
    fn extvp_threshold_cuts_reductions() {
        // Half the price subjects have a feature, so SS[price|feature]
        // retains 25/50 = 0.5 of the base: kept at threshold 0.5, cut at
        // S2RDF's 0.25.
        let (g, _dfs, loose) = sample_ext(0.5);
        let price = VpKey::Prop(g.dict.lookup(&iri("price")).unwrap());
        let feature = VpKey::Prop(g.dict.lookup(&iri("feature")).unwrap());
        let red = loose.reduction(price, ExtVpKind::SS, feature).unwrap();
        assert_eq!(red.rows, 25);
        assert!((red.selectivity - 0.5).abs() < 1e-12);
        assert!(red.bytes > 0);

        let (g, _dfs, strict) = sample_ext(0.25);
        let price = VpKey::Prop(g.dict.lookup(&iri("price")).unwrap());
        let feature = VpKey::Prop(g.dict.lookup(&iri("feature")).unwrap());
        assert!(strict.reduction(price, ExtVpKind::SS, feature).is_none());
    }

    #[test]
    fn extvp_never_keeps_full_size_reductions() {
        // Every feature subject also has a price, so SS[feature|price] is
        // the whole base table — never materialized even at threshold 1.0.
        let (g, _dfs, store) = sample_ext(1.0);
        let price = VpKey::Prop(g.dict.lookup(&iri("price")).unwrap());
        let feature = VpKey::Prop(g.dict.lookup(&iri("feature")).unwrap());
        assert!(store.reduction(feature, ExtVpKind::SS, price).is_none());
        for e in store.ext_tables() {
            let base_rows = store.table(e.base).unwrap().rows;
            assert!(e.rows < base_rows, "{}: not a strict reduction", e.dataset);
        }
    }

    #[test]
    fn extvp_rows_match_semi_join_semantics() {
        let (g, dfs, store) = sample_ext(1.0);
        for e in store.ext_tables() {
            let base_rows = store.read_table(&dfs, e.base);
            let partner_rows = store.read_table(&dfs, e.partner);
            let keep_set: std::collections::BTreeSet<u64> = match e.kind {
                ExtVpKind::SS | ExtVpKind::OS => partner_rows.iter().map(|r| r.0).collect(),
                ExtVpKind::SO => partner_rows.iter().map(|r| r.1).collect(),
            };
            let expect: Vec<(u64, u64)> = base_rows
                .iter()
                .filter(|(s, o)| match e.kind {
                    ExtVpKind::SS | ExtVpKind::SO => keep_set.contains(s),
                    ExtVpKind::OS => keep_set.contains(o),
                })
                .copied()
                .collect();
            let ds = dfs.peek(&e.dataset).unwrap();
            assert_eq!(read_dataset_rows(&ds), expect, "{}", e.dataset);
            assert_eq!(e.rows, expect.len(), "{}", e.dataset);
        }
        drop(g);
    }

    #[test]
    fn extvp_skips_type_partition_void_pairs() {
        // A type partition's object column holds the type term, not a join
        // variable: no SO reduction may use one as partner, no OS reduction
        // may use one as base.
        let (_g, _dfs, store) = sample_ext(1.0);
        assert!(!store.ext_tables().is_empty(), "sample should keep some");
        for e in store.ext_tables() {
            if matches!(e.kind, ExtVpKind::SO) {
                assert!(!matches!(e.partner, VpKey::TypePartition(_)), "{}", e.dataset);
            }
            if matches!(e.kind, ExtVpKind::OS) {
                assert!(!matches!(e.base, VpKey::TypePartition(_)), "{}", e.dataset);
            }
        }
    }

    #[test]
    fn extvp_catalog_is_sorted_and_datasets_exist() {
        let (_g, dfs, store) = sample_ext(1.0);
        let keys: Vec<_> = store
            .ext_tables()
            .iter()
            .map(|e| (e.base, e.kind, e.partner))
            .collect();
        let mut sorted = keys.clone();
        sorted.sort_unstable();
        assert_eq!(keys, sorted);
        for e in store.ext_tables() {
            assert!(dfs.peek(&e.dataset).is_some(), "{} missing in DFS", e.dataset);
        }
    }
}
