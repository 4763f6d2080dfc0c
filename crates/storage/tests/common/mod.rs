//! The reference catalog builders: the triplegroup store, the VP/ExtVP
//! store and the statistics as they were built per subject and per key,
//! with hash maps and growing vectors. `load_model` holds the library's
//! builders to these — the same catalogs and the same stored bytes.

use rapida_mapred::{DatasetWriter, SimDfs};
use rapida_rdf::{vocab, FxHashMap, Graph, Term, TermId};
use rapida_storage::{encode_segment, encode_tg, EcMeta, ExtVpKind, ExtVpMeta, PredStat, VpKey, VpTableMeta};
use std::collections::hash_map::Entry;
use std::collections::BTreeSet;

/// The triplegroup store's classes, sorted by dataset name, with one
/// dataset per class written into `dfs`: subjects grouped in a hash map,
/// each subject's pairs sorted, classes keyed by a `BTreeSet` per subject.
pub fn reference_tg_load(graph: &Graph, dfs: &SimDfs, split_bytes: usize) -> Vec<EcMeta> {
    let mut by_subject: FxHashMap<u64, Vec<(u64, u64)>> = FxHashMap::default();
    for t in &graph.triples {
        by_subject.entry(t.s.0).or_default().push((t.p.0, t.o.0));
    }
    type Members = Vec<(u64, Vec<(u64, u64)>)>;
    let mut by_ec: FxHashMap<BTreeSet<TermId>, Members> = FxHashMap::default();
    for (s, mut pairs) in by_subject {
        pairs.sort_unstable();
        let ec: BTreeSet<TermId> = pairs.iter().map(|(p, _)| TermId(*p)).collect();
        by_ec.entry(ec).or_default().push((s, pairs));
    }
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
        classes.push(EcMeta { props, dataset, groups: groups.len(), bytes });
    }
    classes.sort_unstable_by(|a, b| a.dataset.cmp(&b.dataset));
    classes
}

/// The VP store's base tables (sorted by key) and ExtVP reductions (sorted
/// by `(base, kind, partner)`), each written into `dfs`: rows grouped per
/// key in a hash map of growing vectors, candidates tested against one
/// subject and one object bitmap per table.
pub fn reference_vp_load(
    graph: &Graph,
    dfs: &SimDfs,
    segment_rows: usize,
    extvp_threshold: Option<f64>,
) -> (Vec<VpTableMeta>, Vec<ExtVpMeta>) {
    let dict = &graph.dict;
    let rdf_type = dict.lookup(&Term::iri(vocab::RDF_TYPE));
    let mut groups: FxHashMap<VpKey, Vec<(u64, u64)>> = FxHashMap::default();
    for t in &graph.triples {
        let key = if Some(t.p) == rdf_type { VpKey::TypePartition(t.o) } else { VpKey::Prop(t.p) };
        groups.entry(key).or_default().push((t.s.0, t.o.0));
    }
    let mut groups: Vec<(VpKey, Vec<(u64, u64)>)> = groups.into_iter().collect();
    groups.sort_unstable_by_key(|(k, _)| *k);

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

    let mut tables = Vec::new();
    for (key, rows) in &mut groups {
        rows.sort_unstable();
        let dataset = format!("{key}");
        let bytes = write_table(&dataset, rows);
        tables.push(VpTableMeta { key: *key, dataset, rows: rows.len(), bytes, raw_bytes: rows.len() * 16 });
    }

    let mut ext = Vec::new();
    if let Some(threshold) = extvp_threshold {
        let universe = dict.len();
        let bitmap = |ids: &mut dyn Iterator<Item = u64>| {
            let mut words = vec![0u64; universe.div_ceil(64)];
            for id in ids {
                words[(id / 64) as usize] |= 1 << (id % 64);
            }
            words
        };
        let contains = |words: &[u64], id: u64| words.get((id / 64) as usize).is_some_and(|w| w & (1 << (id % 64)) != 0);
        let sets: Vec<(VpKey, Vec<u64>, Option<Vec<u64>>)> = groups
            .iter()
            .map(|(key, rows)| {
                let subjects = bitmap(&mut rows.iter().map(|r| r.0));
                let objects = matches!(key, VpKey::Prop(_)).then(|| bitmap(&mut rows.iter().map(|r| r.1)));
                (*key, subjects, objects)
            })
            .collect();
        for (base, rows) in &groups {
            for (partner, p_subjects, p_objects) in &sets {
                if partner == base {
                    continue;
                }
                for kind in [ExtVpKind::SS, ExtVpKind::SO, ExtVpKind::OS] {
                    let (set, test_object) = match kind {
                        ExtVpKind::SS => (p_subjects, false),
                        ExtVpKind::SO => match p_objects {
                            Some(objects) => (objects, false),
                            None => continue,
                        },
                        ExtVpKind::OS if matches!(base, VpKey::TypePartition(_)) => continue,
                        ExtVpKind::OS => (p_subjects, true),
                    };
                    let keep = |&(s, o): &(u64, u64)| contains(set, if test_object { o } else { s });
                    let kept = rows.iter().filter(|r| keep(r)).count();
                    let selectivity = kept as f64 / rows.len().max(1) as f64;
                    if kept >= rows.len() || selectivity > threshold {
                        continue;
                    }
                    let reduced: Vec<(u64, u64)> = rows.iter().filter(|r| keep(r)).copied().collect();
                    let dataset = format!("extvp_{kind}__{base}__{partner}");
                    let bytes = write_table(&dataset, &reduced);
                    ext.push(ExtVpMeta { kind, base: *base, partner: *partner, dataset, rows: kept, bytes, selectivity });
                }
            }
        }
        ext.sort_unstable_by_key(|e| (e.base, e.kind, e.partner));
    }
    (tables, ext)
}

/// The statistics `StatsCatalog::compute` reports.
#[derive(Debug, PartialEq, Eq)]
pub struct ReferenceStats {
    pub triples: u64,
    pub subjects: u64,
    /// Sorted by property id.
    pub preds: Vec<PredStat>,
    /// `rdf:type` instance counts, sorted by object id.
    pub types: Vec<(TermId, u64)>,
}

/// One pass over the graph with a hash set per property column.
pub fn reference_stats(graph: &Graph) -> ReferenceStats {
    let rdf_type = graph.dict.lookup(&Term::iri(vocab::RDF_TYPE));
    struct Acc {
        count: u64,
        subjects: FxHashMap<u64, ()>,
        objects: FxHashMap<u64, ()>,
    }
    let mut by_prop: FxHashMap<TermId, Acc> = FxHashMap::default();
    let mut all_subjects: FxHashMap<u64, ()> = FxHashMap::default();
    let mut type_counts: FxHashMap<TermId, u64> = FxHashMap::default();
    for t in &graph.triples {
        all_subjects.insert(t.s.0, ());
        if Some(t.p) == rdf_type {
            *type_counts.entry(t.o).or_insert(0) += 1;
        }
        let acc = match by_prop.entry(t.p) {
            Entry::Occupied(e) => e.into_mut(),
            Entry::Vacant(e) => {
                e.insert(Acc { count: 0, subjects: FxHashMap::default(), objects: FxHashMap::default() })
            }
        };
        acc.count += 1;
        acc.subjects.insert(t.s.0, ());
        acc.objects.insert(t.o.0, ());
    }
    let mut preds: Vec<PredStat> = by_prop
        .into_iter()
        .map(|(prop, acc)| PredStat {
            prop,
            count: acc.count,
            ndv_subjects: acc.subjects.len() as u64,
            ndv_objects: acc.objects.len() as u64,
        })
        .collect();
    preds.sort_unstable_by_key(|p| p.prop);
    let mut types: Vec<(TermId, u64)> = type_counts.into_iter().collect();
    types.sort_unstable_by_key(|(o, _)| *o);
    ReferenceStats { triples: graph.triples.len() as u64, subjects: all_subjects.len() as u64, preds, types }
}
