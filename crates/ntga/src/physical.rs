//! Physical MR operators: the map/reduce function pairs of §4.2
//! (Algorithms 1–3), implemented against the `rapida-mapred` task traits.
//!
//! * [`TgJoinMapper`] + [`AlphaJoinReducer`] — `TG_OptGrpFilter` pipelined
//!   into the map phase of `TG_AlphaJoin` (Algorithm 2, and `Job_i` of
//!   Algorithm 1).
//! * [`AggJoinMapper`] + [`AggJoinReducer`] — `TG_AgJ` with map-side hash
//!   aggregation (`multiAggMap`, Algorithm 3; `Job_k` of Algorithm 1).
//!
//! Both mappers read a raw triplegroup one way: one walk of
//! [`opt_group_filter_into`] per route its class covers, behind the route's
//! [`ValueFilter`] (pushed-down FILTER predicates and the ExtVP subject
//! gate, plain data the planner compiles). Nothing is decoded into owned
//! values.

use crate::hashagg::AggTable;
use crate::ops::{opt_group_filter_into, SlotProgram};
use crate::spec::{
    any_alpha_partial_merged, read_group_key, write_group_key, AggJoinSpec, AggRec, AlphaCond,
    JoinKey, PartialAgg, StarSpec, ValueFilter,
};
use crate::triplegroup::{StarDir, Stars, TgRef};
use rapida_mapred::codec::{read_varint, write_varint};
use rapida_mapred::{InputSrc, MapOutput, MapTask, ReduceOutput, ReduceTask};
use rapida_rdf::Dictionary;
use std::sync::Arc;

/// Join side tag; the discriminant is the byte that leads every shuffled
/// tg-join value.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Side {
    /// Left equivalence class.
    Left = 0,
    /// Right equivalence class.
    Right = 1,
}

impl Side {
    /// The tag byte.
    pub fn byte(self) -> u8 {
        self as u8
    }

    /// Inverse of [`Self::byte`]; any other byte is a damaged value.
    pub fn from_byte(byte: u8) -> Option<Side> {
        match byte {
            0 => Some(Side::Left),
            1 => Some(Side::Right),
            _ => None,
        }
    }
}

/// A route from a star-pattern spec to a join side: every raw triplegroup
/// passing the spec's optional group filter behind `filter` is emitted on
/// `side` keyed by `key`. Multiple routes over the same scan realize NTGA's
/// shared execution of star patterns.
#[derive(Debug, Clone)]
pub struct StarRoute {
    /// The composite star spec (`TG_OptGrpFilter` parameters).
    pub spec: StarSpec,
    /// Which side of the join this star feeds.
    pub side: Side,
    /// The join key extractor.
    pub key: JoinKey,
    /// The star's pushed-down FILTER predicates and ExtVP subject gate
    /// (may differ between stars).
    pub filter: ValueFilter,
}

/// A route for intermediate annotated-triplegroup inputs (later join cycles
/// of 3+-star patterns); it walks every [`InputRoutes::Ann`] input.
#[derive(Debug, Clone)]
pub struct AnnRoute {
    /// Join side.
    pub side: Side,
    /// Join key extractor.
    pub key: JoinKey,
}

/// One entry of a scan's route table: what one job input holds and which
/// routes walk its records. A tg-join ([`TgJoinMapConfig::inputs`]) and an
/// Agg-Join ([`AggJoinConfig::inputs`]) read the same table.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum InputRoutes {
    /// Raw subject triplegroups of one equivalence class: the indexes,
    /// ascending, of the raw routes ([`TgJoinMapConfig::star_routes`],
    /// [`AggJoinConfig::raw_filters`]) whose primary properties the class
    /// has. A record of a class lacking one of a route's primary properties
    /// can never pass that route, so routes the entry does not list are
    /// never walked over the input.
    Raw(Vec<usize>),
    /// Annotated intermediate triplegroups, walked by every
    /// [`TgJoinMapConfig::ann_routes`] entry (aggregated as they are by an
    /// Agg-Join).
    Ann,
}

/// Configuration for [`TgJoinMapper`].
#[derive(Debug, Clone, Default)]
pub struct TgJoinMapConfig {
    /// The route table, one entry per job input, indexed by
    /// [`InputSrc::dataset`]. A record of an input without an entry is a
    /// broken config: it is quarantined, not read.
    pub inputs: Vec<InputRoutes>,
    /// Star routes for raw inputs (shared scan).
    pub star_routes: Vec<StarRoute>,
    /// Routes for annotated intermediate inputs.
    pub ann_routes: Vec<AnnRoute>,
}

/// Map phase of `Job_i`: `TG_OptGrpFilter` + tagging for `TG_AlphaJoin`.
///
/// Looks up the record's input in the route table once, then walks each raw
/// record once per route its class covers (the fused
/// [`opt_group_filter_into`]) and each annotated record once (its
/// [`StarDir`]), encoding every emit directly into per-task scratch
/// (cleared, never reallocated).
pub struct TgJoinMapper {
    config: Arc<TgJoinMapConfig>,
    key_buf: Vec<u8>,
    val_buf: Vec<u8>,
    /// `ObjectOf` key objects the filter walk collected.
    keys: Vec<u64>,
    dir: StarDir,
}

impl TgJoinMapper {
    /// Create from shared config.
    pub fn new(config: Arc<TgJoinMapConfig>) -> Self {
        TgJoinMapper {
            config,
            key_buf: Vec::new(),
            val_buf: Vec::new(),
            keys: Vec::new(),
            dir: StarDir::default(),
        }
    }
}

impl MapTask for TgJoinMapper {
    fn map(&mut self, src: InputSrc, record: &[u8], out: &mut MapOutput) {
        let TgJoinMapper {
            config,
            key_buf,
            val_buf,
            keys,
            dir,
        } = self;
        match config.inputs.get(src.dataset) {
            Some(InputRoutes::Raw(routes)) => {
                let Some(tg) = TgRef::parse_framed(record) else {
                    out.skip_corrupt();
                    return;
                };
                for route in routes.iter().map(|&r| &config.star_routes[r]) {
                    // Value layout: side byte + AnnTg::single(star, filtered)
                    // = 1, star, tg.
                    val_buf.clear();
                    val_buf.push(route.side.byte());
                    write_varint(val_buf, 1);
                    write_varint(val_buf, u64::from(route.spec.star));
                    // One walk filters, encodes and collects the keys: the
                    // filtered group's `prop` objects are exactly the kept
                    // `(prop, o)` pairs.
                    let keyed_here = |star: u8| star == route.spec.star;
                    let key_prop = match route.key {
                        JoinKey::ObjectOf { star, prop } if keyed_here(star) => Some(prop),
                        _ => None,
                    };
                    match opt_group_filter_into(&tg, &route.spec, &route.filter, key_prop, val_buf, keys) {
                        Some(true) => {}
                        Some(false) => continue,
                        None => {
                            out.skip_corrupt();
                            return;
                        }
                    }
                    match route.key {
                        JoinKey::Subject { star } if keyed_here(star) => {
                            key_buf.clear();
                            write_varint(key_buf, tg.subject());
                            out.emit(key_buf, val_buf);
                        }
                        JoinKey::ObjectOf { star, .. } if keyed_here(star) => {
                            for &o in keys.iter() {
                                key_buf.clear();
                                write_varint(key_buf, o);
                                out.emit(key_buf, val_buf);
                            }
                        }
                        // Key references a star this route doesn't produce:
                        // nothing to emit (extract() semantics).
                        _ => {}
                    }
                }
            }
            Some(InputRoutes::Ann) => {
                let Some(ann) = dir.fill(record) else {
                    out.skip_corrupt();
                    return;
                };
                for route in &config.ann_routes {
                    val_buf.clear();
                    val_buf.push(route.side.byte());
                    val_buf.extend_from_slice(record);
                    route.key.extract_ref(&ann, |k| {
                        key_buf.clear();
                        write_varint(key_buf, k);
                        out.emit(key_buf, val_buf);
                    });
                }
            }
            None => out.skip_corrupt(),
        }
    }
}

/// Reduce phase of `Job_i`: `TG_AlphaJoin` (Algorithm 2) — joins the left
/// and right equivalence classes of each key, materializing only
/// combinations accepted by at least one α-condition.
///
/// Walks each value once into a [`StarDir`], evaluates α over the *logical*
/// merge of two directories, and writes accepted products by interleaving
/// raw component spans into one reused scratch buffer.
pub struct AlphaJoinReducer {
    conds: Arc<Vec<AlphaCond>>,
    out_buf: Vec<u8>,
    left_idx: Vec<u32>,
    right_idx: Vec<u32>,
    left_dir: StarDir,
    /// Every right value's entries, spans in `right_spans`.
    right_dir: StarDir,
    right_spans: Vec<(u32, (usize, usize))>,
}

impl AlphaJoinReducer {
    /// This reducer is *key-local* (see
    /// `rapida_mapred::ReduceTaskFactory::key_local`): each key group's join
    /// product depends only on that group's values — the index lists,
    /// directories and emit buffer are per-call scratch, cleared on entry — and `cleanup`
    /// emits nothing. Factories may wrap it in `rapida_mapred::KeyLocal` to
    /// let the engine shard its partitions across workers.
    pub const KEY_LOCAL: bool = true;

    /// Create from the shared α-condition list (empty = accept all).
    pub fn new(conds: Arc<Vec<AlphaCond>>) -> Self {
        AlphaJoinReducer {
            conds,
            out_buf: Vec::new(),
            left_idx: Vec::new(),
            right_idx: Vec::new(),
            left_dir: StarDir::default(),
            right_dir: StarDir::default(),
            right_spans: Vec::new(),
        }
    }
}

impl ReduceTask for AlphaJoinReducer {
    fn reduce(&mut self, _key: &[u8], values: &[&[u8]], out: &mut ReduceOutput) {
        // Split by side byte first, deferring every walk until a key is
        // known to have both sides: one-sided keys — the common case under
        // selective star filters — cost two index pushes and nothing else.
        // Then each value is walked once: the right values into one shared
        // directory up front, each left value as its turn comes.
        let AlphaJoinReducer {
            conds,
            out_buf,
            left_idx,
            right_idx,
            left_dir,
            right_dir,
            right_spans,
        } = self;
        left_idx.clear();
        right_idx.clear();
        for (i, v) in values.iter().enumerate() {
            // A missing or unknown side byte leaves nothing to route by.
            match v.first().copied().and_then(Side::from_byte) {
                Some(Side::Left) => left_idx.push(i as u32),
                Some(Side::Right) => right_idx.push(i as u32),
                None => out.skip_corrupt(),
            }
        }
        if left_idx.is_empty() || right_idx.is_empty() {
            return;
        }
        right_dir.clear();
        right_spans.clear();
        for &ri in right_idx.iter() {
            match right_dir.push(&values[ri as usize][1..]) {
                Some(span) => right_spans.push((ri, span)),
                None => out.skip_corrupt(),
            }
        }
        for &li in left_idx.iter() {
            let Some(l) = left_dir.fill(&values[li as usize][1..]) else {
                out.skip_corrupt();
                continue;
            };
            for &(ri, span) in right_spans.iter() {
                let r = right_dir.stars(span, &values[ri as usize][1..]);
                if any_alpha_partial_merged(conds, &l, &r) {
                    out_buf.clear();
                    l.merge_into(&r, out_buf);
                    out.write(out_buf);
                }
            }
        }
    }
}

/// Configuration for the Agg-Join map phase.
#[derive(Debug, Clone, Default)]
pub struct AggJoinConfig {
    /// All Agg-Join specs evaluated in this cycle (parallel evaluation of
    /// independent aggregations, §4.1 / Fig. 6(b)).
    pub specs: Vec<AggJoinSpec>,
    /// The catalog's dictionary, read for aggregated values.
    pub dict: Arc<Dictionary>,
    /// The route table, one entry per job input, indexed by
    /// [`InputSrc::dataset`]: an [`InputRoutes::Ann`] input is aggregated
    /// as it is, an [`InputRoutes::Raw`] input through the
    /// [`Self::raw_filters`] its entry lists. A record of an input without
    /// an entry is a broken config: it is quarantined, not read.
    pub inputs: Vec<InputRoutes>,
    /// The raw routes: each a single-star filter behind its
    /// [`ValueFilter`], whose `spec.star` tags the produced annotated
    /// triplegroup. Several entries realize a *shared scan* across
    /// structurally different single-star patterns (§2.2) — one cycle
    /// aggregates them all.
    pub raw_filters: Vec<(StarSpec, ValueFilter)>,
    /// Map-side hash aggregation (`multiAggMap`). Disabling it emits one
    /// record per assignment — the ablation knob for Algorithm 3.
    pub map_side_combine: bool,
}

/// Map phase of `Job_k` (Algorithm 3): per-mapper hash aggregation keyed by
/// `id#grp`, flushed in `cleanup`.
///
/// Walks each record once into a [`StarDir`], runs the
/// [`SlotProgram`] compiled from `config.specs` over it — one pass per
/// referenced star feeds every spec — and combines into the flat
/// open-addressing [`AggTable`] keyed by `(spec id, group key)` term ids —
/// no per-group key or state boxing. `cleanup` flushes in sorted key order,
/// which keeps map-output bytes (and therefore the whole downstream
/// byte-identity chain) independent of hash iteration order.
pub struct AggJoinMapper {
    config: Arc<AggJoinConfig>,
    table: AggTable,
    prog: SlotProgram,
    dir: StarDir,
    key_buf: Vec<u8>,
    val_buf: Vec<u8>,
    /// The filtered group of the raw-input path.
    tg_buf: Vec<u8>,
}

/// The record processor, as a free function over the mapper's destructured
/// fields so the fold closure can mutate the table while the spec list
/// stays borrowed from the config. Folds in the order of the logical
/// operator (α-gated assignment enumeration, spec by spec) — specs, then
/// assignments, then aggregates — which the `f64` sums and the uncombined
/// emit order depend on.
fn process_view(
    config: &AggJoinConfig,
    prog: &mut SlotProgram,
    rec: &Stars<'_, '_>,
    table: &mut AggTable,
    key_buf: &mut Vec<u8>,
    val_buf: &mut Vec<u8>,
    out: &mut MapOutput,
) {
    prog.run(rec, |si, key, assignment| {
        let spec = &config.specs[si];
        if config.map_side_combine {
            let partials = table.slots_mut(u64::from(spec.id), key, spec.aggs.len());
            for (p, agg) in partials.iter_mut().zip(&spec.aggs) {
                p.add(agg.value(assignment, &config.dict));
            }
            return;
        }
        key_buf.clear();
        write_varint(key_buf, u64::from(spec.id));
        write_group_key(key_buf, key);
        for (idx, agg) in spec.aggs.iter().enumerate() {
            val_buf.clear();
            for i in 0..spec.aggs.len() {
                let mut p = PartialAgg::default();
                if i == idx {
                    p.add(agg.value(assignment, &config.dict));
                }
                p.encode(val_buf);
            }
            out.emit(key_buf, val_buf);
        }
    });
}

impl AggJoinMapper {
    /// Create from shared config.
    pub fn new(config: Arc<AggJoinConfig>) -> Self {
        AggJoinMapper {
            prog: SlotProgram::compile(&config.specs),
            config,
            table: AggTable::default(),
            dir: StarDir::default(),
            key_buf: Vec::new(),
            val_buf: Vec::new(),
            tg_buf: Vec::new(),
        }
    }
}

impl MapTask for AggJoinMapper {
    fn map(&mut self, src: InputSrc, record: &[u8], out: &mut MapOutput) {
        let AggJoinMapper {
            config,
            table,
            prog,
            dir,
            key_buf,
            val_buf,
            tg_buf,
        } = self;
        let filters = match config.inputs.get(src.dataset) {
            Some(InputRoutes::Raw(filters)) => filters,
            Some(InputRoutes::Ann) => {
                let Some(ann) = dir.fill(record) else {
                    out.skip_corrupt();
                    return;
                };
                process_view(config, prog, &ann, table, key_buf, val_buf, out);
                return;
            }
            None => {
                out.skip_corrupt();
                return;
            }
        };
        let Some(tg) = TgRef::parse_framed(record) else {
            out.skip_corrupt();
            return;
        };
        for (spec, filter) in filters.iter().map(|&f| &config.raw_filters[f]) {
            tg_buf.clear();
            match opt_group_filter_into(&tg, spec, filter, None, tg_buf, &mut Vec::new()) {
                Some(true) => {}
                Some(false) => continue,
                None => {
                    out.skip_corrupt();
                    return;
                }
            }
            // The single-star annotated group, indexed straight off the
            // group just encoded (its header only; nothing is re-walked).
            let Some(filtered) = TgRef::parse_framed(tg_buf) else {
                continue;
            };
            let ann = dir.single(spec.star, &filtered);
            process_view(config, prog, &ann, table, key_buf, val_buf, out);
        }
    }

    fn cleanup(&mut self, out: &mut MapOutput) {
        // Algorithm 3, Map.clean: emit the pre-aggregated entries.
        let AggJoinMapper {
            table,
            key_buf,
            val_buf,
            ..
        } = self;
        table.drain_sorted(|full_key, partials| {
            // full_key[0] is the table tag = the spec id; re-encode the
            // `id, nk, keys…` shuffle key the reducer parses.
            // Invariant: `AggTable::slots_mut`, the table's one insert, stores
            // the tag ahead of every key, so no drained key is empty.
            #[allow(clippy::expect_used)]
            let (tag, key) = full_key
                .split_first()
                .expect("AggTable keys always carry the tag");
            key_buf.clear();
            write_varint(key_buf, *tag);
            write_group_key(key_buf, key);
            val_buf.clear();
            for p in partials {
                p.encode(val_buf);
            }
            out.emit(key_buf, val_buf);
        });
    }
}

/// Reduce phase of `Job_k`: merges pre-aggregated triplegroups of each
/// `id#grp` key and emits one [`crate::spec::AggRec`] per group, encoded
/// directly into a reused scratch buffer.
pub struct AggJoinReducer {
    config: Arc<AggJoinConfig>,
    group_key: Vec<u64>,
    merged: Vec<PartialAgg>,
    /// One value's decoded partials, merged only once all of them decode.
    scratch: Vec<PartialAgg>,
    buf: Vec<u8>,
}

impl AggJoinReducer {
    /// This reducer is *key-local* (see
    /// `rapida_mapred::ReduceTaskFactory::key_local`): the partial-aggregate
    /// merge and finalize for one `id#grp` key read nothing but that key
    /// group — `group_key` / `merged` / `scratch` / `buf` are per-call scratch — and
    /// `cleanup` emits nothing. Factories may wrap it in
    /// `rapida_mapred::KeyLocal` to let the engine shard its partitions.
    pub const KEY_LOCAL: bool = true;

    /// Create from shared config (for spec/op lookup by id).
    pub fn new(config: Arc<AggJoinConfig>) -> Self {
        AggJoinReducer {
            config,
            group_key: Vec::new(),
            merged: Vec::new(),
            scratch: Vec::new(),
            buf: Vec::new(),
        }
    }
}

impl ReduceTask for AggJoinReducer {
    fn reduce(&mut self, key: &[u8], values: &[&[u8]], out: &mut ReduceOutput) {
        let AggJoinReducer {
            config,
            group_key,
            merged,
            scratch,
            buf,
        } = self;
        // A key that stops short, or names a spec nobody configured, is damage.
        let mut kb = key;
        let spec = read_varint(&mut kb).and_then(|id| {
            read_group_key(&mut kb, group_key)?;
            config.specs.iter().find(|s| u64::from(s.id) == id)
        });
        let Some(spec) = spec else {
            out.skip_corrupt();
            return;
        };
        merged.clear();
        merged.resize(spec.aggs.len(), PartialAgg::default());
        for v in values {
            if !PartialAgg::merge_encoded(merged, scratch, v) {
                out.skip_corrupt();
            }
        }
        buf.clear();
        let finals = merged.iter().zip(&spec.aggs).map(|(p, a)| p.finalize(a.op));
        AggRec::encode_parts(spec.id, group_key, finals, buf);
        out.write(buf);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{AggOp, AggSpec, AlphaTerm, PropReq, VarRef};
    use crate::triplegroup::{AnnTg, TripleGroup};
    use rapida_mapred::{
        DatasetWriter, Engine, FnMapFactory, FnReduceFactory, JobBuilder, KeyLocal, SimDfs,
    };

    const TY: u64 = 1;
    const PT18: u64 = 90;
    const PF: u64 = 2;
    const PR: u64 = 3;
    const PC: u64 = 4;

    /// A dictionary whose ids below the largest of `numeric` are the
    /// literals `"t{i}"`, except each id in `numeric`, which holds the
    /// integer equal to itself.
    fn dict_of(numeric: &[u64]) -> Arc<Dictionary> {
        let mut dict = Dictionary::new();
        for i in 0..=numeric.iter().copied().max().unwrap_or(0) {
            let term = if numeric.contains(&i) {
                rapida_rdf::Term::integer(i as i64)
            } else {
                rapida_rdf::Term::literal(format!("t{i}"))
            };
            assert_eq!(dict.intern(&term).0, i, "one term per id");
        }
        Arc::new(dict)
    }

    fn tg_record(s: u64, pairs: &[(u64, u64)]) -> Vec<u8> {
        let mut buf = Vec::new();
        TripleGroup::new(s, pairs.to_vec()).encode(&mut buf);
        buf
    }

    /// End-to-end MR run of filter + α-join for an AQ1-like 2-star composite:
    /// products (ty PT18, optional pf) ⋈ offers (pr, pc).
    fn run_composite_join(dfs: &SimDfs, conds: Vec<AlphaCond>) -> Vec<AnnTg> {
        // Products: 10 has pf, 11 lacks pf, 12 is wrong type.
        let mut w = DatasetWriter::new(64);
        w.push(&tg_record(10, &[(TY, PT18), (PF, 71)]));
        w.push(&tg_record(11, &[(TY, PT18)]));
        w.push(&tg_record(12, &[(TY, 91), (PF, 71)]));
        dfs.put("tg_products", w.finish());
        // Offers: o20 -> p10, o21 -> p11, o22 -> p12.
        let mut w = DatasetWriter::new(64);
        w.push(&tg_record(20, &[(PR, 10), (PC, 30)]));
        w.push(&tg_record(21, &[(PR, 11), (PC, 40)]));
        w.push(&tg_record(22, &[(PR, 12), (PC, 50)]));
        dfs.put("tg_offers", w.finish());

        let config = Arc::new(TgJoinMapConfig {
            inputs: vec![InputRoutes::Raw(vec![0, 1]); 2],
            star_routes: vec![
                StarRoute {
                    spec: StarSpec {
                        star: 0,
                        primary: vec![PropReq::with_object(TY, PT18)],
                        secondary: vec![PropReq::any(PF)],
                    },
                    side: Side::Left,
                    key: JoinKey::Subject { star: 0 },
                    filter: ValueFilter::default(),
                },
                StarRoute {
                    spec: StarSpec {
                        star: 1,
                        primary: vec![PropReq::any(PR), PropReq::any(PC)],
                        secondary: vec![],
                    },
                    side: Side::Right,
                    key: JoinKey::ObjectOf { star: 1, prop: PR },
                    filter: ValueFilter::default(),
                },
            ],
            ann_routes: vec![],
        });
        let conds = Arc::new(conds);
        let job = JobBuilder::new("mr1")
            .input("tg_products")
            .input("tg_offers")
            .mapper(Arc::new(FnMapFactory(move || TgJoinMapper::new(config.clone()))))
            .reducer(Arc::new(KeyLocal(FnReduceFactory(move || {
                AlphaJoinReducer::new(conds.clone())
            }))))
            .output("joined")
            .num_reducers(2)
            .build();
        Engine::pinned(dfs.clone()).run_job(&job);
        dfs.peek("joined")
            .unwrap()
            .iter_records()
            .map(|r| AnnTg::decode(r).unwrap())
            .collect()
    }

    #[test]
    fn composite_join_produces_valid_pairs() {
        let dfs = SimDfs::new();
        let mut joined = run_composite_join(&dfs, vec![]);
        joined.sort_by_key(|a| a.star(1).map(|g| g.subject));
        // p12 is the wrong type — only offers 20 and 21 join.
        assert_eq!(joined.len(), 2);
        assert_eq!(joined[0].star(0).unwrap().subject, 10);
        assert!(joined[0].star(0).unwrap().has_prop(PF));
        assert_eq!(joined[1].star(0).unwrap().subject, 11);
        assert!(!joined[1].star(0).unwrap().has_prop(PF));
    }

    #[test]
    fn alpha_conditions_prune_at_join_time() {
        // Same data, but α requires pf present — p11's combination dies.
        let pf_present = AlphaTerm { star: 0, prop: PF, required: true };
        let conds = vec![AlphaCond { terms: vec![pf_present] }];
        let joined = run_composite_join(&SimDfs::new(), conds);
        assert_eq!(joined.len(), 1);
        assert_eq!(joined[0].star(0).unwrap().subject, 10);
    }

    /// One Agg-Join cycle over `input`: its shuffle record count and decoded output.
    fn run_agg_join(dfs: &SimDfs, input: &str, cfg: AggJoinConfig, out: &str) -> (u64, Vec<AggRec>) {
        let (m, r) = (Arc::new(cfg.clone()), Arc::new(cfg));
        let job = JobBuilder::new("agj")
            .input(input)
            .mapper(Arc::new(FnMapFactory(move || AggJoinMapper::new(m.clone()))))
            .reducer(Arc::new(KeyLocal(FnReduceFactory(move || AggJoinReducer::new(r.clone())))))
            .output(out)
            .build();
        let metrics = Engine::pinned(dfs.clone()).run_job(&job);
        let written = dfs.peek(out).unwrap();
        let recs = written.iter_records().map(|r| AggRec::decode(r).unwrap()).collect();
        (metrics.shuffle_records, recs)
    }

    /// MR Agg-Join over the joined composite: SUM(price) per feature in
    /// parallel with COUNT(price) over ALL.
    #[test]
    fn agg_join_mr_parallel_specs() {
        let dfs = SimDfs::new();
        let joined = run_composite_join(&dfs, vec![]);
        assert_eq!(joined.len(), 2);

        let config = AggJoinConfig {
            specs: vec![
                AggJoinSpec {
                    id: 0,
                    slots: vec![
                        VarRef::ObjectOf { star: 0, prop: PF },
                        VarRef::ObjectOf { star: 1, prop: PC },
                    ],
                    group_slots: vec![0],
                    aggs: vec![AggSpec {
                        op: AggOp::Sum,
                        arg: Some(1),
                    }],
                    alpha: AlphaCond {
                        terms: vec![AlphaTerm {
                            star: 0,
                            prop: PF,
                            required: true,
                        }],
                    },
                },
                AggJoinSpec {
                    id: 1,
                    slots: vec![VarRef::ObjectOf { star: 1, prop: PC }],
                    group_slots: vec![],
                    aggs: vec![AggSpec {
                        op: AggOp::Count,
                        arg: Some(0),
                    }],
                    alpha: AlphaCond::default(),
                },
            ],
            dict: dict_of(&[30, 40]),
            inputs: vec![InputRoutes::Ann],
            raw_filters: vec![],
            map_side_combine: true,
        };
        let (_, mut recs) = run_agg_join(&dfs, "joined", config, "aggs");
        recs.sort_by_key(|r| (r.id, r.key.clone()));
        assert_eq!(recs.len(), 2);
        // Spec 0: feature 71 -> sum 30 (only p10 has pf).
        assert_eq!(recs[0].id, 0);
        assert_eq!(recs[0].key, vec![71]);
        assert_eq!(recs[0].values, vec![Some(30.0)]);
        // Spec 1: ALL -> count 2.
        assert_eq!(recs[1].id, 1);
        assert!(recs[1].key.is_empty());
        assert_eq!(recs[1].values, vec![Some(2.0)]);
    }

    /// The map-side combine ablation: results identical, shuffle smaller.
    #[test]
    fn map_side_combine_shrinks_shuffle() {
        let dfs = SimDfs::new();
        // Many triplegroups, one group key -> heavy combining opportunity.
        let mut w = DatasetWriter::new(128);
        for i in 0..200 {
            w.push(&tg_record(i, &[(PC, 30)]));
        }
        dfs.put("tgs", w.finish());
        let dict = dict_of(&[30]);

        let run = |combine: bool, out: &str| {
            let config = AggJoinConfig {
                specs: vec![AggJoinSpec {
                    id: 0,
                    slots: vec![VarRef::ObjectOf { star: 0, prop: PC }],
                    group_slots: vec![],
                    aggs: vec![AggSpec {
                        op: AggOp::Sum,
                        arg: Some(0),
                    }],
                    alpha: AlphaCond::default(),
                }],
                dict: dict.clone(),
                inputs: vec![InputRoutes::Raw(vec![0])],
                raw_filters: vec![(
                    StarSpec {
                        star: 0,
                        primary: vec![PropReq::any(PC)],
                        secondary: vec![],
                    },
                    ValueFilter::default(),
                )],
                map_side_combine: combine,
            };
            run_agg_join(&dfs, "tgs", config, out)
        };
        let (with, recs_with) = run(true, "out_with");
        let (without, recs_without) = run(false, "out_without");
        assert_eq!(recs_with, recs_without);
        assert_eq!(recs_with[0].values, vec![Some(6000.0)]);
        assert!(with < without, "hash aggregation must shrink the shuffle ({with} vs {without})");
    }
}
