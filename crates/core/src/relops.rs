//! Relational physical MR operators for the Hive-style engines: VP scans,
//! reduce-side multi-way (outer) joins, map-side broadcast joins, group-by
//! aggregation with map-side partial aggregation, and distinct projection.

use crate::rows::{decode_row_append, decode_row_into, encode_cell, encode_row, RVal};
use rapida_mapred::codec::{read_varint, write_varint};
use rapida_mapred::{
    Dataset, InputSrc, MapOutput, MapTask, MapTaskFactory, ReduceOutput, ReduceTask, SimDfs,
};
pub use rapida_ntga::IdPred;
use rapida_ntga::{read_group_key, write_group_key, AggOp, AggRec, AggTable, PartialAgg};
use rapida_rdf::{Dictionary, FxHashMap, FxHashSet, TermId};
use rapida_sparql::ast::CmpOp;
use rapida_storage::decode_segment;
use std::sync::Arc;

/// A predicate bound to a row column. `Null` cells fail every predicate.
#[derive(Debug, Clone, PartialEq)]
pub struct PredOnCol {
    /// Column index.
    pub col: usize,
    /// The predicate.
    pub pred: IdPred,
}

impl PredOnCol {
    fn eval(&self, row: &[RVal], dict: &Dictionary) -> bool {
        match row[self.col] {
            RVal::Id(id) => self.pred.eval(id, dict),
            RVal::Num(_) | RVal::Null => false,
        }
    }
}

/// How a job input's records become rows.
#[derive(Debug, Clone, PartialEq)]
pub enum ScanKind {
    /// VP segment records → rows `[s, o]`.
    VpFull,
    /// VP segment records → rows `[s]` (type partitions).
    VpSubjectOnly,
    /// VP segment records filtered to `o == id` → rows `[s]`.
    VpConstObject(u64),
    /// Records are already encoded rows of the given width.
    Rows(usize),
    /// [`AggRec`]s of one grouping block → rows of its `keys` grouping keys
    /// (ids) then its `aggs` aggregate values (numbers, `Null` when
    /// unbound). Several blocks may share one dataset, so records stamped
    /// with another block's id yield no row.
    AggRecs {
        /// The block id a record must carry.
        block: u8,
        /// Grouping keys per record.
        keys: usize,
        /// Aggregate values per record.
        aggs: usize,
    },
}

impl ScanKind {
    /// Output row width.
    pub fn width(&self) -> usize {
        match self {
            ScanKind::VpFull => 2,
            ScanKind::VpSubjectOnly | ScanKind::VpConstObject(_) => 1,
            ScanKind::Rows(w) => *w,
            ScanKind::AggRecs { keys, aggs, .. } => keys + aggs,
        }
    }

    /// Decode one record into zero or more rows. `row` is a reused scratch
    /// buffer: each row is built in place and handed to the sink as a
    /// borrowed slice, so a segment scan performs no per-row allocation.
    ///
    /// Returns `false` when the record is malformed and was quarantined —
    /// callers surface that through `MapOutput::skip_corrupt` so undecodable
    /// input is counted, never silently dropped. A `Rows(w)` record that
    /// decodes to fewer than `w` cells is malformed too: every consumer
    /// indexes the row by columns below `w`. So is an `AggRecs` record of
    /// the block whose key or value count differs from the scan's.
    pub(crate) fn scan(
        &self,
        rec: &[u8],
        row: &mut Vec<RVal>,
        mut sink: impl FnMut(&[RVal]),
    ) -> bool {
        match self {
            ScanKind::VpFull => {
                let Some(pairs) = decode_segment(rec) else {
                    return false;
                };
                for (s, o) in pairs {
                    row.clear();
                    row.push(RVal::Id(s));
                    row.push(RVal::Id(o));
                    sink(row);
                }
            }
            ScanKind::VpSubjectOnly => {
                let Some(pairs) = decode_segment(rec) else {
                    return false;
                };
                for (s, _) in pairs {
                    row.clear();
                    row.push(RVal::Id(s));
                    sink(row);
                }
            }
            ScanKind::VpConstObject(oid) => {
                let Some(pairs) = decode_segment(rec) else {
                    return false;
                };
                for (s, o) in pairs {
                    if o == *oid {
                        row.clear();
                        row.push(RVal::Id(s));
                        sink(row);
                    }
                }
            }
            ScanKind::Rows(w) => {
                if !decode_row_into(rec, row) || row.len() < *w {
                    return false;
                }
                sink(row);
            }
            ScanKind::AggRecs { block, keys, aggs } => {
                row.clear();
                let value = |v: Option<f64>| v.map_or(RVal::Null, RVal::Num);
                match AggRec::decode_into(rec, row, RVal::Id, value) {
                    Some((id, _)) if id != *block => {}
                    Some((_, k)) if k == *keys && row.len() == keys + aggs => sink(row),
                    _ => return false,
                }
            }
        }
        true
    }
}

/// One input of a join cycle.
#[derive(Debug, Clone)]
pub struct JoinInputCfg {
    /// Scan kind.
    pub scan: ScanKind,
    /// Column holding the join key.
    pub key_col: usize,
    /// Scan-level predicates (FILTER pushdown, ORC predicate analog).
    pub scan_preds: Vec<PredOnCol>,
    /// Left-outer input (MQO optional properties).
    pub optional: bool,
}

/// Shared config of a reduce-side join cycle.
#[derive(Debug, Clone)]
pub struct JoinCycleCfg {
    /// Inputs aligned with the job's input datasets.
    pub inputs: Vec<JoinInputCfg>,
    /// Output row layout: `(input, column)` per output cell.
    pub output_cols: Vec<(usize, usize)>,
    /// Implicit equality constraints between duplicated variables.
    pub eq_checks: Vec<((usize, usize), (usize, usize))>,
    /// The catalog's dictionary, read by the scan predicates.
    pub dict: Arc<Dictionary>,
}

/// ORC-style row-group skipping: can the whole segment be skipped because
/// a predicate on the object column excludes its zone map? (The paper §5.1:
/// ORC's "light-weight indexes to skip row groups for predicate-based
/// filtering".) Two zone maps apply:
///
/// * the **numeric** min/max range, when every object in the segment is a
///   numeric literal (see `SegmentStats::numeric`'s `None` contract —
///   `None` means "unknown, never skip"), against `Num` predicates;
/// * the **id** min/max range (`o_min`/`o_max`, always present), against
///   constant-object scans and positive `IdEq` equality predicates.
pub fn segment_skippable(rec: &[u8], scan: &ScanKind, preds: &[PredOnCol]) -> bool {
    // Row and aggregate records are not VP segments: they carry no stats.
    if matches!(scan, ScanKind::Rows(_) | ScanKind::AggRecs { .. }) {
        return false;
    }
    let Some(stats) = rapida_storage::decode_stats(rec) else {
        return false;
    };
    // Id zone map: a constant-object scan whose id falls outside the
    // segment's object range matches nothing in it. An empty segment
    // (degenerate 0..=0 range) is never worth a special case — scanning it
    // is free.
    if stats.rows > 0 {
        if let ScanKind::VpConstObject(oid) = scan {
            if *oid < stats.o_min || *oid > stats.o_max {
                return true;
            }
        }
    }
    preds.iter().any(|p| {
        if p.col != 1 {
            return false;
        }
        match &p.pred {
            IdPred::Num { op, rhs } => {
                let Some((lo, hi)) = stats.numeric else {
                    return false;
                };
                match op {
                    CmpOp::Lt => lo >= *rhs,
                    CmpOp::Le => lo > *rhs,
                    CmpOp::Gt => hi <= *rhs,
                    CmpOp::Ge => hi < *rhs,
                    CmpOp::Eq => *rhs < lo || *rhs > hi,
                    CmpOp::Ne => false,
                }
            }
            IdPred::IdEq { eq: true, rhs } => {
                stats.rows > 0 && (*rhs < stats.o_min || *rhs > stats.o_max)
            }
            _ => false,
        }
    })
}

/// Map task of a reduce-side join: scan, filter, tag, emit by key. Scratch
/// buffers persist across records (cleared, never reallocated).
pub struct JoinMapTask {
    cfg: Arc<JoinCycleCfg>,
    row_buf: Vec<RVal>,
    key_buf: Vec<u8>,
    val_buf: Vec<u8>,
}

impl JoinMapTask {
    /// Create from shared config.
    pub fn new(cfg: Arc<JoinCycleCfg>) -> Self {
        JoinMapTask {
            cfg,
            row_buf: Vec::new(),
            key_buf: Vec::new(),
            val_buf: Vec::new(),
        }
    }
}

impl MapTask for JoinMapTask {
    fn map(&mut self, src: InputSrc, record: &[u8], out: &mut MapOutput) {
        let JoinMapTask {
            cfg,
            row_buf,
            key_buf,
            val_buf,
        } = self;
        let Some(input) = cfg.inputs.get(src.dataset) else {
            return;
        };
        if segment_skippable(record, &input.scan, &input.scan_preds) {
            out.skip_segment(record.len());
            return;
        }
        let ok = input.scan.scan(record, row_buf, |row| {
            if !input.scan_preds.iter().all(|p| p.eval(row, &cfg.dict)) {
                return;
            }
            let RVal::Id(key) = row[input.key_col] else {
                return; // Null join keys never match.
            };
            key_buf.clear();
            write_varint(key_buf, key);
            val_buf.clear();
            write_varint(val_buf, src.dataset as u64);
            encode_row(row, val_buf);
            out.emit(key_buf, val_buf);
        });
        if !ok {
            out.skip_corrupt();
        }
    }
}

/// Reduce task of a join cycle: multi-way (outer) join per key.
///
/// Allocation-free once warm: every value of a key group decodes onto one
/// flat cell arena, each input keeps only the arena offsets of its rows (in
/// arrival order), and the cartesian cursor, merged row and encode buffer
/// live as long as the task. All of it is cleared per key, never dropped.
pub struct JoinReduceTask {
    cfg: Arc<JoinCycleCfg>,
    /// Per input, one past the highest column `output_cols`/`eq_checks`
    /// read from it: a decoded row narrower than this is malformed.
    need: Vec<usize>,
    /// Decoded cells of the current key group, rows back to back.
    cells: Vec<RVal>,
    /// Per input, the `cells` offset each of its rows starts at.
    rows: Vec<Vec<u32>>,
    /// Cartesian cursor: per input, the position in `rows[input]`.
    selection: Vec<usize>,
    out_row: Vec<RVal>,
    out_buf: Vec<u8>,
}

impl JoinReduceTask {
    /// Key-local (see `rapida_mapred::ReduceTaskFactory::key_local`): each
    /// key's join product is computed from that key's buckets alone and
    /// `cleanup` emits nothing, so factories may wrap this task in
    /// `rapida_mapred::KeyLocal` for shard-parallel reduce.
    pub const KEY_LOCAL: bool = true;

    /// Create from shared config.
    pub fn new(cfg: Arc<JoinCycleCfg>) -> Self {
        let n = cfg.inputs.len();
        let mut need = vec![0usize; n];
        let eq_cells = cfg.eq_checks.iter().flat_map(|(a, b)| [a, b]);
        for &(i, c) in cfg.output_cols.iter().chain(eq_cells) {
            need[i] = need[i].max(c + 1);
        }
        JoinReduceTask {
            cfg,
            need,
            cells: Vec::new(),
            rows: vec![Vec::new(); n],
            selection: vec![0; n],
            out_row: Vec::new(),
            out_buf: Vec::new(),
        }
    }
}

impl ReduceTask for JoinReduceTask {
    fn reduce(&mut self, _key: &[u8], values: &[&[u8]], out: &mut ReduceOutput) {
        let JoinReduceTask {
            cfg,
            need,
            cells,
            rows,
            selection,
            out_row,
            out_buf,
        } = self;
        cells.clear();
        rows.iter_mut().for_each(Vec::clear);
        for v in values {
            let mut rec = *v;
            let start = cells.len();
            // A value is malformed when its tag or row does not decode, the
            // tag names no input, or the row is too narrow for the columns
            // the join reads — counted, never silently dropped.
            let bucket = read_varint(&mut rec)
                .map(|tag| tag as usize)
                .filter(|&tag| tag < rows.len())
                .filter(|&tag| decode_row_append(rec, cells).is_some_and(|w| w >= need[tag]));
            match bucket {
                Some(tag) => rows[tag].push(start as u32),
                None => {
                    cells.truncate(start);
                    out.skip_corrupt();
                }
            }
        }
        // Required inputs must all be present for this key.
        let absent = |(input, r): (&JoinInputCfg, &Vec<u32>)| !input.optional && r.is_empty();
        if cfg.inputs.iter().zip(rows.iter()).any(absent) {
            return;
        }
        // Cartesian across inputs, input 0 outermost; an empty (optional)
        // bucket has no row at any cursor position and pads with `Null`.
        let cell = |selection: &[usize], (inp, col): (usize, usize)| -> RVal {
            match rows[inp].get(selection[inp]) {
                Some(&start) => cells[start as usize + col],
                None => RVal::Null,
            }
        };
        selection.fill(0);
        loop {
            let eq_ok = cfg.eq_checks.iter().all(|&(a, b)| {
                match (cell(selection, a), cell(selection, b)) {
                    (RVal::Id(x), RVal::Id(y)) => x == y,
                    _ => true,
                }
            });
            if eq_ok {
                out_row.clear();
                out_row.extend(cfg.output_cols.iter().map(|&c| cell(selection, c)));
                out_buf.clear();
                encode_row(out_row, out_buf);
                out.write(out_buf);
            }
            // Advance the cursor like an odometer, last input fastest.
            let mut i = selection.len();
            loop {
                if i == 0 {
                    return;
                }
                i -= 1;
                selection[i] += 1;
                if selection[i] < rows[i].len() {
                    break;
                }
                selection[i] = 0;
            }
        }
    }
}

/// One broadcast side of a map-side join.
#[derive(Debug, Clone)]
pub struct MapJoinSmall {
    /// DFS dataset to load into memory.
    pub dataset: String,
    /// How its records become rows.
    pub scan: ScanKind,
    /// `(key column within its own rows, probe column within the
    /// accumulated row)`; `None` matches every row (a cross join).
    pub key: Option<(usize, usize)>,
    /// Left-outer probe.
    pub optional: bool,
    /// Scan predicates applied while loading.
    pub scan_preds: Vec<PredOnCol>,
}

/// Config of a map-only broadcast-join cycle. The accumulated row is the
/// stream row followed by each small side's columns, in order.
#[derive(Debug, Clone)]
pub struct MapJoinCfg {
    /// Stream-side scan.
    pub stream: ScanKind,
    /// Stream-side scan predicates.
    pub stream_preds: Vec<PredOnCol>,
    /// Broadcast sides, probed in order.
    pub smalls: Vec<MapJoinSmall>,
    /// Output layout: indexes into the accumulated row.
    pub output_cols: Vec<usize>,
    /// Equality checks between accumulated-row positions.
    pub eq_checks: Vec<(usize, usize)>,
    /// The catalog's dictionary, read by the scan predicates.
    pub dict: Arc<Dictionary>,
}

/// The one key of a keyless broadcast side's rows and probes.
const KEYLESS: u64 = 0;

/// One broadcast side in memory, flat: every kept row's cells sit back to
/// back in one arena, `rows` lists them grouped by join key with arrival
/// order kept inside a key, and `index` maps a key to its run in `rows`.
/// Building it allocates per buffer growth, never per row, and dropping it
/// frees three buffers.
#[derive(Default)]
struct SmallTable {
    cells: Vec<RVal>,
    /// `(start, len)` into `cells`.
    rows: Vec<(u32, u32)>,
    /// Key → `(first, count)` into `rows`; only keys with a row are present.
    index: FxHashMap<u64, (u32, u32)>,
}

impl SmallTable {
    /// Build `small`'s table from its stored dataset. Malformed records are
    /// dropped: a broadcast side is built off the task path, like any
    /// driver-side read; task-level quarantine counters cover the stream
    /// side. Rows whose key cell is not an id never match and are not kept;
    /// a keyless side keeps every row under one key, [`KEYLESS`].
    fn build(small: &MapJoinSmall, dict: &Dictionary, ds: &Dataset) -> SmallTable {
        let pos = |n: usize| u32::try_from(n).expect("broadcast side within u32 cells");
        let mut cells: Vec<RVal> = Vec::new();
        // `(key, start, len)` in arrival order.
        let mut arrived: Vec<(u64, u32, u32)> = Vec::new();
        let mut row_buf = Vec::new();
        for rec in ds.iter_records() {
            let _ = small.scan.scan(rec, &mut row_buf, |row| {
                if !small.scan_preds.iter().all(|p| p.eval(row, dict)) {
                    return;
                }
                let key = small.key.map_or(Some(KEYLESS), |(col, _)| row[col].id());
                if let Some(k) = key {
                    arrived.push((k, pos(cells.len()), pos(row.len())));
                    cells.extend_from_slice(row);
                }
            });
        }
        // Stable, so a key's rows stay in arrival order — the order the
        // probe emits them in.
        arrived.sort_by_key(|&(k, _, _)| k);
        let distinct = arrived.chunk_by(|a, b| a.0 == b.0).count();
        let mut index = FxHashMap::default();
        index.reserve(distinct);
        let mut first = 0;
        for run in arrived.chunk_by(|a, b| a.0 == b.0) {
            index.insert(run[0].0, (pos(first), pos(run.len())));
            first += run.len();
        }
        SmallTable {
            cells,
            rows: arrived
                .iter()
                .map(|&(_, start, len)| (start, len))
                .collect(),
            index,
        }
    }

    /// The rows matching `key`, as cell slices in arrival order.
    fn matches(&self, key: u64) -> impl Iterator<Item = &[RVal]> {
        let (first, count) = self.index.get(&key).copied().unwrap_or((0, 0));
        self.rows[first as usize..][..count as usize]
            .iter()
            .map(|&(start, len)| &self.cells[start as usize..][..len as usize])
    }
}

/// Everything a broadcast side's table depends on besides its dataset: the
/// key the DFS memoizes the table under (see [`SimDfs::derived`]). It
/// leaves out how jobs probe the side (`optional`, the probe column), so
/// they share one table.
#[derive(Clone)]
struct SideKey {
    scan: ScanKind,
    key_col: Option<usize>,
    /// The scan predicates and the dictionary they read; `None` when there
    /// are none. The predicates enter as their `Debug` text, which — unlike
    /// `==` on an `f64` — always equals itself; the dictionary by identity,
    /// held, so no other dictionary can take its place while the key lives.
    preds: Option<(String, Arc<Dictionary>)>,
}

impl SideKey {
    fn of(small: &MapJoinSmall, dict: &Arc<Dictionary>) -> SideKey {
        let preds = &small.scan_preds;
        SideKey {
            scan: small.scan.clone(),
            key_col: small.key.map(|(col, _)| col),
            preds: (!preds.is_empty()).then(|| (format!("{preds:?}"), dict.clone())),
        }
    }
}

impl PartialEq for SideKey {
    fn eq(&self, other: &SideKey) -> bool {
        let same_preds = match (&self.preds, &other.preds) {
            (Some((a, da)), Some((b, db))) => a == b && Arc::ptr_eq(da, db),
            (a, b) => a.is_none() && b.is_none(),
        };
        self.scan == other.scan && self.key_col == other.key_col && same_preds
    }
}

/// Factory for map-join tasks — the distributed-cache analog. Each task
/// fetches its broadcast sides' tables when it is created (by which time
/// the producing jobs have run), from the DFS of the engine that runs the
/// job. That DFS builds a side's table once per stored copy of its dataset
/// and shares it with every task, job and engine that broadcasts the same
/// side; a missing dataset is an empty side.
pub struct MapJoinFactory {
    cfg: Arc<MapJoinCfg>,
    /// Per broadcast side, the memo key of its table.
    keys: Vec<SideKey>,
}

impl MapJoinFactory {
    /// Create a factory for the join `cfg` describes.
    pub fn new(cfg: Arc<MapJoinCfg>) -> Self {
        let keys = cfg.smalls.iter().map(|s| SideKey::of(s, &cfg.dict)).collect();
        MapJoinFactory { cfg, keys }
    }
}

impl MapTaskFactory for MapJoinFactory {
    fn create(&self, dfs: &SimDfs) -> Box<dyn MapTask> {
        let cfg = &self.cfg;
        let table = |(small, key): (&MapJoinSmall, &SideKey)| {
            let build = |ds: &Dataset| SmallTable::build(small, &cfg.dict, ds);
            dfs.derived(&small.dataset, key, build).unwrap_or_default()
        };
        Box::new(MapJoinTask {
            cfg: cfg.clone(),
            tables: cfg.smalls.iter().zip(&self.keys).map(table).collect(),
            row_buf: Vec::new(),
            acc_buf: Vec::new(),
            out_buf: Vec::new(),
        })
    }

    fn side_inputs(&self) -> Vec<String> {
        self.cfg.smalls.iter().map(|s| s.dataset.clone()).collect()
    }
}

/// Map task of a broadcast join. The accumulated row, the scan row and the
/// output encoding all live in reusable per-task scratch buffers.
pub struct MapJoinTask {
    cfg: Arc<MapJoinCfg>,
    /// Per broadcast side, its table.
    tables: Vec<Arc<SmallTable>>,
    row_buf: Vec<RVal>,
    acc_buf: Vec<RVal>,
    out_buf: Vec<u8>,
}

impl MapJoinTask {
    fn probe(&self, i: usize, acc: &mut Vec<RVal>, out_buf: &mut Vec<u8>, out: &mut MapOutput) {
        if i == self.cfg.smalls.len() {
            for (a, b) in &self.cfg.eq_checks {
                if let (RVal::Id(x), RVal::Id(y)) = (acc[*a], acc[*b]) {
                    if x != y {
                        return;
                    }
                }
            }
            // Project + encode straight into the output scratch (same bytes
            // as `row_bytes` of the projected row).
            out_buf.clear();
            write_varint(out_buf, self.cfg.output_cols.len() as u64);
            for &c in &self.cfg.output_cols {
                encode_cell(acc[c], out_buf);
            }
            out.write(out_buf);
            return;
        }
        let small = &self.cfg.smalls[i];
        let width = small.scan.width();
        let base = acc.len();
        let mut matched = false;
        let key = small.key.map_or(Some(KEYLESS), |(_, col)| acc[col].id());
        if let Some(key) = key {
            for r in self.tables[i].matches(key) {
                matched = true;
                acc.extend_from_slice(r);
                self.probe(i + 1, acc, out_buf, out);
                acc.truncate(base);
            }
        }
        // A required side with no match drops the row.
        if !matched && small.optional {
            acc.extend(std::iter::repeat_n(RVal::Null, width));
            self.probe(i + 1, acc, out_buf, out);
            acc.truncate(base);
        }
    }
}

impl MapTask for MapJoinTask {
    fn map(&mut self, _src: InputSrc, record: &[u8], out: &mut MapOutput) {
        if segment_skippable(record, &self.cfg.stream, &self.cfg.stream_preds) {
            out.skip_segment(record.len());
            return;
        }
        // `probe` needs `&self`, so the scratch buffers are taken out for
        // the duration of the scan and put back after.
        let mut row_buf = std::mem::take(&mut self.row_buf);
        let mut acc = std::mem::take(&mut self.acc_buf);
        let mut out_buf = std::mem::take(&mut self.out_buf);
        let cfg = self.cfg.clone();
        let ok = cfg.stream.scan(record, &mut row_buf, |row| {
            if !cfg.stream_preds.iter().all(|p| p.eval(row, &cfg.dict)) {
                return;
            }
            acc.clear();
            acc.extend_from_slice(row);
            self.probe(0, &mut acc, &mut out_buf, out);
        });
        if !ok {
            out.skip_corrupt();
        }
        self.row_buf = row_buf;
        self.acc_buf = acc;
        self.out_buf = out_buf;
    }
}

/// Config of a group-by aggregation cycle over rows.
#[derive(Debug, Clone)]
pub struct GroupAggCfg {
    /// Block id stamped on output [`AggRec`]s.
    pub block_id: u8,
    /// How input records become rows (usually `Rows`, but single-table
    /// blocks aggregate straight over a VP scan).
    pub scan: ScanKind,
    /// Scan-level predicates.
    pub scan_preds: Vec<PredOnCol>,
    /// Grouping key columns.
    pub group_cols: Vec<usize>,
    /// `(op, arg column)` per aggregate; `None` = COUNT(*).
    pub aggs: Vec<(AggOp, Option<usize>)>,
    /// The catalog's dictionary: aggregated values and scan predicates.
    pub dict: Arc<Dictionary>,
    /// Map-side hash partial aggregation (Hive's hash-based map
    /// aggregation). Ablation knob.
    pub map_side_combine: bool,
}

/// Map task: partial aggregation keyed by the group values. Combining runs
/// on the flat open-addressing [`AggTable`] (no per-group boxed state, no
/// per-record key allocation), drained in deterministic sorted key order
/// in [`MapTask::cleanup`].
pub struct GroupAggMapTask {
    cfg: Arc<GroupAggCfg>,
    table: AggTable,
    row_buf: Vec<RVal>,
    key_ids: Vec<u64>,
    key_buf: Vec<u8>,
    val_buf: Vec<u8>,
    partials: Vec<PartialAgg>,
}

impl GroupAggMapTask {
    /// Create from shared config.
    pub fn new(cfg: Arc<GroupAggCfg>) -> Self {
        GroupAggMapTask {
            cfg,
            table: AggTable::default(),
            row_buf: Vec::new(),
            key_ids: Vec::new(),
            key_buf: Vec::new(),
            val_buf: Vec::new(),
            partials: Vec::new(),
        }
    }
}

/// Extract the group key ids into a reused buffer. `false` = a group
/// column is unbound or non-id, dropping the row.
fn group_key_ids(row: &[RVal], cols: &[usize], out: &mut Vec<u64>) -> bool {
    out.clear();
    for &c in cols {
        match row[c] {
            RVal::Id(id) => out.push(id),
            _ => return false, // Null group keys drop the row.
        }
    }
    true
}

fn fold_row(row: &[RVal], cfg: &GroupAggCfg, partials: &mut [PartialAgg]) {
    for (i, (_, arg)) in cfg.aggs.iter().enumerate() {
        match arg {
            None => partials[i].add(None),
            Some(col) => match row[*col] {
                RVal::Null => {}
                RVal::Id(id) => partials[i].add(cfg.dict.numeric_value(TermId(id))),
                RVal::Num(n) => partials[i].add(Some(n)),
            },
        }
    }
}

impl MapTask for GroupAggMapTask {
    fn map(&mut self, _src: InputSrc, record: &[u8], out: &mut MapOutput) {
        let GroupAggMapTask {
            cfg,
            table,
            row_buf,
            key_ids,
            key_buf,
            val_buf,
            partials,
        } = self;
        if segment_skippable(record, &cfg.scan, &cfg.scan_preds) {
            out.skip_segment(record.len());
            return;
        }
        let ok = cfg.scan.scan(record, row_buf, |row| {
            if !cfg
                .scan_preds
                .iter()
                .all(|p| p.eval(row, &cfg.dict))
            {
                return;
            }
            if !group_key_ids(row, &cfg.group_cols, key_ids) {
                return;
            }
            if cfg.map_side_combine {
                let slots = table.slots_mut(cfg.group_cols.len() as u64, key_ids, cfg.aggs.len());
                fold_row(row, cfg, slots);
            } else {
                key_buf.clear();
                write_group_key(key_buf, key_ids);
                partials.clear();
                partials.resize(cfg.aggs.len(), PartialAgg::default());
                fold_row(row, cfg, partials);
                val_buf.clear();
                for p in partials.iter() {
                    p.encode(val_buf);
                }
                out.emit(key_buf, val_buf);
            }
        });
        if !ok {
            out.skip_corrupt();
        }
    }

    fn cleanup(&mut self, out: &mut MapOutput) {
        let GroupAggMapTask {
            table,
            key_buf,
            val_buf,
            ..
        } = self;
        // The table tag is the key width, so the re-encoded key bytes are
        // identical to the non-combined emit format.
        table.drain_sorted(|full_key, partials| {
            key_buf.clear();
            for &k in full_key {
                write_varint(key_buf, k);
            }
            val_buf.clear();
            for p in partials {
                p.encode(val_buf);
            }
            out.emit(key_buf, val_buf);
        });
    }
}

/// Reduce task: merge partials and emit one [`AggRec`] per group, encoded
/// directly into a reused scratch buffer.
pub struct GroupAggReduceTask {
    cfg: Arc<GroupAggCfg>,
    group_key: Vec<u64>,
    merged: Vec<PartialAgg>,
    /// One value's decoded partials, merged only once all of them decode.
    scratch: Vec<PartialAgg>,
    buf: Vec<u8>,
}

impl GroupAggReduceTask {
    /// Key-local: one [`AggRec`] per key group, derived from that group's
    /// partials alone — the buffers are per-call scratch, cleared on entry;
    /// no `cleanup` emissions.
    pub const KEY_LOCAL: bool = true;

    /// Create from shared config.
    pub fn new(cfg: Arc<GroupAggCfg>) -> Self {
        GroupAggReduceTask {
            cfg,
            group_key: Vec::new(),
            merged: Vec::new(),
            scratch: Vec::new(),
            buf: Vec::new(),
        }
    }
}

impl ReduceTask for GroupAggReduceTask {
    fn reduce(&mut self, key: &[u8], values: &[&[u8]], out: &mut ReduceOutput) {
        let GroupAggReduceTask {
            cfg,
            group_key,
            merged,
            scratch,
            buf,
        } = self;
        let mut kb = key;
        if read_group_key(&mut kb, group_key).is_none() {
            out.skip_corrupt();
            return;
        }
        merged.clear();
        merged.resize(cfg.aggs.len(), PartialAgg::default());
        for v in values {
            if !PartialAgg::merge_encoded(merged, scratch, v) {
                out.skip_corrupt();
            }
        }
        buf.clear();
        let finals = merged.iter().zip(&cfg.aggs).map(|(p, (op, _))| p.finalize(*op));
        AggRec::encode_parts(cfg.block_id, group_key, finals, buf);
        out.write(buf);
    }
}

/// Config of a distinct-projection cycle (the MQO extraction step).
#[derive(Debug, Clone)]
pub struct DistinctCfg {
    /// Columns to project (in output order).
    pub project_cols: Vec<usize>,
    /// Columns that must be non-null for the row to belong to the pattern.
    pub required_cols: Vec<usize>,
}

/// Map task: validate, project, map-side dedup, emit row as key. The
/// projected key is encoded into a reused scratch buffer; only first-seen
/// keys are copied into the dedup set.
pub struct DistinctMapTask {
    cfg: Arc<DistinctCfg>,
    seen: FxHashSet<Vec<u8>>,
    row_buf: Vec<RVal>,
    key_buf: Vec<u8>,
}

impl DistinctMapTask {
    /// Create from shared config.
    pub fn new(cfg: Arc<DistinctCfg>) -> Self {
        DistinctMapTask {
            cfg,
            seen: FxHashSet::default(),
            row_buf: Vec::new(),
            key_buf: Vec::new(),
        }
    }
}

impl MapTask for DistinctMapTask {
    fn map(&mut self, _src: InputSrc, record: &[u8], out: &mut MapOutput) {
        if !decode_row_into(record, &mut self.row_buf) {
            out.skip_corrupt();
            return;
        }
        let row = &self.row_buf;
        if self.cfg.required_cols.iter().any(|&c| row[c].is_null()) {
            return;
        }
        let kb = &mut self.key_buf;
        kb.clear();
        write_varint(kb, self.cfg.project_cols.len() as u64);
        for &c in &self.cfg.project_cols {
            encode_cell(row[c], kb);
        }
        if !self.seen.contains(kb.as_slice()) {
            self.seen.insert(kb.clone());
            out.emit(kb, &[]);
        }
    }
}

/// Reduce task of the distinct cycle: one output row per key.
pub struct DistinctReduceTask;

impl DistinctReduceTask {
    /// Key-local: the output is the key itself, nothing else.
    pub const KEY_LOCAL: bool = true;
}

impl ReduceTask for DistinctReduceTask {
    fn reduce(&mut self, key: &[u8], _values: &[&[u8]], out: &mut ReduceOutput) {
        out.write(key);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rows::{decode_row, row_bytes};
    use rapida_mapred::{DatasetWriter, Engine, FnMapFactory, FnReduceFactory, JobBuilder};
    use rapida_rdf::Term;

    fn rows_dataset(rows: &[Vec<RVal>]) -> rapida_mapred::Dataset {
        let mut w = DatasetWriter::new(128);
        for r in rows {
            w.push(&row_bytes(r));
        }
        w.finish()
    }

    fn read_rows(dfs: &SimDfs, name: &str) -> Vec<Vec<RVal>> {
        dfs.peek(name)
            .unwrap()
            .iter_records()
            .map(|r| decode_row(r).unwrap())
            .collect()
    }

    /// A dictionary of ids `0..n`: the decimal `value(i)` where it is
    /// `Some`, the literal `"t{i}"` otherwise.
    fn dict_of(n: u64, value: impl Fn(u64) -> Option<f64>) -> Arc<Dictionary> {
        let mut dict = Dictionary::new();
        for i in 0..n {
            let term = value(i).map_or_else(|| Term::literal(format!("t{i}")), Term::decimal);
            assert_eq!(dict.intern(&term), TermId(i), "one term per id");
        }
        Arc::new(dict)
    }

    #[test]
    fn reduce_side_inner_join() {
        let dfs = SimDfs::new();
        dfs.put(
            "left",
            rows_dataset(&[
                vec![RVal::Id(1), RVal::Id(10)],
                vec![RVal::Id(2), RVal::Id(20)],
            ]),
        );
        dfs.put(
            "right",
            rows_dataset(&[
                vec![RVal::Id(1), RVal::Id(100)],
                vec![RVal::Id(1), RVal::Id(101)],
                vec![RVal::Id(3), RVal::Id(300)],
            ]),
        );
        let cfg = Arc::new(JoinCycleCfg {
            inputs: vec![
                JoinInputCfg {
                    scan: ScanKind::Rows(2),
                    key_col: 0,
                    scan_preds: vec![],
                    optional: false,
                },
                JoinInputCfg {
                    scan: ScanKind::Rows(2),
                    key_col: 0,
                    scan_preds: vec![],
                    optional: false,
                },
            ],
            output_cols: vec![(0, 0), (0, 1), (1, 1)],
            eq_checks: vec![],
            dict: Arc::default(),
        });
        let job = JobBuilder::new("join")
            .input("left")
            .input("right")
            .mapper(Arc::new(FnMapFactory({
                let c = cfg.clone();
                move || JoinMapTask::new(c.clone())
            })))
            .reducer(Arc::new(FnReduceFactory({
                let c = cfg.clone();
                move || JoinReduceTask::new(c.clone())
            })))
            .output("out")
            .build();
        Engine::pinned(dfs.clone()).run_job(&job);
        let mut rows = read_rows(&dfs, "out");
        rows.sort_by_key(|r| (r[0].id(), r[2].id()));
        assert_eq!(
            rows,
            vec![
                vec![RVal::Id(1), RVal::Id(10), RVal::Id(100)],
                vec![RVal::Id(1), RVal::Id(10), RVal::Id(101)],
            ]
        );
    }

    #[test]
    fn reduce_side_left_outer_join() {
        let dfs = SimDfs::new();
        dfs.put(
            "left",
            rows_dataset(&[
                vec![RVal::Id(1), RVal::Id(10)],
                vec![RVal::Id(2), RVal::Id(20)],
            ]),
        );
        dfs.put("right", rows_dataset(&[vec![RVal::Id(1), RVal::Id(100)]]));
        let cfg = Arc::new(JoinCycleCfg {
            inputs: vec![
                JoinInputCfg {
                    scan: ScanKind::Rows(2),
                    key_col: 0,
                    scan_preds: vec![],
                    optional: false,
                },
                JoinInputCfg {
                    scan: ScanKind::Rows(2),
                    key_col: 0,
                    scan_preds: vec![],
                    optional: true,
                },
            ],
            output_cols: vec![(0, 0), (1, 1)],
            eq_checks: vec![],
            dict: Arc::default(),
        });
        let job = JobBuilder::new("leftjoin")
            .input("left")
            .input("right")
            .mapper(Arc::new(FnMapFactory({
                let c = cfg.clone();
                move || JoinMapTask::new(c.clone())
            })))
            .reducer(Arc::new(FnReduceFactory({
                let c = cfg.clone();
                move || JoinReduceTask::new(c.clone())
            })))
            .output("out")
            .build();
        Engine::pinned(dfs.clone()).run_job(&job);
        let mut rows = read_rows(&dfs, "out");
        rows.sort_by_key(|r| r[0].id());
        assert_eq!(
            rows,
            vec![
                vec![RVal::Id(1), RVal::Id(100)],
                vec![RVal::Id(2), RVal::Null],
            ]
        );
    }

    #[test]
    fn map_join_broadcast() {
        let dfs = SimDfs::new();
        dfs.put(
            "stream",
            rows_dataset(&[
                vec![RVal::Id(1), RVal::Id(5)],
                vec![RVal::Id(2), RVal::Id(6)],
            ]),
        );
        dfs.put(
            "small",
            rows_dataset(&[vec![RVal::Id(5), RVal::Id(50)], vec![RVal::Id(7), RVal::Id(70)]]),
        );
        let cfg = Arc::new(MapJoinCfg {
            stream: ScanKind::Rows(2),
            stream_preds: vec![],
            smalls: vec![MapJoinSmall {
                dataset: "small".into(),
                scan: ScanKind::Rows(2),
                key: Some((0, 1)),
                optional: false,
                scan_preds: vec![],
            }],
            output_cols: vec![0, 1, 3],
            eq_checks: vec![],
            dict: Arc::default(),
        });
        let job = JobBuilder::new("mapjoin")
            .input("stream")
            .mapper(Arc::new(MapJoinFactory::new(cfg)))
            .output("out")
            .build();
        let m = Engine::pinned(dfs.clone()).run_job(&job);
        assert!(m.map_only);
        let rows = read_rows(&dfs, "out");
        assert_eq!(rows, vec![vec![RVal::Id(1), RVal::Id(5), RVal::Id(50)]]);
    }

    #[test]
    fn group_agg_cycle() {
        let dfs = SimDfs::new();
        let dict = dict_of(102, |i| match i {
            100 => Some(10.0),
            101 => Some(20.0),
            _ => None,
        });
        dfs.put(
            "rows",
            rows_dataset(&[
                vec![RVal::Id(1), RVal::Id(100)],
                vec![RVal::Id(1), RVal::Id(101)],
                vec![RVal::Id(2), RVal::Id(100)],
            ]),
        );
        let cfg = Arc::new(GroupAggCfg {
            block_id: 3,
            scan: ScanKind::Rows(2),
            scan_preds: vec![],
            group_cols: vec![0],
            aggs: vec![(AggOp::Sum, Some(1)), (AggOp::Count, Some(1))],
            dict,
            map_side_combine: true,
        });
        let job = JobBuilder::new("agg")
            .input("rows")
            .mapper(Arc::new(FnMapFactory({
                let c = cfg.clone();
                move || GroupAggMapTask::new(c.clone())
            })))
            .reducer(Arc::new(FnReduceFactory({
                let c = cfg.clone();
                move || GroupAggReduceTask::new(c.clone())
            })))
            .output("out")
            .build();
        Engine::pinned(dfs.clone()).run_job(&job);
        let mut recs: Vec<AggRec> = dfs
            .peek("out")
            .unwrap()
            .iter_records()
            .map(|r| AggRec::decode(r).unwrap())
            .collect();
        recs.sort_by_key(|r| r.key.clone());
        assert_eq!(recs.len(), 2);
        assert_eq!(recs[0].id, 3);
        assert_eq!(recs[0].key, vec![1]);
        assert_eq!(recs[0].values, vec![Some(30.0), Some(2.0)]);
        assert_eq!(recs[1].values, vec![Some(10.0), Some(1.0)]);
    }

    /// A `Rows(2)` record that decodes to one cell is quarantined at the
    /// scan: the group column and the aggregate argument it lacks are never
    /// indexed, and the well-formed row beside it still aggregates.
    #[test]
    fn group_agg_quarantines_rows_narrower_than_its_scan() {
        for map_side_combine in [true, false] {
            let mut task = GroupAggMapTask::new(Arc::new(GroupAggCfg {
                block_id: 0,
                scan: ScanKind::Rows(2),
                scan_preds: vec![],
                group_cols: vec![1],
                aggs: vec![(AggOp::Count, Some(1))],
                dict: Arc::default(),
                map_side_combine,
            }));
            let mut out = MapOutput::default();
            for row in [vec![RVal::Id(1)], vec![RVal::Id(1), RVal::Id(2)], vec![]] {
                task.map(InputSrc { dataset: 0 }, &row_bytes(&row), &mut out);
            }
            task.cleanup(&mut out);
            assert_eq!(out.corrupt_records, 2);
            assert_eq!(out.kvs.len(), 1);
        }
    }

    #[test]
    fn distinct_cycle_validates_and_dedups() {
        let dfs = SimDfs::new();
        dfs.put(
            "rows",
            rows_dataset(&[
                vec![RVal::Id(1), RVal::Id(10), RVal::Id(99)],
                vec![RVal::Id(1), RVal::Id(10), RVal::Id(98)],
                vec![RVal::Id(2), RVal::Null, RVal::Id(97)],
            ]),
        );
        let cfg = Arc::new(DistinctCfg {
            project_cols: vec![0, 1],
            required_cols: vec![1],
        });
        let job = JobBuilder::new("distinct")
            .input("rows")
            .mapper(Arc::new(FnMapFactory({
                let c = cfg.clone();
                move || DistinctMapTask::new(c.clone())
            })))
            .reducer(Arc::new(FnReduceFactory(|| DistinctReduceTask)))
            .output("out")
            .build();
        Engine::pinned(dfs.clone()).run_job(&job);
        let rows = read_rows(&dfs, "out");
        assert_eq!(rows, vec![vec![RVal::Id(1), RVal::Id(10)]]);
    }

    #[test]
    fn agg_recs_scan_reads_its_block_and_rejects_wrong_counts() {
        let scan = ScanKind::AggRecs {
            block: 1,
            keys: 1,
            aggs: 2,
        };
        assert_eq!(scan.width(), 3);
        let rec = |id, key: &[u64], values: &[Option<f64>]| {
            let mut buf = Vec::new();
            AggRec::encode_parts(id, key, values.iter().copied(), &mut buf);
            buf
        };
        let rows = |rec: &[u8]| {
            let mut got = Vec::new();
            let ok = scan.scan(rec, &mut Vec::new(), |row| got.push(row.to_vec()));
            (ok, got)
        };
        let good = rec(1, &[7], &[Some(2.0), None]);
        let row = vec![RVal::Id(7), RVal::Num(2.0), RVal::Null];
        assert_eq!(rows(&good), (true, vec![row]));
        // Another block's record yields no row, whatever its shape.
        assert_eq!(rows(&rec(0, &[7], &[Some(2.0), None])), (true, vec![]));
        assert_eq!(rows(&rec(2, &[], &[])), (true, vec![]));
        // This block's with a missing key or value is malformed, as is a
        // record that does not decode.
        assert_eq!(rows(&rec(1, &[], &[Some(2.0), None])), (false, vec![]));
        assert_eq!(rows(&rec(1, &[7], &[Some(2.0)])), (false, vec![]));
        assert_eq!(rows(&good[..good.len() - 1]), (false, vec![]));
        // Aggregates are not VP segments: never skipped on stats.
        assert!(!segment_skippable(&good, &scan, &[]));
    }

    #[test]
    fn segment_skipping_uses_numeric_stats() {
        // A VP segment whose prices are all in [10, 20].
        let rows: Vec<(u64, u64)> = (0..10).map(|i| (i, 100 + i)).collect();
        let mut seg = Vec::new();
        rapida_storage::encode_segment(&rows, |o| Some((o - 90) as f64), &mut seg);
        let pred = |op: CmpOp, rhs: f64| {
            vec![PredOnCol {
                col: 1,
                pred: IdPred::Num { op, rhs },
            }]
        };
        let scan = ScanKind::VpFull;
        // min = 10, max = 19.
        assert!(segment_skippable(&seg, &scan, &pred(CmpOp::Gt, 19.0)));
        assert!(segment_skippable(&seg, &scan, &pred(CmpOp::Lt, 10.0)));
        assert!(segment_skippable(&seg, &scan, &pred(CmpOp::Eq, 50.0)));
        assert!(!segment_skippable(&seg, &scan, &pred(CmpOp::Gt, 15.0)));
        assert!(!segment_skippable(&seg, &scan, &pred(CmpOp::Ne, 15.0)));
        // Row datasets are never skipped.
        assert!(!segment_skippable(&seg, &ScanKind::Rows(2), &pred(CmpOp::Gt, 99.0)));
        // Segments without numeric stats are never skipped.
        let mut seg2 = Vec::new();
        rapida_storage::encode_segment(&rows, |_| None, &mut seg2);
        assert!(!segment_skippable(&seg2, &scan, &pred(CmpOp::Gt, 99.0)));
    }

    #[test]
    fn segment_skipping_uses_id_range_stats() {
        // Object ids in [100, 109]; no numeric values at all.
        let rows: Vec<(u64, u64)> = (0..10).map(|i| (i, 100 + i)).collect();
        let mut seg = Vec::new();
        rapida_storage::encode_segment(&rows, |_| None, &mut seg);
        // Constant-object scans outside the id range skip the segment.
        assert!(segment_skippable(&seg, &ScanKind::VpConstObject(99), &[]));
        assert!(segment_skippable(&seg, &ScanKind::VpConstObject(110), &[]));
        assert!(segment_skippable(&seg, &ScanKind::VpConstObject(u64::MAX), &[]));
        assert!(!segment_skippable(&seg, &ScanKind::VpConstObject(100), &[]));
        assert!(!segment_skippable(&seg, &ScanKind::VpConstObject(105), &[]));
        // Positive IdEq predicates on the object column skip the same way;
        // negative equality never skips.
        let ideq = |eq: bool, rhs: u64| {
            vec![PredOnCol {
                col: 1,
                pred: IdPred::IdEq { eq, rhs },
            }]
        };
        assert!(segment_skippable(&seg, &ScanKind::VpFull, &ideq(true, 99)));
        assert!(!segment_skippable(&seg, &ScanKind::VpFull, &ideq(true, 104)));
        assert!(!segment_skippable(&seg, &ScanKind::VpFull, &ideq(false, 99)));
        // The empty segment is never "skipped" (scanning it is free and the
        // 0..=0 sentinel range must not match real ids).
        let mut empty = Vec::new();
        rapida_storage::encode_segment(&[], |_| None, &mut empty);
        assert!(!segment_skippable(&empty, &ScanKind::VpConstObject(5), &[]));
    }

    #[test]
    fn skipped_segments_are_counted_in_metrics() {
        // Two segments (blocks): objects [100..110) and [200..210). A
        // constant-object scan for 205 must skip the first segment whole
        // and count its bytes as pruned.
        let dfs = SimDfs::new();
        let mut writer = rapida_mapred::DatasetWriter::new(1);
        for base in [100u64, 200] {
            let rows: Vec<(u64, u64)> = (0..10).map(|i| (i, base + i)).collect();
            let mut seg = Vec::new();
            rapida_storage::encode_segment(&rows, |_| None, &mut seg);
            writer.push(&seg);
        }
        dfs.put("vp", writer.finish());
        let cfg = Arc::new(GroupAggCfg {
            block_id: 0,
            scan: ScanKind::VpConstObject(205),
            scan_preds: vec![],
            group_cols: vec![0],
            aggs: vec![(AggOp::Count, None)],
            dict: Arc::default(),
            map_side_combine: true,
        });
        let job = JobBuilder::new("pruned")
            .input("vp")
            .mapper(Arc::new(FnMapFactory({
                let c = cfg.clone();
                move || GroupAggMapTask::new(c.clone())
            })))
            .reducer(Arc::new(FnReduceFactory({
                let c = cfg.clone();
                move || GroupAggReduceTask::new(c.clone())
            })))
            .output("out")
            .build();
        let m = Engine::pinned(dfs.clone()).run_job(&job);
        assert_eq!(m.segments_skipped, 1);
        assert!(m.input_bytes_pruned > 0);
        assert!(m.input_bytes_pruned < m.input_bytes);
        // The surviving segment still produced one group per subject.
        assert_eq!(m.output_records, 1);
    }

    #[test]
    fn scan_pred_filters_at_scan() {
        let dfs = SimDfs::new();
        let dict = dict_of(102, |i| match i {
            100 => Some(10.0),
            101 => Some(99.0),
            _ => None,
        });
        dfs.put(
            "rows",
            rows_dataset(&[
                vec![RVal::Id(1), RVal::Id(100)],
                vec![RVal::Id(2), RVal::Id(101)],
            ]),
        );
        let cfg = Arc::new(MapJoinCfg {
            stream: ScanKind::Rows(2),
            stream_preds: vec![PredOnCol {
                col: 1,
                pred: IdPred::Num {
                    op: CmpOp::Gt,
                    rhs: 50.0,
                },
            }],
            smalls: vec![],
            output_cols: vec![0],
            eq_checks: vec![],
            dict,
        });
        let job = JobBuilder::new("scanfilter")
            .input("rows")
            .mapper(Arc::new(MapJoinFactory::new(cfg)))
            .output("out")
            .build();
        Engine::pinned(dfs.clone()).run_job(&job);
        let rows = read_rows(&dfs, "out");
        assert_eq!(rows, vec![vec![RVal::Id(2)]]);
    }
}
