//! Byte-identity of the one-walk NTGA operators against the owned-decode
//! reference they replaced (`common::Reference*`): every job of a
//! product ⋈ offer ⋈ vendor workflow runs twice on a real [`Engine`], once
//! per implementation over the same inputs, and must write the same dataset
//! blocks, shuffle the same map output and quarantine the same number of
//! records. Covered: a shared raw scan feeding two routes, α-pruning,
//! one-sided keys, a second cycle over annotated routes with a raw star
//! behind a value filter and a subject gate, Agg-Joins over joined and raw
//! (shared single-star scan) inputs with `map_side_combine` on and off, a
//! truncated record in every kind of input of both mappers — behind a
//! filter too, where the prefix that still decodes would pass it, and
//! behind a gate that shuts the record out — and route tables that leave a
//! route or a filter off an input, which the reference walks anyway, or
//! have no entry for an input, whose records both quarantine.

mod common;

use common::{dict_of, outcomes, tagged, ReferenceAggJoinMap, ReferenceAlphaJoinReduce, ReferenceTgJoinMap};
use rapida_mapred::codec::write_varint;
use rapida_mapred::{
    DatasetWriter, Engine, FnMapFactory, FnReduceFactory, JobBuilder, KeyLocal, MapTask,
    MapTaskFactory, ReduceOutput, ReduceTask, ReduceTaskFactory, SimDfs,
};
use rapida_ntga::{
    AggJoinConfig, AggJoinMapper, AggJoinReducer, AggJoinSpec, AggOp, AggSpec, AlphaCond,
    AlphaJoinReducer, AlphaTerm, AnnRoute, AnnTg, IdPred, InputRoutes, JoinKey, PropReq, Side,
    StarRoute, StarSpec, TgJoinMapConfig, TgJoinMapper, TripleGroup, ValueFilter, VarRef,
};
use rapida_rdf::{Dictionary, Term};
use rapida_sparql::ast::CmpOp;
use std::sync::Arc;

const TY: u64 = 1;
const PF: u64 = 2; // product feature (optional, multi-valued)
const PR: u64 = 3; // offer -> product
const PC: u64 = 4; // offer price
const PV: u64 = 5; // offer -> vendor
const PN: u64 = 6; // vendor country
const PD: u64 = 7; // offer delivery days (a second offer class)
const PT18: u64 = 90;

fn star(star: u8, primary: Vec<PropReq>, secondary: Vec<PropReq>) -> StarSpec {
    StarSpec { star, primary, secondary }
}

fn product_star() -> StarSpec {
    star(0, vec![PropReq::with_object(TY, PT18)], vec![PropReq::any(PF)])
}

fn offer_star() -> StarSpec {
    star(1, vec![PropReq::any(PR), PropReq::any(PC), PropReq::any(PV)], vec![])
}

fn route(spec: StarSpec, side: Side, key: JoinKey, filter: ValueFilter) -> StarRoute {
    StarRoute { spec, side, key, filter }
}

fn has_feature(required: bool) -> AlphaCond {
    AlphaCond { terms: vec![AlphaTerm { star: 0, prop: PF, required }] }
}

fn obj(star: u8, prop: u64) -> VarRef {
    VarRef::ObjectOf { star, prop }
}

/// An Agg-Join block; each aggregate is `(op, argument slot)`.
fn block(
    id: u8,
    slots: Vec<VarRef>,
    group_slots: Vec<usize>,
    aggs: &[(AggOp, Option<usize>)],
    alpha: AlphaCond,
) -> AggJoinSpec {
    let aggs = aggs.iter().map(|&(op, arg)| AggSpec { op, arg }).collect();
    AggJoinSpec { id, slots, group_slots, aggs, alpha }
}

/// A pushed-down FILTER: every `prop` pair with an odd object counts as
/// absent (term ids as the numbers `id % 2`, equal to 0). With `gate`, only
/// groups with one of those subjects pass.
fn even_objects_of(prop: u64, gate: Option<Vec<u64>>) -> ValueFilter {
    ValueFilter {
        preds: vec![(prop, IdPred::Num { op: CmpOp::Eq, rhs: 0.0 })],
        subjects: gate.map(Arc::new),
        dict: parities(),
    }
}

/// Ids `0..400` as the numbers `id % 2`, each spelled with a datatype of
/// its own so that no two ids are one term.
fn parities() -> Arc<Dictionary> {
    dict_of(400, |i| Some(Term::typed_literal((i % 2).to_string(), format!("http://x/parity{i}"))))
}

#[test]
fn the_parity_filter_admits_the_even_ids() {
    assert_eq!(outcomes(&even_objects_of(1, None)), [(200, 200)]);
}

fn put(dfs: &SimDfs, name: &str, records: impl IntoIterator<Item = Vec<u8>>) {
    let mut w = DatasetWriter::new(256);
    records.into_iter().for_each(|r| w.push(&r));
    dfs.put(name, w.finish());
}

fn raw(subject: u64, pairs: Vec<(u64, u64)>) -> Vec<u8> {
    let mut rec = Vec::new();
    TripleGroup::new(subject, pairs).encode(&mut rec);
    rec
}

/// `rec` cut one byte short: no decoder accepts it.
fn cut(mut rec: Vec<u8>) -> Vec<u8> {
    rec.pop();
    rec
}

/// Products 100.., offers 1000.., vendors 500..: a quarter of the products
/// have the wrong type, some lack the optional feature and some carry two;
/// every ninth offer points at no product, every eleventh lacks its price
/// and every fifth has two; vendors 505 and 506 are referenced but absent
/// and 520 sells nothing, so both cycles meet one-sided keys on either side.
/// Every input ends in a truncated record. The products' and the vendors'
/// are cut inside their last pair, and what is left of them passes the
/// value filters those stars are scanned behind and would join: a mapper
/// that materialized the decodable prefix would emit it. The products' also
/// passes its star's subject gate; the vendors' does not, and the vendor
/// route is the only one walking its input, so a mapper that gated before it
/// walked would let it go uncounted.
fn load(dfs: &SimDfs) {
    let products = (0..40u64).map(|i| {
        let mut pairs = vec![(TY, PT18 + u64::from(i % 4 == 3))];
        pairs.extend((0..i % 3).map(|f| (PF, 60 + (i + f) % 4)));
        raw(100 + i, pairs)
    });
    put(dfs, "products", products.chain([cut(raw(199, vec![(TY, PT18), (PF, 62), (PF, 300)]))]));
    let offers = (0..90u64).map(|j| {
        let product = if j % 9 == 8 { 400 + j } else { 100 + j % 40 };
        let mut pairs = vec![(PR, product), (PV, 500 + j % 7)];
        if j % 11 != 10 {
            pairs.extend((0..=u64::from(j % 5 == 0)).map(|c| (PC, 30 + (j % 4) * 5 - c)));
        }
        raw(1000 + j, pairs)
    });
    put(dfs, "offers", offers.chain([cut(raw(1999, vec![(PR, 100), (PC, 30), (PV, 500)]))]));
    let vendors = [0, 1, 2, 3, 4, 20].map(|k| raw(500 + k, vec![(PN, 70 + k % 3), (PN, 80)]));
    put(dfs, "vendors", vendors.into_iter().chain([cut(raw(506, vec![(PN, 72), (PN, 300)]))]));
    // A joined record from nowhere plus a truncated one, for the mappers'
    // annotated inputs.
    let stray = AnnTg {
        groups: vec![
            (0, TripleGroup::new(198, vec![(TY, PT18)])),
            (1, TripleGroup::new(1998, vec![(PC, 30), (PR, 198), (PV, 500), (PV, 501)])),
        ],
    };
    put(dfs, "stray", [stray.encoded(), cut(stray.encoded())]);
}

/// Output blocks, `(map_output_records, map_output_bytes)`,
/// `corrupt_records_skipped`.
type Outcome = (Vec<Vec<u8>>, (u64, u64), u64);

type Tasks = (Arc<dyn MapTaskFactory>, Arc<dyn ReduceTaskFactory>);

fn tasks<M: MapTask + 'static, R: ReduceTask + 'static>(
    map: impl Fn() -> M + Send + Sync + 'static,
    reduce: impl Fn() -> R + Send + Sync + 'static,
) -> Tasks {
    (Arc::new(FnMapFactory(map)), Arc::new(KeyLocal(FnReduceFactory(reduce))))
}

/// Run one job on the reference, then on the production tasks; the outcomes
/// must agree. Production's output stays under `out` for the next job.
fn both(dfs: &SimDfs, inputs: &[&str], reference: Tasks, production: Tasks, out: &str) -> Outcome {
    let run = |(mapper, reducer): Tasks, out: &str| {
        let mut job = JobBuilder::new(out).mapper(mapper).reducer(reducer).output(out).num_reducers(3);
        for input in inputs {
            job = job.input(*input);
        }
        let m = Engine::pinned(dfs.clone()).run_job(&job.build());
        let blocks = dfs.peek(out).expect("job wrote its output").blocks;
        let blocks = blocks.iter().map(|b| b.as_ref().to_vec()).collect();
        (blocks, (m.map_output_records, m.map_output_bytes), m.corrupt_records_skipped)
    };
    let want = run(reference, &format!("{out}_reference"));
    let got = run(production, out);
    assert_eq!(got, want, "{out}");
    got
}

fn tg_join(
    dfs: &SimDfs,
    inputs: &[&str],
    cfg: TgJoinMapConfig,
    conds: Vec<AlphaCond>,
    out: &str,
) -> Outcome {
    let (cfg, conds) = (Arc::new(cfg), Arc::new(conds));
    let (c, a) = (cfg.clone(), conds.clone());
    let reference = tasks(move || ReferenceTgJoinMap(c.clone()), move || ReferenceAlphaJoinReduce(a.clone()));
    let production = tasks(move || TgJoinMapper::new(cfg.clone()), move || AlphaJoinReducer::new(conds.clone()));
    both(dfs, inputs, reference, production, out)
}

/// One Agg-Join cycle on both map implementations (the reducer never had
/// an owned twin), with `map_side_combine` on and off.
fn agg_join(dfs: &SimDfs, inputs: &[&str], cfg: AggJoinConfig, out: &str) -> [Outcome; 2] {
    [true, false].map(|map_side_combine| {
        let cfg = Arc::new(AggJoinConfig { map_side_combine, ..cfg.clone() });
        let (a, b, c, d) = (cfg.clone(), cfg.clone(), cfg.clone(), cfg.clone());
        let reference = tasks(move || ReferenceAggJoinMap::new(a.clone()), move || AggJoinReducer::new(b.clone()));
        let production = tasks(move || AggJoinMapper::new(c.clone()), move || AggJoinReducer::new(d.clone()));
        both(dfs, inputs, reference, production, &format!("{out}_{map_side_combine}"))
    })
}

/// Term ids 25..=45 are prices, as reciprocals so that sums round;
/// everything else is non-numeric.
fn prices() -> Arc<Dictionary> {
    dict_of(100, |i| (25..=45).contains(&i).then(|| Term::decimal(1.0 / i as f64)))
}

#[test]
fn workflow_is_byte_identical_to_the_reference() {
    let dfs = SimDfs::new();
    load(&dfs);
    let bytes = |blocks: &[Vec<u8>]| blocks.iter().map(Vec::len).sum::<usize>();

    // Cycle 1: one shared scan of both raw inputs feeds both routes; with and
    // without α-pruning. Products never carry pr, so theirs is the product
    // route alone; each offer walks both routes, failing the product route
    // before it reuses the scratch for its own.
    let cfg = TgJoinMapConfig {
        inputs: vec![InputRoutes::Raw(vec![0]), InputRoutes::Raw(vec![0, 1])],
        star_routes: vec![
            route(product_star(), Side::Left, JoinKey::Subject { star: 0 }, ValueFilter::default()),
            route(offer_star(), Side::Right, JoinKey::ObjectOf { star: 1, prop: PR }, ValueFilter::default()),
        ],
        ann_routes: vec![],
    };
    let raw = ["products", "offers"];
    let (pruned, ..) = tg_join(&dfs, &raw, cfg.clone(), vec![has_feature(true)], "joined1_alpha");
    let (all, _, corrupt) = tg_join(&dfs, &raw, cfg, vec![], "joined1");
    assert_eq!(corrupt, 2, "one truncated record per raw input");
    assert!(0 < bytes(&pruned) && bytes(&pruned) < bytes(&all), "α must prune some, not all");

    // Cycle 2: the intermediate (and the stray annotated input) on the left
    // by the offer's vendor — two keys for the stray record — against a raw
    // vendor star behind a value filter and a gate that shuts out vendor
    // 502 and the truncated 506.
    let by_vendor = JoinKey::ObjectOf { star: 1, prop: PV };
    let vendor = star(2, vec![PropReq::any(PN)], vec![]);
    let cfg = TgJoinMapConfig {
        inputs: vec![InputRoutes::Ann, InputRoutes::Raw(vec![0]), InputRoutes::Ann],
        star_routes: vec![route(
            vendor,
            Side::Right,
            JoinKey::Subject { star: 2 },
            even_objects_of(PN, Some(vec![500, 501, 503, 504, 520])),
        )],
        ann_routes: vec![AnnRoute { side: Side::Left, key: by_vendor }],
    };
    let either = vec![has_feature(true), has_feature(false)];
    let (joined2, _, corrupt) = tg_join(&dfs, &["joined1", "vendors", "stray"], cfg, either, "joined2");
    assert_eq!(corrupt, 2, "the truncated stray record and the truncated vendor");
    assert!(bytes(&joined2) > 0);

    // Agg-Join over the three-star join (and the stray two-star input): two
    // overlapping blocks, one of them α-gated, and a block whose two
    // multi-valued slots fold into one group per offer — offer 1060 (two
    // prices, on a product with two features) sums a + b + a + b, which
    // differs in f64 from the same fold with the slots' order swapped.
    let price = obj(1, PC);
    let (a, b) = (1.0 / 29.0, 1.0 / 30.0);
    assert_ne!(a + b + a + b, a + a + b + b, "the fold order must show in the bytes");
    let cfg = AggJoinConfig {
        specs: vec![
            block(0, vec![obj(0, PF), price], vec![0], &[(AggOp::Avg, Some(1)), (AggOp::Count, None)], has_feature(true)),
            block(
                1,
                vec![obj(2, PN), VarRef::Subject { star: 0 }, price],
                vec![0, 1],
                &[(AggOp::Max, Some(2)), (AggOp::Sum, Some(2))],
                AlphaCond::default(),
            ),
            block(
                2,
                vec![obj(0, PF), price, VarRef::Subject { star: 1 }],
                vec![2],
                &[(AggOp::Min, Some(1)), (AggOp::Sum, Some(1))],
                AlphaCond::default(),
            ),
        ],
        dict: prices(),
        inputs: vec![InputRoutes::Ann; 2],
        raw_filters: vec![],
        map_side_combine: true,
    };
    let [(_, with, corrupt), (_, without, _)] = agg_join(&dfs, &["joined2", "stray"], cfg, "aggs");
    assert_eq!(corrupt, 1, "the truncated stray record");
    assert!(with.0 < without.0, "combining must shrink the shuffle");

    // Agg-Join straight off the raw inputs: one scan, two single-star
    // filters (the first behind a value filter and a gate that shuts out
    // every fifth product but lets the truncated 199 in), one block each.
    // The route table prunes the product filter on the offers and walks the
    // products with both.
    let products = (100..140).filter(|i| i % 5 != 2).chain([199]).collect();
    let cfg = AggJoinConfig {
        specs: vec![
            block(0, vec![obj(0, PF)], vec![0], &[(AggOp::Count, None)], AlphaCond::default()),
            block(1, vec![obj(1, PV), price], vec![0], &[(AggOp::Sum, Some(1))], AlphaCond::default()),
        ],
        dict: prices(),
        inputs: vec![InputRoutes::Raw(vec![1]), InputRoutes::Raw(vec![0, 1])],
        raw_filters: vec![
            (product_star(), even_objects_of(PF, Some(products))),
            (offer_star(), ValueFilter::default()),
        ],
        map_side_combine: true,
    };
    for (blocks, _, corrupt) in agg_join(&dfs, &["offers", "products"], cfg, "raw_aggs") {
        assert_eq!(corrupt, 2, "one truncated record per raw input");
        assert!(bytes(&blocks) > 0);
    }
}

/// The route table's pruning is exact. A two-route shared scan over
/// class-homogeneous inputs — two offer classes around one product class,
/// each walked only by the route its class covers — must write, shuffle and
/// quarantine what the reference writes applying both routes to every
/// record. Every input ends in a truncated record, which the one route still
/// walking it must count. The entries are not symmetric in (input, route),
/// so a table read the wrong way round shows.
#[test]
fn route_table_pruning_is_byte_identical_to_the_reference() {
    let dfs = SimDfs::new();
    let offer = |j: u64, delivery: bool| {
        let mut pairs = vec![(PR, 100 + j % 12), (PC, 30 + j % 4), (PV, 500 + j % 3)];
        pairs.extend(delivery.then_some((PD, 2 + j % 5)));
        raw(1000 + j, pairs)
    };
    let product = |i: u64| raw(100 + i, vec![(TY, PT18 + u64::from(i % 5 == 4)), (PF, 60 + i % 4)]);
    put(&dfs, "offers", (0..30).map(|j| offer(j, false)).chain([cut(offer(30, false))]));
    put(&dfs, "products", (0..12).map(product).chain([cut(product(12))]));
    put(&dfs, "offers_with_delivery", (40..60).map(|j| offer(j, true)).chain([cut(offer(60, true))]));

    let cfg = TgJoinMapConfig {
        inputs: vec![InputRoutes::Raw(vec![1]), InputRoutes::Raw(vec![0]), InputRoutes::Raw(vec![1])],
        star_routes: vec![
            route(product_star(), Side::Left, JoinKey::Subject { star: 0 }, ValueFilter::default()),
            route(offer_star(), Side::Right, JoinKey::ObjectOf { star: 1, prop: PR }, ValueFilter::default()),
        ],
        ann_routes: vec![],
    };
    let inputs = ["offers", "products", "offers_with_delivery"];
    let (joined, (emitted, _), corrupt) = tg_join(&dfs, &inputs, cfg, vec![], "pruned");
    assert_eq!(corrupt, 3, "one truncated record per input");
    assert_eq!(emitted, 10 + 50, "the type-PT18 products and every offer");
    assert!(!joined.iter().all(Vec::is_empty));
}

/// A table without an entry for one of the job's inputs is a broken config,
/// not a silent filter: both mappers quarantine every record of that input.
#[test]
fn an_input_without_a_table_entry_is_quarantined() {
    let dfs = SimDfs::new();
    load(&dfs);
    let cfg = TgJoinMapConfig {
        inputs: vec![InputRoutes::Raw(vec![0])],
        star_routes: vec![route(product_star(), Side::Left, JoinKey::Subject { star: 0 }, ValueFilter::default())],
        ann_routes: vec![],
    };
    let (.., corrupt) = tg_join(&dfs, &["products", "vendors"], cfg, vec![], "short_table");
    assert_eq!(corrupt, 1 + 7, "the truncated product and every vendor record");

    let count = block(0, vec![obj(0, PF)], vec![], &[(AggOp::Count, None)], AlphaCond::default());
    let cfg = AggJoinConfig { specs: vec![count], ..AggJoinConfig::default() };
    for (blocks, _, corrupt) in agg_join(&dfs, &["stray"], cfg, "no_table") {
        assert_eq!(corrupt, 2, "both stray records");
        assert!(blocks.iter().all(Vec::is_empty));
    }
}

/// A value the α-join cannot route or decode is counted, not dropped in
/// silence, and the rest of the key group still joins: a zero-length value,
/// a side byte that is neither `Left` nor `Right`, a star tag too wide for a
/// `u8`. In a one-sided key only the unroutable values count.
#[test]
fn alpha_reducers_count_undecodable_values() {
    let left = tagged(Side::Left, &AnnTg::single(0, TripleGroup::new(1, vec![(PF, 7)])));
    let right = tagged(Side::Right, &AnnTg::single(1, TripleGroup::new(2, vec![(PR, 1)])));
    let flipped_side = [&[2], &right[1..]].concat();
    let mut wide_tag = vec![Side::Right.byte()];
    write_varint(&mut wide_tag, 1);
    write_varint(&mut wide_tag, 256);
    TripleGroup::new(3, vec![(PR, 1)]).encode(&mut wide_tag);
    let conds = Arc::new(Vec::new());
    let reducers: [Box<dyn ReduceTask>; 2] = [
        Box::new(AlphaJoinReducer::new(conds.clone())),
        Box::new(ReferenceAlphaJoinReduce(conds)),
    ];
    for (i, mut reducer) in reducers.into_iter().enumerate() {
        let mut out = ReduceOutput::default();
        reducer.reduce(b"k", &[&left, &[], &wide_tag, &flipped_side, &right], &mut out);
        assert_eq!((out.corrupt_records, out.records.len()), (3, 1), "reducer {i}");
        reducer.reduce(b"k", &[&left, &[], &cut(left.clone())], &mut out);
        assert_eq!((out.corrupt_records, out.records.len()), (4, 1), "reducer {i}");
    }
}
