//! Allocation-budget test for the zero-copy operator path.
//!
//! Installs [`rapida_testkit::alloc_gauge::CountingAlloc`] as this test
//! binary's global allocator and drives [`TgJoinMapper`] directly over a
//! batch of encoded triplegroup records, comparing allocator traffic with
//! the owned-decode mapper it replaced ([`common::ReferenceTgJoinMap`]):
//!
//! * once its scratch buffers are warm, the mapper must stay under a
//!   small allocations-per-record ceiling (steady state is zero: records
//!   are parsed as views and emits reuse two cleared buffers);
//! * the owned mapper allocates per record (owned decode, per-route clone,
//!   fresh key/value `Vec`s per emit), so the mapper must come in at
//!   least 3x below it on identical input;
//! * over two classes on two inputs, one walked by one route and the other
//!   by two, the warm mapper allocates nothing at all (the route table is
//!   one lookup per record);
//! * behind a value filter — numeric, id and substring predicates on a
//!   primary and a secondary property — and a subject gate, the warm
//!   mapper allocates nothing at all: the filter is checked inside the one
//!   walk.
//!
//! The downstream operators carry the same guarantee, checked the same way:
//! a warm [`AggJoinMapper`] over annotated records (star directory + slot
//! program + map-side combine) and a warm [`AlphaJoinReducer`] over
//! two-sided key groups (one directory walk per value, span-copy merge)
//! allocate nothing per record or key group.
//!
//! Everything is measured single-threaded in one `#[test]` — the gauge's
//! counters are global.

mod common;

use common::{dict_of, outcomes, tagged, ReferenceTgJoinMap};
use rapida_mapred::{InputSrc, KvBuffer, MapOutput, MapTask, ReduceOutput, ReduceTask};
use rapida_ntga::{
    AggJoinConfig, AggJoinMapper, AggJoinSpec, AggOp, AggSpec, AlphaCond, AlphaJoinReducer,
    AlphaTerm, AnnTg, IdPred, InputRoutes, JoinKey, PropReq, Side, StarRoute, StarSpec,
    TgJoinMapConfig, TgJoinMapper, TripleGroup, ValueFilter, VarRef,
};
use rapida_rdf::{Dictionary, Term};
use rapida_sparql::ast::CmpOp;
use rapida_testkit::alloc_gauge::{self, CountingAlloc};
use std::sync::Arc;

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc::new();

const RECORDS: usize = 2_000;
const PRODUCT: u64 = 3;
const PRICE: u64 = 4;
const DELIVERY: u64 = 5;
const OFFER: u64 = 6;

fn encoded(s: u64, triples: Vec<(u64, u64)>) -> Vec<u8> {
    let mut rec = Vec::new();
    TripleGroup::new(s, triples).encode(&mut rec);
    rec
}

/// A product/price star with an optional delivery-days secondary — two
/// thirds of the records match, one third fails the primary check. All on
/// input 0.
fn records() -> Vec<(usize, Vec<u8>)> {
    (0..RECORDS)
        .map(|i| {
            let s = 1_000 + i as u64;
            let triples = match i % 3 {
                0 => vec![(PRODUCT, s % 97), (PRICE, 10 + s % 50)],
                1 => vec![(PRODUCT, s % 97), (PRICE, 10 + s % 50), (DELIVERY, 7)],
                _ => vec![(PRICE, 10 + s % 50)], // no product: filtered out
            };
            (0, encoded(s, triples))
        })
        .collect()
}

fn product_route() -> StarRoute {
    StarRoute {
        spec: StarSpec {
            star: 0,
            primary: vec![PropReq::any(PRODUCT), PropReq::any(PRICE)],
            secondary: vec![PropReq::any(DELIVERY)],
        },
        side: Side::Left,
        key: JoinKey::Subject { star: 0 },
        filter: ValueFilter::default(),
    }
}

fn config() -> Arc<TgJoinMapConfig> {
    Arc::new(TgJoinMapConfig {
        inputs: vec![InputRoutes::Raw(vec![0])],
        star_routes: vec![product_route()],
        ann_routes: Vec::new(),
    })
}

/// Two classes interleaved record by record: products on input 0, offers
/// (offer → product, price) on input 1.
fn two_class_records() -> Vec<(usize, Vec<u8>)> {
    (0..RECORDS as u64)
        .map(|i| match i % 2 {
            0 => (0, encoded(1_000 + i, vec![(PRODUCT, i % 97), (PRICE, 10 + i % 50)])),
            _ => (1, encoded(9_000 + i, vec![(OFFER, 1_000 + i - 1), (PRICE, 10 + i % 50)])),
        })
        .collect()
}

/// The product route and an offer route keyed by the product it sells. The
/// products' entry lists the product route alone; the offers' lists both,
/// so each offer fails the product route before it passes its own.
fn two_class_config() -> Arc<TgJoinMapConfig> {
    let offer = StarRoute {
        spec: StarSpec {
            star: 1,
            primary: vec![PropReq::any(OFFER), PropReq::any(PRICE)],
            secondary: Vec::new(),
        },
        side: Side::Right,
        key: JoinKey::ObjectOf { star: 1, prop: OFFER },
        filter: ValueFilter::default(),
    };
    Arc::new(TgJoinMapConfig {
        inputs: vec![InputRoutes::Raw(vec![0]), InputRoutes::Raw(vec![0, 1])],
        star_routes: vec![product_route(), offer],
        ann_routes: Vec::new(),
    })
}

/// Ids `0..100`: the prices 10..60 are the integers equal to their ids,
/// the delivery 7 is `"7 days"`, and every other id `i` is `"t{i}"`.
fn dictionary() -> Arc<Dictionary> {
    dict_of(100, |i| match i {
        7 => Some(Term::literal("7 days")),
        10..60 => Some(Term::integer(i as i64)),
        _ => None,
    })
}

/// The product route behind a pushed-down FILTER — prices of at least 20,
/// delivery in 7 days, spelled with a `7` — and a subject gate that shuts
/// out every seventh product.
fn filtered_config() -> Arc<TgJoinMapConfig> {
    let filter = ValueFilter {
        preds: vec![
            (PRICE, IdPred::Num { op: CmpOp::Ge, rhs: 20.0 }),
            (DELIVERY, IdPred::IdEq { eq: true, rhs: 7 }),
            (DELIVERY, IdPred::Contains { pattern: "7".into(), case_insensitive: false }),
        ],
        subjects: Some(Arc::new((1_000..1_000 + RECORDS as u64).filter(|s| s % 7 != 0).collect())),
        dict: dictionary(),
    };
    Arc::new(TgJoinMapConfig {
        inputs: vec![InputRoutes::Raw(vec![0])],
        star_routes: vec![StarRoute { filter, ..product_route() }],
        ann_routes: Vec::new(),
    })
}

/// Sized so the pre-built output sink never grows during the measured pass.
fn sized_output() -> MapOutput {
    MapOutput {
        kvs: KvBuffer::with_capacity(2 * RECORDS, 128 * RECORDS),
        ..MapOutput::default()
    }
}

/// One warm-up pass (fills the mapper's scratch buffers), then a measured
/// pass into a pre-sized sink. Returns `(allocations, emitted pairs)`.
fn measure(mut mapper: impl MapTask, recs: &[(usize, Vec<u8>)]) -> (u64, usize) {
    let mut warm = sized_output();
    for (dataset, r) in recs {
        mapper.map(InputSrc { dataset: *dataset }, r, &mut warm);
    }
    let mut out = sized_output();
    alloc_gauge::reset();
    for (dataset, r) in recs {
        mapper.map(InputSrc { dataset: *dataset }, r, &mut out);
    }
    let (allocs, _bytes) = alloc_gauge::counters();
    assert_eq!(out.kvs.len(), warm.kvs.len(), "passes must emit identically");
    (allocs, out.kvs.len())
}

/// Joined product ⋈ offer records, as the α-join writes them: star 0 the
/// product (one or two features), star 1 the offer.
fn joined_records() -> Vec<Vec<u8>> {
    (0..RECORDS as u64)
        .map(|i| {
            let mut product = vec![(PRODUCT, i % 97), (DELIVERY, i % 5)];
            if i % 4 == 0 {
                product.push((DELIVERY, 5 + i % 3));
            }
            AnnTg {
                groups: vec![
                    (0, TripleGroup::new(1_000 + i % 300, product)),
                    (1, TripleGroup::new(5_000 + i, vec![(PRICE, 10 + i % 50)])),
                ],
            }
            .encoded()
        })
        .collect()
}

/// Two overlapping blocks, as a composite pattern's Agg-Join carries them.
fn agg_config() -> Arc<AggJoinConfig> {
    let price = VarRef::ObjectOf { star: 1, prop: PRICE };
    let delivery = VarRef::ObjectOf { star: 0, prop: DELIVERY };
    let sum_price = |arg| AggSpec { op: AggOp::Sum, arg: Some(arg) };
    Arc::new(AggJoinConfig {
        specs: vec![
            AggJoinSpec {
                id: 0,
                slots: vec![VarRef::Subject { star: 0 }, delivery, price],
                group_slots: vec![1],
                aggs: vec![sum_price(2), AggSpec { op: AggOp::Count, arg: None }],
                alpha: AlphaCond {
                    terms: vec![AlphaTerm { star: 0, prop: DELIVERY, required: true }],
                },
            },
            AggJoinSpec {
                id: 1,
                slots: vec![price],
                group_slots: vec![],
                aggs: vec![sum_price(0)],
                alpha: AlphaCond::default(),
            },
        ],
        dict: dictionary(),
        inputs: vec![InputRoutes::Ann],
        raw_filters: Vec::new(),
        map_side_combine: true,
    })
}

/// Allocations of a second pass of a warm [`AggJoinMapper`] over `recs`
/// (the first pass grows the scratch and the combine table; `cleanup`
/// drains the table but keeps its capacity).
fn measure_agg_map(recs: &[Vec<u8>]) -> u64 {
    let src = InputSrc { dataset: 0 };
    let mut mapper = AggJoinMapper::new(agg_config());
    let mut out = MapOutput {
        kvs: KvBuffer::with_capacity(64, 4096),
        ..MapOutput::default()
    };
    for r in recs {
        mapper.map(src, r, &mut out);
    }
    mapper.cleanup(&mut out);
    let groups = out.kvs.len();
    assert!(groups > 5, "the combine table must hold several groups");
    alloc_gauge::reset();
    for r in recs {
        mapper.map(src, r, &mut out);
    }
    let (allocs, _bytes) = alloc_gauge::counters();
    mapper.cleanup(&mut out);
    assert_eq!(out.kvs.len(), 2 * groups, "passes must fold identically");
    assert_eq!(out.corrupt_records, 0);
    allocs
}

/// Allocations of a second pass of a warm [`AlphaJoinReducer`] over key
/// groups of one product value and 1–4 offer values each.
fn measure_alpha_reduce() -> (u64, usize) {
    let groups: Vec<Vec<Vec<u8>>> = (0..RECORDS as u64)
        .map(|k| {
            let mut product = vec![(PRODUCT, k % 97)];
            if k % 2 == 0 {
                product.push((DELIVERY, 7));
            }
            let mut values = vec![tagged(Side::Left, &AnnTg::single(0, TripleGroup::new(k, product)))];
            values.extend((0..=k % 4).map(|o| {
                let offer = TripleGroup::new(9_000 + 4 * k + o, vec![(PRICE, 10 + o)]);
                tagged(Side::Right, &AnnTg::single(1, offer))
            }));
            values
        })
        .collect();
    let conds = Arc::new(vec![AlphaCond {
        terms: vec![AlphaTerm { star: 0, prop: DELIVERY, required: true }],
    }]);
    // The engine hands the reducer borrowed values; build the slices once.
    let groups: Vec<Vec<&[u8]>> = groups
        .iter()
        .map(|values| values.iter().map(Vec::as_slice).collect())
        .collect();
    let mut reducer = AlphaJoinReducer::new(conds);
    let mut out = ReduceOutput::default();
    for values in &groups {
        reducer.reduce(b"k", values, &mut out);
    }
    let joined = out.records.len();
    alloc_gauge::reset();
    for values in &groups {
        reducer.reduce(b"k", values, &mut out);
    }
    let (allocs, _bytes) = alloc_gauge::counters();
    assert_eq!(out.records.len(), 2 * joined, "passes must join identically");
    assert_eq!(out.corrupt_records, 0);
    (allocs, joined)
}

#[test]
fn view_path_allocations_bounded() {
    let agg_allocs = measure_agg_map(&joined_records());
    assert_eq!(agg_allocs, 0, "warm Agg-Join map must not allocate");
    let (join_allocs, joined) = measure_alpha_reduce();
    assert_eq!(joined, RECORDS, "half the products pass α, 1 or 3 offers each");
    // `RecBuffer` cannot be pre-sized: doubling its two arenas once each as
    // the sink goes from one pass's records to two is the sink's cost.
    assert!(
        join_allocs <= 2,
        "warm α-join reduce allocated {join_allocs} times over {RECORDS} key groups"
    );

    let recs = records();
    let (view_allocs, view_pairs) = measure(TgJoinMapper::new(config()), &recs);
    let (owned_allocs, owned_pairs) = measure(ReferenceTgJoinMap(config()), &recs);
    assert_eq!(view_pairs, owned_pairs, "variants must agree on output");
    assert!(view_pairs > RECORDS / 2, "most records should pass the filter");

    // Absolute ceiling: warm view path is allocation-free per record; allow
    // 0.05 allocs/record of slack for incidental growth.
    let ceiling = (RECORDS / 20) as u64;
    assert!(
        view_allocs <= ceiling,
        "view path allocated {view_allocs} times over {RECORDS} records \
         (ceiling {ceiling})"
    );

    // Relative floor: the owned-decode reference allocates every record
    // (decode + clone + fresh emit buffers); views must be at least 3x
    // below it.
    assert!(
        owned_allocs >= 3 * RECORDS as u64,
        "the owned reference should allocate per record, got {owned_allocs}"
    );
    assert!(
        view_allocs * 3 <= owned_allocs,
        "view path ({view_allocs}) must allocate at least 3x less than \
         the owned reference ({owned_allocs})"
    );

    // A two-class, two-route shared scan: one route-table lookup per
    // record, nothing allocated.
    let recs = two_class_records();
    let (table_allocs, table_pairs) = measure(TgJoinMapper::new(two_class_config()), &recs);
    let (_, owned_pairs) = measure(ReferenceTgJoinMap(two_class_config()), &recs);
    assert_eq!(table_pairs, owned_pairs, "variants must agree on output");
    assert_eq!(table_pairs, RECORDS, "every product and every offer passes");
    assert_eq!(table_allocs, 0, "a warm two-route scan must not allocate");

    // A filtered and gated route: the same walk, nothing allocated.
    let recs = records();
    let (filtered_allocs, filtered_pairs) = measure(TgJoinMapper::new(filtered_config()), &recs);
    let (_, owned_pairs) = measure(ReferenceTgJoinMap(filtered_config()), &recs);
    assert_eq!(filtered_pairs, owned_pairs, "variants must agree on output");
    assert!(0 < filtered_pairs && filtered_pairs < view_pairs, "the filter must drop some, not all");
    assert_eq!(filtered_allocs, 0, "a warm filtered and gated route must not allocate");
    // Over the dictionary's 100 ids, each predicate admits some and rejects
    // others: prices 20..60, the delivery 7, and the 19 forms holding a 7.
    let filter = &filtered_config().star_routes[0].filter;
    assert_eq!(outcomes(filter), [(40, 60), (1, 99), (19, 81)]);
}
