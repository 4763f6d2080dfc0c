//! Plan-structure unit tests: map-join thresholds, multi-key final joins,
//! out-of-scope constructs, and error reporting.

use rapida_core::engines::{HiveNaive, RapidAnalytics};
use rapida_core::rules::{left_deep_walk, Attach};
use rapida_core::{extract, DataCatalog, PlanError, PlanRules, QueryEngine};
use rapida_mapred::{Engine, Job};
use rapida_rdf::{vocab, Graph, Term};
use rapida_sparql::{evaluate, parse_query};
use rapida_testkit::prelude::*;

fn iri(s: &str) -> Term {
    Term::iri(format!("http://x/{s}"))
}

fn shop_graph() -> Graph {
    let mut g = Graph::new();
    for i in 0..40 {
        let p = iri(&format!("p{i}"));
        g.insert_terms(&p, &Term::iri(vocab::RDF_TYPE), &iri("T1"));
        g.insert_terms(&p, &iri("label"), &Term::literal(format!("p {i}")));
        let o = iri(&format!("o{i}"));
        g.insert_terms(&o, &iri("product"), &p);
        g.insert_terms(&o, &iri("price"), &Term::decimal(i as f64));
        g.insert_terms(&o, &iri("region"), &iri(&format!("r{}", i % 4)));
        g.insert_terms(&o, &iri("channel"), &iri(&format!("ch{}", i % 2)));
    }
    g
}

const G1_SHAPE: &str = "PREFIX ex: <http://x/>
    SELECT (COUNT(?pr) AS ?n) {
      ?p a ex:T1 ; ex:label ?l .
      ?o ex:product ?p ; ex:price ?pr .
    }";

/// The map-join threshold decides which cycles go map-only; correctness is
/// unaffected either way.
#[test]
fn map_join_threshold_controls_cycle_kinds() {
    let g = shop_graph();
    let cat = DataCatalog::load(&g);
    let mr = Engine::pinned(cat.dfs.clone());
    let query = parse_query(G1_SHAPE).unwrap();
    let aq = extract(&query).unwrap();
    let expected = evaluate(&query, &g).canonicalized(&g.dict);

    let run = |threshold: usize| {
        let engine = PlanRules {
            map_join_threshold: threshold,
            ..PlanRules::hive_naive()
        };
        let plan = engine.plan(&aq, &cat).unwrap();
        let map_only = plan.map_only_cycles();
        let (rel, _) = plan.try_execute(&mr, &aq, &cat.dict).expect("plan executes");
        assert_eq!(rel.canonicalized(&g.dict), expected, "threshold={threshold}");
        map_only
    };
    let none = run(0);
    let all = run(usize::MAX);
    assert_eq!(none, 0, "threshold 0 forbids map-joins");
    assert!(all >= 3, "huge threshold turns the joins map-only, got {all}");
}

/// A two-column shared grouping key joins correctly through the final
/// map-only join.
#[test]
fn final_join_on_two_shared_keys() {
    let g = shop_graph();
    let q = "PREFIX ex: <http://x/>
        SELECT ?r ?ch ?nA ?nB {
          { SELECT ?r ?ch (COUNT(?p1) AS ?nA)
            { ?o1 ex:region ?r ; ex:channel ?ch ; ex:price ?p1 . } GROUP BY ?r ?ch }
          { SELECT ?ch ?r (SUM(?p2) AS ?nB)
            { ?o2 ex:region ?r ; ex:channel ?ch ; ex:price ?p2 . } GROUP BY ?ch ?r }
        }";
    let query = parse_query(q).unwrap();
    let expected = evaluate(&query, &g).canonicalized(&g.dict);
    assert!(!expected.is_empty());
    let aq = extract(&query).unwrap();
    let cat = DataCatalog::load(&g);
    let mr = Engine::pinned(cat.dfs.clone());
    let plan = RapidAnalytics::default().plan(&aq, &cat).unwrap();
    let (rel, _) = plan.try_execute(&mr, &aq, &cat.dict).expect("plan executes");
    assert_eq!(rel.canonicalized(&g.dict), expected);
}

/// Unbound-property patterns are the paper's declared out-of-scope case —
/// the error must say so.
#[test]
fn unbound_property_is_rejected_with_scope_error() {
    let q = "SELECT (COUNT(?o) AS ?n) { ?s ?p ?o . }";
    let query = parse_query(q).unwrap();
    let err = extract(&query).unwrap_err();
    let msg = format!("{err}");
    assert!(
        msg.contains("unbound-property") || msg.contains("out of scope"),
        "error must cite the paper's scope: {msg}"
    );
}

/// PlanError displays are informative.
#[test]
fn plan_error_display() {
    let e = PlanError::Unsupported("variable-to-variable FILTER comparisons".into());
    assert!(format!("{e}").contains("unsupported"));
}

/// Engines reject disjunctive filters with a clear message, and the
/// reference evaluator still handles them (scope split).
#[test]
fn disjunctive_filter_rejected_by_engines_only() {
    let g = shop_graph();
    let q = "PREFIX ex: <http://x/>
        SELECT (COUNT(?pr) AS ?n) {
          ?o ex:price ?pr . FILTER(?pr < 3 || ?pr > 35)
        }";
    let query = parse_query(q).unwrap();
    // Reference handles it.
    let rel = evaluate(&query, &g);
    assert_eq!(rel.rows[0][0], rapida_sparql::Cell::Num(7.0));
    // The engine subset rejects it at planning time.
    let aq = extract(&query).unwrap();
    let cat = DataCatalog::load(&g);
    let Err(err) = RapidAnalytics::default().plan(&aq, &cat) else {
        panic!("disjunctive filter must be rejected");
    };
    assert!(format!("{err}").contains("disjunctive"));
}

/// Querying a property absent from the data yields clean empty results on
/// grouped blocks.
#[test]
fn absent_property_scans_empty() {
    let g = shop_graph();
    let q = "PREFIX ex: <http://x/>
        SELECT ?x (COUNT(?x) AS ?n) { ?s ex:nonexistent ?x . } GROUP BY ?x";
    let query = parse_query(q).unwrap();
    let aq = extract(&query).unwrap();
    let cat = DataCatalog::load(&g);
    let mr = Engine::pinned(cat.dfs.clone());
    for engine in [
        Box::new(HiveNaive::default()) as Box<dyn QueryEngine>,
        Box::new(RapidAnalytics::default()),
    ] {
        let plan = engine.plan(&aq, &cat).unwrap();
        let (rel, _) = plan.try_execute(&mr, &aq, &cat.dict).expect("plan executes");
        assert!(rel.is_empty(), "{}", engine.name());
    }
}

fn ends_of(dec: &rapida_sparql::analysis::StarDecomposition) -> Vec<(usize, usize)> {
    let ends = dec.joins.iter().map(|j| (j.left.star, j.right.star));
    ends.collect()
}

/// The join jobs of unit 0, which must be tagged `join u0 k0..` in order.
fn join_jobs(rules: &PlanRules, aq: &rapida_core::AnalyticalQuery, cat: &DataCatalog) -> Vec<Job> {
    let plan = rules.plan(aq, cat).unwrap();
    let is_join = |j: &Job| j.tag.starts_with("join ");
    let jobs: Vec<Job> = plan.jobs.into_iter().filter(is_join).collect();
    for (k, job) in jobs.iter().enumerate() {
        assert_eq!(job.tag, format!("join u0 k{k}"), "{}", rules.name());
    }
    jobs
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 48,
        ..ProptestConfig::default()
    })]

    /// Over a random tree of stars and any permutation of its edges as the
    /// join order — connected prefixes or not — both planners run exactly
    /// the cycles of `left_deep_walk`, which is what the coster prices.
    #[test]
    fn both_planners_run_the_walk(
        parents in prop::collection::vec(any::<u8>(), 1..5),
        keys in prop::collection::vec(any::<u8>(), 4..5),
    ) {
        // Star i > 0 hangs off star `parents[i-1] % i` by an edge of its own
        // variable: `?s<parent> ex:e<i> ?s<i>`.
        let n = parents.len() + 1;
        let mut g = Graph::new();
        let mut pattern = String::new();
        for i in 0..n {
            let node = iri(&format!("n{i}"));
            g.insert_terms(&node, &iri(&format!("v{i}")), &Term::integer(i as i64));
            pattern += &format!("?s{i} ex:v{i} ?v{i} . ");
        }
        for (child, p) in parents.iter().enumerate() {
            let (i, p) = (child + 1, usize::from(*p) % (child + 1));
            let (parent, node) = (iri(&format!("n{p}")), iri(&format!("n{i}")));
            g.insert_terms(&parent, &iri(&format!("e{i}")), &node);
            pattern += &format!("?s{p} ex:e{i} ?s{i} . ");
        }
        let q = format!("PREFIX ex: <http://x/> SELECT (COUNT(?v0) AS ?c) {{ {pattern} }}");
        let aq = extract(&parse_query(&q).unwrap()).unwrap();
        let cat = DataCatalog::load(&g);
        let dec = aq.blocks[0].decomposition().unwrap();
        let ends = ends_of(&dec);
        let mut order: Vec<usize> = (0..ends.len()).collect();
        order.sort_by_key(|&e| keys[e]);
        let steps = left_deep_walk(n, &order, &ends).unwrap();
        prop_assert_eq!(steps.len(), n - 1);

        // No map-joins, whose labels carry a suffix.
        let hive = PlanRules {
            join_orders: vec![order.clone()],
            map_join_threshold: 0,
            ..PlanRules::hive_naive()
        };
        let ran: Vec<String> = join_jobs(&hive, &aq, &cat)
            .into_iter()
            .map(|j| j.name)
            .collect();
        let walked: Vec<String> = steps
            .iter()
            .map(|s| format!("Hive b0:join {}", dec.joins[s.edge].var))
            .collect();
        prop_assert_eq!(ran, walked, "order {:?}", order);

        // A tg-join's sig lists the star specs its map side scans.
        let rapid = PlanRules {
            join_orders: vec![order.clone()],
            ..PlanRules::rapid_plus()
        };
        let scanned = |j: &Job| -> Vec<usize> {
            let specs = j.sig.split("StarSpec { star: ").skip(1);
            let star = |rest: &str| rest.split(',').next().unwrap().parse().unwrap();
            specs.map(star).collect()
        };
        let ran: Vec<Vec<usize>> = join_jobs(&rapid, &aq, &cat)
            .iter()
            .map(scanned)
            .collect();
        let walked: Vec<Vec<usize>> = steps
            .iter()
            .map(|s| match s.attach {
                Attach::First(l, r) => vec![l, r],
                Attach::Star(new) => vec![new],
            })
            .collect();
        prop_assert_eq!(ran, walked, "order {:?}", order);
    }
}

/// A cyclic star graph is the walk's error, from whichever planner hits it.
#[test]
fn a_cyclic_star_graph_is_the_same_error_everywhere() {
    let q = "PREFIX ex: <http://x/>
        SELECT (COUNT(?a) AS ?n) { ?a ex:p ?b . ?b ex:q ?c . ?c ex:r ?a . }";
    let aq = extract(&parse_query(q).unwrap()).unwrap();
    let cat = DataCatalog::load(&shop_graph());
    let dec = aq.blocks[0].decomposition().unwrap();
    let walk_err = left_deep_walk(dec.stars.len(), &[], &ends_of(&dec)).unwrap_err();
    assert!(format!("{walk_err}").contains("cyclic"), "{walk_err}");
    for rules in [PlanRules::hive_naive(), PlanRules::rapid_plus()] {
        let planned = rules.plan(&aq, &cat).err();
        assert_eq!(planned, Some(walk_err.clone()), "{}", rules.name());
    }
}
