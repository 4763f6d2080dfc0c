//! Golden plan snapshots for the cost-based enumerator: the chosen plan of
//! every Fig. 8 MG query × engine family is pinned as a textual dump in
//! `tests/snapshots/`. A planner or enumerator change that moves any chosen
//! plan fails here with a line diff.
//!
//! Regenerate after an intentional change with:
//! `RAPIDA_UPDATE_SNAPSHOTS=1 cargo test -p rapida-core --test plan_snapshots`

use rapida_core::engines::RapidPlus;
use rapida_core::enumerate::{enumerate_best, Enumerated, Family};
use rapida_core::{extract, AnalyticalQuery, DataCatalog, QueryEngine};
use rapida_datagen::{generate_bsbm, query, BsbmConfig};
use rapida_mapred::ClusterModel;
use rapida_sparql::parse_query;
use std::path::PathBuf;

fn catalog() -> DataCatalog {
    DataCatalog::load(&generate_bsbm(&BsbmConfig::tiny()))
}

fn aq_of(id: &str) -> AnalyticalQuery {
    extract(&parse_query(&query(id).sparql).unwrap()).unwrap()
}

fn snapshot_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/snapshots")
        .join(format!("{name}.txt"))
}

/// Compare `got` against the pinned snapshot `name`, with a line diff on
/// mismatch. `RAPIDA_UPDATE_SNAPSHOTS=1` rewrites the file instead.
fn assert_snapshot(name: &str, got: &str) {
    let path = snapshot_path(name);
    if std::env::var("RAPIDA_UPDATE_SNAPSHOTS").is_ok() {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, got).unwrap();
        return;
    }
    let want = std::fs::read_to_string(&path).unwrap_or_else(|_| {
        panic!(
            "missing snapshot {} — run with RAPIDA_UPDATE_SNAPSHOTS=1 to create it",
            path.display()
        )
    });
    if want == got {
        return;
    }
    let mut diff = String::new();
    for (i, line) in want.lines().enumerate() {
        let g = got.lines().nth(i).unwrap_or("<missing>");
        if line != g {
            diff.push_str(&format!("  line {}:\n    - {line}\n    + {g}\n", i + 1));
        }
    }
    let extra = got.lines().count().saturating_sub(want.lines().count());
    if extra > 0 {
        diff.push_str(&format!("  ({extra} extra line(s) in the new dump)\n"));
    }
    panic!(
        "plan snapshot '{name}' drifted:\n{diff}\nfull new dump:\n{got}\n\
         (if intentional: RAPIDA_UPDATE_SNAPSHOTS=1 cargo test -p rapida-core --test plan_snapshots)"
    );
}

fn chosen_dump(cat: &DataCatalog, id: &str, family: Family) -> String {
    let aq = aq_of(id);
    let model = ClusterModel::nodes10();
    let e = enumerate_best(family, &aq, cat, &model).unwrap();
    format!("choice: {}\n{}", e.choice, e.plan.dump())
}

#[test]
fn chosen_plans_match_snapshots() {
    let cat = catalog();
    for id in ["MG1", "MG2", "MG3", "MG4"] {
        assert_snapshot(
            &format!("{id}_hive"),
            &chosen_dump(&cat, id, Family::Hive),
        );
        assert_snapshot(
            &format!("{id}_rapid"),
            &chosen_dump(&cat, id, Family::Rapid),
        );
    }
}

/// Bit-exact textual form of an enumeration report: the choice, its measured
/// cost, and one tab-separated line per candidate (`name, incumbent, cycles,
/// estimated_s, measured_s`). Costs are written as `f64::to_bits` hex so the
/// comparison is exact; the decimal beside them is for readers only.
fn report_dump(e: &Enumerated) -> String {
    let bits = |x: f64| format!("{:016x}", x.to_bits());
    let mut s = format!(
        "choice\t{}\t{}\t{:.3}\n",
        e.choice,
        bits(e.measured_s),
        e.measured_s
    );
    for c in &e.candidates {
        s.push_str(&format!(
            "{}\t{}\t{}\t{}\t{}\t{:.3}\n",
            c.name,
            c.incumbent,
            c.cycles,
            bits(c.estimated_s),
            c.measured_s.map_or("-".into(), bits),
            c.estimated_s,
        ));
    }
    s
}

fn parse_bits(hex: &str) -> f64 {
    f64::from_bits(u64::from_str_radix(hex, 16).expect("cost is f64 bits in hex"))
}

/// Choice identity against the reports of the serial, run-every-incumbent
/// enumerator (the committed `enumerated_*.txt` were generated before dry
/// runs became candidate-parallel and bound-pruned, so they hold a measured
/// cost for every incumbent). Today's enumerator must pick the same
/// candidate at the bit-identical cost, measure every candidate it still
/// runs bit-identically, and may skip a dry run only where the golden cost
/// is strictly above the chosen one. Regenerating these files from today's
/// enumerator replaces the skipped costs with `-` and weakens that check.
#[test]
fn enumeration_reports_match_golden() {
    let cat = catalog();
    let model = ClusterModel::nodes10();
    for id in ["MG1", "MG2", "MG3", "MG4"] {
        for (family, fam) in [(Family::Hive, "hive"), (Family::Rapid, "rapid")] {
            let e = enumerate_best(family, &aq_of(id), &cat, &model).unwrap();
            let name = format!("enumerated_{id}_{fam}");
            if std::env::var("RAPIDA_UPDATE_SNAPSHOTS").is_ok() {
                assert_snapshot(&name, &report_dump(&e));
                continue;
            }
            let want = std::fs::read_to_string(snapshot_path(&name))
                .unwrap_or_else(|_| panic!("missing snapshot {name}"));
            let mut lines = want.lines().map(|l| l.split('\t').collect::<Vec<_>>());
            let head = lines.next().expect("choice line");
            assert_eq!(head[1], e.choice, "{name}: choice moved");
            let chosen = parse_bits(head[2]);
            assert_eq!(
                chosen.to_bits(),
                e.measured_s.to_bits(),
                "{name}: chosen cost moved"
            );
            let golden: Vec<Vec<&str>> = lines.collect();
            assert_eq!(golden.len(), e.candidates.len(), "{name}: candidate space");
            for (g, c) in golden.iter().zip(&e.candidates) {
                let got = format!(
                    "{}\t{}\t{}\t{:016x}",
                    c.name,
                    c.incumbent,
                    c.cycles,
                    c.estimated_s.to_bits()
                );
                assert_eq!(g[..4].join("\t"), got, "{name}: candidate moved");
                match (g[4], c.measured_s) {
                    ("-", None) => {}
                    ("-", Some(_)) => panic!("{name}: {} newly dry-run", c.name),
                    (hex, Some(m)) => assert_eq!(
                        parse_bits(hex).to_bits(),
                        m.to_bits(),
                        "{name}: {} measured cost moved",
                        c.name
                    ),
                    (hex, None) => assert!(
                        parse_bits(hex) > chosen,
                        "{name}: {} skipped although its golden cost {} does not \
                         exceed the chosen {chosen}",
                        c.name,
                        parse_bits(hex)
                    ),
                }
            }
        }
    }
}

/// The enumerator rediscovers the paper's NTGA plans: for the MG queries
/// the chosen RAPID-family plan is the RAPIDAnalytics composite shape —
/// shared star scans + parallel Agg-Join — at the paper's cycle count,
/// strictly below the fixed RAPID+ star-at-a-time plan.
#[test]
fn enumerator_rediscovers_ntga_star_grouping() {
    let cat = catalog();
    let model = ClusterModel::nodes10();
    for (id, ra_cycles, rp_cycles) in [("MG1", 3, 5), ("MG2", 3, 5), ("MG3", 4, 7)] {
        let aq = aq_of(id);
        let e = enumerate_best(Family::Rapid, &aq, &cat, &model).unwrap();
        assert_eq!(
            e.plan.cycles(),
            ra_cycles,
            "{id}: chosen RAPID plan should be the {ra_cycles}-cycle composite NTGA shape"
        );
        let fixed = RapidPlus::default().plan(&aq, &cat).unwrap();
        assert_eq!(fixed.cycles(), rp_cycles);
        assert!(
            e.plan.cycles() < fixed.cycles(),
            "{id}: enumerator must beat the fixed star-at-a-time plan"
        );
        assert!(
            e.choice.starts_with("rapida"),
            "{id}: expected a RAPIDAnalytics-shaped winner, got {}",
            e.choice
        );
    }
}

/// The chosen plan's measured cost is never worse than any fixed plan's
/// (every incumbent is shortlisted, then dry-run or pruned by its cost
/// floor).
#[test]
fn cost_model_opt_in_never_worse_than_fixed() {
    let cat = catalog();
    let model = ClusterModel::nodes10();
    let aq = aq_of("MG1");

    let e = enumerate_best(Family::Hive, &aq, &cat, &model).unwrap();
    assert_eq!(e.plan.engine, "Hive (cost-based)");
    for r in &e.candidates {
        if let (true, Some(m)) = (r.incumbent, r.measured_s) {
            assert!(
                e.measured_s <= m + 1e-9,
                "chosen ({}) measured {:.3}s worse than incumbent {} at {:.3}s",
                e.choice,
                e.measured_s,
                r.name,
                m
            );
        }
    }
}

/// Determinism: two independent enumerations of the same (query, stats,
/// model) choose the same candidate and produce byte-identical plan dumps
/// (`dump()` normalizes the per-compilation plan id away).
#[test]
fn enumeration_is_deterministic() {
    let cat = catalog();
    let model = ClusterModel::nodes10();
    for id in ["MG1", "MG3"] {
        let aq = aq_of(id);
        for family in [Family::Hive, Family::Rapid] {
            let a = enumerate_best(family, &aq, &cat, &model).unwrap();
            let b = enumerate_best(family, &aq, &cat, &model).unwrap();
            assert_eq!(a.choice, b.choice, "{id}: choice drifted between runs");
            assert_eq!(
                a.plan.dump(),
                b.plan.dump(),
                "{id}: plan dump bytes drifted between runs"
            );
            assert_eq!(
                a.candidates.len(),
                b.candidates.len(),
                "{id}: candidate space drifted"
            );
        }
    }
}
