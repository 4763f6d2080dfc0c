//! The experiment driver: regenerates every table and figure of the paper's
//! evaluation (§5) and prints paper-style markdown tables.
//!
//! Usage:
//! ```text
//! experiments [table3|fig8a|fig8b|fig8c|table4|cycles|ablations|all]
//! ```

use rapida_bench::{all_engines, render_table, results_json, speedups, table3_engines, Workbench};
use rapida_core::engines::{RapidAnalytics, RapidPlus};
use rapida_core::{PlanRules, QueryEngine};
use rapida_mapred::FaultPlan;

fn main() {
    let what = std::env::args().nth(1).unwrap_or_else(|| "all".to_string());
    match what.as_str() {
        "table3" => table3(),
        "fig8a" => fig8a(),
        "fig8b" => fig8b(),
        "fig8c" => fig8c(),
        "table4" => table4(),
        "cycles" => cycles(),
        "ablations" => ablations(),
        "chaos" => chaos(),
        "all" => {
            table3();
            fig8a();
            fig8b();
            fig8c();
            table4();
            cycles();
            ablations();
            chaos();
        }
        other => {
            eprintln!("unknown experiment '{other}'");
            eprintln!(
                "usage: experiments [table3|fig8a|fig8b|fig8c|table4|cycles|ablations|chaos|all]"
            );
            std::process::exit(2);
        }
    }
}

/// Table 3: G1–G4 on BSBM (both scales) and G5–G9 on Chem2Bio2RDF,
/// Hive vs RAPIDAnalytics.
fn table3() {
    let engines = table3_engines();
    for wb in [Workbench::bsbm_500k(), Workbench::bsbm_2m()] {
        let results: Vec<_> = ["G1", "G2", "G3", "G4"]
            .iter()
            .map(|id| wb.run_query(&engines, id))
            .collect();
        print!(
            "{}",
            render_table(&format!("Table 3 — {} (Hive vs RAPIDAnalytics)", wb.label), &results)
        );
    }
    let wb = Workbench::chem();
    let results: Vec<_> = ["G5", "G6", "G7", "G8", "G9"]
        .iter()
        .map(|id| wb.run_query(&engines, id))
        .collect();
    print!(
        "{}",
        render_table("Table 3 — Chem2Bio2RDF (Hive vs RAPIDAnalytics)", &results)
    );
}

fn fig8(label: &str, wb: &Workbench, ids: &[&str]) {
    let engines = all_engines();
    let results: Vec<_> = ids.iter().map(|id| wb.run_query(&engines, id)).collect();
    print!("{}", render_table(label, &results));
    for row in &results {
        let sp = speedups(row);
        let parts: Vec<String> = sp
            .iter()
            .map(|(e, f)| format!("{f:.1}x vs {e}"))
            .collect();
        println!("  {}: RAPIDAnalytics speedup: {}", row[0].query, parts.join(", "));
    }
}

/// Figure 8(a): MG1–MG4 on BSBM-500K, all four systems.
fn fig8a() {
    fig8(
        "Figure 8(a) — MG1–MG4 on BSBM-500K (all systems)",
        &Workbench::bsbm_500k(),
        &["MG1", "MG2", "MG3", "MG4"],
    );
}

/// Figure 8(b): MG1–MG4 on BSBM-2M.
fn fig8b() {
    fig8(
        "Figure 8(b) — MG1–MG4 on BSBM-2M (all systems)",
        &Workbench::bsbm_2m(),
        &["MG1", "MG2", "MG3", "MG4"],
    );
}

/// Figure 8(c): MG6–MG10 on Chem2Bio2RDF.
fn fig8c() {
    fig8(
        "Figure 8(c) — MG6–MG10 on Chem2Bio2RDF (all systems)",
        &Workbench::chem(),
        &["MG6", "MG7", "MG8", "MG9", "MG10"],
    );
}

/// Table 4: MG11–MG18 on PubMed, all four systems.
fn table4() {
    fig8(
        "Table 4 — MG11–MG18 on PubMed (all systems)",
        &Workbench::pubmed(),
        &["MG11", "MG12", "MG13", "MG14", "MG15", "MG16", "MG17", "MG18"],
    );
}

/// The §5.2 MR-cycle comparison table.
fn cycles() {
    let engines = all_engines();
    let wb = Workbench::bsbm_tiny();
    println!("\n### MR cycles per system (§5.2)\n");
    println!("| Query | Hive (Naive) | Hive (MQO) | RAPID+ | RAPIDAnalytics | paper |");
    println!("|---|---|---|---|---|---|");
    let paper = [
        ("MG1", "9 / 7 / 5 / 3"),
        ("MG3", "11 / 8 / 7 / 4"),
        ("G1", "4 / - / - / 2"),
    ];
    for (id, expect) in paper {
        let row = wb.run_query(&engines, id);
        print!("| {id} |");
        for r in &row {
            print!(" {} |", r.cycles);
        }
        println!(" {expect} |");
    }
}

/// Fault tolerance: MG1–MG4 on BSBM-500K under an aggressive fault plan vs
/// a perfect cluster. Prints the attempt ledger per engine and writes the
/// faulted rows as `CHAOS_fig8.json` (to `RAPIDA_BENCH_DIR`, default `.`).
fn chaos() {
    let mut wb = Workbench::bsbm_500k();
    let engines = all_engines();
    let ids = ["MG1", "MG2", "MG3", "MG4"];

    let clean: Vec<_> = ids.iter().map(|id| wb.run_query(&engines, id)).collect();
    wb.set_faults(Some(FaultPlan::chaotic(0xC4A05)));
    let faulted: Vec<_> = ids.iter().map(|id| wb.run_query(&engines, id)).collect();

    println!("\n### Fault tolerance — MG1–MG4 on BSBM-500K, chaotic fault plan\n");
    println!("| Query | Engine | sim s (clean) | sim s (faults) | attempts | retried | speculative | wasted MB | backoff s |");
    println!("|---|---|---|---|---|---|---|---|---|");
    for (crow, frow) in clean.iter().zip(&faulted) {
        for (c, f) in crow.iter().zip(frow) {
            assert_eq!(c.rows, f.rows, "fault recovery changed a result");
            println!(
                "| {} | {} | {:.0} | {:.0} | {} | {} | {} | {:.2} | {:.0} |",
                f.query,
                f.engine,
                c.sim_seconds,
                f.sim_seconds,
                f.task_attempts,
                f.retried_attempts,
                f.speculative_attempts,
                f.wasted_mb,
                f.backoff_s,
            );
        }
    }

    let dir = std::env::var("RAPIDA_BENCH_DIR").unwrap_or_else(|_| ".".to_string());
    if let Err(e) = std::fs::create_dir_all(&dir) {
        eprintln!("failed to create {dir}: {e}");
    }
    let path = format!("{dir}/CHAOS_fig8.json");
    let json = results_json("Fig. 8 workloads under chaotic faults (BSBM-500K)", &faulted);
    match std::fs::write(&path, json) {
        Ok(()) => println!("\nwrote {path}"),
        Err(e) => eprintln!("\nfailed to write {path}: {e}"),
    }
}

/// Ablations of the design choices DESIGN.md calls out.
fn ablations() {
    let wb = Workbench::bsbm_500k();
    println!("\n### Ablations (MG3 on BSBM-500K)\n");
    println!("| Variant | sim s | cycles | shuffle MB |");
    println!("|---|---|---|---|");
    let q = rapida_datagen::query("MG3");
    let variants: Vec<(&str, Box<dyn QueryEngine>)> = vec![
        ("RAPIDAnalytics (full)", Box::new(RapidAnalytics::default())),
        (
            "  − map-side hash agg",
            Box::new(PlanRules {
                map_side_agg: false,
                ..PlanRules::rapida()
            }),
        ),
        (
            "  − α-join pruning",
            Box::new(PlanRules {
                alpha_pruning: false,
                ..PlanRules::rapida()
            }),
        ),
        (
            "  − parallel Agg-Join (Fig. 6a)",
            Box::new(PlanRules {
                parallel_agg: false,
                ..PlanRules::rapida()
            }),
        ),
        (
            "  − composite GP (= RAPID+)",
            Box::new(RapidPlus::default()),
        ),
    ];
    for (label, engine) in variants {
        let r = wb.run(engine.as_ref(), &q).expect("ablation runs");
        println!(
            "| {label} | {:.0} | {} | {:.2} |",
            r.sim_seconds, r.cycles, r.shuffle_mb
        );
    }

    // α-join pruning needs crossed secondary properties to bite (Table 2
    // row 4); the MG catalog's blocks subsume one another, so measure it on
    // the Fig. 4-style validFrom/validTo query instead.
    println!("
### α-join pruning (crossed-secondary query, BSBM-500K)
");
    println!("| Variant | sim s | cycles | materialized MB |");
    println!("|---|---|---|---|");
    let q = rapida_bench::crossed_secondary_query();
    for (label, pruning) in [("with α-join pruning", true), ("without (all combos)", false)] {
        let engine = PlanRules {
            alpha_pruning: pruning,
            ..PlanRules::rapida()
        };
        let r = rapida_bench::run_sparql(&wb, &engine, "AQ-valid", &q).expect("runs");
        println!(
            "| {label} | {:.1} | {} | {:.4} |",
            r.sim_seconds, r.cycles, r.materialized_mb
        );
    }
}
