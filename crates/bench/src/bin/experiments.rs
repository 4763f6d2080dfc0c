//! The experiment driver: regenerates every table and figure of the paper's
//! evaluation (§5) and prints paper-style markdown tables.
//!
//! Usage:
//! ```text
//! experiments [table3|fig8a|fig8b|fig8c|table4|cycles|ablations|chaos|choice|all]
//! ```

use rapida_bench::{all_engines, render_table, results_json, speedups, table3_engines, Workbench};
use rapida_core::engines::{RapidAnalytics, RapidPlus};
use rapida_core::enumerate::{dry_run_every_candidate, CandidateRun};
use rapida_core::{enumerate_best, extract, DataCatalog, Family, PlanRules, QueryEngine};
use rapida_datagen::{
    catalog, generate_bsbm, generate_chem, generate_pubmed, BsbmConfig, ChemConfig, PubmedConfig,
    Workload,
};
use rapida_mapred::{ClusterModel, FaultPlan, JobMetrics};

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
        "choice" => choice(),
        "all" => {
            table3();
            fig8a();
            fig8b();
            fig8c();
            table4();
            cycles();
            ablations();
            chaos();
            choice();
        }
        other => {
            eprintln!("unknown experiment '{other}'");
            eprintln!(
                "usage: experiments [table3|fig8a|fig8b|fig8c|table4|cycles|ablations|chaos|choice|all]"
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
            print!(" {} |", r.wf.cycles());
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
                f.wf.total(JobMetrics::task_attempts),
                f.wf.total(|j| j.failed_attempts),
                f.wf.total(|j| j.speculative_attempts),
                f.wf.total(|j| j.wasted_output_bytes) as f64 / 1e6,
                f.wf.total(|j| j.backoff_s),
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
            r.sim_seconds,
            r.wf.cycles(),
            r.wf.total(|j| j.shuffle_bytes) as f64 / 1e6
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
            r.sim_seconds,
            r.wf.cycles(),
            r.wf.total(|j| j.output_bytes) as f64 / 1e6
        );
    }
}

/// One (dataset, query, family) cell of the plan-choice sweep. Each pick is
/// a candidate name and that candidate's measured cost.
struct ChoiceCell {
    label: String,
    /// The cheapest estimate.
    estimate_pick: (String, f64),
    enumerator_pick: (String, f64),
    measured_best: (String, f64),
}

/// Do the dry runs earn their keep? Every compiled candidate of every
/// catalog query × family is executed, on the nodes10 model over tiny,
/// small and five 8k-product BSBM graphs (seeds 43–47) and the chem and
/// PubMed graphs at both sizes, then on the four paper workbenches. Per
/// cell: what choosing by estimate alone picks, what `enumerate_best`
/// picks, the measured best of all candidates, the largest |estimate −
/// measured|, the rank inversions (pairs the estimate orders against their
/// measured costs), and how many workflows the enumerator executed.
fn choice() {
    let nodes10 = ClusterModel::nodes10();
    println!("\n### Plan choice — estimate alone vs dry runs vs every candidate run\n");
    println!("| Dataset | Query | Family | estimate's pick | enumerator's pick | measured best | est − enum s | enum − best s | max abs(est − meas) s | inversions | dry runs |");
    println!("|---|---|---|---|---|---|---|---|---|---|---|");
    let mut cells = Vec::new();
    let mut sweep = |label: &str, cat: &DataCatalog, model: &ClusterModel, workload: Workload| {
        for q in catalog().into_iter().filter(|q| q.workload == workload) {
            let parsed = rapida_sparql::parse_query(&q.sparql).expect("catalog query parses");
            let aq = extract(&parsed).expect("catalog query extracts");
            for family in [Family::Hive, Family::Rapid] {
                let cell = format!("{label} {} {family:?}", q.id);
                let all = dry_run_every_candidate(family, &aq, cat, model)
                    .unwrap_or_else(|e| panic!("{cell}: {e}"));
                let e = enumerate_best(family, &aq, cat, model)
                    .unwrap_or_else(|e| panic!("{cell}: {e}"));
                cells.push(choice_row(&cell, &all, &e));
            }
        }
    };
    let bsbm = |cfg: BsbmConfig| DataCatalog::load(&generate_bsbm(&cfg));
    sweep("bsbm-tiny", &bsbm(BsbmConfig::tiny()), &nodes10, Workload::Bsbm);
    sweep("bsbm-small", &bsbm(BsbmConfig::small()), &nodes10, Workload::Bsbm);
    for seed in 43..=47 {
        let cat = bsbm(BsbmConfig {
            seed,
            ..BsbmConfig::large()
        });
        sweep(&format!("bsbm-8k/{seed}"), &cat, &nodes10, Workload::Bsbm);
    }
    for (label, graph) in [
        ("chem-tiny", generate_chem(&ChemConfig::tiny())),
        ("chem", generate_chem(&ChemConfig::default())),
    ] {
        sweep(label, &DataCatalog::load(&graph), &nodes10, Workload::Chem);
    }
    for (label, graph) in [
        ("pubmed-tiny", generate_pubmed(&PubmedConfig::tiny())),
        ("pubmed", generate_pubmed(&PubmedConfig::default())),
    ] {
        sweep(label, &DataCatalog::load(&graph), &nodes10, Workload::Pubmed);
    }
    for (wb, workload) in [
        (Workbench::bsbm_500k(), Workload::Bsbm),
        (Workbench::bsbm_2m(), Workload::Bsbm),
        (Workbench::chem(), Workload::Chem),
        (Workbench::pubmed(), Workload::Pubmed),
    ] {
        sweep(wb.label, &wb.cat, &wb.model, workload);
    }

    let losses: Vec<&ChoiceCell> = cells
        .iter()
        .filter(|c| c.estimate_pick.1 > c.enumerator_pick.1)
        .collect();
    let misses = cells
        .iter()
        .filter(|c| c.enumerator_pick.1 > c.measured_best.1)
        .count();
    println!(
        "\n{} cells; the enumerator's pick is the measured best of all candidates in {}.",
        cells.len(),
        cells.len() - misses
    );
    println!(
        "Choosing by estimate alone loses in {} cells:\n",
        losses.len()
    );
    println!("| Cell | estimate's pick | enumerator's pick | loss s |");
    println!("|---|---|---|---|");
    for c in losses {
        println!(
            "| {} | {} ({:.3}) | {} ({:.3}) | {} |",
            c.label,
            c.estimate_pick.0,
            c.estimate_pick.1,
            c.enumerator_pick.0,
            c.enumerator_pick.1,
            gap(c.estimate_pick.1 - c.enumerator_pick.1)
        );
    }
}

/// A cost gap in model seconds: three decimals, or one significant digit
/// below a millisecond, so a sub-millisecond loss does not print as zero.
fn gap(s: f64) -> String {
    match s.abs() {
        0.0 => "0".into(),
        a if a < 1e-3 => format!("{s:.1e}"),
        _ => format!("{s:.3}"),
    }
}

/// Print one sweep cell's table row and return what the summary needs.
fn choice_row(label: &str, all: &[CandidateRun], e: &rapida_core::Enumerated) -> ChoiceCell {
    let names: Vec<&str> = e.candidates.iter().map(|c| c.name.as_str()).collect();
    let run_names: Vec<&str> = all.iter().map(|c| c.name.as_str()).collect();
    assert_eq!(names, run_names, "{label}: candidate spaces differ");
    let by = |key: fn(&CandidateRun) -> f64| {
        all.iter()
            .min_by(|a, b| key(a).total_cmp(&key(b)))
            .expect("a family has candidates")
    };
    let est = by(|c| c.estimated_s);
    let best = by(|c| c.measured_s);
    let max_err = all
        .iter()
        .map(|c| (c.estimated_s - c.measured_s).abs())
        .fold(0.0, f64::max);
    let mut inversions = 0;
    for (i, a) in all.iter().enumerate() {
        for b in &all[i + 1..] {
            let by_est = a.estimated_s.total_cmp(&b.estimated_s);
            let by_meas = a.measured_s.total_cmp(&b.measured_s);
            inversions += usize::from(by_est.is_ne() && by_meas.is_ne() && by_est != by_meas);
        }
    }
    // Executed workflows: one per fingerprint class with a measured cost (a
    // plan without a fingerprint is a class of its own).
    let mut executed: Vec<Option<&str>> = Vec::new();
    for (c, run) in e.candidates.iter().zip(all) {
        let class = run.fingerprint.as_deref();
        if c.measured_s.is_some() && (class.is_none() || !executed.contains(&class)) {
            executed.push(class);
        }
    }
    let cell = ChoiceCell {
        label: label.to_string(),
        estimate_pick: (est.name.clone(), est.measured_s),
        enumerator_pick: (e.choice.clone(), e.measured_s),
        measured_best: (best.name.clone(), best.measured_s),
    };
    println!(
        "| {} | {} ({:.3}) | {} ({:.3}) | {} ({:.3}) | {} | {} | {:.3} | {} | {} |",
        label.replace(' ', " | "),
        cell.estimate_pick.0,
        cell.estimate_pick.1,
        cell.enumerator_pick.0,
        cell.enumerator_pick.1,
        cell.measured_best.0,
        cell.measured_best.1,
        gap(cell.estimate_pick.1 - cell.enumerator_pick.1),
        gap(cell.enumerator_pick.1 - cell.measured_best.1),
        max_err,
        inversions,
        executed.len()
    );
    cell
}
