//! The experiment reports against their frozen bytes: `results_json` and
//! `render_table` for MG1 on every engine over the tiny BSBM workbench, once
//! on a clean cluster and once under `FaultPlan::chaotic(0xBEEF)`. Neither
//! report prints `wall_ms`, so every byte is a pure function of catalog,
//! query, fault plan and cluster model. The file is
//! `tests/snapshots/report_golden.txt`; `RAPIDA_UPDATE_SNAPSHOTS=1` rewrites
//! it — do that only for a change meant to move a report.

use rapida_bench::{all_engines, render_table, results_json, Workbench};
use rapida_mapred::FaultPlan;
use std::path::PathBuf;

#[test]
fn reports_match_the_golden() {
    let mut wb = Workbench::bsbm_tiny();
    let engines = all_engines();
    let mut got = String::new();
    for (title, faults) in [("clean", None), ("chaotic 0xBEEF", Some(FaultPlan::chaotic(0xBEEF)))] {
        wb.set_faults(faults);
        let results = vec![wb.run_query(&engines, "MG1")];
        got.push_str(&results_json(title, &results));
        got.push_str(&render_table(title, &results));
    }
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/snapshots/report_golden.txt");
    if std::env::var("RAPIDA_UPDATE_SNAPSHOTS").is_ok() {
        std::fs::write(&path, &got).unwrap();
    }
    let pinned = std::fs::read_to_string(&path).expect("tests/snapshots/report_golden.txt is committed");
    assert_eq!(got, pinned, "an experiment report diverged from the pinned bytes");
}
