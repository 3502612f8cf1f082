//! `repro stress --quick`'s row of the determinism table, and `--list`
//! printing the selector table instead of running anything.

#[path = "determinism/table.rs"]
mod table;

use std::fs;

#[test]
fn stress_sweep_is_byte_identical_across_jobs_and_counts_impairments() {
    table::check("stress");
}

#[test]
fn list_flag_prints_selectors_without_running() {
    let dir = table::scratch("list-stress");
    let (stdout, _) = table::repro(&dir, &["--list"]);
    let tokens = ["fig2", "ablations", "stress", "stress-smoke", "faceoff", "cc-smoke", "all"];
    table::contains(&stdout, &tokens);
    table::contains(&stdout, &["results/stress.json"]);
    assert!(!dir.join("results").exists(), "--list must not execute anything");
    fs::remove_dir_all(&dir).ok();
}
