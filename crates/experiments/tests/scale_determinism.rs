//! `repro scale-smoke`'s row of the determinism table, and `--list` showing
//! the scale selectors in sorted order.

#[path = "determinism/table.rs"]
mod table;

use std::fs;

#[test]
fn scale_smoke_is_byte_identical_across_jobs_and_reports_population_metrics() {
    table::check("scale-smoke");
}

#[test]
fn list_prints_sorted_selectors_including_scale() {
    let dir = table::scratch("list-scale");
    let (stdout, _) = table::repro(&dir, &["--list"]);
    table::contains(&stdout, &["scale", "scale-smoke", "results/scale.json"]);
    table::contains(&stdout, &["results/scale_smoke.json"]);
    // The selector table rows must come out sorted: deterministic output
    // independent of grid declaration order.
    let rows: Vec<&str> = stdout
        .lines()
        .skip(2)
        .take_while(|l| l.contains("results/") && !l.contains("->"))
        .map(|l| l[2..].split_whitespace().next().expect("selector column"))
        .collect();
    let mut sorted = rows.clone();
    sorted.sort_unstable();
    assert_eq!(rows, sorted, "--list selector rows must be sorted");
    assert!(rows.contains(&"scale") && rows.contains(&"scale-smoke"), "{rows:?}");
    assert!(!dir.join("results").exists(), "--list must not execute anything");
    fs::remove_dir_all(&dir).ok();
}
