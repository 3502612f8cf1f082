//! Guards the golden table, `golden/pins.rs`: every outcome the repository
//! pins, one row each, checked group by group by `timer_equivalence.rs`,
//! `cell_equivalence.rs`, `ack_path_equivalence.rs` and netsim's
//! `linkready_equivalence.rs`. Re-record on the parent of a change with
//! `cargo test --test golden -- --ignored --nocapture`.

#[path = "golden/pins.rs"]
mod pins;
#[path = "golden/scripts.rs"]
mod scripts;
#[path = "golden/table.rs"]
mod table;

use std::collections::BTreeSet;

use pins::PINS;

/// The tests that check the table's groups.
const CHECKERS: [&str; 4] = [
    include_str!("timer_equivalence.rs"),
    include_str!("cell_equivalence.rs"),
    include_str!("ack_path_equivalence.rs"),
    include_str!("../crates/netsim/tests/linkready_equivalence.rs"),
];

/// A row deleted, a label repeated, a scenario without a row or a group no
/// test checks fails.
#[test]
fn the_table_keeps_every_pin() {
    assert_eq!(PINS.len(), 125, "rows are only added, and this count with them");
    let labels: BTreeSet<&str> = PINS.iter().map(|p| p.0).collect();
    assert_eq!(labels.len(), PINS.len(), "labels are unique");
    let scenarios = table::scenarios();
    let built: Vec<&str> = scenarios.iter().map(|s| s.1.as_str()).collect();
    assert_eq!(built, PINS.iter().map(|p| p.0).collect::<Vec<_>>(), "one row per scenario");
    // Outcomes carried verbatim from the pin files the table was built from,
    // and the SACK and CUBIC forensic rows recorded after it.
    let carried = |l: &str| !l.starts_with("quick ") && l != "script every packet exit";
    assert_eq!(labels.iter().filter(|l| carried(l)).count(), 64 + 2);
    let groups: BTreeSet<&str> = scenarios.iter().map(|s| s.0).collect();
    for group in groups {
        let call = format!("check({group:?})");
        assert!(CHECKERS.iter().any(|src| src.contains(&call)), "no test checks {group}");
    }
}

#[test]
#[ignore = "prints the table; run it on the parent commit to re-record"]
fn record() {
    for (_, label, scenario) in table::scenarios() {
        println!("    {}", scripts::source_form(&label, table::measure(&scenario)));
    }
}
