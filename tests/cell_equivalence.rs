//! The smoke cells' rows of the golden table (`golden/pins.rs`), one test per
//! kind `experiments::cell` lowers, and the four forensic payloads: capture
//! only reads the simulation, so the report it embeds is the plain run's.

#[path = "golden/pins.rs"]
mod pins;
#[path = "golden/scripts.rs"]
mod scripts;
#[path = "golden/table.rs"]
mod table;

use table::check;

#[test]
fn multipath_cells_match_the_fig6_harness() {
    check("multipath");
}

#[test]
fn routeflap_cells_match_the_routeflap_harness() {
    check("routeflap");
}

#[test]
fn churn_cells_match_the_manet_harness() {
    check("churn");
}

#[test]
fn ablation_cells_match_the_ablation_harness() {
    check("ablation");
}

#[test]
fn stress_cells_match_the_stress_harness() {
    check("stress");
}

#[test]
fn hunt_cells_match_the_hunt_harness() {
    check("hunt");
}

#[test]
fn forensic_capture_leaves_the_hunt_report_untouched() {
    check("forensic");
}

#[test]
fn fairness_cells_match_the_fairness_harness() {
    check("fairness");
}

#[test]
fn scale_cells_match_the_scale_harness() {
    check("scale");
}
