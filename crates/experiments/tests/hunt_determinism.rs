//! `repro hunt`'s row of the determinism table: the reference budget finds
//! and pins a goodput-degrading counterexample.

#[path = "determinism/table.rs"]
mod table;

#[test]
fn hunt_artifacts_are_byte_identical_across_job_counts() {
    table::check("hunt");
}
