//! The sweep row of the determinism table: the ablation, route-flap, churn
//! and `cc-smoke` grids, warm from the cache and again with `--no-cache`.

#[path = "determinism/table.rs"]
mod table;

#[test]
fn jobs_1_and_jobs_8_produce_byte_identical_artifacts_and_resume_executes_n() {
    table::check("ablations");
}
