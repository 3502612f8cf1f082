//! `repro explain`'s row of the determinism table: the post-mortem of a
//! pinned counterexample, with incidents and their cause chains.

#[path = "determinism/table.rs"]
mod table;

#[test]
fn explain_is_byte_identical_across_job_counts_and_finds_incidents() {
    table::check("explain");
}
