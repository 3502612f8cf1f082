//! `repro profile`'s rows of the determinism table: per-scenario profiles
//! merge in spec order; the wall-clock section, samples included, is left
//! out of the comparison.

#[path = "determinism/table.rs"]
mod table;

#[test]
fn profile_deterministic_section_is_identical_at_any_jobs_count() {
    table::check("profile ablations");
}

#[test]
fn sampling_leaves_the_deterministic_section_untouched() {
    table::check("profile cc-smoke");
}
