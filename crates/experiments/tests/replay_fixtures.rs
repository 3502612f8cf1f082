//! The pinned-counterexample regression gate: `repro replay` over the
//! fixtures under `tests/fixtures/` must report that each pinned
//! degradation still reproduces. A CC change that (deliberately or not)
//! cures one of these pathologies flips the replay verdict and fails here,
//! forcing the fixture — and the claim it pins — to be revisited.

#[path = "determinism/table.rs"]
mod table;

#[test]
fn pinned_counterexamples_still_reproduce() {
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/../../tests/fixtures");
    let fixtures: Vec<String> = std::fs::read_dir(dir)
        .expect("read fixtures dir")
        .map(|e| e.expect("dir entry").path().to_string_lossy().into_owned())
        .filter(|p| p.contains("/counterexample-") && p.ends_with(".json"))
        .collect();
    assert!(fixtures.len() >= 2, "at least two pinned counterexamples expected in {dir}");
    let work = table::scratch("replay");
    let args: Vec<&str> =
        ["replay"].into_iter().chain(fixtures.iter().map(String::as_str)).collect();
    // `repro replay` exits non-zero when a pinned degradation no longer reproduces.
    let (stdout, _) = table::repro(&work, &args);
    assert_eq!(stdout.matches("still reproduces").count(), fixtures.len(), "{stdout}");
    std::fs::remove_dir_all(&work).ok();
}
