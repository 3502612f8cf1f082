//! End-to-end guarantees of the observability layer through the `repro`
//! binary:
//!
//! 1. `repro profile --jobs 1` and `--jobs 8` produce byte-identical
//!    `deterministic` sections in `results/profile.json` (per-scenario
//!    profiles merge in spec order, so scheduling never shows); the
//!    `wall_clock_nondeterministic` section is explicitly excluded.
//! 2. `repro bench-check` exits non-zero on a synthetic trajectory with a
//!    regression past the threshold, and zero otherwise.

use std::fs;
use std::path::{Path, PathBuf};
use std::process::Command;

use serde::Value;

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("profile-e2e-{tag}-{}", std::process::id()));
    fs::remove_dir_all(&dir).ok();
    fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

fn repro(dir: &Path, args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_repro"))
        .current_dir(dir)
        .args(args)
        .output()
        .expect("run repro")
}

fn object_field(v: &Value, key: &str) -> Value {
    let Value::Object(fields) = v else { panic!("expected object") };
    fields
        .iter()
        .find(|(k, _)| k == key)
        .map(|(_, v)| v.clone())
        .unwrap_or_else(|| panic!("missing field {key}"))
}

/// Loads `results/profile.json` and returns the deterministic section both
/// as a value and re-rendered to bytes.
fn deterministic_section(dir: &Path) -> (Value, String) {
    let path = dir.join("results/profile.json");
    let text = fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("missing artifact {}: {e}", path.display()));
    let parsed: Value = serde_json::from_str(&text).expect("profile.json parses");
    let det = object_field(&parsed, "deterministic");
    let rendered = serde_json::to_string_pretty(&det).expect("total");
    (det, rendered)
}

#[test]
fn profile_deterministic_section_is_identical_at_any_jobs_count() {
    // The ablation grid: 4 quick TCP-PR scenarios — cheap in a debug build
    // but enough to populate counters, histograms and tcppr.* spans.
    let serial_dir = scratch("serial");
    let parallel_dir = scratch("parallel");
    for (dir, jobs) in [(&serial_dir, "1"), (&parallel_dir, "8")] {
        let out = repro(dir, &["profile", "ablations", "--quick", "--jobs", jobs]);
        assert!(
            out.status.success(),
            "profile --jobs {jobs} failed\nstderr: {}",
            String::from_utf8_lossy(&out.stderr)
        );
    }

    let (serial, serial_bytes) = deterministic_section(&serial_dir);
    let (parallel, parallel_bytes) = deterministic_section(&parallel_dir);
    assert_eq!(serial, parallel, "deterministic sections must match as values");
    assert_eq!(
        serial_bytes, parallel_bytes,
        "deterministic sections must be byte-identical at --jobs 1 and --jobs 8"
    );

    // The section must carry real content: per-event-kind counters and
    // TCP-PR state-machine spans, and no wall-clock contamination.
    let counters = object_field(&serial, "counters");
    let Value::Object(counter_fields) = &counters else { panic!("counters is an object") };
    assert!(counter_fields.iter().any(|(k, _)| k == "event.arrive"), "event counters present");
    assert!(!serial_bytes.contains("wall"), "no wall-clock keys in the deterministic section");
    let span_counts = object_field(&serial, "span_counts");
    let Value::Object(span_fields) = &span_counts else { panic!("span_counts is an object") };
    assert!(
        span_fields.iter().any(|(k, _)| k.starts_with("tcppr.")),
        "TCP-PR spans recorded: {span_fields:?}"
    );

    fs::remove_dir_all(&serial_dir).ok();
    fs::remove_dir_all(&parallel_dir).ok();
}

#[test]
fn bench_check_gates_on_the_regression_threshold() {
    let dir = scratch("bench-check");
    let traj = dir.join("traj.json");
    let traj_s = traj.to_str().expect("utf-8 temp path");

    // The gate reads scenarios / serial_wall_s. 22 scenarios in 7 s, then
    // in 10 s, is a 30% regression: fail with the default threshold, pass
    // at 40%.
    fs::write(
        &traj,
        r#"[{"scenarios": 22, "serial_wall_s": 7.0}, {"scenarios": 22, "serial_wall_s": 10.0}]"#,
    )
    .expect("write trajectory");
    let fail = repro(&dir, &["bench-check", "--trajectory", traj_s]);
    assert!(
        !fail.status.success(),
        "a 30% regression must fail the default 20% gate\nstdout: {}",
        String::from_utf8_lossy(&fail.stdout)
    );
    let loose = repro(&dir, &["bench-check", "--trajectory", traj_s, "--threshold-pct", "40"]);
    assert!(loose.status.success(), "a 30% regression passes a 40% threshold");

    // A speedup passes — also one bought by dispatching fewer events, which
    // reads as a 33% drop in the events/sec the entry still carries.
    fs::write(
        &traj,
        r#"[{"scenarios": 22, "events": 9000000, "serial_wall_s": 5.0,
             "serial_events_per_sec": 1800000.0},
            {"scenarios": 22, "events": 4800000, "serial_wall_s": 4.0,
             "serial_events_per_sec": 1200000.0}]"#,
    )
    .expect("write trajectory");
    let faster = repro(&dir, &["bench-check", "--trajectory", traj_s]);
    assert!(faster.status.success(), "a speedup must pass");

    // A single entry has nothing to compare against: pass, not crash.
    fs::write(&traj, r#"[{"scenarios": 22, "serial_wall_s": 5.0}]"#).expect("write trajectory");
    let single = repro(&dir, &["bench-check", "--trajectory", traj_s]);
    assert!(single.status.success(), "one entry: nothing to compare, pass");

    fs::remove_dir_all(&dir).ok();
}
