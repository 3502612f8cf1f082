//! End-to-end guarantee of the observability layer through the `repro`
//! binary: `repro profile --jobs 1` and `--jobs 8` produce byte-identical
//! `deterministic` sections in `results/profile.json` (per-scenario
//! profiles merge in spec order, so scheduling never shows); the
//! `wall_clock_nondeterministic` section is explicitly excluded.

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
