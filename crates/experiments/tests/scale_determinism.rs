//! End-to-end guarantees of the internet-scale workload suite through the
//! `repro` binary:
//!
//! 1. `repro scale-smoke` at `--jobs 1` and `--jobs 8` produces a
//!    byte-identical `results/scale_smoke.json` — generated topologies and
//!    the flow-churn engine draw from content-derived per-entity RNG
//!    streams, so the determinism contract holds at any worker count;
//! 2. the artifact's `run_health` block carries the workload population
//!    accounting (`workload_flows`, `workload_bytes_per_flow`) and the
//!    per-row results carry the population metrics (Jain, goodput CoV,
//!    p99 FCT, bytes/flow);
//! 3. `--list` prints the selectors in sorted order, scale selectors
//!    included.

use std::fs;
use std::path::{Path, PathBuf};
use std::process::Command;

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("scale-e2e-{tag}-{}", std::process::id()));
    fs::remove_dir_all(&dir).ok();
    fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

fn repro(dir: &Path, args: &[&str]) -> (String, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_repro"))
        .current_dir(dir)
        .args(args)
        .output()
        .expect("run repro");
    assert!(
        out.status.success(),
        "repro {args:?} failed\nstdout: {}\nstderr: {}",
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr)
    );
    (
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

/// Pulls `"key": <uint>` out of the artifact's run_health block.
fn health_counter(artifact: &str, key: &str) -> u64 {
    let health = artifact.split("\"run_health\"").nth(1).expect("run_health block");
    let tail = health
        .split(&format!("\"{key}\":"))
        .nth(1)
        .unwrap_or_else(|| panic!("run_health must carry {key}"));
    tail.trim_start()
        .chars()
        .take_while(char::is_ascii_digit)
        .collect::<String>()
        .parse()
        .unwrap_or_else(|_| panic!("unparsable {key} in {tail:.40}"))
}

#[test]
fn scale_smoke_is_byte_identical_across_jobs_and_reports_population_metrics() {
    let serial_dir = scratch("serial");
    let parallel_dir = scratch("parallel");

    let (stdout, _) = repro(&serial_dir, &["scale-smoke", "--jobs", "1"]);
    assert!(stdout.contains("Scale suite"), "scale table on stdout:\n{stdout}");
    assert!(stdout.contains("fat-tree-k4") && stdout.contains("as-24x2"), "{stdout}");
    repro(&parallel_dir, &["scale-smoke", "--jobs", "8"]);

    let serial = fs::read(serial_dir.join("results/scale_smoke.json")).expect("serial artifact");
    let parallel =
        fs::read(parallel_dir.join("results/scale_smoke.json")).expect("parallel artifact");
    assert_eq!(
        serial, parallel,
        "results/scale_smoke.json must be byte-identical at --jobs 1 and --jobs 8"
    );

    // Population metrics per row, workload accounting in run_health.
    let artifact = String::from_utf8(serial).expect("utf-8 artifact");
    for key in ["\"jain\"", "\"goodput_cov\"", "\"p99_fct_ms\"", "\"bytes_per_flow\""] {
        assert!(artifact.contains(key), "scale rows must carry {key}:\n{artifact:.400}");
    }
    assert!(
        health_counter(&artifact, "workload_flows") >= 120,
        "run_health.workload_flows must reach the smoke target"
    );
    assert!(
        health_counter(&artifact, "workload_bytes_per_flow") > 0,
        "run_health.workload_bytes_per_flow must be live"
    );

    fs::remove_dir_all(&serial_dir).ok();
    fs::remove_dir_all(&parallel_dir).ok();
}

#[test]
fn list_prints_sorted_selectors_including_scale() {
    let dir = scratch("list");
    let (stdout, _) = repro(&dir, &["--list"]);
    for token in ["scale", "scale-smoke", "results/scale.json", "results/scale_smoke.json"] {
        assert!(stdout.contains(token), "--list must mention {token}:\n{stdout}");
    }
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
