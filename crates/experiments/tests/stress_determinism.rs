//! End-to-end guarantees of the stress suite through the `repro` binary:
//!
//! 1. `repro stress --quick` at `--jobs 1` and `--jobs 8` produces a
//!    byte-identical `results/stress.json` — the impairment pipeline's
//!    private per-link RNGs keep the determinism contract at any worker
//!    count;
//! 2. the artifact's `run_health` block carries nonzero impairment
//!    counters (wire drops, duplicates, reorder displacements, flaps);
//! 3. `repro --list` prints the selector table instead of erroring.

use std::fs;
use std::path::{Path, PathBuf};
use std::process::Command;

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("stress-e2e-{tag}-{}", std::process::id()));
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

/// Pulls `"key": <uint>` out of the artifact's run_health block. The same
/// keys appear in per-row results (where a baseline row is legitimately
/// zero), so the search starts at the `run_health` object.
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
fn stress_sweep_is_byte_identical_across_jobs_and_counts_impairments() {
    let serial_dir = scratch("serial");
    let parallel_dir = scratch("parallel");

    let (stdout, _) = repro(&serial_dir, &["stress", "--quick", "--jobs", "1"]);
    assert!(stdout.contains("Stress suite"), "stress table on stdout:\n{stdout}");
    assert!(stdout.contains("baseline") && stdout.contains("burst-loss"), "{stdout}");
    repro(&parallel_dir, &["stress", "--quick", "--jobs", "8"]);

    let serial = fs::read(serial_dir.join("results/stress.json")).expect("serial artifact");
    let parallel = fs::read(parallel_dir.join("results/stress.json")).expect("parallel artifact");
    assert_eq!(
        serial, parallel,
        "results/stress.json must be byte-identical at --jobs 1 and --jobs 8"
    );

    // The quick matrix includes loss, reorder+duplicate and flap profiles,
    // so every impairment counter must be live in the run-health block.
    let artifact = String::from_utf8(serial).expect("utf-8 artifact");
    for key in ["impair_drops", "impair_dups", "impair_reorders", "link_flaps"] {
        assert!(health_counter(&artifact, key) > 0, "run_health.{key} must be nonzero");
    }

    fs::remove_dir_all(&serial_dir).ok();
    fs::remove_dir_all(&parallel_dir).ok();
}

#[test]
fn list_flag_prints_selectors_without_running() {
    let dir = scratch("list");
    let (stdout, _) = repro(&dir, &["--list"]);
    for token in ["fig2", "ablations", "stress", "stress-smoke", "faceoff", "cc-smoke", "all"] {
        assert!(stdout.contains(token), "--list must mention {token}:\n{stdout}");
    }
    assert!(stdout.contains("results/stress.json"), "{stdout}");
    assert!(!dir.join("results").exists(), "--list must not execute anything");
    fs::remove_dir_all(&dir).ok();
}
