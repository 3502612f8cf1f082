//! The determinism table over `repro` invocations, rows by command, each
//! checked by a test of its command's `*_determinism.rs`. Seeds derive from
//! spec content, never from scheduling: a row runs at its two `--jobs` counts
//! in fresh directories and must print and write the same bytes (up to the
//! `wall_clock_nondeterministic` section `repro profile` ends with), and, if
//! it reads the sweep cache, again warm at the second. Then it checks what
//! they say.

// Each test binary that includes this module uses a part of it.
#![allow(dead_code)]

use std::fs;
use std::path::{Path, PathBuf};
use std::process::{Command, Output};

/// `(args, --jobs counts, files or directories under results/, reads the
/// cache, expectations)`.
type Row = (&'static [&'static str], [&'static str; 2], &'static [&'static str], bool, fn(&Run));

/// One invocation: where it ran, what it printed, the artifacts it wrote.
struct Run {
    dir: PathBuf,
    stdout: String,
    stderr: String,
    artifacts: Vec<(String, String)>,
}

impl Run {
    fn artifact(&self, prefix: &str) -> &str {
        let mut found = self.artifacts.iter().filter(|(name, _)| name.starts_with(prefix));
        &found.next().unwrap_or_else(|| panic!("no artifact {prefix}")).1
    }
}

const FIXTURE: &str =
    concat!(env!("CARGO_MANIFEST_DIR"), "/../../tests/fixtures/counterexample-tcppr-goodput.json");

const ROWS: [Row; 7] = [
    (&["explain", FIXTURE], JOBS, &["explain"], false, |run| {
        // Incidents with cause chains, capture and run health, the timeline.
        let report = run.artifact("explain/");
        assert_eq!(run.artifacts.len(), 1, "one counterexample, one report");
        contains(report, &["\"incidents\"", "\"cause_chain\"", "goodput_below_threshold"]);
        contains(report, &["\"capture\"", "\"trace_records\"", "\"dropped_trace_records\""]);
        contains(report, &["\"trace_mode\"", "\"spans\"", "\"run_health\""]);
        contains(report, &["\"traced_keep_first_sims\"", "\"traced_keep_latest_sims\""]);
        contains(report, &["\"timeline\"", "\"source\": \"span\"", "\"source\": \"trace\""]);
        contains(&run.stdout, &[" -> "]);
    }),
    (HUNT, JOBS, &["hunt.json", "counterexamples", "explain"], false, |run| {
        // The reference budget finds a schedule, pins it and names the file.
        let (pinned, _) = run.artifacts.get(1).expect("a found hunt writes a counterexample");
        let name = pinned.strip_prefix("counterexamples/").expect("a counterexample");
        contains(run.artifact("hunt.json"), &["\"found\": true", name]);
    }),
    // Four quick TCP-PR scenarios fill counters, histograms and `tcppr.*` spans.
    (&["profile", "ablations", "--quick"], JOBS, &["profile.json"], false, |run| {
        let section = run.artifact("profile.json");
        assert!(counter(section, "counters", "event.arrive") > 0, "event counters present");
        contains(section.split("\"span_counts\"").nth(1).expect("span counts"), &["\"tcppr."]);
        assert!(!section.contains("wall"), "no wall-clock key before the wall-clock section");
    }),
    // The sampler moves no profiled count, and takes at least one sample.
    (SAMPLED, ["1", "2"], &["profile.json"], false, |run| {
        let unsampled = scratch("profile-unsampled");
        repro(&unsampled, &[&SAMPLED[..3], &["--jobs", "2"]].concat());
        assert_eq!(collect(&unsampled, &["profile.json"]), run.artifacts, "--sample moved a count");
        fs::remove_dir_all(unsampled).ok();
        let whole = fs::read_to_string(run.dir.join("results/profile.json")).expect("profile.json");
        assert!(counter(&whole, "samples", "total") > 0, "no sample taken");
    }),
    // Generated topologies and flow churn draw from per-entity streams.
    (&["scale-smoke"], JOBS, &["scale_smoke.json"], true, |run| {
        contains(&run.stdout, &["Scale suite", "fat-tree-k4", "as-24x2"]);
        let artifact = run.artifact("scale_smoke.json");
        contains(artifact, &["\"jain\"", "\"goodput_cov\"", "\"p99_fct_ms\""]);
        contains(artifact, &["\"bytes_per_flow\"", "\"workload_flows\""]);
        assert!(counter(artifact, "run_health", "workload_flows") >= 120, "the smoke target");
        assert!(counter(artifact, "run_health", "workload_bytes_per_flow") > 0);
    }),
    // Per-link impairment RNGs; loss, reordering and flaps make every counter live.
    (&["stress", "--quick"], JOBS, &["stress.json"], true, |run| {
        contains(&run.stdout, &["Stress suite", "baseline", "burst-loss"]);
        for key in ["impair_drops", "impair_dups", "impair_reorders", "link_flaps"] {
            assert!(counter(run.artifact("stress.json"), "run_health", key) > 0, "{key} is live");
        }
    }),
    // Ablation, route-flap and churn families, and `cc-smoke`'s paced senders.
    (
        SWEEP,
        JOBS,
        &["ablations.json", "routeflap.json", "manet.json", "cc_smoke.json"],
        true,
        |run| {
            contains(&run.stderr, &["done: 26 executed, 0 cached, 0 crashed"]);
            contains(run.artifact("cc_smoke.json"), &["\"Cubic\"", "\"Bbr\""]);
            // `--no-cache` re-executes everything and writes no cache entry.
            let cache = || fs::read_dir(run.dir.join(".sweep-cache")).expect("cache dir").count();
            let before = cache();
            let stderr = repro(&run.dir, &[SWEEP, &["--jobs", "2", "--no-cache"]].concat()).1;
            contains(&stderr, &["done: 26 executed, 0 cached"]);
            assert_eq!(before, cache(), "--no-cache must not grow the cache");
        },
    ),
];

const JOBS: [&str; 2] = ["1", "8"];
const HUNT: &[&str] = &["hunt", "--budget", "200", "--seed", "1"];
const SAMPLED: &[&str] = &["profile", "cc-smoke", "--quick", "--sample"];
const SWEEP: &[&str] = &["ablations", "ext", "cc-smoke", "--quick"];

/// Runs the one row whose arguments start with the words of `command` and
/// checks it.
pub fn check(command: &str) {
    let words: Vec<&str> = command.split(' ').collect();
    let mut rows = ROWS.iter().enumerate().filter(|(_, row)| row.0.starts_with(&words));
    let (Some((i, &(args, jobs, compare, warm, expect))), None) = (rows.next(), rows.next()) else {
        panic!("no one row for {command:?}");
    };
    // Two rows of one command run in one test binary at once: the row's
    // index keeps their directories apart.
    let [serial, parallel] = jobs.map(|n| run(&format!("{}{i}-{n}", args[0]), args, compare, n));
    assert_eq!(serial.stdout, parallel.stdout, "repro {args:?}: stdout at --jobs {jobs:?}");
    assert_eq!(serial.artifacts, parallel.artifacts, "repro {args:?}: --jobs {jobs:?}");
    if warm {
        // Every scenario comes from the cache, byte for byte.
        let args = [args, &["--resume", "--jobs", jobs[1]]].concat();
        let (_, stderr) = repro(&parallel.dir, &args);
        contains(&stderr, &["done: 0 executed", "0 crashed"]);
        assert_eq!(collect(&parallel.dir, compare), parallel.artifacts, "repro {args:?}");
    }
    expect(&serial);
    for dir in [serial.dir, parallel.dir] {
        fs::remove_dir_all(dir).ok();
    }
}

/// A fresh, empty directory for one invocation.
pub fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("repro-determinism-{tag}-{}", std::process::id()));
    fs::remove_dir_all(&dir).ok();
    fs::create_dir_all(&dir).expect("scratch dir");
    dir
}

fn run(tag: &str, args: &[&str], compare: &[&str], jobs: &str) -> Run {
    let dir = scratch(tag);
    let (stdout, stderr) = repro(&dir, &[args, &["--jobs", jobs]].concat());
    let artifacts = collect(&dir, compare);
    Run { dir, stdout, stderr, artifacts }
}

/// Runs `repro` in `dir`, which must succeed; returns stdout and stderr.
pub fn repro(dir: &Path, args: &[&str]) -> (String, String) {
    let out = output(dir, args);
    let text = |bytes: &[u8]| String::from_utf8_lossy(bytes).into_owned();
    let (stdout, stderr) = (text(&out.stdout), text(&out.stderr));
    assert!(out.status.success(), "repro {args:?} failed\nstdout: {stdout}\nstderr: {stderr}");
    (stdout, stderr)
}

/// Runs `repro` in `dir`, succeeding or not: the one way tests drive it.
pub fn output(dir: &Path, args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_repro")).current_dir(dir).args(args).output().expect("repro")
}

/// The named artifacts as `(name, text)`, a directory's files by name.
fn collect(dir: &Path, compare: &[&str]) -> Vec<(String, String)> {
    let mut artifacts = Vec::new();
    for name in compare {
        let path = dir.join("results").join(name);
        let mut files: Vec<PathBuf> = match fs::read_dir(&path) {
            Ok(entries) => entries.map(|e| e.expect("dir entry").path()).collect(),
            Err(_) => vec![path],
        };
        files.sort();
        for file in files {
            let text = fs::read_to_string(&file).unwrap_or_else(|e| panic!("{file:?}: {e}"));
            let text = text.split("\"wall_clock_nondeterministic\"").next().expect("a prefix");
            let relative = file.strip_prefix(dir.join("results")).expect("under results/");
            artifacts.push((relative.to_string_lossy().into_owned(), text.to_owned()));
        }
    }
    artifacts
}

pub fn contains(text: &str, needles: &[&str]) {
    for needle in needles {
        assert!(text.contains(needle), "missing {needle} in:\n{text:.2000}");
    }
}

/// The first `"key": <uint>` after `"block"` (per-row results carry some of
/// `run_health`'s keys, a baseline row legitimately zero).
fn counter(artifact: &str, block: &str, key: &str) -> u64 {
    let tail = artifact.split(&format!("\"{block}\"")).nth(1).expect("the block");
    let value = tail.split(&format!("\"{key}\": ")).nth(1).expect("the key after it");
    value.split(|c: char| !c.is_ascii_digit()).next().and_then(|n| n.parse().ok()).expect(key)
}
