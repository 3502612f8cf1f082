//! Regenerates every table/figure of the TCP-PR paper's evaluation.
//!
//! ```text
//! cargo run -p experiments --bin repro --release -- \
//!     [fig2|fig3|fig4|fig6|faceoff|ablations|ext|stress|stress-smoke|cc-smoke| \
//!      scale|scale-smoke|bench-sweep|all] \
//!     [profile [selector…]] [bench-check] \
//!     [--quick] [--jobs N] [--resume] [--no-cache] [--telemetry-dir <dir>] \
//!     [--trajectory <path>] [--threshold-pct <pct>] [--list]
//! ```
//!
//! Every requested figure is expanded into a grid of scenario specs and the
//! whole batch runs through the deterministic sweep engine
//! ([`experiments::sweep`]): `--jobs N` executes scenarios on N worker
//! threads (results are bit-identical at any N), completed scenarios are
//! recorded in `.sweep-cache/`, `--resume` skips scenarios already cached,
//! and `--no-cache` disables the cache entirely.
//!
//! Prints the paper-style tables to stdout and writes machine-readable JSON
//! into `results/`. Every artifact embeds a `run_health` block with the
//! deterministic accounting of the simulations behind it (events processed,
//! peak event-heap size, dropped trace records); wall-clock performance is
//! reported on stderr. With `--telemetry-dir <dir>`, the fig2 run
//! additionally streams a complete JSONL packet trace of its first TCP-PR
//! flow into `<dir>`. The `bench-sweep` selector times a serial vs parallel
//! quick sweep, writes the latest run to `results/bench_sweep.json`, and
//! appends it to the top-level `BENCH_sweep.json` perf trajectory.
//!
//! The `scale` selector (opt-in, like `ext`) runs the internet-scale
//! workload grid — generated fat-tree topologies carrying Poisson flow
//! churn with heavy-tailed sizes, up to 10k concurrent flows per variant —
//! and writes `results/scale.json` with population fairness / FCT metrics.
//! A plain (non-`--resume`) `repro scale` run also appends a
//! `workload: "scale"` timing entry to the `BENCH_sweep.json`
//! trajectory, so `bench-check` gates scale-run performance separately from
//! the classic bench-sweep timing. `scale-smoke` is its tiny CI-sized
//! sibling (fat-tree *and* AS-graph topologies at 120 flows).
//!
//! Three further commands run *instead of* the figure grids:
//!
//! - `repro profile [selector…]` re-runs the named grids (default `fig6`)
//!   with the `obs` profiler enabled and writes `results/profile.json` —
//!   per-event-kind dispatch counters, sim-domain histograms, and sender
//!   state-machine spans in a deterministic section, wall-clock dispatch
//!   cost in a clearly marked non-deterministic section. Profile runs
//!   bypass the sweep cache (a cache hit executes nothing to profile).
//! - `repro bench-check [--trajectory <path>] [--threshold-pct <pct>]
//!   [--min-entries <n>]` compares the last two entries of the perf
//!   trajectory and exits non-zero when scenarios per wall second
//!   (`scenarios / serial_wall_s`) regressed more than the threshold
//!   (default 20%); below `--min-entries` entries the gate passes without
//!   comparing.
//! - `repro hunt [--budget <evals>] [--objective goodput|fairness|oracle]
//!   [--variant <name>] [--seed <n>] [--jobs N]` runs the adversarial
//!   schedule search ([`experiments::hunt`]): seeded hill-climbing over
//!   impairment pipelines and link-admin windows minimizing the chosen
//!   objective, followed by delta-debugging shrinking of any counterexample
//!   found. Writes `results/hunt.json` plus a replayable minimal spec under
//!   `results/counterexamples/` — all byte-identical at any `--jobs`. A
//!   found counterexample is immediately post-mortemed (see `explain`).
//! - `repro explain <counterexample.json>… [--jobs N]` replays a pinned
//!   counterexample in forensic mode (full packet trace, flow-tagged CC
//!   spans, sampled time series) and runs the [`forensics`] incident /
//!   root-cause analysis, writing `results/explain/<content_hash>.json` —
//!   byte-identical at any `--jobs` count.
//! - `repro replay <counterexample.json>…` re-runs pinned counterexamples
//!   (and their empty-schedule baselines) without capture and exits
//!   non-zero if any no longer degrades past its threshold — the
//!   regression gate over `tests/fixtures/`.

use std::fs;
use std::path::{Path, PathBuf};
use std::process::exit;

use experiments::bench;
use experiments::explain;
use experiments::hunt;
use experiments::sweep::grids::{all_figures, selectors, FigureGrid};
use experiments::sweep::{
    run_sweep, CachePolicy, ExecCtx, RunOutcome, SweepOptions, DEFAULT_CACHE_DIR,
};
use experiments::telemetry::{artifact_json, warn_if_dropped};
use experiments::variants::Variant;
use netsim::telemetry::SessionStats;
use serde::Value;

struct Cli {
    quick: bool,
    which: Vec<String>,
    telemetry_dir: Option<PathBuf>,
    jobs: usize,
    resume: bool,
    no_cache: bool,
    trajectory: Option<PathBuf>,
    threshold_pct: f64,
    min_entries: usize,
    budget: u64,
    seed: u64,
    objective: String,
    hunt_variant: String,
}

fn default_jobs() -> usize {
    std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
}

fn parse_args() -> Cli {
    let mut cli = Cli {
        quick: false,
        which: Vec::new(),
        telemetry_dir: None,
        jobs: default_jobs(),
        resume: false,
        no_cache: false,
        trajectory: None,
        threshold_pct: experiments::bench::DEFAULT_THRESHOLD_PCT,
        min_entries: 2,
        budget: 200,
        seed: 1,
        objective: "goodput".to_owned(),
        hunt_variant: "TcpPr".to_owned(),
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--list" => {
                print_listing();
                exit(0);
            }
            "--quick" => cli.quick = true,
            "--resume" => cli.resume = true,
            "--no-cache" => cli.no_cache = true,
            "--jobs" => match args.next().and_then(|n| n.parse::<usize>().ok()) {
                Some(n) if n >= 1 => cli.jobs = n,
                _ => {
                    eprintln!("error: --jobs needs a worker count >= 1");
                    exit(2);
                }
            },
            "--telemetry-dir" => match args.next() {
                Some(dir) => cli.telemetry_dir = Some(PathBuf::from(dir)),
                None => {
                    eprintln!("error: --telemetry-dir needs a directory argument");
                    exit(2);
                }
            },
            "--trajectory" => match args.next() {
                Some(path) => cli.trajectory = Some(PathBuf::from(path)),
                None => {
                    eprintln!("error: --trajectory needs a file argument");
                    exit(2);
                }
            },
            "--threshold-pct" => match args.next().and_then(|n| n.parse::<f64>().ok()) {
                Some(pct) if pct >= 0.0 && pct.is_finite() => cli.threshold_pct = pct,
                _ => {
                    eprintln!("error: --threshold-pct needs a non-negative percentage");
                    exit(2);
                }
            },
            "--min-entries" => match args.next().and_then(|n| n.parse::<usize>().ok()) {
                Some(n) => cli.min_entries = n,
                None => {
                    eprintln!("error: --min-entries needs a count");
                    exit(2);
                }
            },
            "--budget" => match args.next().and_then(|n| n.parse::<u64>().ok()) {
                Some(n) if n >= 1 => cli.budget = n,
                _ => {
                    eprintln!("error: --budget needs an evaluation count >= 1");
                    exit(2);
                }
            },
            "--seed" => match args.next().and_then(|n| n.parse::<u64>().ok()) {
                Some(n) => cli.seed = n,
                None => {
                    eprintln!("error: --seed needs an integer");
                    exit(2);
                }
            },
            "--objective" => match args.next() {
                Some(name) => cli.objective = name,
                None => {
                    eprintln!("error: --objective needs goodput|fairness|oracle");
                    exit(2);
                }
            },
            "--variant" => match args.next() {
                Some(name) => cli.hunt_variant = name,
                None => {
                    eprintln!("error: --variant needs a protocol name");
                    exit(2);
                }
            },
            other if other.starts_with("--") => {
                eprintln!("error: unknown flag {other}");
                exit(2);
            }
            other => cli.which.push(other.to_owned()),
        }
    }
    if cli.resume && cli.no_cache {
        eprintln!("error: --resume and --no-cache contradict each other");
        exit(2);
    }
    // `explain` and `replay` take file paths as positionals, so selector
    // validation only applies to the figure-grid command forms.
    let file_command =
        cli.which.iter().any(|w| w == "explain") || cli.which.iter().any(|w| w == "replay");
    if !file_command {
        for w in &cli.which {
            if w != "all"
                && w != "bench-sweep"
                && w != "profile"
                && w != "bench-check"
                && w != "hunt"
                && !selectors().contains(&w.as_str())
            {
                eprintln!("error: unknown selector {w}");
                print_listing();
                exit(2);
            }
        }
    }
    cli
}

/// Prints every selector with its artifacts and cell counts (`--list`, and
/// the footer of the unknown-selector error). Selectors print in sorted
/// order so the listing is deterministic and diffs cleanly as grids are
/// added, independent of grid declaration order.
fn print_listing() {
    let quick = all_figures(true, false);
    let full = all_figures(false, false);
    let mut sels = selectors();
    sels.sort_unstable();
    println!("selectors (* = included in bare `repro` / `repro all`):");
    println!("  {:<14} {:>11}  artifacts", "selector", "quick/full");
    for sel in sels {
        let grids: Vec<_> = quick.iter().filter(|g| g.selector == sel).collect();
        let mark = if grids.iter().any(|g| g.in_all) { "*" } else { " " };
        let qc: usize = grids.iter().map(|g| g.specs.len()).sum();
        let fc: usize = full.iter().filter(|g| g.selector == sel).map(|g| g.specs.len()).sum();
        let artifacts: Vec<String> =
            grids.iter().map(|g| format!("results/{}.json", g.artifact)).collect();
        println!(" {mark}{:<14} {:>5}/{:<5}  {}", sel, qc, fc, artifacts.join(", "));
    }
    println!(" {:<15} serial-vs-parallel sweep timing -> results/bench_sweep.json", "bench-sweep");
    println!(" {:<15} every selector marked *", "all");
    println!(" {:<15} profiled re-run of the named grids -> results/profile.json", "profile");
    println!(" {:<15} perf-regression gate over BENCH_sweep.json", "bench-check");
    println!(" {:<15} adversarial schedule search -> results/hunt.json", "hunt");
    println!(" {:<15} counterexample post-mortem -> results/explain/<hash>.json", "explain <file>");
    println!(" {:<15} re-check a pinned counterexample still degrades", "replay <file…>");
}

/// `fs::create_dir_all` with an error message naming the offending path.
fn create_dir_or_exit(dir: &Path, what: &str) {
    if let Err(e) = fs::create_dir_all(dir) {
        eprintln!("error: cannot create {what} directory {}: {e}", dir.display());
        exit(1);
    }
}

/// Writes one artifact, exiting with the offending path on failure.
fn write_artifact_or_exit(path: &Path, contents: &str) {
    if let Err(e) = fs::write(path, contents) {
        eprintln!("error: cannot write artifact {}: {e}", path.display());
        exit(1);
    }
}

fn sweep_options(cli: &Cli) -> SweepOptions {
    SweepOptions {
        jobs: cli.jobs,
        cache: if cli.no_cache {
            CachePolicy::Off
        } else if cli.resume {
            CachePolicy::ReadWrite
        } else {
            CachePolicy::WriteOnly
        },
        cache_dir: DEFAULT_CACHE_DIR.into(),
        progress: true,
    }
}

/// Throughput accounting of one figure sweep, for the perf trajectory.
struct SweepStats {
    scenarios: u64,
    events: u64,
    wall_s: f64,
    events_per_sec: f64,
    cached: usize,
}

/// Runs the requested figures as one sweep and renders each figure from
/// its slice of the outcomes. Returns false (first element) if any
/// scenario crashed, plus the sweep's throughput accounting.
fn run_figures(figures: Vec<FigureGrid>, ctx: &ExecCtx, opts: &SweepOptions) -> (bool, SweepStats) {
    let specs: Vec<_> = figures.iter().flat_map(|g| g.specs.iter().cloned()).collect();
    eprintln!(
        "[sweep] {} scenario(s) across {} artifact(s), {} worker(s)",
        specs.len(),
        figures.len(),
        opts.jobs
    );
    let report = run_sweep(&specs, ctx, opts);
    eprintln!("[sweep] done: {}", report.summary());
    let stats = SweepStats {
        scenarios: specs.len() as u64,
        events: report.events_executed,
        wall_s: report.wall_s,
        events_per_sec: report.events_per_sec(),
        cached: report.cached,
    };

    let mut ok = true;
    let mut offset = 0;
    for grid in &figures {
        let runs = &report.runs[offset..offset + grid.specs.len()];
        offset += grid.specs.len();

        let crashed: Vec<_> =
            runs.iter().filter(|r| matches!(r.outcome, RunOutcome::Crashed { .. })).collect();
        if !crashed.is_empty() {
            eprintln!(
                "error: [{}] {} scenario(s) crashed — artifact not written",
                grid.artifact,
                crashed.len()
            );
            ok = false;
            continue;
        }

        let outcomes: Vec<Value> = runs
            .iter()
            .map(|r| r.outcome.value().expect("non-crashed runs carry a value").clone())
            .collect();
        let (table, results) = (grid.assemble)(&grid.specs, &outcomes);
        println!("{table}");

        let mut work = SessionStats::default();
        for r in runs {
            work.merge(&r.work);
        }
        let path = PathBuf::from(format!("results/{}.json", grid.artifact));
        write_artifact_or_exit(&path, &artifact_json(&results, &work));
        warn_if_dropped(grid.artifact, work.dropped_trace_records);
        eprintln!(
            "[{} done — {} events over {} sim(s), peak heap {}]",
            grid.artifact, work.events_processed, work.sims, work.peak_event_heap
        );
    }
    (ok, stats)
}

/// Appends a `workload: "scale"` timing entry to the perf trajectory
/// after a pure `repro scale` run, so `bench-check` gates scale-run
/// performance. Skipped when any scenario came from the cache — a
/// cache-satisfied run measures deserialization, not simulation.
fn append_scale_bench(cli: &Cli, stats: &SweepStats) {
    if stats.cached > 0 {
        eprintln!(
            "[scale] {} scenario(s) came from the cache — no trajectory entry recorded",
            stats.cached
        );
        return;
    }
    let entry = bench::BenchEntry {
        workload: bench::SCALE_WORKLOAD.to_owned(),
        machine: bench::machine(),
        scenarios: stats.scenarios,
        events: stats.events,
        // One measured pass at `--jobs N`: the serial fields carry the
        // measurement (the gate reads `scenarios / serial_wall_s`) and the
        // parallel fields record the worker count it ran with. Comparable
        // entries therefore assume a consistent --jobs, which CI pins.
        serial_wall_s: stats.wall_s,
        serial_events_per_sec: stats.events_per_sec,
        parallel_jobs: cli.jobs as u64,
        parallel_wall_s: stats.wall_s,
        parallel_events_per_sec: stats.events_per_sec,
        speedup: 1.0,
    };
    let trajectory = Path::new(bench::TRAJECTORY_PATH);
    match bench::append_entry(trajectory, serde::Serialize::to_value(&entry)) {
        Ok(len) => eprintln!(
            "[scale] trajectory entry {len} ({} scenarios in {:.2}s) appended -> {}",
            stats.scenarios,
            stats.wall_s,
            trajectory.display()
        ),
        Err(e) => {
            eprintln!("error: {e}");
            exit(1);
        }
    }
}

/// Times the same quick sweep serially and in parallel and records both in
/// `results/bench_sweep.json`. Runs with the cache off so both passes
/// measure real execution.
fn run_bench_sweep(cli: &Cli, ctx: &ExecCtx) {
    // A modest, fixed workload: the quick ablation and fig6 (10 ms) grids.
    let grids: Vec<FigureGrid> = all_figures(true, false)
        .into_iter()
        .filter(|g| g.artifact == "ablations" || g.artifact == "fig6_10ms")
        .collect();
    let specs: Vec<_> = grids.iter().flat_map(|g| g.specs.iter().cloned()).collect();
    let parallel_jobs = cli.jobs.max(2);
    eprintln!(
        "[bench-sweep] {} scenario(s): serial (1 worker) vs parallel ({parallel_jobs} workers)",
        specs.len()
    );

    let base = SweepOptions {
        jobs: 1,
        cache: CachePolicy::Off,
        cache_dir: DEFAULT_CACHE_DIR.into(),
        progress: false,
    };
    let serial = run_sweep(&specs, ctx, &base);
    let parallel = run_sweep(&specs, ctx, &SweepOptions { jobs: parallel_jobs, ..base });
    assert_eq!(serial.crashed + parallel.crashed, 0, "bench scenarios must not crash");

    let speedup = if parallel.wall_s > 0.0 { serial.wall_s / parallel.wall_s } else { 0.0 };
    let entry = bench::BenchEntry {
        workload: bench::SWEEP_WORKLOAD.to_owned(),
        machine: bench::machine(),
        scenarios: specs.len() as u64,
        events: serial.events_executed,
        serial_wall_s: serial.wall_s,
        serial_events_per_sec: serial.events_per_sec(),
        parallel_jobs: parallel_jobs as u64,
        parallel_wall_s: parallel.wall_s,
        parallel_events_per_sec: parallel.events_per_sec(),
        speedup,
    };
    // Latest run under results/ (regenerated wholesale); the full history
    // lives only in the top-level trajectory (see `experiments::bench`).
    let entry_value = serde::Serialize::to_value(&entry);
    let path = Path::new("results/bench_sweep.json");
    write_artifact_or_exit(path, &serde_json::to_string_pretty(&entry_value).expect("total"));
    let trajectory = Path::new(bench::TRAJECTORY_PATH);
    match bench::append_entry(trajectory, entry_value) {
        Ok(len) => {
            eprintln!("[bench-sweep] trajectory entry {len} appended -> {}", trajectory.display())
        }
        Err(e) => {
            eprintln!("error: {e}");
            exit(1);
        }
    }
    eprintln!(
        "[bench-sweep] serial {:.1}s vs parallel {:.1}s — speedup {speedup:.2}x → {}",
        serial.wall_s,
        parallel.wall_s,
        path.display()
    );
}

/// `repro profile`: re-runs the named figure grids (default `fig6`) with
/// the profiler enabled and writes `results/profile.json`. The sweep cache
/// is bypassed in both directions — a cache hit executes nothing, so it
/// profiles nothing, and profiled runs must not alter what later plain runs
/// read back. Returns false if any scenario crashed.
fn run_profile(cli: &Cli, ctx: &ExecCtx) -> bool {
    let named: Vec<&String> = cli.which.iter().filter(|w| *w != "profile").collect();
    let figures: Vec<FigureGrid> = all_figures(cli.quick, false)
        .into_iter()
        .filter(|g| {
            if named.is_empty() {
                g.selector == "fig6"
            } else {
                named.iter().any(|w| *w == g.selector)
            }
        })
        .collect();
    if figures.is_empty() {
        eprintln!("error: profile matched no grids");
        return false;
    }
    let specs: Vec<_> = figures.iter().flat_map(|g| g.specs.iter().cloned()).collect();
    let opts = SweepOptions {
        jobs: cli.jobs,
        cache: CachePolicy::Off,
        cache_dir: DEFAULT_CACHE_DIR.into(),
        progress: true,
    };
    eprintln!(
        "[profile] {} scenario(s) across {} grid(s), {} worker(s), profiler on",
        specs.len(),
        figures.len(),
        opts.jobs
    );

    obs::enable();
    let t0 = std::time::Instant::now();
    let report = run_sweep(&specs, ctx, &opts);
    let wall_s = t0.elapsed().as_secs_f64();
    obs::disable();
    if report.crashed > 0 {
        eprintln!("error: [profile] {} scenario(s) crashed — artifact not written", report.crashed);
        return false;
    }

    // Merge per-scenario profiles in spec order: the merged deterministic
    // section is then byte-identical at any --jobs count.
    let mut merged = obs::ProfileReport::default();
    for r in &report.runs {
        merged.merge(&r.profile);
    }
    // Artifact key order is part of the interface (asserted by the e2e
    // determinism tests): the fully deterministic section first, then the
    // clearly labelled wall-clock section, so a byte-diff of two runs only
    // ever disagrees inside `wall_clock_nondeterministic`.
    let mut wall_section = match merged.wall_clock_value() {
        Value::Object(fields) => fields,
        _ => unreachable!("wall_clock_value always builds an object"),
    };
    wall_section.push(("wall_s".to_owned(), Value::Float(wall_s)));
    wall_section.push(("events_per_sec".to_owned(), Value::Float(report.events_per_sec())));
    let artifact = Value::Object(vec![
        ("deterministic".to_owned(), merged.deterministic_value()),
        ("wall_clock_nondeterministic".to_owned(), Value::Object(wall_section)),
    ]);
    let path = Path::new("results/profile.json");
    write_artifact_or_exit(path, &serde_json::to_string_pretty(&artifact).expect("total"));

    // The terminal output mirrors the artifact's split: the deterministic
    // tables are assembled in one buffer and flushed to stdout *before* any
    // wall-clock line goes to stderr — with both streams on one terminal
    // (or `2>&1`), timing lines can no longer interleave with table rows.
    use std::fmt::Write as _;
    use std::io::Write as _;
    let mut tables = String::new();
    let _ = writeln!(tables, "profile: {} scenarios, {} spans", specs.len(), merged.spans.len());
    let _ = writeln!(tables, "  {:<24} {:>12}", "event kind", "dispatches");
    for (key, count) in merged.counters.iter().filter(|(k, _)| k.starts_with("event.")) {
        let _ = writeln!(tables, "  {:<24} {:>12}", key, count);
    }
    // Where pending events wait: all of them, the packet heap, the timer heap.
    let _ = writeln!(tables, "  {:<24} {:>12}", "per dispatch", "mean");
    for key in ["event.pending", "event.heap_depth", "event.timer_depth"] {
        let mean = merged.sim_histograms.get(key).map_or(0.0, obs::LogHistogram::mean);
        let _ = writeln!(tables, "  {:<24} {:>12.1}", key, mean);
    }
    // What the TCP-PR, TCP-SACK and BBR ACK paths cost against what their
    // ACKs changed (segments newly acknowledged, SACKed or declared lost).
    let _ = writeln!(tables, "  {:<24} {:>12}", "ACK path", "count");
    for key in ["sender.acks", "sender.ack_changes", "sender.ack_steps"] {
        let count = merged.counters.get(key).copied().unwrap_or(0);
        let _ = writeln!(tables, "  {:<24} {:>12}", key, count);
    }
    let _ = writeln!(tables, "  {:<24} {:>12}", "span kind", "count");
    for (kind, count) in &merged.span_counts {
        let _ = writeln!(tables, "  {:<24} {:>12}", kind, count);
    }
    print!("{tables}");
    let _ = std::io::stdout().flush();
    eprintln!("[profile] done: {}", report.summary());
    eprintln!("[profile] artifact -> {}", path.display());
    true
}

/// `repro bench-check`: the perf-regression gate over the trajectory.
/// Returns the process exit code.
fn run_bench_check(cli: &Cli) -> i32 {
    let default_path = PathBuf::from(bench::TRAJECTORY_PATH);
    let path = cli.trajectory.as_deref().unwrap_or(&default_path);
    let entries = match bench::load_trajectory(path) {
        Ok(entries) => entries,
        Err(e) => {
            eprintln!("error: bench-check: {e}");
            return 1;
        }
    };
    if entries.len() < cli.min_entries {
        println!(
            "bench-check: {} has {} entr{}; below --min-entries {} — pass",
            path.display(),
            entries.len(),
            if entries.len() == 1 { "y" } else { "ies" },
            cli.min_entries
        );
        return 0;
    }
    match bench::check(&entries) {
        Ok(None) => {
            let workload = entries.last().map(bench::workload_of).unwrap_or(bench::SWEEP_WORKLOAD);
            println!(
                "bench-check: {} has {} entr{} but no earlier {workload:?} entry from the same \
                 machine to compare — pass",
                path.display(),
                entries.len(),
                if entries.len() == 1 { "y" } else { "ies" }
            );
            0
        }
        Ok(Some(delta)) => {
            let workload = entries.last().map(bench::workload_of).unwrap_or(bench::SWEEP_WORKLOAD);
            println!(
                "bench-check: [{workload}] scenarios per wall-second {:.3} -> {:.3} ({:+.1}%), \
                 threshold -{:.1}%",
                delta.previous,
                delta.latest,
                delta.delta_pct(),
                cli.threshold_pct
            );
            if delta.regressed(cli.threshold_pct) {
                eprintln!(
                    "error: bench-check: scenarios per wall-second regressed {:.1}% (> {:.1}% \
                     allowed)",
                    -delta.delta_pct(),
                    cli.threshold_pct
                );
                1
            } else {
                println!("bench-check: pass");
                0
            }
        }
        Err(e) => {
            eprintln!("error: bench-check: {e}");
            1
        }
    }
}

/// `repro hunt`: the adversarial search. Returns the process exit code.
/// Finding a counterexample is a *successful* hunt, not an error — the
/// exit code reflects infrastructure failures only.
fn run_hunt(cli: &Cli) -> i32 {
    let variant = match Variant::from_name(&cli.hunt_variant)
        .or_else(|| Variant::ALL.into_iter().find(|v| v.label() == cli.hunt_variant))
    {
        Some(v) => v,
        None => {
            eprintln!("error: hunt: unknown variant {:?}", cli.hunt_variant);
            return 2;
        }
    };
    let objective = match hunt::Objective::from_name(&cli.objective) {
        Some(o) => o,
        None => {
            eprintln!("error: hunt: --objective must be goodput|fairness|oracle");
            return 2;
        }
    };
    let cfg =
        hunt::HuntConfig { variant, objective, budget: cli.budget, seed: cli.seed, jobs: cli.jobs };
    eprintln!(
        "[hunt] {} objective={} budget={} seed={} ({} workers)",
        variant.label(),
        objective.name(),
        cfg.budget,
        cfg.seed,
        cfg.jobs
    );
    match hunt::run_hunt(&cfg) {
        Ok(report) => {
            println!(
                "hunt: baseline {:.4}, threshold {:.4}, best {:.4} after {} evaluations ({} memoized)",
                report.baseline_value,
                report.threshold,
                report.best_value,
                report.evaluations,
                report.memo_hits
            );
            match (&report.counterexample, &report.minimal) {
                (Some(path), Some(minimal)) => {
                    println!(
                        "hunt: counterexample found, shrunk to size {} -> {}",
                        minimal.size(),
                        path.display()
                    );
                    // Post-mortem the find while it's hot. A failed explain
                    // is a warning, never a failed hunt: the counterexample
                    // itself is already pinned.
                    match explain::run_explain(path, cli.jobs) {
                        Ok(r) => {
                            print!("{}", r.rendering);
                            println!("hunt: post-mortem -> {}", r.path.display());
                        }
                        Err(e) => eprintln!("warning: hunt: explain failed: {e}"),
                    }
                }
                _ => println!("hunt: no counterexample within budget"),
            }
            eprintln!("[hunt] artifact -> results/hunt.json");
            0
        }
        Err(e) => {
            eprintln!("error: hunt: {e}");
            1
        }
    }
}

/// `repro explain <counterexample.json>…`: forensic post-mortems. Returns
/// the process exit code.
fn run_explain_cmd(cli: &Cli) -> i32 {
    let files: Vec<&String> = cli.which.iter().filter(|w| *w != "explain").collect();
    if files.is_empty() {
        eprintln!("error: explain needs a counterexample file (results/counterexamples/*.json)");
        return 2;
    }
    let mut code = 0;
    for f in files {
        eprintln!("[explain] {f} ({} workers)", cli.jobs);
        match explain::run_explain(Path::new(f), cli.jobs) {
            Ok(r) => {
                print!("{}", r.rendering);
                println!("explain: report -> {}", r.path.display());
            }
            Err(e) => {
                eprintln!("error: explain: {e}");
                code = 1;
            }
        }
    }
    code
}

/// `repro replay <counterexample.json>…`: re-checks that pinned
/// counterexamples still degrade past their thresholds. Exit code 1 when
/// any fails to reproduce (or to run) — the fixture regression gate.
fn run_replay_cmd(cli: &Cli) -> i32 {
    let files: Vec<&String> = cli.which.iter().filter(|w| *w != "replay").collect();
    if files.is_empty() {
        eprintln!("error: replay needs a counterexample file (tests/fixtures/*.json)");
        return 2;
    }
    let mut code = 0;
    for f in files {
        match explain::run_replay(Path::new(f)) {
            Ok(r) => {
                println!(
                    "replay: {f}: {} baseline {:.4} threshold {:.4} value {:.4} -> {}",
                    r.objective.name(),
                    r.baseline_value,
                    r.threshold,
                    r.value,
                    if r.reproduced { "still reproduces" } else { "NO LONGER REPRODUCES" }
                );
                if !r.reproduced {
                    code = 1;
                }
            }
            Err(e) => {
                eprintln!("error: replay: {e}");
                code = 1;
            }
        }
    }
    code
}

fn main() {
    let cli = parse_args();

    // Standalone commands: the regression gate needs no sweep at all,
    // `hunt` drives its own search loop, `explain` / `replay` consume the
    // remaining positionals as counterexample files, and `profile` consumes
    // them as its grid list.
    if cli.which.iter().any(|w| w == "bench-check") {
        exit(run_bench_check(&cli));
    }
    if cli.which.iter().any(|w| w == "explain") {
        create_dir_or_exit(Path::new("results"), "results");
        exit(run_explain_cmd(&cli));
    }
    if cli.which.iter().any(|w| w == "replay") {
        exit(run_replay_cmd(&cli));
    }
    if cli.which.iter().any(|w| w == "hunt") {
        create_dir_or_exit(Path::new("results"), "results");
        exit(run_hunt(&cli));
    }
    if cli.which.iter().any(|w| w == "profile") {
        create_dir_or_exit(Path::new("results"), "results");
        let ctx = ExecCtx { telemetry_dir: None, forensics: None };
        exit(if run_profile(&cli, &ctx) { 0 } else { 1 });
    }

    let all = cli.which.is_empty() || cli.which.iter().any(|w| w == "all");
    let wants = |name: &str| all || cli.which.iter().any(|w| w == name);

    create_dir_or_exit(Path::new("results"), "results");
    if let Some(dir) = &cli.telemetry_dir {
        create_dir_or_exit(dir, "telemetry");
    }
    let ctx = ExecCtx { telemetry_dir: cli.telemetry_dir.clone(), forensics: None };

    // `ext` (route flaps, MANET churn) is opt-in, as before; everything
    // else participates in `all`.
    let figures: Vec<FigureGrid> = all_figures(cli.quick, cli.telemetry_dir.is_some())
        .into_iter()
        .filter(|g| {
            if g.in_all {
                wants(g.selector)
            } else {
                cli.which.iter().any(|w| w == g.selector)
            }
        })
        .collect();

    let mut ok = true;
    if !figures.is_empty() {
        // A pure `repro scale` run doubles as the scale perf measurement:
        // its wall time lands in the trajectory (workload-tagged, so
        // bench-check compares it only against other scale runs). Mixed
        // selections are not recorded — the timing would not be comparable.
        let scale_only = figures.iter().all(|g| g.selector == "scale");
        let (figures_ok, stats) = run_figures(figures, &ctx, &sweep_options(&cli));
        ok = figures_ok;
        if ok && scale_only {
            append_scale_bench(&cli, &stats);
        }
    }
    if cli.which.iter().any(|w| w == "bench-sweep") {
        run_bench_sweep(&cli, &ctx);
    }
    if !ok {
        exit(1);
    }
}
