//! Regenerates every table/figure of the TCP-PR paper's evaluation.
//!
//! ```text
//! cargo run -p experiments --bin repro --release -- [command] [positional…] [flag…]
//! ```
//!
//! The commands, what each takes and the flags each reads are declared
//! once, in [`COMMANDS`]; `repro --list` prints that table after the
//! selector listing. The command is the first positional — anything else
//! there is a selector for the figure sweep — and a flag given to a command
//! that does not read it is an error.
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
//! reported on stderr only — speed is measured by `benchmark/`, nowhere
//! else. With `--telemetry-dir <dir>`, the fig2 run additionally streams a
//! complete JSONL packet trace of its first TCP-PR flow into `<dir>`.

use std::fmt::Display;
use std::fs;
use std::num::{NonZeroU64, NonZeroUsize};
use std::path::{Path, PathBuf};
use std::process::exit;
use std::str::FromStr;

use experiments::explain::{self, CounterexampleDoc};
use experiments::hunt;
use experiments::sweep::grids::{all_figures, selectors, FigureGrid};
use experiments::sweep::{
    run_sweep, CachePolicy, ExecCtx, ScenarioSpec, SweepOptions, DEFAULT_CACHE_DIR,
};
use experiments::telemetry::{artifact_json, warn_if_dropped};
use experiments::variants::Variant;
use netsim::telemetry::SessionStats;
use serde::Value;

/// A flag some command reads: its spelling and, unless it is a switch, what
/// its value must be (the text of the one error a bad value gets).
struct Flag {
    name: &'static str,
    needs: Option<&'static str>,
}

const QUICK: Flag = Flag { name: "--quick", needs: None };
const RESUME: Flag = Flag { name: "--resume", needs: None };
const NO_CACHE: Flag = Flag { name: "--no-cache", needs: None };
const JOBS: Flag = Flag { name: "--jobs", needs: Some("a worker count >= 1") };
const TELEMETRY_DIR: Flag = Flag { name: "--telemetry-dir", needs: Some("a directory argument") };
const BUDGET: Flag = Flag { name: "--budget", needs: Some("an evaluation count >= 1") };
const SEED: Flag = Flag { name: "--seed", needs: Some("an integer") };
const OBJECTIVE: Flag = Flag { name: "--objective", needs: Some("goodput|fairness|oracle") };
const VARIANT: Flag = Flag { name: "--variant", needs: Some("a protocol name") };

/// One `repro` command. `--list`, the choice of command, which flags it
/// accepts and what runs are all read off [`COMMANDS`]; no command name is
/// spelled anywhere else.
struct Command {
    name: &'static str,
    /// Its positionals, then what it does.
    usage: &'static str,
    flags: &'static [Flag],
    run: fn(&Args) -> i32,
}

/// The figure sweep first: it is the command when the first positional
/// names no other row, and its own name is the selector for every grid
/// marked `*`.
const COMMANDS: [Command; 5] = [
    Command {
        name: "all",
        usage: "[selector…]  every selector marked * plus those named; selectors alone \
                run just those -> results/<artifact>.json",
        flags: &[QUICK, JOBS, RESUME, NO_CACHE, TELEMETRY_DIR],
        run: run_figures,
    },
    Command {
        name: "profile",
        usage: "[selector…]  profiled, uncached re-run of the named grids (default fig6) \
                -> results/profile.json",
        flags: &[QUICK, JOBS],
        run: run_profile,
    },
    Command {
        name: "hunt",
        usage: " adversarial schedule search, shrink and post-mortem \
                -> results/hunt.json, results/counterexamples/",
        flags: &[BUDGET, OBJECTIVE, VARIANT, SEED, JOBS],
        run: run_hunt,
    },
    Command {
        name: "explain",
        usage: "<counterexample.json>…  forensic post-mortem -> results/explain/<hash>.json",
        flags: &[JOBS],
        run: run_explain,
    },
    Command {
        name: "replay",
        usage: "<counterexample.json>…  exit 1 unless each pinned counterexample still degrades",
        flags: &[],
        run: run_replay,
    },
];
const SWEEP: &Command = &COMMANDS[0];

impl Command {
    fn flag_names(&self) -> String {
        match self.flags {
            [] => "no flags".to_owned(),
            flags => flags.iter().map(|f| f.name).collect::<Vec<_>>().join(" "),
        }
    }
}

/// A usage error: the command line, or a file it names, is at fault.
fn fail(msg: impl Display) -> ! {
    eprintln!("error: {msg}");
    exit(2)
}

/// What the command line gave the chosen command: its name, the positionals
/// after it, and each flag's name with its raw value (empty for a switch).
struct Args {
    command: &'static str,
    positionals: Vec<String>,
    given: Vec<(&'static str, String)>,
}

impl Args {
    fn has(&self, flag: &Flag) -> bool {
        self.given.iter().any(|(name, _)| *name == flag.name)
    }

    /// The value of `flag` (the last one given) as `parse` reads it; a value
    /// it refuses is a usage error in the one format every flag shares.
    fn parsed<T>(&self, flag: &Flag, parse: impl Fn(&str) -> Option<T>) -> Option<T> {
        let (_, raw) = self.given.iter().rev().find(|(name, _)| *name == flag.name)?;
        let needs = flag.needs.expect("switches carry no value");
        Some(
            parse(raw).unwrap_or_else(|| fail(format!("{} needs {needs}, got {raw:?}", flag.name))),
        )
    }

    fn value<T: FromStr>(&self, flag: &Flag) -> Option<T> {
        self.parsed(flag, |raw| raw.parse().ok())
    }

    fn jobs(&self) -> usize {
        let default = || std::thread::available_parallelism().map_or(1, NonZeroUsize::get);
        self.value::<NonZeroUsize>(&JOBS).map_or_else(default, NonZeroUsize::get)
    }
}

/// Splits the command line into a command and its [`Args`].
fn parse_args() -> (&'static Command, Args) {
    let mut args = Args { command: SWEEP.name, positionals: Vec::new(), given: Vec::new() };
    let mut argv = std::env::args().skip(1);
    while let Some(arg) = argv.next() {
        if arg == "--list" {
            print_listing();
            exit(0);
        }
        if !arg.starts_with("--") {
            args.positionals.push(arg);
            continue;
        }
        // Whether a value follows is the flag's own business, so it is looked
        // up before the command is known.
        let Some(flag) = COMMANDS.iter().flat_map(|c| c.flags).find(|f| f.name == arg) else {
            fail(format!("unknown flag {arg}"))
        };
        let raw = match flag.needs {
            None => String::new(),
            Some(needs) => argv.next().unwrap_or_else(|| fail(format!("{arg} needs {needs}"))),
        };
        args.given.push((flag.name, raw));
    }
    let first = args.positionals.first();
    let cmd = first.and_then(|p| COMMANDS.iter().skip(1).find(|c| c.name == p)).unwrap_or(SWEEP);
    if cmd.name != SWEEP.name {
        args.positionals.remove(0);
        args.command = cmd.name;
    }
    for (given, _) in &args.given {
        if !cmd.flags.iter().any(|f| f.name == *given) {
            fail(format!("`repro {}` reads {}, not {given}", cmd.name, cmd.flag_names()));
        }
    }
    (cmd, args)
}

/// Refuses a positional that names no grid, for the two commands whose
/// positionals are selectors.
fn check_selectors(named: &[String]) {
    let known = selectors();
    for w in named {
        if w != SWEEP.name && !known.contains(&w.as_str()) {
            eprintln!("error: unknown selector {w}");
            print_listing();
            exit(2);
        }
    }
}

/// Prints every selector with its artifacts and cell counts, then the
/// command table (`--list`, and the footer of the unknown-selector error).
/// Selectors print in sorted order so the listing is deterministic and diffs
/// cleanly as grids are added, independent of grid declaration order.
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
    println!("commands (the first positional; anything else there is a selector):");
    for cmd in &COMMANDS {
        println!(" {} {}\n     reads {}", cmd.name, cmd.usage, cmd.flag_names());
    }
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

fn sweep_options(jobs: usize, cache: CachePolicy) -> SweepOptions {
    SweepOptions { jobs, cache, cache_dir: DEFAULT_CACHE_DIR.into(), progress: true }
}

/// The figure sweep: runs the requested figures as one sweep and renders
/// each figure from its slice of the outcomes. Exit 1 if any scenario
/// crashed.
fn run_figures(args: &Args) -> i32 {
    let telemetry_dir: Option<PathBuf> = args.value(&TELEMETRY_DIR);
    let cache = match (args.has(&RESUME), args.has(&NO_CACHE)) {
        (true, true) => {
            fail(format!("{} and {} contradict each other", RESUME.name, NO_CACHE.name))
        }
        (_, true) => CachePolicy::Off,
        (true, _) => CachePolicy::ReadWrite,
        _ => CachePolicy::WriteOnly,
    };
    let opts = sweep_options(args.jobs(), cache);
    check_selectors(&args.positionals);
    let named = |name: &str| args.positionals.iter().any(|w| w == name);
    let all = args.positionals.is_empty() || named(SWEEP.name);

    create_dir_or_exit(Path::new("results"), "results");
    if let Some(dir) = &telemetry_dir {
        create_dir_or_exit(dir, "telemetry");
    }
    // Grids outside `all` (`ext`: route flaps, MANET churn; the stress,
    // scale and smoke grids) run only when named.
    let figures: Vec<FigureGrid> = all_figures(args.has(&QUICK), telemetry_dir.is_some())
        .into_iter()
        .filter(|g| (g.in_all && all) || named(g.selector))
        .collect();
    let ctx = ExecCtx { telemetry_dir, forensics: None };

    let specs: Vec<_> = figures.iter().flat_map(|g| g.specs.iter().cloned()).collect();
    eprintln!(
        "[sweep] {} scenario(s) across {} artifact(s), {} worker(s)",
        specs.len(),
        figures.len(),
        opts.jobs
    );
    let report = run_sweep(&specs, &ctx, &opts);
    eprintln!("[sweep] done: {}", report.summary());

    let mut code = 0;
    let mut offset = 0;
    for grid in &figures {
        let runs = &report.runs[offset..offset + grid.specs.len()];
        offset += grid.specs.len();

        let crashed = runs.iter().filter(|r| r.outcome.value().is_none()).count();
        if crashed > 0 {
            eprintln!(
                "error: [{}] {crashed} scenario(s) crashed — artifact not written",
                grid.artifact
            );
            code = 1;
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
    code
}

/// `repro profile`: re-runs the named figure grids (default `fig6`) with
/// the profiler enabled and writes `results/profile.json`. The sweep cache
/// is bypassed in both directions — a cache hit executes nothing, so it
/// profiles nothing, and profiled runs must not alter what later plain runs
/// read back. Exit 1 if any scenario crashed.
fn run_profile(args: &Args) -> i32 {
    let opts = sweep_options(args.jobs(), CachePolicy::Off);
    check_selectors(&args.positionals);
    let fig6 = ["fig6".to_owned()];
    let named = if args.positionals.is_empty() { &fig6[..] } else { &args.positionals[..] };
    let figures: Vec<FigureGrid> = all_figures(args.has(&QUICK), false)
        .into_iter()
        .filter(|g| named.iter().any(|w| *w == g.selector))
        .collect();
    if figures.is_empty() {
        eprintln!("error: profile matched no grids");
        return 1;
    }
    create_dir_or_exit(Path::new("results"), "results");
    let specs: Vec<_> = figures.iter().flat_map(|g| g.specs.iter().cloned()).collect();
    eprintln!(
        "[profile] {} scenario(s) across {} grid(s), {} worker(s), profiler on",
        specs.len(),
        figures.len(),
        opts.jobs
    );

    obs::enable();
    let t0 = std::time::Instant::now();
    let report = run_sweep(&specs, &ExecCtx::default(), &opts);
    let wall_s = t0.elapsed().as_secs_f64();
    obs::disable();
    if report.crashed > 0 {
        eprintln!("error: [profile] {} scenario(s) crashed — artifact not written", report.crashed);
        return 1;
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
    0
}

/// Loads the counterexample files a command was given. A file that cannot
/// be read, parsed, range-checked or matched to its hash is a usage error
/// (exit 2), raised before anything runs.
fn load_counterexamples(args: &Args) -> Vec<(&String, CounterexampleDoc, ScenarioSpec)> {
    let who = args.command;
    if args.positionals.is_empty() {
        fail(format!("{who} needs a counterexample file (results/counterexamples/*.json)"));
    }
    let load = |f| match CounterexampleDoc::load(Path::new(f)) {
        Ok((doc, spec)) => (f, doc, spec),
        Err(e) => fail(format!("{who}: {e}")),
    };
    args.positionals.iter().map(load).collect()
}

/// `repro hunt`: the adversarial search. Finding a counterexample is a
/// *successful* hunt, not an error — the exit code reflects infrastructure
/// failures only.
fn run_hunt(args: &Args) -> i32 {
    if let Some(stray) = args.positionals.first() {
        fail(format!("unexpected positional {stray:?}"));
    }
    let by_name = |name: &str| Variant::from_name(name).or_else(|| Variant::from_label(name));
    let cfg = hunt::HuntConfig {
        variant: args.parsed(&VARIANT, by_name).unwrap_or(Variant::TcpPr),
        objective: args
            .parsed(&OBJECTIVE, hunt::Objective::from_name)
            .unwrap_or(hunt::Objective::Goodput),
        budget: args.value::<NonZeroU64>(&BUDGET).map_or(200, NonZeroU64::get),
        seed: args.value(&SEED).unwrap_or(1),
        jobs: args.jobs(),
    };
    create_dir_or_exit(Path::new("results"), "results");
    eprintln!(
        "[hunt] {} objective={} budget={} seed={} ({} workers)",
        cfg.variant.label(),
        cfg.objective.name(),
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
                    let explained = CounterexampleDoc::load(path)
                        .and_then(|(doc, spec)| explain::run_explain(&doc, &spec, cfg.jobs));
                    match explained {
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

/// `repro explain <counterexample.json>…`: forensic post-mortems. Exit 1 if
/// a replay crashed or its report could not be written.
fn run_explain(args: &Args) -> i32 {
    let jobs = args.jobs();
    let docs = load_counterexamples(args);
    create_dir_or_exit(Path::new("results"), "results");
    let mut code = 0;
    for (f, doc, spec) in &docs {
        eprintln!("[explain] {f} ({jobs} workers)");
        match explain::run_explain(doc, spec, jobs) {
            Ok(r) => {
                print!("{}", r.rendering);
                println!("explain: report -> {}", r.path.display());
            }
            Err(e) => {
                eprintln!("error: explain: {f}: {e}");
                code = 1;
            }
        }
    }
    code
}

/// `repro replay <counterexample.json>…`: re-checks that pinned
/// counterexamples still degrade past their thresholds. Exit 1 when any
/// fails to reproduce — the fixture regression gate.
fn run_replay(args: &Args) -> i32 {
    let mut code = 0;
    for (f, doc, spec) in &load_counterexamples(args) {
        let r =
            explain::run_replay(doc, spec).unwrap_or_else(|e| fail(format!("replay: {f}: {e}")));
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
    code
}

fn main() {
    let (cmd, args) = parse_args();
    exit((cmd.run)(&args));
}
