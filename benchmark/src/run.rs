//! The `run` subcommand: the end-to-end pass, or the traced pass.

use std::path::PathBuf;

use experiments::sweep::decode::{as_str, get};
use serde::Value;

use crate::alloc;
use crate::digest::hex;
use crate::metrics::{end_to_end, per_layer, Measured, Sheet, SETUP_S, SIM_S_PER_WALL_S};
use crate::micro;
use crate::report::{self, Machine, WorkloadResult};
use crate::spans;
use crate::stats::summarize;
use crate::workloads::{check_golden, Op, Rep, Workload};
use crate::yardstick::{Footprint, Yardstick};

/// The seed the digests under `golden/` are pinned for, and the default.
pub const GOLDEN_SEED: u64 = 7;
const GOLDEN: &str = include_str!("../golden/seed7.json");

/// Set-up-only passes taken after every repetition of the end-to-end pass;
/// `setup_s` is the median of them all. Set-up is micro- to milliseconds,
/// so one reading per repetition would be timer noise, and a burst of
/// passes at process start would time a cold heap and cold caches: spread
/// over the run they see the machine the repetitions see.
const SETUP_PASSES_PER_REP: usize = 9;

/// Fewest timed repetitions behind a `sim_s_per_wall_s` median, however
/// short `--seconds` is.
const MIN_REPS: usize = 3;

/// Share of `--seconds` the traced pass spends on its untraced reference
/// (what `sim.wall_ns_per_pkt` and `obs.slowdown` are taken against); the
/// rest of its time goes to the traced repetition and the microbenches.
const REFERENCE_SHARE: f64 = 1.0 / 3.0;

pub struct Options {
    pub workloads: Vec<Workload>,
    pub seed: u64,
    /// Wall seconds of timed section to measure per workload.
    pub seconds: f64,
    pub traced: bool,
    pub out: PathBuf,
}

/// The pinned digests of one workload, by simulation label.
fn golden(workload: &str) -> Vec<(String, String)> {
    let doc = serde_json::from_str(GOLDEN).expect("golden/seed7.json is valid JSON");
    match get(&doc, "digests").and_then(|d| get(d, workload)) {
        Some(Value::Object(entries)) => entries
            .iter()
            .map(|(label, d)| (label.clone(), as_str(d).expect("a hex digest").to_owned()))
            .collect(),
        _ => Vec::new(),
    }
}

/// Operations attempted and failed over every repetition of a workload.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
    failures: Vec<String>,
    digests: Vec<(String, String)>,
}

impl Tally {
    fn absorb(&mut self, ops: &[Op]) {
        if self.attempted == 0 {
            self.digests =
                ops.iter().filter_map(|op| op.digest.map(|d| (op.label.clone(), hex(d)))).collect();
        }
        for op in ops {
            self.attempted += 1;
            if let Some(why) = &op.failure {
                self.failed += 1;
                if self.failures.len() < 8 {
                    self.failures.push(format!("{}: {why}", op.label));
                }
            }
        }
    }
}

struct Runner<'a> {
    workload: Workload,
    opts: &'a Options,
    golden: Option<Vec<(String, String)>>,
    tally: Tally,
    /// Read between the slices of every repetition but the traced one,
    /// whose timings are per-layer and unbounded.
    yard: Option<&'a mut Yardstick>,
}

impl Runner<'_> {
    /// One verified repetition. Any `--seed` but the golden one skips the
    /// digests and keeps the oracle and delivery checks.
    fn repetition(&mut self) -> Rep {
        let mut rep =
            self.workload.repetition(self.opts.seed, &self.opts.out, self.yard.as_deref_mut());
        if let Some(golden) = &self.golden {
            check_golden(&mut rep.ops, golden);
        }
        self.tally.absorb(&rep.ops);
        rep
    }

    /// An untimed warm-up, then timed repetitions until `budget_s` wall
    /// seconds of timed section are spent, and at least `min_reps`.
    /// `between` runs after every repetition, the warm-up too.
    fn timed_repetitions(
        &mut self,
        budget_s: f64,
        min_reps: usize,
        mut between: impl FnMut(&mut Self),
    ) -> Vec<Rep> {
        self.repetition();
        between(self);
        let mut reps = Vec::new();
        let mut spent = 0.0;
        while spent < budget_s || reps.len() < min_reps {
            let rep = self.repetition();
            between(self);
            spent += rep.raw_run_s();
            reps.push(rep);
        }
        reps
    }

    /// [`SETUP_PASSES_PER_REP`] set-up-only passes, each in seconds of the
    /// quiet machine: divided by the mean of the yardstick read before the
    /// passes and after. Returns `(quiet, raw)` seconds per pass.
    fn setup_passes(&mut self) -> Vec<(f64, f64)> {
        let read = |yard: &mut Option<&mut Yardstick>| yard.as_mut().map_or(1.0, |y| y.slowdown(1));
        let before = read(&mut self.yard);
        let raw: Vec<f64> =
            (0..SETUP_PASSES_PER_REP).map(|_| self.workload.setup_only(self.opts.seed)).collect();
        let slowdown = (before + read(&mut self.yard)) / 2.0;
        raw.into_iter().map(|s| (s / slowdown, s)).collect()
    }

    fn finish(self, metrics: Vec<Measured>) -> WorkloadResult {
        WorkloadResult {
            workload: self.workload,
            attempted: self.tally.attempted,
            failed: self.tally.failed,
            failures: self.tally.failures,
            digests: self.tally.digests,
            metrics,
            machine: None,
        }
    }
}

/// The end-to-end pass: `obs` disabled, allocation counting off, every wall
/// time in seconds of the quiet machine (see `yardstick.rs`).
fn end_to_end_pass(mut r: Runner<'_>) -> WorkloadResult {
    let mut setups = Vec::new();
    let reps = r.timed_repetitions(r.opts.seconds, MIN_REPS, |r| setups.extend(r.setup_passes()));
    let column = |f: &dyn Fn(&Rep) -> f64| summarize(&reps.iter().map(f).collect::<Vec<_>>());
    let mut sheet = Sheet::new(end_to_end());
    sheet.median(SIM_S_PER_WALL_S, column(&|rep| rep.sim_s / rep.run_s()));
    sheet.median(SETUP_S, summarize(&setups.iter().map(|s| s.0).collect::<Vec<_>>()));
    let machine = Machine {
        slowdown: column(&|rep| rep.raw_run_s() / rep.run_s()),
        raw_sim_s_per_wall_s: column(&|rep| rep.sim_s / rep.raw_run_s()).median,
        raw_setup_s: summarize(&setups.iter().map(|s| s.1).collect::<Vec<_>>()).median,
    };
    WorkloadResult { machine: Some(machine), ..r.finish(sheet.finish()) }
}

/// The traced pass: a short untraced reference, then one repetition with
/// `obs` enabled, allocations counted and spans recorded. Returns the
/// drained `obs` report beside the result.
fn traced_pass(
    mut r: Runner<'_>,
    micro: &(Vec<Measured>, Option<String>),
) -> (WorkloadResult, obs::ProfileReport) {
    // Per-layer timings are not divided by the machine's slowdown; what the
    // yardstick read during the reference goes out beside them.
    let reference = r.timed_repetitions(r.opts.seconds * REFERENCE_SHARE, 1, |_| ());
    r.yard = None;
    let median =
        |f: &dyn Fn(&Rep) -> f64| summarize(&reference.iter().map(f).collect::<Vec<_>>()).median;
    let reference_run_s = median(&Rep::raw_run_s);
    let machine_slowdown = median(&|rep| rep.raw_run_s() / rep.run_s());

    spans::enable();
    spans::set_workload(r.workload.name());
    let span = spans::enter("workload", "");
    let _ = obs::take();
    obs::enable();
    alloc::start();
    let rep = r.repetition();
    let allocated = alloc::stop();
    obs::disable();
    drop(span);
    spans::pause();

    let c = rep.counts;
    let pkts = c.pkts as f64;
    let mut sheet = Sheet::new(per_layer());
    sheet.adopt(&micro.0);
    sheet.count("sim.events_per_pkt", c.events as f64 / pkts);
    sheet.timing("sim.wall_ns_per_pkt", reference_run_s * 1e9 / pkts);
    let counter = |key: &str| rep.profile.counters.get(key).copied().unwrap_or(0) as f64;
    let events: f64 = rep
        .profile
        .counters
        .iter()
        .filter(|(k, _)| k.starts_with("event."))
        .map(|(_, &n)| n as f64)
        .sum();
    sheet.count("event.share_arrive", counter("event.arrive") / events);
    sheet.count("event.share_link_ready", counter("event.link_ready") / events);
    sheet
        .count("event.share_timer", (counter("event.timer") + counter("event.aux_timer")) / events);
    let mean = |key: &str| rep.profile.sim_histograms.get(key).map_or(0.0, obs::LogHistogram::mean);
    sheet.count("event.heap_depth_mean", mean("event.heap_depth"));
    sheet.count("event.heap_peak", c.heap_peak as f64);
    sheet.count("link.queue_depth_mean", mean("queue.depth"));
    let (enqueued, dropped) = (counter("queue.enqueue"), counter("queue.drop"));
    sheet.count("link.drop_share", dropped / (enqueued + dropped));
    sheet.count("receiver.late_share", c.late_arrivals as f64 / c.received as f64);
    sheet.count("sender.rtx_share", c.retransmits as f64 / c.segments_sent as f64);
    // Allocation counts repeat exactly only where one thread allocates.
    let mut alloc_metric = |name: &str, value: f64| match r.workload {
        Workload::SweepGrid => sheet.timing(name, value),
        _ => sheet.count(name, value),
    };
    alloc_metric("alloc.per_pkt", allocated.allocs as f64 / pkts);
    alloc_metric("alloc.bytes_per_pkt", allocated.bytes as f64 / pkts);
    alloc_metric("alloc.peak_live_kb", allocated.peak_live_bytes as f64 / 1024.0);
    sheet.timing("obs.slowdown", rep.raw_run_s() / reference_run_s);
    sheet.timing("yardstick.slowdown", machine_slowdown);

    // The sweep slice the microbenches check counts as one more operation.
    r.tally.absorb(&[Op {
        label: "micro sweep slice".to_owned(),
        failure: micro.1.clone(),
        digest: None,
    }]);
    (r.finish(sheet.finish()), rep.profile)
}

/// Runs the selected workloads, prints every metric, writes
/// `results.json` (and `trace.json` when traced) under `--out`, and ends
/// with one result line per workload.
pub fn run(opts: &Options) -> std::io::Result<()> {
    std::fs::create_dir_all(&opts.out)?;
    let header = report::header(opts.seed, opts.seconds, opts.traced);
    if opts.traced {
        spans::enable();
    }
    // Every yardstick is built before anything else allocates: a lane laid
    // out in a heap the workloads have churned runs up to a third slower,
    // and would read the machine as that much slower than it is.
    let mut yards: Vec<((usize, Footprint), Yardstick)> = Vec::new();
    for kind in opts.workloads.iter().map(|w| w.yardstick()) {
        if yards.iter().all(|(k, _)| *k != kind) {
            yards.push((kind, Yardstick::new(kind.0, kind.1)));
        }
    }
    let micro = opts.traced.then(|| micro::run_all(opts.seed, &opts.out));
    spans::pause();

    let mut results = Vec::new();
    let mut profiles = Vec::new();
    for &workload in &opts.workloads {
        let yard = yards.iter_mut().find(|(k, _)| *k == workload.yardstick()).map(|(_, y)| y);
        let runner = Runner {
            workload,
            opts,
            golden: (opts.seed == GOLDEN_SEED).then(|| golden(workload.name())),
            tally: Tally::default(),
            yard,
        };
        let result = match &micro {
            None => end_to_end_pass(runner),
            Some(micro) => {
                let (result, profile) = traced_pass(runner, micro);
                profiles.push((workload.name().to_owned(), serde::Serialize::to_value(&profile)));
                result
            }
        };
        result.print();
        results.push(result);
    }

    report::write_json(&opts.out, "results.json", &report::results_value(&header, &results))?;
    if opts.traced {
        let mut trace = header;
        trace.push(("spans".to_owned(), spans::drain()));
        trace.push(("obs".to_owned(), Value::Object(profiles)));
        report::write_json(&opts.out, "trace.json", &Value::Object(trace))?;
    }
    for r in &results {
        println!("{}", r.result_line());
    }
    Ok(())
}
