//! Adversarial hunt: a deterministic search for worst-case impairment and
//! admin schedules.
//!
//! The stress suite samples seven *fixed* impairment profiles; the hunt
//! instead **searches** the space they live in. A seeded hill climber
//! (`adversary::search`) mutates a [`Candidate`] — a pipeline of
//! [`ImpairmentSpec`] stages plus a list of one-shot [`AdminWindowSpec`]
//! outage/delay windows — minimizing a pluggable [`Objective`]: the hunted
//! variant's goodput, Jain fairness against a SACK rival, or the sim-core
//! invariant oracle (`netsim::oracle`). A found counterexample is then
//! reduced by delta-debugging (`adversary::shrink`) to a minimal candidate
//! that still fails, and pinned to disk as a replayable spec.
//!
//! ## Determinism contract
//!
//! `repro hunt --budget B --seed S` produces byte-identical
//! `results/hunt.json` and counterexample files at any `--jobs` count:
//!
//! - candidate generations are drawn from one seeded RNG *before*
//!   evaluation, so RNG consumption never depends on completion order;
//! - batches evaluate through the sweep pool, which returns outcomes in
//!   spec order regardless of worker count;
//! - each cell's sim seed derives from its spec's content hash, and
//!   repeated candidates are memoized by that same hash, so re-visiting a
//!   schedule is free and cannot re-randomize anything.
//!
//! All candidate parameters live on a coarse grid (probabilities in
//! [`PROB_STEP`] units, times in [`MS_STEP`] units), which makes the memo
//! table effective and gives the shrinker an integer size measure.

use std::collections::HashMap;
use std::path::{Path, PathBuf};

use adversary::search::{hill_climb, GenerationRecord, SearchConfig};
use adversary::shrink::{shrink, ShrinkOutcome};
use rand::rngs::SmallRng;
use rand::Rng;
use serde::{Serialize, Value};

use crate::cell::{self, Capture, CellReport, Metric, Observe};
use crate::sweep::decode::{as_f64, as_str, as_u64, get};
use crate::sweep::spec::{profile_name, AdminWindowSpec};
use crate::sweep::{
    run_sweep, CachePolicy, ExecCtx, ImpairmentSpec, PlanSpec, ScenarioKind, ScenarioSpec,
    SweepOptions,
};
use crate::variants::Variant;

/// Probability quantum: every mutated probability is a multiple of this.
pub const PROB_STEP: f64 = 0.005;
/// Time quantum, ms: every mutated instant/duration is a multiple of this.
pub const MS_STEP: u64 = 10;
/// Simulated horizon of one hunt cell, ms (`MeasurePlan::smoke()` total).
pub const HORIZON_MS: u64 = 4_000;

const MAX_STAGES: usize = 3;
const MAX_WINDOWS: usize = 3;

fn qprob(p: f64) -> u64 {
    (p / PROB_STEP).round() as u64
}

fn prob_of(units: u64) -> f64 {
    units as f64 * PROB_STEP
}

// ---------------------------------------------------------------------------
// Candidate space
// ---------------------------------------------------------------------------

/// One point of the adversary's search space: an impairment pipeline plus
/// one-shot admin windows, both applied to the hunt dumbbell's bottleneck.
#[derive(Debug, Clone, PartialEq)]
pub struct Candidate {
    /// Per-packet impairment stages, in pipeline order.
    pub impairments: Vec<ImpairmentSpec>,
    /// One-shot outage/delay windows, the schedule dimension.
    pub schedule: Vec<AdminWindowSpec>,
}

impl Candidate {
    /// The empty (baseline) candidate.
    pub fn baseline() -> Self {
        Candidate { impairments: Vec::new(), schedule: Vec::new() }
    }

    /// The shrinker's size measure: one unit per entry plus the quantized
    /// magnitude of each *intensity* parameter (placement instants are
    /// excluded — shrinking must weaken a counterexample, not relocate it).
    pub fn size(&self) -> u64 {
        let imp = |i: &ImpairmentSpec| {
            1 + match *i {
                ImpairmentSpec::IidLoss { p } => qprob(p),
                ImpairmentSpec::BurstLoss { p_good_to_bad, loss_bad, .. } => {
                    qprob(p_good_to_bad) + qprob(loss_bad)
                }
                ImpairmentSpec::Jitter { prob, max_extra_ms } => {
                    qprob(prob) + max_extra_ms / MS_STEP
                }
                ImpairmentSpec::Displace { depth, .. } => u64::from(depth),
                ImpairmentSpec::Duplicate { p } => qprob(p),
                ImpairmentSpec::Flap { down_ms, .. } => down_ms / MS_STEP,
                ImpairmentSpec::BandwidthOscillation { period_ms, .. } => period_ms / MS_STEP,
                ImpairmentSpec::DelayOscillation { high_delay_ms, .. } => high_delay_ms / MS_STEP,
            }
        };
        let win = |w: &AdminWindowSpec| {
            1 + match *w {
                AdminWindowSpec::Down { dur_ms, .. } => dur_ms / MS_STEP,
                AdminWindowSpec::Delay { dur_ms, delay_ms, .. } => {
                    dur_ms / MS_STEP + delay_ms / MS_STEP
                }
            }
        };
        self.impairments.iter().map(imp).sum::<u64>() + self.schedule.iter().map(win).sum::<u64>()
    }

    /// Human profile string: stage and window tags joined, or `baseline`.
    pub fn profile(&self) -> String {
        profile_name(&self.impairments, &self.schedule)
    }

    /// The smoke-plan hunt cell that runs this candidate against `variant`.
    pub(crate) fn spec(&self, variant: Variant, base_seed: u64) -> ScenarioSpec {
        let spec = ScenarioSpec::new(ScenarioKind::Hunt { variant }, PlanSpec::Smoke)
            .with_impairments(self.impairments.clone())
            .with_schedule(self.schedule.clone());
        ScenarioSpec { base_seed, ..spec }
    }
}

fn random_impairment(rng: &mut SmallRng) -> ImpairmentSpec {
    match rng.gen_range(0u32..6) {
        0 => ImpairmentSpec::IidLoss { p: prob_of(rng.gen_range(1u64..=12)) },
        1 => ImpairmentSpec::BurstLoss {
            p_good_to_bad: prob_of(rng.gen_range(1u64..=10)),
            p_bad_to_good: prob_of(rng.gen_range(10u64..=100)),
            loss_bad: prob_of(rng.gen_range(100u64..=200)),
        },
        2 => ImpairmentSpec::Jitter {
            prob: prob_of(rng.gen_range(20u64..=120)),
            max_extra_ms: MS_STEP * rng.gen_range(1u64..=8),
        },
        3 => ImpairmentSpec::Displace {
            every: rng.gen_range(5u64..=40),
            depth: rng.gen_range(2u32..=8),
        },
        4 => ImpairmentSpec::Duplicate { p: prob_of(rng.gen_range(1u64..=10)) },
        _ => {
            let period_ms = MS_STEP * rng.gen_range(50u64..=300);
            // Downtime stays inside the cycle.
            let down_ms = MS_STEP * rng.gen_range(1u64..=(period_ms / MS_STEP / 2).max(1));
            ImpairmentSpec::Flap { period_ms, down_ms }
        }
    }
}

fn random_window(rng: &mut SmallRng) -> AdminWindowSpec {
    if rng.gen_bool(0.5) {
        let dur_ms = MS_STEP * rng.gen_range(5u64..=40);
        let at_ms = MS_STEP * rng.gen_range(0u64..=(HORIZON_MS - dur_ms) / MS_STEP);
        AdminWindowSpec::Down { at_ms, dur_ms }
    } else {
        let dur_ms = MS_STEP * rng.gen_range(10u64..=60);
        let at_ms = MS_STEP * rng.gen_range(0u64..=(HORIZON_MS - dur_ms) / MS_STEP);
        AdminWindowSpec::Delay { at_ms, dur_ms, delay_ms: MS_STEP * rng.gen_range(5u64..=20) }
    }
}

/// Scales a quantized intensity up or down one octave, within `[1, cap]`.
fn scale(units: u64, up: bool, cap: u64) -> u64 {
    if up {
        (units * 2).min(cap)
    } else {
        (units / 2).max(1)
    }
}

fn tweak_impairment(i: &ImpairmentSpec, rng: &mut SmallRng) -> ImpairmentSpec {
    let up = rng.gen_bool(0.5);
    match *i {
        ImpairmentSpec::IidLoss { p } => {
            ImpairmentSpec::IidLoss { p: prob_of(scale(qprob(p), up, 40)) }
        }
        ImpairmentSpec::BurstLoss { p_good_to_bad, p_bad_to_good, loss_bad } => {
            match rng.gen_range(0u32..3) {
                0 => ImpairmentSpec::BurstLoss {
                    p_good_to_bad: prob_of(scale(qprob(p_good_to_bad), up, 40)),
                    p_bad_to_good,
                    loss_bad,
                },
                1 => ImpairmentSpec::BurstLoss {
                    p_good_to_bad,
                    p_bad_to_good: prob_of(scale(qprob(p_bad_to_good), up, 200)),
                    loss_bad,
                },
                _ => ImpairmentSpec::BurstLoss {
                    p_good_to_bad,
                    p_bad_to_good,
                    loss_bad: prob_of(scale(qprob(loss_bad), up, 200)),
                },
            }
        }
        ImpairmentSpec::Jitter { prob, max_extra_ms } => {
            if rng.gen_bool(0.5) {
                ImpairmentSpec::Jitter { prob: prob_of(scale(qprob(prob), up, 200)), max_extra_ms }
            } else {
                ImpairmentSpec::Jitter {
                    prob,
                    max_extra_ms: MS_STEP * scale(max_extra_ms / MS_STEP, up, 16),
                }
            }
        }
        ImpairmentSpec::Displace { every, depth } => {
            if rng.gen_bool(0.5) {
                ImpairmentSpec::Displace { every: scale(every, up, 64).max(2), depth }
            } else {
                ImpairmentSpec::Displace { every, depth: scale(u64::from(depth), up, 16) as u32 }
            }
        }
        ImpairmentSpec::Duplicate { p } => {
            ImpairmentSpec::Duplicate { p: prob_of(scale(qprob(p), up, 40)) }
        }
        ImpairmentSpec::Flap { period_ms, down_ms } => {
            let down = MS_STEP * scale(down_ms / MS_STEP, up, period_ms / MS_STEP / 2);
            ImpairmentSpec::Flap { period_ms, down_ms: down.max(MS_STEP) }
        }
        // The mutator never generates oscillations (the stress grid covers
        // them); re-roll into a fresh stage instead.
        ImpairmentSpec::BandwidthOscillation { .. } | ImpairmentSpec::DelayOscillation { .. } => {
            random_impairment(rng)
        }
    }
}

fn tweak_window(w: &AdminWindowSpec, rng: &mut SmallRng) -> AdminWindowSpec {
    let up = rng.gen_bool(0.5);
    let shift = |at_ms: u64, dur_ms: u64, rng: &mut SmallRng| {
        let delta = MS_STEP * rng.gen_range(1u64..=50);
        let limit = HORIZON_MS.saturating_sub(dur_ms);
        if rng.gen_bool(0.5) {
            (at_ms + delta).min(limit)
        } else {
            at_ms.saturating_sub(delta)
        }
    };
    match *w {
        AdminWindowSpec::Down { at_ms, dur_ms } => {
            if rng.gen_bool(0.5) {
                AdminWindowSpec::Down { at_ms: shift(at_ms, dur_ms, rng), dur_ms }
            } else {
                AdminWindowSpec::Down { at_ms, dur_ms: MS_STEP * scale(dur_ms / MS_STEP, up, 100) }
            }
        }
        AdminWindowSpec::Delay { at_ms, dur_ms, delay_ms } => match rng.gen_range(0u32..3) {
            0 => AdminWindowSpec::Delay { at_ms: shift(at_ms, dur_ms, rng), dur_ms, delay_ms },
            1 => AdminWindowSpec::Delay {
                at_ms,
                dur_ms: MS_STEP * scale(dur_ms / MS_STEP, up, 100),
                delay_ms,
            },
            _ => AdminWindowSpec::Delay {
                at_ms,
                dur_ms,
                delay_ms: MS_STEP * scale(delay_ms / MS_STEP, up, 40),
            },
        },
    }
}

/// One mutation move: add/remove/tweak an impairment stage or an admin
/// window. Pure function of `(c, rng)` — all placement and intensity values
/// stay on the quantization grid.
pub fn mutate(c: &Candidate, rng: &mut SmallRng) -> Candidate {
    let mut next = c.clone();
    match rng.gen_range(0u32..6) {
        0 if next.impairments.len() < MAX_STAGES => {
            next.impairments.push(random_impairment(rng));
        }
        1 if !next.impairments.is_empty() => {
            let i = rng.gen_range(0..next.impairments.len());
            next.impairments.remove(i);
        }
        2 if !next.impairments.is_empty() => {
            let i = rng.gen_range(0..next.impairments.len());
            next.impairments[i] = tweak_impairment(&next.impairments[i], rng);
        }
        3 if next.schedule.len() < MAX_WINDOWS => {
            next.schedule.push(random_window(rng));
        }
        4 if !next.schedule.is_empty() => {
            let i = rng.gen_range(0..next.schedule.len());
            next.schedule.remove(i);
        }
        5 if !next.schedule.is_empty() => {
            let i = rng.gen_range(0..next.schedule.len());
            next.schedule[i] = tweak_window(&next.schedule[i], rng);
        }
        // The rolled move is inapplicable (empty/full list): grow whichever
        // dimension has room so mutation never no-ops.
        _ => {
            if next.impairments.len() < MAX_STAGES {
                next.impairments.push(random_impairment(rng));
            } else if next.schedule.len() < MAX_WINDOWS {
                next.schedule.push(random_window(rng));
            } else {
                let i = rng.gen_range(0..next.impairments.len());
                next.impairments[i] = tweak_impairment(&next.impairments[i], rng);
            }
        }
    }
    next
}

/// The shrinker's proposal set: remove each entry, then halve each intensity
/// parameter (in quantized units). Every proposal strictly decreases
/// [`Candidate::size`].
pub fn shrink_steps(c: &Candidate) -> Vec<Candidate> {
    let mut out = Vec::new();
    for i in 0..c.impairments.len() {
        let mut s = c.clone();
        s.impairments.remove(i);
        out.push(s);
    }
    for i in 0..c.schedule.len() {
        let mut s = c.clone();
        s.schedule.remove(i);
        out.push(s);
    }
    for (i, imp) in c.impairments.iter().enumerate() {
        for weakened in weakened_impairments(imp) {
            let mut s = c.clone();
            s.impairments[i] = weakened;
            out.push(s);
        }
    }
    for (i, w) in c.schedule.iter().enumerate() {
        for weakened in weakened_windows(w) {
            let mut s = c.clone();
            s.schedule[i] = weakened;
            out.push(s);
        }
    }
    out
}

/// Halves one quantized unit count; `None` when halving would floor at 0 or
/// not strictly decrease.
fn halved(units: u64) -> Option<u64> {
    if units >= 2 {
        Some(units / 2)
    } else {
        None
    }
}

fn weakened_impairments(i: &ImpairmentSpec) -> Vec<ImpairmentSpec> {
    let mut out = Vec::new();
    match *i {
        ImpairmentSpec::IidLoss { p } => {
            if let Some(u) = halved(qprob(p)) {
                out.push(ImpairmentSpec::IidLoss { p: prob_of(u) });
            }
        }
        ImpairmentSpec::BurstLoss { p_good_to_bad, p_bad_to_good, loss_bad } => {
            if let Some(u) = halved(qprob(p_good_to_bad)) {
                out.push(ImpairmentSpec::BurstLoss {
                    p_good_to_bad: prob_of(u),
                    p_bad_to_good,
                    loss_bad,
                });
            }
            if let Some(u) = halved(qprob(loss_bad)) {
                out.push(ImpairmentSpec::BurstLoss {
                    p_good_to_bad,
                    p_bad_to_good,
                    loss_bad: prob_of(u),
                });
            }
        }
        ImpairmentSpec::Jitter { prob, max_extra_ms } => {
            if let Some(u) = halved(qprob(prob)) {
                out.push(ImpairmentSpec::Jitter { prob: prob_of(u), max_extra_ms });
            }
            if let Some(u) = halved(max_extra_ms / MS_STEP) {
                out.push(ImpairmentSpec::Jitter { prob, max_extra_ms: MS_STEP * u });
            }
        }
        ImpairmentSpec::Displace { every, depth } => {
            if let Some(u) = halved(u64::from(depth)) {
                out.push(ImpairmentSpec::Displace { every, depth: u as u32 });
            }
        }
        ImpairmentSpec::Duplicate { p } => {
            if let Some(u) = halved(qprob(p)) {
                out.push(ImpairmentSpec::Duplicate { p: prob_of(u) });
            }
        }
        ImpairmentSpec::Flap { period_ms, down_ms } => {
            if let Some(u) = halved(down_ms / MS_STEP) {
                out.push(ImpairmentSpec::Flap { period_ms, down_ms: MS_STEP * u });
            }
        }
        // Oscillations have no meaningful "weaker" direction along their
        // period; removal (handled above) is their only shrink.
        ImpairmentSpec::BandwidthOscillation { .. } | ImpairmentSpec::DelayOscillation { .. } => {}
    }
    out
}

fn weakened_windows(w: &AdminWindowSpec) -> Vec<AdminWindowSpec> {
    let mut out = Vec::new();
    match *w {
        AdminWindowSpec::Down { at_ms, dur_ms } => {
            if let Some(u) = halved(dur_ms / MS_STEP) {
                out.push(AdminWindowSpec::Down { at_ms, dur_ms: MS_STEP * u });
            }
        }
        AdminWindowSpec::Delay { at_ms, dur_ms, delay_ms } => {
            if let Some(u) = halved(dur_ms / MS_STEP) {
                out.push(AdminWindowSpec::Delay { at_ms, dur_ms: MS_STEP * u, delay_ms });
            }
            if let Some(u) = halved(delay_ms / MS_STEP) {
                out.push(AdminWindowSpec::Delay { at_ms, dur_ms, delay_ms: MS_STEP * u });
            }
        }
    }
    out
}

// ---------------------------------------------------------------------------
// Forensic payload (the cell itself runs through `crate::cell`)
// ---------------------------------------------------------------------------

/// Runs one hunt cell with forensic capture and assembles the full
/// `explain` payload: the scalar cell report, the re-measured objective
/// value, the forensic [`forensics::Report`] (timeline, per-flow summaries,
/// incidents), the sampled series, and a capture-health block recording
/// trace / span retention so truncation is visible in every artifact.
pub(crate) fn forensic_payload(spec: &ScenarioSpec, fctx: &crate::sweep::ForensicCtx) -> Value {
    let scenario = cell::lower(&spec.kind, &spec.impairments, &spec.schedule);
    let plan = spec.plan.plan();
    let mut cap = Capture::default();
    let cell = cell::run(&scenario, plan, spec.sim_seed(), Observe::Capture(&mut cap));

    let objective = fctx.objective.as_deref().and_then(Objective::from_name);
    let value = objective.map(|o| o.value(&cell));
    let ctx = forensics::WindowCtx {
        window_start_ns: plan.warmup.as_nanos(),
        window_end_ns: plan.total().as_nanos(),
        hunted_flow: Some(0),
        objective: fctx.objective.clone(),
        value,
        baseline_value: fctx.baseline_value,
        threshold: fctx.threshold,
    };
    let report = forensics::analyze(&cap.trace, &cap.spans, &ctx);

    Value::Object(vec![
        ("cell".to_owned(), cell.to_value()),
        ("objective_value".to_owned(), value.map_or(Value::Null, Value::Float)),
        ("report".to_owned(), report.to_value()),
        (
            "series".to_owned(),
            Value::Array(cap.series.iter().map(serde::Serialize::to_value).collect()),
        ),
        (
            "capture".to_owned(),
            Value::Object(vec![
                ("trace_records".to_owned(), Value::UInt(cap.trace.len() as u64)),
                ("dropped_trace_records".to_owned(), Value::UInt(cap.dropped_trace)),
                ("trace_mode".to_owned(), Value::Str("keep_first".to_owned())),
                ("spans".to_owned(), Value::UInt(cap.spans.len() as u64)),
                ("spans_dropped".to_owned(), Value::UInt(cap.spans_dropped)),
            ]),
        ),
    ])
}

// ---------------------------------------------------------------------------
// Objectives
// ---------------------------------------------------------------------------

/// What the search minimizes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Objective {
    /// The hunted variant's goodput, Mbps (find starvation schedules).
    Goodput,
    /// Jain fairness between the hunted flow and its SACK rival (find
    /// schedules under which sharing collapses).
    Fairness,
    /// Negated sim-core invariant violation count (actively hunt for
    /// conservation/monotonicity breakage; clean runs score 0).
    Oracle,
}

impl Objective {
    /// Parses a `--objective` argument.
    pub fn from_name(name: &str) -> Option<Self> {
        match name {
            "goodput" => Some(Objective::Goodput),
            "fairness" => Some(Objective::Fairness),
            "oracle" => Some(Objective::Oracle),
            _ => None,
        }
    }

    /// The CLI/artifact name.
    pub fn name(self) -> &'static str {
        match self {
            Objective::Goodput => "goodput",
            Objective::Fairness => "fairness",
            Objective::Oracle => "oracle",
        }
    }

    /// The minimized value of one hunt-cell report.
    pub fn value(self, r: &CellReport) -> f64 {
        match self {
            Objective::Goodput => r.num(Metric::Mbps),
            Objective::Fairness => r.num(Metric::Jain),
            Objective::Oracle => -r.num(Metric::OracleViolations),
        }
    }

    /// The counterexample threshold: a candidate *fails* (counts as a
    /// counterexample) when its value drops strictly below this.
    pub fn threshold(self, baseline_value: f64) -> f64 {
        match self {
            // Half the clean run's figure: an unambiguous degradation, not
            // measurement noise.
            Objective::Goodput | Objective::Fairness => 0.5 * baseline_value,
            // Any violation at all is a finding.
            Objective::Oracle => 0.0,
        }
    }
}

// ---------------------------------------------------------------------------
// Batched, memoized evaluation through the sweep pool
// ---------------------------------------------------------------------------

struct Evaluator {
    variant: Variant,
    seed: u64,
    jobs: usize,
    /// Content hash → decoded report (`None` = the cell crashed).
    memo: HashMap<u64, Option<CellReport>>,
    fresh: u64,
    memo_hits: u64,
}

impl Evaluator {
    fn new(variant: Variant, seed: u64, jobs: usize) -> Self {
        Evaluator { variant, seed, jobs, memo: HashMap::new(), fresh: 0, memo_hits: 0 }
    }

    /// Evaluates a batch of candidates, in order. Previously seen content
    /// hashes are free (memoized); the rest run through the sweep pool,
    /// whose outcomes come back in spec order at any worker count.
    fn results(&mut self, cands: &[Candidate]) -> Vec<Option<CellReport>> {
        let specs: Vec<ScenarioSpec> =
            cands.iter().map(|c| c.spec(self.variant, self.seed)).collect();
        let hashes: Vec<u64> = specs.iter().map(ScenarioSpec::content_hash).collect();

        let mut to_run: Vec<ScenarioSpec> = Vec::new();
        let mut to_run_hashes: Vec<u64> = Vec::new();
        for (spec, &h) in specs.iter().zip(&hashes) {
            if !self.memo.contains_key(&h) && !to_run_hashes.contains(&h) {
                to_run.push(spec.clone());
                to_run_hashes.push(h);
            }
        }
        self.memo_hits += (cands.len() - to_run.len()) as u64;
        self.fresh += to_run.len() as u64;
        obs::count("hunt.memo_hits", (cands.len() - to_run.len()) as u64);
        obs::count("hunt.evaluations", to_run.len() as u64);

        if !to_run.is_empty() {
            let opts = SweepOptions {
                jobs: self.jobs,
                cache: CachePolicy::Off,
                cache_dir: crate::sweep::DEFAULT_CACHE_DIR.into(),
                progress: false,
            };
            let report = run_sweep(&to_run, &ExecCtx::default(), &opts);
            for (run, &h) in report.runs.iter().zip(&to_run_hashes) {
                let decoded = run.outcome.value().map(|v| {
                    CellReport::decode(&Metric::HUNT, v).expect("hunt cells decode losslessly")
                });
                self.memo.insert(h, decoded);
            }
        }
        hashes.iter().map(|h| self.memo[h].clone()).collect()
    }

    /// Objective values per candidate; crashed cells score `+∞` so they can
    /// never become the incumbent (or a counterexample).
    fn values(&mut self, cands: &[Candidate], objective: Objective) -> Vec<f64> {
        self.results(cands)
            .iter()
            .map(|r| r.as_ref().map_or(f64::INFINITY, |r| objective.value(r)))
            .collect()
    }
}

// ---------------------------------------------------------------------------
// The hunt driver
// ---------------------------------------------------------------------------

/// One `repro hunt` invocation's parameters.
#[derive(Debug, Clone)]
pub struct HuntConfig {
    /// Protocol under attack.
    pub variant: Variant,
    /// Minimized objective.
    pub objective: Objective,
    /// Search evaluations (the baseline cell is free).
    pub budget: u64,
    /// Search seed; with `budget`, fully determines every artifact byte.
    pub seed: u64,
    /// Sweep-pool workers — affects wall clock only, never results.
    pub jobs: usize,
}

/// What [`run_hunt`] found, for the caller's summary line.
#[derive(Debug, Clone)]
pub struct HuntReport {
    /// Whether a counterexample (value below threshold) was found.
    pub found: bool,
    /// The empty candidate's objective value.
    pub baseline_value: f64,
    /// The counterexample threshold.
    pub threshold: f64,
    /// Best (lowest) objective value reached.
    pub best_value: f64,
    /// Fresh cell evaluations (search + shrink).
    pub evaluations: u64,
    /// Evaluations answered from the memo table.
    pub memo_hits: u64,
    /// The shrunk counterexample file, when found.
    pub counterexample: Option<PathBuf>,
    /// The minimal failing candidate, when found.
    pub minimal: Option<Candidate>,
}

/// Runs the full hunt: baseline, hill-climbing search, shrink, artifacts.
/// Writes `results/hunt.json` and, when a counterexample is found, a
/// replayable spec under `results/counterexamples/`. Byte-identical output
/// for equal `(variant, objective, budget, seed)` at any `jobs`.
pub fn run_hunt(cfg: &HuntConfig) -> Result<HuntReport, String> {
    let mut eval = Evaluator::new(cfg.variant, cfg.seed, cfg.jobs);

    let baseline = Candidate::baseline();
    let baseline_result = eval
        .results(std::slice::from_ref(&baseline))
        .pop()
        .flatten()
        .ok_or_else(|| "baseline hunt cell crashed".to_owned())?;
    let baseline_value = cfg.objective.value(&baseline_result);
    let threshold = cfg.objective.threshold(baseline_value);
    // The baseline is reference material, not a search step.
    eval.fresh = 0;
    eval.memo_hits = 0;

    let search_cfg = SearchConfig { budget: cfg.budget, seed: cfg.seed, ..SearchConfig::default() };
    let search = hill_climb(baseline.clone(), baseline_value, &search_cfg, mutate, |cands| {
        eval.values(cands, cfg.objective)
    });
    obs::count("hunt.generations", search.log.len() as u64);
    let degradation_ppm = match cfg.objective {
        Objective::Oracle => ((-search.best_value).max(0.0) * 1e6) as u64,
        _ if baseline_value > 0.0 => {
            (((baseline_value - search.best_value).max(0.0) / baseline_value) * 1e6) as u64
        }
        _ => 0,
    };
    obs::gauge_max("hunt.best_degradation_ppm", degradation_ppm);

    let found = search.best_value < threshold;
    let shrunk: Option<ShrinkOutcome<Candidate>> = if found {
        Some(shrink(search.best.clone(), Candidate::size, shrink_steps, |cands| {
            eval.values(cands, cfg.objective).into_iter().map(|v| v < threshold).collect()
        }))
    } else {
        None
    };

    let counterexample = match &shrunk {
        Some(s) => {
            let minimal_value = *eval
                .values(std::slice::from_ref(&s.minimal), cfg.objective)
                .first()
                .expect("one candidate, one value");
            Some(write_counterexample(cfg, &s.minimal, minimal_value, baseline_value, threshold)?)
        }
        None => None,
    };

    let artifact = hunt_artifact(
        cfg,
        &baseline_result,
        baseline_value,
        threshold,
        &search.best,
        search.best_value,
        &search.log,
        found,
        shrunk.as_ref(),
        counterexample.as_deref(),
        &eval,
    );
    let path = Path::new("results/hunt.json");
    fs_write(path, &serde_json::to_string_pretty(&artifact).expect("shim serializer is total"))?;

    Ok(HuntReport {
        found,
        baseline_value,
        threshold,
        best_value: search.best_value,
        evaluations: eval.fresh,
        memo_hits: eval.memo_hits,
        counterexample,
        minimal: shrunk.map(|s| s.minimal),
    })
}

fn fs_write(path: &Path, contents: &str) -> Result<(), String> {
    std::fs::write(path, contents).map_err(|e| format!("cannot write {}: {e}", path.display()))
}

/// Writes the shrunk counterexample as a replayable spec. The filename is a
/// pure function of the objective and the minimal spec's content hash.
fn write_counterexample(
    cfg: &HuntConfig,
    minimal: &Candidate,
    value: f64,
    baseline_value: f64,
    threshold: f64,
) -> Result<PathBuf, String> {
    let spec = minimal.spec(cfg.variant, cfg.seed);
    let dir = Path::new("results/counterexamples");
    std::fs::create_dir_all(dir).map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    let path = dir.join(format!("{}-{}.json", cfg.objective.name(), spec.hash_hex()));
    let doc = Value::Object(vec![
        ("kind".to_owned(), Value::Str("hunt".to_owned())),
        ("variant".to_owned(), Value::Str(cfg.variant.label().to_owned())),
        ("plan".to_owned(), Value::Str("smoke".to_owned())),
        ("base_seed".to_owned(), Value::UInt(cfg.seed)),
        ("content_hash".to_owned(), Value::Str(spec.hash_hex())),
        ("objective".to_owned(), Value::Str(cfg.objective.name().to_owned())),
        ("baseline_value".to_owned(), Value::Float(baseline_value)),
        ("threshold".to_owned(), Value::Float(threshold)),
        ("value".to_owned(), Value::Float(value)),
        ("candidate".to_owned(), candidate_value(minimal)),
    ]);
    fs_write(&path, &serde_json::to_string_pretty(&doc).expect("shim serializer is total"))?;
    Ok(path)
}

#[allow(clippy::too_many_arguments)]
fn hunt_artifact(
    cfg: &HuntConfig,
    baseline_result: &CellReport,
    baseline_value: f64,
    threshold: f64,
    best: &Candidate,
    best_value: f64,
    log: &[GenerationRecord],
    found: bool,
    shrunk: Option<&ShrinkOutcome<Candidate>>,
    counterexample: Option<&Path>,
    eval: &Evaluator,
) -> Value {
    let generations: Vec<Value> = log
        .iter()
        .map(|g| {
            Value::Object(vec![
                ("generation".to_owned(), Value::UInt(u64::from(g.generation))),
                ("evaluations".to_owned(), Value::UInt(g.evaluations)),
                ("best_value".to_owned(), Value::Float(g.best_value)),
                ("improved".to_owned(), Value::Bool(g.improved)),
            ])
        })
        .collect();
    let shrink_value = match shrunk {
        Some(s) => Value::Object(vec![
            ("rounds".to_owned(), Value::UInt(u64::from(s.rounds))),
            ("evaluations".to_owned(), Value::UInt(s.evaluations)),
            (
                "trajectory".to_owned(),
                Value::Array(s.trajectory.iter().map(|&x| Value::UInt(x)).collect()),
            ),
            ("minimal".to_owned(), candidate_value(&s.minimal)),
        ]),
        None => Value::Null,
    };
    Value::Object(vec![
        ("objective".to_owned(), Value::Str(cfg.objective.name().to_owned())),
        ("variant".to_owned(), Value::Str(cfg.variant.label().to_owned())),
        ("budget".to_owned(), Value::UInt(cfg.budget)),
        ("seed".to_owned(), Value::UInt(cfg.seed)),
        ("baseline".to_owned(), serde::Serialize::to_value(baseline_result)),
        ("baseline_value".to_owned(), Value::Float(baseline_value)),
        ("threshold".to_owned(), Value::Float(threshold)),
        ("best_value".to_owned(), Value::Float(best_value)),
        ("best".to_owned(), candidate_value(best)),
        ("fresh_evaluations".to_owned(), Value::UInt(eval.fresh)),
        ("memo_hits".to_owned(), Value::UInt(eval.memo_hits)),
        ("generations".to_owned(), Value::Array(generations)),
        ("found".to_owned(), Value::Bool(found)),
        ("shrink".to_owned(), shrink_value),
        (
            "counterexample".to_owned(),
            match counterexample {
                Some(p) => Value::Str(p.display().to_string()),
                None => Value::Null,
            },
        ),
    ])
}

// ---------------------------------------------------------------------------
// Candidate (de)serialization — replayable counterexample specs
// ---------------------------------------------------------------------------

fn impairment_value(i: &ImpairmentSpec) -> Value {
    let mut fields = vec![("type".to_owned(), Value::Str(i.tag().to_owned()))];
    match *i {
        ImpairmentSpec::IidLoss { p } => fields.push(("p".to_owned(), Value::Float(p))),
        ImpairmentSpec::BurstLoss { p_good_to_bad, p_bad_to_good, loss_bad } => {
            fields.push(("p_good_to_bad".to_owned(), Value::Float(p_good_to_bad)));
            fields.push(("p_bad_to_good".to_owned(), Value::Float(p_bad_to_good)));
            fields.push(("loss_bad".to_owned(), Value::Float(loss_bad)));
        }
        ImpairmentSpec::Jitter { prob, max_extra_ms } => {
            fields.push(("prob".to_owned(), Value::Float(prob)));
            fields.push(("max_extra_ms".to_owned(), Value::UInt(max_extra_ms)));
        }
        ImpairmentSpec::Displace { every, depth } => {
            fields.push(("every".to_owned(), Value::UInt(every)));
            fields.push(("depth".to_owned(), Value::UInt(u64::from(depth))));
        }
        ImpairmentSpec::Duplicate { p } => fields.push(("p".to_owned(), Value::Float(p))),
        ImpairmentSpec::Flap { period_ms, down_ms } => {
            fields.push(("period_ms".to_owned(), Value::UInt(period_ms)));
            fields.push(("down_ms".to_owned(), Value::UInt(down_ms)));
        }
        ImpairmentSpec::BandwidthOscillation { low_mbps, period_ms } => {
            fields.push(("low_mbps".to_owned(), Value::Float(low_mbps)));
            fields.push(("period_ms".to_owned(), Value::UInt(period_ms)));
        }
        ImpairmentSpec::DelayOscillation { high_delay_ms, period_ms } => {
            fields.push(("high_delay_ms".to_owned(), Value::UInt(high_delay_ms)));
            fields.push(("period_ms".to_owned(), Value::UInt(period_ms)));
        }
    }
    Value::Object(fields)
}

fn window_value(w: &AdminWindowSpec) -> Value {
    match *w {
        AdminWindowSpec::Down { at_ms, dur_ms } => Value::Object(vec![
            ("type".to_owned(), Value::Str("down".to_owned())),
            ("at_ms".to_owned(), Value::UInt(at_ms)),
            ("dur_ms".to_owned(), Value::UInt(dur_ms)),
        ]),
        AdminWindowSpec::Delay { at_ms, dur_ms, delay_ms } => Value::Object(vec![
            ("type".to_owned(), Value::Str("delay".to_owned())),
            ("at_ms".to_owned(), Value::UInt(at_ms)),
            ("dur_ms".to_owned(), Value::UInt(dur_ms)),
            ("delay_ms".to_owned(), Value::UInt(delay_ms)),
        ]),
    }
}

/// Serializes a candidate for artifacts and counterexample files.
pub fn candidate_value(c: &Candidate) -> Value {
    Value::Object(vec![
        (
            "impairments".to_owned(),
            Value::Array(c.impairments.iter().map(impairment_value).collect()),
        ),
        ("schedule".to_owned(), Value::Array(c.schedule.iter().map(window_value).collect())),
    ])
}

/// One entry of a candidate list being read back from a file. A
/// counterexample document is outside input: every value that would trip an
/// assertion in `netsim::impair`, or overflow on its way to nanoseconds, is
/// refused here with an error naming the list, the entry's index and the
/// field.
struct Entry<'v> {
    v: &'v Value,
    list: &'static str,
    index: usize,
}

impl Entry<'_> {
    fn err(&self, field: &str, why: impl std::fmt::Display) -> String {
        format!("candidate.{}[{}].{field}: {why}", self.list, self.index)
    }

    fn float(&self, field: &str) -> Result<f64, String> {
        let v = get(self.v, field).and_then(as_f64);
        v.ok_or_else(|| self.err(field, "missing or not a number"))
    }

    fn uint(&self, field: &str) -> Result<u64, String> {
        let v = get(self.v, field).and_then(as_u64);
        v.ok_or_else(|| self.err(field, "missing or not a non-negative integer"))
    }

    fn prob(&self, field: &str) -> Result<f64, String> {
        let p = self.float(field)?;
        if (0.0..=1.0).contains(&p) {
            Ok(p)
        } else {
            Err(self.err(field, format!("probability {p} is not in [0, 1]")))
        }
    }

    /// Milliseconds that `SimDuration::from_millis` (an unchecked multiply)
    /// can hold as nanoseconds.
    fn ms(&self, field: &str) -> Result<u64, String> {
        let ms = self.uint(field)?;
        match ms.checked_mul(1_000_000) {
            Some(_) => Ok(ms),
            None => Err(self.err(field, format!("{ms} ms overflows u64 nanoseconds"))),
        }
    }

    fn period(&self, field: &str) -> Result<u64, String> {
        match self.ms(field)? {
            0 => Err(self.err(field, "a period must be positive")),
            ms => Ok(ms),
        }
    }

    /// The `(at_ms, dur_ms)` of a window whose end is still a valid instant.
    fn span(&self) -> Result<(u64, u64), String> {
        let (at_ms, dur_ms) = (self.ms("at_ms")?, self.ms("dur_ms")?);
        match at_ms.checked_add(dur_ms).and_then(|end| end.checked_mul(1_000_000)) {
            Some(_) => Ok((at_ms, dur_ms)),
            None => Err(self.err("dur_ms", "at_ms + dur_ms overflows u64 nanoseconds")),
        }
    }

    fn tag(&self) -> Result<&str, String> {
        get(self.v, "type").and_then(as_str).ok_or_else(|| self.err("type", "missing"))
    }
}

fn impairment_from_entry(e: &Entry<'_>) -> Result<ImpairmentSpec, String> {
    Ok(match e.tag()? {
        "iid-loss" => ImpairmentSpec::IidLoss { p: e.prob("p")? },
        "burst-loss" => ImpairmentSpec::BurstLoss {
            p_good_to_bad: e.prob("p_good_to_bad")?,
            p_bad_to_good: e.prob("p_bad_to_good")?,
            loss_bad: e.prob("loss_bad")?,
        },
        "jitter" => {
            ImpairmentSpec::Jitter { prob: e.prob("prob")?, max_extra_ms: e.ms("max_extra_ms")? }
        }
        "displace" => {
            let (every, depth) = (e.uint("every")?, e.uint("depth")?);
            if every == 0 {
                return Err(e.err("every", "must be positive"));
            }
            let depth = u32::try_from(depth).map_err(|_| e.err("depth", "does not fit u32"))?;
            ImpairmentSpec::Displace { every, depth }
        }
        "duplicate" => ImpairmentSpec::Duplicate { p: e.prob("p")? },
        "flap" => {
            let (period_ms, down_ms) = (e.period("period_ms")?, e.ms("down_ms")?);
            if down_ms == 0 || down_ms >= period_ms {
                return Err(e.err("down_ms", "must satisfy 0 < down_ms < period_ms"));
            }
            ImpairmentSpec::Flap { period_ms, down_ms }
        }
        "bw-osc" => {
            let low_mbps = e.float("low_mbps")?;
            if !(low_mbps > 0.0 && low_mbps.is_finite()) {
                return Err(e.err("low_mbps", format!("rate {low_mbps} is not positive")));
            }
            ImpairmentSpec::BandwidthOscillation { low_mbps, period_ms: e.period("period_ms")? }
        }
        "delay-osc" => ImpairmentSpec::DelayOscillation {
            high_delay_ms: e.ms("high_delay_ms")?,
            period_ms: e.period("period_ms")?,
        },
        other => return Err(e.err("type", format!("unknown impairment {other:?}"))),
    })
}

fn window_from_entry(e: &Entry<'_>) -> Result<AdminWindowSpec, String> {
    match e.tag()? {
        "down" => e.span().map(|(at_ms, dur_ms)| AdminWindowSpec::Down { at_ms, dur_ms }),
        "delay" => {
            let ((at_ms, dur_ms), delay_ms) = (e.span()?, e.ms("delay_ms")?);
            Ok(AdminWindowSpec::Delay { at_ms, dur_ms, delay_ms })
        }
        other => Err(e.err("type", format!("unknown window {other:?}"))),
    }
}

/// Decodes a candidate back out of [`candidate_value`]'s encoding — the
/// replay path for pinned counterexample specs — rejecting any entry the
/// simulator could not run.
pub fn candidate_from_value(v: &Value) -> Result<Candidate, String> {
    fn list<T>(
        v: &Value,
        list: &'static str,
        read: fn(&Entry<'_>) -> Result<T, String>,
    ) -> Result<Vec<T>, String> {
        match get(v, list) {
            Some(Value::Array(items)) => {
                items.iter().enumerate().map(|(index, v)| read(&Entry { v, list, index })).collect()
            }
            _ => Err(format!("candidate.{list}: missing or not an array")),
        }
    }
    Ok(Candidate {
        impairments: list(v, "impairments", impairment_from_entry)?,
        schedule: list(v, "schedule", window_from_entry)?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::MeasurePlan;
    use rand::SeedableRng;

    fn sample_candidate() -> Candidate {
        Candidate {
            impairments: vec![
                ImpairmentSpec::BurstLoss {
                    p_good_to_bad: 0.02,
                    p_bad_to_good: 0.3,
                    loss_bad: 1.0,
                },
                ImpairmentSpec::Jitter { prob: 0.3, max_extra_ms: 40 },
            ],
            schedule: vec![
                AdminWindowSpec::Down { at_ms: 1500, dur_ms: 200 },
                AdminWindowSpec::Delay { at_ms: 2500, dur_ms: 300, delay_ms: 100 },
            ],
        }
    }

    #[test]
    fn candidate_round_trips_through_value_and_text() {
        let c = sample_candidate();
        let v = candidate_value(&c);
        assert_eq!(candidate_from_value(&v), Ok(c.clone()));
        // Through JSON text (the counterexample file's on-disk trip).
        let text = serde_json::to_string(&v).unwrap();
        let reparsed = serde_json::from_str(&text).unwrap();
        assert_eq!(candidate_from_value(&reparsed), Ok(c));
    }

    #[test]
    fn read_back_refuses_every_entry_the_simulator_could_not_run() {
        // u64::MAX / 1e6 ms is the last instant that is still u64 nanoseconds.
        let hostile = [
            (r#"{"type":"iid-loss","p":1.5}"#, "impairments[1].p"),
            (r#"{"type":"duplicate","p":-0.1}"#, "impairments[1].p"),
            (r#"{"type":"burst-loss","p_good_to_bad":0.1,"p_bad_to_good":2}"#, "p_bad_to_good"),
            (r#"{"type":"jitter","prob":1e999,"max_extra_ms":10}"#, "prob"),
            (r#"{"type":"jitter","prob":0.5,"max_extra_ms":18446744073710}"#, "max_extra_ms"),
            (r#"{"type":"displace","every":0,"depth":3}"#, "every"),
            (r#"{"type":"displace","every":5,"depth":4294967300}"#, "depth"),
            (r#"{"type":"flap","period_ms":0,"down_ms":0}"#, "period_ms"),
            (r#"{"type":"flap","period_ms":500,"down_ms":0}"#, "down_ms"),
            (r#"{"type":"flap","period_ms":500,"down_ms":500}"#, "down_ms"),
            (r#"{"type":"bw-osc","low_mbps":0,"period_ms":500}"#, "low_mbps"),
            (r#"{"type":"bw-osc","low_mbps":1e999,"period_ms":500}"#, "low_mbps"),
            (r#"{"type":"bw-osc","low_mbps":2.0,"period_ms":0}"#, "period_ms"),
            (r#"{"type":"delay-osc","high_delay_ms":18446744073710}"#, "high_delay_ms"),
            (r#"{"type":"delay-osc","high_delay_ms":80,"period_ms":0}"#, "period_ms"),
            (r#"{"type":"wormhole","p":0.1}"#, "impairments[1].type"),
            (r#"{"type":"iid-loss"}"#, "impairments[1].p"),
            (r#"{"p":0.1}"#, "impairments[1].type"),
            (r#"{"type":"down","at_ms":18446744073710,"dur_ms":10}"#, "schedule[1].at_ms"),
            (r#"{"type":"down","at_ms":18446744073000,"dur_ms":18446744073000}"#, "dur_ms"),
            (r#"{"type":"delay","at_ms":10,"dur_ms":10,"delay_ms":18446744073710}"#, "delay_ms"),
            (r#"{"type":"delay","at_ms":10,"dur_ms":10}"#, "schedule[1].delay_ms"),
            (r#"{"type":"sideways","at_ms":10,"dur_ms":10}"#, "schedule[1].type"),
        ];
        for (entry, field) in hostile {
            // Each hostile entry sits second in its list, behind a valid one.
            let doc = if entry.contains("at_ms") {
                format!(
                    r#"{{"impairments":[],"schedule":[{{"type":"down","at_ms":0,"dur_ms":1}},{entry}]}}"#
                )
            } else {
                format!(r#"{{"impairments":[{{"type":"iid-loss","p":1}},{entry}],"schedule":[]}}"#)
            };
            let err = candidate_from_value(&serde_json::from_str(&doc).expect("valid JSON"))
                .expect_err(entry);
            assert!(err.contains("[1]") && err.contains(field), "{entry}: {err}");
        }
        let no_list = serde_json::from_str(r#"{"impairments":[]}"#).unwrap();
        assert!(candidate_from_value(&no_list).unwrap_err().contains("candidate.schedule"));
        // The boundary itself is accepted: the check is overflow, not a cap.
        let edge =
            r#"{"impairments":[],"schedule":[{"type":"down","at_ms":0,"dur_ms":18446744073709}]}"#;
        assert!(candidate_from_value(&serde_json::from_str(edge).unwrap()).is_ok());
    }

    #[test]
    fn shrink_steps_strictly_decrease_the_size_measure() {
        let c = sample_candidate();
        let size = c.size();
        let steps = shrink_steps(&c);
        assert!(!steps.is_empty());
        for s in &steps {
            assert!(s.size() < size, "{} !< {} for {:?}", s.size(), size, s);
        }
    }

    #[test]
    fn mutation_stays_on_the_quantization_grid_and_inside_caps() {
        let mut rng = SmallRng::seed_from_u64(11);
        let mut c = Candidate::baseline();
        for _ in 0..500 {
            c = mutate(&c, &mut rng);
            assert!(c.impairments.len() <= MAX_STAGES);
            assert!(c.schedule.len() <= MAX_WINDOWS);
            for w in &c.schedule {
                let (at, dur) = match *w {
                    AdminWindowSpec::Down { at_ms, dur_ms } => (at_ms, dur_ms),
                    AdminWindowSpec::Delay { at_ms, dur_ms, .. } => (at_ms, dur_ms),
                };
                assert_eq!(at % MS_STEP, 0);
                assert_eq!(dur % MS_STEP, 0);
                assert!(at + dur <= HORIZON_MS, "window past the horizon: {w:?}");
            }
            for i in &c.impairments {
                if let ImpairmentSpec::IidLoss { p } = *i {
                    assert!((p / PROB_STEP).fract().abs() < 1e-9, "off-grid p {p}");
                }
            }
        }
        // The walk actually explores both dimensions.
        assert!(c.size() > 0);
    }

    fn run_cell(c: &Candidate) -> CellReport {
        let kind = ScenarioKind::Hunt { variant: Variant::TcpPr };
        cell::run_kind(&kind, &c.impairments, &c.schedule, MeasurePlan::smoke(), 5)
    }

    #[test]
    fn hunt_cells_are_deterministic_and_oracle_clean() {
        let c = sample_candidate();
        let (a, b) = (run_cell(&c), run_cell(&c));
        assert_eq!(a, b);
        assert_eq!(a.num(Metric::OracleViolations), 0.0, "healthy cells balance the books");
        assert_eq!(a.num(Metric::TimeRegressions), 0.0);
        assert!(a.num(Metric::ImpairDrops) > 0.0, "burst loss and the outage bite: {a:?}");
        assert!(a.num(Metric::LinkFlaps) >= 1.0, "the down window flaps the link");
    }

    #[test]
    fn down_windows_hurt_goodput() {
        let clean = run_cell(&Candidate::baseline());
        let outage = run_cell(&Candidate {
            impairments: Vec::new(),
            schedule: vec![
                AdminWindowSpec::Down { at_ms: 1200, dur_ms: 400 },
                AdminWindowSpec::Down { at_ms: 2200, dur_ms: 400 },
                AdminWindowSpec::Down { at_ms: 3200, dur_ms: 400 },
            ],
        });
        let (outage, clean) = (outage.num(Metric::Mbps), clean.num(Metric::Mbps));
        assert!(outage < clean, "outages must cost goodput: {outage} vs {clean}");
    }

    #[test]
    fn objectives_parse_and_score() {
        assert_eq!(Objective::from_name("goodput"), Some(Objective::Goodput));
        assert_eq!(Objective::from_name("fairness"), Some(Objective::Fairness));
        assert_eq!(Objective::from_name("oracle"), Some(Objective::Oracle));
        assert_eq!(Objective::from_name("latency"), None);
        let outcome = Value::Object(
            [
                ("variant", Value::Str("TcpPr".to_owned())),
                ("profile", Value::Str("baseline".to_owned())),
                ("mbps", Value::Float(4.0)),
                ("rival_mbps", Value::Float(4.0)),
                ("jain", Value::Float(1.0)),
                ("retransmits", Value::UInt(0)),
                ("impair_drops", Value::UInt(0)),
                ("link_flaps", Value::UInt(0)),
                ("oracle_violations", Value::UInt(2)),
                ("time_regressions", Value::UInt(1)),
            ]
            .map(|(k, v)| (k.to_owned(), v))
            .to_vec(),
        );
        let r = CellReport::decode(&Metric::HUNT, &outcome).expect("a hunt report");
        assert_eq!(Objective::Goodput.value(&r), 4.0);
        assert_eq!(Objective::Fairness.value(&r), 1.0);
        assert_eq!(Objective::Oracle.value(&r), -2.0);
        assert_eq!(Objective::Goodput.threshold(4.0), 2.0);
        assert_eq!(Objective::Oracle.threshold(0.0), 0.0);
    }
}
