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
//! table effective and gives the shrinker an integer size measure. Each
//! stage and window is a row of the parameter table in `sweep::spec`; the
//! mutation moves, the size measure, the shrinker's weakening and the
//! counterexample codec below walk rows and name no variant.

use std::collections::HashMap;
use std::path::{Path, PathBuf};

use adversary::search::{hill_climb, GenerationRecord, SearchConfig};
use adversary::shrink::{shrink, ShrinkOutcome};
use netsim::telemetry::SessionStats;
use rand::rngs::SmallRng;
use rand::Rng;
use serde::{Serialize, Value};

use crate::cell::{self, Capture, CellReport, Metric, Observe};
use crate::sweep::decode::{as_f64, as_str, as_u64, get};
use crate::sweep::spec::{
    profile_name, AdminWindowSpec, Param, Search, Tabled, Unit, Values, MAX_DELAY_MS, MIN_RATE_MBPS,
};
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

/// The quanta in `raw`, a value of `unit` (a float as its bits).
fn quanta(unit: Unit, raw: u64) -> u64 {
    match unit {
        Unit::Prob => (f64::from_bits(raw) / PROB_STEP).round() as u64,
        Unit::Delay | Unit::Ms | Unit::Period => raw / MS_STEP,
        // A rate is never searched.
        Unit::Rate | Unit::Count | Unit::Slots => raw,
    }
}

/// The value of `unit` that is `quanta` quanta.
fn raw(unit: Unit, quanta: u64) -> u64 {
    match unit {
        Unit::Prob => (quanta as f64 * PROB_STEP).to_bits(),
        Unit::Delay | Unit::Ms | Unit::Period => MS_STEP * quanta,
        Unit::Rate | Unit::Count | Unit::Slots => quanta,
    }
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
        self.impairments.iter().map(size_of).sum::<u64>()
            + self.schedule.iter().map(size_of).sum::<u64>()
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

/// One entry's share of [`Candidate::size`].
fn size_of<T: Tabled>(t: &T) -> u64 {
    let (row, v) = t.row();
    let intensities = T::ROWS[row].params.iter().zip(v).filter(|(p, _)| p.intensity);
    1 + intensities.map(|(p, x)| quanta(p.unit, x)).sum::<u64>()
}

/// One of `n` choices: no draw for one, a coin for two (heads is the first),
/// a uniform index for more.
fn pick(rng: &mut SmallRng, n: usize) -> usize {
    match n {
        1 => 0,
        2 => usize::from(!rng.gen_bool(0.5)),
        _ => rng.gen_range(0..n),
    }
}

/// A fresh entry of one of `T`'s searched rows, every parameter drawn in
/// row order except that one whose range depends on another is drawn right
/// after it.
fn random<T: Tabled>(rng: &mut SmallRng) -> T {
    let row = pick(rng, T::ROWS.iter().filter(|r| r.params[0].search != Search::Off).count());
    let params = T::ROWS[row].params;
    let mut v = Values::default();
    for (j, _) in params.iter().enumerate().filter(|(_, p)| p.search.tie().is_none()) {
        let tied = params.iter().enumerate().filter(|(_, p)| p.search.tie() == Some(j));
        for (k, p) in std::iter::once((j, &params[j])).chain(tied) {
            let units = match p.search {
                Search::Range { lo, hi, .. } => rng.gen_range(lo..=hi),
                Search::Inside(of) => rng.gen_range(1..=(v[of] / MS_STEP / 2).max(1)),
                Search::Before(of) => rng.gen_range(0..=(HORIZON_MS - v[of]) / MS_STEP),
                Search::Off => unreachable!("a searched row has no unsearched parameter"),
            };
            v[k] = raw(p.unit, units);
        }
    }
    T::from_row(row, v)
}

/// Scales a quantized intensity up or down one octave, within `[1, cap]`.
fn scale(units: u64, up: bool, cap: u64) -> u64 {
    if up {
        (units * 2).min(cap)
    } else {
        (units / 2).max(1)
    }
}

/// Moves one tweakable parameter: an intensity an octave, a window start by
/// up to 500 ms inside the horizon. A row with none is drawn afresh.
fn tweak<T: Tabled>(t: &T, rng: &mut SmallRng) -> T {
    let up = rng.gen_bool(0.5);
    let (row, mut v) = t.row();
    let params = T::ROWS[row].params;
    let fixed = |j: &usize| matches!(params[*j].search, Search::Off | Search::Range { cap: 0, .. });
    let tweakable: Vec<usize> = (0..params.len()).filter(|j| !fixed(j)).collect();
    if tweakable.is_empty() {
        return random(rng);
    }
    let j = tweakable[pick(rng, tweakable.len())];
    let p = &params[j];
    let octave = |cap| scale(quanta(p.unit, v[j]), up, cap);
    v[j] = match p.search {
        Search::Range { cap, floor, .. } => raw(p.unit, octave(cap).max(floor)),
        Search::Inside(of) => raw(p.unit, octave(v[of] / MS_STEP / 2).max(1)),
        Search::Before(of) => {
            let delta = MS_STEP * rng.gen_range(1u64..=50);
            if rng.gen_bool(0.5) {
                (v[j] + delta).min(HORIZON_MS.saturating_sub(v[of]))
            } else {
                v[j].saturating_sub(delta)
            }
        }
        Search::Off => v[j],
    };
    T::from_row(row, v)
}

/// One mutation move: add/remove/tweak an impairment stage or an admin
/// window. Pure function of `(c, rng)` — all placement and intensity values
/// stay on the quantization grid.
pub fn mutate(c: &Candidate, rng: &mut SmallRng) -> Candidate {
    let mut next = c.clone();
    let (imps, wins) = (&mut next.impairments, &mut next.schedule);
    let done = match rng.gen_range(0u32..6) {
        mv @ 0..=2 => edit(imps, MAX_STAGES, mv, rng),
        mv => edit(wins, MAX_WINDOWS, mv - 3, rng),
    };
    // The rolled move is inapplicable (empty/full list): grow whichever
    // dimension has room so mutation never no-ops.
    if !done && !edit(imps, MAX_STAGES, 0, rng) && !edit(wins, MAX_WINDOWS, 0, rng) {
        edit(imps, MAX_STAGES, 2, rng);
    }
    next
}

/// Move `mv` on one list of at most `max` entries: 0 adds a fresh entry, 1
/// removes one, 2 tweaks one. False, with nothing drawn, when the list is
/// full (add) or empty (remove, tweak).
fn edit<T: Tabled>(list: &mut Vec<T>, max: usize, mv: u32, rng: &mut SmallRng) -> bool {
    match mv {
        0 if list.len() < max => list.push(random(rng)),
        1 if !list.is_empty() => drop(list.remove(rng.gen_range(0..list.len()))),
        2 if !list.is_empty() => {
            let i = rng.gen_range(0..list.len());
            list[i] = tweak(&list[i], rng);
        }
        _ => return false,
    }
    true
}

/// The shrinker's proposal set: remove each entry, then halve each intensity
/// parameter (in quantized units). Every proposal strictly decreases
/// [`Candidate::size`].
pub fn shrink_steps(c: &Candidate) -> Vec<Candidate> {
    let imps = |impairments| Candidate { impairments, ..c.clone() };
    let wins = |schedule| Candidate { schedule, ..c.clone() };
    let mut out: Vec<Candidate> = removals(&c.impairments).map(imps).collect();
    out.extend(removals(&c.schedule).map(wins));
    out.extend(weakenings(&c.impairments).map(imps));
    out.extend(weakenings(&c.schedule).map(wins));
    out
}

fn removals<T: Clone>(list: &[T]) -> impl Iterator<Item = Vec<T>> + '_ {
    (0..list.len()).map(|i| [&list[..i], &list[i + 1..]].concat())
}

/// The list with one searched intensity of one entry halved, for each one
/// at 2 quanta or more.
fn weakenings<T: Tabled + Clone>(list: &[T]) -> impl Iterator<Item = Vec<T>> + '_ {
    list.iter().enumerate().flat_map(move |(i, t)| {
        let (row, v) = t.row();
        let params = T::ROWS[row].params.iter().enumerate();
        let halved = params.filter(|(_, p)| p.intensity && p.search != Search::Off);
        halved.filter(move |&(j, p)| quanta(p.unit, v[j]) >= 2).map(move |(j, p)| {
            let mut w = v;
            w[j] = raw(p.unit, quanta(p.unit, v[j]) / 2);
            let mut l = list.to_vec();
            l[i] = T::from_row(row, w);
            l
        })
    })
}

// ---------------------------------------------------------------------------
// Forensic payload (the cell itself runs through `crate::cell`)
// ---------------------------------------------------------------------------

/// Runs one hunt cell with forensic capture and assembles the full
/// `explain` payload: the scalar cell report, the re-measured objective
/// value, the forensic [`forensics::Report`] (timeline, per-flow summaries,
/// incidents), the sampled series, and a capture-health block recording
/// trace / span retention so truncation is visible in every artifact.
/// Returns the payload and the run's health.
pub(crate) fn forensic_payload(
    spec: &ScenarioSpec,
    fctx: &crate::sweep::ForensicCtx,
) -> (Value, SessionStats) {
    let scenario = cell::lower(&spec.kind, &spec.impairments, &spec.schedule);
    let plan = spec.plan.plan();
    let mut cap = Capture::default();
    let (cell, health) = cell::run(&scenario, plan, spec.sim_seed(), Observe::Capture(&mut cap));

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

    let payload = Value::Object(vec![
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
    ]);
    (payload, health)
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

/// One stage or window as a JSON object: its tag, then every parameter.
fn row_value<T: Tabled>(t: &T) -> Value {
    let (row, v) = t.row();
    let row = &T::ROWS[row];
    let params = row.params.iter().zip(v).map(|(p, x)| match p.unit {
        Unit::Prob | Unit::Rate => (p.name.to_owned(), Value::Float(f64::from_bits(x))),
        _ => (p.name.to_owned(), Value::UInt(x)),
    });
    let tag = ("type".to_owned(), Value::Str(row.tag.to_owned()));
    Value::Object(std::iter::once(tag).chain(params).collect())
}

/// Serializes a candidate for artifacts and counterexample files.
pub fn candidate_value(c: &Candidate) -> Value {
    Value::Object(vec![
        ("impairments".to_owned(), Value::Array(c.impairments.iter().map(row_value).collect())),
        ("schedule".to_owned(), Value::Array(c.schedule.iter().map(row_value).collect())),
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

    /// One parameter, inside the bounds of its unit (a float as its bits).
    /// A millisecond value must also survive `SimDuration::from_millis`, an
    /// unchecked multiply into nanoseconds.
    fn param(&self, p: &Param) -> Result<u64, String> {
        let field = get(self.v, p.name);
        let n = match p.unit {
            Unit::Prob | Unit::Rate => field.and_then(as_f64).map(f64::to_bits).ok_or("a number"),
            _ => field.and_then(as_u64).ok_or("a non-negative integer"),
        };
        let n = n.map_err(|what| self.err(p.name, format!("missing or not {what}")))?;
        let (x, ms) = (f64::from_bits(n), matches!(p.unit, Unit::Delay | Unit::Ms | Unit::Period));
        let why = match p.unit {
            _ if ms && n.checked_mul(1_000_000).is_none() => {
                format!("{n} ms overflows u64 nanoseconds")
            }
            Unit::Prob if !(0.0..=1.0).contains(&x) => format!("probability {x} is not in [0, 1]"),
            Unit::Rate if !(x > 0.0 && x.is_finite()) => format!("rate {x} is not positive"),
            Unit::Rate if x < MIN_RATE_MBPS => format!("rate {x:?} is below {MIN_RATE_MBPS} Mbps"),
            Unit::Delay if n > MAX_DELAY_MS => format!("{n} ms is above {MAX_DELAY_MS} ms"),
            Unit::Period if n == 0 => "a period must be positive".to_owned(),
            Unit::Count if n == 0 => "must be positive".to_owned(),
            Unit::Slots if u32::try_from(n).is_err() => "does not fit u32".to_owned(),
            _ => return Ok(n),
        };
        Err(self.err(p.name, why))
    }
}

/// Reads one stage or window: every parameter inside its unit's bounds, and
/// each tie between two parameters checked once both are read, naming the
/// later one.
fn from_entry<T: Tabled>(e: &Entry<'_>) -> Result<T, String> {
    let tag = get(e.v, "type").and_then(as_str).ok_or_else(|| e.err("type", "missing"))?;
    let row = T::ROWS.iter().position(|r| r.tag == tag);
    let row = row.ok_or_else(|| e.err("type", format!("unknown {} {tag:?}", T::NOUN)))?;
    let params = T::ROWS[row].params;
    let mut v = Values::default();
    for (j, p) in params.iter().enumerate() {
        v[j] = e.param(p)?;
        for (d, q) in params.iter().enumerate() {
            let Some(of) = q.search.tie().filter(|&of| d.max(of) == j) else { continue };
            let ((x, a), (y, b)) = ((q.name, v[d]), (params[of].name, v[of]));
            let end = a.checked_add(b).and_then(|end| end.checked_mul(1_000_000));
            let why = match q.search {
                Search::Inside(_) if a == 0 || a >= b => format!("must satisfy 0 < {x} < {y}"),
                Search::Before(_) if end.is_none() => {
                    format!("{x} + {y} overflows u64 nanoseconds")
                }
                _ => continue,
            };
            return Err(e.err(p.name, why));
        }
    }
    Ok(T::from_row(row, v))
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
        impairments: list(v, "impairments", from_entry)?,
        schedule: list(v, "schedule", from_entry)?,
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
        // Every stress profile too: the mutator never draws the two
        // oscillations, the full stress grid does.
        let profiles = crate::sweep::grids::stress_profiles(false).into_iter();
        let stress = profiles.map(|impairments| Candidate { impairments, schedule: Vec::new() });
        for c in std::iter::once(sample_candidate()).chain(stress) {
            let v = candidate_value(&c);
            assert_eq!(candidate_from_value(&v), Ok(c.clone()));
            // Through JSON text (the counterexample file's on-disk trip).
            let text = serde_json::to_string(&v).unwrap();
            let reparsed = serde_json::from_str(&text).unwrap();
            assert_eq!(candidate_from_value(&reparsed), Ok(c));
        }
    }

    /// A one-entry candidate document around `entry`, a stage or a window.
    fn document(entry: &str) -> Value {
        let doc = if entry.contains("at_ms") {
            format!(r#"{{"impairments":[],"schedule":[{entry}]}}"#)
        } else {
            format!(r#"{{"impairments":[{entry}],"schedule":[]}}"#)
        };
        serde_json::from_str(&doc).expect("valid JSON")
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
            // Each of these three still overflowed the clock once added to
            // `now`: bounded by `MAX_DELAY_MS` and `MIN_RATE_MBPS`.
            (r#"{"type":"delay","at_ms":10,"dur_ms":100,"delay_ms":18446744073709}"#, "delay_ms"),
            (r#"{"type":"bw-osc","low_mbps":1e-300,"period_ms":200}"#, "low_mbps"),
            (
                r#"{"type":"delay-osc","high_delay_ms":18446744073709,"period_ms":200}"#,
                "high_delay_ms",
            ),
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
        // A window's boundary is accepted: its check is overflow, not a cap.
        let edge = r#"{"type":"down","at_ms":0,"dur_ms":18446744073709}"#;
        assert!(candidate_from_value(&document(edge)).is_ok());
    }

    #[test]
    fn the_bounded_fields_run_clean_at_their_largest_accepted_values() {
        // One past each bound is refused; the bound itself runs a whole
        // smoke cell without the clock overflowing (a panic in a debug build).
        let edges = [
            r#"{"type":"jitter","prob":1,"max_extra_ms":3600000}"#,
            r#"{"type":"delay","at_ms":10,"dur_ms":100,"delay_ms":3600000}"#,
            r#"{"type":"delay-osc","high_delay_ms":3600000,"period_ms":200}"#,
            r#"{"type":"bw-osc","low_mbps":0.001,"period_ms":200}"#,
        ];
        for entry in edges {
            let past = entry.replace("3600000", "3600001").replace("0.001", "0.00099");
            assert!(candidate_from_value(&document(&past)).is_err(), "{past}");
            let c = candidate_from_value(&document(entry)).expect(entry);
            let r = run_cell(&c);
            assert_eq!(r.num(Metric::TimeRegressions), 0.0, "{entry}");
        }
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
                let (AdminWindowSpec::Down { at_ms, dur_ms }
                | AdminWindowSpec::Delay { at_ms, dur_ms, .. }) = *w;
                assert!(at_ms + dur_ms <= HORIZON_MS, "window past the horizon: {w:?}");
                on_grid_and_inside_caps(w);
            }
            c.impairments.iter().for_each(on_grid_and_inside_caps);
        }
        // The walk actually explores both dimensions.
        assert!(c.size() > 0);
    }

    /// Every parameter of `t` is a whole number of quanta of its unit, and
    /// inside what its row lets the mutator draw or tweak it to.
    fn on_grid_and_inside_caps<T: Tabled + std::fmt::Debug>(t: &T) {
        let (row, v) = t.row();
        let params = T::ROWS[row].params;
        for (p, &x) in params.iter().zip(&v) {
            let units = match p.unit {
                Unit::Prob => {
                    let units = f64::from_bits(x) / PROB_STEP;
                    assert!((units - units.round()).abs() < 1e-9, "{} off the grid: {t:?}", p.name);
                    units.round() as u64
                }
                Unit::Delay | Unit::Ms | Unit::Period => {
                    assert_eq!(x % MS_STEP, 0, "{} off the grid: {t:?}", p.name);
                    x / MS_STEP
                }
                Unit::Rate | Unit::Count | Unit::Slots => x,
            };
            let (lo, hi) = match p.search {
                Search::Range { hi, cap, floor, .. } => (floor.max(1), hi.max(cap)),
                Search::Inside(of) => (1, (v[of] / MS_STEP / 2).max(1)),
                Search::Before(of) => (0, (HORIZON_MS - v[of]) / MS_STEP),
                Search::Off => panic!("the mutator drew an unsearched row: {t:?}"),
            };
            assert!(
                (lo..=hi).contains(&units),
                "{} = {units} quanta, not in [{lo}, {hi}]: {t:?}",
                p.name
            );
        }
    }

    #[test]
    fn the_search_draws_the_stream_recorded_before_the_parameter_table() {
        // 2,000 `mutate` steps from the baseline per seed. Each seed's digest
        // is FNV-1a over every step's candidate text and size and the text of
        // every shrink proposal. Recorded on commit 34f2eb8, when each variant
        // had its own draw, tweak and weaken code.
        const DIGESTS: [u64; 8] = [
            0xc7f5_9a37_8573_6093,
            0x9d91_9093_8781_9c61,
            0xaa23_cced_083a_c03c,
            0x3ada_1d3b_80c2_6310,
            0x7ece_6b2b_cae6_a42c,
            0xa235_d6b4_0157_f97a,
            0x9331_146b_1553_4958,
            0xa8f3_6feb_a883_dc1f,
        ];
        let text = |c: &Candidate| serde_json::to_string(&candidate_value(c)).unwrap();
        let got: Vec<u64> = (0..8u64)
            .map(|seed| {
                let mut h = 0xcbf2_9ce4_8422_2325_u64;
                let mut eat = |bytes: &[u8]| {
                    for &b in bytes {
                        h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
                    }
                };
                let mut rng = SmallRng::seed_from_u64(seed);
                let mut c = Candidate::baseline();
                for _ in 0..2_000 {
                    c = mutate(&c, &mut rng);
                    eat(text(&c).as_bytes());
                    eat(&c.size().to_le_bytes());
                    for s in shrink_steps(&c) {
                        eat(text(&s).as_bytes());
                    }
                }
                h
            })
            .collect();
        assert_eq!(got, DIGESTS, "{got:#x?}");
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
