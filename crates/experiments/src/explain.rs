//! `repro explain`: the counterexample post-mortem engine.
//!
//! A hunt counterexample file (`results/counterexamples/*.json`) pins a
//! minimal adversarial schedule, but not *why* it hurts: the scalar cell
//! result says goodput collapsed, not which drop, outage or spurious
//! backoff collapsed it. This module replays the pinned spec in **forensic
//! mode** — full packet tracing, flow-tagged span capture, sampled time
//! series — and runs the [`forensics`] analysis over the captured streams,
//! producing a deterministic post-mortem report under `results/explain/`.
//!
//! ## Determinism contract
//!
//! The replayed spec's sim seed is derived from its content hash exactly as
//! the hunt derived it (`ScenarioSpec::sim_seed`), the forensic capture is
//! a pure function of the simulation, and the analysis is a pure function
//! of the capture — so `repro explain` writes byte-identical artifacts at
//! any `--jobs` count, on any machine. The doc's stored `content_hash` is
//! re-verified before replay, so a hand-edited candidate that no longer
//! matches its filename is rejected instead of silently explaining a
//! different scenario.
//!
//! `repro replay` is the lighter sibling: it re-runs the counterexample and
//! its empty-schedule baseline *without* forensic capture and reports
//! whether the pinned degradation still reproduces — the regression oracle
//! the pinned fixtures under `tests/fixtures/` are checked with in CI.

use std::path::{Path, PathBuf};

use serde::{Serialize, Value};

use crate::cell;
use crate::hunt::{candidate_from_value, Candidate, Objective};
use crate::sweep::decode::{as_f64, as_str, as_u64, get};
use crate::sweep::{
    run_sweep, CachePolicy, ExecCtx, ForensicCtx, ScenarioSpec, SweepOptions, DEFAULT_CACHE_DIR,
};
use crate::variants::Variant;

/// A parsed counterexample document, as written by
/// `hunt::write_counterexample`.
#[derive(Debug, Clone)]
pub struct CounterexampleDoc {
    /// Hunted protocol (stored by paper-legend label).
    pub variant: Variant,
    /// Hunt base seed (`--seed`); XORed with the spec hash per cell.
    pub base_seed: u64,
    /// Content hash of the pinned spec, as hex — re-verified on load.
    pub content_hash: String,
    /// Minimized objective name (`goodput`, `fairness`, `oracle`).
    pub objective: Option<String>,
    /// The healthy (empty-candidate) objective value.
    pub baseline_value: Option<f64>,
    /// Degradation threshold the counterexample beat.
    pub threshold: Option<f64>,
    /// Objective value the hunt measured for the minimal candidate.
    pub value: Option<f64>,
    /// The minimal adversarial candidate itself.
    pub candidate: Candidate,
}

impl CounterexampleDoc {
    /// Parses a counterexample file's JSON text.
    pub fn parse(text: &str) -> Result<Self, String> {
        let v: Value = serde_json::from_str(text).map_err(|e| format!("invalid JSON: {e}"))?;
        let kind = get(&v, "kind").and_then(as_str).unwrap_or("");
        if kind != "hunt" {
            return Err(format!("not a hunt counterexample (kind = {kind:?})"));
        }
        let plan = get(&v, "plan").and_then(as_str).unwrap_or("");
        if plan != "smoke" {
            return Err(format!("unsupported plan {plan:?} (expected \"smoke\")"));
        }
        let label =
            get(&v, "variant").and_then(as_str).ok_or_else(|| "missing \"variant\"".to_owned())?;
        let variant =
            Variant::from_label(label).ok_or_else(|| format!("unknown variant label {label:?}"))?;
        let base_seed = get(&v, "base_seed")
            .and_then(as_u64)
            .ok_or_else(|| "missing \"base_seed\"".to_owned())?;
        let content_hash = get(&v, "content_hash")
            .and_then(as_str)
            .ok_or_else(|| "missing \"content_hash\"".to_owned())?
            .to_owned();
        let candidate = get(&v, "candidate")
            .ok_or_else(|| "missing \"candidate\"".to_owned())
            .and_then(candidate_from_value)?;
        Ok(CounterexampleDoc {
            variant,
            base_seed,
            content_hash,
            objective: get(&v, "objective").and_then(as_str).map(str::to_owned),
            baseline_value: get(&v, "baseline_value").and_then(as_f64),
            threshold: get(&v, "threshold").and_then(as_f64),
            value: get(&v, "value").and_then(as_f64),
            candidate,
        })
    }

    /// Loads a counterexample file and rebuilds the spec it pins. Every way
    /// the *file* can be wrong — unreadable, malformed, a candidate out of
    /// range, a stale hash — fails here, with the path in the message, before
    /// anything runs.
    pub fn load(path: &Path) -> Result<(Self, ScenarioSpec), String> {
        let text = std::fs::read_to_string(path)
            .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
        let doc = Self::parse(&text).and_then(|doc| doc.spec().map(|spec| (doc, spec)));
        doc.map_err(|e| format!("{}: {e}", path.display()))
    }

    /// Rebuilds the exact [`ScenarioSpec`] the hunt pinned, and verifies
    /// its content hash against the stored one.
    pub fn spec(&self) -> Result<ScenarioSpec, String> {
        let spec = self.candidate.spec(self.variant, self.base_seed);
        if spec.hash_hex() != self.content_hash {
            return Err(format!(
                "content hash mismatch: document says {}, rebuilt spec hashes to {} — \
                 the candidate was edited or the spec schema changed",
                self.content_hash,
                spec.hash_hex()
            ));
        }
        Ok(spec)
    }

    /// Echo of the source document for embedding in the explain artifact.
    fn source_value(&self) -> Value {
        let mut fields = vec![
            ("variant".to_owned(), Value::Str(self.variant.label().to_owned())),
            ("base_seed".to_owned(), Value::UInt(self.base_seed)),
            ("content_hash".to_owned(), Value::Str(self.content_hash.clone())),
        ];
        if let Some(o) = &self.objective {
            fields.push(("objective".to_owned(), Value::Str(o.clone())));
        }
        if let Some(b) = self.baseline_value {
            fields.push(("baseline_value".to_owned(), Value::Float(b)));
        }
        if let Some(t) = self.threshold {
            fields.push(("threshold".to_owned(), Value::Float(t)));
        }
        if let Some(v) = self.value {
            fields.push(("hunt_value".to_owned(), Value::Float(v)));
        }
        fields.push(("candidate".to_owned(), crate::hunt::candidate_value(&self.candidate)));
        Value::Object(fields)
    }
}

/// What [`run_explain`] hands back to the caller.
#[derive(Debug)]
pub struct ExplainReport {
    /// Where the artifact was written.
    pub path: PathBuf,
    /// Detected incidents, for the caller's summary (`(kind, cause_chain)`).
    pub incidents: Vec<(String, Vec<String>)>,
    /// Human-readable rendering of the post-mortem.
    pub rendering: String,
}

/// Replays a loaded counterexample in forensic mode and writes the
/// post-mortem to `results/explain/<content_hash>.json`.
///
/// `jobs` is plumbed into the sweep pool for interface symmetry with every
/// other `repro` command; an explain runs exactly one scenario, so it can
/// only affect which worker thread executes it, never the artifact bytes
/// (asserted by the `explain-smoke` CI job).
pub fn run_explain(
    doc: &CounterexampleDoc,
    spec: &ScenarioSpec,
    jobs: usize,
) -> Result<ExplainReport, String> {
    let ctx = ExecCtx {
        telemetry_dir: None,
        forensics: Some(ForensicCtx {
            objective: doc.objective.clone(),
            baseline_value: doc.baseline_value,
            threshold: doc.threshold,
        }),
    };
    let opts = SweepOptions {
        jobs,
        cache: CachePolicy::Off,
        cache_dir: DEFAULT_CACHE_DIR.into(),
        progress: false,
    };
    let report = run_sweep(std::slice::from_ref(spec), &ctx, &opts);
    let run = report.runs.first().ok_or_else(|| "sweep returned no runs".to_owned())?;
    let outcome =
        run.outcome.value().ok_or_else(|| "forensic replay crashed — see stderr".to_owned())?;

    let artifact = Value::Object(vec![
        ("source".to_owned(), doc.source_value()),
        ("explain".to_owned(), outcome.clone()),
        ("run_health".to_owned(), Serialize::to_value(&run.work)),
    ]);
    let dir = Path::new("results/explain");
    std::fs::create_dir_all(dir).map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    let out_path = dir.join(format!("{}.json", doc.content_hash));
    let text = serde_json::to_string_pretty(&artifact).expect("shim serializer is total");
    std::fs::write(&out_path, &text)
        .map_err(|e| format!("cannot write {}: {e}", out_path.display()))?;

    let incidents = extract_incidents(outcome);
    let rendering = render(doc, outcome, &incidents);
    Ok(ExplainReport { path: out_path, incidents, rendering })
}

/// Pulls `(kind, cause_chain)` pairs out of a forensic outcome value.
fn extract_incidents(outcome: &Value) -> Vec<(String, Vec<String>)> {
    let mut out = Vec::new();
    let incidents = match get(outcome, "report").and_then(|r| get(r, "incidents")) {
        Some(Value::Array(items)) => items,
        _ => return out,
    };
    for inc in incidents {
        let kind = get(inc, "kind").and_then(as_str).unwrap_or("?").to_owned();
        let chain = match get(inc, "cause_chain") {
            Some(Value::Array(links)) => {
                links.iter().filter_map(as_str).map(str::to_owned).collect()
            }
            _ => Vec::new(),
        };
        out.push((kind, chain));
    }
    out
}

/// Renders the post-mortem for terminal consumption. Pure function of the
/// artifact content, so stdout is as deterministic as the file.
fn render(doc: &CounterexampleDoc, outcome: &Value, incidents: &[(String, Vec<String>)]) -> String {
    use std::fmt::Write as _;
    let mut s = String::new();
    let _ = writeln!(
        s,
        "post-mortem: {} under {} (hash {})",
        doc.variant.label(),
        doc.candidate.profile(),
        doc.content_hash
    );
    if let (Some(obj), Some(base), Some(thr)) = (&doc.objective, doc.baseline_value, doc.threshold)
    {
        let measured = get(outcome, "objective_value").and_then(as_f64);
        let _ = match measured {
            Some(m) => writeln!(
                s,
                "objective {obj}: baseline {base:.4}, threshold {thr:.4}, replayed {m:.4}"
            ),
            None => writeln!(s, "objective {obj}: baseline {base:.4}, threshold {thr:.4}"),
        };
    }
    if let Some(cap) = get(outcome, "capture") {
        let tr = get(cap, "trace_records").and_then(as_u64).unwrap_or(0);
        let dropped = get(cap, "dropped_trace_records").and_then(as_u64).unwrap_or(0);
        let spans = get(cap, "spans").and_then(as_u64).unwrap_or(0);
        let _ = writeln!(s, "capture: {tr} trace records ({dropped} dropped), {spans} spans");
    }
    if incidents.is_empty() {
        let _ = writeln!(s, "no incidents detected");
        return s;
    }
    let _ = writeln!(s, "{} incident(s):", incidents.len());
    for (kind, chain) in incidents {
        if chain.is_empty() {
            let _ = writeln!(s, "  - {kind}");
        } else {
            let _ = writeln!(s, "  - {kind}: {}", chain.join(" -> "));
        }
    }
    s
}

/// What [`run_replay`] hands back: did the pinned degradation reproduce?
#[derive(Debug, Clone)]
pub struct ReplayReport {
    /// Objective the counterexample was found against.
    pub objective: Objective,
    /// Freshly measured empty-candidate value.
    pub baseline_value: f64,
    /// Threshold recomputed from that fresh baseline.
    pub threshold: f64,
    /// Freshly measured counterexample value.
    pub value: f64,
    /// `value < threshold` — the pinned failure still fails.
    pub reproduced: bool,
}

/// Re-runs a pinned counterexample and its empty-candidate baseline (no
/// forensic capture) and checks that the objective still degrades past the
/// threshold. This is the fixture regression check: a CC change that fixes
/// the pathology flips `reproduced` to `false`, failing the pinned test
/// loudly instead of leaving a stale fixture. The one error is a document
/// that names no recognized objective — like [`CounterexampleDoc::load`]'s, a
/// fault of the input.
pub fn run_replay(doc: &CounterexampleDoc, spec: &ScenarioSpec) -> Result<ReplayReport, String> {
    let objective = doc
        .objective
        .as_deref()
        .and_then(Objective::from_name)
        .ok_or_else(|| "counterexample lacks a recognized \"objective\"".to_owned())?;

    let base_spec = Candidate::baseline().spec(doc.variant, doc.base_seed);
    let run = |spec: &ScenarioSpec| {
        let (plan, seed) = (spec.plan.plan(), spec.sim_seed());
        cell::run_kind(&spec.kind, &spec.impairments, &spec.schedule, plan, seed)
    };
    let (base_cell, cell) = (run(&base_spec), run(spec));

    let baseline_value = objective.value(&base_cell);
    let threshold = objective.threshold(baseline_value);
    let value = objective.value(&cell);
    Ok(ReplayReport { objective, baseline_value, threshold, value, reproduced: value < threshold })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sweep::{PlanSpec, ScenarioKind};

    const DOC: &str = r#"{
      "kind": "hunt",
      "variant": "BBR",
      "plan": "smoke",
      "base_seed": 7,
      "content_hash": "0000000000000000",
      "objective": "goodput",
      "baseline_value": 4.0,
      "threshold": 2.0,
      "value": 1.0,
      "candidate": { "impairments": [], "schedule": [] }
    }"#;

    #[test]
    fn parse_extracts_every_field() {
        let doc = CounterexampleDoc::parse(DOC).expect("parses");
        assert_eq!(doc.variant, Variant::Bbr);
        assert_eq!(doc.base_seed, 7);
        assert_eq!(doc.objective.as_deref(), Some("goodput"));
        assert_eq!(doc.baseline_value, Some(4.0));
        assert!(doc.candidate.impairments.is_empty());
    }

    #[test]
    fn spec_rejects_a_tampered_hash() {
        let doc = CounterexampleDoc::parse(DOC).expect("parses");
        let err = doc.spec().expect_err("stored hash is bogus");
        assert!(err.contains("content hash mismatch"), "{err}");
    }

    #[test]
    fn spec_round_trips_a_genuine_hash() {
        let mut doc = CounterexampleDoc::parse(DOC).expect("parses");
        // Recompute what the hash should be, then re-verify.
        doc.content_hash = ScenarioSpec {
            base_seed: doc.base_seed,
            ..ScenarioSpec::new(ScenarioKind::Hunt { variant: doc.variant }, PlanSpec::Smoke)
        }
        .hash_hex();
        assert!(doc.spec().is_ok());
    }

    #[test]
    fn parse_rejects_wrong_kind() {
        let err = CounterexampleDoc::parse(r#"{"kind":"stress"}"#).expect_err("wrong kind");
        assert!(err.contains("not a hunt counterexample"), "{err}");
    }
}
