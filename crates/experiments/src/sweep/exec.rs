//! Executes one [`ScenarioSpec`] on the calling thread and returns its
//! outcome as a serialized value tree.
//!
//! Every kind takes the same two steps — [`cell::lower`], [`cell::run`] —
//! and there is no per-kind code here; the one fork is a hunt cell under a
//! forensic context, whose payload wraps the same report.
//!
//! Workers call [`execute`] with a shared [`ExecCtx`]; everything mutable
//! (the simulator, the trace sink) is constructed locally, so any number of
//! workers can execute scenarios concurrently without sharing state.

use std::path::PathBuf;

use netsim::telemetry::SessionStats;
use netsim::trace::{JsonlTraceSink, TraceSink};
use serde::Value;

use crate::cell::{self, Observe};
use crate::hunt;
use crate::sweep::spec::{ScenarioKind, ScenarioSpec};

/// Immutable context shared by every worker of a sweep.
#[derive(Debug, Default, Clone)]
pub struct ExecCtx {
    /// Directory receiving streamed packet traces for `traced` scenarios
    /// (the repro binary's `--telemetry-dir`). `None` disables tracing even
    /// for specs that request it.
    pub telemetry_dir: Option<PathBuf>,
    /// When set, hunt scenarios run in forensic mode: full packet tracing,
    /// flow-tagged span capture, sampled time series, and a
    /// [`forensics`](::forensics) report replace the bare scalar outcome.
    pub forensics: Option<ForensicCtx>,
}

/// Counterexample context threaded into forensic hunt cells so the
/// objective-degradation detector knows what the run was accused of.
#[derive(Debug, Default, Clone)]
pub struct ForensicCtx {
    /// Objective name from the counterexample doc (`goodput`, …).
    pub objective: Option<String>,
    /// Healthy baseline value of that objective.
    pub baseline_value: Option<f64>,
    /// Degradation threshold the counterexample beat.
    pub threshold: Option<f64>,
}

impl ExecCtx {
    /// The JSONL trace sink of a traced scenario, if tracing is enabled.
    fn trace_sink(&self) -> Option<Box<dyn TraceSink>> {
        let dir = self.telemetry_dir.as_ref()?;
        let path = dir.join("fig2_flow0.jsonl");
        let sink = JsonlTraceSink::create(&path)
            .unwrap_or_else(|e| panic!("cannot create trace file {}: {e}", path.display()));
        eprintln!("[trace → {}]", path.display());
        Some(Box::new(sink))
    }
}

/// Runs the scenario to completion and serializes its outcome: the
/// [`cell::CellReport`] of its kind, so cached and freshly-executed
/// outcomes are indistinguishable downstream — or, for a hunt cell under
/// a forensic context, the `explain` payload around that report. Beside
/// the outcome it returns the run's health, which [`cell::run`] reports.
///
/// # Panics
///
/// Propagates any panic from the harness (an invalid spec, a simulator
/// invariant failure). The worker pool catches these and records a crashed
/// outcome instead of killing the sweep.
pub fn execute(spec: &ScenarioSpec, ctx: &ExecCtx) -> (Value, SessionStats) {
    if let (ScenarioKind::Hunt { .. }, Some(fctx)) = (&spec.kind, &ctx.forensics) {
        return hunt::forensic_payload(spec, fctx);
    }
    let scenario = cell::lower(&spec.kind, &spec.impairments, &spec.schedule);
    let sink = if spec.traced { ctx.trace_sink() } else { None };
    let observe = sink.map_or(Observe::Nothing, Observe::Stream);
    let (report, health) = cell::run(&scenario, spec.plan.plan(), spec.sim_seed(), observe);
    (serde::Serialize::to_value(&report), health)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sweep::spec::{PlanSpec, TopologySpec};
    use crate::variants::Variant;

    #[test]
    fn execute_is_a_pure_function_of_the_spec() {
        let spec = ScenarioSpec::new(
            ScenarioKind::Fairness {
                topology: TopologySpec::Dumbbell { bottleneck_mbps: None },
                n_flows: 2,
                alpha: 0.995,
                beta: 3.0,
                replicate: 0,
            },
            PlanSpec::Quick,
        );
        let ctx = ExecCtx::default();
        let a = execute(&spec, &ctx);
        let b = execute(&spec, &ctx);
        assert_eq!(a, b, "same spec must produce identical outcomes and health");
        assert_eq!(a.1.sims, 1, "one cell, one simulator");
    }

    #[test]
    fn multipath_outcome_carries_the_figure_fields() {
        let spec = ScenarioSpec::new(
            ScenarioKind::Multipath { variant: Variant::TcpPr, epsilon: 500.0, link_delay_ms: 10 },
            PlanSpec::Quick,
        );
        let (v, _) = execute(&spec, &ExecCtx::default());
        let text = serde_json::to_string(&v).expect("total");
        for key in ["\"variant\"", "\"epsilon\"", "\"mbps\"", "\"late_arrivals\""] {
            assert!(text.contains(key), "{key} in {text}");
        }
    }
}
