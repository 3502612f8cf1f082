//! Executes one [`ScenarioSpec`] on the calling thread and returns its
//! outcome as a serialized value tree.
//!
//! Workers call [`execute`] with a shared [`ExecCtx`]; everything mutable
//! (the simulator, the trace sink) is constructed locally, so any number of
//! workers can execute scenarios concurrently without sharing state.

use std::path::PathBuf;

use netsim::trace::{JsonlTraceSink, TraceSink};
use serde::Value;
use tcp_pr::TcpPrConfig;

use crate::cell;
use crate::figures::fairness::{
    run_fairness_with, FairnessParams, FairnessTelemetry, FairnessTopology,
};
use crate::hunt;
use crate::scale::{self, ScaleConfig};
use crate::sweep::spec::{ScenarioKind, ScenarioSpec, TopologySpec};
use crate::topologies::{DumbbellConfig, ParkingLotConfig};

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
    /// The JSONL trace path for a traced scenario, if tracing is enabled.
    fn trace_sink(&self) -> Option<Box<dyn TraceSink>> {
        let dir = self.telemetry_dir.as_ref()?;
        let path = dir.join("fig2_flow0.jsonl");
        let sink = JsonlTraceSink::create(&path)
            .unwrap_or_else(|e| panic!("cannot create trace file {}: {e}", path.display()));
        eprintln!("[trace → {}]", path.display());
        Some(Box::new(sink))
    }
}

impl TopologySpec {
    /// The concrete fairness topology for this spec.
    pub fn build(&self) -> FairnessTopology {
        match *self {
            TopologySpec::Dumbbell { bottleneck_mbps } => {
                let mut cfg = DumbbellConfig::default();
                if let Some(bw) = bottleneck_mbps {
                    cfg.bottleneck_mbps = bw;
                }
                FairnessTopology::Dumbbell(cfg)
            }
            TopologySpec::ParkingLot { backbone_mbps } => {
                let mut cfg = ParkingLotConfig::default();
                if let Some(bw) = backbone_mbps {
                    cfg.backbone_mbps = bw;
                }
                FairnessTopology::ParkingLot(cfg)
            }
            TopologySpec::Generated { model } => panic!(
                "generated topology {} is population-only: use ScenarioKind::Scale, \
                 not a fairness scenario",
                model.label()
            ),
        }
    }
}

/// Runs the scenario to completion and serializes its typed result.
///
/// The returned value is exactly the `serde::Serialize` tree of the
/// harness's result (`FairnessResult`, `ScaleResult`, or the
/// [`cell::CellReport`] of the six kinds [`cell::lower`] covers), so
/// cached and freshly-executed outcomes are indistinguishable downstream.
///
/// # Panics
///
/// Propagates any panic from the underlying harness (an invalid spec, a
/// simulator invariant failure). The worker pool catches these and records
/// a crashed outcome instead of killing the sweep.
pub fn execute(spec: &ScenarioSpec, ctx: &ExecCtx) -> Value {
    let plan = spec.plan.plan();
    let seed = spec.sim_seed();
    match &spec.kind {
        ScenarioKind::Fairness { topology, n_flows, alpha, beta, .. } => {
            let params = FairnessParams {
                plan,
                seed,
                pr_config: TcpPrConfig::with_alpha_beta(*alpha, *beta),
            };
            let telemetry = FairnessTelemetry {
                trace_sink: if spec.traced { ctx.trace_sink() } else { None },
                ..FairnessTelemetry::default()
            };
            let r = run_fairness_with(topology.build(), *n_flows, &params, telemetry);
            serde::Serialize::to_value(&r)
        }
        ScenarioKind::Scale { variant, topology, target_flows, .. } => {
            let TopologySpec::Generated { model } = topology else {
                panic!("scale scenarios require a generated topology, got {}", topology.label())
            };
            let r = scale::run_scale(
                *variant,
                *model,
                *target_flows,
                ScaleConfig::default(),
                plan,
                seed,
            );
            serde::Serialize::to_value(&r)
        }
        kind => match (kind, &ctx.forensics) {
            (ScenarioKind::Hunt { .. }, Some(fctx)) => hunt::forensic_payload(spec, fctx),
            _ => serde::Serialize::to_value(&cell::run_kind(
                kind,
                &spec.impairments,
                &spec.schedule,
                plan,
                seed,
            )),
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sweep::spec::PlanSpec;
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
        assert_eq!(a, b, "same spec must produce identical outcomes");
    }

    #[test]
    fn multipath_outcome_carries_the_figure_fields() {
        let spec = ScenarioSpec::new(
            ScenarioKind::Multipath { variant: Variant::TcpPr, epsilon: 500.0, link_delay_ms: 10 },
            PlanSpec::Quick,
        );
        let v = execute(&spec, &ExecCtx::default());
        let text = serde_json::to_string(&v).expect("total");
        for key in ["\"variant\"", "\"epsilon\"", "\"mbps\"", "\"late_arrivals\""] {
            assert!(text.contains(key), "{key} in {text}");
        }
    }
}
