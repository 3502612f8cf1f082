//! Section 4's fairness experiment in miniature: TCP-PR and TCP-SACK flows
//! sharing a dumbbell bottleneck, reporting normalized throughput per flow.
//!
//! ```text
//! cargo run --example fairness_dumbbell --release
//! ```

use experiments::cell::{self, Metric};
use experiments::metrics::jain_fairness;
use experiments::runner::MeasurePlan;
use experiments::sweep::{ScenarioKind, TopologySpec};

fn main() {
    let topology = TopologySpec::Dumbbell { bottleneck_mbps: None };
    for n_flows in [4usize, 8, 16] {
        let kind =
            ScenarioKind::Fairness { topology, n_flows, alpha: 0.995, beta: 3.0, replicate: 0 };
        let r = cell::run_kind(&kind, &[], &[], MeasurePlan::quick(), 3);
        let (pr, sack) = (r.nums(Metric::PrNormalized), r.nums(Metric::SackNormalized));
        println!("{n_flows:2} flows ({} TCP-PR + {} TCP-SACK):", n_flows / 2, n_flows / 2);
        println!("  per-flow normalized throughput, TCP-PR  : {:?}", round_all(&pr));
        println!("  per-flow normalized throughput, TCP-SACK: {:?}", round_all(&sack));
        println!(
            "  means: TCP-PR {:.3}, TCP-SACK {:.3}  (1.0 = perfectly fair share)",
            r.num(Metric::MeanPr),
            r.num(Metric::MeanSack)
        );
        let all: Vec<f64> = pr.iter().chain(sack.iter()).copied().collect();
        println!("  Jain fairness index over all flows: {:.3}\n", jain_fairness(&all));
    }
}

fn round_all(xs: &[f64]) -> Vec<f64> {
    xs.iter().map(|x| (x * 1000.0).round() / 1000.0).collect()
}
