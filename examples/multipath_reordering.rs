//! The paper's headline scenario: persistent packet reordering from
//! multi-path routing (Figure 5/6), comparing TCP-PR against DUPACK-driven
//! baselines.
//!
//! ```text
//! cargo run --example multipath_reordering --release
//! ```

use experiments::cell::{self, CellReport, Metric};
use experiments::runner::MeasurePlan;
use experiments::sweep::ScenarioKind;
use experiments::variants::Variant;

/// One cell of Figure 6: the Figure 5 mesh with 10 ms links.
fn multipath(variant: Variant, epsilon: f64) -> CellReport {
    let kind = ScenarioKind::Multipath { variant, epsilon, link_delay_ms: 10 };
    cell::run_kind(&kind, &[], &[], MeasurePlan::quick(), 7)
}

fn main() {
    println!("Five-path mesh, per-packet ε-routing (ε = 0 ⇒ uniform over all paths)\n");
    println!("protocol     | eps  | Mbps   | retransmits | late arrivals");
    for variant in [Variant::TcpPr, Variant::NewReno, Variant::Sack, Variant::DsackNm] {
        for eps in [0.0, 500.0] {
            let p = multipath(variant, eps);
            println!(
                "{:12} | {:4} | {:6.2} | {:11} | {:10}",
                variant.label(),
                eps,
                p.num(Metric::Mbps),
                p.num(Metric::Retransmits),
                p.num(Metric::LateArrivals)
            );
        }
    }

    println!();
    let pr = multipath(Variant::TcpPr, 0.0).num(Metric::Mbps);
    let nr = multipath(Variant::NewReno, 0.0).num(Metric::Mbps);
    println!(
        "Under full multipath, TCP-PR moves {:.1}x the data of NewReno: \
         timer-based loss detection is immune to reordering, while DUPACK \
         heuristics retransmit spuriously and shrink the window.",
        pr / nr.max(0.01)
    );
}
