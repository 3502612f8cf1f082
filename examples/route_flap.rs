//! Route flaps — the paper's motivating Internet scenario ([17]): the
//! route between a source and destination oscillates between a short and a
//! long path, reordering everything in flight at each switch.
//!
//! ```text
//! cargo run --example route_flap --release
//! ```

use experiments::cell::{self, CellReport, Table};
use experiments::runner::MeasurePlan;
use experiments::sweep::ScenarioKind;
use experiments::variants::Variant;

fn main() {
    let variants = [Variant::TcpPr, Variant::NewReno, Variant::Sack, Variant::Eifel, Variant::Door];

    for flap_period_ms in [2000u64, 500, 200] {
        let rows: Vec<CellReport> = variants
            .iter()
            .map(|&variant| {
                let kind = ScenarioKind::RouteFlap {
                    variant,
                    short_delay_ms: 10,
                    long_delay_ms: 40,
                    link_mbps: 10.0,
                    flap_period_ms,
                };
                cell::run_kind(&kind, &[], &[], MeasurePlan::quick(), 7)
            })
            .collect();
        println!("--- flap period {flap_period_ms} ms ---");
        println!("{}", Table::ROUTEFLAP.render(&rows));
    }

    println!(
        "Faster flaps mean more frequent reordering episodes; TCP-PR's \
         timer-based detection is unaffected, while DUPACK-driven senders \
         degrade with flap frequency. Eifel and TCP-DOOR (extensions) \
         recover part of the gap by undoing spurious responses after the \
         fact."
    );
}
