//! MANET-style route churn (the paper's future-work setting): routes are
//! recomputed at random intervals, as mobility would force a MANET routing
//! protocol to do.
//!
//! ```text
//! cargo run --example manet_churn --release
//! ```

use experiments::cell::{self, CellReport, Table};
use experiments::runner::MeasurePlan;
use experiments::sweep::ScenarioKind;
use experiments::variants::Variant;

fn main() {
    let variants = [Variant::TcpPr, Variant::Sack, Variant::NewReno, Variant::Door];

    for mean_interval_ms in [1000u64, 400, 150] {
        let rows: Vec<CellReport> = variants
            .iter()
            .map(|&variant| {
                let kind = ScenarioKind::Churn { variant, mean_interval_ms, churn_seed: 42 };
                cell::run_kind(&kind, &[], &[], MeasurePlan::quick(), 3)
            })
            .collect();
        println!("--- mean route lifetime {mean_interval_ms} ms ---");
        println!("{}", Table::CHURN.render(&rows));
    }
}
