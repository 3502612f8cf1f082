//! Figure 2: TCP-PR vs TCP-SACK fairness as the number of flows grows.
//!
//! The paper plots, for each total flow count (up to 64, half TCP-PR and
//! half TCP-SACK with α = 0.995 and β = 3), every flow's normalized
//! throughput plus the per-protocol means, on both the dumbbell and the
//! parking-lot topologies. The reproduction criterion is that both protocol
//! means sit near 1 across the sweep.

use crate::cell::{CellReport, Metric};

/// The flow counts swept by the paper's Figure 2.
pub const FLOW_COUNTS: [usize; 6] = [2, 4, 8, 16, 32, 64];

/// One series of Figure 2 (one topology, sweep over flow counts).
#[derive(Debug, Clone, serde::Serialize)]
pub struct Fig2Series {
    /// Topology label.
    pub topology: String,
    /// One fairness cell per flow count.
    pub rows: Vec<CellReport>,
}

/// Renders a series as the paper-style text table.
pub fn format_table(series: &[Fig2Series]) -> String {
    let mut s = String::new();
    for set in series {
        s.push_str(&format!("Figure 2 — {} topology\n", set.topology));
        s.push_str("flows | mean T (TCP-PR) | mean T (TCP-SACK) | loss %\n");
        for row in &set.rows {
            s.push_str(&format!(
                "{:5} | {:15.3} | {:17.3} | {:6.2}\n",
                row.num(Metric::NFlows),
                row.num(Metric::MeanPr),
                row.num(Metric::MeanSack),
                row.num(Metric::LossRatePct)
            ));
        }
        s.push('\n');
    }
    s
}
