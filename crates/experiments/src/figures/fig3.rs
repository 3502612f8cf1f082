//! Figure 3: coefficient of variation of per-protocol throughput as a
//! function of the packet loss rate.
//!
//! The paper varies the loss probability by shrinking the bottleneck
//! bandwidth (32 TCP-PR + 32 TCP-SACK flows) and plots the CoV of each
//! protocol's normalized throughput for ten runs plus their means. The
//! reproduction criterion: TCP-PR's and TCP-SACK's CoV are of similar
//! magnitude at comparable loss rates.

/// One (loss rate, CoV) sample of Figure 3.
#[derive(Debug, Clone, serde::Serialize)]
pub struct Fig3Point {
    /// Topology label.
    pub topology: String,
    /// Bottleneck scale applied (Mbps for the dumbbell, backbone Mbps for
    /// the parking lot).
    pub bandwidth_mbps: f64,
    /// Seed of this run.
    pub seed: u64,
    /// Measured loss rate (%) at the bottleneck(s).
    pub loss_rate_pct: f64,
    /// CoV of TCP-PR normalized throughput.
    pub cov_pr: f64,
    /// CoV of TCP-SACK normalized throughput.
    pub cov_sack: f64,
}

/// Renders the points as a text table sorted by loss rate.
pub fn format_table(points: &[Fig3Point]) -> String {
    let mut sorted: Vec<&Fig3Point> = points.iter().collect();
    sorted.sort_by(|a, b| a.loss_rate_pct.total_cmp(&b.loss_rate_pct));
    let mut s = String::from("Figure 3 — CoV vs loss rate\n");
    s.push_str("topology     | bw Mbps | loss % | CoV TCP-PR | CoV TCP-SACK\n");
    for p in sorted {
        s.push_str(&format!(
            "{:12} | {:7.2} | {:6.2} | {:10.3} | {:12.3}\n",
            p.topology, p.bandwidth_mbps, p.loss_rate_pct, p.cov_pr, p.cov_sack
        ));
    }
    s
}
