//! Figure 4: TCP-SACK's mean normalized throughput against TCP-PR for a
//! grid of TCP-PR parameters (α, β).
//!
//! The paper's surface plots (dumbbell left, parking lot right) show that
//! for β = 1 TCP-SACK gets *more* than its share (TCP-PR's drop threshold
//! is too aggressive and it repeatedly backs off), while for β > 1 the two
//! protocols split the bottleneck almost exactly — across the whole α
//! range. Reproduction criteria: `mean_sack` noticeably above 1 at β = 1,
//! and within a band around 1 for 1 < β ≤ 5.

/// α values swept (paper: 0–1 range).
pub const ALPHAS: [f64; 5] = [0.05, 0.25, 0.5, 0.75, 0.995];

/// β values swept (paper: 1–10 range).
pub const BETAS: [f64; 5] = [1.0, 2.0, 3.0, 5.0, 10.0];

/// One grid cell of Figure 4.
#[derive(Debug, Clone, serde::Serialize)]
pub struct Fig4Cell {
    /// Topology label.
    pub topology: String,
    /// TCP-PR memory factor α.
    pub alpha: f64,
    /// TCP-PR threshold multiplier β.
    pub beta: f64,
    /// TCP-SACK mean normalized throughput (the paper's z-axis).
    pub mean_sack: f64,
    /// TCP-PR mean normalized throughput (complementary).
    pub mean_pr: f64,
}

/// Renders the grid as a text matrix (rows α, columns β).
pub fn format_table(cells: &[Fig4Cell]) -> String {
    let mut alphas: Vec<f64> = cells.iter().map(|c| c.alpha).collect();
    alphas.sort_by(f64::total_cmp);
    alphas.dedup();
    let mut betas: Vec<f64> = cells.iter().map(|c| c.beta).collect();
    betas.sort_by(f64::total_cmp);
    betas.dedup();

    let mut s = String::from("Figure 4 — TCP-SACK mean normalized throughput\n");
    s.push_str("alpha \\ beta |");
    for b in &betas {
        s.push_str(&format!(" {b:6.2} |"));
    }
    s.push('\n');
    for a in &alphas {
        s.push_str(&format!("{a:12.3} |"));
        for b in &betas {
            let cell = cells
                .iter()
                .find(|c| c.alpha == *a && c.beta == *b)
                .map(|c| c.mean_sack)
                .unwrap_or(f64::NAN);
            s.push_str(&format!(" {cell:6.3} |"));
        }
        s.push('\n');
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders_grid() {
        let cell = |alpha, mean_sack| Fig4Cell {
            topology: "dumbbell".to_owned(),
            alpha,
            beta: 3.0,
            mean_sack,
            mean_pr: 2.0 - mean_sack,
        };
        let t = format_table(&[cell(0.5, 1.04), cell(0.995, 0.97)]);
        assert!(t.contains("0.500") && t.contains("0.995"), "{t}");
        assert!(t.contains("1.040") && t.contains("0.970"), "{t}");
    }
}
