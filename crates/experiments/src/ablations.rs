//! Ablation studies over TCP-PR's design choices (DESIGN.md §2):
//! the `memorize` list, extreme-loss handling, and the send-time window
//! snapshot. Each ablation runs the same single-flow dumbbell workload
//! ([`ScenarioKind::Ablation`](crate::sweep::ScenarioKind) through
//! [`crate::cell`]) and reports throughput plus the sender's event counters,
//! so the contribution of each mechanism is visible in isolation.

use tcp_pr::TcpPrConfig;

/// Which mechanism is removed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, serde::Serialize)]
pub enum Ablation {
    /// The full algorithm (baseline).
    None,
    /// No `memorize` list: every detected drop halves the window.
    NoMemorize,
    /// No Section 3.2 extreme-loss reset/backoff.
    NoExtremeLoss,
    /// Halve from the current window instead of the send-time snapshot.
    HalveFromCurrent,
}

impl Ablation {
    /// All ablations, baseline first.
    pub const ALL: [Ablation; 4] =
        [Ablation::None, Ablation::NoMemorize, Ablation::NoExtremeLoss, Ablation::HalveFromCurrent];

    /// The inverse of serialization: resolves an ablation from the name the
    /// serde derive emits (`"None"`, `"NoMemorize"`, …). Used by the sweep
    /// cache when decoding stored outcomes.
    pub fn from_name(name: &str) -> Option<Ablation> {
        Ablation::ALL.into_iter().find(|a| format!("{a:?}") == name)
    }

    /// Display label.
    pub fn label(self) -> &'static str {
        match self {
            Ablation::None => "full algorithm",
            Ablation::NoMemorize => "no memorize list",
            Ablation::NoExtremeLoss => "no extreme-loss handling",
            Ablation::HalveFromCurrent => "halve from current cwnd",
        }
    }

    /// The inverse of [`Ablation::config`]: the mechanism `cfg` runs without.
    pub fn of(cfg: &TcpPrConfig) -> Ablation {
        match (cfg.ablate_no_memorize, cfg.ablate_no_extreme_loss, cfg.ablate_halve_current) {
            (true, _, _) => Ablation::NoMemorize,
            (_, true, _) => Ablation::NoExtremeLoss,
            (_, _, true) => Ablation::HalveFromCurrent,
            _ => Ablation::None,
        }
    }

    /// The TCP-PR configuration with this mechanism removed.
    pub fn config(self) -> TcpPrConfig {
        let mut cfg = TcpPrConfig::default();
        match self {
            Ablation::None => {}
            Ablation::NoMemorize => cfg.ablate_no_memorize = true,
            Ablation::NoExtremeLoss => cfg.ablate_no_extreme_loss = true,
            Ablation::HalveFromCurrent => cfg.ablate_halve_current = true,
        }
        cfg
    }
}
