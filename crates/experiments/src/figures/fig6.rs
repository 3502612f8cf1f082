//! Figure 6: throughput under ε-parameterized multipath routing for the six
//! reordering-handling TCP variants, over the Figure 5 mesh.
//!
//! ε = 500 is single-path routing (every method performs alike); smaller ε
//! spreads packets over more paths, reordering grows, and the DUPACK-driven
//! methods collapse while TCP-PR keeps (and aggregates) throughput. TD-FR
//! survives at 10 ms link delay but collapses at 60 ms — its wait threshold
//! scales with RTT and its dupthresh interaction makes it bursty.
//!
//! A cell is [`ScenarioKind::Multipath`](crate::sweep::ScenarioKind) run by
//! [`crate::cell`]; this module keeps the figure's constants.

/// The ε values swept by the paper.
pub const EPSILONS: [f64; 5] = [0.0, 1.0, 4.0, 10.0, 500.0];

/// Receiver-window cap (segments) applied to every sender in this
/// experiment, mirroring ns-2's `window_` limit. It bounds slow-start
/// overshoot on the otherwise-unloaded mesh; 300 segments match the
/// paper's throughput scale (≈ 30 Mbps at a 40–80 ms multipath RTT).
pub const WINDOW_CAP: f64 = 300.0;
