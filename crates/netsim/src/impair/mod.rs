//! Deterministic fault-injection: a composable channel-impairment pipeline.
//!
//! The scenario families used across the TCP-variant literature — i.i.d.
//! and Gilbert–Elliott burst loss, bounded-jitter delay (the canonical
//! synthetic-reordering generator), fixed-offset packet displacement,
//! duplication, link flapping and bandwidth/delay oscillation — get a
//! first-class home here instead of being emulated through routing tricks.
//!
//! Two halves:
//!
//! - **Per-packet stages** ([`StageConfig`], [`ImpairPipeline`]): a link
//!   may carry an ordered pipeline of impairment stages sitting *between
//!   its output queue and its propagation stage*. Each departing packet
//!   runs through the stages in order; a stage may drop it, delay it, or
//!   duplicate it ([`Fate`]). Loss injected here is wire loss: the packet
//!   already consumed its serialization time, exactly like a corrupted
//!   frame.
//! - **A sim-time schedule engine** ([`schedule`]): [`LinkAdmin`] actions
//!   (up/down, bandwidth and delay changes) scheduled as ordinary events,
//!   plus generators for periodic flapping and square-wave oscillation.
//!
//! # Determinism contract
//!
//! Every random stage draws from a private [`SmallRng`] seeded from the
//! simulation seed and the link index via [`derive_seed`] — never from the
//! simulator's main RNG stream. Installing or removing an impairment
//! pipeline therefore cannot perturb any other random decision in the run,
//! and (because the sweep engine derives the simulation seed from a spec's
//! content hash) results stay byte-identical across worker counts and
//! cache resumption. Counters accumulate in [`ImpairStats`]; a run's
//! totals reach its [`crate::telemetry::SessionStats`] through
//! [`crate::sim::Simulator::run_health`].
//!
//! # Examples
//!
//! ```
//! use netsim::impair::{ImpairPipeline, ImpairStats, StageConfig};
//! use netsim::time::SimDuration;
//!
//! let stages = [StageConfig::IidLoss { p: 0.5 }];
//! let mut pipe = ImpairPipeline::new(&stages, 7);
//! let mut stats = ImpairStats::default();
//! let tx = SimDuration::from_micros(800);
//! for _ in 0..1000 {
//!     pipe.process(tx, &mut stats);
//! }
//! assert!((300..700).contains(&stats.iid_losses), "≈half drop");
//! ```

pub mod schedule;
pub mod stage;

pub use schedule::{
    bandwidth_oscillation, delay_oscillation, flap_schedule, AdminEntry, LinkAdmin,
};
pub use stage::{Fate, ImpairPipeline, ImpairStats, StageConfig};

/// Derives the RNG seed of one link's impairment pipeline from the
/// simulation seed (SplitMix64 finalizer over a golden-ratio stride), so
/// every link gets an independent, reproducible stream.
pub fn derive_seed(sim_seed: u64, link_index: u32) -> u64 {
    let mut z = sim_seed ^ 0x9e37_79b9_7f4a_7c15u64.wrapping_mul(u64::from(link_index) + 1);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn derived_seeds_differ_per_link_and_per_sim() {
        let a = derive_seed(1, 0);
        let b = derive_seed(1, 1);
        let c = derive_seed(2, 0);
        assert_ne!(a, b, "links get independent streams");
        assert_ne!(a, c, "sims get independent streams");
        assert_eq!(a, derive_seed(1, 0), "derivation is pure");
    }
}
