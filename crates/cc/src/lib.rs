//! # cc — modern congestion-control comparators
//!
//! The paper benchmarks TCP-PR against 2003-era baselines; this crate adds
//! the two algorithms that dominate deployment today, so the reproduction
//! can answer whether TCP-PR's reorder robustness still matters against a
//! modern stack:
//!
//! - [`cubic::CubicSender`]: CUBIC per RFC 8312 — cubic window growth
//!   around the last loss point, fast convergence, and the TCP-friendly
//!   region that keeps it no slower than a Reno flow on short-RTT paths.
//!   Loss recovery is [`transport::dupack::Window`], the one engine under
//!   the baselines' Reno family and TD-FR, so differences in the figures
//!   come from the *growth law*, not from a different retransmit strategy.
//! - [`bbr::BbrSender`]: BBR v1 — a rate-based model (windowed max
//!   bandwidth × windowed min RTT) with the startup / drain / probe-bw /
//!   probe-rtt state machine. It requests paced release through
//!   [`transport::sender::TcpSenderAlgo::pacing_rate`]; the host meters its
//!   segments on the agent's auxiliary timer.
//!
//! [`windowed_filter::WindowedFilter`] is the shared sliding-window
//! max/min estimator (exact, monotonic-deque implementation).
//!
//! Both senders are pure state machines over the same
//! [`TcpSenderAlgo`](transport::sender::TcpSenderAlgo) trait as every other
//! variant, so they drop into every figure grid and the stress suite
//! unchanged.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod bbr;
pub mod cubic;
pub mod windowed_filter;

pub use bbr::{BbrConfig, BbrSender, BbrState};
pub use cubic::{CubicConfig, CubicSender};
pub use windowed_filter::WindowedFilter;
