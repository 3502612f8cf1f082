//! # transport — TCP endpoint substrate for the TCP-PR reproduction
//!
//! Splits a simulated TCP connection into three pieces:
//!
//! - [`sender::TcpSenderAlgo`]: the congestion-control/loss-recovery state
//!   machine. TCP-PR (crate `tcp-pr`) and every baseline (crate `baselines`)
//!   implement this trait, so they stay pure and unit-testable.
//! - [`receiver::TcpReceiver`]: the one standard receiver shared by all
//!   variants (cumulative ACKs, SACK, DSACK) — TCP-PR requires no receiver
//!   changes, exactly as the paper emphasizes.
//! - [`host`]: adapters that bind those pieces onto `netsim` nodes, plus
//!   [`host::attach_flow`] for one-line flow setup.
//!
//! [`rto::RtoEstimator`] implements RFC 2988 for the baselines' coarse
//! timeouts. [`dupack::Window`] is the send window, go-back-N refill and
//! recovery episode under the ten duplicate-ACK senders (Reno, NewReno,
//! DSACK ×4, Eifel, TCP-DOOR, TD-FR, CUBIC); [`scoreboard::Scoreboard`] is
//! the RFC 6675 SACK bookkeeping TCP-SACK and BBR share, and
//! [`seq_ring::SeqRing`] holds per-segment send records at `seq − base`.
//!
//! # Examples
//!
//! Run a fixed-window reference sender over a two-node topology:
//!
//! ```
//! use netsim::{SimBuilder, LinkConfig, FlowId, SimTime, SimDuration};
//! use transport::host::{attach_flow, receiver_host, FlowOptions};
//! use transport::fixed_window::FixedWindowSender;
//!
//! let mut b = SimBuilder::new(1);
//! let src = b.add_node();
//! let dst = b.add_node();
//! b.add_duplex(src, dst, LinkConfig::mbps_ms(10.0, 10, 100));
//! let mut sim = b.build();
//! let algo = FixedWindowSender::new(8, SimDuration::from_secs(1));
//! let h = attach_flow(&mut sim, FlowId::from_raw(0), src, dst, algo, FlowOptions::default());
//! sim.run_until(SimTime::from_secs_f64(2.0));
//! assert!(receiver_host(&sim, h.receiver).delivered_bytes() > 0);
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod dupack;
pub mod fixed_window;
pub mod host;
pub mod pacing;
pub mod receiver;
pub mod rto;
pub mod scoreboard;
pub mod sender;
pub mod seq_ring;
pub mod telemetry;

pub use host::{
    attach_flow, receiver_host, sender_host, FlowHandle, FlowOptions, SenderHost, SenderStats,
};
pub use pacing::Pacer;
pub use receiver::{ReceiverConfig, ReceiverStats, TcpReceiver};
pub use rto::RtoEstimator;
pub use sender::{AckEvent, SenderOutput, TcpSenderAlgo, TimerOp, Transmission};
