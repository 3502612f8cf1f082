//! # netsim — deterministic packet-level network simulator
//!
//! An ns-2-like discrete-event simulator built as the evaluation substrate
//! for the TCP-PR reproduction (Bohacek et al., ICDCS 2003). It models:
//!
//! - point-to-point links with bandwidth, propagation delay and drop-tail
//!   (or RED) output queues ([`link`], [`queue`]),
//! - shortest-path and ε-parameterized multi-path routing ([`routing`]),
//! - transport endpoints as pluggable [`agent::Agent`]s with per-agent
//!   timers,
//! - a deterministic event core: integer-nanosecond clock, FIFO tie-breaking
//!   and a single seeded RNG, so that equal seeds give bit-identical runs.
//!
//! # Examples
//!
//! Build a two-node topology and run it (agents are supplied by the
//! `transport` crate or by custom [`agent::Agent`] implementations):
//!
//! ```
//! use netsim::sim::SimBuilder;
//! use netsim::link::LinkConfig;
//! use netsim::time::SimTime;
//!
//! let mut b = SimBuilder::new(42);
//! let src = b.add_node();
//! let dst = b.add_node();
//! b.add_duplex(src, dst, LinkConfig::mbps_ms(10.0, 10, 100));
//! let mut sim = b.build();
//! sim.run_until(SimTime::from_secs_f64(1.0));
//! assert_eq!(sim.now(), SimTime::from_secs_f64(1.0));
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod agent;
pub mod event;
pub mod ids;
pub mod impair;
pub mod link;
pub mod oracle;
pub mod packet;
pub mod queue;
pub mod routing;
pub mod sim;
mod slab;
pub mod telemetry;
pub mod time;
pub mod trace;
pub mod traffic;

pub use agent::{Agent, AgentCtx};
pub use ids::{AgentId, FlowId, LinkId, NodeId, PacketId, RouteId};
pub use impair::{derive_seed, AdminEntry, ImpairStats, LinkAdmin, StageConfig};
pub use link::LinkConfig;
pub use oracle::{Snapshot, Violation};
pub use packet::{AckHeader, DataHeader, Packet, PacketKind, ACK_PACKET_BYTES, DATA_PACKET_BYTES};
pub use sim::{SimBuilder, SimStats, Simulator};
pub use telemetry::{RunHealth, Sampler, TimeSeries};
pub use time::{SimDuration, SimTime};
pub use trace::{JsonlTraceSink, Ns2TraceSink, TraceConfig, TraceMode, TraceRecord, TraceSink};
