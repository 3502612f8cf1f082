//! Always-compiled, zero-cost-when-disabled observability for the sim core
//! and sender state machines.
//!
//! Three pieces:
//!
//! - a **profiler registry** ([`count`], [`observe`], [`observe_wall`],
//!   [`gauge_max`]) that the sim hot path (`netsim::sim`/`event`/`queue`/
//!   `impair`) reports into — per-event-kind dispatch counters, log-bucketed
//!   histograms over sim-domain quantities (queue depth, timer lead time)
//!   and over wall-clock dispatch cost;
//! - **span-based structured tracing** ([`span`]) of sender state-machine
//!   decisions — TCP-PR timer verdicts, CUBIC epoch resets, BBR gain-state
//!   transitions, pacer release batches — as typed [`SpanRecord`]s that
//!   render to the JSONL trace shape;
//! - a [`ProfileReport`] drained per scenario by [`take`] and merged in spec
//!   order by the sweep pool, so `repro profile` output is byte-identical at
//!   any `--jobs` count for everything except the clearly-separated
//!   wall-clock section.
//!
//! The whole layer is compiled unconditionally; when [`enabled`] is false
//! (the default) every hook is one relaxed atomic load and a return (the
//! benchmark's `obs.slowdown` counter holds the price of turning it on).
//!
//! # Examples
//!
//! ```
//! obs::enable();
//! obs::count("event.timer", 1);
//! obs::observe("queue.depth", 17);
//! obs::span(1_000_000, "tcppr.backoff", || "mxrtt doubled to 200ms".to_owned());
//! let report = obs::take();
//! obs::disable();
//! assert_eq!(report.counters.get("event.timer"), Some(&1));
//! assert_eq!(report.spans.len(), 1);
//! ```

#![warn(missing_docs)]

pub mod hist;
mod registry;
pub mod span;

pub use hist::{bucket_index, bucket_lo, LogHistogram, BUCKETS};
pub use registry::{
    count, current_flow, disable, enable, enabled, gauge_max, observe, observe_wall,
    set_current_flow, set_span_capacity, span, take, ProfileReport, MAX_SPANS,
};
pub use span::SpanRecord;
