//! # experiments — the TCP-PR evaluation, reproduced
//!
//! Everything needed to regenerate the paper's figures on the `netsim`
//! substrate:
//!
//! - [`topologies`]: the dumbbell, the Figure 1 parking lot (exact
//!   cross-traffic pairs and access bandwidths) and the Figure 5 multipath
//!   mesh;
//! - [`metrics`]: normalized throughput and coefficient of variation
//!   (Section 4 formulas), plus Jain fairness as an extension;
//! - [`variants`]: a factory over every sender variant;
//! - [`runner`]: warm-up/measure windows ("data sent during the last 60 s");
//! - [`cell`]: the one harness behind every cell of every figure —
//!   the Section 4 fairness experiment of Figures 2–4, Figure 6, the
//!   face-off, route flaps, MANET churn, the TCP-PR [`ablations`], the
//!   impairment stress suite over `netsim::impair`, the adversarial
//!   [`hunt`] and the Internet-scale population cells over
//!   `crates/workload` (generated topologies, heavy-tailed flow churn at
//!   10k+ concurrent flows) — as a declarative `Scenario`, one `run` and
//!   one `CellReport`;
//! - [`figures`]: each figure's constants, result rows and table;
//! - [`sweep`]: the deterministic parallel sweep engine (scenario specs,
//!   worker pool, content-addressed result cache);
//! - [`scale`]: the load a pair of the population cells carries;
//! - [`telemetry`]: the `results/*.json` artifact wrapper with its
//!   run-health block.
//!
//! The `repro` binary (`cargo run -p experiments --bin repro --release`)
//! runs every figure at paper scale and prints the tables recorded in
//! `EXPERIMENTS.md`.
//!
//! # Examples
//!
//! Reproduce a single Figure 6 cell (TCP-PR under full multipath):
//!
//! ```
//! use experiments::cell::{self, Metric};
//! use experiments::runner::MeasurePlan;
//! use experiments::sweep::ScenarioKind;
//! use experiments::variants::Variant;
//!
//! let kind = ScenarioKind::Multipath { variant: Variant::TcpPr, epsilon: 0.0, link_delay_ms: 10 };
//! let report = cell::run_kind(&kind, &[], &[], MeasurePlan::quick(), 7);
//! assert!(report.num(Metric::Mbps) > 10.0, "TCP-PR aggregates the parallel paths");
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod ablations;
pub mod cell;
pub mod explain;
pub mod figures;
pub mod hunt;
pub mod metrics;
pub mod runner;
pub mod scale;
pub mod sweep;
pub mod telemetry;
pub mod topologies;
pub mod validation;
pub mod variants;

pub use runner::MeasurePlan;
pub use variants::Variant;
