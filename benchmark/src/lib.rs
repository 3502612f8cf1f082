//! The standing benchmark of the TCP-PR reproduction: four workloads, the
//! end-to-end metrics `sim_s_per_wall_s` and `setup_s`, and a traced pass
//! that reports one number per layer. See `README.md` beside this crate.
//!
//! Every layer is measured from outside, through its public functions; no
//! file of the repository outside this directory knows the benchmark exists.

pub mod alloc;
pub mod cli;
pub mod compare;
pub mod digest;
pub mod metrics;
pub mod micro;
pub mod pipe;
pub mod report;
pub mod run;
pub mod sims;
pub mod spans;
pub mod stats;
pub mod sweep_grid;
pub mod workloads;
pub mod yardstick;
