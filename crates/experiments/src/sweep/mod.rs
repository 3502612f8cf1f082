//! Deterministic parallel sweep engine.
//!
//! A sweep turns a figure into data in three steps:
//!
//! 1. **Describe** — each cell of a figure becomes a [`ScenarioSpec`], a
//!    plain serializable description of one simulation run with a stable
//!    content hash ([`spec`]).
//! 2. **Execute** — a pool of worker threads pulls specs from a shared
//!    queue, runs them with [`exec::execute`], and reports typed outcomes;
//!    panics are contained per scenario ([`pool`]).
//! 3. **Reuse** — completed outcomes land in a content-addressed on-disk
//!    cache so interrupted or repeated sweeps skip finished work
//!    ([`cache`], [`decode`]).
//!
//! The determinism contract: a scenario's simulator seed is
//! `content_hash(spec) ^ base_seed`, a pure function of the spec — never of
//! worker count, scheduling order, or wall-clock time. Artifacts assembled
//! from a sweep are therefore byte-identical at `--jobs 1` and `--jobs 8`,
//! and a resumed sweep reproduces them from cache without re-execution.

pub mod cache;
pub mod decode;
pub mod exec;
pub mod grids;
pub mod pool;
pub mod spec;

pub use cache::{Cache, CachePolicy, CachedRun, DEFAULT_CACHE_DIR};
pub use exec::{execute, ExecCtx, ForensicCtx};
pub use grids::{all_figures, FigureGrid};
pub use pool::{run_sweep, RunOutcome, ScenarioRun, SweepOptions, SweepReport};
pub use spec::{
    AdminWindowSpec, ImpairmentSpec, PlanSpec, ScenarioKind, ScenarioSpec, TopologyModel,
    TopologySpec, CODE_SALT,
};
