//! # adversary — deterministic worst-case scenario search
//!
//! A small, domain-agnostic search kernel used by the `experiments` crate's
//! `hunt` module to find impairment/admin schedules that hurt a transport
//! variant. Two pieces:
//!
//! - [`search::hill_climb`]: seeded randomized mutation + hill-climbing that
//!   *minimizes* a pluggable objective over candidates of any clonable type,
//! - [`shrink::shrink`]: delta-debugging-style reduction of a found
//!   counterexample to a minimal candidate that still fails, with a strictly
//!   decreasing size measure guaranteeing termination.
//!
//! ## Determinism contract
//!
//! Both loops are deterministic functions of their inputs. Candidate batches
//! are generated *before* evaluation from a single seeded RNG, evaluation
//! results are consumed in candidate order, and ties break toward the
//! earliest index — so a caller may evaluate a batch with any degree of
//! parallelism (the sweep pool returns results in spec order regardless of
//! `--jobs`) without perturbing the search trajectory.
//!
//! # Examples
//!
//! Minimize `x²` over integers by mutating ±1 and shrink the result's
//! magnitude while it stays negative:
//!
//! ```
//! use adversary::search::{hill_climb, SearchConfig};
//! use rand::Rng;
//!
//! let cfg = SearchConfig { budget: 200, seed: 7 };
//! let out = hill_climb(
//!     50i64,
//!     2500.0,
//!     &cfg,
//!     |x, rng| if rng.gen_bool(0.5) { x + 1 } else { x - 1 },
//!     |xs| xs.iter().map(|x| (x * x) as f64).collect(),
//! );
//! assert!(out.best_value < 2500.0);
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod search;
pub mod shrink;

pub use search::{hill_climb, GenerationRecord, SearchConfig, SearchOutcome};
pub use shrink::{shrink, ShrinkOutcome};
