//! Seeded mutation + hill-climbing over an arbitrary candidate space.
//!
//! The loop is generation-based: each generation draws a fixed-size batch of
//! mutants from the incumbent, evaluates the whole batch at once (the caller
//! may parallelize internally — results must come back in candidate order),
//! and adopts the best mutant if it strictly improves the objective. After
//! [`PATIENCE`] stalled generations the mutation strength escalates (mutants
//! are produced by composing the mutation operator several times), which lets
//! the search tunnel out of shallow local minima without sacrificing
//! determinism.

use rand::rngs::SmallRng;
use rand::SeedableRng;

/// Tuning knobs for [`hill_climb`].
#[derive(Debug, Clone)]
pub struct SearchConfig {
    /// Maximum number of candidate evaluations (the incumbent's initial
    /// value is supplied by the caller and does not count).
    pub budget: u64,
    /// Seed for the mutation RNG; the entire trajectory is a deterministic
    /// function of it.
    pub seed: u64,
}

/// Candidates per generation. A constant — never derived from worker-pool
/// width, so parallelism cannot change the trajectory.
pub const BATCH: usize = 8;

/// Stalled generations before mutation strength escalates by one
/// composition step.
pub const PATIENCE: u32 = 3;

/// One generation's summary, for progress logs and artifacts.
#[derive(Debug, Clone, PartialEq)]
pub struct GenerationRecord {
    /// 1-based generation index.
    pub generation: u32,
    /// Cumulative evaluations after this generation.
    pub evaluations: u64,
    /// Best objective value seen so far (after this generation).
    pub best_value: f64,
    /// Whether this generation improved the incumbent.
    pub improved: bool,
}

/// Result of a [`hill_climb`] run.
#[derive(Debug, Clone)]
pub struct SearchOutcome<C> {
    /// The best candidate found (possibly the start candidate).
    pub best: C,
    /// Its objective value.
    pub best_value: f64,
    /// Total evaluations spent.
    pub evaluations: u64,
    /// Per-generation log.
    pub log: Vec<GenerationRecord>,
}

/// `true` when `a` is a strict improvement over `b` under minimization.
/// `NaN` never improves anything, so a crashed evaluation (mapped to `NaN`
/// or `+∞` by the caller) cannot become the incumbent.
fn improves(a: f64, b: f64) -> bool {
    a < b
}

/// Minimizes `evaluate` over candidates derived from `start` by repeated
/// application of `mutate`.
///
/// `evaluate` receives a whole generation and must return one value per
/// candidate *in order*; lower is better. The search trajectory depends only
/// on `(start, start_value, cfg, mutate)` and the returned values — not on
/// how `evaluate` schedules its work internally.
pub fn hill_climb<C: Clone>(
    start: C,
    start_value: f64,
    cfg: &SearchConfig,
    mut mutate: impl FnMut(&C, &mut SmallRng) -> C,
    mut evaluate: impl FnMut(&[C]) -> Vec<f64>,
) -> SearchOutcome<C> {
    let mut rng = SmallRng::seed_from_u64(cfg.seed);
    let mut best = start;
    let mut best_value = start_value;
    let mut evaluations = 0u64;
    let mut log = Vec::new();
    let mut stall = 0u32;
    let mut generation = 0u32;

    while evaluations < cfg.budget {
        generation += 1;
        let remaining = (cfg.budget - evaluations) as usize;
        let batch_len = BATCH.min(remaining);
        // Strength-n mutants compose the operator n times, so escalation
        // reaches further from the incumbent as stalls accumulate.
        let strength = 1 + (stall / PATIENCE) as usize;
        let candidates: Vec<C> = (0..batch_len)
            .map(|_| {
                let mut c = mutate(&best, &mut rng);
                for _ in 1..strength {
                    c = mutate(&c, &mut rng);
                }
                c
            })
            .collect();

        let values = evaluate(&candidates);
        assert_eq!(values.len(), candidates.len(), "evaluate must return one value per candidate");
        evaluations += candidates.len() as u64;

        // Earliest strictly-better index wins: deterministic under any
        // evaluation parallelism because `values` is in candidate order.
        let mut winner: Option<usize> = None;
        for (i, &v) in values.iter().enumerate() {
            let current_best = winner.map_or(best_value, |w| values[w]);
            if improves(v, current_best) {
                winner = Some(i);
            }
        }
        let improved = winner.is_some();
        if let Some(i) = winner {
            best = candidates[i].clone();
            best_value = values[i];
            stall = 0;
        } else {
            stall += 1;
        }
        log.push(GenerationRecord { generation, evaluations, best_value, improved });
    }

    SearchOutcome { best, best_value, evaluations, log }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::Rng;

    #[test]
    fn descends_a_convex_objective() {
        let cfg = SearchConfig { budget: 280, seed: 3 };
        let out = hill_climb(
            40i64,
            1600.0,
            &cfg,
            |x, rng| if rng.gen_bool(0.5) { x + 1 } else { x - 1 },
            |xs| xs.iter().map(|&x| (x * x) as f64).collect(),
        );
        assert!(out.best_value < 100.0, "search descended: {}", out.best_value);
        assert_eq!(out.evaluations, 280);
        assert_eq!(out.log.last().unwrap().evaluations, 280);
    }

    #[test]
    fn same_seed_same_trajectory() {
        let run = |seed| {
            hill_climb(
                0i64,
                0.0,
                &SearchConfig { budget: 60, seed },
                |x, rng| x + rng.gen_range(-3i64..=3),
                |xs| xs.iter().map(|&x| -(x as f64)).collect(),
            )
        };
        let (a, b) = (run(9), run(9));
        assert_eq!(a.best, b.best);
        assert_eq!(a.best_value, b.best_value);
        assert_eq!(a.log, b.log);
        let c = run(10);
        assert!(a.best != c.best || a.log != c.log, "different seed should diverge");
    }

    #[test]
    fn budget_is_respected_exactly() {
        let mut calls = 0u64;
        let out = hill_climb(
            0i64,
            0.0,
            &SearchConfig { budget: 10, seed: 1 },
            |x, rng| x + rng.gen_range(0i64..2),
            |xs| {
                calls += xs.len() as u64;
                xs.iter().map(|_| 1.0).collect()
            },
        );
        // 8 + 2 (truncated final batch) = 10.
        assert_eq!(out.evaluations, 10);
        assert_eq!(calls, 10);
    }

    #[test]
    fn nan_and_infinite_values_never_become_incumbent() {
        let out = hill_climb(
            0i64,
            5.0,
            &SearchConfig { budget: 20, seed: 2 },
            |x, _| x + 1,
            |xs| xs.iter().map(|_| f64::NAN).collect(),
        );
        assert_eq!(out.best, 0);
        assert_eq!(out.best_value, 5.0);
        let out = hill_climb(
            0i64,
            5.0,
            &SearchConfig { budget: 20, seed: 2 },
            |x, _| x + 1,
            |xs| xs.iter().map(|_| f64::INFINITY).collect(),
        );
        assert_eq!(out.best_value, 5.0);
    }

    #[test]
    fn ties_break_toward_the_earliest_candidate() {
        // All candidates share one improving value; the first must win.
        let out = hill_climb(
            0usize,
            10.0,
            &SearchConfig { budget: BATCH as u64, seed: 1 },
            |_, rng| rng.gen_range(1usize..100),
            |xs| xs.iter().map(|_| 1.0).collect(),
        );
        assert_eq!(out.best_value, 1.0);
        // Re-derive the expected winner: first mutant of a fresh seed-1 RNG.
        let mut rng = SmallRng::seed_from_u64(1);
        let expected = rng.gen_range(1usize..100);
        assert_eq!(out.best, expected);
    }
}
