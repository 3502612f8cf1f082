//! The parallel sweep engine: a work-stealing worker pool over
//! [`ScenarioSpec`] job lists.
//!
//! Workers are plain `std::thread`s pulling jobs from a shared queue and
//! reporting over a channel — no external dependencies. Three invariants
//! make parallel sweeps safe and reproducible:
//!
//! - **Determinism.** Every scenario's simulator seed derives from the
//!   spec's content hash, and artifacts are assembled in job order, so
//!   results are bit-identical whether the sweep ran with one worker or
//!   sixteen.
//! - **Isolation.** A job's work stats are the value [`execute`] returns
//!   beside its outcome — the health its one simulator reported — so
//!   concurrent simulations cannot mix their accounting. A job that
//!   panicked reports [`SessionStats::default()`]: its simulator never
//!   returned. The one thing a worker drains between jobs is the `obs`
//!   profile ([`obs::take`]).
//! - **Crash containment.** A panicking scenario (a bad spec, a simulator
//!   invariant failure) is caught with `catch_unwind` and recorded as
//!   [`RunOutcome::Crashed`]; the sweep completes and reports it instead
//!   of dying.

use std::collections::{HashMap, VecDeque};
use std::panic::{self, AssertUnwindSafe};
use std::sync::mpsc;
use std::sync::{Arc, Mutex};
use std::time::Instant;

use netsim::telemetry::SessionStats;
use serde::Value;

use crate::sweep::cache::{Cache, CachePolicy, CachedRun};
use crate::sweep::exec::{execute, ExecCtx};
use crate::sweep::spec::ScenarioSpec;

/// How one scenario ended.
#[derive(Debug, Clone)]
pub enum RunOutcome {
    /// The harness ran to completion; here is its serialized result.
    Completed(Value),
    /// The harness panicked; the sweep survived, the scenario did not.
    Crashed {
        /// The panic payload, stringified.
        message: String,
    },
}

impl RunOutcome {
    /// The completed value, if any.
    pub fn value(&self) -> Option<&Value> {
        match self {
            RunOutcome::Completed(v) => Some(v),
            RunOutcome::Crashed { .. } => None,
        }
    }
}

/// The record of one scenario within a finished sweep.
#[derive(Debug, Clone)]
pub struct ScenarioRun {
    /// Index into the sweep's job list.
    pub spec_index: usize,
    /// Outcome (completed value or crash record).
    pub outcome: RunOutcome,
    /// Health of the run that produced the outcome (restored from cache for
    /// cache hits, the leader's for deduplicated followers, the default for
    /// a crash).
    pub work: SessionStats,
    /// Profiler output of the run. Non-empty only when the scenario was
    /// actually executed with `obs::enable()` in effect: cache hits and
    /// deduplicated followers carry an empty report, so merging every run's
    /// profile counts each execution exactly once.
    pub profile: obs::ProfileReport,
    /// Whether the outcome came from the cache rather than execution.
    pub cached: bool,
}

/// Aggregate of one `run_sweep` call, runs in job-list order.
#[derive(Debug)]
pub struct SweepReport {
    /// One record per job, in the order the jobs were given.
    pub runs: Vec<ScenarioRun>,
    /// Scenarios actually executed this sweep.
    pub executed: usize,
    /// Scenarios satisfied from the cache.
    pub cached: usize,
    /// Scenarios satisfied by another content-equal scenario's execution
    /// in this same sweep.
    pub deduplicated: usize,
    /// Scenarios that crashed.
    pub crashed: usize,
    /// Wall-clock duration of the whole sweep, seconds.
    pub wall_s: f64,
    /// Events dispatched by executed scenarios (cache hits excluded).
    pub events_executed: u64,
}

impl SweepReport {
    /// Events per wall-clock second across the executed scenarios.
    pub fn events_per_sec(&self) -> f64 {
        if self.wall_s > 0.0 {
            self.events_executed as f64 / self.wall_s
        } else {
            0.0
        }
    }

    /// One-line summary for stderr / logs.
    pub fn summary(&self) -> String {
        let dedup = if self.deduplicated > 0 {
            format!(" ({} deduplicated)", self.deduplicated)
        } else {
            String::new()
        };
        format!(
            "{} executed, {} cached, {} crashed in {:.1}s ({:.0} events/s){dedup}",
            self.executed,
            self.cached,
            self.crashed,
            self.wall_s,
            self.events_per_sec()
        )
    }
}

/// Options of one sweep invocation.
#[derive(Debug, Clone)]
pub struct SweepOptions {
    /// Worker threads (≥ 1). Determinism does not depend on this.
    pub jobs: usize,
    /// Cache interaction policy.
    pub cache: CachePolicy,
    /// Cache directory.
    pub cache_dir: std::path::PathBuf,
    /// Emit progress lines (completed/total, events/s, ETA) on stderr.
    pub progress: bool,
}

impl Default for SweepOptions {
    fn default() -> Self {
        SweepOptions {
            jobs: 1,
            cache: CachePolicy::WriteOnly,
            cache_dir: crate::sweep::cache::DEFAULT_CACHE_DIR.into(),
            progress: false,
        }
    }
}

/// Message sent from a worker to the collector for each finished job.
struct Done {
    spec_index: usize,
    outcome: RunOutcome,
    work: SessionStats,
    profile: obs::ProfileReport,
}

/// Runs every spec through the worker pool and returns the outcomes in
/// job-list order.
///
/// Cache hits (under [`CachePolicy::ReadWrite`]) are resolved up front on
/// the calling thread and never reach a worker; content-equal specs within
/// the sweep execute once and share the outcome. Traced specs bypass both
/// the cache and deduplication so their trace-file side effect always
/// happens.
pub fn run_sweep(specs: &[ScenarioSpec], ctx: &ExecCtx, opts: &SweepOptions) -> SweepReport {
    assert!(opts.jobs >= 1, "need at least one worker");
    let t0 = Instant::now();
    let cache = Cache::new(&opts.cache_dir);
    let total = specs.len();

    // Resolve cache hits first; everything else becomes a pending job.
    let mut runs: Vec<Option<ScenarioRun>> = (0..total).map(|_| None).collect();
    let mut pending: VecDeque<(usize, ScenarioSpec)> = VecDeque::new();
    let mut cached = 0usize;
    for (i, spec) in specs.iter().enumerate() {
        let hit = if opts.cache.reads() && !spec.traced { cache.load(spec) } else { None };
        match hit {
            Some(run) => {
                cached += 1;
                runs[i] = Some(ScenarioRun {
                    spec_index: i,
                    outcome: RunOutcome::Completed(run.outcome),
                    work: run.work,
                    profile: obs::ProfileReport::default(),
                    cached: true,
                });
            }
            None => pending.push_back((i, spec.clone())),
        }
    }

    // Deduplicate content-equal scenarios within the sweep: specs with the
    // same hash (e.g. fig2's n = 64 cell and fig4's α = 0.995, β = 3 cell
    // describe the same simulation) execute once and share the outcome.
    // Traced specs never deduplicate — their trace side effect must happen.
    let mut leaders: VecDeque<(usize, ScenarioSpec)> = VecDeque::new();
    let mut followers: HashMap<usize, Vec<usize>> = HashMap::new();
    let mut seen: HashMap<u64, usize> = HashMap::new();
    let mut deduplicated = 0usize;
    for (i, spec) in pending {
        if spec.traced {
            leaders.push_back((i, spec));
            continue;
        }
        match seen.get(&spec.content_hash()) {
            Some(&leader) => {
                deduplicated += 1;
                followers.entry(leader).or_default().push(i);
            }
            None => {
                seen.insert(spec.content_hash(), i);
                leaders.push_back((i, spec));
            }
        }
    }

    let to_execute = leaders.len();
    let workers = opts.jobs.min(to_execute.max(1));
    let queue = Arc::new(Mutex::new(leaders));
    let (tx, rx) = mpsc::channel::<Done>();

    let mut executed = 0usize;
    let mut crashed = 0usize;
    let mut events_executed = 0u64;
    let mut completed = cached;
    std::thread::scope(|scope| {
        for _ in 0..workers {
            let queue = Arc::clone(&queue);
            let tx = tx.clone();
            scope.spawn(move || {
                loop {
                    // Steal the next job; drop the lock before running it.
                    let job = queue.lock().expect("queue lock").pop_front();
                    let Some((spec_index, spec)) = job else { break };
                    let _ = obs::take(); // clear anything a previous job leaked mid-panic
                    let result = panic::catch_unwind(AssertUnwindSafe(|| execute(&spec, ctx)));
                    let profile = obs::take();
                    let (outcome, work) = match result {
                        Ok((value, work)) => (RunOutcome::Completed(canonicalize(value)), work),
                        Err(payload) => {
                            let message = panic_message(payload.as_ref());
                            (RunOutcome::Crashed { message }, SessionStats::default())
                        }
                    };
                    if tx.send(Done { spec_index, outcome, work, profile }).is_err() {
                        break; // collector hung up; nothing left to report to
                    }
                }
            });
        }
        drop(tx);

        // Collect on the calling thread: progress, cache writes, health.
        for done in rx.iter() {
            executed += 1;
            events_executed += done.work.events_processed;
            let spec = &specs[done.spec_index];
            match &done.outcome {
                RunOutcome::Completed(value) => {
                    if opts.cache.writes() && !spec.traced {
                        cache.store(spec, &CachedRun { outcome: value.clone(), work: done.work });
                    }
                }
                RunOutcome::Crashed { message } => {
                    crashed += 1;
                    eprintln!("error: scenario crashed [{}]: {message}", spec.label());
                }
            }
            // The leader's outcome also satisfies every content-equal
            // follower spec.
            let spec_indices: Vec<usize> = std::iter::once(done.spec_index)
                .chain(followers.remove(&done.spec_index).unwrap_or_default())
                .collect();
            completed += spec_indices.len();
            if opts.progress {
                let elapsed = t0.elapsed().as_secs_f64();
                let rate = if elapsed > 0.0 { events_executed as f64 / elapsed } else { 0.0 };
                let remaining = to_execute - executed;
                let eta =
                    if executed > 0 { elapsed / executed as f64 * remaining as f64 } else { 0.0 };
                eprintln!(
                    "[sweep {completed}/{total}] {} — {rate:.0} events/s, ETA {eta:.0}s{}",
                    spec.label(),
                    if cached > 0 { format!(" ({cached} cached)") } else { String::new() },
                );
            }
            for i in spec_indices {
                // Only the leader (the index that actually executed) keeps
                // the profile; followers share the outcome but must not
                // double-count the execution in merged profiles.
                let profile = if i == done.spec_index {
                    done.profile.clone()
                } else {
                    obs::ProfileReport::default()
                };
                runs[i] = Some(ScenarioRun {
                    spec_index: i,
                    outcome: done.outcome.clone(),
                    work: done.work,
                    profile,
                    cached: false,
                });
            }
        }
    });

    let runs: Vec<ScenarioRun> =
        runs.into_iter().map(|r| r.expect("every job reports exactly once")).collect();
    SweepReport {
        runs,
        executed,
        cached,
        deduplicated,
        crashed,
        wall_s: t0.elapsed().as_secs_f64(),
        events_executed,
    }
}

/// One print-parse round trip, so fresh outcomes carry exactly the value
/// tree a cache read would produce (integral floats become integers:
/// `Float(500.0)` prints as `500` and reparses as `UInt(500)`). The JSON
/// text is unchanged — the trip is idempotent — but it makes cached and
/// freshly-executed outcomes indistinguishable as values, not just as text.
fn canonicalize(v: Value) -> Value {
    let text = serde_json::to_string(&v).expect("shim serializer is total");
    serde_json::from_str(&text).expect("printer output always reparses")
}

/// Extracts a readable message from a panic payload.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_owned()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_owned()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sweep::spec::{PlanSpec, ScenarioKind, TopologySpec};
    use crate::variants::Variant;

    fn fairness(n_flows: usize, replicate: u64) -> ScenarioSpec {
        ScenarioSpec::new(
            ScenarioKind::Fairness {
                topology: TopologySpec::Dumbbell { bottleneck_mbps: None },
                n_flows,
                alpha: 0.995,
                beta: 3.0,
                replicate,
            },
            PlanSpec::Quick,
        )
    }

    fn multipath(eps: f64) -> ScenarioSpec {
        ScenarioSpec::new(
            ScenarioKind::Multipath { variant: Variant::TcpPr, epsilon: eps, link_delay_ms: 10 },
            PlanSpec::Quick,
        )
    }

    fn no_cache(jobs: usize) -> SweepOptions {
        SweepOptions { jobs, cache: CachePolicy::Off, ..SweepOptions::default() }
    }

    #[test]
    fn jobs_1_and_jobs_4_produce_identical_outcomes() {
        let specs = vec![multipath(500.0), multipath(0.0), fairness(2, 0)];
        let ctx = ExecCtx::default();
        let serial = run_sweep(&specs, &ctx, &no_cache(1));
        let parallel = run_sweep(&specs, &ctx, &no_cache(4));
        assert_eq!(serial.executed, 3);
        assert_eq!(parallel.executed, 3);
        for (s, p) in serial.runs.iter().zip(&parallel.runs) {
            assert_eq!(s.outcome.value(), p.outcome.value(), "bit-identical at any job count");
            assert_eq!(s.work, p.work, "work accounting is deterministic too");
        }
    }

    #[test]
    fn content_equal_specs_execute_once_and_share_the_outcome() {
        let specs = vec![multipath(500.0), multipath(500.0), multipath(0.0)];
        let report = run_sweep(&specs, &ExecCtx::default(), &no_cache(2));
        assert_eq!(report.executed, 2, "the duplicate must not execute twice");
        assert_eq!(report.deduplicated, 1);
        assert_eq!(report.runs.len(), 3, "but every spec gets its outcome");
        assert_eq!(report.runs[0].outcome.value(), report.runs[1].outcome.value());
        assert_eq!(report.runs[0].work, report.runs[1].work);
        assert!(report.summary().contains("1 deduplicated"));
    }

    #[test]
    fn a_crashing_scenario_is_isolated() {
        // n_flows = 3 violates the fairness harness's even-count contract
        // and panics inside the worker.
        let specs = vec![multipath(500.0), fairness(3, 0), multipath(0.0)];
        let report = run_sweep(&specs, &ExecCtx::default(), &no_cache(2));
        assert_eq!(report.crashed, 1);
        assert_eq!(report.executed, 3);
        assert!(
            matches!(report.runs[1].outcome, RunOutcome::Crashed { ref message } if message.contains("even"))
        );
        assert!(report.runs[0].outcome.value().is_some(), "healthy neighbors complete");
        assert!(report.runs[2].outcome.value().is_some());
        assert_eq!(report.runs[1].work, SessionStats::default(), "a crash reports no work");
        assert_eq!(report.runs[0].work.sims, 1);
        assert_eq!(
            report.events_executed,
            report.runs[0].work.events_processed + report.runs[2].work.events_processed
        );
    }

    #[test]
    fn resume_reuses_cached_outcomes_without_execution() {
        let dir = std::env::temp_dir().join(format!("sweep-pool-cache-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let specs = vec![multipath(500.0), multipath(4.0)];
        let ctx = ExecCtx::default();
        let first = run_sweep(
            &specs,
            &ctx,
            &SweepOptions {
                jobs: 2,
                cache: CachePolicy::ReadWrite,
                cache_dir: dir.clone(),
                ..SweepOptions::default()
            },
        );
        assert_eq!((first.executed, first.cached), (2, 0));
        let second = run_sweep(
            &specs,
            &ctx,
            &SweepOptions {
                jobs: 2,
                cache: CachePolicy::ReadWrite,
                cache_dir: dir.clone(),
                ..SweepOptions::default()
            },
        );
        assert_eq!((second.executed, second.cached), (0, 2), "all hits on resume");
        for (a, b) in first.runs.iter().zip(&second.runs) {
            assert_eq!(a.outcome.value(), b.outcome.value());
            assert_eq!(a.work, b.work, "cached work stats reproduce the original run");
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn a_mangled_cache_entry_re_executes_instead_of_panicking() {
        let dir = std::env::temp_dir().join(format!("sweep-mangled-cache-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let grids = crate::sweep::all_figures(true, false);
        let fig6 = grids.iter().find(|g| g.artifact == "fig6_10ms").unwrap();
        let specs = [fig6.specs[2].clone()]; // TCP-PR at ε = 500, the cheapest cell
        let opts = SweepOptions {
            jobs: 1,
            cache: CachePolicy::ReadWrite,
            cache_dir: dir.clone(),
            ..SweepOptions::default()
        };
        let first = run_sweep(&specs, &ExecCtx::default(), &opts);
        assert_eq!((first.executed, first.cached), (1, 0));

        // A valid entry with one key of its outcome deleted.
        let path = Cache::new(&dir).entry_path(&specs[0]);
        let entry = std::fs::read_to_string(&path).unwrap();
        let key = entry.lines().find(|l| l.contains("\"late_arrivals\"")).expect("an outcome key");
        std::fs::write(&path, entry.replace(&format!("{key}\n"), "")).unwrap();

        let second = run_sweep(&specs, &ExecCtx::default(), &opts);
        assert_eq!((second.executed, second.cached), (1, 0), "unreadable outcome is a miss");
        let outcomes = [second.runs[0].outcome.value().expect("re-executed").clone()];
        assert_eq!(Some(&outcomes[0]), first.runs[0].outcome.value());
        let (table, _) = (fig6.assemble)(&specs, &outcomes);
        assert!(table.contains("TCP-PR"), "{table}");
        let third = run_sweep(&specs, &ExecCtx::default(), &opts);
        assert_eq!((third.executed, third.cached), (0, 1), "the re-execution healed the entry");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn crashes_are_not_cached() {
        let dir = std::env::temp_dir().join(format!("sweep-crash-cache-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let specs = vec![fairness(3, 0)];
        let opts = SweepOptions {
            jobs: 1,
            cache: CachePolicy::ReadWrite,
            cache_dir: dir.clone(),
            ..SweepOptions::default()
        };
        let first = run_sweep(&specs, &ExecCtx::default(), &opts);
        assert_eq!(first.crashed, 1);
        let second = run_sweep(&specs, &ExecCtx::default(), &opts);
        assert_eq!(second.cached, 0, "a crash must be retried, not replayed");
        assert_eq!(second.crashed, 1);
        std::fs::remove_dir_all(&dir).ok();
    }
}
