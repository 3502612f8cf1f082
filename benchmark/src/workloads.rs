//! The four workloads and what one repetition of each measures.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;
use std::time::Instant;

use experiments::sweep::RunOutcome;

use crate::digest::hex;
use crate::sims::{self, Case};
use crate::spans;
use crate::sweep_grid::{self, TempDir};
use crate::yardstick::{Footprint, Yardstick, HEAVY, LIGHT};

/// A workload of the benchmark. All are closed-loop: window-limited TCP
/// senders and paced churn sources inside the simulator; this process is
/// the only one and drives everything.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    MeshReorder,
    DumbbellInorder,
    FabricChurn,
    SweepGrid,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::MeshReorder,
        Workload::DumbbellInorder,
        Workload::FabricChurn,
        Workload::SweepGrid,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::MeshReorder => "mesh_reorder",
            Workload::DumbbellInorder => "dumbbell_inorder",
            Workload::FabricChurn => "fabric_churn",
            Workload::SweepGrid => "sweep_grid",
        }
    }

    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    fn cases(self) -> Option<Vec<Case>> {
        match self {
            Workload::MeshReorder => Some(sims::mesh_cases()),
            Workload::DumbbellInorder => Some(sims::dumbbell_cases()),
            Workload::FabricChurn => Some(sims::fabric_cases()),
            Workload::SweepGrid => None,
        }
    }

    /// Sets up everything one repetition sets up, runs nothing, and returns
    /// the wall seconds it took.
    pub fn setup_only(self, seed: u64) -> f64 {
        let cases = self.cases();
        let t0 = Instant::now();
        // What was set up is dropped after the clock is read: tearing a
        // simulator down is not set-up.
        let (sims, plan) = match &cases {
            Some(cases) => (cases.iter().map(|(_, build)| build(seed)).collect(), None),
            None => (Vec::new(), Some(sweep_grid::plan(seed, sweep_grid::full_grid))),
        };
        let wall_s = t0.elapsed().as_secs_f64();
        drop((sims, plan));
        wall_s
    }

    /// The yardstick to read beside this workload: as many lanes as its
    /// timed section has threads, of the footprint that slows as it does.
    pub fn yardstick(self) -> (usize, Footprint) {
        match self {
            Workload::SweepGrid => (sweep_grid::JOBS, LIGHT),
            _ => (1, HEAVY),
        }
    }

    /// One repetition: every simulation of the workload set up, run, read
    /// out and verified. `scratch` is where the sweep keeps its cache;
    /// `yard`, when given, is read between the slices of the timed section.
    pub fn repetition(self, seed: u64, scratch: &Path, yard: Option<&mut Yardstick>) -> Rep {
        let _s = spans::enter("repetition", "");
        match self.cases() {
            Some(cases) => sim_repetition(&cases, seed, yard),
            None => sweep_repetition(seed, scratch, yard),
        }
    }
}

/// One operation of a repetition: a simulation, or a sweep scenario.
#[derive(Debug, Clone, PartialEq)]
pub struct Op {
    pub label: String,
    /// Why it failed, if it did.
    pub failure: Option<String>,
    /// Outcome digest of a simulation; a sweep scenario has none (the sweep
    /// is checked against itself).
    pub digest: Option<u64>,
}

/// The counts of one repetition that the per-layer metrics divide.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counts {
    /// Packets delivered to agents (`SimStats::delivered`); on `sweep_grid`,
    /// data segments sent by the flows under test.
    pub pkts: u64,
    pub events: u64,
    pub late_arrivals: u64,
    /// First-time arrivals at TCP receivers; on `sweep_grid`, segments sent.
    pub received: u64,
    pub retransmits: u64,
    pub segments_sent: u64,
    pub heap_peak: u64,
}

/// One slice of a timed section: a `run_until` call, or a batch of the
/// cold sweep.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Slice {
    pub wall_s: f64,
    /// The machine's slowdown around the slice: the mean of the yardstick
    /// readings before and after it; 1.0 when no yardstick was read.
    pub slowdown: f64,
}

/// What one repetition measured.
#[derive(Debug)]
pub struct Rep {
    /// The slices of the timed section, in the order they ran.
    pub slices: Vec<Slice>,
    /// Simulated seconds advanced in the timed section.
    pub sim_s: f64,
    pub ops: Vec<Op>,
    pub counts: Counts,
    /// What `obs` recorded during the repetition; empty unless enabled.
    pub profile: obs::ProfileReport,
}

impl Rep {
    /// Wall seconds of the timed section, as the clock read them.
    pub fn raw_run_s(&self) -> f64 {
        self.slices.iter().map(|s| s.wall_s).sum()
    }

    /// Wall seconds of the timed section on the quiet machine: each slice
    /// divided by the slowdown read around it.
    pub fn run_s(&self) -> f64 {
        self.slices.iter().map(|s| s.wall_s / s.slowdown).sum()
    }
}

/// Pairs each slice's wall time with the mean of the yardstick readings on
/// either side of it. `readings` holds one more than `walls`, or is empty.
fn slices(walls: &[f64], readings: &[f64]) -> Vec<Slice> {
    walls
        .iter()
        .enumerate()
        .map(|(i, &wall_s)| Slice {
            wall_s,
            slowdown: match readings {
                [] => 1.0,
                r => (r[i] + r[i + 1]) / 2.0,
            },
        })
        .collect()
}

/// Yardstick chunks per reading between the slices of a simulation (≈ 10 ms
/// against slices of ≈ 130 ms) and between the batches of the sweep (≈ 35 ms
/// against batches of ≈ 500 ms).
const SIM_READING: u32 = 1;
const SWEEP_READING: u32 = 8;

/// Scenarios per `run_sweep` call of the cold pass: six calls over the 75
/// scenarios, so the yardstick can be read between them.
const SWEEP_BATCH: usize = 13;

fn sim_repetition(cases: &[Case], seed: u64, mut yard: Option<&mut Yardstick>) -> Rep {
    let mut rep = Rep {
        slices: Vec::new(),
        sim_s: 0.0,
        ops: Vec::new(),
        counts: Counts::default(),
        profile: obs::ProfileReport::default(),
    };
    for (label, build) in cases {
        let _s = spans::enter("simulation", label);
        // A panic anywhere in the simulation fails that simulation, not the
        // benchmark: the result line must still be printed.
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            let mut built = {
                let _s = spans::enter("setup", "");
                build(seed)
            };
            let mut readings = Vec::new();
            let walls = {
                let _s = spans::enter("run", "");
                built.run(|| readings.extend(yard.as_mut().map(|y| y.slowdown(SIM_READING))))
            };
            let _s = spans::enter("readout", "");
            (slices(&walls, &readings), built.sim_s, built.read())
        }));
        let _s = spans::enter("verify", "");
        match outcome {
            Ok((slices, sim_s, read)) => {
                rep.slices.extend(slices);
                rep.sim_s += sim_s;
                let c = &mut rep.counts;
                c.pkts += read.stats.delivered;
                c.events += read.stats.events;
                c.heap_peak = c.heap_peak.max(read.heap_peak);
                for f in &read.flows {
                    c.late_arrivals += f.late_arrivals;
                    c.received += f.received;
                    c.retransmits += f.retransmits;
                    c.segments_sent += f.segments_sent;
                }
                rep.ops.push(Op {
                    label: (*label).to_owned(),
                    failure: read.failure(),
                    digest: Some(read.digest()),
                });
            }
            Err(_) => rep.ops.push(Op {
                label: (*label).to_owned(),
                failure: Some("panicked".to_owned()),
                digest: None,
            }),
        }
    }
    rep.profile = obs::take();
    rep
}

fn sweep_repetition(seed: u64, scratch: &Path, mut yard: Option<&mut Yardstick>) -> Rep {
    let plan = {
        let _s = spans::enter("setup", "");
        sweep_grid::plan(seed, sweep_grid::full_grid)
    };
    let cache = TempDir::new(scratch);
    let (cold, walls, readings) = {
        let _s = spans::enter("cold", "");
        let mut read = || yard.as_mut().map(|y| y.slowdown(SWEEP_READING));
        let mut readings: Vec<f64> = read().into_iter().collect();
        let mut walls = Vec::new();
        let mut cold = Vec::new();
        for batch in plan.specs.chunks(SWEEP_BATCH) {
            let (report, wall_s) = sweep_grid::sweep(batch, sweep_grid::JOBS, cache.path());
            readings.extend(read());
            walls.push(wall_s);
            cold.extend(report.runs);
        }
        (cold, walls, readings)
    };
    let cold_artifacts = sweep_grid::encode(&sweep_grid::assemble(&plan, &cold));
    let (warm, warm_artifacts) = {
        let _s = spans::enter("warm", "");
        let (warm, _) = sweep_grid::sweep(&plan.specs, sweep_grid::JOBS, cache.path());
        let artifacts = sweep_grid::encode(&sweep_grid::assemble(&plan, &warm.runs));
        (warm, artifacts)
    };

    let _s = spans::enter("verify", "");
    let mut ops: Vec<Op> = plan
        .specs
        .iter()
        .zip(&cold)
        .map(|(spec, run)| Op {
            label: spec.label(),
            failure: match &run.outcome {
                RunOutcome::Completed(_) => None,
                RunOutcome::Crashed { message } => Some(format!("crashed: {message}")),
            },
            digest: None,
        })
        .collect();
    // The sweep is checked against itself: a warm pass must execute nothing
    // and reproduce every artifact byte for byte.
    let resumed = warm.executed == 0 && warm.cached == plan.specs.len();
    let mut offset = 0;
    for (grid, (c, w)) in plan.grids.iter().zip(cold_artifacts.iter().zip(&warm_artifacts)) {
        let same = c.is_some() && c == w && resumed;
        for op in &mut ops[offset..offset + grid.specs.len()] {
            if !same && op.failure.is_none() {
                op.failure = Some(format!(
                    "{}: warm pass differs from cold pass (executed {}, cached {})",
                    grid.artifact, warm.executed, warm.cached
                ));
            }
        }
        offset += grid.specs.len();
    }

    let mut profile = obs::ProfileReport::default();
    for run in &cold {
        profile.merge(&run.profile);
    }
    Rep {
        slices: slices(&walls, &readings),
        sim_s: plan.sim_s(),
        ops,
        counts: sweep_grid::outcome_counts(&cold),
        profile,
    }
}

/// Marks every simulation whose digest is not the pinned one as failed.
/// `golden` holds the pinned digests of one workload, by simulation label.
pub fn check_golden(ops: &mut [Op], golden: &[(String, String)]) {
    for op in ops.iter_mut().filter(|op| op.failure.is_none()) {
        let Some(digest) = op.digest else { continue };
        let pinned = golden.iter().find(|(label, _)| *label == op.label).map(|(_, d)| d.as_str());
        if pinned != Some(hex(digest).as_str()) {
            op.failure = Some(format!(
                "outcome digest {} is not the pinned {}",
                hex(digest),
                pinned.unwrap_or("(none pinned)")
            ));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_round_trip() {
        for w in Workload::ALL {
            assert_eq!(Workload::from_name(w.name()), Some(w));
        }
        assert_eq!(Workload::from_name("hit"), None);
    }

    #[test]
    fn a_repetition_is_timed_raw_and_on_the_quiet_machine() {
        let rep = Rep {
            slices: slices(&[1.0, 3.0], &[1.0, 1.0, 2.0]),
            sim_s: 10.0,
            ops: Vec::new(),
            counts: Counts::default(),
            profile: obs::ProfileReport::default(),
        };
        assert_eq!(rep.slices[1], Slice { wall_s: 3.0, slowdown: 1.5 });
        assert_eq!(rep.raw_run_s(), 4.0);
        assert_eq!(rep.run_s(), 1.0 + 2.0);
        let unread = slices(&[1.0, 3.0], &[]);
        assert!(unread.iter().all(|s| s.slowdown == 1.0));
    }

    #[test]
    fn golden_check_fails_only_a_differing_digest() {
        let op = |label: &str, digest| Op { label: label.to_owned(), failure: None, digest };
        let mut ops = [op("a", Some(1)), op("b", Some(2)), op("c", None), op("d", Some(4))];
        let golden = [("a".to_owned(), hex(1)), ("b".to_owned(), hex(3)), ("c".to_owned(), hex(0))];
        check_golden(&mut ops, &golden);
        assert!(ops[0].failure.is_none());
        assert!(ops[1].failure.as_deref().unwrap().contains("is not the pinned"));
        assert!(ops[2].failure.is_none(), "no digest, nothing to compare");
        assert!(ops[3].failure.as_deref().unwrap().contains("none pinned"));
    }
}
