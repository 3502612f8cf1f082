//! Bench-trajectory bookkeeping and the perf-regression gate.
//!
//! `repro bench-sweep` produces one [`BenchEntry`] per invocation. The entry
//! is recorded in two places with two roles:
//!
//! - `results/bench_sweep.json` — the **latest run only**, alongside the
//!   other generated artifacts (regenerated wholesale, never appended);
//! - [`TRAJECTORY_PATH`] (top-level `BENCH_sweep.json`) — the **append-only
//!   trajectory**, one entry per recorded run, kept in version control so
//!   every PR shows its throughput delta against history.
//!
//! `repro bench-check` is the gate over that trajectory: it compares the
//! last entry's scenarios per wall second (`scenarios / serial_wall_s`)
//! against the previous one and fails when the drop exceeds a configurable
//! threshold. Each workload runs a fixed scenario list, so that rate is
//! fixed work over wall time; events/sec rides along in every entry as
//! information only, because removing events from the simulator lowers it
//! while making the same scenarios finish sooner.
//!
//! The trajectory carries more than one *workload* — the classic
//! `bench-sweep` timing and the population-scale `scale` run both append
//! entries, tagged by their `workload` field. The gate only ever compares
//! entries of the same workload (entries written before the field existed
//! count as `bench-sweep`), so a scale entry landing after a bench-sweep
//! entry never produces a bogus cross-workload delta.
//!
//! Nor across *machines*: every entry records where it was measured
//! ([`machine`]: logical cores + CPU model), and the gate pairs the latest
//! entry only with an earlier one from the same machine (entries written
//! before the field existed match only each other), so a CI runner's entry
//! is never read against a developer box's.

use std::fs;
use std::path::Path;

use serde::Value;

use crate::sweep::decode;

/// The append-only perf trajectory, at the repository top level.
pub const TRAJECTORY_PATH: &str = "BENCH_sweep.json";

/// Default regression threshold for `repro bench-check`, in percent.
pub const DEFAULT_THRESHOLD_PCT: f64 = 20.0;

/// Workload tag of classic `repro bench-sweep` entries — also what a
/// trajectory entry without a `workload` field (written before the field
/// existed) is taken to be.
pub const SWEEP_WORKLOAD: &str = "bench-sweep";

/// Workload tag of `repro scale` population-run entries.
pub const SCALE_WORKLOAD: &str = "scale";

/// One bench measurement (a `bench-sweep` timing or a `scale` run).
#[derive(Debug, Clone)]
pub struct BenchEntry {
    /// Which workload produced the entry ([`SWEEP_WORKLOAD`] or
    /// [`SCALE_WORKLOAD`]); the gate never compares across workloads.
    pub workload: String,
    /// Where the entry was measured (see [`machine`]); the gate never
    /// compares across machines.
    pub machine: String,
    /// Scenarios in the benchmark workload.
    pub scenarios: u64,
    /// Events dispatched by the serial pass.
    pub events: u64,
    /// Serial wall-clock seconds.
    pub serial_wall_s: f64,
    /// Serial throughput, events per second.
    pub serial_events_per_sec: f64,
    /// Worker count of the parallel pass.
    pub parallel_jobs: u64,
    /// Parallel wall-clock seconds.
    pub parallel_wall_s: f64,
    /// Parallel throughput, events per second.
    pub parallel_events_per_sec: f64,
    /// serial wall / parallel wall.
    pub speedup: f64,
}

impl serde::Serialize for BenchEntry {
    fn to_value(&self) -> Value {
        Value::Object(vec![
            ("workload".to_owned(), Value::Str(self.workload.clone())),
            ("machine".to_owned(), Value::Str(self.machine.clone())),
            ("scenarios".to_owned(), Value::UInt(self.scenarios)),
            ("events".to_owned(), Value::UInt(self.events)),
            ("serial_jobs".to_owned(), Value::UInt(1)),
            ("serial_wall_s".to_owned(), Value::Float(self.serial_wall_s)),
            ("serial_events_per_sec".to_owned(), Value::Float(self.serial_events_per_sec)),
            ("parallel_jobs".to_owned(), Value::UInt(self.parallel_jobs)),
            ("parallel_wall_s".to_owned(), Value::Float(self.parallel_wall_s)),
            ("parallel_events_per_sec".to_owned(), Value::Float(self.parallel_events_per_sec)),
            ("speedup".to_owned(), Value::Float(self.speedup)),
        ])
    }
}

/// Loads a trajectory file. A missing file is an empty trajectory; a file
/// that exists but does not parse as a JSON array is an error.
pub fn load_trajectory(path: &Path) -> Result<Vec<Value>, String> {
    let text = match fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(Vec::new()),
        Err(e) => return Err(format!("cannot read {}: {e}", path.display())),
    };
    match serde_json::from_str(&text) {
        Ok(Value::Array(entries)) => Ok(entries),
        Ok(_) => Err(format!("{} is not a JSON array", path.display())),
        Err(e) => Err(format!("{} does not parse: {e:?}", path.display())),
    }
}

/// Appends `entry` to the trajectory at `path` (creating it if missing) and
/// returns the new length.
pub fn append_entry(path: &Path, entry: Value) -> Result<usize, String> {
    let mut trajectory = load_trajectory(path)?;
    trajectory.push(entry);
    let len = trajectory.len();
    let rendered =
        serde_json::to_string_pretty(&Value::Array(trajectory)).expect("shim serializer is total");
    fs::write(path, rendered).map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    Ok(len)
}

/// The machine fingerprint of this process: logical cores and CPU model as
/// `/proc/cpuinfo` lists them, `"unknown"` where that is unreadable.
pub fn machine() -> String {
    fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|text| parse_cpuinfo(&text))
        .unwrap_or_else(|| "unknown".to_owned())
}

/// `"<logical cores> x <model name>"` out of `/proc/cpuinfo` text.
fn parse_cpuinfo(text: &str) -> Option<String> {
    fn field<'a>(line: &'a str, key: &str) -> Option<&'a str> {
        let (k, v) = line.split_once(':')?;
        (k.trim() == key).then(|| v.trim())
    }
    let cores = text.lines().filter(|l| field(l, "processor").is_some()).count();
    let model = text.lines().find_map(|l| field(l, "model name"))?;
    (cores > 0).then(|| format!("{cores} x {model}"))
}

/// Reads the workload tag of a trajectory entry. Entries written before
/// the field existed are classic bench-sweep runs.
pub fn workload_of(entry: &Value) -> &str {
    decode::get(entry, "workload").and_then(decode::as_str).unwrap_or(SWEEP_WORKLOAD)
}

/// Reads the machine fingerprint of a trajectory entry; `None` for entries
/// written before the field existed, which match only each other.
pub fn machine_of(entry: &Value) -> Option<&str> {
    decode::get(entry, "machine").and_then(decode::as_str)
}

/// Reads the gated figure out of one trajectory entry: scenarios finished
/// per wall second of the serial pass.
pub fn scenarios_per_sec(entry: &Value) -> Option<f64> {
    let number = |key: &str| {
        let Value::Object(fields) = entry else { return None };
        match fields.iter().find(|(k, _)| k == key).map(|(_, v)| v)? {
            Value::Float(f) => Some(*f),
            Value::UInt(u) => Some(*u as f64),
            Value::Int(i) => Some(*i as f64),
            _ => None,
        }
    };
    let (scenarios, wall_s) = (number("scenarios")?, number("serial_wall_s")?);
    (wall_s > 0.0).then(|| scenarios / wall_s)
}

/// The comparison `bench-check` makes: last entry against the one before.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BenchDelta {
    /// Scenarios per wall second of the previous entry.
    pub previous: f64,
    /// Scenarios per wall second of the latest entry.
    pub latest: f64,
}

impl BenchDelta {
    /// Relative change in percent; negative means the latest run is slower.
    pub fn delta_pct(&self) -> f64 {
        if self.previous > 0.0 {
            (self.latest - self.previous) / self.previous * 100.0
        } else {
            0.0
        }
    }

    /// True when the slowdown exceeds `threshold_pct`.
    pub fn regressed(&self, threshold_pct: f64) -> bool {
        self.delta_pct() < -threshold_pct
    }
}

/// Compares the last entry of a trajectory against the most recent earlier
/// entry of the *same workload and machine*. `Ok(None)` means there is
/// nothing to compare yet (fewer than two entries, or no earlier entry
/// shares the latest entry's workload and machine); `Err` means the
/// comparable pair exists but an entry lacks `scenarios` or a positive
/// `serial_wall_s`.
pub fn check(entries: &[Value]) -> Result<Option<BenchDelta>, String> {
    let Some((last, earlier)) = entries.split_last() else { return Ok(None) };
    let same = (workload_of(last), machine_of(last));
    let Some(prev) = earlier.iter().rev().find(|e| (workload_of(e), machine_of(e)) == same) else {
        return Ok(None);
    };
    let latest = scenarios_per_sec(last)
        .ok_or_else(|| "latest entry lacks scenarios / serial_wall_s".to_owned())?;
    let previous = scenarios_per_sec(prev)
        .ok_or_else(|| "previous entry lacks scenarios / serial_wall_s".to_owned())?;
    Ok(Some(BenchDelta { previous, latest }))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// An entry whose serial pass finished `rate` scenarios in one second.
    fn entry(rate: f64) -> Value {
        Value::Object(vec![
            ("scenarios".to_owned(), Value::UInt(rate as u64)),
            ("serial_wall_s".to_owned(), Value::Float(1.0)),
        ])
    }

    fn tagged(workload: &str, rate: f64) -> Value {
        let Value::Object(mut fields) = entry(rate) else { unreachable!() };
        fields.push(("workload".to_owned(), Value::Str(workload.to_owned())));
        Value::Object(fields)
    }

    #[test]
    fn short_trajectories_have_nothing_to_compare() {
        assert_eq!(check(&[]).unwrap(), None);
        assert_eq!(check(&[entry(1e6)]).unwrap(), None);
    }

    #[test]
    fn a_large_regression_is_flagged() {
        let delta = check(&[entry(1_000_000.0), entry(700_000.0)]).unwrap().unwrap();
        assert!((delta.delta_pct() - -30.0).abs() < 1e-9);
        assert!(delta.regressed(20.0), "a 30% drop exceeds the 20% threshold");
        assert!(!delta.regressed(50.0), "but not a 50% threshold");
    }

    #[test]
    fn small_changes_and_speedups_pass() {
        let small = check(&[entry(1_000_000.0), entry(950_000.0)]).unwrap().unwrap();
        assert!(!small.regressed(20.0));
        let faster = check(&[entry(1_000_000.0), entry(1_500_000.0)]).unwrap().unwrap();
        assert!(!faster.regressed(20.0));
        assert!(faster.delta_pct() > 0.0);
    }

    #[test]
    fn only_the_last_two_entries_matter() {
        let t = [entry(5_000_000.0), entry(1_000_000.0), entry(990_000.0)];
        let delta = check(&t).unwrap().unwrap();
        assert_eq!(delta.previous, 1_000_000.0);
        assert_eq!(delta.latest, 990_000.0);
        assert!(!delta.regressed(20.0));
    }

    #[test]
    fn untagged_entries_count_as_bench_sweep() {
        assert_eq!(workload_of(&entry(1e6)), SWEEP_WORKLOAD);
        assert_eq!(workload_of(&tagged(SCALE_WORKLOAD, 1e6)), SCALE_WORKLOAD);
    }

    #[test]
    fn the_gate_only_compares_entries_of_the_same_workload() {
        // A scale entry landing between two bench-sweep entries does not
        // perturb the bench-sweep comparison…
        let t = [entry(1_000_000.0), tagged(SCALE_WORKLOAD, 50_000.0), entry(990_000.0)];
        let delta = check(&t).unwrap().unwrap();
        assert_eq!(delta.previous, 1_000_000.0);
        assert_eq!(delta.latest, 990_000.0);
        assert!(!delta.regressed(20.0));

        // …and a latest scale entry is compared against the previous scale
        // entry, skipping the interleaved bench-sweep runs.
        let t = [
            tagged(SCALE_WORKLOAD, 80_000.0),
            entry(1_000_000.0),
            tagged(SCALE_WORKLOAD, 40_000.0),
        ];
        let delta = check(&t).unwrap().unwrap();
        assert_eq!(delta.previous, 80_000.0);
        assert_eq!(delta.latest, 40_000.0);
        assert!(delta.regressed(20.0), "a 50% scale slowdown is a scale regression");
    }

    #[test]
    fn a_first_of_its_workload_entry_has_nothing_to_compare() {
        let t = [entry(1_000_000.0), entry(990_000.0), tagged(SCALE_WORKLOAD, 50_000.0)];
        assert_eq!(check(&t).unwrap(), None, "no earlier scale entry to compare against");
    }

    fn on(machine: &str, rate: f64) -> Value {
        let Value::Object(mut fields) = entry(rate) else { unreachable!() };
        fields.push(("machine".to_owned(), Value::Str(machine.to_owned())));
        Value::Object(fields)
    }

    #[test]
    fn the_gate_only_compares_entries_of_the_same_machine() {
        // A CI runner's entry after two from a developer box: nothing to
        // compare, however slow the runner is.
        let t = [on("2 x dev", 8.0), on("2 x dev", 9.0), on("4 x ci", 1.0)];
        assert_eq!(check(&t).unwrap(), None);

        // The next dev entry skips the runner's and pairs with the last dev one.
        let t = [on("2 x dev", 8.0), on("4 x ci", 100.0), on("2 x dev", 4.0)];
        let delta = check(&t).unwrap().unwrap();
        assert_eq!((delta.previous, delta.latest), (8.0, 4.0));
        assert!(delta.regressed(20.0));

        // Entries from before the field existed match only each other.
        assert_eq!(check(&[entry(8.0), on("2 x dev", 1.0)]).unwrap(), None);
        assert_eq!(check(&[on("2 x dev", 8.0), entry(1.0)]).unwrap(), None);
        let t = [entry(8.0), on("2 x dev", 100.0), entry(4.0)];
        assert_eq!(check(&t).unwrap().unwrap().previous, 8.0);

        // Machine and workload must both match.
        let Value::Object(mut fields) = on("2 x dev", 8.0) else { unreachable!() };
        fields.push(("workload".to_owned(), Value::Str(SCALE_WORKLOAD.to_owned())));
        assert_eq!(check(&[Value::Object(fields), on("2 x dev", 1.0)]).unwrap(), None);
    }

    #[test]
    fn machine_is_cores_and_model_or_unknown() {
        let cpuinfo = "processor\t: 0\nmodel name\t: Fast CPU @ 2.10GHz\nflags\t: fpu\n\n\
                       processor\t: 1\nmodel name\t: Fast CPU @ 2.10GHz\n";
        assert_eq!(parse_cpuinfo(cpuinfo).as_deref(), Some("2 x Fast CPU @ 2.10GHz"));
        assert_eq!(parse_cpuinfo("processor\t: 0\nBogoMIPS\t: 50.00\n"), None, "no model line");
        assert_eq!(parse_cpuinfo(""), None);
        assert!(!machine().is_empty());
        let e = BenchEntry {
            workload: SWEEP_WORKLOAD.to_owned(),
            machine: machine(),
            scenarios: 1,
            events: 1,
            serial_wall_s: 1.0,
            serial_events_per_sec: 1.0,
            parallel_jobs: 2,
            parallel_wall_s: 1.0,
            parallel_events_per_sec: 1.0,
            speedup: 1.0,
        };
        let v = serde::Serialize::to_value(&e);
        assert_eq!(machine_of(&v), Some(machine().as_str()), "the entry carries it");
    }

    #[test]
    fn malformed_entries_are_an_error() {
        assert!(check(&[entry(1e6), Value::Null]).is_err());
    }

    #[test]
    fn integral_fields_parse_too() {
        // A print-parse round trip turns integral floats into integers.
        let int_entry = Value::Object(vec![
            ("scenarios".to_owned(), Value::UInt(22)),
            ("serial_wall_s".to_owned(), Value::UInt(4)),
        ]);
        assert_eq!(scenarios_per_sec(&int_entry), Some(5.5));
    }

    #[test]
    fn removing_events_is_not_a_regression() {
        // Same 22 scenarios, a third fewer events, a fifth less wall:
        // events/sec falls 17 % yet the run got faster — the gate reads
        // wall time per scenario and never looks at the event fields.
        let run = |events: u64, wall_s: f64| {
            Value::Object(vec![
                ("scenarios".to_owned(), Value::UInt(22)),
                ("events".to_owned(), Value::UInt(events)),
                ("serial_wall_s".to_owned(), Value::Float(wall_s)),
                ("serial_events_per_sec".to_owned(), Value::Float(events as f64 / wall_s)),
            ])
        };
        let delta = check(&[run(9_000_000, 4.0), run(6_000_000, 3.2)]).unwrap().unwrap();
        assert!((delta.delta_pct() - 25.0).abs() < 1e-9, "{delta:?}");
        assert!(!delta.regressed(0.0));
    }

    #[test]
    fn entries_without_a_positive_wall_time_are_an_error() {
        let no_wall = Value::Object(vec![("scenarios".to_owned(), Value::UInt(22))]);
        assert!(check(&[entry(10.0), no_wall]).is_err());
        let zero_wall = Value::Object(vec![
            ("scenarios".to_owned(), Value::UInt(22)),
            ("serial_wall_s".to_owned(), Value::Float(0.0)),
        ]);
        assert!(check(&[entry(10.0), zero_wall]).is_err());
    }

    #[test]
    fn append_grows_the_file_and_load_round_trips() {
        let dir = std::env::temp_dir().join(format!("bench-append-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("BENCH_test.json");
        std::fs::remove_file(&path).ok();
        assert_eq!(load_trajectory(&path).unwrap().len(), 0, "missing file is empty");
        assert_eq!(append_entry(&path, entry(1e6)).unwrap(), 1);
        assert_eq!(append_entry(&path, entry(2e6)).unwrap(), 2);
        let loaded = load_trajectory(&path).unwrap();
        assert_eq!(loaded.len(), 2);
        assert_eq!(scenarios_per_sec(&loaded[1]), scenarios_per_sec(&entry(2e6)));
        std::fs::remove_dir_all(&dir).ok();
    }
}
