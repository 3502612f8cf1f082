//! Content-addressed on-disk result cache.
//!
//! Each completed scenario is stored as `.sweep-cache/<hash>.json`, keyed
//! by [`ScenarioSpec::content_hash`] (which already folds in the
//! [`CODE_SALT`](crate::sweep::spec::CODE_SALT) code-version salt). An
//! entry carries the scenario's outcome value *and* its session work stats,
//! so a resumed sweep reproduces byte-identical artifacts — including the
//! deterministic parts of the run-health block — without re-executing
//! anything.
//!
//! Robustness policy: anything unreadable (missing file, parse error, salt,
//! hash or [`WORK_REV`](crate::sweep::spec::WORK_REV) mismatch from an older
//! code version, an outcome the assemblers could not decode) is a cache
//! miss, never an error. Writes go through a temp
//! file + rename so a crashed run cannot leave a torn entry behind.

use std::fs;
use std::path::PathBuf;

use netsim::telemetry::SessionStats;
use serde::Value;

use crate::sweep::decode;
use crate::sweep::spec::{ScenarioSpec, CODE_SALT, WORK_REV};

/// How a sweep interacts with the cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CachePolicy {
    /// Never read or write (`--no-cache`).
    Off,
    /// Execute everything, record results for later resumption (the
    /// default: a plain run always re-measures but leaves a warm cache).
    WriteOnly,
    /// Skip scenarios with a cached outcome, record the rest (`--resume`).
    ReadWrite,
}

impl CachePolicy {
    /// Whether entries may satisfy scenarios without execution.
    pub fn reads(self) -> bool {
        matches!(self, CachePolicy::ReadWrite)
    }

    /// Whether completed scenarios are recorded.
    pub fn writes(self) -> bool {
        matches!(self, CachePolicy::WriteOnly | CachePolicy::ReadWrite)
    }
}

/// One cached scenario: its outcome tree and the session stats of the run
/// that produced it.
#[derive(Debug, Clone)]
pub struct CachedRun {
    /// The executor's serialized result.
    pub outcome: Value,
    /// Events / peak heap / dropped records of the original execution.
    pub work: SessionStats,
}

/// Handle on one cache directory.
#[derive(Debug, Clone)]
pub struct Cache {
    dir: PathBuf,
}

/// Default cache directory name, relative to the working directory.
pub const DEFAULT_CACHE_DIR: &str = ".sweep-cache";

impl Cache {
    /// Opens (without creating) a cache rooted at `dir`.
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        Cache { dir: dir.into() }
    }

    /// The entry path for a spec.
    pub fn entry_path(&self, spec: &ScenarioSpec) -> PathBuf {
        self.dir.join(format!("{}.json", spec.hash_hex()))
    }

    /// Loads the cached run for `spec`, or `None` on any kind of miss
    /// (absent, unparsable, wrong salt, wrong hash, wrong work revision, an
    /// outcome that does not read back as the result of the spec's kind).
    pub fn load(&self, spec: &ScenarioSpec) -> Option<CachedRun> {
        let text = fs::read_to_string(self.entry_path(spec)).ok()?;
        let v = serde_json::from_str(&text).ok()?;
        if decode::get(&v, "salt").and_then(decode::as_str) != Some(CODE_SALT) {
            return None;
        }
        if decode::get(&v, "spec_hash").and_then(decode::as_str) != Some(spec.hash_hex().as_str()) {
            return None;
        }
        if decode::get(&v, "work_rev").and_then(decode::as_u64) != Some(WORK_REV) {
            return None;
        }
        let outcome =
            decode::get(&v, "outcome").filter(|o| decode::decodes(&spec.kind, o))?.clone();
        let work = decode::get(&v, "work")?;
        // Every field is required (`?`): entries written before a field
        // existed are treated as misses, so schema growth needs no salt
        // bump — old entries simply re-execute once.
        let work = SessionStats {
            sims: decode::get(work, "sims").and_then(decode::as_u64)?,
            events_processed: decode::get(work, "events_processed").and_then(decode::as_u64)?,
            peak_event_heap: decode::get(work, "peak_event_heap").and_then(decode::as_u64)?,
            dropped_trace_records: decode::get(work, "dropped_trace_records")
                .and_then(decode::as_u64)?,
            traced_keep_first_sims: decode::get(work, "traced_keep_first_sims")
                .and_then(decode::as_u64)?,
            traced_keep_latest_sims: decode::get(work, "traced_keep_latest_sims")
                .and_then(decode::as_u64)?,
            impair_drops: decode::get(work, "impair_drops").and_then(decode::as_u64)?,
            impair_dups: decode::get(work, "impair_dups").and_then(decode::as_u64)?,
            impair_reorders: decode::get(work, "impair_reorders").and_then(decode::as_u64)?,
            link_flaps: decode::get(work, "link_flaps").and_then(decode::as_u64)?,
            workload_flows: decode::get(work, "workload_flows").and_then(decode::as_u64)?,
            workload_bytes_per_flow: decode::get(work, "workload_bytes_per_flow")
                .and_then(decode::as_u64)?,
        };
        Some(CachedRun { outcome, work })
    }

    /// Records a completed scenario. Failures to persist are reported on
    /// stderr but never fail the sweep — the cache is an accelerator, not
    /// a correctness dependency.
    pub fn store(&self, spec: &ScenarioSpec, run: &CachedRun) {
        if let Err(e) = self.try_store(spec, run) {
            eprintln!(
                "warning: could not persist sweep-cache entry {}: {e}",
                self.entry_path(spec).display()
            );
        }
    }

    fn try_store(&self, spec: &ScenarioSpec, run: &CachedRun) -> std::io::Result<()> {
        fs::create_dir_all(&self.dir)?;
        let entry = Value::Object(vec![
            ("salt".to_owned(), Value::Str(CODE_SALT.to_owned())),
            ("spec_hash".to_owned(), Value::Str(spec.hash_hex())),
            ("work_rev".to_owned(), Value::UInt(WORK_REV)),
            ("spec".to_owned(), Value::Str(spec.label())),
            ("outcome".to_owned(), run.outcome.clone()),
            (
                "work".to_owned(),
                Value::Object(vec![
                    ("sims".to_owned(), Value::UInt(run.work.sims)),
                    ("events_processed".to_owned(), Value::UInt(run.work.events_processed)),
                    ("peak_event_heap".to_owned(), Value::UInt(run.work.peak_event_heap)),
                    (
                        "dropped_trace_records".to_owned(),
                        Value::UInt(run.work.dropped_trace_records),
                    ),
                    (
                        "traced_keep_first_sims".to_owned(),
                        Value::UInt(run.work.traced_keep_first_sims),
                    ),
                    (
                        "traced_keep_latest_sims".to_owned(),
                        Value::UInt(run.work.traced_keep_latest_sims),
                    ),
                    ("impair_drops".to_owned(), Value::UInt(run.work.impair_drops)),
                    ("impair_dups".to_owned(), Value::UInt(run.work.impair_dups)),
                    ("impair_reorders".to_owned(), Value::UInt(run.work.impair_reorders)),
                    ("link_flaps".to_owned(), Value::UInt(run.work.link_flaps)),
                    ("workload_flows".to_owned(), Value::UInt(run.work.workload_flows)),
                    (
                        "workload_bytes_per_flow".to_owned(),
                        Value::UInt(run.work.workload_bytes_per_flow),
                    ),
                ]),
            ),
        ]);
        let text = serde_json::to_string_pretty(&entry).expect("shim serializer is total");
        let tmp = self.dir.join(format!(
            "{}.tmp.{}.{:?}",
            spec.hash_hex(),
            std::process::id(),
            std::thread::current().id(),
        ));
        fs::write(&tmp, text)?;
        let result = fs::rename(&tmp, self.entry_path(spec));
        if result.is_err() {
            fs::remove_file(&tmp).ok();
        }
        result
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sweep::spec::{PlanSpec, ScenarioKind, TopologySpec};

    fn scratch(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("sweep-cache-{tag}-{}", std::process::id()));
        fs::remove_dir_all(&dir).ok();
        dir
    }

    fn spec() -> ScenarioSpec {
        ScenarioSpec::new(
            ScenarioKind::Fairness {
                topology: TopologySpec::Dumbbell { bottleneck_mbps: None },
                n_flows: 4,
                alpha: 0.995,
                beta: 3.0,
                replicate: 1,
            },
            PlanSpec::Quick,
        )
    }

    fn run() -> CachedRun {
        let outcome = r#"{"topology":"dumbbell","n_flows":4,"pr_normalized":[0.9,1.01],
            "sack_normalized":[1.1,0.99],"mean_pr":0.95,"mean_sack":1.05,"cov_pr":0.05,
            "cov_sack":0.04,"loss_rate_pct":0.5}"#;
        CachedRun {
            outcome: serde_json::from_str(outcome).expect("a fairness outcome"),
            work: SessionStats {
                sims: 1,
                events_processed: 12345,
                peak_event_heap: 67,
                dropped_trace_records: 0,
                traced_keep_first_sims: 1,
                traced_keep_latest_sims: 0,
                impair_drops: 3,
                impair_dups: 2,
                impair_reorders: 5,
                link_flaps: 1,
                workload_flows: 10_000,
                workload_bytes_per_flow: 96,
            },
        }
    }

    #[test]
    fn store_then_load_roundtrips() {
        let dir = scratch("roundtrip");
        let cache = Cache::new(&dir);
        let (s, r) = (spec(), run());
        assert!(cache.load(&s).is_none(), "fresh cache is empty");
        cache.store(&s, &r);
        let loaded = cache.load(&s).expect("hit after store");
        assert_eq!(loaded.outcome, r.outcome);
        assert_eq!(loaded.work, r.work);
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn wrong_salt_revision_or_hash_is_a_miss() {
        let dir = scratch("salt");
        let cache = Cache::new(&dir);
        let (s, r) = (spec(), run());
        cache.store(&s, &r);
        let path = cache.entry_path(&s);
        let poisoned = fs::read_to_string(&path).unwrap().replace(CODE_SALT, "stale-salt");
        fs::write(&path, poisoned).unwrap();
        assert!(cache.load(&s).is_none(), "stale salt must miss");

        cache.store(&s, &r);
        let entry = fs::read_to_string(&path).unwrap();
        let rev = format!("\"work_rev\": {WORK_REV}");
        assert!(entry.contains(&rev), "entry carries the revision: {entry}");
        fs::write(&path, entry.replace(&rev, "\"work_rev\": 1")).unwrap();
        assert!(cache.load(&s).is_none(), "older work revision must miss");
        fs::write(&path, entry.replace(&format!("{rev},"), "")).unwrap();
        assert!(cache.load(&s).is_none(), "entry from before the revision existed must miss");
        // The revision is not hashed: the value `spec()` had before it existed.
        assert_eq!(s.hash_hex(), "eb3e5d5de30246ce");

        cache.store(&s, &r);
        assert!(cache.load(&s).is_some(), "re-executed once, then a hit again");
        let other = ScenarioSpec { base_seed: 9, ..s.clone() };
        assert!(cache.load(&other).is_none(), "different spec must miss");
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn corrupt_entry_is_a_miss() {
        let dir = scratch("corrupt");
        let cache = Cache::new(&dir);
        let s = spec();
        fs::create_dir_all(&dir).unwrap();
        fs::write(cache.entry_path(&s), "{ not json").unwrap();
        assert!(cache.load(&s).is_none());
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn undecodable_outcome_is_a_miss() {
        let dir = scratch("outcome");
        let cache = Cache::new(&dir);
        let (s, r) = (spec(), run());
        cache.store(&s, &r);
        let path = cache.entry_path(&s);
        let entry = fs::read_to_string(&path).unwrap();
        assert!(entry.contains("\"mean_pr\": 0.95,"), "{entry}");
        fs::write(&path, entry.replace("\"mean_pr\": 0.95,", "")).unwrap();
        assert!(cache.load(&s).is_none(), "an outcome missing a key must miss");
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn policy_flags() {
        assert!(!CachePolicy::Off.reads() && !CachePolicy::Off.writes());
        assert!(!CachePolicy::WriteOnly.reads() && CachePolicy::WriteOnly.writes());
        assert!(CachePolicy::ReadWrite.reads() && CachePolicy::ReadWrite.writes());
    }
}
