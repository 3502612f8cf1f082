//! Content-addressed on-disk result cache.
//!
//! Each completed scenario is stored as `.sweep-cache/<hash>.json`, keyed
//! by [`ScenarioSpec::content_hash`] (which already folds in the
//! [`CODE_SALT`](crate::sweep::spec::CODE_SALT) code-version salt). An
//! entry carries the scenario's outcome value *and* its run's health,
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

/// One cached scenario: its outcome tree and the health of the run that
/// produced it.
#[derive(Debug, Clone)]
pub struct CachedRun {
    /// The executor's serialized result.
    pub outcome: Value,
    /// The health of the original execution.
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
        // Every field is required (`?`): entries written before a field
        // existed are treated as misses, so schema growth needs no salt
        // bump — old entries simply re-execute once.
        let stored = decode::get(&v, "work")?;
        let mut work = SessionStats::default();
        for (name, _, field) in SessionStats::FIELDS {
            *field(&mut work) = decode::get(stored, name).and_then(decode::as_u64)?;
        }
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
            ("work".to_owned(), serde::Serialize::to_value(&run.work)),
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
            // Every field's round trip is a property (`tests/sweep_props.rs`).
            work: SessionStats {
                sims: 1,
                events_processed: 12345,
                peak_event_heap: 67,
                traced_keep_first_sims: 1,
                workload_bytes_per_flow: 96,
                ..SessionStats::default()
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
        // 50,000 levels of `[` overflowed the parser's stack and aborted.
        for text in ["{ not json".to_owned(), "[".repeat(50_000)] {
            fs::write(cache.entry_path(&s), text).unwrap();
            assert!(cache.load(&s).is_none());
        }
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

    /// The entry `repro all --quick` wrote for fig6's TCP-PR cell at
    /// ε = 500, 10 ms, before `work` was written by its `Serialize` derive.
    const WRITTEN_BY_HAND: &str = r#"{
  "salt": "tcp-pr-sweep-v1",
  "spec_hash": "02b4ab6dcaea63c9",
  "work_rev": 6,
  "spec": "fig6 TCP-PR ε=500 delay=10ms",
  "outcome": {
    "variant": "TcpPr",
    "epsilon": 500,
    "link_delay_ms": 10,
    "mbps": 9.782933333333334,
    "retransmits": 379,
    "segments_sent": 28730,
    "late_arrivals": 156,
    "queue_drops": 156
  },
  "work": {
    "sims": 1,
    "events_processed": 170799,
    "peak_event_heap": 57,
    "dropped_trace_records": 0,
    "traced_keep_first_sims": 0,
    "traced_keep_latest_sims": 0,
    "impair_drops": 0,
    "impair_dups": 0,
    "impair_reorders": 0,
    "link_flaps": 0,
    "workload_flows": 0,
    "workload_bytes_per_flow": 0
  }
}"#;

    #[test]
    fn an_entry_written_before_the_field_table_still_hits_and_is_rewritten_byte_for_byte() {
        let dir = scratch("earlier");
        let cache = Cache::new(&dir);
        let variant = crate::variants::Variant::TcpPr;
        let kind = ScenarioKind::Multipath { variant, epsilon: 500.0, link_delay_ms: 10 };
        let s = ScenarioSpec::new(kind, PlanSpec::Quick);
        fs::create_dir_all(&dir).unwrap();
        fs::write(cache.entry_path(&s), WRITTEN_BY_HAND).unwrap();
        let loaded = cache.load(&s).expect("a hit");
        let work = SessionStats {
            sims: 1,
            events_processed: 170_799,
            peak_event_heap: 57,
            ..SessionStats::default()
        };
        assert_eq!(loaded.work, work);
        fs::remove_file(cache.entry_path(&s)).unwrap();
        cache.store(&s, &loaded);
        assert_eq!(fs::read_to_string(cache.entry_path(&s)).unwrap(), WRITTEN_BY_HAND);
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn policy_flags() {
        assert!(!CachePolicy::Off.reads() && !CachePolicy::Off.writes());
        assert!(!CachePolicy::WriteOnly.reads() && CachePolicy::WriteOnly.writes());
        assert!(CachePolicy::ReadWrite.reads() && CachePolicy::ReadWrite.writes());
    }
}
