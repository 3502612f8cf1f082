//! Property tests over the sweep engine's two determinism pillars —
//! content-addressed spec hashing and the JSON round trip the result cache
//! depends on — and over the readers of files the engine may not have
//! written intact: the counterexample read-back, the cache's, and the cell
//! outcome decoder under it.

use std::sync::OnceLock;

use experiments::ablations::Ablation;
use experiments::cell::{self, CellReport, Metric};
use experiments::explain::CounterexampleDoc;
use experiments::hunt::{candidate_from_value, candidate_value, mutate, Candidate};
use experiments::sweep::decode::{as_f64, as_str, as_u64, get};
use experiments::sweep::spec::{
    ImpairmentSpec, PlanSpec, ScenarioKind, ScenarioSpec, TopologySpec,
};
use experiments::sweep::{Cache, CachedRun, TopologyModel};
use experiments::variants::Variant;
use netsim::telemetry::SessionStats;
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use serde::Value;

/// Builds a fairness spec from integer-sampled parameters (α in
/// millièmes, β in tenths — the grids only use such round values, and
/// integer sampling keeps every case bit-exact).
fn fairness(n_flows: usize, alpha_milli: u64, beta_tenths: u64, replicate: u64) -> ScenarioSpec {
    ScenarioSpec::new(
        ScenarioKind::Fairness {
            topology: TopologySpec::Dumbbell { bottleneck_mbps: None },
            n_flows,
            alpha: alpha_milli as f64 / 1000.0,
            beta: beta_tenths as f64 / 10.0,
            replicate,
        },
        PlanSpec::Quick,
    )
}

proptest! {
    #[test]
    fn hash_is_a_pure_function_of_content(
        n in 1usize..128,
        alpha_milli in 1u64..1000,
        beta_tenths in 10u64..100,
        replicate in 0u64..16,
        base_seed in 0u64..1_000_000,
    ) {
        // Two independently constructed, identical specs hash identically.
        let a = ScenarioSpec {
            base_seed,
            ..fairness(n, alpha_milli, beta_tenths, replicate)
        };
        let b = ScenarioSpec {
            base_seed,
            ..fairness(n, alpha_milli, beta_tenths, replicate)
        };
        prop_assert_eq!(a.content_hash(), b.content_hash());
        prop_assert_eq!(a.hash_hex(), b.hash_hex());

        // The sim seed is exactly hash ⊕ base_seed — scheduling-free.
        prop_assert_eq!(a.sim_seed(), a.content_hash() ^ base_seed);

        // `traced` is observability only: it never moves the hash (and so
        // never moves the derived seed or the cache key).
        let traced = ScenarioSpec { traced: true, ..a.clone() };
        prop_assert_eq!(traced.content_hash(), a.content_hash());
    }

    #[test]
    fn execution_relevant_fields_move_the_hash(
        n in 1usize..128,
        replicate in 0u64..16,
    ) {
        let a = fairness(n, 995, 30, replicate);
        prop_assert_ne!(
            a.content_hash(),
            fairness(n + 1, 995, 30, replicate).content_hash()
        );
        prop_assert_ne!(
            a.content_hash(),
            fairness(n, 995, 30, replicate + 1).content_hash()
        );
        let full = ScenarioSpec { plan: PlanSpec::Full, ..a.clone() };
        prop_assert_ne!(a.content_hash(), full.content_hash());
    }

    #[test]
    fn empty_impairment_lists_never_move_the_hash(
        n in 1usize..128,
        alpha_milli in 1u64..1000,
        replicate in 0u64..16,
    ) {
        // The impairments field postdates the pinned hash encoding: for
        // every legacy spec it must be invisible, or adding the feature
        // would invalidate every cache key and shift every derived seed.
        let legacy = fairness(n, alpha_milli, 30, replicate);
        let explicit = ScenarioSpec { impairments: Vec::new(), ..legacy.clone() };
        prop_assert_eq!(legacy.content_hash(), explicit.content_hash());
        prop_assert_eq!(legacy.sim_seed(), explicit.sim_seed());
    }

    #[test]
    fn impairments_move_the_hash_and_encoding_is_canonical(
        p_milli in 1u64..500,
        every in 2u64..64,
        depth in 1u32..8,
        period_ms in 100u64..5_000,
    ) {
        let p = p_milli as f64 / 1000.0;
        let base = ScenarioSpec::new(
            ScenarioKind::Stress { variant: Variant::TcpPr },
            PlanSpec::Quick,
        );
        let imps = vec![
            ImpairmentSpec::IidLoss { p },
            ImpairmentSpec::Displace { every, depth },
            ImpairmentSpec::Flap { period_ms, down_ms: period_ms / 10 + 1 },
        ];
        let a = base.clone().with_impairments(imps.clone());
        prop_assert_ne!(base.content_hash(), a.content_hash());

        // Identical reconstruction hashes identically…
        let b = base.clone().with_impairments(imps.clone());
        prop_assert_eq!(a.content_hash(), b.content_hash());

        // …while pipeline order is execution-relevant (stages compose in
        // list order) and must move the hash.
        let mut reversed = imps.clone();
        reversed.reverse();
        let c = base.clone().with_impairments(reversed);
        prop_assert_ne!(a.content_hash(), c.content_hash());

        // Parameter changes inside one stage move the hash too.
        let mut tweaked = imps;
        tweaked[0] = ImpairmentSpec::IidLoss { p: p + 0.5 };
        let d = base.with_impairments(tweaked);
        prop_assert_ne!(a.content_hash(), d.content_hash());
    }

    #[test]
    fn json_print_parse_print_is_idempotent(
        mantissa in 0u64..1_000_000_000,
        divisor_pow in 0u32..9,
        count in 0u64..1_000_000,
    ) {
        // The cache writes values that already went through one
        // print-parse trip; a second trip must be a fixed point, or cached
        // and fresh artifacts could drift apart byte by byte.
        let float = mantissa as f64 / 10f64.powi(divisor_pow as i32);
        let v = Value::Object(vec![
            ("mbps".to_owned(), Value::Float(float)),
            ("count".to_owned(), Value::UInt(count)),
            ("label".to_owned(), Value::Str("fig6 ε=0.5 \"quoted\"".to_owned())),
            ("nested".to_owned(), Value::Array(vec![
                Value::Float(-float),
                Value::Int(-(count as i64)),
                Value::Null,
                Value::Bool(true),
            ])),
        ]);
        let once = serde_json::to_string(&v).expect("total");
        let reparsed = match serde_json::from_str(&once) {
            Ok(r) => r,
            Err(e) => return Err(TestCaseError::fail(format!("reparse failed: {e}"))),
        };
        let twice = serde_json::to_string(&reparsed).expect("total");
        prop_assert_eq!(&once, &twice, "print-parse-print must be a fixed point");
    }
}

// ---------------------------------------------------------------------------
// Counterexample read-back: the one place a file becomes a scenario
// ---------------------------------------------------------------------------

/// The words a counterexample document is made of — header keys, entry
/// tags, entry fields — so that random trees land on the reader's own
/// vocabulary often enough to get past its first check.
const HEADER: [&str; 9] =
    ["kind", "hunt", "plan", "smoke", "variant", "TCP-PR", "candidate", "impairments", "schedule"];
const STAGES: [&str; 8] =
    ["iid-loss", "burst-loss", "jitter", "displace", "duplicate", "flap", "bw-osc", "delay-osc"];
const WINDOWS: [&str; 2] = ["down", "delay"];
const FIELDS: [&str; 15] = [
    "p",
    "p_good_to_bad",
    "p_bad_to_good",
    "loss_bad",
    "prob",
    "max_extra_ms",
    "every",
    "depth",
    "period_ms",
    "down_ms",
    "low_mbps",
    "high_delay_ms",
    "at_ms",
    "dur_ms",
    "delay_ms",
];

fn pick<T: Copy>(rng: &mut SmallRng, from: &[T]) -> T {
    from[rng.gen_range(0..from.len())]
}

/// Mostly numbers an entry could hold, some just past what it can.
fn number(rng: &mut SmallRng) -> Value {
    match rng.gen_range(0u32..8) {
        0 => Value::UInt(pick(rng, &[0, u64::MAX / 1_000_000 + 1, u64::MAX, 1 << 32])),
        1 => Value::Float(pick(rng, &[1.5, -0.5, f64::INFINITY, 1e300, 0.0])),
        2 => Value::Int(-1),
        3..=5 => Value::UInt(pick(rng, &[1, 2, 10, 300, 500, 4000])),
        _ => Value::Float(pick(rng, &[0.005, 0.25, 1.0])),
    }
}

fn arbitrary_value(rng: &mut SmallRng, depth: u32) -> Value {
    let word = |rng: &mut SmallRng| pick(rng, &[&HEADER[..], &STAGES, &WINDOWS, &FIELDS].concat());
    match rng.gen_range(0u32..if depth == 0 { 5 } else { 7 }) {
        0 => Value::Null,
        1 => Value::Bool(rng.gen_bool(0.5)),
        2 => Value::Int(rng.gen::<u64>() as i64),
        3 => number(rng),
        4 => Value::Str(word(rng).to_owned()),
        5 => Value::Array(
            (0..rng.gen_range(0usize..4)).map(|_| arbitrary_value(rng, depth - 1)).collect(),
        ),
        _ => Value::Object(
            (0..rng.gen_range(0usize..5))
                .map(|_| (word(rng).to_owned(), arbitrary_value(rng, depth - 1)))
                .collect(),
        ),
    }
}

/// A document that is well-formed down to `level` (0: nothing, 1: the
/// header, 2: the two lists, 3: each entry's tag and field names) and
/// arbitrary below it.
fn hostile_document(rng: &mut SmallRng, level: u32) -> Value {
    let obj = |fields: Vec<(&str, Value)>| {
        Value::Object(fields.into_iter().map(|(k, v)| (k.to_owned(), v)).collect())
    };
    let entries = |rng: &mut SmallRng, tags: &[&str]| {
        let entry = |rng: &mut SmallRng| {
            if level < 3 {
                return arbitrary_value(rng, 2);
            }
            let mut fields = vec![("type", Value::Str(pick(rng, tags).to_owned()))];
            fields.extend(FIELDS.map(|key| (key, number(rng))));
            obj(fields)
        };
        Value::Array((0..rng.gen_range(0usize..3)).map(|_| entry(rng)).collect())
    };
    if level == 0 {
        return arbitrary_value(rng, 4);
    }
    let candidate = match level {
        1 => arbitrary_value(rng, 3),
        _ => {
            obj(vec![("impairments", entries(rng, &STAGES)), ("schedule", entries(rng, &WINDOWS))])
        }
    };
    obj(vec![
        ("kind", Value::Str("hunt".to_owned())),
        ("variant", Value::Str("TCP-PR".to_owned())),
        ("plan", Value::Str("smoke".to_owned())),
        ("base_seed", Value::UInt(5)),
        ("content_hash", Value::Str("f2461c1316f3875a".to_owned())),
        ("objective", arbitrary_value(rng, 0)),
        ("candidate", candidate),
    ])
}

proptest! {
    #[test]
    fn counterexample_read_back_round_trips_the_mutator_and_never_unwinds(
        seed in 0u64..u64::MAX,
        level in 0u32..6,
    ) {
        let mut rng = SmallRng::seed_from_u64(seed);

        // Every candidate the mutator can reach reads back as itself.
        let mut c = Candidate::baseline();
        for _ in 0..24 {
            c = mutate(&c, &mut rng);
            prop_assert_eq!(candidate_from_value(&candidate_value(&c)), Ok(c.clone()));
        }

        // Anything else returns — an `Err`, or a document whose spec can be
        // rebuilt and hash-checked — and a panic anywhere fails the case.
        for _ in 0..16 {
            let doc = hostile_document(&mut rng, level.min(3));
            let text = serde_json::to_string(&doc).expect("total");
            if let Ok(doc) = CounterexampleDoc::parse(&text) {
                let _ = doc.spec();
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Cache read-back: an entry on disk is a hit on what was stored, or a miss
// ---------------------------------------------------------------------------

/// A fresh cache directory for one test of this binary.
fn cache_dir(test: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("sweep-props-{test}-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    dir
}

/// A stored fairness run whose twelve work fields are `w`, in declaration
/// order.
fn stored(w: &[u64]) -> (ScenarioSpec, CachedRun) {
    let outcome = r#"{"topology":"dumbbell","n_flows":4,"pr_normalized":[0.9,1.01],
        "sack_normalized":[1.1,0.99],"mean_pr":0.95,"mean_sack":1.05,"cov_pr":0.05,
        "cov_sack":0.04,"loss_rate_pct":0.5}"#;
    let work = SessionStats {
        sims: w[0],
        events_processed: w[1],
        peak_event_heap: w[2],
        dropped_trace_records: w[3],
        traced_keep_first_sims: w[4],
        traced_keep_latest_sims: w[5],
        impair_drops: w[6],
        impair_dups: w[7],
        impair_reorders: w[8],
        link_flaps: w[9],
        workload_flows: w[10],
        workload_bytes_per_flow: w[11],
    };
    let outcome = serde_json::from_str(outcome).expect("a fairness outcome");
    (fairness(4, 995, 30, 1), CachedRun { outcome, work })
}

fn entries(v: &Value) -> &[(String, Value)] {
    match v {
        Value::Object(entries) => entries,
        other => panic!("an object, not {other:?}"),
    }
}

/// One copy of the object `fields` per field, that field spoiled: a string,
/// a negative number, a non-integral or huge float, removed, or repeated
/// after the original with an arbitrary value.
fn spoiled(rng: &mut SmallRng, fields: &[(String, Value)]) -> Vec<Value> {
    let mut copies = Vec::new();
    for i in 0..fields.len() {
        let mut fields = fields.to_vec();
        match rng.gen_range(0u32..5) {
            0 => fields[i].1 = Value::Str(pick(rng, &["1", "", "sims"]).to_owned()),
            1 => fields[i].1 = Value::Int(-rng.gen_range(1i64..1 << 40)),
            2 => {
                let x = pick(rng, &[0.5, 1.5, -0.5, 1e300, f64::INFINITY]);
                fields[i].1 = Value::Float(x);
            }
            3 => {
                fields.remove(i);
            }
            // The readers take a key's first occurrence.
            _ => fields.push((fields[i].0.clone(), arbitrary_value(rng, 1))),
        }
        copies.push(Value::Object(fields));
    }
    copies
}

proptest! {
    #[test]
    fn any_work_round_trips_through_the_cache_and_merges_by_its_rule(
        w in collection::vec(0u64..=u64::MAX, 12..13),
    ) {
        let dir = cache_dir("round-trip");
        let cache = Cache::new(&dir);
        let (spec, run) = stored(&w);
        cache.store(&spec, &run);
        let loaded = cache.load(&spec).map(|r| r.work);
        std::fs::remove_dir_all(&dir).ok();
        prop_assert_eq!(loaded, Some(run.work));

        // Merged with itself, a count doubles and a high-water mark stays.
        let maxima = ["peak_event_heap", "workload_flows", "workload_bytes_per_flow"];
        let (_, half) = stored(&w.iter().map(|x| x / 2).collect::<Vec<_>>());
        let mut twice = half.work;
        twice.merge(&half.work);
        let once = serde::Serialize::to_value(&half.work);
        let twice = serde::Serialize::to_value(&twice);
        for ((key, once), (_, twice)) in entries(&once).iter().zip(entries(&twice)) {
            let Value::UInt(x) = *once else { panic!("{key} is a u64") };
            let expected = if maxima.contains(&key.as_str()) { x } else { 2 * x };
            prop_assert_eq!(twice, &Value::UInt(expected), "{}", key);
        }
    }

    #[test]
    fn a_hostile_cache_entry_is_a_miss_or_the_stored_run(seed in 0u64..u64::MAX) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let dir = cache_dir("hostile");
        let cache = Cache::new(&dir);
        let work: Vec<u64> = (0..12).map(|_| rng.gen_range(0u64..1 << 40)).collect();
        let (spec, run) = stored(&work);
        cache.store(&spec, &run);
        let path = cache.entry_path(&spec);
        let text = std::fs::read_to_string(&path).expect("stored");
        let entry: Value = serde_json::from_str(&text).expect("the cache writes JSON");

        let with_work = |work: Value| {
            let mut e = entries(&entry).to_vec();
            e.iter_mut().find(|(k, _)| k == "work").expect("a work block").1 = work;
            Value::Object(e)
        };
        let work = &entries(&entry).iter().find(|(k, _)| k == "work").expect("a work block").1;
        let mut hostile = vec![with_work(arbitrary_value(&mut rng, 3))];
        hostile.extend(spoiled(&mut rng, entries(work)).into_iter().map(with_work));
        let level = rng.gen_range(0..4);
        hostile.push(hostile_document(&mut rng, level));
        hostile.push(arbitrary_value(&mut rng, 4));

        for doc in hostile {
            std::fs::write(&path, serde_json::to_string_pretty(&doc).expect("total")).unwrap();
            if let Some(hit) = cache.load(&spec) {
                prop_assert_eq!(&hit.work, &run.work);
                prop_assert_eq!(&hit.outcome, &run.outcome);
            }
        }
        std::fs::remove_dir_all(&dir).ok();
    }
}

// ---------------------------------------------------------------------------
// Outcome read-back: a cell's outcome decodes to its report, anything else
// to a report or to nothing
// ---------------------------------------------------------------------------

/// One smoke cell of each of the eight kinds, with the report `cell::run`
/// produced and its outcome as the cache holds it: printed, then parsed.
fn produced() -> &'static [(ScenarioKind, CellReport, Value)] {
    static PRODUCED: OnceLock<Vec<(ScenarioKind, CellReport, Value)>> = OnceLock::new();
    PRODUCED.get_or_init(|| {
        let variant = Variant::TcpPr;
        let kinds = [
            ScenarioKind::Fairness {
                topology: TopologySpec::Dumbbell { bottleneck_mbps: None },
                n_flows: 2,
                alpha: 0.995,
                beta: 3.0,
                replicate: 0,
            },
            ScenarioKind::Multipath { variant, epsilon: 4.0, link_delay_ms: 10 },
            ScenarioKind::RouteFlap {
                variant,
                short_delay_ms: 10,
                long_delay_ms: 40,
                link_mbps: 10.0,
                flap_period_ms: 500,
            },
            ScenarioKind::Churn { variant, mean_interval_ms: 400, churn_seed: 42 },
            ScenarioKind::Ablation { ablation: Ablation::ALL[0] },
            ScenarioKind::Stress { variant },
            ScenarioKind::Hunt { variant },
            ScenarioKind::Scale {
                variant,
                model: TopologyModel::FatTree { k: 4 },
                target_flows: 120,
                replicate: 0,
            },
        ];
        let produce = |kind: ScenarioKind| {
            let report = cell::run_kind(&kind, &[], &[], PlanSpec::Smoke.plan(), 7);
            let text = serde_json::to_string(&report).expect("total");
            (kind, report, serde_json::from_str(&text).expect("the printer writes JSON"))
        };
        kinds.into_iter().map(produce).collect()
    })
}

#[test]
fn a_report_cell_run_produced_decodes_to_itself() {
    for (kind, report, outcome) in produced() {
        let decoded = CellReport::decode(Metric::list(kind), outcome);
        assert_eq!(decoded.as_ref(), Some(report), "{kind:?}");
    }
}

proptest! {
    #[test]
    fn a_hostile_outcome_decodes_to_a_report_or_none_and_never_unwinds(seed in 0u64..u64::MAX) {
        let mut rng = SmallRng::seed_from_u64(seed);
        for (kind, _, outcome) in produced() {
            let level = rng.gen_range(0..4);
            let mut hostile = vec![arbitrary_value(&mut rng, 4), hostile_document(&mut rng, level)];
            hostile.extend(spoiled(&mut rng, entries(outcome)));
            for doc in &hostile {
                // Every kind's metric list, not only the one that wrote it.
                for (other, _, _) in produced() {
                    let _ = CellReport::decode(Metric::list(other), doc);
                }
                for metric in Metric::list(kind) {
                    let raw = get(doc, &metric.key()).unwrap_or(doc);
                    let _ = (as_f64(raw), as_u64(raw), as_str(raw));
                }
            }
        }
    }
}
