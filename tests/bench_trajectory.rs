//! `BENCH_trajectory.json`, the performance record: one record per change
//! that ran the standing benchmark, holding its parent and change commits,
//! the machine, the claim and the alternating parent/change pairs as
//! numbers. Ratios are never stored; this is the one place a claimed ratio
//! is computed, from its pairs. The file is read as untrusted input: a
//! malformed one is an error naming its path, never a panic.
//!
//! A record is
//! `{"parent", "change", "machine": {"nproc", "cpu_model", "rustc"},
//! "claim": {"workload", "metric", "better", "bound"} | null,
//! "sets": [{"seed", "pairs": {workload: {metric: [[parent, change], …]}}}]}`,
//! where `change` is `null` for the commit that adds the record, and a claim
//! holds when, in every set, the median of the change's values over the
//! median of the parent's is at most `bound` (`better: "lower"`) or at
//! least `bound` (`"higher"`).

use serde::Value;

const FILE: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/BENCH_trajectory.json");

/// A claim needs this many pairs on its metric, over all of a record's sets.
const MIN_PAIRS: usize = 10;

/// A claimed metric, recomputed: its ratio in each set and the pairs it was
/// computed from.
#[derive(Debug)]
struct Recomputed {
    parent: String,
    ratios: Vec<f64>,
    pairs: usize,
}

#[test]
fn every_claim_recomputes_from_its_pairs() {
    let text = std::fs::read_to_string(FILE).unwrap_or_else(|e| panic!("{FILE}: {e}"));
    let claims = check(FILE, &text).unwrap_or_else(|e| panic!("{e}"));
    assert!(!claims.is_empty(), "{FILE}: no record claims a gain");
    for Recomputed { parent, ratios, pairs } in claims {
        eprintln!("parent {parent}: {ratios:.3?} by set, over {pairs} pairs");
    }
}

#[test]
fn a_malformed_trajectory_is_an_error_naming_its_path() {
    let good = record(&pairs(10, 0.5));
    assert!(check("t.json", &good).is_ok(), "{:?}", check("t.json", &good));
    let bad = [
        String::new(),
        "[".to_owned(),
        "{}".to_owned(),
        r#"{"records": 3}"#.to_owned(),
        r#"{"records": [7]}"#.to_owned(),
        good.replace("\"parent\": \"3a9f606956a8f0ef6c61d6d821b92bc3110af03e\"", "\"parent\": 1"),
        good.replace("3a9f606956a8f0ef6c61d6d821b92bc3110af03e", "not-a-commit"),
        good.replace("\"change\": null", "\"change\": 5"),
        good.replace("\"nproc\": 2", "\"nproc\": \"two\""),
        good.replace("\"better\": \"lower\"", "\"better\": \"sideways\""),
        good.replace("\"bound\": 0.67", "\"bound\": -1"),
        good.replace("\"seed\": 7", "\"seed\": -7"),
        good.replace("[100, 50]", "[100]"),
        good.replace("[100, 50]", "[100, \"fast\"]"),
        good.replace("[100, 50]", "[0, 50]"),
        good.replace("\"sets\": [", "\"sets\": [7, "),
        good.replace("\"fabric_churn\": {", "\"nowhere\": {"),
        // The claim's ratio does not hold, or rests on too few pairs.
        record(&pairs(10, 0.9)),
        record(&pairs(9, 0.5)),
    ];
    for text in bad {
        match check("t.json", &text) {
            Err(e) => assert!(e.starts_with("t.json: "), "{e}"),
            Ok(claims) => panic!("accepted {claims:?} from {text}"),
        }
    }
}

/// `n` pairs `[100, 100·ratio]`, rendered.
fn pairs(n: usize, ratio: f64) -> String {
    let pair = format!("[100, {}]", 100.0 * ratio);
    vec![pair; n].join(", ")
}

/// One record claiming `fabric_churn`'s `setup_s` at most 0.67× over `pairs`.
fn record(pairs: &str) -> String {
    format!(
        r#"{{"records": [{{"parent": "3a9f606956a8f0ef6c61d6d821b92bc3110af03e",
        "change": null, "machine": {{"nproc": 2, "cpu_model": "x", "rustc": "rustc"}},
        "claim": {{"workload": "fabric_churn", "metric": "setup_s", "better": "lower", "bound": 0.67}},
        "sets": [{{"seed": 7, "pairs": {{"fabric_churn": {{"setup_s": [{pairs}]}}}}}}]}}]}}"#
    )
}

/// Parses the trajectory at `path` and recomputes every claim; an error
/// names `path` and what is wrong.
fn check(path: &str, text: &str) -> Result<Vec<Recomputed>, String> {
    let fail = |what: String| format!("{path}: {what}");
    let doc = serde_json::from_str(text).map_err(|e| fail(format!("not JSON: {e}")))?;
    let records = field(&doc, "records").and_then(array).map_err(fail)?;
    let mut claims = Vec::new();
    for (i, record) in records.iter().enumerate() {
        let at = |what: String| fail(format!("record {i}: {what}"));
        if let Some(claim) = check_record(record).map_err(at)? {
            claims.push(claim);
        }
    }
    Ok(claims)
}

fn check_record(record: &Value) -> Result<Option<Recomputed>, String> {
    let parent = commit(field(record, "parent")?)?;
    match field(record, "change")? {
        Value::Null => {}
        change => _ = commit(change)?,
    }
    let machine = field(record, "machine")?;
    count(field(machine, "nproc")?)?;
    for key in ["cpu_model", "rustc"] {
        text(field(machine, key)?)?;
    }
    let sets = field(record, "sets").and_then(array)?;
    if sets.is_empty() {
        return Err("no sets".to_owned());
    }
    let mut all = Vec::new();
    for set in sets {
        count(field(set, "seed")?)?;
        let workloads = object(field(set, "pairs")?)?;
        let mut set_pairs = Vec::new();
        for (workload, metrics) in workloads {
            for (metric, pairs) in object(metrics)? {
                let pairs = array(pairs)?.iter().map(pair).collect::<Result<Vec<_>, _>>()?;
                set_pairs.push((workload.as_str(), metric.as_str(), pairs));
            }
        }
        all.push(set_pairs);
    }
    let claim = match field(record, "claim")? {
        Value::Null => return Ok(None),
        claim => claim,
    };
    let (workload, metric) = (text(field(claim, "workload")?)?, text(field(claim, "metric")?)?);
    let lower = match text(field(claim, "better")?)? {
        "lower" => true,
        "higher" => false,
        other => return Err(format!("`better` is {other:?}, not \"lower\" or \"higher\"")),
    };
    let bound = number(field(claim, "bound")?).filter(|b| *b > 0.0).ok_or("a bound > 0")?;
    let mut ratios = Vec::new();
    let mut total = 0;
    for set in &all {
        let Some((.., pairs)) = set.iter().find(|(w, m, _)| *w == workload && *m == metric) else {
            return Err(format!("a set has no pairs for the claimed {workload} {metric}"));
        };
        let median = |side: usize| median(pairs.iter().map(|p| p[side]).collect());
        let ratio = median(1) / median(0);
        if (lower && ratio > bound) || (!lower && ratio < bound) {
            return Err(format!(
                "{workload} {metric} reads {ratio:.3}×, against a claim of {bound}"
            ));
        }
        ratios.push(ratio);
        total += pairs.len();
    }
    if total < MIN_PAIRS {
        return Err(format!("{total} pairs on the claimed {workload} {metric}, not {MIN_PAIRS}"));
    }
    Ok(Some(Recomputed { parent: parent.to_owned(), ratios, pairs: total }))
}

fn median(mut values: Vec<f64>) -> f64 {
    values.sort_by(f64::total_cmp);
    let mid = values.len() / 2;
    match values.len() % 2 {
        1 => values[mid],
        _ => (values[mid - 1] + values[mid]) / 2.0,
    }
}

fn field<'v>(value: &'v Value, key: &str) -> Result<&'v Value, String> {
    object(value)?.iter().find(|(k, _)| k == key).map(|(_, v)| v).ok_or(format!("no `{key}`"))
}

fn object(value: &Value) -> Result<&[(String, Value)], String> {
    match value {
        Value::Object(fields) => Ok(fields),
        other => Err(format!("{other:?} is not an object")),
    }
}

fn array(value: &Value) -> Result<&[Value], String> {
    match value {
        Value::Array(items) => Ok(items),
        other => Err(format!("{other:?} is not an array")),
    }
}

fn text(value: &Value) -> Result<&str, String> {
    match value {
        Value::Str(s) => Ok(s),
        other => Err(format!("{other:?} is not a string")),
    }
}

fn count(value: &Value) -> Result<u64, String> {
    match *value {
        Value::UInt(n) => Ok(n),
        Value::Int(n) if n >= 0 => Ok(n as u64),
        ref other => Err(format!("{other:?} is not a count")),
    }
}

fn number(value: &Value) -> Option<f64> {
    match *value {
        Value::UInt(n) => Some(n as f64),
        Value::Int(n) => Some(n as f64),
        Value::Float(x) if x.is_finite() => Some(x),
        _ => None,
    }
}

/// A measured value: finite and above zero.
fn pair(value: &Value) -> Result<[f64; 2], String> {
    let measured = |v: &Value| number(v).filter(|x| *x > 0.0);
    match array(value)? {
        [parent, change] => match (measured(parent), measured(change)) {
            (Some(p), Some(c)) => Ok([p, c]),
            _ => Err(format!("{value:?} holds a value that is not a measurement")),
        },
        _ => Err(format!("{value:?} is not a [parent, change] pair")),
    }
}

/// A full commit hash.
fn commit(value: &Value) -> Result<&str, String> {
    let hash = text(value)?;
    match hash.len() == 40 && hash.chars().all(|c| c.is_ascii_hexdigit()) {
        true => Ok(hash),
        false => Err(format!("{hash:?} is not a commit hash")),
    }
}
