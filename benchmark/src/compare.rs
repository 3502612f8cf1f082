//! The `compare` subcommand: two `results.json` files, base then change,
//! held against the bounds of `BENCHMARK.json`.

use std::path::Path;

use experiments::sweep::decode::{as_f64, as_str, as_u64, get};
use serde::Value;

use crate::metrics::{FAIL_SHARE, SETUP_S};

/// The benchmark's contract with the driver, also the source of the bounds.
pub const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

/// `setup_s` is micro- to milliseconds on three workloads: a worsening
/// beyond its bound only counts once it is also more than this, or timer
/// noise would read as a regression.
const SETUP_FLOOR_S: f64 = 0.002;

/// `(name, better, bound)` of every end-to-end metric in `BENCHMARK.json`.
pub fn bounds() -> Vec<(String, String, f64)> {
    let doc = serde_json::from_str(BENCHMARK_JSON).expect("BENCHMARK.json is valid JSON");
    let Some(Value::Array(metrics)) = get(&doc, "end_to_end") else {
        panic!("BENCHMARK.json has no end_to_end list")
    };
    metrics
        .iter()
        .map(|m| {
            let field = |k: &str| get(m, k).unwrap_or_else(|| panic!("end_to_end entry lacks {k}"));
            (
                as_str(field("name")).expect("name is a string").to_owned(),
                as_str(field("better")).expect("better is a string").to_owned(),
                as_f64(field("bound")).expect("bound is a number"),
            )
        })
        .collect()
}

fn load(path: &Path) -> Result<Value, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    serde_json::from_str(&text).map_err(|e| format!("{}: {e}", path.display()))
}

fn workloads(doc: &Value) -> &[Value] {
    match get(doc, "workloads") {
        Some(Value::Array(w)) => w,
        _ => &[],
    }
}

fn entries(v: Option<&Value>) -> &[(String, Value)] {
    match v {
        Some(Value::Object(e)) => e,
        _ => &[],
    }
}

/// Compares two result documents line by line into `out`. Returns the
/// number of breaches: a bound exceeded, a failed operation, or a count or
/// digest that differs.
pub fn compare_docs(base: &Value, change: &Value, out: &mut Vec<String>) -> usize {
    let bounds = bounds();
    let mut breaches = 0;
    if get(base, "fingerprint") != get(change, "fingerprint") {
        out.push("note: the two runs have different machine fingerprints".to_owned());
    }
    let mut verdict = |line: String, breach: bool| {
        breaches += usize::from(breach);
        out.push(format!("{line} {}", if breach { "BREACH" } else { "ok" }));
    };
    for wa in workloads(base) {
        let name = get(wa, "name").and_then(as_str).unwrap_or("?");
        let Some(wb) = workloads(change).iter().find(|w| get(w, "name") == get(wa, "name")) else {
            continue;
        };
        for (metric, a) in entries(get(wa, "metrics")) {
            let Some(b) = get(wb, "metrics").and_then(|m| get(m, metric)) else { continue };
            let value = |m: &Value| get(m, "value").and_then(as_f64).unwrap_or(f64::NAN);
            let (va, vb) = (value(a), value(b));
            let line = format!("{name} {metric} {va} {vb} ratio {} (of {va})", vb / va);
            let exact = |m: &Value| get(m, "exact") == Some(&Value::Bool(true));
            if let Some((_, better, bound)) = bounds.iter().find(|(n, _, _)| n == metric) {
                let worse_by = if better == "higher" { va - vb } else { vb - va };
                let floor = if metric == SETUP_S { SETUP_FLOOR_S } else { 0.0 };
                let breach = worse_by / va > *bound && worse_by > floor;
                verdict(format!("{line} bound {bound}"), breach);
            } else if exact(a) && exact(b) {
                verdict(format!("{line} exact"), va.to_bits() != vb.to_bits());
            } else {
                // A per-layer timing: shown with its ratio, held to nothing.
                verdict(format!("{line} unbounded"), false);
            }
        }
        let failed = |w: &Value| get(w, "failed").and_then(as_u64).unwrap_or(u64::MAX);
        let attempted = |w: &Value| get(w, "attempted").and_then(as_u64).unwrap_or(0);
        verdict(
            format!(
                "{name} {FAIL_SHARE} {}/{} {}/{} bound 0",
                failed(wa),
                attempted(wa),
                failed(wb),
                attempted(wb)
            ),
            failed(wa) != 0 || failed(wb) != 0,
        );
        for (label, da) in entries(get(wa, "digests")) {
            let Some(db) = get(wb, "digests").and_then(|d| get(d, label)) else { continue };
            let (da, db) = (as_str(da).unwrap_or("?"), as_str(db).unwrap_or("?"));
            verdict(format!("{name} digest.{label} {da} {db} exact"), da != db);
        }
    }
    breaches
}

/// Prints the comparison of two result files. Returns the breach count.
pub fn compare_files(base: &Path, change: &Path) -> Result<usize, String> {
    let (a, b) = (load(base)?, load(change)?);
    let mut lines = Vec::new();
    let breaches = compare_docs(&a, &b, &mut lines);
    println!("workload metric base change ratio(change/base) rule verdict");
    for l in &lines {
        println!("{l}");
    }
    println!("{breaches} breach(es)");
    Ok(breaches)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::{Measured, SIM_S_PER_WALL_S};
    use crate::report::{results_value, WorkloadResult};
    use crate::workloads::Workload;

    fn doc(rate: f64, setup: f64, count: f64, failed: u64, digest: &str) -> Value {
        let m = |name: &str, value, exact| Measured {
            name: name.to_owned(),
            value,
            unit: "x",
            spread: None,
            exact,
        };
        results_value(
            &[],
            &[WorkloadResult {
                workload: Workload::MeshReorder,
                attempted: 13,
                failed,
                failures: Vec::new(),
                digests: vec![("tcppr".to_owned(), digest.to_owned())],
                metrics: vec![
                    m(SIM_S_PER_WALL_S, rate, false),
                    m(SETUP_S, setup, false),
                    m("sim.events_per_pkt", count, true),
                    m("obs.slowdown", rate, false),
                ],
                machine: None,
            }],
        )
    }

    fn breaches(a: &Value, b: &Value) -> usize {
        compare_docs(a, b, &mut Vec::new())
    }

    #[test]
    fn equal_documents_pass() {
        let a = doc(250.0, 0.0001, 5.93, 0, "aa");
        let mut lines = Vec::new();
        assert_eq!(compare_docs(&a, &a, &mut lines), 0);
        assert!(lines
            .iter()
            .any(|l| l.starts_with("mesh_reorder sim_s_per_wall_s 250 250 ratio 1")));
    }

    #[test]
    fn a_slower_change_breaches_only_beyond_its_bound() {
        let a = doc(250.0, 0.0001, 5.93, 0, "aa");
        assert_eq!(breaches(&a, &doc(210.0, 0.0001, 5.93, 0, "aa")), 0, "16 % slower");
        assert_eq!(breaches(&a, &doc(190.0, 0.0001, 5.93, 0, "aa")), 1, "24 % slower");
        assert_eq!(breaches(&a, &doc(400.0, 0.0001, 5.93, 0, "aa")), 0, "faster is never a breach");
    }

    #[test]
    fn setup_needs_both_its_share_and_its_floor() {
        let a = doc(250.0, 0.0001, 5.93, 0, "aa");
        assert_eq!(breaches(&a, &doc(250.0, 0.0005, 5.93, 0, "aa")), 0, "5× but under 2 ms");
        let a = doc(250.0, 0.010, 5.93, 0, "aa");
        assert_eq!(breaches(&a, &doc(250.0, 0.012, 5.93, 0, "aa")), 0, "2 ms but under 25 %");
        assert_eq!(breaches(&a, &doc(250.0, 0.014, 5.93, 0, "aa")), 1);
    }

    #[test]
    fn counts_digests_and_failures_compare_exactly() {
        let a = doc(250.0, 0.0001, 5.93, 0, "aa");
        assert_eq!(breaches(&a, &doc(250.0, 0.0001, 5.930001, 0, "aa")), 1);
        assert_eq!(breaches(&a, &doc(250.0, 0.0001, 5.93, 0, "ab")), 1);
        assert_eq!(breaches(&a, &doc(250.0, 0.0001, 5.93, 1, "aa")), 1);
        assert_eq!(breaches(&doc(250.0, 0.0001, 5.93, 1, "aa"), &a), 1, "a failing base too");
    }
}
