//! Reads harness results back out of serialized [`Value`] trees.
//!
//! The vendored serde shim is one-directional (`Serialize` renders to a
//! [`Value`]); the sweep cache needs the other direction. The six kinds
//! that run through [`crate::cell`] read back through its one
//! metric-list decoder ([`CellReport::decode`]); the two result structs
//! that remain get a hand-written decoder here. All of them accept exactly
//! the shapes the serializer emits — named-field objects, unit enums as
//! their variant-name strings — plus the integer / float variant blurring
//! the JSON printer introduces (`1.0` prints as `1` and parses back as an
//! unsigned integer).

use serde::Value;

use crate::cell::{CellReport, Metric};
use crate::figures::fairness::FairnessResult;
use crate::scale::ScaleResult;
use crate::sweep::spec::ScenarioKind;
use crate::variants::Variant;

/// Looks up `key` in an object value.
pub fn get<'v>(v: &'v Value, key: &str) -> Option<&'v Value> {
    match v {
        Value::Object(entries) => entries.iter().find(|(k, _)| k == key).map(|(_, val)| val),
        _ => None,
    }
}

/// Numeric coercion: any of the shim's number variants as `f64`.
pub fn as_f64(v: &Value) -> Option<f64> {
    match *v {
        Value::Float(x) => Some(x),
        Value::Int(i) => Some(i as f64),
        Value::UInt(u) => Some(u as f64),
        _ => None,
    }
}

/// Numeric coercion: non-negative integers as `u64`.
pub fn as_u64(v: &Value) -> Option<u64> {
    match *v {
        Value::UInt(u) => Some(u),
        Value::Int(i) if i >= 0 => Some(i as u64),
        _ => None,
    }
}

/// String access.
pub fn as_str(v: &Value) -> Option<&str> {
    match v {
        Value::Str(s) => Some(s),
        _ => None,
    }
}

/// An array of numbers as `Vec<f64>`.
pub fn as_f64_vec(v: &Value) -> Option<Vec<f64>> {
    match v {
        Value::Array(items) => items.iter().map(as_f64).collect(),
        _ => None,
    }
}

fn f64_field(v: &Value, key: &str) -> Option<f64> {
    get(v, key).and_then(as_f64)
}

fn u64_field(v: &Value, key: &str) -> Option<u64> {
    get(v, key).and_then(as_u64)
}

/// Decodes a [`FairnessResult`] (Figures 2/3/4 cell outcome).
pub fn fairness_result(v: &Value) -> Option<FairnessResult> {
    Some(FairnessResult {
        topology: as_str(get(v, "topology")?)?.to_owned(),
        n_flows: u64_field(v, "n_flows")? as usize,
        pr_normalized: as_f64_vec(get(v, "pr_normalized")?)?,
        sack_normalized: as_f64_vec(get(v, "sack_normalized")?)?,
        mean_pr: f64_field(v, "mean_pr")?,
        mean_sack: f64_field(v, "mean_sack")?,
        cov_pr: f64_field(v, "cov_pr")?,
        cov_sack: f64_field(v, "cov_sack")?,
        loss_rate_pct: f64_field(v, "loss_rate_pct")?,
    })
}

/// Decodes a [`ScaleResult`].
pub fn scale_result(v: &Value) -> Option<ScaleResult> {
    Some(ScaleResult {
        variant: Variant::from_name(as_str(get(v, "variant")?)?)?,
        topology: as_str(get(v, "topology")?)?.to_owned(),
        target_flows: u64_field(v, "target_flows")?,
        peak_flows: u64_field(v, "peak_flows")?,
        arrivals: u64_field(v, "arrivals")?,
        completions: u64_field(v, "completions")?,
        jain: f64_field(v, "jain")?,
        goodput_cov: f64_field(v, "goodput_cov")?,
        p99_fct_ms: f64_field(v, "p99_fct_ms")?,
        mean_fct_ms: f64_field(v, "mean_fct_ms")?,
        foreground_mbps: f64_field(v, "foreground_mbps")?,
        delivered_mbps: f64_field(v, "delivered_mbps")?,
        bytes_per_flow: u64_field(v, "bytes_per_flow")?,
    })
}

/// Whether `outcome` reads back as the result a scenario of `kind`
/// produces — the test a cache entry must pass to count as a hit.
pub(crate) fn decodes(kind: &ScenarioKind, outcome: &Value) -> bool {
    match (Metric::list(kind), kind) {
        (Some(metrics), _) => CellReport::decode(metrics, outcome).is_some(),
        (None, ScenarioKind::Scale { .. }) => scale_result(outcome).is_some(),
        (None, _) => fairness_result(outcome).is_some(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fairness_result_roundtrips_through_value_and_text() {
        let r = FairnessResult {
            topology: "dumbbell".to_owned(),
            n_flows: 4,
            pr_normalized: vec![0.9, 1.0],
            sack_normalized: vec![1.1, 1.0],
            mean_pr: 0.95,
            mean_sack: 1.05,
            cov_pr: 0.05,
            cov_sack: 0.04,
            loss_rate_pct: 0.5,
        };
        let v = serde::Serialize::to_value(&r);
        let decoded = fairness_result(&v).expect("decode");
        assert_eq!(serde::Serialize::to_value(&decoded), v);

        // Through JSON text too (the cache's on-disk trip), where integral
        // floats come back as integers.
        let text = serde_json::to_string(&v).unwrap();
        let reparsed = serde_json::from_str(&text).unwrap();
        let decoded = fairness_result(&reparsed).expect("decode after parse");
        assert_eq!(decoded.pr_normalized, r.pr_normalized);
        assert_eq!(decoded.mean_sack, r.mean_sack);
    }

    #[test]
    fn scale_result_roundtrips() {
        let r = ScaleResult {
            variant: Variant::Bbr,
            topology: "fat-tree-k4".to_owned(),
            target_flows: 10_000,
            peak_flows: 10_250,
            arrivals: 14_000,
            completions: 9_000,
            jain: 0.81,
            goodput_cov: 0.48,
            p99_fct_ms: 5_120.0,
            mean_fct_ms: 640.5,
            foreground_mbps: 3.25,
            delivered_mbps: 62.5,
            bytes_per_flow: 96,
        };
        let v = serde::Serialize::to_value(&r);
        let decoded = scale_result(&v).expect("decode");
        assert_eq!(serde::Serialize::to_value(&decoded), v);
        let text = serde_json::to_string(&v).unwrap();
        let reparsed = serde_json::from_str(&text).unwrap();
        let decoded = scale_result(&reparsed).expect("decode after parse");
        assert_eq!(decoded.topology, r.topology);
        assert_eq!(decoded.bytes_per_flow, r.bytes_per_flow);
        assert_eq!(decoded.jain, r.jain);
    }

    #[test]
    fn decoders_reject_wrong_shapes() {
        assert!(fairness_result(&Value::Null).is_none());
        let fairness = ScenarioKind::Fairness {
            topology: crate::sweep::spec::TopologySpec::Dumbbell { bottleneck_mbps: None },
            n_flows: 2,
            alpha: 0.995,
            beta: 3.0,
            replicate: 0,
        };
        let stress = ScenarioKind::Stress { variant: Variant::TcpPr };
        let stray = Value::Object(vec![("variant".into(), Value::Str("NotAVariant".into()))]);
        assert!(!decodes(&fairness, &stray) && !decodes(&stress, &stray));
        assert!(as_u64(&Value::Int(-1)).is_none());
    }
}
