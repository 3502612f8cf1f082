//! Reads values back out of serialized [`Value`] trees.
//!
//! The vendored serde shim is one-directional (`Serialize` renders to a
//! [`Value`]); the sweep cache needs the other direction. Every scenario
//! kind's outcome reads back through [`crate::cell`]'s one metric-list
//! decoder ([`CellReport::decode`]); this module holds the accessors it
//! and the other readers share. They accept exactly the shapes the
//! serializer emits plus the integer / float variant blurring the JSON
//! printer introduces (`1.0` prints as `1` and parses back as an unsigned
//! integer).

use serde::Value;

use crate::cell::{CellReport, Metric};
use crate::sweep::spec::ScenarioKind;

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

/// Whether `outcome` reads back as the result a scenario of `kind`
/// produces — the test a cache entry must pass to count as a hit.
pub(crate) fn decodes(kind: &ScenarioKind, outcome: &Value) -> bool {
    CellReport::decode(Metric::list(kind), outcome).is_some()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::variants::Variant;

    #[test]
    fn decoders_reject_wrong_shapes() {
        let fairness = ScenarioKind::Fairness {
            topology: crate::sweep::spec::TopologySpec::Dumbbell { bottleneck_mbps: None },
            n_flows: 2,
            alpha: 0.995,
            beta: 3.0,
            replicate: 0,
        };
        let stress = ScenarioKind::Stress { variant: Variant::TcpPr };
        let stray = Value::Object(vec![("variant".into(), Value::Str("NotAVariant".into()))]);
        assert!(!decodes(&fairness, &Value::Null));
        assert!(!decodes(&fairness, &stray) && !decodes(&stress, &stray));
        assert!(as_u64(&Value::Int(-1)).is_none());
    }
}
