//! The names this benchmark speaks: workloads, end-to-end metrics and
//! per-layer metrics. `BENCHMARK.json` repeats them for the driver; a
//! self-test keeps the two in step.

use experiments::variants::Variant;

use crate::stats::Summary;

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

/// One metric the benchmark emits.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricDef {
    pub name: String,
    pub unit: &'static str,
    pub better: Better,
}

fn def(name: &str, unit: &'static str, better: Better) -> MetricDef {
    MetricDef { name: name.to_owned(), unit, better }
}

/// Simulated seconds advanced per wall second of the timed section.
pub const SIM_S_PER_WALL_S: &str = "sim_s_per_wall_s";
/// Wall seconds to set up one repetition's simulations.
pub const SETUP_S: &str = "setup_s";
/// Failed operations ÷ attempted. Printed and compared, but not listed in
/// `BENCHMARK.json`, whose end-to-end metrics may never read 0: the driver
/// takes it from the result line's `failed` and `attempted`.
pub const FAIL_SHARE: &str = "fail_share";

/// End-to-end metrics, in print order.
pub fn end_to_end() -> Vec<MetricDef> {
    vec![def(SIM_S_PER_WALL_S, "sim-s/wall-s", Better::Higher), def(SETUP_S, "s", Better::Lower)]
}

/// The key each sender variant goes by in metric names and span labels.
pub fn variant_key(v: Variant) -> &'static str {
    match v {
        Variant::TcpPr => "tcppr",
        Variant::TdFr => "tdfr",
        Variant::DsackNm => "dsack_nm",
        Variant::IncBy1 => "inc1",
        Variant::IncByN => "incn",
        Variant::Ewma => "ewma",
        Variant::Sack => "sack",
        Variant::NewReno => "newreno",
        Variant::Reno => "reno",
        Variant::Eifel => "eifel",
        Variant::Door => "door",
        Variant::Cubic => "cubic",
        Variant::Bbr => "bbr",
    }
}

/// Per-layer metrics, in print order. Layer names are the repo's modules.
pub fn per_layer() -> Vec<MetricDef> {
    use Better::{Higher, Lower};
    let mut m = vec![
        def("sim.events_per_pkt", "events/pkt", Lower),
        def("sim.wall_ns_per_pkt", "ns/pkt", Lower),
        def("event.share_arrive", "share", Higher),
        def("event.share_link_ready", "share", Lower),
        def("event.share_timer", "share", Lower),
        def("event.heap_depth_mean", "events", Lower),
        def("event.heap_peak", "events", Lower),
        def("event.record_bytes", "B", Lower),
        def("event.hold_ns.d16", "ns", Lower),
        def("event.hold_ns.d1k", "ns", Lower),
        def("event.hold_ns.d16k", "ns", Lower),
        def("fwd.ns_per_hop.idle", "ns", Lower),
        def("fwd.events_per_hop.idle", "events/hop", Lower),
        def("fwd.ns_per_hop.congested", "ns", Lower),
        def("link.queue_depth_mean", "pkts", Lower),
        def("link.drop_share", "share", Lower),
        def("impair.process_ns", "ns", Lower),
        def("receiver.on_data_ns.inorder", "ns", Lower),
        def("receiver.on_data_ns.reordered", "ns", Lower),
        def("receiver.late_share", "share", Lower),
    ];
    for v in Variant::ALL {
        for order in ["inorder", "reordered"] {
            m.push(def(&format!("sender.{}.on_ack_ns.{order}", variant_key(v)), "ns", Lower));
        }
    }
    m.extend([
        def("sender.rtx_share", "share", Lower),
        def("alloc.per_pkt", "allocs/pkt", Lower),
        def("alloc.bytes_per_pkt", "B/pkt", Lower),
        def("alloc.peak_live_kb", "KiB", Lower),
        def("workload.topo_build_us", "us", Lower),
        def("spec.hash_ns", "ns", Lower),
        def("cache.store_us", "us", Lower),
        def("cache.load_us", "us", Lower),
        def("json.encode_mb_per_s", "MB/s", Higher),
        def("sweep.resume_us_per_scenario", "us", Lower),
        def("sweep.speedup_2j", "ratio", Higher),
        def("obs.slowdown", "ratio", Lower),
        def("yardstick.slowdown", "ratio", Lower),
    ]);
    m
}

/// One measured value, as printed and as written to `results.json`.
#[derive(Debug, Clone, PartialEq)]
pub struct Measured {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
    /// The summary of the readings behind `value`, when there were several.
    pub spread: Option<Summary>,
    /// A count made by the program that must repeat bit-for-bit on the same
    /// commit, seed and workload; `compare` fails on any difference.
    pub exact: bool,
}

/// Collects values against the metric tables, so a misspelt or unlisted
/// name is a panic in the benchmark and not a silently missing metric.
#[derive(Debug)]
pub struct Sheet {
    defs: Vec<MetricDef>,
    values: Vec<Measured>,
}

impl Sheet {
    pub fn new(defs: Vec<MetricDef>) -> Self {
        Sheet { defs, values: Vec::new() }
    }

    fn push(&mut self, name: &str, value: f64, spread: Option<Summary>, exact: bool) {
        let unit = self
            .defs
            .iter()
            .find(|d| d.name == name)
            .unwrap_or_else(|| panic!("metric {name} is not in the metric table"))
            .unit;
        assert!(self.values.iter().all(|m| m.name != name), "metric {name} measured twice");
        assert!(value.is_finite(), "metric {name} is not finite: {value}");
        self.values.push(Measured { name: name.to_owned(), value, unit, spread, exact });
    }

    /// A timing or ratio: free to vary between runs.
    pub fn timing(&mut self, name: &str, value: f64) {
        self.push(name, value, None, false);
    }

    /// The median of several readings.
    pub fn median(&mut self, name: &str, s: Summary) {
        self.push(name, s.median, Some(s), false);
    }

    /// A count that must repeat bit-for-bit.
    pub fn count(&mut self, name: &str, value: f64) {
        self.push(name, value, None, true);
    }

    /// Takes over values another sheet of the same table measured.
    pub fn adopt(&mut self, values: &[Measured]) {
        for m in values {
            self.push(&m.name, m.value, m.spread, m.exact);
        }
    }

    /// The values measured so far, in the order they came.
    pub fn into_values(self) -> Vec<Measured> {
        self.values
    }

    /// Every metric of the table, in table order.
    ///
    /// # Panics
    ///
    /// Panics if a metric of the table was not measured.
    pub fn finish(self) -> Vec<Measured> {
        let Sheet { defs, mut values } = self;
        defs.iter()
            .map(|d| {
                let i = values
                    .iter()
                    .position(|m| m.name == d.name)
                    .unwrap_or_else(|| panic!("metric {} was not measured", d.name));
                values.swap_remove(i)
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn per_layer_names_are_unique_and_cover_every_variant() {
        let defs = per_layer();
        let mut names: Vec<&str> = defs.iter().map(|d| d.name.as_str()).collect();
        names.sort_unstable();
        let before = names.len();
        names.dedup();
        assert_eq!(names.len(), before);
        assert_eq!(defs.iter().filter(|d| d.name.starts_with("sender.")).count(), 13 * 2 + 1);
    }

    #[test]
    fn a_sheet_returns_table_order() {
        let mut s = Sheet::new(end_to_end());
        s.timing(SETUP_S, 0.5);
        s.timing(SIM_S_PER_WALL_S, 100.0);
        let names: Vec<String> = s.finish().into_iter().map(|m| m.name).collect();
        assert_eq!(names, [SIM_S_PER_WALL_S, SETUP_S]);
    }

    #[test]
    #[should_panic(expected = "not in the metric table")]
    fn a_sheet_rejects_an_unlisted_metric() {
        Sheet::new(end_to_end()).timing("latency_ms", 1.0);
    }
}
