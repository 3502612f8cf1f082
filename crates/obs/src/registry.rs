//! The profiler registry: a process-wide enable flag plus thread-local
//! accumulators.
//!
//! Every instrumentation site in the workspace calls through the free
//! functions here. When profiling is disabled (the default) each call is a
//! single relaxed atomic load followed by an immediate return — no
//! allocation, no locking, no map lookup — which is what lets the hooks stay
//! always-compiled in the sim hot path. When enabled, samples accumulate in
//! a thread-local [`ProfileReport`]; the sweep pool drains one report per
//! scenario with [`take`] and merges them in spec order, which keeps the
//! merged output independent of `--jobs`.
//!
//! Determinism boundary: everything except the `wall_*` family is a pure
//! function of the simulation (sim-time, event counts, queue depths). Wall
//! histograms measure host time and are kept in a separate report section
//! that byte-identity tests must exclude.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};

use serde::{Serialize, Value};

use crate::hist::LogHistogram;
use crate::span::SpanRecord;

/// Upper bound on retained spans per report; further spans only bump
/// `spans_dropped` and the per-kind count. Keeps long scenarios from turning
/// the profile into a full event trace.
pub const MAX_SPANS: usize = 4096;

static ENABLED: AtomicBool = AtomicBool::new(false);

thread_local! {
    static REGISTRY: RefCell<ProfileReport> = RefCell::new(ProfileReport::default());
    /// Ambient flow attribution: the simulator sets this around each agent
    /// callback so span sites deep inside sender state machines inherit the
    /// flow identity without threading it through every call signature.
    static CURRENT_FLOW: std::cell::Cell<Option<u64>> = const { std::cell::Cell::new(None) };
    /// Per-thread retained-span cap. Defaults to [`MAX_SPANS`]; forensic
    /// capture raises it for the duration of one instrumented run.
    static SPAN_CAPACITY: std::cell::Cell<usize> = const { std::cell::Cell::new(MAX_SPANS) };
}

/// Turns profiling on for the whole process (all threads see it).
pub fn enable() {
    ENABLED.store(true, Ordering::Relaxed);
}

/// Turns profiling off.
pub fn disable() {
    ENABLED.store(false, Ordering::Relaxed);
}

/// True if profiling is currently enabled. Instrumentation sites that need
/// to compute a sample (or time a region) should gate on this.
#[inline]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Adds `n` to the counter `key`.
#[inline]
pub fn count(key: &'static str, n: u64) {
    if !enabled() {
        return;
    }
    REGISTRY.with(|r| *entry_or_default(&mut r.borrow_mut().counters, key) += n);
}

/// Records `value` into the sim-domain histogram `key` (deterministic).
#[inline]
pub fn observe(key: &'static str, value: u64) {
    if !enabled() {
        return;
    }
    REGISTRY.with(|r| entry_or_default(&mut r.borrow_mut().sim_histograms, key).record(value));
}

/// Records `nanos` into the wall-clock histogram `key` (non-deterministic;
/// reported in a separate section).
#[inline]
pub fn observe_wall(key: &'static str, nanos: u64) {
    if !enabled() {
        return;
    }
    REGISTRY.with(|r| entry_or_default(&mut r.borrow_mut().wall_histograms, key).record(nanos));
}

/// Raises the gauge `key` to at least `value` (gauges merge by max).
#[inline]
pub fn gauge_max(key: &'static str, value: u64) {
    if !enabled() {
        return;
    }
    REGISTRY.with(|r| {
        let mut reg = r.borrow_mut();
        let g = entry_or_default(&mut reg.gauges, key);
        *g = (*g).max(value);
    });
}

/// Records a span. `detail` is only invoked when profiling is enabled, so
/// callers can pass a `format!` closure without paying for it on the
/// disabled path. The span inherits this thread's ambient flow attribution
/// (see [`set_current_flow`]).
#[inline]
pub fn span<F: FnOnce() -> String>(at_ns: u64, kind: &'static str, detail: F) {
    if !enabled() {
        return;
    }
    let record = SpanRecord { at_ns, kind, detail: detail(), flow: current_flow() };
    let cap = SPAN_CAPACITY.with(|c| c.get());
    REGISTRY.with(|r| r.borrow_mut().push_span_capped(record, cap));
}

/// Sets the ambient flow attribution for spans recorded on this thread.
/// The simulator calls this around agent callbacks; pass `None` to clear.
#[inline]
pub fn set_current_flow(flow: Option<u64>) {
    CURRENT_FLOW.with(|c| c.set(flow));
}

/// The ambient flow attribution on this thread, if any.
#[inline]
pub fn current_flow() -> Option<u64> {
    CURRENT_FLOW.with(|c| c.get())
}

/// Raises (or lowers) this thread's retained-span cap. Forensic capture
/// needs every CC transition of a multi-second scenario, which overflows
/// the default [`MAX_SPANS`] budget sized for profiling summaries. Returns
/// the previous capacity so callers can restore it.
pub fn set_span_capacity(cap: usize) -> usize {
    SPAN_CAPACITY.with(|c| c.replace(cap))
}

/// Drains this thread's accumulated report, leaving a fresh one behind.
pub fn take() -> ProfileReport {
    REGISTRY.with(|r| std::mem::take(&mut *r.borrow_mut()))
}

fn entry_or_default<'m, V: Default>(map: &'m mut BTreeMap<String, V>, key: &str) -> &'m mut V {
    if !map.contains_key(key) {
        map.insert(key.to_owned(), V::default());
    }
    map.get_mut(key).expect("just inserted")
}

/// Accumulated profiling output for one scenario (or, after merging, for a
/// whole sweep).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ProfileReport {
    /// Monotone event counters (merge: add).
    pub counters: BTreeMap<String, u64>,
    /// Histograms over sim-domain quantities (merge: bucketwise add).
    pub sim_histograms: BTreeMap<String, LogHistogram>,
    /// Histograms over host wall-clock nanoseconds (non-deterministic).
    pub wall_histograms: BTreeMap<String, LogHistogram>,
    /// High-water-mark gauges (merge: max).
    pub gauges: BTreeMap<String, u64>,
    /// Per-kind span counts — counted even once `spans` hits [`MAX_SPANS`].
    pub span_counts: BTreeMap<String, u64>,
    /// Retained span records, capped at [`MAX_SPANS`].
    pub spans: Vec<SpanRecord>,
    /// Spans not retained because the cap was reached.
    pub spans_dropped: u64,
}

impl ProfileReport {
    /// True if nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty()
            && self.sim_histograms.is_empty()
            && self.wall_histograms.is_empty()
            && self.gauges.is_empty()
            && self.span_counts.is_empty()
            && self.spans.is_empty()
            && self.spans_dropped == 0
    }

    fn push_span_capped(&mut self, record: SpanRecord, cap: usize) {
        *entry_or_default(&mut self.span_counts, record.kind) += 1;
        if self.spans.len() < cap {
            self.spans.push(record);
        } else {
            self.spans_dropped += 1;
        }
    }

    /// Merges `other` into `self`. Counters and span counts add, gauges max,
    /// histograms add bucketwise, spans append up to [`MAX_SPANS`]. Merging
    /// reports in a fixed order yields a fixed result regardless of how the
    /// reports were produced (worker threads, jobs count).
    pub fn merge(&mut self, other: &ProfileReport) {
        for (k, v) in &other.counters {
            *entry_or_default(&mut self.counters, k) += v;
        }
        for (k, h) in &other.sim_histograms {
            entry_or_default(&mut self.sim_histograms, k).absorb(h);
        }
        for (k, h) in &other.wall_histograms {
            entry_or_default(&mut self.wall_histograms, k).absorb(h);
        }
        for (k, v) in &other.gauges {
            let g = entry_or_default(&mut self.gauges, k);
            *g = (*g).max(*v);
        }
        for (k, v) in &other.span_counts {
            *entry_or_default(&mut self.span_counts, k) += v;
        }
        self.spans_dropped += other.spans_dropped;
        for s in &other.spans {
            if self.spans.len() < MAX_SPANS {
                self.spans.push(s.clone());
            } else {
                self.spans_dropped += 1;
            }
        }
    }

    /// The deterministic report section: everything that is a pure function
    /// of the simulation. Byte-identical across `--jobs` counts.
    pub fn deterministic_value(&self) -> Value {
        Value::Object(vec![
            ("counters".to_owned(), self.counters.to_value()),
            ("sim_histograms".to_owned(), self.sim_histograms.to_value()),
            ("gauges".to_owned(), self.gauges.to_value()),
            ("span_counts".to_owned(), self.span_counts.to_value()),
            ("spans_dropped".to_owned(), Value::UInt(self.spans_dropped)),
            ("spans".to_owned(), Value::Array(self.spans.iter().map(|s| s.to_value()).collect())),
        ])
    }

    /// The wall-clock report section (host timing; varies run to run).
    pub fn wall_clock_value(&self) -> Value {
        Value::Object(vec![("wall_histograms".to_owned(), self.wall_histograms.to_value())])
    }
}

impl Serialize for ProfileReport {
    fn to_value(&self) -> Value {
        Value::Object(vec![
            ("deterministic".to_owned(), self.deterministic_value()),
            // Clearly labelled so consumers (and byte-identity tests) know
            // to exclude this section.
            ("wall_clock_nondeterministic".to_owned(), self.wall_clock_value()),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Serializes accesses to the process-wide ENABLED flag across tests.
    fn with_enabled<R>(f: impl FnOnce() -> R) -> R {
        use std::sync::Mutex;
        static LOCK: Mutex<()> = Mutex::new(());
        let _g = LOCK.lock().unwrap_or_else(|e| e.into_inner());
        let _ = take();
        set_current_flow(None);
        enable();
        let out = f();
        disable();
        let _ = take();
        set_current_flow(None);
        out
    }

    #[test]
    fn disabled_records_nothing() {
        // Under the lock: a bare `disable()` here races the tests that
        // record, and empties their reports.
        with_enabled(|| {
            disable();
            count("x", 1);
            observe("y", 2);
            gauge_max("z", 3);
            span(0, "k", || "unused".to_owned());
            assert!(take().is_empty());
        });
    }

    #[test]
    fn enabled_records_and_take_resets() {
        let report = with_enabled(|| {
            count("ev", 2);
            count("ev", 3);
            observe("depth", 7);
            gauge_max("peak", 9);
            gauge_max("peak", 4);
            span(10, "tcppr.backoff", || "x2".to_owned());
            take()
        });
        assert_eq!(report.counters.get("ev"), Some(&5));
        assert_eq!(report.sim_histograms.get("depth").map(|h| h.count), Some(1));
        assert_eq!(report.gauges.get("peak"), Some(&9));
        assert_eq!(report.span_counts.get("tcppr.backoff"), Some(&1));
        assert_eq!(report.spans.len(), 1);
        assert!(take().is_empty(), "take() must leave a fresh registry");
    }

    #[test]
    fn span_cap_preserves_counts() {
        let report = with_enabled(|| {
            for i in 0..(MAX_SPANS as u64 + 10) {
                span(i, "k", String::new);
            }
            take()
        });
        assert_eq!(report.spans.len(), MAX_SPANS);
        assert_eq!(report.spans_dropped, 10);
        assert_eq!(report.span_counts.get("k"), Some(&(MAX_SPANS as u64 + 10)));
    }

    #[test]
    fn spans_inherit_ambient_flow() {
        let report = with_enabled(|| {
            span(1, "k", String::new);
            set_current_flow(Some(2));
            span(2, "k", String::new);
            set_current_flow(None);
            span(3, "k", String::new);
            take()
        });
        let flows: Vec<Option<u64>> = report.spans.iter().map(|s| s.flow).collect();
        assert_eq!(flows, vec![None, Some(2), None]);
    }

    #[test]
    fn span_capacity_is_adjustable_per_thread() {
        let report = with_enabled(|| {
            let prev = set_span_capacity(2);
            for i in 0..5u64 {
                span(i, "k", String::new);
            }
            let out = take();
            set_span_capacity(prev);
            out
        });
        assert_eq!(report.spans.len(), 2);
        assert_eq!(report.spans_dropped, 3);
        assert_eq!(report.span_counts.get("k"), Some(&5));
    }

    #[test]
    fn merge_is_order_insensitive_for_scalars() {
        let mut a = ProfileReport::default();
        a.counters.insert("c".to_owned(), 1);
        a.gauges.insert("g".to_owned(), 5);
        let mut b = ProfileReport::default();
        b.counters.insert("c".to_owned(), 2);
        b.gauges.insert("g".to_owned(), 3);

        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b.clone();
        ba.merge(&a);
        assert_eq!(ab.counters, ba.counters);
        assert_eq!(ab.gauges, ba.gauges);
        assert_eq!(ab.counters.get("c"), Some(&3));
        assert_eq!(ab.gauges.get("g"), Some(&5));
    }
}
