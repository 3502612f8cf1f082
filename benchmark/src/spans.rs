//! The benchmark's own spans: one around every call into a layer, recorded
//! from this side of the public API (spans inside the program are a later
//! change).
//!
//! Off (every end-to-end run) [`enter`] is one thread-local check, a few
//! times per simulation. On (the traced pass) spans accumulate in memory
//! and are written once, at exit, by [`drain`].

use std::cell::RefCell;
use std::time::Instant;

use serde::Value;

/// One finished span. Times are nanoseconds since recording was switched on.
#[derive(Debug, Clone)]
pub struct Span {
    pub id: usize,
    pub parent: Option<usize>,
    pub name: &'static str,
    /// Which instance of `name` this is — a variant, a metric — or empty.
    pub label: String,
    /// The workload (or `micro`) the span belongs to: the identifier every
    /// span of one request shares.
    pub workload: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

#[derive(Default)]
struct Recorder {
    /// Time zero; `None` until recording is first switched on.
    epoch: Option<Instant>,
    recording: bool,
    spans: Vec<Span>,
    open: Vec<usize>,
    workload: &'static str,
}

thread_local! {
    // Every span is opened from the thread that drives the benchmark; the
    // sweep's workers run inside one `cold`/`warm` span of that thread.
    static REC: RefCell<Recorder> = RefCell::new(Recorder::default());
}

/// Switches recording on. Time zero is the first call.
pub fn enable() {
    REC.with(|r| {
        let mut r = r.borrow_mut();
        r.epoch.get_or_insert_with(Instant::now);
        r.recording = true;
    });
}

/// Switches recording off until the next [`enable`]; open spans still close.
pub fn pause() {
    REC.with(|r| r.borrow_mut().recording = false);
}

/// Names the workload later spans belong to.
pub fn set_workload(workload: &'static str) {
    REC.with(|r| r.borrow_mut().workload = workload);
}

/// Closes its span when dropped.
pub struct Guard(Option<usize>);

/// Opens a span under the innermost open one.
pub fn enter(name: &'static str, label: &str) -> Guard {
    REC.with(|r| {
        let mut r = r.borrow_mut();
        let Some(epoch) = r.epoch.filter(|_| r.recording) else { return Guard(None) };
        let now = epoch.elapsed().as_nanos() as u64;
        let id = r.spans.len();
        let span = Span {
            id,
            parent: r.open.last().copied(),
            name,
            label: label.to_owned(),
            workload: r.workload,
            start_ns: now,
            end_ns: now,
        };
        r.spans.push(span);
        r.open.push(id);
        Guard(Some(id))
    })
}

impl Drop for Guard {
    fn drop(&mut self) {
        let Some(id) = self.0 else { return };
        REC.with(|r| {
            let mut r = r.borrow_mut();
            let Some(epoch) = r.epoch else { return };
            r.spans[id].end_ns = epoch.elapsed().as_nanos() as u64;
            // Guards nest lexically, but a panic caught mid-simulation
            // unwinds through several at once: close down to this one.
            while let Some(top) = r.open.pop() {
                if top == id {
                    break;
                }
            }
        });
    }
}

/// Switches recording off and returns every span as JSON, each with its
/// self time: its duration minus the part its children cover.
pub fn drain() -> Value {
    let spans = REC.with(|r| std::mem::take(&mut *r.borrow_mut()).spans);
    let mut child_ns = vec![0u64; spans.len()];
    for s in &spans {
        if let Some(p) = s.parent {
            child_ns[p] += s.end_ns - s.start_ns;
        }
    }
    Value::Array(
        spans
            .iter()
            .map(|s| {
                let dur = s.end_ns - s.start_ns;
                Value::Object(vec![
                    ("id".to_owned(), Value::UInt(s.id as u64)),
                    ("parent".to_owned(), s.parent.map_or(Value::Null, |p| Value::UInt(p as u64))),
                    ("workload".to_owned(), Value::Str(s.workload.to_owned())),
                    ("name".to_owned(), Value::Str(s.name.to_owned())),
                    ("label".to_owned(), Value::Str(s.label.clone())),
                    ("start_ns".to_owned(), Value::UInt(s.start_ns)),
                    ("end_ns".to_owned(), Value::UInt(s.end_ns)),
                    ("self_ns".to_owned(), Value::UInt(dur.saturating_sub(child_ns[s.id]))),
                ])
            })
            .collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_is_duration_minus_children() {
        enable();
        set_workload("w");
        {
            let _outer = enter("outer", "");
            std::thread::sleep(std::time::Duration::from_millis(2));
            {
                let _inner = enter("inner", "x");
                std::thread::sleep(std::time::Duration::from_millis(2));
            }
        }
        let Value::Array(spans) = drain() else { panic!("array") };
        assert_eq!(spans.len(), 2);
        let field = |v: &Value, k: &str| match v {
            Value::Object(f) => f.iter().find(|(n, _)| n == k).map(|(_, v)| v.clone()).unwrap(),
            _ => panic!("object"),
        };
        let num = |v: Value| match v {
            Value::UInt(n) => n,
            other => panic!("number, got {other:?}"),
        };
        assert_eq!(field(&spans[1], "parent"), Value::UInt(0));
        assert_eq!(field(&spans[0], "parent"), Value::Null);
        let outer = num(field(&spans[0], "end_ns")) - num(field(&spans[0], "start_ns"));
        let inner = num(field(&spans[1], "end_ns")) - num(field(&spans[1], "start_ns"));
        assert_eq!(num(field(&spans[0], "self_ns")), outer - inner);
        assert_eq!(num(field(&spans[1], "self_ns")), inner);
        assert!(matches!(enter("off", ""), Guard(None)), "drain switches recording off");
    }
}
