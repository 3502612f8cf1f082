//! The profile gate table: exact counts of `repro profile cc-smoke --quick`
//! and `repro profile scale-smoke --quick` that hold what this reproduction
//! measures about its own cost, one row each. Figures quoted are cc-smoke's
//! (EXPERIMENTS.md has their history); an absent counter is 0.

#[path = "determinism/table.rs"]
mod table;

use std::panic::{catch_unwind, AssertUnwindSafe};

use experiments::sweep::decode::{as_u64, get};
use serde::Value;

/// One grid's `results/profile.json`: its text and its deterministic section.
struct Profile(String, Value);

impl Profile {
    fn number(&self, section: &str, key: &str) -> Option<u64> {
        get(&self.1, section).and_then(|s| get(s, key)).and_then(as_u64)
    }

    fn counter(&self, key: &str) -> u64 {
        self.number("counters", key).unwrap_or(0)
    }

    /// A sim-time histogram's `[count, sum, max]`.
    fn histogram(&self, key: &str) -> [u64; 3] {
        let h = get(&self.1, "sim_histograms").and_then(|h| get(h, key)).expect(key);
        ["count", "sum", "max"].map(|f| get(h, f).and_then(as_u64).expect(f))
    }
}

/// `(gate, check)`: the check reads the cc-smoke profile, then the
/// scale-smoke one.
type Gate = (&'static str, fn(&Profile, &Profile));

const GATES: [Gate; 10] = [
    ("The profile artifact carries counters, histograms and spans", |cc, _| {
        let keys = ["deterministic", "wall_clock_nondeterministic", "counters", "sim_histograms"];
        for key in keys.into_iter().chain(["span_counts", "event.arrive"]) {
            assert!(cc.0.contains(&format!("\"{key}\"")), "missing {key}");
        }
    }),
    // One pending pop per timer: `event.timer` is 3.4 % of `event.arrive`
    // (13.7 % when every re-arm was pushed). A pop that did not fire was
    // deferred to a later deadline or stale; the fires are what is left.
    ("Timer pops stay a sliver of the event count, each one accounted for", |cc, _| {
        let (timer, arrive) = (cc.counter("event.timer"), cc.counter("event.arrive"));
        assert!(0 < 20 * timer && 20 * timer < arrive, "{timer} {arrive}");
        for t in ["timer", "aux_timer"] {
            let idle = cc.counter(&format!("{t}.deferred")) + cc.counter(&format!("{t}.stale"));
            assert!(idle < cc.counter(&format!("event.{t}")), "{t}: no pop fired");
        }
    }),
    // One sample of each per data arrival; a buffer cannot be in more pieces
    // than it has segments.
    ("The reorder buffer is profiled, in segments and in runs", |cc, _| {
        let ([buffered, _, buffered_max], [runs, _, runs_max]) =
            (cc.histogram("receiver.buffered"), cc.histogram("receiver.runs"));
        assert!(buffered > 0 && runs == buffered && runs_max <= buffered_max);
    }),
    // One sample of each per dispatched event: all pending events, the keys
    // in the packet heap, the timer pops in theirs. Arrivals ride their
    // link's lane behind one key and timers wait apart, so the packet heap
    // holds 15.3 % of what is pending (19 % while timers were in it).
    ("The packet heap holds a key per busy link, not every pending arrival or timer", |cc, _| {
        let [count, pending, pending_max] = cc.histogram("event.pending");
        let [heap_count, heap, heap_max] = cc.histogram("event.heap_depth");
        let [timer_count, timers, _] = cc.histogram("event.timer_depth");
        assert!(count > 0 && heap_count == count && timer_count == count);
        assert!(heap_max <= pending_max && heap + timers <= pending, "{heap} {timers} {pending}");
        assert!(4 * heap < pending && cc.counter("arrive.laned") > 0, "{heap} {pending}");
    }),
    // A `LinkReady`, a timer pop and a laned arrival are rebuilt from their
    // 16-byte key; only overtakers and admin / route / breakpoint events take
    // a payload slot: 15,279 = 15,247 + 32, where 24-byte keys put 236,804.
    ("Hot events ride in their key", |cc, _| {
        let (slotted, overtook) = (cc.counter("payload.slotted"), cc.counter("arrive.overtook"));
        let admin = ["event.link_admin", "event.install_route", "event.breakpoint"];
        let admin: u64 = admin.map(|key| cc.counter(key)).iter().sum();
        assert!(overtook <= slotted && slotted <= overtook + admin, "{slotted} {overtook} {admin}");
    }),
    // A sender resolves its destination's agent once and the packet carries
    // it: 24 `(node, flow)` searches serve 750,251 arrivals.
    ("A delivery does not search for its agent", |cc, _| {
        let (lookups, arrive) = (cc.counter("agent.lookups"), cc.counter("event.arrive"));
        assert!(0 < lookups && 1000 * lookups < arrive, "{lookups} {arrive}");
    }),
    // `sender.ack_steps` is every loop iteration of the TCP-PR, TCP-SACK and
    // BBR ACK paths: 290,187 for 74,429 ACKs + 99,540 changed segments, 1.67
    // a piece; the per-segment scoreboard took 337 a piece.
    ("An ACK costs what it changes, not what is outstanding", |cc, _| {
        let [acks, changes, steps] =
            ["acks", "ack_changes", "ack_steps"].map(|k| cc.counter(&format!("sender.{k}")));
        assert!(0 < acks && 0 < changes && steps <= 2 * (acks + changes), "{steps} {acks}");
    }),
    // The most packets one simulation held at once: the slots its arena grew to.
    ("The packet arena is profiled", |cc, _| {
        assert!(cc.number("gauges", "packet.live_peak").is_some_and(|peak| 0 < peak));
        assert!(cc.number("gauges", "event.heap_peak").is_some());
    }),
    // A stub (a host on its one link) copies its switch's routes: on
    // scale-smoke 88 Dijkstra runs route 120 nodes.
    ("Routes are solved for transit nodes only", |_, scale| {
        let (solved, nodes) = (scale.counter("routing.solved"), scale.counter("routing.nodes"));
        assert!(0 < solved && solved < nodes, "{solved} {nodes}");
    }),
    // A protocol law (ROADMAP 5a): no agent asks for an instant before `now`.
    ("No agent arms a timer in the past", |cc, scale| {
        assert_eq!([cc, scale].map(|p| p.counter("timer.armed_past")), [0, 0]);
    }),
];

#[test]
fn every_profile_gate_holds() {
    let [cc, scale] = ["cc-smoke", "scale-smoke"].map(profile);
    let failed: Vec<&str> = GATES
        .iter()
        .filter(|(_, check)| catch_unwind(AssertUnwindSafe(|| check(&cc, &scale))).is_err())
        .map(|(gate, _)| *gate)
        .collect();
    assert!(failed.is_empty(), "profile gates failed: {failed:#?}");
}

/// Runs `repro profile <grid> --quick` in a fresh directory and parses the
/// whole artifact.
fn profile(grid: &str) -> Profile {
    let dir = table::scratch(&format!("gates-{grid}"));
    table::repro(&dir, &["profile", grid, "--quick", "--jobs", "2"]);
    let text = std::fs::read_to_string(dir.join("results/profile.json")).expect("profile.json");
    std::fs::remove_dir_all(&dir).ok();
    let value = serde_json::from_str(&text).expect("profile.json parses");
    Profile(text, get(&value, "deterministic").expect("deterministic section").clone())
}
