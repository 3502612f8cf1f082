//! Property tests for `netsim::trace::analysis`: each streaming helper is
//! pinned against a naive O(n²) reference implementation over randomly
//! generated record streams, so a future "optimization" that changes
//! semantics (running-max vs. all-pairs reordering, first- vs. last-match
//! injection lookup) fails loudly.

use std::collections::HashMap;

use netsim::ids::{FlowId, LinkId, NodeId};
use netsim::time::{SimDuration, SimTime};
use netsim::trace::{analysis, TraceEventKind, TraceRecord};
use proptest::prelude::*;

/// Decodes one sampled `(uid, at_ns, code)` triple into a record. The code
/// picks the event kind (and for deliveries, whether the packet is an ACK),
/// `seq` follows `uid` so reordering structure comes from uid sampling.
fn record(uid: u64, at_ns: u64, code: u64) -> TraceRecord {
    let link = LinkId::from_raw((code % 3) as u32);
    let kind = match code % 8 {
        0 => TraceEventKind::Injected,
        1 => TraceEventKind::Enqueued(link),
        2 => TraceEventKind::LinkTx(link),
        3 => TraceEventKind::QueueDrop(link),
        4 => TraceEventKind::RandomLoss(link),
        5 | 6 => TraceEventKind::Delivered(NodeId::from_raw(1)),
        _ => TraceEventKind::Duplicated(link),
    };
    TraceRecord {
        at: SimTime::from_nanos(at_ns),
        uid,
        flow: FlowId::from_raw((uid % 2) as u32),
        seq: Some(uid),
        is_ack: code % 8 == 6,
        kind,
    }
}

/// O(n²) reference: a data delivery is a reorder event iff *any* earlier
/// data delivery carried a larger sequence number.
fn naive_reorder_count(records: &[TraceRecord]) -> u64 {
    let mut count = 0;
    for (i, r) in records.iter().enumerate() {
        let (TraceEventKind::Delivered(_), Some(seq), false) = (r.kind, r.seq, r.is_ack) else {
            continue;
        };
        let preceded_by_larger = records[..i].iter().any(|p| {
            matches!(p.kind, TraceEventKind::Delivered(_))
                && !p.is_ack
                && p.seq.is_some_and(|s| s > seq)
        });
        if preceded_by_larger {
            count += 1;
        }
    }
    count
}

/// O(n²) reference: each delivery pairs with the *latest* preceding
/// injection of its uid; deliveries with no preceding injection are
/// skipped.
fn naive_one_way_delays(records: &[TraceRecord]) -> Vec<(u64, SimDuration)> {
    let mut out = Vec::new();
    for (i, r) in records.iter().enumerate() {
        if !matches!(r.kind, TraceEventKind::Delivered(_)) {
            continue;
        }
        let injection = records[..i]
            .iter()
            .rev()
            .find(|p| p.uid == r.uid && matches!(p.kind, TraceEventKind::Injected))
            .map(|p| p.at);
        if let Some(t0) = injection {
            out.push((r.uid, r.at.saturating_since(t0)));
        }
    }
    out
}

/// O(n²) reference for per-uid link paths: for every uid, the LinkTx links
/// in stream order.
fn naive_paths(records: &[TraceRecord]) -> HashMap<u64, Vec<LinkId>> {
    let mut map: HashMap<u64, Vec<LinkId>> = HashMap::new();
    for r in records {
        let path: Vec<LinkId> = records
            .iter()
            .filter(|p| p.uid == r.uid)
            .filter_map(|p| match p.kind {
                TraceEventKind::LinkTx(l) => Some(l),
                _ => None,
            })
            .collect();
        if !path.is_empty() {
            map.entry(r.uid).or_insert(path);
        }
    }
    map
}

fn materialize(raw: &[(u64, u64, u64)]) -> Vec<TraceRecord> {
    raw.iter().map(|&(uid, at_ns, code)| record(uid, at_ns, code)).collect()
}

proptest! {
    #[test]
    fn reorder_count_matches_the_all_pairs_definition(
        raw in collection::vec((0u64..12, 0u64..1_000_000, 0u64..16), 0..120),
    ) {
        let records = materialize(&raw);
        prop_assert_eq!(
            analysis::delivery_reorder_count(&records),
            naive_reorder_count(&records)
        );
    }

    #[test]
    fn one_way_delays_match_latest_injection_pairing(
        raw in collection::vec((0u64..6, 0u64..1_000_000, 0u64..16), 0..100),
    ) {
        let records = materialize(&raw);
        prop_assert_eq!(
            analysis::one_way_delays(&records),
            naive_one_way_delays(&records)
        );
    }

    #[test]
    fn paths_match_per_uid_link_sequences(
        raw in collection::vec((0u64..6, 0u64..1_000_000, 0u64..16), 0..100),
    ) {
        let records = materialize(&raw);
        prop_assert_eq!(analysis::paths(&records), naive_paths(&records));
    }

    #[test]
    fn reorder_count_is_zero_on_sorted_unique_deliveries(
        n in 0u64..60,
    ) {
        let records: Vec<TraceRecord> =
            (0..n).map(|i| record(i, i * 1_000, 5)).collect();
        prop_assert_eq!(analysis::delivery_reorder_count(&records), 0);
    }
}
