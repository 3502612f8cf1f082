//! Model-based equivalence test of TCP-PR's packet book.
//!
//! `tcp_pr::lists::PacketBook` keeps `to-be-ack` on a ring indexed by
//! `seq − base` and the deadline index as a sorted deque that a send
//! appends to and an in-order ACK pops. The reference here is the book it
//! replaced — a `BTreeMap` of records and a `BTreeSet` of `(sent_at, seq)`
//! (every method below is that book's, verbatim). Scripts interleave sends
//! (several at one instant, so a flush that resends a low sequence number
//! after a high one lands *inside* the index), cumulative ACKs (stale, in
//! range, beyond `snd_nxt`), drops of the earliest deadline and of
//! arbitrary outstanding packets, `memorize` snapshots and deferrals to a
//! floor before, at and after stamps already in the index; after **every**
//! step every accessor must return what the reference returns and
//! `check_invariants` must hold.

use std::collections::{BTreeMap, BTreeSet};

use netsim::time::{SimDuration, SimTime};
use proptest::prelude::*;
use tcp_pr::lists::{PacketBook, PacketRecord};

/// The B-tree packet book `PacketBook` replaced.
#[derive(Default)]
struct ModelBook {
    to_be_sent: BTreeSet<u64>,
    to_be_ack: BTreeMap<u64, PacketRecord>,
    send_index: BTreeSet<(SimTime, u64)>,
    memorize_count: usize,
    snd_nxt: u64,
}

impl ModelBook {
    fn send_next(&mut self, now: SimTime, cwnd: f64) -> (u64, bool) {
        let (seq, is_retransmit) = match self.to_be_sent.pop_first() {
            Some(seq) => (seq, true),
            None => {
                let seq = self.snd_nxt;
                self.snd_nxt += 1;
                (seq, false)
            }
        };
        let prev = self.to_be_ack.insert(
            seq,
            PacketRecord {
                sent_at: now,
                cwnd_at_send: cwnd,
                in_memorize: false,
                retransmitted: is_retransmit,
            },
        );
        assert!(prev.is_none(), "packet {seq} was already outstanding");
        self.send_index.insert((now, seq));
        (seq, is_retransmit)
    }

    fn ack_below(&mut self, cum_ack: u64) -> Option<(PacketRecord, usize)> {
        let mut acked = None;
        while let Some(entry) = self.to_be_ack.first_entry() {
            if *entry.key() >= cum_ack {
                break;
            }
            let (seq, record) = entry.remove_entry();
            self.send_index.remove(&(record.sent_at, seq));
            if record.in_memorize {
                self.memorize_count -= 1;
            }
            let (_, count) = acked.get_or_insert((record, 0));
            *count += 1;
        }
        while self.to_be_sent.first().is_some_and(|&seq| seq < cum_ack) {
            self.to_be_sent.pop_first();
        }
        acked
    }

    fn expired(&self, now: SimTime, mxrtt: SimDuration) -> Vec<u64> {
        self.send_index
            .iter()
            .take_while(|(sent_at, _)| sent_at.saturating_add(mxrtt) <= now)
            .map(|&(_, seq)| seq)
            .collect()
    }

    fn earliest_deadline(&self, mxrtt: SimDuration) -> Option<SimTime> {
        self.send_index.first().map(|&(sent_at, _)| sent_at.saturating_add(mxrtt))
    }

    fn mark_dropped(&mut self, seq: u64) -> PacketRecord {
        let record = self.to_be_ack.remove(&seq).expect("dropped packet must be outstanding");
        self.send_index.remove(&(record.sent_at, seq));
        if record.in_memorize {
            self.memorize_count -= 1;
        }
        self.to_be_sent.insert(seq);
        record
    }

    fn snapshot_memorize(&mut self) {
        for record in self.to_be_ack.values_mut() {
            record.in_memorize = true;
        }
        self.memorize_count = self.to_be_ack.len();
    }

    fn defer_memorize(&mut self, floor: SimTime) {
        let deferred: Vec<(u64, SimTime)> = self
            .to_be_ack
            .iter()
            .filter(|(_, r)| r.in_memorize && r.sent_at < floor)
            .map(|(&seq, r)| (seq, r.sent_at))
            .collect();
        for (seq, old) in deferred {
            self.send_index.remove(&(old, seq));
            self.send_index.insert((floor, seq));
            self.to_be_ack.get_mut(&seq).expect("present").sent_at = floor;
        }
    }
}

const MXRTT: SimDuration = SimDuration::from_millis(40);

/// Every accessor of the book against the reference.
fn compare(book: &PacketBook, model: &ModelBook, now: SimTime) -> Result<(), TestCaseError> {
    book.check_invariants();
    prop_assert_eq!(book.outstanding(), model.to_be_ack.len());
    prop_assert_eq!(book.pending_retransmits(), model.to_be_sent.len());
    prop_assert_eq!(book.memorize_len(), model.memorize_count);
    prop_assert_eq!(book.active_outstanding(), model.to_be_ack.len() - model.memorize_count);
    prop_assert_eq!(book.snd_nxt(), model.snd_nxt);
    prop_assert_eq!(book.first_outstanding(), model.to_be_ack.keys().next().copied());
    for seq in 0..model.snd_nxt + 2 {
        prop_assert_eq!(book.record(seq), model.to_be_ack.get(&seq), "record of {}", seq);
    }
    for mxrtt in [SimDuration::ZERO, MXRTT] {
        let expired = model.expired(now, mxrtt);
        prop_assert_eq!(book.first_expired(now, mxrtt), expired.first().copied());
        prop_assert_eq!(book.expired(now, mxrtt), expired);
        prop_assert_eq!(book.earliest_deadline(mxrtt), model.earliest_deadline(mxrtt));
    }
    Ok(())
}

proptest! {
    #[test]
    fn any_script_matches_the_btree_book(
        script in collection::vec((0u8..16, 0u64..64, 0u64..30), 1..400),
    ) {
        let (mut book, mut model) = (PacketBook::new(), ModelBook::default());
        let mut now = SimTime::ZERO;
        for (i, &(kind, n, dt)) in script.iter().enumerate() {
            // Two steps in three share their instant with the one before.
            if dt < 10 {
                now += SimDuration::from_millis(dt);
            }
            match kind {
                // A flush: up to four sends at this instant.
                0..=5 => {
                    for k in 0..=n % 4 {
                        let cwnd = (n + k) as f64 / 4.0;
                        prop_assert_eq!(book.send_next(now, cwnd), model.send_next(now, cwnd));
                    }
                }
                // A cumulative ACK around the oldest outstanding packet:
                // below it, a little above, or (n large) beyond `snd_nxt`.
                6..=9 => {
                    let oldest = model.to_be_ack.keys().next().copied().unwrap_or(model.snd_nxt);
                    let cum = (oldest + if n < 48 { n % 12 } else { n }).saturating_sub(3);
                    prop_assert_eq!(book.ack_below(cum), model.ack_below(cum), "ack_below({})", cum);
                }
                // The drop timer: the earliest deadline goes, as in `on_timer`.
                10 | 11 => {
                    if let Some(&seq) = model.expired(now, SimDuration::ZERO).first() {
                        prop_assert_eq!(book.mark_dropped(seq), model.mark_dropped(seq));
                    }
                }
                // Any outstanding packet dropped.
                12 => {
                    let outstanding: Vec<u64> = model.to_be_ack.keys().copied().collect();
                    if !outstanding.is_empty() {
                        let seq = outstanding[n as usize % outstanding.len()];
                        prop_assert_eq!(book.mark_dropped(seq), model.mark_dropped(seq));
                    }
                }
                13 => {
                    book.snapshot_memorize();
                    model.snapshot_memorize();
                }
                // A deferral to a floor before, at or after `now`.
                _ => {
                    let floor = SimTime::from_nanos(
                        (now.as_nanos() + n % 8 * 1_000_000).saturating_sub(4_000_000),
                    );
                    book.defer_memorize(floor);
                    model.defer_memorize(floor);
                }
            }
            if let Err(e) = compare(&book, &model, now) {
                prop_assert!(false, "after step {} ({}, {}, {}): {}", i, kind, n, dt, e);
            }
        }
    }
}
