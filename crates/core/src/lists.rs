//! Packet bookkeeping: the paper's `to-be-sent`, `to-be-ack` and `memorize`
//! lists.
//!
//! Every data segment a TCP-PR sender handles lives in exactly one of two
//! places: pending transmission (`to-be-sent`, plus the implicit tail of
//! never-sent sequence numbers) or awaiting acknowledgment (`to-be-ack`).
//! The `memorize` list is represented as a flag on `to-be-ack` entries plus
//! a counter, matching the paper's Remark 1 (a flag in `sk_buff` — no extra
//! memory). Sequence numbers are dense between the cumulative ACK and
//! `snd_nxt`, so `to-be-ack` is a ring indexed by `seq − base`, and send
//! stamps only grow, so the deadline index is a sorted deque a send appends
//! to and an in-order ACK pops: an ACK costs the packets it acknowledges.

use std::collections::{BTreeSet, VecDeque};

use netsim::time::{SimDuration, SimTime};
use transport::seq_ring::SeqRing;

/// Per-outstanding-packet state stored in the `to-be-ack` list.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PacketRecord {
    /// When this packet was (last) transmitted — the paper's `time(n)`.
    pub sent_at: SimTime,
    /// The congestion window at transmission time — the paper's `cwnd(n)`.
    /// Window halvings use this snapshot, which makes the algorithm
    /// insensitive to the delay between a drop and its detection.
    pub cwnd_at_send: f64,
    /// True if the packet is in the `memorize` list: it was outstanding when
    /// the window was last halved, so its drop must not halve the window
    /// again.
    pub in_memorize: bool,
    /// True if this sequence number has been transmitted more than once.
    /// An ACK triggered by such a packet is ambiguous (it may acknowledge
    /// an older copy), so it must not produce an RTT sample — Karn's
    /// algorithm. Without this, an ACK of the *original* arriving just
    /// after a retransmission yields a near-zero sample, and for small α
    /// the `ewrtt` estimator collapses below the true RTT, locking the
    /// sender into a spurious-timeout storm.
    pub retransmitted: bool,
}

/// The three lists of Table 1, with a time-ordered index for efficient
/// earliest-deadline queries.
#[derive(Debug, Default)]
pub struct PacketBook {
    to_be_sent: BTreeSet<u64>,
    /// Empty where a packet is declared dropped and not yet resent.
    to_be_ack: SeqRing<PacketRecord>,
    /// Sorted `(sent_at, seq)` index over `to_be_ack` for deadline scans;
    /// its length is `|to-be-ack|`.
    send_index: VecDeque<(SimTime, u64)>,
    memorize_count: usize,
    /// Next never-before-sent sequence number.
    snd_nxt: u64,
    /// Loop iterations since [`PacketBook::take_steps`].
    steps: u64,
}

impl PacketBook {
    /// Creates an empty book.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of outstanding (sent, unacknowledged) packets: `|to-be-ack|`.
    pub fn outstanding(&self) -> usize {
        self.send_index.len()
    }

    /// Number of packets queued for (re)transmission, excluding the implicit
    /// infinite tail of new data.
    pub fn pending_retransmits(&self) -> usize {
        self.to_be_sent.len()
    }

    /// Number of packets currently in the `memorize` list.
    pub fn memorize_len(&self) -> usize {
        self.memorize_count
    }

    /// Next never-sent sequence number.
    pub fn snd_nxt(&self) -> u64 {
        self.snd_nxt
    }

    /// The record for outstanding packet `seq`, if any.
    pub fn record(&self, seq: u64) -> Option<&PacketRecord> {
        self.to_be_ack.get(seq)
    }

    /// The smallest outstanding sequence number, if any.
    pub fn first_outstanding(&self) -> Option<u64> {
        self.to_be_ack.iter().next().map(|(seq, _)| seq)
    }

    /// Takes `key` out of the send index: off the front for an in-order ACK.
    fn index_remove(&mut self, key: (SimTime, u64)) {
        let in_order = self.send_index.front() == Some(&key);
        let at = if in_order { 0 } else { self.send_index.binary_search(&key).expect("indexed") };
        self.send_index.remove(at);
    }

    /// Chooses the next packet to transmit: the smallest sequence number in
    /// `to-be-sent`, else the next new segment. Returns `(seq, is_retransmit)`
    /// and moves the packet to `to-be-ack` stamped with `now` and `cwnd`.
    pub fn send_next(&mut self, now: SimTime, cwnd: f64) -> (u64, bool) {
        let (seq, is_retransmit) = match self.to_be_sent.pop_first() {
            Some(seq) => (seq, true),
            None => {
                let seq = self.snd_nxt;
                self.snd_nxt += 1;
                (seq, false)
            }
        };
        debug_assert!(self.to_be_ack.get(seq).is_none(), "packet {seq} was already outstanding");
        let record = PacketRecord {
            sent_at: now,
            cwnd_at_send: cwnd,
            in_memorize: false,
            retransmitted: is_retransmit,
        };
        self.to_be_ack.set(seq, record);
        // At the back, unless a flush at this instant already resent a higher
        // `seq` or a deferred stamp lies ahead of `now`.
        let later = self.send_index.iter().rev().take_while(|&&key| key > (now, seq)).count();
        self.send_index.insert(self.send_index.len() - later, (now, seq));
        self.steps += 1;
        (seq, is_retransmit)
    }

    /// Acknowledges every outstanding packet below `cum_ack`, returning the
    /// record of the lowest one removed and how many were removed (`None` if
    /// the ACK covered nothing outstanding). Also drops them from `memorize`
    /// (Table 1's ACK handler) and from `to-be-sent` (a retransmission that
    /// became unnecessary).
    pub fn ack_below(&mut self, cum_ack: u64) -> Option<(PacketRecord, usize)> {
        let mut acked = None;
        // `snd_nxt` does not follow an ACK beyond it, so neither may the ring.
        while let Some((seq, slot)) = self.to_be_ack.pop_below(cum_ack.min(self.snd_nxt)) {
            self.steps += 1;
            let Some(record) = slot else { continue };
            self.index_remove((record.sent_at, seq));
            if record.in_memorize {
                self.memorize_count -= 1;
            }
            let (_, count) = acked.get_or_insert((record, 0));
            *count += 1;
        }
        // Retransmissions that were queued but are now acknowledged.
        while self.to_be_sent.first().is_some_and(|&seq| seq < cum_ack) {
            self.to_be_sent.pop_first();
        }
        acked
    }

    /// The outstanding packet with the earliest drop deadline, if that
    /// deadline `sent_at + mxrtt` has passed at `now`.
    pub fn first_expired(&self, now: SimTime, mxrtt: SimDuration) -> Option<u64> {
        let &(sent_at, seq) = self.send_index.front()?;
        (sent_at.saturating_add(mxrtt) <= now).then_some(seq)
    }

    /// All outstanding packets whose drop deadline `sent_at + mxrtt` has
    /// passed at `now`, in deadline order.
    pub fn expired(&self, now: SimTime, mxrtt: SimDuration) -> Vec<u64> {
        self.send_index
            .iter()
            .take_while(|(sent_at, _)| sent_at.saturating_add(mxrtt) <= now)
            .map(|&(_, seq)| seq)
            .collect()
    }

    /// The earliest drop deadline among outstanding packets.
    pub fn earliest_deadline(&self, mxrtt: SimDuration) -> Option<SimTime> {
        self.send_index.front().map(|&(sent_at, _)| sent_at.saturating_add(mxrtt))
    }

    /// Declares outstanding packet `seq` dropped: removes it from
    /// `to-be-ack` (and `memorize`) and queues it on `to-be-sent`.
    /// Returns the removed record.
    ///
    /// # Panics
    ///
    /// Panics if `seq` is not outstanding.
    pub fn mark_dropped(&mut self, seq: u64) -> PacketRecord {
        let slot = self.to_be_ack.slot_mut(seq).and_then(Option::take);
        let record = slot.expect("dropped packet must be outstanding");
        self.index_remove((record.sent_at, seq));
        if record.in_memorize {
            self.memorize_count -= 1;
        }
        self.to_be_sent.insert(seq);
        record
    }

    /// Takes the `memorize := to-be-ack` snapshot: flags every currently
    /// outstanding packet and restarts its drop timer from `now`.
    ///
    /// Re-stamping is a deliberate reproduction decision: the memorized
    /// flight's fate only becomes known once the halving's retransmission
    /// completes a round trip (cumulative ACKs cannot advance past the
    /// hole before that). Without a fresh deadline the entire stale flight
    /// expires spuriously *before* the recovery ACK arrives, which would
    /// turn every single loss into an "extreme loss" burst. Genuinely lost
    /// packets still expire one `mxrtt` later and are counted by `cburst`.
    /// The memorized packets keep their original send stamps (and therefore
    /// their original deadlines); [`PacketBook::defer_memorize`] suspends
    /// those deadlines while a hole ahead of them is being repaired.
    pub fn snapshot_memorize(&mut self) {
        self.to_be_ack.values_mut().for_each(|record| record.in_memorize = true);
        self.memorize_count = self.outstanding();
    }

    /// Raises every memorized packet's effective send stamp to at least
    /// `floor`, postponing its drop deadline accordingly.
    ///
    /// Called when a retransmission is put on the wire: until that
    /// retransmission completes a round trip, cumulative ACKs cannot move
    /// past the hole it repairs, so the continued silence of the memorized
    /// packets behind it carries no information — their timers must not run
    /// during that interval. (This keeps one congestion event from being
    /// misread as an extreme-loss burst, while a genuine blackout — where
    /// the retransmission itself dies — still expires the whole flight and
    /// trips the extreme-loss counter.)
    pub fn defer_memorize(&mut self, floor: SimTime) {
        // A re-stamped entry moves behind the stamps below `floor` that stay,
        // in among those already at `floor`: one sort of that stretch.
        let index = self.send_index.make_contiguous();
        let through = index.partition_point(|&(at, _)| at <= floor);
        for (at, seq) in index[..through].iter_mut().filter(|(at, _)| *at < floor) {
            let record = self.to_be_ack.slot_mut(*seq).and_then(Option::as_mut);
            let record = record.expect("index tracks to-be-ack");
            if record.in_memorize {
                (record.sent_at, *at) = (floor, floor);
            }
        }
        self.steps += through as u64;
        index[..through].sort_unstable();
    }

    /// Outstanding packets excluding the memorized stale flight — the
    /// window-occupancy figure used by `flush-cwnd` (memorized packets are
    /// either already sitting in the receiver's reorder buffer or lost;
    /// counting them against the halved window would deadlock the
    /// retransmission that resolves them).
    pub fn active_outstanding(&self) -> usize {
        self.outstanding() - self.memorize_count
    }

    /// Loop iterations since the last call (`sender.ack_steps`).
    pub fn take_steps(&mut self) -> u64 {
        std::mem::take(&mut self.steps)
    }

    /// Checks internal invariants (used by tests and debug assertions).
    pub fn check_invariants(&self) {
        assert_eq!(self.send_index.len(), self.to_be_ack.iter().count(), "index tracks to-be-ack");
        assert!(self.send_index.iter().zip(self.send_index.iter().skip(1)).all(|(a, b)| a < b));
        let flagged = self.to_be_ack.iter().filter(|(_, r)| r.in_memorize).count();
        assert_eq!(flagged, self.memorize_count, "memorize counter matches flags");
        for seq in &self.to_be_sent {
            assert!(self.to_be_ack.get(*seq).is_none(), "packet {seq} in both lists");
            assert!(*seq < self.snd_nxt, "to-be-sent may only hold already-sent packets");
        }
        for (seq, record) in self.to_be_ack.iter() {
            assert!(seq < self.snd_nxt, "outstanding packet {seq} beyond snd_nxt");
            assert!(self.send_index.binary_search(&(record.sent_at, seq)).is_ok());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(ms: u64) -> SimTime {
        SimTime::from_nanos(ms * 1_000_000)
    }

    fn d(ms: u64) -> SimDuration {
        SimDuration::from_millis(ms)
    }

    #[test]
    fn new_packets_sent_in_sequence() {
        let mut book = PacketBook::new();
        assert_eq!(book.send_next(t(0), 1.0), (0, false));
        assert_eq!(book.send_next(t(1), 2.0), (1, false));
        assert_eq!(book.outstanding(), 2);
        assert_eq!(book.snd_nxt(), 2);
        book.check_invariants();
    }

    #[test]
    fn retransmits_take_priority_and_smallest_first() {
        let mut book = PacketBook::new();
        for i in 0..4 {
            book.send_next(t(i), 4.0);
        }
        book.mark_dropped(2);
        book.mark_dropped(1);
        assert_eq!(book.send_next(t(10), 2.0), (1, true));
        assert_eq!(book.send_next(t(10), 2.0), (2, true));
        assert_eq!(book.send_next(t(10), 2.0), (4, false));
        book.check_invariants();
    }

    #[test]
    fn cumulative_ack_removes_prefix() {
        let mut book = PacketBook::new();
        for i in 0..5 {
            book.send_next(t(i), 5.0);
        }
        let (first, count) = book.ack_below(3).expect("three packets below 3");
        assert_eq!((first.sent_at, count), (t(0), 3));
        assert_eq!(book.first_outstanding(), Some(3));
        assert_eq!(book.outstanding(), 2);
        assert_eq!(book.ack_below(3), None, "nothing left below 3");
        book.check_invariants();
    }

    #[test]
    fn ack_cancels_queued_retransmits() {
        let mut book = PacketBook::new();
        for i in 0..3 {
            book.send_next(t(i), 3.0);
        }
        book.mark_dropped(0);
        assert_eq!(book.pending_retransmits(), 1);
        // The "lost" packet's original arrives after all: ACK covers it.
        let (first, count) = book.ack_below(2).expect("packet 1 is outstanding");
        assert_eq!((first.sent_at, count), (t(1), 1), "the dropped packet 0 is not counted");
        assert_eq!(book.pending_retransmits(), 0, "stale retransmit cancelled");
        book.check_invariants();
    }

    #[test]
    fn expiry_by_deadline_order() {
        let mut book = PacketBook::new();
        book.send_next(t(0), 3.0);
        book.send_next(t(10), 3.0);
        book.send_next(t(20), 3.0);
        assert_eq!(book.expired(t(100), d(95)), vec![0]);
        assert_eq!(book.expired(t(120), d(95)), vec![0, 1, 2]);
        assert_eq!(book.earliest_deadline(d(95)), Some(t(95)));
    }

    #[test]
    fn retransmitted_packet_gets_fresh_deadline() {
        let mut book = PacketBook::new();
        book.send_next(t(0), 1.0);
        book.mark_dropped(0);
        let (seq, is_rtx) = book.send_next(t(50), 1.0);
        assert_eq!((seq, is_rtx), (0, true));
        assert_eq!(book.earliest_deadline(d(100)), Some(t(150)));
    }

    #[test]
    fn memorize_snapshot_and_counting() {
        let mut book = PacketBook::new();
        for i in 0..4 {
            book.send_next(t(i), 4.0);
        }
        book.snapshot_memorize();
        assert_eq!(book.memorize_len(), 4);
        assert_eq!(book.active_outstanding(), 0);
        // Deadlines are untouched: the flight re-expires on its own clock.
        assert_eq!(book.earliest_deadline(d(100)), Some(t(100)));
        // An ACK removes from memorize.
        let (first, count) = book.ack_below(1).expect("packet 0 is outstanding");
        assert!(first.in_memorize && count == 1);
        assert_eq!(book.memorize_len(), 3);
        // A drop removes from memorize too.
        let rec = book.mark_dropped(2);
        assert!(rec.in_memorize);
        assert_eq!(book.memorize_len(), 2);
        // A new transmission is NOT in memorize.
        book.send_next(t(10), 4.0);
        assert_eq!(book.memorize_len(), 2);
        book.check_invariants();
    }

    #[test]
    fn cwnd_snapshot_preserved() {
        let mut book = PacketBook::new();
        book.send_next(t(0), 7.5);
        assert_eq!(book.record(0).unwrap().cwnd_at_send, 7.5);
    }

    #[test]
    #[should_panic(expected = "must be outstanding")]
    fn dropping_unknown_packet_panics() {
        let mut book = PacketBook::new();
        book.mark_dropped(3);
    }
}
