//! Model-based equivalence test of the receiver's reorder buffer, and the
//! bounded-displacement law it must respect.
//!
//! `TcpReceiver` keeps the buffer as disjoint runs; the reference here is
//! the receiver it replaced — one `BTreeSet` entry per buffered segment,
//! every SACK block re-derived from the whole set on every arrival
//! (`on_data` and `sack_blocks` below are that receiver's, verbatim).
//! Arrival scripts of three kinds — bounded-displacement permutations (the
//! benchmark's "almost sorted" model), uniform draws full of duplicates
//! (below `rcv_nxt`, inside a run, far ahead) and plain in-order — run
//! under every `sack` / `dsack` setting; after **every** arrival the ACK,
//! `rcv_nxt`, `buffered` and the statistics must be the reference's.

use std::collections::BTreeSet;

use proptest::prelude::*;

use netsim::packet::AckEvent;
use netsim::time::SimTime;
use transport::receiver::{ReceiverConfig, ReceiverStats, TcpReceiver, MAX_SACK_BLOCKS};

/// The per-segment receiver `TcpReceiver` replaced.
struct ModelReceiver {
    cfg: ReceiverConfig,
    rcv_nxt: u64,
    ooo: BTreeSet<u64>,
    stats: ReceiverStats,
    max_seen: Option<u64>,
}

impl ModelReceiver {
    fn new(cfg: ReceiverConfig) -> Self {
        ModelReceiver {
            cfg,
            rcv_nxt: 0,
            ooo: BTreeSet::new(),
            stats: ReceiverStats::default(),
            max_seen: None,
        }
    }

    fn on_data(&mut self, seq: u64) -> AckEvent {
        self.stats.segments_received += 1;
        let old_nxt = self.rcv_nxt;
        let mut dsack = None;

        let is_duplicate = seq < self.rcv_nxt || self.ooo.contains(&seq);
        if is_duplicate {
            self.stats.duplicates += 1;
            if self.cfg.dsack {
                dsack = Some((seq, seq + 1));
            }
        } else {
            match self.max_seen {
                Some(m) if seq < m => {
                    self.stats.late_arrivals += 1;
                    let displacement = m - seq;
                    self.stats.total_displacement += displacement;
                    self.stats.max_displacement = self.stats.max_displacement.max(displacement);
                }
                Some(m) if seq > m => self.max_seen = Some(seq),
                None => self.max_seen = Some(seq),
                _ => {}
            }
            if seq == self.rcv_nxt {
                self.rcv_nxt += 1;
                while self.ooo.remove(&self.rcv_nxt) {
                    self.rcv_nxt += 1;
                }
            } else {
                self.ooo.insert(seq);
            }
        }

        let sack = if self.cfg.sack { self.sack_blocks(seq) } else { Vec::new() };
        AckEvent {
            cum_ack: self.rcv_nxt,
            sack,
            dsack,
            echo_timestamp: SimTime::ZERO,
            echo_tx_count: 0,
            dup: self.rcv_nxt == old_nxt,
        }
    }

    fn sack_blocks(&self, trigger: u64) -> Vec<(u64, u64)> {
        if self.ooo.is_empty() {
            return Vec::new();
        }
        let mut ranges: Vec<(u64, u64)> = Vec::new();
        let mut iter = self.ooo.iter().copied();
        let first = iter.next().expect("non-empty");
        let mut cur = (first, first + 1);
        for s in iter {
            if s == cur.1 {
                cur.1 = s + 1;
            } else {
                ranges.push(cur);
                cur = (s, s + 1);
            }
        }
        ranges.push(cur);

        // Most recent (triggering) block first, rest highest-first.
        ranges.sort_by_key(|r| std::cmp::Reverse(r.0));
        if let Some(pos) = ranges.iter().position(|r| r.0 <= trigger && trigger < r.1) {
            let hit = ranges.remove(pos);
            ranges.insert(0, hit);
        }
        ranges.truncate(MAX_SACK_BLOCKS);
        ranges
    }
}

fn stats_fields(s: ReceiverStats) -> [u64; 5] {
    [s.segments_received, s.duplicates, s.late_arrivals, s.total_displacement, s.max_displacement]
}

/// Every `sack` / `dsack` setting.
fn all_configs() -> impl Iterator<Item = ReceiverConfig> {
    (0..4usize).map(|i| ReceiverConfig { sack: i & 1 != 0, dsack: i & 2 != 0 })
}

/// Runs `script` through the receiver and the reference under every
/// configuration, comparing after each arrival.
fn check_against_model(script: &[u64]) -> Result<(), TestCaseError> {
    for cfg in all_configs() {
        let mut rx = TcpReceiver::new(cfg);
        let mut model = ModelReceiver::new(cfg);
        for (i, &seq) in script.iter().enumerate() {
            let (got, want) = (rx.on_data(seq), model.on_data(seq));
            prop_assert_eq!(got, want, "arrival {} (seq {}) under {:?}", i, seq, cfg);
            prop_assert_eq!(rx.rcv_nxt(), model.rcv_nxt);
            prop_assert_eq!(rx.buffered(), model.ooo.len());
            prop_assert_eq!(stats_fields(rx.stats()), stats_fields(model.stats));
        }
    }
    Ok(())
}

/// `0..noise.len()` with every segment at most `d` places from home:
/// segment `i` leaves at slot `i` and is held for up to `d` slots.
fn almost_sorted(noise: &[u64], d: u64) -> Vec<u64> {
    let mut keyed: Vec<(u64, u64)> =
        noise.iter().zip(0u64..).map(|(&hold, i)| (i + hold % (d + 1), i)).collect();
    keyed.sort_unstable();
    keyed.into_iter().map(|(_, i)| i).collect()
}

proptest! {
    #[test]
    fn bounded_displacement_matches_the_per_segment_receiver(
        noise in collection::vec(0u64..1 << 32, 1..400),
        d in 1u64..=64,
    ) {
        check_against_model(&almost_sorted(&noise, d))?;
    }

    /// Draws from a window a few runs wide, so most arrivals duplicate
    /// something delivered or buffered, plus a handful of far-ahead
    /// segments that arrive (and repeat) while the window is still filling.
    #[test]
    fn uniform_draws_with_duplicates_match_the_per_segment_receiver(
        draws in collection::vec((0u8..8, 0u64..48), 1..400),
    ) {
        let script: Vec<u64> = draws
            .iter()
            .map(|&(kind, v)| if kind == 0 { 1_000 + v % 6 } else { v })
            .collect();
        check_against_model(&script)?;
    }

    #[test]
    fn in_order_matches_the_per_segment_receiver(n in 1u64..300) {
        check_against_model(&(0..n).collect::<Vec<_>>())?;
    }

    /// Istrate's buffer bound (PAPERS.md, ROADMAP 5d): when no segment is
    /// more than `d` places from home, the reorder buffer never holds more
    /// than `d` segments, and no late arrival trails the running maximum by
    /// `2·d` or more.
    #[test]
    fn bounded_displacement_bounds_the_buffer(
        noise in collection::vec(0u64..1 << 32, 1..600),
        d in 1u64..=64,
    ) {
        let order = almost_sorted(&noise, d);
        for (slot, &seq) in order.iter().enumerate() {
            prop_assert!(seq.abs_diff(slot as u64) <= d, "the script breaks its own premise");
        }
        let mut rx = TcpReceiver::new(ReceiverConfig::default());
        for &seq in &order {
            rx.on_data(seq);
            prop_assert!(rx.buffered() as u64 <= d, "{} buffered, d = {}", rx.buffered(), d);
            prop_assert!(rx.runs() <= rx.buffered());
        }
        prop_assert!(rx.stats().max_displacement < 2 * d);
        prop_assert_eq!(rx.buffered(), 0);
        prop_assert_eq!(rx.rcv_nxt(), order.len() as u64);
    }
}
