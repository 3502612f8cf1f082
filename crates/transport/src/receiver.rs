//! The TCP receiver: cumulative ACKs, SACK blocks and DSACK reports.
//!
//! TCP-PR deliberately requires **no** receiver changes; this is the one
//! standard receiver shared by every sender variant in the reproduction. It
//! acknowledges every data segment (ns-2 `TCPSink` style, no delayed ACKs),
//! optionally attaches SACK blocks (RFC 2018) and reports duplicate
//! arrivals via DSACK (RFC 2883).
//!
//! The reorder buffer is kept as runs, not segments: a map from each run's
//! first segment to one past its last. Under persistent reordering the
//! buffer is never empty, but it is a handful of runs whose size the
//! displacement bounds (Istrate, PAPERS.md), and the runs *are* the SACK
//! blocks — so an arrival costs a predecessor lookup, at most one join on
//! either side and a walk over the blocks it reports, whatever the number
//! of segments buffered. `tests/receiver_model.rs` holds every ACK to the
//! per-segment set this replaced.

use std::collections::BTreeMap;

/// Receiver feature switches.
#[derive(Debug, Clone, Copy)]
pub struct ReceiverConfig {
    /// Attach SACK blocks to ACKs.
    pub sack: bool,
    /// Report duplicate arrivals with DSACK (requires nothing from `sack`;
    /// the paper's dupthresh baselines need it).
    pub dsack: bool,
}

impl Default for ReceiverConfig {
    fn default() -> Self {
        ReceiverConfig { sack: true, dsack: true }
    }
}

/// Maximum SACK blocks per ACK (3 fit alongside timestamps in a real TCP
/// option space).
pub const MAX_SACK_BLOCKS: usize = 3;

/// The acknowledgment a receiver wants transmitted in response to a segment.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AckDescriptor {
    /// Next expected segment.
    pub cum_ack: u64,
    /// SACK blocks, most recent first.
    pub sack: Vec<(u64, u64)>,
    /// DSACK duplicate report.
    pub dsack: Option<(u64, u64)>,
    /// True if the cumulative point did not advance.
    pub dup: bool,
}

/// Statistics a receiver keeps about arrivals.
#[derive(Debug, Clone, Copy, Default, serde::Serialize)]
pub struct ReceiverStats {
    /// All data segments received (including duplicates).
    pub segments_received: u64,
    /// Duplicate data segments (already delivered or already buffered).
    pub duplicates: u64,
    /// First-time arrivals whose sequence number was below the running
    /// maximum (a direct measure of network reordering).
    pub late_arrivals: u64,
    /// Sum over late arrivals of `max_seen − seq` (reorder displacement, in
    /// segments; RFC 4737 calls the per-packet value "reordering extent").
    pub total_displacement: u64,
    /// Largest single displacement observed.
    pub max_displacement: u64,
}

impl ReceiverStats {
    /// Mean displacement of late arrivals, in segments (0 if none).
    pub fn mean_displacement(&self) -> f64 {
        if self.late_arrivals == 0 {
            0.0
        } else {
            self.total_displacement as f64 / self.late_arrivals as f64
        }
    }
}

/// A reordering-tolerant cumulative-ACK receiver.
///
/// # Examples
///
/// ```
/// use transport::receiver::{TcpReceiver, ReceiverConfig};
///
/// let mut rx = TcpReceiver::new(ReceiverConfig::default());
/// let a0 = rx.on_data(0);
/// assert_eq!(a0.cum_ack, 1);
/// let a2 = rx.on_data(2); // hole at 1
/// assert_eq!(a2.cum_ack, 1);
/// assert!(a2.dup);
/// assert_eq!(a2.sack, vec![(2, 3)]);
/// ```
#[derive(Debug)]
pub struct TcpReceiver {
    cfg: ReceiverConfig,
    rcv_nxt: u64,
    /// The reorder buffer as half-open runs `start → end`: disjoint,
    /// non-adjacent and all above `rcv_nxt`.
    runs: BTreeMap<u64, u64>,
    /// Segments in `runs` (the sum of the run lengths).
    buffered: usize,
    stats: ReceiverStats,
    max_seen: Option<u64>,
}

impl TcpReceiver {
    /// Creates a receiver expecting segment 0 first.
    pub fn new(cfg: ReceiverConfig) -> Self {
        TcpReceiver {
            cfg,
            rcv_nxt: 0,
            runs: BTreeMap::new(),
            buffered: 0,
            stats: ReceiverStats::default(),
            max_seen: None,
        }
    }

    /// Next expected segment: everything below has been delivered in order.
    pub fn rcv_nxt(&self) -> u64 {
        self.rcv_nxt
    }

    /// Number of segments currently buffered out of order.
    pub fn buffered(&self) -> usize {
        self.buffered
    }

    /// Number of disjoint runs the buffered segments form, which is also the
    /// number of holes ahead of `rcv_nxt` (never more than `buffered()`).
    pub fn runs(&self) -> usize {
        self.runs.len()
    }

    /// Arrival statistics.
    pub fn stats(&self) -> ReceiverStats {
        self.stats
    }

    /// Processes data segment `seq` and returns the ACK to send.
    pub fn on_data(&mut self, seq: u64) -> AckDescriptor {
        self.stats.segments_received += 1;
        let old_nxt = self.rcv_nxt;
        let mut dsack = None;

        // The run at or below `seq`: the only one that can hold it or end
        // exactly where it begins.
        let prev = self.runs.range(..=seq).next_back().map(|(&start, &end)| (start, end));
        // The run holding `seq` once this arrival is processed, if any.
        let mut hit = prev.filter(|&(_, end)| seq < end);
        let is_duplicate = seq < self.rcv_nxt || hit.is_some();
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
                if let Some(end) = self.runs.remove(&self.rcv_nxt) {
                    self.buffered -= (end - self.rcv_nxt) as usize;
                    self.rcv_nxt = end;
                }
            } else {
                self.buffered += 1;
                let end = self.runs.remove(&(seq + 1)).unwrap_or(seq + 1);
                let start = match prev {
                    Some((start, prev_end)) if prev_end == seq => start,
                    _ => seq,
                };
                self.runs.insert(start, end);
                hit = Some((start, end));
            }
        }

        let sack = if self.cfg.sack { self.sack_blocks(hit) } else { Vec::new() };
        AckDescriptor { cum_ack: self.rcv_nxt, sack, dsack, dup: self.rcv_nxt == old_nxt }
    }

    /// Builds SACK blocks from the out-of-order buffer: `hit`, the block
    /// containing the triggering segment, first (RFC 2018), then the
    /// remaining blocks from highest to lowest.
    fn sack_blocks(&self, hit: Option<(u64, u64)>) -> Vec<(u64, u64)> {
        // Nothing buffered is the in-order path: spare it the iterators.
        if self.runs.is_empty() {
            return Vec::new();
        }
        let rest = self.runs.iter().rev().map(|(&start, &end)| (start, end));
        hit.into_iter().chain(rest.filter(|&run| Some(run) != hit)).take(MAX_SACK_BLOCKS).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rx() -> TcpReceiver {
        TcpReceiver::new(ReceiverConfig::default())
    }

    #[test]
    fn in_order_delivery_advances_cum_ack() {
        let mut r = rx();
        for seq in 0..5 {
            let a = r.on_data(seq);
            assert_eq!(a.cum_ack, seq + 1);
            assert!(!a.dup);
            assert!(a.sack.is_empty());
            assert!(a.dsack.is_none());
        }
        assert_eq!(r.rcv_nxt(), 5);
        assert_eq!(r.stats().late_arrivals, 0);
    }

    #[test]
    fn hole_generates_dupacks_with_sack() {
        let mut r = rx();
        r.on_data(0);
        let a = r.on_data(2);
        assert_eq!(a.cum_ack, 1);
        assert!(a.dup);
        assert_eq!(a.sack, vec![(2, 3)]);
        let a = r.on_data(3);
        assert_eq!(a.sack, vec![(2, 4)]);
        // Filling the hole advances past all buffered segments.
        let a = r.on_data(1);
        assert_eq!(a.cum_ack, 4);
        assert!(!a.dup);
        assert!(a.sack.is_empty());
        assert_eq!(r.buffered(), 0);
    }

    #[test]
    fn duplicate_below_cum_ack_reports_dsack() {
        let mut r = rx();
        r.on_data(0);
        r.on_data(1);
        let a = r.on_data(0);
        assert_eq!(a.cum_ack, 2);
        assert!(a.dup);
        assert_eq!(a.dsack, Some((0, 1)));
        assert_eq!(r.stats().duplicates, 1);
    }

    #[test]
    fn duplicate_in_ooo_buffer_reports_dsack() {
        let mut r = rx();
        r.on_data(0);
        r.on_data(5);
        let a = r.on_data(5);
        assert_eq!(a.dsack, Some((5, 6)));
        assert!(a.dup);
    }

    #[test]
    fn sack_most_recent_block_first() {
        let mut r = rx();
        r.on_data(0);
        r.on_data(5); // block (5,6)
        r.on_data(9); // block (9,10)
        let a = r.on_data(3); // triggering block (3,4) must come first
        assert_eq!(a.sack[0], (3, 4));
        assert_eq!(a.sack.len(), 3);
        assert!(a.sack.contains(&(5, 6)) && a.sack.contains(&(9, 10)));
    }

    #[test]
    fn sack_blocks_capped() {
        let mut r = rx();
        r.on_data(0);
        for seq in [2u64, 4, 6, 8] {
            r.on_data(seq);
        }
        let a = r.on_data(10);
        assert_eq!(a.sack, vec![(10, 11), (8, 9), (6, 7)]);
    }

    #[test]
    fn merged_blocks_coalesce() {
        let mut r = rx();
        r.on_data(0);
        r.on_data(2);
        r.on_data(4);
        let a = r.on_data(3);
        assert_eq!(a.sack[0], (2, 5));
    }

    #[test]
    fn late_arrivals_counted_once() {
        let mut r = rx();
        r.on_data(0);
        r.on_data(3); // max_seen = 3
        let _ = r.on_data(1); // late, displacement 2
        let _ = r.on_data(2); // late, displacement 1
        let _ = r.on_data(1); // duplicate, not late again
        assert_eq!(r.stats().late_arrivals, 2);
        assert_eq!(r.stats().duplicates, 1);
        assert_eq!(r.stats().total_displacement, 3);
        assert_eq!(r.stats().max_displacement, 2);
        assert!((r.stats().mean_displacement() - 1.5).abs() < 1e-12);
    }

    #[test]
    fn sack_disabled_yields_plain_dupacks() {
        let mut r = TcpReceiver::new(ReceiverConfig { sack: false, dsack: false });
        r.on_data(0);
        let a = r.on_data(2);
        assert!(a.dup);
        assert!(a.sack.is_empty());
        let a = r.on_data(0); // duplicate, but dsack disabled
        assert!(a.dsack.is_none());
    }

    #[test]
    fn in_order_after_reordering_resumes_clean() {
        let mut r = rx();
        let order = [0u64, 4, 2, 1, 3, 5, 6];
        let mut last = 0;
        for &s in &order {
            last = r.on_data(s).cum_ack;
        }
        assert_eq!(last, 7);
        assert_eq!(r.buffered(), 0);
    }
}
