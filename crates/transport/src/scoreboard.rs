//! The RFC 6675 scoreboard TCP-SACK and BBR share, held so that an ACK
//! costs what it changes and not what is outstanding.
//!
//! The SACKed set is a sorted list of disjoint, non-adjacent `[start, end)`
//! runs: a block the receiver repeats on every ACK costs one binary search,
//! and only a sub-range no earlier block covered is visited per segment.
//! `lost` and `retxed` stay per-segment sets, small outside recovery. Two
//! invariants keep the work incremental. `sacked ∩ (lost ∪ retxed) = ∅`: a
//! segment enters `lost` only while unsacked and `retxed` only from `lost`,
//! so [`Scoreboard::absorb`] un-marks inside *newly* covered sub-ranges only.
//! And every unsacked segment in `[snd_una, lost_scanned_to)` is in `lost`:
//! `lost` gives up members only to a SACK or to the cumulative ACK, and the
//! `dupthresh`-th largest SACKed segment never falls while it is above
//! `snd_una`, so [`Scoreboard::mark_lost`] scans only the gaps between the
//! previous threshold and the new one. [`Scoreboard::take_steps`] counts
//! every loop iteration: `repro profile`'s `sender.ack_steps`.

use std::cell::Cell;
use std::collections::{BTreeSet, VecDeque};

/// Sequence numbers as sorted, disjoint, non-adjacent half-open runs.
#[derive(Debug, Default)]
struct Runs {
    runs: VecDeque<(u64, u64)>,
    len: u64,
    steps: Cell<u64>,
}

impl Runs {
    fn step(&self, n: u64) {
        self.steps.set(self.steps.get() + n);
    }

    /// Adds `[start, end)`, reporting each sub-range not covered before.
    fn insert_range(&mut self, start: u64, end: u64, mut fresh: impl FnMut(u64, u64)) {
        // Runs `first..last` overlap or touch the range and merge with it.
        let first = self.runs.partition_point(|&(_, e)| e < start);
        let (mut last, mut lo, mut hi, mut at) = (first, start, end, start);
        while let Some(&(s, e)) = self.runs.get(last).filter(|&&(s, _)| s <= end) {
            self.step(1);
            if at < s {
                fresh(at, s);
                self.len += s - at;
            }
            (at, lo, hi, last) = (at.max(e), lo.min(s), hi.max(e), last + 1);
        }
        if at < end {
            fresh(at, end);
            self.len += end - at;
        }
        if first == last {
            self.runs.insert(first, (lo, hi));
        } else {
            self.runs[first] = (lo, hi);
            self.runs.drain(first + 1..last);
        }
    }

    fn remove_below(&mut self, cum: u64) {
        while let Some(&(s, e)) = self.runs.front().filter(|&&(s, _)| s < cum) {
            self.step(1);
            self.len -= e.min(cum) - s;
            self.runs.pop_front();
            if e > cum {
                self.runs.push_front((cum, e));
            }
        }
    }

    /// The runs reaching into `[lo, hi)`, lowest first.
    fn overlapping(&self, lo: u64, hi: u64) -> impl Iterator<Item = (u64, u64)> + '_ {
        let first = self.runs.partition_point(|&(_, e)| e <= lo);
        let runs = self.runs.range(first..).copied().take_while(move |&(s, _)| s < hi);
        runs.inspect(|_| self.step(1))
    }

    /// The `k`-th largest member (`k ≥ 1`), if there are that many.
    fn kth_largest(&self, k: u64) -> Option<u64> {
        let mut seen = 0;
        let mut from_the_top = self.runs.iter().rev().inspect(|_| self.step(1));
        let &(s, _) = from_the_top.find(|&&(s, e)| {
            seen += e - s;
            seen >= k
        })?;
        Some(s + seen - k)
    }

    /// Calls `gap` with each maximal member-free sub-range of `[lo, hi)`.
    fn gaps_in(&self, lo: u64, hi: u64, mut gap: impl FnMut(u64, u64)) {
        let mut at = lo;
        for (s, e) in self.overlapping(lo, hi) {
            if at < s {
                gap(at, s);
            }
            at = e;
        }
        if at < hi {
            gap(at, hi);
        }
    }
}

/// One connection's SACKed, presumed-lost and retransmitted-since segments.
/// The caller owns `snd_una` / `snd_nxt` and passes them in.
#[derive(Debug, Default)]
pub struct Scoreboard {
    sacked: Runs,
    lost: BTreeSet<u64>,
    /// Lost segments already retransmitted this episode (`⊆ lost`).
    retxed: BTreeSet<u64>,
    /// Every unsacked segment from `snd_una` up to here is in `lost`.
    lost_scanned_to: u64,
    /// Every `lost` segment below this is in `retxed` (a new loss lies at or
    /// above `lost_scanned_to`, which no retransmitted segment does).
    rtx_scanned_to: u64,
}

impl Scoreboard {
    /// True if the receiver reported `seq` held out of order.
    pub fn is_sacked(&self, seq: u64) -> bool {
        self.sacked_in(seq, seq + 1) == 1
    }

    /// True if `seq` is presumed lost.
    pub fn is_lost(&self, seq: u64) -> bool {
        self.lost.contains(&seq)
    }

    /// True if `seq` is lost and has been retransmitted since.
    pub fn is_retransmitted(&self, seq: u64) -> bool {
        self.retxed.contains(&seq)
    }

    /// SACKed segments in `[lo, hi)`.
    pub fn sacked_in(&self, lo: u64, hi: u64) -> u64 {
        self.sacked.overlapping(lo, hi).map(|(s, e)| e.min(hi) - s.max(lo)).sum()
    }

    /// The pipe estimate: outstanding − SACKed − lost + retransmitted since.
    pub fn pipe(&self, snd_una: u64, snd_nxt: u64) -> u64 {
        snd_nxt - snd_una - self.sacked.len - self.lost.len() as u64 + self.retxed.len() as u64
    }

    /// Folds an ACK's SACK blocks, clipped to `[una, nxt)`, in: `(segments
    /// newly covered, the highest of them)`. Those are no longer lost.
    pub fn absorb(&mut self, blocks: &[(u64, u64)], una: u64, nxt: u64) -> (u64, Option<u64>) {
        let Scoreboard { sacked, lost, retxed, .. } = self;
        let (before, mut highest, mut unmarked) = (sacked.len, None, 0);
        for &(start, end) in blocks.iter().filter(|&&(s, e)| s.max(una) < e.min(nxt)) {
            sacked.insert_range(start.max(una), end.min(nxt), |a, b| {
                highest = highest.max(Some(b - 1));
                while let Some(&seq) = lost.range(a..b).next() {
                    lost.remove(&seq);
                    retxed.remove(&seq);
                    unmarked += 1;
                }
            });
        }
        sacked.step(blocks.len() as u64 + unmarked);
        (sacked.len - before, highest)
    }

    fn presume_lost(&mut self, lo: u64, hi: u64) -> u64 {
        let Scoreboard { sacked, lost, .. } = self;
        let mut newly = 0;
        sacked.gaps_in(lo, hi, |a, b| {
            sacked.step(b - a);
            newly += (a..b).filter(|&seq| lost.insert(seq)).count() as u64;
        });
        self.lost_scanned_to = self.lost_scanned_to.max(hi);
        newly
    }

    /// Presumes lost every unsacked segment with at least `dupthresh`
    /// SACKed segments above it; returns how many that adds.
    pub fn mark_lost(&mut self, snd_una: u64, dupthresh: u32) -> u64 {
        let threshold = self.sacked.kth_largest(u64::from(dupthresh));
        threshold.map_or(0, |t| self.presume_lost(snd_una.max(self.lost_scanned_to), t))
    }

    /// The retransmission timeout: every unsacked outstanding segment is
    /// presumed lost and none counts as retransmitted any more.
    pub fn mark_all_lost(&mut self, snd_una: u64, snd_nxt: u64) {
        self.presume_lost(snd_una, snd_nxt);
        self.retxed.clear();
        self.rtx_scanned_to = 0;
    }

    /// Forgets everything below the cumulative ACK `cum`.
    pub fn advance(&mut self, cum: u64) {
        self.sacked.remove_below(cum);
        for set in [&mut self.lost, &mut self.retxed] {
            while set.first().is_some_and(|&seq| seq < cum) {
                self.sacked.step(1);
                set.pop_first();
            }
        }
    }

    /// RFC 6675 NextSeg rule 1: the lowest lost segment not retransmitted
    /// yet, which this call marks retransmitted.
    pub fn next_retransmit(&mut self) -> Option<u64> {
        let Scoreboard { sacked, lost, retxed, rtx_scanned_to, .. } = self;
        let mut pending = lost.range(*rtx_scanned_to..).inspect(|_| sacked.step(1));
        let seq = *pending.find(|seq| !retxed.contains(seq))?;
        *rtx_scanned_to = seq + 1;
        retxed.insert(seq);
        Some(seq)
    }

    /// The fast retransmit: marks lost `seq` retransmitted, if it was not.
    pub fn retransmit(&mut self, seq: u64) -> bool {
        self.retxed.insert(seq)
    }

    /// Loop iterations since the last call: what the ACK path cost.
    pub fn take_steps(&mut self) -> u64 {
        self.sacked.steps.replace(0)
    }
}
