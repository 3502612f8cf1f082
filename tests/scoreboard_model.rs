//! Model-based equivalence test of the run-length SACK scoreboard.
//!
//! `transport::scoreboard::Scoreboard` keeps the SACKed set as runs,
//! un-marks `lost` / `retxed` only inside newly covered sub-ranges and
//! scans for losses only above its previous threshold. The reference here
//! is the scoreboard `SackSender` and `BbrSender` each carried before it —
//! one `BTreeSet` entry per segment, every block re-inserted, every SACKed
//! segment un-marked and `snd_una..threshold` re-scanned on every ACK
//! (`absorb`, `mark_lost`, `advance`, `mark_all_lost` and `next_retransmit`
//! below are those senders' loops, verbatim). Scripts mix what a sender
//! does between ACKs — new data, NextSeg draws, the fast retransmit, the
//! RTO — with SACK-bearing ACKs whose blocks overlap each other, repeat,
//! reach below `snd_una` and beyond `snd_nxt`, and whose cumulative point
//! is stale, in range, or beyond `snd_nxt`; after **every** step the
//! membership of all three sets, every returned count and `pipe` must be
//! the reference's.

use std::collections::BTreeSet;

use proptest::prelude::*;

use transport::scoreboard::Scoreboard;

/// The per-segment scoreboard the two senders held.
#[derive(Default)]
struct Model {
    sacked: BTreeSet<u64>,
    lost: BTreeSet<u64>,
    retxed: BTreeSet<u64>,
}

impl Model {
    fn absorb(&mut self, blocks: &[(u64, u64)], una: u64, nxt: u64) -> (u64, Option<u64>) {
        let mut newly_sacked = 0u64;
        let mut highest_new = None;
        for &(start, end) in blocks {
            for seq in start.max(una)..end.min(nxt) {
                if self.sacked.insert(seq) {
                    newly_sacked += 1;
                    highest_new = Some(highest_new.map_or(seq, |h: u64| h.max(seq)));
                }
            }
        }
        for seq in &self.sacked {
            self.lost.remove(seq);
            self.retxed.remove(seq);
        }
        (newly_sacked, highest_new)
    }

    fn mark_lost(&mut self, una: u64, dupthresh: u32) -> u64 {
        let k = dupthresh as usize;
        let mut newly_lost = 0u64;
        if self.sacked.len() >= k {
            let threshold = *self.sacked.iter().rev().nth(k - 1).expect("len checked");
            for seq in una..threshold {
                if !self.sacked.contains(&seq) && self.lost.insert(seq) {
                    newly_lost += 1;
                }
            }
        }
        newly_lost
    }

    fn advance(&mut self, cum: u64) {
        self.sacked.retain(|&s| s >= cum);
        self.lost.retain(|&s| s >= cum);
        self.retxed.retain(|&s| s >= cum);
    }

    fn mark_all_lost(&mut self, una: u64, nxt: u64) {
        for seq in una..nxt {
            if !self.sacked.contains(&seq) {
                self.lost.insert(seq);
            }
        }
        self.retxed.clear();
    }

    fn next_retransmit(&mut self) -> Option<u64> {
        let seq = self.lost.iter().copied().find(|seq| !self.retxed.contains(seq))?;
        self.retxed.insert(seq);
        Some(seq)
    }

    fn pipe(&self, una: u64, nxt: u64) -> u64 {
        let outstanding = nxt - una;
        outstanding - self.sacked.len() as u64 - self.lost.len() as u64 + self.retxed.len() as u64
    }
}

/// One step: what kind, the cumulative ACK's offset from `snd_una − 4` (or
/// a count, for the other kinds), and three SACK blocks as (offset from
/// `snd_una − 4`, length) — length 0 for an absent block.
type Step = (u8, u64, ((u64, u64), (u64, u64), (u64, u64)));

fn step() -> impl Strategy<Value = Step> {
    let block = || (0u64..72, 0u64..14);
    (0u8..10, 0u64..72, (block(), block(), block()))
}

fn check_against_model(script: &[Step], dupthresh: u32) -> Result<(), TestCaseError> {
    let (mut board, mut model) = (Scoreboard::default(), Model::default());
    let (mut una, mut nxt) = (0u64, 0u64);
    for (i, &(kind, n, (b0, b1, b2))) in script.iter().enumerate() {
        match kind {
            // The window opens: new data goes out.
            0 | 1 => nxt += n % 24,
            // NextSeg draws, as `send_allowed` makes them.
            2 => {
                for _ in 0..n % 6 {
                    prop_assert_eq!(board.next_retransmit(), model.next_retransmit(), "step {}", i);
                }
            }
            // The fast retransmit of the first hole.
            3 => {
                if model.lost.contains(&una) {
                    prop_assert_eq!(board.retransmit(una), model.retxed.insert(una), "step {}", i);
                }
            }
            // The retransmission timeout.
            4 => {
                board.mark_all_lost(una, nxt);
                model.mark_all_lost(una, nxt);
            }
            // An ACK: `n < 4` is a stale cumulative point, `n` past the
            // flight one beyond `snd_nxt`, which then follows it.
            _ => {
                let floor = una.saturating_sub(4);
                let cum = floor + n;
                if cum > una {
                    prop_assert_eq!(
                        board.sacked_in(una, cum),
                        model.sacked.range(una..cum).count() as u64
                    );
                    board.advance(cum);
                    model.advance(cum);
                    una = cum;
                    nxt = nxt.max(cum);
                }
                let blocks: Vec<(u64, u64)> = [b0, b1, b2]
                    .iter()
                    .filter(|&&(_, len)| len > 0)
                    .map(|&(at, len)| (floor + at, floor + at + len))
                    .collect();
                let (got, want) =
                    (board.absorb(&blocks, una, nxt), model.absorb(&blocks, una, nxt));
                prop_assert_eq!(got, want, "absorb at step {}: {:?}", i, blocks);
                let (got, want) =
                    (board.mark_lost(una, dupthresh), model.mark_lost(una, dupthresh));
                prop_assert_eq!(got, want, "mark_lost at step {}", i);
            }
        }
        for seq in una.saturating_sub(6)..nxt + 6 {
            let got = (board.is_sacked(seq), board.is_lost(seq), board.is_retransmitted(seq));
            let want = (
                model.sacked.contains(&seq),
                model.lost.contains(&seq),
                model.retxed.contains(&seq),
            );
            prop_assert_eq!(got, want, "segment {} after step {} ({}..{})", seq, i, una, nxt);
        }
        prop_assert_eq!(board.pipe(una, nxt), model.pipe(una, nxt), "pipe after step {}", i);
    }
    Ok(())
}

proptest! {
    #[test]
    fn any_script_matches_the_per_segment_scoreboard(
        script in collection::vec(step(), 1..300),
        dupthresh in 1u32..=5,
    ) {
        check_against_model(&script, dupthresh)?;
    }

    /// Mostly ACKs whose cumulative point barely moves, so SACKed runs pile
    /// up, merge and are repeated while `lost` fills behind them — the shape
    /// of a reordered or lossy flight.
    #[test]
    fn slow_cumulative_progress_matches_the_per_segment_scoreboard(
        script in collection::vec(step(), 1..400),
    ) {
        let script: Vec<Step> = script
            .into_iter()
            .map(|(kind, n, blocks)| if kind >= 5 { (kind, n % 7, blocks) } else { (kind, n, blocks) })
            .collect();
        check_against_model(&script, 3)?;
    }
}
