//! Output queues for links.
//!
//! The paper's simulations use ns-2 drop-tail FIFO queues sized in packets
//! (100 packets for the Figure 5 topology). A RED variant is provided as an
//! extension for sensitivity studies; it is not used by the headline figures.
//!
//! A queue holds [`PacketId`]s, not packets: the packet sits in the
//! simulator's arena from injection to delivery, and a waiting place in line
//! is four bytes. The disciplines here decide on queue length alone, so they
//! never look a handle up.

use std::collections::VecDeque;

use crate::ids::PacketId;

/// Queue management discipline for a link's output buffer.
#[derive(Debug, Clone, PartialEq)]
pub enum QueuePolicy {
    /// FIFO with tail drop once `capacity_packets` is reached (ns-2 DropTail).
    DropTail,
    /// Random Early Detection (simplified "gentle" RED on instantaneous
    /// queue length). Extension; not used by the paper's figures.
    Red {
        /// Queue length at which probabilistic dropping begins.
        min_thresh: usize,
        /// Queue length at which every arrival is dropped.
        max_thresh: usize,
        /// Drop probability when the queue sits at `max_thresh`.
        max_prob: f64,
    },
}

/// Outcome of offering a packet to a queue.
#[derive(Debug, PartialEq, Eq)]
pub enum EnqueueOutcome {
    /// The packet was accepted and stored.
    Enqueued,
    /// The packet was dropped by the discipline.
    Dropped,
}

/// A link output buffer.
///
/// # Examples
///
/// ```
/// use netsim::queue::{LinkQueue, QueuePolicy, EnqueueOutcome};
///
/// let mut q = LinkQueue::new(2, QueuePolicy::DropTail);
/// assert_eq!(q.capacity_packets(), 2);
/// ```
#[derive(Debug)]
pub struct LinkQueue {
    buf: VecDeque<PacketId>,
    capacity: usize,
    policy: QueuePolicy,
    drops: u64,
    enqueues: u64,
}

impl LinkQueue {
    /// Creates a queue holding at most `capacity_packets` packets.
    ///
    /// # Panics
    ///
    /// Panics if `capacity_packets` is zero.
    pub fn new(capacity_packets: usize, policy: QueuePolicy) -> Self {
        assert!(capacity_packets > 0, "queue capacity must be positive");
        LinkQueue {
            buf: VecDeque::with_capacity(capacity_packets.min(1024)),
            capacity: capacity_packets,
            policy,
            drops: 0,
            enqueues: 0,
        }
    }

    /// Offers `packet` to the queue. `uniform` must be a fresh sample from
    /// `[0, 1)`; it is only consumed by the RED policy.
    pub fn enqueue(&mut self, packet: PacketId, uniform: f64) -> EnqueueOutcome {
        let accept = match &self.policy {
            QueuePolicy::DropTail => self.buf.len() < self.capacity,
            QueuePolicy::Red { min_thresh, max_thresh, max_prob } => {
                let len = self.buf.len();
                if len >= self.capacity || len >= *max_thresh {
                    false
                } else if len < *min_thresh {
                    true
                } else {
                    let span = (*max_thresh - *min_thresh).max(1) as f64;
                    let p = max_prob * (len - *min_thresh) as f64 / span;
                    uniform >= p
                }
            }
        };
        if accept {
            self.buf.push_back(packet);
            self.enqueues += 1;
            if obs::enabled() {
                obs::count("queue.enqueue", 1);
                obs::observe("queue.depth", self.buf.len() as u64);
            }
            EnqueueOutcome::Enqueued
        } else {
            self.drops += 1;
            obs::count("queue.drop", 1);
            EnqueueOutcome::Dropped
        }
    }

    /// Removes the packet at the head of the queue.
    pub fn dequeue(&mut self) -> Option<PacketId> {
        self.buf.pop_front()
    }

    /// Current queue length in packets.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// True if no packets are queued.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Configured capacity in packets.
    pub fn capacity_packets(&self) -> usize {
        self.capacity
    }

    /// Number of packets dropped by this queue so far.
    pub fn drops(&self) -> u64 {
        self.drops
    }

    /// Number of packets accepted by this queue so far.
    pub fn enqueues(&self) -> u64 {
        self.enqueues
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pkt(id: u32) -> PacketId {
        PacketId::from_raw(id)
    }

    #[test]
    fn drop_tail_drops_when_full() {
        let mut q = LinkQueue::new(2, QueuePolicy::DropTail);
        assert_eq!(q.enqueue(pkt(0), 0.0), EnqueueOutcome::Enqueued);
        assert_eq!(q.enqueue(pkt(1), 0.0), EnqueueOutcome::Enqueued);
        assert_eq!(q.enqueue(pkt(2), 0.0), EnqueueOutcome::Dropped);
        assert_eq!(q.len(), 2);
        assert_eq!(q.drops(), 1);
        assert_eq!(q.enqueues(), 2);
    }

    #[test]
    fn fifo_order_preserved() {
        let mut q = LinkQueue::new(3, QueuePolicy::DropTail);
        for i in 0..3 {
            q.enqueue(pkt(i), 0.0);
        }
        let order: Vec<usize> = std::iter::from_fn(|| q.dequeue().map(PacketId::index)).collect();
        assert_eq!(order, vec![0, 1, 2]);
        assert!(q.is_empty());
    }

    #[test]
    fn red_always_accepts_below_min_thresh() {
        let mut q =
            LinkQueue::new(10, QueuePolicy::Red { min_thresh: 3, max_thresh: 8, max_prob: 1.0 });
        for i in 0..3 {
            assert_eq!(q.enqueue(pkt(i), 0.0), EnqueueOutcome::Enqueued);
        }
    }

    #[test]
    fn red_always_drops_at_max_thresh() {
        let mut q =
            LinkQueue::new(10, QueuePolicy::Red { min_thresh: 0, max_thresh: 2, max_prob: 0.0 });
        assert_eq!(q.enqueue(pkt(0), 0.99), EnqueueOutcome::Enqueued);
        assert_eq!(q.enqueue(pkt(1), 0.99), EnqueueOutcome::Enqueued);
        assert_eq!(q.enqueue(pkt(2), 0.99), EnqueueOutcome::Dropped);
    }

    #[test]
    fn red_probabilistic_between_thresholds() {
        let mut q =
            LinkQueue::new(100, QueuePolicy::Red { min_thresh: 1, max_thresh: 3, max_prob: 1.0 });
        q.enqueue(pkt(0), 0.0); // len 0 < min_thresh, accepted
        q.enqueue(pkt(1), 0.9); // len 1: p = 1.0 * (1-1)/2 = 0 -> accept
                                // len 2: p = 1.0 * (2-1)/2 = 0.5; uniform 0.1 < p -> drop
        assert_eq!(q.enqueue(pkt(2), 0.1), EnqueueOutcome::Dropped);
        // uniform 0.9 >= 0.5 -> accept
        assert_eq!(q.enqueue(pkt(3), 0.9), EnqueueOutcome::Enqueued);
    }

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn zero_capacity_rejected() {
        let _ = LinkQueue::new(0, QueuePolicy::DropTail);
    }
}
