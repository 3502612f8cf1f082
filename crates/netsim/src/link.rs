//! Unidirectional point-to-point links.
//!
//! A link serializes packets at `bandwidth_bps`, then propagates them with a
//! fixed delay (plus optional random jitter, an extension used to inject
//! reordering on a single path in tests and examples). Packets that arrive
//! during a serialization wait in the link's output queue — as
//! [`PacketId`]s: a link never owns a packet, it holds a place for one.
//! Packets on the wire wait on this link's lane of the event queue while
//! they are due in sending order, and in its heap when one overtakes.
//! A link carries one packet size for long runs (data one way, ACKs the
//! other), so it remembers its last serialization time ([`Link::tx_time`]).

use crate::event::EventKey;
use crate::ids::{NodeId, PacketId};
use crate::impair::{ImpairPipeline, ImpairStats, StageConfig};
use crate::queue::{LinkQueue, QueuePolicy};
use crate::time::{SimDuration, SimTime};

/// Immutable configuration of a link.
#[derive(Debug, Clone)]
pub struct LinkConfig {
    /// Serialization rate in bits per second.
    pub bandwidth_bps: f64,
    /// One-way propagation delay.
    pub delay: SimDuration,
    /// Output buffer size in packets (ns-2 uses 100 for the Fig. 5 topology).
    pub queue_packets: usize,
    /// Queue discipline.
    pub policy: QueuePolicy,
    /// Independent per-packet drop probability in `[0, 1)`. Zero for the
    /// paper's scenarios (all loss there is congestive); used by tests and
    /// the extreme-loss example.
    pub random_loss: f64,
    /// Extra random propagation delay: with probability `prob`, a packet is
    /// delayed by an additional uniform amount in `[0, max_extra]`. This
    /// models single-path reordering (route flaps); `None` disables it.
    pub jitter: Option<LinkJitter>,
    /// Two-class DiffServ queueing; `None` (default) is a single FIFO.
    pub diffserv: Option<DiffservConfig>,
    /// Ordered impairment stages run on each departing packet; empty
    /// (default) disables the pipeline. See [`crate::impair`].
    pub impair: Vec<StageConfig>,
}

/// Random extra-delay configuration; see [`LinkConfig::jitter`].
#[derive(Debug, Clone, Copy)]
pub struct LinkJitter {
    /// Probability that a packet receives extra delay.
    pub prob: f64,
    /// Maximum extra delay (uniformly drawn).
    pub max_extra: SimDuration,
}

/// Two-class differentiated-services queueing on a link (extension).
///
/// Models the paper's DiffServ motivation: a QoS-capable router places
/// marked packets into a separate queue, so packets of one flow overtake
/// each other inside a single router. Packets are marked high-priority
/// with probability `high_prob` (per-packet random marking, as when an
/// upstream profile meter tags in/out-of-profile packets), and the two
/// queues are served by the configured scheduler.
#[derive(Debug, Clone, Copy)]
pub struct DiffservConfig {
    /// Probability a packet is classified into the high-priority queue.
    pub high_prob: f64,
    /// How the two queues share the transmitter.
    pub scheduler: DiffservScheduler,
}

/// Scheduler for the two DiffServ queues.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DiffservScheduler {
    /// The high-priority queue is always served first.
    StrictPriority,
    /// Weighted round robin: `hi` transmissions from the high queue for
    /// every `lo` from the low queue (when both are backlogged).
    WeightedRoundRobin {
        /// High-priority service share.
        hi: u32,
        /// Low-priority service share.
        lo: u32,
    },
}

impl LinkConfig {
    /// A drop-tail link with the given rate, delay and queue size.
    ///
    /// # Panics
    ///
    /// Panics if `bandwidth_bps` is not strictly positive.
    pub fn new(bandwidth_bps: f64, delay: SimDuration, queue_packets: usize) -> Self {
        assert!(bandwidth_bps > 0.0, "bandwidth must be positive");
        LinkConfig {
            bandwidth_bps,
            delay,
            queue_packets,
            policy: QueuePolicy::DropTail,
            random_loss: 0.0,
            jitter: None,
            diffserv: None,
            impair: Vec::new(),
        }
    }

    /// Convenience constructor taking megabits per second and milliseconds.
    pub fn mbps_ms(mbps: f64, delay_ms: u64, queue_packets: usize) -> Self {
        Self::new(mbps * 1e6, SimDuration::from_millis(delay_ms), queue_packets)
    }

    /// Sets an independent random loss probability (builder style).
    pub fn with_random_loss(mut self, p: f64) -> Self {
        assert!((0.0..1.0).contains(&p), "loss probability must be in [0,1)");
        self.random_loss = p;
        self
    }

    /// Sets random jitter (builder style).
    pub fn with_jitter(mut self, prob: f64, max_extra: SimDuration) -> Self {
        assert!((0.0..=1.0).contains(&prob), "jitter probability must be in [0,1]");
        self.jitter = Some(LinkJitter { prob, max_extra });
        self
    }

    /// Enables two-class DiffServ queueing (builder style).
    pub fn with_diffserv(mut self, high_prob: f64, scheduler: DiffservScheduler) -> Self {
        assert!((0.0..=1.0).contains(&high_prob), "marking probability must be in [0,1]");
        if let DiffservScheduler::WeightedRoundRobin { hi, lo } = scheduler {
            assert!(hi > 0 && lo > 0, "WRR shares must be positive");
        }
        self.diffserv = Some(DiffservConfig { high_prob, scheduler });
        self
    }

    /// Installs an impairment pipeline (builder style). Stage
    /// probabilities are validated when the simulator builds the link.
    pub fn with_impairments(mut self, stages: &[StageConfig]) -> Self {
        self.impair = stages.to_vec();
        self
    }

    /// Time to serialize `size_bytes` onto the wire at this link's rate.
    pub fn transmission_time(&self, size_bytes: u32) -> SimDuration {
        SimDuration::from_secs_f64(size_bytes as f64 * 8.0 / self.bandwidth_bps)
    }
}

/// Runtime state of a link inside the simulator.
#[derive(Debug)]
pub struct Link {
    /// Node the link departs from.
    pub from: NodeId,
    /// Node the link delivers to.
    pub to: NodeId,
    /// Static configuration.
    pub config: LinkConfig,
    /// Output buffer (the low-priority queue under DiffServ).
    pub queue: LinkQueue,
    /// High-priority DiffServ queue, when enabled.
    pub queue_high: Option<LinkQueue>,
    /// Weighted-round-robin service counter.
    pub wrr_credit: u32,
    /// Event-order key of the `LinkReady` ending the serialization in
    /// progress, until that poll has run — as a real event or, elided,
    /// inside [`Link::settle`]. `None` when idle.
    pub(crate) tx_end: Option<EventKey>,
    /// Latest arrival sent down the lane; one due earlier goes to the heap.
    pub(crate) last_arrival: SimTime,
    /// The last [`Link::tx_time`]: (size, bits of the rate) and the result.
    tx_memo: ((u32, u64), SimDuration),
    /// Packets handed to the wire (post-queue).
    pub transmitted: u64,
    /// Packets dropped by the random-loss process (not queue drops).
    pub random_losses: u64,
    /// False while the link is administratively down (see
    /// [`crate::impair::LinkAdmin`]).
    pub up: bool,
    /// Impairment pipeline, when the config declares stages.
    pub impair: Option<ImpairPipeline>,
    /// Counters accumulated by impairments and admin actions.
    pub impair_stats: ImpairStats,
}

impl Link {
    /// Creates an idle link between `from` and `to`. Any impairment
    /// stages in the config are instantiated later by the simulator,
    /// which owns the seed (see `Simulator::set_link_impairments`).
    // Set-up, not dispatch: at 488 bytes `SimBuilder::build` stopped inlining
    // this by itself and copied every link once more (`mesh_reorder` `setup_s`
    // +18 %, benchmark bound 25 %); with the hint set-up ties the parent.
    #[inline]
    pub fn new(from: NodeId, to: NodeId, config: LinkConfig) -> Self {
        let queue = LinkQueue::new(config.queue_packets, config.policy.clone());
        let queue_high =
            config.diffserv.map(|_| LinkQueue::new(config.queue_packets, config.policy.clone()));
        Link {
            from,
            to,
            config,
            queue,
            queue_high,
            wrr_credit: 0,
            tx_end: None,
            last_arrival: SimTime::ZERO,
            tx_memo: ((0, 0), SimDuration::ZERO), // no rate has the bits of 0.0
            transmitted: 0,
            random_losses: 0,
            up: true,
            impair: None,
            impair_stats: ImpairStats::default(),
        }
    }

    /// [`LinkConfig::transmission_time`] at the link's present rate, computed
    /// only when the size or the rate is not the previous call's.
    pub(crate) fn tx_time(&mut self, size_bytes: u32) -> SimDuration {
        let key = (size_bytes, self.config.bandwidth_bps.to_bits());
        if self.tx_memo.0 != key {
            self.tx_memo = (key, self.config.transmission_time(size_bytes));
        }
        self.tx_memo.1
    }

    /// Total packets waiting on this link (both classes).
    pub fn queued(&self) -> usize {
        self.queue.len() + self.queue_high.as_ref().map_or(0, LinkQueue::len)
    }

    /// True if the transmitter is free at dispatch cursor `cursor` (clock,
    /// `seq` of the event being dispatched). A serialization ending strictly
    /// below the cursor is over: its `LinkReady`, kept out of the heap
    /// because nothing waited, would have been dispatched by now. All it did
    /// was poll two empty queues if the link was up — which advances the WRR
    /// credit — so that poll runs here. Call before changing `up` or
    /// enqueueing, so it sees the link as it was at its own instant.
    pub(crate) fn settle(&mut self, cursor: EventKey) -> bool {
        if self.tx_end.is_some_and(|end| end < cursor) {
            self.tx_end = None;
            if self.up {
                let polled = self.dequeue_next();
                debug_assert!(polled.is_none(), "a waiting packet puts the poll in the heap");
            }
        }
        self.tx_end.is_none()
    }

    /// Picks the next packet to serialize, honouring the DiffServ
    /// scheduler. `None` when both queues are empty.
    pub fn dequeue_next(&mut self) -> Option<PacketId> {
        let Some(ds) = self.config.diffserv else { return self.queue.dequeue() };
        let high = self.queue_high.as_mut().expect("diffserv link has a high queue");
        match ds.scheduler {
            DiffservScheduler::StrictPriority => high.dequeue().or_else(|| self.queue.dequeue()),
            DiffservScheduler::WeightedRoundRobin { hi, lo } => {
                let cycle = hi + lo;
                let serve_high = self.wrr_credit % cycle < hi;
                self.wrr_credit = (self.wrr_credit + 1) % cycle;
                if serve_high {
                    high.dequeue().or_else(|| self.queue.dequeue())
                } else {
                    let q = self.queue.dequeue();
                    if q.is_some() {
                        q
                    } else {
                        high.dequeue()
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn transmission_time_scales_with_size_and_rate() {
        let cfg = LinkConfig::mbps_ms(10.0, 10, 100);
        // 1000 bytes at 10 Mbps = 0.8 ms
        assert_eq!(cfg.transmission_time(1000), SimDuration::from_micros(800));
        let cfg2 = LinkConfig::mbps_ms(5.0, 10, 100);
        assert_eq!(cfg2.transmission_time(1000), SimDuration::from_micros(1600));
    }

    proptest::proptest! {
        /// The memo cannot be seen: whatever sizes a link has carried and
        /// however its rate moved in between, `tx_time` is `transmission_time`.
        #[test]
        fn tx_time_is_transmission_time_whatever_came_before(
            ops in proptest::collection::vec((0u8..4, 0u64..=u64::MAX), 1..200),
        ) {
            let cfg = LinkConfig::mbps_ms(10.0, 1, 10);
            let mut link = Link::new(NodeId::from_raw(0), NodeId::from_raw(1), cfg);
            for (op, x) in ops {
                if op == 0 {
                    link.config.bandwidth_bps = [9_600.0, 1e6, 1.5e6, 1e18][x as usize % 4];
                } else {
                    // Mostly a size seen before, under this rate or another.
                    let size = [0, 40, 1000, x as u32][(x >> 32) as usize % 4];
                    let fresh = link.config.transmission_time(size);
                    proptest::prop_assert_eq!(link.tx_time(size), fresh);
                }
            }
        }
    }

    #[test]
    fn builder_setters() {
        let cfg = LinkConfig::mbps_ms(1.0, 1, 10)
            .with_random_loss(0.1)
            .with_jitter(0.5, SimDuration::from_millis(3));
        assert_eq!(cfg.random_loss, 0.1);
        let j = cfg.jitter.unwrap();
        assert_eq!(j.prob, 0.5);
        assert_eq!(j.max_extra, SimDuration::from_millis(3));
    }

    #[test]
    fn impairment_builder_records_stages_and_link_starts_up() {
        let stages = [StageConfig::IidLoss { p: 0.01 }];
        let cfg = LinkConfig::mbps_ms(1.0, 1, 10).with_impairments(&stages);
        assert_eq!(cfg.impair, stages.to_vec());
        let link = Link::new(NodeId::from_raw(0), NodeId::from_raw(1), cfg);
        assert!(link.up, "links start administratively up");
        assert!(link.impair.is_none(), "pipeline is installed by the simulator");
    }

    #[test]
    #[should_panic(expected = "bandwidth must be positive")]
    fn zero_bandwidth_rejected() {
        let _ = LinkConfig::new(0.0, SimDuration::ZERO, 10);
    }

    fn pkt(id: u32) -> PacketId {
        PacketId::from_raw(id)
    }

    #[test]
    fn strict_priority_serves_high_first() {
        let cfg =
            LinkConfig::mbps_ms(10.0, 1, 10).with_diffserv(0.5, DiffservScheduler::StrictPriority);
        let mut link = Link::new(NodeId::from_raw(0), NodeId::from_raw(1), cfg);
        link.queue.enqueue(pkt(0), 0.0);
        link.queue_high.as_mut().unwrap().enqueue(pkt(1), 0.0);
        assert_eq!(link.queued(), 2);
        assert_eq!(link.dequeue_next(), Some(pkt(1)), "high priority first");
        assert_eq!(link.dequeue_next(), Some(pkt(0)));
        assert!(link.dequeue_next().is_none());
    }

    #[test]
    fn wrr_alternates_by_shares() {
        let cfg = LinkConfig::mbps_ms(10.0, 1, 10)
            .with_diffserv(0.5, DiffservScheduler::WeightedRoundRobin { hi: 1, lo: 1 });
        let mut link = Link::new(NodeId::from_raw(0), NodeId::from_raw(1), cfg);
        for i in 0..3 {
            link.queue.enqueue(pkt(i), 0.0); // low: 0,1,2
            link.queue_high.as_mut().unwrap().enqueue(pkt(10 + i), 0.0); // high: 10,11,12
        }
        let order: Vec<usize> =
            std::iter::from_fn(|| link.dequeue_next().map(PacketId::index)).collect();
        assert_eq!(order, vec![10, 0, 11, 1, 12, 2]);
    }

    #[test]
    fn wrr_falls_back_when_one_class_empty() {
        let cfg = LinkConfig::mbps_ms(10.0, 1, 10)
            .with_diffserv(0.5, DiffservScheduler::WeightedRoundRobin { hi: 1, lo: 1 });
        let mut link = Link::new(NodeId::from_raw(0), NodeId::from_raw(1), cfg);
        link.queue.enqueue(pkt(0), 0.0);
        link.queue.enqueue(pkt(1), 0.0);
        let order: Vec<usize> =
            std::iter::from_fn(|| link.dequeue_next().map(PacketId::index)).collect();
        assert_eq!(order, vec![0, 1], "empty high queue must not stall the link");
    }

    #[test]
    #[should_panic(expected = "marking probability")]
    fn invalid_marking_rejected() {
        let _ =
            LinkConfig::mbps_ms(1.0, 1, 10).with_diffserv(1.5, DiffservScheduler::StrictPriority);
    }

    #[test]
    #[should_panic(expected = "loss probability")]
    fn invalid_loss_rejected() {
        let _ = LinkConfig::mbps_ms(1.0, 1, 10).with_random_loss(1.5);
    }
}
