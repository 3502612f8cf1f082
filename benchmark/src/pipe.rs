//! Record-then-replay harness for a sender's ACK path.
//!
//! A sender runs once against a `TcpReceiver` through a pipe this file owns
//! — a serialising link, a fixed one-way delay, optionally a seeded bounded
//! displacement of data segments — while every `(AckEvent, now)` and timer
//! input it is handed is recorded. Replaying that sequence into a fresh
//! sender reproduces the run exactly, with nothing but the sender inside
//! the timed section.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};
use std::time::{Duration, Instant};

use experiments::figures::fig6::WINDOW_CAP;
use experiments::variants::Variant;
use netsim::time::{SimDuration, SimTime};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use tcp_pr::TcpPrConfig;
use transport::receiver::{ReceiverConfig, TcpReceiver};
use transport::sender::{AckEvent, SenderOutput, TcpSenderAlgo, TimerOp};

/// Serialisation time of one segment: 1000 B at 20 Mbit/s.
const TX: SimDuration = SimDuration::from_micros(400);
/// One-way delay in each direction. With `TX` the pipe holds 100 segments,
/// a third of the window cap, so a capped sender keeps a standing queue and
/// never loses a segment.
const DELAY: SimDuration = SimDuration::from_millis(20);
/// Largest displacement, in segment slots, of the reordered pipe: the
/// bounded-displacement ("almost sorted") permutation model.
pub const MAX_DISPLACEMENT: u64 = 32;

/// One input a sender was handed.
#[derive(Debug, Clone)]
pub enum Input {
    Ack(AckEvent, SimTime),
    Timer(SimTime),
}

/// The recorded input sequence of one run, and where the run ended.
#[derive(Debug, Clone)]
pub struct Recording {
    pub inputs: Vec<Input>,
    pub acks: usize,
    pub final_cwnd: f64,
    pub retransmits: u64,
}

/// The sender every pipe run and replay starts from.
pub fn fresh_sender(variant: Variant) -> Box<dyn TcpSenderAlgo> {
    variant.build_with(TcpPrConfig::default(), WINDOW_CAP)
}

enum Arrival {
    Data { seq: u64, tx_count: u32, sent_at: SimTime },
    Ack(AckEvent),
}

struct Pipe {
    /// In flight, earliest first; the counter keeps equal instants FIFO.
    heap: BinaryHeap<Reverse<(SimTime, u64)>>,
    payload: HashMap<u64, Arrival>,
    next_id: u64,
    link_free_at: SimTime,
    tx_counts: HashMap<u64, u32>,
    displace: Option<SmallRng>,
    timer: Option<SimTime>,
    retransmits: u64,
}

impl Pipe {
    fn push(&mut self, at: SimTime, arrival: Arrival) {
        self.heap.push(Reverse((at, self.next_id)));
        self.payload.insert(self.next_id, arrival);
        self.next_id += 1;
    }

    /// Puts the sender's requested transmissions on the link and takes over
    /// its timer request, as `SenderHost::apply_output` does.
    fn apply(&mut self, out: &mut SenderOutput, now: SimTime) {
        for t in out.transmissions() {
            let count = self.tx_counts.entry(t.seq).or_insert(0);
            *count += 1;
            let tx_count = *count;
            self.retransmits += u64::from(t.is_retransmit);
            let departs = self.link_free_at.max(now);
            self.link_free_at = departs + TX;
            let held = match &mut self.displace {
                Some(rng) => TX * rng.gen_range(0..=MAX_DISPLACEMENT),
                None => SimDuration::ZERO,
            };
            let at = self.link_free_at + DELAY + held;
            self.push(at, Arrival::Data { seq: t.seq, tx_count, sent_at: now });
        }
        match out.timer() {
            TimerOp::Keep => {}
            TimerOp::Set(at) => self.timer = Some(at.max(now)),
            TimerOp::Cancel => self.timer = None,
        }
        out.clear();
    }
}

/// Runs `variant` through the pipe until it has been handed `acks` ACKs and
/// returns everything it was handed. `displace_seed` switches the bounded
/// displacement on.
pub fn record(variant: Variant, displace_seed: Option<u64>, acks: usize) -> Recording {
    let mut sender = fresh_sender(variant);
    let mut receiver = TcpReceiver::new(ReceiverConfig::default());
    let mut out = SenderOutput::new();
    let mut pipe = Pipe {
        heap: BinaryHeap::new(),
        payload: HashMap::new(),
        next_id: 0,
        link_free_at: SimTime::ZERO,
        tx_counts: HashMap::new(),
        displace: displace_seed.map(SmallRng::seed_from_u64),
        timer: None,
        retransmits: 0,
    };
    let mut rec = Recording { inputs: Vec::new(), acks: 0, final_cwnd: 0.0, retransmits: 0 };

    sender.on_start(SimTime::ZERO, &mut out);
    pipe.apply(&mut out, SimTime::ZERO);
    while rec.acks < acks {
        let next = pipe.heap.peek().map(|Reverse((at, _))| *at);
        let timer_first = match (pipe.timer, next) {
            (Some(t), Some(n)) => t <= n,
            (Some(_), None) => true,
            (None, Some(_)) => false,
            (None, None) => panic!("{variant} stalled with nothing in flight and no timer"),
        };
        if timer_first {
            let now = pipe.timer.take().expect("timer is armed");
            rec.inputs.push(Input::Timer(now));
            sender.on_timer(now, &mut out);
            pipe.apply(&mut out, now);
            continue;
        }
        let Reverse((now, id)) = pipe.heap.pop().expect("peeked");
        match pipe.payload.remove(&id).expect("every queued id has a payload") {
            Arrival::Data { seq, tx_count, sent_at } => {
                let d = receiver.on_data(seq);
                let ack = AckEvent {
                    cum_ack: d.cum_ack,
                    sack: d.sack.into_iter().collect(),
                    dsack: d.dsack,
                    echo_timestamp: sent_at,
                    echo_tx_count: tx_count,
                    dup: d.dup,
                };
                pipe.push(now + DELAY, Arrival::Ack(ack));
            }
            Arrival::Ack(ack) => {
                sender.on_ack(&ack, now, &mut out);
                pipe.apply(&mut out, now);
                rec.inputs.push(Input::Ack(ack, now));
                rec.acks += 1;
            }
        }
    }
    rec.final_cwnd = sender.cwnd();
    rec.retransmits = pipe.retransmits;
    rec
}

/// Feeds a recording to a fresh sender. Returns the wall time of the whole
/// replay — one `Instant` pair around every call — and the sender's final
/// congestion window, which equals the recorded run's.
pub fn replay(variant: Variant, rec: &Recording) -> (Duration, f64) {
    let mut sender = fresh_sender(variant);
    let mut out = SenderOutput::new();
    sender.on_start(SimTime::ZERO, &mut out);
    out.clear();
    let t0 = Instant::now();
    for input in &rec.inputs {
        match input {
            Input::Ack(ack, now) => sender.on_ack(ack, *now, &mut out),
            Input::Timer(now) => sender.on_timer(*now, &mut out),
        }
        out.clear();
    }
    let wall = t0.elapsed();
    (wall, std::hint::black_box(sender.cwnd()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn replay_reproduces_the_recorded_final_cwnd() {
        for variant in Variant::ALL {
            for displace in [None, Some(7)] {
                let rec = record(variant, displace, 3_000);
                assert_eq!(rec.acks, 3_000);
                let (_, cwnd) = replay(variant, &rec);
                assert_eq!(
                    cwnd.to_bits(),
                    rec.final_cwnd.to_bits(),
                    "{variant} displaced={}",
                    displace.is_some()
                );
            }
        }
    }

    #[test]
    fn the_inorder_pipe_never_retransmits_and_the_displaced_pipe_reorders() {
        let inorder = record(Variant::Sack, None, 3_000);
        assert_eq!(inorder.retransmits, 0);
        assert!(inorder.inputs.iter().all(|i| match i {
            Input::Ack(a, _) => !a.dup && a.sack.is_empty(),
            Input::Timer(_) => true,
        }));
        let displaced = record(Variant::Sack, Some(7), 3_000);
        let dups =
            displaced.inputs.iter().filter(|i| matches!(i, Input::Ack(a, _) if a.dup)).count();
        assert!(dups > 300, "bounded displacement must produce duplicate ACKs, got {dups}");
    }

    #[test]
    fn recording_is_a_pure_function_of_its_seed() {
        let a = record(Variant::TcpPr, Some(7), 2_000);
        let b = record(Variant::TcpPr, Some(7), 2_000);
        let c = record(Variant::TcpPr, Some(8), 2_000);
        let times = |r: &Recording| -> Vec<SimTime> {
            r.inputs
                .iter()
                .map(|i| match i {
                    Input::Ack(_, t) | Input::Timer(t) => *t,
                })
                .collect()
        };
        assert_eq!(times(&a), times(&b));
        assert_ne!(times(&a), times(&c));
    }
}
