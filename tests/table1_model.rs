//! Table 1 of the paper and Section 3.2's extreme loss, transcribed line for
//! line: the one reference for `TcpPrSender`. The lists are `Vec`s scanned
//! linearly, `α^(1/cwnd)` is the paper's Newton loop, and where the paper
//! leaves a mechanic open the line cites DESIGN.md §2a. One seeded stream of
//! ACKs, timer fires and clock advances drives both; after every step their
//! state must be equal, floats by bits, and the sender must keep its laws.

use netsim::time::{SimDuration, SimTime};
use proptest::prelude::*;
use tcp_pr::{Mode, TcpPrConfig, TcpPrSender};
use transport::sender::{AckEvent, SenderOutput, TcpSenderAlgo, TimerOp};

/// §2a.10: `mxrtt` before any RTT sample, the extreme-loss floor and cap of
/// `mxrtt`, and the Newton steps of the paper's Linux footnote.
const INITIAL_MXRTT: SimDuration = SimDuration::from_secs(3);
const BACKOFF_FLOOR: SimDuration = SimDuration::from_secs(1);
const MAX_BACKOFF: SimDuration = SimDuration::from_secs(64);
const NEWTON_STEPS: u32 = 2;

/// An entry of `to-be-ack`: packet `n`, `time(n)`, `cwnd(n)`, and whether
/// `n` was sent before (§2a.8).
#[derive(Clone, Copy)]
struct Sent {
    n: u64,
    time: SimTime,
    cwnd: f64,
    again: bool,
}

struct Table1 {
    cfg: TcpPrConfig,
    mode: Mode,
    cwnd: f64,
    ssthr: f64,
    to_be_sent: Vec<u64>,
    to_be_ack: Vec<Sent>,
    memorize: Vec<u64>,
    /// The first packet never sent.
    next: u64,
    ewrtt_secs: Option<f64>,
    cburst: u64,
    /// Section 3.2: `mxrtt` while in extreme loss, and the end of the pause.
    backoff: Option<SimDuration>,
    pause: Option<SimTime>,
    /// What the last event sent, and the timer it asked for.
    out: SenderOutput,
}

impl Table1 {
    /// Initialization: slow start, `cwnd := 1`, `ssthr := ∞`, empty lists.
    fn new(cfg: TcpPrConfig) -> Self {
        Table1 {
            cfg,
            mode: Mode::SlowStart,
            cwnd: 1.0,
            ssthr: f64::INFINITY,
            to_be_sent: Vec::new(),
            to_be_ack: Vec::new(),
            memorize: Vec::new(),
            next: 0,
            ewrtt_secs: None,
            cburst: 0,
            backoff: None,
            pause: None,
            out: SenderOutput::new(),
        }
    }

    fn ewrtt(&self) -> Option<SimDuration> {
        self.ewrtt_secs.map(SimDuration::from_secs_f64)
    }

    /// `mxrtt := β · ewrtt`; in extreme loss, the backoff (Section 3.2).
    fn mxrtt(&self) -> SimDuration {
        match (self.backoff, self.ewrtt()) {
            (Some(backoff), _) => backoff,
            (None, Some(ewrtt)) => ewrtt * self.cfg.beta,
            (None, None) => INITIAL_MXRTT,
        }
    }

    /// `α^(1/cwnd)`: Newton's method on `x^cwnd = α` from `x = 1`.
    fn root(&self) -> f64 {
        let (alpha, cwnd) = (self.cfg.alpha, self.cwnd.max(1.0));
        let step = |x: f64, _| (cwnd - 1.0) / cwnd * x + alpha / (cwnd * x.powf(cwnd - 1.0));
        (0..NEWTON_STEPS).fold(1.0, step)
    }

    /// The packet of `to-be-ack` that times out first: the earliest
    /// `time(n)`, the lower `n` on a tie (§2a.11).
    fn oldest(&self) -> Option<Sent> {
        self.to_be_ack.iter().copied().min_by_key(|s| (s.time, s.n))
    }

    /// Event: an acknowledgment for every packet below `cum`.
    fn on_ack(&mut self, cum: u64, now: SimTime) {
        // A packet waiting in `to-be-sent` is acknowledged too (§2a.11).
        self.to_be_sent.retain(|&n| n >= cum);
        let acked: Vec<Sent> = self.to_be_ack.iter().copied().filter(|s| s.n < cum).collect();
        self.to_be_ack.retain(|s| s.n >= cum);
        self.memorize.retain(|&n| n >= cum);
        let Some(trigger) = acked.iter().min_by_key(|s| s.n) else { return self.arm(now) };
        // Progress ends extreme loss and the burst (§2a.4).
        (self.backoff, self.pause, self.cburst) = (None, None, 0);
        // `ewrtt := max(α^(1/cwnd) · ewrtt, rtt)` for the packet that
        // triggered the ACK (§2a.1), unless it was sent before (§2a.8).
        if !trigger.again {
            let rtt = now.saturating_since(trigger.time).as_secs_f64();
            self.ewrtt_secs = Some(self.ewrtt_secs.map_or(rtt, |e| (self.root() * e).max(rtt)));
        }
        for _ in &acked {
            // Slow start while `cwnd + 1 ≤ ssthr` (§2a.11).
            if self.mode == Mode::SlowStart && self.cwnd + 1.0 <= self.ssthr {
                self.cwnd += 1.0;
            } else {
                self.mode = Mode::CongestionAvoidance;
                self.cwnd += 1.0 / self.cwnd;
            }
            self.cwnd = self.cwnd.min(self.cfg.max_cwnd);
        }
        self.flush_cwnd(now);
        self.arm(now);
    }

    /// Event: the timer. Drop detected while `time(n) + mxrtt ≤ now`, one `n`
    /// at a time, since a drop can move `mxrtt` (§2a.11).
    fn on_timer(&mut self, now: SimTime) {
        self.pause = self.pause.filter(|&pause| now < pause);
        while let Some(s) = self.oldest().filter(|s| s.time.saturating_add(self.mxrtt()) <= now) {
            self.to_be_ack.retain(|t| t.n != s.n);
            self.to_be_sent.push(s.n);
            let at = self.memorize.iter().position(|&n| n == s.n);
            let memorized = at.map(|i| self.memorize.remove(i)).is_some();
            if memorized && !self.cfg.ablate_no_memorize {
                // Section 3.2: over `cwnd/2 + 1` drops of one burst is extreme loss:
                // `cwnd := 1`, `mxrtt ≥ 1 s`, a pause of `mxrtt`; memorize (§2a.4).
                self.cburst += 1;
                if self.backoff.is_none()
                    && !self.cfg.ablate_no_extreme_loss
                    && self.cburst as f64 > self.cwnd / 2.0 + 1.0
                {
                    (self.cwnd, self.mode, self.cburst) = (1.0, Mode::SlowStart, 0);
                    self.memorize = self.to_be_ack.iter().map(|t| t.n).collect();
                    // DIVERGES: Section 3.2 only raises `mxrtt`; the cap of
                    // §2a.10 lowers it past 64 s (ROADMAP 10(d)).
                    let backoff = self.mxrtt().max(BACKOFF_FLOOR).min(MAX_BACKOFF);
                    (self.backoff, self.pause) = (Some(backoff), Some(now + backoff));
                }
                // The burst is over when `memorize` is (§2a.4).
                if self.memorize.is_empty() {
                    self.cburst = 0;
                }
            } else if let Some(backoff) = self.backoff {
                // Section 3.2: a new drop in extreme loss doubles `mxrtt`.
                let backoff = backoff.saturating_mul(2).min(MAX_BACKOFF);
                (self.backoff, self.pause) = (Some(backoff), Some(now + backoff));
            } else {
                // `cwnd := cwnd(n)/2` (at least 1, §2a.11), `ssthr := cwnd`,
                // congestion avoidance, `memorize := to-be-ack`.
                let basis = if self.cfg.ablate_halve_current { self.cwnd } else { s.cwnd };
                self.cwnd = (basis / 2.0).max(1.0);
                (self.ssthr, self.mode) = (self.cwnd, Mode::CongestionAvoidance);
                self.memorize = self.to_be_ack.iter().map(|t| t.n).collect();
            }
        }
        self.flush_cwnd(now);
        self.arm(now);
    }

    /// `flush-cwnd`: send while `cwnd` exceeds `|to-be-ack|`, the memorized
    /// flight not counted (§2a.2); not while paused (Section 3.2).
    fn flush_cwnd(&mut self, now: SimTime) {
        if self.pause.is_some_and(|pause| now < pause) {
            return;
        }
        let mut resent = false;
        while ((self.to_be_ack.len() - self.memorize.len()) as f64) < self.cwnd {
            // The smallest packet of `to-be-sent`, else a new one (§2a.11).
            let (n, again) =
                self.to_be_sent.iter().min().map_or((self.next, false), |&n| (n, true));
            self.to_be_sent.retain(|&m| m != n);
            self.next += u64::from(!again);
            self.to_be_ack.push(Sent { n, time: now, cwnd: self.cwnd, again });
            self.out.transmit(n, again);
            resent |= again;
        }
        // A retransmission on the wire holds the memorized packets' timers
        // for one `ewrtt` (§2a.3).
        if let (true, Some(ewrtt)) = (resent, self.ewrtt()) {
            let hold = ewrtt * (self.cfg.beta - 1.0);
            let floor = SimTime::from_nanos(now.as_nanos().saturating_sub(hold.as_nanos()));
            for s in self.to_be_ack.iter_mut().filter(|s| self.memorize.contains(&s.n)) {
                s.time = s.time.max(floor);
            }
        }
    }

    /// The timer: the earliest deadline, or the end of a pause if sooner,
    /// never before `now` (§2a.11).
    fn arm(&mut self, now: SimTime) {
        let mut deadline = self.oldest().map(|s| s.time.saturating_add(self.mxrtt()));
        if let Some(pause) = self.pause.filter(|&pause| now < pause) {
            deadline = Some(deadline.map_or(pause, |d| d.min(pause)));
        }
        match deadline {
            Some(d) => self.out.set_timer(d.max(now)),
            None => self.out.cancel_timer(),
        }
    }
}

#[test]
fn tcp_pr_sender_follows_table1_on_any_event_sequence() {
    let mut rng = TestRng::for_test("table1");
    for index in 0..10_000 {
        let bits = rng.next_u64();
        // Half the time a whole β: at β = 1 a retransmission holds nothing.
        let beta =
            if bits & 8 == 0 { (1 + (bits >> 4) % 5) as f64 } else { (1.0..5.0).sample(&mut rng) };
        let cfg = TcpPrConfig {
            max_cwnd: (2.0..48.0).sample(&mut rng),
            ablate_no_memorize: bits & 1 == 0,
            ablate_no_extreme_loss: bits & 2 == 0,
            ablate_halve_current: bits & 4 == 0,
            ..TcpPrConfig::with_alpha_beta((1e-6..1.0 - 1e-6).sample(&mut rng), beta)
        };
        let steps = collection::vec((0u8..8, 0u64..64, 0u64..2000), 1..81).sample(&mut rng);
        // A failure names its sequence; its step `i` is `steps[i - 1]`.
        if let Err(panic) = std::panic::catch_unwind(|| differential(cfg, &steps)) {
            eprintln!("sequence {index} of {cfg:?}, steps (kind, arg, clock): {steps:?}");
            std::panic::resume_unwind(panic);
        }
    }
}

/// Steps are `(kind, arg, clock)` draws, read against the state they meet.
fn differential(cfg: TcpPrConfig, steps: &[(u8, u64, u64)]) {
    let (mut model, mut sender, mut out) =
        (Table1::new(cfg), TcpPrSender::new(cfg), SenderOutput::new());
    let (mut now, mut highest, mut armed) = (SimTime::ZERO, 0, None);
    model.flush_cwnd(now);
    model.arm(now);
    sender.on_start(now, &mut out);
    compare(0, &sender, &out, &model);
    for (i, &(kind, arg, clock)) in (1..).zip(steps) {
        // The timer at its armed deadline (kinds 5, 6); else three steps in ten
        // keep the instant and the others add a microsecond up to two seconds.
        if (5..7).contains(&kind) {
            now = armed.unwrap_or(now);
        } else if clock >= 600 {
            now += SimDuration::from_micros((clock - 600).pow(2));
        }
        let queued = model.to_be_sent.iter().copied();
        let una = model.to_be_ack.iter().map(|s| s.n).chain(queued).min().unwrap_or(model.next);
        let cum = match kind {
            // Cumulative: no progress, some, all, or beyond `snd_nxt`.
            0..=2 => Some(una + arg % (model.next - una + 3)),
            3 => Some(highest),
            // Stale or reordered.
            4 => Some(arg % (highest + 1)),
            // The timer, at the deadline or at any instant (7).
            _ => None,
        };
        let book = sender.book();
        let unmemorized: Vec<u64> = (book.first_outstanding().unwrap_or(0)..book.snd_nxt())
            .filter(|&n| book.record(n).is_some_and(|r| !r.in_memorize))
            .collect();
        let halvings = sender.stats().window_halvings;
        out.clear();
        model.out.clear();
        if let Some(cum) = cum {
            let dup = cum <= highest;
            highest = highest.max(cum);
            let ack = AckEvent {
                cum_ack: cum,
                sack: Vec::new(),
                dsack: None,
                echo_timestamp: SimTime::ZERO,
                echo_tx_count: 1,
                dup,
            };
            sender.on_ack(&ack, now, &mut out);
            model.on_ack(cum, now);
        } else {
            sender.on_timer(now, &mut out);
            model.on_timer(now);
        }
        compare(i, &sender, &out, &model);
        armed = if let TimerOp::Set(at) = out.timer() { Some(at) } else { None };
        // A drop of a memorized packet never halves the window: a step
        // halves at most once, and only where an unmemorized packet dropped.
        let mut seqs: Vec<u64> = out.transmissions().iter().map(|t| t.seq).collect();
        seqs.sort_unstable();
        assert!(seqs.windows(2).all(|w| w[0] < w[1]), "step {i}: a segment twice");
        let fresh_drop =
            unmemorized.iter().any(|n| sender.book().record(*n).is_none() || seqs.contains(n));
        let halved = sender.stats().window_halvings - halvings;
        assert!(cfg.ablate_no_memorize || halved == 0 || (halved == 1 && fresh_drop), "step {i}");
    }
}

/// The sender against the transcription, floats by bits, and its own laws.
fn compare(i: usize, sender: &TcpPrSender, out: &SenderOutput, model: &Table1) {
    assert_eq!(out.transmissions(), model.out.transmissions(), "step {i}: transmissions");
    assert_eq!(out.timer(), model.out.timer(), "step {i}: timer");
    assert_eq!(sender.cwnd().to_bits(), model.cwnd.to_bits(), "step {i}: cwnd");
    assert_eq!(sender.ssthresh().to_bits(), model.ssthr.to_bits(), "step {i}: ssthresh");
    assert_eq!(sender.mode(), model.mode, "step {i}: mode");
    assert_eq!(sender.mxrtt(), model.mxrtt(), "step {i}: mxrtt");
    assert_eq!(sender.ewrtt(), model.ewrtt(), "step {i}: ewrtt");
    sender.book().check_invariants();
    assert!((1.0..=sender.config().max_cwnd).contains(&sender.cwnd()), "step {i}: cwnd");
    // Except where the backoff cap DIVERGES from Section 3.2.
    if let Some(ewrtt) = sender.ewrtt().filter(|_| sender.mxrtt() != MAX_BACKOFF) {
        assert!(sender.mxrtt() >= ewrtt, "step {i}: mxrtt {} below ewrtt {ewrtt}", sender.mxrtt());
    }
}
