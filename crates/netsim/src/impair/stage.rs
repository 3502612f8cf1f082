//! Per-packet impairment stages and the pipeline that runs them.
//!
//! Stages are configured declaratively ([`StageConfig`]) and executed in
//! order by an [`ImpairPipeline`] owned by the link. The pipeline sits
//! between the link's output queue and its propagation stage: a packet has
//! already been dequeued and has already paid its serialization time when
//! the pipeline decides its [`Fate`].

use crate::time::SimDuration;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Declarative configuration of one impairment stage.
///
/// Probabilities are per-packet; durations are simulation time. All
/// constructors of random stages validate their probabilities when the
/// pipeline is built (see [`ImpairPipeline::new`]).
#[derive(Debug, Clone, PartialEq)]
pub enum StageConfig {
    /// Independent (Bernoulli) loss with probability `p` per packet.
    IidLoss {
        /// Per-packet drop probability in `[0, 1)`.
        p: f64,
    },
    /// Two-state Gilbert–Elliott burst loss. The channel alternates
    /// between a *good* and a *bad* state following a Markov chain; each
    /// state has its own loss probability. The long-run fraction of time
    /// in the bad state is `p_good_to_bad / (p_good_to_bad + p_bad_to_good)`,
    /// so the steady-state loss rate is
    /// `(p_gb·loss_bad + p_bg·loss_good) / (p_gb + p_bg)`
    /// (see [`StageConfig::steady_state_loss`]).
    GilbertElliott {
        /// Per-packet probability of switching good → bad.
        p_good_to_bad: f64,
        /// Per-packet probability of switching bad → good.
        p_bad_to_good: f64,
        /// Loss probability while in the good state (often 0).
        loss_good: f64,
        /// Loss probability while in the bad state (often 1).
        loss_bad: f64,
    },
    /// Bounded extra delay: with probability `prob`, add a uniform draw
    /// from `[0, max_extra]` to the packet's propagation delay. This is
    /// the canonical synthetic-reordering generator — delayed packets are
    /// overtaken by later undellayed ones.
    Jitter {
        /// Probability a packet receives extra delay.
        prob: f64,
        /// Maximum extra delay (uniformly drawn, inclusive of 0).
        max_extra: SimDuration,
    },
    /// Deterministic fixed-offset displacement: every `every`-th packet is
    /// held back by `depth` packet-transmission times, so it lands about
    /// `depth` positions late in the arrival order. Draws no randomness;
    /// the displacement pattern is a pure function of the packet index.
    Displace {
        /// Period: displace packet numbers `every, 2·every, …` (1-based).
        every: u64,
        /// Displacement depth in packet slots.
        depth: u32,
    },
    /// Independent duplication with probability `p`: the packet is
    /// delivered and a copy is delivered one transmission time later.
    Duplicate {
        /// Per-packet duplication probability in `[0, 1)`.
        p: f64,
    },
}

impl StageConfig {
    /// Long-run expected loss rate of this stage, packets-in to
    /// packets-dropped (delay-only stages return 0).
    pub fn steady_state_loss(&self) -> f64 {
        match *self {
            StageConfig::IidLoss { p } => p,
            StageConfig::GilbertElliott { p_good_to_bad, p_bad_to_good, loss_good, loss_bad } => {
                let denom = p_good_to_bad + p_bad_to_good;
                if denom == 0.0 {
                    loss_good // chain never leaves its initial (good) state
                } else {
                    (p_good_to_bad * loss_bad + p_bad_to_good * loss_good) / denom
                }
            }
            StageConfig::Jitter { .. } | StageConfig::Displace { .. } => 0.0,
            StageConfig::Duplicate { .. } => 0.0,
        }
    }

    fn validate(&self) {
        let prob = |p: f64, what: &str| {
            assert!((0.0..=1.0).contains(&p), "{what} must be in [0,1], got {p}");
        };
        match *self {
            StageConfig::IidLoss { p } => prob(p, "iid loss probability"),
            StageConfig::GilbertElliott { p_good_to_bad, p_bad_to_good, loss_good, loss_bad } => {
                prob(p_good_to_bad, "good→bad transition probability");
                prob(p_bad_to_good, "bad→good transition probability");
                prob(loss_good, "good-state loss probability");
                prob(loss_bad, "bad-state loss probability");
            }
            StageConfig::Jitter { prob: p, .. } => prob(p, "jitter probability"),
            StageConfig::Displace { every, .. } => {
                assert!(every > 0, "displacement period must be positive");
            }
            StageConfig::Duplicate { p } => prob(p, "duplication probability"),
        }
    }
}

/// Mutable runtime state of one stage (Markov state, packet counters).
#[derive(Debug, Clone)]
struct Stage {
    config: StageConfig,
    /// Gilbert–Elliott: currently in the bad state? Chains start good.
    bad: bool,
    /// Displace: packets seen so far (1-based after increment).
    seen: u64,
}

/// Counters accumulated by a link's impairment pipeline.
///
/// [`crate::sim::Simulator::run_health`] sums them over the links into the
/// run's [`crate::telemetry::SessionStats`], the artifacts' `run_health`
/// block; a telemetry `Sampler` probe can sample them over time.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, serde::Serialize)]
pub struct ImpairStats {
    /// Packets dropped by i.i.d. loss stages.
    pub iid_losses: u64,
    /// Packets dropped by Gilbert–Elliott stages.
    pub burst_losses: u64,
    /// Packets dropped because the link was administratively down.
    pub down_drops: u64,
    /// Extra copies scheduled by duplication stages.
    pub duplicates: u64,
    /// Packets that received random extra delay from a jitter stage.
    pub jittered: u64,
    /// Packets held back by a displacement stage.
    pub displaced: u64,
    /// Administrative down transitions executed on the link.
    pub flaps: u64,
}

impl ImpairStats {
    /// Total packets dropped by impairments (all causes).
    pub fn drops(&self) -> u64 {
        self.iid_losses + self.burst_losses + self.down_drops
    }

    /// Packets whose delivery order was perturbed (jitter + displacement).
    pub fn reorder_displacements(&self) -> u64 {
        self.jittered + self.displaced
    }

    /// Field-wise sum, for aggregating across links.
    pub fn merge(&mut self, other: &ImpairStats) {
        self.iid_losses += other.iid_losses;
        self.burst_losses += other.burst_losses;
        self.down_drops += other.down_drops;
        self.duplicates += other.duplicates;
        self.jittered += other.jittered;
        self.displaced += other.displaced;
        self.flaps += other.flaps;
    }
}

/// What the pipeline decided for one packet.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fate {
    /// The packet is lost on the wire (it still consumed its
    /// serialization time).
    Dropped,
    /// The packet propagates, possibly late and possibly twice.
    Deliver {
        /// Extra propagation delay added by jitter/displacement stages.
        extra_delay: SimDuration,
        /// Schedule a second copy one transmission time behind the first.
        duplicate: bool,
    },
}

impl Fate {
    const CLEAN: Fate = Fate::Deliver { extra_delay: SimDuration::ZERO, duplicate: false };
}

/// An ordered set of impairment stages with a private RNG stream.
///
/// The RNG is seeded once at construction (see [`super::derive_seed`]);
/// the pipeline never touches the simulator's main RNG, so adding or
/// removing impairments cannot perturb any other random decision.
#[derive(Debug, Clone)]
pub struct ImpairPipeline {
    stages: Vec<Stage>,
    rng: SmallRng,
}

impl ImpairPipeline {
    /// Builds a pipeline from stage configs, validating probabilities.
    ///
    /// # Panics
    ///
    /// Panics if any stage carries a probability outside `[0, 1]` or a
    /// zero displacement period.
    pub fn new(stages: &[StageConfig], seed: u64) -> Self {
        for s in stages {
            s.validate();
        }
        ImpairPipeline {
            stages: stages
                .iter()
                .map(|config| Stage { config: config.clone(), bad: false, seen: 0 })
                .collect(),
            rng: SmallRng::seed_from_u64(seed),
        }
    }

    /// True when the pipeline has no stages (links skip calling it).
    pub fn is_empty(&self) -> bool {
        self.stages.is_empty()
    }

    /// Runs one departing packet through every stage in order. `tx` is the
    /// packet's transmission time on this link, used as the unit for
    /// displacement depth. A drop short-circuits the remaining stages.
    pub fn process(&mut self, tx: SimDuration, stats: &mut ImpairStats) -> Fate {
        let mut extra_delay = SimDuration::ZERO;
        let mut duplicate = false;
        for stage in &mut self.stages {
            match stage.config {
                StageConfig::IidLoss { p } => {
                    if self.rng.gen_bool(p) {
                        stats.iid_losses += 1;
                        obs::count("impair.iid_loss", 1);
                        return Fate::Dropped;
                    }
                }
                StageConfig::GilbertElliott {
                    p_good_to_bad,
                    p_bad_to_good,
                    loss_good,
                    loss_bad,
                } => {
                    // Loss is decided by the current state, then the chain
                    // steps — the standard per-packet discretization.
                    let loss_p = if stage.bad { loss_bad } else { loss_good };
                    let lost = self.rng.gen_bool(loss_p);
                    let flip_p = if stage.bad { p_bad_to_good } else { p_good_to_bad };
                    if self.rng.gen_bool(flip_p) {
                        stage.bad = !stage.bad;
                    }
                    if lost {
                        stats.burst_losses += 1;
                        obs::count("impair.burst_loss", 1);
                        return Fate::Dropped;
                    }
                }
                StageConfig::Jitter { prob, max_extra } => {
                    if self.rng.gen_bool(prob) {
                        let span = max_extra.as_nanos();
                        if span > 0 {
                            extra_delay += SimDuration::from_nanos(self.rng.gen_range(0..=span));
                            stats.jittered += 1;
                            obs::count("impair.jitter_deferral", 1);
                        }
                    }
                }
                StageConfig::Displace { every, depth } => {
                    stage.seen += 1;
                    if stage.seen % every == 0 {
                        extra_delay += tx.saturating_mul(u64::from(depth));
                        stats.displaced += 1;
                        obs::count("impair.displaced", 1);
                    }
                }
                StageConfig::Duplicate { p } => {
                    if self.rng.gen_bool(p) {
                        duplicate = true;
                        stats.duplicates += 1;
                        obs::count("impair.duplicate", 1);
                    }
                }
            }
        }
        if extra_delay == SimDuration::ZERO && !duplicate {
            Fate::CLEAN
        } else {
            Fate::Deliver { extra_delay, duplicate }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const TX: SimDuration = SimDuration::from_micros(800);

    #[test]
    fn empty_pipeline_is_transparent() {
        let mut pipe = ImpairPipeline::new(&[], 1);
        let mut stats = ImpairStats::default();
        assert!(pipe.is_empty());
        for _ in 0..10 {
            assert_eq!(pipe.process(TX, &mut stats), Fate::CLEAN);
        }
        assert_eq!(stats, ImpairStats::default());
    }

    #[test]
    fn iid_loss_extremes() {
        let mut never = ImpairPipeline::new(&[StageConfig::IidLoss { p: 0.0 }], 1);
        let mut always = ImpairPipeline::new(&[StageConfig::IidLoss { p: 1.0 }], 1);
        let mut stats = ImpairStats::default();
        for _ in 0..100 {
            assert_eq!(never.process(TX, &mut stats), Fate::CLEAN);
            assert_eq!(always.process(TX, &mut stats), Fate::Dropped);
        }
        assert_eq!(stats.iid_losses, 100);
        assert_eq!(stats.drops(), 100);
    }

    #[test]
    fn displacement_is_deterministic_and_periodic() {
        let mut pipe = ImpairPipeline::new(&[StageConfig::Displace { every: 3, depth: 2 }], 9);
        let mut stats = ImpairStats::default();
        let fates: Vec<Fate> = (0..9).map(|_| pipe.process(TX, &mut stats)).collect();
        let held = Fate::Deliver { extra_delay: TX.saturating_mul(2), duplicate: false };
        for (i, fate) in fates.iter().enumerate() {
            if (i + 1) % 3 == 0 {
                assert_eq!(*fate, held, "packet {i} displaced");
            } else {
                assert_eq!(*fate, Fate::CLEAN, "packet {i} untouched");
            }
        }
        assert_eq!(stats.displaced, 3);
        assert_eq!(stats.reorder_displacements(), 3);
        assert_eq!(stats.drops(), 0);
    }

    #[test]
    fn duplication_keeps_the_original() {
        let mut pipe = ImpairPipeline::new(&[StageConfig::Duplicate { p: 1.0 }], 4);
        let mut stats = ImpairStats::default();
        assert_eq!(
            pipe.process(TX, &mut stats),
            Fate::Deliver { extra_delay: SimDuration::ZERO, duplicate: true }
        );
        assert_eq!(stats.duplicates, 1);
    }

    #[test]
    fn same_seed_same_fates() {
        let stages = [
            StageConfig::GilbertElliott {
                p_good_to_bad: 0.1,
                p_bad_to_good: 0.4,
                loss_good: 0.01,
                loss_bad: 0.9,
            },
            StageConfig::Jitter { prob: 0.3, max_extra: SimDuration::from_millis(5) },
            StageConfig::Duplicate { p: 0.05 },
        ];
        let mut a = ImpairPipeline::new(&stages, 77);
        let mut b = ImpairPipeline::new(&stages, 77);
        let (mut sa, mut sb) = (ImpairStats::default(), ImpairStats::default());
        for _ in 0..5_000 {
            assert_eq!(a.process(TX, &mut sa), b.process(TX, &mut sb));
        }
        assert_eq!(sa, sb);
        assert!(sa.burst_losses > 0 && sa.jittered > 0 && sa.duplicates > 0);
    }

    #[test]
    fn steady_state_loss_formula() {
        let ge = StageConfig::GilbertElliott {
            p_good_to_bad: 0.02,
            p_bad_to_good: 0.18,
            loss_good: 0.0,
            loss_bad: 1.0,
        };
        assert!((ge.steady_state_loss() - 0.1).abs() < 1e-12);
        assert_eq!(StageConfig::IidLoss { p: 0.03 }.steady_state_loss(), 0.03);
        assert_eq!(
            StageConfig::Jitter { prob: 1.0, max_extra: SimDuration::from_millis(1) }
                .steady_state_loss(),
            0.0
        );
    }

    #[test]
    #[should_panic(expected = "iid loss probability")]
    fn invalid_probability_rejected() {
        let _ = ImpairPipeline::new(&[StageConfig::IidLoss { p: 1.5 }], 0);
    }

    #[test]
    #[should_panic(expected = "displacement period")]
    fn zero_period_rejected() {
        let _ = ImpairPipeline::new(&[StageConfig::Displace { every: 0, depth: 1 }], 0);
    }
}
