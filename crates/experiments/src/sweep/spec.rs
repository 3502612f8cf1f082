//! The sweep job model: a serializable description of one simulation run
//! with a stable content hash.
//!
//! A [`ScenarioSpec`] is everything needed to execute one cell of a figure's
//! parameter sweep — scenario kind and parameters, measurement plan and the
//! sweep's base seed. Two properties make the rest of the engine work:
//!
//! - **The hash is content-addressed and stable.** [`ScenarioSpec::content_hash`]
//!   is FNV-1a over a canonical byte encoding (plus [`CODE_SALT`]), so the
//!   same spec hashes identically across processes, runs and platforms.
//!   The result cache keys on it, and re-running a sweep only executes
//!   scenarios whose spec (or the code salt) changed.
//! - **The simulation seed derives from the hash.** [`ScenarioSpec::sim_seed`]
//!   is `content_hash ⊕ base_seed`, a pure function of the spec — never of
//!   worker count, scheduling order or wall clock — which is what makes
//!   sweep results bit-identical at any `--jobs` level.

use crate::ablations::Ablation;
use crate::runner::MeasurePlan;
use crate::variants::Variant;
pub use workload::TopologyModel;

/// Code-version salt folded into every spec hash. Bump it whenever scenario
/// *semantics* change (topology defaults, measurement protocol, sender
/// behavior) so stale cache entries stop matching.
pub const CODE_SALT: &str = "tcp-pr-sweep-v1";

/// Revision of what a cached run *records*, written into every cache entry
/// and checked on load (absent or different ⇒ miss, re-execute once). Bump
/// it when a run-health or outcome field derived from simulator internals
/// changes meaning (`events_processed`, `peak_event_heap`, the scale suite's
/// `bytes_per_flow`). Unlike [`CODE_SALT`] it is **not** part of
/// [`ScenarioSpec::content_hash`]: a bump re-seeds nothing and moves no
/// figure.
pub const WORK_REV: u64 = 6;

/// Which topology a fairness scenario runs on, with the figure's bandwidth
/// override (None = the topology's default).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum TopologySpec {
    /// Single-bottleneck dumbbell, optionally with a non-default
    /// bottleneck bandwidth (Figure 3 shrinks it to raise loss).
    Dumbbell {
        /// Bottleneck bandwidth override, Mbps.
        bottleneck_mbps: Option<f64>,
    },
    /// Figure 1 parking lot, optionally with a non-default backbone
    /// bandwidth.
    ParkingLot {
        /// Backbone bandwidth override, Mbps.
        backbone_mbps: Option<f64>,
    },
}

impl TopologySpec {
    /// Short name, the `topology` a fairness cell reports.
    pub fn label(&self) -> &'static str {
        match self {
            TopologySpec::Dumbbell { .. } => "dumbbell",
            TopologySpec::ParkingLot { .. } => "parking-lot",
        }
    }

    /// The bandwidth override, if any.
    pub fn bandwidth_override(&self) -> Option<f64> {
        match *self {
            TopologySpec::Dumbbell { bottleneck_mbps } => bottleneck_mbps,
            TopologySpec::ParkingLot { backbone_mbps } => backbone_mbps,
        }
    }

    /// Canonical hash encoding: the label then the override (pinned-hash
    /// test below).
    fn hash_into(&self, h: &mut Fnv1a) {
        h.write_str(self.label());
        h.write_opt_f64(self.bandwidth_override());
    }
}

/// One scenario family and its parameters.
#[derive(Debug, Clone, PartialEq)]
pub enum ScenarioKind {
    /// The shared fairness experiment behind Figures 2, 3 and 4: `n_flows`
    /// test flows (half TCP-PR with the given α/β, half TCP-SACK).
    Fairness {
        /// Topology and bandwidth override.
        topology: TopologySpec,
        /// Total test flows (even).
        n_flows: usize,
        /// TCP-PR memory factor α.
        alpha: f64,
        /// TCP-PR threshold multiplier β.
        beta: f64,
        /// Replicate index (the paper's "ten simulations" scatter). Folded
        /// into the hash, so each replicate derives a distinct sim seed.
        replicate: u64,
    },
    /// One (variant, ε) cell of Figure 6 over the Figure 5 mesh.
    Multipath {
        /// Protocol under test.
        variant: Variant,
        /// Routing spread parameter ε.
        epsilon: f64,
        /// Per-link one-way delay, ms.
        link_delay_ms: u64,
    },
    /// Route-flap extension: one variant on the short/long diamond.
    RouteFlap {
        /// Protocol under test.
        variant: Variant,
        /// Short-path one-way link delay, ms.
        short_delay_ms: u64,
        /// Long-path one-way link delay, ms.
        long_delay_ms: u64,
        /// Link bandwidth, Mbps.
        link_mbps: f64,
        /// Flap period, ms.
        flap_period_ms: u64,
    },
    /// MANET churn extension: one variant under random route recomputation.
    Churn {
        /// Protocol under test.
        variant: Variant,
        /// Mean interval between route recomputations, ms.
        mean_interval_ms: u64,
        /// Seed of the churn schedule (independent of the sim seed).
        churn_seed: u64,
    },
    /// One TCP-PR ablation on the single-flow dumbbell.
    Ablation {
        /// Which mechanism is removed.
        ablation: Ablation,
    },
    /// Stress suite: one variant on the dumbbell with on-off cross
    /// traffic, under the spec's `impairments` list (the only kind that
    /// honors it).
    Stress {
        /// Protocol under test.
        variant: Variant,
    },
    /// Adversarial hunt cell: one variant plus a SACK rival on the stress
    /// dumbbell, honoring both the spec's `impairments` list and its
    /// one-shot admin `schedule`. Used only by the `hunt` search loop.
    Hunt {
        /// Protocol under test.
        variant: Variant,
    },
    /// Internet-scale population cell: a generated topology carrying
    /// `target_flows` concurrent churning flows (Poisson arrivals,
    /// heavy-tailed sizes) alongside one foreground sender per variant.
    Scale {
        /// Protocol of the foreground flow under test.
        variant: Variant,
        /// Generated topology to populate. Generation is a pure function
        /// of the model and the spec's derived sim seed, so the content
        /// hash covers everything execution-relevant.
        model: TopologyModel,
        /// Target concurrent logical flows across the population.
        target_flows: u32,
        /// Replicate index, folded into the hash for distinct sim seeds.
        replicate: u64,
    },
}

/// One channel impairment applied to the stress bottleneck, in spec form.
///
/// Mirrors `netsim::impair` configuration but stays a pure-data sweep
/// type: integer milliseconds instead of durations, so the canonical hash
/// encoding has no float-formatting ambiguity beyond the probabilities
/// themselves. Order matters — stages run in list order — and the hash
/// encoding preserves it.
#[derive(Debug, Clone, PartialEq)]
pub enum ImpairmentSpec {
    /// Independent per-packet loss.
    IidLoss {
        /// Drop probability.
        p: f64,
    },
    /// Gilbert–Elliott burst loss (good state is lossless).
    BurstLoss {
        /// Per-packet probability of switching good → bad.
        p_good_to_bad: f64,
        /// Per-packet probability of switching bad → good.
        p_bad_to_good: f64,
        /// Loss probability while in the bad state.
        loss_bad: f64,
    },
    /// Bounded random extra delay (the reordering generator).
    Jitter {
        /// Probability a packet is delayed.
        prob: f64,
        /// Maximum extra delay, ms.
        max_extra_ms: u64,
    },
    /// Deterministic displacement of every `every`-th packet by `depth`
    /// packet slots.
    Displace {
        /// Displacement period (1-based packet count).
        every: u64,
        /// Displacement depth in packet slots.
        depth: u32,
    },
    /// Independent per-packet duplication.
    Duplicate {
        /// Duplication probability.
        p: f64,
    },
    /// Periodic link flapping: down for the last `down_ms` of every
    /// `period_ms` cycle.
    Flap {
        /// Cycle length, ms.
        period_ms: u64,
        /// Downtime at the end of each cycle, ms.
        down_ms: u64,
    },
    /// Square-wave bottleneck bandwidth oscillation between the scenario
    /// default and `low_mbps`.
    BandwidthOscillation {
        /// Second-half-cycle bandwidth, Mbps.
        low_mbps: f64,
        /// Cycle length, ms.
        period_ms: u64,
    },
    /// Square-wave bottleneck delay oscillation between the scenario
    /// default and `high_delay_ms`.
    DelayOscillation {
        /// Second-half-cycle one-way delay, ms.
        high_delay_ms: u64,
        /// Cycle length, ms.
        period_ms: u64,
    },
}

/// One scheduled one-shot administrative action on the bottleneck link, in
/// spec form. Unlike the periodic [`ImpairmentSpec::Flap`], these windows
/// are placed at absolute instants — the degrees of freedom the adversary
/// mutates when hunting for pathological loss-burst/flap placements.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AdminWindowSpec {
    /// Bottleneck goes down at `at_ms` and comes back `dur_ms` later.
    Down {
        /// Window start, ms from sim start.
        at_ms: u64,
        /// Outage length, ms.
        dur_ms: u64,
    },
    /// Bottleneck one-way delay jumps to `delay_ms` at `at_ms`, reverting
    /// to the scenario default `dur_ms` later (a reordering/RTT spike).
    Delay {
        /// Window start, ms from sim start.
        at_ms: u64,
        /// Window length, ms.
        dur_ms: u64,
        /// One-way delay inside the window, ms.
        delay_ms: u64,
    },
}

/// What a parameter of an impairment stage or admin window measures. The
/// unit fixes its JSON number (`Prob` and `Rate` are floats, the rest
/// integers), its search quantum and the bounds it is read back inside.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Unit {
    /// A probability in `[0, 1]`.
    Prob,
    /// A link rate, Mbps, finite and at least [`MIN_RATE_MBPS`].
    Rate,
    /// A delay a packet's arrival is pushed out by, ms, at most
    /// [`MAX_DELAY_MS`].
    Delay,
    /// An instant or a length, ms, that is still a `u64` of nanoseconds.
    Ms,
    /// A cycle length: a positive `Ms`.
    Period,
    /// A positive packet count.
    Count,
    /// A count of packet slots that fits `u32`.
    Slots,
}

/// The longest delay a stage or window may add to a packet, ms (one hour):
/// the arrival of a packet sent at any instant of a run is then still an
/// instant of the sim clock.
pub(crate) const MAX_DELAY_MS: u64 = 3_600_000;

/// The lowest rate a bandwidth oscillation may drop to, Mbps: a 1,500-byte
/// packet then serializes in 12 s, not in more time than the clock holds.
pub(crate) const MIN_RATE_MBPS: f64 = 0.001;

/// How the adversary draws and tweaks one parameter, in quanta of its unit
/// (`hunt::PROB_STEP` for probabilities, `hunt::MS_STEP` for milliseconds,
/// one for counts and slots).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Search {
    /// Never drawn, tweaked or halved: the oscillation rows, which the
    /// stress grid covers.
    Off,
    /// Drawn from `lo..=hi`; tweaked an octave up or down inside
    /// `[floor, cap]`, and never tweaked when `cap` is 0.
    Range { lo: u64, hi: u64, cap: u64, floor: u64 },
    /// Downtime inside the cycle that parameter `.0` is the length of:
    /// drawn from `1..=max(1, cycle / 2)`, tweaked inside `[1, cycle / 2]`,
    /// read back as `0 < downtime < cycle`.
    Inside(usize),
    /// Start of the window that parameter `.0` is the length of: drawn so
    /// the window ends by `hunt::HORIZON_MS`, tweaked by a shift, read back
    /// as `start + length` still on the clock.
    Before(usize),
}

impl Search {
    /// The parameter this one's range depends on.
    pub(crate) fn tie(self) -> Option<usize> {
        match self {
            Search::Inside(of) | Search::Before(of) => Some(of),
            Search::Off | Search::Range { .. } => None,
        }
    }
}

/// One parameter of a [`Row`].
pub(crate) struct Param {
    /// Field name, in the JSON codec and in read-back errors.
    pub name: &'static str,
    /// What it measures.
    pub unit: Unit,
    /// Counted by the shrinker's size measure (and halved by the shrinker
    /// where it is searched); a placement or a shape parameter is not.
    pub intensity: bool,
    /// How the adversary draws and tweaks it.
    pub search: Search,
}

/// One `ImpairmentSpec` or `AdminWindowSpec` variant: its tag and its
/// parameters, in the order they are hashed and written.
pub(crate) struct Row {
    /// Tag, in labels, profile names, the hash and the JSON codec.
    pub tag: &'static str,
    /// Parameters, in variant field order.
    pub params: &'static [Param],
}

const fn row(tag: &'static str, params: &'static [Param]) -> Row {
    Row { tag, params }
}

const fn p(name: &'static str, unit: Unit, intensity: bool, search: Search) -> Param {
    Param { name, unit, intensity, search }
}

const fn range(lo: u64, hi: u64, cap: u64) -> Search {
    floored(lo, hi, cap, 0)
}

const fn floored(lo: u64, hi: u64, cap: u64, floor: u64) -> Search {
    Search::Range { lo, hi, cap, floor }
}

/// Every impairment stage (in `ImpairmentSpec` order, the searched rows
/// first) and every admin window (in `AdminWindowSpec` order). Tag, hash,
/// JSON codec, read-back checks, size measure and the adversary's draw,
/// tweak and weaken moves are walks over these ten rows.
#[rustfmt::skip]
pub(crate) const TABLE: [Row; 10] = [
    //  tag             name             unit          intensity  search, in quanta
    row("iid-loss",   &[p("p",             Unit::Prob,   true,  range(1, 12, 40))]),
    row("burst-loss", &[p("p_good_to_bad", Unit::Prob,   true,  range(1, 10, 40)),
                        p("p_bad_to_good", Unit::Prob,   false, range(10, 100, 200)),
                        p("loss_bad",      Unit::Prob,   true,  range(100, 200, 200))]),
    row("jitter",     &[p("prob",          Unit::Prob,   true,  range(20, 120, 200)),
                        p("max_extra_ms",  Unit::Delay,  true,  range(1, 8, 16))]),
    row("displace",   &[p("every",         Unit::Count,  false, floored(5, 40, 64, 2)),
                        p("depth",         Unit::Slots,  true,  range(2, 8, 16))]),
    row("duplicate",  &[p("p",             Unit::Prob,   true,  range(1, 10, 40))]),
    row("flap",       &[p("period_ms",     Unit::Period, false, range(50, 300, 0)),
                        p("down_ms",       Unit::Ms,     true,  Search::Inside(0))]),
    row("bw-osc",     &[p("low_mbps",      Unit::Rate,   false, Search::Off),
                        p("period_ms",     Unit::Period, true,  Search::Off)]),
    row("delay-osc",  &[p("high_delay_ms", Unit::Delay,  true,  Search::Off),
                        p("period_ms",     Unit::Period, false, Search::Off)]),
    row("down",       &[p("at_ms",         Unit::Ms,     false, Search::Before(1)),
                        p("dur_ms",        Unit::Ms,     true,  range(5, 40, 100))]),
    row("delay",      &[p("at_ms",         Unit::Ms,     false, Search::Before(1)),
                        p("dur_ms",        Unit::Ms,     true,  range(10, 60, 100)),
                        p("delay_ms",      Unit::Delay,  true,  range(5, 20, 40))]),
];

/// A variant's parameter values in row order, a float as its bits; slots
/// past the row's parameters are 0.
pub(crate) type Values = [u64; 3];

/// [`ImpairmentSpec`] and [`AdminWindowSpec`] as rows of [`TABLE`]. The
/// per-variant `match`es are the two methods here; everything that encodes,
/// checks or searches a variant walks its row.
pub(crate) trait Tabled: Sized {
    /// This enum's rows of [`TABLE`], in variant order.
    const ROWS: &'static [Row];
    /// What a read-back error calls an unknown tag.
    const NOUN: &'static str;

    /// The variant's index into `ROWS` and its values.
    fn row(&self) -> (usize, Values);

    /// The variant of `ROWS[row]` holding `v`.
    fn from_row(row: usize, v: Values) -> Self;

    /// Short tag for labels and profile names.
    fn tag(&self) -> &'static str {
        Self::ROWS[self.row().0].tag
    }
}

impl Tabled for ImpairmentSpec {
    const ROWS: &'static [Row] = TABLE.split_at(8).0;
    const NOUN: &'static str = "impairment";

    fn row(&self) -> (usize, Values) {
        let f = f64::to_bits;
        match *self {
            Self::IidLoss { p } => (0, [f(p), 0, 0]),
            Self::BurstLoss { p_good_to_bad: a, p_bad_to_good: b, loss_bad: c } => {
                (1, [f(a), f(b), f(c)])
            }
            Self::Jitter { prob, max_extra_ms } => (2, [f(prob), max_extra_ms, 0]),
            Self::Displace { every, depth } => (3, [every, u64::from(depth), 0]),
            Self::Duplicate { p } => (4, [f(p), 0, 0]),
            Self::Flap { period_ms, down_ms } => (5, [period_ms, down_ms, 0]),
            Self::BandwidthOscillation { low_mbps, period_ms } => (6, [f(low_mbps), period_ms, 0]),
            Self::DelayOscillation { high_delay_ms, period_ms } => {
                (7, [high_delay_ms, period_ms, 0])
            }
        }
    }

    fn from_row(row: usize, [a, b, c]: Values) -> Self {
        let f = f64::from_bits;
        match row {
            0 => Self::IidLoss { p: f(a) },
            1 => Self::BurstLoss { p_good_to_bad: f(a), p_bad_to_good: f(b), loss_bad: f(c) },
            2 => Self::Jitter { prob: f(a), max_extra_ms: b },
            3 => Self::Displace { every: a, depth: b as u32 },
            4 => Self::Duplicate { p: f(a) },
            5 => Self::Flap { period_ms: a, down_ms: b },
            6 => Self::BandwidthOscillation { low_mbps: f(a), period_ms: b },
            _ => Self::DelayOscillation { high_delay_ms: a, period_ms: b },
        }
    }
}

impl Tabled for AdminWindowSpec {
    const ROWS: &'static [Row] = TABLE.split_at(8).1;
    const NOUN: &'static str = "window";

    fn row(&self) -> (usize, Values) {
        match *self {
            Self::Down { at_ms, dur_ms } => (0, [at_ms, dur_ms, 0]),
            Self::Delay { at_ms, dur_ms, delay_ms } => (1, [at_ms, dur_ms, delay_ms]),
        }
    }

    fn from_row(row: usize, [at_ms, dur_ms, delay_ms]: Values) -> Self {
        match row {
            0 => Self::Down { at_ms, dur_ms },
            _ => Self::Delay { at_ms, dur_ms, delay_ms },
        }
    }
}

/// Canonical hash encoding of a stage or window: the tag string then every
/// parameter in row order, a float as its bits.
fn hash_row<T: Tabled>(t: &T, h: &mut Fnv1a) {
    let (row, v) = t.row();
    h.write_str(T::ROWS[row].tag);
    v[..T::ROWS[row].params.len()].iter().for_each(|&x| h.write_u64(x));
}

/// The human name of an impairment pipeline and admin schedule: stage tags
/// then window tags joined by `+`, or `baseline` when both are empty.
pub(crate) fn profile_name(impairments: &[ImpairmentSpec], schedule: &[AdminWindowSpec]) -> String {
    let tags: Vec<&str> = impairments
        .iter()
        .map(ImpairmentSpec::tag)
        .chain(schedule.iter().map(AdminWindowSpec::tag))
        .collect();
    if tags.is_empty() {
        "baseline".to_owned()
    } else {
        tags.join("+")
    }
}

/// Measurement plan selector — a closed enum rather than raw durations so
/// the hash encoding stays canonical.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PlanSpec {
    /// `MeasurePlan::smoke()` — 1 s warm-up, 3 s window. Cheap cells for
    /// the adversarial hunt, where thousands of candidates are evaluated.
    Smoke,
    /// `MeasurePlan::quick()` — 10 s warm-up, 15 s window.
    Quick,
    /// `MeasurePlan::default()` — the paper's 60 s + 60 s.
    Full,
}

impl PlanSpec {
    /// Selects by the repro binary's `--quick` flag.
    pub fn from_quick(quick: bool) -> Self {
        if quick {
            PlanSpec::Quick
        } else {
            PlanSpec::Full
        }
    }

    /// The concrete measurement plan.
    pub fn plan(self) -> MeasurePlan {
        match self {
            PlanSpec::Smoke => MeasurePlan::smoke(),
            PlanSpec::Quick => MeasurePlan::quick(),
            PlanSpec::Full => MeasurePlan::default(),
        }
    }
}

/// A complete, executable description of one simulation run.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioSpec {
    /// Scenario family and parameters.
    pub kind: ScenarioKind,
    /// Warm-up/measurement plan.
    pub plan: PlanSpec,
    /// Sweep-level base seed, XORed into the derived sim seed.
    pub base_seed: u64,
    /// Stream this run's first-flow packet trace (observability only:
    /// excluded from the hash, and traced runs bypass the cache so the
    /// side effect always happens).
    pub traced: bool,
    /// Channel impairments applied to the scenario's bottleneck, in
    /// pipeline order. Empty for every non-stress scenario — and an empty
    /// list is hash-transparent, so legacy specs keep their cache keys.
    /// Honored by [`ScenarioKind::Stress`] and [`ScenarioKind::Hunt`].
    pub impairments: Vec<ImpairmentSpec>,
    /// One-shot admin windows on the bottleneck, the adversary's schedule
    /// dimension. Empty everywhere outside the hunt — and hash-transparent
    /// when empty, so pre-existing cache keys survive the field's addition.
    /// Honored only by [`ScenarioKind::Hunt`].
    pub schedule: Vec<AdminWindowSpec>,
}

impl ScenarioSpec {
    /// A spec with base seed 0, tracing off, no impairments and no admin
    /// schedule.
    pub fn new(kind: ScenarioKind, plan: PlanSpec) -> Self {
        ScenarioSpec {
            kind,
            plan,
            base_seed: 0,
            traced: false,
            impairments: Vec::new(),
            schedule: Vec::new(),
        }
    }

    /// Replaces the impairment list (builder style).
    pub fn with_impairments(mut self, impairments: Vec<ImpairmentSpec>) -> Self {
        self.impairments = impairments;
        self
    }

    /// Replaces the admin-window schedule (builder style).
    pub fn with_schedule(mut self, schedule: Vec<AdminWindowSpec>) -> Self {
        self.schedule = schedule;
        self
    }

    /// Stable content hash: FNV-1a 64 over the canonical encoding of
    /// everything execution-relevant ([`CODE_SALT`], plan, base seed and
    /// the kind with all its parameters). `traced` is excluded — tracing
    /// observes a run without changing it.
    pub fn content_hash(&self) -> u64 {
        let mut h = Fnv1a::new();
        h.write_str(CODE_SALT);
        h.write_str(match self.plan {
            PlanSpec::Smoke => "smoke",
            PlanSpec::Quick => "quick",
            PlanSpec::Full => "full",
        });
        h.write_u64(self.base_seed);
        match &self.kind {
            ScenarioKind::Fairness { topology, n_flows, alpha, beta, replicate } => {
                h.write_str("fairness");
                topology.hash_into(&mut h);
                h.write_u64(*n_flows as u64);
                h.write_f64(*alpha);
                h.write_f64(*beta);
                h.write_u64(*replicate);
            }
            ScenarioKind::Multipath { variant, epsilon, link_delay_ms } => {
                h.write_str("multipath");
                h.write_str(variant.label());
                h.write_f64(*epsilon);
                h.write_u64(*link_delay_ms);
            }
            ScenarioKind::RouteFlap {
                variant,
                short_delay_ms,
                long_delay_ms,
                link_mbps,
                flap_period_ms,
            } => {
                h.write_str("routeflap");
                h.write_str(variant.label());
                h.write_u64(*short_delay_ms);
                h.write_u64(*long_delay_ms);
                h.write_f64(*link_mbps);
                h.write_u64(*flap_period_ms);
            }
            ScenarioKind::Churn { variant, mean_interval_ms, churn_seed } => {
                h.write_str("churn");
                h.write_str(variant.label());
                h.write_u64(*mean_interval_ms);
                h.write_u64(*churn_seed);
            }
            ScenarioKind::Ablation { ablation } => {
                h.write_str("ablation");
                h.write_str(ablation.label());
            }
            ScenarioKind::Stress { variant } => {
                h.write_str("stress");
                h.write_str(variant.label());
            }
            ScenarioKind::Hunt { variant } => {
                h.write_str("hunt");
                h.write_str(variant.label());
            }
            ScenarioKind::Scale { variant, model, target_flows, replicate } => {
                h.write_str("scale");
                h.write_str(variant.label());
                // Not a choice among topologies any more, but part of every
                // scale cell's cache key and derived seed.
                h.write_str("generated");
                match *model {
                    TopologyModel::FatTree { k } => {
                        h.write_str("fat-tree");
                        h.write_u64(u64::from(k));
                    }
                    TopologyModel::AsGraph { nodes, edges_per_node } => {
                        h.write_str("as-graph");
                        h.write_u64(u64::from(nodes));
                        h.write_u64(u64::from(edges_per_node));
                    }
                }
                h.write_u64(u64::from(*target_flows));
                h.write_u64(*replicate);
            }
        }
        // Impairments are appended only when present, so every legacy spec
        // (impairments is empty everywhere outside the stress grid) hashes
        // exactly as before — cache keys and derived sim seeds survive.
        if !self.impairments.is_empty() {
            h.write_str("impair");
            h.write_u64(self.impairments.len() as u64);
            for imp in &self.impairments {
                hash_row(imp, &mut h);
            }
        }
        // Same empty-field transparency for the adversary schedule: only
        // hunt specs ever populate it, so every earlier spec's cache key
        // and derived sim seed is untouched by the field's existence.
        if !self.schedule.is_empty() {
            h.write_str("sched");
            h.write_u64(self.schedule.len() as u64);
            for w in &self.schedule {
                hash_row(w, &mut h);
            }
        }
        h.finish()
    }

    /// The hash as the 16-hex-digit cache key.
    pub fn hash_hex(&self) -> String {
        format!("{:016x}", self.content_hash())
    }

    /// The simulator seed for this run: `hash(spec) ⊕ base_seed`. Depends
    /// only on the spec's content, never on scheduling.
    pub fn sim_seed(&self) -> u64 {
        self.content_hash() ^ self.base_seed
    }

    /// Short human label for progress lines and crash reports.
    pub fn label(&self) -> String {
        match &self.kind {
            ScenarioKind::Fairness { topology, n_flows, alpha, beta, replicate } => {
                match topology.bandwidth_override() {
                    Some(bw) => {
                        format!("fairness {} n={n_flows} bw={bw} rep={replicate}", topology.label())
                    }
                    None => format!(
                        "fairness {} n={n_flows} α={alpha} β={beta} rep={replicate}",
                        topology.label()
                    ),
                }
            }
            ScenarioKind::Multipath { variant, epsilon, link_delay_ms } => {
                format!("fig6 {variant} ε={epsilon} delay={link_delay_ms}ms")
            }
            ScenarioKind::RouteFlap { variant, flap_period_ms, .. } => {
                format!("routeflap {variant} period={flap_period_ms}ms")
            }
            ScenarioKind::Churn { variant, mean_interval_ms, .. } => {
                format!("churn {variant} mean={mean_interval_ms}ms")
            }
            ScenarioKind::Ablation { ablation } => format!("ablation: {}", ablation.label()),
            ScenarioKind::Stress { variant } => {
                format!("stress {variant} [{}]", profile_name(&self.impairments, &[]))
            }
            ScenarioKind::Hunt { variant } => {
                format!("hunt {variant} [{}]", profile_name(&self.impairments, &self.schedule))
            }
            ScenarioKind::Scale { variant, model, target_flows, replicate } => {
                format!("scale {variant} {} flows={target_flows} rep={replicate}", model.label())
            }
        }
    }
}

/// Incremental FNV-1a 64-bit hasher with length-prefixed field framing, so
/// adjacent fields can never alias (`"ab" + "c"` ≠ `"a" + "bc"`).
struct Fnv1a(u64);

impl Fnv1a {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;

    fn new() -> Self {
        Fnv1a(Self::OFFSET)
    }

    fn write_bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(Self::PRIME);
        }
    }

    fn write_str(&mut self, s: &str) {
        self.write_u64(s.len() as u64);
        self.write_bytes(s.as_bytes());
    }

    fn write_u64(&mut self, v: u64) {
        self.write_bytes(&v.to_le_bytes());
    }

    fn write_f64(&mut self, v: f64) {
        self.write_bytes(&v.to_bits().to_le_bytes());
    }

    fn write_opt_f64(&mut self, v: Option<f64>) {
        match v {
            Some(x) => {
                self.write_bytes(&[1]);
                self.write_f64(x);
            }
            None => self.write_bytes(&[0]),
        }
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fairness_spec(n_flows: usize, replicate: u64) -> ScenarioSpec {
        ScenarioSpec::new(
            ScenarioKind::Fairness {
                topology: TopologySpec::Dumbbell { bottleneck_mbps: None },
                n_flows,
                alpha: 0.995,
                beta: 3.0,
                replicate,
            },
            PlanSpec::Quick,
        )
    }

    #[test]
    fn hash_is_deterministic_and_content_addressed() {
        let a = fairness_spec(8, 1);
        assert_eq!(a.content_hash(), a.content_hash());
        assert_eq!(a.content_hash(), a.clone().content_hash());
        assert_ne!(a.content_hash(), fairness_spec(16, 1).content_hash());
        assert_ne!(a.content_hash(), fairness_spec(8, 2).content_hash());
        let full = ScenarioSpec { plan: PlanSpec::Full, ..a.clone() };
        assert_ne!(a.content_hash(), full.content_hash(), "plan is execution-relevant");
        let seeded = ScenarioSpec { base_seed: 7, ..a.clone() };
        assert_ne!(a.content_hash(), seeded.content_hash(), "base seed is execution-relevant");
        let traced = ScenarioSpec { traced: true, ..a.clone() };
        assert_eq!(a.content_hash(), traced.content_hash(), "tracing only observes");
    }

    #[test]
    fn hash_is_stable_across_releases() {
        // Pinned value: guards the canonical encoding (and CODE_SALT)
        // against accidental drift, which would silently invalidate every
        // on-disk cache and change every derived sim seed.
        assert_eq!(fairness_spec(8, 1).hash_hex(), "adbc5eaf101c1722");
    }

    #[test]
    fn every_impairment_and_window_row_hashes_as_recorded() {
        // One hunt spec per `ImpairmentSpec` / `AdminWindowSpec` variant, each
        // hash recorded on commit 34f2eb8, when every variant still had its
        // own hand-written encoder.
        let hunt = |imp: Vec<ImpairmentSpec>, sched: Vec<AdminWindowSpec>| {
            ScenarioSpec::new(ScenarioKind::Hunt { variant: Variant::TcpPr }, PlanSpec::Smoke)
                .with_impairments(imp)
                .with_schedule(sched)
                .hash_hex()
        };
        let imp = |i: ImpairmentSpec| hunt(vec![i], Vec::new());
        let win = |w: AdminWindowSpec| hunt(Vec::new(), vec![w]);
        let rows = [
            (imp(ImpairmentSpec::IidLoss { p: 0.035 }), "9478ce04094ffd02"),
            (
                imp(ImpairmentSpec::BurstLoss {
                    p_good_to_bad: 0.02,
                    p_bad_to_good: 0.3,
                    loss_bad: 1.0,
                }),
                "12cbf946c40623ba",
            ),
            (imp(ImpairmentSpec::Jitter { prob: 0.3, max_extra_ms: 30 }), "0c5ac34b39a9234f"),
            (imp(ImpairmentSpec::Displace { every: 20, depth: 4 }), "068c89129f8b8562"),
            (imp(ImpairmentSpec::Duplicate { p: 0.02 }), "95a9db23694e662f"),
            (imp(ImpairmentSpec::Flap { period_ms: 3000, down_ms: 300 }), "69f34d9c358d8b34"),
            (
                imp(ImpairmentSpec::BandwidthOscillation { low_mbps: 3.0, period_ms: 2000 }),
                "d5a5b849b322dc27",
            ),
            (
                imp(ImpairmentSpec::DelayOscillation { high_delay_ms: 60, period_ms: 2000 }),
                "a630f69769001578",
            ),
            (win(AdminWindowSpec::Down { at_ms: 1500, dur_ms: 200 }), "fd2eb65d52ce881e"),
            (
                win(AdminWindowSpec::Delay { at_ms: 2500, dur_ms: 300, delay_ms: 100 }),
                "b420cf8a6d078e4b",
            ),
        ];
        let got: Vec<&str> = rows.iter().map(|(h, _)| h.as_str()).collect();
        let want: Vec<&str> = rows.iter().map(|&(_, w)| w).collect();
        assert_eq!(got, want);
    }

    #[test]
    fn sim_seed_derives_from_hash_and_base_seed() {
        let a = fairness_spec(8, 1);
        assert_eq!(a.sim_seed(), a.content_hash() ^ a.base_seed);
        let b = ScenarioSpec { base_seed: 99, ..a.clone() };
        assert_eq!(b.sim_seed(), b.content_hash() ^ 99);
        assert_ne!(a.sim_seed(), b.sim_seed());
    }

    #[test]
    fn distinct_kinds_hash_apart() {
        let specs = [
            fairness_spec(8, 1),
            ScenarioSpec::new(
                ScenarioKind::Multipath {
                    variant: Variant::TcpPr,
                    epsilon: 0.0,
                    link_delay_ms: 10,
                },
                PlanSpec::Quick,
            ),
            ScenarioSpec::new(ScenarioKind::Ablation { ablation: Ablation::None }, PlanSpec::Quick),
            ScenarioSpec::new(
                ScenarioKind::Churn {
                    variant: Variant::TcpPr,
                    mean_interval_ms: 400,
                    churn_seed: 42,
                },
                PlanSpec::Quick,
            ),
        ];
        let mut hashes: Vec<u64> = specs.iter().map(ScenarioSpec::content_hash).collect();
        hashes.sort_unstable();
        hashes.dedup();
        assert_eq!(hashes.len(), specs.len());
    }

    #[test]
    fn empty_impairments_are_hash_transparent() {
        // The field was added after the pinned-hash test above; an empty
        // list must encode to nothing so legacy cache keys survive.
        let legacy = fairness_spec(8, 1);
        let explicit = ScenarioSpec { impairments: Vec::new(), ..legacy.clone() };
        assert_eq!(legacy.content_hash(), explicit.content_hash());
        assert_eq!(legacy.hash_hex(), "adbc5eaf101c1722");
    }

    #[test]
    fn empty_schedule_is_hash_transparent() {
        // The adversary-schedule field postdates every cached spec; an
        // empty schedule must encode to nothing so the pinned hash (and
        // with it every pre-existing cache key) survives the addition.
        let legacy = fairness_spec(8, 1);
        let explicit = ScenarioSpec { schedule: Vec::new(), ..legacy.clone() };
        assert_eq!(legacy.content_hash(), explicit.content_hash());
        assert_eq!(legacy.hash_hex(), "adbc5eaf101c1722");
    }

    #[test]
    fn schedule_moves_the_hash_and_order_matters() {
        let base =
            ScenarioSpec::new(ScenarioKind::Hunt { variant: Variant::TcpPr }, PlanSpec::Smoke);
        let down = AdminWindowSpec::Down { at_ms: 500, dur_ms: 200 };
        let delay = AdminWindowSpec::Delay { at_ms: 1500, dur_ms: 300, delay_ms: 80 };
        let a = base.clone().with_schedule(vec![down, delay]);
        let b = base.clone().with_schedule(vec![delay, down]);
        assert_ne!(base.content_hash(), a.content_hash(), "schedule is execution-relevant");
        assert_ne!(a.content_hash(), b.content_hash(), "window order is execution-relevant");
        let moved =
            base.with_schedule(vec![AdminWindowSpec::Down { at_ms: 501, dur_ms: 200 }, delay]);
        assert_ne!(a.content_hash(), moved.content_hash(), "placement is execution-relevant");
    }

    #[test]
    fn hunt_labels_show_variant_and_windows() {
        let spec =
            ScenarioSpec::new(ScenarioKind::Hunt { variant: Variant::TcpPr }, PlanSpec::Smoke)
                .with_impairments(vec![ImpairmentSpec::Jitter { prob: 0.5, max_extra_ms: 50 }])
                .with_schedule(vec![AdminWindowSpec::Down { at_ms: 500, dur_ms: 200 }]);
        let label = spec.label();
        assert!(label.contains("hunt"), "{label}");
        assert!(label.contains("jitter+down"), "{label}");
        assert!(label.contains("TCP-PR"), "{label}");
    }

    #[test]
    fn impairments_move_the_hash_and_order_matters() {
        let base =
            ScenarioSpec::new(ScenarioKind::Stress { variant: Variant::TcpPr }, PlanSpec::Quick);
        let a = base.clone().with_impairments(vec![
            ImpairmentSpec::IidLoss { p: 0.01 },
            ImpairmentSpec::Duplicate { p: 0.05 },
        ]);
        let b = base.clone().with_impairments(vec![
            ImpairmentSpec::Duplicate { p: 0.05 },
            ImpairmentSpec::IidLoss { p: 0.01 },
        ]);
        assert_ne!(base.content_hash(), a.content_hash(), "impairments are execution-relevant");
        assert_ne!(a.content_hash(), b.content_hash(), "pipeline order is execution-relevant");
        let p2 = base.clone().with_impairments(vec![ImpairmentSpec::IidLoss { p: 0.02 }]);
        let p1 = base.with_impairments(vec![ImpairmentSpec::IidLoss { p: 0.01 }]);
        assert_ne!(p1.content_hash(), p2.content_hash(), "parameters are execution-relevant");
    }

    #[test]
    fn stress_labels_show_variant_and_profile() {
        let bare =
            ScenarioSpec::new(ScenarioKind::Stress { variant: Variant::TcpPr }, PlanSpec::Quick);
        assert!(bare.label().contains("baseline"), "{}", bare.label());
        let imp = bare.with_impairments(vec![
            ImpairmentSpec::Jitter { prob: 0.5, max_extra_ms: 50 },
            ImpairmentSpec::Flap { period_ms: 2000, down_ms: 200 },
        ]);
        let label = imp.label();
        assert!(label.contains("jitter+flap"), "{label}");
        assert!(label.contains("TCP-PR"), "{label}");
    }

    fn scale_spec(target_flows: u32, replicate: u64) -> ScenarioSpec {
        ScenarioSpec::new(
            ScenarioKind::Scale {
                variant: Variant::TcpPr,
                model: TopologyModel::FatTree { k: 4 },
                target_flows,
                replicate,
            },
            PlanSpec::Quick,
        )
    }

    #[test]
    fn scale_hash_is_stable_across_releases() {
        // Pinned like the fairness hash above: the scale grid's cache keys
        // and derived sim seeds (and with them the generated topologies and
        // churn streams) ride on this encoding.
        assert_eq!(scale_spec(10_000, 0).hash_hex(), "9a189adc61abb1a5");
    }

    #[test]
    fn scale_parameters_are_execution_relevant() {
        let a = scale_spec(1000, 0);
        assert_ne!(a.content_hash(), scale_spec(10_000, 0).content_hash());
        assert_ne!(a.content_hash(), scale_spec(1000, 1).content_hash());
        let as_graph = ScenarioSpec::new(
            ScenarioKind::Scale {
                variant: Variant::TcpPr,
                model: TopologyModel::AsGraph { nodes: 40, edges_per_node: 2 },
                target_flows: 1000,
                replicate: 0,
            },
            PlanSpec::Quick,
        );
        assert_ne!(a.content_hash(), as_graph.content_hash(), "topology model moves the hash");
        let bigger = ScenarioSpec {
            kind: ScenarioKind::Scale {
                variant: Variant::TcpPr,
                model: TopologyModel::FatTree { k: 6 },
                target_flows: 1000,
                replicate: 0,
            },
            ..a.clone()
        };
        assert_ne!(a.content_hash(), bigger.content_hash(), "arity moves the hash");
    }

    #[test]
    fn generated_topology_labels_and_overrides() {
        let lot = TopologySpec::ParkingLot { backbone_mbps: Some(9.0) };
        assert_eq!(lot.label(), "parking-lot");
        assert_eq!(lot.bandwidth_override(), Some(9.0));
        assert_eq!(TopologySpec::Dumbbell { bottleneck_mbps: None }.bandwidth_override(), None);
        let label = scale_spec(1000, 2).label();
        assert!(label.contains("scale"), "{label}");
        assert!(label.contains("fat-tree-k4"), "{label}");
        assert!(label.contains("flows=1000"), "{label}");
    }

    #[test]
    fn labels_name_the_scenario() {
        assert!(fairness_spec(8, 3).label().contains("n=8"));
        let m = ScenarioSpec::new(
            ScenarioKind::Multipath { variant: Variant::TdFr, epsilon: 4.0, link_delay_ms: 60 },
            PlanSpec::Full,
        );
        assert!(m.label().contains("TD-FR"));
    }
}
