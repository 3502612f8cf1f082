//! Per-figure job grids and artifact assemblers.
//!
//! Each figure of the reproduction is described twice:
//!
//! - a **grid builder** expands the figure's parameter sweep into a flat
//!   list of [`ScenarioSpec`]s (one per cell), and
//! - an **assembler** folds the sweep outcomes (in spec order, fresh or
//!   cached — indistinguishable), read back as [`CellReport`]s, into the
//!   figure's paper-style text table and the `results/*.json` payload.
//!
//! The `repro` binary concatenates the grids of every requested figure into
//! one job list, runs a single sweep over all of it, then hands each
//! figure its slice of outcomes.

use serde::Value;

use crate::ablations::Ablation;
use crate::cell::{CellReport, Metric, Table};
use crate::figures::fig2::{self, Fig2Series};
use crate::figures::fig3::{self, Fig3Point};
use crate::figures::fig4::{self, Fig4Cell};
use crate::figures::fig6;
use crate::sweep::spec::{ImpairmentSpec, PlanSpec, ScenarioKind, ScenarioSpec, TopologySpec};
use crate::variants::Variant;
use workload::TopologyModel;

/// One artifact's worth of sweep work: its job grid plus the assembler
/// that turns outcomes into the table and the `results/<artifact>.json`
/// payload.
pub struct FigureGrid {
    /// CLI selector that activates this grid (`fig2`, `fig4`, `ext`, …).
    /// Several grids may share one selector (fig4 and fig6 each produce
    /// two artifacts; `ext` produces routeflap and manet).
    pub selector: &'static str,
    /// Artifact stem: results land in `results/<artifact>.json`.
    pub artifact: &'static str,
    /// Whether the bare `repro` / `repro all` invocation includes it
    /// (extensions are opt-in, matching the original driver).
    pub in_all: bool,
    /// The job grid, one spec per figure cell.
    pub specs: Vec<ScenarioSpec>,
    /// Folds outcomes (same order as `specs`) into the printed table and
    /// the artifact's `results` value.
    pub assemble: fn(&[ScenarioSpec], &[Value]) -> (String, Value),
}

/// Every figure grid of the reproduction, in canonical order.
///
/// `trace_fig2` marks the first fig2 scenario `traced`, reproducing the
/// `--telemetry-dir` behavior of streaming one complete packet trace from
/// the dumbbell run with the smallest flow count.
pub fn all_figures(quick: bool, trace_fig2: bool) -> Vec<FigureGrid> {
    let plan = PlanSpec::from_quick(quick);
    vec![
        fig2_grid(quick, plan, trace_fig2),
        fig3_grid(quick, plan),
        fig4_grid(quick, plan, true),
        fig4_grid(quick, plan, false),
        routeflap_grid(plan),
        manet_grid(plan),
        ablations_grid(plan),
        fig6_grid(quick, plan, 10),
        fig6_grid(quick, plan, 60),
        faceoff_grid(quick, plan),
        stress_grid(quick, plan),
        stress_smoke_grid(),
        cc_smoke_grid(),
        scale_grid(quick),
        scale_smoke_grid(),
    ]
}

/// The CLI selectors accepted by the repro binary, in display order.
pub fn selectors() -> Vec<&'static str> {
    let mut names: Vec<&'static str> = Vec::new();
    for g in all_figures(true, false) {
        if !names.contains(&g.selector) {
            names.push(g.selector);
        }
    }
    names
}

fn fairness_spec(
    topology: TopologySpec,
    n_flows: usize,
    alpha: f64,
    beta: f64,
    replicate: u64,
    plan: PlanSpec,
) -> ScenarioSpec {
    ScenarioSpec::new(ScenarioKind::Fairness { topology, n_flows, alpha, beta, replicate }, plan)
}

/// Reads each outcome back through its kind's metric list.
fn reports(specs: &[ScenarioSpec], outcomes: &[Value]) -> Vec<CellReport> {
    let decode = |(spec, v): (&ScenarioSpec, &Value)| {
        CellReport::decode(Metric::list(&spec.kind), v)
            .expect("the sweep hands on only outcomes that decode")
    };
    specs.iter().zip(outcomes).map(decode).collect()
}

/// The assembler of every grid whose artifact is its cells: prints the
/// reports as `table` and hands them on as the artifact's `results`.
fn assemble_cells(table: &Table, specs: &[ScenarioSpec], outcomes: &[Value]) -> (String, Value) {
    let reports = reports(specs, outcomes);
    (table.render(&reports), serde::Serialize::to_value(&reports))
}

fn fig2_grid(quick: bool, plan: PlanSpec, trace_first: bool) -> FigureGrid {
    let counts: &[usize] = if quick { &[2, 8, 16] } else { &fig2::FLOW_COUNTS };
    let topologies = [
        TopologySpec::Dumbbell { bottleneck_mbps: None },
        TopologySpec::ParkingLot { backbone_mbps: None },
    ];
    let mut specs = Vec::new();
    for t in topologies {
        for &n in counts {
            specs.push(fairness_spec(t, n, 0.995, 3.0, 0, plan));
        }
    }
    if trace_first {
        specs[0].traced = true;
    }
    FigureGrid { selector: "fig2", artifact: "fig2", in_all: true, specs, assemble: assemble_fig2 }
}

fn assemble_fig2(specs: &[ScenarioSpec], outcomes: &[Value]) -> (String, Value) {
    // Group rows into one series per topology, first-seen order.
    let mut series: Vec<Fig2Series> = Vec::new();
    for row in reports(specs, outcomes) {
        let topology = row.text(Metric::Topology).to_owned();
        match series.iter_mut().find(|s| s.topology == topology) {
            Some(s) => s.rows.push(row),
            None => series.push(Fig2Series { topology, rows: vec![row] }),
        }
    }
    (fig2::format_table(&series), serde::Serialize::to_value(&series))
}

fn fig3_grid(quick: bool, plan: PlanSpec) -> FigureGrid {
    // Smaller bottlenecks ⇒ higher loss (the paper's 4–13% band); the
    // replicates reproduce the paper's "ten simulations" scatter.
    let bandwidths: &[f64] = if quick { &[20.0, 8.0] } else { &[25.0, 18.0, 12.0, 8.0, 5.0] };
    let replicates: u64 = if quick { 2 } else { 10 };
    let n_flows = if quick { 16 } else { 64 };
    let mut specs = Vec::new();
    for &bw in bandwidths {
        for rep in 0..replicates {
            let t = TopologySpec::Dumbbell { bottleneck_mbps: Some(bw) };
            specs.push(fairness_spec(t, n_flows, 0.995, 3.0, rep, plan));
        }
    }
    for &bw in bandwidths {
        for rep in 0..replicates {
            let t = TopologySpec::ParkingLot { backbone_mbps: Some(bw * 0.6) };
            specs.push(fairness_spec(t, n_flows, 0.995, 3.0, rep, plan));
        }
    }
    FigureGrid { selector: "fig3", artifact: "fig3", in_all: true, specs, assemble: assemble_fig3 }
}

fn assemble_fig3(specs: &[ScenarioSpec], outcomes: &[Value]) -> (String, Value) {
    let points: Vec<Fig3Point> = specs
        .iter()
        .zip(reports(specs, outcomes))
        .map(|(spec, r)| {
            let ScenarioKind::Fairness { topology, replicate, .. } = &spec.kind else {
                unreachable!("fig3 grid emits only fairness specs")
            };
            Fig3Point {
                topology: r.text(Metric::Topology).to_owned(),
                bandwidth_mbps: topology
                    .bandwidth_override()
                    .expect("every fig3 spec overrides the bottleneck"),
                seed: *replicate,
                loss_rate_pct: r.num(Metric::LossRatePct),
                cov_pr: r.num(Metric::CovPr),
                cov_sack: r.num(Metric::CovSack),
            }
        })
        .collect();
    (fig3::format_table(&points), serde::Serialize::to_value(&points))
}

fn fig4_grid(quick: bool, plan: PlanSpec, dumbbell: bool) -> FigureGrid {
    let alphas: &[f64] = if quick { &[0.25, 0.995] } else { &fig4::ALPHAS };
    let betas: &[f64] = if quick { &[1.0, 3.0] } else { &fig4::BETAS };
    let n_flows = if quick { 8 } else { 64 };
    let topology = if dumbbell {
        TopologySpec::Dumbbell { bottleneck_mbps: None }
    } else {
        TopologySpec::ParkingLot { backbone_mbps: None }
    };
    let mut specs = Vec::new();
    for &alpha in alphas {
        for &beta in betas {
            specs.push(fairness_spec(topology, n_flows, alpha, beta, 0, plan));
        }
    }
    FigureGrid {
        selector: "fig4",
        artifact: if dumbbell { "fig4_dumbbell" } else { "fig4_parkinglot" },
        in_all: true,
        specs,
        assemble: assemble_fig4,
    }
}

fn assemble_fig4(specs: &[ScenarioSpec], outcomes: &[Value]) -> (String, Value) {
    let cells: Vec<Fig4Cell> = specs
        .iter()
        .zip(reports(specs, outcomes))
        .map(|(spec, r)| {
            let ScenarioKind::Fairness { alpha, beta, .. } = &spec.kind else {
                unreachable!("fig4 grid emits only fairness specs")
            };
            Fig4Cell {
                topology: r.text(Metric::Topology).to_owned(),
                alpha: *alpha,
                beta: *beta,
                mean_sack: r.num(Metric::MeanSack),
                mean_pr: r.num(Metric::MeanPr),
            }
        })
        .collect();
    let topology = cells.first().map(|c| c.topology.as_str()).unwrap_or("?");
    let table = format!("[{topology} topology]\n{}", fig4::format_table(&cells));
    (table, serde::Serialize::to_value(&cells))
}

/// The protocols compared by the route-flap and churn extensions.
const EXT_VARIANTS: [Variant; 7] = [
    Variant::TcpPr,
    Variant::Sack,
    Variant::NewReno,
    Variant::Eifel,
    Variant::Door,
    Variant::Cubic,
    Variant::Bbr,
];

/// One cell of `kind` per extension protocol.
fn ext_specs(plan: PlanSpec, kind: fn(Variant) -> ScenarioKind) -> Vec<ScenarioSpec> {
    EXT_VARIANTS.iter().map(|&variant| ScenarioSpec::new(kind(variant), plan)).collect()
}

fn routeflap_grid(plan: PlanSpec) -> FigureGrid {
    // A 10 ms and a 40 ms path of 10 Mbps links, the route switching
    // between them twice a second.
    let specs = ext_specs(plan, |variant| ScenarioKind::RouteFlap {
        variant,
        short_delay_ms: 10,
        long_delay_ms: 40,
        link_mbps: 10.0,
        flap_period_ms: 500,
    });
    FigureGrid {
        selector: "ext",
        artifact: "routeflap",
        in_all: false,
        specs,
        assemble: |s, o| assemble_cells(&Table::ROUTEFLAP, s, o),
    }
}

fn manet_grid(plan: PlanSpec) -> FigureGrid {
    let specs = ext_specs(plan, |variant| ScenarioKind::Churn {
        variant,
        mean_interval_ms: 400,
        churn_seed: 42,
    });
    FigureGrid {
        selector: "ext",
        artifact: "manet",
        in_all: false,
        specs,
        assemble: |s, o| assemble_cells(&Table::CHURN, s, o),
    }
}

fn ablations_grid(plan: PlanSpec) -> FigureGrid {
    let specs = Ablation::ALL
        .iter()
        .map(|&ablation| ScenarioSpec::new(ScenarioKind::Ablation { ablation }, plan))
        .collect();
    FigureGrid {
        selector: "ablations",
        artifact: "ablations",
        in_all: true,
        specs,
        assemble: |s, o| assemble_cells(&Table::ABLATIONS, s, o),
    }
}

/// The ten protocols of the stress suite: the paper's main contenders,
/// one representative per DSACK response, both extensions, and the two
/// modern comparators.
pub const STRESS_VARIANTS: [Variant; 10] = [
    Variant::TcpPr,
    Variant::TdFr,
    Variant::DsackNm,
    Variant::Ewma,
    Variant::Sack,
    Variant::NewReno,
    Variant::Eifel,
    Variant::Door,
    Variant::Cubic,
    Variant::Bbr,
];

/// The impairment profiles of the stress matrix, in table order. Quick
/// mode keeps the four qualitatively distinct ones (clean, burst loss,
/// reorder + duplicate, flapping); full mode adds i.i.d. loss and the two
/// capacity/delay oscillations.
pub(crate) fn stress_profiles(quick: bool) -> Vec<Vec<ImpairmentSpec>> {
    let mut profiles = vec![
        Vec::new(), // baseline
        vec![ImpairmentSpec::BurstLoss { p_good_to_bad: 0.02, p_bad_to_good: 0.3, loss_bad: 1.0 }],
        vec![
            ImpairmentSpec::Jitter { prob: 0.3, max_extra_ms: 30 },
            ImpairmentSpec::Displace { every: 20, depth: 4 },
            ImpairmentSpec::Duplicate { p: 0.02 },
        ],
        vec![ImpairmentSpec::Flap { period_ms: 3000, down_ms: 300 }],
    ];
    if !quick {
        profiles.push(vec![ImpairmentSpec::IidLoss { p: 0.01 }]);
        profiles
            .push(vec![ImpairmentSpec::BandwidthOscillation { low_mbps: 3.0, period_ms: 2000 }]);
        profiles
            .push(vec![ImpairmentSpec::DelayOscillation { high_delay_ms: 60, period_ms: 2000 }]);
    }
    profiles
}

/// One stress cell per (variant, profile), variants outermost.
fn stress_specs(variants: &[Variant], quick: bool, plan: PlanSpec) -> Vec<ScenarioSpec> {
    let mut specs = Vec::new();
    for &variant in variants {
        for profile in stress_profiles(quick) {
            specs.push(
                ScenarioSpec::new(ScenarioKind::Stress { variant }, plan).with_impairments(profile),
            );
        }
    }
    specs
}

fn stress_grid(quick: bool, plan: PlanSpec) -> FigureGrid {
    let specs = stress_specs(&STRESS_VARIANTS, quick, plan);
    FigureGrid {
        selector: "stress",
        artifact: "stress",
        in_all: false,
        specs,
        assemble: |s, o| assemble_cells(&Table::STRESS, s, o),
    }
}

/// The CI smoke slice of the stress matrix: TCP-PR over the quick
/// profiles, pinned to the quick plan regardless of `--quick` so the job
/// stays cheap (and so the full-mode grid set has no accidental overlap
/// with it).
fn stress_smoke_grid() -> FigureGrid {
    let specs = stress_specs(&[Variant::TcpPr], true, PlanSpec::Quick);
    FigureGrid {
        selector: "stress-smoke",
        artifact: "stress_smoke",
        in_all: false,
        specs,
        assemble: |s, o| assemble_cells(&Table::STRESS, s, o),
    }
}

/// The reorder-robustness face-off: TCP-PR against the classical and
/// modern loss/rate-based stacks on the ε-routed mesh.
const FACEOFF_VARIANTS: [Variant; 5] =
    [Variant::TcpPr, Variant::Sack, Variant::NewReno, Variant::Cubic, Variant::Bbr];

/// Per-link delay of the face-off mesh: 20 ms sits between the paper's
/// 10 ms and 60 ms Figure 6 settings, so the grid shares no cells with
/// either fig6 artifact.
const FACEOFF_LINK_DELAY_MS: u64 = 20;

/// One multipath cell per (variant, ε) on a mesh of `link_delay_ms` links,
/// variants outermost.
fn multipath_specs(
    variants: &[Variant],
    quick: bool,
    link_delay_ms: u64,
    plan: PlanSpec,
) -> Vec<ScenarioSpec> {
    let epsilons: &[f64] = if quick { &[0.0, 4.0, 500.0] } else { &fig6::EPSILONS };
    let mut specs = Vec::new();
    for &variant in variants {
        for &epsilon in epsilons {
            let kind = ScenarioKind::Multipath { variant, epsilon, link_delay_ms };
            specs.push(ScenarioSpec::new(kind, plan));
        }
    }
    specs
}

fn faceoff_grid(quick: bool, plan: PlanSpec) -> FigureGrid {
    let specs = multipath_specs(&FACEOFF_VARIANTS, quick, FACEOFF_LINK_DELAY_MS, plan);
    FigureGrid {
        selector: "faceoff",
        artifact: "faceoff",
        in_all: false,
        specs,
        assemble: |s, o| assemble_cells(&Table::FACEOFF, s, o),
    }
}

/// The CI smoke slice of the modern comparators: CUBIC and BBR across the
/// quick impairment profiles, pinned to the quick plan like
/// [`stress_smoke_grid`] so the job stays cheap and full-mode grids never
/// collide with it.
fn cc_smoke_grid() -> FigureGrid {
    let specs = stress_specs(&[Variant::Cubic, Variant::Bbr], true, PlanSpec::Quick);
    FigureGrid {
        selector: "cc-smoke",
        artifact: "cc_smoke",
        in_all: false,
        specs,
        assemble: |s, o| assemble_cells(&Table::STRESS, s, o),
    }
}

/// The scale-suite foreground protocols: the paper protagonist, the
/// classical baseline and the two modern comparators.
pub const SCALE_VARIANTS: [Variant; 4] =
    [Variant::TcpPr, Variant::Sack, Variant::Cubic, Variant::Bbr];

/// The Internet-scale population grid: each foreground variant through a
/// k = 4 fat-tree loaded with 1k and 10k churning flows (quick mode scales
/// the population down an order of magnitude). The plan is pinned to Quick
/// in both modes: population FCT tails need a longer window than the smoke
/// plan offers, while the Full plan would turn the 10k-flow point into a
/// multi-minute cell for no extra coverage.
fn scale_grid(quick: bool) -> FigureGrid {
    let flows: &[u32] = if quick { &[200, 1000] } else { &[1000, 10_000] };
    let model = TopologyModel::FatTree { k: 4 };
    let mut specs = Vec::new();
    for &variant in &SCALE_VARIANTS {
        for &target_flows in flows {
            let kind = ScenarioKind::Scale { variant, model, target_flows, replicate: 0 };
            specs.push(ScenarioSpec::new(kind, PlanSpec::Quick));
        }
    }
    FigureGrid {
        selector: "scale",
        artifact: "scale",
        in_all: false,
        specs,
        assemble: |s, o| assemble_cells(&Table::SCALE, s, o),
    }
}

/// The CI smoke slice of the scale suite: two variants × both generator
/// families at a small population, pinned to the smoke plan so the
/// byte-diff determinism job stays cheap.
fn scale_smoke_grid() -> FigureGrid {
    let models =
        [TopologyModel::FatTree { k: 4 }, TopologyModel::AsGraph { nodes: 24, edges_per_node: 2 }];
    let mut specs = Vec::new();
    for variant in [Variant::TcpPr, Variant::Bbr] {
        for model in models {
            let kind = ScenarioKind::Scale { variant, model, target_flows: 120, replicate: 0 };
            specs.push(ScenarioSpec::new(kind, PlanSpec::Smoke));
        }
    }
    FigureGrid {
        selector: "scale-smoke",
        artifact: "scale_smoke",
        in_all: false,
        specs,
        assemble: |s, o| assemble_cells(&Table::SCALE, s, o),
    }
}

fn fig6_grid(quick: bool, plan: PlanSpec, link_delay_ms: u64) -> FigureGrid {
    let specs = multipath_specs(&Variant::FIGURE6, quick, link_delay_ms, plan);
    FigureGrid {
        selector: "fig6",
        artifact: if link_delay_ms == 10 { "fig6_10ms" } else { "fig6_60ms" },
        in_all: true,
        specs,
        assemble: |s, o| assemble_cells(&Table::FIG6, s, o),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grids_cover_every_artifact_once() {
        let grids = all_figures(true, false);
        let mut artifacts: Vec<&str> = grids.iter().map(|g| g.artifact).collect();
        artifacts.sort_unstable();
        let expected = [
            "ablations",
            "cc_smoke",
            "faceoff",
            "fig2",
            "fig3",
            "fig4_dumbbell",
            "fig4_parkinglot",
            "fig6_10ms",
            "fig6_60ms",
            "manet",
            "routeflap",
            "scale",
            "scale_smoke",
            "stress",
            "stress_smoke",
        ];
        assert_eq!(artifacts, expected);
        assert_eq!(
            selectors(),
            vec![
                "fig2",
                "fig3",
                "fig4",
                "ext",
                "ablations",
                "fig6",
                "faceoff",
                "stress",
                "stress-smoke",
                "cc-smoke",
                "scale",
                "scale-smoke"
            ]
        );
    }

    #[test]
    fn stress_grid_covers_the_variant_profile_matrix() {
        let grids = all_figures(false, false);
        let grid = grids.iter().find(|g| g.artifact == "stress").unwrap();
        assert_eq!(grid.specs.len(), STRESS_VARIANTS.len() * 7, "10 variants × 7 profiles");
        assert!(!grid.in_all, "stress is opt-in like the other extensions");
        let baselines = grid.specs.iter().filter(|s| s.impairments.is_empty()).count();
        assert_eq!(baselines, STRESS_VARIANTS.len(), "one baseline cell per variant");
    }

    #[test]
    fn stress_smoke_is_always_quick() {
        // The smoke grid ignores `--quick`: in full mode its specs stay on
        // the quick plan and quick profiles, so CI cost is bounded and the
        // full-mode grid set has no cross-grid hash overlap with it.
        for quick in [true, false] {
            let grids = all_figures(quick, false);
            let smoke = grids.iter().find(|g| g.artifact == "stress_smoke").unwrap();
            assert_eq!(smoke.specs.len(), 4);
            assert!(smoke.specs.iter().all(|s| s.plan == PlanSpec::Quick));
            assert!(smoke
                .specs
                .iter()
                .all(|s| matches!(s.kind, ScenarioKind::Stress { variant: Variant::TcpPr })));
        }
    }

    #[test]
    fn cc_smoke_is_always_quick() {
        // Like stress-smoke, the cc smoke grid ignores `--quick` so the CI
        // job cost is bounded: 2 modern variants × 4 quick profiles.
        for quick in [true, false] {
            let grids = all_figures(quick, false);
            let smoke = grids.iter().find(|g| g.artifact == "cc_smoke").unwrap();
            assert_eq!(smoke.specs.len(), 8);
            assert!(smoke.specs.iter().all(|s| s.plan == PlanSpec::Quick));
            assert!(smoke.specs.iter().all(|s| matches!(
                s.kind,
                ScenarioKind::Stress { variant: Variant::Cubic | Variant::Bbr }
            )));
        }
    }

    #[test]
    fn scale_grid_covers_both_population_points_per_variant() {
        for (quick, flows) in [(true, [200, 1000]), (false, [1000, 10_000])] {
            let grids = all_figures(quick, false);
            let grid = grids.iter().find(|g| g.artifact == "scale").unwrap();
            assert_eq!(grid.specs.len(), SCALE_VARIANTS.len() * 2);
            assert!(!grid.in_all, "scale is opt-in like the other extensions");
            assert!(grid.specs.iter().all(|s| s.plan == PlanSpec::Quick));
            for &variant in &SCALE_VARIANTS {
                for f in flows {
                    assert!(
                        grid.specs.iter().any(|s| matches!(
                            s.kind,
                            ScenarioKind::Scale { variant: v, target_flows, .. }
                                if v == variant && target_flows == f
                        )),
                        "missing scale cell {variant:?} @ {f}"
                    );
                }
            }
        }
    }

    #[test]
    fn scale_smoke_is_always_smoke_plan() {
        // Like the other smoke grids, scale-smoke ignores `--quick`: the CI
        // byte-diff job runs the same four small cells in every mode.
        for quick in [true, false] {
            let grids = all_figures(quick, false);
            let smoke = grids.iter().find(|g| g.artifact == "scale_smoke").unwrap();
            assert_eq!(smoke.specs.len(), 4, "2 variants × 2 generator families");
            assert!(smoke.specs.iter().all(|s| s.plan == PlanSpec::Smoke));
            assert!(smoke
                .specs
                .iter()
                .all(|s| matches!(s.kind, ScenarioKind::Scale { target_flows: 120, .. })));
        }
    }

    #[test]
    fn faceoff_grid_shares_no_cells_with_fig6() {
        // The face-off mesh uses a 20 ms link delay precisely so its specs
        // never collide with the 10/60 ms fig6 artifacts.
        for quick in [true, false] {
            let grids = all_figures(quick, false);
            let faceoff = grids.iter().find(|g| g.artifact == "faceoff").unwrap();
            assert_eq!(faceoff.specs.len(), FACEOFF_VARIANTS.len() * if quick { 3 } else { 5 });
            let fig6_hashes: Vec<u64> = grids
                .iter()
                .filter(|g| g.selector == "fig6")
                .flat_map(|g| g.specs.iter().map(|s| s.content_hash()))
                .collect();
            assert!(faceoff.specs.iter().all(|s| !fig6_hashes.contains(&s.content_hash())));
        }
    }

    #[test]
    fn preexisting_stress_specs_hash_stably() {
        // Adding CUBIC and BBR extends the stress matrix; the cells of the
        // original eight variants must keep their content hashes, or every
        // cached stress outcome would silently re-execute. Pinned against
        // the values the suite shipped with.
        let grids = all_figures(false, false);
        let grid = grids.iter().find(|g| g.artifact == "stress").unwrap();
        let baseline_hashes: Vec<String> = grid
            .specs
            .iter()
            .filter(|s| {
                s.impairments.is_empty()
                    && !matches!(
                        s.kind,
                        ScenarioKind::Stress { variant: Variant::Cubic | Variant::Bbr }
                    )
            })
            .map(|s| format!("{:016x}", s.content_hash()))
            .collect();
        let pinned = [
            "3770f218b572f94a",
            "62934186ec494844",
            "323cee42955c6188",
            "a4e68e35bb71b292",
            "16eb9d7d5a134f4c",
            "338b7356afe40fc3",
            "3abfcd65dae932ea",
            "4804672a31f19e4e",
        ];
        assert_eq!(baseline_hashes, pinned);
    }

    #[test]
    fn specs_within_each_grid_are_unique() {
        // Within one grid, a duplicate hash would mean two cells of the
        // same figure conflate. (Across grids, duplicates are legitimate
        // shared experiments — fig2's n = 64 cell is fig4's α = 0.995,
        // β = 3 cell — and the sweep engine executes them once.)
        for grid in all_figures(false, false) {
            let mut hashes: Vec<u64> = grid.specs.iter().map(|s| s.content_hash()).collect();
            let n = hashes.len();
            hashes.sort_unstable();
            hashes.dedup();
            assert_eq!(hashes.len(), n, "[{}] every cell must hash uniquely", grid.artifact);
        }
    }

    #[test]
    fn cross_figure_duplicates_are_exactly_the_shared_fairness_cells() {
        // Full mode: fig2 sweeps n up to 64 at the default α/β, and fig4
        // sweeps α/β at n = 64 — one overlapping cell per topology. Pinning
        // the count keeps accidental new collisions from hiding behind the
        // legitimate sharing.
        let mut hashes: Vec<u64> = all_figures(false, false)
            .iter()
            .flat_map(|g| g.specs.iter().map(|s| s.content_hash()))
            .collect();
        let n = hashes.len();
        hashes.sort_unstable();
        hashes.dedup();
        assert_eq!(n - hashes.len(), 2, "exactly the two fig2 ∩ fig4 cells");
    }

    #[test]
    fn quick_grids_are_smaller_than_full() {
        let quick: usize = all_figures(true, false).iter().map(|g| g.specs.len()).sum();
        let full: usize = all_figures(false, false).iter().map(|g| g.specs.len()).sum();
        assert!(quick < full, "quick {quick} vs full {full}");
        assert!(quick >= 9, "at least one cell per artifact");
    }

    #[test]
    fn tracing_marks_only_the_first_fig2_cell() {
        let grids = all_figures(true, true);
        let fig2 = grids.iter().find(|g| g.artifact == "fig2").unwrap();
        assert!(fig2.specs[0].traced);
        let traced: usize = grids.iter().flat_map(|g| &g.specs).filter(|s| s.traced).count();
        assert_eq!(traced, 1);
    }

    #[test]
    fn fig2_assembles_series_per_topology() {
        let plan = PlanSpec::Quick;
        let grid = fig2_grid(true, plan, false);
        let outcomes: Vec<Value> = grid
            .specs
            .iter()
            .map(|s| crate::sweep::exec::execute(s, &crate::sweep::exec::ExecCtx::default()).0)
            .collect();
        let (table, results) = (grid.assemble)(&grid.specs, &outcomes);
        assert!(table.contains("dumbbell") && table.contains("parking-lot"));
        let Value::Array(series) = &results else { panic!("series array") };
        assert_eq!(series.len(), 2, "one series per topology");
        // Shape criterion: both protocol means near 1 in every cell (loose
        // band for the quick plan).
        for row in reports(&grid.specs, &outcomes) {
            let (mean_pr, mean_sack) = (row.num(Metric::MeanPr), row.num(Metric::MeanSack));
            assert!(mean_pr > 0.4 && mean_pr < 1.6, "{row:?}");
            assert!(mean_sack > 0.4 && mean_sack < 1.6, "{row:?}");
        }
    }

    #[test]
    fn fig3_loss_rises_as_the_bottleneck_shrinks_and_covs_stay_finite() {
        let specs: Vec<ScenarioSpec> = [(5.0, 3), (1.0, 3), (2.0, 5)]
            .iter()
            .map(|&(bw, rep)| {
                let t = TopologySpec::Dumbbell { bottleneck_mbps: Some(bw) };
                fairness_spec(t, 8, 0.995, 3.0, rep, PlanSpec::Quick)
            })
            .collect();
        let ctx = crate::sweep::exec::ExecCtx::default();
        let outcomes: Vec<Value> =
            specs.iter().map(|s| crate::sweep::exec::execute(s, &ctx).0).collect();
        let rows = reports(&specs, &outcomes);
        let loss = |r: &CellReport| r.num(Metric::LossRatePct);
        assert!(
            loss(&rows[1]) > loss(&rows[0]),
            "1 Mbps ({}) must lose more than 5 Mbps ({})",
            loss(&rows[1]),
            loss(&rows[0])
        );
        for r in &rows {
            let (cov_pr, cov_sack) = (r.num(Metric::CovPr), r.num(Metric::CovSack));
            assert!(cov_pr.is_finite() && cov_sack.is_finite());
            assert!(cov_pr >= 0.0 && cov_sack >= 0.0);
        }
        let (table, results) = assemble_fig3(&specs, &outcomes);
        assert!(table.contains("CoV"), "{table}");
        let Value::Array(points) = &results else { panic!("point array") };
        assert_eq!(points.len(), 3);
    }
}
