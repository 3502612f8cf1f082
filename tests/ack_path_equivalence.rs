//! Pins the ACK paths that stopped walking the window — the run-length
//! scoreboard under TCP-SACK and BBR, BBR's send records and TCP-PR's
//! packet book on a sequence-indexed ring, the memoized `alpha_root` — to
//! the per-segment B-tree and hash-table code they replaced.
//!
//! Each hash below was recorded on the last commit that still had that
//! code (`285c60b`) by running this very file there. As in
//! `cell_equivalence.rs` a hash covers the canonical JSON text of one
//! scenario's outcome as `sweep::execute` returns it; here it also covers
//! the number of events the scenario's simulators dispatched, so a
//! transmission, a timer or an ACK more or less moves it even where the
//! reported metrics round the difference away. The cells are the quick
//! stress matrix for the three rewritten senders (clean, burst loss,
//! reorder + duplicate, flapping), `stress BBR [burst-loss]` at the three
//! seeds the benchmark had to leave out, and TCP-PR on the Figure 6 mesh
//! with its window pinned at the cap (ε = 0), reordered (ε = 4) and on one
//! path (ε = 500).

use experiments::sweep::{
    all_figures, execute, ExecCtx, ImpairmentSpec, PlanSpec, ScenarioKind, ScenarioSpec,
};
use experiments::variants::Variant;
use netsim::telemetry::session;

/// FNV-1a over the outcome's compact JSON text, then over the event count.
fn digest(spec: &ScenarioSpec) -> u64 {
    session::take();
    let outcome = execute(spec, &ExecCtx::default());
    let events = session::take().events_processed;
    let text = serde_json::to_string(&outcome).expect("shim serializer is total");
    text.bytes()
        .chain(events.to_le_bytes())
        .fold(0xcbf2_9ce4_8422_2325, |h, b| (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3))
}

fn assert_pinned(specs: &[ScenarioSpec], pinned: &[u64]) {
    let hex = |hashes: &[u64]| hashes.iter().map(|h| format!("{h:#018x}")).collect::<Vec<_>>();
    let got: Vec<u64> = specs.iter().map(digest).collect();
    let labels: Vec<String> = specs.iter().map(ScenarioSpec::label).collect();
    assert_eq!(hex(&got), hex(pinned), "outcomes moved; cells in order: {labels:#?}");
}

/// The quick stress grid's cells for `variant`, in table order.
fn stress_cells(variant: Variant) -> Vec<ScenarioSpec> {
    let grid = all_figures(true, false)
        .into_iter()
        .find(|g| g.selector == "stress")
        .expect("the stress grid exists");
    let cells: Vec<ScenarioSpec> = grid
        .specs
        .into_iter()
        .filter(|s| matches!(s.kind, ScenarioKind::Stress { variant: v } if v == variant))
        .collect();
    assert_eq!(cells.len(), 4, "four quick impairment profiles");
    cells
}

#[test]
fn bbr_stress_cells_match_the_per_segment_scoreboard() {
    assert_pinned(&stress_cells(Variant::Bbr), &STRESS_BBR);
}

#[test]
fn sack_stress_cells_match_the_per_segment_scoreboard() {
    assert_pinned(&stress_cells(Variant::Sack), &STRESS_SACK);
}

#[test]
fn tcp_pr_stress_cells_match_the_btree_packet_book() {
    assert_pinned(&stress_cells(Variant::TcpPr), &STRESS_TCP_PR);
}

/// The scenario `benchmark/src/sweep_grid.rs` leaves out of `sweep_grid`
/// as `seed_bound`, at the benchmark's seed and the two after it.
#[test]
fn bbr_burst_loss_matches_at_the_seeds_the_benchmark_left_out() {
    let cell = stress_cells(Variant::Bbr)
        .into_iter()
        .find(|s| s.impairments.iter().any(|i| matches!(i, ImpairmentSpec::BurstLoss { .. })))
        .expect("burst loss is a quick profile");
    let specs: Vec<ScenarioSpec> =
        (7..=9).map(|base_seed| ScenarioSpec { base_seed, ..cell.clone() }).collect();
    assert_pinned(&specs, &BBR_BURST_LOSS_SEEDS);
}

#[test]
fn tcp_pr_mesh_cells_match_the_btree_packet_book() {
    let specs: Vec<ScenarioSpec> = [0.0, 4.0, 500.0]
        .into_iter()
        .map(|epsilon| {
            let kind =
                ScenarioKind::Multipath { variant: Variant::TcpPr, epsilon, link_delay_ms: 10 };
            ScenarioSpec::new(kind, PlanSpec::Quick)
        })
        .collect();
    assert_pinned(&specs, &FIG6_TCP_PR);
}

const STRESS_BBR: [u64; 4] =
    [0x8bc87c883990698a, 0x8950c445bfcb7732, 0xac2afb1e38ebbce5, 0x87a0fbcac3d0002f];
const STRESS_SACK: [u64; 4] =
    [0x48f86772ee2fa5cd, 0xf8de9db1bbd90a8f, 0x60f6b108fc5c8094, 0xad4615c08abcc18e];
const STRESS_TCP_PR: [u64; 4] =
    [0xeb2aa436b8fb3a4d, 0xc0c5f37e36c20d3b, 0x10cddcdefe7ba64d, 0x806d5813f845bf52];
const BBR_BURST_LOSS_SEEDS: [u64; 3] = [0x56500bdd7d58dc9d, 0x2a2d01bc83e2646c, 0xe3db9334eee3b221];
const FIG6_TCP_PR: [u64; 3] = [0x6b8c09e5bf992544, 0x44d85874880b9790, 0x3b70659f80b38a02];

/// The ten duplicate-ACK senders over the same four stress cells, recorded
/// on `dca55a4`, the last commit where `reno.rs`, `tdfr.rs` and `cubic.rs`
/// each carried their own send window and recovery episode; they share
/// `transport::dupack::Window` now.
#[test]
fn dupack_family_stress_cells_match_the_three_private_windows() {
    let cells = stress_cells(Variant::TcpPr);
    for (variant, pinned) in STRESS_DUPACK {
        let specs: Vec<ScenarioSpec> = cells
            .iter()
            .map(|cell| ScenarioSpec { kind: ScenarioKind::Stress { variant }, ..cell.clone() })
            .collect();
        assert_pinned(&specs, &pinned);
    }
}

const STRESS_DUPACK: [(Variant, [u64; 4]); 10] = [
    (
        Variant::TdFr,
        [0x92dd5ccc6a4cf20b, 0xaff378eddae67183, 0xabf1706e0f410daa, 0xa5af2963f845a551],
    ),
    (
        Variant::DsackNm,
        [0xf603be8f56c46b5c, 0x0bbc58e69c27b2ff, 0x725b609ed034173c, 0x2f9da094d27dfa43],
    ),
    (
        Variant::IncBy1,
        [0x0a1751b94c9aee59, 0x5451128ad4108a6f, 0x7ba6ed91167753b6, 0x8acab78e90e74bc1],
    ),
    (
        Variant::IncByN,
        [0x02119b5f1327b448, 0x85fd9e371f651fee, 0x75d57d1a66cbb2e0, 0x7ea0637fbe369f36],
    ),
    (
        Variant::Ewma,
        [0xcbd46537fff89d2f, 0x3029be2e047785f8, 0xdddc9faca3725519, 0xb3fdabfbd2498411],
    ),
    (
        Variant::NewReno,
        [0x8a55811c9233af67, 0x66e9565513d0694a, 0x67f7dad28799468a, 0x5e3396155f364d84],
    ),
    (
        Variant::Reno,
        [0x3ca1127c80640c47, 0xf650e724c4f62443, 0xacd73284086cb6ac, 0x9cf5afe87a8e8862],
    ),
    (
        Variant::Eifel,
        [0x4f7a793131a1c1ee, 0x28f84bcdd9d9bf1f, 0x010ac88774520c94, 0x3fe56bc26b5eb319],
    ),
    (
        Variant::Door,
        [0x9d09c59e897103c9, 0xd9743f79518e5ee6, 0x5eb973063dda7ab2, 0xacfb3ca120f0753a],
    ),
    (
        Variant::Cubic,
        [0x1c4b7e90f74ecb99, 0xb764d66d28dcf51d, 0xc50cbf480ffe05fd, 0xecedb5179cc53445],
    ),
];
