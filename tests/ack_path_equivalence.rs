//! The quick cells' rows of the golden table (`golden/pins.rs`): the ACK
//! paths that stopped walking the window — SACK's and BBR's scoreboard,
//! TCP-PR's packet book and the duplicate-ACK senders' private windows.

#[path = "golden/pins.rs"]
mod pins;
#[path = "golden/scripts.rs"]
mod scripts;
#[path = "golden/table.rs"]
mod table;

use table::check;

#[test]
fn bbr_stress_cells_match_the_per_segment_scoreboard() {
    check("bbr stress");
}

#[test]
fn sack_stress_cells_match_the_per_segment_scoreboard() {
    check("sack stress");
}

#[test]
fn tcp_pr_stress_cells_match_the_btree_packet_book() {
    check("tcp-pr stress");
}

/// `stress BBR [burst-loss]` at seeds 7–9, which `sweep_grid`'s `seed_bound`
/// leaves out.
#[test]
fn bbr_burst_loss_matches_at_the_seeds_the_benchmark_left_out() {
    check("bbr seeds");
}

/// TCP-PR on the Figure 6 mesh at ε = 0, 4 and 500.
#[test]
fn tcp_pr_mesh_cells_match_the_btree_packet_book() {
    check("tcp-pr mesh");
}

/// The ten duplicate-ACK senders over TCP-PR's four quick stress cells.
#[test]
fn dupack_family_stress_cells_match_the_three_private_windows() {
    check("dupack stress");
}
