//! The timer scripts' rows of the golden table (`golden/pins.rs`): RTOs
//! re-armed later, delayed ACKs cancelled, a pacer moved earlier, self-clocked
//! sources and late starts, the oracle clean every tenth of the run.

#[path = "golden/pins.rs"]
mod pins;
#[path = "golden/scripts.rs"]
mod scripts;
#[path = "golden/table.rs"]
mod table;

use table::check;

#[test]
fn lossy_bottleneck_with_delayed_acks_matches_the_eager_schedule() {
    check("lossy bottleneck, delayed acks");
}

#[test]
fn paced_bbr_matches_the_eager_schedule() {
    check("paced bbr");
}

#[test]
fn self_clocked_cross_traffic_matches_the_eager_schedule() {
    check("self-clocked cross traffic");
}

#[test]
fn route_flap_mid_flow_matches_the_eager_schedule() {
    check("route flap mid-flow");
}
