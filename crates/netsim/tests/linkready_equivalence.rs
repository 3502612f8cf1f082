//! The link-ready scripts' rows of the golden table (`tests/golden/pins.rs`
//! at the workspace root): forced ties where packets reach a transmitter as
//! it frees, and every way a packet leaves the network.

#[path = "../../../tests/golden/pins.rs"]
mod pins;
#[path = "../../../tests/golden/scripts.rs"]
mod scripts;

use scripts::check;

#[test]
fn equal_rate_chain_matches_the_eager_schedule() {
    check("equal-rate chain");
}

#[test]
fn diffserv_wrr_matches_the_eager_schedule() {
    check("diffserv wrr");
}

#[test]
fn impaired_links_match_the_eager_schedule() {
    check("impaired links");
}

#[test]
fn flaps_during_transmission_match_the_eager_schedule() {
    check("flaps during transmission");
}

#[test]
fn every_packet_exit_matches_the_by_value_path() {
    check("every packet exit");
}
