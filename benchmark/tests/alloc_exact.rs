//! Counting-allocator exactness: the same simulation twice gives the same
//! counts, so `alloc.*` can be gated exactly on the one-thread workloads.
//!
//! A test binary of its own with no harness: the allocator is process-wide,
//! and libtest's other threads would allocate into the counts.

use benchmark::alloc::{self, AllocCounts};
use benchmark::sims::{self, Built};
use experiments::variants::Variant;

#[global_allocator]
static ALLOC: alloc::Counting = alloc::Counting;

/// Set-up, a short run, read-out and drop, all counted — the traced pass in
/// miniature. Returns the counts and the packets delivered.
fn counted(build: impl Fn() -> Built) -> (AllocCounts, u64) {
    alloc::start();
    let mut built = build();
    (built.sim_s, built.slice_s) = (3.0, 1.0);
    built.run(|| ());
    let delivered = built.read().stats.delivered;
    drop(built);
    (alloc::stop(), delivered)
}

fn main() {
    // The mesh allocates per packet (routes, SACK blocks); the dumbbell
    // grows 64 flows' worth of hash maps, whose seeds differ run to run.
    let mesh = || sims::mesh_reorder(7, Variant::Sack);
    let dumbbell = || sims::dumbbell_inorder(7);
    for (name, a, b) in [
        ("mesh_reorder", counted(mesh), counted(mesh)),
        ("dumbbell_inorder", counted(dumbbell), counted(dumbbell)),
    ] {
        assert_eq!(a, b, "{name}: the same simulation must allocate the same");
        let (counts, delivered) = a;
        assert!(delivered > 1_000, "{name}: delivered {delivered}");
        assert!(counts.allocs > delivered / 2, "{name}: {counts:?} for {delivered} packets");
        assert!(counts.bytes > counts.allocs && counts.peak_live_bytes > 0, "{name}: {counts:?}");
    }

    // Switched off, nothing is counted.
    let before = alloc::stop();
    drop(std::hint::black_box(vec![0u8; 4096]));
    assert_eq!(alloc::stop(), before);
    println!("alloc_exact: ok");
}
