//! The yardstick: a fixed reference load, run between the slices of every
//! timed section, that measures how fast the machine is at that moment.
//!
//! The box this benchmark runs on is a 2-core guest on a shared host, and
//! its speed moves in regimes that last minutes: forty back-to-back
//! repetitions of `dumbbell_inorder` — identical, deterministic work — took
//! between 4.66 s and 6.85 s, whole runs of the benchmark landed in one
//! regime or another, and no statistic taken inside a run can see that. A
//! load that shares nothing with the program under test but stresses the
//! machine the same way (a binary heap of fat records, a B-tree and a
//! multi-megabyte hash map under steady churn, small allocations, a sort and
//! a `format!` now and then — all `std`, frozen with the toolchain) slowed in
//! step with the simulator: over those forty repetitions the ratio of the two
//! stayed within ±4 % while each moved 47 %. So every wall time the
//! end-to-end pass reports is divided by the slowdown the yardstick read
//! around it, and is thereby expressed in seconds of the quiet machine.
//!
//! **This file is the unit of every recorded number. Do not change the load
//! or the nominal times**: numbers taken before and after would no longer
//! compare. (A toolchain upgrade that changes `std`'s collections moves it
//! too; re-measure the baseline across one.)

use std::collections::hash_map::DefaultHasher;
use std::collections::{BTreeMap, BinaryHeap, HashMap, VecDeque};
use std::hash::BuildHasherDefault;
use std::time::Instant;

/// Operations per chunk, the smallest unit the yardstick is read in.
const CHUNK_OPS: u64 = 10_000;

/// How much memory a lane churns through, and how long a chunk of it takes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Footprint {
    heap_depth: u64,
    tree_keys: usize,
    table_keys: u64,
    /// Wall seconds one chunk takes on the quiet reference box (2.1 GHz
    /// Xeon guest, `rustc` 1.95) with one lane running and with two: the
    /// fastest tenth of 300 chunks there; two lanes share its caches and run
    /// a little slower each. It only sets the scale — a slowdown of 1.0
    /// means "as fast as that box when quiet".
    nominal_chunk_s: [f64; 2],
}

/// ≈ 25 MB, past the 4 MB L2 like the many-flow simulations, which slow in
/// step with it. Beside `mesh_reorder`, `dumbbell_inorder`, `fabric_churn`.
pub const HEAVY: Footprint = Footprint {
    heap_depth: 2048,
    tree_keys: 20_000,
    table_keys: 1 << 20,
    nominal_chunk_s: [0.0095, 0.0115],
};

/// ≈ 0.3 MB, cache-resident like the one-flow scenarios of the sweep, whose
/// two workers slow with two of these and not with two heavy lanes (what
/// hurts them is sharing a core, not missing the cache). Beside `sweep_grid`.
pub const LIGHT: Footprint = Footprint {
    heap_depth: 256,
    tree_keys: 2_000,
    table_keys: 1 << 12,
    nominal_chunk_s: [0.0052, 0.0057],
};

/// One thread's worth of reference load, at steady state from the start:
/// every structure keeps its size, so every chunk does the same work.
struct Lane {
    footprint: Footprint,
    x: u64,
    ops: u64,
    heap: BinaryHeap<(u64, [u64; 16])>,
    tree: BTreeMap<u64, Vec<u64>>,
    /// Keys in `tree`, oldest first.
    tree_order: VecDeque<u64>,
    /// Fixed hasher keys: the default ones differ from process to process.
    table: HashMap<u64, u64, BuildHasherDefault<DefaultHasher>>,
    acc: u64,
}

impl Lane {
    fn new(seed: u64, footprint: Footprint) -> Self {
        let mut lane = Lane {
            footprint,
            x: 0x9e37_79b9_7f4a_7c15 ^ seed,
            ops: 0,
            heap: BinaryHeap::new(),
            tree: BTreeMap::new(),
            tree_order: VecDeque::new(),
            table: HashMap::default(),
            acc: 0,
        };
        for i in 0..footprint.heap_depth {
            let v = lane.next();
            lane.heap.push((v, [i; 16]));
        }
        for k in 0..footprint.table_keys {
            lane.table.insert(k, 0);
        }
        while lane.tree_order.len() < footprint.tree_keys {
            lane.tree_insert();
        }
        lane
    }

    /// xorshift64: the load's only source of variety, and a fixed one.
    fn next(&mut self) -> u64 {
        self.x ^= self.x << 13;
        self.x ^= self.x >> 7;
        self.x ^= self.x << 17;
        self.x
    }

    fn tree_insert(&mut self) {
        let k = self.next();
        self.tree.insert(k, vec![k; (k % 8) as usize + 1]);
        self.tree_order.push_back(k);
    }

    fn chunk(&mut self) {
        for _ in 0..CHUNK_OPS {
            self.ops += 1;
            let (t, payload) = self.heap.pop().expect("the heap keeps its depth");
            self.acc = self.acc.wrapping_add(t ^ payload[3]);
            let v = self.next();
            self.heap.push((v, [v; 16]));

            let oldest = self.tree_order.pop_front().expect("the tree keeps its size");
            if let Some(gone) = self.tree.remove(&oldest) {
                self.acc = self.acc.wrapping_add(gone.len() as u64);
            }
            self.tree_insert();

            let k = self.next() % self.footprint.table_keys;
            *self.table.get_mut(&k).expect("every key is present") += 1;

            if self.ops.is_multiple_of(64) {
                let mut s: Vec<u64> = (0..64).map(|_| self.next()).collect();
                s.sort_unstable();
                self.acc ^= s[7];
                self.acc = self.acc.wrapping_add(format!("{}:{:x}", s[0], s[1]).len() as u64);
            }
        }
        std::hint::black_box(self.acc);
    }
}

/// The reference load on as many threads as the workload it stands beside.
pub struct Yardstick {
    lanes: Vec<Lane>,
}

impl Yardstick {
    /// Builds `threads` lanes (one or two) and runs each in, so the first
    /// reading is of a warm load.
    pub fn new(threads: usize, footprint: Footprint) -> Self {
        assert!((1..=2).contains(&threads), "no nominal time for {threads} lanes");
        let lanes = (0..threads as u64).map(|seed| Lane::new(seed, footprint)).collect();
        let mut y = Yardstick { lanes };
        y.wall_s(20);
        y
    }

    /// Runs `chunks` chunks on every lane at once and returns the wall
    /// seconds a lane took, averaged over the lanes.
    fn wall_s(&mut self, chunks: u32) -> f64 {
        fn timed(lane: &mut Lane, chunks: u32) -> f64 {
            let t0 = Instant::now();
            (0..chunks).for_each(|_| lane.chunk());
            t0.elapsed().as_secs_f64()
        }
        let total: f64 = match self.lanes.as_mut_slice() {
            [lane] => timed(lane, chunks),
            lanes => std::thread::scope(|scope| {
                let handles: Vec<_> =
                    lanes.iter_mut().map(|lane| scope.spawn(move || timed(lane, chunks))).collect();
                handles.into_iter().map(|h| h.join().expect("a lane never panics")).sum()
            }),
        };
        total / self.lanes.len() as f64
    }

    /// Reads the machine: wall seconds per chunk over `chunks` chunks ÷ the
    /// nominal. 1.0 is the quiet reference box; 1.3 is a machine that, right
    /// now, takes 30 % longer over the same work.
    pub fn slowdown(&mut self, chunks: u32) -> f64 {
        let nominal = self.lanes[0].footprint.nominal_chunk_s[self.lanes.len() - 1];
        self.wall_s(chunks) / (f64::from(chunks) * nominal)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_chunk_does_the_same_work_on_structures_that_keep_their_size() {
        let mut a = Lane::new(0, LIGHT);
        let mut b = Lane::new(0, LIGHT);
        for _ in 0..3 {
            a.chunk();
            b.chunk();
            assert_eq!(a.heap.len() as u64, LIGHT.heap_depth);
            assert_eq!(a.tree_order.len(), LIGHT.tree_keys);
            assert_eq!(
                a.tree.len(),
                LIGHT.tree_keys,
                "64-bit keys never collide in so short a run"
            );
            assert_eq!(a.table.len() as u64, LIGHT.table_keys);
        }
        assert_eq!(a.ops, 3 * CHUNK_OPS);
        assert_eq!((a.x, a.acc), (b.x, b.acc), "the load is a pure function of its seed");
        assert_ne!(a.x, Lane::new(1, LIGHT).x, "lanes differ");
    }

    #[test]
    fn two_lanes_read_as_one_number() {
        let s = Yardstick::new(2, LIGHT).slowdown(1);
        assert!(s.is_finite() && s > 0.0);
    }
}
