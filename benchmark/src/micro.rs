//! One microbench per layer, each calling only that layer's public
//! functions. Every timing is the median of [`BATCHES`] batches after one
//! untimed batch; every input comes from the run's seed.

use std::hint::black_box;
use std::path::Path;
use std::time::Instant;

use experiments::sweep::{Cache, CachedRun, RunOutcome};
use experiments::telemetry::artifact_json;
use experiments::variants::Variant;
use netsim::event::{EventKind, EventQueue};
use netsim::ids::{AgentId, FlowId};
use netsim::impair::{ImpairPipeline, ImpairStats, StageConfig};
use netsim::link::LinkConfig;
use netsim::sim::{SimBuilder, Simulator};
use netsim::time::{SimDuration, SimTime};
use netsim::traffic::{CbrSink, CbrSource};
use netsim::{LinkId, NodeId};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use transport::receiver::{ReceiverConfig, TcpReceiver};

use crate::metrics::{per_layer, variant_key, Measured, Sheet};
use crate::pipe::{self, MAX_DISPLACEMENT};
use crate::sims::FABRIC_MODEL;
use crate::spans;
use crate::stats::{summarize, Summary};
use crate::sweep_grid::{self, Plan, TempDir};

/// Timed batches behind every microbench median.
pub const BATCHES: usize = 9;

/// Runs `batch` once untimed, then [`BATCHES`] times, and summarises
/// `unit` of the wall nanoseconds per operation of each. `batch` returns how
/// many operations it performed.
fn per_op(mut batch: impl FnMut() -> u64, unit: impl Fn(f64) -> f64) -> Summary {
    batch();
    let samples: Vec<f64> = (0..BATCHES)
        .map(|_| {
            let t0 = Instant::now();
            let ops = batch();
            unit(t0.elapsed().as_nanos() as f64 / ops as f64)
        })
        .collect();
    summarize(&samples)
}

fn per_op_ns(batch: impl FnMut() -> u64) -> Summary {
    per_op(batch, |ns| ns)
}

fn per_op_us(batch: impl FnMut() -> u64) -> Summary {
    per_op(batch, |ns| ns * 1e-3)
}

/// The hold model on `EventQueue`: at a steady depth, pop the earliest
/// event and schedule one `Timer` a seeded Δ after it.
fn event_hold(depth: usize, seed: u64) -> Summary {
    const OPS: u64 = 200_000;
    let mut rng = SmallRng::seed_from_u64(seed ^ depth as u64);
    // Δ is uniform on (0, 2·depth] µs, so the queue spans about `depth` µs
    // however deep it is and insertions land all over it.
    let deltas: Vec<u64> = (0..8192).map(|_| rng.gen_range(1..=2_000 * depth as u64)).collect();
    let mut q = EventQueue::new();
    let timer = |generation: u64| EventKind::Timer { agent: AgentId::from_raw(0), generation };
    for i in 0..depth {
        q.schedule(SimTime::from_nanos(deltas[i % deltas.len()]), timer(i as u64));
    }
    let mut next = 0usize;
    per_op_ns(|| {
        for i in 0..OPS {
            let (at, kind) = q.pop().expect("the queue holds its depth");
            black_box(kind);
            q.schedule(at + SimDuration::from_nanos(deltas[next]), timer(i));
            next = (next + 1) % deltas.len();
        }
        OPS
    })
}

fn transmitted(sim: &Simulator) -> u64 {
    (0..sim.link_count()).map(|i| sim.link(LinkId::from_raw(i as u32)).transmitted).sum()
}

fn cbr_sent(sim: &Simulator, sources: &[AgentId]) -> u64 {
    sources
        .iter()
        .map(|&id| sim.agent(id).as_any().downcast_ref::<CbrSource>().expect("a CbrSource").sent())
        .sum()
}

/// Advances `sim` one slice per batch and returns wall ns per link
/// crossing, plus events per crossing with the sources' own pacing timers
/// left out (one per packet sent).
fn forwarding(mut sim: Simulator, sources: &[AgentId], slice: SimDuration) -> (Summary, f64) {
    sim.run_for(slice); // fill the pipe, and the queue if there is to be one
    let (hops0, events0, sent0) = (transmitted(&sim), sim.stats().events, cbr_sent(&sim, sources));
    let ns = per_op_ns(|| {
        let before = transmitted(&sim);
        sim.run_for(slice);
        transmitted(&sim) - before
    });
    let hops = transmitted(&sim) - hops0;
    let timers = cbr_sent(&sim, sources) - sent0;
    let events = sim.stats().events - events0 - timers;
    (ns, events as f64 / hops as f64)
}

const FWD_LINK_MBPS: f64 = 10.0;
const FWD_PACKET_BYTES: u32 = 1000;

fn attach_cbr(sim: &mut Simulator, flow: u32, src: NodeId, dst: NodeId, load: f64) -> AgentId {
    let flow = FlowId::from_raw(flow);
    let source = CbrSource::new(dst, load * FWD_LINK_MBPS * 1e6, FWD_PACKET_BYTES, SimTime::ZERO);
    let id = sim.add_agent(src, flow, Box::new(source));
    sim.add_agent(dst, flow, Box::new(CbrSink::new()));
    id
}

/// Eight idle hops: one CBR source at half the link rate down a chain, so
/// every `LinkReady` finds an empty queue.
fn forwarding_idle(seed: u64) -> (Summary, f64) {
    let mut b = SimBuilder::new(seed);
    let nodes = b.add_nodes(9);
    for pair in nodes.windows(2) {
        b.add_duplex(pair[0], pair[1], LinkConfig::mbps_ms(FWD_LINK_MBPS, 1, 100));
    }
    let mut sim = b.build();
    let source = attach_cbr(&mut sim, 0, nodes[0], nodes[8], 0.5);
    forwarding(sim, &[source], SimDuration::from_secs(20))
}

/// One congested hop: four sources at 40 % each into one link, so it keeps
/// a standing queue, drops, and every `LinkReady` finds a packet waiting.
fn forwarding_congested(seed: u64) -> Summary {
    let mut b = SimBuilder::new(seed);
    let (router, sink) = (b.add_node(), b.add_node());
    b.add_duplex(router, sink, LinkConfig::mbps_ms(FWD_LINK_MBPS, 1, 100));
    let hosts = b.add_nodes(4);
    for &h in &hosts {
        b.add_duplex(h, router, LinkConfig::mbps_ms(FWD_LINK_MBPS, 1, 100));
    }
    let mut sim = b.build();
    let sources: Vec<AgentId> = hosts
        .iter()
        .enumerate()
        .map(|(i, &h)| attach_cbr(&mut sim, i as u32, h, sink, 0.4))
        .collect();
    forwarding(sim, &sources, SimDuration::from_secs(20)).0
}

/// Every per-packet stage kind in one pipeline, as the stress grid's
/// profiles configure them.
fn impair_process(seed: u64) -> Summary {
    const OPS: u64 = 500_000;
    let stages = [
        StageConfig::GilbertElliott {
            p_good_to_bad: 0.02,
            p_bad_to_good: 0.3,
            loss_good: 0.0,
            loss_bad: 1.0,
        },
        StageConfig::Jitter { prob: 0.3, max_extra: SimDuration::from_millis(30) },
        StageConfig::Displace { every: 20, depth: 4 },
        StageConfig::Duplicate { p: 0.02 },
    ];
    let mut pipeline = ImpairPipeline::new(&stages, seed);
    let mut stats = ImpairStats::default();
    let tx = SimDuration::from_micros(800);
    per_op_ns(|| {
        for _ in 0..OPS {
            black_box(pipeline.process(tx, &mut stats));
        }
        OPS
    })
}

/// `0..n` with every element at most [`MAX_DISPLACEMENT`] places from home.
fn almost_sorted(n: u64, seed: u64) -> Vec<u64> {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut keyed: Vec<(u64, u64)> =
        (0..n).map(|i| (i + rng.gen_range(0..=MAX_DISPLACEMENT), i)).collect();
    keyed.sort();
    keyed.into_iter().map(|(_, i)| i).collect()
}

fn receiver_on_data(order: &[u64]) -> Summary {
    per_op_ns(|| {
        let mut rx = TcpReceiver::new(ReceiverConfig::default());
        for &seq in order {
            black_box(rx.on_data(seq));
        }
        order.len() as u64
    })
}

/// ACKs per sender recording: long enough to leave slow start behind and
/// sit at the window cap for most of the run.
const PIPE_ACKS: usize = 20_000;

fn sender_on_ack(variant: Variant, displace_seed: Option<u64>) -> Summary {
    let rec = pipe::record(variant, displace_seed, PIPE_ACKS);
    // `replay` times itself, so nothing but the sender's calls is inside.
    let samples: Vec<f64> = (0..=BATCHES)
        .map(|_| {
            let (wall, cwnd) = pipe::replay(variant, &rec);
            assert_eq!(cwnd.to_bits(), rec.final_cwnd.to_bits(), "{variant}: replay diverged");
            wall.as_nanos() as f64 / rec.acks as f64
        })
        .skip(1)
        .collect();
    summarize(&samples)
}

fn topo_build(seed: u64) -> Summary {
    per_op_us(|| {
        let topo = FABRIC_MODEL.generate(seed);
        let mut b = SimBuilder::new(seed);
        black_box(topo.materialize(&mut b));
        black_box(b.build());
        1
    })
}

fn spec_hash(plan: &Plan) -> Summary {
    per_op_ns(|| {
        for _ in 0..200 {
            for spec in &plan.specs {
                black_box(black_box(spec).content_hash());
            }
        }
        200 * plan.specs.len() as u64
    })
}

/// The sweep-engine microbenches, on the 18-scenario `fig6_10ms` slice: a
/// cold pass with one worker and one with two into fresh caches, a warm
/// pass, then `Cache::store`/`load` of one recorded run and `artifact_json`
/// of the assembled slice. Returns the failure, if the passes disagree.
fn sweep_engine(sheet: &mut Sheet, seed: u64, scratch: &Path) -> Option<String> {
    let plan = sweep_grid::plan(seed, sweep_grid::micro_grid);
    sheet.median("spec.hash_ns", {
        let _s = spans::enter("metric", "spec.hash_ns");
        spec_hash(&plan)
    });

    let _s = spans::enter("metric", "sweep.speedup_2j");
    let (serial_dir, parallel_dir) = (TempDir::new(scratch), TempDir::new(scratch));
    let (serial, serial_s) = sweep_grid::sweep(&plan.specs, 1, serial_dir.path());
    let (parallel, parallel_s) =
        sweep_grid::sweep(&plan.specs, sweep_grid::JOBS, parallel_dir.path());
    let assembled = sweep_grid::assemble(&plan, &serial.runs);
    let serial_bytes = sweep_grid::encode(&assembled);
    let parallel_bytes = sweep_grid::encode(&sweep_grid::assemble(&plan, &parallel.runs));
    sheet.timing("sweep.speedup_2j", serial_s / parallel_s);
    drop(_s);

    let _s = spans::enter("metric", "sweep.resume_us_per_scenario");
    let t0 = Instant::now();
    let (warm, _) = sweep_grid::sweep(&plan.specs, sweep_grid::JOBS, parallel_dir.path());
    let warm_bytes = sweep_grid::encode(&sweep_grid::assemble(&plan, &warm.runs));
    let warm_s = t0.elapsed().as_secs_f64();
    sheet.timing("sweep.resume_us_per_scenario", warm_s * 1e6 / plan.specs.len() as f64);
    drop(_s);

    let failure = if serial_bytes.iter().any(Option::is_none) {
        Some("a scenario of the sweep slice crashed".to_owned())
    } else if serial_bytes != parallel_bytes {
        Some("1-worker and 2-worker artifacts differ".to_owned())
    } else if parallel_bytes != warm_bytes || warm.executed != 0 {
        Some("warm artifacts differ from cold".to_owned())
    } else {
        None
    };

    let (spec, run) = (&plan.specs[0], &serial.runs[0]);
    if let RunOutcome::Completed(outcome) = &run.outcome {
        let recorded = CachedRun { outcome: outcome.clone(), work: run.work };
        let dir = TempDir::new(scratch);
        let cache = Cache::new(dir.path());
        sheet.median("cache.store_us", {
            let _s = spans::enter("metric", "cache.store_us");
            per_op_us(|| {
                for _ in 0..50 {
                    cache.store(spec, &recorded);
                }
                50
            })
        });
        sheet.median("cache.load_us", {
            let _s = spans::enter("metric", "cache.load_us");
            per_op_us(|| {
                for _ in 0..200 {
                    black_box(cache.load(spec).expect("the entry just stored"));
                }
                200
            })
        });
    } else {
        sheet.timing("cache.store_us", 0.0);
        sheet.timing("cache.load_us", 0.0);
    }

    let _s = spans::enter("metric", "json.encode_mb_per_s");
    let bytes: usize = serial_bytes.iter().flatten().map(String::len).sum();
    // Bytes per nanosecond × 1000 is MB/s.
    let encoded = per_op(
        || {
            for _ in 0..200 {
                for (results, work) in assembled.iter().flatten() {
                    black_box(artifact_json(black_box(results), work));
                }
            }
            200
        },
        |ns| bytes as f64 * 1e3 / ns,
    );
    sheet.median("json.encode_mb_per_s", encoded);
    failure
}

/// Runs every microbench. Returns what they measured and the failure of
/// the one that checks itself, the sweep slice, if it failed.
pub fn run_all(seed: u64, scratch: &Path) -> (Vec<Measured>, Option<String>) {
    spans::set_workload("micro");
    let _micro = spans::enter("micro", "");
    let mut sheet = Sheet::new(per_layer());
    let mut timed = |name: &str, f: &mut dyn FnMut() -> Summary| {
        let _s = spans::enter("metric", name);
        sheet.median(name, f());
    };

    timed("event.hold_ns.d16", &mut || event_hold(16, seed));
    timed("event.hold_ns.d1k", &mut || event_hold(1 << 10, seed));
    timed("event.hold_ns.d16k", &mut || event_hold(1 << 14, seed));
    timed("fwd.ns_per_hop.congested", &mut || forwarding_congested(seed));
    timed("impair.process_ns", &mut || impair_process(seed));
    let inorder: Vec<u64> = (0..200_000).collect();
    timed("receiver.on_data_ns.inorder", &mut || receiver_on_data(&inorder));
    let reordered = almost_sorted(200_000, seed);
    timed("receiver.on_data_ns.reordered", &mut || receiver_on_data(&reordered));
    for v in Variant::ALL {
        let key = variant_key(v);
        timed(&format!("sender.{key}.on_ack_ns.inorder"), &mut || sender_on_ack(v, None));
        timed(&format!("sender.{key}.on_ack_ns.reordered"), &mut || sender_on_ack(v, Some(seed)));
    }
    timed("workload.topo_build_us", &mut || topo_build(seed));

    let (idle_ns, idle_events) = {
        let _s = spans::enter("metric", "fwd.ns_per_hop.idle");
        forwarding_idle(seed)
    };
    sheet.median("fwd.ns_per_hop.idle", idle_ns);
    sheet.count("fwd.events_per_hop.idle", idle_events);
    sheet.count("event.record_bytes", EventQueue::record_bytes() as f64);

    let failure = sweep_engine(&mut sheet, seed, scratch);
    (sheet.into_values(), failure)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn almost_sorted_is_a_bounded_permutation() {
        let p = almost_sorted(5_000, 7);
        let mut sorted = p.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..5_000).collect::<Vec<u64>>());
        let worst = p.iter().enumerate().map(|(at, &v)| (at as u64).abs_diff(v)).max().unwrap();
        assert!(worst > 0 && worst <= MAX_DISPLACEMENT, "worst displacement {worst}");
        assert_ne!(p, almost_sorted(5_000, 8), "the permutation comes from the seed");
    }

    #[test]
    fn the_hold_model_keeps_its_depth() {
        // per_op_ns runs the batch ten times; the queue must never drain.
        let s = event_hold(16, 7);
        assert_eq!(s.n, BATCHES);
        assert!(s.median > 0.0);
    }
}
