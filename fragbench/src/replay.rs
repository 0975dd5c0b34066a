//! Stand-alone replays that time one layer's primitive in isolation, fed
//! the workload's own topology delays and fan-out.
//!
//! * `sim.engine_op_ns` — schedule + pop on a bare [`Engine`]: each replayed
//!   commit schedules one event per replica at the home→replica link delay,
//!   then pops them all, as a broadcast does.
//! * `net.route_lookup_ns` — [`RouteCache::path_delay`] on a cold cache
//!   over home→replica and replica→home pairs, the lookups a broadcast and
//!   its acks make.

use std::hint::black_box;

use fragdb_model::NodeId;
use fragdb_net::{LinkState, RouteCache};
use fragdb_sim::{Engine, SimDuration};

use crate::trace::Stopwatch;
use crate::workloads::{self, Shape};

/// Engine operations the replay performs at least, so its time is well
/// above the clock's resolution even on the smallest shape.
const MIN_OPS: u64 = 1 << 20;

/// Nanoseconds per engine operation (a schedule or a pop).
pub fn engine_op_ns(shape: &Shape, seed: u64) -> f64 {
    let topo = workloads::topology(shape, seed);
    let fan: Vec<Vec<(u32, SimDuration)>> = (0..shape.fragments)
        .map(|f| {
            let home = shape.home(f);
            shape
                .replicas(f)
                .into_iter()
                .filter(|&r| r != home)
                .map(|r| (r.0, topo.link_delay(home, r).expect("full mesh link")))
                .collect()
        })
        .collect();
    let mut engine: Engine<u32> = Engine::new(seed);
    let mut ops = 0u64;
    let sw = Stopwatch::start();
    let mut f = 0usize;
    while ops < MIN_OPS {
        for &(node, delay) in &fan[f] {
            engine.schedule(delay, node);
        }
        while let Some((_, node)) = engine.pop() {
            black_box(node);
        }
        ops += 2 * fan[f].len() as u64;
        f = (f + 1) % fan.len();
    }
    sw.secs() * 1e9 / ops as f64
}

/// Home↔replica pairs per cold sweep: every pair of as many fragments
/// as fit, so a 1024-node broadcast is replayed for one fragment whole.
const MAX_PAIRS: usize = 2048;

/// Nanoseconds per route lookup on a cold cache: the first contact of a
/// home with each replica and of each replica (an ack) with the home, the
/// lookups that cost a Dijkstra. Sweeps repeat with a fresh cache until
/// enough lookups are timed.
pub fn route_lookup_ns(shape: &Shape, seed: u64) -> f64 {
    let topo = workloads::topology(shape, seed);
    let state = LinkState::all_up();
    let mut pairs: Vec<(NodeId, NodeId)> = Vec::new();
    for f in 0..shape.fragments {
        let home = shape.home(f);
        let fan: Vec<(NodeId, NodeId)> = shape
            .replicas(f)
            .into_iter()
            .filter(|&r| r != home)
            .flat_map(|r| [(home, r), (r, home)])
            .collect();
        if !pairs.is_empty() && pairs.len() + fan.len() > MAX_PAIRS {
            break;
        }
        pairs.extend(fan);
    }
    let mut ops = 0u64;
    let sw = Stopwatch::start();
    while ops < MAX_PAIRS as u64 {
        let mut cache = RouteCache::new();
        for &(a, b) in &pairs {
            black_box(cache.path_delay(&topo, &state, a, b));
        }
        ops += pairs.len() as u64;
    }
    sw.secs() * 1e9 / ops as f64
}
