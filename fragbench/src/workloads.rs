//! The benchmark's workloads and the set-up that builds their systems.
//!
//! Every workload runs on a jittered full mesh (10 ms ± 1 ms links) with
//! open-loop Poisson arrivals and Zipf(0.99) keys over 10⁶ users. A
//! [`Shape`] holds every size knob, so the tests can run the same code on
//! small shapes.

use fragdb_core::{DetectorConfig, MovePolicy, StrategyKind, System, SystemConfig};
use fragdb_model::{AgentId, FragmentCatalog, FragmentId, NodeId, ObjectId};
use fragdb_net::{FaultConfig, FaultPlan, Topology};
use fragdb_sim::{SimDuration, Telemetry};

/// Which of the three workloads a shape is.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    /// Fully replicated §4.3 fragments: every commit fans out to n − 1.
    Fanout,
    /// RF-3 replica sets, §4.4.1 majority commit on three fragments in
    /// four, §4.1 read locks on the fourth, 30 % non-home reads; a ladder
    /// of offered rates across the knee.
    QuorumMix,
    /// RF-5 §4.4.1 fragments under link faults, failure detector and
    /// elections on; a member of fragment 0's replica set crashes and
    /// later recovers.
    Chaos,
}

/// Every size and protocol knob of one workload.
#[derive(Clone, Debug)]
pub struct Shape {
    /// Workload name as given on the command line.
    pub name: &'static str,
    /// Which workload.
    pub kind: Kind,
    /// Nodes of the full mesh.
    pub nodes: u32,
    /// Fragments, fragment `f` homed at node `f · nodes / fragments`.
    pub fragments: u32,
    /// Replicas per fragment; `None` replicates every fragment everywhere.
    pub replication_factor: Option<u32>,
    /// Share of requests that are read-only transactions at a non-home
    /// replica.
    pub read_share: f64,
    /// Offered rates in requests per simulated second. One rate is one
    /// run of the system; more than one is a ladder.
    pub rates: Vec<f64>,
    /// Index into `rates` of the rung below the knee that latency, lag
    /// and traffic are reported at.
    pub reference: usize,
    /// Arrival window of each rung.
    pub window: SimDuration,
    /// Independent runs per rung, each on its own derived seed, pooled
    /// into one result: more samples and more crash episodes per pass
    /// without the cost of one long run.
    pub repeats: u32,
    /// Stop after this many arrivals even inside the window, so the work
    /// per run does not vary with the seed's Poisson draw.
    pub max_arrivals: Option<u64>,
    /// Time after the window for retransmissions and catch-up to settle.
    pub drain: SimDuration,
    /// A node of fragment 0's replica set that crashes at ⅓ of the window
    /// and recovers at ⅔.
    pub crash: Option<Crash>,
}

/// Which member of fragment 0's replica set a workload crashes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Crash {
    /// The token home: the fragment is unserved until an election moves
    /// the token.
    Home,
    /// A replica that is not the home: majority commit carries on with
    /// the others, and the replica catches up by WAL replay and
    /// anti-entropy when it recovers.
    Replica,
}

/// Objects per fragment; Zipf ranks fold onto them.
pub const OBJECTS_PER_FRAGMENT: u32 = 256;

/// Zipf population: the million users.
pub const USERS: u64 = 1_000_000;

/// Zipf skew (the YCSB default).
pub const THETA: f64 = 0.99;

/// The fault plan of every link in the fault workloads.
const FAULTS: FaultPlan = FaultPlan {
    drop: 0.05,
    dup: 0.02,
    jitter: SimDuration::ZERO,
};

/// §4.1 lock patience in quorum-mix. The read graph of its §4.1
/// fragments is a ring, so a distributed deadlock is possible; the lock
/// timeout is what breaks it, and the client retries.
const LOCK_PATIENCE: SimDuration = SimDuration(1_000_000);

/// §4.4.1 majority patience: long enough that retransmissions, not
/// timeouts, settle every commit whose home stays up.
const MAJORITY_PATIENCE: SimDuration = SimDuration(30_000_000);

impl Shape {
    /// The full-size workload called `name`.
    pub fn named(name: &str) -> Option<Shape> {
        let base = |name, kind| Shape {
            name,
            kind,
            nodes: 0,
            fragments: 0,
            replication_factor: None,
            read_share: 0.0,
            rates: Vec::new(),
            reference: 0,
            window: SimDuration::from_secs(5),
            repeats: 1,
            max_arrivals: None,
            drain: SimDuration::from_secs(30),
            crash: None,
        };
        let chaos = |name, crash| Shape {
            nodes: 64,
            fragments: 8,
            replication_factor: Some(5),
            read_share: 0.3,
            rates: vec![100.0],
            window: SimDuration::from_secs(30),
            repeats: 16,
            crash: Some(crash),
            ..base(name, Kind::Chaos)
        };
        let shape = match name {
            "fanout-1024" => Shape {
                nodes: 1024,
                fragments: 8,
                rates: vec![50.0],
                window: SimDuration::from_secs(60),
                // Enough commits that the steady per-commit fan-out, not
                // the one-time cold replica→home route lookups of each
                // fragment's first commit, is most of a pass.
                max_arrivals: Some(512),
                ..base("fanout-1024", Kind::Fanout)
            },
            "quorum-mix-256" => Shape {
                nodes: 256,
                fragments: 32,
                replication_factor: Some(3),
                read_share: 0.3,
                rates: vec![200.0, 400.0, 600.0, 800.0, 1000.0, 1200.0],
                reference: 1,
                window: SimDuration::from_secs(5),
                drain: SimDuration::from_secs(600),
                ..base("quorum-mix-256", Kind::QuorumMix)
            },
            "replica-crash-64" => chaos("replica-crash-64", Crash::Replica),
            "heal-chaos-64" => chaos("heal-chaos-64", Crash::Home),
            _ => return None,
        };
        Some(shape)
    }

    /// Names of every workload. `BENCHMARK.json` lists the first three;
    /// `heal-chaos-64` runs by name (its gate fails on a program defect,
    /// see the README).
    pub const NAMES: [&'static str; 4] = [
        "fanout-1024",
        "quorum-mix-256",
        "replica-crash-64",
        "heal-chaos-64",
    ];

    /// Home node of fragment `f`.
    pub fn home(&self, f: u32) -> NodeId {
        NodeId((f as u64 * self.nodes as u64 / self.fragments as u64) as u32)
    }

    /// Replica set of fragment `f`: its home and `rf − 1` nodes spread
    /// evenly around the node ring.
    pub fn replicas(&self, f: u32) -> Vec<NodeId> {
        match self.replication_factor {
            None => (0..self.nodes).map(NodeId).collect(),
            Some(rf) => {
                let stride = (self.nodes / rf).max(1) | 1;
                let h = self.home(f).0;
                (0..rf)
                    .map(|k| NodeId((h + k * stride) % self.nodes))
                    .collect()
            }
        }
    }

    /// Is the program's telemetry on? Only where spans are rebuilt.
    pub fn telemetry(&self) -> bool {
        self.kind == Kind::Fanout
    }

    /// The node the workload crashes, if any.
    pub fn crashed_node(&self) -> Option<NodeId> {
        self.crash.map(|c| match c {
            Crash::Home => self.home(0),
            Crash::Replica => self.replicas(0)[1],
        })
    }

    /// Is fragment `f` a §4.1 read-lock fragment?
    pub fn uses_read_locks(&self, f: u32) -> bool {
        self.kind == Kind::QuorumMix && f % 4 == 3
    }

    /// The foreign §4.1 fragment whose objects `f`'s updates read.
    pub fn foreign_of(&self, f: u32) -> u32 {
        (f + 4) % self.fragments
    }
}

/// A built system plus the catalog layout the client needs.
pub struct Built {
    /// The system under test.
    pub sys: System,
    /// Objects of each fragment, indexed by fragment number.
    pub objects: Vec<Vec<ObjectId>>,
}

/// Set-up: topology plus `System::build`, with the workload's protocol
/// configuration.
pub fn build(shape: &Shape, seed: u64) -> Built {
    let mut b = FragmentCatalog::builder();
    let frags: Vec<(FragmentId, Vec<ObjectId>)> = (0..shape.fragments)
        .map(|f| b.add_fragment(format!("F{f}"), OBJECTS_PER_FRAGMENT as usize))
        .collect();
    let agents = frags
        .iter()
        .map(|(f, _)| {
            let home = shape.home(f.0);
            (*f, AgentId::Node(home), home)
        })
        .collect();
    let topo = topology(shape, seed);
    let mut config = SystemConfig::unrestricted(seed);
    for (f, _) in &frags {
        if shape.replication_factor.is_some() {
            config = config.with_replica_set(*f, shape.replicas(f.0));
        }
        match shape.kind {
            Kind::Fanout => {}
            Kind::QuorumMix if shape.uses_read_locks(f.0) => {
                config = config.with_fragment_strategy(
                    *f,
                    StrategyKind::ReadLocks {
                        timeout: LOCK_PATIENCE,
                    },
                );
            }
            Kind::QuorumMix | Kind::Chaos => {
                config = config.with_fragment_move_policy(
                    *f,
                    MovePolicy::MajorityCommit {
                        timeout: MAJORITY_PATIENCE,
                    },
                );
            }
        }
    }
    if shape.kind == Kind::Chaos {
        config = config
            .with_faults(FaultConfig::uniform(FAULTS))
            .with_detector(
                DetectorConfig::period(SimDuration::from_millis(500))
                    .with_election_timeout(SimDuration::from_secs(2)),
            );
    }
    let mut sys =
        System::build(topo, b.build(), agents, config).expect("benchmark workload must build");
    if shape.telemetry() {
        // Size the ring so span reconstruction sees every commit: about
        // two events per replica per commit plus lifecycle events, with
        // headroom for Poisson variance.
        let arrivals = shape.max_arrivals.unwrap_or_else(|| {
            (shape.rates.iter().fold(0.0f64, |a, &r| a.max(r)) * shape.window.as_secs_f64()) as u64
        });
        let cap = (arrivals * (2 * shape.nodes as u64 + 16) * 2).max(200_000);
        sys.engine.telemetry = Telemetry::bounded(cap as usize);
    }
    Built {
        sys,
        objects: frags.into_iter().map(|(_, objs)| objs).collect(),
    }
}

/// Seed of the `i`-th pooled run of a rung (`i = 0` is the run's seed).
pub fn sub_seed(seed: u64, i: u32) -> u64 {
    seed.wrapping_add(u64::from(i).wrapping_mul(0x9e37_79b9_7f4a_7c15))
}

/// The workload's link layout: a full mesh of 10 ms ± 1 ms links, drawn
/// from its own seed stream so the topology never perturbs the engine's or
/// the client's draws.
pub fn topology(shape: &Shape, seed: u64) -> Topology {
    Topology::jittered_mesh(
        shape.nodes,
        SimDuration::from_millis(10),
        SimDuration::from_millis(1),
        seed ^ 0x11_77_e7_ed,
    )
}

/// Fold a Zipf user rank onto `(fragment, object index)`, hottest ranks
/// round-robin across fragments so every fragment's keys are skewed.
pub fn place(rank: u64, fragments: u32, objects: u32) -> (u32, u32) {
    let f = (rank % fragments as u64) as u32;
    let o = ((rank / fragments as u64) % objects as u64) as u32;
    (f, o)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_named_shape_exists_and_replica_sets_hold_their_home() {
        for name in Shape::NAMES {
            let s = Shape::named(name).expect("named shape");
            assert_eq!(s.name, name);
            assert!(s.reference < s.rates.len());
            for f in 0..s.fragments {
                let r = s.replicas(f);
                assert!(r.contains(&s.home(f)), "{name}: home of {f} replicates it");
                let mut d = r.clone();
                d.sort();
                d.dedup();
                assert_eq!(d.len(), r.len(), "{name}: replicas of {f} distinct");
            }
        }
        assert!(Shape::named("nope").is_none());
    }

    #[test]
    fn quorum_mix_locks_every_fourth_fragment_and_reads_a_foreign_lock_fragment() {
        let s = Shape::named("quorum-mix-256").unwrap();
        let locked: Vec<u32> = (0..s.fragments).filter(|&f| s.uses_read_locks(f)).collect();
        assert_eq!(locked.len(), 8);
        for f in locked {
            let g = s.foreign_of(f);
            assert_ne!(g, f);
            assert!(s.uses_read_locks(g));
        }
    }

    #[test]
    fn crashed_nodes_serve_only_fragment_zero() {
        for name in ["heal-chaos-64", "replica-crash-64"] {
            let s = Shape::named(name).unwrap();
            let down = s.crashed_node().expect("a crash");
            assert!(s.replicas(0).contains(&down));
            for f in 1..s.fragments {
                assert!(!s.replicas(f).contains(&down), "{name}: {f}");
            }
        }
        let s = Shape::named("replica-crash-64").unwrap();
        assert_ne!(s.crashed_node(), Some(s.home(0)));
    }

    #[test]
    fn hot_ranks_spread_across_fragments() {
        assert_eq!(place(0, 4, 16), (0, 0));
        assert_eq!(place(3, 4, 16), (3, 0));
        assert_eq!(place(4, 4, 16), (0, 1));
        assert_eq!(place(64, 4, 16), (0, 0));
    }
}
