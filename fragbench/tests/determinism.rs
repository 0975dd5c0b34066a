//! Determinism self-test: the same seed gives identical virtual-time
//! metrics and work counters; another seed changes the arrivals and still
//! passes the correctness gate. Runs each workload on a small shape.

use fragbench::bench::{run_pass, summarise};
use fragbench::workloads::Shape;
use fragdb_sim::SimDuration;

fn small(name: &str) -> Shape {
    let mut s = Shape::named(name).expect("named workload");
    match name {
        "fanout-1024" => {
            s.nodes = 32;
            s.max_arrivals = Some(40);
        }
        "quorum-mix-256" => {
            s.nodes = 24;
            s.fragments = 16;
            s.rates = vec![100.0, 400.0];
            s.reference = 0;
            s.window = SimDuration::from_secs(2);
            s.drain = SimDuration::from_secs(60);
        }
        "replica-crash-64" | "heal-chaos-64" => {
            s.nodes = 16;
            s.fragments = 4;
            s.replication_factor = Some(3);
            s.rates = vec![40.0];
            s.window = SimDuration::from_secs(12);
            s.repeats = 1;
        }
        _ => unreachable!(),
    }
    s
}

fn assert_clean(shape: &Shape, seed: u64) -> fragbench::bench::Pass {
    let pass = run_pass(shape, seed, false);
    for r in &pass.rungs {
        assert!(
            r.violations.is_empty(),
            "{} seed {seed} rate {}: {:?}",
            shape.name,
            r.rate,
            r.violations
        );
        assert_eq!(
            r.unfinished, 0,
            "{} seed {seed}: unfinished requests",
            shape.name
        );
        assert!(
            r.commits > 0,
            "{} seed {seed}: nothing committed",
            shape.name
        );
    }
    pass
}

/// The workloads whose correctness gate passes. `heal-chaos-64` does not
/// (see the last test), so it is checked for determinism only.
const GATED: [&str; 3] = ["fanout-1024", "quorum-mix-256", "replica-crash-64"];

#[test]
fn same_seed_same_results_other_seed_other_arrivals() {
    for name in GATED {
        let shape = small(name);
        let a = assert_clean(&shape, 11);
        let b = assert_clean(&shape, 11);
        assert_eq!(
            a.fingerprint(),
            b.fingerprint(),
            "{name}: same seed diverged"
        );
        assert_eq!(a.counters(), b.counters(), "{name}: counters diverged");
        let c = assert_clean(&shape, 12);
        assert_ne!(
            a.rungs[0].arrivals_digest, c.rungs[0].arrivals_digest,
            "{name}: another seed must change the arrivals"
        );
    }
}

#[test]
fn heal_chaos_is_deterministic_and_elects_a_new_home() {
    let shape = small("heal-chaos-64");
    let a = run_pass(&shape, 11, false);
    let b = run_pass(&shape, 11, false);
    assert_eq!(a.fingerprint(), b.fingerprint(), "same seed diverged");
    let c = run_pass(&shape, 12, false);
    assert_ne!(a.rungs[0].arrivals_digest, c.rungs[0].arrivals_digest);
    let r = &a.rungs[0];
    assert_eq!(r.crashes, 1);
    assert!(
        r.counters.get("net.election_rounds") > 0,
        "the crash must trigger an election"
    );
    assert_eq!(
        r.unavail_ms.len(),
        1,
        "fragment 0 must commit again after the crash"
    );
}

#[test]
fn traced_pass_matches_untraced_virtual_results() {
    let shape = small("replica-crash-64");
    let plain = run_pass(&shape, 5, false);
    let traced = run_pass(&shape, 5, true);
    let (p, t) = (&plain.rungs[0], &traced.rungs[0]);
    assert_eq!(p.commit_ms, t.commit_ms);
    assert_eq!(p.lag_ms, t.lag_ms);
    assert_eq!(p.packets, t.packets);
    assert!(plain.tracer.spans().is_empty());
    assert!(traced
        .tracer
        .spans()
        .iter()
        .any(|s| s.name == "core.step.txn"));
}

#[test]
fn replica_crash_drives_faults_heartbeats_and_catch_up() {
    let shape = small("replica-crash-64");
    let pass = assert_clean(&shape, 3);
    let r = &pass.rungs[0];
    assert_eq!(r.crashes, 1);
    assert_eq!(
        r.unavail_ms.len(),
        1,
        "fragment 0 must commit after the crash"
    );
    assert!(
        r.counters.get("net.retransmissions") > 0,
        "faults must bite"
    );
    assert!(
        r.counters.get("net.dup_dropped") > 0,
        "duplicates must be dropped"
    );
    assert!(r.counters.get("net.detector_heartbeats") > 0);
    let s = summarise(&shape, &pass);
    // Packets include acks and heartbeats, so well above one per replica.
    assert!(s.msgs_per_commit > 2.0);
}

#[test]
fn quorum_mix_ladder_and_locks() {
    let shape = small("quorum-mix-256");
    let pass = assert_clean(&shape, 4);
    let s = summarise(&shape, &pass);
    assert_eq!(s.ladder.len(), 2);
    assert!(s.lock_commit_p99.is_some(), "§4.1 fragments must commit");
    assert!(s.staleness_p99.is_some(), "reads must run");
}

/// A crash of fragment 0's home while one of its §4.4.1 commits waits for
/// its majority: the program reports the transaction `Aborted` at the
/// crash, yet the election's recovery later installs its staged copy at
/// every replica, so reads see an update no client saw commit. The gate
/// flags it, which is why `BENCHMARK.json` does not list `heal-chaos-64`.
/// This test tracks the defect: once the program reports such an outcome
/// truthfully it fails, and `heal-chaos-64` belongs back in the listed
/// workloads (with this test turned into a clean-gate check).
#[test]
fn heal_chaos_gate_still_flags_abort_then_install() {
    let shape = small("heal-chaos-64");
    let mut hit = 0;
    for seed in 1..=10 {
        for v in run_pass(&shape, seed, false).rungs[0].violations.iter() {
            if v.contains("was reported aborted but installed") {
                hit += 1;
            } else {
                assert!(
                    v.ends_with("reads saw more updates than had committed"),
                    "seed {seed}: unexpected violation {v}"
                );
            }
        }
    }
    assert!(
        hit > 0,
        "no seed showed the defect: list heal-chaos-64 in BENCHMARK.json again"
    );
}
