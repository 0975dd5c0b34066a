//! One benchmark run: repeated passes over a workload, the end-to-end or
//! per-layer metrics they yield, the human-readable report and the final
//! JSON line.
//!
//! A pass runs every rung of the workload once, each on a freshly built
//! system. Passes repeat until the run's time is used up; every pass of a
//! run has the same seed, so their virtual-time results must agree
//! exactly, and wall-clock figures are the median over passes.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::client::{run_rung, Counters, RungResult};
use crate::replay;
use crate::stats::{self, median, p50_p99, Pct, Rung};
use crate::trace::{layer_self_times, Prober, Stopwatch, Tracer, PROBE_REF_S};
use crate::workloads::{self, sub_seed, Shape};

/// Fewest `System::build` timings `setup_s` is the median of.
pub const MIN_SETUPS: usize = 15;

/// Shortest stretch of back-to-back builds `setup_s` is timed over.
pub const SETUP_PHASE_S: f64 = 2.0;

/// The p99 due → commit limit of the sustained-throughput ladder.
pub const LADDER_LIMIT_MS: f64 = 100.0;

/// One pass over every rung of a workload.
pub struct Pass {
    /// Per-rung results, in ladder order.
    pub rungs: Vec<RungResult>,
    /// Wall seconds driving and verifying all rungs (set-up excluded).
    pub wall_s: f64,
    /// Seconds of each host probe taken just before, during and just after
    /// the pass.
    pub probes_s: Vec<f64>,
    /// The pass's spans (empty when untraced).
    pub tracer: Tracer,
}

impl Pass {
    /// `wall_s` in calibrated seconds: scaled by how much slower than
    /// nominal the host probe ran through the pass.
    pub fn cal_wall_s(&self) -> f64 {
        self.wall_s * PROBE_REF_S / self.probe_s()
    }

    /// Median seconds of the pass's host probes.
    pub fn probe_s(&self) -> f64 {
        median(&self.probes_s)
    }

    /// `step_until` calls across all rungs.
    pub fn steps(&self) -> u64 {
        self.rungs.iter().map(|r| r.steps).sum()
    }

    /// Digest of everything deterministic in the pass.
    pub fn fingerprint(&self) -> String {
        self.rungs
            .iter()
            .map(RungResult::fingerprint)
            .collect::<Vec<_>>()
            .join("\n")
    }

    /// Layer counters summed over rungs.
    pub fn counters(&self) -> Counters {
        let mut c = Counters::default();
        for r in &self.rungs {
            c.merge(&r.counters);
        }
        c
    }
}

/// Run every rung of `shape` once.
pub fn run_pass(shape: &Shape, seed: u64, traced: bool) -> Pass {
    let mut prober = Prober::start(!traced);
    let mut tracer = if traced { Tracer::on() } else { Tracer::off() };
    let rungs: Vec<RungResult> = shape
        .rates
        .iter()
        .map(|&rate| {
            let mut pooled = run_rung(shape, rate, seed, &mut tracer, &mut prober);
            for i in 1..shape.repeats {
                let seed = sub_seed(seed, i);
                pooled.absorb(run_rung(shape, rate, seed, &mut tracer, &mut prober));
            }
            pooled
        })
        .collect();
    let wall_s = rungs.iter().map(|r| r.wall_s).sum();
    Pass {
        rungs,
        wall_s,
        probes_s: prober.finish(),
        tracer,
    }
}

/// One reported metric.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    /// Name as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Value as measured.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

/// What one run prints.
pub struct Outcome {
    /// Did every pass pass the correctness gate and agree with the others?
    pub correct: bool,
    /// Requests attempted, over all passes.
    pub attempted: u64,
    /// Requests that never completed, over all passes.
    pub failed: u64,
    /// The metrics of the JSON line.
    pub metrics: Vec<Metric>,
    /// Human-readable report printed before the JSON line.
    pub report: String,
}

impl Outcome {
    /// The final JSON line.
    pub fn json(&self) -> String {
        let mut m = String::new();
        for (i, metric) in self.metrics.iter().enumerate() {
            assert!(metric.value.is_finite(), "{} is not finite", metric.name);
            if i > 0 {
                m.push_str(", ");
            }
            let _ = write!(
                m,
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                metric.name, metric.value, metric.unit
            );
        }
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{m}}}}}",
            self.correct, self.attempted, self.failed
        )
    }
}

/// Run passes until `seconds` of wall time are used, at least `min` of
/// them. Also returns the process's peak RSS at the end of the first
/// pass: later passes only add allocator fragmentation, which would tie
/// the figure to how many passes the machine's speed allowed.
fn passes(shape: &Shape, seed: u64, seconds: f64, min: usize, traced: bool) -> (Vec<Pass>, f64) {
    let sw = Stopwatch::start();
    let mut out = vec![run_pass(shape, seed, traced)];
    let rss = peak_rss_mb();
    while out.len() < min || sw.secs() < seconds {
        out.push(run_pass(shape, seed, traced));
    }
    (out, rss)
}

/// Set-up time, timed apart from the passes: build the workload's system
/// back to back for at least [`SETUP_PHASE_S`] and [`MIN_SETUPS`] builds,
/// probing the host between builds. Builds inside a pass follow a drive
/// that leaves the caches and the heap in a state that varies with the
/// pass, so they are not timed. Returns the median build seconds and the
/// median probe seconds.
fn time_setup(shape: &Shape, seed: u64) -> (f64, f64) {
    let mut prober = Prober::start(true);
    let phase = Stopwatch::start();
    let mut builds = Vec::new();
    while builds.len() < MIN_SETUPS || phase.secs() < SETUP_PHASE_S {
        let sw = Stopwatch::start();
        let built = workloads::build(shape, seed);
        builds.push(sw.secs());
        drop(built);
        prober.tick();
    }
    (median(&builds), median(&prober.finish()))
}

/// Correctness over a run's passes: no gate violation in any, and every
/// pass identical to the first in everything deterministic.
fn gate(passes: &[Pass], report: &mut String) -> bool {
    let mut ok = true;
    for (i, p) in passes.iter().enumerate() {
        for (j, r) in p.rungs.iter().enumerate() {
            ok &= r.violations.is_empty();
            // Same seed, same violations: print a later pass's only if they differ.
            if i > 0 && r.violations == passes[0].rungs[j].violations {
                continue;
            }
            for v in r.violations.iter().take(5) {
                let _ = writeln!(report, "VIOLATION (pass {i}, rate {}): {v}", r.rate);
            }
        }
    }
    let first = passes[0].fingerprint();
    if let Some(i) = passes.iter().position(|p| p.fingerprint() != first) {
        let _ = writeln!(
            report,
            "VIOLATION: pass {i} differs from pass 0 on the same seed"
        );
        ok = false;
    }
    ok
}

fn attempted_failed(passes: &[Pass]) -> (u64, u64) {
    let rungs = passes.iter().flat_map(|p| &p.rungs);
    rungs.fold((0, 0), |(a, f), r| (a + r.requests, f + r.unfinished))
}

/// Peak resident set of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

fn pct_text(p: Option<Pct>, unit: &str) -> String {
    match p {
        Some(p) if p.value.is_finite() => format!("{:.3} {unit} (n={})", p.value, p.n),
        Some(p) => format!("unfinished (n={})", p.n),
        None => "n/a (no samples)".to_string(),
    }
}

/// The virtual-time summary of a pass: the ladder, and the reference
/// rung's latency, lag, traffic, failure and staleness figures.
pub struct Summary {
    /// Due → commit median and p99 at the reference rung.
    pub commit: Option<(Pct, Pct)>,
    /// Commit → install median and p99 at the reference rung.
    pub lag: Option<(Pct, Pct)>,
    /// §4.1 fragments' due → commit p99 at the reference rung.
    pub lock_commit_p99: Option<Pct>,
    /// Wire packets per commit at the reference rung.
    pub msgs_per_commit: f64,
    /// Unfinished over attempted requests, all rungs.
    pub failed_ratio: f64,
    /// Staleness p99 of reads at the reference rung.
    pub staleness_p99: Option<Pct>,
    /// Each rung's ladder verdict inputs.
    pub ladder: Vec<Rung>,
    /// Highest rung within the limit with no growing backlog.
    pub sustained_tps: Option<f64>,
}

/// Summarise a pass's virtual-time results.
pub fn summarise(shape: &Shape, pass: &Pass) -> Summary {
    let reference = &pass.rungs[shape.reference];
    let ladder: Vec<Rung> = pass
        .rungs
        .iter()
        .map(|r| {
            let mut lat = r.commit_ms.clone();
            let p99 = p50_p99(&mut lat, r.unfinished_updates as usize)
                .map_or(f64::INFINITY, |(_, p99)| p99.value);
            Rung {
                rate: r.rate,
                p99_ms: p99,
                backlog: r.backlog,
            }
        })
        .collect();
    let (requests, unfinished) = pass
        .rungs
        .iter()
        .fold((0, 0), |(a, u), r| (a + r.requests, u + r.unfinished));
    let mut lock = reference.lock_commit_ms.clone();
    lock.sort_by(f64::total_cmp);
    Summary {
        commit: p50_p99(
            &mut reference.commit_ms.clone(),
            reference.unfinished_updates as usize,
        ),
        lag: p50_p99(&mut reference.lag_ms.clone(), 0),
        lock_commit_p99: stats::percentile(&lock, 0, 99.0),
        msgs_per_commit: reference.packets as f64 / reference.commits.max(1) as f64,
        failed_ratio: unfinished as f64 / requests.max(1) as f64,
        staleness_p99: reference.staleness.clone().p99(),
        sustained_tps: stats::sustained(&ladder, LADDER_LIMIT_MS),
        ladder,
    }
}

fn summary_report(shape: &Shape, pass: &Pass, s: &Summary, report: &mut String) {
    let reference = &pass.rungs[shape.reference];
    let _ = writeln!(
        report,
        "  virtual-time metrics (deterministic per seed; reference rung {} req/s):",
        reference.rate
    );
    let rows: Vec<(&str, String)> = vec![
        (
            "requests",
            format!("{} ({} read-only)", reference.requests, reference.reads),
        ),
        ("commit_p50_ms", pct_text(s.commit.map(|c| c.0), "ms")),
        ("commit_p99_ms", pct_text(s.commit.map(|c| c.1), "ms")),
        ("lag_p50_ms", pct_text(s.lag.map(|c| c.0), "ms")),
        ("lag_p99_ms", pct_text(s.lag.map(|c| c.1), "ms")),
        (
            "sustained_tps",
            if shape.rates.len() > 1 {
                s.sustained_tps
                    .map_or("below the lowest rung".to_string(), |t| {
                        format!("{t} req/s (limit p99 <= {LADDER_LIMIT_MS} ms, no growing backlog)")
                    })
            } else {
                "n/a (single offered rate)".to_string()
            },
        ),
        (
            "msgs_per_commit",
            format!(
                "{:.4} msgs ({} packets incl. acks, heartbeats, retransmits / {} commits)",
                s.msgs_per_commit, reference.packets, reference.commits
            ),
        ),
        ("failed_ratio", format!("{:.6}", s.failed_ratio)),
        (
            "unavail_ms",
            if reference.crashes == 0 {
                "n/a (no crash)".to_string()
            } else {
                format!(
                    "crash -> next commit on fragment 0: median {} over {} of {} crashes ({} requests fell due in between)",
                    if reference.unavail_ms.is_empty() {
                        "n/a".to_string()
                    } else {
                        format!("{:.3} ms", median(&reference.unavail_ms))
                    },
                    reference.unavail_ms.len(),
                    reference.crashes,
                    reference.unavail_requests
                )
            },
        ),
        ("read_staleness_p99", pct_text(s.staleness_p99, "updates")),
        (
            "aborted_attempts",
            format!(
                "{} (each retried 50-150 ms later)",
                reference.aborted_attempts
            ),
        ),
    ];
    for (name, text) in rows {
        let _ = writeln!(report, "    {name:<20} {text}");
    }
    if shape.rates.len() > 1 {
        let _ = writeln!(report, "  ladder (due -> commit p99, backlog mid -> end):");
        for r in &s.ladder {
            let _ = writeln!(
                report,
                "    {:>6} req/s  p99 {:>10.3} ms  backlog {:>5} -> {:<5}{}",
                r.rate,
                r.p99_ms,
                r.backlog.mid,
                r.backlog.end,
                if r.backlog.growing() { "  growing" } else { "" }
            );
        }
    }
}

/// End-to-end run: untraced passes for `seconds`, gated metrics.
pub fn end_to_end(shape: &Shape, seed: u64, seconds: f64) -> Outcome {
    let (passes, rss) = passes(shape, seed, seconds, 2, false);
    let mut report = String::new();
    let correct = gate(&passes, &mut report);
    let (attempted, failed) = attempted_failed(&passes);
    let walls: Vec<f64> = passes.iter().map(|p| p.wall_s).collect();
    let cal_walls: Vec<f64> = passes.iter().map(Pass::cal_wall_s).collect();
    let (setup_raw, setup_probe) = time_setup(shape, seed);
    let rates: Vec<f64> = passes.iter().map(|p| p.steps() as f64 / p.wall_s).collect();
    let cal_rates: Vec<f64> = passes
        .iter()
        .map(|p| p.steps() as f64 / p.cal_wall_s())
        .collect();
    let probes: Vec<f64> = passes.iter().map(Pass::probe_s).collect();
    let s = summarise(shape, &passes[0]);
    let (lag50, lag99) = s
        .lag
        .map_or((f64::NAN, f64::NAN), |(a, b)| (a.value, b.value));
    let metrics: Vec<Metric> = END_TO_END
        .iter()
        .map(|&(name, unit)| {
            let value = match name {
                "cal_wall_s" => median(&cal_walls),
                "setup_s" => setup_raw * PROBE_REF_S / setup_probe,
                "cal_events_per_s" => median(&cal_rates),
                "peak_rss_mb" => rss,
                "lag_p50_ms" => lag50,
                "lag_p99_ms" => lag99,
                "msgs_per_commit" => s.msgs_per_commit,
                _ => unreachable!("every end-to-end metric has a value"),
            };
            Metric { name, value, unit }
        })
        .collect();
    let mut head = String::new();
    let _ = writeln!(
        head,
        "fragbench {} seed {seed}: {} passes, {} requests and {} steps per pass",
        shape.name,
        passes.len(),
        attempted / passes.len() as u64,
        passes[0].steps()
    );
    let _ = writeln!(head, "  gated end-to-end metrics:");
    for m in &metrics {
        let _ = writeln!(head, "    {:<20} {} {}", m.name, m.value, m.unit);
    }
    let _ = writeln!(
        head,
        "  raw wall clock (not gated: it swings with the load other tenants put on the host):"
    );
    for (name, value, unit) in [
        ("wall_s", median(&walls), "s"),
        ("events_per_s", median(&rates), "1/s"),
        ("host_probe_s", median(&probes), "s"),
        ("setup_raw_s", setup_raw, "s"),
        ("setup_probe_s", setup_probe, "s"),
    ] {
        let _ = writeln!(head, "    {name:<20} {value} {unit}");
    }
    summary_report(shape, &passes[0], &s, &mut head);
    let _ = writeln!(
        head,
        "  correctness gate: {}",
        if correct { "pass" } else { "FAIL" }
    );
    head.push_str(&report);
    Outcome {
        correct,
        attempted,
        failed,
        metrics,
        report: head,
    }
}

/// Names and units of the end-to-end metrics, in the order
/// `BENCHMARK.json` lists them.
pub const END_TO_END: &[(&str, &str)] = &[
    ("cal_wall_s", "s"),
    ("setup_s", "s"),
    ("cal_events_per_s", "1/s"),
    ("peak_rss_mb", "MiB"),
    ("lag_p50_ms", "ms"),
    ("lag_p99_ms", "ms"),
    ("msgs_per_commit", "msgs"),
];

/// Names and units of the per-layer metrics, in the order
/// `BENCHMARK.json` lists them.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("workloads.next_arrival_s", "s"),
    ("core.step.txn_s", "s"),
    ("core.step.txn_n", "count"),
    ("core.step.txn_ns", "ns"),
    ("core.step.install_s", "s"),
    ("core.step.install_n", "count"),
    ("core.step.install_ns", "ns"),
    ("core.step.install_first_s", "s"),
    ("core.step.quiet_s", "s"),
    ("core.step.quiet_n", "count"),
    ("core.step.quiet_ns", "ns"),
    ("core.submit_s", "s"),
    ("core.queue_peak", "count"),
    ("core.lock_commit_p99_ms", "ms"),
    ("core.unavail_ms", "ms"),
    ("core.txn.committed", "count"),
    ("core.txn.aborted", "count"),
    ("core.abort.unavailable", "count"),
    ("sim.events", "count"),
    ("sim.peak_pending", "count"),
    ("sim.pool_reuse", "count"),
    ("sim.engine_op_ns", "ns"),
    ("net.sent", "count"),
    ("net.transmissions", "count"),
    ("net.retransmissions", "count"),
    ("net.acks_sent", "count"),
    ("net.acks_piggybacked", "count"),
    ("net.dup_dropped", "count"),
    ("net.fault_dropped", "count"),
    ("net.unreachable", "count"),
    ("net.useful_ratio", "ratio"),
    ("net.route_lookup_ns", "ns"),
    ("net.install_heldback", "count"),
    ("net.install_duplicate", "count"),
    ("net.detector_heartbeats", "count"),
    ("net.election_rounds", "count"),
    ("storage.wal_records", "count"),
    ("storage.digest_s", "s"),
    ("obs.telemetry_records", "count"),
    ("obs.telemetry_dropped", "count"),
    ("obs.spans_truncated", "count"),
    ("obs.spans_s", "s"),
    ("graphs.check_s", "s"),
    ("graphs.history_ops", "count"),
    ("trace.unattributed_share", "ratio"),
    ("trace.overhead_s", "s"),
];

/// Per-layer values of one traced pass (replays and overhead excluded).
fn layer_values(shape: &Shape, pass: &Pass) -> BTreeMap<&'static str, f64> {
    let t = &pass.tracer;
    let k = pass.counters();
    let mut v = BTreeMap::new();
    v.insert(
        "workloads.next_arrival_s",
        t.total_secs("workloads.next_arrival"),
    );
    for (class, s, n, ns) in [
        (
            "core.step.txn",
            "core.step.txn_s",
            "core.step.txn_n",
            "core.step.txn_ns",
        ),
        (
            "core.step.install",
            "core.step.install_s",
            "core.step.install_n",
            "core.step.install_ns",
        ),
        (
            "core.step.quiet",
            "core.step.quiet_s",
            "core.step.quiet_n",
            "core.step.quiet_ns",
        ),
    ] {
        let secs = t.total_secs(class);
        let count = t.spans().iter().filter(|sp| sp.name == class).count() as f64;
        v.insert(s, secs);
        v.insert(n, count);
        v.insert(ns, if count > 0.0 { secs * 1e9 / count } else { 0.0 });
    }
    v.insert(
        "core.step.install_first_s",
        pass.rungs.iter().map(|r| r.first_install_s).sum(),
    );
    v.insert("core.submit_s", t.total_secs("core.submit"));
    let summary = summarise(shape, pass);
    v.insert(
        "core.lock_commit_p99_ms",
        summary
            .lock_commit_p99
            .map_or(0.0, |p| if p.value.is_finite() { p.value } else { 0.0 }),
    );
    let reference = &pass.rungs[shape.reference];
    v.insert(
        "core.unavail_ms",
        if reference.unavail_ms.is_empty() {
            0.0
        } else {
            median(&reference.unavail_ms)
        },
    );
    for name in [
        "core.queue_peak",
        "core.txn.committed",
        "core.txn.aborted",
        "core.abort.unavailable",
        "sim.events",
        "sim.peak_pending",
        "sim.pool_reuse",
        "net.sent",
        "net.transmissions",
        "net.retransmissions",
        "net.acks_sent",
        "net.acks_piggybacked",
        "net.dup_dropped",
        "net.fault_dropped",
        "net.unreachable",
        "net.install_heldback",
        "net.install_duplicate",
        "net.detector_heartbeats",
        "net.election_rounds",
        "storage.wal_records",
        "obs.telemetry_records",
        "obs.telemetry_dropped",
        "obs.spans_truncated",
        "graphs.history_ops",
    ] {
        v.insert(name, k.get(name) as f64);
    }
    v.insert(
        "net.useful_ratio",
        k.get("net.delivered") as f64 / k.get("net.transmissions").max(1) as f64,
    );
    v.insert("storage.digest_s", t.total_secs("storage.digest"));
    v.insert("obs.spans_s", t.total_secs("obs.spans"));
    v.insert("graphs.check_s", t.total_secs("graphs.check"));
    let self_times = t.self_times();
    let run_total = t.total_secs("run");
    v.insert(
        "trace.unattributed_share",
        self_times.get("run").copied().unwrap_or(0.0) / run_total.max(f64::MIN_POSITIVE),
    );
    v
}

/// Traced run: one untraced pass for the overhead baseline, then traced
/// passes for `seconds`; per-layer metrics are medians over traced passes.
pub fn per_layer(shape: &Shape, seed: u64, seconds: f64) -> Outcome {
    let untraced = run_pass(shape, seed, false);
    let (traced, _) = passes(shape, seed, seconds, 1, true);
    let mut report = String::new();
    let mut all = vec![untraced];
    all.extend(traced);
    // Counters sampled only under tracing make the traced passes differ
    // from the untraced one; compare like with like.
    let correct = gate(&all[..1], &mut report) && gate(&all[1..], &mut report);
    let (attempted, failed) = attempted_failed(&all);
    let (untraced, traced) = all.split_first().expect("at least one pass");

    let per_pass: Vec<BTreeMap<&'static str, f64>> =
        traced.iter().map(|p| layer_values(shape, p)).collect();
    let traced_walls: Vec<f64> = traced.iter().map(|p| p.wall_s).collect();
    let traced_wall = median(&traced_walls);
    let engine_ns = replay::engine_op_ns(shape, seed);
    let route_ns = replay::route_lookup_ns(shape, seed);
    let metrics: Vec<Metric> = PER_LAYER
        .iter()
        .map(|&(name, unit)| {
            let value = match name {
                "sim.engine_op_ns" => engine_ns,
                "net.route_lookup_ns" => route_ns,
                "trace.overhead_s" => traced_wall - untraced.wall_s,
                _ => median(&per_pass.iter().map(|m| m[name]).collect::<Vec<_>>()),
            };
            Metric { name, value, unit }
        })
        .collect();

    // Self-time table from the traced pass with the median wall time.
    let mid = traced
        .iter()
        .min_by(|a, b| {
            (a.wall_s - traced_wall)
                .abs()
                .total_cmp(&(b.wall_s - traced_wall).abs())
        })
        .expect("a traced pass");
    let self_times = mid.tracer.self_times();
    let mut head = String::new();
    let _ = writeln!(
        head,
        "fragbench {} seed {seed} (traced): {} traced passes; untraced wall {:.4} s, traced wall {:.4} s, tracing overhead {:+.4} s",
        shape.name,
        traced.len(),
        untraced.wall_s,
        traced_wall,
        traced_wall - untraced.wall_s
    );
    let _ = writeln!(head, "  self time per span (median-wall traced pass):");
    let run_total = mid.tracer.total_secs("run");
    let mut rows: Vec<(&str, f64)> = self_times
        .iter()
        .filter(|(n, _)| **n != "setup")
        .map(|(n, s)| (*n, *s))
        .collect();
    rows.sort_by(|a, b| b.1.total_cmp(&a.1));
    for (name, secs) in &rows {
        let label = if *name == "run" {
            "(unattributed)"
        } else {
            name
        };
        let _ = writeln!(
            head,
            "    {label:<28} {secs:>10.4} s  {:>6.2} %",
            100.0 * secs / run_total.max(f64::MIN_POSITIVE)
        );
    }
    let _ = writeln!(head, "  self time per layer:");
    let layers = layer_self_times(&self_times);
    for (layer, secs) in &layers {
        if layer == "setup" {
            continue;
        }
        let label = if layer == "run" {
            "(unattributed)"
        } else {
            layer.as_str()
        };
        let _ = writeln!(
            head,
            "    {label:<28} {secs:>10.4} s  {:>6.2} %",
            100.0 * secs / run_total.max(f64::MIN_POSITIVE)
        );
    }
    let dominant = ["core.step.txn", "core.step.install", "core.step.quiet"]
        .into_iter()
        .max_by(|a, b| {
            let sa = self_times.get(a).copied().unwrap_or(0.0);
            let sb = self_times.get(b).copied().unwrap_or(0.0);
            sa.total_cmp(&sb)
        })
        .expect("three classes");
    let _ = writeln!(
        head,
        "  dominant step class: {dominant}; unattributed share {:.4}",
        self_times.get("run").copied().unwrap_or(0.0) / run_total.max(f64::MIN_POSITIVE)
    );
    let first: f64 = mid.rungs.iter().map(|r| r.first_install_s).sum();
    let _ = writeln!(
        head,
        "  of core.step.install, steps holding a replica's first install of a fragment (its first ack to that home, a route-cache miss): {first:.4} s, {:.2} % of traced wall; the other install steps: {:.4} s, {:.2} %",
        100.0 * first / run_total.max(f64::MIN_POSITIVE),
        self_times.get("core.step.install").copied().unwrap_or(0.0) - first,
        100.0 * (self_times.get("core.step.install").copied().unwrap_or(0.0) - first)
            / run_total.max(f64::MIN_POSITIVE)
    );
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    let file = dir.join(format!("spans-{}-{seed}.jsonl", shape.name));
    match std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&file, mid.tracer.to_jsonl()))
    {
        Ok(()) => {
            let _ = writeln!(head, "  spans written to {}", file.display());
        }
        Err(e) => {
            let _ = writeln!(head, "  spans not written: {e}");
        }
    }
    let _ = writeln!(head, "  per-layer metrics:");
    for m in &metrics {
        let _ = writeln!(head, "    {:<28} {} {}", m.name, m.value, m.unit);
    }
    let _ = writeln!(
        head,
        "  correctness gate: {}",
        if correct { "pass" } else { "FAIL" }
    );
    head.push_str(&report);
    Outcome {
        correct,
        attempted,
        failed,
        metrics,
        report: head,
    }
}
