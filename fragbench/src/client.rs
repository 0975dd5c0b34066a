//! The open-loop client: feeds arrivals lazily, retries aborted attempts,
//! and measures every simulated-database metric from the notifications the
//! system hands back.
//!
//! A request is due at its arrival instant and is timed from then, so a
//! stall also charges the requests that queued behind it. An attempt that
//! aborts (the home is down, a §4.1 deadlock, a lock or majority timeout)
//! is retried after a jittered [`RETRY_BACKOFF`] until the retry deadline;
//! a request still open at the end of the drain counts as failed.
//!
//! The client pairs requests with transactions without any hook inside
//! the program: each submitted program carries a [`Ticket`] that logs the
//! transaction id when the program runs, and logs a drop when the system
//! discards the program unrun (an abort before execution).

use std::cell::RefCell;
use std::collections::{BTreeMap, BTreeSet};
use std::rc::Rc;

use fragdb_core::{Notification, Submission, System};
use fragdb_model::{FragmentId, NodeId, ObjectId, TxnId};
use fragdb_sim::metrics::keys;
use fragdb_sim::{SimDuration, SimRng, SimTime};
use fragdb_workloads::{OpenLoop, OpenLoopConfig};

use crate::stats::{Backlog, Staleness};
use crate::trace::{Prober, Stopwatch, Tracer};
use crate::workloads::{self, Shape};

/// Mean pause between an aborted attempt and its retry; each retry draws
/// uniformly from half to one and a half times it, so two transactions
/// that deadlocked do not collide again in lockstep.
pub const RETRY_BACKOFF: SimDuration = SimDuration(100_000);

/// What a request asks for.
#[derive(Clone, Copy, Debug)]
enum Op {
    /// Increment `obj`; §4.1 updates also read `foreign` under a lock.
    Update { foreign: Option<ObjectId> },
    /// Read `obj` at a replica other than the home.
    Read,
}

/// One client request and its progress.
#[derive(Clone, Debug)]
struct Request {
    due: SimTime,
    frag: u32,
    obj: ObjectId,
    op: Op,
    done_at: Option<SimTime>,
}

/// What a submitted program reports back.
enum Exec {
    /// The program ran as transaction `txn`; reads report the value seen.
    Ran {
        req: u32,
        txn: TxnId,
        read: Option<i64>,
    },
    /// The system discarded the program without running it.
    Dropped(u32),
}

type Log = Rc<RefCell<Vec<Exec>>>;

/// Travels inside a submitted program; logs a drop if never run.
struct Ticket {
    req: u32,
    log: Log,
    ran: bool,
}

impl Drop for Ticket {
    fn drop(&mut self) {
        if !self.ran {
            self.log.borrow_mut().push(Exec::Dropped(self.req));
        }
    }
}

/// A committed update as the client saw it.
#[derive(Clone, Copy, Debug)]
struct Commit {
    at: SimTime,
    frag: u32,
    node: NodeId,
}

/// Layer counters read through public accessors at the end of a run.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Counters {
    /// `(name, value)` in a fixed order; summed across rungs.
    pub values: BTreeMap<&'static str, u64>,
}

impl Counters {
    fn add(&mut self, name: &'static str, v: u64) {
        *self.values.entry(name).or_insert(0) += v;
    }

    fn max(&mut self, name: &'static str, v: u64) {
        let e = self.values.entry(name).or_insert(0);
        *e = (*e).max(v);
    }

    /// A counter's value (0 when never recorded).
    pub fn get(&self, name: &str) -> u64 {
        self.values.get(name).copied().unwrap_or(0)
    }

    /// Fold another rung's counters in: peaks take the maximum, the rest add.
    pub fn merge(&mut self, other: &Counters) {
        for (k, v) in &other.values {
            if k.contains("peak") {
                self.max(k, *v);
            } else {
                self.add(k, *v);
            }
        }
    }
}

/// Everything one run of the system (one rung) observed. The virtual-time
/// part is a deterministic function of the shape, rate and seed.
#[derive(Clone, Debug, Default)]
pub struct RungResult {
    /// Offered rate.
    pub rate: f64,
    /// Requests that arrived.
    pub requests: u64,
    /// FNV-1a digest of every request's due time, in arrival order.
    pub arrivals_digest: u64,
    /// Of which read-only.
    pub reads: u64,
    /// Requests never completed by the end of the drain.
    pub unfinished: u64,
    /// Attempts that aborted (each is retried).
    pub aborted_attempts: u64,
    /// Update commits.
    pub commits: u64,
    /// Due → commit of each committed update, ms.
    pub commit_ms: Vec<f64>,
    /// Due → commit on §4.1 fragments only, ms.
    pub lock_commit_ms: Vec<f64>,
    /// Commit → install at each replica that was up at commit time, ms.
    pub lag_ms: Vec<f64>,
    /// Read-staleness bookkeeping.
    pub staleness: Staleness,
    /// Wire packets: data transmissions plus standalone acks.
    pub packets: u64,
    /// Crash of fragment 0's home → first commit on fragment 0, ms, one
    /// per run that crashed the home and healed.
    pub unavail_ms: Vec<f64>,
    /// Runs that crashed fragment 0's home.
    pub crashes: u64,
    /// Requests to fragment 0 that fell due while it had no serving home.
    pub unavail_requests: u64,
    /// Outstanding-request trend over the arrival window.
    pub backlog: Backlog,
    /// Updates unfinished at the drain (missing from `commit_ms`).
    pub unfinished_updates: u64,
    /// Layer work counters.
    pub counters: Counters,
    /// Correctness violations found by the end-of-run gate.
    pub violations: Vec<String>,
    /// Seconds driving to quiescence plus end-of-run verification, less
    /// the host probes taken meanwhile.
    pub wall_s: f64,
    /// Traced runs only: seconds in install steps that hold some replica's
    /// first install of a fragment. That install's ack is the replica's
    /// first packet to the fragment's home, so its route lookup misses the
    /// cache.
    pub first_install_s: f64,
    /// `step_until` calls.
    pub steps: u64,
}

impl RungResult {
    /// Pool another run of the same rung into this one: samples
    /// concatenate, counts add.
    pub fn absorb(&mut self, other: RungResult) {
        self.requests += other.requests;
        self.arrivals_digest =
            (self.arrivals_digest ^ other.arrivals_digest).wrapping_mul(0x0000_0100_0000_01b3);
        self.reads += other.reads;
        self.unfinished += other.unfinished;
        self.aborted_attempts += other.aborted_attempts;
        self.commits += other.commits;
        self.commit_ms.extend(other.commit_ms);
        self.lock_commit_ms.extend(other.lock_commit_ms);
        self.lag_ms.extend(other.lag_ms);
        self.staleness.absorb(other.staleness);
        self.packets += other.packets;
        self.unavail_ms.extend(other.unavail_ms);
        self.crashes += other.crashes;
        self.unavail_requests += other.unavail_requests;
        self.backlog.mid += other.backlog.mid;
        self.backlog.end += other.backlog.end;
        self.backlog.second_half_arrivals += other.backlog.second_half_arrivals;
        self.unfinished_updates += other.unfinished_updates;
        self.counters.merge(&other.counters);
        self.violations.extend(other.violations);
        self.wall_s += other.wall_s;
        self.first_install_s += other.first_install_s;
        self.steps += other.steps;
    }

    /// A digest of the deterministic part, for the same-seed check.
    pub fn fingerprint(&self) -> String {
        format!(
            "{}|{}|{}|{}|{}|{}|{:?}|{:?}|{:?}|{}|{:?}|{}|{}|{:?}|{:?}|{}",
            self.requests,
            self.arrivals_digest,
            self.reads,
            self.unfinished,
            self.aborted_attempts,
            self.commits,
            self.commit_ms,
            self.lag_ms,
            self.staleness.clone().p99(),
            self.packets,
            self.unavail_ms,
            self.crashes,
            self.unavail_requests,
            self.backlog,
            self.counters,
            self.steps
        )
    }
}

/// The client state for one run.
struct Client<'a> {
    shape: &'a Shape,
    objects: Vec<Vec<ObjectId>>,
    rng: SimRng,
    open: OpenLoop,
    arrivals_left: u64,
    next: Option<Request>,
    requests: Vec<Request>,
    retries: BTreeSet<(SimTime, u32)>,
    retry_deadline: SimTime,
    log: Log,
    txn_req: BTreeMap<TxnId, u32>,
    aborted: Vec<TxnId>,
    commits: BTreeMap<TxnId, Commit>,
    installs: BTreeMap<TxnId, Vec<(NodeId, SimTime)>>,
    down_since: BTreeMap<NodeId, SimTime>,
    down_spans: Vec<(NodeId, SimTime, SimTime)>,
    out: RungResult,
    crash_at: Option<SimTime>,
    healed_at: Option<SimTime>,
}

impl<'a> Client<'a> {
    /// Pull the next arrival from the open loop (lazily, one at a time).
    fn pull(&mut self, tracer: &mut Tracer, root: Option<u32>) {
        if self.next.is_some() || self.arrivals_left == 0 {
            return;
        }
        let m = tracer.mark();
        let arrival = self.open.next_arrival(&mut self.rng);
        tracer.close("workloads.next_arrival", m, root);
        let Some(a) = arrival else {
            self.arrivals_left = 0;
            return;
        };
        self.arrivals_left -= 1;
        let s = self.shape;
        let (f, o) = workloads::place(a.user, s.fragments, workloads::OBJECTS_PER_FRAGMENT);
        let obj = self.objects[f as usize][o as usize];
        let op = if self.rng.chance(s.read_share) {
            Op::Read
        } else if s.uses_read_locks(f) {
            let g = s.foreign_of(f);
            Op::Update {
                foreign: Some(self.objects[g as usize][o as usize]),
            }
        } else {
            Op::Update { foreign: None }
        };
        if matches!(op, Op::Read) {
            self.out.reads += 1;
        }
        self.next = Some(Request {
            due: a.at,
            frag: f,
            obj,
            op,
            done_at: None,
        });
    }

    /// The next submission the client owes the system: a fresh arrival or
    /// a retry, whichever falls due first.
    fn next_due(&self) -> Option<SimTime> {
        let fresh = self.next.as_ref().map(|r| r.due);
        let retry = self.retries.first().map(|(t, _)| *t);
        match (fresh, retry) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        }
    }

    /// Submit whichever request is due next, at time `at`.
    fn submit(&mut self, sys: &mut System, at: SimTime, tracer: &mut Tracer, root: Option<u32>) {
        let retry = self.retries.first().copied().filter(|(t, _)| *t == at);
        let req = match retry {
            Some(key) => {
                self.retries.remove(&key);
                key.1
            }
            None => {
                let r = self.next.take().expect("a due request");
                self.out.arrivals_digest =
                    (self.out.arrivals_digest ^ r.due.micros()).wrapping_mul(0x0000_0100_0000_01b3);
                self.requests.push(r);
                self.out.requests += 1;
                (self.requests.len() - 1) as u32
            }
        };
        let r = self.requests[req as usize].clone();
        let ticket = Ticket {
            req,
            log: self.log.clone(),
            ran: false,
        };
        let frag = FragmentId(r.frag);
        let obj = r.obj;
        let sub = match r.op {
            Op::Read => {
                let home = sys.tokens().home(frag);
                let others: Vec<NodeId> = self
                    .shape
                    .replicas(r.frag)
                    .into_iter()
                    .filter(|&n| n != home)
                    .collect();
                let node = *self.rng.pick(&others);
                Submission::read_only(
                    frag,
                    Box::new(move |ctx| {
                        let mut t = ticket;
                        t.ran = true;
                        let v = ctx.read_int(obj, 0);
                        let txn = ctx.txn();
                        t.log.borrow_mut().push(Exec::Ran {
                            req: t.req,
                            txn,
                            read: Some(v),
                        });
                        Ok(())
                    }),
                )
                .at(node)
            }
            Op::Update { foreign } => {
                let program: fragdb_core::UpdateFn = Box::new(move |ctx| {
                    let mut t = ticket;
                    t.ran = true;
                    if let Some(g) = foreign {
                        ctx.read_int(g, 0);
                    }
                    let v = ctx.read_int(obj, 0);
                    ctx.write(obj, v + 1)?;
                    let txn = ctx.txn();
                    t.log.borrow_mut().push(Exec::Ran {
                        req: t.req,
                        txn,
                        read: None,
                    });
                    Ok(())
                });
                match foreign {
                    Some(g) => Submission::update_reading(frag, vec![g], program),
                    None => Submission::update(frag, program),
                }
            }
        };
        let m = tracer.mark();
        sys.submit_at(at, sub);
        tracer.close("core.submit", m, root);
    }

    fn schedule_retry(&mut self, now: SimTime, req: u32) {
        self.out.aborted_attempts += 1;
        let mean = RETRY_BACKOFF.micros();
        let at = now + SimDuration(mean / 2 + self.rng.gen_range(0..=mean));
        if at <= self.retry_deadline && self.requests[req as usize].done_at.is_none() {
            self.retries.insert((at, req));
        }
    }

    /// Absorb what the programs run in the last step logged.
    fn drain_log(&mut self, now: SimTime) {
        let entries = std::mem::take(&mut *self.log.borrow_mut());
        for e in entries {
            match e {
                Exec::Ran { req, txn, read } => {
                    self.txn_req.insert(txn, req);
                    if let Some(v) = read {
                        let obj = self.requests[req as usize].obj;
                        self.out.staleness.on_read(obj.0, v);
                    }
                }
                Exec::Dropped(req) => self.schedule_retry(now, req),
            }
        }
    }

    fn on_notes(&mut self, now: SimTime, notes: Vec<Notification>) {
        for note in notes {
            match note {
                Notification::Committed { txn, node, at, .. } => {
                    let Some(&req) = self.txn_req.get(&txn) else {
                        self.out
                            .violations
                            .push(format!("commit of {txn:?} that no request ran"));
                        continue;
                    };
                    let r = &mut self.requests[req as usize];
                    if r.done_at.is_some() {
                        self.out
                            .violations
                            .push(format!("request {req} committed twice"));
                        continue;
                    }
                    r.done_at = Some(at);
                    let ms = at.since(r.due).micros() as f64 / 1000.0;
                    let (frag, obj) = (r.frag, r.obj);
                    self.out.commit_ms.push(ms);
                    if self.shape.uses_read_locks(frag) {
                        self.out.lock_commit_ms.push(ms);
                    }
                    self.out.commits += 1;
                    self.out.staleness.on_commit(obj.0);
                    self.commits.insert(txn, Commit { at, frag, node });
                    if frag == 0 && self.healed_at.is_none() {
                        self.healed_at = self.crash_at.filter(|&c| at >= c).map(|_| at);
                    }
                }
                Notification::ReadFinished { txn, .. } => {
                    if let Some(&req) = self.txn_req.get(&txn) {
                        let r = &mut self.requests[req as usize];
                        if r.done_at.is_none() {
                            r.done_at = Some(now);
                        }
                    } else {
                        self.out
                            .violations
                            .push(format!("read {txn:?} that no request ran"));
                    }
                }
                Notification::Aborted { txn, .. } => {
                    // Aborts before execution were logged as drops; here
                    // only programs that ran and then lost.
                    if let Some(&req) = self.txn_req.get(&txn) {
                        self.aborted.push(txn);
                        self.schedule_retry(now, req);
                    }
                }
                Notification::Installed { node, quasi, at } => {
                    self.installs.entry(quasi.txn).or_default().push((node, at));
                }
                Notification::Crashed { node, at } => {
                    self.down_since.insert(node, at);
                }
                Notification::Recovered { node, at } => {
                    if let Some(from) = self.down_since.remove(&node) {
                        self.down_spans.push((node, from, at));
                    }
                }
                _ => {}
            }
        }
    }

    fn was_down(&self, node: NodeId, at: SimTime) -> bool {
        self.down_spans
            .iter()
            .any(|&(n, from, to)| n == node && from <= at && at < to)
            || self.down_since.get(&node).is_some_and(|&from| from <= at)
    }
}

/// One run of `shape` at offered `rate`: set up, drive to quiescence,
/// verify. `tracer` records a root span for the drive and one span per
/// layer call inside it; `prober` times the host now and then, off the
/// run's clock.
pub fn run_rung(
    shape: &Shape,
    rate: f64,
    seed: u64,
    tracer: &mut Tracer,
    prober: &mut Prober,
) -> RungResult {
    let setup_mark = tracer.mark();
    let built = workloads::build(shape, seed);
    tracer.close("setup", setup_mark, None);
    let mut sys = built.sys;

    let sw = Stopwatch::start();
    let root = tracer.open("run", None);
    let window_end = SimTime::ZERO + shape.window;
    let limit = window_end + shape.drain;
    let mut rng = SimRng::new(seed ^ 0x5ca1_ab1e ^ rate.to_bits());
    let open = OpenLoop::new(
        OpenLoopConfig {
            users: workloads::USERS,
            theta: workloads::THETA,
            rate_per_sec: rate,
            start: SimTime::ZERO,
            horizon: window_end,
        },
        &mut rng,
    );
    let crash_at = shape.crashed_node().map(|node| {
        let third = shape.window.micros() / 3;
        let crash = SimTime::ZERO + SimDuration(third);
        sys.crash_at(crash, node);
        sys.recover_at(SimTime::ZERO + SimDuration(2 * third), node);
        crash
    });
    let mut c = Client {
        shape,
        objects: built.objects,
        rng,
        open,
        arrivals_left: shape.max_arrivals.unwrap_or(u64::MAX),
        next: None,
        requests: Vec::new(),
        retries: BTreeSet::new(),
        retry_deadline: window_end + SimDuration(shape.drain.micros() / 2),
        log: Rc::new(RefCell::new(Vec::new())),
        txn_req: BTreeMap::new(),
        aborted: Vec::new(),
        commits: BTreeMap::new(),
        installs: BTreeMap::new(),
        down_since: BTreeMap::new(),
        down_spans: Vec::new(),
        out: RungResult {
            rate,
            arrivals_digest: 0xcbf2_9ce4_8422_2325,
            crashes: u64::from(crash_at.is_some()),
            ..RungResult::default()
        },
        crash_at,
        healed_at: None,
    };
    let mut queue_peak = 0u64;
    let mut probing_s = 0.0;
    // (node, fragment) pairs that have installed something, traced runs only.
    let mut installed_once = vec![false; (shape.nodes * shape.fragments) as usize];
    loop {
        // Handle every event strictly before the next submission falls
        // due, then submit it; events already queued for that same instant
        // still run first, as the engine orders ties by scheduling order.
        c.pull(tracer, root);
        let due = c.next_due();
        let until = due.map_or(limit, |d| {
            SimTime::ZERO + SimDuration(d.micros().saturating_sub(1))
        });
        let m = tracer.mark();
        let Some((now, notes)) = sys.step_until(until.min(limit)) else {
            match due {
                Some(d) if d <= limit => {
                    c.submit(&mut sys, d, tracer, root);
                    continue;
                }
                _ => break,
            }
        };
        c.out.steps += 1;
        if c.out.steps.is_multiple_of(1024) {
            probing_s += prober.tick();
        }
        if tracer.enabled() {
            let class = if notes.iter().any(|n| {
                matches!(
                    n,
                    Notification::Committed { .. }
                        | Notification::Aborted { .. }
                        | Notification::ReadFinished { .. }
                )
            }) {
                "core.step.txn"
            } else if notes.is_empty() {
                "core.step.quiet"
            } else {
                "core.step.install"
            };
            let span = tracer.close(class, m, root);
            let mut first = false;
            for n in &notes {
                if let Notification::Installed { node, quasi, .. } = n {
                    let slot = (node.0 * shape.fragments + quasi.fragment.0) as usize;
                    first |= !std::mem::replace(&mut installed_once[slot], true);
                }
            }
            if let (true, "core.step.install", Some(i)) = (first, class, span) {
                let s = &tracer.spans()[i as usize];
                c.out.first_install_s += (s.end_ns - s.start_ns) as f64 * 1e-9;
            }
            queue_peak = queue_peak.max(sys.queued_submissions() as u64);
        }
        c.drain_log(now);
        c.on_notes(now, notes);
    }
    // Whatever the system still holds unrun is dropped with it at the end;
    // the requests stay open and count as unfinished.
    c.drain_log(sys.now());
    verify(&mut c, &sys, tracer, root);
    c.out.counters.max("core.queue_peak", queue_peak);
    collect_counters(&mut c.out.counters, &sys, shape);
    tracer.finish(root);
    c.out.wall_s = sw.secs() - probing_s;
    drop(sys);
    c.out
}

/// The end-of-run correctness gate and the virtual-time summaries.
fn verify(c: &mut Client<'_>, sys: &System, tracer: &mut Tracer, root: Option<u32>) {
    let shape = c.shape;
    let window_end = SimTime::ZERO + shape.window;

    let m = tracer.mark();
    let divergent = sys.divergent_fragments();
    tracer.close("storage.digest", m, root);
    if !divergent.is_empty() {
        c.out
            .violations
            .push(format!("divergent fragments at quiescence: {divergent:?}"));
    }

    let m = tracer.mark();
    let report = fragdb_graphs::fragmentwise::check(&sys.history);
    tracer.close("graphs.check", m, root);
    if !report.holds() {
        c.out
            .violations
            .push("history is not fragmentwise serializable".to_string());
    }

    if shape.telemetry() {
        let m = tracer.mark();
        let report = fragdb_obs::SpanReport::from_records(sys.engine.telemetry.events());
        tracer.close("obs.spans", m, root);
        c.out.counters.add("obs.spans", report.len() as u64);
        c.out.counters.add("obs.spans_truncated", report.truncated);
        if report.truncated > 0 {
            c.out
                .violations
                .push(format!("{} commit spans truncated", report.truncated));
        }
    }

    // An abort is final: no replica may install a transaction the client
    // was told had aborted (the client retries it, so it would apply twice).
    for txn in &c.aborted {
        if let Some(ins) = c.installs.get(txn) {
            c.out.violations.push(format!(
                "{txn:?} was reported aborted but installed at {} replicas",
                ins.len()
            ));
        }
    }

    if c.out.staleness.ahead > 0 {
        c.out.violations.push(format!(
            "{} reads saw more updates than had committed",
            c.out.staleness.ahead
        ));
    }

    // Every committed update reached every live replica of its fragment;
    // lag counts only replicas that were up when the update committed.
    let n = shape.nodes as usize;
    let mut seen = vec![false; n];
    for (txn, commit) in &c.commits {
        seen.iter_mut().for_each(|s| *s = false);
        for &(node, at) in c.installs.get(txn).map(Vec::as_slice).unwrap_or(&[]) {
            seen[node.0 as usize] = true;
            if node != commit.node && !c.was_down(node, commit.at) {
                c.out
                    .lag_ms
                    .push(at.since(commit.at).micros() as f64 / 1000.0);
            }
        }
        for r in shape.replicas(commit.frag) {
            if r != commit.node && !sys.is_down(r) && !seen[r.0 as usize] {
                c.out.violations.push(format!(
                    "{txn:?} committed at {:?} never installed at live replica {r:?}",
                    commit.node
                ));
                break;
            }
        }
    }

    for r in &c.requests {
        if r.done_at.is_none() {
            c.out.unfinished += 1;
            if matches!(r.op, Op::Update { .. }) {
                c.out.unfinished_updates += 1;
            }
        }
    }

    let mid = SimTime::ZERO + SimDuration(shape.window.micros() / 2);
    let open_at = |t: SimTime| {
        c.requests
            .iter()
            .filter(|r| r.due <= t && r.done_at.is_none_or(|d| d > t))
            .count() as u64
    };
    c.out.backlog = Backlog {
        mid: open_at(mid),
        end: open_at(window_end),
        second_half_arrivals: c
            .requests
            .iter()
            .filter(|r| r.due > mid && r.due <= window_end)
            .count() as u64,
    };

    if let Some(crash) = c.crash_at {
        if let Some(healed) = c.healed_at {
            c.out
                .unavail_ms
                .push(healed.since(crash).micros() as f64 / 1000.0);
        }
        let healed = c.healed_at;
        c.out.unavail_requests = c
            .requests
            .iter()
            .filter(|r| r.frag == 0 && r.due >= crash && healed.is_none_or(|h| r.due < h))
            .count() as u64;
    }

    let net = sys.net_stats();
    c.out.packets = net.transmissions + net.acks_sent;
}

/// Read every layer's work counters through the public accessors.
fn collect_counters(k: &mut Counters, sys: &System, shape: &Shape) {
    let net = sys.net_stats();
    k.add("net.sent", net.sent);
    k.add("net.delivered", net.delivered);
    k.add("net.transmissions", net.transmissions);
    k.add("net.retransmissions", net.retransmissions);
    k.add("net.acks_sent", net.acks_sent);
    k.add("net.acks_piggybacked", net.acks_piggybacked);
    k.add("net.dup_dropped", net.dup_dropped);
    k.add("net.fault_dropped", net.fault_dropped);
    k.add("net.unreachable", net.unreachable);
    let metrics = &sys.engine.metrics;
    for (name, key) in [
        ("net.install_heldback", keys::INSTALL_HELDBACK),
        ("net.install_duplicate", keys::INSTALL_DUPLICATE),
        ("net.detector_heartbeats", keys::DETECTOR_HEARTBEATS),
        ("net.election_rounds", keys::ELECTION_ROUNDS),
        ("core.txn.committed", keys::TXN_COMMITTED),
        ("core.txn.aborted", keys::TXN_ABORTED),
        ("core.abort.unavailable", keys::ABORT_UNAVAILABLE),
        ("sim.events", keys::SIM_EVENTS),
    ] {
        k.add(name, metrics.counter(key));
    }
    k.max("sim.peak_pending", sys.engine.peak_queue_depth() as u64);
    k.add("sim.pool_reuse", sys.engine.pool_reuse());
    let wal: usize = (0..shape.nodes)
        .map(|n| sys.replica(NodeId(n)).wal().len())
        .sum();
    k.add("storage.wal_records", wal as u64);
    k.add("graphs.history_ops", sys.history.len() as u64);
    let telemetry = &sys.engine.telemetry;
    k.add("obs.telemetry_records", telemetry.len() as u64);
    k.add("obs.telemetry_dropped", telemetry.dropped());
}
