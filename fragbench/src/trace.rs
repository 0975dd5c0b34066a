//! Wall-clock timing and the benchmark's own spans.
//!
//! The simulator itself is deterministic and never reads the host clock;
//! this module is the only place the benchmark does. A [`Tracer`] that is
//! off records nothing and never reads the clock, so untraced runs pay a
//! single branch per call site.
//!
//! Spans wrap each call the runner makes into a layer of the program:
//! name, start, end and parent. A layer's self time is its spans' time
//! minus what their child spans cover; the root span's self time is the
//! runner's own bookkeeping, reported as the unattributed share.
#![allow(clippy::disallowed_methods)] // measuring wall time is the point

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::hint::black_box;
use std::time::Instant;

/// A started wall-clock measurement.
pub struct Stopwatch(Instant);

impl Stopwatch {
    /// Start measuring now.
    pub fn start() -> Self {
        Stopwatch(Instant::now())
    }

    /// Seconds since the start.
    pub fn secs(&self) -> f64 {
        self.0.elapsed().as_secs_f64()
    }
}

/// Seconds [`host_probe`] takes on an unloaded host of the machine the
/// benchmark was written on (2 cores, 2.1 GHz); calibrated times are
/// expressed against it.
pub const PROBE_REF_S: f64 = 0.025;

/// Time a fixed, memory-latency-bound loop: random inserts into and
/// lookups in a 100k-entry B-tree, the kind of work the simulator's hot
/// paths do. On a shared host, neighbours contending for caches and memory
/// slow this loop and the simulator alike (a pure arithmetic loop barely
/// slows), so a pass's time divided by this probe's is steadier than the
/// pass's time alone.
pub fn host_probe() -> f64 {
    let sw = Stopwatch::start();
    let mut x: u64 = 0x9e37_79b9_7f4a_7c15;
    let mut next = || {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x % 1_000_000
    };
    let mut tree = BTreeMap::new();
    for i in 0..100_000u64 {
        tree.insert(next(), i);
    }
    let mut sum = 0u64;
    for _ in 0..100_000 {
        let key = next();
        sum = sum.wrapping_add(tree.range(key..).next().map_or(0, |(_, v)| *v));
    }
    black_box(sum);
    sw.secs()
}

/// Wall seconds between host probes while a pass drives the system.
pub const PROBE_EVERY_S: f64 = 0.5;

/// Host probes through a pass: one at the start, one every
/// [`PROBE_EVERY_S`] while the pass drives the system, one at the end, so
/// the calibration follows the host's load through the pass rather than
/// at its edges only.
pub struct Prober {
    on: bool,
    since: Stopwatch,
    /// Seconds of each probe taken so far.
    pub probes_s: Vec<f64>,
}

impl Prober {
    /// A prober that has taken its first probe; `on = false` never probes
    /// again (traced passes, whose spans should not hold probes).
    pub fn start(on: bool) -> Self {
        Prober {
            on,
            probes_s: vec![host_probe()],
            since: Stopwatch::start(),
        }
    }

    /// Probe if one is due; returns the seconds spent probing (0 if none).
    pub fn tick(&mut self) -> f64 {
        if !self.on || self.since.secs() < PROBE_EVERY_S {
            return 0.0;
        }
        let p = host_probe();
        self.probes_s.push(p);
        self.since = Stopwatch::start();
        p
    }

    /// Take the last probe; returns every probe's seconds.
    pub fn finish(mut self) -> Vec<f64> {
        self.probes_s.push(host_probe());
        self.probes_s
    }
}

/// One recorded span.
#[derive(Clone, Debug)]
pub struct Span {
    /// `<layer>.<call>` name, e.g. `core.step.install`.
    pub name: &'static str,
    /// Start, nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// End, nanoseconds since the tracer was created.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<u32>,
}

/// An opaque span start; `None` when tracing is off.
#[derive(Clone, Copy)]
pub struct Mark(Option<u64>);

/// In-memory span recorder.
pub struct Tracer {
    origin: Option<Instant>,
    spans: Vec<Span>,
}

impl Tracer {
    /// A tracer that records nothing.
    pub fn off() -> Self {
        Tracer {
            origin: None,
            spans: Vec::new(),
        }
    }

    /// A recording tracer.
    pub fn on() -> Self {
        Tracer {
            origin: Some(Instant::now()),
            spans: Vec::new(),
        }
    }

    /// Is this tracer recording?
    pub fn enabled(&self) -> bool {
        self.origin.is_some()
    }

    fn now_ns(&self) -> Option<u64> {
        self.origin.map(|o| o.elapsed().as_nanos() as u64)
    }

    /// Mark the start of a span.
    #[inline]
    pub fn mark(&self) -> Mark {
        Mark(self.now_ns())
    }

    /// Close a span started at `mark`, named after the fact (the runner
    /// classifies a step by what it returned). Returns its index.
    #[inline]
    pub fn close(&mut self, name: &'static str, mark: Mark, parent: Option<u32>) -> Option<u32> {
        let start_ns = mark.0?;
        let end_ns = self.now_ns()?;
        self.spans.push(Span {
            name,
            start_ns,
            end_ns,
            parent,
        });
        Some(self.spans.len() as u32 - 1)
    }

    /// Open a span that will have children; finish it with [`Tracer::finish`].
    pub fn open(&mut self, name: &'static str, parent: Option<u32>) -> Option<u32> {
        let start_ns = self.now_ns()?;
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
        });
        Some(self.spans.len() as u32 - 1)
    }

    /// Set the end of an opened span to now.
    pub fn finish(&mut self, id: Option<u32>) {
        if let (Some(id), Some(now)) = (id, self.now_ns()) {
            self.spans[id as usize].end_ns = now;
        }
    }

    /// Every recorded span, in recording order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Total seconds spent in spans called `name`.
    pub fn total_secs(&self, name: &str) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .fold(0.0, |t, s| t + (s.end_ns - s.start_ns) as f64 * 1e-9)
    }

    /// Self time per span name: duration minus the time covered by its
    /// direct children, summed over every span of that name.
    pub fn self_times(&self) -> BTreeMap<&'static str, f64> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p as usize] += s.end_ns - s.start_ns;
            }
        }
        let mut out = BTreeMap::new();
        for (s, covered) in self.spans.iter().zip(child_ns) {
            let own = (s.end_ns - s.start_ns).saturating_sub(covered);
            *out.entry(s.name).or_insert(0.0) += own as f64 * 1e-9;
        }
        out
    }

    /// The spans as JSON lines, one object per span.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent}}}",
                s.name, s.start_ns, s.end_ns
            );
        }
        out
    }
}

/// Per-layer self time, summed over span names that share the text
/// before their first dot; the root span's own time is the runner's.
pub fn layer_self_times(self_times: &BTreeMap<&'static str, f64>) -> BTreeMap<String, f64> {
    let mut out = BTreeMap::new();
    for (name, secs) in self_times {
        let layer = name.split('.').next().unwrap_or(name).to_string();
        *out.entry(layer).or_insert(0.0) += secs;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn off_tracer_records_nothing() {
        let mut t = Tracer::off();
        let root = t.open("run", None);
        let m = t.mark();
        assert!(t.close("core.step.quiet", m, root).is_none());
        t.finish(root);
        assert!(t.spans().is_empty());
        assert!(!t.enabled());
    }

    #[test]
    fn self_time_subtracts_children() {
        let mut t = Tracer::on();
        t.spans = vec![
            Span {
                name: "run",
                start_ns: 0,
                end_ns: 100,
                parent: None,
            },
            Span {
                name: "core.step.txn",
                start_ns: 10,
                end_ns: 40,
                parent: Some(0),
            },
            Span {
                name: "core.step.install",
                start_ns: 50,
                end_ns: 90,
                parent: Some(0),
            },
        ];
        let st = t.self_times();
        assert!((st["run"] - 30e-9).abs() < 1e-15);
        assert!((st["core.step.txn"] - 30e-9).abs() < 1e-15);
        let layers = layer_self_times(&st);
        assert!((layers["core"] - 70e-9).abs() < 1e-15);
        assert_eq!(t.to_jsonl().lines().count(), 3);
    }
}
