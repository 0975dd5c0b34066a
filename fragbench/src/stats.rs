//! Metric arithmetic: percentiles with their sample counts, the
//! sustained-throughput ladder rule, and read-staleness bookkeeping.
//!
//! Everything here is pure so it can be unit-tested on synthetic input.

use std::collections::BTreeMap;

/// A percentile read off a sample set, with the number of samples it was
/// read from (a p99 over fewer than 1000 samples has fewer than ten
/// samples beyond it and says little).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Pct {
    /// The sample at the requested nearest rank; `f64::INFINITY` when the
    /// rank falls on a request that never completed.
    pub value: f64,
    /// Samples the percentile was read from, missing ones included.
    pub n: usize,
}

/// Nearest-rank percentile: the smallest sample with at least `q` percent
/// of all samples at or below it. `missing` samples (failed or unfinished
/// requests) rank above every finite sample, so they miss any limit.
/// Returns `None` when there are no samples at all.
pub fn percentile(sorted: &[f64], missing: usize, q: f64) -> Option<Pct> {
    let n = sorted.len() + missing;
    if n == 0 {
        return None;
    }
    debug_assert!(
        sorted.windows(2).all(|w| w[0] <= w[1]),
        "input must be sorted"
    );
    let rank = ((q / 100.0) * n as f64).ceil().max(1.0) as usize;
    let value = sorted.get(rank - 1).copied().unwrap_or(f64::INFINITY);
    Some(Pct { value, n })
}

/// Sort samples in place and read the median and p99 off them.
pub fn p50_p99(samples: &mut [f64], missing: usize) -> Option<(Pct, Pct)> {
    samples.sort_by(f64::total_cmp);
    Some((
        percentile(samples, missing, 50.0)?,
        percentile(samples, missing, 99.0)?,
    ))
}

/// Median of wall-clock samples (upper median for even counts).
pub fn median(samples: &[f64]) -> f64 {
    assert!(!samples.is_empty(), "median of nothing");
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    v[v.len() / 2]
}

/// Requests that were due but not complete at two instants of a rung's
/// arrival window. The backlog grows when the second half of the window
/// left more than `GROWTH_SHARE` of its own arrivals behind.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Backlog {
    /// Outstanding requests at the window's midpoint.
    pub mid: u64,
    /// Outstanding requests when arrivals stop.
    pub end: u64,
    /// Arrivals between the midpoint and the end of the window.
    pub second_half_arrivals: u64,
}

/// Share of the second half's arrivals that may pile up before the
/// backlog counts as growing (Poisson bursts stay well below it; an
/// overloaded queue accumulates `(λ−μ)/λ` of them).
pub const GROWTH_SHARE: f64 = 0.05;

impl Backlog {
    /// Does the outstanding-request count trend upward?
    pub fn growing(&self) -> bool {
        let grew = self.end.saturating_sub(self.mid) as f64;
        grew > GROWTH_SHARE * self.second_half_arrivals as f64
    }
}

/// What one ladder rung observed.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Rung {
    /// Offered rate, requests per simulated second.
    pub rate: f64,
    /// Due → completion p99 over every request of the rung; failed and
    /// unfinished requests rank as missing (infinite).
    pub p99_ms: f64,
    /// Outstanding-request trend over the arrival window.
    pub backlog: Backlog,
}

/// The sustained-throughput rule: the highest offered rate whose p99 is
/// within `limit_ms` and whose backlog does not grow. Rungs are judged
/// independently, so a noisy rung above the knee cannot lift the answer
/// past a failing rung below it: the scan stops at the first failure.
/// Returns `None` when even the lowest rung fails.
pub fn sustained(rungs: &[Rung], limit_ms: f64) -> Option<f64> {
    let mut best = None;
    for r in rungs {
        if r.p99_ms <= limit_ms && !r.backlog.growing() {
            best = Some(r.rate);
        } else {
            break;
        }
    }
    best
}

/// Read-staleness bookkeeping: how many committed updates each object has
/// had, and how far behind that count each read's value was.
///
/// Every update in the benchmark increments its object by one, so the
/// value a read returns is the number of updates the reading replica has
/// installed; the gap to the committed count is the staleness.
#[derive(Clone, Debug, Default)]
pub struct Staleness {
    committed: BTreeMap<u64, i64>,
    samples: Vec<f64>,
    /// Reads that returned more than had committed — impossible for a
    /// correct system, so the correctness gate rejects any.
    pub ahead: u64,
}

impl Staleness {
    /// An update to `object` committed.
    pub fn on_commit(&mut self, object: u64) {
        *self.committed.entry(object).or_insert(0) += 1;
    }

    /// A read of `object` returned `value`.
    pub fn on_read(&mut self, object: u64, value: i64) {
        let committed = self.committed.get(&object).copied().unwrap_or(0);
        if value > committed {
            self.ahead += 1;
        }
        self.samples.push((committed - value).max(0) as f64);
    }

    /// Pool another run's read samples (its objects are its own).
    pub fn absorb(&mut self, other: Staleness) {
        self.samples.extend(other.samples);
        self.ahead += other.ahead;
    }

    /// p99 staleness in updates, with its sample count.
    pub fn p99(&mut self) -> Option<Pct> {
        self.samples.sort_by(f64::total_cmp);
        percentile(&self.samples, 0, 99.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentile_and_count() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        let p50 = percentile(&v, 0, 50.0).unwrap();
        assert_eq!(
            p50,
            Pct {
                value: 50.0,
                n: 100
            }
        );
        assert_eq!(percentile(&v, 0, 99.0).unwrap().value, 99.0);
        assert_eq!(percentile(&v, 0, 100.0).unwrap().value, 100.0);
        assert_eq!(
            percentile(&[7.0], 0, 99.0).unwrap(),
            Pct { value: 7.0, n: 1 }
        );
        assert_eq!(percentile(&[], 0, 50.0), None);
    }

    #[test]
    fn missing_samples_rank_above_every_finite_one() {
        let v: Vec<f64> = (1..=98).map(f64::from).collect();
        // 98 finished + 2 missing: p99 lands on a missing request.
        let p = percentile(&v, 2, 99.0).unwrap();
        assert_eq!(p.n, 100);
        assert!(p.value.is_infinite());
        // The median still reads a finished one.
        assert_eq!(percentile(&v, 2, 50.0).unwrap().value, 50.0);
        // Only missing samples: every rank is infinite.
        assert!(percentile(&[], 3, 50.0).unwrap().value.is_infinite());
    }

    #[test]
    fn median_picks_the_middle() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 3.0);
    }

    fn rung(rate: f64, p99_ms: f64, mid: u64, end: u64) -> Rung {
        Rung {
            rate,
            p99_ms,
            backlog: Backlog {
                mid,
                end,
                second_half_arrivals: 1000,
            },
        }
    }

    #[test]
    fn backlog_growth_threshold() {
        let steady = Backlog {
            mid: 40,
            end: 60,
            second_half_arrivals: 1000,
        };
        assert!(!steady.growing(), "20 of 1000 is noise");
        let growing = Backlog {
            mid: 40,
            end: 200,
            second_half_arrivals: 1000,
        };
        assert!(growing.growing());
        let shrinking = Backlog {
            mid: 200,
            end: 10,
            second_half_arrivals: 1000,
        };
        assert!(!shrinking.growing());
    }

    #[test]
    fn ladder_takes_highest_rung_within_limit() {
        let rungs = [
            rung(100.0, 20.0, 5, 5),
            rung(200.0, 40.0, 9, 10),
            rung(400.0, 95.0, 20, 25),
            rung(800.0, 500.0, 50, 400),
        ];
        assert_eq!(sustained(&rungs, 100.0), Some(400.0));
    }

    #[test]
    fn ladder_rejects_growing_backlog_even_under_the_limit() {
        let rungs = [rung(100.0, 20.0, 5, 5), rung(200.0, 60.0, 10, 300)];
        assert_eq!(sustained(&rungs, 100.0), Some(100.0));
    }

    #[test]
    fn ladder_counts_failed_requests_as_missing_the_limit() {
        // A rung whose p99 rank falls on a failed request reads infinite.
        let mut lat: Vec<f64> = vec![10.0; 98];
        let (_, p99) = p50_p99(&mut lat, 2).unwrap();
        let rungs = [rung(100.0, 20.0, 5, 5), rung(200.0, p99.value, 5, 5)];
        assert_eq!(sustained(&rungs, 100.0), Some(100.0));
    }

    #[test]
    fn ladder_stops_at_first_failing_rung() {
        let rungs = [
            rung(100.0, 20.0, 5, 5),
            rung(200.0, 150.0, 5, 5),
            rung(400.0, 90.0, 5, 5),
        ];
        assert_eq!(sustained(&rungs, 100.0), Some(100.0));
        assert_eq!(sustained(&[rung(100.0, 150.0, 5, 5)], 100.0), None);
    }

    #[test]
    fn staleness_on_a_synthetic_stream() {
        let mut s = Staleness::default();
        // Three commits to object 1, one to object 2.
        s.on_commit(1);
        s.on_commit(1);
        s.on_read(1, 2); // current: 0 behind
        s.on_commit(1);
        s.on_read(1, 1); // two behind
        s.on_commit(2);
        s.on_read(2, 0); // one behind
        s.on_read(3, 0); // never written: current
        assert_eq!(s.ahead, 0);
        let p = s.p99().unwrap();
        assert_eq!(p, Pct { value: 2.0, n: 4 });
        // A read past the committed count is flagged, not hidden.
        s.on_read(2, 5);
        assert_eq!(s.ahead, 1);
    }
}
