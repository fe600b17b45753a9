//! Per-request latency samples and exact percentile reduction.
//!
//! The fleet benches need tail latencies (p50/p99/p999), not totals, and
//! they need them *per service and per tenant*. The world therefore
//! records one [`LatencySample`] per charged request — issue instant,
//! completion instant, the `Op`, and the tenant id that was current when
//! the request was issued — in issue order. [`percentiles`]
//! reduces a batch of latencies exactly (nearest-rank over the sorted
//! samples), so a p999 is a real observed request, never an interpolated
//! fiction.
//!
//! Sampling is off by default and costs nothing when disabled; see
//! [`SimWorld::enable_latency_samples`](crate::SimWorld::enable_latency_samples).

use crate::clock::{SimDuration, SimInstant};
use crate::metering::{Op, Service};

/// One charged request: when it was issued, when it completed, what it
/// was, and which tenant issued it.
///
/// In pipelined mode `issued_at` is the instant the request entered the
/// wire (after any backpressure stall) and `completed_at` the instant it
/// completes, which may lie past the clock until the region drains; in
/// serial mode the two bracket the latency charge directly.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct LatencySample {
    /// The operation that was charged.
    pub op: Op,
    /// Tenant current at issue time (see [`crate::SimWorld::set_tenant`]).
    pub tenant: u64,
    /// Instant the request was issued.
    pub issued_at: SimInstant,
    /// Instant the request completed.
    pub completed_at: SimInstant,
}

impl LatencySample {
    /// The service the sampled operation belongs to.
    pub fn service(&self) -> Service {
        self.op.service()
    }

    /// Issue-to-completion latency.
    pub fn latency(&self) -> SimDuration {
        self.completed_at.saturating_since(self.issued_at)
    }
}

/// Exact percentiles over a set of latencies.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Percentiles {
    /// Number of samples reduced.
    pub count: usize,
    /// Median (nearest-rank).
    pub p50: SimDuration,
    /// 99th percentile (nearest-rank).
    pub p99: SimDuration,
    /// 99.9th percentile (nearest-rank).
    pub p999: SimDuration,
    /// Largest observed latency.
    pub max: SimDuration,
}

/// Reduces latencies to exact nearest-rank percentiles.
///
/// Returns `None` for an empty input. Every reported value is an actual
/// observed sample (rank `⌈q·n⌉`, 1-based), so percentiles are exact and
/// monotone: `p50 ≤ p99 ≤ p999 ≤ max` always holds.
///
/// # Examples
///
/// ```
/// use simworld::{percentiles, SimDuration};
///
/// let lat: Vec<SimDuration> = (1..=1000).map(SimDuration::from_micros).collect();
/// let p = percentiles(lat).unwrap();
/// assert_eq!(p.p50.as_micros(), 500);
/// assert_eq!(p.p99.as_micros(), 990);
/// assert_eq!(p.p999.as_micros(), 999);
/// assert_eq!(p.max.as_micros(), 1000);
/// ```
pub fn percentiles(mut latencies: Vec<SimDuration>) -> Option<Percentiles> {
    if latencies.is_empty() {
        return None;
    }
    latencies.sort_unstable();
    let n = latencies.len();
    let rank = |q: f64| {
        let r = (q * n as f64).ceil() as usize;
        latencies[r.clamp(1, n) - 1]
    };
    Some(Percentiles {
        count: n,
        p50: rank(0.50),
        p99: rank(0.99),
        p999: rank(0.999),
        max: latencies[n - 1],
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SimWorld;

    #[test]
    fn backdating_stretches_only_the_last_sample_and_never_forward() {
        let at = SimInstant::from_micros;
        let w = SimWorld::counting();
        w.advance(SimDuration::from_micros(100));
        w.backdate_last_sample(SimInstant::EPOCH); // sampling off: no-op
        w.enable_latency_samples();
        w.backdate_last_sample(SimInstant::EPOCH); // empty log: no-op
        assert!(w.take_latency_samples().is_empty());
        w.record_op(Op::S3Put, 0, 0);
        w.advance(SimDuration::from_micros(100));
        w.record_op(Op::S3Put, 0, 0);
        w.backdate_last_sample(at(150));
        w.backdate_last_sample(at(400)); // forward: ignored
        let kept = w.take_latency_samples();
        assert_eq!(kept.len(), 2);
        assert_eq!(kept[0].issued_at, at(100));
        assert_eq!(kept[1].issued_at, at(150));
        assert_eq!(kept[1].completed_at, at(200));
    }

    #[test]
    fn percentiles_of_single_sample_collapse() {
        let p = percentiles(vec![SimDuration::from_micros(42)]).unwrap();
        assert_eq!(p.count, 1);
        assert_eq!(p.p50, p.p999);
        assert_eq!(p.max.as_micros(), 42);
    }

    #[test]
    fn percentiles_are_monotone_and_exact() {
        // Unsorted input, heavy tail: 499 sub-97µs samples + 1 outlier.
        let mut lat: Vec<SimDuration> =
            (0..499).map(|i| SimDuration::from_micros(i % 97)).collect();
        lat.push(SimDuration::from_secs(1));
        let p = percentiles(lat).unwrap();
        assert!(p.p50 <= p.p99 && p.p99 <= p.p999 && p.p999 <= p.max);
        assert_eq!(p.max, SimDuration::from_secs(1));
        // One outlier in 500: past p99's rank, exactly p999's.
        assert!(p.p99.as_micros() < 97);
        assert_eq!(p.p999, SimDuration::from_secs(1));
    }

    #[test]
    fn empty_input_reduces_to_none() {
        assert!(percentiles(Vec::new()).is_none());
    }

    #[test]
    fn latency_saturates_rather_than_underflowing() {
        let s = LatencySample {
            op: Op::SqsSendMessage,
            tenant: 0,
            issued_at: SimInstant::from_micros(10),
            completed_at: SimInstant::from_micros(4),
        };
        assert_eq!(s.latency(), SimDuration::ZERO);
        assert_eq!(s.service(), Service::Sqs);
    }
}
