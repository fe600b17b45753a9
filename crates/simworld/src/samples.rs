//! Per-request latency samples.
//!
//! The world records one [`LatencySample`] per charged request — issue
//! instant, completion instant and the `Op` — in issue order.
//!
//! Sampling is off by default and costs nothing when disabled; see
//! [`SimWorld::enable_latency_samples`](crate::SimWorld::enable_latency_samples).

use crate::clock::{SimDuration, SimInstant};
use crate::metering::{Op, Service};

/// One charged request: when it was issued, when it completed and what
/// it was.
///
/// In pipelined mode `issued_at` is the instant the request entered the
/// wire (after any backpressure stall) and `completed_at` the instant it
/// completes, which may lie past the clock until the region drains; in
/// serial mode the two bracket the latency charge directly.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct LatencySample {
    /// The operation that was charged.
    pub op: Op,
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn latency_saturates_rather_than_underflowing() {
        let s = LatencySample {
            op: Op::SqsSendMessage,
            issued_at: SimInstant::from_micros(10),
            completed_at: SimInstant::from_micros(4),
        };
        assert_eq!(s.latency(), SimDuration::ZERO);
        assert_eq!(s.service(), Service::Sqs);
    }
}
