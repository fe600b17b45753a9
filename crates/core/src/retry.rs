//! Read retry policy.
//!
//! Under eventual consistency a read may observe stale or missing state;
//! the paper's remedy is to "reissue the query, retrieving data from S3
//! until we get consistent provenance and data" (§4.2). A [`RetryPolicy`]
//! bounds that loop and spaces the attempts out in virtual time so the
//! replicas can catch up.
//!
//! Pacing is exponential with a cap: attempt `n` sleeps
//! `initial_backoff * 2^(n-1)`, clamped to `max_backoff`. Most transient
//! misses resolve within a few milliseconds of replication lag, so early
//! attempts are cheap; a permanently missing key costs at most
//! [`RetryPolicy::total_bound`] of virtual time — for the default policy
//! that stays within the 5 s envelope the old flat 100 ms × 50 schedule
//! charged, while the common few-retry case costs milliseconds instead
//! of multiples of 100 ms.

use serde::{Deserialize, Serialize};
use simworld::{SimDuration, SimWorld};

/// Bounds and pacing for read-retry loops.
#[derive(Copy, Clone, PartialEq, Eq, Debug, Serialize, Deserialize)]
pub struct RetryPolicy {
    /// Maximum re-read rounds before giving up.
    pub max_retries: u32,
    /// Virtual-time pause before the first retry; doubles per attempt.
    pub initial_backoff: SimDuration,
    /// Upper clamp on the per-attempt pause.
    pub max_backoff: SimDuration,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_retries: 50,
            initial_backoff: SimDuration::from_millis(1),
            max_backoff: SimDuration::from_millis(100),
        }
    }
}

impl RetryPolicy {
    /// A policy that never retries (useful to expose raw staleness).
    pub fn none() -> RetryPolicy {
        RetryPolicy {
            max_retries: 0,
            initial_backoff: SimDuration::ZERO,
            max_backoff: SimDuration::ZERO,
        }
    }

    /// A flat-rate policy: every attempt pauses exactly `backoff` (the
    /// pre-exponential behaviour, still useful in experiments that want
    /// a fixed cadence).
    pub fn flat(max_retries: u32, backoff: SimDuration) -> RetryPolicy {
        RetryPolicy {
            max_retries,
            initial_backoff: backoff,
            max_backoff: backoff,
        }
    }

    /// The pause before retry attempt `attempt` (1-based):
    /// `initial_backoff * 2^(attempt-1)`, clamped to `max_backoff`.
    pub fn backoff_for(&self, attempt: u32) -> SimDuration {
        if attempt == 0 {
            return SimDuration::ZERO;
        }
        let initial = self.initial_backoff.as_micros();
        let cap = self.max_backoff.as_micros();
        let scaled = initial.saturating_mul(1u64.checked_shl(attempt - 1).unwrap_or(u64::MAX));
        SimDuration::from_micros(scaled.min(cap))
    }

    /// Total virtual time a caller that exhausts the whole retry budget
    /// spends pausing — the cost of a permanently missing key.
    pub fn total_bound(&self) -> SimDuration {
        let mut total = SimDuration::ZERO;
        for attempt in 1..=self.max_retries {
            total += self.backoff_for(attempt);
        }
        total
    }

    /// Sleeps for attempt `attempt`'s backoff (1-based) in virtual time.
    pub fn pause(&self, world: &SimWorld, attempt: u32) {
        let backoff = self.backoff_for(attempt);
        if backoff > SimDuration::ZERO {
            world.advance(backoff);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simworld::SimWorld;

    #[test]
    fn defaults_are_reasonable() {
        let p = RetryPolicy::default();
        assert!(p.max_retries > 0);
        assert!(p.initial_backoff > SimDuration::ZERO);
        assert!(p.max_backoff >= p.initial_backoff);
    }

    #[test]
    fn backoff_doubles_then_caps() {
        let p = RetryPolicy::default();
        assert_eq!(p.backoff_for(1), SimDuration::from_millis(1));
        assert_eq!(p.backoff_for(2), SimDuration::from_millis(2));
        assert_eq!(p.backoff_for(3), SimDuration::from_millis(4));
        assert_eq!(p.backoff_for(7), SimDuration::from_millis(64));
        assert_eq!(p.backoff_for(8), SimDuration::from_millis(100));
        assert_eq!(p.backoff_for(50), SimDuration::from_millis(100));
    }

    #[test]
    fn default_total_bound_stays_within_old_flat_envelope() {
        // The flat predecessor charged 50 × 100 ms = 5 s per permanently
        // missing key; the exponential default must not exceed it.
        let p = RetryPolicy::default();
        let old_flat = SimDuration::from_millis(100 * 50);
        assert!(p.total_bound() <= old_flat);
        // ...but it is still in the same order of magnitude, so the
        // retry budget rides out the same replication lag.
        assert!(p.total_bound() >= SimDuration::from_millis(4_000));
    }

    #[test]
    fn early_retries_no_longer_cost_linear_time() {
        // A key that becomes visible after 5 rounds used to charge
        // 5 × 100 ms = 500 ms; exponential pacing charges 1+2+4+8+16 ms.
        let world = SimWorld::counting();
        let p = RetryPolicy::default();
        let t0 = world.now();
        for attempt in 1..=5 {
            p.pause(&world, attempt);
        }
        assert_eq!(world.now() - t0, SimDuration::from_millis(31));
    }

    #[test]
    fn flat_policy_reproduces_fixed_cadence() {
        let p = RetryPolicy::flat(3, SimDuration::from_millis(100));
        assert_eq!(p.backoff_for(1), SimDuration::from_millis(100));
        assert_eq!(p.backoff_for(3), SimDuration::from_millis(100));
        assert_eq!(p.total_bound(), SimDuration::from_millis(300));
    }

    #[test]
    fn pause_advances_virtual_time() {
        let world = SimWorld::counting();
        let p = RetryPolicy::flat(1, SimDuration::from_secs(1));
        let t0 = world.now();
        p.pause(&world, 1);
        assert_eq!((world.now() - t0).as_secs(), 1);
        let t1 = world.now();
        RetryPolicy::none().pause(&world, 1);
        assert_eq!(world.now(), t1);
    }
}
