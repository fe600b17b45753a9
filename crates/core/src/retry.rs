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

use crate::error::{CloudError, Result};

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

/// Runs `op`, retrying provider-side 503 rate rejections
/// ([`CloudError::is_throttle`]) under `policy`'s exponential backoff —
/// the client-side half of throttling. Throttling must cost *time,
/// never state*: the rejected request applied nothing, so reissuing it
/// after a pause converges on the same final store an unthrottled run
/// reaches. Every pause is tallied on the world
/// ([`SimWorld::note_throttle_retry`](simworld::SimWorld::note_throttle_retry)),
/// and a spent budget surfaces as [`CloudError::RetryExhausted`]
/// wrapping the final 503, so fleet runs count exhaustion instead of
/// misattributing it.
///
/// Non-throttle errors (and successes) pass straight through.
pub fn with_throttle_retry<T>(
    world: &SimWorld,
    policy: &RetryPolicy,
    mut op: impl FnMut() -> Result<T>,
) -> Result<T> {
    let issued_at = world.now();
    let mut retries = 0u32;
    loop {
        match op() {
            Err(e) if e.is_throttle() => {
                if retries >= policy.max_retries {
                    return Err(CloudError::give_up(retries + 1, e));
                }
                retries += 1;
                world.note_throttle_retry();
                policy.pause(world, retries);
            }
            other => {
                if retries > 0 {
                    // The winning attempt's latency sample should span
                    // the whole client-observed wait — rejected attempts
                    // and backoff included — not just the final charge.
                    world.backdate_last_sample(issued_at);
                }
                return other;
            }
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
    fn throttle_retry_reissues_until_clear_and_tallies() {
        let world = SimWorld::counting();
        let policy = RetryPolicy::default();
        let mut rejections = 3;
        let out = with_throttle_retry(&world, &policy, || {
            if rejections > 0 {
                rejections -= 1;
                return Err(sim_s3::S3Error::ServiceUnavailable { bucket: "b".into() }.into());
            }
            Ok(99)
        });
        assert_eq!(out.unwrap(), 99);
        assert_eq!(world.throttle_retries(), 3);
        // Backoff advanced the clock: 1 + 2 + 4 ms.
        assert_eq!(
            world.now() - simworld::SimInstant::EPOCH,
            SimDuration::from_millis(7)
        );
    }

    #[test]
    fn throttle_retry_exhaustion_is_structured_and_none_gives_up_loudly() {
        let world = SimWorld::counting();
        // RetryPolicy::none() must not swallow the transient error: the
        // very first 503 surfaces as a structured give-up.
        let out: crate::error::Result<()> =
            with_throttle_retry(&world, &RetryPolicy::none(), || {
                Err(sim_s3::S3Error::ServiceUnavailable { bucket: "b".into() }.into())
            });
        let err = out.unwrap_err();
        assert!(matches!(
            err,
            crate::error::CloudError::RetryExhausted { attempts: 1, .. }
        ));
        assert!(err.to_string().contains("gave up after 1 attempts"));

        // A bounded budget gives up after max_retries + 1 tries.
        let policy = RetryPolicy::flat(2, SimDuration::from_millis(1));
        let out: crate::error::Result<()> = with_throttle_retry(&world, &policy, || {
            Err(sim_s3::S3Error::ServiceUnavailable { bucket: "b".into() }.into())
        });
        assert!(matches!(
            out.unwrap_err(),
            crate::error::CloudError::RetryExhausted { attempts: 3, .. }
        ));
    }

    #[test]
    fn non_throttle_errors_pass_straight_through() {
        let world = SimWorld::counting();
        let out: crate::error::Result<()> =
            with_throttle_retry(&world, &RetryPolicy::default(), || {
                Err(crate::error::CloudError::NotFound { name: "x".into() })
            });
        assert!(matches!(
            out.unwrap_err(),
            crate::error::CloudError::NotFound { .. }
        ));
        assert_eq!(world.throttle_retries(), 0);
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
