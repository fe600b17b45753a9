//! Tier-1 ledger of every option the stores take.
//!
//! Each literal below is exhaustive (no `..Default::default()`), so a new
//! field on `Arch2Config`, `Arch3Config` or `RetryPolicy` does not
//! compile until it is written here — with a comment answering
//! "who, outside the tests, sets it to something else?". An option nobody
//! sets is a constant with a field; PR 22 removed four of those
//! (CHANGES.md names them).
//! The values are the defaults, checked against `Default`.

use provenance_cloud::{Arch2Config, Arch3Config, ClosureMode, RetryPolicy};
use simworld::SimDuration;

/// `RetryPolicy::default()`, spelled out. The three fields move together:
/// `ablations.rs` (`lag_retries_ablation`) builds `RetryPolicy::flat(500, 50 ms)`.
fn default_retry() -> RetryPolicy {
    RetryPolicy {
        // ablations.rs: `flat(500, ..)`.
        max_retries: 50,
        // ablations.rs: `flat(.., 50 ms)` sets both backoffs.
        initial_backoff: SimDuration::from_millis(1),
        // ablations.rs: as above.
        max_backoff: SimDuration::from_millis(100),
    }
}

#[test]
fn retry_policy_has_three_options() {
    assert_eq!(default_retry(), RetryPolicy::default());
}

#[test]
fn arch2_config_has_three_options() {
    let ledger = Arch2Config {
        // ablations.rs: the lag ablation's flat 500 × 50 ms policy.
        retry: default_retry(),
        // ablations.rs: the nonce ablation runs `false`.
        use_nonce: true,
        // benchmark/src/stack.rs (`spec.closure`), querybench.rs.
        closure: ClosureMode::Off,
    };
    let default = Arch2Config::default();
    assert_eq!(ledger.retry, default.retry);
    assert_eq!(ledger.use_nonce, default.use_nonce);
    assert_eq!(ledger.closure, default.closure);
}

/// arch3's S3 + SimpleDB side keeps `Arch2Config::default()`'s retry
/// policy and nonce: no caller outside the tests ever set either on
/// arch3, so neither is an arch3 option.
#[test]
fn arch3_config_has_three_options() {
    let ledger = Arch3Config {
        // ablations.rs: the commit-threshold sweep (0, 2, 8, 32, 128).
        commit_threshold: 8,
        // batchbench.rs `build_store`: the pipeline sweep's row depth.
        daemon_depth: None,
        // benchmark/src/stack.rs (`spec.closure`).
        closure: ClosureMode::Off,
    };
    let default = Arch3Config::default();
    assert_eq!(ledger.commit_threshold, default.commit_threshold);
    assert!(ledger.daemon_depth.is_none() && default.daemon_depth.is_none());
    assert_eq!(ledger.closure, default.closure);
}
