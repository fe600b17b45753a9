//! AIMD adaptive in-flight depth.
//!
//! A fixed `max_in_flight` is a hand-tuned knob: too shallow and the
//! issuer spends its life blocked on backpressure, too deep and the
//! extra channels sit idle. [`AdaptiveDepth`] replaces the knob with a
//! controller driven by [`PipelineStats`], the backpressure evidence
//! the pipelined accounting already collects:
//!
//! * **stalled window → multiplicative growth.** A stall means the
//!   issuer blocked because the window — not the gating service — was
//!   the bottleneck, so the depth doubles toward the gating service's
//!   concurrency demand (the AIMD step that escapes saturation fast);
//! * **stall-free window with idle channels → additive decay.** When
//!   the observed peak in flight never reached the cap, the excess
//!   depth bought nothing and is shed one channel at a time.
//!
//! The equilibrium is the AIMD fixed point: the smallest depth that
//! keeps the gating service busy without blocking the issuer — the
//! controller converges *stall-free*, without anyone guessing
//! `max_in_flight` per workload. Feed it cumulative snapshots of an
//! open region ([`crate::SimWorld::pipeline_stats`]) between groups,
//! or one drained region's final stats per step; call
//! [`AdaptiveDepth::region_complete`] whenever a region closes so the
//! internal delta counters restart from zero.

use crate::world::PipelineStats;

/// AIMD controller for the pipelined in-flight depth.
///
/// # Examples
///
/// ```
/// use simworld::{AdaptiveDepth, PipelineStats};
///
/// let mut ctl = AdaptiveDepth::new();
/// let start = ctl.depth();
/// // A stalled window doubles the depth toward the demand…
/// ctl.observe(&PipelineStats { requests: 16, stalls: 9, ..Default::default() });
/// assert_eq!(ctl.depth(), start * 2);
/// ctl.region_complete();
/// // …and a stall-free window that never filled the cap decays it.
/// ctl.observe(&PipelineStats { requests: 4, peak_in_flight: 2, ..Default::default() });
/// assert_eq!(ctl.depth(), start * 2 - 1);
/// ```
#[derive(Copy, Clone, Debug)]
pub struct AdaptiveDepth {
    depth: usize,
    min: usize,
    max: usize,
    /// Cumulative counters already accounted for, so repeated
    /// observations of one open region react to the *delta* only.
    seen_requests: u64,
    seen_stalls: u64,
}

impl AdaptiveDepth {
    /// Depth a fresh controller starts probing from.
    pub const DEFAULT_START: usize = 2;
    /// Default upper bound on the window.
    pub const DEFAULT_MAX: usize = 32;

    /// A controller starting at [`AdaptiveDepth::DEFAULT_START`],
    /// bounded by `[1, DEFAULT_MAX]`.
    pub fn new() -> AdaptiveDepth {
        AdaptiveDepth::with_bounds(AdaptiveDepth::DEFAULT_START, 1, AdaptiveDepth::DEFAULT_MAX)
    }

    /// A controller starting at `start`, clamped to `[min, max]`.
    ///
    /// # Panics
    ///
    /// Panics unless `1 <= min <= max`.
    pub fn with_bounds(start: usize, min: usize, max: usize) -> AdaptiveDepth {
        assert!(min >= 1, "depth bounds must be positive");
        assert!(min <= max, "min depth must not exceed max depth");
        AdaptiveDepth {
            depth: start.clamp(min, max),
            min,
            max,
            seen_requests: 0,
            seen_stalls: 0,
        }
    }

    /// The degenerate controller: bounds `[depth, depth]`, so every
    /// observation answers `depth` and a region steered by it is a
    /// fixed-depth region. This is the one place a caller-chosen depth
    /// is checked: "no region at all" is spelled `None` by the callers
    /// that take an `Option<AdaptiveDepth>`, never a depth of zero.
    ///
    /// # Panics
    ///
    /// Panics if `depth` is zero.
    pub fn fixed(depth: usize) -> AdaptiveDepth {
        assert!(
            depth >= 1,
            "a fixed in-flight depth must be positive (no region is `None`, not depth 0)"
        );
        AdaptiveDepth::with_bounds(depth, depth, depth)
    }

    /// The depth the next window should run at.
    pub fn depth(&self) -> usize {
        self.depth
    }

    /// Feeds one observation window: either a cumulative snapshot of
    /// the open region (only the delta since the last call counts) or
    /// a drained region's final stats. Windows that issued no requests
    /// carry no evidence and leave the depth unchanged.
    pub fn observe(&mut self, stats: &PipelineStats) {
        let requests = stats.requests.saturating_sub(self.seen_requests);
        let stalls = stats.stalls.saturating_sub(self.seen_stalls);
        self.seen_requests = stats.requests;
        self.seen_stalls = stats.stalls;
        if requests == 0 {
            return;
        }
        if stalls > 0 {
            self.depth = (self.depth * 2).min(self.max);
        } else if stats.peak_in_flight < self.depth {
            self.depth = (self.depth - 1).max(self.min);
        }
    }

    /// Declares the observed region closed: the next [`observe`]
    /// reads a fresh region whose counters restart at zero.
    ///
    /// [`observe`]: AdaptiveDepth::observe
    pub fn region_complete(&mut self) {
        self.seen_requests = 0;
        self.seen_stalls = 0;
    }
}

impl Default for AdaptiveDepth {
    fn default() -> AdaptiveDepth {
        AdaptiveDepth::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock::SimDuration;
    use crate::latency::{LatencyModel, ServiceLatency};
    use crate::metering::Op;
    use crate::world::{Consistency, SimConfig, SimWorld};

    fn window(requests: u64, stalls: u64, peak: usize) -> PipelineStats {
        PipelineStats {
            requests,
            stalls,
            peak_in_flight: peak,
            ..PipelineStats::default()
        }
    }

    #[test]
    fn stalled_windows_grow_multiplicatively_to_the_cap() {
        let mut ctl = AdaptiveDepth::with_bounds(1, 1, 16);
        for expected in [2, 4, 8, 16, 16] {
            ctl.observe(&window(
                ctl.seen_requests + 10,
                ctl.seen_stalls + 5,
                expected,
            ));
            assert_eq!(ctl.depth(), expected, "growth must double, capped at max");
        }
    }

    #[test]
    fn idle_stall_free_windows_decay_additively_to_the_floor() {
        let mut ctl = AdaptiveDepth::with_bounds(4, 2, 32);
        for expected in [3, 2, 2] {
            ctl.observe(&window(ctl.seen_requests + 10, ctl.seen_stalls, 1));
            ctl.region_complete();
            assert_eq!(
                ctl.depth(),
                expected,
                "decay must be additive, floored at min"
            );
        }
    }

    #[test]
    fn a_fixed_controller_never_moves() {
        let mut ctl = AdaptiveDepth::fixed(4);
        // Stalls would double it, an idle window would shed a channel.
        ctl.observe(&window(10, 5, 4));
        assert_eq!(ctl.depth(), 4);
        ctl.region_complete();
        ctl.observe(&window(10, 0, 1));
        assert_eq!(ctl.depth(), 4);
    }

    #[test]
    #[should_panic(expected = "must be positive")]
    fn a_fixed_depth_of_zero_is_rejected() {
        let _ = AdaptiveDepth::fixed(0);
    }

    #[test]
    fn a_saturated_stall_free_window_holds_the_depth() {
        let mut ctl = AdaptiveDepth::with_bounds(4, 1, 32);
        // Stall-free and the peak filled the cap: perfectly sized.
        ctl.observe(&window(10, 0, 4));
        assert_eq!(ctl.depth(), 4);
    }

    #[test]
    fn empty_windows_carry_no_evidence() {
        let mut ctl = AdaptiveDepth::with_bounds(4, 1, 32);
        ctl.observe(&window(0, 0, 0));
        assert_eq!(ctl.depth(), 4);
    }

    #[test]
    fn cumulative_snapshots_react_to_the_delta_only() {
        let mut ctl = AdaptiveDepth::with_bounds(2, 1, 32);
        ctl.observe(&window(10, 3, 2));
        assert_eq!(ctl.depth(), 4);
        // Same cumulative stall count again: the delta is zero stalls,
        // and the cumulative peak (4) fills the new cap, so hold.
        ctl.observe(&window(20, 3, 4));
        assert_eq!(ctl.depth(), 4);
    }

    /// End to end on a real region: a bursty issuer starting from a
    /// shallow window converges to a stall-free depth that covers the
    /// burst.
    #[test]
    fn converges_stall_free_on_a_bursty_region() {
        let flat = ServiceLatency {
            base: SimDuration::from_millis(10),
            per_8kb: SimDuration::ZERO,
            jitter: SimDuration::ZERO,
            per_scanned_row: SimDuration::ZERO,
            per_batch_entry: SimDuration::ZERO,
        };
        let world = SimWorld::with_config(SimConfig {
            consistency: Consistency::Strong,
            latency: LatencyModel {
                s3: flat,
                simpledb: flat,
                sqs: flat,
            },
            ..SimConfig::default()
        });
        let mut ctl = AdaptiveDepth::with_bounds(1, 1, 32);
        let mut last_stats = PipelineStats::default();
        for _ in 0..12 {
            world.begin_pipeline(ctl.depth());
            for _ in 0..8 {
                world.record_op(Op::S3Put, 0, 0);
            }
            last_stats = world.drain_pipeline();
            ctl.observe(&last_stats);
            ctl.region_complete();
        }
        assert_eq!(
            last_stats.stalls, 0,
            "the controller must converge stall-free"
        );
        assert!(
            ctl.depth() >= 8,
            "the converged window must cover the burst: {}",
            ctl.depth()
        );
    }
}
