//! The pipelined persist client: a group-commit flusher with an age
//! deadline feeding batches into an open request pipeline.
//!
//! The paper's protocols assume provenance reaches the cloud
//! *asynchronously* from the client's critical path. This module is
//! that client: a [`pass::GroupCommitFlusher`] coalesces `close()`
//! flushes under a [`pass::FlushPolicy`] (count, bytes, **and** a
//! `max_age` deadline, checked against the world's clock before every
//! close), and every due group issues through
//! [`ProvenanceStore::persist_batch`] while the pipeline keeps up to
//! the controller's depth of requests per service outstanding — batches
//! overlap in flight instead of draining synchronously in the
//! submitting client. How deep is one policy, `Option<AdaptiveDepth>`:
//! `None` for no region at all, [`AdaptiveDepth::fixed`] for a fixed
//! depth, any other controller for an AIMD-steered one.
//!
//! Crash sites cover the client's three step boundaries: after a
//! deadline passes but before its group issues, after a group's
//! requests are issued, and after the last issue but before the
//! in-flight tail completes. A crash anywhere loses at most the
//! un-issued buffer (and on Architecture 3 any half-issued group is a
//! commit-less suffix the commit daemon ignores) — the same durability
//! story as the synchronous paths, now with overlap.

use pass::{FileFlush, FlushPolicy, GroupCommitFlusher};
use simworld::{AdaptiveDepth, CrashSite, PipelineStats, SimDuration, SimWorld};

use crate::error::Result;
use crate::store::ProvenanceStore;

/// Crash site: a flush deadline fired, but its group has not issued.
pub const PIPE_AFTER_TIMER_FIRE: CrashSite = CrashSite::new("pipeline.after_timer_fire");

/// Crash site: a group's requests are issued (possibly still in
/// flight); the next group has not started.
pub const PIPE_AFTER_GROUP_ISSUE: CrashSite = CrashSite::new("pipeline.after_group_issue");

/// Crash site: every group is issued, but the in-flight tail has not
/// completed (the client dies with requests on the wire).
pub const PIPE_BEFORE_DRAIN: CrashSite = CrashSite::new("pipeline.before_drain");

/// What a pipelined drive accomplished.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct PipelineReport {
    /// Groups issued (threshold, deadline and tail drains).
    pub groups_issued: u64,
    /// Groups drained by the age deadline rather than a size threshold.
    pub timer_drains: u64,
    /// Requests issued while the pipeline was open.
    pub requests: u64,
    /// Times the client blocked on a full channel set (backpressure).
    pub stalls: u64,
    /// Largest number of requests simultaneously in flight.
    pub peak_in_flight: usize,
    /// Virtual time from first submit to last completion.
    pub elapsed: SimDuration,
}

/// Persists pre-formed `groups` through [`ProvenanceStore::persist_batch`]
/// under one depth policy: `None` is the synchronous client — one group
/// at a time, no region, the serial latency sum; `Some(controller)`
/// opens a pipelined region in which each group's requests *issue*
/// without waiting for the previous group's completions, steered by the
/// controller ([`AdaptiveDepth::fixed`] for a fixed depth). Requests
/// issue in the same order either way, so the final store state is
/// identical; only the completion accounting — the virtual clock —
/// differs. The controller is borrowed so a caller can read the depth
/// it converged to, or reuse the learned state on a later call.
///
/// # Errors
///
/// Service errors, or [`crate::CloudError::Crashed`] when a client
/// crash site fires; requests issued before the crash stay on the wire
/// either way, so earlier groups — and part of the failing one — may
/// already be durable.
pub fn persist_groups(
    world: &SimWorld,
    store: &mut dyn ProvenanceStore,
    groups: &[Vec<FileFlush>],
    depth: Option<&mut AdaptiveDepth>,
) -> Result<()> {
    in_region(world, store, depth, |issue| {
        groups.iter().try_for_each(|g| issue(g))
    })
    .0
}

/// Drives `flushes` through a [`GroupCommitFlusher`] into `store`
/// under the same depth policy as [`persist_groups`].
/// `inter_flush_gap` models the client's think time between `close()`
/// calls — with a nonzero gap and a `max_age` deadline, slow producers
/// see their small groups drained once the deadline passes instead of
/// waiting for the count threshold.
///
/// The final store state is identical to feeding the same groups
/// through the synchronous batch path; only the completion accounting
/// overlaps.
///
/// # Errors
///
/// Service errors, or [`crate::CloudError::Crashed`] when a crash site
/// fires — issued requests stay issued (they were on the wire), the
/// un-issued buffer is lost with the client's memory.
pub fn drive_pipelined(
    world: &SimWorld,
    store: &mut dyn ProvenanceStore,
    flushes: &[FileFlush],
    policy: FlushPolicy,
    depth: Option<&mut AdaptiveDepth>,
    inter_flush_gap: SimDuration,
) -> Result<PipelineReport> {
    let t0 = world.now();
    let mut flusher = GroupCommitFlusher::new(policy);
    let mut groups_issued = 0u64;
    let (result, stats) = in_region(world, store, depth, |issue| {
        for flush in flushes {
            if inter_flush_gap > SimDuration::ZERO {
                world.advance(inter_flush_gap);
            }
            if let Some(group) = flusher.poll(world.now()) {
                // The deadline passed between closes: the aged group
                // drains before the next flush is buffered.
                world.crash_point(PIPE_AFTER_TIMER_FIRE)?;
                issue(&group)?;
                groups_issued += 1;
                world.crash_point(PIPE_AFTER_GROUP_ISSUE)?;
            }
            for group in flusher.submit(flush.clone(), world.now()) {
                issue(&group)?;
                groups_issued += 1;
                world.crash_point(PIPE_AFTER_GROUP_ISSUE)?;
            }
        }
        let tail = flusher.drain();
        if !tail.is_empty() {
            issue(&tail)?;
            groups_issued += 1;
        }
        world.crash_point(PIPE_BEFORE_DRAIN)?;
        Ok(())
    });
    result?;
    Ok(PipelineReport {
        groups_issued,
        timer_drains: flusher.timer_drains(),
        requests: stats.requests,
        stalls: stats.stalls,
        peak_in_flight: stats.peak_in_flight,
        elapsed: world.now() - t0,
    })
}

/// The one client-side pipeline region. Runs `body`, handing it the
/// `issue` step (one group through `persist_batch`), and returns its
/// result with the region's statistics. Under `Some(controller)` the
/// region opens at `controller.depth()`; after every issued group the
/// controller observes the region's cumulative stall evidence
/// ([`SimWorld::pipeline_stats`]) and resizes the open window in place
/// ([`SimWorld::set_pipeline_depth`]). Under `None` there is no region
/// and `issue` is the bare synchronous call.
fn in_region(
    world: &SimWorld,
    store: &mut dyn ProvenanceStore,
    depth: Option<&mut AdaptiveDepth>,
    body: impl FnOnce(&mut dyn FnMut(&[FileFlush]) -> Result<()>) -> Result<()>,
) -> (Result<()>, PipelineStats) {
    let Some(controller) = depth else {
        let result = body(&mut |group| store.persist_batch(group));
        return (result, PipelineStats::default());
    };
    world.begin_pipeline(controller.depth());
    let result = body(&mut |group| {
        store.persist_batch(group)?;
        if let Some(stats) = world.pipeline_stats() {
            controller.observe(&stats);
            world.set_pipeline_depth(controller.depth());
        }
        Ok(())
    });
    // Drain even when a crash fired: issued requests are on the wire
    // regardless of the client dying, and the world's pipeline must
    // close either way.
    let stats = world.drain_pipeline();
    controller.region_complete();
    (result, stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arch2::S3SimpleDb;
    use crate::store::ProvenanceStore;
    use simworld::Blob;

    fn flushes(n: usize) -> Vec<FileFlush> {
        (0..n)
            .map(|i| {
                FileFlush::builder(format!("f{i:03}"))
                    .data(Blob::synthetic(i as u64, 512))
                    .build()
            })
            .collect()
    }

    fn assert_all_readable(store: &mut S3SimpleDb, n: usize) {
        for i in 0..n {
            assert!(store.read(&format!("f{i:03}")).unwrap().consistent());
        }
    }

    /// Drives `n` flushes into a fresh arch2 store on `world`; every one
    /// of them must read back consistent afterwards.
    fn drive(
        world: &SimWorld,
        n: usize,
        policy: FlushPolicy,
        depth: Option<&mut AdaptiveDepth>,
        gap_ms: u64,
    ) -> PipelineReport {
        let mut store = S3SimpleDb::new(world);
        let gap = SimDuration::from_millis(gap_ms);
        let report = drive_pipelined(world, &mut store, &flushes(n), policy, depth, gap).unwrap();
        assert_all_readable(&mut store, n);
        report
    }

    fn fixed(depth: usize) -> Option<AdaptiveDepth> {
        Some(AdaptiveDepth::fixed(depth))
    }

    #[test]
    fn fast_producer_drains_on_the_count_threshold() {
        let world = SimWorld::counting();
        let report = drive(&world, 20, FlushPolicy::every(5), fixed(4).as_mut(), 0);
        assert_eq!(report.groups_issued, 4);
        assert_eq!(report.timer_drains, 0);
        assert!(report.requests > 0);
    }

    #[test]
    fn slow_producer_is_drained_by_the_timer() {
        // Think time (200 ms) × 3 pending crosses the 500 ms deadline
        // long before the 100-flush count threshold.
        let policy = FlushPolicy::new(100, u64::MAX).with_max_age(SimDuration::from_millis(500));
        let report = drive(&SimWorld::counting(), 12, policy, fixed(4).as_mut(), 200);
        assert!(report.timer_drains > 0, "{report:?}");
        assert!(
            report.groups_issued > 12 / 100,
            "groups must come from deadlines, not the count threshold: {report:?}"
        );
    }

    #[test]
    fn adaptive_drive_matches_fixed_state_and_raises_the_depth() {
        drive(
            &SimWorld::new(2009),
            40,
            FlushPolicy::every(5),
            fixed(8).as_mut(),
            0,
        );

        let mut ctl = AdaptiveDepth::with_bounds(1, 1, 32);
        let report = drive(
            &SimWorld::new(2009),
            40,
            FlushPolicy::every(5),
            Some(&mut ctl),
            0,
        );
        assert!(
            ctl.depth() > 1,
            "stalled windows must have grown the depth: {}",
            ctl.depth()
        );
        assert_eq!(report.groups_issued, 8);
    }

    #[test]
    fn persist_groups_lands_every_group_and_closes_the_region() {
        let world = SimWorld::new(7);
        let mut store = S3SimpleDb::new(&world);
        let all = flushes(30);
        let groups: Vec<Vec<FileFlush>> = all.chunks(6).map(<[FileFlush]>::to_vec).collect();
        let mut ctl = AdaptiveDepth::new();
        persist_groups(&world, &mut store, &groups, Some(&mut ctl)).unwrap();
        assert!(world.pipeline_depth().is_none(), "the region must close");
        assert_all_readable(&mut store, 30);
    }

    #[test]
    fn report_measures_overlap_on_a_priced_world() {
        let piped = drive(
            &SimWorld::new(2009),
            20,
            FlushPolicy::every(5),
            fixed(4).as_mut(),
            0,
        );
        assert!(piped.peak_in_flight > 1, "{piped:?}");
        assert!(piped.elapsed > SimDuration::ZERO);
        // No depth, no region: nothing overlaps and nothing is counted.
        let sync = drive(&SimWorld::new(2009), 20, FlushPolicy::every(5), None, 0);
        assert_eq!((sync.requests, sync.peak_in_flight), (0, 0), "{sync:?}");
        assert_eq!(sync.groups_issued, piped.groups_issued);
        assert!(sync.elapsed > piped.elapsed, "{sync:?} vs {piped:?}");
    }
}
