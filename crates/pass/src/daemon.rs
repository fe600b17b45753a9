//! The timer-driven background flush daemon.
//!
//! [`crate::GroupCommitFlusher`] bounds *how much* can sit in the
//! buffer, but it drains synchronously in the submitting client and has
//! no clock, so a trickle of closes can leave a small group waiting
//! arbitrarily long. [`FlushDaemon`] adds the missing half: it holds a
//! [`simworld::SimWorld`] handle and registers a **timer event** in the
//! world's deterministic scheduler whenever the buffer goes non-empty
//! ([`crate::FlushPolicy::max_age`]); if the deadline passes before a
//! size threshold trips, the pending group drains anyway. Count, bytes
//! *and* latency are now all bounded — the behaviour of the paper's
//! background commit daemon, applied to the client-side flush path.
//!
//! Like the flusher it wraps, the daemon is backend-agnostic: it owns
//! *when to drain*, never a service handle. The cloud layer's
//! timer-driven client (`provenance_cloud::drive_pipelined`) pumps it
//! and pushes each due group through `ProvenanceStore::persist_batch`;
//! under a depth policy of `Some(controller)` that happens inside a
//! pipeline region, so earlier groups are still in flight, and under
//! `None` each group completes before the next is issued.

use simworld::{SimWorld, TimerId};

use crate::flush::FileFlush;
use crate::group::{FlushPolicy, GroupCommitFlusher};

/// A group-commit flusher with a deadline: buffers flushes, drains on a
/// count/byte threshold **or** when the oldest pending flush has waited
/// [`FlushPolicy::max_age`] on the world's clock.
///
/// # Examples
///
/// ```
/// use pass::{FileFlush, FlushDaemon, FlushPolicy};
/// use simworld::{Blob, SimDuration, SimWorld};
///
/// let world = SimWorld::counting();
/// let policy = FlushPolicy::new(100, u64::MAX).with_max_age(SimDuration::from_millis(500));
/// let mut daemon = FlushDaemon::new(&world, policy);
///
/// let flush = FileFlush::builder("a").data(Blob::from("1")).build();
/// assert!(daemon.submit(flush).is_empty()); // buffered, timer armed
/// world.advance(SimDuration::from_secs(1));
/// let group = daemon.poll().expect("deadline passed: the group drains");
/// assert_eq!(group.len(), 1);
/// ```
#[derive(Debug)]
pub struct FlushDaemon {
    world: SimWorld,
    flusher: GroupCommitFlusher,
    timer: Option<TimerId>,
    drains: u64,
    timer_drains: u64,
}

impl FlushDaemon {
    /// A daemon with nothing buffered.
    ///
    /// # Panics
    ///
    /// Panics if the policy has a zero threshold (see
    /// [`FlushPolicy::assert_valid`]).
    pub fn new(world: &SimWorld, policy: FlushPolicy) -> FlushDaemon {
        policy.assert_valid();
        FlushDaemon {
            world: world.clone(),
            flusher: GroupCommitFlusher::new(policy),
            timer: None,
            drains: 0,
            timer_drains: 0,
        }
    }

    /// The active policy.
    pub fn policy(&self) -> FlushPolicy {
        self.flusher.policy()
    }

    /// Flushes currently buffered.
    pub fn pending(&self) -> usize {
        self.flusher.pending()
    }

    /// Data + provenance bytes currently buffered.
    pub fn pending_bytes(&self) -> u64 {
        self.flusher.pending_bytes()
    }

    /// Groups drained so far (threshold and timer drains combined; the
    /// explicit [`FlushDaemon::drain`] is not counted).
    pub fn drains(&self) -> u64 {
        self.drains
    }

    /// Drains forced by the age deadline rather than a size threshold.
    pub fn timer_drains(&self) -> u64 {
        self.timer_drains
    }

    /// The pending deadline, if a timer is armed.
    pub fn deadline(&self) -> Option<simworld::SimInstant> {
        self.timer.and_then(|t| self.world.timer_deadline(t))
    }

    /// Buffers one flush and returns every group that is now due — the
    /// expired-deadline group (if the timer fired while the client was
    /// between closes) and/or the threshold-tripped group. Usually zero
    /// or one group; the caller must persist each in order.
    #[must_use = "returned groups are no longer buffered; they must be persisted"]
    pub fn submit(&mut self, flush: FileFlush) -> Vec<Vec<FileFlush>> {
        let mut due = Vec::new();
        // A deadline that expired while the client was away drains
        // first, preserving submission order across the two groups.
        if let Some(group) = self.poll() {
            due.push(group);
        }
        if let Some(group) = self.flusher.submit(flush) {
            self.disarm();
            self.drains += 1;
            due.push(group);
        } else {
            self.arm();
        }
        due
    }

    /// Checks the age deadline: returns the pending group when the
    /// oldest buffered flush has waited past
    /// [`FlushPolicy::max_age`]. Call between submissions (or from an
    /// idle loop) to bound flush latency.
    #[must_use = "a returned group is no longer buffered; it must be persisted"]
    pub fn poll(&mut self) -> Option<Vec<FileFlush>> {
        let timer = self.timer?;
        if !self.world.timer_due(timer) {
            return None;
        }
        self.disarm();
        let group = self.flusher.drain();
        debug_assert!(!group.is_empty(), "a timer is only armed while buffering");
        self.drains += 1;
        self.timer_drains += 1;
        Some(group)
    }

    /// Hands back everything buffered (possibly empty) and disarms the
    /// timer — the shutdown / sync path, and the tail of every run.
    pub fn drain(&mut self) -> Vec<FileFlush> {
        self.disarm();
        self.flusher.drain()
    }

    /// Arms the deadline timer if the policy has one, the buffer is
    /// non-empty, and no timer is already running (the deadline tracks
    /// the *oldest* pending flush).
    fn arm(&mut self) {
        if self.timer.is_none() && self.flusher.pending() > 0 {
            if let Some(age) = self.policy().max_age {
                self.timer = Some(self.world.schedule_timer(age));
            }
        }
    }

    fn disarm(&mut self) {
        if let Some(timer) = self.timer.take() {
            self.world.cancel_timer(timer);
        }
    }
}

impl Drop for FlushDaemon {
    /// A dropped daemon (client death, crash-path unwinding) releases
    /// its live timer so the world's scheduler holds no orphan entries.
    fn drop(&mut self) {
        self.disarm();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simworld::{Blob, SimDuration};

    fn flush_of(name: &str, bytes: u64) -> FileFlush {
        FileFlush::builder(name)
            .data(Blob::synthetic(1, bytes))
            .build()
    }

    fn policy(max_flushes: usize, age_ms: u64) -> FlushPolicy {
        FlushPolicy::new(max_flushes, u64::MAX).with_max_age(SimDuration::from_millis(age_ms))
    }

    #[test]
    fn count_threshold_still_drains_eagerly() {
        let world = SimWorld::counting();
        let mut d = FlushDaemon::new(&world, policy(2, 1_000));
        assert!(d.submit(flush_of("a", 1)).is_empty());
        let due = d.submit(flush_of("b", 1));
        assert_eq!(due.len(), 1);
        assert_eq!(due[0].len(), 2);
        assert_eq!(d.pending(), 0);
        assert_eq!(d.drains(), 1);
        assert_eq!(d.timer_drains(), 0);
        assert!(d.deadline().is_none(), "drain disarms the timer");
    }

    #[test]
    fn deadline_drains_a_small_group() {
        let world = SimWorld::counting();
        let mut d = FlushDaemon::new(&world, policy(100, 500));
        assert!(d.submit(flush_of("a", 1)).is_empty());
        assert!(d.poll().is_none(), "deadline not reached yet");
        world.advance(SimDuration::from_millis(501));
        let group = d.poll().expect("deadline passed");
        assert_eq!(group.len(), 1);
        assert_eq!(d.timer_drains(), 1);
        assert!(d.poll().is_none(), "nothing left to drain");
    }

    #[test]
    fn deadline_tracks_the_oldest_pending_flush() {
        let world = SimWorld::counting();
        let mut d = FlushDaemon::new(&world, policy(100, 500));
        let _ = d.submit(flush_of("a", 1));
        let deadline = d.deadline().expect("timer armed on first flush");
        world.advance(SimDuration::from_millis(400));
        let _ = d.submit(flush_of("b", 1));
        assert_eq!(
            d.deadline(),
            Some(deadline),
            "a second flush must not push the first one's deadline out"
        );
        world.advance(SimDuration::from_millis(101));
        assert_eq!(d.poll().map(|g| g.len()), Some(2));
    }

    #[test]
    fn submit_after_expiry_returns_old_group_then_buffers() {
        let world = SimWorld::counting();
        let mut d = FlushDaemon::new(&world, policy(100, 500));
        let _ = d.submit(flush_of("a", 1));
        world.advance(SimDuration::from_secs(1));
        // The deadline fired while the client was away: the stale group
        // drains before the new flush is buffered.
        let due = d.submit(flush_of("b", 1));
        assert_eq!(due.len(), 1);
        assert_eq!(due[0][0].object.name, "a");
        assert_eq!(d.pending(), 1, "the new flush is buffered afresh");
        assert!(d.deadline().is_some(), "with a fresh deadline");
    }

    #[test]
    fn explicit_drain_disarms_and_empties() {
        let world = SimWorld::counting();
        let mut d = FlushDaemon::new(&world, policy(100, 500));
        let _ = d.submit(flush_of("a", 1));
        assert_eq!(d.drain().len(), 1);
        assert!(d.deadline().is_none());
        world.advance(SimDuration::from_secs(5));
        assert!(d.poll().is_none(), "no ghost timer after an explicit drain");
    }

    #[test]
    fn byte_threshold_drains_through_daemon() {
        let world = SimWorld::counting();
        let mut d = FlushDaemon::new(
            &world,
            FlushPolicy::new(100, 1000).with_max_age(SimDuration::from_secs(10)),
        );
        assert!(d.submit(flush_of("small", 10)).is_empty());
        let due = d.submit(flush_of("big", 2000));
        assert_eq!(due.len(), 1);
        assert_eq!(due[0].len(), 2);
    }

    #[test]
    fn no_max_age_means_no_timer() {
        let world = SimWorld::counting();
        let mut d = FlushDaemon::new(&world, FlushPolicy::every(100));
        let _ = d.submit(flush_of("a", 1));
        assert!(d.deadline().is_none());
        world.advance(SimDuration::from_days(1));
        assert!(d.poll().is_none(), "size thresholds only");
        assert_eq!(d.pending(), 1);
    }

    #[test]
    #[should_panic(expected = "max_bytes must be positive")]
    fn daemon_rejects_invalid_policy() {
        let world = SimWorld::counting();
        FlushDaemon::new(
            &world,
            FlushPolicy {
                max_flushes: 10,
                max_bytes: 0,
                max_age: None,
            },
        );
    }
}
