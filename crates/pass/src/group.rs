//! Group-commit flushing: coalesce pending [`FileFlush`]es and drain
//! them in batches.
//!
//! The paper's cost argument is that provenance must reach the cloud in
//! as few billable round trips as possible. The storage backends expose
//! batch APIs (`BatchPutAttributes`, `SendMessageBatch`, multi-object
//! delete), but PASS produces flushes one `close()` at a time — so the
//! front end needs a place where consecutive closes *coalesce* before
//! they ship. [`GroupCommitFlusher`] is that place: `submit` buffers a
//! flush and hands back a full group the moment a count or byte
//! threshold trips, or the oldest pending flush has waited out the
//! policy's `max_age`; the caller (the cloud layer's `persist_batch` and
//! `drive_pipelined`, or the bench harness) pushes each group through
//! the batch APIs in one round trip per service.
//!
//! The flusher is deliberately backend-agnostic: it owns the
//! *when-to-drain* policy only, never a service handle or a clock. The
//! caller passes `now`; an age deadline is one instant the flusher
//! holds, so the same buffering drives every architecture — and tests
//! can pin the policy without a cloud in sight.

use serde::{Deserialize, Serialize};
use simworld::{SimDuration, SimInstant};

use crate::flush::FileFlush;

/// When a [`GroupCommitFlusher`] drains: whichever threshold trips
/// first. The optional [`FlushPolicy::max_age`] deadline bounds flush
/// *latency* as well as group size.
///
/// # Examples
///
/// ```
/// use pass::FlushPolicy;
///
/// let policy = FlushPolicy::default();
/// assert_eq!(policy.max_flushes, 25); // one SimpleDB batch per drain
/// ```
#[derive(Copy, Clone, PartialEq, Eq, Debug, Serialize, Deserialize)]
pub struct FlushPolicy {
    /// Drain once this many flushes are pending. The default matches
    /// SimpleDB's 25-item batch limit, so one drain is (at most) one
    /// `BatchPutAttributes` call on Architecture 2. Must be positive.
    pub max_flushes: usize,
    /// Drain once the pending flushes' data + provenance bytes reach
    /// this. Keeps a group of large files from holding many megabytes
    /// in memory waiting for the count threshold. Must be positive.
    pub max_bytes: u64,
    /// Drain once the oldest pending flush has waited this long, even
    /// if neither size threshold tripped. `None` disables the deadline
    /// (drain on size thresholds only); when set, it must be positive
    /// (a zero age would flush every submit, defeating coalescing).
    pub max_age: Option<SimDuration>,
}

impl Default for FlushPolicy {
    fn default() -> Self {
        FlushPolicy {
            max_flushes: 25,
            max_bytes: 4 * 1024 * 1024,
            max_age: Some(SimDuration::from_millis(500)),
        }
    }
}

impl FlushPolicy {
    /// A validated policy. Prefer this over a struct literal: a zero
    /// count threshold would otherwise drain on every submit (or, with
    /// a careless `>` comparison, never) and a zero byte threshold
    /// likewise — silently. `max_age` starts as the default deadline;
    /// adjust with [`FlushPolicy::with_max_age`] /
    /// [`FlushPolicy::without_max_age`].
    ///
    /// # Panics
    ///
    /// Panics if `max_flushes` or `max_bytes` is zero.
    pub fn new(max_flushes: usize, max_bytes: u64) -> FlushPolicy {
        let policy = FlushPolicy {
            max_flushes,
            max_bytes,
            ..FlushPolicy::default()
        };
        policy.assert_valid();
        policy
    }

    /// A policy that drains after exactly `n` flushes (bytes unbounded,
    /// no age deadline) — the knob the batch-size sweeps turn.
    pub fn every(n: usize) -> FlushPolicy {
        FlushPolicy {
            max_flushes: n.max(1),
            max_bytes: u64::MAX,
            max_age: None,
        }
    }

    /// Replaces the age deadline.
    ///
    /// # Panics
    ///
    /// Panics if `age` is zero (that would flush every submit).
    pub fn with_max_age(mut self, age: SimDuration) -> FlushPolicy {
        self.max_age = Some(age);
        self.assert_valid();
        self
    }

    /// Removes the age deadline (size thresholds only).
    pub fn without_max_age(mut self) -> FlushPolicy {
        self.max_age = None;
        self
    }

    /// Panics when a threshold is degenerate. Called by
    /// [`GroupCommitFlusher::new`], so a zero threshold smuggled in
    /// through a struct literal is rejected at construction instead of
    /// silently flushing every submit or never.
    ///
    /// # Panics
    ///
    /// Panics if `max_flushes`, `max_bytes`, or a present `max_age` is
    /// zero.
    pub fn assert_valid(&self) {
        assert!(
            self.max_flushes > 0,
            "FlushPolicy.max_flushes must be positive (a zero count would flush every submit)"
        );
        assert!(
            self.max_bytes > 0,
            "FlushPolicy.max_bytes must be positive (a zero byte bound would flush every submit)"
        );
        if let Some(age) = self.max_age {
            assert!(
                age > SimDuration::ZERO,
                "FlushPolicy.max_age must be positive when set (a zero age would flush every submit)"
            );
        }
    }
}

/// Coalesces pending flushes into drain-ready groups: a group drains on
/// a count/byte threshold **or** once the oldest pending flush has
/// waited [`FlushPolicy::max_age`] by the `now` the caller passes.
///
/// # Examples
///
/// ```
/// use pass::{FileFlush, FlushPolicy, GroupCommitFlusher};
/// use simworld::{Blob, SimInstant};
///
/// let t0 = SimInstant::EPOCH;
/// let mut flusher = GroupCommitFlusher::new(FlushPolicy::every(2));
/// let a = FileFlush::builder("a").data(Blob::from("1")).build();
/// let b = FileFlush::builder("b").data(Blob::from("2")).build();
/// assert!(flusher.submit(a, t0).is_empty()); // buffered
/// let due = flusher.submit(b, t0); // the second flush trips the policy
/// assert_eq!(due.len(), 1);
/// assert_eq!(due[0].len(), 2);
/// assert_eq!(flusher.pending(), 0);
/// ```
#[derive(Clone, Debug)]
pub struct GroupCommitFlusher {
    policy: FlushPolicy,
    pending: Vec<FileFlush>,
    pending_bytes: u64,
    /// When the oldest pending flush has waited out `max_age`: set as
    /// the buffer goes non-empty, cleared by every drain.
    deadline: Option<SimInstant>,
    timer_drains: u64,
}

impl GroupCommitFlusher {
    /// An empty flusher with the given policy.
    ///
    /// # Panics
    ///
    /// Panics if the policy has a zero threshold (see
    /// [`FlushPolicy::assert_valid`]).
    pub fn new(policy: FlushPolicy) -> GroupCommitFlusher {
        policy.assert_valid();
        GroupCommitFlusher {
            policy,
            pending: Vec::new(),
            pending_bytes: 0,
            deadline: None,
            timer_drains: 0,
        }
    }

    /// The active policy.
    pub fn policy(&self) -> FlushPolicy {
        self.policy
    }

    /// Flushes currently buffered.
    pub fn pending(&self) -> usize {
        self.pending.len()
    }

    /// Data + provenance bytes currently buffered.
    pub fn pending_bytes(&self) -> u64 {
        self.pending_bytes
    }

    /// When the pending group drains by age, if the policy has a
    /// deadline and something is buffered.
    pub fn deadline(&self) -> Option<SimInstant> {
        self.deadline
    }

    /// Groups drained because their deadline passed rather than a size
    /// threshold tripped.
    pub fn timer_drains(&self) -> u64 {
        self.timer_drains
    }

    /// Buffers one flush at `now` and returns every group that is now
    /// due, in submission order: first the pending group if its
    /// deadline passed before this flush arrived, then the group this
    /// flush completes if it trips a threshold. Usually zero or one
    /// group; the caller must persist each (they are no longer
    /// buffered). Durability therefore lags `close()` by at most one
    /// group: a client crash loses only the un-drained tail, which is
    /// the same window a crash between point persists already had.
    #[must_use = "returned groups are no longer buffered; they must be persisted"]
    pub fn submit(&mut self, flush: FileFlush, now: SimInstant) -> Vec<Vec<FileFlush>> {
        let mut due: Vec<Vec<FileFlush>> = self.poll(now).into_iter().collect();
        if self.pending.is_empty() {
            // The deadline tracks the *oldest* pending flush.
            self.deadline = self.policy.max_age.map(|age| now + age);
        }
        self.pending_bytes += flush.data.len() + flush.provenance_bytes();
        self.pending.push(flush);
        if self.pending.len() >= self.policy.max_flushes
            || self.pending_bytes >= self.policy.max_bytes
        {
            due.push(self.drain());
        }
        due
    }

    /// Returns the pending group when the oldest buffered flush has
    /// waited past [`FlushPolicy::max_age`] at `now`. Call between
    /// submissions (or from an idle loop) to bound flush latency.
    ///
    /// # Examples
    ///
    /// ```
    /// use pass::{FileFlush, FlushPolicy, GroupCommitFlusher};
    /// use simworld::{Blob, SimDuration, SimInstant};
    ///
    /// let t0 = SimInstant::EPOCH;
    /// let policy = FlushPolicy::new(100, u64::MAX).with_max_age(SimDuration::from_millis(500));
    /// let mut flusher = GroupCommitFlusher::new(policy);
    /// let flush = FileFlush::builder("a").data(Blob::from("1")).build();
    /// assert!(flusher.submit(flush, t0).is_empty()); // buffered, deadline set
    /// let group = flusher
    ///     .poll(t0 + SimDuration::from_secs(1))
    ///     .expect("deadline passed: the group drains");
    /// assert_eq!(group.len(), 1);
    /// ```
    #[must_use = "a returned group is no longer buffered; it must be persisted"]
    pub fn poll(&mut self, now: SimInstant) -> Option<Vec<FileFlush>> {
        if self.deadline? > now {
            return None;
        }
        self.timer_drains += 1;
        Some(self.drain())
    }

    /// Hands back everything buffered (possibly empty) and clears the
    /// deadline — the shutdown / sync path, and the tail of every run.
    pub fn drain(&mut self) -> Vec<FileFlush> {
        self.deadline = None;
        self.pending_bytes = 0;
        std::mem::take(&mut self.pending)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simworld::Blob;

    const T0: SimInstant = SimInstant::EPOCH;

    fn flush_of(name: &str, bytes: u64) -> FileFlush {
        FileFlush::builder(name)
            .data(Blob::synthetic(1, bytes))
            .record("input", "seed:1")
            .build()
    }

    fn at_ms(ms: u64) -> SimInstant {
        T0 + SimDuration::from_millis(ms)
    }

    fn policy(max_flushes: usize, age_ms: u64) -> FlushPolicy {
        FlushPolicy::new(max_flushes, u64::MAX).with_max_age(SimDuration::from_millis(age_ms))
    }

    #[test]
    fn count_threshold_trips_in_submission_order() {
        let mut f = GroupCommitFlusher::new(FlushPolicy::every(3));
        assert!(f.submit(flush_of("a", 10), T0).is_empty());
        assert!(f.submit(flush_of("b", 10), T0).is_empty());
        assert_eq!(f.pending(), 2);
        let due = f.submit(flush_of("c", 10), T0);
        let names: Vec<&str> = due[0].iter().map(|g| g.object.name.as_str()).collect();
        assert_eq!(names, vec!["a", "b", "c"]);
        assert_eq!(f.pending(), 0);
        assert_eq!(f.pending_bytes(), 0);
    }

    #[test]
    fn byte_threshold_trips_before_count() {
        let mut f = GroupCommitFlusher::new(FlushPolicy::new(100, 1000));
        assert!(f.submit(flush_of("small", 10), T0).is_empty());
        let due = f.submit(flush_of("big", 2000), T0);
        assert_eq!(due[0].len(), 2, "the oversized flush drains immediately");
    }

    #[test]
    fn pending_bytes_counts_data_and_provenance() {
        let mut f = GroupCommitFlusher::new(FlushPolicy::every(10));
        let flush = flush_of("x", 100);
        let expected = flush.data.len() + flush.provenance_bytes();
        assert!(f.submit(flush, T0).is_empty());
        assert_eq!(f.pending_bytes(), expected);
    }

    #[test]
    fn drain_empties_and_is_idempotent() {
        let mut f = GroupCommitFlusher::new(FlushPolicy::default());
        assert!(f.submit(flush_of("a", 10), T0).is_empty());
        assert_eq!(f.drain().len(), 1);
        assert!(f.drain().is_empty());
    }

    #[test]
    fn every_clamps_to_one() {
        let mut f = GroupCommitFlusher::new(FlushPolicy::every(0));
        let due = f.submit(flush_of("a", 1), T0);
        assert_eq!(
            due.iter().map(Vec::len).collect::<Vec<_>>(),
            [1],
            "degenerate policy degrades to point flushing, never to stalling"
        );
    }

    #[test]
    fn count_threshold_still_drains_eagerly() {
        let mut d = GroupCommitFlusher::new(policy(2, 1_000));
        assert!(d.submit(flush_of("a", 1), T0).is_empty());
        let due = d.submit(flush_of("b", 1), T0);
        assert_eq!(due.len(), 1);
        assert_eq!(due[0].len(), 2);
        assert_eq!(d.pending(), 0);
        assert_eq!(d.timer_drains(), 0);
        assert!(d.deadline().is_none(), "drain disarms the timer");
    }

    #[test]
    fn deadline_drains_a_small_group() {
        let mut d = GroupCommitFlusher::new(policy(100, 500));
        assert!(d.submit(flush_of("a", 1), T0).is_empty());
        assert!(d.poll(T0).is_none(), "deadline not reached yet");
        let group = d.poll(at_ms(501)).expect("deadline passed");
        assert_eq!(group.len(), 1);
        assert_eq!(d.timer_drains(), 1);
        assert!(d.poll(at_ms(501)).is_none(), "nothing left to drain");
    }

    #[test]
    fn deadline_tracks_the_oldest_pending_flush() {
        let mut d = GroupCommitFlusher::new(policy(100, 500));
        let _ = d.submit(flush_of("a", 1), T0);
        let deadline = d.deadline().expect("timer armed on first flush");
        let _ = d.submit(flush_of("b", 1), at_ms(400));
        assert_eq!(
            d.deadline(),
            Some(deadline),
            "a second flush must not push the first one's deadline out"
        );
        assert_eq!(d.poll(at_ms(501)).map(|g| g.len()), Some(2));
    }

    #[test]
    fn submit_after_expiry_returns_old_group_then_buffers() {
        let mut d = GroupCommitFlusher::new(policy(100, 500));
        let _ = d.submit(flush_of("a", 1), T0);
        // The deadline passed while the client was away: the stale group
        // drains before the new flush is buffered.
        let due = d.submit(flush_of("b", 1), at_ms(1_000));
        assert_eq!(due.len(), 1);
        assert_eq!(due[0][0].object.name, "a");
        assert_eq!(d.pending(), 1, "the new flush is buffered afresh");
        assert!(d.deadline().is_some(), "with a fresh deadline");
    }

    #[test]
    fn explicit_drain_disarms_and_empties() {
        let mut d = GroupCommitFlusher::new(policy(100, 500));
        let _ = d.submit(flush_of("a", 1), T0);
        assert_eq!(d.drain().len(), 1);
        assert!(d.deadline().is_none());
        assert!(
            d.poll(at_ms(5_000)).is_none(),
            "no ghost deadline after an explicit drain"
        );
    }

    #[test]
    fn byte_threshold_drains_under_a_deadline() {
        let mut d = GroupCommitFlusher::new(
            FlushPolicy::new(100, 1000).with_max_age(SimDuration::from_secs(10)),
        );
        assert!(d.submit(flush_of("small", 10), T0).is_empty());
        let due = d.submit(flush_of("big", 2000), T0);
        assert_eq!(due.len(), 1);
        assert_eq!(due[0].len(), 2);
    }

    #[test]
    fn no_max_age_means_no_deadline() {
        let mut d = GroupCommitFlusher::new(FlushPolicy::every(100));
        let _ = d.submit(flush_of("a", 1), T0);
        assert!(d.deadline().is_none());
        let a_day = T0 + SimDuration::from_days(1);
        assert!(d.poll(a_day).is_none(), "size thresholds only");
        assert_eq!(d.pending(), 1);
    }

    #[test]
    #[should_panic(expected = "max_flushes must be positive")]
    fn zero_count_threshold_is_rejected_at_construction() {
        FlushPolicy::new(0, 1024);
    }

    #[test]
    #[should_panic(expected = "max_bytes must be positive")]
    fn zero_byte_threshold_is_rejected_at_construction() {
        FlushPolicy::new(10, 0);
    }

    #[test]
    #[should_panic(expected = "max_age must be positive")]
    fn zero_age_deadline_is_rejected() {
        FlushPolicy::new(10, 1024).with_max_age(SimDuration::ZERO);
    }

    #[test]
    #[should_panic(expected = "max_flushes must be positive")]
    fn flusher_rejects_a_smuggled_zero_policy() {
        // A struct literal can bypass FlushPolicy::new; the flusher
        // still refuses it.
        GroupCommitFlusher::new(FlushPolicy {
            max_flushes: 0,
            max_bytes: 1024,
            max_age: None,
        });
    }

    #[test]
    #[should_panic(expected = "max_bytes must be positive")]
    fn flusher_rejects_a_smuggled_zero_byte_policy() {
        GroupCommitFlusher::new(FlushPolicy {
            max_flushes: 10,
            max_bytes: 0,
            max_age: None,
        });
    }

    #[test]
    fn max_age_builders_round_trip() {
        let p = FlushPolicy::new(10, 1024);
        assert_eq!(p.max_age, FlushPolicy::default().max_age);
        let aged = p.with_max_age(SimDuration::from_secs(2));
        assert_eq!(aged.max_age, Some(SimDuration::from_secs(2)));
        assert_eq!(aged.without_max_age().max_age, None);
        assert_eq!(FlushPolicy::every(5).max_age, None);
    }
}
