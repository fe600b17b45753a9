//! The event-driven completion scheduler.
//!
//! Serial virtual-time accounting ("advance the clock by each request's
//! latency") cannot express *overlap*: a pipelined client has several
//! requests in flight at once, and the clock must follow the event
//! order of their completions, not the sum of their latencies. The
//! [`Scheduler`] is the substrate for that: a deterministic event queue
//! of request completions keyed by [`SimInstant`] and tie-broken by a
//! monotonically increasing sequence number, so two completions at the
//! same instant always fire in the order they were scheduled — on every
//! run of the same seed. [`crate::SimWorld`] is its one user.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use crate::clock::SimInstant;
use crate::metering::Op;

/// What a scheduled event was about.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub enum SchedEvent {
    /// An in-flight request of the given kind completed.
    Completion(Op),
}

/// One fired event, as recorded in the deterministic event trace
/// (see [`crate::SimWorld::set_event_trace`]).
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub struct FiredEvent {
    /// When the event fired.
    pub at: SimInstant,
    /// Its scheduler sequence number (global issue order).
    pub seq: u64,
    /// What it was.
    pub event: SchedEvent,
}

#[derive(Copy, Clone, PartialEq, Eq, Debug)]
struct Entry {
    at: SimInstant,
    seq: u64,
    event: SchedEvent,
}

impl Ord for Entry {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.at, self.seq).cmp(&(other.at, other.seq))
    }
}

impl PartialOrd for Entry {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

/// A deterministic event queue: min-ordered by `(instant, seq)`.
#[derive(Debug, Default)]
pub(crate) struct Scheduler {
    heap: BinaryHeap<Reverse<Entry>>,
    next_seq: u64,
}

impl Scheduler {
    /// Schedules `event` at `at`; returns its sequence number. Sequence
    /// numbers increase in call order and break ties between events
    /// scheduled for the same instant.
    pub(crate) fn schedule(&mut self, at: SimInstant, event: SchedEvent) -> u64 {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(Reverse(Entry { at, seq, event }));
        seq
    }

    /// Pops the earliest event with `at <= now`, in `(at, seq)` order.
    pub(crate) fn pop_due(&mut self, now: SimInstant) -> Option<FiredEvent> {
        match self.heap.peek() {
            Some(Reverse(e)) if e.at <= now => {
                let Reverse(e) = self.heap.pop().expect("peeked above");
                Some(FiredEvent {
                    at: e.at,
                    seq: e.seq,
                    event: e.event,
                })
            }
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(us: u64) -> SimInstant {
        SimInstant::from_micros(us)
    }

    const PUT: SchedEvent = SchedEvent::Completion(Op::S3Put);

    #[test]
    fn pops_in_instant_order() {
        let mut s = Scheduler::default();
        s.schedule(t(30), PUT);
        s.schedule(t(10), PUT);
        s.schedule(t(20), PUT);
        let order: Vec<u64> = std::iter::from_fn(|| s.pop_due(t(100)))
            .map(|e| e.at.as_micros())
            .collect();
        assert_eq!(order, vec![10, 20, 30]);
    }

    #[test]
    fn equal_instants_fire_in_schedule_order() {
        let mut s = Scheduler::default();
        let a = s.schedule(t(5), SchedEvent::Completion(Op::S3Put));
        let b = s.schedule(t(5), SchedEvent::Completion(Op::S3Get));
        let first = s.pop_due(t(5)).unwrap();
        let second = s.pop_due(t(5)).unwrap();
        assert_eq!((first.seq, second.seq), (a, b));
        assert_eq!(first.event, SchedEvent::Completion(Op::S3Put));
    }

    #[test]
    fn nothing_due_before_its_instant() {
        let mut s = Scheduler::default();
        s.schedule(t(50), PUT);
        assert!(s.pop_due(t(49)).is_none());
        assert!(s.pop_due(t(50)).is_some());
        assert!(s.pop_due(t(50)).is_none());
    }
}
