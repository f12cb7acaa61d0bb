//! Deterministically ordered event calendar.
//!
//! Events scheduled for the same instant pop in the order they were
//! pushed, so a simulation run is a pure function of its inputs and seed.
//!
//! The queue is a calendar (bucket ring) keyed on the discrete microsecond
//! grid rather than a binary heap: each bucket covers `2^BUCKET_SHIFT` µs
//! and holds its events in ascending time order, ties in push order, so
//! the hot path — push at `now + δ`, pop the front of the cursor's
//! bucket — is O(1) with no heap sift. Events past the ring's horizon
//! stay in their modulo slot and are filtered by an absolute-bucket lap
//! check; a full fruitless lap makes the cursor jump straight to the
//! earliest occupied bucket, so a sparse calendar never degenerates into
//! a linear scan per pop.

use crate::time::SimTime;
use std::collections::VecDeque;

/// Bucket width: `2^BUCKET_SHIFT` microseconds (≈16.4 ms).
const BUCKET_SHIFT: u32 = 14;
/// Number of buckets in the ring. Together with the width this spans a
/// ≈33.6 s horizon; later events wrap and are lap-checked.
const RING: usize = 2048;
const RING_MASK: u64 = (RING as u64) - 1;

/// An event on the calendar: when it fires and the caller-defined
/// payload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScheduledEvent<E> {
    /// The instant the event fires.
    pub time: SimTime,
    /// The caller-defined payload.
    pub payload: E,
}

/// Absolute bucket index of `time` on the tick grid (not yet masked to
/// the ring).
fn abs_bucket(time: SimTime) -> u64 {
    time.as_micros() >> BUCKET_SHIFT
}

/// A priority queue of future events.
///
/// # Examples
///
/// ```
/// use amoeba_sim::{EventQueue, SimTime};
///
/// let mut q = EventQueue::new();
/// q.push(SimTime::from_secs(2), "later");
/// q.push(SimTime::from_secs(1), "first");
/// q.push(SimTime::from_secs(1), "second");
/// assert_eq!(q.pop().unwrap().payload, "first");
/// assert_eq!(q.pop().unwrap().payload, "second");
/// assert_eq!(q.pop().unwrap().payload, "later");
/// ```
pub struct EventQueue<E> {
    /// The bucket ring. Each bucket holds events whose absolute bucket
    /// index is congruent to its slot, in ascending time order with ties
    /// in push order.
    ring: Vec<VecDeque<ScheduledEvent<E>>>,
    /// Absolute bucket index the cursor is currently draining. Invariant:
    /// no event's absolute index is below this (pushes into the past
    /// rewind it).
    cur_abs: u64,
    /// Pending events.
    len: usize,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// An empty calendar.
    pub fn new() -> Self {
        EventQueue {
            ring: (0..RING).map(|_| VecDeque::new()).collect(),
            cur_abs: 0,
            len: 0,
        }
    }

    /// Schedule `payload` to fire at `time`, after every event already
    /// scheduled at or before `time`.
    pub fn push(&mut self, time: SimTime, payload: E) {
        let abs = abs_bucket(time);
        // Scheduling before the cursor (never done by the runtime, but
        // legal) rewinds it so the event is still reachable.
        if abs < self.cur_abs {
            self.cur_abs = abs;
        }
        let bucket = &mut self.ring[(abs & RING_MASK) as usize];
        let event = ScheduledEvent { time, payload };
        // Landing after every event at or before `time` keeps ties in
        // push order. Pushes arrive in roughly ascending time, so the
        // common case is a plain append.
        match bucket.back() {
            Some(last) if last.time > time => {
                let at = bucket.partition_point(|e| e.time <= time);
                bucket.insert(at, event);
            }
            _ => bucket.push_back(event),
        }
        self.len += 1;
    }

    /// Advance the cursor until the front of its bucket is scheduled for
    /// the current absolute bucket — the earliest pending event. Returns
    /// `false` when no events remain.
    fn settle(&mut self) -> bool {
        if self.len == 0 {
            return false;
        }
        let mut steps = 0usize;
        loop {
            // A front from a later lap leaves the bucket parked until the
            // cursor comes back around.
            let bucket = &self.ring[(self.cur_abs & RING_MASK) as usize];
            if matches!(bucket.front(), Some(front) if abs_bucket(front.time) == self.cur_abs) {
                return true;
            }
            self.cur_abs += 1;
            steps += 1;
            if steps >= RING {
                // A full fruitless lap: everything left is beyond the
                // ring's horizon. Jump straight to the earliest bucket.
                steps = 0;
                self.cur_abs = self.min_front_abs();
            }
        }
    }

    /// The smallest absolute bucket index over all pending events. Only
    /// called while `len > 0`.
    fn min_front_abs(&self) -> u64 {
        self.ring
            .iter()
            .filter_map(|b| b.front())
            .map(|e| abs_bucket(e.time))
            .min()
            .expect("min_front_abs on an empty calendar")
    }

    /// Remove and return the earliest pending event.
    pub fn pop(&mut self) -> Option<ScheduledEvent<E>> {
        if !self.settle() {
            return None;
        }
        self.len -= 1;
        self.ring[(self.cur_abs & RING_MASK) as usize].pop_front()
    }

    /// The firing time of the earliest pending event, if any.
    ///
    /// Takes `&mut self` to position the cursor as it looks — amortised
    /// O(1) per call, which the epoch-sliced runtime relies on (it peeks
    /// before every pop).
    pub fn peek_time(&mut self) -> Option<SimTime> {
        if !self.settle() {
            return None;
        }
        self.ring[(self.cur_abs & RING_MASK) as usize]
            .front()
            .map(|e| e.time)
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when no events are pending.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::SimDuration;

    fn t(s: u64) -> SimTime {
        SimTime::from_secs(s)
    }

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.push(t(3), "c");
        q.push(t(1), "a");
        q.push(t(2), "b");
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|e| e.payload).collect();
        assert_eq!(order, ["a", "b", "c"]);
    }

    #[test]
    fn same_time_is_fifo() {
        let mut q = EventQueue::new();
        for i in 0..100 {
            q.push(t(5), i);
        }
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|e| e.payload).collect();
        assert_eq!(order, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn len_tracks_live_events() {
        let mut q = EventQueue::new();
        assert!(q.is_empty());
        for i in 0..10 {
            q.push(t(i), i);
        }
        assert_eq!(q.len(), 10);
        assert_eq!(q.peek_time(), Some(t(0)));
        assert_eq!(q.len(), 10, "peeking removes nothing");
        let mut popped = 0;
        while q.pop().is_some() {
            popped += 1;
            assert_eq!(q.len(), 10 - popped);
        }
        assert_eq!(popped, 10);
        assert!(q.is_empty());
    }

    #[test]
    fn interleaved_push_pop_stays_ordered() {
        let mut q = EventQueue::new();
        let mut now = SimTime::ZERO;
        q.push(t(1), 1u64);
        q.push(t(5), 5);
        let mut seen = Vec::new();
        while let Some(ev) = q.pop() {
            assert!(ev.time >= now, "time went backwards");
            now = ev.time;
            seen.push(ev.payload);
            if ev.payload == 1 {
                // Schedule both before and after the remaining event.
                q.push(t(3), 3);
                q.push(t(9), 9);
            }
        }
        assert_eq!(seen, [1, 3, 5, 9]);
    }

    #[test]
    fn same_bucket_sub_tick_times_stay_ordered() {
        // Distinct times inside one bucket (< 2^BUCKET_SHIFT µs apart)
        // must still pop by time, not insertion order, and an
        // out-of-order push lands after an equal time already there.
        let mut q = EventQueue::new();
        q.push(SimTime::from_micros(900), "d");
        q.push(SimTime::from_micros(100), "a");
        q.push(SimTime::from_micros(500), "b");
        q.push(SimTime::from_micros(500), "c");
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|e| e.payload).collect();
        assert_eq!(order, ["a", "b", "c", "d"]);
    }

    #[test]
    fn far_future_beyond_ring_horizon() {
        // Two events a ring-lap apart land in nearby modulo slots; the
        // lap check must keep the later one parked.
        let mut q = EventQueue::new();
        let lap = SimDuration::from_micros((RING as u64) << BUCKET_SHIFT);
        let near = SimTime::from_micros(10);
        let far = near + lap + SimDuration::from_micros(3);
        q.push(far, "far");
        q.push(near, "near");
        assert_eq!(q.pop().unwrap().payload, "near");
        assert_eq!(q.peek_time(), Some(far));
        assert_eq!(q.pop().unwrap().payload, "far");
        assert!(q.pop().is_none());
    }

    #[test]
    fn push_before_cursor_rewinds() {
        let mut q = EventQueue::new();
        q.push(t(100), "late");
        assert_eq!(q.pop().unwrap().payload, "late");
        // The cursor now sits at t=100's bucket; a push into the past
        // must still be reachable, and in order.
        q.push(t(1), "early");
        q.push(t(50), "mid");
        assert_eq!(q.pop().unwrap().payload, "early");
        assert_eq!(q.pop().unwrap().payload, "mid");
    }
}
