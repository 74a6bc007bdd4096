//! Deterministic event queue.
//!
//! The queue orders events by `(time, insertion sequence)`, so events
//! scheduled for the same instant dequeue in insertion order. That total
//! order is what makes every simulation in this workspace bit-reproducible.

use crate::time::SimTime;
use std::cmp::Ordering;
use std::collections::{BinaryHeap, VecDeque};

/// An event payload tagged with its due time and a tiebreak sequence number.
#[derive(Debug)]
struct Scheduled<E> {
    at: SimTime,
    seq: u64,
    payload: E,
}

impl<E> PartialEq for Scheduled<E> {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl<E> Eq for Scheduled<E> {}
impl<E> PartialOrd for Scheduled<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl<E> Ord for Scheduled<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; invert so the earliest event pops first.
        other
            .at
            .cmp(&self.at)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// A discrete-event priority queue.
///
/// Events live in one of two lanes. A push due no earlier than the last
/// event of the sorted FIFO *lane* is appended there in O(1); any other
/// push goes to a binary heap. Both lanes are ordered by `(time, seq)`, so
/// popping the smaller of the two fronts yields exactly the order a single
/// heap would. The split keeps a long pre-submitted arrival stream — which
/// arrives in time order — out of the heap that in-flight events sift
/// through.
///
/// # Examples
///
/// ```
/// use pulse_sim::{EventQueue, SimTime};
///
/// let mut q = EventQueue::new();
/// q.push(SimTime::from_nanos(20), "late");
/// q.push(SimTime::from_nanos(10), "early");
/// let (t, ev) = q.pop().unwrap();
/// assert_eq!((t.as_picos(), ev), (10_000, "early"));
/// ```
#[derive(Debug)]
pub struct EventQueue<E> {
    lane: VecDeque<Scheduled<E>>,
    heap: BinaryHeap<Scheduled<E>>,
    next_seq: u64,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// Creates an empty queue.
    pub fn new() -> Self {
        Self::with_capacity(0)
    }

    /// Creates an empty queue with room for `n` events before either lane
    /// reallocates. Sizing the queue to a rung's expected in-flight
    /// population up front keeps the driver loop allocation-free.
    pub fn with_capacity(n: usize) -> Self {
        EventQueue {
            lane: VecDeque::with_capacity(n),
            heap: BinaryHeap::with_capacity(n),
            next_seq: 0,
        }
    }

    /// Empties the queue and resets the tiebreak sequence, keeping both
    /// lanes' backing allocations so the queue can be reused for another
    /// run without rebuilding its storage.
    pub fn clear(&mut self) {
        self.lane.clear();
        self.heap.clear();
        self.next_seq = 0;
    }

    /// Number of events the queue can hold without reallocating, whichever
    /// lane they land in.
    pub fn capacity(&self) -> usize {
        self.lane.capacity().min(self.heap.capacity())
    }

    /// Schedules `payload` to fire at absolute time `at`.
    pub fn push(&mut self, at: SimTime, payload: E) {
        let seq = self.next_seq;
        self.next_seq += 1;
        let ev = Scheduled { at, seq, payload };
        // `seq` grows with every push, so an append due no earlier than the
        // lane's back keeps the lane sorted by `(time, seq)`.
        match self.lane.back() {
            Some(back) if at < back.at => self.heap.push(ev),
            _ => self.lane.push_back(ev),
        }
    }

    /// Whether the earliest event is the lane's front. `Scheduled`'s
    /// ordering is inverted for the max-heap, so "greater" means earlier.
    fn lane_first(&self) -> bool {
        match (self.lane.front(), self.heap.peek()) {
            (Some(l), Some(h)) => l > h,
            (l, _) => l.is_some(),
        }
    }

    /// Removes and returns the earliest event, if any.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        let s = if self.lane_first() {
            self.lane.pop_front()
        } else {
            self.heap.pop()
        };
        s.map(|s| (s.at, s.payload))
    }

    /// The due time of the earliest event without removing it.
    pub fn peek_time(&self) -> Option<SimTime> {
        let s = if self.lane_first() {
            self.lane.front()
        } else {
            self.heap.peek()
        };
        s.map(|s| s.at)
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.lane.len() + self.heap.len()
    }

    /// Whether the queue has no pending events.
    pub fn is_empty(&self) -> bool {
        self.lane.is_empty() && self.heap.is_empty()
    }
}

/// A simulation clock plus an event queue — the core driver loop state.
///
/// Components in this workspace are written as state machines whose handlers
/// return new timed events; `Driver` is the minimal harness that advances
/// the clock monotonically through them.
///
/// # Examples
///
/// ```
/// use pulse_sim::{Driver, SimTime};
///
/// let mut drv: Driver<u32> = Driver::new();
/// drv.schedule_in(SimTime::from_nanos(5), 1);
/// let mut seen = vec![];
/// while let Some(ev) = drv.next_event() {
///     seen.push((drv.now().as_picos(), ev));
/// }
/// assert_eq!(seen, vec![(5_000, 1)]);
/// ```
#[derive(Debug)]
pub struct Driver<E> {
    now: SimTime,
    queue: EventQueue<E>,
}

impl<E> Default for Driver<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> Driver<E> {
    /// Creates a driver starting at time zero.
    pub fn new() -> Self {
        Driver {
            now: SimTime::ZERO,
            queue: EventQueue::new(),
        }
    }

    /// Creates a driver starting at time zero whose queue has room for `n`
    /// events before reallocating (see [`EventQueue::with_capacity`]).
    pub fn with_capacity(n: usize) -> Self {
        Driver {
            now: SimTime::ZERO,
            queue: EventQueue::with_capacity(n),
        }
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Schedules an event at an absolute time.
    ///
    /// # Panics
    ///
    /// Panics if `at` is in the past — hardware cannot send signals backwards
    /// in time, and allowing it would silently corrupt causality.
    pub fn schedule_at(&mut self, at: SimTime, payload: E) {
        assert!(
            at >= self.now,
            "event scheduled in the past: {at} < {}",
            self.now
        );
        self.queue.push(at, payload);
    }

    /// Schedules an event `delay` after the current time.
    pub fn schedule_in(&mut self, delay: SimTime, payload: E) {
        let at = self.now + delay;
        self.queue.push(at, payload);
    }

    /// Pops the next event, advancing the clock to its due time.
    pub fn next_event(&mut self) -> Option<E> {
        let (at, ev) = self.queue.pop()?;
        debug_assert!(at >= self.now);
        self.now = at;
        Some(ev)
    }

    /// Number of pending events.
    pub fn pending(&self) -> usize {
        self.queue.len()
    }

    /// Whether no events remain.
    pub fn is_idle(&self) -> bool {
        self.queue.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_nanos(30), 'c');
        q.push(SimTime::from_nanos(10), 'a');
        q.push(SimTime::from_nanos(20), 'b');
        let order: Vec<char> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, vec!['a', 'b', 'c']);
    }

    #[test]
    fn ties_break_by_insertion_order() {
        let mut q = EventQueue::new();
        let t = SimTime::from_nanos(5);
        for i in 0..100 {
            q.push(t, i);
        }
        let order: Vec<u32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn driver_advances_monotonically() {
        let mut drv: Driver<&str> = Driver::new();
        drv.schedule_in(SimTime::from_nanos(50), "b");
        drv.schedule_in(SimTime::from_nanos(10), "a");
        assert_eq!(drv.next_event(), Some("a"));
        assert_eq!(drv.now(), SimTime::from_nanos(10));
        // Scheduling relative to the advanced clock.
        drv.schedule_in(SimTime::from_nanos(15), "c");
        assert_eq!(drv.next_event(), Some("c"));
        assert_eq!(drv.now(), SimTime::from_nanos(25));
        assert_eq!(drv.next_event(), Some("b"));
        assert_eq!(drv.now(), SimTime::from_nanos(50));
        assert!(drv.is_idle());
    }

    #[test]
    #[should_panic(expected = "scheduled in the past")]
    fn scheduling_in_the_past_panics() {
        let mut drv: Driver<u8> = Driver::new();
        drv.schedule_in(SimTime::from_nanos(10), 1);
        let _ = drv.next_event();
        drv.schedule_at(SimTime::from_nanos(5), 2);
    }

    #[test]
    fn cleared_queue_replays_identically() {
        // Property loop: across many randomized rounds, a clear()-and-reused
        // queue pops the exact (time, payload) sequence a fresh queue does —
        // same time order, same insertion-order tiebreaks — while keeping
        // its backing allocation.
        let mut rng = crate::SplitMix64::new(0x5eed_e7e7);
        let mut reused: EventQueue<u64> = EventQueue::with_capacity(64);
        for round in 0..200 {
            let n = (rng.next_u64() % 64) as usize + 1;
            // Few distinct times so same-instant ties are common.
            let pushes: Vec<(SimTime, u64)> = (0..n)
                .map(|i| (SimTime::from_nanos(rng.next_u64() % 8), i as u64))
                .collect();
            let mut fresh = EventQueue::new();
            reused.clear();
            assert!(reused.is_empty(), "round {round}: clear left events");
            let cap_before = reused.capacity();
            for &(t, p) in &pushes {
                fresh.push(t, p);
                reused.push(t, p);
            }
            assert_eq!(reused.capacity(), cap_before, "round {round}: realloc");
            loop {
                let (a, b) = (fresh.pop(), reused.pop());
                assert_eq!(a, b, "round {round}: divergent pop");
                if a.is_none() {
                    break;
                }
            }
        }
    }

    #[test]
    fn two_lane_queue_matches_a_single_heap() {
        // Property loop: each round opens with a monotone bulk prefix (the
        // pre-submitted arrival stream that fills the FIFO lane), then mixes
        // out-of-order pushes, equal-time ties, pops, peeks and length
        // checks, and a quarter of the rounds are abandoned mid-stream to
        // the next round's clear(). Every observation must match a
        // reference heap keyed on `(Reverse(time), Reverse(seq))`; each
        // payload is its push's sequence number.
        use std::cmp::Reverse;
        let mut rng = crate::SplitMix64::new(0x2_1a4e);
        let mut q: EventQueue<u64> = EventQueue::new();
        for round in 0..300 {
            let mut reference: BinaryHeap<(Reverse<SimTime>, Reverse<u64>)> = BinaryHeap::new();
            q.clear();
            let mut seq = 0u64;
            let mut now = 0u64;
            let mut push = |q: &mut EventQueue<u64>, reference: &mut BinaryHeap<_>, t: u64| {
                let at = SimTime::from_nanos(t);
                q.push(at, seq);
                reference.push((Reverse(at), Reverse(seq)));
                seq += 1;
            };
            let bulk = (rng.next_u64() % 40) as usize;
            let mut t = 0;
            for _ in 0..bulk {
                t += rng.next_u64() % 3; // zero steps make equal-time ties
                push(&mut q, &mut reference, t);
            }
            for step in 0..(rng.next_u64() % 200) {
                match rng.next_u64() % 8 {
                    0..=2 => {
                        // Out-of-order or tied relative to the lane's back:
                        // anything from the current clock on.
                        let t = now + rng.next_u64() % 16;
                        push(&mut q, &mut reference, t);
                    }
                    3 => {
                        let t = now + rng.next_u64() % 2;
                        for _ in 0..(rng.next_u64() % 5) {
                            push(&mut q, &mut reference, t);
                        }
                    }
                    4..=5 => {
                        let want = reference.pop().map(|(Reverse(at), Reverse(p))| (at, p));
                        let got = q.pop();
                        assert_eq!(got, want, "round {round} step {step}: pop");
                        if let Some((at, _)) = got {
                            now = at.as_picos() / 1000;
                        }
                    }
                    6 => {
                        let want = reference.peek().map(|&(Reverse(at), _)| at);
                        assert_eq!(q.peek_time(), want, "round {round} step {step}: peek");
                    }
                    _ => {
                        assert_eq!(q.len(), reference.len(), "round {round} step {step}: len");
                        assert_eq!(q.is_empty(), reference.is_empty());
                    }
                }
            }
            if rng.next_u64().is_multiple_of(4) {
                // Abandon the round mid-stream: clear() must forget both lanes.
                continue;
            }
            loop {
                let want = reference.pop().map(|(Reverse(at), Reverse(p))| (at, p));
                let got = q.pop();
                assert_eq!(got, want, "round {round}: drain");
                if got.is_none() {
                    break;
                }
            }
        }
    }

    #[test]
    fn with_capacity_preallocates() {
        let q: EventQueue<u8> = EventQueue::with_capacity(128);
        assert!(q.capacity() >= 128);
        assert!(q.is_empty());
        let drv: Driver<u8> = Driver::with_capacity(128);
        assert!(drv.is_idle());
        assert_eq!(drv.now(), SimTime::ZERO);
    }

    #[test]
    fn peek_does_not_remove() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_nanos(1), ());
        assert_eq!(q.peek_time(), Some(SimTime::from_nanos(1)));
        assert_eq!(q.len(), 1);
        assert!(!q.is_empty());
    }
}
