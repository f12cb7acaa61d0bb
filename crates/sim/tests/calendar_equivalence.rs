//! Property: the calendar (bucket-ring) event queue is observationally
//! identical to the binary-heap queue it replaced.
//!
//! A reference model — the old `BinaryHeap` implementation, kept here
//! in miniature — is driven side by side with [`EventQueue`] under
//! randomized operation streams: pushes with same-tick ties, sub-bucket
//! orderings and far-future times past the ring horizon, pops and peeks
//! interleaved. Every observable — pop order `(time, payload)`, peeked
//! times, lengths — must match exactly, which is the executable form of
//! the golden-trace argument: swapping the queue cannot perturb any
//! simulation. Every push carries a distinct payload, so matching
//! payloads means matching push order within a tie.

use amoeba_sim::{EventQueue, SimTime};
use proptest::prelude::*;
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// The pre-calendar implementation, reduced to its observable API: a
/// min-heap on `(time, seq)`, where `seq` counts pushes.
struct HeapQueue<E> {
    heap: BinaryHeap<HeapEntry<E>>,
    next_seq: u64,
}

struct HeapEntry<E> {
    time: SimTime,
    seq: u64,
    payload: E,
}

impl<E> PartialEq for HeapEntry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}
impl<E> Eq for HeapEntry<E> {}
impl<E> Ord for HeapEntry<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        other
            .time
            .cmp(&self.time)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}
impl<E> PartialOrd for HeapEntry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<E> HeapQueue<E> {
    fn new() -> Self {
        HeapQueue {
            heap: BinaryHeap::new(),
            next_seq: 0,
        }
    }

    fn push(&mut self, time: SimTime, payload: E) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(HeapEntry { time, seq, payload });
    }

    fn pop(&mut self) -> Option<(SimTime, E)> {
        self.heap.pop().map(|e| (e.time, e.payload))
    }

    fn peek_time(&self) -> Option<SimTime> {
        self.heap.peek().map(|e| e.time)
    }

    fn len(&self) -> usize {
        self.heap.len()
    }
}

/// One step of the randomized schedule.
#[derive(Debug, Clone)]
enum Op {
    /// Push at an offset (µs) from the largest time pushed so far.
    /// Small offsets generate same-bucket and same-tick collisions;
    /// zero is an exact tie.
    Push(u32),
    /// Push far past the ring horizon (> 2048 × 16.4 ms ≈ 33.6 s).
    PushFar(u32),
    Pop,
    Peek,
}

/// Decode a generated `(tag, value)` pair into a weighted op: pushes
/// dominate, with far-pushes, pops and peeks mixed in.
fn decode(tag: u8, value: u32) -> Op {
    match tag % 11 {
        0..=4 => Op::Push(value % 5_000),
        5 => Op::PushFar(value % 100_000),
        6..=8 => Op::Pop,
        _ => Op::Peek,
    }
}

fn run_schedule(ops: &[Op]) {
    let mut calendar: EventQueue<u64> = EventQueue::new();
    let mut heap: HeapQueue<u64> = HeapQueue::new();
    let mut horizon = SimTime::ZERO;
    let mut payload = 0u64;

    for op in ops {
        match op {
            Op::Push(delta) | Op::PushFar(delta) => {
                let base = if matches!(op, Op::PushFar(_)) {
                    // Past the 2048-bucket × 2^14 µs ring span.
                    horizon + amoeba_sim::SimDuration::from_secs(40)
                } else {
                    horizon
                };
                let t = base + amoeba_sim::SimDuration::from_micros(u64::from(*delta));
                if matches!(op, Op::Push(_)) {
                    horizon = horizon.max(t);
                }
                calendar.push(t, payload);
                heap.push(t, payload);
                payload += 1;
            }
            Op::Pop => {
                let got = calendar.pop().map(|e| (e.time, e.payload));
                assert_eq!(got, heap.pop());
            }
            Op::Peek => {
                assert_eq!(calendar.peek_time(), heap.peek_time());
            }
        }
        assert_eq!(calendar.len(), heap.len());
        assert_eq!(calendar.is_empty(), heap.len() == 0);
    }

    // Drain both: the full remaining order must agree.
    loop {
        let got = calendar.pop().map(|e| (e.time, e.payload));
        let want = heap.pop();
        assert_eq!(got, want);
        if got.is_none() {
            break;
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Randomized interleavings of push / far-push / pop / peek
    /// observe identical behaviour from both queues.
    #[test]
    fn calendar_matches_binary_heap(
        raw in proptest::collection::vec((0u8..11, 0u32..1_000_000), 1..200),
    ) {
        let ops: Vec<Op> = raw.into_iter().map(|(t, v)| decode(t, v)).collect();
        run_schedule(&ops);
    }
}

/// A fixed adversarial schedule: a burst of exact same-tick ties, a
/// far-future stray, then pop/push interleaving across the tie group —
/// the cases the randomized generator hits only probabilistically.
#[test]
fn same_tick_burst_with_far_future_stray() {
    let ops: Vec<Op> = std::iter::repeat_n(Op::Push(0), 20)
        .chain([Op::PushFar(7), Op::Pop, Op::Push(0), Op::Peek])
        .chain(std::iter::repeat_n(Op::Pop, 25))
        .collect();
    run_schedule(&ops);
}
