//! The binary-heap reference backend for the event queue.
//!
//! This is the pre-ladder `EventQueue` storage, retained verbatim as the
//! trusted oracle: the differential proptest in `tests/proptests.rs`
//! replays arbitrary push/pop interleavings against both backends
//! and requires identical `Fired` streams, and `--features heap-queue`
//! swaps it back in as the default so any suspected ladder bug can be
//! bisected against golden fingerprints in one rebuild. It is *not* a
//! performance path — O(log n) sifts over hundreds of thousands of
//! pending entries are exactly what [`crate::ladder`] exists to avoid.

use std::cmp::Ordering;
// peas-lint: allow(d5-heap-event-queue) -- this module IS the heap reference implementation
use std::collections::BinaryHeap;

use crate::event::QueueCore;

struct Entry<E> {
    time: u64,
    seq: u64,
    payload: E,
}

// Order entries so that the heap (a max-heap) pops the earliest time first,
// breaking ties by insertion order.
impl<E> PartialEq for Entry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}
impl<E> Eq for Entry<E> {}
impl<E> PartialOrd for Entry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl<E> Ord for Entry<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reversed: earliest (time, seq) is the "greatest" for BinaryHeap.
        other
            .time
            .cmp(&self.time)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// Binary-heap storage backend for the [`crate::event::EventQueue`]
/// facade; the reference implementation the ladder queue is verified
/// against.
pub struct HeapCore<E> {
    // peas-lint: allow(d5-heap-event-queue) -- this field IS the heap reference implementation
    heap: BinaryHeap<Entry<E>>,
}

impl<E> Default for HeapCore<E> {
    fn default() -> Self {
        HeapCore {
            // peas-lint: allow(d5-heap-event-queue) -- this constructor IS the heap reference implementation
            heap: BinaryHeap::new(),
        }
    }
}

impl<E> QueueCore<E> for HeapCore<E> {
    fn push(&mut self, time: u64, seq: u64, payload: E) {
        self.heap.push(Entry { time, seq, payload });
    }

    fn pop(&mut self) -> Option<(u64, u64, E)> {
        self.heap.pop().map(|e| (e.time, e.seq, e.payload))
    }

    fn peek_key(&mut self) -> Option<(u64, u64)> {
        self.heap.peek().map(|e| (e.time, e.seq))
    }

    fn clear(&mut self) {
        self.heap.clear();
    }

    fn memory_bytes(&self) -> usize {
        self.heap.capacity() * std::mem::size_of::<Entry<E>>()
    }
}
