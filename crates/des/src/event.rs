//! The pending-event set.
//!
//! [`EventQueue`] is a plain priority queue over a pluggable storage
//! backend ([`QueueCore`]): by default the ladder queue ([`crate::ladder`],
//! amortized O(1) enqueue/dequeue at million-entry depth), or the
//! original binary heap ([`crate::heap_ref`]) when `peas-des` is built
//! with `--features heap-queue`. Both backends honor the same total
//! order — strictly ascending `(time, sequence)`, so events scheduled
//! for the same instant fire in schedule order — which is why swapping
//! them cannot perturb a simulation: every pop is uniquely determined.
//!
//! The queue knows nothing of liveness: every scheduled event pops
//! exactly once. A caller that revokes events stamps them with state it
//! owns and drops the stale ones when they pop, as `peas-sim`'s `World`
//! does with a generation per node and timer class.

use std::fmt;

use crate::time::SimTime;

/// Storage backend for [`EventQueue`]: a multiset of `(time, seq,
/// payload)` entries popped in strictly ascending `(time, seq)` order.
///
/// Keys are raw nanosecond timestamps plus the facade-issued dense
/// sequence number, so `(time, seq)` is unique — the pop order is a
/// *total* order and every conforming implementation yields the
/// identical stream.
pub trait QueueCore<E> {
    /// Stores one entry. `seq` values arrive dense and monotonically
    /// increasing across the queue's lifetime.
    fn push(&mut self, time: u64, seq: u64, payload: E);
    /// Removes and returns the entry with the smallest `(time, seq)`.
    fn pop(&mut self) -> Option<(u64, u64, E)>;
    /// The smallest `(time, seq)` key without removing it. Takes `&mut`
    /// because bucketed backends may need to restructure to find it.
    fn peek_key(&mut self) -> Option<(u64, u64)>;
    /// Drops all entries.
    fn clear(&mut self);
    /// Approximate heap bytes owned by the backend's storage.
    fn memory_bytes(&self) -> usize;
}

/// The backend selected at compile time: the ladder queue by default,
/// or the binary-heap reference under `--features heap-queue` (the
/// escape hatch for bisecting a suspected ladder bug against golden
/// fingerprints).
#[cfg(not(feature = "heap-queue"))]
pub type DefaultCore<E> = crate::ladder::LadderCore<E>;
/// The backend selected at compile time (heap reference: the
/// `heap-queue` feature is enabled).
#[cfg(feature = "heap-queue")]
pub type DefaultCore<E> = crate::heap_ref::HeapCore<E>;

/// [`EventQueue`] pinned to the binary-heap reference backend,
/// regardless of feature flags. Used by the differential proptests.
pub type HeapEventQueue<E> = EventQueue<E, crate::heap_ref::HeapCore<E>>;
/// [`EventQueue`] pinned to the ladder backend, regardless of feature
/// flags. Used by the differential proptests.
pub type LadderEventQueue<E> = EventQueue<E, crate::ladder::LadderCore<E>>;

/// A fired event as returned by [`EventQueue::pop`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Fired<E> {
    /// The instant the event was scheduled for.
    pub time: SimTime,
    /// The event payload.
    pub payload: E,
}

/// Priority queue of timestamped events with stable FIFO tie-breaking.
///
/// # Examples
///
/// ```
/// use peas_des::event::EventQueue;
/// use peas_des::time::SimTime;
///
/// let mut q: EventQueue<_> = EventQueue::new();
/// q.schedule(SimTime::from_secs(2), "later");
/// q.schedule(SimTime::from_secs(1), "sooner");
/// assert_eq!(q.pop().unwrap().payload, "sooner");
/// assert_eq!(q.pop().unwrap().payload, "later");
/// assert!(q.pop().is_none());
/// ```
pub struct EventQueue<E, C: QueueCore<E> = DefaultCore<E>> {
    core: C,
    next_seq: u64,
    /// Entries scheduled and not yet popped.
    len: usize,
    /// Largest `len` ever observed (queue-depth telemetry).
    high_water: usize,
    _payload: std::marker::PhantomData<E>,
}

impl<E, C: QueueCore<E> + Default> Default for EventQueue<E, C> {
    fn default() -> Self {
        EventQueue::new()
    }
}

impl<E, C: QueueCore<E> + Default> EventQueue<E, C> {
    /// Creates an empty queue.
    pub fn new() -> EventQueue<E, C> {
        EventQueue {
            core: C::default(),
            next_seq: 0,
            len: 0,
            high_water: 0,
            _payload: std::marker::PhantomData,
        }
    }
}

impl<E, C: QueueCore<E>> EventQueue<E, C> {
    /// Schedules `payload` to fire at `time`.
    ///
    /// Events for equal times fire in the order they were scheduled.
    pub fn schedule(&mut self, time: SimTime, payload: E) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.core.push(time.as_nanos(), seq, payload);
        self.len += 1;
        self.high_water = self.high_water.max(self.len);
    }

    /// Removes and returns the earliest event.
    pub fn pop(&mut self) -> Option<Fired<E>> {
        let (time, _, payload) = self.core.pop()?;
        self.len -= 1;
        Some(Fired {
            time: SimTime::from_nanos(time),
            payload,
        })
    }

    /// Removes and returns the earliest event if it fires strictly
    /// before `horizon`; `None` otherwise, with the queue untouched.
    pub fn pop_before(&mut self, horizon: SimTime) -> Option<Fired<E>> {
        let (time, _) = self.core.peek_key()?;
        if time >= horizon.as_nanos() {
            return None;
        }
        self.pop()
    }

    /// The time of the earliest event, if any.
    pub fn peek_time(&mut self) -> Option<SimTime> {
        self.core
            .peek_key()
            .map(|(time, _)| SimTime::from_nanos(time))
    }

    /// Number of events scheduled and not yet popped.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether no events remain.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Largest number of simultaneously queued events ever observed.
    /// Monotone; survives pops but not [`EventQueue::clear`].
    pub fn high_water(&self) -> usize {
        self.high_water
    }

    /// Approximate heap bytes held by the backend's storage.
    pub fn memory_bytes(&self) -> usize {
        self.core.memory_bytes()
    }

    /// Drops all events.
    pub fn clear(&mut self) {
        self.core.clear();
        self.len = 0;
        self.high_water = 0;
    }
}

impl<E, C: QueueCore<E>> fmt::Debug for EventQueue<E, C> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("EventQueue")
            .field("len", &self.len)
            .field("scheduled_total", &self.next_seq)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::SimRng;
    use crate::time::SimDuration;

    fn t(secs: u64) -> SimTime {
        SimTime::from_secs(secs)
    }

    #[test]
    fn pops_in_time_order() {
        let mut q: EventQueue<_> = EventQueue::new();
        q.schedule(t(3), 'c');
        q.schedule(t(1), 'a');
        q.schedule(t(2), 'b');
        let order: Vec<char> = std::iter::from_fn(|| q.pop().map(|f| f.payload)).collect();
        assert_eq!(order, vec!['a', 'b', 'c']);
    }

    #[test]
    fn equal_times_fire_fifo() {
        let mut q: EventQueue<_> = EventQueue::new();
        for i in 0..100 {
            q.schedule(t(5), i);
        }
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|f| f.payload)).collect();
        assert_eq!(order, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn len_counts_queued_events() {
        let mut q: EventQueue<_> = EventQueue::new();
        assert!(q.is_empty());
        q.schedule(t(1), ());
        q.schedule(t(2), ());
        assert_eq!(q.len(), 2);
        q.pop();
        assert_eq!(q.len(), 1);
        q.pop();
        assert!(q.is_empty());
    }

    #[test]
    fn clear_empties_queue() {
        let mut q: EventQueue<_> = EventQueue::new();
        q.schedule(t(1), ());
        q.schedule(t(2), ());
        q.clear();
        assert!(q.is_empty());
        assert!(q.pop().is_none());
    }

    #[test]
    fn fired_reports_schedule_time() {
        let mut q: EventQueue<_> = EventQueue::new();
        q.schedule(t(7), 42);
        let fired = q.pop().unwrap();
        assert_eq!(fired.time, t(7));
        assert_eq!(fired.payload, 42);
    }

    #[test]
    fn pop_before_delivers_only_earlier_events() {
        let mut q: EventQueue<_> = EventQueue::new();
        q.schedule(t(1), 1);
        q.schedule(t(5), 5);
        assert_eq!(q.pop_before(t(5)).unwrap().payload, 1);
        // Event exactly at the horizon does not fire.
        assert!(q.pop_before(t(5)).is_none());
        assert_eq!(q.len(), 1);
        assert_eq!(q.peek_time(), Some(t(5)));
        assert_eq!(q.pop_before(t(6)).unwrap().payload, 5);
        assert!(q.pop_before(t(100)).is_none());
    }

    #[test]
    fn high_water_tracks_peak_depth() {
        let mut q: EventQueue<_> = EventQueue::new();
        assert_eq!(q.high_water(), 0);
        for i in 0..10 {
            q.schedule(t(i), ());
        }
        for _ in 0..10 {
            q.pop();
        }
        assert_eq!(q.high_water(), 10);
        q.schedule(t(50), ());
        // A later, shallower refill does not lower the mark.
        assert_eq!(q.high_water(), 10);
    }

    #[test]
    fn memory_bytes_is_nonzero_when_loaded() {
        let mut q: EventQueue<_> = EventQueue::new();
        for i in 0..1000u64 {
            q.schedule(SimTime::from_nanos(i * 17), i);
        }
        assert!(q.memory_bytes() > 0);
    }

    /// The hold model — pop the earliest event and reschedule it up to
    /// twice a 10 s mean ahead — at a fixed pending depth, for `ops`
    /// operations. The queue's bytes must follow the depth, not the
    /// number of events carried: neither a bit per event ever scheduled
    /// nor a pooled vector per `top` flush.
    #[test]
    fn hold_model_memory_follows_pending_depth() {
        const SLOTS_PER_PENDING: usize = 16;
        let slot = std::mem::size_of::<(u64, u64, u64)>();
        for (pending, ops) in [(100u64, 2_000_000u64), (1_000, 2_000_000)] {
            let mut q: EventQueue<u64> = EventQueue::new();
            let mean = SimDuration::from_secs(10);
            let mut rng = SimRng::stream(0xBEE5, pending);
            for i in 0..pending {
                q.schedule(
                    SimTime::ZERO + rng.range_duration(SimDuration::ZERO, mean * 2),
                    i,
                );
            }
            for i in 0..ops {
                let f = q.pop().expect("the hold model never empties the queue");
                let ahead = SimDuration::from_nanos(1 + rng.below(2 * mean.as_nanos()));
                q.schedule(f.time + ahead, i);
            }
            let bound = SLOTS_PER_PENDING * pending as usize * slot;
            assert!(
                q.memory_bytes() <= bound,
                "{} bytes at {pending} pending after {ops} operations; bound {bound}",
                q.memory_bytes()
            );
        }
    }

    #[test]
    fn heap_and_ladder_queues_agree_on_a_mixed_run() {
        // A quick inline differential check; the heavyweight version with
        // arbitrary interleavings lives in tests/proptests.rs. Every
        // seventh event is revoked by the driver, which skips it on pop.
        fn drive<C: QueueCore<u64> + Default>() -> Vec<(SimTime, u64)> {
            let mut q: EventQueue<u64, C> = EventQueue::new();
            for i in 0..500u64 {
                q.schedule(SimTime::from_nanos((i * 131) % 977), i);
            }
            let mut out = Vec::new();
            while let Some(f) = q.pop() {
                if f.payload % 7 != 0 {
                    out.push((f.time, f.payload));
                }
            }
            out
        }
        let heap = drive::<crate::heap_ref::HeapCore<u64>>();
        assert_eq!(heap.len(), 500 - 72);
        assert_eq!(heap, drive::<crate::ladder::LadderCore<u64>>());
    }
}
