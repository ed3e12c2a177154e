//! The sequential discrete-event simulator.
//!
//! [`Simulator`] owns the simulated clock and the pending-event set. Client
//! code (the network world in `peas-sim`) drives it with a pull loop:
//!
//! ```
//! use peas_des::sim::Simulator;
//! use peas_des::time::{SimDuration, SimTime};
//!
//! #[derive(Debug, PartialEq)]
//! enum Ev { Ping, Pong }
//!
//! let mut sim = Simulator::new();
//! sim.schedule_after(SimDuration::from_secs(1), Ev::Ping);
//! sim.schedule_after(SimDuration::from_secs(2), Ev::Pong);
//!
//! let mut seen = Vec::new();
//! while let Some(fired) = sim.next_before(SimTime::from_secs(10)) {
//!     seen.push(fired.payload);
//! }
//! assert_eq!(seen, vec![Ev::Ping, Ev::Pong]);
//! // After draining, the clock is parked at the horizon.
//! assert_eq!(sim.now(), SimTime::from_secs(10));
//! ```
//!
//! This pull style (instead of registering callbacks) sidesteps borrow-checker
//! gymnastics: the caller matches on the popped payload with full `&mut`
//! access to its own state and to the simulator.

use crate::event::{EventQueue, Fired};
use crate::time::{SimDuration, SimTime};

/// Sequential event-driven simulator: a clock plus a pending-event set.
///
/// The clock only moves forward, jumping to each fired event's timestamp.
/// Substitute for the PARSEC runtime used by the paper (DESIGN.md §1).
#[derive(Debug)]
pub struct Simulator<E> {
    now: SimTime,
    queue: EventQueue<E>,
}

impl<E> Default for Simulator<E> {
    fn default() -> Self {
        Simulator::new()
    }
}

impl<E> Simulator<E> {
    /// Creates a simulator with the clock at [`SimTime::ZERO`].
    pub fn new() -> Simulator<E> {
        Simulator {
            now: SimTime::ZERO,
            queue: EventQueue::new(),
        }
    }

    /// The current simulated instant.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Schedules `payload` at the absolute instant `time`.
    ///
    /// # Panics
    ///
    /// Panics if `time` is in the past (`time < self.now()`): a causal
    /// simulation must never rewind.
    pub fn schedule_at(&mut self, time: SimTime, payload: E) {
        assert!(
            time >= self.now,
            "cannot schedule into the past: {time:?} < now {:?}",
            self.now
        );
        self.queue.schedule(time, payload)
    }

    /// Schedules `payload` to fire `delay` after the current instant.
    pub fn schedule_after(&mut self, delay: SimDuration, payload: E) {
        self.queue.schedule(self.now + delay, payload)
    }

    /// Pops the next event unconditionally, advancing the clock to it.
    ///
    /// Deliberately named `next` (the simulator's natural vocabulary) even
    /// though it shadows `Iterator::next`; `Simulator` is not an iterator
    /// because popping mutates the clock.
    #[allow(clippy::should_implement_trait)]
    pub fn next(&mut self) -> Option<Fired<E>> {
        let fired = self.queue.pop()?;
        debug_assert!(fired.time >= self.now, "event queue went backwards");
        self.now = fired.time;
        Some(fired)
    }

    /// Pops the next event if it fires strictly before `horizon`.
    ///
    /// When the next event is at or past `horizon` (or no events remain) the
    /// clock is advanced to `horizon` and `None` is returned, so repeated
    /// calls implement "run until t". This is the hot path of every world
    /// loop: it costs a single queue probe per delivered event (the
    /// peek and pop are fused in [`EventQueue::pop_before`]).
    pub fn next_before(&mut self, horizon: SimTime) -> Option<Fired<E>> {
        match self.queue.pop_before(horizon) {
            Some(fired) => {
                debug_assert!(fired.time >= self.now, "event queue went backwards");
                self.now = fired.time;
                Some(fired)
            }
            None => {
                self.now = self.now.max(horizon);
                None
            }
        }
    }

    /// Time of the next pending event without popping it.
    pub fn peek_time(&mut self) -> Option<SimTime> {
        self.queue.peek_time()
    }

    /// Number of pending events.
    pub fn pending(&self) -> usize {
        self.queue.len()
    }

    /// Whether the event set is exhausted.
    pub fn is_idle(&self) -> bool {
        self.queue.is_empty()
    }

    /// Largest number of simultaneously pending events ever observed.
    pub fn queue_high_water(&self) -> usize {
        self.queue.high_water()
    }

    /// Approximate heap bytes held by the pending-event queue.
    pub fn queue_memory_bytes(&self) -> usize {
        self.queue.memory_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clock_advances_to_fired_events() {
        let mut sim = Simulator::new();
        sim.schedule_at(SimTime::from_secs(5), "a");
        let fired = sim.next().unwrap();
        assert_eq!(fired.payload, "a");
        assert_eq!(sim.now(), SimTime::from_secs(5));
        assert!(sim.is_idle());
    }

    #[test]
    fn next_before_respects_horizon() {
        let mut sim = Simulator::new();
        sim.schedule_at(SimTime::from_secs(1), 1);
        sim.schedule_at(SimTime::from_secs(9), 9);
        assert_eq!(sim.next_before(SimTime::from_secs(5)).unwrap().payload, 1);
        assert!(sim.next_before(SimTime::from_secs(5)).is_none());
        // Clock parked exactly at the horizon; later event still pending.
        assert_eq!(sim.now(), SimTime::from_secs(5));
        assert_eq!(sim.pending(), 1);
    }

    #[test]
    fn next_before_with_empty_queue_parks_at_horizon() {
        let mut sim: Simulator<()> = Simulator::new();
        assert!(sim.next_before(SimTime::from_secs(3)).is_none());
        assert_eq!(sim.now(), SimTime::from_secs(3));
        assert!(sim.is_idle());
    }

    #[test]
    fn event_at_horizon_does_not_fire() {
        let mut sim = Simulator::new();
        sim.schedule_at(SimTime::from_secs(5), ());
        assert!(sim.next_before(SimTime::from_secs(5)).is_none());
        assert_eq!(sim.pending(), 1);
    }

    #[test]
    fn schedule_after_is_relative_to_now() {
        let mut sim = Simulator::new();
        sim.schedule_at(SimTime::from_secs(2), "first");
        sim.next().unwrap();
        sim.schedule_after(SimDuration::from_secs(3), "second");
        let fired = sim.next().unwrap();
        assert_eq!(fired.time, SimTime::from_secs(5));
    }

    #[test]
    #[should_panic(expected = "cannot schedule into the past")]
    fn scheduling_into_the_past_panics() {
        let mut sim = Simulator::new();
        sim.schedule_at(SimTime::from_secs(2), ());
        sim.next().unwrap();
        sim.schedule_at(SimTime::from_secs(1), ());
    }

    #[test]
    fn horizon_never_moves_clock_backwards() {
        let mut sim: Simulator<()> = Simulator::new();
        sim.schedule_at(SimTime::from_secs(10), ());
        sim.next().unwrap();
        assert!(sim.next_before(SimTime::from_secs(5)).is_none());
        assert_eq!(sim.now(), SimTime::from_secs(10));
    }

    #[test]
    fn drain_run_is_deterministic() {
        let run = || {
            let mut sim = Simulator::new();
            for i in 0..50u64 {
                sim.schedule_at(SimTime::from_nanos(i * 37 % 13), i);
            }
            let mut order = Vec::new();
            while let Some(f) = sim.next() {
                order.push(f.payload);
            }
            order
        };
        assert_eq!(run(), run());
    }
}
