//! # peas-des — deterministic discrete-event simulation engine
//!
//! This crate is the PARSEC substitute for the PEAS (ICDCS 2003)
//! reproduction: a sequential, bit-reproducible discrete-event simulator.
//!
//! It provides three building blocks:
//!
//! * [`time`] — integer-nanosecond [`SimTime`]/[`SimDuration`] newtypes, so
//!   event ordering never depends on floating-point rounding;
//! * [`event`] — a priority queue with stable FIFO tie-breaking, backed
//!   by the amortized-O(1) [`ladder`] queue (or the [`heap_ref`]
//!   binary-heap reference under `--features heap-queue`);
//! * [`rng`] — xoshiro256++ generators with per-entity decoupled streams and
//!   the samplers PEAS needs (exponential sleeping times, uniform backoffs,
//!   normally distributed signal irregularity);
//! * [`sim`] — the [`Simulator`] pull loop combining clock and queue;
//! * [`arena`] — a free-list slab parking fat event payloads behind
//!   `u32` handles so heap entries stay small;
//! * [`detmap`] — [`DetMap`]/[`DetSet`], deterministic-iteration
//!   replacements for the banned `std` hash collections (`peas-lint`
//!   rule `d1-std-hash`);
//! * [`fnv`] — [`fnv1a`], the content hash behind every pinned
//!   fingerprint;
//! * [`par`] — the one worker pool: a claim-counter batch runner and an
//!   input-ordered parallel map.
//!
//! # Example: a minimal wake/sleep process
//!
//! ```
//! use peas_des::prelude::*;
//!
//! enum Ev { WakeUp }
//!
//! let mut sim = Simulator::new();
//! let mut rng = SimRng::stream(1, 0);
//! // Exponentially distributed sleep, rate λ = 0.1 wakeups/sec (paper §5.2).
//! sim.schedule_after(rng.exp_duration(0.1), Ev::WakeUp);
//! let mut wakeups = 0;
//! while let Some(fired) = sim.next_before(SimTime::from_secs(1_000)) {
//!     match fired.payload {
//!         Ev::WakeUp => {
//!             wakeups += 1;
//!             sim.schedule_after(rng.exp_duration(0.1), Ev::WakeUp);
//!         }
//!     }
//! }
//! assert!(wakeups > 50, "expected ~100 wakeups, got {wakeups}");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod arena;
pub mod detmap;
pub mod event;
pub mod fnv;
pub mod heap_ref;
pub mod ladder;
pub mod par;
pub mod rng;
pub mod sim;
pub mod time;

pub use arena::Arena;
pub use detmap::{DetMap, DetSet};
pub use event::{EventQueue, Fired, HeapEventQueue, LadderEventQueue, QueueCore};
pub use fnv::{fnv1a, fnv1a_extend, FNV1A_OFFSET};
pub use rng::SimRng;
pub use sim::Simulator;
pub use time::{SimDuration, SimTime};

/// Convenience re-exports for simulator-driving code.
pub mod prelude {
    pub use crate::arena::Arena;
    pub use crate::detmap::{DetMap, DetSet};
    pub use crate::event::Fired;
    pub use crate::rng::SimRng;
    pub use crate::sim::Simulator;
    pub use crate::time::{SimDuration, SimTime};
}
