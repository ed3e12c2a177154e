//! # peas-model — exhaustive model checking of the PEAS state machine
//!
//! The golden fingerprints pin *one* trajectory per `(config, seed)`;
//! this crate checks *every* trajectory of a small world. It drives 2–6
//! [`peas::PeasNode`]s through all interleavings of timer firings,
//! PROBE/REPLY deliveries, message losses and node deaths, deduplicating
//! via a canonical state fingerprint, and checks safety invariants on
//! every reached state plus a liveness property (coverage is eventually
//! restored) via cycle detection over the reached graph.
//!
//! ## The abstraction
//!
//! The concrete protocol draws timer durations from a [`SimRng`]; the
//! model discards them. A [`ModelWorld`] keeps, per node, only *which*
//! timers are armed, and at every step nondeterministically fires any
//! armed timer, delivers or loses any in-flight frame, or kills a node.
//! Exploring **all** orders of these events subsumes every assignment of
//! concrete durations, so the RNG drops out of the state entirely.
//! Logical time still has to advance (the turn-off rule compares working
//! times), so each applied event ticks a 1 s quantum.
//!
//! States are deduplicated by a *canonical* key ([`canon::canon_key`])
//! that quantizes the unbounded parts (λ̂ to log₂ buckets, working-time
//! differences clamped at the tie epsilon, absolute time dropped), which
//! makes the quotient finite and the breadth-first exploration a
//! fixpoint computation. Invariants are checked on the concrete
//! representative of each canonical class; see `DESIGN.md` §10 for what
//! that does and does not prove.
//!
//! ## Counterexamples
//!
//! A violated invariant yields the breadth-first event trace that
//! reached it, which [`shrink::shrink_trace`] reduces (drop events, then
//! drop nodes) and [`emit::emit_peas`] renders as a replayable `.peas`
//! scenario with a `[trace]` section, which `scenario run <file>` (in
//! `peas-bench`) replays deterministically.
//!
//! [`SimRng`]: peas_des::rng::SimRng

pub mod canon;
pub mod cfg;
pub mod emit;
pub mod event;
pub mod explore;
pub mod invariant;
pub mod shrink;
pub mod world;

pub use canon::canon_key;
pub use cfg::{ModelCfg, Topology};
pub use emit::emit_peas;
pub use event::{ModelEvent, TimerKind};
pub use explore::{explore, replay, ExploreOutcome, FoundViolation, ReplayOutcome};
pub use invariant::Violation;
pub use shrink::{shrink_nodes, shrink_trace};
pub use world::ModelWorld;
