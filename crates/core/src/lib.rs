//! # peas — Probing Environment and Adaptive Sleeping
//!
//! A faithful implementation of **PEAS** (Ye, Zhong, Cheng, Lu, Zhang,
//! *"PEAS: A Robust Energy Conserving Protocol for Long-lived Sensor
//! Networks"*, ICDCS 2003): a distributed sleep-scheduling protocol that
//! keeps a necessary set of sensors working and puts the rest to sleep,
//! extending network lifetime linearly in the deployed population while
//! tolerating frequent unexpected node failures.
//!
//! ## The protocol in one paragraph
//!
//! Every node sleeps for an exponentially distributed time with rate λ
//! (its *probing rate*). On waking it broadcasts a PROBE within the probing
//! range `Rp`. Any working node in range answers with a REPLY carrying its
//! measurement λ̂ of the *aggregate* probing rate it perceives. Hearing a
//! REPLY, the prober adjusts `λ ← λ·λd/λ̂` — driving the aggregate toward the
//! application-chosen λd — and sleeps again; hearing nothing, it starts
//! working until it dies. No per-neighbor state is kept anywhere.
//!
//! ## Crate layout
//!
//! * [`config`] — [`PeasConfig`] with the paper's Section 5 defaults;
//! * [`msg`] — PROBE/REPLY payloads;
//! * [`rate`] — the `k`-PROBE aggregate-rate estimator (Equation 1);
//! * [`adaptive`] — the rate-adjustment rule (Equation 2) with the
//!   Section 4 largest-measurement amendment;
//! * [`node`] — the [`PeasNode`] state machine (Figure 1) including the
//!   Section 4 extensions: multi-PROBE loss compensation, the `Tw`
//!   turn-off rule, and fixed-transmission-power threshold filtering;
//! * [`stats`] — per-node counters feeding the paper's Figures 11/14.
//!
//! The state machine is I/O-free: it consumes [`Input`]s and writes
//! [`Action`]s into a buffer its host owns. Any host that owns a clock, an
//! RNG and a radio can run it — the companion `peas-sim` crate provides
//! the full wireless-network simulator used to reproduce the paper's
//! evaluation.
//!
//! ## Example
//!
//! ```
//! use peas::{Action, Input, Mode, PeasConfig, PeasNode, Timer};
//! use peas_des::rng::SimRng;
//! use peas_des::time::SimTime;
//! use peas_radio::NodeId;
//!
//! // A node with the paper's parameters: Rp = 3 m, λ0 = 0.1/s, λd = 0.02/s.
//! let mut node = PeasNode::new(NodeId(0), PeasConfig::paper());
//! let mut rng = SimRng::new(42);
//!
//! // Booting arms the first exponential sleep timer.
//! let boot = node.start(&mut rng);
//! assert!(matches!(boot, Action::Schedule { timer: Timer::Wake, .. }));
//!
//! // When the wake timer fires the node probes its neighborhood...
//! let now = SimTime::from_secs(30);
//! node.on_input(now, Input::WakeUp, &mut rng);
//! assert_eq!(node.mode(), Mode::Probing);
//!
//! // ...and, hearing no REPLY, takes over as a working node.
//! node.on_input(now + PeasConfig::paper().reply_window, Input::ReplyWindowClosed, &mut rng);
//! assert_eq!(node.mode(), Mode::Working);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod adaptive;
pub mod config;
pub mod msg;
pub mod node;
pub mod rate;
pub mod stats;

pub use config::{ConfigError, FixedPower, PeasConfig, PeasConfigBuilder, MAX_PROBE_COUNT};
pub use msg::{Message, Reply, CONTROL_FRAME_BYTES};
pub use node::{Action, Input, Mode, PeasNode, Timer};
pub use rate::{RateEstimator, RateMeasurement};
pub use stats::NodeStats;
