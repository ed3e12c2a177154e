//! # peas-sim — the integrated sensor-network simulator
//!
//! Binds every substrate of the PEAS (ICDCS 2003) reproduction into one
//! deterministic simulation (the role PARSEC played for the authors):
//!
//! * sensors run the [`peas`] state machine over the [`peas_radio`] medium;
//! * working nodes additionally relay data with [`peas_grab`];
//! * a Poisson failure injector kills random alive nodes (Section 5.2);
//! * batteries drain by mode and per-frame, with every joule attributed to
//!   an [`peas_radio::EnergyCause`] for Table 1;
//! * periodic samplers record K-coverage, the cumulative data success
//!   ratio, mode censuses and wakeup counts — the raw material for all
//!   figures of Section 5.
//!
//! ## Quick start
//!
//! ```
//! use peas_sim::{ScenarioConfig, World};
//!
//! // A small failure-free network, fast enough for a doctest.
//! let report = World::new(ScenarioConfig::small().with_seed(1)).run();
//! // PEAS kept a working set alive and most nodes asleep.
//! assert!(report.samples.iter().any(|s| s.working > 5 && s.sleeping > 10));
//! ```
//!
//! For the paper's exact evaluation setting use
//! [`ScenarioConfig::paper`]`(node_count)` and the experiment binaries in
//! `peas-bench`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cache;
pub mod config;
pub mod job;
pub mod metrics;
pub mod report_json;
pub mod runner;
pub mod trace;
pub mod world;

pub use cache::{
    config_fingerprint, enumerate_shards, CacheRecord, CacheScan, CacheWriter, ResultCache,
    SessionError, Shard, ShardKey, SweepPlan,
};
pub use config::{BatterySpec, EventWorkload, FailureConfig, MetricsConfig, ScenarioConfig};
pub use job::{JobOutcome, JobProgress, JobSource, JobSpec, JOB_SCHEMA};
pub use metrics::{RunReport, Sample};
pub use peas_des::fnv1a;
pub use report_json::{decode_report, encode_report, REPORT_SCHEMA};
pub use runner::{average_metric, AveragedPoint, Runner};
pub use trace::{DeathKind, FrameKind, TraceCounts, TraceEvent, TraceSink};
pub use world::World;
