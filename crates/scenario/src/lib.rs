//! # peas-scenario — declarative scenarios and golden conformance
//!
//! A tiny, dependency-free scenario language (`.peas` files) for the PEAS
//! reproduction, plus the golden conformance layer that pins every
//! scenario to a committed fingerprint.
//!
//! The pipeline:
//!
//! ```text
//! .peas source --parse--> ScenarioDoc --extends/merge--> flattened doc
//!      --compile--> CompiledScenario { ScenarioConfig(s), sweep, golden }
//!      --World::run / run_all--> RunReport --Snapshot::of_report--> golden snapshot
//! ```
//!
//! Design rules:
//!
//! - **Paper defaults.** Unset keys default to [`ScenarioConfig::paper`]
//!   for the declared node count, so a scenario file describes only its
//!   *difference* from Section 5 of the paper, and an empty file equals
//!   the Rust-built config bit for bit.
//! - **Spans everywhere.** Every diagnostic carries a 1-based line and
//!   column, and the message strings are stable (pinned by tests).
//! - **Canonical printing.** [`print`] emits a normal form with the
//!   round-trip law `parse(print(doc)) == doc`.
//!
//! ```
//! use peas_scenario::{compile, load_str};
//!
//! let doc = load_str("[deployment]\ncount = 480\n").expect("parses");
//! let scenario = compile(&doc, "quick").expect("compiles");
//! assert_eq!(scenario.base.node_count, 480);
//! ```
//!
//! [`ScenarioConfig::paper`]: peas_sim::ScenarioConfig::paper

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod ast;
pub mod compile;
pub mod conformance;
pub mod error;
pub mod job;
pub mod loader;
pub mod parse;
pub mod print;

pub use ast::{Entry, Extends, ScenarioDoc, Section, Span, Value};
pub use compile::{
    compile, CompiledScenario, GoldenSpec, ModelSpec, ModelTopology, SweepRun, SweepSpec,
    TraceSpec, SECTIONS,
};
pub use conformance::{first_divergence, sample_fingerprint, Divergence, Snapshot};
pub use error::ScenarioError;
pub use job::{compile_job, job_scenario_path};
pub use loader::{load_compiled, load_path, load_str};
pub use parse::{parse, ParseError};
pub use print::print;
