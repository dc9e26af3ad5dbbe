//! # pibe
//!
//! The PIBE pipeline: profile-guided indirect branch elimination plus
//! hardening, orchestrated end to end (§4).
//!
//! ```text
//!            ┌────────────┐   profile    ┌──────────────────────────────┐
//!  kernel ──►│ simulator  ├─────────────►│ hardening phase              │
//!            │ (profiling │              │  1. indirect call promotion  │
//!            │  workload) │              │  2. security inlining        │
//!            └────────────┘              │  3. defenses on the rest     │
//!                                        └──────────────┬───────────────┘
//!                                                       ▼
//!                                         production image → evaluation
//! ```
//!
//! * [`PibeConfig`] selects the optimization budgets and defenses — the
//!   paper's evaluated configurations are provided as constructors;
//! * [`Image::builder`] is the staged entry point into the hardening phase
//!   (`Image::builder(&base).profile(&profile).config(cfg).build()`);
//! * [`ImageFarm`] builds images for whole configuration sets in parallel,
//!   running each distinct ICP → inline → DCE prefix once and lowering it
//!   once per distinct configuration (arch and defense set) per lab;
//!   [`BuildMetrics`] records per-stage wall-clock costs;
//! * [`eval`] measures images against workloads (latency, throughput,
//!   geometric-mean overhead);
//! * [`experiments`] regenerates every table and figure in the paper's
//!   evaluation section (run the `tables` binary from `pibe-bench`);
//! * [`report`] renders the results as aligned text tables.
//!
//! The pipeline runs one policy: the profile is validated against the
//! module and repaired when dirty, each transform stage's output is
//! verified, and a stage that produced invalid IR aborts the build with
//! [`PipelineError::StageFailed`]. The [`chaos`] module injects
//! deterministic module corruption to test exactly that check.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod chaos;
mod config;
mod drift;
pub mod eval;
pub mod experiments;
mod farm;
mod pipeline;
pub mod report;

pub use chaos::{corrupt_module, ModuleCorruption, SemanticCorruption};
pub use config::{PibeConfig, PibeConfigBuilder};
pub use drift::{ClosureFacts, DecisionSurface, DriftReport, InlineCandidate};
pub use farm::{FarmStats, ImageFarm};
pub use pibe_harden::{Arch, DefenseBackend, DefenseSet};
pub use pibe_passes::IcpSiteDecision;
/// The tracer every stage records into, for dependents that read a
/// build's events (the difftest inliner replay) without depending on
/// `pibe-trace` themselves.
pub use pibe_trace as trace;
pub use pipeline::{
    BuildMetrics, Image, ImageBuilder, ImageSize, PipelineError, ProfiledImageBuilder, Stage,
    StageSnapshot,
};
