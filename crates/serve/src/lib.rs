//! # pibe-serve
//!
//! A fault-tolerant **continuous-PGO epoch loop** over the PIBE pipeline:
//! the paper's offline profile→optimize→harden flow (§4), run as a
//! long-lived service that keeps re-optimizing as fresh profile deltas
//! stream in from production shards.
//!
//! ```text
//!  shard deltas ──► validate ──► merge_checked ──► decision-surface diff
//!       │              │              │                    │
//!       │         quarantine     overflow reject     unchanged? ──► fast path
//!       │        (typed issues)  (typed records)          │
//!       │                                           drifted functions
//!       │                                                 │
//!       │                                  watchdog + retry + full rebuild
//!       │                                                 │
//!       └── journal ◄── state machine ◄── rebuild ok? ──► new last-known-good
//!                    (Healthy / Degraded / Frozen)   else roll epoch back
//! ```
//!
//! The load-bearing ideas:
//!
//! * **Decision-surface drift detection** ([`pibe::DecisionSurface`]):
//!   an epoch only needs the pipeline if some profile-driven *decision*
//!   changed — promoted targets, the inline budget prefix, DCE roots.
//!   The surface runs the passes' own selection code, so the fast path is
//!   sound: same decisions, same image, bit for bit. A drifted epoch,
//!   however few functions drifted, runs a full pipeline rebuild, so its
//!   latency scales with module size.
//! * **Typed quarantine** ([`QuarantinedDelta`]): every rejected delta is
//!   kept with the exact [`pibe_profile::ProfileIssue`]s or
//!   [`pibe_profile::MergeOverflow`]s that condemned it. Corrupt counts
//!   never reach the cumulative profile, and a noisy shard never degrades
//!   the service's health.
//! * **Last-known-good everything** ([`PibeService`]): rebuilds run under a
//!   wall-clock [`watchdog`] with bounded retries, deterministically backed
//!   off ([`ServeConfig::backoff_before`]); any exhausted failure rolls the *entire epoch* back —
//!   profile merge included — and the previous image keeps being served.
//!   The [`ServiceState`] machine (`Healthy → Degraded → Frozen`) freezes
//!   after repeated or unrecoverable failures instead of flapping forever.
//! * **Replayable journal** ([`EpochJournal`]): every epoch's outcome is
//!   recorded; replaying the journal through the state machine reproduces
//!   the live service's state exactly, and the journal serializes to JSON
//!   for offline audit.
//!
//! The chaos soak suite (`tests/soak.rs`) drives hundreds of epochs of
//! corrupted, drifting delta streams ([`DeltaStream`]) through the service
//! and proves at **every** epoch that the served image (rebuilt on drift,
//! kept on the fast path) is bit-identical to a from-scratch rebuild.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod config;
pub mod delta;
pub mod service;
pub mod state;
pub mod stream;
pub mod watchdog;

pub use config::ServeConfig;
pub use delta::{ProfileDelta, QuarantineReason, QuarantinedDelta};
pub use service::{PibeService, PipelineRebuilder, RebuildFailure, Rebuilder};
pub use state::{EpochJournal, EpochOutcome, EpochRecord, ReplaySummary, ServiceState};
pub use stream::{DeltaStream, StreamConfig, StreamStats};
pub use watchdog::{supervise, WatchdogVerdict};
