//! # pibe-profile
//!
//! Call-graph edge and value profiles: the data the paper's profiling phase
//! collects and its hardening phase consumes (§4, §7).
//!
//! A [`Profile`] records, for one or more profiling runs:
//!
//! * per direct call site — an execution count,
//! * per indirect call site — a *value profile*: a list of
//!   `(target function, count)` tuples,
//! * per function — invocation and return-execution counts.
//!
//! Profiles serialize to JSON (mirroring the artifact's on-disk profile
//! files), merge across runs (the paper aggregates 11 LMBench iterations),
//! and support the *budget* arithmetic both of PIBE's optimizations use:
//! a [`Budget`] is a percentage of the cumulative execution count, and
//! [`select_by_budget`] returns the greedy hottest-first prefix of a
//! candidate list that covers it.
//!
//! The [`overlap`] module implements the workload-robustness measurement of
//! §8.4 (shared candidate weight between two workloads at a budget).
//!
//! Profiles can be stale (collected on a drifted build) or corrupt
//! (truncated documents, saturating merges). [`Profile::validate_against`]
//! detects those inconsistencies relative to a concrete module and
//! [`Profile::repair_against`] fixes them in place; the [`chaos`] module
//! deterministically *injects* them for fault-tolerance testing. Long-lived
//! accumulators use [`Profile::merge_checked`], which reports every counter
//! that reached `u64::MAX` as a typed [`MergeOverflow`].
//!
//! The passes own the budget selections built on this arithmetic. The
//! continuous-PGO *decision surface* (`pibe::DecisionSurface`, in the core
//! crate) calls the passes' selection code rather than keeping a copy here.

//!
//! ## Example
//!
//! ```
//! use pibe_ir::{FuncId, SiteId};
//! use pibe_profile::{select_by_budget, Budget, Profile};
//!
//! let mut profile = Profile::new();
//! let hot = SiteId::from_raw(1);
//! let cold = SiteId::from_raw(2);
//! for _ in 0..990 {
//!     profile.record_direct(hot);
//! }
//! for _ in 0..10 {
//!     profile.record_direct(cold);
//! }
//! let candidates: Vec<(SiteId, u64)> = profile.iter_direct().collect();
//! let selected = select_by_budget(&candidates, Budget::P99);
//! assert_eq!(selected, vec![(hot, 990)], "99% of the weight is one site");
//!
//! // Profiles survive a serialization round trip.
//! let reloaded = Profile::from_json(&profile.to_json())?;
//! assert_eq!(profile, reloaded);
//! # Ok::<(), serde_json::Error>(())
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod analysis;
mod budget;
pub mod chaos;
mod health;
pub mod overlap;
mod profile;

pub use analysis::{direct_concentration, indirect_concentration, top_direct_sites, Concentration};
pub use budget::{select_by_budget, Budget, BudgetError, BudgetRanking};
pub use chaos::{corrupt_profile, ChaosRng, ProfileChaos};
pub use health::{ProfileHealth, ProfileIssue, ProfileRepair, COUNT_CLAMP};
pub use profile::{MergeOverflow, MergeReport, Profile, ProfileStats, ValueProfileEntry};
