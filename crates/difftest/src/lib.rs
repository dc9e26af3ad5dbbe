//! # pibe-difftest
//!
//! A differential equivalence oracle for the PIBE pipeline: if indirect
//! call promotion, security inlining, dead-function elimination, or
//! hardening ever *change what a program does*, this crate is the alarm
//! that goes off.
//!
//! The structural verifier in `pibe-ir` catches malformed IR, but a pass
//! can produce perfectly valid IR that computes the wrong thing — swapped
//! branch arms, a retargeted call, a dropped side effect (see
//! [`SemanticCorruption`](pibe::SemanticCorruption) for deliberately
//! injectable examples). Catching those requires comparing *behaviour*, so
//! this crate:
//!
//! 1. **generates** seeded random programs and workloads ([`gen`]) — one
//!    deterministic generator shared with the workspace property tests;
//! 2. **executes** them on the simulator recording every observable event
//!    ([`trace`]): compute ops, branch decisions, switch arms, resolved
//!    indirect targets, call/return structure, and per-invocation outcomes;
//! 3. **diffs** the baseline trace against each committed pipeline stage's
//!    output ([`oracle`]), failing on the first mismatching event;
//! 4. **shrinks** failures to minimal replayable fixtures ([`mod@shrink`],
//!    [`fixture`]) stored in the repository's `tests/corpus/`.
//!
//! Everything is deterministic: same seed, same module, same traces, same
//! minimized fixture — on every machine. The fuzzing entry points live in
//! this crate's `tests/` directory; the seed window is controlled by the
//! `PIBE_DIFFTEST_SEEDS` and `PIBE_DIFFTEST_BASE` environment variables
//! (see EXPERIMENTS.md).

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod epoch;
pub mod fixture;
pub mod gen;
pub mod oracle;
pub mod shrink;
pub mod trace;

pub use epoch::{bit_identical, EpochMismatch};
pub use fixture::{from_text, to_text, FixtureError};
pub use gen::{
    build_module, gen_case, generate_plans, plans, Case, FnPlan, GenConfig, ResolverSpec,
};
pub use oracle::{
    inline_replay, oracle_config, oracle_config_for, profile_case, run_fast_path_oracle,
    run_inline_replay_oracle, run_oracle, run_oracle_at, Divergence, OracleReport, Sabotage,
};
pub use shrink::{shrink, ShrinkStats};
pub use trace::{project, run_trace, Obs, Outcome, Projection};
