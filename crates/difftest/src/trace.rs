//! Observable traces and their stage-invariant projections.
//!
//! The simulator's raw [`TraceEvent`] stream names functions by [`FuncId`];
//! DCE renumbers ids, so the oracle compares *observations* — events with
//! function identities resolved to names. Two projections matter:
//!
//! * [`Projection::Full`] keeps `Enter`/`Return` events. It is invariant
//!   from baseline through indirect call promotion (promotion only rewrites
//!   *how* a target is dispatched, never the call/return structure).
//! * [`Projection::Core`] drops `Enter`/`Return`. It is invariant across
//!   *every* pipeline stage: inlining removes call/return pairs by design,
//!   but the compute ops, branch decisions, switch arms, resolved targets,
//!   and the final outcome of each invocation must all survive untouched.

use crate::gen::Case;
use pibe_ir::{FuncId, Module, OpKind};
use pibe_sim::{SimConfig, SimError, Simulator, TraceEvent};

/// One observable event, with function identity resolved to a name.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Obs {
    /// A compute op executed.
    Op(OpKind),
    /// Control entered the named function.
    Enter(String),
    /// Control returned out of the named function.
    Return(String),
    /// An indirect-call site resolved to the named target.
    Resolve {
        /// Raw site id (stable across every pass).
        site: u64,
        /// Resolved target, by name.
        target: String,
    },
    /// A `Cond::Random` branch executed with this decision.
    Branch(bool),
    /// A switch dispatched to this arm (`cases.len()` = the default).
    Arm(u32),
    /// One entry invocation finished with this outcome.
    End(Outcome),
}

/// How one invocation of the entry function ended.
///
/// Errors are keyed by the *site* (raw id) that faulted, never by function
/// id: sites are stable across passes, function ids are not.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Outcome {
    /// The invocation ran to completion.
    Ok,
    /// An indirect call executed with no registered target distribution, or
    /// an empty/all-zero-weight one.
    UnknownTarget(u64),
    /// The resolver produced an out-of-range function id.
    BadTarget(u64),
    /// A resolved call or guard ran before its `ResolveTarget`.
    UnresolvedTarget(u64),
    /// The step limit tripped.
    StepLimit,
    /// The call-depth limit tripped.
    StackOverflow,
}

impl From<&SimError> for Outcome {
    fn from(e: &SimError) -> Self {
        match e {
            SimError::UnknownTarget(s) => Outcome::UnknownTarget(s.raw()),
            SimError::BadTarget(s, _) => Outcome::BadTarget(s.raw()),
            SimError::UnresolvedTarget(s) => Outcome::UnresolvedTarget(s.raw()),
            SimError::StepLimit(_) => Outcome::StepLimit,
            SimError::StackOverflow(_) => Outcome::StackOverflow,
        }
    }
}

/// Which events a comparison considers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Projection {
    /// All events, including call/return structure. Invariant baseline →
    /// post-ICP.
    Full,
    /// Everything except `Enter`/`Return`. Invariant across all stages.
    Core,
}

/// Projects a full observation stream.
pub fn project(full: &[Obs], p: Projection) -> Vec<Obs> {
    match p {
        Projection::Full => full.to_vec(),
        Projection::Core => full
            .iter()
            .filter(|o| !matches!(o, Obs::Enter(_) | Obs::Return(_)))
            .cloned()
            .collect(),
    }
}

fn obs_of(ev: TraceEvent, module: &Module) -> Obs {
    let name = |f: FuncId| module.function(f).name().to_string();
    match ev {
        TraceEvent::Op(k) => Obs::Op(k),
        TraceEvent::Enter(f) => Obs::Enter(name(f)),
        TraceEvent::Return(f) => Obs::Return(name(f)),
        TraceEvent::Resolved { site, target } => Obs::Resolve {
            site: site.raw(),
            target: name(target),
        },
        TraceEvent::BranchTaken(t) => Obs::Branch(t),
        TraceEvent::SwitchArm(a) => Obs::Arm(a),
    }
}

/// Step budget per trace. Far beyond anything the generator's geometric
/// loops can reach, but small enough to fail fast on a genuinely broken
/// module. Step *counts* differ across stages (inlining removes executed
/// call instructions), so this limit must never trip on healthy cases —
/// tripping it would truncate stage traces at different points.
pub(crate) const TRACE_MAX_STEPS: u64 = 1_000_000;

/// Runs `case.runs` invocations of `entry` in `module` under `case`'s seed
/// and resolver, returning the full observation stream (one [`Obs::End`] per
/// invocation).
pub fn run_trace(case: &Case, module: &Module, entry: FuncId) -> Vec<Obs> {
    let cfg = SimConfig {
        collect_trace: true,
        max_steps: TRACE_MAX_STEPS,
        ..SimConfig::default()
    };
    let resolver = case.resolver.bind(module);
    let mut sim = Simulator::new(module, resolver, case.seed, cfg);
    let mut out = Vec::new();
    for _ in 0..case.runs {
        let outcome = match sim.call_entry(entry) {
            Ok(_) => Outcome::Ok,
            Err(e) => (&e).into(),
        };
        out.extend(sim.take_trace().into_iter().map(|ev| obs_of(ev, module)));
        out.push(Obs::End(outcome));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::{gen_case, GenConfig};

    #[test]
    fn traces_are_deterministic_per_seed() {
        let cfg = GenConfig::default();
        for seed in [0u64, 3, 17] {
            let case = gen_case(seed, &cfg);
            let a = run_trace(&case, &case.module, case.entry);
            let b = run_trace(&case, &case.module, case.entry);
            assert_eq!(a, b);
            assert_eq!(
                a.iter().filter(|o| matches!(o, Obs::End(_))).count(),
                case.runs as usize
            );
        }
    }

    #[test]
    fn core_projection_drops_only_call_structure() {
        let cfg = GenConfig::default();
        let case = gen_case(11, &cfg);
        let full = run_trace(&case, &case.module, case.entry);
        let core = project(&full, Projection::Core);
        assert!(core.len() <= full.len());
        assert!(core
            .iter()
            .all(|o| !matches!(o, Obs::Enter(_) | Obs::Return(_))));
        assert_eq!(project(&full, Projection::Full), full);
    }
}
