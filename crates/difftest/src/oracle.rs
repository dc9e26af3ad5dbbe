//! The differential driver: one case, every pipeline stage, first divergence
//! wins.
//!
//! The oracle profiles the baseline module, feeds the profile through the
//! full PIBE pipeline (`lax` budgets, all defenses, DCE on), snapshots every
//! committed stage via the pipeline's [`observe_stages`] hook, replays the
//! *same* seeded workload against each snapshot, and diffs the observable
//! traces under the strongest projection each stage admits (see
//! [`Projection`]). The first mismatching event — or a verifier/pipeline
//! error — is the verdict.
//!
//! [`observe_stages`]: pibe::ProfiledImageBuilder::observe_stages

use crate::epoch::bit_identical;
use crate::gen::Case;
use crate::trace::{project, run_trace, Obs, Projection, TRACE_MAX_STEPS};
use pibe::trace as pibe_trace;
use pibe::{Image, PibeConfig, SemanticCorruption, Stage};
use pibe_harden::{Arch, DefenseSet};
use pibe_ir::{FuncId, Module, SiteId};
use pibe_passes::{inline_call_site, promote_indirect_calls, run_inliner, SiteWeights};
use pibe_profile::Profile;
use pibe_sim::{SimConfig, Simulator};
use std::cell::RefCell;
use std::fmt;
use std::sync::Mutex;

/// A deliberately broken pass: the corruption is applied to the named
/// stage's output *before* the transactional verifier and the snapshot, via
/// the pipeline's chaos hook.
pub type Sabotage = (Stage, SemanticCorruption, u64);

/// Why a case failed the oracle.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Divergence {
    /// The baseline module, a stage snapshot, or the pipeline itself was
    /// structurally broken (verifier or build error).
    Build(String),
    /// Two traces disagreed.
    Trace {
        /// The stage whose output diverged from the baseline.
        stage: Stage,
        /// The projection under which the traces were compared.
        projection: Projection,
        /// Index of the first mismatching event.
        index: usize,
        /// The baseline event at that index, if any.
        expected: Option<Obs>,
        /// The stage-output event at that index, if any.
        actual: Option<Obs>,
    },
    /// The simulator's op-run fast path (trace collection off) and its
    /// per-instruction path (trace collection on) disagreed on a call
    /// result or on the execution statistics.
    FastPath {
        /// `baseline` or the name of the stage whose snapshot ran.
        module: String,
        /// The step budget of the run.
        max_steps: u64,
        /// The defenses the run was charged for.
        defenses: DefenseSet,
    },
    /// The PIBE inliner's output differs from replaying its accepted
    /// `(caller, site)` sequence through `inline_call_site`, which locates
    /// every call with `Function::find_call`.
    InlineReplay {
        /// Inlines the inliner accepted (and the replay repeated).
        accepted: usize,
        /// The first function whose body differs.
        function: String,
    },
}

impl fmt::Display for Divergence {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Divergence::Build(msg) => write!(f, "build error: {msg}"),
            Divergence::Trace {
                stage,
                projection,
                index,
                expected,
                actual,
            } => write!(
                f,
                "trace divergence after {} ({projection:?} projection) at event {index}: \
                 expected {expected:?}, got {actual:?}",
                stage.name()
            ),
            Divergence::FastPath {
                module,
                max_steps,
                defenses,
            } => write!(
                f,
                "fast-path divergence on {module} (max_steps {max_steps}, defenses \
                 {defenses:?}): results or stats differ with trace collection off"
            ),
            Divergence::InlineReplay { accepted, function } => write!(
                f,
                "inliner divergence: replaying its {accepted} accepted inlines through \
                 find_call gives a different {function}"
            ),
        }
    }
}

/// What a passing oracle run observed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OracleReport {
    /// The stages that were snapshotted and compared, in pipeline order.
    pub stages: Vec<Stage>,
    /// Number of observable events in the baseline trace.
    pub events: usize,
}

/// The pipeline configuration the oracle exercises: the paper's best
/// optimization configuration, every defense, and DCE — the widest possible
/// stage coverage. The defense backend follows `PIBE_ARCH` so the whole
/// difftest suite runs per-arch in the CI matrix.
pub fn oracle_config() -> PibeConfig {
    oracle_config_for(Arch::from_env())
}

/// [`oracle_config`] pinned to an explicit defense backend, for windows
/// that sweep every arch in one process regardless of the environment.
pub fn oracle_config_for(arch: Arch) -> PibeConfig {
    PibeConfig::builder()
        .lax()
        .defenses(DefenseSet::ALL)
        .dce(true)
        .arch(arch)
        .build()
}

/// Step budget for the profiling runs (mirrors the trace budget).
const PROFILE_MAX_STEPS: u64 = 1_000_000;

/// Profiles the case's workload and merges in resolver *coverage*: every
/// positive-weight target is recorded once, so DCE can never strip a
/// function the resolver might still produce at runtime (exactly like
/// address-taken information protects functions from `--gc-sections`).
///
/// Public so external bit-identity suites can rebuild a fixture's image
/// through exactly the profile the oracle would use.
pub fn profile_case(case: &Case) -> pibe_profile::Profile {
    let cfg = SimConfig {
        collect_profile: true,
        max_steps: PROFILE_MAX_STEPS,
        ..SimConfig::default()
    };
    let mut sim = Simulator::new(
        &case.module,
        case.resolver.bind(&case.module),
        case.seed,
        cfg,
    );
    for _ in 0..case.runs {
        // Errors (e.g. empty target distributions) still leave a usable
        // partial profile behind.
        let _ = sim.call_entry(case.entry);
    }
    let mut profile = sim.take_profile();
    for (site, targets) in &case.resolver.entries {
        for (name, w) in targets {
            if *w > 0 {
                if let Some(f) = case.module.find_function(name) {
                    profile.record_indirect(*site, f);
                }
            }
        }
    }
    profile
}

fn first_mismatch(expected: &[Obs], actual: &[Obs]) -> Option<usize> {
    if expected == actual {
        return None;
    }
    let i = expected
        .iter()
        .zip(actual.iter())
        .position(|(a, b)| a != b)
        .unwrap_or_else(|| expected.len().min(actual.len()));
    Some(i)
}

/// Builds `case`'s image through [`oracle_config_for`] and returns every
/// committed stage's module, in pipeline order.
fn stage_snapshots(
    case: &Case,
    sabotage: Option<Sabotage>,
    arch: Arch,
) -> Result<Vec<(Stage, Module)>, Divergence> {
    let profile = profile_case(case);

    let snapshots: RefCell<Vec<(Stage, Module)>> = RefCell::new(Vec::new());
    let observer = |s: pibe::StageSnapshot<'_>| {
        snapshots.borrow_mut().push((s.stage, s.module.clone()));
    };
    let mut builder = Image::builder(&case.module)
        .profile(&profile)
        .config(oracle_config_for(arch))
        .observe_stages(&observer);
    if let Some((stage, fault, seed)) = sabotage {
        builder = builder.inject_semantic_fault(stage, fault, seed);
    }
    builder
        .build()
        .map_err(|e| Divergence::Build(format!("pipeline failed: {e}")))?;
    Ok(snapshots.into_inner())
}

/// Runs the differential oracle on `case` under the `PIBE_ARCH` backend.
///
/// With `sabotage: None` this must pass for every healthy case — a failure
/// is a real semantics-preservation bug in a pipeline stage. With a sabotage
/// the oracle is expected to *catch* the corruption (the chaos hook produces
/// valid-but-wrong IR that slips past the structural verifier by design).
pub fn run_oracle(case: &Case, sabotage: Option<Sabotage>) -> Result<OracleReport, Divergence> {
    run_oracle_at(case, sabotage, Arch::from_env())
}

/// [`run_oracle`] pinned to an explicit defense backend: the per-arch fuzz
/// window runs every backend from one process.
pub fn run_oracle_at(
    case: &Case,
    sabotage: Option<Sabotage>,
    arch: Arch,
) -> Result<OracleReport, Divergence> {
    case.module
        .verify()
        .map_err(|e| Divergence::Build(format!("baseline module invalid: {e}")))?;

    let snapshots = stage_snapshots(case, sabotage, arch)?;
    let entry_name = case.module.function(case.entry).name().to_string();
    let baseline = run_trace(case, &case.module, case.entry);

    let mut stages = Vec::with_capacity(snapshots.len());
    for (stage, module) in &snapshots {
        module
            .verify()
            .map_err(|e| Divergence::Build(format!("{} snapshot invalid: {e}", stage.name())))?;
        let entry = module.find_function(&entry_name).ok_or_else(|| {
            Divergence::Build(format!("{} stripped entry {entry_name}", stage.name()))
        })?;
        // Call/return structure survives promotion verbatim; inlining (and
        // everything after) preserves only the core observables.
        let projection = match stage {
            Stage::Icp => Projection::Full,
            _ => Projection::Core,
        };
        let expected = project(&baseline, projection);
        let actual = project(&run_trace(case, module, entry), projection);
        if let Some(index) = first_mismatch(&expected, &actual) {
            return Err(Divergence::Trace {
                stage: *stage,
                projection,
                index,
                expected: expected.get(index).cloned(),
                actual: actual.get(index).cloned(),
            });
        }
        stages.push(*stage);
    }

    Ok(OracleReport {
        stages,
        events: baseline.len(),
    })
}

/// Step budgets of the fast-path oracle: the trace budget, and budgets
/// small enough that the step limit trips inside a run of ops.
const FAST_PATH_BUDGETS: [u64; 4] = [TRACE_MAX_STEPS, 37, 200, 1000];

/// Runs the simulator's fast-path oracle on `case` under the `PIBE_ARCH`
/// backend.
///
/// With trace collection off the simulator charges a run of consecutive
/// ops in one step; with it on, it steps per instruction. The baseline
/// module and every stage snapshot [`run_oracle`] compares run both ways
/// at step budgets of 1,000,000, 37, 200 and 1,000 (the small ones trip
/// inside runs of ops), without defenses and, for the hardened snapshot,
/// also under [`DefenseSet::ALL`]. Every `call_entry` result and the
/// final [`ExecStats`](pibe_sim::ExecStats) must be equal.
pub fn run_fast_path_oracle(case: &Case) -> Result<(), Divergence> {
    let arch = Arch::from_env();
    let snapshots = stage_snapshots(case, None, arch)?;
    let entry_name = case.module.function(case.entry).name();
    let mut runs = vec![("baseline", &case.module, DefenseSet::NONE)];
    for (stage, module) in &snapshots {
        runs.push((stage.name(), module, DefenseSet::NONE));
        if *stage == Stage::Harden {
            runs.push((stage.name(), module, DefenseSet::ALL));
        }
    }
    for (name, module, defenses) in runs {
        let entry = module
            .find_function(entry_name)
            .ok_or_else(|| Divergence::Build(format!("{name} stripped entry {entry_name}")))?;
        for max_steps in FAST_PATH_BUDGETS {
            let cfg = SimConfig {
                defenses,
                arch,
                max_steps,
                ..SimConfig::default()
            };
            // Every `call_entry` result, then the final statistics.
            let run = |collect_trace| {
                let cfg = SimConfig {
                    collect_trace,
                    ..cfg
                };
                let mut sim = Simulator::new(module, case.resolver.bind(module), case.seed, cfg);
                let results: Vec<_> = (0..case.runs).map(|_| sim.call_entry(entry)).collect();
                (results, *sim.stats())
            };
            if run(true) != run(false) {
                return Err(Divergence::FastPath {
                    module: name.to_string(),
                    max_steps,
                    defenses,
                });
            }
        }
    }
    Ok(())
}

/// Runs the inliner replay oracle ([`inline_replay`]) on `case`, through
/// its profile and [`oracle_config`]. Returns the number of inlines
/// replayed.
pub fn run_inline_replay_oracle(case: &Case) -> Result<usize, Divergence> {
    inline_replay(&case.module, &profile_case(case), &oracle_config())
}

/// Checks the PIBE inliner against its reference call lookup.
///
/// Promotes `base`'s indirect calls as `config` would, runs
/// [`run_inliner`] on a clone of the post-promotion module while recording
/// its `inline.accept` events, then replays the accepted `(caller, site)`
/// sequence through [`inline_call_site`] — which locates each call with
/// `Function::find_call` — on a second clone. The inliner finds calls
/// through position hints instead, so equal modules show that every hint
/// named the call `find_call` picks. Returns the number of inlines
/// replayed; a config without the inliner replays none.
///
/// Records through the process-global tracer and drains it: concurrent
/// replays serialize on an internal lock, and anyone else reading the
/// tracer at the same time must not.
pub fn inline_replay(
    base: &Module,
    profile: &Profile,
    config: &PibeConfig,
) -> Result<usize, Divergence> {
    let Some(inliner) = config.inliner else {
        return Ok(0);
    };
    let mut weights = SiteWeights::from_profile(profile);
    let mut promoted = base.clone();
    if let Some(icp) = &config.icp {
        promote_indirect_calls(&mut promoted, &mut weights, profile, icp);
    }

    let mut inlined = promoted.clone();
    let accepted = {
        static GATE: Mutex<()> = Mutex::new(());
        let _gate = GATE.lock().unwrap_or_else(|e| e.into_inner());
        let was_enabled = pibe_trace::enabled();
        pibe_trace::set_enabled(true);
        let _ = pibe_trace::take();
        {
            // Names this thread's track among any others recording.
            let _span = pibe_trace::span("difftest.inline_replay");
            run_inliner(&mut inlined, &weights, profile, &inliner);
        }
        let data = pibe_trace::take();
        pibe_trace::set_enabled(was_enabled);
        let track = data
            .spans
            .iter()
            .find(|s| s.name == "difftest.inline_replay")
            .map(|s| s.track);
        data.events
            .iter()
            .filter(|e| Some(e.track) == track && e.name == "inline.accept")
            .map(accepted_call)
            .collect::<Result<Vec<_>, _>>()?
    };

    let mut replayed = promoted;
    for &(caller, site) in &accepted {
        inline_call_site(&mut replayed, caller, site)
            .map_err(|e| Divergence::Build(format!("replaying an accepted inline failed: {e}")))?;
    }
    bit_identical(&inlined, &replayed).map_err(|m| Divergence::InlineReplay {
        accepted: accepted.len(),
        function: m
            .first_divergence
            .map_or_else(|| "module header".to_string(), |(_, name)| name),
    })?;
    Ok(accepted.len())
}

/// The `(caller, site)` an `inline.accept` event names.
fn accepted_call(e: &pibe_trace::EventRecord) -> Result<(FuncId, SiteId), Divergence> {
    let arg = |key: &str| {
        e.args.iter().find_map(|(k, v)| match v {
            pibe_trace::Value::U64(n) if *k == key => Some(*n),
            _ => None,
        })
    };
    match (arg("caller"), arg("site")) {
        (Some(caller), Some(site)) => Ok((FuncId::from_raw(caller as u32), SiteId::from_raw(site))),
        _ => Err(Divergence::Build(format!(
            "inline.accept event without caller and site: {:?}",
            e.args
        ))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::{gen_case, GenConfig};

    #[test]
    fn a_healthy_case_passes_every_stage() {
        let case = gen_case(5, &GenConfig::default());
        let report = run_oracle(&case, None).expect("healthy case must pass");
        assert_eq!(
            report.stages,
            vec![Stage::Icp, Stage::Inline, Stage::Dce, Stage::Harden],
            "the oracle must cover every committed stage"
        );
        assert!(report.events > 0);
    }

    #[test]
    fn the_oracle_is_deterministic() {
        let case = gen_case(21, &GenConfig::default());
        assert_eq!(run_oracle(&case, None), run_oracle(&case, None));
    }

    #[test]
    fn the_inliner_replays_to_the_same_module() {
        let case = gen_case(9, &GenConfig::default());
        let accepted = run_inline_replay_oracle(&case).expect("healthy case must replay");
        assert!(accepted > 0, "the case must inline something");
    }

    #[test]
    fn an_invalid_baseline_is_rejected_up_front() {
        let mut case = gen_case(5, &GenConfig::default());
        case.module = Module::new("empty");
        let mut b = pibe_ir::FunctionBuilder::new("f0", 0);
        b.op(pibe_ir::OpKind::Alu);
        b.jump(pibe_ir::BlockId::ENTRY); // no return path anywhere
        case.module.add_function(b.build());
        case.entry = pibe_ir::FuncId::from_raw(0);
        case.resolver.entries.clear();
        match run_oracle(&case, None) {
            Err(Divergence::Build(msg)) => assert!(msg.contains("baseline")),
            other => panic!("expected a build divergence, got {other:?}"),
        }
    }
}
