//! The hardening phase: profile + config → production image.
//!
//! The staged [`ImageBuilder`] is the canonical entry point:
//!
//! ```ignore
//! let image = Image::builder(&base)
//!     .profile(&profile)
//!     .config(cfg)
//!     .build()?;
//! ```
//!
//! The pipeline runs one policy: the profile is validated (and, when
//! dirty, repaired) against the module before any pass consumes it, the
//! input module is verified, and each transform stage is verified after it
//! runs. A stage that produced structurally invalid IR aborts the build
//! with a typed [`PipelineError::StageFailed`]; its module is discarded.
//! Keeping a service running past a failed build is the supervisor's job
//! (the serve loop keeps its last-known-good image), not the pipeline's.
//!
//! A build has two halves. `optimize` runs the arch-agnostic stages, the
//! rows of `OPTIMIZE_STAGES` (ICP, inlining, DCE), which see only
//! [`PibeConfig::optimization`]; `lower` hardens the result for one arch
//! and defense set, audits and sizes it. [`ProfiledImageBuilder::build`] is
//! one then the other; the [`ImageFarm`](crate::ImageFarm) runs `optimize`
//! once per optimization key and lowers it for every configuration that
//! shares the key. A single runner owns every stage's timing, trace span
//! and verification.

use crate::chaos::{ModuleCorruption, SemanticCorruption};
use crate::config::{Optimization, PibeConfig};
use pibe_harden::{audit_backend, AuditError, DefenseBackend, HardenReport, SecurityAudit};
use pibe_ir::{FuncId, Module, VerifyError};
use pibe_passes::{
    promote_indirect_calls, run_inliner, strip_unreachable_threaded, DceMap, DceStats, IcpStats,
    InlinerStats, SiteWeights,
};
use pibe_profile::{Profile, ProfileRepair};
use serde::{Deserialize, Serialize};
use std::any::Any;
use std::borrow::Cow;
use std::fmt;
use std::sync::Arc;
use std::time::Instant;

/// A production kernel image: the transformed module plus every statistic
/// the evaluation section reports about how it was built.
#[derive(Debug, Clone)]
pub struct Image {
    /// The transformed, hardened module.
    pub module: Module,
    /// The configuration that built it.
    pub config: PibeConfig,
    /// ICP statistics, when promotion ran.
    pub icp_stats: Option<IcpStats>,
    /// Inliner statistics, when inlining ran.
    pub inline_stats: Option<InlinerStats>,
    /// Dead-function elimination statistics, when DCE ran.
    pub dce_stats: Option<DceStats>,
    /// Old-id → new-id translation for the DCE renumbering, when DCE ran
    /// (needed to remap entry tables and target oracles onto the image).
    pub dce_map: Option<DceMap>,
    /// Jump-table handling report.
    pub harden_report: HardenReport,
    /// Static security classification of every indirect branch (Table 11).
    pub audit: SecurityAudit,
    /// Image size statistics.
    pub size: ImageSize,
    /// Wall-clock cost of each pipeline stage for this build.
    pub metrics: BuildMetrics,
    /// What profile repair did, when the input profile had to be fixed
    /// (`None` when it was already clean).
    pub repair: Option<ProfileRepair>,
}

impl Image {
    /// Starts a staged build over `base`. The base module is never
    /// modified; the pipeline clones it.
    pub fn builder(base: &Module) -> ImageBuilder<'_> {
        ImageBuilder { base }
    }

    /// Whether `other` is the same build output: module (name and every
    /// function, so also the printed IR), configuration, pass statistics,
    /// DCE map, harden report, audit, size and repair report. Only the
    /// timings may differ.
    pub(crate) fn same_output(&self, other: &Image) -> bool {
        self.config == other.config
            && self.icp_stats == other.icp_stats
            && self.inline_stats == other.inline_stats
            && self.dce_stats == other.dce_stats
            && self.dce_map == other.dce_map
            && self.harden_report == other.harden_report
            && self.audit == other.audit
            && self.size == other.size
            && self.repair == other.repair
            && self.module.name() == other.module.name()
            && self.module.len() == other.module.len()
            && self
                .module
                .functions()
                .iter()
                .zip(other.module.functions())
                .all(|(f, g)| Arc::ptr_eq(f, g) || f == g)
    }
}

/// Size measures of an image (Table 12).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ImageSize {
    /// Model machine-code bytes including defense sequences.
    pub bytes: u64,
    /// Resident kernel-text memory: bytes rounded up to 2 MiB huge pages
    /// (why Table 12's "mem size" moves in 12.5%/25% steps).
    pub mem_pages_2m: u64,
}

impl ImageSize {
    fn of(
        module: &Module,
        backend: &dyn DefenseBackend,
        defenses: pibe_harden::DefenseSet,
    ) -> Self {
        let bytes = backend.hardened_image_bytes(module, defenses);
        ImageSize {
            bytes,
            mem_pages_2m: bytes.div_ceil(2 * 1024 * 1024),
        }
    }
}

/// A transform stage of the pipeline, in pipeline order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Stage {
    /// Indirect call promotion.
    Icp,
    /// The security inliner.
    Inline,
    /// Dead-function elimination.
    Dce,
    /// The defense transforms.
    Harden,
}

impl Stage {
    /// The stage's label as used in reports and metrics.
    pub fn name(self) -> &'static str {
        match self {
            Stage::Icp => "icp",
            Stage::Inline => "inline",
            Stage::Dce => "dce",
            Stage::Harden => "harden",
        }
    }

    /// The trace span the stage runs under.
    fn span(self) -> &'static str {
        match self {
            Stage::Icp => "stage.icp",
            Stage::Inline => "stage.inline",
            Stage::Dce => "stage.dce",
            Stage::Harden => "stage.harden",
        }
    }
}

impl fmt::Display for Stage {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Wall-clock nanoseconds spent in each pipeline stage of one build.
///
/// Timings are measurement artifacts, not build outputs: two builds of the
/// same configuration produce identical modules and statistics but
/// different `BuildMetrics`. The farm's aggregated report sums these across
/// every image it built.
#[derive(Debug, Clone, Copy, Default, Serialize, Deserialize)]
pub struct BuildMetrics {
    /// Profile validation/repair against the base module.
    pub validate_ns: u64,
    /// Cloning the base module.
    pub clone_ns: u64,
    /// Indirect call promotion (zero when the config disables ICP).
    pub icp_ns: u64,
    /// The security inliner (zero when the config disables inlining).
    pub inline_ns: u64,
    /// Dead-function elimination (zero when the config disables DCE).
    pub dce_ns: u64,
    /// Defense transforms.
    pub harden_ns: u64,
    /// The static security audit.
    pub audit_ns: u64,
    /// Size accounting.
    pub size_ns: u64,
    /// Structural verification (input, per-stage, and final).
    pub verify_ns: u64,
    /// End-to-end build time (at least the sum of the stages).
    pub total_ns: u64,
    /// Always 0: a stage that fails its post-stage verification aborts the
    /// build, so nothing is rolled back. Kept because the benchmark reports
    /// it as `build.rollbacks`; it goes with that metric.
    pub rollbacks: u64,
}

impl BuildMetrics {
    /// Stage labels and durations in pipeline order (excludes the total
    /// and `rollbacks`).
    pub fn stages(&self) -> [(&'static str, u64); 9] {
        [
            ("validate", self.validate_ns),
            ("clone", self.clone_ns),
            ("icp", self.icp_ns),
            ("inline", self.inline_ns),
            ("dce", self.dce_ns),
            ("harden", self.harden_ns),
            ("audit", self.audit_ns),
            ("size", self.size_ns),
            ("verify", self.verify_ns),
        ]
    }

    /// Accumulates another build's timings into this aggregate.
    pub fn accumulate(&mut self, other: &BuildMetrics) {
        self.validate_ns += other.validate_ns;
        self.clone_ns += other.clone_ns;
        self.icp_ns += other.icp_ns;
        self.inline_ns += other.inline_ns;
        self.dce_ns += other.dce_ns;
        self.harden_ns += other.harden_ns;
        self.audit_ns += other.audit_ns;
        self.size_ns += other.size_ns;
        self.verify_ns += other.verify_ns;
        self.total_ns += other.total_ns;
        self.rollbacks += other.rollbacks;
    }
}

/// Why the pipeline refused to produce an image.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PipelineError {
    /// The input (or final) module failed structural verification. Unlike
    /// the original `debug_assert!`, this check runs in release builds too:
    /// a silently malformed image would invalidate every downstream
    /// measurement.
    InvalidModule(VerifyError),
    /// A transform stage produced an invalid module. The build aborts and
    /// its module is discarded.
    StageFailed {
        /// The stage whose output failed verification.
        stage: Stage,
        /// The verifier error its output exhibited.
        error: VerifyError,
    },
    /// The build panicked inside a farm worker thread; the panic was
    /// contained and converted into this error (the message is the panic
    /// payload, when it was a string).
    StagePanicked {
        /// The panic payload, or a placeholder for non-string payloads.
        message: String,
    },
    /// The security audit could not classify a branch — evidence that the
    /// image was hardened under a different backend or defense set than
    /// the one it was audited against. The inner error names the offending
    /// function and site.
    AuditFailed(AuditError),
}

impl fmt::Display for PipelineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PipelineError::InvalidModule(e) => {
                write!(f, "pipeline produced an invalid module: {e}")
            }
            PipelineError::StageFailed { stage, error } => {
                write!(
                    f,
                    "stage {stage} produced an invalid module (build aborted): {error}"
                )
            }
            PipelineError::StagePanicked { message } => {
                write!(f, "build panicked in a worker thread: {message}")
            }
            PipelineError::AuditFailed(e) => {
                write!(f, "security audit rejected the image: {e}")
            }
        }
    }
}

impl PipelineError {
    /// Whether a supervisor (the serve loop, a build farm) may reasonably
    /// retry or continue past this failure while serving its last-known-good
    /// image.
    ///
    /// *Recoverable* errors are faults of one build attempt — a stage that
    /// produced invalid IR ([`Self::StageFailed`]) or a contained worker
    /// panic ([`Self::StagePanicked`]); the base module and cumulative
    /// profile are intact, so a later epoch can succeed. *Unrecoverable*
    /// errors indict the inputs or the toolchain itself — a structurally
    /// invalid module ([`Self::InvalidModule`]) or an audit mismatch
    /// ([`Self::AuditFailed`]) — and will deterministically recur until an
    /// operator intervenes.
    pub fn is_recoverable(&self) -> bool {
        match self {
            PipelineError::StageFailed { .. } | PipelineError::StagePanicked { .. } => true,
            PipelineError::InvalidModule(_) | PipelineError::AuditFailed(_) => false,
        }
    }

    /// A contained panic (the payload `catch_unwind` returns) as
    /// [`Self::StagePanicked`], carrying the panic message when the payload
    /// is a string.
    pub fn from_panic(payload: Box<dyn Any + Send>) -> Self {
        let message = if let Some(s) = payload.downcast_ref::<&str>() {
            (*s).to_string()
        } else if let Some(s) = payload.downcast_ref::<String>() {
            s.clone()
        } else {
            "non-string panic payload".to_string()
        };
        PipelineError::StagePanicked { message }
    }
}

impl std::error::Error for PipelineError {}

/// First builder stage: has a base module, needs a profile.
#[derive(Debug, Clone, Copy)]
pub struct ImageBuilder<'m> {
    base: &'m Module,
}

impl<'m> ImageBuilder<'m> {
    /// Attaches the profile that drives budget selection in both passes.
    pub fn profile<'p>(self, profile: &'p Profile) -> ProfiledImageBuilder<'m, 'p> {
        ProfiledImageBuilder {
            base: self.base,
            profile,
            config: PibeConfig::lto(),
            threads: pibe_ir::par::default_threads(),
            sabotage: None,
            semantic_sabotage: None,
            observer: None,
        }
    }
}

/// The committed output of one pipeline stage, handed to a stage observer
/// registered with
/// [`ProfiledImageBuilder::observe_stages`]. Borrows are only valid for the
/// duration of the callback; observers that need the module later clone it.
#[derive(Debug, Clone, Copy)]
pub struct StageSnapshot<'a> {
    /// The stage that just committed.
    pub stage: Stage,
    /// The module as it stands after the stage.
    pub module: &'a Module,
    /// The DCE renumbering, present from the DCE stage onward (needed to
    /// translate pre-DCE function ids when interpreting later snapshots).
    pub dce_map: Option<&'a DceMap>,
}

/// Second builder stage: ready to build. The configuration defaults to the
/// LTO baseline ([`PibeConfig::lto`]) until [`config`](Self::config)
/// replaces it.
#[derive(Clone, Copy)]
pub struct ProfiledImageBuilder<'m, 'p> {
    base: &'m Module,
    profile: &'p Profile,
    config: PibeConfig,
    threads: usize,
    sabotage: Option<(Stage, ModuleCorruption, u64)>,
    semantic_sabotage: Option<(Stage, SemanticCorruption, u64)>,
    observer: Option<&'m dyn Fn(StageSnapshot<'_>)>,
}

impl fmt::Debug for ProfiledImageBuilder<'_, '_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ProfiledImageBuilder")
            .field("base", &self.base.name())
            .field("config", &self.config)
            .field("threads", &self.threads)
            .field("sabotage", &self.sabotage)
            .field("semantic_sabotage", &self.semantic_sabotage)
            .field("observer", &self.observer.is_some())
            .finish()
    }
}

impl<'m, 'p> ProfiledImageBuilder<'m, 'p> {
    /// Selects the build configuration.
    pub fn config(mut self, config: PibeConfig) -> Self {
        self.config = config;
        self
    }

    /// Overrides the number of worker threads the per-function stages
    /// (harden, DCE edge scanning, verification) fan across. Defaults to
    /// `PIBE_BUILD_THREADS` when set, else the machine's available
    /// parallelism. Outputs are bit-identical under any thread count; the
    /// farm pins its builds to one thread each so the pool, not the
    /// stages, owns the machine.
    ///
    /// # Panics
    /// Panics if `threads` is zero.
    pub fn threads(mut self, threads: usize) -> Self {
        assert!(threads >= 1, "a build needs at least one thread");
        self.threads = threads;
        self
    }

    /// Chaos hook: corrupts the module immediately after `stage` runs (the
    /// corruption only fires if the stage's pass actually executes under
    /// the configuration), simulating a buggy pass for the post-stage
    /// verifier. Deterministic in `seed`.
    pub fn inject_fault(mut self, stage: Stage, fault: ModuleCorruption, seed: u64) -> Self {
        self.sabotage = Some((stage, fault, seed));
        self
    }

    /// Chaos hook for *semantic* faults: corrupts the module immediately
    /// after `stage` runs with a [`SemanticCorruption`] — IR that still
    /// verifies but behaves differently. The per-stage verifier cannot
    /// catch these (that is their point); the `pibe-difftest` differential
    /// oracle is what this hook exists to exercise. Deterministic in
    /// `seed`.
    pub fn inject_semantic_fault(
        mut self,
        stage: Stage,
        fault: SemanticCorruption,
        seed: u64,
    ) -> Self {
        self.semantic_sabotage = Some((stage, fault, seed));
        self
    }

    /// Registers an observer invoked with the module as committed after
    /// each transform stage that ran and verified (in pipeline order: icp,
    /// inline, dce, harden). A stage that fails its verify produces no
    /// snapshot — the observer sees exactly the intermediate states the
    /// image was actually built through. This is the differential-testing
    /// tap: an oracle can replay the same workload against every snapshot
    /// and diff the traces.
    pub fn observe_stages(mut self, observer: &'m dyn Fn(StageSnapshot<'_>)) -> Self {
        self.observer = Some(observer);
        self
    }

    fn sabotage(&self, stage: Stage, module: &mut Module) {
        if let Some((s, fault, seed)) = self.sabotage {
            if s == stage {
                fault.apply(module, seed);
            }
        }
        if let Some((s, fault, seed)) = self.semantic_sabotage {
            if s == stage {
                fault.apply(module, seed);
            }
        }
    }

    fn notify(&self, stage: Stage, module: &Module, dce_map: Option<&DceMap>) {
        if let Some(obs) = self.observer {
            obs(StageSnapshot {
                stage,
                module,
                dce_map,
            });
        }
    }

    /// Runs the hardening phase in its two halves. `optimize` validates
    /// (and, when dirty, repairs) the profile against the base, clones and
    /// verifies the base, then runs indirect call promotion and the
    /// security inliner per the configuration (ICP first, as in the paper)
    /// and dead-function elimination when enabled. `lower` then runs the
    /// defense transforms, audits the result and verifies the final
    /// module. Every transform stage is verified after it runs.
    ///
    /// # Errors
    /// * [`PipelineError::StageFailed`] — a stage produced invalid IR;
    /// * [`PipelineError::InvalidModule`] — the input or final module
    ///   failed structural verification.
    pub fn build(self) -> Result<Image, PipelineError> {
        let config = self.config;
        let _build_span = pibe_trace::span_args("pipeline.build", || {
            vec![
                ("icp", pibe_trace::Value::from(config.icp.is_some())),
                ("inline", pibe_trace::Value::from(config.inliner.is_some())),
                (
                    "defenses",
                    pibe_trace::Value::from(format!("{:?}", config.defenses)),
                ),
                ("arch", pibe_trace::Value::from(config.arch.name())),
            ]
        });
        let image = self.lower(self.optimize()?)?;
        pibe_trace::record_value("pipeline.build_us", image.metrics.total_ns / 1_000);
        Ok(image)
    }

    /// The arch-agnostic first half of [`build`](Self::build): validate or
    /// repair the profile, clone and verify the base, then ICP → inline →
    /// DCE, each verified. The stages read only
    /// [`PibeConfig::optimization`], so the result is the same for every
    /// configuration that shares it.
    pub(crate) fn optimize(&self) -> Result<Optimized, PipelineError> {
        let start = Instant::now();
        let mut metrics = BuildMetrics::default();
        let (profile, repair) = timed(&mut metrics.validate_ns, "stage.validate", || {
            self.validated_profile()
        });
        let module = timed(&mut metrics.clone_ns, "stage.clone", || self.base.clone());
        // Input verification: reject corrupt bases before any pass touches
        // them, so a stage failure always implicates the stage.
        timed(&mut metrics.verify_ns, "stage.verify", || {
            module.verify_threaded(self.threads)
        })
        .map_err(PipelineError::InvalidModule)?;

        let mut out = Optimized {
            module,
            icp_stats: None,
            inline_stats: None,
            dce_stats: None,
            dce_map: None,
            repair,
            metrics: BuildMetrics::default(),
        };
        let mut inputs = Inputs {
            weights: SiteWeights::from_profile(&profile),
            profile: &profile,
            threads: self.threads,
        };
        let optimization = self.config.optimization();
        for row in &OPTIMIZE_STAGES {
            self.run_stage(
                row.stage,
                (row.enabled)(&optimization),
                (row.ns)(&mut metrics),
                &mut out,
                |out| (row.run)(out, &mut inputs, &optimization),
            )?;
        }
        metrics.total_ns = start.elapsed().as_nanos() as u64;
        out.metrics = metrics;
        Ok(out)
    }

    /// The second half of [`build`](Self::build): harden `optimized` for
    /// the configuration's arch and defenses, audit it, size it and verify
    /// the final module. The image's metrics are `optimized`'s plus the
    /// lowering's.
    pub(crate) fn lower(&self, mut optimized: Optimized) -> Result<Image, PipelineError> {
        let start = Instant::now();
        let (config, threads) = (self.config, self.threads);
        let backend = config.arch.backend();
        let mut metrics = optimized.metrics;
        let mut harden_report = HardenReport::default();
        self.run_stage(
            Stage::Harden,
            true,
            &mut metrics.harden_ns,
            &mut optimized,
            |out| {
                harden_report =
                    pibe_harden::apply(&mut out.module, backend, config.defenses, threads);
            },
        )?;
        let Optimized {
            module,
            icp_stats,
            inline_stats,
            dce_stats,
            dce_map,
            repair,
            metrics: _,
        } = optimized;

        let audit = timed(&mut metrics.audit_ns, "stage.audit", || {
            audit_backend(&module, backend, config.defenses)
        })
        .map_err(PipelineError::AuditFailed)?;
        let size = timed(&mut metrics.size_ns, "stage.size", || {
            ImageSize::of(&module, backend, config.defenses)
        });
        // No image leaves the pipeline unverified.
        timed(&mut metrics.verify_ns, "stage.verify", || {
            module.verify_threaded(threads)
        })
        .map_err(PipelineError::InvalidModule)?;

        metrics.total_ns += start.elapsed().as_nanos() as u64;
        Ok(Image {
            module,
            config,
            icp_stats,
            inline_stats,
            dce_stats,
            dce_map,
            harden_report,
            audit,
            size,
            metrics,
            repair,
        })
    }

    /// The profile the passes consume: the input itself when it is clean,
    /// else a repaired copy (with the repair report).
    fn validated_profile(&self) -> (Cow<'p, Profile>, Option<ProfileRepair>) {
        if self.profile.validate_against(self.base).is_clean() {
            return (Cow::Borrowed(self.profile), None);
        }
        let mut fixed = self.profile.clone();
        let report = fixed.repair_against(self.base);
        (Cow::Owned(fixed), Some(report))
    }

    /// Runs one transform stage under its trace span: when `enabled`, the
    /// pass, the chaos hooks, and the post-stage verify, which aborts the
    /// build with a typed [`PipelineError::StageFailed`] on failure. The
    /// stage's time — its verify included — goes to `ns`, and its verified
    /// output to the observer.
    fn run_stage(
        &self,
        stage: Stage,
        enabled: bool,
        ns: &mut u64,
        out: &mut Optimized,
        pass: impl FnOnce(&mut Optimized),
    ) -> Result<(), PipelineError> {
        timed(ns, stage.span(), || {
            if !enabled {
                return Ok(());
            }
            pass(out);
            self.sabotage(stage, &mut out.module);
            out.module
                .verify_threaded(self.threads)
                .map_err(|error| PipelineError::StageFailed { stage, error })?;
            self.notify(stage, &out.module, out.dce_map.as_ref());
            Ok(())
        })
    }
}

/// Runs `f` inside the trace span `span`, adding its wall-clock time to
/// `ns`.
fn timed<T>(ns: &mut u64, span: &'static str, f: impl FnOnce() -> T) -> T {
    let start = Instant::now();
    let _span = pibe_trace::span(span);
    let out = f();
    *ns += start.elapsed().as_nanos() as u64;
    out
}

/// The output of [`ProfiledImageBuilder::optimize`]: the module after ICP,
/// inlining and DCE, each pass's report, the profile repair report and the
/// stage timings so far (`total_ns` is the optimization's wall-clock). It
/// depends only on the base, the profile and [`PibeConfig::optimization`],
/// so one `Optimized` lowers to every configuration that shares that key.
#[derive(Debug, Clone)]
pub(crate) struct Optimized {
    pub(crate) module: Module,
    pub(crate) icp_stats: Option<IcpStats>,
    pub(crate) inline_stats: Option<InlinerStats>,
    pub(crate) dce_stats: Option<DceStats>,
    pub(crate) dce_map: Option<DceMap>,
    pub(crate) repair: Option<ProfileRepair>,
    pub(crate) metrics: BuildMetrics,
}

/// What the optimization stages read besides the module: the site weights
/// (which ICP updates for the inliner), the validated profile and the
/// stage thread count.
struct Inputs<'p> {
    weights: SiteWeights,
    profile: &'p Profile,
    threads: usize,
}

/// One optimization stage of [`OPTIMIZE_STAGES`]. Its functions receive
/// only the [`Optimization`] half of the configuration, so no optimization
/// stage can read the arch or the defenses.
struct StageRow {
    stage: Stage,
    /// The [`BuildMetrics`] field the stage's time goes to.
    ns: fn(&mut BuildMetrics) -> &mut u64,
    /// Whether the configuration runs the stage.
    enabled: fn(&Optimization) -> bool,
    /// The pass: rewrites the module and records its report.
    run: fn(&mut Optimized, &mut Inputs<'_>, &Optimization),
}

/// The optimization stages in pipeline order (§4): promotion, inlining,
/// then dead-function elimination. The defense transforms run on whatever
/// remains, in [`ProfiledImageBuilder::lower`].
const OPTIMIZE_STAGES: [StageRow; 3] = [
    StageRow {
        stage: Stage::Icp,
        ns: |m| &mut m.icp_ns,
        enabled: |o| o.icp.is_some(),
        run: |out, inputs, o| {
            let icp = o.icp.as_ref().expect("enabled");
            out.icp_stats = Some(promote_indirect_calls(
                &mut out.module,
                &mut inputs.weights,
                inputs.profile,
                icp,
            ));
        },
    },
    StageRow {
        stage: Stage::Inline,
        ns: |m| &mut m.inline_ns,
        enabled: |o| o.inliner.is_some(),
        run: |out, inputs, o| {
            let inl = o.inliner.as_ref().expect("enabled");
            out.inline_stats = Some(run_inliner(
                &mut out.module,
                &inputs.weights,
                inputs.profile,
                inl,
            ));
        },
    },
    StageRow {
        stage: Stage::Dce,
        ns: |m| &mut m.dce_ns,
        enabled: |o| o.dce,
        run: run_dce,
    },
];

/// Dead-function elimination. Roots are the call-graph sources plus every
/// function the profile saw entered; the address-taken set is every
/// profiled indirect-call target. The pass trusts the profile here the way
/// real `--gc-sections` trusts relocations — a target the profile never
/// named *can* be stripped, which is exactly the kind of assumption the
/// differential oracle keeps honest. The pass rebuilds into a fresh module,
/// which replaces the current one.
fn run_dce(out: &mut Optimized, inputs: &mut Inputs<'_>, _optimization: &Optimization) {
    let (roots, taken) =
        dce_roots(inputs.profile).unwrap_or_else(|| (out.module.func_ids().collect(), Vec::new()));
    let (stripped, map, stats) =
        strip_unreachable_threaded(&out.module, &roots, &taken, inputs.threads);
    out.module = stripped;
    out.dce_stats = Some(stats);
    out.dce_map = Some(map);
}

/// Derives the DCE root and address-taken sets from the profile — the one
/// DCE root rule, shared by the pass and the serve loop's decision surface.
///
/// * Roots: every function the profile recorded an entry for. The profiler
///   records an entry on *every* dynamic function entry, so this is the set
///   of functions the profiling workload actually reached — the model's
///   `--gc-sections` keep-list.
/// * Address-taken: every target named by any value profile — the model's
///   stand-in for relocation-visible function addresses (an indirect call
///   may reach them even when no static edge does).
///
/// An empty profile yields no information: the result is `None`, and every
/// function becomes a root with nothing address-taken (DCE degrades to a
/// verified no-op rather than stripping the whole module). The profile was
/// validated (and, when dirty, repaired) against the base, so every
/// function it names exists.
pub(crate) fn dce_roots(profile: &Profile) -> Option<(Vec<FuncId>, Vec<FuncId>)> {
    let roots: Vec<FuncId> = profile.iter_entries().map(|(func, _count)| func).collect();
    if roots.is_empty() {
        return None;
    }
    let taken: Vec<FuncId> = profile
        .iter_indirect()
        .flat_map(|(_site, entries)| entries.iter().map(|e| e.target))
        .collect();
    Some((roots, taken))
}

#[cfg(test)]
mod tests {
    use super::*;
    use pibe_harden::DefenseSet;
    use pibe_ir::FunctionBuilder;
    use pibe_kernel::{
        measure::collect_profile,
        workloads::{lmbench_suite, WorkloadSpec},
        Kernel, KernelSpec,
    };
    use pibe_profile::{corrupt_profile, Budget};

    fn profiled_kernel() -> (Kernel, Profile) {
        let k = Kernel::generate(KernelSpec::test());
        let p = collect_profile(&k, &WorkloadSpec::lmbench(), &lmbench_suite(6), 2, 7)
            .expect("profiling run succeeds");
        (k, p)
    }

    #[test]
    fn lto_image_is_the_identity() {
        let (k, p) = profiled_kernel();
        let img = Image::builder(&k.module)
            .profile(&p)
            .config(PibeConfig::lto())
            .build()
            .expect("builds");
        assert_eq!(img.module.code_bytes(), k.module.code_bytes());
        assert!(img.icp_stats.is_none() && img.inline_stats.is_none());
        assert!(img.repair.is_none(), "clean profile needs no repair");
    }

    #[test]
    fn full_image_elides_and_grows() {
        let (k, p) = profiled_kernel();
        let img = Image::builder(&k.module)
            .profile(&p)
            .config(PibeConfig::full(Budget::P99_9, DefenseSet::ALL))
            .build()
            .expect("builds");
        let icp = img.icp_stats.unwrap();
        let inl = img.inline_stats.unwrap();
        assert!(icp.promoted_targets > 0, "hot targets promoted");
        assert!(inl.inlined_sites > 0, "hot sites inlined");
        assert!(
            img.module.code_bytes() > k.module.code_bytes(),
            "optimization grows the image"
        );
        img.module.verify().unwrap();
    }

    #[test]
    fn hardening_disables_jump_tables_and_audits() {
        let (k, p) = profiled_kernel();
        let img = Image::builder(&k.module)
            .profile(&p)
            .config(PibeConfig::lto_with(DefenseSet::ALL))
            .build()
            .expect("builds");
        assert!(img.harden_report.jump_tables_disabled > 0);
        assert_eq!(img.harden_report.jump_tables_kept, 5, "asm tables remain");
        assert_eq!(img.audit.vulnerable_ijumps, 5);
        assert!(img.audit.vulnerable_icalls > 0, "paravirt icalls remain");
        assert_eq!(img.audit.vulnerable_returns, 0);
        assert!(img.audit.boot_returns > 0);
    }

    #[test]
    fn hardware_cfi_arch_keeps_and_protects_jump_tables() {
        let (k, p) = profiled_kernel();
        let x86 = Image::builder(&k.module)
            .profile(&p)
            .config(PibeConfig::lto_with(DefenseSet::ALL))
            .build()
            .expect("builds");
        for arch in [pibe_harden::Arch::Arm64, pibe_harden::Arch::Riscv64] {
            let cfg = PibeConfig::lto_with(DefenseSet::ALL).with_arch(arch);
            let img = Image::builder(&k.module)
                .profile(&p)
                .config(cfg)
                .build()
                .expect("builds");
            assert_eq!(
                img.harden_report.jump_tables_disabled, 0,
                "{arch:?}: landing pads cover table targets, tables stay"
            );
            assert!(img.audit.protected_ijumps > 0, "{arch:?}");
            assert_eq!(img.audit.vulnerable_ijumps, 0, "{arch:?}");
            assert_eq!(img.audit.vulnerable_returns, 0, "{arch:?}");
            assert!(
                img.size.bytes < x86.size.bytes,
                "{arch:?}: hardware CFI is lighter than retpoline thunks"
            );
        }
    }

    #[test]
    fn inlining_duplicates_paravirt_gadgets() {
        let (k, p) = profiled_kernel();
        let before = Image::builder(&k.module)
            .profile(&p)
            .config(PibeConfig::lto_with(DefenseSet::ALL))
            .build()
            .expect("builds");
        let after = Image::builder(&k.module)
            .profile(&p)
            .config(PibeConfig::lax(DefenseSet::ALL))
            .build()
            .expect("builds");
        assert!(
            after.audit.vulnerable_icalls >= before.audit.vulnerable_icalls,
            "Table 11: vulnerable icalls grow with inlining ({} -> {})",
            before.audit.vulnerable_icalls,
            after.audit.vulnerable_icalls
        );
        assert!(after.audit.protected_icalls > before.audit.protected_icalls);
    }

    #[test]
    fn image_size_reports_huge_pages() {
        let (k, p) = profiled_kernel();
        let img = Image::builder(&k.module)
            .profile(&p)
            .config(PibeConfig::lto())
            .build()
            .expect("builds");
        assert_eq!(
            img.size.mem_pages_2m,
            img.size.bytes.div_ceil(2 * 1024 * 1024)
        );
        let hard = Image::builder(&k.module)
            .profile(&p)
            .config(PibeConfig::lto_with(DefenseSet::ALL))
            .build()
            .expect("builds");
        assert!(
            hard.size.bytes > img.size.bytes,
            "defense sequences add bytes"
        );
    }

    #[test]
    fn builder_defaults_to_lto() {
        let (k, p) = profiled_kernel();
        let default = Image::builder(&k.module)
            .profile(&p)
            .build()
            .expect("builds");
        assert_eq!(default.config, PibeConfig::lto());
        assert!(default.icp_stats.is_none());
    }

    #[test]
    fn build_metrics_cover_every_stage() {
        let (k, p) = profiled_kernel();
        let img = Image::builder(&k.module)
            .profile(&p)
            .config(PibeConfig::lax(DefenseSet::ALL))
            .build()
            .expect("builds");
        let m = img.metrics;
        assert!(m.clone_ns > 0 && m.icp_ns > 0 && m.inline_ns > 0);
        assert!(m.harden_ns > 0 && m.verify_ns > 0);
        let stage_sum: u64 = m.stages().iter().map(|(_, ns)| ns).sum();
        assert!(m.total_ns >= stage_sum, "total covers the stages");

        let mut agg = BuildMetrics::default();
        agg.accumulate(&m);
        agg.accumulate(&m);
        assert_eq!(agg.total_ns, 2 * m.total_ns);
        assert_eq!(agg.stages()[2].1, 2 * m.icp_ns);
    }

    #[test]
    fn invalid_pipeline_output_is_reported_in_release_builds() {
        // A function whose entry jumps to itself violates the IR's "every
        // function returns" invariant; with no optimization or defenses the
        // pipeline passes the module through and must surface the
        // verification failure (even in release builds, where the old
        // `debug_assert!` was compiled out).
        let mut m = Module::new("broken");
        let mut b = FunctionBuilder::new("spin", 0);
        b.op(pibe_ir::OpKind::Alu);
        b.ret();
        let f = m.add_function(b.build());
        *m.function_mut(f).term_mut(pibe_ir::BlockId::ENTRY) = pibe_ir::Terminator::Jump {
            target: pibe_ir::BlockId::from_raw(0),
        };
        let p = Profile::new();
        let err = Image::builder(&m)
            .profile(&p)
            .config(PibeConfig::lto())
            .build()
            .expect_err("invalid module must be rejected");
        assert!(matches!(err, PipelineError::InvalidModule(_)));
        assert!(err.to_string().contains("invalid module"));
    }

    #[test]
    fn repair_mode_builds_through_a_corrupt_profile_and_reports_it() {
        let (k, p) = profiled_kernel();
        // Seed chosen so the corruption lands (determinism guarantees it
        // keeps landing).
        let (bad, _kind, landed) = corrupt_profile(&p, &k.module, 2);
        assert!(landed);
        let img = Image::builder(&k.module)
            .profile(&bad)
            .config(PibeConfig::lax(DefenseSet::ALL))
            .build()
            .expect("repair mode must build through corruption");
        let repair = img.repair.expect("repair report attached");
        assert!(repair.changed(), "repair must have acted");
        img.module.verify().expect("image verifies");
    }

    #[test]
    fn dce_stage_strips_cold_mass_and_reports_the_map() {
        let (k, p) = profiled_kernel();
        let cfg = PibeConfig::lax(DefenseSet::ALL).with_dce(true);
        let img = Image::builder(&k.module)
            .profile(&p)
            .config(cfg)
            .build()
            .expect("dce build succeeds");
        let stats = img.dce_stats.expect("dce ran");
        assert!(stats.removed_functions > 0, "cold mass stripped");
        let map = img.dce_map.expect("map attached");
        img.module.verify().unwrap();
        // Profiled syscall entries survive and the map translates them.
        let entry = k.module.find_function("sys_read").expect("entry exists");
        let new_entry = map.translate(entry).expect("profiled entry kept");
        assert_eq!(img.module.function(new_entry).name(), "sys_read");
        // Without the knob nothing changes.
        let plain = Image::builder(&k.module)
            .profile(&p)
            .config(PibeConfig::lax(DefenseSet::ALL))
            .build()
            .expect("builds");
        assert!(plain.dce_stats.is_none() && plain.dce_map.is_none());
        assert!(plain.module.len() > img.module.len());
    }

    #[test]
    fn stage_observer_sees_each_committed_stage_in_order() {
        use std::cell::RefCell;
        let (k, p) = profiled_kernel();
        let seen: RefCell<Vec<(Stage, usize, bool)>> = RefCell::new(Vec::new());
        let obs = |s: StageSnapshot<'_>| {
            seen.borrow_mut()
                .push((s.stage, s.module.len(), s.dce_map.is_some()));
        };
        let img = Image::builder(&k.module)
            .profile(&p)
            .config(PibeConfig::lax(DefenseSet::ALL).with_dce(true))
            .observe_stages(&obs)
            .build()
            .expect("builds");
        let seen = seen.into_inner();
        let stages: Vec<Stage> = seen.iter().map(|(s, _, _)| *s).collect();
        assert_eq!(
            stages,
            vec![Stage::Icp, Stage::Inline, Stage::Dce, Stage::Harden]
        );
        // The dce map is visible from the dce snapshot onward, and the
        // final snapshot is the image module.
        assert!(!seen[0].2 && !seen[1].2 && seen[2].2 && seen[3].2);
        assert_eq!(seen[3].1, img.module.len());
        // A config that runs no optimization stages only snapshots harden.
        let seen2: RefCell<Vec<Stage>> = RefCell::new(Vec::new());
        let obs2 = |s: StageSnapshot<'_>| seen2.borrow_mut().push(s.stage);
        Image::builder(&k.module)
            .profile(&p)
            .config(PibeConfig::lto())
            .observe_stages(&obs2)
            .build()
            .expect("builds");
        assert_eq!(seen2.into_inner(), vec![Stage::Harden]);
    }

    #[test]
    fn semantic_faults_slip_past_the_stage_verifier() {
        // The post-stage verifier must NOT catch a semantic corruption: the
        // build succeeds — which is precisely why the differential oracle
        // exists.
        let (k, p) = profiled_kernel();
        let img = Image::builder(&k.module)
            .profile(&p)
            .config(PibeConfig::lax(DefenseSet::ALL))
            .inject_semantic_fault(Stage::Inline, SemanticCorruption::SwapBranchArms, 9)
            .build()
            .expect("semantically-wrong IR still builds");
        img.module.verify().expect("corrupted image still verifies");
    }

    #[test]
    fn error_recoverability_matches_the_supervision_contract() {
        let (k, p) = profiled_kernel();
        // A stage that produced invalid IR: one bad build, inputs intact —
        // recoverable.
        let err = Image::builder(&k.module)
            .profile(&p)
            .config(PibeConfig::lax(DefenseSet::ALL))
            .inject_fault(Stage::Inline, ModuleCorruption::DanglingBlock, 11)
            .build()
            .expect_err("sabotaged stage fails");
        assert!(err.is_recoverable(), "{err}");
        assert!(PipelineError::StagePanicked {
            message: "worker".into()
        }
        .is_recoverable());

        // A corrupt base module deterministically recurs until the operator
        // intervenes — unrecoverable.
        let (bad, _kind, landed) = crate::corrupt_module(&k.module, 0);
        assert!(landed);
        let err = Image::builder(&bad)
            .profile(&p)
            .config(PibeConfig::lax(DefenseSet::ALL))
            .build()
            .expect_err("a corrupt base is rejected");
        assert!(matches!(err, PipelineError::InvalidModule(_)), "{err}");
        assert!(!err.is_recoverable(), "{err}");
    }
}
