//! The continuous-PGO service: ingest → quarantine → merge → drift → (fast
//! path | guarded rebuild) → last-known-good bookkeeping.

use crate::config::ServeConfig;
use crate::delta::{ProfileDelta, QuarantineReason, QuarantinedDelta};
use crate::state::{EpochJournal, EpochOutcome, EpochRecord, ServiceState};
use crate::watchdog::{supervise, WatchdogVerdict};
use pibe::{DecisionSurface, Image, PibeConfig, PipelineError};
use pibe_ir::Module;
use pibe_profile::Profile;
use std::fmt;
use std::sync::Arc;
use std::time::Duration;

/// How one supervised rebuild attempt failed.
#[derive(Debug)]
pub enum RebuildFailure {
    /// The pipeline returned a typed error.
    Pipeline(PipelineError),
    /// The watchdog gave up on the attempt.
    TimedOut {
        /// Wall-clock time waited before abandoning the attempt.
        waited: Duration,
    },
}

impl RebuildFailure {
    /// Whether the supervisor may retry / continue serving past this.
    /// Timeouts are recoverable by construction: the inputs are intact and
    /// a later attempt (or epoch) may be faster.
    pub fn is_recoverable(&self) -> bool {
        match self {
            RebuildFailure::Pipeline(e) => e.is_recoverable(),
            RebuildFailure::TimedOut { .. } => true,
        }
    }
}

impl fmt::Display for RebuildFailure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RebuildFailure::Pipeline(e) => e.fmt(f),
            RebuildFailure::TimedOut { waited } => {
                write!(f, "rebuild exceeded the watchdog deadline ({waited:?})")
            }
        }
    }
}

/// The pluggable rebuild seam. Production is [`PipelineRebuilder`]; the
/// fault-injection tests substitute flaky, hanging, or fatally-broken
/// implementations to drive the supervision machinery through every path.
pub trait Rebuilder: Send + Sync {
    /// Builds an image of `base` under `profile` and `config`.
    ///
    /// # Errors
    /// Returns the pipeline's typed error when the build fails.
    fn rebuild(
        &self,
        base: &Module,
        profile: &Profile,
        config: &PibeConfig,
    ) -> Result<Image, PipelineError>;
}

/// The production rebuilder: the real pipeline, with its per-function
/// stages on one thread.
#[derive(Debug, Default, Clone, Copy)]
pub struct PipelineRebuilder;

impl Rebuilder for PipelineRebuilder {
    fn rebuild(
        &self,
        base: &Module,
        profile: &Profile,
        config: &PibeConfig,
    ) -> Result<Image, PipelineError> {
        Image::builder(base)
            .profile(profile)
            .config(*config)
            .threads(1)
            .build()
    }
}

/// The fault-tolerant continuous-PGO epoch loop.
///
/// The service owns a base module, a cumulative profile, and the
/// last-known-good image built from them. Each
/// [`ingest_epoch`](Self::ingest_epoch) call:
///
/// 1. **validates** every delta against the base module and quarantines the
///    dirty ones with their typed [`ProfileIssue`](pibe_profile::ProfileIssue)s
///    — a corrupted count never reaches the cumulative profile;
/// 2. **merges** the survivors shard-by-shard into a scratch clone via
///    [`Profile::merge_checked`], rejecting (and quarantining) any delta
///    whose merge would saturate a counter — per-delta atomicity;
/// 3. **detects drift**: the scratch profile's [`DecisionSurface`] is
///    compared against the surface the served image was built from. Surface
///    equality proves every profile-driven decision — promoted targets,
///    inline prefix, DCE roots — is unchanged, so the image *cannot* differ:
///    the epoch takes the fast path (cumulative advances, no pipeline runs);
/// 4. on drift, runs a **guarded rebuild** — watchdog-bounded, retried with
///    deterministic backoff on recoverable failures — and promotes the
///    result to last-known-good;
/// 5. on exhausted failure, **rolls back** the epoch's merge entirely and
///    keeps serving the previous last-known-good image, degrading (and
///    eventually freezing) the [`ServiceState`].
///
/// Everything is journaled; [`EpochJournal::replay`] over the journal
/// reproduces the live state machine exactly.
pub struct PibeService {
    base: Arc<Module>,
    config: PibeConfig,
    serve: ServeConfig,
    cumulative: Profile,
    surface: DecisionSurface,
    lkg: Arc<Image>,
    state: ServiceState,
    consecutive_failures: u32,
    journal: EpochJournal,
    quarantine: Vec<QuarantinedDelta>,
    rebuilder: Arc<dyn Rebuilder>,
}

impl fmt::Debug for PibeService {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("PibeService")
            .field("base", &self.base.name())
            .field("state", &self.state)
            .field("epochs", &self.journal.records.len())
            .field("quarantine", &self.quarantine.len())
            .finish()
    }
}

impl PibeService {
    /// Bootstraps the service: builds the initial image from `initial`
    /// (typically a trusted offline profile) and records it as
    /// last-known-good. The bootstrap build is *not* supervised — a service
    /// that cannot build its first image has nothing to fall back to, so
    /// the error propagates.
    ///
    /// # Errors
    /// Returns the pipeline's error when the initial build fails.
    pub fn bootstrap(
        base: Module,
        initial: Profile,
        config: PibeConfig,
        serve: ServeConfig,
    ) -> Result<Self, PipelineError> {
        Self::bootstrap_with(base, initial, config, serve, Arc::new(PipelineRebuilder))
    }

    /// [`bootstrap`](Self::bootstrap) with an explicit [`Rebuilder`] — the
    /// fault-injection seam (the bootstrap build itself always uses the
    /// real pipeline).
    ///
    /// # Errors
    /// Returns the pipeline's error when the initial build fails.
    pub fn bootstrap_with(
        base: Module,
        initial: Profile,
        config: PibeConfig,
        serve: ServeConfig,
        rebuilder: Arc<dyn Rebuilder>,
    ) -> Result<Self, PipelineError> {
        let image = Image::builder(&base)
            .profile(&initial)
            .config(config)
            .threads(1)
            .build()?;
        let surface = DecisionSurface::compute(&base, &initial, &config);
        Ok(PibeService {
            base: Arc::new(base),
            config,
            serve,
            cumulative: initial,
            surface,
            lkg: Arc::new(image),
            state: ServiceState::Healthy,
            consecutive_failures: 0,
            journal: EpochJournal::new(serve.freeze_after),
            quarantine: Vec::new(),
            rebuilder,
        })
    }

    /// The image currently served — always the last-known-good build.
    pub fn image(&self) -> &Arc<Image> {
        &self.lkg
    }

    /// The service's health.
    pub fn state(&self) -> ServiceState {
        self.state
    }

    /// The cumulative profile the served image was built from.
    pub fn cumulative_profile(&self) -> &Profile {
        &self.cumulative
    }

    /// The replayable epoch journal.
    pub fn journal(&self) -> &EpochJournal {
        &self.journal
    }

    /// Every delta rejected so far, with full attribution.
    pub fn quarantine(&self) -> &[QuarantinedDelta] {
        &self.quarantine
    }

    /// Operator intervention: unfreezes (or un-degrades) the service and
    /// zeroes the consecutive-failure counter. The next drifting epoch gets
    /// a fresh chance to rebuild.
    pub fn thaw(&mut self) {
        self.state = ServiceState::Healthy;
        self.consecutive_failures = 0;
        self.journal.record_thaw();
    }

    /// Processes one epoch of shard deltas; see the type-level docs for the
    /// phase breakdown. Returns the journal record it appended.
    pub fn ingest_epoch(&mut self, deltas: Vec<ProfileDelta>) -> &EpochRecord {
        let epoch = self.journal.next_epoch();
        let _span = pibe_trace::span_args("serve.epoch", || {
            vec![
                ("epoch", pibe_trace::Value::from(epoch)),
                ("deltas", pibe_trace::Value::from(deltas.len() as u64)),
            ]
        });
        let total = deltas.len();

        if self.state == ServiceState::Frozen {
            pibe_trace::event("serve.frozen_epoch");
            return self.finish(EpochRecord {
                epoch,
                deltas: total,
                accepted: 0,
                quarantined: 0,
                overflow_rejected: 0,
                drifted_functions: 0,
                outcome: EpochOutcome::Frozen,
                state_after: self.state,
            });
        }

        // Phase 1: validation quarantine. Rejection is per-delta and does
        // not touch the state machine — a noisy shard must not degrade a
        // service whose pipeline is fine.
        let mut quarantined = 0;
        let mut clean = Vec::with_capacity(deltas.len());
        for delta in deltas {
            let health = delta.profile.validate_against(&self.base);
            if health.is_clean() {
                clean.push(delta);
            } else {
                quarantined += 1;
                pibe_trace::event_args("serve.quarantine", || {
                    vec![
                        ("shard", pibe_trace::Value::from(u64::from(delta.shard))),
                        (
                            "issues",
                            pibe_trace::Value::from(health.issues().len() as u64),
                        ),
                    ]
                });
                self.quarantine.push(QuarantinedDelta {
                    epoch,
                    reason: QuarantineReason::Invalid(health.issues().to_vec()),
                    delta,
                });
            }
        }

        // Phase 2: shard-by-shard checked merge into a scratch clone. The
        // cumulative profile is only replaced once the whole epoch commits.
        let mut scratch = self.cumulative.clone();
        let mut overflow_rejected = 0;
        let mut accepted = 0;
        for delta in clean {
            let mut trial = scratch.clone();
            let report = trial.merge_checked(&delta.profile);
            if report.is_clean() {
                scratch = trial;
                accepted += 1;
            } else {
                overflow_rejected += 1;
                self.quarantine.push(QuarantinedDelta {
                    epoch,
                    reason: QuarantineReason::Overflow(report.overflows),
                    delta,
                });
            }
        }

        // Phase 3: drift detection against the served image's surface.
        let new_surface = DecisionSurface::compute(&self.base, &scratch, &self.config);
        let report = self.surface.diff(&new_surface);
        let drifted = report.drifted_functions();

        let outcome = if report.unchanged {
            // Surface equality ⇒ identical pipeline decisions ⇒ the image
            // the pipeline would build is bit-identical to the one being
            // served. Advance the profile, skip the pipeline.
            self.cumulative = scratch;
            pibe_trace::event("serve.fast_path");
            EpochOutcome::FastPath
        } else {
            match self.supervised_rebuild(&scratch) {
                Ok((image, retries)) => {
                    self.lkg = Arc::new(image);
                    self.surface = new_surface;
                    self.cumulative = scratch;
                    self.state = ServiceState::Healthy;
                    self.consecutive_failures = 0;
                    EpochOutcome::Rebuilt { drifted, retries }
                }
                Err((failure, retries)) => {
                    let recoverable = failure.is_recoverable();
                    if recoverable {
                        self.consecutive_failures += 1;
                        self.state = if self.consecutive_failures >= self.serve.freeze_after {
                            ServiceState::Frozen
                        } else {
                            ServiceState::Degraded
                        };
                    } else {
                        self.state = ServiceState::Frozen;
                    }
                    pibe_trace::event_args("serve.rollback", || {
                        vec![("error", pibe_trace::Value::from(failure.to_string()))]
                    });
                    EpochOutcome::RolledBack {
                        error: failure.to_string(),
                        recoverable,
                        retries,
                    }
                }
            }
        };

        self.finish(EpochRecord {
            epoch,
            deltas: total,
            accepted,
            quarantined,
            overflow_rejected,
            drifted_functions: drifted,
            outcome,
            state_after: self.state,
        })
    }

    fn finish(&mut self, record: EpochRecord) -> &EpochRecord {
        pibe_trace::counter("serve.quarantine_total", self.quarantine.len() as u64);
        self.journal.push(record);
        self.journal.records.last().expect("just pushed")
    }

    /// One epoch's rebuild campaign: up to `1 + max_retries` watchdogged
    /// attempts, sleeping the deterministic backoff between recoverable
    /// failures. Returns the image and the number of retries burned, or the
    /// final failure.
    fn supervised_rebuild(&self, profile: &Profile) -> Result<(Image, u32), (RebuildFailure, u32)> {
        let mut retries = 0;
        loop {
            let _span = pibe_trace::span_args("serve.rebuild", || {
                vec![("attempt", pibe_trace::Value::from(u64::from(retries)))]
            });
            let base = Arc::clone(&self.base);
            let profile = Arc::new(profile.clone());
            let config = self.config;
            let rebuilder = Arc::clone(&self.rebuilder);
            let verdict = supervise(self.serve.watchdog, move || {
                rebuilder.rebuild(&base, &profile, &config)
            });
            let failure = match verdict {
                WatchdogVerdict::Completed(Ok(image)) => return Ok((image, retries)),
                WatchdogVerdict::Completed(Err(e)) | WatchdogVerdict::Panicked(e) => {
                    RebuildFailure::Pipeline(e)
                }
                WatchdogVerdict::TimedOut { waited } => RebuildFailure::TimedOut { waited },
            };
            if !failure.is_recoverable() || retries >= self.serve.max_retries {
                return Err((failure, retries));
            }
            retries += 1;
            let pause = self.serve.backoff_before(retries);
            if !pause.is_zero() {
                std::thread::sleep(pause);
            }
        }
    }
}
