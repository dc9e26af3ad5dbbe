//! The parallel experiment engine: an [`ImageFarm`] owns one immutable
//! `(Module, Profile)` pair and serves built [`Image`]s for any set of
//! [`PibeConfig`]s.
//!
//! Every distinct configuration is built **exactly once** per farm — builds
//! are content-keyed by the full configuration (`PibeConfig: Eq + Hash`)
//! and memoized behind `Arc`s, so repeated requests share one image.
//! [`ImageFarm::images`] fans pending builds across a scoped worker pool;
//! the paper's experiment tables request overlapping configuration sets, so
//! the farm turns the former rebuild-per-table cost into one build per
//! distinct configuration per lab.

use crate::config::PibeConfig;
use crate::pipeline::{BuildMetrics, Image, PipelineError};
use parking_lot::Mutex;
use pibe_ir::Module;
use pibe_profile::Profile;
use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::Instant;

/// One build slot: filled exactly once, shared by every requester.
type Slot = Arc<OnceLock<Result<Arc<Image>, PipelineError>>>;

/// Counters describing how much work a farm has done and saved.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FarmStats {
    /// Image requests served (via [`ImageFarm::image`] or
    /// [`ImageFarm::images`]).
    pub requests: u64,
    /// Pipeline executions — at most one per distinct configuration.
    pub builds: u64,
    /// Requests served from an already-built image
    /// (`requests - builds`).
    pub hits: u64,
    /// Distinct configurations currently cached.
    pub cached: usize,
    /// Cached configurations whose build failed (including contained
    /// panics). Failures are cached like successes, so this also counts
    /// the rebuilds the farm refused to retry.
    pub failed: usize,
}

/// A build farm over one immutable profiled module.
///
/// The farm owns `Arc`s of the base module and profile so it can hand
/// references to worker threads without borrowing from its creator.
#[derive(Debug)]
pub struct ImageFarm {
    base: Arc<Module>,
    profile: Arc<Profile>,
    cache: Mutex<HashMap<PibeConfig, Slot>>,
    requests: AtomicU64,
    builds: AtomicU64,
    threads: usize,
}

impl ImageFarm {
    /// Creates a farm over `base` and `profile` with the default thread
    /// count (see [`ImageFarm::threads`]).
    pub fn new(base: Module, profile: Profile) -> Self {
        Self::with_shared(Arc::new(base), Arc::new(profile))
    }

    /// Creates a farm sharing already-`Arc`'d inputs (no clone).
    pub fn with_shared(base: Arc<Module>, profile: Arc<Profile>) -> Self {
        ImageFarm {
            base,
            profile,
            cache: Mutex::new(HashMap::new()),
            requests: AtomicU64::new(0),
            builds: AtomicU64::new(0),
            threads: pibe_ir::par::default_threads(),
        }
    }

    /// A fresh farm over the **same** base module but a new profile — the
    /// continuous-PGO epoch pattern. The module `Arc` is shared (no clone;
    /// builds keep sharing the copy-on-write function bodies), the image
    /// cache starts empty (images are keyed by configuration, and every
    /// cached image embodies decisions made against the *old* profile), and
    /// the worker-pool width carries over.
    pub fn rebase_profile(&self, profile: Arc<Profile>) -> ImageFarm {
        ImageFarm {
            base: Arc::clone(&self.base),
            profile,
            cache: Mutex::new(HashMap::new()),
            requests: AtomicU64::new(0),
            builds: AtomicU64::new(0),
            threads: self.threads,
        }
    }

    /// Overrides the worker-pool width (must be at least 1).
    pub fn with_threads(mut self, threads: usize) -> Self {
        assert!(threads >= 1, "a farm needs at least one worker");
        self.threads = threads;
        self
    }

    /// The worker-pool width used by [`ImageFarm::images`]. Defaults to
    /// `PIBE_BUILD_THREADS` when set, else the machine's available
    /// parallelism.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// The immutable base module every build clones.
    pub fn base(&self) -> &Module {
        &self.base
    }

    /// The profile every build optimizes against.
    pub fn profile(&self) -> &Profile {
        &self.profile
    }

    /// The slot for `config`, creating an empty one under the cache lock.
    fn slot(&self, config: &PibeConfig) -> Slot {
        let mut cache = self.cache.lock();
        cache
            .entry(*config)
            .or_insert_with(|| Arc::new(OnceLock::new()))
            .clone()
    }

    /// Builds or retrieves the image for `config` without touching the
    /// request counter. `OnceLock::get_or_init` guarantees the pipeline
    /// runs exactly once per distinct configuration even under concurrent
    /// callers (losers of the race block, then share the winner's image).
    ///
    /// The build runs under `catch_unwind`: a pass that panics (possible
    /// under [`ValidationPolicy::TrustProfile`](crate::ValidationPolicy::TrustProfile)
    /// with a corrupt profile) is contained in this slot as
    /// [`PipelineError::StagePanicked`] instead of tearing down the worker
    /// pool, so one poisoned configuration cannot take a whole batch of
    /// experiments with it.
    fn fetch(&self, config: &PibeConfig) -> Result<Arc<Image>, PipelineError> {
        self.fetch_queued(config, None)
    }

    /// [`ImageFarm::fetch`] with queue-wait attribution: `queued_at` is when
    /// the configuration entered a batch's pending list, so the build span
    /// records how long it waited for a worker (visible per-track in the
    /// exported trace).
    fn fetch_queued(
        &self,
        config: &PibeConfig,
        queued_at: Option<Instant>,
    ) -> Result<Arc<Image>, PipelineError> {
        let slot = self.slot(config);
        if let Some(cached) = slot.get() {
            pibe_trace::event("farm.cache_hit");
            return cached.clone();
        }
        slot.get_or_init(|| {
            self.builds.fetch_add(1, Ordering::Relaxed);
            let _span = pibe_trace::span_args("farm.build", || {
                let mut args = vec![
                    (
                        "defenses",
                        pibe_trace::Value::from(format!("{:?}", config.defenses)),
                    ),
                    ("optimizes", pibe_trace::Value::from(config.optimizes())),
                ];
                if let Some(q) = queued_at {
                    let wait_us = q.elapsed().as_micros() as u64;
                    pibe_trace::record_value("farm.queue_wait_us", wait_us);
                    args.push(("queue_wait_us", pibe_trace::Value::from(wait_us)));
                }
                args
            });
            // With a multi-build worker pool the pool owns the machine:
            // each build runs its per-function stages on one thread so a
            // farm of N workers doesn't fan out into N * threads workers.
            // A single-worker farm lets the stages use the full default.
            let stage_threads = if self.threads > 1 {
                1
            } else {
                pibe_ir::par::default_threads()
            };
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                Image::builder(&self.base)
                    .profile(&self.profile)
                    .config(*config)
                    .threads(stage_threads)
                    .build()
                    .map(Arc::new)
            }))
            .unwrap_or_else(|payload| {
                let message = if let Some(s) = payload.downcast_ref::<&str>() {
                    (*s).to_string()
                } else if let Some(s) = payload.downcast_ref::<String>() {
                    s.clone()
                } else {
                    "non-string panic payload".to_string()
                };
                Err(PipelineError::StagePanicked { message })
            })
        })
        .clone()
    }

    /// The image for `config`: built on first request, shared afterwards.
    ///
    /// # Errors
    /// Propagates the build's [`PipelineError`]; failures are cached too,
    /// so a broken configuration is not retried.
    pub fn image(&self, config: &PibeConfig) -> Result<Arc<Image>, PipelineError> {
        self.requests.fetch_add(1, Ordering::Relaxed);
        self.fetch(config)
    }

    /// Images for every configuration in `configs` (in input order),
    /// fanning not-yet-built configurations across the worker pool.
    /// Duplicate entries are deduplicated before scheduling and resolve to
    /// the same `Arc`'d image.
    ///
    /// # Errors
    /// The first configuration (in input order) whose build failed.
    pub fn images(&self, configs: &[PibeConfig]) -> Result<Vec<Arc<Image>>, PipelineError> {
        self.requests
            .fetch_add(configs.len() as u64, Ordering::Relaxed);

        // Dedup in first-seen order; skip configurations already built.
        let mut seen = HashSet::new();
        let pending: Vec<PibeConfig> = configs
            .iter()
            .filter(|c| seen.insert(**c))
            .filter(|c| self.slot(c).get().is_none())
            .copied()
            .collect();

        let _batch_span = pibe_trace::span_args("farm.images", || {
            vec![
                ("requested", pibe_trace::Value::from(configs.len())),
                ("pending", pibe_trace::Value::from(pending.len())),
            ]
        });
        let queued_at = Instant::now();
        let workers = self.threads.min(pending.len());
        if workers > 1 {
            let next = AtomicUsize::new(0);
            crossbeam::thread::scope(|scope| {
                let (next, pending) = (&next, &pending);
                for w in 0..workers {
                    scope.spawn(move |_| {
                        pibe_trace::set_track_name(format!("worker-{w}"));
                        loop {
                            let i = next.fetch_add(1, Ordering::Relaxed);
                            let Some(config) = pending.get(i) else { break };
                            // Errors are cached in the slot and re-surface
                            // in the ordered collection below.
                            let _ = self.fetch_queued(config, Some(queued_at));
                        }
                    });
                }
            })
            .expect("farm worker panicked");
        } else {
            for config in &pending {
                let _ = self.fetch_queued(config, Some(queued_at));
            }
        }

        configs.iter().map(|c| self.fetch(c)).collect()
    }

    /// Builds (in parallel) and caches every configuration, discarding the
    /// images — tables that interleave builds with measurements call this
    /// first so subsequent [`ImageFarm::image`] calls are cache hits.
    ///
    /// # Errors
    /// The first configuration whose build failed.
    pub fn prefetch(&self, configs: &[PibeConfig]) -> Result<(), PipelineError> {
        self.images(configs).map(|_| ())
    }

    /// Current counters.
    pub fn stats(&self) -> FarmStats {
        let requests = self.requests.load(Ordering::Relaxed);
        let builds = self.builds.load(Ordering::Relaxed);
        let cache = self.cache.lock();
        let failed = cache
            .values()
            .filter(|slot| matches!(slot.get(), Some(Err(_))))
            .count();
        FarmStats {
            requests,
            builds,
            hits: requests.saturating_sub(builds),
            cached: cache.len(),
            failed,
        }
    }

    /// Sums the per-stage build timings of every successfully built image.
    pub fn aggregate_metrics(&self) -> BuildMetrics {
        let slots: Vec<Slot> = self.cache.lock().values().cloned().collect();
        let mut agg = BuildMetrics::default();
        for slot in slots {
            if let Some(Ok(image)) = slot.get() {
                agg.accumulate(&image.metrics);
            }
        }
        agg
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pibe_harden::DefenseSet;
    use pibe_kernel::{
        measure::collect_profile,
        workloads::{lmbench_suite, WorkloadSpec},
        Kernel, KernelSpec,
    };
    use pibe_profile::Budget;

    fn test_farm() -> ImageFarm {
        let k = Kernel::generate(KernelSpec::test());
        let p = collect_profile(&k, &WorkloadSpec::lmbench(), &lmbench_suite(4), 1, 7)
            .expect("profiling run succeeds");
        ImageFarm::new(k.module, p)
    }

    #[test]
    fn duplicate_requests_share_one_arc() {
        let farm = test_farm();
        let cfg = PibeConfig::lax(DefenseSet::ALL);
        let a = farm.image(&cfg).expect("builds");
        let b = farm.image(&cfg).expect("cached");
        assert!(Arc::ptr_eq(&a, &b), "cache must return the same image");
        let s = farm.stats();
        assert_eq!((s.requests, s.builds, s.hits, s.cached), (2, 1, 1, 1));
    }

    #[test]
    fn matrix_builds_each_distinct_config_once() {
        let farm = test_farm().with_threads(2);
        let matrix = [
            PibeConfig::lto(),
            PibeConfig::lto_with(DefenseSet::ALL),
            PibeConfig::lax(DefenseSet::ALL),
            PibeConfig::lto(), // duplicate
            PibeConfig::icp_only(Budget::P99_9, DefenseSet::RETPOLINES),
        ];
        let images = farm.images(&matrix).expect("matrix builds");
        assert_eq!(images.len(), matrix.len());
        assert!(Arc::ptr_eq(&images[0], &images[3]), "duplicates share");
        assert_eq!(farm.stats().builds, 4, "4 distinct configs");

        // A second pass over the same matrix builds nothing new.
        farm.images(&matrix).expect("all cached");
        assert_eq!(farm.stats().builds, 4);
        assert_eq!(farm.stats().requests, 10);
    }

    #[test]
    fn aggregate_metrics_sums_built_images() {
        let farm = test_farm();
        farm.prefetch(&[PibeConfig::lto(), PibeConfig::lax(DefenseSet::ALL)])
            .expect("prefetch");
        let agg = farm.aggregate_metrics();
        assert!(agg.total_ns > 0);
        assert!(agg.clone_ns > 0);
        assert_eq!(farm.stats().failed, 0);
    }

    #[test]
    fn rebase_profile_shares_base_and_resets_cache() {
        let farm = test_farm();
        let cfg = PibeConfig::lax(DefenseSet::ALL);
        farm.image(&cfg).expect("builds");

        let mut p2 = farm.profile().clone();
        p2.merge(&farm.profile().clone()); // epoch: counts doubled
        let rebased = farm.rebase_profile(Arc::new(p2));
        assert!(
            std::ptr::eq(farm.base(), rebased.base()),
            "base module Arc is shared, not cloned"
        );
        assert_eq!(rebased.stats().cached, 0, "image cache starts empty");
        assert_eq!(rebased.threads(), farm.threads());
        rebased.image(&cfg).expect("rebuilds under the new profile");
        assert_eq!(rebased.stats().builds, 1);
        assert_eq!(farm.stats().builds, 1, "old farm untouched");
    }

    /// A farm whose profile has a dangling value-profile target planted as
    /// the hottest promotion candidate — the input that panics the inliner
    /// when validation is off.
    fn poisoned_farm() -> ImageFarm {
        use pibe_profile::{corrupt_profile, ProfileChaos};
        let k = Kernel::generate(KernelSpec::test());
        let p = collect_profile(&k, &WorkloadSpec::lmbench(), &lmbench_suite(4), 1, 7)
            .expect("profiling run succeeds");
        let bad = (0..200)
            .find_map(|seed| {
                let (bad, kind, landed) = corrupt_profile(&p, &k.module, seed);
                (landed && kind == ProfileChaos::DanglingTarget).then_some(bad)
            })
            .expect("some seed plants a dangling target");
        ImageFarm::new(k.module, bad)
    }

    #[test]
    fn worker_panic_is_contained_and_cached() {
        use crate::ValidationPolicy;
        let farm = poisoned_farm().with_threads(2);
        let poisoned = PibeConfig::builder()
            .lax()
            .defenses(DefenseSet::ALL)
            .validation(ValidationPolicy::TrustProfile)
            .build();
        let healthy = [
            PibeConfig::lto(),
            PibeConfig::lto_with(DefenseSet::ALL),
            PibeConfig::lax(DefenseSet::ALL), // Repair fixes the profile
        ];
        let mut batch = healthy.to_vec();
        batch.insert(1, poisoned);

        // The batch reports the poisoned build's contained panic...
        let err = farm.images(&batch).expect_err("poisoned config must fail");
        assert!(
            matches!(err, PipelineError::StagePanicked { .. }),
            "wanted StagePanicked, got {err}"
        );
        // ...but every other configuration was still built and is served
        // from cache afterwards.
        let builds_after_batch = farm.stats().builds;
        for cfg in &healthy {
            farm.image(cfg).expect("healthy config built");
        }
        assert_eq!(farm.stats().builds, builds_after_batch, "all cache hits");

        // The failure itself is cached (no retry) and counted.
        let again = farm.image(&poisoned).expect_err("failure is cached");
        assert_eq!(again, err);
        assert_eq!(farm.stats().builds, builds_after_batch);
        assert_eq!(farm.stats().failed, 1);
    }
}
