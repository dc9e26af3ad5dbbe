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
use pibe_ir::Module;
use pibe_profile::Profile;
use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock, PoisonError};
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

    /// Locks the slot map. The lock is never held across a build, and every
    /// critical section leaves the map consistent, so a poisoned lock is
    /// used as is.
    fn cache(&self) -> MutexGuard<'_, HashMap<PibeConfig, Slot>> {
        self.cache.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// The slot for `config`, creating an empty one under the cache lock.
    fn slot(&self, config: &PibeConfig) -> Slot {
        let mut cache = self.cache();
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
    /// The build runs under [`contain`]: a pass that panics is cached in
    /// this slot as [`PipelineError::StagePanicked`] instead of tearing
    /// down the worker pool, so one poisoned configuration cannot take a
    /// whole batch of experiments with it.
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
            contain(|| {
                Image::builder(&self.base)
                    .profile(&self.profile)
                    .config(*config)
                    .threads(stage_threads)
                    .build()
                    .map(Arc::new)
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
            std::thread::scope(|scope| {
                let (next, pending) = (&next, &pending);
                for w in 0..workers {
                    scope.spawn(move || {
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
            });
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
        let cache = self.cache();
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
        let slots: Vec<Slot> = self.cache().values().cloned().collect();
        let mut agg = BuildMetrics::default();
        for slot in slots {
            if let Some(Ok(image)) = slot.get() {
                agg.accumulate(&image.metrics);
            }
        }
        agg
    }
}

/// Runs `build`, turning a panic into [`PipelineError::StagePanicked`]
/// (see [`PipelineError::from_panic`]).
fn contain(
    build: impl FnOnce() -> Result<Arc<Image>, PipelineError>,
) -> Result<Arc<Image>, PipelineError> {
    std::panic::catch_unwind(std::panic::AssertUnwindSafe(build))
        .unwrap_or_else(|payload| Err(PipelineError::from_panic(payload)))
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
    fn contain_turns_a_panic_into_stage_panicked() {
        let panicked = |message: &str| PipelineError::StagePanicked {
            message: message.into(),
        };
        let err = contain(|| panic!("static message")).unwrap_err();
        assert_eq!(err, panicked("static message"));
        let site = 7;
        let err = contain(|| panic!("dangling target at site {site}")).unwrap_err();
        assert_eq!(err, panicked("dangling target at site 7"));
        let err = contain(|| std::panic::panic_any(7u32)).unwrap_err();
        assert_eq!(err, panicked("non-string panic payload"));
        // A build that fails without panicking passes its error through.
        let err = contain(|| Err(panicked("returned"))).unwrap_err();
        assert_eq!(err, panicked("returned"));
    }

    #[test]
    fn failed_slot_is_cached_counted_and_spares_its_batch() {
        let farm = test_farm().with_threads(2);
        // Seed the slot of one configuration with a contained panic, as a
        // build that panicked would have left it.
        let poisoned = PibeConfig::lax(DefenseSet::RETPOLINES);
        let err = contain(|| panic!("pass panicked"));
        farm.slot(&poisoned)
            .set(err.clone())
            .expect("slot was empty");
        let healthy = [
            PibeConfig::lto(),
            PibeConfig::lto_with(DefenseSet::ALL),
            PibeConfig::lax(DefenseSet::ALL),
        ];
        let mut batch = healthy.to_vec();
        batch.insert(1, poisoned);

        // The batch reports the cached failure...
        let batch_err = farm.images(&batch).expect_err("poisoned config fails");
        assert_eq!(batch_err, err.unwrap_err());
        // ...but every other configuration was still built and is served
        // from cache afterwards.
        let builds_after_batch = farm.stats().builds;
        assert_eq!(builds_after_batch, healthy.len() as u64);
        for cfg in &healthy {
            farm.image(cfg).expect("healthy config built");
        }
        assert_eq!(farm.stats().builds, builds_after_batch, "all cache hits");

        // The failure itself is cached (no retry) and counted.
        let again = farm.image(&poisoned).expect_err("failure is cached");
        assert_eq!(again, batch_err);
        assert_eq!(farm.stats().builds, builds_after_batch);
        assert_eq!(farm.stats().failed, 1);
    }
}
