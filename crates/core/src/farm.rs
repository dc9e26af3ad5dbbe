//! The parallel experiment engine: an [`ImageFarm`] owns one immutable
//! `(Module, Profile)` pair and serves built [`Image`]s for any set of
//! [`PibeConfig`]s.
//!
//! The farm keeps two memos, each filled exactly once per key and shared
//! behind `Arc`s:
//!
//! * **optimized prefixes**, keyed by [`PibeConfig::optimization`] (ICP,
//!   inliner, DCE): the module after the arch-agnostic ICP → inline → DCE
//!   stages. The key leaves out the arch and the defenses because those
//!   stages never read them, so every configuration that differs only in
//!   how it is hardened shares one prefix;
//! * **images**, keyed by the full configuration: a clone of the prefix
//!   lowered (hardened, audited, sized) for one arch and defense set. The
//!   clone is cheap — functions are `Arc`s and hardening rewrites only
//!   functions with jump tables — so images lowered from one prefix share
//!   nearly every function body.
//!
//! [`ImageFarm::images`] fans pending work across a scoped worker pool in
//! two phases, first the missing prefixes and then the lowerings, so no
//! worker waits on a prefix another worker is building. The paper's
//! experiment tables request overlapping configuration sets, so the farm
//! turns the former rebuild-per-table cost into one optimization per
//! distinct key and one lowering per distinct configuration per lab.

use crate::config::{Optimization, PibeConfig};
use crate::pipeline::{BuildMetrics, Image, Optimized, PipelineError, ProfiledImageBuilder};
use pibe_ir::Module;
use pibe_profile::Profile;
use std::collections::{HashMap, HashSet};
use std::hash::Hash;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock, PoisonError};
use std::time::Instant;

/// One memo slot: filled exactly once, shared by every requester.
type Slot<T> = Arc<OnceLock<Result<Arc<T>, PipelineError>>>;

/// A content-keyed map of memo slots.
#[derive(Debug)]
struct Memo<K, T>(Mutex<HashMap<K, Slot<T>>>);

impl<K: Copy + Eq + Hash, T> Memo<K, T> {
    fn new() -> Self {
        Memo(Mutex::new(HashMap::new()))
    }

    /// Locks the slot map. The lock is never held across a build, and every
    /// critical section leaves the map consistent, so a poisoned lock is
    /// used as is.
    fn lock(&self) -> MutexGuard<'_, HashMap<K, Slot<T>>> {
        self.0.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// The slot for `key`, creating an empty one under the lock.
    fn slot(&self, key: &K) -> Slot<T> {
        self.lock().entry(*key).or_default().clone()
    }

    /// Every slot's value that is filled and not a failure.
    fn built(&self) -> Vec<Arc<T>> {
        let slots: Vec<Slot<T>> = self.lock().values().cloned().collect();
        slots
            .iter()
            .filter_map(|slot| slot.get()?.as_ref().ok().cloned())
            .collect()
    }
}

/// Counters describing how much work a farm has done and saved.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FarmStats {
    /// Image requests served (via [`ImageFarm::image`] or
    /// [`ImageFarm::images`]).
    pub requests: u64,
    /// Images lowered — at most one per distinct configuration.
    pub builds: u64,
    /// Requests served from an already-built image
    /// (`requests - builds`).
    pub hits: u64,
    /// ICP → inline → DCE prefixes run — at most one per distinct
    /// optimization key, however many arches and defense sets lower it.
    pub optimizations: u64,
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
    images: Memo<PibeConfig, Image>,
    prefixes: Memo<Optimization, Optimized>,
    requests: AtomicU64,
    builds: AtomicU64,
    optimizations: AtomicU64,
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
            images: Memo::new(),
            prefixes: Memo::new(),
            requests: AtomicU64::new(0),
            builds: AtomicU64::new(0),
            optimizations: AtomicU64::new(0),
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

    /// A builder for `config` over the farm's inputs. With a multi-build
    /// worker pool the pool owns the machine: each build runs its
    /// per-function stages on one thread so a farm of N workers doesn't fan
    /// out into N * threads workers. A single-worker farm lets the stages
    /// use the full default.
    fn builder(&self, config: &PibeConfig) -> ProfiledImageBuilder<'_, '_> {
        let stage_threads = if self.threads > 1 {
            1
        } else {
            pibe_ir::par::default_threads()
        };
        Image::builder(&self.base)
            .profile(&self.profile)
            .config(*config)
            .threads(stage_threads)
    }

    /// The optimized prefix for `config`'s optimization key, run on the
    /// first request under [`contain`] and shared afterwards; a failed or
    /// panicked prefix is cached and fails every image of its key. The flag
    /// is true when this call found the prefix already memoized.
    fn optimized(&self, config: &PibeConfig) -> (Result<Arc<Optimized>, PipelineError>, bool) {
        let slot = self.prefixes.slot(&config.optimization());
        let _span = pibe_trace::span_args("farm.optimize", || {
            vec![("hit", pibe_trace::Value::from(slot.get().is_some()))]
        });
        let mut ran = false;
        let prefix = slot
            .get_or_init(|| {
                ran = true;
                self.optimizations.fetch_add(1, Ordering::Relaxed);
                contain(|| self.builder(config).optimize().map(Arc::new))
            })
            .clone();
        (prefix, !ran)
    }

    /// Builds or retrieves the image for `config` without touching the
    /// request counter. `OnceLock::get_or_init` guarantees each image is
    /// lowered exactly once per distinct configuration even under
    /// concurrent callers (losers of the race block, then share the
    /// winner's image).
    ///
    /// `queued_at` is when the configuration entered a batch's pending
    /// list, so the build span records how long it waited for a worker
    /// (visible per-track in the exported trace).
    ///
    /// The lowering runs under [`contain`]: a pass that panics is cached in
    /// this slot as [`PipelineError::StagePanicked`] instead of tearing
    /// down the worker pool, so one poisoned configuration cannot take a
    /// whole batch of experiments with it.
    fn fetch(
        &self,
        config: &PibeConfig,
        queued_at: Option<Instant>,
    ) -> Result<Arc<Image>, PipelineError> {
        let slot = self.images.slot(config);
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
            let (prefix, hit) = self.optimized(config);
            let prefix = prefix?;
            // The prefix's own timings are reported once, by
            // `aggregate_metrics`; the image carries its lowering's.
            let optimized = Optimized {
                metrics: BuildMetrics::default(),
                ..Optimized::clone(&prefix)
            };
            let image = contain(|| self.builder(config).lower(optimized).map(Arc::new));
            debug_assert!(
                !hit || self.matches_cold_build(config, &image),
                "the image of {config:?} lowered from a memoized prefix must match a cold build"
            );
            image
        })
        .clone()
    }

    /// Whether `image` equals a cold, unmemoized build of `config` (the
    /// debug-build oracle for images lowered from a shared prefix).
    fn matches_cold_build(
        &self,
        config: &PibeConfig,
        image: &Result<Arc<Image>, PipelineError>,
    ) -> bool {
        match (image, contain(|| self.builder(config).build())) {
            (Ok(image), Ok(cold)) => image.same_output(&cold),
            (Err(e), Err(cold)) => *e == cold,
            _ => false,
        }
    }

    /// The image for `config`: built on first request, shared afterwards.
    ///
    /// # Errors
    /// Propagates the build's [`PipelineError`]; failures are cached too,
    /// so a broken configuration is not retried.
    pub fn image(&self, config: &PibeConfig) -> Result<Arc<Image>, PipelineError> {
        self.requests.fetch_add(1, Ordering::Relaxed);
        self.fetch(config, None)
    }

    /// Images for every configuration in `configs` (in input order),
    /// fanning not-yet-built configurations across the worker pool: first
    /// one optimization per missing prefix key, then every lowering.
    /// Duplicate entries are deduplicated before scheduling and resolve to
    /// the same `Arc`'d image.
    ///
    /// # Errors
    /// The first configuration (in input order) whose build failed.
    pub fn images(&self, configs: &[PibeConfig]) -> Result<Vec<Arc<Image>>, PipelineError> {
        self.requests
            .fetch_add(configs.len() as u64, Ordering::Relaxed);

        // Dedup in first-seen order; skip configurations already built,
        // then pick one configuration per prefix key not yet optimized.
        let mut seen = HashSet::new();
        let pending: Vec<PibeConfig> = configs
            .iter()
            .filter(|c| seen.insert(**c))
            .filter(|c| self.images.slot(c).get().is_none())
            .copied()
            .collect();
        let mut keys = HashSet::new();
        let cold: Vec<PibeConfig> = pending
            .iter()
            .filter(|c| keys.insert(c.optimization()))
            .filter(|c| self.prefixes.slot(&c.optimization()).get().is_none())
            .copied()
            .collect();

        let _batch_span = pibe_trace::span_args("farm.images", || {
            vec![
                ("requested", pibe_trace::Value::from(configs.len())),
                ("pending", pibe_trace::Value::from(pending.len())),
                ("optimizations", pibe_trace::Value::from(cold.len())),
            ]
        });
        let queued_at = Instant::now();
        // Errors are cached in the slots and re-surface in the ordered
        // collection below.
        self.fan_out(&cold, |config| {
            let _ = self.optimized(config);
        });
        self.fan_out(&pending, |config| {
            let _ = self.fetch(config, Some(queued_at));
        });

        configs.iter().map(|c| self.fetch(c, None)).collect()
    }

    /// Runs `work` on every configuration in `configs` across the worker
    /// pool (inline when one worker suffices).
    fn fan_out(&self, configs: &[PibeConfig], work: impl Fn(&PibeConfig) + Sync) {
        let workers = self.threads.min(configs.len());
        if workers <= 1 {
            configs.iter().for_each(work);
            return;
        }
        let next = AtomicUsize::new(0);
        std::thread::scope(|scope| {
            for w in 0..workers {
                let (next, work) = (&next, &work);
                scope.spawn(move || {
                    pibe_trace::set_track_name(format!("worker-{w}"));
                    while let Some(config) = configs.get(next.fetch_add(1, Ordering::Relaxed)) {
                        work(config);
                    }
                });
            }
        });
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
        let images = self.images.lock();
        let failed = images
            .values()
            .filter(|slot| matches!(slot.get(), Some(Err(_))))
            .count();
        FarmStats {
            requests,
            builds,
            hits: requests.saturating_sub(builds),
            optimizations: self.optimizations.load(Ordering::Relaxed),
            cached: images.len(),
            failed,
        }
    }

    /// Sums the per-stage build timings of everything the farm ran: each
    /// successful prefix's optimization once, plus each successfully built
    /// image's lowering.
    pub fn aggregate_metrics(&self) -> BuildMetrics {
        let mut agg = BuildMetrics::default();
        for prefix in self.prefixes.built() {
            agg.accumulate(&prefix.metrics);
        }
        for image in self.images.built() {
            agg.accumulate(&image.metrics);
        }
        agg
    }
}

/// Runs `build`, turning a panic into [`PipelineError::StagePanicked`]
/// (see [`PipelineError::from_panic`]).
fn contain<T>(build: impl FnOnce() -> Result<T, PipelineError>) -> Result<T, PipelineError> {
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
        assert_eq!(
            farm.stats().optimizations,
            3,
            "lto and lto+all share the unoptimized prefix"
        );

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
        let err = contain::<()>(|| panic!("static message")).unwrap_err();
        assert_eq!(err, panicked("static message"));
        let site = 7;
        let err = contain::<()>(|| panic!("dangling target at site {site}")).unwrap_err();
        assert_eq!(err, panicked("dangling target at site 7"));
        let err = contain::<()>(|| std::panic::panic_any(7u32)).unwrap_err();
        assert_eq!(err, panicked("non-string panic payload"));
        // A build that fails without panicking passes its error through.
        let err = contain::<()>(|| Err(panicked("returned"))).unwrap_err();
        assert_eq!(err, panicked("returned"));
    }

    #[test]
    fn failed_slot_is_cached_counted_and_spares_its_batch() {
        let farm = test_farm().with_threads(2);
        // Seed the slot of one configuration with a contained panic, as a
        // build that panicked would have left it.
        let poisoned = PibeConfig::lax(DefenseSet::RETPOLINES);
        let err = contain(|| panic!("pass panicked"));
        farm.images
            .slot(&poisoned)
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

    #[test]
    fn a_poisoned_prefix_fails_exactly_its_keys_images() {
        let lax = |d| PibeConfig::lax(d);
        let healthy = [
            PibeConfig::lto(),
            PibeConfig::lto_with(DefenseSet::ALL),
            PibeConfig::full(Budget::P99, DefenseSet::ALL),
            PibeConfig::full(Budget::P99, DefenseSet::LVI_CFI).with_dce(true),
        ];
        let poisoned = [
            lax(DefenseSet::ALL),
            lax(DefenseSet::RETPOLINES),
            lax(DefenseSet::ALL).with_arch(pibe_harden::Arch::Arm64),
            PibeConfig::pibe_baseline(),
        ];
        for threads in [1, 2, 4, 7] {
            let farm = test_farm().with_threads(threads);
            let err = contain(|| panic!("inliner panicked"));
            farm.prefixes
                .slot(&poisoned[0].optimization())
                .set(err.clone())
                .expect("prefix slot was empty");
            let mut batch = healthy.to_vec();
            batch.extend(poisoned);
            let batch_err = farm.images(&batch).expect_err("poisoned key fails");
            assert_eq!(batch_err, err.clone().unwrap_err(), "{threads} workers");
            for cfg in &poisoned {
                assert_eq!(farm.image(cfg).err(), err.clone().err(), "{cfg:?}");
            }
            for cfg in &healthy {
                farm.image(cfg).expect("other keys build");
            }
            let s = farm.stats();
            assert_eq!(
                s.optimizations, 3,
                "{threads} workers: the poisoned key never reruns"
            );
            assert_eq!((s.builds, s.failed), (8, 4), "{threads} workers");
        }
    }

    #[test]
    fn aggregate_metrics_count_each_prefix_once() {
        let farm = test_farm();
        let configs = [
            PibeConfig::lax(DefenseSet::ALL),
            PibeConfig::lax(DefenseSet::RETPOLINES),
            PibeConfig::pibe_baseline(),
        ];
        farm.prefetch(&configs).expect("prefetch");
        assert_eq!(farm.stats().optimizations, 1);
        let prefix = farm.optimized(&configs[0]).0.expect("prefix built");
        let agg = farm.aggregate_metrics();
        assert_eq!(agg.inline_ns, prefix.metrics.inline_ns, "inlined once");
        let mut lowered = 0;
        for cfg in &configs {
            let image = farm.image(cfg).expect("built");
            assert_eq!(image.metrics.inline_ns, 0, "images carry their lowering");
            lowered += image.metrics.harden_ns;
        }
        assert_eq!(agg.harden_ns, lowered);
        assert_eq!(
            agg.total_ns,
            prefix.metrics.total_ns
                + configs
                    .iter()
                    .map(|c| farm.image(c).expect("built").metrics.total_ns)
                    .sum::<u64>()
        );
    }
}
