//! Regeneration of every table and figure in the paper's evaluation.
//!
//! A [`Lab`] owns the generated kernel, the profiling workload's aggregated
//! profile, and the LTO baseline measurements every experiment compares
//! against. Each `table*` function reproduces one table of the paper; see
//! `EXPERIMENTS.md` at the repository root for the paper-vs-measured
//! record.

mod ablations;
mod breakdown;
mod convergence;
mod crossarch;
mod eibrs;
mod perf;
mod refill;
mod robustness;
mod security;
mod userspace;
mod v1;

pub use ablations::{ablations, AblationPoint, Setting};
pub use breakdown::{cycle_breakdown, CycleBreakdown};
pub use convergence::{profiling_convergence, ConvergencePoint};
pub use crossarch::{cross_arch, CrossArchPoint};
pub use eibrs::{eibrs_comparison, ForwardEdgePosture};
pub use perf::{figure1, table1, table2, table3, table5, table6, table7};
pub use refill::{rsb_refill_comparison, BackwardEdgePosture};
pub use robustness::{robustness, RobustnessSummary};
pub use security::{table10, table11, table12, table4, table8, table9};
pub use userspace::{userspace, UserspaceSummary};
pub use v1::{spectre_v1_fencing, V1Summary};

use crate::config::PibeConfig;
use crate::eval::{self, Evaluation, LatencyRow};
use crate::farm::ImageFarm;
use crate::pipeline::{BuildMetrics, Image, PipelineError};
use pibe_harden::{Arch, DefenseSet};
use pibe_ir::Module;
use pibe_kernel::measure::merge_profile_rounds;
use pibe_kernel::workloads::{lmbench_suite, Benchmark, WorkloadSpec};
use pibe_kernel::{Kernel, KernelSpec};
use pibe_profile::Profile;
use pibe_sim::{SimConfig, SimError};
use std::collections::HashMap;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock, PoisonError};

/// Why an experiment could not produce its numbers. Every variant names
/// the workload, benchmark, or build that failed (and the seed it ran
/// under), so a failing lab points at the culprit instead of panicking
/// deep inside a measurement loop.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ExperimentError {
    /// A profiling run failed.
    Profiling {
        /// The profiling workload that failed (e.g. `lmbench`, `apache`).
        workload: String,
        /// The simulation seed the run used.
        seed: u64,
        /// The underlying simulator failure.
        source: SimError,
    },
    /// A benchmark measurement failed.
    Benchmark {
        /// The benchmark that failed (e.g. `fork+execve`, `nginx`).
        benchmark: String,
        /// The simulation seed the run used.
        seed: u64,
        /// The underlying simulator failure.
        source: SimError,
    },
    /// An image build failed.
    Build(PipelineError),
}

impl fmt::Display for ExperimentError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExperimentError::Profiling {
                workload,
                seed,
                source,
            } => write!(
                f,
                "profiling run failed (workload {workload}, seed {seed:#x}): {source}"
            ),
            ExperimentError::Benchmark {
                benchmark,
                seed,
                source,
            } => write!(
                f,
                "benchmark failed ({benchmark}, seed {seed:#x}): {source}"
            ),
            ExperimentError::Build(e) => write!(f, "image build failed: {e}"),
        }
    }
}

impl std::error::Error for ExperimentError {}

impl From<PipelineError> for ExperimentError {
    fn from(e: PipelineError) -> Self {
        ExperimentError::Build(e)
    }
}

/// One evaluation slot: filled exactly once, shared by every requester.
type EvalSlot = Arc<OnceLock<Arc<Evaluation>>>;

/// Counters of a lab's evaluation memo.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EvalStats {
    /// Evaluations requested through [`Lab::evaluate`] and its variants.
    pub requests: u64,
    /// Suite runs simulated to answer them: at most one per distinct
    /// (farm image, [`SimConfig`]) pair.
    pub simulated: u64,
}

/// The experiment harness: one generated kernel, one profiling run, one
/// image farm and one evaluation memo shared across all tables.
#[derive(Debug)]
pub struct Lab {
    /// The synthetic kernel under evaluation.
    pub kernel: Kernel,
    /// The LMBench profiling workload.
    pub workload: WorkloadSpec,
    /// The latency suite (Table 2's 20 benchmarks).
    pub suite: Vec<Benchmark>,
    /// Profile aggregated over the profiling rounds (11 in the paper).
    pub profile: Profile,
    /// Profiling rounds merged into [`Lab::profile`].
    pub rounds: u32,
    /// LTO-baseline latencies (no optimization, no defenses).
    pub lto_latencies: Vec<LatencyRow>,
    /// Simulation seed shared by all measurements.
    pub seed: u64,
    /// The lab's default architecture, from the `PIBE_ARCH` environment
    /// variable (x86 when unset). Configurations at the default
    /// [`Arch::X86`] are re-stamped to this arch by [`Lab::image`], so
    /// every table runs per-arch without per-table changes; configurations
    /// carrying an explicit non-x86 arch pass through untouched.
    pub arch: Arch,
    /// The merged profile after each of [`PREFIX_ROUNDS`] rounds that is
    /// not above [`Lab::rounds`], kept while collecting [`Lab::profile`].
    prefixes: Vec<(u32, Profile)>,
    /// The build farm: every image any table requests is built exactly once
    /// here and shared.
    farm: ImageFarm,
    /// The evaluation memo, keyed by the farm's (arch-stamped) config and
    /// the full simulator configuration.
    evals: Mutex<HashMap<(PibeConfig, SimConfig), EvalSlot>>,
    eval_requests: AtomicU64,
    eval_runs: AtomicU64,
}

/// The round counts whose merged profiles [`Lab::new`] keeps on the way to
/// its full profile (the convergence experiment's points).
pub const PREFIX_ROUNDS: [u32; 4] = [1, 2, 4, 8];

impl Lab {
    /// Builds a lab: generates the kernel, collects the aggregated LMBench
    /// profile (`rounds` runs, 11 in the paper, keeping the profiles after
    /// [`PREFIX_ROUNDS`] on the way), and measures the LTO baseline.
    ///
    /// # Errors
    /// [`ExperimentError::Profiling`] naming the workload and seed when the
    /// profiling run fails.
    pub fn new(spec: KernelSpec, iters: u32, rounds: u32) -> Result<Lab, ExperimentError> {
        let _lab_span = pibe_trace::span_args("lab.setup", || {
            vec![
                ("iters", pibe_trace::Value::from(iters as u64)),
                ("rounds", pibe_trace::Value::from(rounds as u64)),
            ]
        });
        let gen_span = pibe_trace::span("lab.kernel_gen");
        let kernel = Kernel::generate(spec);
        drop(gen_span);
        let workload = WorkloadSpec::lmbench();
        let suite = lmbench_suite(iters);
        let seed = 0xBA5E;
        let profile_span = pibe_trace::span("lab.profile");
        let mut profile = Profile::new();
        let mut prefixes = Vec::new();
        merge_profile_rounds(
            &kernel,
            &workload,
            &suite,
            &mut profile,
            0..rounds,
            seed,
            |n, merged| {
                if PREFIX_ROUNDS.contains(&n) {
                    prefixes.push((n, merged.clone()));
                }
            },
        )
        .map_err(|source| ExperimentError::Profiling {
            workload: workload.name.clone(),
            seed,
            source,
        })?;
        drop(profile_span);
        let baseline_span = pibe_trace::span("lab.baseline");
        let lto_latencies = eval::lmbench_latencies(
            &kernel.module,
            &kernel,
            &workload,
            &suite,
            SimConfig::default(),
            seed,
        );
        drop(baseline_span);
        let farm =
            ImageFarm::with_shared(Arc::new(kernel.module.clone()), Arc::new(profile.clone()));
        Ok(Lab {
            kernel,
            workload,
            suite,
            profile,
            rounds,
            lto_latencies,
            seed,
            arch: Arch::from_env(),
            prefixes,
            farm,
            evals: Mutex::new(HashMap::new()),
            eval_requests: AtomicU64::new(0),
            eval_runs: AtomicU64::new(0),
        })
    }

    /// A small lab for tests: tiny kernel, few iterations.
    ///
    /// # Panics
    /// Panics if the profiling run fails (tests want the loud failure).
    pub fn test() -> Lab {
        Lab::new(KernelSpec::test(), 8, 2).expect("test lab builds")
    }

    /// The merged profile after the first `rounds` profiling rounds, when
    /// [`Lab::new`] kept it (`rounds` is in [`PREFIX_ROUNDS`] and not above
    /// [`Lab::rounds`]). It equals `collect_profile(rounds)`.
    pub fn profile_after(&self, rounds: u32) -> Option<&Profile> {
        self.prefixes
            .iter()
            .find(|(n, _)| *n == rounds)
            .map(|(_, p)| p)
    }

    /// Stamps the lab's arch onto a configuration still at the default
    /// [`Arch::X86`]; a config that already names a non-default arch (the
    /// cross-arch experiment's) passes through unchanged. At the default
    /// lab arch this is the identity, so x86 results are bit-identical to
    /// an arch-unaware lab.
    fn arched(&self, config: &PibeConfig) -> PibeConfig {
        if config.arch == Arch::X86 {
            config.with_arch(self.arch)
        } else {
            *config
        }
    }

    /// The farm's image for an already arch-resolved `config`.
    fn farm_image(&self, config: &PibeConfig) -> Arc<Image> {
        self.farm
            .image(config)
            .unwrap_or_else(|e| panic!("image build failed for {config:?}: {e}"))
    }

    /// The image for `config`, built through the lab's farm: the first
    /// request for a configuration builds it, every later request shares
    /// the same `Arc`'d image. Configs at the default arch are re-stamped
    /// to the lab's arch (see [`Lab::arch`]).
    pub fn image(&self, config: &PibeConfig) -> Arc<Image> {
        self.farm_image(&self.arched(config))
    }

    /// The image for `config` pinned to an explicit architecture, ignoring
    /// the lab's default. The cross-arch experiment uses this to build the
    /// same optimization configuration for every backend in one lab.
    pub fn image_for_arch(&self, config: &PibeConfig, arch: Arch) -> Arc<Image> {
        self.farm_image(&config.with_arch(arch))
    }

    /// Builds every configuration in `configs` across the farm's worker
    /// pool before returning; tables call this so their subsequent
    /// [`Lab::image`] calls are cache hits.
    pub fn prefetch(&self, configs: &[PibeConfig]) {
        let configs: Vec<PibeConfig> = configs.iter().map(|c| self.arched(c)).collect();
        self.farm
            .prefetch(&configs)
            .unwrap_or_else(|e| panic!("prefetch build failed: {e}"));
    }

    /// The lab's build farm (counters, thread knob, aggregate metrics).
    pub fn farm(&self) -> &ImageFarm {
        &self.farm
    }

    /// Per-stage build timings summed over every image this lab has built.
    pub fn build_metrics(&self) -> BuildMetrics {
        self.farm.aggregate_metrics()
    }

    /// How many evaluations the lab was asked for and how many it
    /// simulated.
    pub fn eval_stats(&self) -> EvalStats {
        EvalStats {
            requests: self.eval_requests.load(Ordering::Relaxed),
            simulated: self.eval_runs.load(Ordering::Relaxed),
        }
    }

    /// The latency suite run on the farm's image for `config` (re-stamped
    /// like [`Lab::image`]) under simulator configuration `cfg`, with
    /// attack tracking on. Each distinct (image, `cfg`) pair is simulated
    /// once per lab; every later request shares the `Arc`'d record.
    pub fn evaluate(&self, config: &PibeConfig, cfg: SimConfig) -> Arc<Evaluation> {
        self.record(self.arched(config), cfg)
    }

    /// [`Lab::evaluate`] on the image pinned to `arch`, like
    /// [`Lab::image_for_arch`].
    pub fn evaluate_for_arch(
        &self,
        config: &PibeConfig,
        arch: Arch,
        cfg: SimConfig,
    ) -> Arc<Evaluation> {
        self.record(config.with_arch(arch), cfg)
    }

    /// [`Lab::evaluate`] under the image's own simulator configuration: its
    /// defenses, charged at its arch.
    pub fn measure(&self, config: &PibeConfig) -> Arc<Evaluation> {
        let config = self.arched(config);
        self.record(config, config.sim_config())
    }

    /// The memoized evaluation of the farm image for the arch-resolved
    /// `config`. Attack tracking only observes, so turning it on for every
    /// record leaves the cycles unchanged and serves the attack counts from
    /// the same run.
    fn record(&self, config: PibeConfig, cfg: SimConfig) -> Arc<Evaluation> {
        let cfg = SimConfig {
            track_attacks: true,
            ..cfg
        };
        self.eval_requests.fetch_add(1, Ordering::Relaxed);
        let slot = self
            .evals
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .entry((config, cfg))
            .or_default()
            .clone();
        let hit = slot.get().is_some();
        let _span = pibe_trace::span_args("lab.evaluate", || {
            vec![("hit", pibe_trace::Value::from(hit))]
        });
        let record = slot
            .get_or_init(|| {
                self.eval_runs.fetch_add(1, Ordering::Relaxed);
                Arc::new(self.run_suite(&self.farm_image(&config).module, cfg))
            })
            .clone();
        debug_assert!(
            !hit || *record == self.run_suite(&self.farm_image(&config).module, cfg),
            "the memoized evaluation of {config:?} under {cfg:?} must match a fresh run"
        );
        record
    }

    /// One unmemoized run of the latency suite on `module`.
    fn run_suite(&self, module: &Module, cfg: SimConfig) -> Evaluation {
        eval::lmbench_evaluation(
            module,
            &self.kernel,
            &self.workload,
            &self.suite,
            cfg,
            self.seed,
        )
    }

    /// Measures the latency suite on a module built outside the farm (an
    /// Apache-trained image, a baseline inliner's output, a fenced kernel).
    /// Such a module shares no identity with a farm image, so it is
    /// simulated on every call and never enters the evaluation memo.
    pub fn latencies(&self, module: &Module, cfg: SimConfig) -> Vec<LatencyRow> {
        self.run_suite(module, cfg).rows
    }

    /// Overheads of pre-measured rows relative to the LTO baseline.
    pub fn overheads_of(&self, rows: &[LatencyRow]) -> Vec<(String, f64)> {
        self.lto_latencies
            .iter()
            .zip(rows)
            .map(|(b, n)| (b.name.clone(), eval::overhead_pct(b.cycles, n.cycles)))
            .collect()
    }

    /// Geomean overhead (%) of a module built outside the farm, after
    /// hardening it with every defense under the lab's arch. Baselines the
    /// pipeline cannot build (LLVM's inliner) are measured this way, so they
    /// face the same backend as the farm's images.
    pub(crate) fn hardened_overhead(&self, mut module: Module) -> f64 {
        pibe_harden::apply(&mut module, self.arch.backend(), DefenseSet::ALL, 1);
        let cfg = SimConfig {
            defenses: DefenseSet::ALL,
            arch: self.arch,
            ..SimConfig::default()
        };
        self.geomean(&self.latencies(&module, cfg))
    }

    /// Geometric-mean overhead (%) of rows vs the LTO baseline.
    pub fn geomean(&self, rows: &[LatencyRow]) -> f64 {
        eval::geomean_overhead_pct(
            &eval::cycles_of(&self.lto_latencies),
            &eval::cycles_of(rows),
        )
    }

    /// Builds, measures, and summarises one configuration in a single call:
    /// `(geomean overhead %, per-bench overheads)`.
    pub fn run_config(&self, config: &PibeConfig) -> (f64, Vec<(String, f64)>) {
        let rows = &self.measure(config).rows;
        (self.geomean(rows), self.overheads_of(rows))
    }
}

/// The defense configurations of Tables 6 and 7 in display order.
pub fn defense_sweep() -> [(&'static str, DefenseSet); 4] {
    [
        ("w/retpolines", DefenseSet::RETPOLINES),
        ("w/ret-retpolines", DefenseSet::RET_RETPOLINES),
        ("w/LVI-CFI", DefenseSet::LVI_CFI),
        ("w/all-defenses", DefenseSet::ALL),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use pibe_baselines::jumpswitch_sim_config;
    use pibe_kernel::measure::{collect_macro_profile, collect_profile};
    use pibe_kernel::workloads::MacroBench;
    use pibe_profile::Budget;
    use pibe_sim::JumpSwitchConfig;

    /// A fresh, unmemoized suite run of the farm image for `config`.
    fn fresh(lab: &Lab, config: &PibeConfig, cfg: SimConfig) -> Evaluation {
        let image = lab.image(config);
        eval::lmbench_evaluation(
            &image.module,
            &lab.kernel,
            &lab.workload,
            &lab.suite,
            cfg,
            lab.seed,
        )
    }

    #[test]
    fn memoized_records_equal_fresh_runs() {
        let lab = Lab::test();
        let lto = PibeConfig::lto();
        let lax_all = PibeConfig::lax(DefenseSet::ALL);
        let retp = PibeConfig::lto_with(DefenseSet::RETPOLINES);
        let own = |c: &PibeConfig| lab.image(c).config.sim_config();
        let cases = [
            (lto, own(&lto)),
            (lax_all, own(&lax_all)),
            (
                lto,
                SimConfig {
                    eibrs: true,
                    ..own(&lto)
                },
            ),
            (
                lto,
                SimConfig {
                    rsb_refill: true,
                    ..own(&lto)
                },
            ),
            (retp, jumpswitch_sim_config(JumpSwitchConfig::default())),
        ];
        for (config, cfg) in cases {
            let first = lab.evaluate(&config, cfg);
            let again = lab.evaluate(&config, cfg);
            assert!(Arc::ptr_eq(&first, &again), "{cfg:?}: one record per key");
            let tracked = SimConfig {
                track_attacks: true,
                ..cfg
            };
            assert_eq!(*first, fresh(&lab, &config, tracked), "{cfg:?}");
            // Attack tracking only observes: an untracked run measures the
            // same rows and statistics.
            let untracked = fresh(&lab, &config, cfg);
            assert_eq!(first.rows, untracked.rows, "{cfg:?}");
            assert_eq!(first.stats, untracked.stats, "{cfg:?}");
        }
        assert_eq!(
            lab.eval_stats(),
            EvalStats {
                requests: 10,
                simulated: 5
            }
        );
        // `measure` and `run_config` read the same records.
        let (geo, _) = lab.run_config(&lax_all);
        assert!(Arc::ptr_eq(
            &lab.measure(&lax_all),
            &lab.evaluate(&lax_all, own(&lax_all))
        ));
        assert_eq!(geo, lab.geomean(&lab.measure(&lax_all).rows));
        assert_eq!(lab.eval_stats().simulated, 5);
    }

    /// An image built outside the farm is measured on its own module even
    /// when its configuration equals a farm image's.
    #[test]
    fn a_non_farm_image_with_a_farm_config_gets_its_own_numbers() {
        let lab = Lab::test();
        let config = PibeConfig::lax(DefenseSet::ALL).with_arch(lab.arch);
        let apache = collect_macro_profile(
            &lab.kernel,
            &WorkloadSpec::apache(),
            &MacroBench::apache(20),
            2,
            lab.seed,
        )
        .expect("apache profiling runs");
        let outside = Image::builder(&lab.kernel.module)
            .profile(&apache)
            .config(config)
            .build()
            .expect("apache-trained image builds");
        assert_eq!(outside.config, lab.image(&config).config);
        let farm_rows = lab.measure(&config).rows.clone();
        let own = lab.latencies(&outside.module, outside.config.sim_config());
        assert_ne!(
            own, farm_rows,
            "the apache-trained image is a different image"
        );
        let direct = eval::lmbench_latencies(
            &outside.module,
            &lab.kernel,
            &lab.workload,
            &lab.suite,
            outside.config.sim_config(),
            lab.seed,
        );
        assert_eq!(own, direct);
        assert_eq!(lab.eval_stats().simulated, 1, "never enters the memo");
    }

    #[test]
    fn kept_prefix_profiles_equal_fresh_collections() {
        let lab = Lab::new(KernelSpec::test(), 4, 8).expect("lab builds");
        for k in PREFIX_ROUNDS {
            let fresh = collect_profile(&lab.kernel, &lab.workload, &lab.suite, k, lab.seed)
                .expect("profiling runs");
            assert_eq!(lab.profile_after(k), Some(&fresh), "{k} rounds");
        }
        assert_eq!(lab.profile_after(8), Some(&lab.profile));
        assert_eq!(lab.profile_after(3), None);
        let short = Lab::new(KernelSpec::test(), 4, 2).expect("lab builds");
        assert_eq!(
            short.profile_after(4),
            None,
            "no prefix above the lab's rounds"
        );
    }

    #[test]
    fn lab_builds_and_measures_baseline() {
        let lab = Lab::test();
        assert_eq!(lab.lto_latencies.len(), 20);
        assert!(lab.profile.stats().direct_weight > 0);
    }

    #[test]
    fn optimized_defended_image_beats_unoptimized_defended() {
        let lab = Lab::test();
        let (lto_all, _) = lab.run_config(&PibeConfig::builder().defenses(DefenseSet::ALL).build());
        let (pibe_all, _) = lab.run_config(
            &PibeConfig::builder()
                .lax()
                .defenses(DefenseSet::ALL)
                .build(),
        );
        assert!(
            pibe_all < lto_all,
            "PIBE must beat unoptimized defenses ({pibe_all:.1}% vs {lto_all:.1}%)"
        );
        // The magnitude claims are about the x86 retpoline family; hardware
        // CFI backends start from a far smaller overhead, so a PIBE_ARCH
        // matrix run checks direction only.
        if lab.arch == Arch::X86 {
            assert!(
                pibe_all < lto_all / 2.0,
                "PIBE must cut comprehensive-defense overhead dramatically \
                 (LTO {lto_all:.1}% vs PIBE {pibe_all:.1}%)"
            );
            assert!(lto_all > 30.0, "undefended gap is large: {lto_all:.1}%");
        }
    }

    #[test]
    fn pibe_baseline_is_faster_than_lto() {
        let lab = Lab::test();
        let (g, _) = lab.run_config(&PibeConfig::builder().lax().build());
        assert!(
            g < 0.0,
            "PGO with no defenses speeds the kernel up: {g:.1}%"
        );
    }

    #[test]
    fn icp_only_cuts_retpoline_overhead() {
        let lab = Lab::test();
        if lab.arch != Arch::X86 {
            // On hardware-CFI arches the forward-edge toll is 1 cycle, so
            // ICP's win is inside measurement noise; the claim under test
            // is about retpolines.
            return;
        }
        let (lto_retp, _) = lab.run_config(
            &PibeConfig::builder()
                .defenses(DefenseSet::RETPOLINES)
                .build(),
        );
        let (icp_retp, _) = lab.run_config(
            &PibeConfig::builder()
                .icp(Budget::P99_999)
                .defenses(DefenseSet::RETPOLINES)
                .build(),
        );
        assert!(
            icp_retp < lto_retp,
            "ICP reduces retpoline overhead ({icp_retp:.1}% vs {lto_retp:.1}%)"
        );
    }
}
