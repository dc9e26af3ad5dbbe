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
use crate::eval::{self, LatencyRow};
use crate::farm::ImageFarm;
use crate::pipeline::{BuildMetrics, Image, PipelineError};
use pibe_harden::{Arch, DefenseSet};
use pibe_ir::Module;
use pibe_kernel::measure::collect_profile;
use pibe_kernel::workloads::{lmbench_suite, Benchmark, WorkloadSpec};
use pibe_kernel::{Kernel, KernelSpec};
use pibe_profile::Profile;
use pibe_sim::{SimConfig, SimError};
use std::fmt;
use std::sync::Arc;

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

/// The experiment harness: one generated kernel, one profiling run, and one
/// image farm shared across all tables.
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
    /// The build farm: every image any table requests is built exactly once
    /// here and shared.
    farm: ImageFarm,
}

impl Lab {
    /// Builds a lab: generates the kernel, collects the aggregated LMBench
    /// profile (`rounds` runs, 11 in the paper), and measures the LTO
    /// baseline.
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
        let profile =
            collect_profile(&kernel, &workload, &suite, rounds, seed).map_err(|source| {
                ExperimentError::Profiling {
                    workload: workload.name.clone(),
                    seed,
                    source,
                }
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
            lto_latencies,
            seed,
            arch: Arch::from_env(),
            farm,
        })
    }

    /// A small lab for tests: tiny kernel, few iterations.
    ///
    /// # Panics
    /// Panics if the profiling run fails (tests want the loud failure).
    pub fn test() -> Lab {
        Lab::new(KernelSpec::test(), 8, 2).expect("test lab builds")
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

    /// The image for `config`, built through the lab's farm: the first
    /// request for a configuration builds it, every later request shares
    /// the same `Arc`'d image. Configs at the default arch are re-stamped
    /// to the lab's arch (see [`Lab::arch`]).
    pub fn image(&self, config: &PibeConfig) -> Arc<Image> {
        let config = self.arched(config);
        self.farm
            .image(&config)
            .unwrap_or_else(|e| panic!("image build failed for {config:?}: {e}"))
    }

    /// The image for `config` pinned to an explicit architecture, ignoring
    /// the lab's default. The cross-arch experiment uses this to build the
    /// same optimization configuration for every backend in one lab.
    pub fn image_for_arch(&self, config: &PibeConfig, arch: Arch) -> Arc<Image> {
        let config = config.with_arch(arch);
        self.farm
            .image(&config)
            .unwrap_or_else(|e| panic!("image build failed for {config:?}: {e}"))
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

    /// Measures the latency suite on `image` under its own defenses and
    /// architecture.
    pub fn latencies(&self, image: &Image) -> Vec<LatencyRow> {
        self.latencies_with(image, image.sim_config())
    }

    /// Measures the latency suite on `image` with an explicit simulator
    /// configuration (used for the JumpSwitches runtime mechanism).
    pub fn latencies_with(&self, image: &Image, cfg: SimConfig) -> Vec<LatencyRow> {
        eval::lmbench_latencies(
            &image.module,
            &self.kernel,
            &self.workload,
            &self.suite,
            cfg,
            self.seed,
        )
    }

    /// Per-benchmark overhead (%) of `image` relative to the LTO baseline.
    pub fn overheads(&self, image: &Image) -> Vec<(String, f64)> {
        let rows = self.latencies(image);
        self.overheads_of(&rows)
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
        let rows = eval::lmbench_latencies(
            &module,
            &self.kernel,
            &self.workload,
            &self.suite,
            SimConfig {
                defenses: DefenseSet::ALL,
                arch: self.arch,
                ..SimConfig::default()
            },
            self.seed,
        );
        self.geomean(&rows)
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
        let image = self.image(config);
        let rows = self.latencies(&image);
        (self.geomean(&rows), self.overheads_of(&rows))
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
    use pibe_profile::Budget;

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
