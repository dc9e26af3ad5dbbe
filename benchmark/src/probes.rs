//! Probes that traced runs add after the measured phase. They are the same
//! on every workload, so each traced run reports the simulator and the
//! stage-thread scaling even where its workload does not exercise them.

use crate::stats::median;
use crate::workloads::{build_lax_all, lax_all_dce, Sizes, EVAL_SEED};
use crate::{Ctx, Metrics};
use pibe::Image;
use pibe_harden::DefenseSet;
use pibe_ir::Module;
use pibe_kernel::measure::run_throughput;
use pibe_kernel::workloads::lmbench_suite;
use pibe_kernel::{Kernel, MacroBench, WorkloadSpec};
use pibe_profile::Profile;
use pibe_sim::{ExecStats, SimConfig, Simulator};
use std::time::Instant;

/// Samples of each timed build in the build probe.
const BUILD_SAMPLES: usize = 5;

/// Runs both probes.
///
/// # Errors
/// When a probe build or simulation fails.
pub fn run(kernel: &Kernel, profile: &Profile, ctx: &Ctx) -> Result<Metrics, String> {
    let mut metrics = build_probe(kernel, profile, ctx.nproc)?;
    metrics.extend(sim_probe(
        kernel,
        &build_lax_all(kernel, profile)?,
        &ctx.sizes,
    )?);
    Ok(metrics)
}

/// Builds `lax+all+dce` untraced at 1 stage thread, untraced at `nproc`
/// stage threads, and traced at 1 stage thread, interleaved, and reports
/// the cold build time, the stage-thread speed-up, the tracing overhead and
/// the image's exact pass counts.
fn build_probe(kernel: &Kernel, profile: &Profile, nproc: usize) -> Result<Metrics, String> {
    let build = |threads: usize, traced: bool| -> Result<(f64, Image), String> {
        pibe_trace::set_enabled(traced);
        let t = Instant::now();
        let image = Image::builder(&kernel.module)
            .profile(profile)
            .config(lax_all_dce())
            .threads(threads)
            .build()
            .map_err(|e| format!("probe build: {e}"));
        let ms = t.elapsed().as_secs_f64() * 1e3;
        pibe_trace::set_enabled(true);
        Ok((ms, image?))
    };
    let (mut one, mut many, mut traced) = (Vec::new(), Vec::new(), Vec::new());
    let mut image = None;
    for _ in 0..BUILD_SAMPLES {
        let (ms, img) = build(1, false)?;
        one.push(ms);
        image = Some(img);
        many.push(build(nproc, false)?.0);
        traced.push(build(1, true)?.0);
    }
    // Spans of the traced probe builds are not part of the workload.
    drop(pibe_trace::take());
    let image = image.expect("at least one sample");
    let count = |n: Option<u64>| n.unwrap_or(0) as f64;
    let metrics = vec![
        ("build.cold_ms".into(), median(&one), "ms"),
        (
            "build.stage_threads_speedup".into(),
            median(&one) / median(&many),
            "x",
        ),
        (
            "trace.overhead_pct".into(),
            (median(&traced) / median(&one) - 1.0) * 100.0,
            "%",
        ),
        (
            "passes.icp.promoted_sites".into(),
            count(image.icp_stats.as_ref().map(|s| s.promoted_sites)),
            "count",
        ),
        (
            "passes.inline.inlined_sites".into(),
            count(image.inline_stats.as_ref().map(|s| s.inlined_sites)),
            "count",
        ),
        (
            "passes.dce.removed_functions".into(),
            count(image.dce_stats.as_ref().map(|s| s.removed_functions)),
            "count",
        ),
    ];
    Ok(metrics)
}

/// Times the simulator's entry points one at a time on one thread:
/// building the resolver, `Simulator::new` (the layout), the LMBench suite
/// on the LTO kernel, on the hardened image, and with attack tracking, a
/// macro benchmark, and a profiling run. `hardened` is a `lax+all` image.
fn sim_probe(kernel: &Kernel, hardened: &Image, sizes: &Sizes) -> Result<Metrics, String> {
    let workload = WorkloadSpec::lmbench();
    let suite = lmbench_suite(sizes.probe_iters);
    let t = Instant::now();
    let resolver = workload.resolver(kernel);
    let resolver_ms = t.elapsed().as_secs_f64() * 1e3;
    drop(resolver);

    // (Simulator::new ms, suite ms, statistics)
    let exec = |module: &Module, cfg: SimConfig| -> Result<(f64, f64, ExecStats), String> {
        let resolver = workload.resolver(kernel);
        let t = Instant::now();
        let mut sim = Simulator::new(module, resolver, EVAL_SEED, cfg);
        let new_ms = t.elapsed().as_secs_f64() * 1e3;
        let t = Instant::now();
        for bench in &suite {
            let entry = kernel.entry(bench.syscall);
            for _ in 0..bench.warmup + bench.iterations {
                sim.call_entry(entry)
                    .map_err(|e| format!("sim probe: {e}"))?;
            }
        }
        Ok((new_ms, t.elapsed().as_secs_f64() * 1e3, *sim.stats()))
    };
    let hardened_cfg = SimConfig {
        defenses: DefenseSet::ALL,
        arch: hardened.config.arch,
        ..SimConfig::default()
    };
    let (new_ms, exec_ms, stats) = exec(&kernel.module, SimConfig::default())?;
    let (_, hardened_ms, _) = exec(&hardened.module, hardened_cfg)?;
    let (_, attack_ms, _) = exec(
        &hardened.module,
        SimConfig {
            track_attacks: true,
            ..hardened_cfg
        },
    )?;
    let (_, profile_ms, profile_stats) = exec(
        &kernel.module,
        SimConfig {
            collect_profile: true,
            ..SimConfig::default()
        },
    )?;
    let t = Instant::now();
    run_throughput(
        &kernel.module,
        kernel,
        &WorkloadSpec::apache(),
        &MacroBench::apache(sizes.requests),
        SimConfig::default(),
        EVAL_SEED,
    )
    .map_err(|e| format!("sim probe: {e}"))?;
    let macro_ms = t.elapsed().as_secs_f64() * 1e3;

    let minsts_per_s = |insts: u64, ms: f64| insts as f64 / ms / 1e3;
    Ok(vec![
        ("sim.resolver_ms".into(), resolver_ms, "ms"),
        ("sim.new_ms".into(), new_ms, "ms"),
        ("sim.exec_ms".into(), exec_ms, "ms"),
        ("sim.exec_hardened_ms".into(), hardened_ms, "ms"),
        ("sim.attack_exec_ms".into(), attack_ms, "ms"),
        ("sim.macro_exec_ms".into(), macro_ms, "ms"),
        ("sim.insts".into(), stats.insts as f64, "count"),
        (
            "sim.minsts_per_s".into(),
            minsts_per_s(stats.insts, exec_ms),
            "Minst/s",
        ),
        (
            "sim.profile_minsts_per_s".into(),
            minsts_per_s(profile_stats.insts, profile_ms),
            "Minst/s",
        ),
    ])
}
