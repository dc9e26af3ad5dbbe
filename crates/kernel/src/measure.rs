//! Measurement harness: runs workloads over a kernel module under the
//! simulator, producing latencies, throughputs, and profiles.
//!
//! The module being measured is passed in explicitly (not taken from the
//! [`Kernel`]) because the pipeline measures *transformed* copies of the
//! kernel — optimized and hardened images — against the same workloads.

use crate::gen::Kernel;
use crate::workloads::{Benchmark, MacroBench, WorkloadSpec};
use pibe_ir::Module;
use pibe_profile::Profile;
use pibe_sim::{AttackReport, ExecStats, SimConfig, SimError, Simulator};
use serde::{Deserialize, Serialize};
use std::ops::Range;

/// Simulated CPU frequency used to convert cycles to wall-clock analogues
/// (the paper's testbed is a 3.7 GHz i7-8700K; LMBench reports µs).
pub const CPU_HZ: f64 = 3.7e9;

/// Result of one latency benchmark run.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct LatencyResult {
    /// Mean cycles per iteration over the timed phase.
    pub cycles_per_iter: f64,
    /// The latency analogue in microseconds at [`CPU_HZ`].
    pub micros: f64,
}

/// Result of one macrobenchmark run.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ThroughputResult {
    /// Mean cycles per request.
    pub cycles_per_request: f64,
    /// Requests per second at [`CPU_HZ`].
    pub requests_per_sec: f64,
}

/// Runs one LMBench-style latency benchmark of `bench` against `module`
/// under `cfg`, resolving indirect calls per `workload`.
///
/// # Errors
/// Propagates simulator failures (see [`SimError`]); a well-formed kernel
/// and workload cannot fail.
pub fn run_latency(
    module: &Module,
    kernel: &Kernel,
    workload: &WorkloadSpec,
    bench: Benchmark,
    cfg: SimConfig,
    seed: u64,
) -> Result<(LatencyResult, ExecStats, AttackReport), SimError> {
    let resolver = workload.resolver(kernel);
    let mut sim = Simulator::new(module, resolver, seed, cfg);
    let entry = kernel.entry(bench.syscall);
    for _ in 0..bench.warmup {
        sim.call_entry(entry)?;
    }
    let mut total = 0u64;
    for _ in 0..bench.iterations {
        total += sim.call_entry(entry)?;
    }
    let cycles_per_iter = total as f64 / f64::from(bench.iterations.max(1));
    Ok((
        LatencyResult {
            cycles_per_iter,
            micros: cycles_per_iter / CPU_HZ * 1e6,
        },
        *sim.stats(),
        *sim.attacks(),
    ))
}

/// Runs a macrobenchmark (repeated multi-syscall requests) and reports the
/// throughput analogue.
///
/// # Errors
/// Propagates simulator failures (see [`SimError`]).
pub fn run_throughput(
    module: &Module,
    kernel: &Kernel,
    workload: &WorkloadSpec,
    bench: &MacroBench,
    cfg: SimConfig,
    seed: u64,
) -> Result<(ThroughputResult, ExecStats), SimError> {
    let resolver = workload.resolver(kernel);
    let mut sim = Simulator::new(module, resolver, seed, cfg);
    let run_request = |sim: &mut Simulator<'_, _>| -> Result<u64, SimError> {
        let mut c = 0;
        for (sc, n) in &bench.request {
            let entry = kernel.entry(*sc);
            for _ in 0..*n {
                c += sim.call_entry(entry)?;
            }
        }
        Ok(c)
    };
    for _ in 0..bench.warmup {
        run_request(&mut sim)?;
    }
    let mut total = 0u64;
    for _ in 0..bench.requests {
        total += run_request(&mut sim)?;
    }
    let cycles_per_request = total as f64 / f64::from(bench.requests.max(1));
    Ok((
        ThroughputResult {
            cycles_per_request,
            requests_per_sec: CPU_HZ / cycles_per_request,
        },
        *sim.stats(),
    ))
}

/// Collects an aggregated execution profile of the whole `suite`, merged
/// over `rounds` independent runs — the paper "run\[s\] the same LMBench
/// configuration 11 times and collect\[s\] all edge execution counts observed
/// across all 11 iterations" (§8).
///
/// # Errors
/// Propagates simulator failures (see [`SimError`]).
pub fn collect_profile(
    kernel: &Kernel,
    workload: &WorkloadSpec,
    suite: &[Benchmark],
    rounds: u32,
    seed: u64,
) -> Result<Profile, SimError> {
    let mut merged = Profile::new();
    merge_profile_rounds(
        kernel,
        workload,
        suite,
        &mut merged,
        0..rounds,
        seed,
        |_, _| {},
    )?;
    Ok(merged)
}

/// The round loop behind [`collect_profile`]: runs the suite once per round
/// index in `rounds` (round `r` simulates under seed `seed ^ r`), merges
/// each round into `merged` in order, and calls `after_round(r + 1,
/// &merged)` after round `r`. Merges run in the same order as
/// `collect_profile`'s, so the profile `after_round` sees after `k` rounds
/// from an empty start is byte-for-byte `collect_profile(k)`, and
/// continuing `collect_profile(j)` over `j..k` reaches the same profile.
///
/// # Errors
/// Propagates simulator failures (see [`SimError`]).
pub fn merge_profile_rounds(
    kernel: &Kernel,
    workload: &WorkloadSpec,
    suite: &[Benchmark],
    merged: &mut Profile,
    rounds: Range<u32>,
    seed: u64,
    mut after_round: impl FnMut(u32, &Profile),
) -> Result<(), SimError> {
    for round in rounds {
        let resolver = workload.resolver(kernel);
        let cfg = SimConfig {
            collect_profile: true,
            ..SimConfig::default()
        };
        let mut sim = Simulator::new(&kernel.module, resolver, seed ^ u64::from(round), cfg);
        for b in suite {
            let entry = kernel.entry(b.syscall);
            for _ in 0..b.warmup + b.iterations {
                sim.call_entry(entry)?;
            }
        }
        merged.merge(&sim.take_profile());
        after_round(round + 1, merged);
    }
    Ok(())
}

/// Collects a profile of a macro workload (used to train the Apache-profile
/// kernels of §8.4 and the macro rows of Table 7).
///
/// # Errors
/// Propagates simulator failures (see [`SimError`]).
pub fn collect_macro_profile(
    kernel: &Kernel,
    workload: &WorkloadSpec,
    bench: &MacroBench,
    rounds: u32,
    seed: u64,
) -> Result<Profile, SimError> {
    let mut merged = Profile::new();
    for round in 0..rounds {
        let resolver = workload.resolver(kernel);
        let cfg = SimConfig {
            collect_profile: true,
            ..SimConfig::default()
        };
        let mut sim = Simulator::new(&kernel.module, resolver, seed ^ u64::from(round), cfg);
        for _ in 0..bench.requests {
            for (sc, n) in &bench.request {
                let entry = kernel.entry(*sc);
                for _ in 0..*n {
                    sim.call_entry(entry)?;
                }
            }
        }
        merged.merge(&sim.take_profile());
    }
    Ok(merged)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::lmbench_suite;
    use crate::{KernelSpec, Syscall};
    use pibe_harden::DefenseSet;

    fn kernel() -> Kernel {
        Kernel::generate(KernelSpec::test())
    }

    #[test]
    fn latency_benchmark_runs_and_orders_sanely() {
        let k = kernel();
        let wl = WorkloadSpec::lmbench();
        let cfg = SimConfig::default();
        let run = |sc: Syscall| {
            let b = Benchmark {
                syscall: sc,
                iterations: 12,
                warmup: 3,
            };
            run_latency(&k.module, &k, &wl, b, cfg, 7).unwrap().0
        };
        let null = run(Syscall::Null);
        let fork = run(Syscall::ForkShell);
        assert!(null.micros > 0.0);
        assert!(
            fork.cycles_per_iter > 4.0 * null.cycles_per_iter,
            "fork/shell ({}) must dwarf null ({})",
            fork.cycles_per_iter,
            null.cycles_per_iter
        );
    }

    #[test]
    fn defended_kernel_is_slower() {
        let k = kernel();
        let wl = WorkloadSpec::lmbench();
        let b = Benchmark {
            syscall: Syscall::Read,
            iterations: 20,
            warmup: 5,
        };
        let base = run_latency(&k.module, &k, &wl, b, SimConfig::default(), 7)
            .unwrap()
            .0;
        let cfg = SimConfig {
            defenses: DefenseSet::ALL,
            ..SimConfig::default()
        };
        let hard = run_latency(&k.module, &k, &wl, b, cfg, 7).unwrap().0;
        assert!(
            hard.cycles_per_iter > 1.3 * base.cycles_per_iter,
            "all defenses must cost >30% on read ({} vs {})",
            hard.cycles_per_iter,
            base.cycles_per_iter
        );
    }

    #[test]
    fn throughput_benchmark_runs() {
        let k = kernel();
        let wl = WorkloadSpec::nginx();
        let mb = MacroBench::nginx(6);
        let (t, stats) = run_throughput(&k.module, &k, &wl, &mb, SimConfig::default(), 7).unwrap();
        assert!(t.requests_per_sec > 0.0);
        assert!(stats.icalls > 0, "requests exercise dispatch sites");
    }

    #[test]
    fn profile_collection_sees_hot_sites() {
        let k = kernel();
        let wl = WorkloadSpec::lmbench();
        let suite = lmbench_suite(8);
        let p = collect_profile(&k, &wl, &suite, 2, 7).unwrap();
        let stats = p.stats();
        assert!(
            stats.direct_sites > 50,
            "direct sites: {}",
            stats.direct_sites
        );
        assert!(stats.indirect_sites > 5);
        assert!(stats.return_weight > stats.direct_weight / 2);
        // Interface sites dominate observed indirect calls.
        let hist = p.target_multiplicity_histogram();
        assert!(hist.iter().sum::<u64>() > 0);
    }

    #[test]
    fn profiles_merge_across_rounds_monotonically() {
        let k = kernel();
        let wl = WorkloadSpec::lmbench();
        let suite = vec![Benchmark {
            syscall: Syscall::Read,
            iterations: 5,
            warmup: 1,
        }];
        let p1 = collect_profile(&k, &wl, &suite, 1, 7).unwrap();
        let p2 = collect_profile(&k, &wl, &suite, 2, 7).unwrap();
        assert!(p2.stats().direct_weight > p1.stats().direct_weight);
    }

    /// The merged profile after `k` rounds is `collect_profile(k)`, whether
    /// the loop starts empty or continues from an earlier prefix.
    #[test]
    fn round_prefixes_equal_fresh_collections() {
        let k = kernel();
        let wl = WorkloadSpec::lmbench();
        let suite = lmbench_suite(4);
        let mut kept = Vec::new();
        let mut merged = Profile::new();
        merge_profile_rounds(&k, &wl, &suite, &mut merged, 0..4, 7, |n, p| {
            kept.push((n, p.clone()));
        })
        .unwrap();
        assert_eq!(
            kept.iter().map(|(n, _)| *n).collect::<Vec<_>>(),
            [1, 2, 3, 4]
        );
        for (n, p) in &kept {
            assert_eq!(
                *p,
                collect_profile(&k, &wl, &suite, *n, 7).unwrap(),
                "{n} rounds"
            );
        }
        let mut resumed = collect_profile(&k, &wl, &suite, 2, 7).unwrap();
        merge_profile_rounds(&k, &wl, &suite, &mut resumed, 2..4, 7, |_, _| {}).unwrap();
        assert_eq!(resumed, merged);
    }
}
