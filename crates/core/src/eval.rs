//! Measurement sweeps and overhead arithmetic.

use pibe_ir::Module;
use pibe_kernel::measure::{run_latency, run_throughput, LatencyResult};
use pibe_kernel::workloads::{Benchmark, MacroBench, WorkloadSpec};
use pibe_kernel::Kernel;
use pibe_sim::{AttackReport, ExecStats, SimConfig};
use serde::{Deserialize, Serialize};

/// One LMBench row measured on one image.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LatencyRow {
    /// Benchmark name (Table 2 row).
    pub name: String,
    /// Mean cycles per iteration.
    pub cycles: f64,
    /// Latency analogue in µs.
    pub micros: f64,
}

/// Everything one run of the latency suite measures on one image: the
/// per-benchmark rows, the execution statistics summed over the suite and
/// the attack surface merged over it (empty unless the run tracked
/// attacks).
#[derive(Debug, Clone, PartialEq)]
pub struct Evaluation {
    /// One row per benchmark, in suite order.
    pub rows: Vec<LatencyRow>,
    /// Execution statistics summed over every benchmark's run.
    pub stats: ExecStats,
    /// Hijackable executions summed over every benchmark's run.
    pub attacks: AttackReport,
}

/// Runs the whole latency `suite` against `module`, one warm simulator per
/// benchmark (as LMBench runs each micro in its own process), in parallel
/// across benchmarks. Totals are summed in suite order.
///
/// # Panics
/// Panics if the simulator fails, which a well-formed kernel image cannot
/// cause — an error here means the image or workload is malformed.
pub fn lmbench_evaluation(
    module: &Module,
    kernel: &Kernel,
    workload: &WorkloadSpec,
    suite: &[Benchmark],
    cfg: SimConfig,
    seed: u64,
) -> Evaluation {
    let mut runs: Vec<Option<(LatencyResult, ExecStats, AttackReport)>> = Vec::new();
    runs.resize_with(suite.len(), || None);
    std::thread::scope(|scope| {
        for (slot, bench) in runs.iter_mut().zip(suite.iter()) {
            scope.spawn(move || {
                let _span = sim_span(bench.syscall.name());
                *slot = Some(
                    run_latency(module, kernel, workload, *bench, cfg, seed)
                        .expect("latency benchmark must run on a well-formed image"),
                );
            });
        }
    });
    let mut total = Evaluation {
        rows: Vec::with_capacity(suite.len()),
        stats: ExecStats::default(),
        attacks: AttackReport::default(),
    };
    for (bench, run) in suite.iter().zip(runs) {
        let (lat, stats, attacks) = run.expect("all slots filled");
        total.rows.push(LatencyRow {
            name: bench.syscall.name().to_string(),
            cycles: lat.cycles_per_iter,
            micros: lat.micros,
        });
        total.stats.merge(&stats);
        total.attacks.merge(&attacks);
    }
    total
}

/// The rows of [`lmbench_evaluation`].
pub fn lmbench_latencies(
    module: &Module,
    kernel: &Kernel,
    workload: &WorkloadSpec,
    suite: &[Benchmark],
    cfg: SimConfig,
    seed: u64,
) -> Vec<LatencyRow> {
    lmbench_evaluation(module, kernel, workload, suite, cfg, seed).rows
}

/// Macro throughput of `bench` on `module` (requests/sec analogue).
pub fn macro_throughput(
    module: &Module,
    kernel: &Kernel,
    workload: &WorkloadSpec,
    bench: &MacroBench,
    cfg: SimConfig,
    seed: u64,
) -> f64 {
    let _span = sim_span(&bench.name);
    let (t, _) = run_throughput(module, kernel, workload, bench, cfg, seed)
        .expect("macro benchmark must run on a well-formed image");
    t.requests_per_sec
}

/// Opens the `sim.run` span around one simulator run of benchmark `bench`.
fn sim_span(bench: &str) -> pibe_trace::SpanGuard {
    pibe_trace::span_args("sim.run", || vec![("bench", bench.into())])
}

/// Percent overhead of `new` relative to `base` ("(+) means slowdown while
/// (-) means speedup", Table 2).
pub fn overhead_pct(base: f64, new: f64) -> f64 {
    (new - base) / base * 100.0
}

/// Geometric-mean percent overhead across paired measurements — the
/// summary statistic of Tables 2, 3, 5, and 6.
///
/// # Panics
/// Panics if the slices differ in length, are empty, or contain
/// non-positive measurements.
pub fn geomean_overhead_pct(base: &[f64], new: &[f64]) -> f64 {
    assert_eq!(base.len(), new.len(), "paired measurements required");
    assert!(!base.is_empty(), "at least one measurement required");
    let log_sum: f64 = base
        .iter()
        .zip(new)
        .map(|(b, n)| {
            assert!(*b > 0.0 && *n > 0.0, "measurements must be positive");
            (n / b).ln()
        })
        .sum();
    ((log_sum / base.len() as f64).exp() - 1.0) * 100.0
}

/// Convenience: the `cycles` column of a row set.
pub fn cycles_of(rows: &[LatencyRow]) -> Vec<f64> {
    rows.iter().map(|r| r.cycles).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use pibe_kernel::workloads::lmbench_suite;
    use pibe_kernel::KernelSpec;

    #[test]
    fn overhead_signs_match_the_paper_convention() {
        assert_eq!(overhead_pct(100.0, 120.0), 20.0);
        assert_eq!(overhead_pct(100.0, 90.0), -10.0);
    }

    #[test]
    fn geomean_of_identical_runs_is_zero() {
        let xs = vec![10.0, 20.0, 30.0];
        assert!(geomean_overhead_pct(&xs, &xs).abs() < 1e-12);
    }

    #[test]
    fn geomean_is_order_insensitive_and_balanced() {
        // +100% and -50% cancel geometrically.
        let g = geomean_overhead_pct(&[10.0, 10.0], &[20.0, 5.0]);
        assert!(g.abs() < 1e-9, "got {g}");
    }

    #[test]
    #[should_panic(expected = "paired")]
    fn geomean_rejects_mismatched_lengths() {
        geomean_overhead_pct(&[1.0], &[1.0, 2.0]);
    }

    #[test]
    fn parallel_suite_matches_benchmark_order() {
        let k = Kernel::generate(KernelSpec::test());
        let wl = WorkloadSpec::lmbench();
        let suite = lmbench_suite(4);
        let rows = lmbench_latencies(&k.module, &k, &wl, &suite, SimConfig::default(), 7);
        assert_eq!(rows.len(), 20);
        assert_eq!(rows[0].name, "null");
        assert!(rows.iter().all(|r| r.cycles > 0.0));
        // Deterministic: a second run agrees exactly.
        let rows2 = lmbench_latencies(&k.module, &k, &wl, &suite, SimConfig::default(), 7);
        for (a, b) in rows.iter().zip(&rows2) {
            assert_eq!(a.cycles, b.cycles);
        }
    }
}
