//! Cycle attribution: *where* each configuration's time goes.
//!
//! The paper explains its numbers in terms of three cost channels — the
//! defense sequences themselves (Table 1), prediction effects (BTB/RSB),
//! and locality effects of code growth (§5.2's motivation for Rules 2–3).
//! The simulator attributes every cycle to one of those channels, so this
//! experiment can show the decomposition directly: unoptimized hardened
//! kernels drown in instrumentation cycles; PIBE trades a sliver of
//! locality for their removal.

use super::{ExperimentError, Lab};
use crate::config::PibeConfig;
use crate::report::{pct, Table};
use pibe_harden::DefenseSet;
use pibe_kernel::measure::run_latency;
use pibe_sim::ExecStats;
use serde::{Deserialize, Serialize};

/// Cycle shares of one configuration, summed over the LMBench suite.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CycleBreakdown {
    /// Total simulated cycles.
    pub total: u64,
    /// Base compute + predicted control flow.
    pub base: u64,
    /// Defense instrumentation (thunks, fences, promotion guards).
    pub defense: u64,
    /// BTB/RSB misprediction penalties.
    pub prediction: u64,
    /// Instruction-cache miss penalties.
    pub locality: u64,
}

impl CycleBreakdown {
    fn of(stats: &ExecStats) -> Self {
        CycleBreakdown {
            total: stats.cycles,
            base: stats.cycles_base(),
            defense: stats.cycles_defense,
            prediction: stats.cycles_prediction,
            locality: stats.cycles_locality,
        }
    }
}

fn suite_breakdown(lab: &Lab, image: &crate::Image) -> Result<CycleBreakdown, ExperimentError> {
    let cfg = image.sim_config();
    let mut total = ExecStats::default();
    for bench in &lab.suite {
        let (_, stats, _) = run_latency(
            &image.module,
            &lab.kernel,
            &lab.workload,
            *bench,
            cfg,
            lab.seed,
        )
        .map_err(|source| ExperimentError::Benchmark {
            benchmark: bench.syscall.name().to_string(),
            seed: lab.seed,
            source,
        })?;
        total.cycles += stats.cycles;
        total.cycles_defense += stats.cycles_defense;
        total.cycles_prediction += stats.cycles_prediction;
        total.cycles_locality += stats.cycles_locality;
    }
    Ok(CycleBreakdown::of(&total))
}

/// Decomposes the LMBench cycle total of four configurations into the three
/// cost channels plus base compute.
///
/// # Errors
/// [`ExperimentError::Benchmark`] naming the benchmark and seed when a
/// measurement fails.
pub fn cycle_breakdown(lab: &Lab) -> Result<(Table, Vec<CycleBreakdown>), ExperimentError> {
    let configs: [(&str, PibeConfig); 4] = [
        ("LTO baseline", PibeConfig::builder().build()),
        (
            "LTO w/all-defenses",
            PibeConfig::builder().defenses(DefenseSet::ALL).build(),
        ),
        (
            "PIBE baseline (no defenses)",
            PibeConfig::builder().lax().build(),
        ),
        (
            "PIBE w/all-defenses",
            PibeConfig::builder()
                .lax()
                .defenses(DefenseSet::ALL)
                .build(),
        ),
    ];
    let mut table = Table::new(
        "Cycle attribution across the LMBench suite",
        &["configuration", "base", "defense", "prediction", "locality"],
    );
    let mut out = Vec::new();
    lab.prefetch(&configs.map(|(_, c)| c));
    for (name, config) in configs {
        let image = lab.image(&config);
        let b = suite_breakdown(lab, &image)?;
        let share = |part: u64| pct(part as f64 / b.total as f64 * 100.0);
        table.row(vec![
            name.to_string(),
            share(b.base),
            share(b.defense),
            share(b.prediction),
            share(b.locality),
        ]);
        out.push(b);
    }
    Ok((table, out))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn breakdown_explains_the_headline_numbers() {
        let lab = Lab::test();
        let (_, rows) = cycle_breakdown(&lab).expect("breakdown experiment runs");
        let [lto, lto_all, pibe_base, pibe_all] = rows[..] else {
            panic!("four configurations expected");
        };
        // The undefended baselines spend nothing on defenses.
        assert_eq!(lto.defense, 0);
        // The unoptimized hardened kernel's overhead is dominated by
        // instrumentation cycles...
        assert!(lto_all.defense * 3 > lto.total, "defenses dominate");
        // ...which PIBE mostly removes.
        assert!(
            pibe_all.defense < lto_all.defense / 5,
            "PIBE removes most instrumentation cycles ({} vs {})",
            pibe_all.defense,
            lto_all.defense
        );
        // Base compute is conserved across hardening of the SAME image
        // (instrumentation is additive).
        assert!(
            (lto.base as f64 - lto_all.base as f64).abs() / lto.base as f64 <= 0.12,
            "base compute is nearly invariant under hardening: {} vs {}",
            lto.base,
            lto_all.base
        );
        // PIBE's optimization reduces even the base cycles (that is the
        // Table 2 speedup).
        assert!(pibe_base.base < lto.base);
    }

    #[test]
    fn breakdown_charges_defenses_at_the_image_arch() {
        use pibe_harden::Arch;
        use pibe_sim::SimConfig;
        let mut lab = Lab::test();
        lab.arch = Arch::Arm64;
        let image = lab.image(&PibeConfig::builder().defenses(DefenseSet::ALL).build());
        assert_eq!(image.config.arch, Arch::Arm64);
        let defense_at = |arch: Arch| -> u64 {
            let cfg = SimConfig {
                defenses: DefenseSet::ALL,
                arch,
                ..SimConfig::default()
            };
            lab.suite
                .iter()
                .map(|bench| {
                    let run = run_latency(
                        &image.module,
                        &lab.kernel,
                        &lab.workload,
                        *bench,
                        cfg,
                        lab.seed,
                    );
                    run.expect("benchmark runs").1.cycles_defense
                })
                .sum()
        };
        let charged = suite_breakdown(&lab, &image).expect("breakdown runs");
        assert_eq!(charged.defense, defense_at(Arch::Arm64));
        assert_ne!(charged.defense, defense_at(Arch::X86), "x86 costs differ");
    }
}
