//! Ablation sweeps over the design choices DESIGN.md calls out:
//!
//! * **Rule 2 threshold** (12 000 in the paper, selected by sweeping from
//!   3 000 upward in +3 000 steps, §5.2) — geomean overhead per threshold;
//! * **Rule 3 threshold** (3 000, LLVM's default);
//! * **ICP per-site target cap** — unlimited (PIBE) vs the conventional
//!   1–2 (§5.3);
//! * **inlining order** — PIBE's greedy hot-first vs LLVM's bottom-up.
//!
//! Each sweep prints its measured series (the data behind the choice) and
//! registers one Criterion timing per point so `cargo bench` records it.

use criterion::{criterion_group, criterion_main, Criterion};
use pibe::experiments::Lab;
use pibe::{eval, PibeConfig};
use pibe_baselines::{run_llvm_inliner, LlvmInlinerConfig};
use pibe_harden::{Arch, DefenseSet};
use pibe_passes::{promote_indirect_calls, run_inliner, IcpConfig, InlinerConfig, SiteWeights};
use pibe_profile::Budget;
use pibe_sim::SimConfig;

/// Geomean LMBench overhead (vs the lab's LTO baseline) of a custom-built
/// all-defenses image.
fn geomean_of(lab: &Lab, build: &dyn Fn(&Lab) -> pibe_ir::Module) -> f64 {
    let module = build(lab);
    let rows = eval::lmbench_latencies(
        &module,
        &lab.kernel,
        &lab.workload,
        &lab.suite,
        SimConfig {
            defenses: DefenseSet::ALL,
            ..SimConfig::default()
        },
        lab.seed,
    );
    lab.geomean(&rows)
}

fn build_with_inliner(lab: &Lab, inliner: InlinerConfig) -> pibe_ir::Module {
    let mut m = lab.kernel.module.clone();
    let mut w = SiteWeights::from_profile(&lab.profile);
    promote_indirect_calls(
        &mut m,
        &mut w,
        &lab.profile,
        &IcpConfig {
            budget: Budget::P99_9999,
            max_targets_per_site: None,
        },
    );
    run_inliner(&mut m, &w, &lab.profile, &inliner);
    pibe_harden::apply(&mut m, Arch::X86.backend(), DefenseSet::ALL, 1);
    m
}

fn ablation_rule_thresholds(c: &mut Criterion, lab: &Lab) {
    eprintln!("\n# Ablation: Rule 2 caller-complexity threshold (paper: 12000)");
    for rule2 in [3_000u32, 6_000, 12_000, 24_000] {
        let g = geomean_of(lab, &|lab| {
            build_with_inliner(
                lab,
                InlinerConfig {
                    budget: Budget::P99_9999,
                    rule2_caller_limit: rule2,
                    ..InlinerConfig::default()
                },
            )
        });
        eprintln!("rule2={rule2:>6}  geomean overhead = {g:.2}%");
    }
    eprintln!("\n# Ablation: Rule 3 callee-complexity threshold (paper: 3000)");
    for rule3 in [750u32, 1_500, 3_000, 6_000] {
        let g = geomean_of(lab, &|lab| {
            build_with_inliner(
                lab,
                InlinerConfig {
                    budget: Budget::P99_9999,
                    rule3_callee_limit: rule3,
                    ..InlinerConfig::default()
                },
            )
        });
        eprintln!("rule3={rule3:>6}  geomean overhead = {g:.2}%");
    }
    c.bench_function("ablation_inline_rules_point", |b| {
        b.iter(|| {
            geomean_of(lab, &|lab| {
                build_with_inliner(lab, InlinerConfig::default())
            })
        })
    });
}

fn ablation_icp_cap(c: &mut Criterion, lab: &Lab) {
    eprintln!("\n# Ablation: ICP promoted-targets-per-site cap (paper: unlimited)");
    for cap in [Some(1usize), Some(2), None] {
        let g = geomean_of(lab, &|lab| {
            let mut m = lab.kernel.module.clone();
            let mut w = SiteWeights::from_profile(&lab.profile);
            promote_indirect_calls(
                &mut m,
                &mut w,
                &lab.profile,
                &IcpConfig {
                    budget: Budget::P99_9999,
                    max_targets_per_site: cap,
                },
            );
            run_inliner(
                &mut m,
                &w,
                &lab.profile,
                &InlinerConfig {
                    budget: Budget::P99_9999,
                    ..InlinerConfig::default()
                },
            );
            pibe_harden::apply(&mut m, Arch::X86.backend(), DefenseSet::ALL, 1);
            m
        });
        let label = cap.map_or("unlimited".to_string(), |c| c.to_string());
        eprintln!("cap={label:>9}  geomean overhead = {g:.2}%");
    }
    c.bench_function("ablation_icp_cap_point", |b| {
        b.iter(|| {
            lab.run_config(&PibeConfig::full(Budget::P99_9, DefenseSet::ALL))
                .0
        })
    });
}

fn ablation_ordering(c: &mut Criterion, lab: &Lab) {
    eprintln!("\n# Ablation: inlining order — PIBE greedy hot-first vs LLVM bottom-up");
    let pibe = geomean_of(lab, &|lab| {
        build_with_inliner(
            lab,
            InlinerConfig {
                budget: Budget::P99_9999,
                ..InlinerConfig::default()
            },
        )
    });
    let llvm = geomean_of(lab, &|lab| {
        let mut m = lab.kernel.module.clone();
        let mut w = SiteWeights::from_profile(&lab.profile);
        promote_indirect_calls(
            &mut m,
            &mut w,
            &lab.profile,
            &IcpConfig {
                budget: Budget::P99_9999,
                max_targets_per_site: None,
            },
        );
        run_llvm_inliner(&mut m, &w, &LlvmInlinerConfig::default());
        pibe_harden::apply(&mut m, Arch::X86.backend(), DefenseSet::ALL, 1);
        m
    });
    eprintln!("pibe greedy hot-first: {pibe:.2}%   llvm bottom-up: {llvm:.2}%");
    c.bench_function("ablation_ordering_point", |b| {
        b.iter(|| {
            geomean_of(lab, &|lab| {
                build_with_inliner(lab, InlinerConfig::default())
            })
        })
    });
}

fn ablations(c: &mut Criterion) {
    let lab = pibe_bench::quick_lab();
    ablation_rule_thresholds(c, &lab);
    ablation_icp_cap(c, &lab);
    ablation_ordering(c, &lab);
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = ablations
}
criterion_main!(benches);
