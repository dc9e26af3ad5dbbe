//! Security invariants across the whole stack (§8.6): what each defense
//! must and must not protect, dynamically and statically.

use pibe::{eval, Image, PibeConfig};
use pibe_harden::DefenseSet;
use pibe_kernel::measure::collect_profile;
use pibe_kernel::workloads::{lmbench_suite, WorkloadSpec};
use pibe_kernel::{Kernel, KernelSpec};
use pibe_profile::Profile;
use pibe_sim::SimConfig;

fn lab() -> (Kernel, Profile) {
    let kernel = Kernel::generate(KernelSpec::test());
    let profile = collect_profile(
        &kernel,
        &WorkloadSpec::lmbench(),
        &lmbench_suite(6),
        2,
        0xBA5E,
    )
    .expect("profiling succeeds");
    (kernel, profile)
}

fn build(kernel: &Kernel, profile: &Profile, config: PibeConfig) -> Image {
    Image::builder(&kernel.module)
        .profile(profile)
        .config(config)
        .build()
        .expect("pipeline preserves validity")
}

fn surface(kernel: &Kernel, image: &pibe::Image) -> pibe_sim::AttackReport {
    eval::lmbench_evaluation(
        &image.module,
        kernel,
        &WorkloadSpec::lmbench(),
        &lmbench_suite(6),
        SimConfig {
            defenses: image.config.defenses,
            track_attacks: true,
            ..SimConfig::default()
        },
        0xBA5E,
    )
    .attacks
}

/// Fully hardened kernels expose no hijackable branch executions except
/// the paravirt inline-assembly sites — with or without PIBE.
#[test]
fn full_hardening_leaves_only_paravirt_exposed() {
    let (kernel, profile) = lab();
    for config in [
        PibeConfig::lto_with(DefenseSet::ALL),
        PibeConfig::lax(DefenseSet::ALL),
    ] {
        let image = build(&kernel, &profile, config);
        let report = surface(&kernel, &image);
        assert_eq!(report.rsb_hijackable_rets, 0, "returns all protected");
        assert_eq!(report.btb_hijackable_ijumps, 0, "jump tables disabled");
        // The only hijackable icalls and injectable loads are the paravirt
        // hypercalls, which execute on hot mm/sched paths.
        assert!(report.btb_hijackable_icalls > 0, "paravirt sites execute");
        assert_eq!(
            report.lvi_injectable, report.btb_hijackable_icalls,
            "exactly the asm sites are LVI-injectable"
        );
    }
}

/// An undefended kernel is hijackable everywhere.
#[test]
fn undefended_kernel_is_wide_open() {
    let (kernel, profile) = lab();
    let image = build(&kernel, &profile, PibeConfig::lto());
    let report = surface(&kernel, &image);
    assert!(report.btb_hijackable_icalls > 100);
    assert!(report.rsb_hijackable_rets > 1000);
    assert!(report.lvi_injectable > report.rsb_hijackable_rets);
}

/// Each single defense closes exactly its own attack class.
#[test]
fn single_defenses_close_their_own_class() {
    let (kernel, profile) = lab();
    let base = surface(&kernel, &build(&kernel, &profile, PibeConfig::lto()));

    let all = surface(
        &kernel,
        &build(&kernel, &profile, PibeConfig::lto_with(DefenseSet::ALL)),
    );
    let retp = surface(
        &kernel,
        &build(
            &kernel,
            &profile,
            PibeConfig::lto_with(DefenseSet::RETPOLINES),
        ),
    );
    assert!(retp.btb_hijackable_icalls < base.btb_hijackable_icalls);
    assert_eq!(
        retp.btb_hijackable_icalls, all.btb_hijackable_icalls,
        "retpolines leave exactly the paravirt residual that full hardening leaves"
    );
    assert_eq!(
        retp.rsb_hijackable_rets, base.rsb_hijackable_rets,
        "retpolines do nothing for returns"
    );

    let rr = surface(
        &kernel,
        &build(
            &kernel,
            &profile,
            PibeConfig::lto_with(DefenseSet::RET_RETPOLINES),
        ),
    );
    assert_eq!(
        rr.rsb_hijackable_rets, 0,
        "return retpolines cover Ret2spec"
    );
    assert_eq!(
        rr.btb_hijackable_icalls, base.btb_hijackable_icalls,
        "return retpolines do nothing for forward edges"
    );

    let lvi = surface(
        &kernel,
        &build(&kernel, &profile, PibeConfig::lto_with(DefenseSet::LVI_CFI)),
    );
    // LVI fences close injectable loads except inside inline asm — the
    // same paravirt residual the fully hardened image shows.
    assert!(lvi.lvi_injectable < base.lvi_injectable);
    assert_eq!(lvi.lvi_injectable, all.lvi_injectable);
}

/// PIBE's elision *reduces* the number of protected-branch executions (and
/// therefore the residual overhead) without opening new attack classes:
/// the only regression dimension is the duplicated paravirt sites.
#[test]
fn optimization_does_not_weaken_protection() {
    let (kernel, profile) = lab();
    let unopt = build(&kernel, &profile, PibeConfig::lto_with(DefenseSet::ALL));
    let opt = build(&kernel, &profile, PibeConfig::lax(DefenseSet::ALL));
    let unopt_surface = surface(&kernel, &unopt);
    let opt_surface = surface(&kernel, &opt);
    assert_eq!(opt_surface.rsb_hijackable_rets, 0);
    assert_eq!(opt_surface.btb_hijackable_ijumps, 0);
    // Dynamic paravirt executions are workload-determined, not worsened by
    // duplication (the same pv helpers run, wherever their code lives).
    assert_eq!(
        opt_surface.btb_hijackable_icalls,
        unopt_surface.btb_hijackable_icalls
    );
    // Statically, Table 11: protected icalls grow, vulnerable asm icalls
    // may grow, vulnerable ijumps stay at the 5 asm tables.
    assert!(opt.audit.protected_icalls > unopt.audit.protected_icalls);
    assert_eq!(opt.audit.vulnerable_ijumps, 5);
    assert_eq!(unopt.audit.vulnerable_ijumps, 5);
}

/// Boot-only code is exempt from the audit's vulnerable counts but still
/// counted separately.
#[test]
fn boot_returns_are_exempt_not_forgotten() {
    let (kernel, profile) = lab();
    let image = build(
        &kernel,
        &profile,
        PibeConfig::lto_with(DefenseSet::RETPOLINES),
    );
    assert!(image.audit.boot_returns >= 4);
    let total_rets =
        image.audit.protected_returns + image.audit.vulnerable_returns + image.audit.boot_returns;
    assert_eq!(total_rets, image.module.census().returns);
}
