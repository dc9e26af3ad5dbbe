//! The parallel experiment engine must be an invisible optimization:
//! images served by a multi-threaded [`ImageFarm`] have to be
//! bit-identical to images built sequentially, and every distinct
//! configuration must be built exactly once no matter how often — or how
//! concurrently — it is requested. Configurations that differ only in arch
//! and defenses share one optimized prefix, which the farm runs once and
//! lowers per configuration; those images too must equal cold builds.

use pibe::{Image, ImageFarm, PibeConfig};
use pibe_harden::{Arch, DefenseSet};
use pibe_ir::Module;
use pibe_kernel::measure::collect_profile;
use pibe_kernel::workloads::{lmbench_suite, WorkloadSpec};
use pibe_kernel::{Kernel, KernelSpec};
use pibe_profile::{Budget, Profile};
use std::collections::HashSet;
use std::sync::Arc;

fn lab() -> (Kernel, Profile) {
    let kernel = Kernel::generate(KernelSpec::test());
    let profile = collect_profile(
        &kernel,
        &WorkloadSpec::lmbench(),
        &lmbench_suite(8),
        2,
        0xBA5E,
    )
    .expect("profiling succeeds");
    (kernel, profile)
}

/// Every paper configuration family, including duplicates to exercise the
/// cache.
fn matrix() -> Vec<PibeConfig> {
    let all = DefenseSet::ALL;
    vec![
        PibeConfig::lto(),
        PibeConfig::lto_with(all),
        PibeConfig::lto_with(DefenseSet::RETPOLINES),
        PibeConfig::icp_only(Budget::P99, DefenseSet::RETPOLINES),
        PibeConfig::icp_only(Budget::P99_999, DefenseSet::RETPOLINES),
        PibeConfig::full(Budget::P99, all),
        PibeConfig::full(Budget::P99_9, all),
        PibeConfig::full(Budget::P99_9999, all),
        PibeConfig::lax(all),
        PibeConfig::pibe_baseline(),
        PibeConfig::lax(all), // duplicate
        PibeConfig::lto(),    // duplicate
    ]
}

/// A parallel farm produces exactly the images a sequential build does:
/// same code bytes, same sizes, same pass statistics, same audit.
#[test]
fn parallel_farm_matches_sequential_builds() {
    let (kernel, profile) = lab();
    let configs = matrix();

    let farm = ImageFarm::new(kernel.module.clone(), profile.clone()).with_threads(4);
    let parallel = farm.images(&configs).expect("matrix builds");

    for (config, built) in configs.iter().zip(&parallel) {
        let sequential = Image::builder(&kernel.module)
            .profile(&profile)
            .config(*config)
            .build()
            .expect("pipeline preserves validity");
        assert_eq!(
            built.module.code_bytes(),
            sequential.module.code_bytes(),
            "code bytes diverge under {config:?}"
        );
        assert_eq!(
            built.size, sequential.size,
            "sizes diverge under {config:?}"
        );
        assert_eq!(
            built.icp_stats, sequential.icp_stats,
            "icp stats diverge under {config:?}"
        );
        assert_eq!(
            built.inline_stats, sequential.inline_stats,
            "inline stats diverge under {config:?}"
        );
        assert_eq!(
            built.audit, sequential.audit,
            "audit diverges under {config:?}"
        );
    }
}

/// Duplicate configurations — across and within request batches — resolve
/// to the same cached `Arc`, and the farm runs the pipeline exactly once
/// per distinct configuration.
#[test]
fn farm_builds_each_distinct_config_exactly_once() {
    let (kernel, profile) = lab();
    let configs = matrix();
    let distinct = 10;

    let farm = ImageFarm::new(kernel.module, profile).with_threads(4);
    let images = farm.images(&configs).expect("matrix builds");
    assert_eq!(images.len(), configs.len());

    // In-batch duplicates share storage.
    assert!(Arc::ptr_eq(&images[8], &images[10]), "lax(ALL) duplicated");
    assert!(Arc::ptr_eq(&images[0], &images[11]), "lto() duplicated");

    let stats = farm.stats();
    assert_eq!(
        stats.builds, distinct,
        "one pipeline run per distinct config"
    );
    assert_eq!(stats.cached, distinct as usize);
    assert_eq!(stats.requests, configs.len() as u64);

    // Later single requests are cache hits on the same Arc.
    let again = farm
        .image(&PibeConfig::lax(DefenseSet::ALL))
        .expect("cached");
    assert!(Arc::ptr_eq(&again, &images[8]));
    assert_eq!(farm.stats().builds, distinct, "no rebuild on re-request");

    // Every stage left a wall-clock trace.
    let metrics = farm.aggregate_metrics();
    assert!(metrics.total_ns > 0);
    for (stage, ns) in metrics.stages() {
        assert!(ns > 0, "stage {stage} was never timed");
    }
}

/// Configurations sharing optimization keys across every arch and two
/// defense sets, with DCE on and off: 4 keys, 32 configurations.
fn shared_prefix_matrix() -> Vec<PibeConfig> {
    let levels = [
        PibeConfig::lto(),
        PibeConfig::icp_only(Budget::P99, DefenseSet::NONE),
        PibeConfig::pibe_baseline(),
        PibeConfig::pibe_baseline().with_dce(true),
    ];
    let mut configs = Vec::new();
    for level in levels {
        for arch in Arch::ALL {
            for defenses in [DefenseSet::ALL, DefenseSet::RETPOLINES] {
                configs.push(PibeConfig {
                    defenses,
                    ..level.with_arch(arch)
                });
            }
        }
    }
    configs
}

/// Whether two modules print the same IR. A module prints as its name and
/// then each function on its own, so equal names and pairwise-equal
/// functions (shared by `Arc`, or structurally equal) print the same.
fn same_printed_ir(a: &Module, b: &Module) -> bool {
    a.name() == b.name()
        && a.len() == b.len()
        && a.functions()
            .iter()
            .zip(b.functions())
            .all(|(f, g)| Arc::ptr_eq(f, g) || f == g)
}

/// Asserts a farm image equals a cold build in everything but timings.
fn assert_same_image(farm_image: &Image, cold: &Image, context: &str) {
    let config = cold.config;
    assert_eq!(farm_image.config, config, "{context}");
    assert!(
        same_printed_ir(&farm_image.module, &cold.module),
        "{context}: printed IR diverges under {config:?}"
    );
    assert_eq!(farm_image.audit, cold.audit, "{context}: {config:?}");
    assert_eq!(
        farm_image.harden_report, cold.harden_report,
        "{context}: {config:?}"
    );
    assert_eq!(farm_image.size, cold.size, "{context}: {config:?}");
    assert_eq!(
        farm_image.icp_stats, cold.icp_stats,
        "{context}: {config:?}"
    );
    assert_eq!(
        farm_image.inline_stats, cold.inline_stats,
        "{context}: {config:?}"
    );
    assert_eq!(
        farm_image.dce_stats, cold.dce_stats,
        "{context}: {config:?}"
    );
    assert_eq!(farm_image.dce_map, cold.dce_map, "{context}: {config:?}");
}

/// Images lowered from a shared optimized prefix equal cold
/// `Image::builder` builds at 1, 2, 4 and 7 workers, whether they arrive
/// in one batch or one at a time, and the farm runs one optimization per
/// distinct key.
#[test]
fn images_lowered_from_shared_prefixes_match_cold_builds() {
    let (kernel, profile) = lab();
    let configs = shared_prefix_matrix();
    let keys = 4;
    let cold: Vec<Image> = configs
        .iter()
        .map(|config| {
            Image::builder(&kernel.module)
                .profile(&profile)
                .config(*config)
                .build()
                .expect("cold build succeeds")
        })
        .collect();
    let distinct: HashSet<PibeConfig> = configs.iter().copied().collect();
    assert_eq!(distinct.len(), configs.len());

    for threads in [1, 2, 4, 7] {
        let batch = ImageFarm::new(kernel.module.clone(), profile.clone()).with_threads(threads);
        let images = batch.images(&configs).expect("matrix builds");
        for (image, cold) in images.iter().zip(&cold) {
            assert_same_image(image, cold, &format!("batch, {threads} workers"));
        }
        let stats = batch.stats();
        assert_eq!(stats.optimizations, keys, "{threads} workers");
        assert_eq!(stats.builds, configs.len() as u64, "{threads} workers");

        // One request at a time, every key's later images lower from its
        // memoized prefix.
        let single = ImageFarm::new(kernel.module.clone(), profile.clone()).with_threads(threads);
        for (config, cold) in configs.iter().zip(&cold) {
            let image = single.image(config).expect("builds");
            assert_same_image(&image, cold, &format!("single, {threads} workers"));
        }
        assert_eq!(single.stats().optimizations, keys, "{threads} workers");
    }

    // Harden rewrites only functions with jump tables, so two images of one
    // key share nearly every function body.
    let farm = ImageFarm::new(kernel.module.clone(), profile.clone());
    let x86 = farm.image(&configs[16]).expect("builds");
    let arm = farm.image(&configs[18]).expect("builds");
    let shared = x86
        .module
        .functions()
        .iter()
        .zip(arm.module.functions())
        .filter(|(a, b)| Arc::ptr_eq(a, b))
        .count();
    assert!(
        shared * 10 > x86.module.len() * 9,
        "{shared} of {} function bodies shared",
        x86.module.len()
    );
}
