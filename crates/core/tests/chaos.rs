//! Chaos acceptance suite: hundreds of deterministic, seeded corruptions
//! thrown at the hardening pipeline.
//!
//! The contract under test (see DESIGN.md, "Failure model"):
//!
//! * A corrupt profile is repaired: the pipeline never panics and always
//!   yields a verifier-clean image whose security audit shows every
//!   remaining non-asm indirect branch defended — corruption may degrade
//!   *optimization*, never *protection*.
//! * A corrupt base module, or a stage that produces invalid IR, aborts the
//!   build with a typed [`PipelineError`]; no image leaves the pipeline
//!   unverified.
//! * A farm batch containing one panicking configuration still completes
//!   every other configuration in the batch.

use pibe::{corrupt_module, Image, StageSnapshot};
use pibe::{ImageFarm, ModuleCorruption, PibeConfig, PipelineError, Stage, ValidationPolicy};
use pibe_harden::DefenseSet;
use pibe_ir::{Inst, Module};
use pibe_kernel::{
    measure::collect_profile,
    workloads::{lmbench_suite, WorkloadSpec},
    Kernel, KernelSpec,
};
use pibe_profile::{corrupt_profile, Profile, ProfileChaos};
use std::cell::RefCell;
use std::sync::OnceLock;

/// Base offset applied to every seed window, so CI can sweep disjoint
/// seed ranges (`PIBE_CHAOS_SEED_BASE=1000 cargo test -p pibe --test
/// chaos`) without touching the code. Defaults to 0; every run is still
/// fully deterministic for a given base.
fn seed_base() -> u64 {
    std::env::var("PIBE_CHAOS_SEED_BASE")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(0)
}

/// One profiled test kernel shared by every test in the suite.
fn fixture() -> &'static (Module, Profile) {
    static FIX: OnceLock<(Module, Profile)> = OnceLock::new();
    FIX.get_or_init(|| {
        let k = Kernel::generate(KernelSpec::test());
        let p = collect_profile(&k, &WorkloadSpec::lmbench(), &lmbench_suite(6), 2, 7)
            .expect("profiling the pristine kernel succeeds");
        (k.module, p)
    })
}

/// Indirect call sites the defenses can never cover (inline assembly).
fn asm_icalls(module: &Module) -> u64 {
    module
        .functions()
        .iter()
        .flat_map(|f| f.insts())
        .filter(|i| matches!(i, Inst::CallIndirect { asm: true, .. }))
        .count() as u64
}

/// Asserts the image is verifier-clean with every non-asm indirect branch
/// defended: asm sites are the *only* vulnerable icalls, no return is
/// vulnerable, and no extra jump table survived relative to the clean
/// reference build.
fn assert_fully_defended(img: &Image, reference: &Image, context: &str) {
    img.module
        .verify()
        .unwrap_or_else(|e| panic!("{context}: image must verify: {e}"));
    assert_eq!(
        img.audit.vulnerable_icalls,
        asm_icalls(&img.module),
        "{context}: every non-asm indirect call must be defended"
    );
    assert_eq!(
        img.audit.vulnerable_returns, 0,
        "{context}: every return must be defended"
    );
    assert_eq!(
        img.audit.vulnerable_ijumps, reference.audit.vulnerable_ijumps,
        "{context}: only the asm jump tables may survive"
    );
}

#[test]
fn repair_survives_hundreds_of_profile_corruptions() {
    let (module, profile) = fixture();
    let cfg = PibeConfig::lax(DefenseSet::ALL);
    let reference = Image::builder(module)
        .profile(profile)
        .config(cfg)
        .build()
        .expect("clean profile builds");
    assert!(reference.repair.is_none());

    let base = seed_base();
    let mut landed_seeds = 0;
    for seed in base..base + 260 {
        let (bad, kind, landed) = corrupt_profile(profile, module, seed);
        if !landed {
            continue;
        }
        landed_seeds += 1;
        let img = Image::builder(module)
            .profile(&bad)
            .config(cfg)
            .build()
            .unwrap_or_else(|e| panic!("seed {seed} ({kind}): repaired build must succeed: {e}"));
        assert_fully_defended(&img, &reference, &format!("seed {seed} ({kind})"));
        // Erase leaves a (validly) empty profile; every other corruption
        // is something repair acted on and must report.
        if kind != ProfileChaos::Erase {
            let repair = img
                .repair
                .unwrap_or_else(|| panic!("seed {seed} ({kind}): repair report expected"));
            assert!(repair.changed(), "seed {seed} ({kind}): repair acted");
        }
    }
    assert!(
        landed_seeds >= 200,
        "the suite must land at least 200 profile corruptions: {landed_seeds}"
    );
}

#[test]
fn corrupt_base_modules_are_rejected_before_any_pass_runs() {
    let (module, profile) = fixture();
    let base = seed_base();
    let mut landed_seeds = 0;
    for seed in base..base + 80 {
        let (bad, kind, landed) = corrupt_module(module, seed);
        if !landed {
            continue;
        }
        landed_seeds += 1;
        let cfg = PibeConfig::lax(DefenseSet::ALL);
        let err = match Image::builder(&bad).profile(profile).config(cfg).build() {
            Ok(_) => panic!("seed {seed} ({kind}): corrupt base must be rejected"),
            Err(e) => e,
        };
        assert!(
            matches!(err, PipelineError::InvalidModule(_)),
            "seed {seed} ({kind}): wanted InvalidModule, got {err}"
        );
        assert!(!err.to_string().is_empty());
    }
    assert!(
        landed_seeds >= 60,
        "the suite must land at least 60 module corruptions: {landed_seeds}"
    );
}

/// The pipeline's one stage-failure policy, as a table over every stage
/// and both validation policies, with a structural fault injected right
/// after the stage:
///
/// * `Repair` verifies after every stage, so the build aborts with
///   `StageFailed` naming the faulted stage, and the observer saw exactly
///   the stages before it;
/// * `TrustProfile` skips the post-stage verify, so the same fault reaches
///   the final verify as `InvalidModule`, after every stage committed.
///
/// `Repair` also sweeps a seed window of every corruption kind. A kind that
/// finds nothing to corrupt at a stage leaves the build clean.
#[test]
fn injected_stage_faults_abort_the_build_naming_the_stage() {
    let (module, profile) = fixture();
    let stages = [Stage::Icp, Stage::Inline, Stage::Dce, Stage::Harden];
    let config = PibeConfig::builder()
        .lax()
        .defenses(DefenseSet::ALL)
        .dce(true);
    // Seed 7 corrupts a function every later stage keeps, so an unverified
    // fault reaches the final verify.
    let pinned = (ModuleCorruption::DanglingBlock, 7);
    let base = seed_base();
    let mut sweep = vec![pinned];
    sweep.extend((base..base + 24).map(|seed| (ModuleCorruption::from_seed(seed), seed)));
    let table = [
        (ValidationPolicy::Repair, &sweep[..]),
        (ValidationPolicy::TrustProfile, &[pinned][..]),
    ];

    let mut landed = 0;
    for (before, &stage) in stages.iter().enumerate() {
        for (validation, faults) in table {
            for &(fault, seed) in faults {
                let case = format!("{stage}/{validation:?}/{fault}/seed {seed}");
                let seen = RefCell::new(Vec::new());
                let observe = |s: StageSnapshot<'_>| seen.borrow_mut().push(s.stage);
                let result = Image::builder(module)
                    .profile(profile)
                    .config(config.validation(validation).build())
                    .inject_fault(stage, fault, seed)
                    .observe_stages(&observe)
                    .build();
                let committed = match (validation, result) {
                    // DanglingBlock always lands: every function has blocks.
                    (ValidationPolicy::Repair, Ok(img))
                        if fault != ModuleCorruption::DanglingBlock =>
                    {
                        img.module
                            .verify()
                            .unwrap_or_else(|e| panic!("{case}: {e}"));
                        continue;
                    }
                    (
                        ValidationPolicy::Repair,
                        Err(PipelineError::StageFailed { stage: s, .. }),
                    ) if s == stage => &stages[..before],
                    (ValidationPolicy::TrustProfile, Err(PipelineError::InvalidModule(_))) => {
                        &stages[..]
                    }
                    (_, other) => panic!("{case}: got {:?}", other.map(|_| "an image")),
                };
                assert_eq!(seen.into_inner(), committed, "{case}: observed stages");
                landed += 1;
            }
        }
    }
    // Per stage: both pinned rows, and at least half of the 24 swept seeds.
    assert!(
        landed >= stages.len() * (2 + 12),
        "most injected faults must land: {landed}"
    );
}

#[test]
fn farm_batch_with_one_panicking_config_completes_every_other() {
    let (module, profile) = fixture();
    // Plant the panic route: a dangling value-profile target as the
    // hottest promotion candidate, consumed with validation off.
    let base = seed_base();
    let poisoned_profile = (base..base + 200)
        .find_map(|seed| {
            let (bad, kind, landed) = corrupt_profile(profile, module, seed);
            (landed && kind == ProfileChaos::DanglingTarget).then_some(bad)
        })
        .expect("some seed plants a dangling target");
    let farm = ImageFarm::new(module.clone(), poisoned_profile).with_threads(3);

    let poisoned = PibeConfig::builder()
        .lax()
        .defenses(DefenseSet::ALL)
        .validation(ValidationPolicy::TrustProfile)
        .build();
    let healthy = [
        PibeConfig::lto(),
        PibeConfig::lto_with(DefenseSet::ALL),
        PibeConfig::lax(DefenseSet::ALL),
        PibeConfig::lax(DefenseSet::RETPOLINES),
    ];
    let mut batch = healthy.to_vec();
    batch.insert(2, poisoned);

    let err = farm.images(&batch).expect_err("poisoned config fails");
    assert!(
        matches!(err, PipelineError::StagePanicked { .. }),
        "wanted a contained panic, got {err}"
    );

    // Every healthy configuration was built despite the panic and is now a
    // cache hit; the panic is cached as a failure, not retried.
    let builds = farm.stats().builds;
    for cfg in &healthy {
        let img = farm.image(cfg).expect("healthy config completed");
        img.module.verify().expect("healthy image verifies");
    }
    assert_eq!(farm.stats().builds, builds, "no rebuilds");
    assert_eq!(farm.stats().failed, 1, "exactly the poisoned config failed");
    assert!(farm.image(&poisoned).is_err(), "failure stays cached");
    assert_eq!(farm.stats().builds, builds);
}
