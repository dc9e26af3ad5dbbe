//! The continuous-PGO chaos soak: 200 epochs of sharded profile deltas —
//! a fair fraction of them adversarially corrupted — against a generated
//! module, with the incremental-vs-full bit-identity oracle checked at
//! **every** epoch.
//!
//! This is the test that makes the decision-surface fast path honest: if
//! the surface ever under-approximates drift (skipping a rebuild that
//! would have changed the image), some epoch's served image diverges from
//! the from-scratch rebuild and [`pibe_difftest::bit_identical`] names the
//! function.

use pibe::{DefenseSet, Image, PibeConfig};
use pibe_difftest::{gen_case, profile_case, GenConfig};
use pibe_serve::{DeltaStream, EpochOutcome, PibeService, ServeConfig, ServiceState, StreamConfig};
use std::time::Duration;

const EPOCHS: u64 = 200;

#[test]
fn soak_200_epochs_of_corrupted_shards_stays_bit_identical_and_never_freezes() {
    let case = gen_case(
        0x50AC_2026,
        &GenConfig {
            min_funcs: 14,
            max_funcs: 18,
            ..GenConfig::default()
        },
    );
    let initial = profile_case(&case);
    let config = PibeConfig::lax(DefenseSet::ALL).with_dce(true);
    let serve = ServeConfig {
        watchdog: Duration::from_secs(60),
        max_retries: 1,
        freeze_after: 3,
        backoff: Duration::ZERO,
    };

    let mut stream = DeltaStream::new(
        &case.module,
        &initial,
        StreamConfig {
            shards: 4,
            corrupt_permille: 350,
            drift_every: 5,
            drift_boost: 40_000,
        },
        0xC0FF_EE00_2026,
    );

    let mut svc = PibeService::bootstrap(case.module.clone(), initial.clone(), config, serve)
        .expect("initial build");

    for epoch in 0..EPOCHS {
        let deltas = stream.epoch_deltas(epoch);
        let record = svc.ingest_epoch(deltas);
        assert_ne!(
            record.outcome,
            EpochOutcome::Frozen,
            "epoch {epoch} was refused"
        );
        assert_ne!(
            svc.state(),
            ServiceState::Frozen,
            "recoverable faults must never freeze the service (epoch {epoch})"
        );

        // The oracle: a from-scratch pipeline run over the same cumulative
        // profile must produce exactly the image being served.
        let full = Image::builder(&case.module)
            .profile(svc.cumulative_profile())
            .config(config)
            .threads(1)
            .build()
            .expect("from-scratch rebuild");
        if let Err(mismatch) = pibe_difftest::bit_identical(&svc.image().module, &full.module) {
            panic!("epoch {epoch}: served image is not bit-identical: {mismatch}");
        }
    }

    let stats = stream.stats();
    assert_eq!(stats.epochs, EPOCHS);
    assert!(
        stats.corrupted * 5 >= stats.deltas,
        "chaos kept below 20%: {} corrupted of {} deltas",
        stats.corrupted,
        stats.deltas
    );

    let replay = svc.journal().replay();
    assert_eq!(replay.state, svc.state(), "journal replay diverged");
    assert!(
        replay.fast_paths > 0,
        "no epoch took the no-drift fast path"
    );
    assert!(replay.rebuilds > 0, "no drift epoch forced a rebuild");
    assert_eq!(replay.rollbacks, 0, "clean rebuilds never roll back");
    // Every landed corruption was caught by validation and quarantined
    // (thinning can also produce empty shards, which quarantine as
    // advisory-invalid — hence >=, not ==).
    let invalid = svc.quarantine().iter().filter(|q| q.is_invalid()).count() as u64;
    assert!(
        invalid >= stats.corrupted,
        "{} corrupted deltas but only {invalid} invalid quarantines",
        stats.corrupted
    );
    assert_eq!(
        replay.quarantined, invalid,
        "journal quarantine counters disagree with the quarantine store"
    );
}
