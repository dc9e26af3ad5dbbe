//! Supervision-machinery tests: watchdog timeouts, bounded retries, the
//! Healthy → Degraded → Frozen state machine, typed quarantine, and
//! last-known-good rollback — all driven through injected [`Rebuilder`]s.

use pibe::{DefenseSet, Image, PibeConfig, PipelineError};
use pibe_ir::{FunctionBuilder, Module, OpKind, SiteId, VerifyError};
use pibe_profile::{Profile, ProfileIssue};
use pibe_serve::{
    EpochOutcome, PibeService, PipelineRebuilder, ProfileDelta, QuarantineReason, Rebuilder,
    ServeConfig, ServiceState,
};
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// A module with two leaves, a middle function, and a root with three
/// direct calls plus one indirect call — enough surface for ICP and the
/// inliner to make real decisions.
fn fixture() -> (Module, Profile) {
    let mut m = Module::new("svc");
    let mut leaves = Vec::new();
    for i in 0..2 {
        let mut b = FunctionBuilder::new(format!("leaf{i}"), 0);
        b.op(OpKind::Alu);
        b.ret();
        leaves.push(m.add_function(b.build()));
    }
    let d0 = m.fresh_site();
    let d1 = m.fresh_site();
    let mut b = FunctionBuilder::new("mid", 0);
    b.call(d0, leaves[0], 0);
    b.call(d1, leaves[1], 0);
    b.ret();
    let mid = m.add_function(b.build());
    let d2 = m.fresh_site();
    let ind = m.fresh_site();
    let mut b = FunctionBuilder::new("root", 0);
    b.call(d2, mid, 0);
    b.call_indirect(ind, 1);
    b.ret();
    let root = m.add_function(b.build());

    let mut p = Profile::new();
    for _ in 0..40 {
        p.record_direct(d0);
    }
    for _ in 0..30 {
        p.record_direct(d1);
    }
    for _ in 0..50 {
        p.record_direct(d2);
    }
    for _ in 0..20 {
        p.record_indirect(ind, leaves[0]);
    }
    for _ in 0..10 {
        p.record_indirect(ind, leaves[1]);
    }
    for f in [leaves[0], leaves[1], mid, root] {
        for _ in 0..25 {
            p.record_entry(f);
            p.record_return(f);
        }
    }
    (m, p)
}

fn config() -> PibeConfig {
    PibeConfig::lax(DefenseSet::ALL)
}

fn serve_config() -> ServeConfig {
    ServeConfig {
        watchdog: Duration::from_secs(20),
        max_retries: 0,
        freeze_after: 2,
        backoff: Duration::ZERO,
    }
}

/// A delta touching only return counts: returns drive no profile-guided
/// decision, so the decision surface cannot move — a guaranteed fast path.
fn no_drift_delta(seq: u64) -> ProfileDelta {
    let mut p = Profile::new();
    p.record_return(pibe_ir::FuncId::from_raw(0));
    ProfileDelta {
        shard: 0,
        seq,
        profile: p,
    }
}

/// A delta boosting an inline-selected direct site's weight by five
/// figures: the selected candidate's recorded weight changes, so the
/// surface must drift.
fn drift_delta(seq: u64) -> ProfileDelta {
    let mut p = Profile::new();
    for _ in 0..100_000 {
        p.record_direct(SiteId::from_raw(0));
    }
    ProfileDelta {
        shard: 1,
        seq,
        profile: p,
    }
}

struct FlakyRebuilder {
    remaining_failures: AtomicU32,
}

impl Rebuilder for FlakyRebuilder {
    fn rebuild(
        &self,
        base: &Module,
        profile: &Profile,
        config: &PibeConfig,
    ) -> Result<Image, PipelineError> {
        if self
            .remaining_failures
            .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |n| n.checked_sub(1))
            .is_ok()
        {
            return Err(PipelineError::StagePanicked {
                message: "transient worker fault".into(),
            });
        }
        PipelineRebuilder.rebuild(base, profile, config)
    }
}

struct HangingRebuilder {
    delay: Duration,
}

impl Rebuilder for HangingRebuilder {
    fn rebuild(
        &self,
        base: &Module,
        profile: &Profile,
        config: &PibeConfig,
    ) -> Result<Image, PipelineError> {
        std::thread::sleep(self.delay);
        PipelineRebuilder.rebuild(base, profile, config)
    }
}

struct FatalRebuilder;

impl Rebuilder for FatalRebuilder {
    fn rebuild(
        &self,
        _base: &Module,
        _profile: &Profile,
        _config: &PibeConfig,
    ) -> Result<Image, PipelineError> {
        Err(PipelineError::InvalidModule(VerifyError::EmptyFunction {
            func: pibe_ir::FuncId::from_raw(0),
        }))
    }
}

#[test]
fn fast_path_serves_the_same_image_without_rebuilding() {
    let (m, p) = fixture();
    let mut svc = PibeService::bootstrap(m, p, config(), serve_config()).expect("bootstrap");
    let before = Arc::clone(svc.image());

    let record = svc.ingest_epoch(vec![no_drift_delta(1)]).clone();
    assert_eq!(record.outcome, EpochOutcome::FastPath);
    assert_eq!(record.accepted, 1);
    assert_eq!(record.drifted_functions, 0);
    assert!(
        Arc::ptr_eq(svc.image(), &before),
        "fast path must not touch the served image"
    );
    assert_eq!(svc.state(), ServiceState::Healthy);
    // The cumulative profile did advance.
    assert_eq!(
        svc.cumulative_profile()
            .return_count(pibe_ir::FuncId::from_raw(0)),
        26
    );
}

#[test]
fn drift_rebuilds_and_promotes_a_new_last_known_good() {
    let (m, p) = fixture();
    let mut svc = PibeService::bootstrap(m, p, config(), serve_config()).expect("bootstrap");
    let before = Arc::clone(svc.image());

    let record = svc.ingest_epoch(vec![drift_delta(1)]).clone();
    match record.outcome {
        EpochOutcome::Rebuilt { drifted, retries } => {
            assert!(drifted > 0, "a boosted selected site must drift");
            assert_eq!(retries, 0);
        }
        ref other => panic!("wanted Rebuilt, got {other:?}"),
    }
    assert!(
        !Arc::ptr_eq(svc.image(), &before),
        "rebuild must promote a fresh image"
    );
    assert_eq!(svc.state(), ServiceState::Healthy);
}

#[test]
fn quarantine_alone_never_degrades_the_service() {
    let (m, p) = fixture();
    let ghost = SiteId::from_raw(m.peek_next_site() + 3);
    let mut svc = PibeService::bootstrap(m, p, config(), serve_config()).expect("bootstrap");

    let mut bad = Profile::new();
    bad.record_direct(ghost);
    let record = svc
        .ingest_epoch(vec![
            ProfileDelta {
                shard: 7,
                seq: 1,
                profile: bad,
            },
            no_drift_delta(2),
        ])
        .clone();

    assert_eq!(record.quarantined, 1);
    assert_eq!(record.accepted, 1);
    assert_eq!(record.outcome, EpochOutcome::FastPath);
    assert_eq!(
        svc.state(),
        ServiceState::Healthy,
        "quarantine is not failure"
    );

    let q = &svc.quarantine()[0];
    assert_eq!(q.delta.shard, 7);
    assert_eq!(q.epoch, 0);
    match &q.reason {
        QuarantineReason::Invalid(issues) => {
            assert!(issues
                .iter()
                .any(|i| matches!(i, ProfileIssue::DanglingDirectSite { .. })));
        }
        other => panic!("wanted Invalid, got {other:?}"),
    }
    // The ghost count never reached the cumulative profile.
    assert_eq!(svc.cumulative_profile().direct_count(ghost), 0);
}

#[test]
fn watchdog_timeout_rolls_back_and_degrades() {
    let (m, p) = fixture();
    let cumulative_before = p.clone();
    let serve = ServeConfig {
        watchdog: Duration::from_millis(30),
        ..serve_config()
    };
    let mut svc = PibeService::bootstrap_with(
        m,
        p,
        config(),
        serve,
        Arc::new(HangingRebuilder {
            delay: Duration::from_millis(400),
        }),
    )
    .expect("bootstrap");
    let before = Arc::clone(svc.image());

    let record = svc.ingest_epoch(vec![drift_delta(1)]).clone();
    match &record.outcome {
        EpochOutcome::RolledBack {
            error, recoverable, ..
        } => {
            assert!(*recoverable, "a timeout is recoverable");
            assert!(error.contains("watchdog"), "{error}");
        }
        other => panic!("wanted RolledBack, got {other:?}"),
    }
    assert_eq!(svc.state(), ServiceState::Degraded);
    assert!(
        Arc::ptr_eq(svc.image(), &before),
        "last-known-good image still served"
    );
    assert_eq!(
        svc.cumulative_profile(),
        &cumulative_before,
        "the failed epoch's merge was rolled back entirely"
    );
}

#[test]
fn transient_failures_are_retried_with_bounded_attempts() {
    let (m, p) = fixture();
    let serve = ServeConfig {
        max_retries: 2,
        ..serve_config()
    };
    let mut svc = PibeService::bootstrap_with(
        m,
        p,
        config(),
        serve,
        Arc::new(FlakyRebuilder {
            remaining_failures: AtomicU32::new(2),
        }),
    )
    .expect("bootstrap");

    let record = svc.ingest_epoch(vec![drift_delta(1)]).clone();
    match record.outcome {
        EpochOutcome::Rebuilt { retries, .. } => assert_eq!(retries, 2),
        ref other => panic!("wanted Rebuilt after retries, got {other:?}"),
    }
    assert_eq!(svc.state(), ServiceState::Healthy);
}

#[test]
fn exhausted_retries_degrade_then_freeze_and_thaw_recovers() {
    let (m, p) = fixture();
    let mut svc = PibeService::bootstrap_with(
        m,
        p,
        config(),
        serve_config(), // freeze_after: 2, max_retries: 0
        Arc::new(FlakyRebuilder {
            remaining_failures: AtomicU32::new(u32::MAX),
        }),
    )
    .expect("bootstrap");
    let before = Arc::clone(svc.image());

    svc.ingest_epoch(vec![drift_delta(1)]);
    assert_eq!(svc.state(), ServiceState::Degraded);
    svc.ingest_epoch(vec![drift_delta(2)]);
    assert_eq!(svc.state(), ServiceState::Frozen, "2 consecutive failures");

    // Frozen: epochs are refused outright — not merged, not rebuilt.
    let cumulative = svc.cumulative_profile().clone();
    let record = svc.ingest_epoch(vec![no_drift_delta(3)]).clone();
    assert_eq!(record.outcome, EpochOutcome::Frozen);
    assert_eq!(record.accepted, 0);
    assert_eq!(svc.cumulative_profile(), &cumulative);
    assert!(Arc::ptr_eq(svc.image(), &before));

    // Operator thaw: the loop runs again (and fails again, back to
    // Degraded — the rebuilder is still broken).
    svc.thaw();
    assert_eq!(svc.state(), ServiceState::Healthy);
    svc.ingest_epoch(vec![drift_delta(4)]);
    assert_eq!(svc.state(), ServiceState::Degraded);

    // The journal replays to exactly the live state.
    let replay = svc.journal().replay();
    assert_eq!(replay.state, svc.state());
    assert_eq!(replay.rollbacks, 3);
    assert_eq!(replay.frozen_epochs, 1);
}

#[test]
fn unrecoverable_errors_freeze_immediately_without_retries() {
    let (m, p) = fixture();
    let serve = ServeConfig {
        max_retries: 5,
        freeze_after: 100,
        ..serve_config()
    };
    let mut svc = PibeService::bootstrap_with(m, p, config(), serve, Arc::new(FatalRebuilder))
        .expect("bootstrap");

    let record = svc.ingest_epoch(vec![drift_delta(1)]).clone();
    match record.outcome {
        EpochOutcome::RolledBack {
            recoverable,
            retries,
            ..
        } => {
            assert!(!recoverable);
            assert_eq!(retries, 0, "unrecoverable errors are never retried");
        }
        ref other => panic!("wanted RolledBack, got {other:?}"),
    }
    assert_eq!(svc.state(), ServiceState::Frozen);
    assert_eq!(svc.journal().replay().state, ServiceState::Frozen);
}

/// The fixture with one function's cumulative return count pushed to
/// `u64::MAX - 5` via binary merge composition (64 merges, not 2^64
/// recordings). Return counts feed no optimization decision, so the
/// near-saturated value is inert in the pipeline — only the merge
/// arithmetic is on trial.
fn near_max_returns() -> (Module, Profile, pibe_ir::FuncId) {
    let (m, mut initial) = fixture();
    let hot = pibe_ir::FuncId::from_raw(0);
    let mut unit = Profile::new();
    unit.record_return(hot);
    let mut power = unit.clone();
    let mut bits = u64::MAX - 30; // fixture already holds 25 returns
    let mut boost = Profile::new();
    loop {
        if bits & 1 == 1 {
            boost.merge(&power);
        }
        bits >>= 1;
        if bits == 0 {
            break;
        }
        let double = power.clone();
        power.merge(&double);
    }
    initial.merge(&boost);
    assert_eq!(initial.return_count(hot), u64::MAX - 5);
    (m, initial, hot)
}

#[test]
fn merge_overflow_quarantines_the_delta_and_keeps_the_epoch_atomic() {
    let (m, initial, hot) = near_max_returns();
    let mut svc = PibeService::bootstrap(m, initial, config(), serve_config()).expect("bootstrap");
    let cumulative_before = svc.cumulative_profile().clone();

    let mut overflowing = Profile::new();
    for _ in 0..10 {
        overflowing.record_return(hot);
    }
    let record = svc
        .ingest_epoch(vec![
            ProfileDelta {
                shard: 3,
                seq: 1,
                profile: overflowing,
            },
            no_drift_delta(2),
        ])
        .clone();

    assert_eq!(record.overflow_rejected, 1);
    assert_eq!(record.accepted, 1, "the clean shard still merged");
    assert_eq!(svc.state(), ServiceState::Healthy);
    let q = svc
        .quarantine()
        .iter()
        .find(|q| q.delta.shard == 3)
        .expect("overflow delta quarantined");
    match &q.reason {
        QuarantineReason::Overflow(overflows) => {
            assert_eq!(
                overflows,
                &vec![pibe_profile::MergeOverflow::Return { func: hot }]
            );
        }
        other => panic!("wanted Overflow, got {other:?}"),
    }
    // Atomicity: only the accepted delta's single return landed — the
    // rejected delta left no trace in the cumulative counts.
    assert_eq!(
        svc.cumulative_profile().return_count(hot),
        cumulative_before.return_count(hot) + 1
    );
}

#[test]
fn a_merge_summing_exactly_to_u64_max_is_quarantined() {
    // MAX - 5 plus 5 does not wrap, but validation would flag the sum as
    // saturated, so the delta must not reach the cumulative profile.
    let (m, initial, hot) = near_max_returns();
    let base = m.clone();
    let mut svc = PibeService::bootstrap(m, initial, config(), serve_config()).expect("bootstrap");
    let cumulative_before = svc.cumulative_profile().clone();

    let mut exact = Profile::new();
    for _ in 0..5 {
        exact.record_return(hot);
    }
    let record = svc
        .ingest_epoch(vec![ProfileDelta {
            shard: 3,
            seq: 1,
            profile: exact,
        }])
        .clone();

    assert_eq!(record.overflow_rejected, 1);
    let q = svc.quarantine().last().expect("delta quarantined");
    assert_eq!(
        q.reason,
        QuarantineReason::Overflow(vec![pibe_profile::MergeOverflow::Return { func: hot }])
    );
    assert_eq!(svc.cumulative_profile(), &cumulative_before);
    assert!(svc.cumulative_profile().validate_against(&base).is_clean());
}

#[test]
fn journal_survives_json_and_replays_to_the_live_state() {
    let (m, p) = fixture();
    let mut svc = PibeService::bootstrap(m, p, config(), serve_config()).expect("bootstrap");
    svc.ingest_epoch(vec![no_drift_delta(1)]);
    svc.ingest_epoch(vec![drift_delta(2)]);
    svc.ingest_epoch(vec![no_drift_delta(3)]);

    let text = serde_json::to_string_pretty(svc.journal()).expect("serializes");
    let back: pibe_serve::EpochJournal = serde_json::from_str(&text).expect("parses");
    assert_eq!(&back, svc.journal());
    let replay = back.replay();
    assert_eq!(replay.state, svc.state());
    assert_eq!(replay.fast_paths, 2);
    assert_eq!(replay.rebuilds, 1);
}
