//! Regression suite: `Profile::merge_checked` must surface every counter
//! that reaches `u64::MAX` during long-lived epoch accumulation as a typed
//! [`MergeOverflow`], instead of silently wrapping (or silently saturating,
//! as plain `merge` does).

use pibe_ir::{FuncId, SiteId};
use pibe_profile::{MergeOverflow, Profile};

fn site(n: u64) -> SiteId {
    SiteId::from_raw(n)
}
fn func(n: u32) -> FuncId {
    FuncId::from_raw(n)
}

/// A profile whose every counter is `count` times the corresponding counter
/// of `unit`, built by binary merge composition (so near-`u64::MAX` fixtures
/// cost 64 merges, not 2^64 recordings).
fn scaled(unit: &Profile, count: u64) -> Profile {
    let mut result = Profile::new();
    let mut power = unit.clone();
    let mut bits = count;
    loop {
        if bits & 1 == 1 {
            result.merge(&power);
        }
        bits >>= 1;
        if bits == 0 {
            break;
        }
        let double = power.clone();
        power.merge(&double);
    }
    result
}

fn direct_unit() -> Profile {
    let mut p = Profile::new();
    p.record_direct(site(1));
    p
}

fn indirect_unit() -> Profile {
    let mut p = Profile::new();
    p.record_indirect(site(2), func(3));
    p
}

#[test]
fn scaled_fixture_is_exact() {
    let p = scaled(&direct_unit(), u64::MAX - 2);
    assert_eq!(p.direct_count(site(1)), u64::MAX - 2);
    let p = scaled(&indirect_unit(), 1_000_003);
    assert_eq!(p.indirect_count(site(2)), 1_000_003);
}

#[test]
fn clean_merge_reports_clean() {
    let mut a = Profile::new();
    a.record_direct(site(1));
    a.record_indirect(site(2), func(3));
    a.record_entry(func(4));
    a.record_return(func(5));
    let b = a.clone();
    let report = a.merge_checked(&b);
    assert!(report.is_clean(), "{report:?}");
    assert_eq!(a.direct_count(site(1)), 2);
    assert_eq!(a.indirect_count(site(2)), 2);
}

#[test]
fn near_max_direct_count_overflow_is_typed() {
    let mut a = scaled(&direct_unit(), u64::MAX - 2);
    let delta = scaled(&direct_unit(), 5);
    let report = a.merge_checked(&delta);
    assert_eq!(
        report.overflows,
        vec![MergeOverflow::Direct { site: site(1) }]
    );
    assert!(!report.is_clean());
    assert_eq!(a.direct_count(site(1)), u64::MAX, "saturates, never wraps");
}

#[test]
fn exactly_reaching_max_is_reported() {
    // A sum landing on u64::MAX does not wrap, but validation flags that
    // value as saturated, so the merge must report it too.
    let mut a = scaled(&direct_unit(), u64::MAX - 2);
    let delta = scaled(&direct_unit(), 2);
    let report = a.merge_checked(&delta);
    assert_eq!(
        report.overflows,
        vec![MergeOverflow::Direct { site: site(1) }]
    );
    assert_eq!(a.direct_count(site(1)), u64::MAX);

    // The same holds for a value-profile tuple the merge inserts fresh.
    let mut b = Profile::new();
    let report = b.merge_checked(&scaled(&indirect_unit(), u64::MAX));
    assert_eq!(
        report.overflows,
        vec![MergeOverflow::Indirect {
            site: site(2),
            target: func(3)
        }]
    );
}

#[test]
fn near_max_value_profile_overflow_names_site_and_target() {
    let mut a = scaled(&indirect_unit(), u64::MAX - 1);
    let delta = scaled(&indirect_unit(), 2);
    let report = a.merge_checked(&delta);
    assert_eq!(
        report.overflows,
        vec![MergeOverflow::Indirect {
            site: site(2),
            target: func(3)
        }]
    );
    assert_eq!(a.indirect_count(site(2)), u64::MAX);
}

#[test]
fn entry_and_return_overflows_name_the_function() {
    let mut unit = Profile::new();
    unit.record_entry(func(4));
    unit.record_return(func(5));
    let mut a = scaled(&unit, u64::MAX - 1);
    let delta = scaled(&unit, 3);
    let report = a.merge_checked(&delta);
    assert!(report
        .overflows
        .contains(&MergeOverflow::Entry { func: func(4) }));
    assert!(report
        .overflows
        .contains(&MergeOverflow::Return { func: func(5) }));
    assert_eq!(a.entry_count(func(4)), u64::MAX);
    assert_eq!(a.return_count(func(5)), u64::MAX);
}

#[test]
fn overflow_report_is_sorted_and_deterministic() {
    let mut unit = Profile::new();
    for s in [9, 3, 7] {
        unit.record_direct(site(s));
    }
    let near = scaled(&unit, u64::MAX - 1);
    let delta = scaled(&unit, 2);
    let mut a = near.clone();
    let report = a.merge_checked(&delta);
    assert_eq!(report.overflows.len(), 3);
    let mut sorted = report.overflows.clone();
    sorted.sort();
    assert_eq!(report.overflows, sorted, "report order is canonical");
    // Same merge, same report.
    let mut b = near.clone();
    assert_eq!(b.merge_checked(&delta), report);
}

#[test]
fn plain_merge_still_saturates_silently() {
    // `merge` keeps its historical contract: same arithmetic, no report.
    let mut a = scaled(&direct_unit(), u64::MAX - 1);
    let delta = scaled(&direct_unit(), 100);
    a.merge(&delta);
    assert_eq!(a.direct_count(site(1)), u64::MAX);
}

#[test]
fn merge_into_clone_lets_caller_reject_lossy_epochs() {
    // The serve loop's atomicity pattern: merge into a scratch clone, keep
    // the cumulative profile untouched when the report is dirty.
    let cumulative = scaled(&direct_unit(), u64::MAX - 1);
    let before = cumulative.clone();
    let delta = scaled(&direct_unit(), 10);

    let mut scratch = cumulative.clone();
    let report = scratch.merge_checked(&delta);
    assert!(!report.is_clean());
    assert_eq!(
        cumulative, before,
        "rejected epoch leaves cumulative intact"
    );
}
