//! Pipeline-level coverage of every [`ProfileIssue`] variant: validation
//! reports a typed issue *naming the faulty entity*; under the default
//! [`ValidationPolicy::Repair`](pibe::ValidationPolicy::Repair) the build
//! succeeds and the attached [`ProfileRepair`] reports exactly what was
//! fixed.

use pibe::{Image, PibeConfig};
use pibe_harden::DefenseSet;
use pibe_ir::{FuncId, FunctionBuilder, Module, OpKind, SiteId};
use pibe_profile::{Profile, ProfileIssue, ProfileRepair, COUNT_CLAMP};

/// `leaf()` and `root() { call leaf; icall }`: one direct site (0), one
/// indirect site (1), two functions (leaf = @f0).
fn module() -> (Module, SiteId, SiteId, FuncId) {
    let mut m = Module::new("m");
    let mut b = FunctionBuilder::new("leaf", 0);
    b.op(OpKind::Alu);
    b.ret();
    let leaf = m.add_function(b.build());
    let direct = m.fresh_site();
    let indirect = m.fresh_site();
    let mut b = FunctionBuilder::new("root", 0);
    b.call(direct, leaf, 0);
    b.call_indirect(indirect, 1);
    b.ret();
    m.add_function(b.build());
    (m, direct, indirect, leaf)
}

/// A profile that validates clean against [`module`].
fn clean(direct: SiteId, indirect: SiteId, leaf: FuncId) -> Profile {
    let mut p = Profile::new();
    p.record_direct(direct);
    p.record_indirect(indirect, leaf);
    p.record_entry(leaf);
    p.record_return(leaf);
    p
}

/// Builds a profile from hand-written JSON — the only way to express
/// pathological states (saturated counts, duplicated targets, truncated
/// value profiles) from outside the crate, and exactly what a corrupt
/// on-disk profile document looks like.
fn profile_from_json(json: &str) -> Profile {
    Profile::from_json(json).expect("handcrafted profile JSON parses")
}

/// The first issue validation reports: the one that names the fault.
fn first_issue(m: &Module, p: &Profile) -> ProfileIssue {
    p.validate_against(m)
        .first()
        .expect("validation must flag this profile")
}

fn repair_report(m: &Module, p: &Profile) -> Option<ProfileRepair> {
    let image = Image::builder(m)
        .profile(p)
        .config(PibeConfig::lax(DefenseSet::ALL)) // default: Repair
        .build()
        .expect("repair mode must absorb this profile");
    image.module.verify().expect("image verifies");
    image.repair
}

#[test]
fn dangling_direct_site_names_the_site_and_is_dropped() {
    let (m, d, i, leaf) = module();
    let mut p = clean(d, i, leaf);
    p.record_direct(SiteId::from_raw(99));

    let issue = first_issue(&m, &p);
    assert_eq!(
        issue,
        ProfileIssue::DanglingDirectSite {
            site: SiteId::from_raw(99)
        }
    );
    assert!(issue.to_string().contains("site99"), "{issue}");

    assert_eq!(
        repair_report(&m, &p),
        Some(ProfileRepair {
            dropped_direct_sites: 1,
            ..ProfileRepair::default()
        })
    );
}

/// Site ids are arbitrary `u64`s, not dense indices: a profile site far
/// above every id the module has handed out is dangling like any other.
#[test]
fn dangling_direct_site_far_above_the_module_watermark_is_named_and_dropped() {
    let (m, d, i, leaf) = module();
    let far = SiteId::from_raw(m.peek_next_site() + (1 << 40));
    let mut p = clean(d, i, leaf);
    p.record_direct(far);

    assert_eq!(
        first_issue(&m, &p),
        ProfileIssue::DanglingDirectSite { site: far }
    );
    assert_eq!(
        repair_report(&m, &p),
        Some(ProfileRepair {
            dropped_direct_sites: 1,
            ..ProfileRepair::default()
        })
    );
}

#[test]
fn dangling_indirect_site_names_the_site_and_is_dropped() {
    let (m, d, i, leaf) = module();
    let mut p = clean(d, i, leaf);
    p.record_indirect(SiteId::from_raw(99), leaf);

    let issue = first_issue(&m, &p);
    assert_eq!(
        issue,
        ProfileIssue::DanglingIndirectSite {
            site: SiteId::from_raw(99)
        }
    );
    assert!(issue.to_string().contains("site99"), "{issue}");

    assert_eq!(
        repair_report(&m, &p),
        Some(ProfileRepair {
            dropped_indirect_sites: 1,
            ..ProfileRepair::default()
        })
    );
}

#[test]
fn dangling_target_names_site_and_target_and_only_the_target_is_dropped() {
    let (m, d, i, leaf) = module();
    let mut p = clean(d, i, leaf);
    p.record_indirect(i, FuncId::from_raw(77));

    let issue = first_issue(&m, &p);
    assert_eq!(
        issue,
        ProfileIssue::DanglingTarget {
            site: i,
            target: FuncId::from_raw(77)
        }
    );
    let text = issue.to_string();
    assert!(text.contains("site1") && text.contains("@f77"), "{text}");

    // The valid `leaf` entry survives; only the ghost target goes.
    assert_eq!(
        repair_report(&m, &p),
        Some(ProfileRepair {
            dropped_targets: 1,
            ..ProfileRepair::default()
        })
    );
}

#[test]
fn duplicate_target_names_the_pair_and_duplicates_are_merged() {
    let (m, _, i, _) = module();
    // Canonical recording cannot produce duplicates; a corrupt document can.
    let p = profile_from_json(
        r#"{
            "direct": [[0, 1]],
            "indirect": [[1, [
                {"target": 0, "count": 2},
                {"target": 0, "count": 3}
            ]]],
            "entries": [[0, 1]],
            "returns": [[0, 1]]
        }"#,
    );

    let issue = first_issue(&m, &p);
    assert_eq!(
        issue,
        ProfileIssue::DuplicateTarget {
            site: i,
            target: FuncId::from_raw(0)
        }
    );
    assert!(issue.to_string().contains("site1"), "{issue}");

    assert_eq!(
        repair_report(&m, &p),
        Some(ProfileRepair {
            merged_duplicate_targets: 1,
            ..ProfileRepair::default()
        })
    );
}

#[test]
fn empty_value_profile_names_the_site_and_the_site_is_dropped() {
    let (m, _, i, _) = module();
    let p = profile_from_json(
        r#"{
            "direct": [[0, 1]],
            "indirect": [[1, []]],
            "entries": [[0, 1]],
            "returns": [[0, 1]]
        }"#,
    );

    let issue = first_issue(&m, &p);
    assert_eq!(issue, ProfileIssue::EmptyValueProfile { site: i });
    assert!(issue.to_string().contains("site1"), "{issue}");

    assert_eq!(
        repair_report(&m, &p),
        Some(ProfileRepair {
            dropped_indirect_sites: 1,
            ..ProfileRepair::default()
        })
    );
}

#[test]
fn saturated_direct_count_names_the_site_and_is_clamped() {
    let (m, d, _, _) = module();
    let p = profile_from_json(
        r#"{
            "direct": [[0, 18446744073709551615]],
            "indirect": [[1, [{"target": 0, "count": 1}]]],
            "entries": [[0, 1]],
            "returns": [[0, 1]]
        }"#,
    );
    assert_eq!(p.direct_count(d), u64::MAX);

    let issue = first_issue(&m, &p);
    assert_eq!(issue, ProfileIssue::SaturatedDirect { site: d });
    assert!(issue.to_string().contains("site0"), "{issue}");

    assert_eq!(
        repair_report(&m, &p),
        Some(ProfileRepair {
            clamped_counts: 1,
            ..ProfileRepair::default()
        })
    );
    // And the clamp really is the documented ceiling.
    let mut fixed = p.clone();
    fixed.repair_against(&m);
    assert_eq!(fixed.direct_count(d), COUNT_CLAMP);
}

#[test]
fn saturated_indirect_count_names_site_and_target_and_is_clamped() {
    let (m, _, i, _) = module();
    let p = profile_from_json(
        r#"{
            "direct": [[0, 1]],
            "indirect": [[1, [{"target": 0, "count": 18446744073709551615}]]],
            "entries": [[0, 1]],
            "returns": [[0, 1]]
        }"#,
    );

    let issue = first_issue(&m, &p);
    assert_eq!(
        issue,
        ProfileIssue::SaturatedIndirect {
            site: i,
            target: FuncId::from_raw(0)
        }
    );
    let text = issue.to_string();
    assert!(text.contains("site1") && text.contains("@f0"), "{text}");

    assert_eq!(
        repair_report(&m, &p),
        Some(ProfileRepair {
            clamped_counts: 1,
            ..ProfileRepair::default()
        })
    );
}

#[test]
fn dangling_func_names_the_function_and_is_dropped() {
    let (m, d, i, leaf) = module();
    let mut p = clean(d, i, leaf);
    p.record_entry(FuncId::from_raw(55));

    let issue = first_issue(&m, &p);
    assert_eq!(
        issue,
        ProfileIssue::DanglingFunc {
            func: FuncId::from_raw(55)
        }
    );
    assert!(issue.to_string().contains("@f55"), "{issue}");

    assert_eq!(
        repair_report(&m, &p),
        Some(ProfileRepair {
            dropped_funcs: 1,
            ..ProfileRepair::default()
        })
    );
}

#[test]
fn saturated_func_count_names_the_function_and_is_clamped() {
    let (m, _, _, leaf) = module();
    let p = profile_from_json(
        r#"{
            "direct": [[0, 1]],
            "indirect": [[1, [{"target": 0, "count": 1}]]],
            "entries": [[0, 18446744073709551615]],
            "returns": [[0, 1]]
        }"#,
    );
    assert_eq!(p.entry_count(leaf), u64::MAX);

    let issue = first_issue(&m, &p);
    assert_eq!(issue, ProfileIssue::SaturatedFunc { func: leaf });
    assert!(issue.to_string().contains("@f0"), "{issue}");

    assert_eq!(
        repair_report(&m, &p),
        Some(ProfileRepair {
            clamped_counts: 1,
            ..ProfileRepair::default()
        })
    );
}

#[test]
fn empty_profile_is_rejected_by_strict_but_safe_under_repair() {
    let (m, _, _, _) = module();
    let p = Profile::new();

    // Advisory, but it is still the first (only) issue validation reports.
    assert_eq!(first_issue(&m, &p), ProfileIssue::Empty);

    // Repair mode builds: an empty profile is safe (no optimization
    // candidates, everything stays defended). There was nothing to fix, so
    // the attached report records zero actions.
    let report = repair_report(&m, &p).expect("not-clean profile attaches a report");
    assert_eq!(report, ProfileRepair::default());
    assert!(!report.changed());
}

#[test]
fn a_clean_profile_attaches_no_repair_report() {
    let (m, d, i, leaf) = module();
    let p = clean(d, i, leaf);
    assert!(p.validate_against(&m).is_clean());
    assert_eq!(repair_report(&m, &p), None);
}
