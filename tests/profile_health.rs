//! Pipeline-level coverage of every [`ProfileIssue`] variant: validation
//! reports a typed issue *naming the faulty entity*; the build repairs the
//! profile, succeeds, and the attached [`ProfileRepair`] reports exactly
//! what was fixed.

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

/// A body named `name` that calls `leaf` (@f0) at each of `direct` and
/// makes an indirect call at each of `indirect`.
fn body(name: &str, direct: &[SiteId], indirect: &[SiteId]) -> pibe_ir::Function {
    let mut b = FunctionBuilder::new(name, 0);
    for &s in direct {
        b.call(s, FuncId::from_raw(0), 0);
    }
    for &s in indirect {
        b.call_indirect(s, 1);
    }
    b.ret();
    b.build()
}

/// Validation and repair reports of `p` against `m`.
fn reports(m: &Module, p: &Profile) -> (Vec<ProfileIssue>, ProfileRepair) {
    let mut fixed = p.clone();
    let repair = fixed.repair_against(m);
    (p.validate_against(m).issues().to_vec(), repair)
}

/// A copy of `m` without its memoized call-site table.
fn memo_free(m: &Module) -> Module {
    serde_json::from_str(&serde_json::to_string(m).expect("module serializes"))
        .expect("module parses")
}

/// The module memoizes its call-site table; every mutation path that adds
/// or removes a call site must drop it, so validation after each one
/// reports exactly what a never-memoized copy reports.
#[test]
fn validation_after_each_site_changing_mutation_matches_a_memo_free_copy() {
    let (mut m, d, i, leaf) = module();
    let root = FuncId::from_raw(1);
    // Allocated up front, so no step clears the memo through `fresh_site`.
    let [s2, s3, s4, s5] = [(); 4].map(|()| m.fresh_site());
    let mut p = clean(d, i, leaf);
    for s in [s2, s4] {
        p.record_direct(s);
    }
    for s in [s3, s5] {
        p.record_indirect(s, leaf);
    }
    for f in [2, 3] {
        p.record_entry(FuncId::from_raw(f));
    }

    type Step = (&'static str, Box<dyn Fn(&mut Module)>);
    let steps: Vec<Step> = vec![
        (
            "add_function with a new call",
            Box::new(move |m| {
                m.add_function(body("extra", &[s2], &[s3]));
            }),
        ),
        (
            "replace_function dropping a call",
            Box::new(move |m| m.replace_function(root, body("root", &[], &[i]))),
        ),
        (
            "function_mut().set_blocks",
            Box::new(move |m| {
                let blocks = body("extra", &[s4], &[]).to_blocks();
                m.function_mut(FuncId::from_raw(2)).set_blocks(blocks);
            }),
        ),
        (
            "set_function_arc",
            Box::new(move |m| {
                let mut f = m.function_arc(root).clone();
                std::sync::Arc::make_mut(&mut f).set_blocks(body("root", &[d], &[s5]).to_blocks());
                m.set_function_arc(root, f);
            }),
        ),
        (
            "add_function_arc",
            Box::new(move |m| {
                m.add_function_arc(std::sync::Arc::new(body("extra2", &[s2], &[])));
            }),
        ),
        (
            "a DCE output module",
            Box::new(move |m| *m = pibe_passes::strip_unreachable(m, &[root], &[]).0),
        ),
    ];

    let mut before = reports(&m, &p);
    assert_eq!(before, reports(&memo_free(&m), &p), "initial module");
    for (name, step) in &steps {
        step(&mut m);
        let after = reports(&m, &p);
        assert_ne!(after, before, "{name} must change what validation sees");
        assert_eq!(after, reports(&memo_free(&m), &p), "after {name}");
        before = after;
    }

    // A clone shares the table; mutating the clone leaves the original's.
    let mut copy = m.clone();
    assert_eq!(reports(&copy, &p), before);
    copy.add_function(body("extra", &[s2], &[s3]));
    assert_ne!(reports(&copy, &p), before);
    assert_eq!(reports(&copy, &p), reports(&memo_free(&copy), &p));
    assert_eq!(reports(&m, &p), before, "the original is unchanged");
    assert_eq!(reports(&memo_free(&m), &p), before);
}
