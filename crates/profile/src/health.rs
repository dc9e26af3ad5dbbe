//! Profile validation and repair against a concrete module.
//!
//! PIBE's hardening phase replays a profile that may have been collected on
//! a different build of the module: function ids drift, call sites get
//! DCE'd, merged profiles can saturate. A stale or corrupt profile fed
//! blindly into the passes produces dangling callees (and, two stages
//! later, a panic deep inside a build worker). This module turns those
//! failure modes into data:
//!
//! * [`Profile::validate_against`] inspects a profile relative to a module
//!   and reports every inconsistency as a [`ProfileIssue`] inside a
//!   [`ProfileHealth`];
//! * [`Profile::repair_against`] drops or clamps the offending entries in
//!   place and returns a [`ProfileRepair`] describing what changed, after
//!   which the profile validates clean (except for irreparably-empty
//!   profiles, which are safe to optimize with — the passes simply find no
//!   candidates).
//!
//! The pipeline repairs by default; its `ValidationPolicy::TrustProfile`
//! skips both and consumes the profile as given.

use crate::profile::{Profile, ValueProfileEntry};
use pibe_ir::{FuncId, Inst, Module, SiteId};
use serde::{Deserialize, Serialize};
use std::collections::{HashMap, HashSet};
use std::fmt;

/// Ceiling [`Profile::repair_against`] clamps suspicious counts to.
///
/// Large enough that no real workload reaches it (2^40 executions of one
/// site), small enough that summing millions of clamped counts cannot
/// overflow a `u64` in downstream pass arithmetic.
pub const COUNT_CLAMP: u64 = 1 << 40;

/// One inconsistency between a profile and the module it is replayed
/// against. Every variant names the faulty entity so validation reports are
/// actionable.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ProfileIssue {
    /// A direct-call count is keyed by a site that is not a direct call
    /// site of the module (dropped from the image, or id drift).
    DanglingDirectSite {
        /// The unmatched site.
        site: SiteId,
    },
    /// A value profile is keyed by a site that is not an indirect call
    /// site of the module.
    DanglingIndirectSite {
        /// The unmatched site.
        site: SiteId,
    },
    /// A value-profile target names a function outside the module.
    DanglingTarget {
        /// The indirect call site whose value profile is bad.
        site: SiteId,
        /// The out-of-range target.
        target: FuncId,
    },
    /// A value profile lists the same target more than once (corrupt
    /// serialization or a buggy merge; the canonical form is sorted and
    /// deduplicated).
    DuplicateTarget {
        /// The indirect call site whose value profile is bad.
        site: SiteId,
        /// The repeated target.
        target: FuncId,
    },
    /// An indirect call site carries an empty value profile (a truncated
    /// document: the site observed calls but lost its targets).
    EmptyValueProfile {
        /// The truncated site.
        site: SiteId,
    },
    /// A direct-call count sits at `u64::MAX`: a saturated merge (counts
    /// saturate rather than overflow) or deliberate corruption.
    SaturatedDirect {
        /// The saturated site.
        site: SiteId,
    },
    /// A value-profile count sits at `u64::MAX`.
    SaturatedIndirect {
        /// The saturated site.
        site: SiteId,
        /// The saturated target.
        target: FuncId,
    },
    /// A function invocation or return count names a function outside the
    /// module.
    DanglingFunc {
        /// The out-of-range function.
        func: FuncId,
    },
    /// A function invocation or return count sits at `u64::MAX`.
    SaturatedFunc {
        /// The saturated function.
        func: FuncId,
    },
    /// The profile recorded nothing at all. Advisory: an empty profile is
    /// *safe* (the passes find no candidates and the image ships fully
    /// defended) but almost certainly means the profiling run failed.
    Empty,
}

impl fmt::Display for ProfileIssue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ProfileIssue::DanglingDirectSite { site } => {
                write!(f, "{site} is profiled as a direct call but is not a direct call site of the module")
            }
            ProfileIssue::DanglingIndirectSite { site } => {
                write!(f, "{site} is profiled as an indirect call but is not an indirect call site of the module")
            }
            ProfileIssue::DanglingTarget { site, target } => {
                write!(
                    f,
                    "{site} lists value-profile target {target} which is not in the module"
                )
            }
            ProfileIssue::DuplicateTarget { site, target } => {
                write!(
                    f,
                    "{site} lists value-profile target {target} more than once"
                )
            }
            ProfileIssue::EmptyValueProfile { site } => {
                write!(f, "{site} carries an empty (truncated) value profile")
            }
            ProfileIssue::SaturatedDirect { site } => {
                write!(f, "{site} has a saturated direct-call count")
            }
            ProfileIssue::SaturatedIndirect { site, target } => {
                write!(f, "{site} -> {target} has a saturated value-profile count")
            }
            ProfileIssue::DanglingFunc { func } => {
                write!(f, "profiled function {func} is not in the module")
            }
            ProfileIssue::SaturatedFunc { func } => {
                write!(f, "{func} has a saturated invocation or return count")
            }
            ProfileIssue::Empty => write!(f, "profile is empty (no events recorded)"),
        }
    }
}

/// The result of validating a profile against a module: every detected
/// [`ProfileIssue`], in a deterministic (sorted) order.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct ProfileHealth {
    issues: Vec<ProfileIssue>,
}

impl ProfileHealth {
    /// No inconsistencies found.
    pub fn is_clean(&self) -> bool {
        self.issues.is_empty()
    }

    /// Every detected issue, deterministically ordered.
    pub fn issues(&self) -> &[ProfileIssue] {
        &self.issues
    }

    /// The first issue, if any.
    pub fn first(&self) -> Option<ProfileIssue> {
        self.issues.first().copied()
    }
}

impl fmt::Display for ProfileHealth {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_clean() {
            return f.write_str("profile is healthy");
        }
        write!(f, "{} issue(s):", self.issues.len())?;
        for i in &self.issues {
            write!(f, "\n  {i}")?;
        }
        Ok(())
    }
}

/// What [`Profile::repair_against`] changed, by category.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct ProfileRepair {
    /// Direct-call entries dropped (dangling sites).
    pub dropped_direct_sites: u64,
    /// Whole value profiles dropped (dangling sites, or sites left with no
    /// valid targets).
    pub dropped_indirect_sites: u64,
    /// Individual value-profile targets dropped (dangling functions).
    pub dropped_targets: u64,
    /// Duplicate value-profile targets merged back into one entry.
    pub merged_duplicate_targets: u64,
    /// Counts clamped down to [`COUNT_CLAMP`].
    pub clamped_counts: u64,
    /// Function invocation/return entries dropped (dangling functions).
    pub dropped_funcs: u64,
}

impl ProfileRepair {
    /// True when repair modified the profile at all.
    pub fn changed(&self) -> bool {
        self.total_actions() > 0
    }

    /// Total number of repair actions across all categories.
    pub fn total_actions(&self) -> u64 {
        self.dropped_direct_sites
            + self.dropped_indirect_sites
            + self.dropped_targets
            + self.merged_duplicate_targets
            + self.clamped_counts
            + self.dropped_funcs
    }
}

impl fmt::Display for ProfileRepair {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "repair: {} direct site(s), {} value profile(s), {} target(s) dropped; \
             {} duplicate(s) merged; {} count(s) clamped; {} function(s) dropped",
            self.dropped_direct_sites,
            self.dropped_indirect_sites,
            self.dropped_targets,
            self.merged_duplicate_targets,
            self.clamped_counts,
            self.dropped_funcs,
        )
    }
}

/// The module-side universe a profile is checked against: which sites are
/// direct/indirect calls and how many functions exist.
///
/// The site sets are sorted, deduplicated vectors queried by binary search:
/// site ids are arbitrary `u64`s (a text-parsed module can carry any), so
/// a dense bitmap is out, and sorting beats hashing every site per build.
struct SiteUniverse {
    direct: Vec<SiteId>,
    indirect: Vec<SiteId>,
    funcs: usize,
}

impl SiteUniverse {
    fn of(module: &Module) -> Self {
        let mut direct = Vec::new();
        let mut indirect = Vec::new();
        for f in module.functions() {
            // Flat pool scan: tombstones are plain ops and cannot match.
            for inst in f.insts() {
                match inst {
                    Inst::Call { site, .. } => direct.push(*site),
                    Inst::CallIndirect { site, .. } => indirect.push(*site),
                    _ => {}
                }
            }
        }
        for sites in [&mut direct, &mut indirect] {
            sites.sort_unstable();
            sites.dedup();
        }
        SiteUniverse {
            direct,
            indirect,
            funcs: module.len(),
        }
    }

    fn has_direct(&self, site: SiteId) -> bool {
        self.direct.binary_search(&site).is_ok()
    }

    fn has_indirect(&self, site: SiteId) -> bool {
        self.indirect.binary_search(&site).is_ok()
    }

    fn has_func(&self, f: FuncId) -> bool {
        f.index() < self.funcs
    }
}

impl Profile {
    /// Checks this profile for consistency against `module`: dangling site
    /// and function ids, duplicated or truncated value profiles, saturated
    /// counts, and overall emptiness. The returned issue list is sorted, so
    /// the same profile/module pair always reports the same first issue.
    pub fn validate_against(&self, module: &Module) -> ProfileHealth {
        let _span = pibe_trace::span("profile.validate");
        let u = SiteUniverse::of(module);
        let mut issues = Vec::new();

        if self.is_empty() {
            issues.push(ProfileIssue::Empty);
        }

        let mut direct: Vec<(SiteId, u64)> = self.iter_direct().collect();
        direct.sort_by_key(|(s, _)| *s);
        for (site, count) in direct {
            if !u.has_direct(site) {
                issues.push(ProfileIssue::DanglingDirectSite { site });
            }
            if count == u64::MAX {
                issues.push(ProfileIssue::SaturatedDirect { site });
            }
        }

        let mut indirect: Vec<(SiteId, &[ValueProfileEntry])> = self.iter_indirect().collect();
        indirect.sort_by_key(|(s, _)| *s);
        for (site, entries) in indirect {
            if !u.has_indirect(site) {
                issues.push(ProfileIssue::DanglingIndirectSite { site });
            }
            if entries.is_empty() {
                issues.push(ProfileIssue::EmptyValueProfile { site });
            }
            let mut seen: HashSet<FuncId> = HashSet::new();
            for e in entries {
                if !u.has_func(e.target) {
                    issues.push(ProfileIssue::DanglingTarget {
                        site,
                        target: e.target,
                    });
                }
                if !seen.insert(e.target) {
                    issues.push(ProfileIssue::DuplicateTarget {
                        site,
                        target: e.target,
                    });
                }
                if e.count == u64::MAX {
                    issues.push(ProfileIssue::SaturatedIndirect {
                        site,
                        target: e.target,
                    });
                }
            }
        }

        let mut funcs: Vec<(FuncId, u64)> =
            self.iter_entries().chain(self.iter_returns()).collect();
        funcs.sort_by_key(|(f, _)| *f);
        let mut flagged_dangling: HashSet<FuncId> = HashSet::new();
        let mut flagged_saturated: HashSet<FuncId> = HashSet::new();
        for (func, count) in funcs {
            if !u.has_func(func) && flagged_dangling.insert(func) {
                issues.push(ProfileIssue::DanglingFunc { func });
            }
            if count == u64::MAX && flagged_saturated.insert(func) {
                issues.push(ProfileIssue::SaturatedFunc { func });
            }
        }

        pibe_trace::event_args("profile.validated", || {
            vec![("issues", pibe_trace::Value::from(issues.len()))]
        });
        ProfileHealth { issues }
    }

    /// Repairs this profile in place so it is safe to replay against
    /// `module`: dangling entries are dropped, duplicated targets merged,
    /// saturated counts clamped to [`COUNT_CLAMP`]. Returns what changed.
    ///
    /// After repair, [`Profile::validate_against`] reports no issues other
    /// than (possibly) [`ProfileIssue::Empty`], which is advisory.
    pub fn repair_against(&mut self, module: &Module) -> ProfileRepair {
        let _span = pibe_trace::span("profile.repair");
        let u = SiteUniverse::of(module);
        let mut rep = ProfileRepair::default();
        let (direct, indirect, entries, returns) = self.raw_mut();

        direct.retain(|site, _| {
            let keep = u.has_direct(*site);
            if !keep {
                rep.dropped_direct_sites += 1;
            }
            keep
        });
        for count in direct.values_mut() {
            if *count > COUNT_CLAMP {
                *count = COUNT_CLAMP;
                rep.clamped_counts += 1;
            }
        }

        indirect.retain(|site, _| {
            let keep = u.has_indirect(*site);
            if !keep {
                rep.dropped_indirect_sites += 1;
            }
            keep
        });
        for vp in indirect.values_mut() {
            // Drop dangling targets, clamp counts, merge duplicates back
            // into the canonical sorted-unique form.
            let mut merged: HashMap<FuncId, u64> = HashMap::new();
            let mut order_broken = 0u64;
            for e in vp.iter() {
                if !u.has_func(e.target) {
                    rep.dropped_targets += 1;
                    continue;
                }
                let count = if e.count > COUNT_CLAMP {
                    rep.clamped_counts += 1;
                    COUNT_CLAMP
                } else {
                    e.count
                };
                match merged.get_mut(&e.target) {
                    Some(c) => {
                        *c = c.saturating_add(count).min(COUNT_CLAMP);
                        order_broken += 1;
                    }
                    None => {
                        merged.insert(e.target, count);
                    }
                }
            }
            rep.merged_duplicate_targets += order_broken;
            let mut fixed: Vec<ValueProfileEntry> = merged
                .into_iter()
                .map(|(target, count)| ValueProfileEntry { target, count })
                .collect();
            fixed.sort_by_key(|e| e.target);
            *vp = fixed;
        }
        indirect.retain(|_, vp| {
            let keep = !vp.is_empty();
            if !keep {
                // A truncated (or fully-dropped) value profile carries no
                // usable information; counted as a dropped site.
                rep.dropped_indirect_sites += 1;
            }
            keep
        });

        for map in [entries, returns] {
            map.retain(|func, _| {
                let keep = u.has_func(*func);
                if !keep {
                    rep.dropped_funcs += 1;
                }
                keep
            });
            for count in map.values_mut() {
                if *count > COUNT_CLAMP {
                    *count = COUNT_CLAMP;
                    rep.clamped_counts += 1;
                }
            }
        }

        rep
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pibe_ir::{FunctionBuilder, OpKind};

    /// leaf() and root() { call leaf; icall }: one direct site, one
    /// indirect site, two functions.
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

    fn clean_profile(direct: SiteId, indirect: SiteId, leaf: FuncId) -> Profile {
        let mut p = Profile::new();
        p.record_direct(direct);
        p.record_indirect(indirect, leaf);
        p.record_entry(leaf);
        p.record_return(leaf);
        p
    }

    #[test]
    fn clean_profile_validates_clean() {
        let (m, d, i, leaf) = module();
        let p = clean_profile(d, i, leaf);
        let h = p.validate_against(&m);
        assert!(h.is_clean(), "{h}");
        assert_eq!(h.first(), None);
    }

    #[test]
    fn empty_profile_is_flagged_advisory() {
        let (m, _, _, _) = module();
        let h = Profile::new().validate_against(&m);
        assert_eq!(h.issues(), &[ProfileIssue::Empty]);
    }

    #[test]
    fn dangling_entries_are_detected_and_repaired() {
        let (m, d, i, leaf) = module();
        let mut p = clean_profile(d, i, leaf);
        let ghost_site = SiteId::from_raw(999);
        let ghost_func = FuncId::from_raw(999);
        p.record_direct(ghost_site);
        p.record_indirect(ghost_site, leaf);
        p.record_indirect(i, ghost_func);
        p.record_entry(ghost_func);

        let h = p.validate_against(&m);
        assert!(h
            .issues()
            .contains(&ProfileIssue::DanglingDirectSite { site: ghost_site }));
        assert!(h
            .issues()
            .contains(&ProfileIssue::DanglingIndirectSite { site: ghost_site }));
        assert!(h.issues().contains(&ProfileIssue::DanglingTarget {
            site: i,
            target: ghost_func
        }));
        assert!(h
            .issues()
            .contains(&ProfileIssue::DanglingFunc { func: ghost_func }));

        let rep = p.repair_against(&m);
        assert!(rep.changed());
        assert_eq!(rep.dropped_direct_sites, 1);
        assert_eq!(rep.dropped_indirect_sites, 1);
        assert_eq!(rep.dropped_targets, 1);
        assert_eq!(rep.dropped_funcs, 1);
        assert!(p.validate_against(&m).is_clean());
        // Valid entries survive repair.
        assert_eq!(p.direct_count(d), 1);
        assert_eq!(p.indirect_count(i), 1);
    }

    #[test]
    fn saturated_counts_are_clamped() {
        let (m, d, i, leaf) = module();
        let mut a = clean_profile(d, i, leaf);
        // Saturate by merging a profile that already sits at MAX.
        let mut big = Profile::new();
        for _ in 0..2 {
            big.record_direct(d);
        }
        {
            let (direct, indirect, ..) = big.raw_mut();
            direct.insert(d, u64::MAX);
            indirect.insert(
                i,
                vec![ValueProfileEntry {
                    target: leaf,
                    count: u64::MAX,
                }],
            );
        }
        a.merge(&big); // must not overflow-panic
        assert_eq!(a.direct_count(d), u64::MAX);

        let h = a.validate_against(&m);
        assert!(h
            .issues()
            .contains(&ProfileIssue::SaturatedDirect { site: d }));
        assert!(h.issues().contains(&ProfileIssue::SaturatedIndirect {
            site: i,
            target: leaf
        }));

        let rep = a.repair_against(&m);
        assert_eq!(rep.clamped_counts, 2);
        assert_eq!(a.direct_count(d), COUNT_CLAMP);
        assert!(a.validate_against(&m).is_clean());
    }

    #[test]
    fn duplicates_and_truncation_are_detected_and_repaired() {
        let (m, d, i, leaf) = module();
        let mut p = clean_profile(d, i, leaf);
        {
            let (_, indirect, ..) = p.raw_mut();
            let vp = indirect.get_mut(&i).unwrap();
            let dup = vp[0];
            vp.push(dup); // duplicate target
        }
        let h = p.validate_against(&m);
        assert!(h.issues().contains(&ProfileIssue::DuplicateTarget {
            site: i,
            target: leaf
        }));
        let rep = p.repair_against(&m);
        assert_eq!(rep.merged_duplicate_targets, 1);
        assert_eq!(p.indirect_count(i), 2, "duplicate counts merged");
        assert!(p.validate_against(&m).is_clean());

        // Truncated value profile: site kept, entries gone.
        let mut p = clean_profile(d, i, leaf);
        {
            let (_, indirect, ..) = p.raw_mut();
            indirect.get_mut(&i).unwrap().clear();
        }
        let h = p.validate_against(&m);
        assert!(h
            .issues()
            .contains(&ProfileIssue::EmptyValueProfile { site: i }));
        let rep = p.repair_against(&m);
        assert_eq!(rep.dropped_indirect_sites, 1);
        assert!(p.validate_against(&m).is_clean());
    }

    #[test]
    fn issue_display_names_the_entity() {
        let text = ProfileIssue::DanglingTarget {
            site: SiteId::from_raw(7),
            target: FuncId::from_raw(42),
        }
        .to_string();
        assert!(text.contains('7') && text.contains("42"), "{text}");
    }
}
