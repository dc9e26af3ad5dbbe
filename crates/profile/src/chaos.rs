//! Deterministic profile fault injection (the `pibe-chaos` harness).
//!
//! Production PGO pipelines meet corrupt inputs constantly: profiles
//! collected on drifted builds, truncated documents, saturating merges.
//! This module *manufactures* those inputs, deterministically from a seed,
//! so the pipeline's validation and repair can be exercised
//! by the thousands in tests (`crates/core/tests/chaos.rs`) without any
//! non-determinism.
//!
//! Each [`ProfileChaos`] kind plants exactly the class of corruption one
//! [`ProfileIssue`](crate::ProfileIssue) detector exists for, so
//! validation is guaranteed to flag every injected fault.

use crate::profile::{Profile, ValueProfileEntry};
use pibe_ir::{FuncId, Module, SiteId};
use std::fmt;

/// SplitMix64: a tiny, deterministic stream of pseudo-random `u64`s.
/// (Deliberately self-contained — chaos must not depend on RNG crates whose
/// streams could change.)
#[derive(Debug, Clone)]
pub struct ChaosRng(u64);

impl ChaosRng {
    /// Creates a stream from `seed`.
    pub fn new(seed: u64) -> Self {
        ChaosRng(seed)
    }

    /// The next value of the stream.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A value in `0..bound` (`bound` must be nonzero).
    pub fn below(&mut self, bound: u64) -> u64 {
        self.next_u64() % bound
    }
}

/// One kind of profile corruption the chaos harness can inject.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ProfileChaos {
    /// Insert a direct-call count keyed by a site the module doesn't have.
    DanglingDirectSite,
    /// Insert a value profile keyed by a site the module doesn't have.
    DanglingIndirectSite,
    /// Append a value-profile target naming a function outside the module.
    DanglingTarget,
    /// Append a duplicate of an existing value-profile target.
    DuplicateTarget,
    /// Truncate one value profile to zero entries (keeping the site key).
    TruncateValueProfile,
    /// Saturate one count to `u64::MAX` (a poisoned merge).
    SaturateCounts,
    /// Erase the whole profile (a failed profiling run).
    Erase,
}

impl ProfileChaos {
    /// Every corruption kind, in a fixed order.
    pub const ALL: [ProfileChaos; 7] = [
        ProfileChaos::DanglingDirectSite,
        ProfileChaos::DanglingIndirectSite,
        ProfileChaos::DanglingTarget,
        ProfileChaos::DuplicateTarget,
        ProfileChaos::TruncateValueProfile,
        ProfileChaos::SaturateCounts,
        ProfileChaos::Erase,
    ];

    /// Picks a corruption kind deterministically from `seed`.
    pub fn from_seed(seed: u64) -> Self {
        Self::ALL[(ChaosRng::new(seed).next_u64() % Self::ALL.len() as u64) as usize]
    }

    /// Applies this corruption to `profile` (which was collected against
    /// `module`), deterministically from `seed`. Returns `false` when the
    /// profile has no entry of the shape this corruption needs (e.g.
    /// duplicating a target in a profile with no value profiles), in which
    /// case the profile is unchanged.
    pub fn apply(self, profile: &mut Profile, module: &Module, seed: u64) -> bool {
        let mut rng = ChaosRng::new(seed ^ 0xC4A0_5CA0_5EED);
        // A site id the module has certainly never allocated.
        let ghost_site = SiteId::from_raw(module.peek_next_site() + 1 + rng.below(1 << 16));
        // A function id certainly outside the module.
        let ghost_func = FuncId::from_raw(module.len() as u32 + 1 + rng.below(1 << 10) as u32);

        // Deterministic pick of an existing indirect site, if any.
        let pick_indirect = |p: &Profile, rng: &mut ChaosRng| -> Option<SiteId> {
            let mut sites: Vec<SiteId> = p.iter_indirect().map(|(s, _)| s).collect();
            if sites.is_empty() {
                return None;
            }
            sites.sort();
            Some(sites[rng.below(sites.len() as u64) as usize])
        };

        match self {
            ProfileChaos::DanglingDirectSite => {
                let (direct, ..) = profile.raw_mut();
                direct.insert(ghost_site, 1 + rng.below(1 << 20));
                true
            }
            ProfileChaos::DanglingIndirectSite => {
                let target = FuncId::from_raw(rng.below(module.len().max(1) as u64) as u32);
                let (_, indirect, ..) = profile.raw_mut();
                indirect.insert(
                    ghost_site,
                    vec![ValueProfileEntry {
                        target,
                        count: 1 + rng.below(1 << 20),
                    }],
                );
                true
            }
            ProfileChaos::DanglingTarget => {
                let Some(site) = pick_indirect(profile, &mut rng) else {
                    return false;
                };
                // A huge count makes the dangling target the hottest
                // promotion candidate: the worst case for an unvalidated
                // pipeline (the promoted call's callee does not exist).
                let count = 1 << 40;
                let (_, indirect, ..) = profile.raw_mut();
                indirect
                    .get_mut(&site)
                    .expect("picked site exists")
                    .push(ValueProfileEntry {
                        target: ghost_func,
                        count,
                    });
                true
            }
            ProfileChaos::DuplicateTarget => {
                let Some(site) = pick_indirect(profile, &mut rng) else {
                    return false;
                };
                let (_, indirect, ..) = profile.raw_mut();
                let vp = indirect.get_mut(&site).expect("picked site exists");
                let Some(&first) = vp.first() else {
                    return false;
                };
                vp.push(first);
                true
            }
            ProfileChaos::TruncateValueProfile => {
                let Some(site) = pick_indirect(profile, &mut rng) else {
                    return false;
                };
                let (_, indirect, ..) = profile.raw_mut();
                indirect.get_mut(&site).expect("picked site exists").clear();
                true
            }
            ProfileChaos::SaturateCounts => {
                // Prefer a direct count; fall back to a value-profile count.
                let mut sites: Vec<SiteId> = profile.iter_direct().map(|(s, _)| s).collect();
                sites.sort();
                if !sites.is_empty() {
                    let site = sites[rng.below(sites.len() as u64) as usize];
                    let (direct, ..) = profile.raw_mut();
                    direct.insert(site, u64::MAX);
                    return true;
                }
                let Some(site) = pick_indirect(profile, &mut rng) else {
                    return false;
                };
                let (_, indirect, ..) = profile.raw_mut();
                let vp = indirect.get_mut(&site).expect("picked site exists");
                let Some(e) = vp.first_mut() else {
                    return false;
                };
                e.count = u64::MAX;
                true
            }
            ProfileChaos::Erase => {
                let (direct, indirect, entries, returns) = profile.raw_mut();
                direct.clear();
                indirect.clear();
                entries.clear();
                returns.clear();
                true
            }
        }
    }
}

impl fmt::Display for ProfileChaos {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            ProfileChaos::DanglingDirectSite => "dangling-direct-site",
            ProfileChaos::DanglingIndirectSite => "dangling-indirect-site",
            ProfileChaos::DanglingTarget => "dangling-target",
            ProfileChaos::DuplicateTarget => "duplicate-target",
            ProfileChaos::TruncateValueProfile => "truncate-value-profile",
            ProfileChaos::SaturateCounts => "saturate-counts",
            ProfileChaos::Erase => "erase",
        };
        f.write_str(name)
    }
}

/// Corrupts a copy of `profile` with the corruption kind derived from
/// `seed`. Returns the corrupted copy, the kind, and whether the corruption
/// actually landed (see [`ProfileChaos::apply`]).
pub fn corrupt_profile(
    profile: &Profile,
    module: &Module,
    seed: u64,
) -> (Profile, ProfileChaos, bool) {
    let kind = ProfileChaos::from_seed(seed);
    let mut p = profile.clone();
    let landed = kind.apply(&mut p, module, seed);
    (p, kind, landed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pibe_ir::{FunctionBuilder, OpKind};

    fn module_and_profile() -> (Module, Profile) {
        let mut m = Module::new("m");
        let mut b = FunctionBuilder::new("leaf", 0);
        b.op(OpKind::Alu);
        b.ret();
        let leaf = m.add_function(b.build());
        let d = m.fresh_site();
        let i = m.fresh_site();
        let mut b = FunctionBuilder::new("root", 0);
        b.call(d, leaf, 0);
        b.call_indirect(i, 1);
        b.ret();
        m.add_function(b.build());
        let mut p = Profile::new();
        p.record_direct(d);
        p.record_indirect(i, leaf);
        p.record_entry(leaf);
        (m, p)
    }

    #[test]
    fn chaos_is_deterministic() {
        let (m, p) = module_and_profile();
        for seed in 0..50 {
            let (a, ka, la) = corrupt_profile(&p, &m, seed);
            let (b, kb, lb) = corrupt_profile(&p, &m, seed);
            assert_eq!(ka, kb);
            assert_eq!(la, lb);
            assert_eq!(a, b, "seed {seed} must corrupt identically");
        }
    }

    #[test]
    fn every_landed_corruption_is_detected_by_validation() {
        let (m, p) = module_and_profile();
        let mut landed_kinds = std::collections::HashSet::new();
        for seed in 0..300 {
            let (corrupt, kind, landed) = corrupt_profile(&p, &m, seed);
            if !landed {
                continue;
            }
            landed_kinds.insert(kind);
            let h = corrupt.validate_against(&m);
            assert!(
                !h.is_clean(),
                "seed {seed} ({kind}) corrupted the profile but validation missed it"
            );
        }
        assert_eq!(
            landed_kinds.len(),
            ProfileChaos::ALL.len(),
            "300 seeds must exercise every corruption kind on this profile"
        );
    }

    #[test]
    fn repair_neutralizes_every_corruption() {
        let (m, p) = module_and_profile();
        for seed in 0..300 {
            let (mut corrupt, kind, landed) = corrupt_profile(&p, &m, seed);
            if !landed {
                continue;
            }
            corrupt.repair_against(&m);
            let h = corrupt.validate_against(&m);
            let acceptable = h.is_clean() || h.issues() == [crate::ProfileIssue::Empty];
            assert!(
                acceptable,
                "seed {seed} ({kind}) left issues after repair: {h}"
            );
        }
    }
}
