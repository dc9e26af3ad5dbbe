//! The profile data structure.

use pibe_ir::{FuncId, SiteId};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;

/// One `(target, count)` tuple of an indirect call site's value profile —
/// §7: "For indirect sites, which may target multiple functions, we attach
/// value profile metadata represented by a list of (target name, execution
/// count) tuples."
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ValueProfileEntry {
    /// The observed target function.
    pub target: FuncId,
    /// How many times this site called this target.
    pub count: u64,
}

/// Execution statistics for a whole program, keyed by stable [`SiteId`]s so
/// the profile survives code transformation (the paper's IR lifting, §7).
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct Profile {
    direct: HashMap<SiteId, u64>,
    indirect: HashMap<SiteId, Vec<ValueProfileEntry>>,
    entries: HashMap<FuncId, u64>,
    returns: HashMap<FuncId, u64>,
}

/// Mutable views of a profile's four count maps (direct, indirect,
/// entries, returns), handed out by [`Profile::raw_mut`].
pub(crate) type RawCounts<'a> = (
    &'a mut HashMap<SiteId, u64>,
    &'a mut HashMap<SiteId, Vec<ValueProfileEntry>>,
    &'a mut HashMap<FuncId, u64>,
    &'a mut HashMap<FuncId, u64>,
);

impl Profile {
    /// Creates an empty profile.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one execution of the direct call at `site`.
    ///
    /// Counts saturate at `u64::MAX` instead of overflowing; a saturated
    /// count is flagged by [`Profile::validate_against`].
    pub fn record_direct(&mut self, site: SiteId) {
        let c = self.direct.entry(site).or_insert(0);
        *c = c.saturating_add(1);
    }

    /// Records one execution of the indirect call at `site` resolving to
    /// `target`.
    ///
    /// Entries are kept sorted by target so the in-memory representation is
    /// canonical — a profile equals its serialization round trip.
    pub fn record_indirect(&mut self, site: SiteId, target: FuncId) {
        let entries = self.indirect.entry(site).or_default();
        match entries.binary_search_by_key(&target, |e| e.target) {
            Ok(i) => entries[i].count = entries[i].count.saturating_add(1),
            Err(i) => entries.insert(i, ValueProfileEntry { target, count: 1 }),
        }
    }

    /// Records one invocation of `func`.
    pub fn record_entry(&mut self, func: FuncId) {
        let c = self.entries.entry(func).or_insert(0);
        *c = c.saturating_add(1);
    }

    /// Records one executed return from `func`.
    pub fn record_return(&mut self, func: FuncId) {
        let c = self.returns.entry(func).or_insert(0);
        *c = c.saturating_add(1);
    }

    /// Execution count of a direct call site (0 when never seen).
    pub fn direct_count(&self, site: SiteId) -> u64 {
        self.direct.get(&site).copied().unwrap_or(0)
    }

    /// Value profile of an indirect call site, sorted hottest-first.
    pub fn value_profile(&self, site: SiteId) -> Vec<ValueProfileEntry> {
        let mut v = self.indirect.get(&site).cloned().unwrap_or_default();
        v.sort_by(|a, b| b.count.cmp(&a.count).then(a.target.cmp(&b.target)));
        v
    }

    /// Total execution count of an indirect call site across all targets
    /// (saturating).
    pub fn indirect_count(&self, site: SiteId) -> u64 {
        self.indirect
            .get(&site)
            .map(|v| v.iter().fold(0u64, |a, e| a.saturating_add(e.count)))
            .unwrap_or(0)
    }

    /// Invocation count of a function (0 when never seen).
    pub fn entry_count(&self, func: FuncId) -> u64 {
        self.entries.get(&func).copied().unwrap_or(0)
    }

    /// Executed-return count of a function (0 when never seen).
    pub fn return_count(&self, func: FuncId) -> u64 {
        self.returns.get(&func).copied().unwrap_or(0)
    }

    /// Iterates over `(site, count)` for all profiled direct call sites.
    pub fn iter_direct(&self) -> impl Iterator<Item = (SiteId, u64)> + '_ {
        self.direct.iter().map(|(s, c)| (*s, *c))
    }

    /// Iterates over `(site, value_profile)` for all profiled indirect call
    /// sites.
    pub fn iter_indirect(&self) -> impl Iterator<Item = (SiteId, &[ValueProfileEntry])> + '_ {
        self.indirect.iter().map(|(s, v)| (*s, v.as_slice()))
    }

    /// Iterates over `(func, invocation_count)` for all profiled functions.
    pub fn iter_entries(&self) -> impl Iterator<Item = (FuncId, u64)> + '_ {
        self.entries.iter().map(|(f, c)| (*f, *c))
    }

    /// Iterates over `(func, executed_return_count)` for all profiled
    /// functions.
    pub fn iter_returns(&self) -> impl Iterator<Item = (FuncId, u64)> + '_ {
        self.returns.iter().map(|(f, c)| (*f, *c))
    }

    /// True when the profile recorded nothing at all.
    pub fn is_empty(&self) -> bool {
        self.direct.is_empty()
            && self.indirect.is_empty()
            && self.entries.is_empty()
            && self.returns.is_empty()
    }

    /// Merges `other` into `self` by summing counts — how the paper
    /// aggregates "all edge execution counts observed across all 11
    /// iterations" (§8).
    ///
    /// Sums saturate at `u64::MAX` rather than overflowing; a saturated
    /// count is reported by [`Profile::validate_against`] and clamped by
    /// [`Profile::repair_against`]. Long-lived accumulators that need to
    /// know *which* counters saturated should call
    /// [`Profile::merge_checked`] instead.
    pub fn merge(&mut self, other: &Profile) {
        let _ = self.merge_checked(other);
    }

    /// Merges `other` into `self` like [`Profile::merge`], additionally
    /// reporting every counter whose sum reached `u64::MAX` — an overflow
    /// that saturated, or a sum landing exactly on `u64::MAX`, which
    /// [`Profile::validate_against`] flags as saturated all the same.
    ///
    /// The merge itself is identical to `merge` — saturated counts are
    /// still written (callers that must not accept a lossy merge should
    /// merge into a clone and discard it when the report is dirty). The
    /// returned [`MergeReport`] lists each overflow as a typed
    /// [`MergeOverflow`] in deterministic (sorted) order, so a continuous
    /// profiling service can surface exactly which sites or functions
    /// exhausted their counters after weeks of epoch accumulation.
    pub fn merge_checked(&mut self, other: &Profile) -> MergeReport {
        /// Adds `c` to `mine`, saturating; true when the result is `u64::MAX`.
        fn add(mine: &mut u64, c: u64) -> bool {
            *mine = mine.saturating_add(c);
            *mine == u64::MAX
        }
        let mut overflows = Vec::new();
        for (s, c) in &other.direct {
            if add(self.direct.entry(*s).or_insert(0), *c) {
                overflows.push(MergeOverflow::Direct { site: *s });
            }
        }
        for (s, entries) in &other.indirect {
            let mine = self.indirect.entry(*s).or_default();
            for e in entries {
                let i = match mine.binary_search_by_key(&e.target, |m| m.target) {
                    Ok(i) => i,
                    Err(i) => {
                        mine.insert(i, ValueProfileEntry { count: 0, ..*e });
                        i
                    }
                };
                if add(&mut mine[i].count, e.count) {
                    overflows.push(MergeOverflow::Indirect {
                        site: *s,
                        target: e.target,
                    });
                }
            }
        }
        for (f, c) in &other.entries {
            if add(self.entries.entry(*f).or_insert(0), *c) {
                overflows.push(MergeOverflow::Entry { func: *f });
            }
        }
        for (f, c) in &other.returns {
            if add(self.returns.entry(*f).or_insert(0), *c) {
                overflows.push(MergeOverflow::Return { func: *f });
            }
        }
        // Hash-map iteration order is arbitrary; sort so the report is
        // deterministic for journals and tests.
        overflows.sort();
        MergeReport { overflows }
    }

    /// Raw mutable access to the count maps, for the sibling `health` and
    /// `chaos` modules (repair rewrites entries in place; fault injection
    /// plants corruptions the public API refuses to create).
    pub(crate) fn raw_mut(&mut self) -> RawCounts<'_> {
        (
            &mut self.direct,
            &mut self.indirect,
            &mut self.entries,
            &mut self.returns,
        )
    }

    /// Summary statistics. Weights saturate at `u64::MAX` rather than
    /// overflowing on pathological (e.g. fault-injected) profiles.
    pub fn stats(&self) -> ProfileStats {
        let sat = |it: &mut dyn Iterator<Item = u64>| it.fold(0u64, u64::saturating_add);
        ProfileStats {
            direct_sites: self.direct.len() as u64,
            indirect_sites: self.indirect.len() as u64,
            indirect_targets: self.indirect.values().map(|v| v.len() as u64).sum(),
            direct_weight: sat(&mut self.direct.values().copied()),
            indirect_weight: sat(&mut self
                .indirect
                .values()
                .flat_map(|v| v.iter().map(|e| e.count))),
            return_weight: sat(&mut self.returns.values().copied()),
        }
    }

    /// Distribution of indirect call sites by number of distinct observed
    /// targets: index 0 holds the count of 1-target sites, … index 5 of
    /// 6-target sites, index 6 of >6-target sites (the paper's Table 4).
    pub fn target_multiplicity_histogram(&self) -> [u64; 7] {
        let mut hist = [0u64; 7];
        for entries in self.indirect.values() {
            let n = entries.len();
            if n == 0 {
                continue;
            }
            let bucket = if n > 6 { 6 } else { n - 1 };
            hist[bucket] += 1;
        }
        hist
    }

    /// Serializes to pretty JSON (the artifact stores profiles as files the
    /// optimization run reads back).
    pub fn to_json(&self) -> String {
        // Hash maps with non-string keys need a stable, portable encoding:
        // emit sorted association lists.
        serde_json::to_string_pretty(&PortableProfile::from(self))
            .expect("profile serialization cannot fail")
    }

    /// Parses a profile previously produced by [`Profile::to_json`].
    ///
    /// # Errors
    /// Returns the underlying `serde_json` error when the input is not a
    /// valid profile document, or a semantic error when the document's
    /// association lists contain duplicate keys (a map-backed profile
    /// would silently keep only one of the conflicting counts).
    pub fn from_json(s: &str) -> Result<Self, serde_json::Error> {
        serde_json::from_str::<PortableProfile>(s)?.try_into()
    }
}

/// Stable on-disk representation (sorted association lists).
#[derive(Serialize, Deserialize)]
struct PortableProfile {
    direct: Vec<(SiteId, u64)>,
    indirect: Vec<(SiteId, Vec<ValueProfileEntry>)>,
    entries: Vec<(FuncId, u64)>,
    returns: Vec<(FuncId, u64)>,
}

impl From<&Profile> for PortableProfile {
    fn from(p: &Profile) -> Self {
        let mut direct: Vec<_> = p.direct.iter().map(|(s, c)| (*s, *c)).collect();
        direct.sort_by_key(|(s, _)| *s);
        let mut indirect: Vec<_> = p
            .indirect
            .iter()
            .map(|(s, v)| {
                let mut v = v.clone();
                v.sort_by_key(|e| e.target);
                (*s, v)
            })
            .collect();
        indirect.sort_by_key(|(s, _)| *s);
        let mut entries: Vec<_> = p.entries.iter().map(|(f, c)| (*f, *c)).collect();
        entries.sort_by_key(|(f, _)| *f);
        let mut returns: Vec<_> = p.returns.iter().map(|(f, c)| (*f, *c)).collect();
        returns.sort_by_key(|(f, _)| *f);
        PortableProfile {
            direct,
            indirect,
            entries,
            returns,
        }
    }
}

/// Collects an association list into a map, rejecting duplicate keys:
/// plain `collect()` would keep the last occurrence and silently drop the
/// other count, corrupting the profile on ambiguous input.
fn collect_unique<K, V>(pairs: Vec<(K, V)>, what: &str) -> Result<HashMap<K, V>, serde_json::Error>
where
    K: std::hash::Hash + Eq + Copy + std::fmt::Debug,
{
    let mut map = HashMap::with_capacity(pairs.len());
    for (k, v) in pairs {
        if map.insert(k, v).is_some() {
            return Err(serde_json::Error::custom(format!(
                "duplicate {what} key {k:?} in profile document"
            )));
        }
    }
    Ok(map)
}

impl TryFrom<PortableProfile> for Profile {
    type Error = serde_json::Error;

    fn try_from(p: PortableProfile) -> Result<Self, serde_json::Error> {
        Ok(Profile {
            direct: collect_unique(p.direct, "direct-site")?,
            indirect: collect_unique(p.indirect, "indirect-site")?,
            entries: collect_unique(p.entries, "entry")?,
            returns: collect_unique(p.returns, "return")?,
        })
    }
}

/// One counter that reached `u64::MAX` during a
/// [`Profile::merge_checked`] (by overflowing or by summing to it exactly),
/// identified by the key the profile stores it under.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum MergeOverflow {
    /// A direct call site's execution count saturated.
    Direct {
        /// The saturated call site.
        site: SiteId,
    },
    /// One `(site, target)` tuple of an indirect site's value profile
    /// saturated.
    Indirect {
        /// The indirect call site.
        site: SiteId,
        /// The target whose tuple saturated.
        target: FuncId,
    },
    /// A function's invocation count saturated.
    Entry {
        /// The saturated function.
        func: FuncId,
    },
    /// A function's executed-return count saturated.
    Return {
        /// The saturated function.
        func: FuncId,
    },
}

impl std::fmt::Display for MergeOverflow {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MergeOverflow::Direct { site } => {
                write!(f, "direct count at {site:?} saturated at u64::MAX")
            }
            MergeOverflow::Indirect { site, target } => {
                write!(
                    f,
                    "value profile ({site:?}, {target:?}) saturated at u64::MAX"
                )
            }
            MergeOverflow::Entry { func } => {
                write!(f, "entry count of {func:?} saturated at u64::MAX")
            }
            MergeOverflow::Return { func } => {
                write!(f, "return count of {func:?} saturated at u64::MAX")
            }
        }
    }
}

/// Result of a [`Profile::merge_checked`]: every counter that reached
/// `u64::MAX`, in deterministic sorted order.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct MergeReport {
    /// The saturated counters, sorted.
    pub overflows: Vec<MergeOverflow>,
}

impl MergeReport {
    /// True when every merged sum stayed below `u64::MAX`: the merge was
    /// exact and [`Profile::validate_against`] finds no saturated count.
    pub fn is_clean(&self) -> bool {
        self.overflows.is_empty()
    }
}

/// Aggregate statistics over a [`Profile`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct ProfileStats {
    /// Number of distinct direct call sites observed.
    pub direct_sites: u64,
    /// Number of distinct indirect call sites observed.
    pub indirect_sites: u64,
    /// Total distinct `(site, target)` pairs observed.
    pub indirect_targets: u64,
    /// Sum of direct call counts.
    pub direct_weight: u64,
    /// Sum of indirect call counts.
    pub indirect_weight: u64,
    /// Sum of executed returns.
    pub return_weight: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn site(n: u64) -> SiteId {
        SiteId::from_raw(n)
    }
    fn func(n: u32) -> FuncId {
        FuncId::from_raw(n)
    }

    #[test]
    fn direct_counts_accumulate() {
        let mut p = Profile::new();
        p.record_direct(site(1));
        p.record_direct(site(1));
        p.record_direct(site(2));
        assert_eq!(p.direct_count(site(1)), 2);
        assert_eq!(p.direct_count(site(2)), 1);
        assert_eq!(p.direct_count(site(3)), 0);
    }

    #[test]
    fn value_profile_sorts_hottest_first() {
        let mut p = Profile::new();
        for _ in 0..3 {
            p.record_indirect(site(1), func(10));
        }
        p.record_indirect(site(1), func(20));
        let vp = p.value_profile(site(1));
        assert_eq!(vp.len(), 2);
        assert_eq!(vp[0].target, func(10));
        assert_eq!(vp[0].count, 3);
        assert_eq!(p.indirect_count(site(1)), 4);
    }

    #[test]
    fn merge_sums_counts_across_runs() {
        let mut a = Profile::new();
        a.record_direct(site(1));
        a.record_indirect(site(2), func(1));
        a.record_entry(func(1));
        a.record_return(func(1));
        let mut b = Profile::new();
        b.record_direct(site(1));
        b.record_indirect(site(2), func(1));
        b.record_indirect(site(2), func(2));
        a.merge(&b);
        assert_eq!(a.direct_count(site(1)), 2);
        assert_eq!(a.indirect_count(site(2)), 3);
        assert_eq!(a.value_profile(site(2)).len(), 2);
        assert_eq!(a.entry_count(func(1)), 1);
        assert_eq!(a.return_count(func(1)), 1);
    }

    #[test]
    fn json_roundtrip_is_lossless() {
        let mut p = Profile::new();
        p.record_direct(site(9));
        p.record_indirect(site(3), func(4));
        p.record_entry(func(4));
        p.record_return(func(4));
        let json = p.to_json();
        let back = Profile::from_json(&json).unwrap();
        assert_eq!(p, back);
    }

    #[test]
    fn from_json_rejects_garbage() {
        assert!(Profile::from_json("not json").is_err());
    }

    #[test]
    fn multiplicity_histogram_buckets_correctly() {
        let mut p = Profile::new();
        // site 1: 1 target, site 2: 2 targets, site 3: 8 targets.
        p.record_indirect(site(1), func(0));
        p.record_indirect(site(2), func(0));
        p.record_indirect(site(2), func(1));
        for t in 0..8 {
            p.record_indirect(site(3), func(t));
        }
        let h = p.target_multiplicity_histogram();
        assert_eq!(h[0], 1);
        assert_eq!(h[1], 1);
        assert_eq!(h[6], 1);
        assert_eq!(h[2] + h[3] + h[4] + h[5], 0);
    }

    #[test]
    fn stats_aggregate_all_dimensions() {
        let mut p = Profile::new();
        p.record_direct(site(1));
        p.record_direct(site(1));
        p.record_indirect(site(2), func(1));
        p.record_return(func(1));
        let s = p.stats();
        assert_eq!(s.direct_sites, 1);
        assert_eq!(s.direct_weight, 2);
        assert_eq!(s.indirect_sites, 1);
        assert_eq!(s.indirect_targets, 1);
        assert_eq!(s.indirect_weight, 1);
        assert_eq!(s.return_weight, 1);
    }
}
