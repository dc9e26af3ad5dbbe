//! The lifted site-weight table shared between passes.

use pibe_ir::SiteId;
use pibe_profile::Profile;
use std::collections::HashMap;

/// Execution weights per direct call site, lifted from a [`Profile`] and
/// kept up to date across transformations.
///
/// ICP inserts fresh promoted-call sites here with their value-profile
/// counts; the inliner reads the table to rank candidates. This mirrors the
/// paper's profile lifting (§7): the optimization phase works on IR-level
/// weights that survive and track code transformation.
#[derive(Debug, Clone, Default)]
pub struct SiteWeights {
    map: HashMap<SiteId, u64>,
}

impl SiteWeights {
    /// Creates an empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Lifts the direct-call counts of `profile`.
    pub fn from_profile(profile: &Profile) -> Self {
        SiteWeights {
            map: profile.iter_direct().collect(),
        }
    }

    /// Weight of `site` (0 when unknown).
    pub fn get(&self, site: SiteId) -> u64 {
        self.map.get(&site).copied().unwrap_or(0)
    }

    /// Sets the weight of a (typically freshly created) site.
    pub fn set(&mut self, site: SiteId, weight: u64) {
        self.map.insert(site, weight);
    }

    /// Iterates over `(site, weight)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (SiteId, u64)> + '_ {
        self.map.iter().map(|(s, w)| (*s, *w))
    }

    /// Number of known sites.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// True when no weights are known.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pibe_ir::FuncId;

    #[test]
    fn lifts_direct_counts_from_profile() {
        let mut p = Profile::new();
        let s = SiteId::from_raw(4);
        p.record_direct(s);
        p.record_direct(s);
        p.record_indirect(SiteId::from_raw(5), FuncId::from_raw(0));
        let w = SiteWeights::from_profile(&p);
        assert_eq!(w.get(s), 2);
        assert_eq!(w.get(SiteId::from_raw(5)), 0, "indirect counts excluded");
        assert_eq!(w.len(), 1);
    }

    #[test]
    fn set_overrides_and_get_defaults_to_zero() {
        let mut w = SiteWeights::new();
        assert!(w.is_empty());
        let s = SiteId::from_raw(1);
        w.set(s, 10);
        w.set(s, 20);
        assert_eq!(w.get(s), 20);
        assert_eq!(w.iter().count(), 1);
    }
}
