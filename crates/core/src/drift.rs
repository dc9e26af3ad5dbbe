//! Decision-surface drift detection for continuous PGO.
//!
//! A long-lived re-optimization service (the `pibe-serve` crate) ingests a
//! stream of profile deltas. Most epochs only nudge counters that no
//! optimization decision depends on — rebuilding the image from scratch for
//! those epochs wastes the whole epoch budget. This module computes, for a
//! fixed base module and pipeline configuration, the **decision surface** of
//! a profile: the exact outputs of every profile-driven selection the
//! pipeline makes. Two profiles with equal surfaces drive the pipeline
//! through *identical* decision sequences and therefore produce
//! *bit-identical* images; a surface change pinpoints the functions whose
//! hotness crossed an optimization-decision threshold.
//!
//! The surface runs the passes' own selection code — ICP's
//! [`plan_promotions`], the inliner's [`rule1_selection`] and the
//! pipeline's DCE root rule — rather than approximating it by rank: budget
//! prefixes depend on the *total* population weight, the inliner compares
//! *computed* propagated weights (`round(w × ε / entries)`) against the
//! selection floor, and boundary ties break on the pass's own candidate
//! order — all of which make any rank- or ratio-based abstraction unsound
//! (a uniform ×2 scale can flip a rounded propagated weight across the
//! floor). What the passes read from the module comes from its memoized
//! call table ([`Module::call_sites`]), which the base's profile
//! validation has already filled, so computing a surface never walks
//! function bodies. The surface stores:
//!
//! * **ICP**: the plan itself — the promoted sites in promotion order with
//!   their promoted `(fresh site, target, weight)` lists, so downstream
//!   facts can refer to promoted sites across epochs;
//! * **inlining**: the budget-selected candidate prefix (with the pass's
//!   exact `(weight, site, caller, callee)` ordering), the selection floor,
//!   the lax floor, and — because propagation reads callee entry counts and
//!   copied-site weights — the exact per-function facts for the transitive
//!   callee closure of the selected candidates;
//! * **DCE**: the profile-coverage root and address-taken function sets.
//!
//! Equality of all components is a proof of decision equality; the serve
//! soak additionally cross-checks every epoch against a from-scratch build
//! with the difftest bit-identity oracle.

use crate::config::PibeConfig;
use crate::pipeline::dce_roots;
use pibe_ir::{FuncId, Module, SiteId};
use pibe_passes::{plan_promotions, rule1_selection, IcpSiteDecision, InlinerConfig};
use pibe_profile::{BudgetRanking, Profile};
use std::collections::{BTreeMap, BTreeSet, HashMap, VecDeque};

/// One budget-selected inline candidate, with the pass's exact field and
/// tie order (`weight`, then `site`, then `caller`, then `callee`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct InlineCandidate {
    /// Profiled (or promoted, or propagated) execution weight.
    pub weight: u64,
    /// The direct call site.
    pub site: SiteId,
    /// The calling function.
    pub caller: FuncId,
    /// The static callee.
    pub callee: FuncId,
}

/// The exact per-function facts inline propagation reads: the callee's
/// invocation count and the weights of every direct call site it owns.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ClosureFacts {
    /// `profile.entry_count` of the function.
    pub entry_count: u64,
    /// `(site, weight)` of every direct call site the function owns
    /// (original body sites plus ICP-promoted sites), sorted by site.
    pub site_weights: Vec<(SiteId, u64)>,
}

/// The full decision surface of a `(base module, profile, config)` triple.
///
/// Equality of two surfaces computed over the same base module and
/// [`PibeConfig`] implies the pipeline makes identical decisions for both
/// profiles, hence produces bit-identical images.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct DecisionSurface {
    /// Promoted sites in promotion order (order-sensitive: it drives
    /// fresh-site allocation).
    pub icp: Vec<IcpSiteDecision>,
    /// The inliner's budget-selected prefix, hottest first.
    pub inline_selected: Vec<InlineCandidate>,
    /// The coldest selected weight (`u64::MAX` when nothing is selected).
    pub inline_floor: u64,
    /// The lax-heuristics exemption floor (`u64::MAX` when lax is off).
    pub lax_floor: u64,
    /// Propagation facts for the transitive callee closure of the selected
    /// candidates, keyed by function.
    pub closure: BTreeMap<FuncId, ClosureFacts>,
    /// Profile-coverage DCE roots (entry-profiled functions in range).
    pub dce_roots: BTreeSet<FuncId>,
    /// True when the root set is empty and DCE therefore roots every
    /// function.
    pub dce_all_roots: bool,
    /// Value-profile target functions DCE treats as address-taken.
    pub dce_taken: BTreeSet<FuncId>,
}

impl DecisionSurface {
    /// Computes the decision surface of `profile` over `module` for the
    /// selections `config` enables.
    pub fn compute(module: &Module, profile: &Profile, config: &PibeConfig) -> Self {
        let mut surface = DecisionSurface {
            inline_floor: u64::MAX,
            lax_floor: u64::MAX,
            ..DecisionSurface::default()
        };
        if let Some(icp) = &config.icp {
            surface.icp = plan_promotions(module, profile, icp).0;
        }
        if let Some(inliner) = &config.inliner {
            inline_surface(module, profile, inliner, &mut surface);
        }
        if config.dce {
            match dce_roots(profile) {
                Some((roots, taken)) => {
                    surface.dce_roots = roots.into_iter().collect();
                    surface.dce_taken = taken.into_iter().collect();
                }
                None => surface.dce_all_roots = true,
            }
        }
        surface
    }

    /// Diffs two surfaces computed over the same module and config,
    /// attributing changes to functions.
    pub fn diff(&self, newer: &DecisionSurface) -> DriftReport {
        let mut report = DriftReport {
            unchanged: self == newer,
            ..DriftReport::default()
        };
        if report.unchanged {
            return report;
        }
        // ICP: sites whose promotion decision (or position) changed.
        let as_map = |v: &[IcpSiteDecision]| -> HashMap<SiteId, (usize, IcpSiteDecision)> {
            v.iter()
                .enumerate()
                .map(|(i, d)| (d.site, (i, d.clone())))
                .collect()
        };
        let old_icp = as_map(&self.icp);
        let new_icp = as_map(&newer.icp);
        for (site, (pos, d)) in &old_icp {
            if new_icp.get(site).map(|(p, n)| (p, n)) != Some((pos, d)) {
                report.icp_sites_changed += 1;
                report.drifted.insert(d.owner);
            }
        }
        for (site, (_, d)) in &new_icp {
            if !old_icp.contains_key(site) {
                report.icp_sites_changed += 1;
                report.drifted.insert(d.owner);
            }
        }
        // Inlining: symmetric difference of the selected prefixes, plus
        // everything selected when a floor moved (floor changes can flip
        // propagation decisions in any selected caller).
        let old_sel: BTreeSet<&InlineCandidate> = self.inline_selected.iter().collect();
        let new_sel: BTreeSet<&InlineCandidate> = newer.inline_selected.iter().collect();
        for c in old_sel.symmetric_difference(&new_sel) {
            report.inline_candidates_changed += 1;
            report.drifted.insert(c.caller);
        }
        if self.inline_floor != newer.inline_floor || self.lax_floor != newer.lax_floor {
            report.floors_changed = true;
            for c in old_sel.union(&new_sel) {
                report.drifted.insert(c.caller);
            }
        }
        for (f, facts) in &self.closure {
            if newer.closure.get(f) != Some(facts) {
                report.closure_functions_changed += 1;
                report.drifted.insert(*f);
            }
        }
        for f in newer.closure.keys() {
            if !self.closure.contains_key(f) {
                report.closure_functions_changed += 1;
                report.drifted.insert(*f);
            }
        }
        // DCE: set-level change affects the whole image numbering.
        if self.dce_roots != newer.dce_roots
            || self.dce_all_roots != newer.dce_all_roots
            || self.dce_taken != newer.dce_taken
        {
            report.dce_changed = true;
            for f in self.dce_roots.symmetric_difference(&newer.dce_roots) {
                report.drifted.insert(*f);
            }
            for f in self.dce_taken.symmetric_difference(&newer.dce_taken) {
                report.drifted.insert(*f);
            }
        }
        report
    }
}

/// What changed between two epochs' decision surfaces.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct DriftReport {
    /// True when the surfaces are identical — the pipeline would make the
    /// exact same decisions, so the previous image can be served as-is.
    pub unchanged: bool,
    /// Functions whose optimization decisions changed (attribution for
    /// reporting; correctness rests only on `unchanged`).
    pub drifted: BTreeSet<FuncId>,
    /// Promoted indirect sites added, removed, or reordered.
    pub icp_sites_changed: usize,
    /// Inline candidates entering or leaving the selected prefix.
    pub inline_candidates_changed: usize,
    /// Closure functions whose propagation facts changed.
    pub closure_functions_changed: usize,
    /// True when a selection or lax floor moved.
    pub floors_changed: bool,
    /// True when the DCE root or address-taken set changed.
    pub dce_changed: bool,
}

impl DriftReport {
    /// Number of functions whose decisions drifted.
    pub fn drifted_functions(&self) -> usize {
        self.drifted.len()
    }
}

/// Runs the inliner's Rule 1 selection over the post-ICP candidate
/// population (`surface.icp` holds the promotions) and collects the
/// propagation closure facts.
fn inline_surface(
    module: &Module,
    profile: &Profile,
    config: &InlinerConfig,
    surface: &mut DecisionSurface,
) {
    // Candidate population: every profiled direct call site of the base
    // module plus every ICP-promoted site. Zero-weight sites are inert
    // (never selected, contribute no budget weight) and are omitted.
    let table = module.call_sites();
    let mut population: Vec<(InlineCandidate, u64)> = Vec::new();
    let mut push = |caller, site, callee, weight| {
        if weight > 0 {
            let candidate = InlineCandidate {
                weight,
                site,
                caller,
                callee,
            };
            population.push((candidate, weight));
        }
    };
    for caller in module.func_ids() {
        for (site, callee) in table.direct_calls(caller) {
            push(caller, site, callee, profile.direct_count(site));
        }
    }
    let mut promoted: HashMap<FuncId, Vec<(SiteId, FuncId, u64)>> = HashMap::new();
    for d in &surface.icp {
        for &(site, callee, w) in &d.promos {
            push(d.owner, site, callee, w);
        }
        promoted.entry(d.owner).or_default().extend(&d.promos);
    }

    let ranking = BudgetRanking::new(&population);
    let (selected, inline_floor, lax_floor) = rule1_selection(&ranking, config);
    surface.inline_selected = selected.iter().map(|(c, _)| *c).collect();
    surface.inline_floor = inline_floor;
    surface.lax_floor = lax_floor;

    // Propagation facts: inlining a candidate copies the callee's direct
    // sites (with their original ids) into the caller and re-ranks them by
    // `round(site_weight × cand.weight / entry_count(callee))`, so the
    // decisions reachable from the selected set depend on the entry counts
    // and site weights of the transitive callee closure over the post-ICP
    // direct-call graph.
    let mut queue: VecDeque<FuncId> = surface.inline_selected.iter().map(|c| c.callee).collect();
    let mut seen: BTreeSet<FuncId> = BTreeSet::new();
    while let Some(f) = queue.pop_front() {
        if f.index() >= module.len() || !seen.insert(f) {
            continue;
        }
        let mut facts = ClosureFacts {
            entry_count: profile.entry_count(f),
            site_weights: Vec::new(),
        };
        let body = table
            .direct_calls(f)
            .map(|(s, c)| (s, c, profile.direct_count(s)));
        let icp = promoted.get(&f).into_iter().flatten().copied();
        for (site, callee, w) in body.chain(icp) {
            if w > 0 {
                facts.site_weights.push((site, w));
            }
            queue.push_back(callee);
        }
        facts.site_weights.sort_unstable();
        surface.closure.insert(f, facts);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::{Image, Stage, StageSnapshot};
    use pibe_harden::DefenseSet;
    use pibe_ir::{FunctionBuilder, Inst, OpKind};
    use pibe_kernel::measure::collect_profile;
    use pibe_kernel::workloads::{lmbench_suite, WorkloadSpec};
    use pibe_kernel::{Kernel, KernelSpec};
    use pibe_passes::IcpConfig;
    use pibe_profile::Budget;
    use std::cell::RefCell;

    /// leaf0, leaf1, mid (calls leaf0), root (calls mid, icall site).
    fn fixture() -> (Module, Profile, Vec<SiteId>, SiteId) {
        let mut m = Module::new("m");
        let mut leaves = Vec::new();
        for i in 0..2 {
            let mut b = FunctionBuilder::new(format!("leaf{i}"), 0);
            b.op(OpKind::Alu);
            b.ret();
            leaves.push(m.add_function(b.build()));
        }
        let s_mid_leaf = m.fresh_site();
        let mut b = FunctionBuilder::new("mid", 0);
        b.call(s_mid_leaf, leaves[0], 0);
        b.ret();
        let mid = m.add_function(b.build());
        let s_root_mid = m.fresh_site();
        let s_icall = m.fresh_site();
        let mut b = FunctionBuilder::new("root", 0);
        b.call(s_root_mid, mid, 0);
        b.call_indirect(s_icall, 0);
        b.ret();
        m.add_function(b.build());

        let mut p = Profile::new();
        for _ in 0..1000 {
            p.record_direct(s_root_mid);
            p.record_entry(mid);
        }
        for _ in 0..800 {
            p.record_direct(s_mid_leaf);
            p.record_entry(leaves[0]);
        }
        for _ in 0..600 {
            p.record_indirect(s_icall, leaves[1]);
            p.record_entry(leaves[1]);
        }
        (m, p, vec![s_root_mid, s_mid_leaf], s_icall)
    }

    fn config() -> PibeConfig {
        PibeConfig::builder()
            .icp(Budget::P99_999)
            .inliner(Budget::P99_9)
            .dce(true)
            .build()
    }

    #[test]
    fn surface_is_deterministic() {
        let (m, p, _, _) = fixture();
        let a = DecisionSurface::compute(&m, &p, &config());
        let b = DecisionSurface::compute(&m, &p, &config());
        assert_eq!(a, b);
        assert!(a.diff(&b).unchanged);
        assert!(!a.icp.is_empty());
        assert!(!a.inline_selected.is_empty());
        assert!(!a.closure.is_empty());
    }

    #[test]
    fn hot_count_change_drifts() {
        let (m, p, sites, _) = fixture();
        let before = DecisionSurface::compute(&m, &p, &config());
        let mut p2 = p.clone();
        p2.record_direct(sites[0]); // hottest selected site: exact weight is on the surface
        let after = DecisionSurface::compute(&m, &p2, &config());
        let report = before.diff(&after);
        assert!(!report.unchanged);
        assert!(report.drifted_functions() >= 1);
    }

    #[test]
    fn decision_irrelevant_count_change_does_not_drift() {
        let (m, p, _, _) = fixture();
        let before = DecisionSurface::compute(&m, &p, &config());
        let mut p2 = p.clone();
        // Returns feed no selection; entry counts of already-rooted
        // non-closure functions only matter as a key set.
        let root_fn = FuncId::from_raw(3);
        p2.record_return(root_fn);
        let after = DecisionSurface::compute(&m, &p2, &config());
        assert!(before.diff(&after).unchanged);
    }

    #[test]
    fn new_entry_key_drifts_dce_roots() {
        let (m, p, _, _) = fixture();
        let before = DecisionSurface::compute(&m, &p, &config());
        let mut p2 = p.clone();
        p2.record_entry(FuncId::from_raw(3)); // root was not a DCE root before
        let after = DecisionSurface::compute(&m, &p2, &config());
        let report = before.diff(&after);
        assert!(!report.unchanged);
        assert!(report.dce_changed);
    }

    /// `fa` and an `optnone` `fb` both hold indirect site `s`: two
    /// profiles that only swap `s`'s target counts give equal surfaces
    /// exactly when they build equal images.
    #[test]
    fn surface_equality_tracks_images_for_a_shared_site() {
        let mut m = Module::new("m");
        let s = m.fresh_site();
        let mut add = |name: &str, holds: bool, optnone: bool| {
            let mut b = FunctionBuilder::new(name, 0);
            b.attrs(pibe_ir::FnAttrs {
                optnone,
                ..Default::default()
            });
            if holds {
                b.call_indirect(s, 0);
            }
            b.ret();
            m.add_function(b.build())
        };
        let (t0, t1) = (add("t0", false, false), add("t1", false, false));
        add("fa", true, false);
        add("fb", true, true);
        let profile = |hot: FuncId, cold: FuncId| {
            let mut p = Profile::new();
            for (t, n) in [(hot, 2), (cold, 1)] {
                (0..n).for_each(|_| p.record_indirect(s, t));
                p.record_entry(t);
            }
            p
        };
        let (p1, p2) = (profile(t0, t1), profile(t1, t0));
        let config = PibeConfig::builder().icp(Budget::P99_999).build();
        let image = |p: &Profile| {
            let image = Image::builder(&m).profile(p).config(config).build();
            image.expect("builds").module.to_string()
        };
        let surface = |p: &Profile| DecisionSurface::compute(&m, p, &config);
        assert_eq!(surface(&p1) == surface(&p2), image(&p1) == image(&p2));
    }

    /// The surface and the pipeline agree on every decision the surface
    /// records: the promoted sites and targets, the inliner's selected
    /// prefix, and the fresh site (and callee) of each promoted call.
    #[test]
    fn surface_agrees_with_the_pipeline() {
        let k = Kernel::generate(KernelSpec::test());
        let p = collect_profile(&k, &WorkloadSpec::lmbench(), &lmbench_suite(6), 2, 7)
            .expect("profiling run succeeds");
        let capped = IcpConfig {
            budget: Budget::P99_9999,
            max_targets_per_site: Some(1),
        };
        let configs = [
            PibeConfig::lax(DefenseSet::ALL).with_dce(true),
            PibeConfig::builder()
                .lax()
                .icp_config(capped)
                .defenses(DefenseSet::ALL)
                .dce(true)
                .build(),
        ];
        for config in configs {
            let calls: RefCell<HashMap<SiteId, FuncId>> = RefCell::default();
            let observe = |s: StageSnapshot<'_>| {
                if s.stage == Stage::Icp {
                    for f in s.module.functions() {
                        for inst in f.insts() {
                            if let Inst::Call { site, callee, .. } = inst {
                                calls.borrow_mut().insert(*site, *callee);
                            }
                        }
                    }
                }
            };
            let image = Image::builder(&k.module)
                .profile(&p)
                .config(config)
                .observe_stages(&observe)
                .build()
                .expect("builds");
            let surface = DecisionSurface::compute(&k.module, &p, &config);
            let icp = image.icp_stats.expect("ICP ran");
            let inline = image.inline_stats.expect("the inliner ran");

            assert!(!surface.icp.is_empty(), "{config:?}");
            assert_eq!(surface.icp.len() as u64, icp.promoted_sites);
            let promos: Vec<_> = surface.icp.iter().flat_map(|d| &d.promos).collect();
            assert_eq!(promos.len() as u64, icp.promoted_targets);
            assert_eq!(surface.inline_selected.len() as u64, inline.candidate_sites);
            let calls = calls.into_inner();
            for &&(fresh, target, _) in &promos {
                assert_eq!(calls.get(&fresh), Some(&target), "fresh site {fresh:?}");
            }
        }
    }
}
