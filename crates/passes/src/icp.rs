//! Indirect call promotion (§5.3).
//!
//! "Indirect call promotion uses profiling information to determine the most
//! common target(s) for an indirect call site and then adds conditional
//! direct calls to those targets. The indirect call site itself remains as a
//! fallback."
//!
//! PIBE's twist: because hardened slow paths are so expensive (a retpoline
//! is ~21 cycles) while a guard is ~2 cycles, there is **no cap** on the
//! number of targets promoted from a single site — unlike conventional ICP
//! (and unlike JumpSwitches, whose inline chain is slot-limited).
//!
//! The transform turns
//!
//! ```text
//! call *ptr          ; site s
//! ```
//!
//! into the guard chain of Listing 2:
//!
//! ```text
//!         resolve s
//!         br (s == t0) ? direct0 : guard1
//! guard1: br (s == t1) ? direct1 : fallback
//! direct0: call t0 ; jmp merge
//! direct1: call t1 ; jmp merge
//! fallback: call *resolved ; jmp merge
//! merge:  ...rest of block
//! ```
//!
//! Each promoted direct call receives a fresh [`SiteId`] whose estimated
//! weight (the value-profile count) is recorded in the shared
//! [`SiteWeights`] table so the inliner can elide it next.

use crate::weights::SiteWeights;
use pibe_ir::{BlockId, Cond, FuncId, Inst, Module, SiteId, Terminator};
use pibe_profile::{select_by_budget, Budget, Profile};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;

/// ICP tuning knobs.
///
/// Configurations are hashable so image caches (the `ImageFarm` in the core
/// crate) can key builds by the exact configuration that produced them.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct IcpConfig {
    /// Optimization budget over cumulative `(site, target)` weight.
    pub budget: Budget,
    /// Cap on promoted targets per site. PIBE uses `None` (unlimited,
    /// §5.3); conventional ICP implementations use `Some(1)` or `Some(2)` —
    /// exposed for the ablation benchmarks.
    pub max_targets_per_site: Option<usize>,
}

impl Default for IcpConfig {
    fn default() -> Self {
        IcpConfig {
            budget: Budget::P99_999,
            max_targets_per_site: None,
        }
    }
}

/// What promotion did — feeding Tables 3, 8, and 10.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct IcpStats {
    /// Total `(site, target)` weight observed (candidate population).
    pub total_weight: u64,
    /// Distinct profiled indirect call sites.
    pub total_sites: u64,
    /// Distinct profiled `(site, target)` pairs.
    pub total_targets: u64,
    /// `(site, target)` pairs selected by the budget.
    pub candidate_targets: u64,
    /// Sites touched by promotion (Table 8 "call sites").
    pub promoted_sites: u64,
    /// Targets promoted (Table 8 "call targets").
    pub promoted_targets: u64,
    /// Dynamic weight promoted to direct calls.
    pub promoted_weight: u64,
    /// Selected sites skipped because no function holds them unresolved,
    /// their owner is `optnone`, or they are inline assembly.
    pub skipped_sites: u64,
}

/// One promoted indirect site: the site, its owner, and the ordered
/// promoted targets with the fresh direct-call [`SiteId`]s the pass
/// allocates for them.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IcpSiteDecision {
    /// The promoted indirect call site.
    pub site: SiteId,
    /// The function owning the site (`CallSites::indirect_owner`).
    pub owner: FuncId,
    /// `(fresh site, target, weight)` in guard-chain order.
    pub promos: Vec<(SiteId, FuncId, u64)>,
}

/// ICP's plan for `module` under `profile`: every decision the pass makes,
/// computed without touching the module.
///
/// Gathers every profiled `(site, target)` pair, selects the hottest prefix
/// covering `config.budget`, and groups the selected targets per site in
/// selection order (hottest first), keeping at most
/// `config.max_targets_per_site` per site. Each site then goes to the owner
/// the module's call table names; a site with no owner, an `optnone` owner
/// or an inline-asm instance is skipped. Promoted sites number their fresh
/// direct-call sites from [`Module::peek_next_site`] in promotion order.
///
/// Returns the promotions in order and the stats the pass reports. This is
/// the one copy of ICP's rules: [`promote_indirect_calls`] applies it, and
/// the serve loop's decision surface records it.
pub fn plan_promotions(
    module: &Module,
    profile: &Profile,
    config: &IcpConfig,
) -> (Vec<IcpSiteDecision>, IcpStats) {
    plan(module, profile, config, |_, _| {})
}

/// [`plan_promotions`], reporting each skipped site and its reason to
/// `skip`.
fn plan(
    module: &Module,
    profile: &Profile,
    config: &IcpConfig,
    mut skip: impl FnMut(SiteId, &'static str),
) -> (Vec<IcpSiteDecision>, IcpStats) {
    let mut stats = IcpStats::default();
    let mut candidates: Vec<((SiteId, FuncId), u64)> = Vec::new();
    for (site, entries) in profile.iter_indirect() {
        stats.total_sites += 1;
        for e in entries {
            stats.total_targets += 1;
            stats.total_weight += e.count;
            candidates.push(((site, e.target), e.count));
        }
    }

    let selected = select_by_budget(&candidates, config.budget);
    stats.candidate_targets = selected.len() as u64;

    let mut plans: Vec<(SiteId, Vec<(FuncId, u64)>)> = Vec::new();
    let mut slot: HashMap<SiteId, usize> = HashMap::new();
    for ((site, target), w) in selected {
        let i = *slot.entry(site).or_insert_with(|| {
            plans.push((site, Vec::new()));
            plans.len() - 1
        });
        let targets = &mut plans[i].1;
        if config
            .max_targets_per_site
            .is_none_or(|cap| targets.len() < cap)
        {
            targets.push((target, w));
        }
    }

    // A cap of 0 leaves selected sites without targets: they promote
    // nothing, so they are dropped before any owner lookup or fresh-site
    // numbering. Skip rules allocate no fresh sites either.
    plans.retain(|(_, targets)| !targets.is_empty());
    let table = module.call_sites();
    let mut next = module.peek_next_site();
    let mut decisions = Vec::with_capacity(plans.len());
    for (site, targets) in plans {
        let reason = match table.indirect_owner(site) {
            // Profiled site no longer exists (e.g. DCE'd); nothing to do.
            None => "no_owner",
            Some((owner, _)) if module.function(owner).attrs().optnone => "optnone",
            // Cannot touch inline asm.
            Some((_, true)) => "asm",
            Some((owner, false)) => {
                stats.promoted_sites += 1;
                stats.promoted_targets += targets.len() as u64;
                let promos = targets
                    .into_iter()
                    .map(|(t, w)| {
                        stats.promoted_weight += w;
                        let fresh = SiteId::from_raw(next);
                        next += 1;
                        (fresh, t, w)
                    })
                    .collect();
                decisions.push(IcpSiteDecision {
                    site,
                    owner,
                    promos,
                });
                continue;
            }
        };
        stats.skipped_sites += 1;
        skip(site, reason);
    }
    (decisions, stats)
}

/// Runs indirect call promotion over `module`, updating `weights` with the
/// estimated counts of the freshly created direct-call sites.
///
/// Promotion must run *before* the inliner (it is what creates the inliner's
/// hottest candidates); the paper's pipeline does the same.
pub fn promote_indirect_calls(
    module: &mut Module,
    weights: &mut SiteWeights,
    profile: &Profile,
    config: &IcpConfig,
) -> IcpStats {
    let _pass_span = pibe_trace::span("pass.icp");
    let (decisions, stats) = plan(module, profile, config, |site, reason| {
        pibe_trace::event_args("icp.skip", || {
            vec![
                ("site", pibe_trace::Value::from(site.raw())),
                ("reason", pibe_trace::Value::from(reason)),
            ]
        });
    });
    for d in &decisions {
        promote_site(module, weights, d);
        pibe_trace::event_args("icp.promote", || {
            vec![
                ("site", pibe_trace::Value::from(d.site.raw())),
                ("targets", pibe_trace::Value::from(d.promos.len())),
                (
                    "weight",
                    pibe_trace::Value::from(d.promos.iter().map(|p| p.2).sum::<u64>()),
                ),
            ]
        });
        pibe_trace::record_value("icp.targets_per_site", d.promos.len() as u64);
    }
    stats
}

/// Rewrites one planned site into the guard chain.
fn promote_site(module: &mut Module, weights: &mut SiteWeights, d: &IcpSiteDecision) {
    // The plan's instance: the owner's first unresolved instance of the
    // site in its flat pool, mapped to its block.
    let f = module.function(d.owner);
    let (pos, args) = f
        .insts()
        .iter()
        .enumerate()
        .find_map(|(pos, inst)| match *inst {
            Inst::CallIndirect {
                site,
                args,
                resolved: false,
                asm,
            } if site == d.site => {
                debug_assert!(!asm, "the plan never promotes inline asm");
                Some((pos, args))
            }
            _ => None,
        })
        .expect("the plan's owner holds the site");
    let (bid, idx) = (0..f.num_blocks() as u32)
        .map(BlockId::from_raw)
        .find_map(|b| {
            let range = f.block_range(b);
            range.contains(&pos).then(|| (b, pos - range.start))
        })
        .expect("every live instruction is in a block");
    let site = d.site;
    for &(fresh, _, _) in &d.promos {
        let allocated = module.fresh_site();
        debug_assert_eq!(allocated, fresh, "ICP allocates the plan's fresh sites");
    }
    let promos = &d.promos;

    let f = module.function_mut(d.owner);
    let nblocks = f.num_blocks() as u32;
    let n = promos.len() as u32;
    // Block id plan (appended after the existing blocks):
    //   merge                      = nblocks
    //   guard_i (i in 1..n)        = nblocks + i        (guard_0 is bid)
    //   direct_i (i in 0..n)       = nblocks + n + i
    //   fallback = guard_n         = nblocks + 2n
    let direct_id = |i: u32| BlockId::from_raw(nblocks + n + i);
    let guard = |i: u32| Terminator::Branch {
        cond: Cond::TargetIs {
            site,
            target: promos[i as usize].1,
        },
        then_bb: direct_id(i),
        else_bb: BlockId::from_raw(nblocks + if i + 1 < n { i + 1 } else { 2 * n }),
    };

    // Rewrite the indirect call into the resolve in place, then split the
    // calling block after it — pure pool-range arithmetic, no inst copies.
    f.block_insts_mut(bid)[idx] = Inst::ResolveTarget { site };
    let merge_id = f.split_block(bid, idx + 1, false, guard(0));
    debug_assert_eq!(merge_id, BlockId::from_raw(nblocks));
    for i in 1..n {
        f.append_block(Vec::new(), guard(i));
    }
    for &(new_site, callee, w) in promos {
        let call = Inst::Call {
            site: new_site,
            callee,
            args,
        };
        f.append_block(vec![call], Terminator::Jump { target: merge_id });
        weights.set(new_site, w);
    }
    let fallback = Inst::CallIndirect {
        site,
        args,
        resolved: true,
        asm: false,
    };
    f.append_block(vec![fallback], Terminator::Jump { target: merge_id });
}

#[cfg(test)]
mod tests {
    use super::*;
    use pibe_ir::{FnAttrs, FunctionBuilder, OpKind};
    use pibe_trace::Value;

    /// root() { icall(site) } with three possible targets; profile observes
    /// them with the given counts.
    fn module(counts: &[u64]) -> (Module, Profile, SiteId, FuncId, Vec<FuncId>) {
        let mut m = Module::new("m");
        let mut targets = Vec::new();
        for i in 0..counts.len() {
            let mut b = FunctionBuilder::new(format!("t{i}"), 1);
            b.op(OpKind::Alu);
            b.ret();
            targets.push(m.add_function(b.build()));
        }
        let site = m.fresh_site();
        let mut b = FunctionBuilder::new("root", 0);
        b.op(OpKind::Mov);
        b.call_indirect(site, 1);
        b.op(OpKind::Store);
        b.ret();
        let root = m.add_function(b.build());

        let mut p = Profile::new();
        for (t, c) in targets.iter().zip(counts) {
            for _ in 0..*c {
                p.record_indirect(site, *t);
                p.record_entry(*t);
            }
        }
        (m, p, site, root, targets)
    }

    #[test]
    fn promotes_all_targets_with_unlimited_cap() {
        let (mut m, p, _site, root, targets) = module(&[500, 300, 200]);
        let mut w = SiteWeights::new();
        let stats = promote_indirect_calls(
            &mut m,
            &mut w,
            &p,
            &IcpConfig {
                budget: Budget::new(100.0).unwrap(),
                max_targets_per_site: None,
            },
        );
        assert_eq!(stats.promoted_sites, 1);
        assert_eq!(stats.promoted_targets, 3);
        assert_eq!(stats.promoted_weight, 1000);
        m.verify().unwrap();
        // Three fresh direct-call sites with the value-profile weights.
        let weights: Vec<u64> = w.iter().map(|(_, c)| c).collect();
        assert_eq!(weights.len(), 3);
        assert_eq!(weights.iter().sum::<u64>(), 1000);
        // The fallback still exists, now resolved.
        let f = m.function(root);
        let fallback = f
            .iter_insts()
            .filter(|i| matches!(i, Inst::CallIndirect { resolved: true, .. }))
            .count();
        assert_eq!(fallback, 1);
        // Guard order is hottest-first: first direct block calls targets[0].
        let direct_callees: Vec<FuncId> = f
            .iter_insts()
            .filter_map(|i| match i {
                Inst::Call { callee, .. } => Some(*callee),
                _ => None,
            })
            .collect();
        assert_eq!(direct_callees[0], targets[0]);
    }

    #[test]
    fn budget_limits_promoted_targets() {
        let (mut m, p, _site, _root, _targets) = module(&[900, 90, 10]);
        let mut w = SiteWeights::new();
        let stats = promote_indirect_calls(
            &mut m,
            &mut w,
            &p,
            &IcpConfig {
                budget: Budget::P99,
                max_targets_per_site: None,
            },
        );
        // 900 + 90 covers 99% of 1000.
        assert_eq!(stats.candidate_targets, 2);
        assert_eq!(stats.promoted_targets, 2);
        assert_eq!(stats.promoted_weight, 990);
    }

    #[test]
    fn a_cap_of_zero_promotes_nothing() {
        let (mut m, p, _site, _root, _targets) = module(&[500, 300, 200]);
        let before = m.clone();
        let mut w = SiteWeights::new();
        let stats = promote_indirect_calls(
            &mut m,
            &mut w,
            &p,
            &IcpConfig {
                budget: Budget::new(100.0).unwrap(),
                max_targets_per_site: Some(0),
            },
        );
        assert_eq!(stats.promoted_sites, 0);
        assert_eq!(stats.promoted_targets, 0);
        assert_eq!(stats.skipped_sites, 0);
        assert_eq!(w.iter().count(), 0);
        assert_eq!(m.peek_next_site(), before.peek_next_site());
        assert_eq!(m.to_string(), before.to_string());
    }

    #[test]
    fn per_site_cap_models_conventional_icp() {
        let (mut m, p, _site, _root, _targets) = module(&[500, 300, 200]);
        let mut w = SiteWeights::new();
        let stats = promote_indirect_calls(
            &mut m,
            &mut w,
            &p,
            &IcpConfig {
                budget: Budget::new(100.0).unwrap(),
                max_targets_per_site: Some(1),
            },
        );
        assert_eq!(stats.promoted_targets, 1);
        assert_eq!(stats.promoted_weight, 500);
    }

    /// Adds a function holding one unresolved indirect call per site,
    /// inline assembly when `asm`.
    fn holder(m: &mut Module, name: &str, sites: &[SiteId], optnone: bool, asm: bool) -> FuncId {
        let mut b = FunctionBuilder::new(name, 0);
        b.attrs(FnAttrs {
            optnone,
            ..FnAttrs::default()
        });
        for &s in sites {
            if asm {
                b.call_indirect_asm(s, 0);
            } else {
                b.call_indirect(s, 0);
            }
        }
        b.ret();
        m.add_function(b.build())
    }

    /// A site id held by two functions goes to the first in module order,
    /// whether or not another selected site lives after the second holder.
    #[test]
    fn plan_owner_is_the_first_holder_in_module_order() {
        let mut m = Module::new("m");
        let t = holder(&mut m, "t", &[], false, false);
        let (s, other) = (m.fresh_site(), m.fresh_site());
        let fa = holder(&mut m, "fa", &[s], false, false);
        holder(&mut m, "fb", &[s], true, false);
        let fc = holder(&mut m, "fc", &[other], false, false);
        let mut alone = Profile::new();
        alone.record_indirect(s, t);
        let mut both = alone.clone();
        both.record_indirect(other, t);
        let owners = |p: &Profile| -> Vec<(SiteId, FuncId)> {
            let (plan, _) = plan_promotions(&m, p, &IcpConfig::default());
            plan.iter().map(|d| (d.site, d.owner)).collect()
        };
        assert_eq!(owners(&alone), [(s, fa)]);
        assert_eq!(owners(&both), [(s, fa), (other, fc)]);
    }

    /// Each skip rule counts in `skipped_sites`, emits one `icp.skip` event
    /// naming its reason and allocates no fresh site.
    #[test]
    fn every_skip_emits_its_reason() {
        let mut m = Module::new("m");
        let t = holder(&mut m, "t", &[], false, false);
        let [s_asm, s_optnone, s_gone, s_ok] = [(); 4].map(|_| m.fresh_site());
        let paravirt = holder(&mut m, "paravirt", &[s_asm], false, true);
        let cold = holder(&mut m, "cold", &[s_optnone], true, false);
        holder(&mut m, "hot", &[s_ok], false, false);
        // Hottest first, so every skip is planned before the promotion.
        let mut p = Profile::new();
        for (s, n) in [(s_asm, 4), (s_optnone, 3), (s_gone, 2), (s_ok, 1)] {
            (0..n).for_each(|_| p.record_indirect(s, t));
        }

        let watermark = SiteId::from_raw(m.peek_next_site());
        let mut weights = SiteWeights::new();
        pibe_trace::set_enabled(true);
        let stats = {
            // Names this thread's track among any others recording.
            let _span = pibe_trace::span("test.icp_skip");
            promote_indirect_calls(&mut m, &mut weights, &p, &IcpConfig::default())
        };
        let data = pibe_trace::take();
        pibe_trace::set_enabled(false);

        assert_eq!((stats.skipped_sites, stats.promoted_sites), (3, 1));
        assert_eq!(weights.iter().collect::<Vec<_>>(), [(watermark, 1)]);
        // The skipped sites are left unresolved where they were.
        let owner = |s| m.call_sites().indirect_owner(s);
        assert_eq!(owner(s_asm), Some((paravirt, true)));
        assert_eq!(owner(s_optnone), Some((cold, false)));
        let track = data.spans.iter().find(|s| s.name == "test.icp_skip");
        let track = track.map(|s| s.track);
        let skips = data.events.iter();
        let skips = skips.filter(|e| Some(e.track) == track && e.name == "icp.skip");
        let expected = [(s_asm, "asm"), (s_optnone, "optnone"), (s_gone, "no_owner")]
            .map(|(s, r)| vec![("site", Value::from(s.raw())), ("reason", Value::from(r))]);
        assert_eq!(skips.map(|e| e.args.clone()).collect::<Vec<_>>(), expected);
    }

    #[test]
    fn unprofiled_sites_are_left_alone() {
        let (mut m, _p, _site, _root, _targets) = module(&[10]);
        let empty = Profile::new();
        let mut w = SiteWeights::new();
        let stats = promote_indirect_calls(&mut m, &mut w, &empty, &IcpConfig::default());
        assert_eq!(stats.promoted_sites, 0);
        assert_eq!(m.census().indirect_calls, 1);
    }

    #[test]
    fn single_target_site_gets_guard_plus_fallback() {
        let (mut m, p, _site, root, _targets) = module(&[100]);
        let mut w = SiteWeights::new();
        promote_indirect_calls(&mut m, &mut w, &p, &IcpConfig::default());
        m.verify().unwrap();
        // Blocks: entry, original-return-block isn't split... layout:
        // entry(resolve+guard), merge, direct, fallback = 4.
        assert_eq!(m.function(root).num_blocks(), 4);
    }
}
