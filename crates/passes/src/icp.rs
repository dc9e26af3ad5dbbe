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
use std::collections::{HashMap, HashSet};

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
    /// Sites skipped because they are inline-assembly or sit in `optnone`
    /// functions.
    pub skipped_sites: u64,
}

/// One site's promotion plan: the site and the targets the budget selected
/// for it, hottest first, cut to the per-site cap.
pub type SitePlan = (SiteId, Vec<(FuncId, u64)>);

/// ICP's budget selection: gathers every profiled `(site, target)` pair,
/// selects the hottest prefix covering `config.budget`, and groups the
/// selected targets per site in selection order (hottest first), keeping at
/// most `config.max_targets_per_site` per site.
///
/// Returns the per-site plans in promotion order and the stats of the
/// candidate population (the promotion counters are left at zero). This is
/// the one implementation of the selection: [`promote_indirect_calls`] runs
/// it, and so does the serve loop's decision surface.
pub fn select_promotions(profile: &Profile, config: &IcpConfig) -> (Vec<SitePlan>, IcpStats) {
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

    let mut plans: Vec<SitePlan> = Vec::new();
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
    (plans, stats)
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
    let (plans, mut stats) = select_promotions(profile, config);

    // Index: which function owns each *selected* indirect site (pre-ICP
    // they are static-unique). Only promotion candidates need an owner, so
    // the scan filters before hashing instead of indexing every indirect
    // site in the module.
    let needed: HashSet<SiteId> = plans.iter().map(|(site, _)| *site).collect();
    let mut owner: HashMap<SiteId, FuncId> = HashMap::with_capacity(needed.len());
    for f in module.functions() {
        if owner.len() == needed.len() {
            break;
        }
        // Flat pool scan: tombstones are plain ops and cannot match.
        for inst in f.insts() {
            if let Inst::CallIndirect { site, .. } = inst {
                if needed.contains(site) {
                    owner.insert(*site, f.id());
                }
            }
        }
    }

    for (site, targets) in plans {
        let Some(&func) = owner.get(&site) else {
            // Profiled site no longer exists (e.g. DCE'd); nothing to do.
            stats.skipped_sites += 1;
            continue;
        };
        if module.function(func).attrs().optnone {
            stats.skipped_sites += 1;
            continue;
        }
        match promote_site(module, weights, func, site, &targets) {
            PromoteOutcome::Promoted { targets, weight } => {
                stats.promoted_sites += 1;
                stats.promoted_targets += targets;
                stats.promoted_weight += weight;
                pibe_trace::event_args("icp.promote", || {
                    vec![
                        ("site", pibe_trace::Value::from(site.raw())),
                        ("targets", pibe_trace::Value::from(targets)),
                        ("weight", pibe_trace::Value::from(weight)),
                    ]
                });
                pibe_trace::record_value("icp.targets_per_site", targets);
            }
            PromoteOutcome::Skipped => {
                stats.skipped_sites += 1;
                pibe_trace::event_args("icp.skip", || {
                    vec![("site", pibe_trace::Value::from(site.raw()))]
                });
            }
        }
    }
    stats
}

enum PromoteOutcome {
    Promoted { targets: u64, weight: u64 },
    Skipped,
}

/// Rewrites one indirect call site into the guard chain.
fn promote_site(
    module: &mut Module,
    weights: &mut SiteWeights,
    func: FuncId,
    site: SiteId,
    targets: &[(FuncId, u64)],
) -> PromoteOutcome {
    // Locate the unresolved indirect call.
    let mut found: Option<(BlockId, usize, u8)> = None;
    'outer: for (bid, block) in module.function(func).iter_blocks() {
        for (idx, inst) in block.insts().iter().enumerate() {
            if let Inst::CallIndirect {
                site: s,
                args,
                resolved: false,
                asm,
            } = inst
            {
                if *s == site {
                    if *asm {
                        return PromoteOutcome::Skipped; // cannot touch inline asm
                    }
                    found = Some((bid, idx, *args));
                    break 'outer;
                }
            }
        }
    }
    let Some((bid, idx, args)) = found else {
        return PromoteOutcome::Skipped;
    };

    // Fresh site ids for the promoted direct calls.
    let promos: Vec<(SiteId, FuncId, u64)> = targets
        .iter()
        .map(|(t, w)| (module.fresh_site(), *t, *w))
        .collect();

    let f = module.function_mut(func);
    let nblocks = f.num_blocks() as u32;
    let n = promos.len() as u32;
    // Block id plan (appended after the existing blocks):
    //   merge                      = nblocks
    //   guard_i (i in 1..n)        = nblocks + i        (guard_0 reuses bid)
    //   direct_i (i in 0..n)       = nblocks + n + i
    //   fallback                   = nblocks + 2n
    let guard_id = |i: u32| {
        debug_assert!(i >= 1);
        BlockId::from_raw(nblocks + i)
    };
    let direct_id = |i: u32| BlockId::from_raw(nblocks + n + i);
    let fallback_id = BlockId::from_raw(nblocks + 2 * n);

    // Rewrite the indirect call into the resolve in place, then split the
    // calling block after it — pure pool-range arithmetic, no inst copies.
    f.block_insts_mut(bid)[idx] = Inst::ResolveTarget { site };
    let merge_id = f.split_block(
        bid,
        idx + 1,
        false,
        Terminator::Branch {
            cond: Cond::TargetIs {
                site,
                target: promos[0].1,
            },
            then_bb: direct_id(0),
            else_bb: if n > 1 { guard_id(1) } else { fallback_id },
        },
    );
    debug_assert_eq!(merge_id, BlockId::from_raw(nblocks));
    // guard blocks 1..n.
    for i in 1..n {
        f.append_block(
            Vec::new(),
            Terminator::Branch {
                cond: Cond::TargetIs {
                    site,
                    target: promos[i as usize].1,
                },
                then_bb: direct_id(i),
                else_bb: if i + 1 < n {
                    guard_id(i + 1)
                } else {
                    fallback_id
                },
            },
        );
    }
    // direct blocks.
    for (new_site, target, _) in &promos {
        f.append_block(
            vec![Inst::Call {
                site: *new_site,
                callee: *target,
                args,
            }],
            Terminator::Jump { target: merge_id },
        );
    }
    // fallback block.
    f.append_block(
        vec![Inst::CallIndirect {
            site,
            args,
            resolved: true,
            asm: false,
        }],
        Terminator::Jump { target: merge_id },
    );

    let mut weight = 0;
    for (new_site, _, w) in &promos {
        weights.set(*new_site, *w);
        weight += w;
    }
    PromoteOutcome::Promoted {
        targets: promos.len() as u64,
        weight,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pibe_ir::{FunctionBuilder, OpKind};

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

    #[test]
    fn asm_sites_are_never_promoted() {
        let mut m = Module::new("m");
        let mut b = FunctionBuilder::new("t", 0);
        b.ret();
        let t = m.add_function(b.build());
        let site = m.fresh_site();
        let mut b = FunctionBuilder::new("paravirt", 0);
        b.call_indirect_asm(site, 0);
        b.ret();
        m.add_function(b.build());
        let mut p = Profile::new();
        for _ in 0..100 {
            p.record_indirect(site, t);
        }
        let mut w = SiteWeights::new();
        let stats = promote_indirect_calls(&mut m, &mut w, &p, &IcpConfig::default());
        assert_eq!(stats.promoted_sites, 0);
        assert_eq!(stats.skipped_sites, 1);
        assert_eq!(m.census().indirect_calls, 1, "module unchanged");
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
