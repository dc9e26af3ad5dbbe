//! The default-LLVM-style inliner baseline (§8.4).
//!
//! "The default inliner's bottom-up approach guarantees that it will visit
//! all call sites in the kernel call-graph. However, its inlining decisions
//! are made solely based on size complexity and inline hints."
//!
//! This implementation mirrors that shape: functions are visited in
//! bottom-up (callees-first) order; at each function, call sites are
//! inlined when the callee's `InlineCost` complexity is under a threshold —
//! LLVM's default threshold for ordinary sites, its hot-site threshold
//! (3 000) when the site has a nonzero profile count ("inline hints").
//! Crucially, *visit order is irrespective of profiling weight*: a cold
//! small callee inlines as readily as a hot one, so cold inlining can
//! deplete a caller's growth budget before the hot sites are reached — the
//! fluctuation the paper observed when raising LLVM's budget (§5.2).

use pibe_ir::{recursive_marks, size, FuncId, Inst, Module, SiteId};
use pibe_passes::{inline_call_site, SiteWeights};
use serde::{Deserialize, Serialize};

/// Thresholds of the baseline inliner.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct LlvmInlinerConfig {
    /// Callee-cost threshold for ordinary (cold) sites — LLVM's default
    /// `-inline-threshold` of 225.
    pub default_threshold: u32,
    /// Callee-cost threshold for sites with profile hints — LLVM's
    /// hot-callsite threshold of 3 000 (§5.2).
    pub hot_threshold: u32,
    /// Caller growth cap, bounding pathological size explosions.
    pub caller_growth_cap: u32,
}

impl Default for LlvmInlinerConfig {
    fn default() -> Self {
        LlvmInlinerConfig {
            default_threshold: 225,
            hot_threshold: 3_000,
            caller_growth_cap: 15_000,
        }
    }
}

/// What the baseline inliner did.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct LlvmInlinerStats {
    /// Call sites inlined.
    pub inlined_sites: u64,
    /// Profiled weight of the inlined sites (for comparison with PIBE's
    /// `inlined_weight`; the baseline itself ignores weights).
    pub inlined_weight: u64,
    /// Sites visited but rejected.
    pub rejected_sites: u64,
}

/// Runs the baseline inliner over `module`. `weights` is consulted only as
/// the LLVM-style "hot hint" (count > 0 ⇒ hot threshold) and for
/// reporting — never for ordering.
pub fn run_llvm_inliner(
    module: &mut Module,
    weights: &SiteWeights,
    config: &LlvmInlinerConfig,
) -> LlvmInlinerStats {
    let (offsets, callees) = module.call_sites().call_graph();
    let recursive = recursive_marks(offsets, callees);
    let order = bottom_up_order(offsets, callees);
    let mut stats = LlvmInlinerStats::default();

    for caller in order {
        if module.function(caller).attrs().optnone {
            continue;
        }
        // Work-list of direct call sites currently in the caller; sites
        // copied in by successful inlining are appended and revisited,
        // as LLVM's CallAnalyzer does.
        let mut worklist: Vec<(SiteId, FuncId)> = module
            .function(caller)
            .iter_insts()
            .filter_map(|i| match i {
                Inst::Call { site, callee, .. } => Some((*site, *callee)),
                _ => None,
            })
            .collect();

        let mut idx = 0;
        while idx < worklist.len() {
            let (site, callee) = worklist[idx];
            idx += 1;
            if callee == caller
                || recursive[callee.index()]
                || module.function(callee).attrs().noinline
                || module.function(callee).attrs().optnone
                || module.function(callee).attrs().inline_asm
            {
                stats.rejected_sites += 1;
                continue;
            }
            let callee_cost = size::function_cost(module.function(callee));
            let threshold = if weights.get(site) > 0 {
                config.hot_threshold
            } else {
                config.default_threshold
            };
            let caller_cost = size::function_cost(module.function(caller));
            if callee_cost > threshold
                || caller_cost.saturating_add(callee_cost) > config.caller_growth_cap
            {
                stats.rejected_sites += 1;
                continue;
            }
            match inline_call_site(module, caller, site) {
                Ok(info) => {
                    stats.inlined_sites += 1;
                    stats.inlined_weight += weights.get(site);
                    worklist.extend(info.copied_direct_sites);
                }
                Err(_) => stats.rejected_sites += 1,
            }
        }
    }
    stats
}

/// Bottom-up (callees-before-callers) visit order: the DFS post-order over
/// the CSR, started from each unvisited function in id order. Members of a
/// cycle appear in discovery order. This is a plain DFS, not Tarjan's SCC
/// order, which differs once a cycle member also calls outside its cycle;
/// the baseline's decisions (and the robustness table) depend on it.
fn bottom_up_order(offsets: &[u32], callees: &[FuncId]) -> Vec<FuncId> {
    let n = offsets.len() - 1;
    let outs = |i: usize| &callees[offsets[i] as usize..offsets[i + 1] as usize];
    let mut seen = vec![false; n];
    let mut order = Vec::with_capacity(n);
    for start in 0..n {
        if std::mem::replace(&mut seen[start], true) {
            continue;
        }
        // Iterative DFS with explicit post-visit.
        let mut stack: Vec<(usize, usize)> = vec![(start, 0)];
        while let Some(&mut (node, ref mut idx)) = stack.last_mut() {
            if let Some(next) = outs(node).get(*idx) {
                *idx += 1;
                if !std::mem::replace(&mut seen[next.index()], true) {
                    stack.push((next.index(), 0));
                }
            } else {
                order.push(FuncId::from_raw(node as u32));
                stack.pop();
            }
        }
    }
    order
}

#[cfg(test)]
mod tests {
    use super::*;
    use pibe_ir::{FunctionBuilder, OpKind};
    use pibe_profile::Profile;

    /// root -> {hot_big, cold_small}: the weight-blind baseline inlines the
    /// cold small callee and rejects the hot big one — the opposite of what
    /// security wants.
    #[test]
    fn baseline_is_weight_blind() {
        let mut m = Module::new("m");
        let mut b = FunctionBuilder::new("hot_big", 0);
        b.ops(OpKind::Alu, 120); // cost 605 > 225, <= 3000
        b.ret();
        let hot_big = m.add_function(b.build());
        let mut b = FunctionBuilder::new("cold_small", 0);
        b.ops(OpKind::Alu, 4);
        b.ret();
        let cold_small = m.add_function(b.build());

        let s_hot = m.fresh_site();
        let s_cold = m.fresh_site();
        let mut b = FunctionBuilder::new("root", 0);
        b.call(s_hot, hot_big, 0);
        b.call(s_cold, cold_small, 0);
        b.ret();
        m.add_function(b.build());

        // Only the big callee is hot — but give it *no* hint to model the
        // pure size-based default; then both thresholds apply by size.
        let weights = SiteWeights::new();
        let stats = run_llvm_inliner(&mut m, &weights, &LlvmInlinerConfig::default());
        assert_eq!(stats.inlined_sites, 1, "only the small callee inlines");
        assert_eq!(stats.rejected_sites, 1);
        m.verify().unwrap();
    }

    #[test]
    fn hot_hint_raises_the_threshold() {
        let mut m = Module::new("m");
        let mut b = FunctionBuilder::new("biggish", 0);
        b.ops(OpKind::Alu, 120); // cost 605
        b.ret();
        let biggish = m.add_function(b.build());
        let s = m.fresh_site();
        let mut b = FunctionBuilder::new("root", 0);
        b.call(s, biggish, 0);
        b.ret();
        m.add_function(b.build());

        let mut p = Profile::new();
        p.record_direct(s);
        let weights = SiteWeights::from_profile(&p);
        let stats = run_llvm_inliner(&mut m, &weights, &LlvmInlinerConfig::default());
        assert_eq!(stats.inlined_sites, 1, "hot hint admits cost-605 callee");
    }

    #[test]
    fn bottom_up_order_collapses_chains() {
        // root -> mid -> leaf, all tiny: bottom-up visits mid first (leaf
        // inlines into mid), then root (grown mid still fits).
        let mut m = Module::new("m");
        let mut b = FunctionBuilder::new("leaf", 0);
        b.ops(OpKind::Alu, 2);
        b.ret();
        let leaf = m.add_function(b.build());
        let s1 = m.fresh_site();
        let mut b = FunctionBuilder::new("mid", 0);
        b.call(s1, leaf, 0);
        b.ret();
        let mid = m.add_function(b.build());
        let s2 = m.fresh_site();
        let mut b = FunctionBuilder::new("root", 0);
        b.call(s2, mid, 0);
        b.ret();
        let root = m.add_function(b.build());

        let stats = run_llvm_inliner(&mut m, &SiteWeights::new(), &LlvmInlinerConfig::default());
        assert_eq!(stats.inlined_sites, 2);
        assert!(m
            .function(root)
            .iter_insts()
            .all(|i| !matches!(i, Inst::Call { .. })));
        m.verify().unwrap();
    }

    #[test]
    fn bottom_up_order_is_dfs_post_order_not_scc_order() {
        // a -> {b, leaf}, b -> a: the cycle member `a` also calls the
        // acyclic `leaf`. DFS post-order finishes `b` before it reaches
        // `leaf`; Tarjan's SCC order would emit `leaf` first, then {b, a}.
        let (a, b, leaf) = (
            FuncId::from_raw(0),
            FuncId::from_raw(1),
            FuncId::from_raw(2),
        );
        let mut m = Module::new("m");
        let mk = |m: &mut Module, name: &str, calls: &[FuncId]| {
            let mut fb = FunctionBuilder::new(name, 0);
            for &callee in calls {
                let site = m.fresh_site();
                fb.call(site, callee, 0);
            }
            fb.ret();
            m.add_function(fb.build())
        };
        assert_eq!(mk(&mut m, "a", &[b, leaf]), a);
        assert_eq!(mk(&mut m, "b", &[a]), b);
        assert_eq!(mk(&mut m, "leaf", &[]), leaf);
        m.verify().unwrap();

        let (offsets, callees) = m.call_sites().call_graph();
        assert_eq!(recursive_marks(offsets, callees), [true, true, false]);
        assert_eq!(bottom_up_order(offsets, callees), [b, leaf, a]);
    }
}
