//! PIBE's greedy hot-first security inliner (§5.2).
//!
//! Traditional inliners optimise for *further optimisation opportunities*
//! and therefore inline only very small functions. PIBE inlines to remove
//! **backward edges** (returns) from hot paths, because every surviving
//! return must pay the return-retpoline/LVI toll. The algorithm:
//!
//! 1. **Rule 1 — inline only hot call sites.** Rank every direct call site
//!    by profiled execution count and greedily select the hottest prefix
//!    covering the optimization budget.
//! 2. **Rule 2 — avoid excessive complexity in the caller.** Skip a site
//!    when the caller's post-inline `InlineCost` complexity would exceed
//!    12 000 (experimentally tuned, §5.2), bounding stack-frame bloat.
//! 3. **Rule 3 — skip heavyweight callees.** Skip callees whose own
//!    complexity exceeds LLVM's default threshold of 3 000, so one big
//!    callee cannot deplete a caller's budget that many small hot callees
//!    could use (Figure 1's `bar`/`foo_1` example).
//!
//! After inlining a callee `f` through a site with count ε, `f`'s own call
//! sites — now copied into the caller — are re-added as candidates with
//! count `count_in_f × ε / invocations(f)` (Scheifler-style constant-ratio
//! heuristic), so hot chains keep collapsing.
//!
//! The paper's best configuration additionally *disables* Rules 2 and 3 for
//! sites inside the 99% hottest prefix ("lax heuristics", §8.3), trading
//! image size for the last points of latency.

use crate::transform::splice_call;
use crate::weights::SiteWeights;
use pibe_ir::{size, BlockId, FuncId, Function, Inst, Module, SiteId};
use pibe_profile::{Budget, BudgetRanking, Profile};
use serde::{Deserialize, Serialize};
use std::collections::{BinaryHeap, HashMap};

/// Inliner tuning knobs, defaulting to the paper's experimentally selected
/// values.
///
/// Hashable (like [`IcpConfig`](crate::IcpConfig)) so image caches can key
/// builds by configuration; `Eq` is total because [`Budget`] construction
/// rejects NaN.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct InlinerConfig {
    /// Rule 1 optimization budget over cumulative direct-call weight.
    pub budget: Budget,
    /// Rule 2 threshold on the caller's post-inline complexity (12 000).
    pub rule2_caller_limit: u32,
    /// Rule 3 threshold on the callee's complexity (3 000, LLVM's default).
    pub rule3_callee_limit: u32,
    /// "Lax heuristics": disable Rules 2 and 3 for sites within
    /// `lax_budget` (the paper found the size heuristics counterproductive
    /// for the 99% hottest sites, §8.3).
    pub lax_heuristics: bool,
    /// The prefix within which lax mode applies (99% in the paper).
    pub lax_budget: Budget,
}

impl Default for InlinerConfig {
    fn default() -> Self {
        InlinerConfig {
            budget: Budget::P99_9,
            rule2_caller_limit: 12_000,
            rule3_callee_limit: 3_000,
            lax_heuristics: false,
            lax_budget: Budget::P99,
        }
    }
}

/// What the inliner did — the raw material of Tables 8, 9, and 10.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct InlinerStats {
    /// All direct-call weight observed (Table 9's "Ovr." column).
    pub total_weight: u64,
    /// Static direct call sites considered.
    pub total_sites: u64,
    /// Direct call sites with a nonzero profiled weight — the candidate
    /// population Table 8's site percentages are relative to.
    pub profiled_sites: u64,
    /// Candidate sites selected by the budget (Table 10's "Candidates").
    pub candidate_sites: u64,
    /// Weight covered by the selected candidates.
    pub candidate_weight: u64,
    /// Call sites actually inlined (returns eliminated, Table 8).
    pub inlined_sites: u64,
    /// Dynamic weight elided — executed call/return pairs removed.
    pub inlined_weight: u64,
    /// Weight blocked by Rule 2 (caller complexity, Table 9).
    pub blocked_rule2_weight: u64,
    /// Weight blocked by Rule 3 (callee complexity, Table 9).
    pub blocked_rule3_weight: u64,
    /// Weight blocked for other reasons: recursive callees, `noinline`,
    /// `optnone` callers, inline-asm bodies (Table 9's "other").
    pub blocked_other_weight: u64,
    /// Candidates added through the constant-ratio propagation heuristic.
    pub propagated_candidates: u64,
}

/// A heap entry; ordered by weight (hottest first), ties broken by site then
/// caller for determinism.
///
/// `block` and `pos` locate the call instance the candidate was queued for
/// (see [`CallLocator`]). They come last, so they only order candidates
/// that agree on everything else: copies of one site in one caller, which
/// the pass treats alike.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct Candidate {
    weight: u64,
    site: SiteId,
    caller: FuncId,
    callee: FuncId,
    /// The instance's block when it was queued (a later split may have
    /// moved it to a newer block).
    block: BlockId,
    /// The instance's raw pool position in the caller.
    pos: u32,
}

/// Finds each popped call in near-constant time instead of rescanning its
/// caller with [`Function::find_call`]. Pass-local: dropped when
/// [`run_inliner`] returns.
///
/// Pool slots are never reused (a consumed call becomes a tombstone), so a
/// candidate's slot that still holds its `Call { site }` is the very
/// instance it was queued for. When that instance is the caller's only
/// live copy of the site, it is the call `find_call` would pick; otherwise
/// — several live copies, where block order decides, or a consumed slot —
/// the locator falls back to `find_call`.
#[derive(Debug)]
struct CallLocator {
    /// Live instances of each `(caller, site)`, for seeded callers.
    live: HashMap<(FuncId, SiteId), u32>,
    /// Whether a caller's calls have been counted into `live` (on its first
    /// locate; nothing is inlined into a caller before that).
    seeded: Vec<bool>,
    /// Locates whose hinted block had been split, so the block table was
    /// searched for the position.
    block_searches: u64,
    /// Locates that fell back to `find_call`.
    fallbacks: u64,
}

impl CallLocator {
    fn new(functions: usize) -> Self {
        CallLocator {
            live: HashMap::new(),
            seeded: vec![false; functions],
            block_searches: 0,
            fallbacks: 0,
        }
    }

    /// The call `cand` names in `f` (its caller), as `find_call` returns
    /// it: `(block, index, callee, args)`.
    fn locate(&mut self, f: &Function, cand: &Candidate) -> Option<(BlockId, usize, FuncId, u8)> {
        if !std::mem::replace(&mut self.seeded[cand.caller.index()], true) {
            // Flat pool scan: tombstones are plain ops and cannot match.
            for inst in f.insts() {
                if let Inst::Call { site, .. } = inst {
                    *self.live.entry((cand.caller, *site)).or_insert(0) += 1;
                }
            }
        }
        let pos = cand.pos as usize;
        let hinted = match f.insts().get(pos) {
            Some(&Inst::Call { site, callee, args })
                if site == cand.site && self.live.get(&(cand.caller, site)) == Some(&1) =>
            {
                // A split moves the tail of a block into a newer block.
                let block = if f.block_range(cand.block).contains(&pos) {
                    Some(cand.block)
                } else {
                    self.block_searches += 1;
                    (0..f.num_blocks() as u32)
                        .map(BlockId::from_raw)
                        .find(|&b| f.block_range(b).contains(&pos))
                };
                block.map(|b| (b, pos - f.block_range(b).start, callee, args))
            }
            _ => None,
        };
        let found = hinted.or_else(|| {
            self.fallbacks += 1;
            f.find_call(cand.site)
        });
        debug_assert_eq!(
            found,
            f.find_call(cand.site),
            "the located call must be the one find_call picks"
        );
        found
    }

    /// Records that `site` was inlined into `caller`, copying `copied` in.
    fn inlined(&mut self, caller: FuncId, site: SiteId, copied: &[(SiteId, FuncId)]) {
        *self
            .live
            .get_mut(&(caller, site))
            .expect("a located call was counted when its caller was seeded") -= 1;
        for (s, _) in copied {
            *self.live.entry((caller, *s)).or_insert(0) += 1;
        }
    }
}

/// Rule 1's budget selection over a ranked candidate population. Returns
/// the selected hottest-first prefix, its weight floor and the lax floor.
///
/// The weight floor is the coldest selected weight (`u64::MAX` when nothing
/// is selected): propagated candidates below it are out of budget. Sites at
/// or above the lax floor are exempt from Rules 2-3; it is `u64::MAX` when
/// lax mode is off. One ranking answers both budgets. This is the one
/// implementation of the selection: [`run_inliner`] runs it, and so does the
/// serve loop's decision surface.
pub fn rule1_selection<'r, T: Ord + Clone>(
    ranking: &'r BudgetRanking<T>,
    config: &InlinerConfig,
) -> (&'r [(T, u64)], u64, u64) {
    let selected = ranking.selected(config.budget);
    let weight_floor = selected.last().map_or(u64::MAX, |(_, w)| *w);
    let lax_floor = if config.lax_heuristics {
        ranking.floor(config.lax_budget).unwrap_or(u64::MAX)
    } else {
        u64::MAX
    };
    (selected, weight_floor, lax_floor)
}

/// Runs the PIBE inliner over `module`.
///
/// `weights` carries per-site execution counts (lifted from the profile and
/// extended by indirect call promotion — run ICP first); `profile` supplies
/// function invocation counts for the constant-ratio heuristic.
pub fn run_inliner(
    module: &mut Module,
    weights: &SiteWeights,
    profile: &Profile,
    config: &InlinerConfig,
) -> InlinerStats {
    let _pass_span = pibe_trace::span("pass.inline");
    let mut stats = InlinerStats::default();

    // Incremental analyses: per-function complexity is memoised on first
    // use and updated by the exact splice delta on each successful inline
    // (see `size::inline_cost_delta`) — never recomputed from bodies
    // mid-pass. Inlining never adds or removes functions, so the dense
    // cache stays aligned.
    let mut cost_cache: Vec<Option<u32>> = vec![None; module.len()];

    // Rule 1: collect and rank every direct call site. The same scan
    // accumulates the flat CSR adjacency for the recursion analysis —
    // the only call-graph question the inliner asks, and one inlining
    // cannot change (every inline merely shortcuts an existing path), so
    // the marks need no maintenance while the module is transformed.
    let mut initial: Vec<(Candidate, u64)> = Vec::new();
    let mut csr_offsets: Vec<u32> = Vec::with_capacity(module.len() + 1);
    let mut csr_callees: Vec<FuncId> = Vec::new();
    csr_offsets.push(0);
    for f in module.functions() {
        for block in (0..f.num_blocks() as u32).map(BlockId::from_raw) {
            let range = f.block_range(block);
            for (pos, inst) in range.clone().zip(&f.insts()[range]) {
                if let Inst::Call { site, callee, .. } = inst {
                    csr_callees.push(*callee);
                    let w = weights.get(*site);
                    stats.total_weight += w;
                    stats.total_sites += 1;
                    if w > 0 {
                        stats.profiled_sites += 1;
                    }
                    initial.push((
                        Candidate {
                            weight: w,
                            site: *site,
                            caller: f.id(),
                            callee: *callee,
                            block,
                            pos: pos as u32,
                        },
                        w,
                    ));
                }
            }
        }
        csr_offsets.push(csr_callees.len() as u32);
    }
    let recursive = pibe_ir::recursive_marks(&csr_offsets, &csr_callees);
    drop(csr_offsets);
    drop(csr_callees);

    let ranking = BudgetRanking::new(&initial);
    let (selected, weight_floor, lax_floor) = rule1_selection(&ranking, config);
    stats.candidate_sites = selected.len() as u64;
    stats.candidate_weight = selected.iter().map(|(_, w)| *w).sum();

    let mut heap: BinaryHeap<Candidate> = selected.iter().map(|(c, _)| *c).collect();
    let mut locator = CallLocator::new(module.len());
    let mut heap_pops = 0u64;

    while let Some(cand) = heap.pop() {
        heap_pops += 1;
        let caller_fn = module.function(cand.caller);
        let callee_fn = module.function(cand.callee);

        // "Other" inhibitors: recursion, attributes (Table 9).
        let callee_attrs = callee_fn.attrs();
        if cand.caller == cand.callee
            || recursive[cand.callee.index()]
            || callee_attrs.noinline
            || callee_attrs.optnone
            || callee_attrs.inline_asm
            || caller_fn.attrs().optnone
        {
            stats.blocked_other_weight += cand.weight;
            reject_event(&cand, "other", 0);
            continue;
        }

        let exempt = cand.weight >= lax_floor;
        let callee_cost = cached_cost(&mut cost_cache, module, cand.callee);
        pibe_trace::record_value("inline.callee_cost", callee_cost as u64);
        if !exempt {
            // Rule 3: a heavyweight callee would deplete the caller's
            // budget that many small hot callees could use.
            if callee_cost > config.rule3_callee_limit {
                stats.blocked_rule3_weight += cand.weight;
                reject_event(&cand, "rule3", callee_cost);
                continue;
            }
            // Rule 2: bound the caller's post-inline complexity.
            let caller_cost = cached_cost(&mut cost_cache, module, cand.caller);
            if caller_cost.saturating_add(callee_cost) > config.rule2_caller_limit {
                stats.blocked_rule2_weight += cand.weight;
                reject_event(&cand, "rule2", caller_cost.saturating_add(callee_cost));
                continue;
            }
        }

        let call = locator.locate(module.function(cand.caller), &cand);
        match call.map(|call| splice_call(module, cand.caller, cand.site, call)) {
            Some(Ok(info)) => {
                locator.inlined(cand.caller, cand.site, &info.copied_direct_sites);
                // Only the caller's body changed; patch its cached cost by
                // the exact splice delta.
                if let Some(c) = cost_cache[cand.caller.index()] {
                    let updated =
                        i64::from(c) + size::inline_cost_delta(callee_cost, info.call_args);
                    debug_assert!(updated >= 0, "a function's cost cannot go negative");
                    cost_cache[cand.caller.index()] = Some(updated as u32);
                }
                stats.inlined_sites += 1;
                stats.inlined_weight += cand.weight;
                pibe_trace::event_args("inline.accept", || {
                    vec![
                        (
                            "caller",
                            pibe_trace::Value::from(cand.caller.index() as u64),
                        ),
                        ("site", pibe_trace::Value::from(cand.site.raw())),
                        ("weight", pibe_trace::Value::from(cand.weight)),
                        ("callee_cost", pibe_trace::Value::from(callee_cost as u64)),
                    ]
                });
                // Constant-ratio heuristic: the callee's sites, now in the
                // caller, inherit scaled counts.
                let invocations = profile.entry_count(cand.callee);
                if invocations > 0 {
                    let ratio = cand.weight as f64 / invocations as f64;
                    let copied = info.copied_direct_sites.iter().zip(&info.copied_direct_at);
                    for (&(s, c), &(block, pos)) in copied {
                        let w = (weights.get(s) as f64 * ratio).round() as u64;
                        if w >= weight_floor && w > 0 {
                            stats.propagated_candidates += 1;
                            // The eligible population grows as inlining
                            // exposes copied sites (Table 9's "Ovr." rises
                            // with the budget).
                            stats.total_weight += w;
                            stats.total_sites += 1;
                            stats.profiled_sites += 1;
                            heap.push(Candidate {
                                weight: w,
                                site: s,
                                caller: cand.caller,
                                callee: c,
                                block,
                                pos,
                            });
                        }
                    }
                }
            }
            // No such call, or a self-call.
            None | Some(Err(_)) => {
                stats.blocked_other_weight += cand.weight;
                reject_event(&cand, "other", 0);
            }
        }
    }
    // Where the pass's time goes: splices and pops, and how often a locate
    // needed more than its hint.
    pibe_trace::counter("inline.heap_pops", heap_pops);
    pibe_trace::counter("inline.splices", stats.inlined_sites);
    pibe_trace::counter("inline.block_searches", locator.block_searches);
    pibe_trace::counter("inline.find_call_fallbacks", locator.fallbacks);
    stats
}

/// The memoised complexity of `f`: computed from the body on first use,
/// kept current by the exact inline delta afterwards (see `run_inliner`).
fn cached_cost(cache: &mut [Option<u32>], module: &Module, f: FuncId) -> u32 {
    match cache[f.index()] {
        Some(c) => c,
        None => {
            let c = size::function_cost(module.function(f));
            cache[f.index()] = Some(c);
            c
        }
    }
}

/// Emits the cost/benefit decision event for a rejected inline candidate
/// (`rule` is `rule2`, `rule3`, or `other`; `cost` the complexity that
/// tripped the rule, 0 when not cost-related).
fn reject_event(cand: &Candidate, rule: &'static str, cost: u32) {
    pibe_trace::event_args("inline.reject", || {
        vec![
            ("site", pibe_trace::Value::from(cand.site.raw())),
            ("weight", pibe_trace::Value::from(cand.weight)),
            ("rule", pibe_trace::Value::from(rule)),
            ("cost", pibe_trace::Value::from(cost as u64)),
        ]
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use pibe_ir::{FnAttrs, FunctionBuilder, OpKind};

    /// Builds a module with `sizes[i]` ops in callee i, all called from
    /// `root`, and a profile giving site i the provided weight.
    fn chain_module(callees: &[(usize, u64)]) -> (Module, Profile, Vec<SiteId>, FuncId) {
        let mut m = Module::new("m");
        let mut ids = Vec::new();
        for (i, (ops, _)) in callees.iter().enumerate() {
            let mut b = FunctionBuilder::new(format!("callee{i}"), 0);
            b.ops(OpKind::Alu, *ops);
            b.ret();
            ids.push(m.add_function(b.build()));
        }
        let mut sites = Vec::new();
        let mut b = FunctionBuilder::new("root", 0);
        for id in &ids {
            let s = m.fresh_site();
            b.call(s, *id, 0);
            sites.push(s);
        }
        b.ret();
        let root = m.add_function(b.build());

        let mut p = Profile::new();
        for ((_, weight), (site, id)) in callees.iter().zip(sites.iter().zip(ids.iter())) {
            for _ in 0..*weight {
                p.record_direct(*site);
                p.record_entry(*id);
            }
        }
        (m, p, sites, root)
    }

    #[test]
    fn hot_small_callees_are_inlined() {
        let (mut m, p, _sites, root) = chain_module(&[(5, 100), (5, 100)]);
        let w = SiteWeights::from_profile(&p);
        let stats = run_inliner(&mut m, &w, &p, &InlinerConfig::default());
        assert_eq!(stats.inlined_sites, 2);
        assert_eq!(stats.inlined_weight, 200);
        m.verify().unwrap();
        assert_eq!(
            m.function(root).return_sites(),
            1,
            "only root's own return remains on the path"
        );
        assert!(m
            .function(root)
            .iter_insts()
            .all(|i| !matches!(i, Inst::Call { .. })));
    }

    #[test]
    fn budget_excludes_cold_sites() {
        // Hot site (10_000) and a very cold one (1): 99% budget covers only
        // the hot one.
        let (mut m, p, _sites, _root) = chain_module(&[(5, 10_000), (5, 1)]);
        let w = SiteWeights::from_profile(&p);
        let cfg = InlinerConfig {
            budget: Budget::P99,
            ..InlinerConfig::default()
        };
        let stats = run_inliner(&mut m, &w, &p, &cfg);
        assert_eq!(stats.candidate_sites, 1);
        assert_eq!(stats.inlined_sites, 1);
        assert_eq!(stats.total_weight, 10_001);
    }

    #[test]
    fn rule3_blocks_heavyweight_callees() {
        // 700 ops * 5 = 3500 > 3000.
        let (mut m, p, _sites, _root) = chain_module(&[(700, 100)]);
        let w = SiteWeights::from_profile(&p);
        let stats = run_inliner(&mut m, &w, &p, &InlinerConfig::default());
        assert_eq!(stats.inlined_sites, 0);
        assert_eq!(stats.blocked_rule3_weight, 100);
        assert_eq!(stats.blocked_rule2_weight, 0);
    }

    #[test]
    fn rule2_blocks_when_caller_budget_depletes() {
        // Callees of 500 ops (cost 2505 < 3000 — Rule 3 passes). Five of
        // them: after four, root's cost exceeds 12 000 and Rule 2 stops it.
        let spec: Vec<(usize, u64)> = (0..5).map(|i| (500, 100 - i as u64)).collect();
        let (mut m, p, _sites, _root) = chain_module(&spec);
        let w = SiteWeights::from_profile(&p);
        let stats = run_inliner(&mut m, &w, &p, &InlinerConfig::default());
        assert!(stats.inlined_sites >= 3, "several callees fit");
        assert!(stats.blocked_rule2_weight > 0, "the last ones do not");
        assert_eq!(stats.blocked_rule3_weight, 0);
    }

    #[test]
    fn figure1_rule3_preserves_budget_for_small_hot_callees() {
        // Figure 1: bar calls foo_1 (cost ~12000, weight 1000),
        // foo_2 (cost ~300, weight 500), foo_3 (cost ~200, weight 500).
        // Without Rule 3, greedy would inline foo_1 first and deplete the
        // budget; with Rule 3, foo_1 is skipped and both foo_2 and foo_3 fit.
        let (mut m, p, _sites, _root) = chain_module(&[(2400, 1000), (60, 500), (40, 500)]);
        let w = SiteWeights::from_profile(&p);
        let stats = run_inliner(&mut m, &w, &p, &InlinerConfig::default());
        assert_eq!(stats.blocked_rule3_weight, 1000, "foo_1 skipped by Rule 3");
        assert_eq!(stats.inlined_sites, 2, "foo_2 and foo_3 both inlined");
        assert_eq!(stats.inlined_weight, 1000, "same weight elided as foo_1");
    }

    #[test]
    fn lax_heuristics_disable_rules_for_the_hot_prefix() {
        let (mut m, p, _sites, _root) = chain_module(&[(2400, 1000), (60, 500), (40, 500)]);
        let w = SiteWeights::from_profile(&p);
        let cfg = InlinerConfig {
            lax_heuristics: true,
            lax_budget: Budget::P99,
            budget: Budget::P99_9999,
            ..InlinerConfig::default()
        };
        let stats = run_inliner(&mut m, &w, &p, &cfg);
        assert_eq!(
            stats.blocked_rule3_weight, 0,
            "rules disabled for hot sites"
        );
        assert_eq!(stats.inlined_sites, 3);
    }

    #[test]
    fn noinline_and_recursion_are_blocked_as_other() {
        let mut m = Module::new("m");
        let mut b = FunctionBuilder::new("stubborn", 0);
        b.attrs(FnAttrs {
            noinline: true,
            ..FnAttrs::default()
        });
        b.ret();
        let stubborn = m.add_function(b.build());
        // Recursive function.
        let mut b = FunctionBuilder::new("tmp", 0);
        b.ret();
        let rec = m.add_function(b.build());
        let s_rec_self = m.fresh_site();
        let mut b = FunctionBuilder::new("rec", 0);
        b.call(s_rec_self, rec, 0);
        b.ret();
        m.replace_function(rec, b.build());

        let s1 = m.fresh_site();
        let s2 = m.fresh_site();
        let mut b = FunctionBuilder::new("root", 0);
        b.call(s1, stubborn, 0);
        b.call(s2, rec, 0);
        b.ret();
        m.add_function(b.build());

        let mut p = Profile::new();
        for _ in 0..10 {
            p.record_direct(s1);
            p.record_direct(s2);
            p.record_entry(stubborn);
            p.record_entry(rec);
        }
        let w = SiteWeights::from_profile(&p);
        let stats = run_inliner(&mut m, &w, &p, &InlinerConfig::default());
        assert_eq!(stats.inlined_sites, 0);
        // s1 (noinline) + s2 (recursive callee) + the recursive self-site
        // s_rec_self carries weight 0 and is not selected.
        assert_eq!(stats.blocked_other_weight, 20);
    }

    #[test]
    fn propagation_collapses_hot_chains() {
        // root -> mid -> leaf, all hot; inlining mid exposes leaf's site in
        // root, which the constant-ratio heuristic then inlines too.
        let mut m = Module::new("m");
        let mut b = FunctionBuilder::new("leaf", 0);
        b.ops(OpKind::Alu, 3);
        b.ret();
        let leaf = m.add_function(b.build());
        let s_mid_leaf = m.fresh_site();
        let mut b = FunctionBuilder::new("mid", 0);
        b.ops(OpKind::Alu, 2);
        b.call(s_mid_leaf, leaf, 0);
        b.ret();
        let mid = m.add_function(b.build());
        let s_root_mid = m.fresh_site();
        let mut b = FunctionBuilder::new("root", 0);
        b.call(s_root_mid, mid, 0);
        b.ret();
        let root = m.add_function(b.build());

        let mut p = Profile::new();
        for _ in 0..100 {
            p.record_direct(s_root_mid);
            p.record_direct(s_mid_leaf);
            p.record_entry(mid);
            p.record_entry(leaf);
        }
        let w = SiteWeights::from_profile(&p);
        let stats = run_inliner(&mut m, &w, &p, &InlinerConfig::default());
        assert!(stats.propagated_candidates >= 1);
        assert_eq!(stats.inlined_sites, 3, "mid into root, leaf into both");
        m.verify().unwrap();
        // root now contains everything: no calls on its path.
        assert!(m
            .function(root)
            .iter_insts()
            .all(|i| !matches!(i, Inst::Call { .. })));
    }
}
