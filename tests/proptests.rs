//! Property-based tests over the whole stack: random programs, random
//! profiles, and random transformations must uphold the workspace's core
//! invariants.
//!
//! Random programs come from `pibe_difftest::gen` — the *same* seeded
//! generator the differential fuzzer uses (`crates/difftest`). The
//! [`pibe_difftest::gen::plans`] strategy adapter draws one seed from the
//! property-test RNG and expands it through the shared generator, so the
//! property tests and the fuzzer cover an identical program distribution.

use pibe_difftest::gen::{self, FnPlan, GenConfig, IndirectSite};
use pibe_ir::{size, FnAttrs, FuncId, FunctionBuilder, Module, OpKind, SiteId};
use pibe_passes::{
    inline_call_site, promote_indirect_calls, run_inliner, IcpConfig, InlinerConfig, SiteWeights,
};
use pibe_profile::{select_by_budget, Budget, Profile};
use pibe_sim::{MapResolver, SimConfig, Simulator};
use proptest::collection::vec;
use proptest::prelude::*;

// ---------------------------------------------------------------------------
// Random program generation (shared with the difftest fuzzer)
// ---------------------------------------------------------------------------

fn cfg(min_funcs: usize, max_funcs: usize) -> GenConfig {
    GenConfig {
        min_funcs,
        max_funcs,
        ..GenConfig::default()
    }
}

/// Builds the module for a plan list; see [`gen::build_module`].
fn build_module(plans: &[FnPlan]) -> (Module, Vec<IndirectSite>, FuncId) {
    gen::build_module(plans)
}

fn resolver_for(m: &Module, isites: &[IndirectSite]) -> MapResolver {
    let mut r = MapResolver::new();
    // Every indirect site targets the two leaf-most functions *earlier than
    // its owner*, keeping the dynamic call graph acyclic.
    let _ = m;
    for is in isites {
        let t0 = FuncId::from_raw(0);
        let t1 = FuncId::from_raw(((is.owner - 1) as u32).min(1));
        r.insert(is.site, vec![(t0, 3), (t1, 1)]);
    }
    r
}

fn profile_of(m: &Module, isites: &[IndirectSite], root: FuncId, runs: u32) -> Profile {
    let cfg = SimConfig {
        collect_profile: true,
        ..SimConfig::default()
    };
    let mut sim = Simulator::new(m, resolver_for(m, isites), 7, cfg);
    for _ in 0..runs {
        sim.call_entry(root).expect("generated program runs");
    }
    sim.take_profile()
}

fn executed_ops(m: &Module, isites: &[IndirectSite], root: FuncId, runs: u32) -> u64 {
    let mut sim = Simulator::new(m, resolver_for(m, isites), 99, SimConfig::default());
    for _ in 0..runs {
        sim.call_entry(root).expect("generated program runs");
    }
    sim.stats().ops
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Generator-constructed programs always verify.
    #[test]
    fn random_modules_verify(plans in gen::plans(cfg(1, 20))) {
        let (m, _isites, _root) = build_module(&plans);
        prop_assert!(m.verify().is_ok());
    }

    /// The full optimization pipeline preserves validity and the exact
    /// count of executed compute ops — semantics preservation, on random
    /// programs.
    #[test]
    fn pipeline_preserves_semantics(plans in gen::plans(cfg(2, 16))) {
        let (m, isites, root) = build_module(&plans);
        let profile = profile_of(&m, &isites, root, 20);
        let base_ops = executed_ops(&m, &isites, root, 20);

        let mut opt = m.clone();
        let mut weights = SiteWeights::from_profile(&profile);
        promote_indirect_calls(
            &mut opt,
            &mut weights,
            &profile,
            &IcpConfig { budget: Budget::P99_9999, max_targets_per_site: None },
        );
        prop_assert!(opt.verify().is_ok());
        run_inliner(
            &mut opt,
            &weights,
            &profile,
            &InlinerConfig { budget: Budget::P99_9999, ..InlinerConfig::default() },
        );
        prop_assert!(opt.verify().is_ok());
        prop_assert_eq!(executed_ops(&opt, &isites, root, 20), base_ops);
    }

    /// Inlining any single existing non-self direct call site keeps the
    /// module valid, never shrinks the caller, and removes exactly that
    /// call.
    #[test]
    fn single_inline_is_sound(plans in gen::plans(cfg(2, 16))) {
        let (mut m, _isites, _root) = build_module(&plans);
        // Find any non-self direct call (the generator also emits guarded
        // self-recursion, which inline_call_site rightly refuses).
        let mut found = None;
        'outer: for f in m.functions() {
            for inst in f.iter_insts() {
                if let pibe_ir::Inst::Call { site, callee, .. } = inst {
                    if *callee != f.id() {
                        found = Some((f.id(), *site, *callee));
                        break 'outer;
                    }
                }
            }
        }
        if let Some((caller, site, _callee)) = found {
            let cost_before = size::function_cost(m.function(caller));
            let info = inline_call_site(&mut m, caller, site).expect("inline succeeds");
            prop_assert_eq!(info.caller, caller);
            prop_assert!(m.verify().is_ok());
            prop_assert!(size::function_cost(m.function(caller)) + 10 >= cost_before);
        }
    }

    /// The simulator is deterministic and defense costs are monotone:
    /// adding a defense never makes execution cheaper.
    #[test]
    fn defenses_monotone_on_random_programs(plans in gen::plans(cfg(2, 12))) {
        use pibe_harden::DefenseSet;
        let (m, isites, root) = build_module(&plans);
        let cycles = |d: DefenseSet| {
            let cfg = SimConfig { defenses: d, ..SimConfig::default() };
            let mut sim = Simulator::new(&m, resolver_for(&m, &isites), 5, cfg);
            let mut total = 0;
            for _ in 0..10 {
                total += sim.call_entry(root).expect("program runs");
            }
            total
        };
        let none = cycles(DefenseSet::NONE);
        prop_assert_eq!(none, cycles(DefenseSet::NONE), "determinism");
        prop_assert!(cycles(DefenseSet::RETPOLINES) >= none);
        prop_assert!(cycles(DefenseSet::RET_RETPOLINES) >= none);
        prop_assert!(cycles(DefenseSet::LVI_CFI) >= none);
        let all = cycles(DefenseSet::ALL);
        prop_assert!(all >= cycles(DefenseSet::LVI_CFI));
        prop_assert!(all >= cycles(DefenseSet::RET_RETPOLINES));
    }
}

// ---------------------------------------------------------------------------
// Budget and profile properties
// ---------------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// The budget selection covers at least the requested fraction of the
    /// total weight, picks a hottest-first prefix, and is monotone in the
    /// budget.
    #[test]
    fn budget_selection_properties(
        weights in vec(0u64..10_000, 1..60),
        pct_idx in 0usize..4,
    ) {
        let budgets = [Budget::P99, Budget::P99_9, Budget::P99_999, Budget::P99_9999];
        let budget = budgets[pct_idx];
        let cands: Vec<(usize, u64)> =
            weights.iter().copied().enumerate().collect();
        let total: u128 = weights.iter().map(|w| u128::from(*w)).sum();
        let selected = select_by_budget(&cands, budget);

        // Coverage.
        let covered: u128 = selected.iter().map(|(_, w)| u128::from(*w)).sum();
        let needed = (total as f64) * budget.fraction();
        prop_assert!(covered as f64 >= needed - 1.0, "covered {covered} of {total}");

        // Hottest-first prefix: nothing unselected is strictly hotter than
        // something selected.
        if let Some(min_selected) = selected.iter().map(|(_, w)| *w).min() {
            let selected_ids: std::collections::HashSet<usize> =
                selected.iter().map(|(i, _)| *i).collect();
            for (i, w) in &cands {
                if !selected_ids.contains(i) {
                    prop_assert!(*w <= min_selected);
                }
            }
        }

        // No zero weights selected.
        prop_assert!(selected.iter().all(|(_, w)| *w > 0));

        // Monotone in budget.
        let smaller = select_by_budget(&cands, Budget::P99);
        prop_assert!(smaller.len() <= select_by_budget(&cands, Budget::P99_9999).len());
    }

    /// Profile JSON round trips are lossless for arbitrary contents, and
    /// merging is commutative.
    #[test]
    fn profile_roundtrip_and_merge(
        directs in vec((0u64..500, 1u64..50), 0..40),
        indirects in vec((0u64..500, 0u32..30, 1u64..20), 0..40),
    ) {
        let mut a = Profile::new();
        let mut b = Profile::new();
        for (i, (site, n)) in directs.iter().enumerate() {
            let p = if i % 2 == 0 { &mut a } else { &mut b };
            for _ in 0..*n {
                p.record_direct(SiteId::from_raw(*site));
            }
        }
        for (i, (site, target, n)) in indirects.iter().enumerate() {
            let p = if i % 3 == 0 { &mut a } else { &mut b };
            for _ in 0..*n {
                p.record_indirect(SiteId::from_raw(*site), FuncId::from_raw(*target));
            }
        }
        // Round trip.
        let a2 = Profile::from_json(&a.to_json()).expect("parses");
        prop_assert_eq!(&a, &a2);
        // Merge commutativity.
        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b.clone();
        ba.merge(&a);
        prop_assert_eq!(ab, ba);
    }

    /// The textual IR round-trips: print → parse → print is a fixpoint and
    /// reconstructs equal functions — over the rich generator grammar
    /// (switches, attributes, dead blocks and all).
    #[test]
    fn text_format_roundtrips(plans in gen::plans(cfg(1, 12))) {
        let (m, _isites, _root) = build_module(&plans);
        let text = m.to_string();
        let parsed = pibe_ir::parse_module(&text).expect("printer output parses");
        prop_assert_eq!(parsed.len(), m.len());
        for (a, b) in m.functions().iter().zip(parsed.functions()) {
            prop_assert_eq!(a, b);
        }
        prop_assert_eq!(parsed.to_string(), text);
        prop_assert!(parsed.verify().is_ok());
    }

    /// Inline cost is additive over instructions and the terminator, and
    /// strictly positive for nonempty functions. (The simulator's code
    /// layout has its own oracle in `pibe-sim`.)
    #[test]
    fn size_model_properties(op_counts in vec(1usize..40, 1..12)) {
        for (i, ops) in op_counts.iter().enumerate() {
            let mut b = FunctionBuilder::new(format!("f{i}"), 0);
            b.ops(OpKind::Alu, *ops);
            b.ret();
            let f = b.build();
            prop_assert_eq!(size::function_cost(&f), 5 * *ops as u32 + 5);
        }
    }
}

// ---------------------------------------------------------------------------
// Attribute-respecting transforms
// ---------------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// `noinline`/`optnone` attributes are always respected regardless of
    /// weights.
    #[test]
    fn attributes_always_respected(weight in 1u64..100_000) {
        let mut m = Module::new("attrs");
        let mut b = FunctionBuilder::new("callee", 0);
        b.attrs(FnAttrs { noinline: true, ..FnAttrs::default() });
        b.op(OpKind::Alu);
        b.ret();
        let callee = m.add_function(b.build());
        let s = m.fresh_site();
        let mut b = FunctionBuilder::new("caller", 0);
        b.call(s, callee, 0);
        b.ret();
        m.add_function(b.build());

        let mut p = Profile::new();
        for _ in 0..weight.min(10_000) {
            p.record_direct(s);
            p.record_entry(callee);
        }
        let w = SiteWeights::from_profile(&p);
        let stats = run_inliner(
            &mut m,
            &w,
            &p,
            &InlinerConfig { lax_heuristics: true, ..InlinerConfig::default() },
        );
        prop_assert_eq!(stats.inlined_sites, 0);
        prop_assert!(stats.blocked_other_weight > 0);
        // The call is still there.
        let caller = m.find_function("caller").expect("caller exists");
        prop_assert_eq!(
            m.function(caller)
                .iter_insts()
                .filter(|i| i.is_call())
                .count(),
            1
        );
    }

    /// ICP never touches inline-assembly sites, never misses its promoted
    /// weight accounting, and the guard chain always ends in a fallback.
    #[test]
    fn icp_accounting_is_consistent(counts in vec(1u64..500, 1..6)) {
        let mut m = Module::new("icp");
        let mut targets = Vec::new();
        for i in 0..counts.len() {
            let mut b = FunctionBuilder::new(format!("t{i}"), 0);
            b.ret();
            targets.push(m.add_function(b.build()));
        }
        let site = m.fresh_site();
        let mut b = FunctionBuilder::new("root", 0);
        b.call_indirect(site, 0);
        b.ret();
        let root = m.add_function(b.build());

        let mut p = Profile::new();
        for (t, c) in targets.iter().zip(&counts) {
            for _ in 0..*c {
                p.record_indirect(site, *t);
            }
        }
        let mut w = SiteWeights::new();
        let stats = promote_indirect_calls(
            &mut m,
            &mut w,
            &p,
            &IcpConfig { budget: Budget::new(100.0).unwrap(), max_targets_per_site: None },
        );
        prop_assert_eq!(stats.promoted_sites, 1);
        prop_assert_eq!(stats.promoted_targets, counts.len() as u64);
        prop_assert_eq!(stats.promoted_weight, counts.iter().sum::<u64>());
        prop_assert!(m.verify().is_ok());
        // Weights table now carries every promoted site's estimate.
        prop_assert_eq!(w.len(), counts.len());
        // Exactly one resolved fallback exists.
        let fallbacks = m
            .function(root)
            .iter_insts()
            .filter(|i| matches!(i, pibe_ir::Inst::CallIndirect { resolved: true, .. }))
            .count();
        prop_assert_eq!(fallbacks, 1);
    }
}

// ---------------------------------------------------------------------------
// Arena IR core: interning and pool index stability
// ---------------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Interning is idempotent and resolves back to the interned text: two
    /// interns of equal strings yield the same `Symbol`, distinct strings
    /// yield distinct symbols, and `as_str`/`lookup` round-trip exactly.
    #[test]
    fn symbol_intern_resolve_round_trips(raw in vec(0u16..u16::MAX, 1..24)) {
        use pibe_ir::Symbol;
        // Draw from a small name space so collisions (equal strings) are
        // exercised alongside distinct ones.
        let names: Vec<String> = raw.iter().map(|r| format!("sym_{}", r % 512)).collect();
        let symbols: Vec<Symbol> = names.iter().map(|n| Symbol::intern(n)).collect();
        for (name, &sym) in names.iter().zip(&symbols) {
            prop_assert_eq!(sym.as_str(), name.as_str());
            prop_assert_eq!(Symbol::intern(name), sym);
            prop_assert_eq!(Symbol::lookup(name), Some(sym));
        }
        for (i, a) in names.iter().enumerate() {
            for (j, b) in names.iter().enumerate() {
                prop_assert_eq!(a == b, symbols[i] == symbols[j]);
            }
        }
    }

    /// Pool indices stay coherent under random instruction pushes and
    /// removals: every `BlockId` keeps addressing the same logical block, a
    /// shadow `Vec<Vec<Inst>>` model matches the per-block views and the
    /// block-ordered walk, and the function still verifies.
    #[test]
    fn pool_indices_stable_under_push_remove(
        sizes in vec(0usize..6, 1..8),
        edits in vec((0u16..u16::MAX, 0u16..u16::MAX, proptest::bool::ANY), 0..32),
    ) {
        use pibe_ir::{BlockId, Inst, Terminator};
        let nblocks = sizes.len();
        let mut m = Module::new("pool");
        let mut b = FunctionBuilder::new("f", 0);
        let ids: Vec<BlockId> = (1..nblocks).map(|_| b.new_block()).collect();
        let mut shadow: Vec<Vec<Inst>> = Vec::with_capacity(nblocks);
        for (i, &n) in sizes.iter().enumerate() {
            if i > 0 {
                b.switch_to(ids[i - 1]);
            }
            b.ops(OpKind::Alu, n);
            shadow.push(vec![Inst::Op(OpKind::Alu); n]);
            // Chain every block to the next; the last returns.
            match ids.get(i) {
                Some(&next) => b.jump(next),
                None => b.ret(),
            }
        }
        let fid = m.add_function(b.build());

        let f = m.function_mut(fid);
        for (bsel, isel, push) in edits {
            let bid = BlockId::from_raw((bsel as usize % nblocks) as u32);
            let block = &mut shadow[bid.index()];
            if push {
                let idx = isel as usize % (block.len() + 1);
                f.insert_inst(bid, idx, Inst::Op(OpKind::Load));
                block.insert(idx, Inst::Op(OpKind::Load));
            } else if !block.is_empty() {
                let idx = isel as usize % block.len();
                let got = f.remove_inst(bid, idx);
                prop_assert_eq!(got, block.remove(idx));
            }
        }

        let f = m.function(fid);
        prop_assert_eq!(f.num_blocks(), nblocks);
        // Per-block views agree with the shadow model...
        for (i, block) in shadow.iter().enumerate() {
            let bid = BlockId::from_raw(i as u32);
            prop_assert_eq!(f.block_insts(bid), block.as_slice());
            prop_assert_eq!(f.block(bid).len(), block.len());
        }
        // ...as do the block-ordered walk and the pool totals.
        let walked: Vec<Inst> = f.iter_insts().cloned().collect();
        let flat: Vec<Inst> = shadow.iter().flatten().cloned().collect();
        prop_assert_eq!(walked, flat);
        prop_assert_eq!(f.inst_count(), shadow.iter().map(Vec::len).sum::<usize>());
        // Terminators survived the repacking: the chain still verifies.
        for i in 0..nblocks - 1 {
            let bid = BlockId::from_raw(i as u32);
            prop_assert_eq!(
                f.term(bid),
                &Terminator::Jump { target: BlockId::from_raw(i as u32 + 1) }
            );
        }
        prop_assert!(m.verify().is_ok());
    }
}
