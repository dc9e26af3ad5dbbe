//! Dead-function elimination: the linker-style `--gc-sections` analogue.
//!
//! The synthetic kernel (like a real one) carries a long tail of functions
//! no entry point can reach. This pass rebuilds a module containing only
//! the functions reachable from a root set — following direct calls,
//! promoted-guard targets, and a caller-supplied set of address-taken
//! functions (indirect-call targets are invisible statically, exactly the
//! reason real dead-code elimination needs relocation/address-taken
//! information).
//!
//! Because function ids are dense indices, removal *renumbers* the
//! survivors; the returned [`DceMap`] translates old ids so callers can
//! remap entry tables, target oracles, and profiles.

use pibe_ir::{Cond, FuncId, Inst, Module, Terminator};
use serde::{Deserialize, Serialize};

/// Old-id → new-id translation for a stripped module.
#[derive(Debug, Clone)]
pub struct DceMap {
    forward: Vec<Option<FuncId>>,
}

impl DceMap {
    /// New id of an old function, or `None` if it was removed.
    pub fn translate(&self, old: FuncId) -> Option<FuncId> {
        self.forward.get(old.index()).copied().flatten()
    }
}

/// What [`strip_unreachable`] removed.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct DceStats {
    /// Functions kept.
    pub kept_functions: u64,
    /// Functions removed.
    pub removed_functions: u64,
    /// Model code bytes removed.
    pub removed_bytes: u64,
}

/// Rebuilds `module` with only the functions reachable from `roots` plus
/// `address_taken` (functions whose address escapes into dispatch tables —
/// they stay even without a static call edge, since an indirect call may
/// reach them).
///
/// Call edges followed: direct calls, and promoted-guard (`TargetIs`)
/// targets. Returns the stripped module, the id translation, and removal
/// statistics. Site ids are preserved, so profiles keep applying.
pub fn strip_unreachable(
    module: &Module,
    roots: &[FuncId],
    address_taken: &[FuncId],
) -> (Module, DceMap, DceStats) {
    strip_unreachable_threaded(module, roots, address_taken, 1)
}

/// The callees and promoted-guard targets of one function — the out-edges
/// the mark phase follows.
fn out_edges(f: &pibe_ir::Function) -> Vec<FuncId> {
    let mut out = Vec::new();
    // Flat pool scan: tombstones are plain ops and never carry a FuncId,
    // so the raw pool holds exactly the live calls.
    for inst in f.insts() {
        if let Inst::Call { callee, .. } = inst {
            out.push(*callee);
        }
    }
    for term in f.terms() {
        if let Terminator::Branch {
            cond: Cond::TargetIs { target, .. },
            ..
        } = term
        {
            out.push(*target);
        }
    }
    out
}

/// Like [`strip_unreachable`], fanning the expensive per-function body
/// scans across up to `threads` workers.
///
/// With `threads > 1` the mark phase first extracts every function's
/// out-edges in parallel (the body walks dominate DCE cost at kernel
/// scale), then runs the same worklist closure over the precomputed edge
/// lists; the sweep and remap are unchanged. Liveness is a fixpoint over
/// the same edge set either way, so the surviving set — and therefore the
/// output module, map, and stats — is identical to the sequential pass.
pub fn strip_unreachable_threaded(
    module: &Module,
    roots: &[FuncId],
    address_taken: &[FuncId],
    threads: usize,
) -> (Module, DceMap, DceStats) {
    let _pass_span = pibe_trace::span("pass.dce");
    // Mark phase.
    let edges: Option<Vec<Vec<FuncId>>> = (threads > 1).then(|| {
        pibe_ir::par::map_indexed(module.len(), threads, |i| out_edges(&module.functions()[i]))
    });
    // Function ids are dense, so liveness is a flat bit vector — no
    // per-function hashing anywhere in the mark phase.
    let mut live = vec![false; module.len()];
    let mut work: Vec<FuncId> = Vec::new();
    for &f in roots.iter().chain(address_taken) {
        if !std::mem::replace(&mut live[f.index()], true) {
            work.push(f);
        }
    }
    while let Some(f) = work.pop() {
        let mut follow = |succ: FuncId, work: &mut Vec<FuncId>| {
            if !std::mem::replace(&mut live[succ.index()], true) {
                work.push(succ);
            }
        };
        if let Some(edges) = &edges {
            for &succ in &edges[f.index()] {
                follow(succ, &mut work);
            }
            continue;
        }
        for succ in out_edges(module.function(f)) {
            follow(succ, &mut work);
        }
    }

    // Sweep phase: rebuild with dense new ids, old order preserved.
    let mut stripped = Module::new(module.name().to_string());
    stripped.reserve_sites(module.peek_next_site());
    let mut forward: Vec<Option<FuncId>> = vec![None; module.len()];
    for f in module.functions() {
        if live[f.id().index()] {
            // Arc clone: survivors stay shared with the input module until
            // the remap below actually has to rewrite one of them.
            forward[f.id().index()] = Some(stripped.add_function_arc(f.clone()));
        }
    }
    // Remap call targets. Only functions whose targets actually move get
    // rewritten — everything else stays CoW-shared with the input module.
    let translate =
        |old: FuncId| forward[old.index()].expect("live function calls only live functions");
    for id in stripped.func_ids().collect::<Vec<_>>() {
        // Flat pool scans: dropped calls are tombstoned to plain ops, so
        // every Call in the raw pool is live and safe to translate.
        let func = stripped.function(id);
        let needs_remap =
            func.insts().iter().any(
                |inst| matches!(inst, Inst::Call { callee, .. } if translate(*callee) != *callee),
            ) || func.terms().any(|term| {
                matches!(
                    term,
                    Terminator::Branch {
                        cond: Cond::TargetIs { target, .. },
                        ..
                    } if translate(*target) != *target
                )
            });
        if !needs_remap {
            continue;
        }
        let func = stripped.function_mut(id);
        for inst in func.insts_mut() {
            if let Inst::Call { callee, .. } = inst {
                *callee = translate(*callee);
            }
        }
        for term in func.terms_mut() {
            if let Terminator::Branch {
                cond: Cond::TargetIs { target, .. },
                ..
            } = term
            {
                *target = translate(*target);
            }
        }
    }

    // Sum bytes over the removed functions only — identical to the
    // pre/post `code_bytes` difference (remapping callee ids never changes
    // an instruction's size), but it skips every survivor and the removed
    // cold mass is unmutated, so its per-function byte counts stay
    // memoized across repeated builds of the same input.
    let removed_bytes = module
        .functions()
        .iter()
        .filter(|f| forward[f.id().index()].is_none())
        .map(|f| pibe_ir::size::function_bytes(f))
        .sum();
    let stats = DceStats {
        kept_functions: stripped.len() as u64,
        removed_functions: (module.len() - stripped.len()) as u64,
        removed_bytes,
    };
    pibe_trace::event_args("dce.strip", || {
        vec![
            ("kept", pibe_trace::Value::from(stats.kept_functions)),
            ("removed", pibe_trace::Value::from(stats.removed_functions)),
            ("bytes", pibe_trace::Value::from(stats.removed_bytes)),
        ]
    });
    (stripped, DceMap { forward }, stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pibe_ir::{FunctionBuilder, OpKind};

    /// dead0, leaf, dead1, root(->leaf), dead2(->dead0)
    fn module() -> (Module, FuncId, FuncId) {
        let mut m = Module::new("m");
        let mk_leaf = |m: &mut Module, name: &str| {
            let mut b = FunctionBuilder::new(name, 0);
            b.op(OpKind::Alu);
            b.ret();
            m.add_function(b.build())
        };
        let dead0 = mk_leaf(&mut m, "dead0");
        let leaf = mk_leaf(&mut m, "leaf");
        let _dead1 = mk_leaf(&mut m, "dead1");
        let s = m.fresh_site();
        let mut b = FunctionBuilder::new("root", 0);
        b.call(s, leaf, 0);
        b.ret();
        let root = m.add_function(b.build());
        let s2 = m.fresh_site();
        let mut b = FunctionBuilder::new("dead2", 0);
        b.call(s2, dead0, 0);
        b.ret();
        m.add_function(b.build());
        (m, root, leaf)
    }

    #[test]
    fn strips_everything_unreachable_from_roots() {
        let (m, root, leaf) = module();
        let (stripped, map, stats) = strip_unreachable(&m, &[root], &[]);
        assert_eq!(stats.kept_functions, 2);
        assert_eq!(stats.removed_functions, 3);
        assert!(stats.removed_bytes > 0);
        stripped.verify().unwrap();
        // Ids renumbered but names survive, and call edges still resolve.
        let new_root = map.translate(root).expect("root kept");
        assert_eq!(stripped.function(new_root).name(), "root");
        assert!(map.translate(leaf).is_some());
        assert_eq!(map.translate(FuncId::from_raw(0)), None, "dead0 removed");
    }

    #[test]
    fn address_taken_functions_survive() {
        let (m, root, _leaf) = module();
        let dead1 = m.find_function("dead1").unwrap();
        let (stripped, map, _) = strip_unreachable(&m, &[root], &[dead1]);
        assert!(map.translate(dead1).is_some());
        assert_eq!(stripped.len(), 3);
    }

    #[test]
    fn transitive_closure_via_dead_functions_is_not_kept() {
        let (m, root, _) = module();
        // dead2 calls dead0, but neither is reachable from root.
        let (stripped, _, _) = strip_unreachable(&m, &[root], &[]);
        assert!(stripped.find_function("dead2").is_none());
        assert!(stripped.find_function("dead0").is_none());
    }

    #[test]
    fn promoted_guard_targets_are_followed() {
        use pibe_ir::{BlockId, Cond, Terminator};
        let (mut m, root, _leaf) = module();
        let dead1 = m.find_function("dead1").unwrap();
        // Give root an ICP-style guard naming dead1.
        let s = m.fresh_site();
        let f = m.function_mut(root);
        f.insert_inst(BlockId::ENTRY, 0, pibe_ir::Inst::ResolveTarget { site: s });
        let last = f.append_block(Vec::new(), Terminator::Return);
        *f.term_mut(BlockId::ENTRY) = Terminator::Branch {
            cond: Cond::TargetIs {
                site: s,
                target: dead1,
            },
            then_bb: last,
            else_bb: last,
        };
        m.verify().unwrap();
        let (stripped, map, _) = strip_unreachable(&m, &[root], &[]);
        assert!(map.translate(dead1).is_some(), "guard target kept");
        stripped.verify().unwrap();
    }

    #[test]
    fn threaded_dce_is_bit_identical_to_sequential() {
        let (m, root, _) = module();
        let dead1 = m.find_function("dead1").unwrap();
        let (ref_m, ref_map, ref_stats) = strip_unreachable(&m, &[root], &[dead1]);
        for threads in [2, 4] {
            let (got_m, got_map, got_stats) =
                strip_unreachable_threaded(&m, &[root], &[dead1], threads);
            assert_eq!(got_stats, ref_stats, "threads={threads}");
            assert_eq!(got_m.functions(), ref_m.functions(), "threads={threads}");
            for old in m.func_ids() {
                assert_eq!(got_map.translate(old), ref_map.translate(old));
            }
        }
    }

    /// The stripped module keeps the input's site watermark, so a fresh
    /// site never reuses an id the surviving functions still call through.
    #[test]
    fn dce_keeps_the_site_watermark() {
        use pibe_kernel::{Kernel, KernelSpec, Syscall};
        let k = Kernel::generate(KernelSpec::test());
        let roots: Vec<FuncId> = Syscall::ALL.iter().map(|s| k.entry(*s)).collect();
        let (mut stripped, _, _) = strip_unreachable(&k.module, &roots, &[]);
        assert_eq!(stripped.peek_next_site(), k.module.peek_next_site());
        let fresh = stripped.fresh_site();
        let table = stripped.call_sites();
        assert!(!table.has_direct(fresh) && !table.has_indirect(fresh));
    }

    #[test]
    fn kernel_scale_dce_removes_the_cold_mass() {
        use pibe_kernel::{Kernel, KernelSpec, Syscall};
        let k = Kernel::generate(KernelSpec::test());
        let roots: Vec<FuncId> = Syscall::ALL.iter().map(|s| k.entry(*s)).collect();
        let taken: Vec<FuncId> = k
            .interface_sites
            .iter()
            .flat_map(|s| s.targets.iter().map(|(f, _)| *f))
            .collect();
        let (stripped, _, stats) = strip_unreachable(&k.module, &roots, &taken);
        stripped.verify().unwrap();
        let cold_total = k
            .module
            .functions()
            .iter()
            .filter(|f| f.name().starts_with("cold_") || f.name().starts_with("boot_"))
            .count() as u64;
        assert!(cold_total > 0);
        assert!(
            stats.removed_functions >= cold_total,
            "all cold/boot mass is unreachable ({} removed, {cold_total} cold)",
            stats.removed_functions
        );
        assert!(
            stripped
                .functions()
                .iter()
                .all(|f| !f.name().starts_with("cold_")),
            "no cold function survives"
        );
        // Every syscall entry survives and still verifies.
        assert!(stripped.find_function("sys_read").is_some());
    }
}
