//! IR-level side effects of enabling defenses.

use crate::backend::DefenseBackend;
use crate::DefenseSet;
use pibe_ir::{Function, Module, Terminator};
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// What [`apply`] changed in the module.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct HardenReport {
    /// The defenses the image was hardened with.
    pub defenses: DefenseSet,
    /// Jump-table switches re-lowered to compare chains.
    pub jump_tables_disabled: u64,
    /// Jump-table switches that could *not* be re-lowered because they live
    /// in (modelled) inline assembly — the residual vulnerable indirect
    /// jumps of Table 11 (5 in the paper's kernel).
    pub jump_tables_kept: u64,
}

/// Applies the compile-time side effects of hardening `module` with
/// `defenses` under `backend`, fanning the per-function rewrites across up
/// to `threads` workers.
///
/// Today this is jump-table disabling: "To protect against jump table
/// hijacking under transient execution, PIBE disables jump table generation
/// in the compiler — the default LLVM behavior when retpolines or LVI
/// defenses are enabled" (§5.1). Switches inside functions marked
/// `inline_asm` are outside the compiler's reach and keep their tables
/// (they become the audit's vulnerable indirect jumps). The backend's
/// transform semantics decide whether tables are re-lowered at all:
/// hardware-CFI backends cover table targets with landing pads and keep the
/// tables, so their transform is the identity.
///
/// Every function is an independent unit of work, so workers read shared
/// [`Arc`] handles, rewrite privately, and the merge installs results **in
/// function-id order** — the report counts and the resulting module are
/// bit-identical under any thread count.
///
/// The *costs* of hardened branches are charged dynamically by the
/// simulator from [`crate::costs`]; there is no need to rewrite every call
/// and return site in the IR.
pub fn apply(
    module: &mut Module,
    backend: &dyn DefenseBackend,
    defenses: DefenseSet,
    threads: usize,
) -> HardenReport {
    let mut report = HardenReport {
        defenses,
        ..HardenReport::default()
    };
    if !backend.disables_jump_tables(defenses) {
        return report;
    }
    let shared = &*module;
    let outcomes = pibe_ir::par::map_indexed(shared.len(), threads, |i| {
        harden_function(&shared.functions()[i])
    });
    for (i, (rewritten, disabled, kept)) in outcomes.into_iter().enumerate() {
        if let Some(f) = rewritten {
            module.set_function_arc(pibe_ir::FuncId::from_raw(i as u32), f);
        }
        report.jump_tables_disabled += disabled;
        report.jump_tables_kept += kept;
    }
    report
}

/// Hardens one function, returning its replacement (if it changed) and the
/// `(disabled, kept)` jump-table counts. Reads first and only copies when a
/// re-lowerable table switch is actually present, so untouched functions
/// stay copy-on-write-shared with the pipeline's stage snapshots.
fn harden_function(f: &Arc<Function>) -> (Option<Arc<Function>>, u64, u64) {
    let tables = f
        .terms()
        .filter(|t| {
            matches!(
                t,
                Terminator::Switch {
                    via_table: true,
                    ..
                }
            )
        })
        .count() as u64;
    if tables == 0 {
        return (None, 0, 0);
    }
    if f.attrs().inline_asm {
        return (None, 0, tables);
    }
    let mut nf = Function::clone(f);
    for term in nf.terms_mut() {
        if let Terminator::Switch { via_table, .. } = term {
            *via_table = false;
        }
    }
    (Some(Arc::new(nf)), tables, 0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pibe_ir::{FnAttrs, FunctionBuilder, OpKind};

    const X86: &dyn DefenseBackend = &crate::X86RetpolineBackend;

    fn module_with_switches() -> Module {
        let mut m = Module::new("m");
        for (name, asm) in [("normal", false), ("paravirt", true)] {
            let mut b = FunctionBuilder::new(name, 0);
            b.attrs(FnAttrs {
                inline_asm: asm,
                ..FnAttrs::default()
            });
            let c0 = b.new_block();
            let c1 = b.new_block();
            let exit = b.new_block();
            b.op(OpKind::Cmp);
            b.switch(vec![1, 1], vec![c0, c1], 1, exit, true);
            b.switch_to(c0);
            b.jump(exit);
            b.switch_to(c1);
            b.jump(exit);
            b.switch_to(exit);
            b.ret();
            m.add_function(b.build());
        }
        m
    }

    #[test]
    fn no_defenses_keeps_jump_tables() {
        let mut m = module_with_switches();
        let r = apply(&mut m, X86, DefenseSet::NONE, 1);
        assert_eq!(r.jump_tables_disabled, 0);
        assert_eq!(m.census().indirect_jumps, 2);
    }

    #[test]
    fn defenses_disable_jump_tables_outside_inline_asm() {
        let mut m = module_with_switches();
        let r = apply(&mut m, X86, DefenseSet::RETPOLINES, 1);
        assert_eq!(r.jump_tables_disabled, 1);
        assert_eq!(r.jump_tables_kept, 1);
        assert_eq!(m.census().indirect_jumps, 1);
        m.verify().unwrap();
    }

    #[test]
    fn threaded_apply_is_bit_identical_to_sequential() {
        let reference = {
            let mut m = module_with_switches();
            let r = apply(&mut m, X86, DefenseSet::RETPOLINES, 1);
            (m, r)
        };
        for threads in [2, 4] {
            let mut m = module_with_switches();
            let r = apply(&mut m, X86, DefenseSet::RETPOLINES, threads);
            assert_eq!(r, reference.1, "threads={threads}");
            assert_eq!(m.functions(), reference.0.functions(), "threads={threads}");
        }
    }

    #[test]
    fn untouched_functions_stay_cow_shared() {
        let base = module_with_switches();
        let mut m = base.clone();
        apply(&mut m, X86, DefenseSet::RETPOLINES, 1);
        let normal = base.find_function("normal").unwrap();
        let paravirt = base.find_function("paravirt").unwrap();
        assert!(
            !std::sync::Arc::ptr_eq(m.function_arc(normal), base.function_arc(normal)),
            "rewritten function got a private copy"
        );
        assert!(
            std::sync::Arc::ptr_eq(m.function_arc(paravirt), base.function_arc(paravirt)),
            "inline-asm function untouched, still shared"
        );
    }

    #[test]
    fn apply_is_idempotent() {
        let mut m = module_with_switches();
        apply(&mut m, X86, DefenseSet::ALL, 1);
        let again = apply(&mut m, X86, DefenseSet::ALL, 1);
        assert_eq!(again.jump_tables_disabled, 0);
        assert_eq!(again.jump_tables_kept, 1);
    }
}
