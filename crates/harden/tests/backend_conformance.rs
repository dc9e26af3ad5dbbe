//! The backend-conformance suite: every [`DefenseBackend`] must satisfy
//! the trait's contract (see the trait docs in `src/backend.rs`) —
//! zero cost on `NONE`, cost monotonicity under defense union, transform
//! idempotence, and auditor-accepts-own-transform. The suite runs against
//! all four backends so a new architecture cannot land with a cost model
//! or transform that the pipeline's invariants do not hold for.

use pibe_harden::{apply, audit_backend, Arch, AuditError, DefenseBackend, DefenseSet};
use pibe_ir::{FnAttrs, FunctionBuilder, Module, OpKind};

/// All eight defense selections (the full power set of the three flags).
fn all_selections() -> Vec<DefenseSet> {
    let mut out = Vec::new();
    for retpolines in [false, true] {
        for ret_retpolines in [false, true] {
            for lvi_cfi in [false, true] {
                out.push(DefenseSet {
                    retpolines,
                    ret_retpolines,
                    lvi_cfi,
                });
            }
        }
    }
    out
}

fn union(a: DefenseSet, b: DefenseSet) -> DefenseSet {
    DefenseSet {
        retpolines: a.retpolines || b.retpolines,
        ret_retpolines: a.ret_retpolines || b.ret_retpolines,
        lvi_cfi: a.lvi_cfi || b.lvi_cfi,
    }
}

/// A module exercising every branch kind the auditor classifies: a
/// hardenable icall, a jump-table switch, an inline-asm icall, an
/// inline-asm jump table, and boot-only code.
fn test_module() -> Module {
    let mut m = Module::new("conformance");

    let s1 = m.fresh_site();
    let mut b = FunctionBuilder::new("normal", 0);
    let c = b.new_block();
    let exit = b.new_block();
    b.op(OpKind::Alu);
    b.call_indirect(s1, 1);
    b.switch(vec![1], vec![c], 1, exit, true);
    b.switch_to(c);
    b.jump(exit);
    b.switch_to(exit);
    b.ret();
    m.add_function(b.build());

    let s2 = m.fresh_site();
    let mut b = FunctionBuilder::new("paravirt", 0);
    b.attrs(FnAttrs {
        inline_asm: true,
        ..FnAttrs::default()
    });
    let c = b.new_block();
    let exit = b.new_block();
    b.call_indirect_asm(s2, 0);
    b.switch(vec![1], vec![c], 1, exit, true);
    b.switch_to(c);
    b.jump(exit);
    b.switch_to(exit);
    b.ret();
    m.add_function(b.build());

    let mut b = FunctionBuilder::new("start_kernel", 0);
    b.attrs(FnAttrs {
        boot_only: true,
        ..FnAttrs::default()
    });
    b.ret();
    m.add_function(b.build());
    m
}

fn backends() -> Vec<&'static dyn DefenseBackend> {
    Arch::ALL.iter().map(|a| a.backend()).collect()
}

#[test]
fn every_cost_is_zero_on_none() {
    for b in backends() {
        let none = DefenseSet::NONE;
        assert_eq!(b.forward_delta(none), 0, "{}", b.name());
        assert_eq!(b.return_delta(none), 0, "{}", b.name());
        assert_eq!(b.forward_site_bytes(none), 0, "{}", b.name());
        assert_eq!(b.return_site_bytes(none), 0, "{}", b.name());
        assert_eq!(b.shared_thunk_bytes(none), 0, "{}", b.name());
        assert!(!b.hardens_forward(none), "{}", b.name());
        assert!(!b.hardens_backward(none), "{}", b.name());
        assert!(!b.spectre_v2_safe(none), "{}", b.name());
        assert!(!b.ret2spec_safe(none), "{}", b.name());
        let m = test_module();
        assert_eq!(
            b.hardened_image_bytes(&m, none),
            m.code_bytes(),
            "{}: unhardened image must weigh its base code",
            b.name()
        );
    }
}

#[test]
fn costs_are_monotone_under_defense_union() {
    let selections = all_selections();
    for b in backends() {
        for &x in &selections {
            for &y in &selections {
                let u = union(x, y);
                for d in [x, y] {
                    assert!(
                        b.forward_delta(u) >= b.forward_delta(d),
                        "{}: forward_delta({u}) < forward_delta({d})",
                        b.name()
                    );
                    assert!(
                        b.return_delta(u) >= b.return_delta(d),
                        "{}: return_delta({u}) < return_delta({d})",
                        b.name()
                    );
                    assert!(
                        b.forward_site_bytes(u) >= b.forward_site_bytes(d),
                        "{}: forward_site_bytes not monotone at {u} vs {d}",
                        b.name()
                    );
                    assert!(
                        b.return_site_bytes(u) >= b.return_site_bytes(d),
                        "{}: return_site_bytes not monotone at {u} vs {d}",
                        b.name()
                    );
                }
            }
        }
    }
}

#[test]
fn transform_is_idempotent() {
    for b in backends() {
        for d in DefenseSet::EVALUATED {
            let mut m = test_module();
            let first = apply(&mut m, b, d, 1);
            let after_first = m.clone();
            let second = apply(&mut m, b, d, 1);
            assert_eq!(
                second.jump_tables_disabled,
                0,
                "{}: second application re-lowered tables under {d}",
                b.name()
            );
            assert_eq!(
                m.functions(),
                after_first.functions(),
                "{}: second application changed the module under {d}",
                b.name()
            );
            // x86 re-lowers the normal function's table; hardware CFI
            // backends are the identity transform.
            if b.disables_jump_tables(d) {
                assert_eq!(first.jump_tables_disabled, 1, "{}", b.name());
                assert_eq!(first.jump_tables_kept, 1, "{}", b.name());
            } else {
                assert_eq!(first.jump_tables_disabled, 0, "{}", b.name());
            }
        }
    }
}

#[test]
fn auditor_accepts_its_own_transform() {
    for b in backends() {
        for d in DefenseSet::EVALUATED {
            let mut m = test_module();
            apply(&mut m, b, d, 1);
            let audit = audit_backend(&m, b, d).unwrap_or_else(|e| {
                panic!(
                    "{}: auditor rejected its own transform under {d}: {e}",
                    b.name()
                )
            });
            // Whatever the backend, the inline-asm icall stays vulnerable
            // and boot-only returns are excluded.
            assert!(audit.vulnerable_icalls >= 1, "{}", b.name());
            assert_eq!(audit.boot_returns, 1, "{}", b.name());
            if b.hardens_forward(d) {
                assert_eq!(audit.protected_icalls, 1, "{}", b.name());
            }
            // Jump tables: re-lowered (x86), protected in place (hardware
            // CFI with landing pads), or left vulnerable (nop variant) —
            // never unclassifiable.
            if b.protects_jump_tables(d) {
                assert_eq!(audit.protected_ijumps, 2, "{}", b.name());
                assert_eq!(audit.vulnerable_ijumps, 0, "{}", b.name());
            } else if b.disables_jump_tables(d) {
                assert_eq!(
                    audit.vulnerable_ijumps,
                    1,
                    "{}: asm table survives",
                    b.name()
                );
            } else {
                assert_eq!(audit.vulnerable_ijumps, 2, "{}", b.name());
            }
        }
    }
}

#[test]
fn auditing_an_untransformed_image_names_the_offending_function() {
    // The x86 transform was never run: the surviving table in `normal` is
    // a backend mismatch, reported as a typed error naming the site.
    let m = test_module();
    let err = audit_backend(&m, Arch::X86.backend(), DefenseSet::ALL)
        .expect_err("untransformed table must be rejected");
    let AuditError::UnloweredJumpTable {
        function, backend, ..
    } = err;
    assert_eq!(function, "normal");
    assert_eq!(backend, "x86-retpoline");

    // The same image audits cleanly under a backend whose transform keeps
    // tables — the error is about mismatch, not about tables per se.
    for arch in [Arch::Arm64, Arch::Riscv64, Arch::Riscv64Nop] {
        audit_backend(&m, arch.backend(), DefenseSet::ALL).unwrap_or_else(|e| {
            panic!(
                "{}: table-keeping backend must accept tables: {e}",
                arch.name()
            )
        });
    }
}

#[test]
fn nop_variant_shares_bytes_with_enforced_but_charges_nothing() {
    let enforced = Arch::Riscv64.backend();
    let nop = Arch::Riscv64Nop.backend();
    let m = test_module();
    for d in all_selections() {
        assert_eq!(
            enforced.hardened_image_bytes(&m, d),
            nop.hardened_image_bytes(&m, d),
            "same binary, byte for byte, at {d}"
        );
        assert_eq!(nop.forward_delta(d), 0);
        assert_eq!(nop.return_delta(d), 0);
        assert!(!nop.spectre_v2_safe(d));
        assert!(!nop.ret2spec_safe(d));
        assert!(!nop.protects_jump_tables(d));
    }
}
