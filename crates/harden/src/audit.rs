//! Security audit of a hardened image (§8.6, Table 11).
//!
//! The paper analyzes kernel binaries to classify every static indirect
//! branch as *protected* (converted to the appropriate defense sequence) or
//! *vulnerable* (left exposed). Two residual vulnerable populations exist
//! even under full mitigation: indirect calls inside inline-assembly
//! paravirt macros (LLVM cannot retpoline inline asm) and a handful of
//! assembly-level indirect jumps. Inlining duplicates the former, so the
//! vulnerable count *grows* with the optimization budget.

use crate::backend::DefenseBackend;
use crate::DefenseSet;
use pibe_ir::{Inst, Module, Terminator};
use serde::{Deserialize, Serialize};
use std::fmt;

/// Static classification of every indirect branch in an image.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct SecurityAudit {
    /// The defenses the image was audited against.
    pub defenses: DefenseSet,
    /// Indirect calls converted to the defense thunk ("Def. ICalls").
    pub protected_icalls: u64,
    /// Indirect calls left vulnerable ("Vuln. ICalls"): inline-asm sites
    /// always, and every site when no forward-edge defense is enabled.
    pub vulnerable_icalls: u64,
    /// Indirect jumps left vulnerable ("Vuln. IJumps"): jump tables that
    /// survived hardening, and every jump table when no defense is enabled.
    pub vulnerable_ijumps: u64,
    /// Surviving jump tables whose targets are covered by landing pads —
    /// only hardware-CFI backends (ARM BTI, RISC-V Zicfilp) keep tables
    /// *and* protect them; always 0 on x86.
    pub protected_ijumps: u64,
    /// Returns protected by a backward-edge defense.
    pub protected_returns: u64,
    /// Returns left vulnerable (every return when no backward-edge defense
    /// is enabled; boot-only returns are excluded — see `boot_returns`).
    pub vulnerable_returns: u64,
    /// Returns in boot-only code: unprotected but "not subject of transient
    /// attacks past this stage" (§8.6), so not counted vulnerable.
    pub boot_returns: u64,
}

/// A branch the auditor could not classify: evidence that the image was
/// hardened with a different backend (or defense set) than it is being
/// audited against. Each variant names the offending function and site so
/// the mismatch points at the culprit instead of aborting the process.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AuditError {
    /// A re-lowerable jump table survived in a non-inline-assembly
    /// function although the backend's transform semantics disable jump
    /// tables under the audited defenses — the transform was either never
    /// run or run under a different backend.
    UnloweredJumpTable {
        /// Name of the function still dispatching through a table.
        function: String,
        /// Index of the block whose switch kept its table.
        block: usize,
        /// The backend the audit ran under.
        backend: &'static str,
    },
}

impl fmt::Display for AuditError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AuditError::UnloweredJumpTable {
                function,
                block,
                backend,
            } => write!(
                f,
                "function `{function}` block {block} still dispatches through \
                 a jump table, but the {backend} backend re-lowers tables under \
                 the audited defenses — the image was hardened with a different \
                 backend or defense set"
            ),
        }
    }
}

impl std::error::Error for AuditError {}

/// Classifies every static indirect branch of `module` under `defenses`,
/// with the legacy x86 rules.
///
/// This is the lenient pre-backend entry point: a surviving jump table is
/// *counted vulnerable* rather than reported as a backend mismatch, so it
/// stays infallible. The pipeline audits through [`audit_backend`], which
/// returns a typed [`AuditError`] instead.
pub fn audit(module: &Module, defenses: DefenseSet) -> SecurityAudit {
    let mut a = SecurityAudit {
        defenses,
        ..SecurityAudit::default()
    };
    for f in module.functions() {
        let boot = f.attrs().boot_only;
        // Flat pool scan (tombstones are plain ops), then the terminators.
        for inst in f.insts() {
            if let Inst::CallIndirect { asm, .. } = inst {
                if *asm || !defenses.hardens_forward() {
                    a.vulnerable_icalls += 1;
                } else {
                    a.protected_icalls += 1;
                }
            }
        }
        for term in f.terms() {
            match term {
                Terminator::Switch { via_table, .. } if *via_table => {
                    // A surviving jump table is always a Spectre V2 surface.
                    a.vulnerable_ijumps += 1;
                }
                Terminator::Return => {
                    if boot {
                        a.boot_returns += 1;
                    } else if defenses.hardens_backward() {
                        a.protected_returns += 1;
                    } else {
                        a.vulnerable_returns += 1;
                    }
                }
                _ => {}
            }
        }
    }
    a
}

/// Classifies every static indirect branch of `module` under `defenses`
/// with `backend`'s auditor rules.
///
/// Differences from the legacy [`audit`]: surviving jump tables are
/// *protected* when the backend covers their targets with landing pads
/// ([`DefenseBackend::protects_jump_tables`]); and a table that should
/// have been re-lowered — a non-inline-asm switch with `via_table` under a
/// backend whose transform disables tables — is a typed
/// [`AuditError::UnloweredJumpTable`] naming the function and block,
/// because it means the image was hardened with a *different* backend than
/// it is audited against.
///
/// # Errors
/// [`AuditError::UnloweredJumpTable`] on the backend mismatch above. For
/// an image produced by [`apply`](crate::apply) under the same
/// backend and defenses, the audit always succeeds (the
/// auditor-accepts-own-transform conformance law).
pub fn audit_backend(
    module: &Module,
    backend: &dyn DefenseBackend,
    defenses: DefenseSet,
) -> Result<SecurityAudit, AuditError> {
    let mut a = SecurityAudit {
        defenses,
        ..SecurityAudit::default()
    };
    for f in module.functions() {
        let attrs = f.attrs();
        for inst in f.insts() {
            if let Inst::CallIndirect { asm, .. } = inst {
                if *asm || !backend.hardens_forward(defenses) {
                    a.vulnerable_icalls += 1;
                } else {
                    a.protected_icalls += 1;
                }
            }
        }
        for (i, term) in f.terms().enumerate() {
            match term {
                Terminator::Switch { via_table, .. } if *via_table => {
                    if backend.protects_jump_tables(defenses) {
                        a.protected_ijumps += 1;
                    } else if backend.disables_jump_tables(defenses) && !attrs.inline_asm {
                        return Err(AuditError::UnloweredJumpTable {
                            function: f.name().to_string(),
                            block: i,
                            backend: backend.name(),
                        });
                    } else {
                        a.vulnerable_ijumps += 1;
                    }
                }
                Terminator::Return => {
                    if attrs.boot_only {
                        a.boot_returns += 1;
                    } else if backend.hardens_backward(defenses) {
                        a.protected_returns += 1;
                    } else {
                        a.vulnerable_returns += 1;
                    }
                }
                _ => {}
            }
        }
    }
    Ok(a)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{apply, Arch};
    use pibe_ir::{FnAttrs, FunctionBuilder};

    fn image() -> Module {
        let mut m = Module::new("m");
        // A normal function with a hardenable icall and a jump table.
        let s1 = m.fresh_site();
        let mut b = FunctionBuilder::new("normal", 0);
        let c = b.new_block();
        let exit = b.new_block();
        b.call_indirect(s1, 1);
        b.switch(vec![1], vec![c], 1, exit, true);
        b.switch_to(c);
        b.jump(exit);
        b.switch_to(exit);
        b.ret();
        m.add_function(b.build());

        // A paravirt-style function whose icall is inline asm.
        let s2 = m.fresh_site();
        let mut b = FunctionBuilder::new("paravirt", 0);
        b.call_indirect_asm(s2, 0);
        b.ret();
        m.add_function(b.build());

        // Boot-only code.
        let mut b = FunctionBuilder::new("start_kernel", 0);
        b.attrs(FnAttrs {
            boot_only: true,
            ..FnAttrs::default()
        });
        b.ret();
        m.add_function(b.build());
        m
    }

    #[test]
    fn unhardened_image_is_fully_vulnerable() {
        let m = image();
        let a = audit(&m, DefenseSet::NONE);
        assert_eq!(a.protected_icalls, 0);
        assert_eq!(a.vulnerable_icalls, 2);
        assert_eq!(a.vulnerable_ijumps, 1);
        assert_eq!(a.protected_returns, 0);
        assert_eq!(a.vulnerable_returns, 2);
        assert_eq!(a.boot_returns, 1);
    }

    #[test]
    fn full_hardening_leaves_only_asm_sites_vulnerable() {
        let mut m = image();
        apply(&mut m, Arch::X86.backend(), DefenseSet::ALL, 1);
        let a = audit(&m, DefenseSet::ALL);
        assert_eq!(a.protected_icalls, 1);
        assert_eq!(a.vulnerable_icalls, 1, "the asm icall stays vulnerable");
        assert_eq!(a.vulnerable_ijumps, 0, "jump table was disabled");
        assert_eq!(a.protected_returns, 2);
        assert_eq!(a.vulnerable_returns, 0);
        assert_eq!(a.boot_returns, 1);
    }

    #[test]
    fn retpolines_only_protect_forward_edges() {
        let mut m = image();
        apply(&mut m, Arch::X86.backend(), DefenseSet::RETPOLINES, 1);
        let a = audit(&m, DefenseSet::RETPOLINES);
        assert_eq!(a.protected_icalls, 1);
        assert_eq!(a.protected_returns, 0);
        assert_eq!(a.vulnerable_returns, 2);
    }

    #[test]
    fn ret_retpolines_only_protect_backward_edges() {
        let mut m = image();
        apply(&mut m, Arch::X86.backend(), DefenseSet::RET_RETPOLINES, 1);
        let a = audit(&m, DefenseSet::RET_RETPOLINES);
        assert_eq!(a.protected_icalls, 0);
        assert_eq!(a.vulnerable_icalls, 2);
        assert_eq!(a.protected_returns, 2);
    }
}
