//! # pibe-harden
//!
//! Transient-execution defenses: configuration, cost model, IR transforms,
//! and the security audit of §8.6.
//!
//! The paper hardens the kernel with (combinations of) three state-of-the-art
//! mitigations:
//!
//! * **retpolines** (Spectre V2 / BTB poisoning) — indirect calls become a
//!   return-trampoline thunk, ~21 cycles each (Table 1);
//! * **return retpolines** (Ret2spec / RSB poisoning) — every return becomes
//!   an inlined retpoline sequence, ~16 cycles each;
//! * **LVI-CFI** (Load Value Injection) — `lfence` before every indirect
//!   control transfer, ~9 cycles on forward and ~11 on backward edges.
//!
//! Retpolines and LVI-CFI instrument the same code sequence and are
//! incompatible as-is; the paper contributes a *fenced retpoline* (Listing 7)
//! whose combined cost is ~41 cycles on forward edges, and the combined
//! backward-edge sequence costs ~32 cycles (§6.3).
//!
//! This crate expresses a mitigation selection as a [`DefenseSet`], provides
//! the per-branch cycle and byte deltas ([`costs`]) the simulator charges,
//! applies the IR-level side effects of enabling defenses ([`apply`] —
//! today: disabling jump-table lowering, which is "the default LLVM behavior
//! when retpolines or LVI defenses are enabled", §5.1), and audits a
//! hardened image for residual attack surface ([`audit()`], Table 11).
//!
//! ## Backends
//!
//! The x86 retpoline family above is one of several [`DefenseBackend`]s: the
//! same [`DefenseSet`] selection is reinterpreted per architecture —
//! [`ArmPacBtiBackend`] maps it onto BTI landing pads + PAC-ret signing,
//! [`RiscvCfiBackend`] onto Zicfilp landing pads + a Zicfiss shadow stack.
//! Each backend owns its per-branch cost model, transform semantics, and
//! auditor rules; [`Arch`] names the backends and resolves the trait object.

//!
//! ## Example
//!
//! ```
//! use pibe_harden::{apply, audit, costs, Arch, DefenseSet};
//! use pibe_ir::{FunctionBuilder, Module};
//!
//! let mut module = Module::new("demo");
//! let site = module.fresh_site();
//! let mut b = FunctionBuilder::new("dispatch", 0);
//! b.call_indirect(site, 0);
//! b.ret();
//! module.add_function(b.build());
//!
//! let report = apply(&mut module, Arch::X86.backend(), DefenseSet::ALL, 1);
//! assert!(report.defenses.hardens_forward());
//! let audit = audit(&module, DefenseSet::ALL);
//! assert_eq!(audit.protected_icalls, 1);
//! assert_eq!(audit.vulnerable_icalls, 0);
//! // Every executed indirect call will be charged the fenced-retpoline toll.
//! assert_eq!(costs::forward_delta(DefenseSet::ALL), 41);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod audit;
pub mod backend;
pub mod costs;
mod defense;
pub mod listings;
mod transform;

pub use audit::{audit, audit_backend, AuditError, SecurityAudit};
pub use backend::{
    Arch, ArmPacBtiBackend, DefenseBackend, RiscvCfiBackend, X86RetpolineBackend, ARM_PAC_BTI,
    RISCV_CFI, RISCV_CFI_NOP, X86_RETPOLINE,
};
pub use defense::DefenseSet;
pub use transform::{apply, HardenReport};
