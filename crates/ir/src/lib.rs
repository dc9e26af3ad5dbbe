//! # pibe-ir
//!
//! The compiler intermediate representation (IR) substrate used throughout the
//! PIBE reproduction.
//!
//! The original PIBE implementation operates on LLVM bitcode for the entire
//! Linux kernel. This crate provides a self-contained stand-in at exactly the
//! abstraction level PIBE's algorithms consume:
//!
//! * a module of [`Function`]s, each a control-flow graph of [`Block`]s,
//! * non-branch instructions carrying a *cost class* ([`OpKind`]) instead of
//!   full operand semantics,
//! * explicit direct calls, indirect calls, switches (optionally lowered via
//!   jump tables), conditional branches, and returns — the branch flavours
//!   whose elision and hardening PIBE is about,
//! * stable [`SiteId`]s for call sites so that profiles collected on one
//!   version of the code can be *lifted* onto transformed code (the paper's
//!   §7 "Kernel Profiling" lifting step), and
//! * a code-size model (`size` module) matching LLVM's `InlineCost`
//!   convention of ~5 abstract units per instruction.
//!
//! Control-flow decisions that would depend on runtime data in a real program
//! are represented as *behaviours*: a conditional branch carries a taken
//! probability, a switch carries case weights, and an indirect call resolves
//! its target through a per-site target oracle owned by the workload (see the
//! `pibe-kernel` crate). This makes whole-program execution deterministic
//! given a seed while still producing workload-dependent hot paths.
//!
//! ## Example
//!
//! ```
//! use pibe_ir::{FunctionBuilder, Module, OpKind};
//!
//! let mut module = Module::new("demo");
//! let callee = {
//!     let mut b = FunctionBuilder::new("callee", 1);
//!     b.op(OpKind::Alu);
//!     b.ret();
//!     module.add_function(b.build())
//! };
//! let mut b = FunctionBuilder::new("caller", 0);
//! let site = module.fresh_site();
//! b.call(site, callee, 1);
//! b.ret();
//! let caller = module.add_function(b.build());
//! module.verify().unwrap();
//! assert_eq!(module.function(caller).name(), "caller");
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod builder;
mod callgraph;
mod func;
mod ids;
mod inst;
mod module;
pub mod par;
mod print;
pub mod size;
pub mod text;
mod verify;

pub use builder::FunctionBuilder;
pub use callgraph::recursive_marks;
pub use func::{Block, BlockRef, FnAttrs, Function};
pub use ids::{BlockId, FuncId, SiteId, Symbol};
pub use inst::{BranchKind, Cond, Inst, OpKind, Terminator};
pub use module::{BranchCensus, CallSites, Module};
pub use text::{parse_module, ParseError};
pub use verify::VerifyError;
