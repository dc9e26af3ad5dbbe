//! # pibe-passes
//!
//! PIBE's profile-guided indirect-branch-elimination passes — the paper's
//! core contribution (§5):
//!
//! * [`icp`] — **indirect call promotion**: rewrites the hottest
//!   `(site, target)` pairs (greedily, by execution count, with *no* cap on
//!   promoted targets per site, §5.3) into compare-guarded direct calls with
//!   the original indirect call left as a fallback;
//! * [`inliner`] — the **security inliner**: greedily inlines the hottest
//!   direct call sites (which ICP just multiplied) to eliminate backward
//!   edges, governed by the paper's three rules: (1) inline only hot call
//!   sites (an optimization [`Budget`] over the cumulative execution
//!   count); (2) skip when the caller's post-inline complexity would exceed
//!   12 000; (3) skip callees whose own complexity exceeds 3 000. After
//!   inlining `f` with site count ε, `f`'s call sites are re-added as
//!   candidates at `count × ε / invocations(f)` (the constant-ratio
//!   heuristic).
//!
//! Both passes are real CFG transformations (block splitting and splicing),
//! so code growth, cache pressure, and gadget duplication emerge in the
//! simulator rather than being assumed. Run ICP *before* the inliner, as
//! the paper does — promotion is what turns indirect calls into inlinable
//! direct calls.
//!
//! ## Example
//!
//! ```
//! use pibe_ir::{FunctionBuilder, Module, OpKind};
//! use pibe_passes::{run_inliner, InlinerConfig, SiteWeights};
//! use pibe_profile::Profile;
//!
//! // callee() { alu; ret }   caller() { call callee; ret }
//! let mut module = Module::new("demo");
//! let mut b = FunctionBuilder::new("callee", 0);
//! b.op(OpKind::Alu);
//! b.ret();
//! let callee = module.add_function(b.build());
//! let site = module.fresh_site();
//! let mut b = FunctionBuilder::new("caller", 0);
//! b.call(site, callee, 0);
//! b.ret();
//! module.add_function(b.build());
//!
//! // A profile that saw the call 100 times.
//! let mut profile = Profile::new();
//! for _ in 0..100 {
//!     profile.record_direct(site);
//!     profile.record_entry(callee);
//! }
//! let weights = SiteWeights::from_profile(&profile);
//! let stats = run_inliner(&mut module, &weights, &profile, &InlinerConfig::default());
//! assert_eq!(stats.inlined_sites, 1);
//! assert_eq!(stats.inlined_weight, 100);
//! ```
//!
//! [`Budget`]: pibe_profile::Budget

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod dce;
pub mod icp;
pub mod inliner;
pub mod spectre_v1;
pub mod stats;
mod transform;
mod weights;

pub use dce::{strip_unreachable, strip_unreachable_threaded, DceMap, DceStats};
pub use icp::{plan_promotions, promote_indirect_calls, IcpConfig, IcpSiteDecision, IcpStats};
pub use inliner::{rule1_selection, run_inliner, InlinerConfig, InlinerStats};
pub use spectre_v1::{fence_all_conditionals, fence_gadgets, find_v1_gadgets, V1Gadget};
pub use stats::PassStats;
pub use transform::{inline_call_site, InlineError, InlinedCall};
pub use weights::SiteWeights;
