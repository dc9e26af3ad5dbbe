//! The mechanical inline transform: CFG splicing.

use pibe_ir::{BlockId, FuncId, Inst, Module, SiteId, Terminator};
use std::fmt;

/// What [`inline_call_site`] did: the identity of the elided call plus every
/// call site that was copied from the callee into the caller (the inliner
/// turns these into new candidates via the constant-ratio heuristic).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InlinedCall {
    /// The function the callee was merged into.
    pub caller: FuncId,
    /// The function whose body was copied.
    pub callee: FuncId,
    /// The elided call site.
    pub site: SiteId,
    /// Arguments the elided call passed — with the callee's complexity this
    /// determines the exact caller-cost change
    /// ([`pibe_ir::size::inline_cost_delta`]).
    pub call_args: u8,
    /// Direct call sites copied into the caller: `(site, callee)`.
    pub copied_direct_sites: Vec<(SiteId, FuncId)>,
    /// Where each of `copied_direct_sites` landed in the caller, index
    /// aligned: `(block, raw pool position)` (the inliner's position hints).
    pub(crate) copied_direct_at: Vec<(BlockId, u32)>,
    /// Indirect call sites copied into the caller.
    pub copied_indirect_sites: Vec<SiteId>,
}

/// Failure of [`inline_call_site`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InlineError {
    /// The caller contains no direct call with the given site id.
    SiteNotFound {
        /// The function searched.
        caller: FuncId,
        /// The site that was not found.
        site: SiteId,
    },
    /// The call is a self-call; inlining it would not terminate.
    SelfInline {
        /// The self-calling function.
        func: FuncId,
    },
}

impl fmt::Display for InlineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            InlineError::SiteNotFound { caller, site } => {
                write!(f, "no direct call {site} in {caller}")
            }
            InlineError::SelfInline { func } => write!(f, "refusing to inline {func} into itself"),
        }
    }
}

impl std::error::Error for InlineError {}

/// Inlines the first direct call with id `site` found in `caller`:
/// the call instruction is replaced by the callee's CFG, the callee's
/// returns become jumps to the split-off continuation, and the caller's
/// stack frame grows by the callee's (stack slots of merged frames are
/// *not* re-coloured — the inefficiency Rule 2 exists to bound, §5.2).
///
/// The caller's code size and complexity grow by construction; callers of
/// this function (the inliner, the baselines) decide *whether* growing is
/// worth it.
///
/// # Errors
/// [`InlineError::SiteNotFound`] when `caller` has no direct call `site`;
/// [`InlineError::SelfInline`] when the call target is `caller` itself.
pub fn inline_call_site(
    module: &mut Module,
    caller: FuncId,
    site: SiteId,
) -> Result<InlinedCall, InlineError> {
    // Locate the call (first in block order; see `Function::find_call`).
    let call = module
        .function(caller)
        .find_call(site)
        .ok_or(InlineError::SiteNotFound { caller, site })?;
    splice_call(module, caller, site, call)
}

/// The splice behind [`inline_call_site`], for a call already located:
/// `call` is `(block, index, callee, args)` as [`Function::find_call`]
/// returns it. The PIBE inliner locates calls itself and enters here.
///
/// [`Function::find_call`]: pibe_ir::Function::find_call
pub(crate) fn splice_call(
    module: &mut Module,
    caller: FuncId,
    site: SiteId,
    (bid, idx, callee, call_args): (BlockId, usize, FuncId, u8),
) -> Result<InlinedCall, InlineError> {
    if callee == caller {
        return Err(InlineError::SelfInline { func: caller });
    }

    // Snapshot the callee via its sharing handle (no body copy) and record
    // the sites we are about to copy, in block order. `splice_body` appends
    // the callee's live instructions in block order at the end of the pool,
    // its block `j` becoming the caller's `entry + j`, so each copied call's
    // caller position is known before the splice.
    let callee_fn = module.function_arc(callee).clone();
    let caller_fn = module.function(caller);
    let nblocks = caller_fn.num_blocks() as u32;
    let entry_id = BlockId::from_raw(nblocks + 1);
    let mut pos = caller_fn.insts().len() as u32;
    let mut copied_direct = Vec::new();
    let mut copied_direct_at = Vec::new();
    let mut copied_indirect = Vec::new();
    for (j, block) in callee_fn.iter_blocks() {
        let at = BlockId::from_raw(entry_id.index() as u32 + j.index() as u32);
        for inst in block.insts() {
            match inst {
                Inst::Call {
                    site: s, callee: c, ..
                } => {
                    copied_direct.push((*s, *c));
                    copied_direct_at.push((at, pos));
                }
                Inst::CallIndirect { site: s, .. } => copied_indirect.push(*s),
                _ => {}
            }
            pos += 1;
        }
    }

    let caller_fn = module.function_mut(caller);

    // Split the calling block at the call instruction (the call slot is
    // tombstoned, everything after it becomes the continuation), then
    // splice the callee body in one pool append with returns redirected.
    let cont_id = caller_fn.split_block(bid, idx, true, Terminator::Jump { target: entry_id });
    debug_assert_eq!(cont_id, BlockId::from_raw(nblocks));
    let spliced_entry = caller_fn.splice_body(&callee_fn, cont_id);
    debug_assert_eq!(spliced_entry, entry_id);

    // Merged frames keep both allocations (no stack re-colouring).
    let merged = caller_fn
        .frame_bytes()
        .saturating_add(callee_fn.frame_bytes());
    caller_fn.set_frame_bytes(merged);

    Ok(InlinedCall {
        caller,
        callee,
        site,
        call_args,
        copied_direct_sites: copied_direct,
        copied_direct_at,
        copied_indirect_sites: copied_indirect,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use pibe_ir::{size, Cond, FunctionBuilder, OpKind};

    /// callee(1) { alu; alu; ret }   caller() { mov; call callee; load; ret }
    fn module() -> (Module, FuncId, FuncId, SiteId) {
        let mut m = Module::new("m");
        let mut b = FunctionBuilder::new("callee", 1);
        b.frame_bytes(96);
        b.ops(OpKind::Alu, 2);
        b.ret();
        let callee = m.add_function(b.build());
        let site = m.fresh_site();
        let mut b = FunctionBuilder::new("caller", 0);
        b.frame_bytes(64);
        b.op(OpKind::Mov);
        b.call(site, callee, 1);
        b.op(OpKind::Load);
        b.ret();
        let caller = m.add_function(b.build());
        (m, caller, callee, site)
    }

    #[test]
    fn inlining_splices_body_and_preserves_verification() {
        let (mut m, caller, callee, site) = module();
        let info = inline_call_site(&mut m, caller, site).unwrap();
        assert_eq!(info.caller, caller);
        assert_eq!(info.callee, callee);
        assert!(info.copied_direct_sites.is_empty());
        m.verify().unwrap();
        // The caller no longer contains the call.
        let f = m.function(caller);
        assert!(f.iter_insts().all(|i| i.call_site() != Some(site)));
        // Blocks: original, continuation, one callee block.
        assert_eq!(f.num_blocks(), 3);
        // All callee ops are now in the caller.
        assert_eq!(f.inst_count(), 2 + 2);
    }

    #[test]
    fn frames_merge_without_recolouring() {
        let (mut m, caller, _callee, site) = module();
        inline_call_site(&mut m, caller, site).unwrap();
        assert_eq!(m.function(caller).frame_bytes(), 64 + 96);
    }

    #[test]
    fn caller_cost_grows_by_roughly_callee_cost() {
        let (mut m, caller, callee, site) = module();
        let caller_before = size::function_cost(m.function(caller));
        let callee_cost = size::function_cost(m.function(callee));
        inline_call_site(&mut m, caller, site).unwrap();
        let caller_after = size::function_cost(m.function(caller));
        // The call inst (5 + 5*1) disappears; the body plus glue jumps appear.
        assert!(caller_after > caller_before);
        assert!(caller_after <= caller_before + callee_cost + 2 * size::STANDARD_INST_COST);
    }

    #[test]
    fn inline_cost_delta_is_exact() {
        let (mut m, caller, callee, site) = module();
        let caller_before = size::function_cost(m.function(caller));
        let callee_cost = size::function_cost(m.function(callee));
        let info = inline_call_site(&mut m, caller, site).unwrap();
        let caller_after = size::function_cost(m.function(caller));
        assert_eq!(info.call_args, 1);
        assert_eq!(
            i64::from(caller_after),
            i64::from(caller_before) + size::inline_cost_delta(callee_cost, info.call_args),
            "the analytic delta must match a recomputed walk exactly"
        );
    }

    #[test]
    fn multi_return_callee_rejoins_at_continuation() {
        let mut m = Module::new("m");
        let mut b = FunctionBuilder::new("branchy", 0);
        let t = b.new_block();
        let e = b.new_block();
        b.branch(Cond::Random { ptaken_milli: 500 }, t, e);
        b.switch_to(t);
        b.op(OpKind::Alu);
        b.ret();
        b.switch_to(e);
        b.op(OpKind::Load);
        b.ret();
        let callee = m.add_function(b.build());
        let site = m.fresh_site();
        let mut b = FunctionBuilder::new("caller", 0);
        b.call(site, callee, 0);
        b.op(OpKind::Store);
        b.ret();
        let caller = m.add_function(b.build());

        inline_call_site(&mut m, caller, site).unwrap();
        m.verify().unwrap();
        let f = m.function(caller);
        // No Return from the callee body survives except the caller's own.
        assert_eq!(f.return_sites(), 1);
    }

    #[test]
    fn copied_sites_are_reported() {
        let mut m = Module::new("m");
        let mut b = FunctionBuilder::new("leaf", 0);
        b.ret();
        let leaf = m.add_function(b.build());
        let s_inner = m.fresh_site();
        let s_ind = m.fresh_site();
        let mut b = FunctionBuilder::new("mid", 0);
        b.call(s_inner, leaf, 0);
        b.call_indirect(s_ind, 0);
        b.ret();
        let mid = m.add_function(b.build());
        let s_outer = m.fresh_site();
        let mut b = FunctionBuilder::new("root", 0);
        b.call(s_outer, mid, 0);
        b.ret();
        let root = m.add_function(b.build());

        let info = inline_call_site(&mut m, root, s_outer).unwrap();
        assert_eq!(info.copied_direct_sites, vec![(s_inner, leaf)]);
        assert_eq!(info.copied_indirect_sites, vec![s_ind]);
        m.verify().unwrap();
        // The position hints name the copied call's slot and block.
        let f = m.function(root);
        let [(block, pos)] = info.copied_direct_at[..] else {
            panic!("one hint per copied direct site");
        };
        assert!(f.block_range(block).contains(&(pos as usize)));
        assert_eq!(f.insts()[pos as usize].call_site(), Some(s_inner));
    }

    #[test]
    fn missing_site_is_an_error() {
        let (mut m, caller, _callee, _site) = module();
        let bogus = SiteId::from_raw(999);
        assert_eq!(
            inline_call_site(&mut m, caller, bogus),
            Err(InlineError::SiteNotFound {
                caller,
                site: bogus
            })
        );
    }

    #[test]
    fn self_inline_is_rejected() {
        let mut m = Module::new("m");
        // Build rec() with a self call (allowed structurally).
        let mut b = FunctionBuilder::new("tmp", 0);
        b.ret();
        let rec = m.add_function(b.build());
        let site = m.fresh_site();
        let mut b = FunctionBuilder::new("rec", 0);
        b.call(site, rec, 0);
        b.ret();
        m.replace_function(rec, b.build());
        let err = inline_call_site(&mut m, rec, site).unwrap_err();
        assert_eq!(err, InlineError::SelfInline { func: rec });
    }
}
