//! Code-size and complexity models.
//!
//! Two related but distinct measures:
//!
//! * **bytes** — the model's machine-code footprint, used for the image-size
//!   experiments (Table 12) and the simulator's i-cache layout;
//! * **inline cost** — LLVM's `InlineCost`-style complexity heuristic, which
//!   the paper describes exactly in §5.2: "Most instructions incur a standard
//!   cost [of 5] … a nested call instruction is assigned cost
//!   `5 + 5 * num_args`". PIBE's Rules 2 and 3 threshold on this measure.

use crate::func::Function;
use crate::inst::{Inst, OpKind, Terminator};

/// LLVM's standard per-instruction cost on x86 (§5.2: "perhaps used as an
/// approximation for the average binary instruction size").
pub const STANDARD_INST_COST: u32 = 5;

/// Inline cost of one instruction.
pub fn inst_cost(inst: &Inst) -> u32 {
    match inst {
        Inst::Op(_) => STANDARD_INST_COST,
        // §5.2: "a nested call instruction is assigned cost 5 + 5 * num_args"
        Inst::Call { args, .. } | Inst::CallIndirect { args, .. } => {
            STANDARD_INST_COST + STANDARD_INST_COST * u32::from(*args)
        }
        Inst::ResolveTarget { .. } => STANDARD_INST_COST,
    }
}

/// Inline cost of a terminator.
pub fn term_cost(term: &Terminator) -> u32 {
    match term {
        // A return or unconditional jump is one instruction.
        Terminator::Return | Terminator::Jump { .. } => STANDARD_INST_COST,
        Terminator::Branch { .. } => STANDARD_INST_COST,
        // A compare-chain switch costs one cmp+jcc pair per case; a
        // jump-table switch costs the bounds check plus the indexed jump.
        Terminator::Switch {
            cases, via_table, ..
        } => {
            if *via_table {
                2 * STANDARD_INST_COST
            } else {
                (cases.len() as u32).max(1) * 2 * STANDARD_INST_COST
            }
        }
    }
}

/// Inline cost ("complexity") of a whole function — the quantity PIBE's
/// Rule 2 (caller budget, threshold 12 000) and Rule 3 (callee impact,
/// threshold 3 000) compare against.
pub fn function_cost(f: &Function) -> u32 {
    // Block-ordered walk: only live instructions count (never the raw pool,
    // which may carry tombstones of deleted calls).
    f.iter_insts().map(inst_cost).sum::<u32>() + f.terms().map(term_cost).sum::<u32>()
}

/// Exact change in a caller's [`function_cost`] from inlining a direct
/// call that passed `call_args` arguments to a callee of cost
/// `callee_cost`.
///
/// The splice adds the callee's whole body (its `Return` terminators
/// become `Jump`s — same cost), removes the call instruction
/// (`5 + 5 * call_args`), and adds one `Jump` where the calling block was
/// split, so the net change is `callee_cost - 5 * call_args` — negative
/// when a tiny callee is reached through a long argument list. The
/// inliner's incremental caller-cost cache applies this delta instead of
/// re-walking the merged body.
pub fn inline_cost_delta(callee_cost: u32, call_args: u8) -> i64 {
    i64::from(callee_cost) - i64::from(STANDARD_INST_COST) * i64::from(call_args)
}

/// Model machine-code bytes of one instruction.
pub fn inst_bytes(inst: &Inst) -> u32 {
    match inst {
        Inst::Op(OpKind::Fence) => 3,
        Inst::Op(_) => 4,
        // call rel32 = 5 bytes, plus one mov per argument.
        Inst::Call { args, .. } => 5 + 4 * u32::from(*args),
        // call *%reg = 3 bytes, plus arg moves.
        Inst::CallIndirect { args, .. } => 3 + 4 * u32::from(*args),
        Inst::ResolveTarget { .. } => 4,
    }
}

/// Model machine-code bytes of a terminator.
pub fn term_bytes(term: &Terminator) -> u32 {
    match term {
        Terminator::Jump { .. } => 5,
        Terminator::Branch { .. } => 8, // cmp/test + jcc
        Terminator::Switch {
            cases, via_table, ..
        } => {
            if *via_table {
                // bounds check + indexed jump + table entries (4B each).
                12 + 4 * cases.len() as u32
            } else {
                8 * (cases.len() as u32).max(1)
            }
        }
        Terminator::Return => 1,
    }
}

/// Model machine-code bytes of a function (blocks laid out consecutively).
///
/// Memoized on the function: copy-on-write bodies are size-summed by every
/// pipeline stage report, so an unchanged body answers from its cache and
/// any `&mut` access recomputes on next call.
pub fn function_bytes(f: &Function) -> u64 {
    if let Some(b) = f.cached_bytes() {
        return b;
    }
    let bytes = f.iter_blocks().map(|(_, b)| block_bytes(b) as u64).sum();
    f.set_cached_bytes(bytes);
    bytes
}

/// Model machine-code bytes of one block: its instructions and terminator.
pub fn block_bytes(b: crate::func::BlockRef<'_>) -> u32 {
    b.insts().iter().map(inst_bytes).sum::<u32>() + term_bytes(b.term())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::FunctionBuilder;
    use crate::ids::{BlockId, FuncId, SiteId};
    use crate::Module;

    #[test]
    fn call_cost_follows_paper_formula() {
        let call = Inst::Call {
            site: SiteId::from_raw(0),
            callee: FuncId::from_raw(0),
            args: 3,
        };
        assert_eq!(inst_cost(&call), 5 + 5 * 3);
        assert_eq!(inst_cost(&Inst::Op(OpKind::Alu)), STANDARD_INST_COST);
    }

    #[test]
    fn function_cost_sums_blocks_and_terminators() {
        let mut b = FunctionBuilder::new("f", 0);
        b.ops(OpKind::Alu, 4); // 4*5 = 20
        b.ret(); // 5
        let f = b.build();
        assert_eq!(function_cost(&f), 25);
    }

    #[test]
    fn jump_table_switch_is_smaller_than_long_cmp_chain() {
        use crate::inst::Terminator;
        let cases: Vec<BlockId> = (0..8).map(BlockId::from_raw).collect();
        let table = Terminator::Switch {
            weights: vec![1; 8],
            cases: cases.clone(),
            default_weight: 1,
            default: BlockId::from_raw(8),
            via_table: true,
        };
        let chain = Terminator::Switch {
            weights: vec![1; 8],
            cases,
            default_weight: 1,
            default: BlockId::from_raw(8),
            via_table: false,
        };
        assert!(term_bytes(&table) < term_bytes(&chain));
        assert!(term_cost(&table) < term_cost(&chain));
    }

    /// `function_bytes` is memoized per body, and every `&mut` accessor
    /// drops the memo — growing a function must be reflected immediately.
    #[test]
    fn byte_cache_invalidated_by_mutation() {
        use crate::inst::{Inst, OpKind};
        let mut m = Module::new("m");
        let mut b = FunctionBuilder::new("f", 0);
        b.op(OpKind::Alu);
        b.ret();
        let id = m.add_function(b.build());

        let before = function_bytes(m.function(id));
        assert_eq!(before, function_bytes(m.function(id)), "memo is stable");
        m.function_mut(id)
            .insert_inst(BlockId::ENTRY, 0, Inst::Op(OpKind::Load));
        let after = function_bytes(m.function(id));
        assert_eq!(
            after,
            before + u64::from(inst_bytes(&Inst::Op(OpKind::Load)))
        );
    }
}
