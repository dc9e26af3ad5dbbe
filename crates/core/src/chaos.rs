//! Deterministic module fault injection (the `pibe-chaos` harness, module
//! side — the profile side lives in [`pibe_profile::chaos`]).
//!
//! Two uses:
//!
//! * corrupting a *base* module before it enters the pipeline, to check
//!   that input verification rejects it with a typed error instead of a
//!   panic five stages later;
//! * sabotaging the module *between* stages via
//!   [`ProfiledImageBuilder::inject_fault`](crate::ProfiledImageBuilder::inject_fault),
//!   which simulates a buggy pass and exercises the post-stage verify that
//!   aborts the build.
//!
//! Every corruption is a pure function of `(module, seed)`, so chaos runs
//! are exactly reproducible.

use pibe_ir::{BlockId, FuncId, Inst, Module, Terminator};
use pibe_profile::ChaosRng;
use std::fmt;

/// One kind of structural module corruption, each tripping a distinct
/// [`VerifyError`](pibe_ir::VerifyError).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ModuleCorruption {
    /// Retarget one direct call at a function outside the module
    /// (`VerifyError::DanglingCallee`).
    DanglingCallee,
    /// Point one block terminator at a block outside its function
    /// (`VerifyError::DanglingBlock`).
    DanglingBlock,
    /// Desynchronise one switch's weights from its cases
    /// (`VerifyError::MalformedSwitch`).
    MalformedSwitch,
    /// Replace one function's returns with self-loops
    /// (`VerifyError::NoReturnPath`).
    NoReturnPath,
}

impl ModuleCorruption {
    /// Every corruption kind, in a fixed order.
    pub const ALL: [ModuleCorruption; 4] = [
        ModuleCorruption::DanglingCallee,
        ModuleCorruption::DanglingBlock,
        ModuleCorruption::MalformedSwitch,
        ModuleCorruption::NoReturnPath,
    ];

    /// Picks a corruption kind deterministically from `seed`.
    pub fn from_seed(seed: u64) -> Self {
        Self::ALL[(ChaosRng::new(seed).next_u64() % Self::ALL.len() as u64) as usize]
    }

    /// Applies this corruption to `module`, deterministically from `seed`.
    /// Returns `false` (module unchanged) when the module has no
    /// instruction of the required shape (e.g. no switch to malform).
    pub fn apply(self, module: &mut Module, seed: u64) -> bool {
        let mut rng = ChaosRng::new(seed ^ 0x0DDC_0FFE_E0DD);
        match self {
            ModuleCorruption::DanglingCallee => {
                let mut sites: Vec<(FuncId, BlockId, usize)> = Vec::new();
                for f in module.functions() {
                    for (b, block) in f.iter_blocks() {
                        for (i, inst) in block.insts().iter().enumerate() {
                            if matches!(inst, Inst::Call { .. }) {
                                sites.push((f.id(), b, i));
                            }
                        }
                    }
                }
                let Some(&(func, b, i)) = pick(&sites, &mut rng) else {
                    return false;
                };
                let ghost = FuncId::from_raw(module.len() as u32 + 1 + rng.below(1 << 10) as u32);
                let inst = &mut module.function_mut(func).block_insts_mut(b)[i];
                if let Inst::Call { callee, .. } = inst {
                    *callee = ghost;
                }
                true
            }
            ModuleCorruption::DanglingBlock => {
                let mut blocks: Vec<(FuncId, BlockId)> = Vec::new();
                for f in module.functions() {
                    for b in 0..f.num_blocks() {
                        blocks.push((f.id(), BlockId::from_raw(b as u32)));
                    }
                }
                let Some(&(func, b)) = pick(&blocks, &mut rng) else {
                    return false;
                };
                let nblocks = module.function(func).num_blocks() as u32;
                let ghost = BlockId::from_raw(nblocks + 1 + rng.below(1 << 8) as u32);
                *module.function_mut(func).term_mut(b) = Terminator::Jump { target: ghost };
                true
            }
            ModuleCorruption::MalformedSwitch => {
                let mut switches: Vec<(FuncId, BlockId)> = Vec::new();
                for f in module.functions() {
                    for (b, block) in f.iter_blocks() {
                        if let Terminator::Switch { weights, .. } = block.term() {
                            if !weights.is_empty() {
                                switches.push((f.id(), b));
                            }
                        }
                    }
                }
                let Some(&(func, b)) = pick(&switches, &mut rng) else {
                    return false;
                };
                if let Terminator::Switch { weights, .. } = module.function_mut(func).term_mut(b) {
                    weights.pop();
                }
                true
            }
            ModuleCorruption::NoReturnPath => {
                let funcs: Vec<FuncId> = module.func_ids().collect();
                let Some(&func) = pick(&funcs, &mut rng) else {
                    return false;
                };
                let mut changed = false;
                for (b, term) in module.function_mut(func).terms_mut().enumerate() {
                    if matches!(term, Terminator::Return) {
                        *term = Terminator::Jump {
                            target: BlockId::from_raw(b as u32),
                        };
                        changed = true;
                    }
                }
                changed
            }
        }
    }
}

impl fmt::Display for ModuleCorruption {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            ModuleCorruption::DanglingCallee => "dangling-callee",
            ModuleCorruption::DanglingBlock => "dangling-block",
            ModuleCorruption::MalformedSwitch => "malformed-switch",
            ModuleCorruption::NoReturnPath => "no-return-path",
        };
        f.write_str(name)
    }
}

/// A *semantic* module corruption: the result still passes every structural
/// check in [`Module::verify`], but behaves differently — the class of pass
/// bug the post-stage verifier is blind to, and the
/// reason the `pibe-difftest` differential oracle exists.
///
/// Deliberately kept out of [`ModuleCorruption::ALL`] / `from_seed`: the
/// chaos acceptance suite asserts that *structural* corruptions fail
/// verification, which these never do.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SemanticCorruption {
    /// Swap the two successors of one `Cond::Random` branch: the branch
    /// still draws the same random number, but control lands on the wrong
    /// side (an inverted condition — a classic miscompile).
    SwapBranchArms,
    /// Retarget one direct call at a different (existing) function — a
    /// devirtualization/promotion targeting bug.
    RedirectCall,
    /// Delete one compute op — a "dead store elimination" that was not
    /// actually dead.
    DropOp,
}

impl SemanticCorruption {
    /// Every semantic corruption kind, in a fixed order.
    pub const ALL: [SemanticCorruption; 3] = [
        SemanticCorruption::SwapBranchArms,
        SemanticCorruption::RedirectCall,
        SemanticCorruption::DropOp,
    ];

    /// Applies this corruption to `module`, deterministically from `seed`.
    /// Returns `false` (module unchanged) when the module has no site of
    /// the required shape. The corrupted module always verifies.
    pub fn apply(self, module: &mut Module, seed: u64) -> bool {
        let mut rng = ChaosRng::new(seed ^ 0x05EE_DBAD_5EED);
        match self {
            SemanticCorruption::SwapBranchArms => {
                let mut branches: Vec<(FuncId, BlockId)> = Vec::new();
                for f in module.functions() {
                    for (b, block) in f.iter_blocks() {
                        if let Terminator::Branch {
                            cond: pibe_ir::Cond::Random { .. },
                            then_bb,
                            else_bb,
                        } = block.term()
                        {
                            if then_bb != else_bb {
                                branches.push((f.id(), b));
                            }
                        }
                    }
                }
                let Some(&(func, b)) = pick(&branches, &mut rng) else {
                    return false;
                };
                if let Terminator::Branch {
                    then_bb, else_bb, ..
                } = module.function_mut(func).term_mut(b)
                {
                    std::mem::swap(then_bb, else_bb);
                }
                true
            }
            SemanticCorruption::RedirectCall => {
                if module.len() < 2 {
                    return false;
                }
                let mut sites: Vec<(FuncId, BlockId, usize, FuncId)> = Vec::new();
                for f in module.functions() {
                    for (b, block) in f.iter_blocks() {
                        for (i, inst) in block.insts().iter().enumerate() {
                            if let Inst::Call { callee, .. } = inst {
                                sites.push((f.id(), b, i, *callee));
                            }
                        }
                    }
                }
                let Some(&(func, b, i, old)) = pick(&sites, &mut rng) else {
                    return false;
                };
                // Pick a different existing function (never `func` itself:
                // a fabricated self-call could recurse forever).
                let candidates: Vec<FuncId> = module
                    .func_ids()
                    .filter(|f| *f != old && *f != func)
                    .collect();
                let Some(&wrong) = pick(&candidates, &mut rng) else {
                    return false;
                };
                if let Inst::Call { callee, .. } =
                    &mut module.function_mut(func).block_insts_mut(b)[i]
                {
                    *callee = wrong;
                }
                true
            }
            SemanticCorruption::DropOp => {
                let mut ops: Vec<(FuncId, BlockId, usize)> = Vec::new();
                for f in module.functions() {
                    for (b, block) in f.iter_blocks() {
                        for (i, inst) in block.insts().iter().enumerate() {
                            if matches!(inst, Inst::Op(_)) {
                                ops.push((f.id(), b, i));
                            }
                        }
                    }
                }
                let Some(&(func, b, i)) = pick(&ops, &mut rng) else {
                    return false;
                };
                module.function_mut(func).remove_inst(b, i);
                true
            }
        }
    }
}

impl fmt::Display for SemanticCorruption {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            SemanticCorruption::SwapBranchArms => "swap-branch-arms",
            SemanticCorruption::RedirectCall => "redirect-call",
            SemanticCorruption::DropOp => "drop-op",
        };
        f.write_str(name)
    }
}

/// Deterministic element pick.
fn pick<'a, T>(items: &'a [T], rng: &mut ChaosRng) -> Option<&'a T> {
    if items.is_empty() {
        None
    } else {
        Some(&items[rng.below(items.len() as u64) as usize])
    }
}

/// Corrupts a copy of `module` with the corruption kind derived from
/// `seed`. Returns the corrupted copy, the kind, and whether the corruption
/// actually landed.
pub fn corrupt_module(module: &Module, seed: u64) -> (Module, ModuleCorruption, bool) {
    let kind = ModuleCorruption::from_seed(seed);
    let mut m = module.clone();
    let landed = kind.apply(&mut m, seed);
    (m, kind, landed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pibe_ir::{Cond, FunctionBuilder, OpKind};

    fn sample_module() -> Module {
        let mut m = Module::new("m");
        let mut b = FunctionBuilder::new("leaf", 0);
        b.op(OpKind::Alu);
        b.ret();
        let leaf = m.add_function(b.build());
        let s = m.fresh_site();
        let mut b = FunctionBuilder::new("root", 0);
        let t = b.new_block();
        let e = b.new_block();
        b.call(s, leaf, 0);
        b.branch(Cond::Random { ptaken_milli: 500 }, t, e);
        b.switch_to(t);
        b.ret();
        b.switch_to(e);
        b.ret();
        m.add_function(b.build());
        m
    }

    #[test]
    fn landed_corruptions_fail_verification() {
        let base = sample_module();
        base.verify().expect("sample module is valid");
        let mut landed = 0;
        for seed in 0..100 {
            let (corrupt, kind, hit) = corrupt_module(&base, seed);
            if !hit {
                // MalformedSwitch cannot land (no switch in the sample).
                assert_eq!(kind, ModuleCorruption::MalformedSwitch);
                continue;
            }
            landed += 1;
            assert!(
                corrupt.verify().is_err(),
                "seed {seed} ({kind}) corrupted the module but it still verifies"
            );
        }
        assert!(landed > 50, "most corruptions must land: {landed}/100");
    }

    #[test]
    fn semantic_corruptions_keep_the_module_valid() {
        // A third function so RedirectCall has somewhere wrong to point.
        let mut base = sample_module();
        let mut b = FunctionBuilder::new("decoy", 0);
        b.op(OpKind::Store);
        b.ret();
        base.add_function(b.build());
        for kind in SemanticCorruption::ALL {
            let mut landed = 0;
            for seed in 0..30u64 {
                let mut m = base.clone();
                if !kind.apply(&mut m, seed) {
                    continue;
                }
                landed += 1;
                m.verify()
                    .unwrap_or_else(|e| panic!("{kind} seed {seed} broke validity: {e}"));
                assert_ne!(
                    format!("{m:?}"),
                    format!("{base:?}"),
                    "{kind} seed {seed} claims to have landed but changed nothing"
                );
            }
            assert!(landed > 0, "{kind} never landed on the sample module");
        }
    }

    #[test]
    fn semantic_corruption_is_deterministic() {
        let base = sample_module();
        for seed in 0..10u64 {
            let mut a = base.clone();
            let mut b = base.clone();
            SemanticCorruption::SwapBranchArms.apply(&mut a, seed);
            SemanticCorruption::SwapBranchArms.apply(&mut b, seed);
            assert_eq!(format!("{a:?}"), format!("{b:?}"));
        }
    }

    #[test]
    fn corruption_is_deterministic() {
        let base = sample_module();
        for seed in 0..20 {
            let (a, ka, _) = corrupt_module(&base, seed);
            let (b, kb, _) = corrupt_module(&base, seed);
            assert_eq!(ka, kb);
            assert_eq!(
                format!("{a:?}"),
                format!("{b:?}"),
                "seed {seed} must corrupt identically"
            );
        }
    }
}
