//! The executor: runs IR under the cost model.

use crate::attack::AttackReport;
use crate::machine::{Btb, ICache, MachineConfig, Rsb};
use pibe_harden::{costs, Arch, DefenseSet};
use pibe_ir::{size, BlockId, Cond, FuncId, Inst, Module, OpKind, SiteId, Terminator};
use pibe_profile::Profile;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};
use std::cell::OnceCell;
use std::collections::HashMap;
use std::fmt;

/// Supplies the runtime target of each indirect call site.
///
/// This is the simulator's stand-in for data-dependent function pointers:
/// the *workload* owns the distribution of targets per site (different
/// workloads exercise different targets, which is what makes profiles
/// workload-dependent, §8.4).
pub trait TargetResolver {
    /// Samples the runtime target of indirect call `site`, or `None` when
    /// the site can never execute under this workload.
    fn resolve(&mut self, site: SiteId, rng: &mut SmallRng) -> Option<FuncId>;
}

/// Resolves every site to one fixed function (micro-benchmarks).
#[derive(Debug, Clone, Copy)]
pub struct FixedResolver(pub FuncId);

impl TargetResolver for FixedResolver {
    fn resolve(&mut self, _site: SiteId, _rng: &mut SmallRng) -> Option<FuncId> {
        Some(self.0)
    }
}

/// Resolves sites from a per-site weighted target distribution.
#[derive(Debug, Clone, Default)]
pub struct MapResolver {
    map: HashMap<SiteId, Vec<(FuncId, u32)>>,
}

impl MapResolver {
    /// Creates an empty resolver.
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets the weighted target distribution of `site`.
    ///
    /// An empty list (or one whose weights are all zero) is accepted and
    /// means the site never resolves: [`resolve`](TargetResolver::resolve)
    /// returns `None`, which the simulator reports as
    /// [`SimError::UnknownTarget`]. Fuzzers generate such sites on purpose
    /// (a function-pointer table a workload never fills in).
    pub fn insert(&mut self, site: SiteId, targets: Vec<(FuncId, u32)>) {
        self.map.insert(site, targets);
    }

    /// The distribution registered for `site`, if any.
    pub fn get(&self, site: SiteId) -> Option<&[(FuncId, u32)]> {
        self.map.get(&site).map(Vec::as_slice)
    }
}

impl TargetResolver for MapResolver {
    fn resolve(&mut self, site: SiteId, rng: &mut SmallRng) -> Option<FuncId> {
        let dist = self.map.get(&site)?;
        let total: u64 = dist.iter().map(|(_, w)| u64::from(*w)).sum();
        if total == 0 {
            // Empty or all-zero distribution: a defined "never resolves",
            // with no rng draw (so the random stream stays aligned for
            // differential runs) and no panic from `gen_range(0..0)`.
            return None;
        }
        let mut pick = rng.gen_range(0..total);
        for (f, w) in dist {
            let w = u64::from(*w);
            if pick < w {
                return Some(*f);
            }
            pick -= w;
        }
        None
    }
}

/// Runtime model of the JumpSwitches baseline (Amit et al., ATC '19):
/// indirect calls are patched at runtime into compare-and-direct-call
/// chains; multi-target sites are "periodically put in a learning state, in
/// which case the call is reconverted into a retpoline that relearns
/// targets" (§8.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct JumpSwitchConfig {
    /// Maximum promoted targets per site.
    pub max_slots: usize,
    /// Calls spent in learning mode per learning episode.
    pub learn_calls: u32,
    /// Calls between learning episodes for multi-target sites.
    pub relearn_period: u32,
    /// Extra cycles per call for the out-of-line trampoline jump (the
    /// cache-locality cost §9 contrasts with PIBE's inline checks).
    pub trampoline_cycles: u64,
    /// Consecutive chain misses that trigger relearning.
    pub miss_streak_limit: u32,
}

impl Default for JumpSwitchConfig {
    fn default() -> Self {
        JumpSwitchConfig {
            max_slots: 6,
            learn_calls: 8,
            relearn_period: 384,
            trampoline_cycles: 3,
            miss_streak_limit: 4,
        }
    }
}

#[derive(Debug, Default, Clone)]
struct JsSite {
    learned: Vec<FuncId>,
    learn_left: u32,
    calls_since_learn: u32,
    miss_streak: u32,
    multi: bool,
}

/// One observable event of an execution, recorded in program order when
/// [`SimConfig::collect_trace`] is set.
///
/// The event stream is the workspace's *semantic observation*: two modules
/// are behaviourally equivalent on a workload exactly when they produce the
/// same stream (modulo the projections differential testing applies — see
/// `pibe-difftest`). The vocabulary is chosen so that semantics-preserving
/// transforms keep the *core* events (ops, random-branch outcomes, switch
/// arms, site resolutions) bit-identical:
///
/// * ICP replaces an indirect call's resolver draw with a `ResolveTarget`
///   draw at the same dynamic position, so [`TraceEvent::Resolved`] events
///   line up; its guards use `Cond::TargetIs`, which records nothing.
/// * Inlining splices callee bodies verbatim — only [`TraceEvent::Enter`] /
///   [`TraceEvent::Return`] pairs disappear.
/// * Hardening only flips how switches dispatch (`via_table`), not which
///   arm runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum TraceEvent {
    /// A compute op executed (the side-effecting observables).
    Op(OpKind),
    /// Control entered a function through a call (direct or indirect).
    /// Function *identity* — not id — is the observable: passes renumber.
    Enter(FuncId),
    /// An indirect-call site resolved to a runtime target (either at a
    /// `CallIndirect` or at a promotion chain's `ResolveTarget`).
    Resolved {
        /// The resolved site.
        site: SiteId,
        /// The target the resolver produced.
        target: FuncId,
    },
    /// A `Cond::Random` branch executed. `Cond::TargetIs` guards are
    /// deliberately *not* recorded: they only exist in promoted code.
    BranchTaken(bool),
    /// A switch dispatched to arm `arm` (`cases.len()` means the default).
    SwitchArm(u32),
    /// Control returned out of a function.
    Return(FuncId),
}

/// Simulator configuration. Every field is an integer or a flag, so a
/// configuration is a hashable key (the lab memoizes evaluations by it).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SimConfig {
    /// Machine cost/capacity parameters.
    pub machine: MachineConfig,
    /// Defenses the image is hardened with (costs charged per branch).
    pub defenses: DefenseSet,
    /// The architecture whose [`DefenseBackend`](pibe_harden::DefenseBackend)
    /// interprets `defenses`: per-branch cycle deltas and whether the
    /// hardened sequence inhibits speculation (retpolines do; hardware-CFI
    /// landing pads leave the predictors running).
    pub arch: Arch,
    /// When set, indirect calls use the JumpSwitches runtime mechanism
    /// instead of static hardening (retpolines still back the slow path).
    pub jumpswitch: Option<JumpSwitchConfig>,
    /// Model the Enhanced IBRS hardware mitigation (§6.4): indirect
    /// branches pay a small fixed toll and cross-domain BTB poisoning is
    /// blocked, but attacks that train from within the kernel remain (the
    /// reason the paper sticks with retpolines).
    pub eibrs: bool,
    /// Model the kernel's ad-hoc RSB-refilling mitigation (§6.4): the RSB
    /// is stuffed with benign entries on every kernel entry. Costs a fixed
    /// per-entry stuffing sequence and blocks *userspace-to-kernel* RSB
    /// poisoning — but not the scenarios that survive refilling (deep call
    /// chains that overflow the RSB), which is the paper's argument for
    /// return retpolines.
    pub rsb_refill: bool,
    /// Collect an execution [`Profile`] (the profiling-phase binary).
    pub collect_profile: bool,
    /// Record the observable [`TraceEvent`] stream (differential testing).
    pub collect_trace: bool,
    /// Track the attack surface per executed indirect branch.
    pub track_attacks: bool,
    /// Abort after this many executed instructions (runaway guard).
    pub max_steps: u64,
    /// Abort beyond this call depth.
    pub max_depth: usize,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            machine: MachineConfig::default(),
            defenses: DefenseSet::NONE,
            arch: Arch::X86,
            jumpswitch: None,
            eibrs: false,
            rsb_refill: false,
            collect_profile: false,
            collect_trace: false,
            track_attacks: false,
            max_steps: 2_000_000_000,
            max_depth: 4096,
        }
    }
}

/// Execution failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SimError {
    /// The resolver had no target for an executed indirect call.
    UnknownTarget(SiteId),
    /// The resolver produced a function id outside the module.
    BadTarget(SiteId, FuncId),
    /// A `CallIndirect { resolved: true }` or `TargetIs` guard executed with
    /// no pinned target for its site.
    UnresolvedTarget(SiteId),
    /// The step limit was exceeded (likely an accidental infinite loop).
    StepLimit(u64),
    /// The call-depth limit was exceeded.
    StackOverflow(usize),
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::UnknownTarget(s) => write!(f, "no target distribution for {s}"),
            SimError::BadTarget(s, t) => write!(f, "{s} resolved to nonexistent {t}"),
            SimError::UnresolvedTarget(s) => write!(f, "{s} used before ResolveTarget"),
            SimError::StepLimit(n) => write!(f, "exceeded step limit of {n} instructions"),
            SimError::StackOverflow(n) => write!(f, "exceeded call depth limit of {n}"),
        }
    }
}

impl std::error::Error for SimError {}

/// Dynamic execution statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct ExecStats {
    /// Total simulated cycles.
    pub cycles: u64,
    /// Executed instructions (including terminators).
    pub insts: u64,
    /// Executed non-branch compute ops. Inlining and indirect call promotion
    /// preserve this count exactly — the workspace's semantics-preservation
    /// invariant.
    pub ops: u64,
    /// Executed direct calls.
    pub dcalls: u64,
    /// Executed indirect calls.
    pub icalls: u64,
    /// Executed indirect jumps (jump-table switches).
    pub ijumps: u64,
    /// Executed returns.
    pub rets: u64,
    /// BTB mispredictions on unprotected indirect branches.
    pub btb_misses: u64,
    /// RSB mispredictions on unprotected returns.
    pub rsb_misses: u64,
    /// L1 instruction-cache line misses.
    pub icache_misses: u64,
    /// Line misses that also missed the L2.
    pub l2_misses: u64,
    /// Peak stack usage in bytes.
    pub peak_stack_bytes: u64,
    /// Cycles spent in JumpSwitch learning mode (baseline diagnostics).
    pub jumpswitch_learn_cycles: u64,
    /// Cycles attributable to defense instrumentation (thunks, fences,
    /// guard chains, RSB stuffing).
    pub cycles_defense: u64,
    /// Cycles attributable to mispredictions (BTB and RSB penalties).
    pub cycles_prediction: u64,
    /// Cycles attributable to instruction-cache misses.
    pub cycles_locality: u64,
}

impl ExecStats {
    /// Cycles left after subtracting the attributed categories: the
    /// workload's base compute plus (predicted) control transfer costs.
    pub fn cycles_base(&self) -> u64 {
        self.cycles - self.cycles_defense - self.cycles_prediction - self.cycles_locality
    }

    /// Adds `other`'s counters into `self` (the totals of two runs); the
    /// peak stack is the larger of the two peaks.
    pub fn merge(&mut self, other: &ExecStats) {
        let ExecStats {
            cycles,
            insts,
            ops,
            dcalls,
            icalls,
            ijumps,
            rets,
            btb_misses,
            rsb_misses,
            icache_misses,
            l2_misses,
            peak_stack_bytes,
            jumpswitch_learn_cycles,
            cycles_defense,
            cycles_prediction,
            cycles_locality,
        } = *other;
        self.cycles += cycles;
        self.insts += insts;
        self.ops += ops;
        self.dcalls += dcalls;
        self.icalls += icalls;
        self.ijumps += ijumps;
        self.rets += rets;
        self.btb_misses += btb_misses;
        self.rsb_misses += rsb_misses;
        self.icache_misses += icache_misses;
        self.l2_misses += l2_misses;
        self.peak_stack_bytes = self.peak_stack_bytes.max(peak_stack_bytes);
        self.jumpswitch_learn_cycles += jumpswitch_learn_cycles;
        self.cycles_defense += cycles_defense;
        self.cycles_prediction += cycles_prediction;
        self.cycles_locality += cycles_locality;
    }
}

/// Where the simulated code sits in memory, so the i-cache and the BTB see
/// real addresses. Functions are laid out in id order, 16-byte aligned, as
/// a linker lays out sections; blocks follow each other inside a function.
///
/// Function bases are a prefix sum over the memoized
/// [`size::function_bytes`], so creating a layout is cheap. A function's
/// block spans and op runs are computed the first time control enters it:
/// a run touches a few hundred of a kernel's tens of thousands of
/// functions.
struct CodeLayout {
    machine: MachineConfig,
    func_base: Vec<u64>,
    /// Per function, its laid-out code once it has executed.
    code: Vec<OnceCell<FuncCode>>,
}

/// One executed function's block spans and op-run table.
struct FuncCode {
    /// `(offset, bytes, first run slot)` of each block.
    blocks: Box<[(u32, u32, u32)]>,
    /// One slot per instruction position, block by block, counting each
    /// terminator: the length and cycle sum of the run of consecutive
    /// `Inst::Op`s that starts there (`(0, 0)` at anything else).
    runs: Box<[(u32, u64)]>,
}

impl CodeLayout {
    fn new(module: &Module, machine: MachineConfig) -> Self {
        let mut cursor = 0u64;
        let func_base = module
            .functions()
            .iter()
            .map(|f| {
                let base = (cursor + 15) & !15;
                cursor = base + size::function_bytes(f);
                base
            })
            .collect();
        let mut code = Vec::new();
        code.resize_with(module.len(), OnceCell::new);
        CodeLayout {
            machine,
            func_base,
            code,
        }
    }

    fn func_base(&self, f: FuncId) -> u64 {
        self.func_base[f.index()]
    }

    fn code(&self, module: &Module, f: FuncId) -> &FuncCode {
        self.code[f.index()].get_or_init(|| {
            let mut blocks = Vec::new();
            let mut runs = Vec::new();
            let mut off = 0;
            for (_, b) in module.function(f).iter_blocks() {
                let bytes = size::block_bytes(b);
                blocks.push((off, bytes, runs.len() as u32));
                off += bytes;
                let first = runs.len();
                runs.resize(first + b.len() + 1, (0, 0));
                for (i, inst) in b.insts().iter().enumerate().rev() {
                    if let Inst::Op(kind) = *inst {
                        let (n, cycles) = runs[first + i + 1];
                        runs[first + i] = (n + 1, cycles + op_cycles(&self.machine, kind));
                    }
                }
            }
            FuncCode {
                blocks: blocks.into(),
                runs: runs.into(),
            }
        })
    }

    /// Address range `(start, len_bytes)` of block `b` of function `f`.
    fn block_range(&self, module: &Module, f: FuncId, b: BlockId) -> (u64, u32) {
        let (off, len, _) = self.code(module, f).blocks[b.index()];
        (self.func_base(f) + u64::from(off), len)
    }

    /// `(length, cycles)` of the op run starting at instruction `idx` of
    /// block `b` of function `f`.
    fn op_run(&self, module: &Module, f: FuncId, b: BlockId, idx: usize) -> (u32, u64) {
        let code = self.code(module, f);
        code.runs[code.blocks[b.index()].2 as usize + idx]
    }
}

/// Cycles one executed `Inst::Op` of class `kind` costs.
fn op_cycles(m: &MachineConfig, kind: OpKind) -> u64 {
    match kind {
        OpKind::Load => m.cycles_load,
        OpKind::Fence => m.cycles_fence,
        _ => m.cycles_simple,
    }
}

struct Frame {
    func: FuncId,
    block: BlockId,
    idx: usize,
    pending: Vec<(SiteId, FuncId)>,
    token: u64,
    frame_bytes: u64,
}

impl fmt::Debug for Frame {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Frame({} {} idx={})", self.func, self.block, self.idx)
    }
}

/// Executes a [`Module`] under the cost model, preserving machine state
/// (caches, predictors) across entry-point invocations the way a real
/// kernel stays warm across syscalls.
pub struct Simulator<'m, R> {
    module: &'m Module,
    layout: CodeLayout,
    resolver: R,
    rng: SmallRng,
    cfg: SimConfig,
    btb: Btb,
    rsb: Rsb,
    icache: ICache,
    frames: Vec<Frame>,
    steps: u64,
    next_token: u64,
    cur_stack: u64,
    stats: ExecStats,
    profile: Profile,
    trace: Vec<TraceEvent>,
    attacks: AttackReport,
    rsb_overflowed: bool,
    js_sites: HashMap<SiteId, JsSite>,
}

impl<R> fmt::Debug for Simulator<'_, R> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "Simulator(module={}, cycles={}, steps={})",
            self.module.name(),
            self.stats.cycles,
            self.steps
        )
    }
}

impl<'m, R: TargetResolver> Simulator<'m, R> {
    /// Creates a simulator over `module` with the given resolver and seed.
    pub fn new(module: &'m Module, resolver: R, seed: u64, cfg: SimConfig) -> Self {
        let m = &cfg.machine;
        Simulator {
            module,
            layout: CodeLayout::new(module, cfg.machine),
            resolver,
            rng: SmallRng::seed_from_u64(seed),
            cfg,
            btb: Btb::new(m.btb_entries),
            rsb: Rsb::new(m.rsb_depth),
            icache: ICache::new(
                m.icache_bytes,
                m.icache_line,
                m.icache_ways,
                m.l2_bytes,
                m.l2_ways,
            ),
            frames: Vec::new(),
            steps: 0,
            next_token: 1,
            cur_stack: 0,
            stats: ExecStats::default(),
            profile: Profile::new(),
            trace: Vec::new(),
            attacks: AttackReport::default(),
            rsb_overflowed: false,
            js_sites: HashMap::new(),
        }
    }

    /// Runs one invocation of `entry` to completion and returns the cycles
    /// it took. Machine state (caches, predictors) carries over between
    /// invocations.
    ///
    /// # Errors
    /// See [`SimError`]. On error the simulator's stack is cleared; machine
    /// state and accumulated statistics remain usable.
    pub fn call_entry(&mut self, entry: FuncId) -> Result<u64, SimError> {
        let start = self.stats.cycles;
        let r = self.run_from(entry);
        if r.is_err() {
            self.drain_stack();
        }
        r.map(|()| self.stats.cycles - start)
    }

    fn run_from(&mut self, entry: FuncId) -> Result<(), SimError> {
        if self.cfg.rsb_refill {
            // Stuff the RSB with benign entries on kernel entry: one call
            // per slot, ~2 cycles each.
            let stuffing = 2 * self.cfg.machine.rsb_depth as u64;
            self.stats.cycles += stuffing;
            self.stats.cycles_defense += stuffing;
            self.rsb_overflowed = false;
        }
        // The entry transfer behaves like a call so the RSB stays balanced
        // (a real syscall entry does not desynchronise the RSB either).
        self.rsb.push(self.next_token);
        self.push_frame(entry)?;
        self.enter_block();
        while !self.frames.is_empty() {
            self.step()?;
        }
        Ok(())
    }

    fn drain_stack(&mut self) {
        while let Some(f) = self.frames.pop() {
            self.cur_stack = self.cur_stack.saturating_sub(f.frame_bytes);
        }
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> &ExecStats {
        &self.stats
    }

    /// Accumulated cycles.
    pub fn cycles(&self) -> u64 {
        self.stats.cycles
    }

    /// Accumulated attack-surface report.
    pub fn attacks(&self) -> &AttackReport {
        &self.attacks
    }

    /// Takes the collected profile (empty unless `collect_profile` was set).
    pub fn take_profile(&mut self) -> Profile {
        std::mem::take(&mut self.profile)
    }

    /// Takes the recorded observable-event stream (empty unless
    /// [`SimConfig::collect_trace`] was set). Events accumulate across
    /// entry-point invocations; on an erroring invocation the stream keeps
    /// the events observed up to the failure point.
    pub fn take_trace(&mut self) -> Vec<TraceEvent> {
        std::mem::take(&mut self.trace)
    }

    #[inline]
    fn record(&mut self, ev: TraceEvent) {
        if self.cfg.collect_trace {
            self.trace.push(ev);
        }
    }

    // ---- internals -------------------------------------------------------

    fn push_frame(&mut self, func: FuncId) -> Result<(), SimError> {
        if self.frames.len() >= self.cfg.max_depth {
            return Err(SimError::StackOverflow(self.cfg.max_depth));
        }
        let f = self.module.function(func);
        let token = self.next_token;
        self.next_token += 1;
        let frame_bytes = u64::from(f.frame_bytes());
        self.cur_stack += frame_bytes;
        self.stats.peak_stack_bytes = self.stats.peak_stack_bytes.max(self.cur_stack);
        if self.cfg.collect_profile {
            self.profile.record_entry(func);
        }
        self.frames.push(Frame {
            func,
            block: BlockId::ENTRY,
            idx: 0,
            pending: Vec::new(),
            token,
            frame_bytes,
        });
        Ok(())
    }

    fn enter_block(&mut self) {
        let frame = self.frames.last().expect("enter_block with empty stack");
        let (addr, len) = self
            .layout
            .block_range(self.module, frame.func, frame.block);
        let (l1_misses, l2_misses) = self.icache.access(addr, len);
        self.stats.icache_misses += l1_misses;
        self.stats.l2_misses += l2_misses;
        let penalty = l1_misses * self.cfg.machine.icache_miss_penalty
            + l2_misses * self.cfg.machine.l2_miss_penalty;
        self.stats.cycles += penalty;
        self.stats.cycles_locality += penalty;
    }

    fn bump_step(&mut self) -> Result<(), SimError> {
        self.steps += 1;
        self.stats.insts += 1;
        if self.steps > self.cfg.max_steps {
            return Err(SimError::StepLimit(self.cfg.max_steps));
        }
        Ok(())
    }

    fn step(&mut self) -> Result<(), SimError> {
        let module = self.module;
        let frame = self.frames.last().expect("step with empty stack");
        if !self.cfg.collect_trace {
            // A run of plain ops is charged in one step; the trace needs
            // one event per op, and a step limit inside the run must trip
            // at the same instruction, so both fall through to the
            // per-instruction path.
            let (n, cycles) = self
                .layout
                .op_run(module, frame.func, frame.block, frame.idx);
            let n = u64::from(n);
            if n > 0 && self.steps + n <= self.cfg.max_steps {
                self.steps += n;
                self.stats.insts += n;
                self.stats.ops += n;
                self.stats.cycles += cycles;
                self.frames.last_mut().expect("frame").idx += n as usize;
                return Ok(());
            }
        }
        self.bump_step()?;
        let frame = self.frames.last_mut().expect("frame");
        let block = module.function(frame.func).block(frame.block);
        match block.insts().get(frame.idx) {
            Some(inst) => {
                frame.idx += 1;
                self.exec_inst(inst)
            }
            None => self.exec_term(block.term()),
        }
    }

    fn exec_inst(&mut self, inst: &'m Inst) -> Result<(), SimError> {
        let m = self.cfg.machine;
        match *inst {
            Inst::Op(kind) => {
                self.record(TraceEvent::Op(kind));
                self.stats.ops += 1;
                self.stats.cycles += op_cycles(&m, kind);
                Ok(())
            }
            Inst::ResolveTarget { site } => {
                // Part of a promotion guard chain: instrumentation cost.
                self.stats.cycles += m.cycles_simple;
                self.stats.cycles_defense += m.cycles_simple;
                let target = self.resolve(site)?;
                let frame = self.frames.last_mut().expect("frame");
                match frame.pending.iter_mut().find(|(s, _)| *s == site) {
                    Some(slot) => slot.1 = target,
                    None => frame.pending.push((site, target)),
                }
                Ok(())
            }
            Inst::Call { site, callee, .. } => {
                self.stats.dcalls += 1;
                self.stats.cycles += m.cycles_call;
                if self.cfg.collect_profile {
                    self.profile.record_direct(site);
                }
                self.do_call(callee)
            }
            Inst::CallIndirect {
                site,
                resolved,
                asm,
                ..
            } => {
                self.stats.icalls += 1;
                let target = if resolved {
                    self.pending_target(site)?
                } else {
                    self.resolve(site)?
                };
                // Inline-assembly calls are invisible to the (compiler-
                // inserted) profiling instrumentation, exactly as in the
                // paper's kernel profiler.
                if self.cfg.collect_profile && !asm {
                    self.profile.record_indirect(site, target);
                }
                self.charge_icall(site, target, asm);
                if self.cfg.track_attacks {
                    self.attacks.observe_icall_backend(
                        self.cfg.arch.backend(),
                        self.cfg.defenses,
                        asm,
                        self.cfg.jumpswitch.is_some(),
                        self.cfg.eibrs,
                    );
                }
                self.do_call(target)
            }
        }
    }

    fn resolve(&mut self, site: SiteId) -> Result<FuncId, SimError> {
        let target = self
            .resolver
            .resolve(site, &mut self.rng)
            .ok_or(SimError::UnknownTarget(site))?;
        if target.index() >= self.module.len() {
            return Err(SimError::BadTarget(site, target));
        }
        self.record(TraceEvent::Resolved { site, target });
        Ok(target)
    }

    fn pending_target(&self, site: SiteId) -> Result<FuncId, SimError> {
        let frame = self.frames.last().expect("frame");
        frame
            .pending
            .iter()
            .rev()
            .find(|(s, _)| *s == site)
            .map(|(_, t)| *t)
            .ok_or(SimError::UnresolvedTarget(site))
    }

    /// Charges the cost of an executed indirect call, depending on how (or
    /// whether) it is protected.
    fn charge_icall(&mut self, site: SiteId, target: FuncId, asm: bool) {
        let m = self.cfg.machine;
        self.stats.cycles += m.cycles_icall;
        if self.cfg.eibrs {
            // Restricted-speculation toll on every indirect branch.
            self.stats.cycles += 2;
            self.stats.cycles_defense += 2;
        }
        if asm {
            // Inline-asm sites cannot be instrumented: raw BTB behaviour.
            self.charge_btb(site, target);
            return;
        }
        if let Some(js) = self.cfg.jumpswitch {
            self.charge_jumpswitch(js, site, target);
            return;
        }
        // The backend's per-call instrumentation toll (zero when the
        // forward edge is unhardened), then the predictor: a retpoline
        // thunk inhibits speculation entirely — no BTB involvement — while
        // hardware-CFI landing pads leave the BTB running.
        let backend = self.cfg.arch.backend();
        let delta = backend.forward_delta(self.cfg.defenses);
        self.stats.cycles += delta;
        self.stats.cycles_defense += delta;
        if !backend.inhibits_forward_speculation(self.cfg.defenses) {
            self.charge_btb(site, target);
        }
    }

    fn charge_btb(&mut self, site: SiteId, target: FuncId) {
        let m = self.cfg.machine;
        let addr = site.raw().wrapping_mul(0x9E37_79B9_7F4A_7C15);
        let actual = self.layout.func_base(target);
        if !self.btb.predict_and_train(addr, actual) {
            self.stats.btb_misses += 1;
            self.stats.cycles += m.btb_miss_penalty;
            self.stats.cycles_prediction += m.btb_miss_penalty;
        }
    }

    fn charge_jumpswitch(&mut self, js: JumpSwitchConfig, site: SiteId, target: FuncId) {
        let m = self.cfg.machine;
        self.stats.cycles += js.trampoline_cycles;
        self.stats.cycles_defense += js.trampoline_cycles;
        let state = self.js_sites.entry(site).or_default();
        if state.learn_left > 0 {
            // Learning mode: retpoline slow path while recording targets.
            state.learn_left -= 1;
            if !state.learned.contains(&target) {
                if state.learned.len() < js.max_slots {
                    state.learned.push(target);
                } else {
                    state.learned.rotate_right(1);
                    state.learned[0] = target;
                }
            }
            if state.learned.len() > 1 {
                state.multi = true;
            }
            let cost = costs::forward_delta(DefenseSet::RETPOLINES);
            self.stats.cycles += cost;
            self.stats.jumpswitch_learn_cycles += cost;
            self.stats.cycles_defense += cost;
            return;
        }
        state.calls_since_learn += 1;
        if let Some(pos) = state.learned.iter().position(|t| *t == target) {
            // Chain hit: one compare per slot tested, then a direct call.
            state.miss_streak = 0;
            let chain = (pos as u64 + 1) * m.cycles_branch;
            self.stats.cycles += chain;
            self.stats.cycles_defense += chain;
            if state.multi && state.calls_since_learn >= js.relearn_period {
                state.learn_left = js.learn_calls;
                state.calls_since_learn = 0;
            }
        } else {
            // Chain miss: retpoline fallback; a streak triggers relearning.
            state.miss_streak += 1;
            let cost = costs::forward_delta(DefenseSet::RETPOLINES);
            self.stats.cycles += cost;
            self.stats.cycles_defense += cost;
            if state.miss_streak >= js.miss_streak_limit {
                state.learn_left = js.learn_calls;
                state.calls_since_learn = 0;
                state.miss_streak = 0;
            }
        }
    }

    fn do_call(&mut self, callee: FuncId) -> Result<(), SimError> {
        self.record(TraceEvent::Enter(callee));
        let token = self.next_token; // token assigned inside push_frame
        if self.rsb.push(token) {
            self.rsb_overflowed = true;
        }
        self.push_frame(callee)?;
        self.enter_block();
        Ok(())
    }

    fn exec_term(&mut self, term: &'m Terminator) -> Result<(), SimError> {
        let m = self.cfg.machine;
        match *term {
            Terminator::Jump { target } => {
                self.stats.cycles += m.cycles_branch;
                self.goto(target);
                Ok(())
            }
            Terminator::Branch {
                cond,
                then_bb,
                else_bb,
            } => {
                let taken = match cond {
                    Cond::Random { ptaken_milli } => {
                        self.stats.cycles += m.cycles_branch;
                        let taken = self.rng.gen_range(0..1000) < u32::from(ptaken_milli);
                        self.record(TraceEvent::BranchTaken(taken));
                        taken
                    }
                    Cond::TargetIs { site, target } => {
                        // cmp + predictable jcc: the paper's ~2 cycles/check,
                        // attributed to instrumentation (the promotion guard).
                        let check = m.cycles_simple + m.cycles_branch;
                        self.stats.cycles += check;
                        self.stats.cycles_defense += check;
                        self.pending_target(site)? == target
                    }
                };
                self.goto(if taken { then_bb } else { else_bb });
                Ok(())
            }
            Terminator::Switch {
                ref weights,
                ref cases,
                default_weight,
                default,
                via_table,
            } => {
                let choice = self.pick_case(weights, default_weight);
                let (dest, matched_idx) = match choice {
                    Some(i) => (cases[i], i),
                    None => (default, cases.len()),
                };
                self.record(TraceEvent::SwitchArm(matched_idx as u32));
                if via_table {
                    self.stats.ijumps += 1;
                    // Bounds check + indexed indirect jump, BTB-predicted.
                    self.stats.cycles += 2 * m.cycles_simple;
                    let backend = self.cfg.arch.backend();
                    if backend.protects_jump_tables(self.cfg.defenses) {
                        // Landing pads cover the table targets: the jump
                        // pays the backend's forward toll like any other
                        // indirect branch.
                        let delta = backend.forward_delta(self.cfg.defenses);
                        self.stats.cycles += delta;
                        self.stats.cycles_defense += delta;
                    }
                    let frame = self.frames.last().expect("frame");
                    let (addr, _) = self
                        .layout
                        .block_range(self.module, frame.func, frame.block);
                    let (dest_addr, _) = self.layout.block_range(self.module, frame.func, dest);
                    if !self.btb.predict_and_train(addr, dest_addr) {
                        self.stats.btb_misses += 1;
                        self.stats.cycles += m.btb_miss_penalty;
                        self.stats.cycles_prediction += m.btb_miss_penalty;
                    }
                    if self.cfg.track_attacks {
                        self.attacks
                            .observe_ijump_backend(backend, self.cfg.defenses);
                    }
                } else {
                    // Compare chain: one cmp+jcc per case tested.
                    self.stats.cycles +=
                        (matched_idx as u64 + 1) * (m.cycles_simple + m.cycles_branch);
                }
                self.goto(dest);
                Ok(())
            }
            Terminator::Return => {
                self.stats.rets += 1;
                self.stats.cycles += m.cycles_ret;
                let frame = self.frames.pop().expect("return with empty stack");
                self.record(TraceEvent::Return(frame.func));
                self.cur_stack = self.cur_stack.saturating_sub(frame.frame_bytes);
                if self.cfg.collect_profile {
                    self.profile.record_return(frame.func);
                }
                if self.cfg.track_attacks {
                    self.attacks.observe_return_backend(
                        self.cfg.arch.backend(),
                        self.cfg.defenses,
                        self.cfg.rsb_refill,
                        self.rsb_overflowed,
                    );
                }
                // The backend's per-return toll (zero when unhardened),
                // then the predictor: a return retpoline inhibits RSB
                // speculation; PAC-ret / shadow-stack checks leave the RSB
                // predicting as usual.
                let backend = self.cfg.arch.backend();
                let delta = backend.return_delta(self.cfg.defenses);
                self.stats.cycles += delta;
                self.stats.cycles_defense += delta;
                if backend.inhibits_return_speculation(self.cfg.defenses) {
                    let _ = self.rsb.pop_and_check(frame.token);
                } else if !self.rsb.pop_and_check(frame.token) {
                    self.stats.rsb_misses += 1;
                    self.stats.cycles += m.rsb_miss_penalty;
                    self.stats.cycles_prediction += m.rsb_miss_penalty;
                }
                Ok(())
            }
        }
    }

    fn pick_case(&mut self, weights: &[u16], default_weight: u16) -> Option<usize> {
        let total: u32 =
            weights.iter().map(|w| u32::from(*w)).sum::<u32>() + u32::from(default_weight);
        if total == 0 {
            return None;
        }
        let mut pick = self.rng.gen_range(0..total);
        for (i, w) in weights.iter().enumerate() {
            let w = u32::from(*w);
            if pick < w {
                return Some(i);
            }
            pick -= w;
        }
        None
    }

    fn goto(&mut self, target: BlockId) {
        let frame = self.frames.last_mut().expect("goto with empty stack");
        frame.block = target;
        frame.idx = 0;
        self.enter_block();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pibe_ir::FunctionBuilder;

    /// leaf() { alu; ret }  root() { call leaf; icall(site) -> leaf; ret }
    fn module() -> (Module, SiteId, FuncId, FuncId) {
        let mut m = Module::new("m");
        let mut b = FunctionBuilder::new("leaf", 0);
        b.op(OpKind::Alu);
        b.ret();
        let leaf = m.add_function(b.build());

        let s_direct = m.fresh_site();
        let s_ind = m.fresh_site();
        let mut b = FunctionBuilder::new("root", 0);
        b.call(s_direct, leaf, 0);
        b.call_indirect(s_ind, 0);
        b.ret();
        let root = m.add_function(b.build());
        m.verify().unwrap();
        (m, s_ind, root, leaf)
    }

    fn sim_cfg(defenses: DefenseSet) -> SimConfig {
        SimConfig {
            defenses,
            collect_profile: true,
            track_attacks: true,
            ..SimConfig::default()
        }
    }

    #[test]
    fn executes_calls_and_counts_branches() {
        let (m, _s, root, leaf) = module();
        let mut sim = Simulator::new(&m, FixedResolver(leaf), 7, sim_cfg(DefenseSet::NONE));
        let cycles = sim.call_entry(root).unwrap();
        assert!(cycles > 0);
        let st = sim.stats();
        assert_eq!(st.dcalls, 1);
        assert_eq!(st.icalls, 1);
        assert_eq!(st.rets, 3);
        assert!(st.peak_stack_bytes >= 128, "two frames deep");
    }

    #[test]
    fn profile_collection_records_edges() {
        let (m, s_ind, root, leaf) = module();
        let mut sim = Simulator::new(&m, FixedResolver(leaf), 7, sim_cfg(DefenseSet::NONE));
        for _ in 0..5 {
            sim.call_entry(root).unwrap();
        }
        let p = sim.take_profile();
        assert_eq!(p.indirect_count(s_ind), 5);
        assert_eq!(p.entry_count(leaf), 10, "leaf entered twice per run");
        assert_eq!(p.return_count(root), 5);
        let vp = p.value_profile(s_ind);
        assert_eq!(vp.len(), 1);
        assert_eq!(vp[0].target, leaf);
    }

    #[test]
    fn defenses_make_execution_slower() {
        let (m, _s, root, leaf) = module();
        let run = |d: DefenseSet| {
            let mut sim = Simulator::new(&m, FixedResolver(leaf), 7, sim_cfg(d));
            // Warm caches/predictors first, then measure.
            for _ in 0..3 {
                sim.call_entry(root).unwrap();
            }
            sim.call_entry(root).unwrap()
        };
        let none = run(DefenseSet::NONE);
        let retp = run(DefenseSet::RETPOLINES);
        let all = run(DefenseSet::ALL);
        assert!(retp > none, "retpolines add cost ({retp} <= {none})");
        assert!(all > retp, "all defenses cost the most");
        // Warm steady state: retpolines add exactly 21 to the one icall.
        assert_eq!(retp - none, 21);
        // All: fwd 41 on the icall + ret 32 on each of 3 returns.
        assert_eq!(all - none, 41 + 3 * 32);
    }

    #[test]
    fn backend_deltas_charge_per_arch_and_nop_charges_nothing() {
        let (m, _s, root, leaf) = module();
        let run = |arch: Arch, d: DefenseSet| {
            let cfg = SimConfig { arch, ..sim_cfg(d) };
            let mut sim = Simulator::new(&m, FixedResolver(leaf), 7, cfg);
            for _ in 0..3 {
                sim.call_entry(root).unwrap();
            }
            sim.call_entry(root).unwrap()
        };
        let baseline = run(Arch::X86, DefenseSet::NONE);
        for arch in Arch::ALL {
            assert_eq!(
                run(arch, DefenseSet::NONE),
                baseline,
                "{arch:?}: NONE is arch-independent"
            );
        }
        // Warm steady state: one icall + three returns per invocation, so
        // the overhead is exactly the backend's per-branch deltas.
        for arch in Arch::ALL {
            let b = arch.backend();
            let expect = b.forward_delta(DefenseSet::ALL) + 3 * b.return_delta(DefenseSet::ALL);
            assert_eq!(
                run(arch, DefenseSet::ALL) - baseline,
                expect,
                "{arch:?}: warm overhead is the backend's deltas"
            );
        }
        // Hardware CFI is an order of magnitude cheaper than the fenced
        // retpoline family; the NOP variant charges nothing at all.
        assert!(run(Arch::Arm64, DefenseSet::ALL) < run(Arch::X86, DefenseSet::ALL) / 2);
        assert_eq!(run(Arch::Riscv64Nop, DefenseSet::ALL), baseline);
    }

    #[test]
    fn btb_warms_up_for_single_target_sites() {
        let (m, _s, root, leaf) = module();
        let mut sim = Simulator::new(&m, FixedResolver(leaf), 7, sim_cfg(DefenseSet::NONE));
        sim.call_entry(root).unwrap();
        let cold_misses = sim.stats().btb_misses;
        sim.call_entry(root).unwrap();
        assert_eq!(sim.stats().btb_misses, cold_misses, "warm icall predicted");
    }

    #[test]
    fn unknown_target_is_an_error() {
        let (m, s, root, _) = module();
        let resolver = MapResolver::new(); // empty: site unknown
        let mut sim = Simulator::new(&m, resolver, 7, sim_cfg(DefenseSet::NONE));
        assert_eq!(sim.call_entry(root), Err(SimError::UnknownTarget(s)));
        // Simulator remains usable after the failed run.
        assert_eq!(sim.stats().dcalls, 1);
    }

    #[test]
    fn bad_target_is_an_error() {
        let (m, _s, root, _) = module();
        let mut sim = Simulator::new(
            &m,
            FixedResolver(FuncId::from_raw(999)),
            7,
            sim_cfg(DefenseSet::NONE),
        );
        assert!(matches!(
            sim.call_entry(root),
            Err(SimError::BadTarget(_, _))
        ));
    }

    #[test]
    fn map_resolver_samples_all_targets() {
        let (m, s, root, leaf) = module();
        // Second possible target: root itself would recurse; use leaf twice
        // with different weights and check distribution is exercised.
        let mut resolver = MapResolver::new();
        resolver.insert(s, vec![(leaf, 3), (leaf, 1)]);
        let mut sim = Simulator::new(&m, resolver, 11, sim_cfg(DefenseSet::NONE));
        for _ in 0..10 {
            sim.call_entry(root).unwrap();
        }
        assert_eq!(sim.stats().icalls, 10);
    }

    #[test]
    fn empty_and_zero_weight_distributions_resolve_to_none() {
        // Pins the satellite fix: a registered-but-empty (or all-zero)
        // distribution is a defined `None` — surfaced as `UnknownTarget` —
        // not a `gen_range(0..0)` panic, and it consumes no rng draw.
        let (m, s, root, leaf) = module();
        for dist in [vec![], vec![(leaf, 0), (leaf, 0)]] {
            let mut resolver = MapResolver::new();
            resolver.insert(s, dist);
            let mut sim = Simulator::new(&m, resolver, 7, sim_cfg(DefenseSet::NONE));
            assert_eq!(sim.call_entry(root), Err(SimError::UnknownTarget(s)));
        }
        // No draw consumed: the rng stream after the failed resolve matches
        // the one after an unregistered-site failure (which draws nothing).
        let trace_of = |resolver: MapResolver| {
            let cfg = SimConfig {
                collect_trace: true,
                ..SimConfig::default()
            };
            let mut sim = Simulator::new(&m, resolver, 7, cfg);
            let _ = sim.call_entry(root);
            sim.take_trace()
        };
        let mut zero = MapResolver::new();
        zero.insert(s, vec![(leaf, 0)]);
        assert_eq!(trace_of(zero), trace_of(MapResolver::new()));
    }

    #[test]
    fn trace_records_observable_events_in_order() {
        let (m, s, root, leaf) = module();
        let cfg = SimConfig {
            collect_trace: true,
            ..SimConfig::default()
        };
        let mut sim = Simulator::new(&m, FixedResolver(leaf), 7, cfg);
        sim.call_entry(root).unwrap();
        let trace = sim.take_trace();
        assert_eq!(
            trace,
            vec![
                TraceEvent::Enter(leaf), // direct call
                TraceEvent::Op(OpKind::Alu),
                TraceEvent::Return(leaf),
                TraceEvent::Resolved {
                    site: s,
                    target: leaf
                },
                TraceEvent::Enter(leaf), // indirect call
                TraceEvent::Op(OpKind::Alu),
                TraceEvent::Return(leaf),
                TraceEvent::Return(root),
            ]
        );
        // Disabled by default: no events, no cost.
        let mut sim = Simulator::new(&m, FixedResolver(leaf), 7, sim_cfg(DefenseSet::NONE));
        sim.call_entry(root).unwrap();
        assert!(sim.take_trace().is_empty());
    }

    #[test]
    fn step_limit_stops_infinite_loops() {
        let mut m = Module::new("m");
        let mut b = FunctionBuilder::new("spin", 0);
        let exit = b.new_block();
        let loop_bb = b.new_block();
        b.jump(loop_bb);
        b.switch_to(loop_bb);
        b.op(OpKind::Alu);
        b.branch(Cond::Random { ptaken_milli: 1000 }, loop_bb, exit);
        b.switch_to(exit);
        b.ret();
        let f = m.add_function(b.build());
        let cfg = SimConfig {
            max_steps: 1000,
            ..SimConfig::default()
        };
        let mut sim = Simulator::new(&m, FixedResolver(f), 7, cfg);
        assert_eq!(sim.call_entry(f), Err(SimError::StepLimit(1000)));
    }

    #[test]
    fn attack_tracking_counts_unprotected_branch_executions() {
        let (m, _s, root, leaf) = module();
        let mut sim = Simulator::new(&m, FixedResolver(leaf), 7, sim_cfg(DefenseSet::NONE));
        sim.call_entry(root).unwrap();
        let a = sim.attacks();
        assert_eq!(a.btb_hijackable_icalls, 1);
        assert_eq!(a.rsb_hijackable_rets, 3);
        assert_eq!(a.lvi_injectable, 1 + 3);

        let mut sim = Simulator::new(&m, FixedResolver(leaf), 7, sim_cfg(DefenseSet::ALL));
        sim.call_entry(root).unwrap();
        let a = sim.attacks();
        assert_eq!(a.btb_hijackable_icalls, 0);
        assert_eq!(a.rsb_hijackable_rets, 0);
        assert_eq!(a.lvi_injectable, 0);
    }

    #[test]
    fn deterministic_across_runs_with_same_seed() {
        let (m, _s, root, leaf) = module();
        let run = || {
            let mut sim = Simulator::new(&m, FixedResolver(leaf), 42, sim_cfg(DefenseSet::NONE));
            (0..10).map(|_| sim.call_entry(root).unwrap()).sum::<u64>()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn resolved_chain_guard_and_fallback_work() {
        // Build an ICP-shaped chain by hand:
        //   resolve s; br (s==leaf) ? direct : fallback
        //   direct: call leaf; jmp merge
        //   fallback: call *resolved; jmp merge
        //   merge: ret
        let mut m = Module::new("m");
        let mut b = FunctionBuilder::new("leaf", 0);
        b.ret();
        let leaf = m.add_function(b.build());
        let mut b = FunctionBuilder::new("other", 0);
        b.ret();
        let other = m.add_function(b.build());

        let s = m.fresh_site();
        let s_promo = m.fresh_site();
        let mut b = FunctionBuilder::new("root", 0);
        let direct = b.new_block();
        let fallback = b.new_block();
        let merge = b.new_block();
        b.resolve_target(s);
        b.branch(
            Cond::TargetIs {
                site: s,
                target: leaf,
            },
            direct,
            fallback,
        );
        b.switch_to(direct);
        b.call(s_promo, leaf, 0);
        b.jump(merge);
        b.switch_to(fallback);
        b.inst(Inst::CallIndirect {
            site: s,
            args: 0,
            resolved: true,
            asm: false,
        });
        b.jump(merge);
        b.switch_to(merge);
        b.ret();
        let root = m.add_function(b.build());
        m.verify().unwrap();

        // Resolver alternates targets deterministically by weight.
        let mut resolver = MapResolver::new();
        resolver.insert(s, vec![(leaf, 1), (other, 1)]);
        let mut sim = Simulator::new(&m, resolver, 3, sim_cfg(DefenseSet::NONE));
        for _ in 0..50 {
            sim.call_entry(root).unwrap();
        }
        let p = sim.take_profile();
        // Every promoted hit is recorded as a direct call; misses fall back.
        let direct_hits = p.direct_count(s_promo);
        let fallback_hits = p.indirect_count(s);
        assert_eq!(direct_hits + fallback_hits, 50);
        assert!(direct_hits > 10, "leaf target should hit the guard");
        assert!(fallback_hits > 10, "other target should miss the guard");
        assert_eq!(sim.stats().icalls, fallback_hits);
    }

    #[test]
    fn cycle_attribution_partitions_total_cycles() {
        // `module()`'s root, plus a four-arm jump-table switch whose random
        // arms keep missing the BTB.
        let (mut m, _s, root, leaf) = module();
        let mut b = FunctionBuilder::new("dispatch", 0);
        let arms: Vec<BlockId> = (0..4).map(|_| b.new_block()).collect();
        let merge = b.new_block();
        b.call(m.fresh_site(), root, 0);
        b.switch(vec![1; 4], arms.clone(), 0, merge, true);
        for arm in arms {
            b.switch_to(arm);
            b.op(OpKind::Alu);
            b.jump(merge);
        }
        b.switch_to(merge);
        b.ret();
        let root = m.add_function(b.build());
        m.verify().unwrap();

        let penalty = MachineConfig::default().btb_miss_penalty;
        for d in [DefenseSet::NONE, DefenseSet::RETPOLINES, DefenseSet::ALL] {
            let mut sim = Simulator::new(&m, FixedResolver(leaf), 7, sim_cfg(d));
            for _ in 0..20 {
                sim.call_entry(root).unwrap();
            }
            let st = *sim.stats();
            assert_eq!(
                st.cycles,
                st.cycles_base() + st.cycles_defense + st.cycles_prediction + st.cycles_locality,
                "categories partition the total under {d}"
            );
            assert_eq!(st.ijumps, 20);
            assert!(st.btb_misses > 1, "switch arms miss the BTB under {d}");
            assert_eq!(st.rsb_misses, 0);
            assert_eq!(
                st.cycles_prediction,
                st.btb_misses * penalty,
                "every BTB miss, jump tables included, is prediction under {d}"
            );
            if d.is_none() {
                assert_eq!(st.cycles_defense, 0, "no instrumentation charged");
            } else {
                assert!(st.cycles_defense > 0, "defenses charge cycles under {d}");
            }
        }
        // Base cycles are identical across defense configurations: the
        // instrumentation is strictly additive.
        let base_of = |d: DefenseSet| {
            let mut sim = Simulator::new(&m, FixedResolver(leaf), 7, sim_cfg(d));
            for _ in 0..20 {
                sim.call_entry(root).unwrap();
            }
            sim.stats().cycles_base()
        };
        assert_eq!(base_of(DefenseSet::NONE), base_of(DefenseSet::ALL));
    }

    /// 24 functions of 1–12 blocks each, ending in jumps, random branches,
    /// jump-table and compare-chain switches (all forward, so every run
    /// ends). Function `i` calls `i - 1` unless `i` is a multiple of 4, and
    /// function 21 also calls through an indirect site. Returns the module
    /// and its root, function 23.
    fn layout_module() -> (Module, FuncId) {
        let mut m = Module::new("layout");
        for i in 0..24u32 {
            let mut b = FunctionBuilder::new(format!("f{i}"), 0);
            let n = 1 + (i * 5 % 12) as usize;
            let blocks: Vec<BlockId> = std::iter::once(BlockId::ENTRY)
                .chain((1..n).map(|_| b.new_block()))
                .collect();
            let last = blocks[n - 1];
            for (k, &bb) in blocks.iter().enumerate() {
                b.switch_to(bb);
                b.ops(OpKind::Alu, (k + i as usize) % 4);
                if k == 0 && i % 4 != 0 {
                    b.call(m.fresh_site(), FuncId::from_raw(i - 1), 1);
                }
                if k == 0 && i == 21 {
                    b.call_indirect(m.fresh_site(), 2);
                }
                if bb == last {
                    b.ret();
                    continue;
                }
                match k % 4 {
                    0 => b.jump(blocks[k + 1]),
                    1 => b.branch(Cond::Random { ptaken_milli: 500 }, blocks[k + 1], last),
                    arm => {
                        let cases = blocks[k + 1..].to_vec();
                        b.switch(vec![1; cases.len()], cases, 1, last, arm == 2);
                    }
                }
            }
            m.add_function(b.build());
        }
        m.verify().unwrap();
        (m, FuncId::from_raw(23))
    }

    /// The lazy layout is an eager prefix sum over the size model: every
    /// function base and block range matches one, functions are 16-byte
    /// aligned and never overlap, and a function that never ran has no
    /// block spans.
    #[test]
    fn lazy_layout_matches_eager_prefix_sum() {
        let (m, root) = layout_module();
        let cfg = SimConfig {
            collect_trace: true,
            ..SimConfig::default()
        };
        let mut sim = Simulator::new(&m, FixedResolver(FuncId::from_raw(9)), 7, cfg);
        for _ in 0..8 {
            sim.call_entry(root).unwrap();
        }
        let mut ran: Vec<FuncId> = sim
            .take_trace()
            .into_iter()
            .filter_map(|ev| match ev {
                TraceEvent::Enter(f) => Some(f),
                _ => None,
            })
            .chain([root])
            .collect();
        ran.sort_unstable();
        ran.dedup();
        let ran_ids: Vec<usize> = ran.iter().map(|f| f.index()).collect();
        assert_eq!(ran_ids, [8, 9, 20, 21, 22, 23]);

        let layout = &sim.layout;
        for id in m.func_ids() {
            assert_eq!(
                layout.code[id.index()].get().is_some(),
                ran.contains(&id),
                "{id}: code is laid out exactly for functions that ran"
            );
        }

        let mut cursor = 0u64;
        for f in m.functions() {
            let id = f.id();
            let base = layout.func_base(id);
            assert_eq!(base % 16, 0, "{id}: function base must be 16-aligned");
            assert!(base >= cursor, "{id}: functions must not overlap");
            cursor = (cursor + 15) & !15;
            assert_eq!(base, cursor, "{id}: base");
            for (bb, block) in f.iter_blocks() {
                let bytes = block.insts().iter().map(size::inst_bytes).sum::<u32>()
                    + size::term_bytes(block.term());
                assert_eq!(layout.block_range(&m, id, bb), (cursor, bytes), "{id} {bb}");
                cursor += u64::from(bytes);
            }
            assert_eq!(cursor, base + size::function_bytes(f), "{id}: extent");
        }
    }

    #[test]
    fn rsb_refilling_blocks_shallow_poisoning_but_not_deep_chains() {
        // A chain deeper than the RSB (16): nest 20 calls.
        let mut m = Module::new("m");
        let mut prev: Option<FuncId> = None;
        for i in 0..20 {
            let mut b = FunctionBuilder::new(format!("d{i}"), 0);
            b.op(OpKind::Alu);
            if let Some(p) = prev {
                b.call(SiteId::from_raw(i), p, 0);
            }
            b.ret();
            prev = Some(m.add_function(b.build()));
        }
        let deep_entry = prev.unwrap();
        // A shallow function as the second entry.
        let mut b = FunctionBuilder::new("shallow", 0);
        b.op(OpKind::Alu);
        b.ret();
        let shallow = m.add_function(b.build());
        m.verify().unwrap();

        let cfg = SimConfig {
            rsb_refill: true,
            track_attacks: true,
            ..SimConfig::default()
        };
        let mut sim = Simulator::new(&m, FixedResolver(shallow), 7, cfg);
        sim.call_entry(shallow).unwrap();
        assert_eq!(
            sim.attacks().rsb_hijackable_rets,
            0,
            "shallow syscall: refilling protects every return"
        );
        sim.call_entry(deep_entry).unwrap();
        assert!(
            sim.attacks().rsb_hijackable_rets > 0,
            "a 20-deep chain overflows the 16-entry RSB; refilling stops helping"
        );
        // Refilling costs cycles on every entry.
        let mut plain = Simulator::new(&m, FixedResolver(shallow), 7, SimConfig::default());
        plain.call_entry(shallow).unwrap();
        let mut refilled = Simulator::new(&m, FixedResolver(shallow), 7, cfg);
        let r = refilled.call_entry(shallow).unwrap();
        assert!(r > plain.cycles(), "stuffing the RSB is not free");
    }

    #[test]
    fn jumpswitch_single_target_beats_retpoline() {
        let (m, _s, root, leaf) = module();
        let js_cfg = SimConfig {
            jumpswitch: Some(JumpSwitchConfig::default()),
            ..sim_cfg(DefenseSet::RETPOLINES)
        };
        let mut js = Simulator::new(&m, FixedResolver(leaf), 7, js_cfg);
        let mut retp = Simulator::new(&m, FixedResolver(leaf), 7, sim_cfg(DefenseSet::RETPOLINES));
        let n = 200;
        let mut js_total = 0;
        let mut retp_total = 0;
        for _ in 0..n {
            js_total += js.call_entry(root).unwrap();
            retp_total += retp.call_entry(root).unwrap();
        }
        assert!(
            js_total < retp_total,
            "after learning, jumpswitch ({js_total}) beats retpoline ({retp_total})"
        );
    }
}
