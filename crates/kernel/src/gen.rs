//! The synthetic kernel generator.
//!
//! Layout of the generated program (hot paths first):
//!
//! ```text
//! sys_<name>            20 entry points (Table 2 benchmarks)
//!   └─ <name>_c0..cK    per-syscall private prefix chain (with loops for
//!                        heavyweight paths like fork)
//!        └─ calls each subsystem trunk the syscall traverses
//! <sub>_t0..t9          shared subsystem trunks (vfs, net, …): the code
//!                        several syscalls have in common; carry the
//!                        interface dispatch sites
//! h_<provider>_<i>      provider handler pools (tmpfs/ext4/sock/… ops) —
//!                        the targets of multi-target dispatch sites
//! hook_<i>              singleton hook targets (notifier chains, LSM
//!                        hooks): the 1-target population of Table 4
//! pv_<i>                41 paravirt hypercall helpers whose indirect call
//!                        is inline assembly (unhardenable, Table 11)
//! lib_<i>               hot utility leaves (memcpy, locks, …)
//! cold_<i>              never-executed driver/init mass supplying the
//!                        static census (icalls, returns, jump tables)
//! boot_<i>              boot-only code (returns exempt from the audit)
//! ```

use crate::spec::{KernelSpec, KernelTuning, Provider, Subsystem};
use crate::syscalls::Syscall;
use pibe_ir::{Cond, FnAttrs, FuncId, FunctionBuilder, Module, OpKind, SiteId};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeMap;

/// An indirect-call site on a hot path, with the target set workloads
/// resolve it over.
#[derive(Debug, Clone)]
pub struct InterfaceSite {
    /// The call site.
    pub site: SiteId,
    /// The subsystem trunk the site lives in (`None` for syscall prefixes
    /// and paravirt helpers).
    pub subsystem: Option<Subsystem>,
    /// Possible targets with their provider tags.
    pub targets: Vec<(FuncId, Provider)>,
    /// Whether the site is inline assembly (paravirt hypercalls).
    pub asm: bool,
}

/// A generated synthetic kernel: the module plus everything a workload
/// needs to drive it.
#[derive(Debug, Clone)]
pub struct Kernel {
    /// The kernel program.
    pub module: Module,
    /// The generation parameters.
    pub spec: KernelSpec,
    /// Hot indirect-call sites and their target sets.
    pub interface_sites: Vec<InterfaceSite>,
    entries: BTreeMap<Syscall, FuncId>,
}

impl Kernel {
    /// Generates the kernel described by `spec` with the calibrated default
    /// [`KernelTuning`]. Deterministic: equal specs produce identical
    /// kernels.
    pub fn generate(spec: KernelSpec) -> Kernel {
        Gen::new(spec, KernelTuning::default()).run()
    }

    /// Generates with explicit [`KernelTuning`] — for calibration sweeps
    /// and sensitivity experiments.
    pub fn generate_with(spec: KernelSpec, tuning: KernelTuning) -> Kernel {
        Gen::new(spec, tuning).run()
    }

    /// The entry function for a syscall.
    pub fn entry(&self, syscall: Syscall) -> FuncId {
        self.entries[&syscall]
    }

    /// All `(syscall, entry)` pairs in Table 2 order.
    pub fn entries(&self) -> impl Iterator<Item = (Syscall, FuncId)> + '_ {
        Syscall::ALL.iter().map(move |s| (*s, self.entries[s]))
    }
}

/// Paper census constants (Linux 5.1 defaults, §8.6).
mod census {
    /// Profiled single-target indirect call sites (Table 4).
    pub const SINGLE_SITES: u64 = 517;
    /// Profiled multi-target sites: (multiplicity, count) from Table 4;
    /// ">6" spreads over 7..=12.
    pub const MULTI_SITES: &[(usize, u64)] = &[
        (2, 109),
        (3, 34),
        (4, 23),
        (5, 6),
        (6, 12),
        (7, 8),
        (8, 6),
        (10, 5),
        (12, 3),
    ];
    /// Unhardenable paravirt call sites (Table 11).
    pub const PARAVIRT_SITES: u64 = 41;
    /// Assembly jump tables surviving hardening (Table 11).
    pub const ASM_JUMP_TABLES: u64 = 5;
    /// Compiler jump tables in a vanilla build (§8.6: 1432 total).
    pub const COLD_JUMP_TABLES: u64 = 1427;
    /// Total static indirect call sites (Tables 10/11: 20 927).
    pub const TOTAL_ICALLS: u64 = 20_927;
    /// Total static return sites (Table 10: ~133 005).
    pub const TOTAL_RETURNS: u64 = 133_005;
}

const TRUNK_LEN: usize = 10;

struct Gen {
    spec: KernelSpec,
    tuning: KernelTuning,
    rng: SmallRng,
    module: Module,
    libs: Vec<(FuncId, u8)>,
    stubs: Vec<FuncId>,
    handlers: Vec<(FuncId, Provider, u8)>,
    pv_helpers: Vec<(FuncId, u8)>,
    pv_cursor: usize,
    interface_sites: Vec<InterfaceSite>,
    single_quota: u64,
    multi_quota: Vec<usize>,
    chain_funcs_left: u64,
    gate_cursor: usize,
    hook_n: usize,
    helper_n: usize,
}

impl Gen {
    fn new(spec: KernelSpec, tuning: KernelTuning) -> Self {
        let mut multi_quota = Vec::new();
        for &(k, n) in census::MULTI_SITES {
            for _ in 0..spec.scaled(n, 1) {
                multi_quota.push(k);
            }
        }
        // Interleave multiplicities so every trunk sees a mix.
        let mut rng = SmallRng::seed_from_u64(spec.seed);
        for i in (1..multi_quota.len()).rev() {
            let j = rng.gen_range(0..=i);
            multi_quota.swap(i, j);
        }
        let chain_funcs: usize = TRUNK_LEN * Subsystem::ALL.len()
            + Syscall::ALL.iter().map(|s| s.path_shape().0).sum::<usize>();
        Gen {
            spec,
            tuning,
            rng,
            module: Module::new("synthetic-linux-5.1"),
            libs: Vec::new(),
            stubs: Vec::new(),
            handlers: Vec::new(),
            pv_helpers: Vec::new(),
            pv_cursor: 0,
            interface_sites: Vec::new(),
            single_quota: spec.scaled(census::SINGLE_SITES, 40),
            multi_quota,
            chain_funcs_left: chain_funcs as u64,
            gate_cursor: 0,
            hook_n: 0,
            helper_n: 0,
        }
    }

    fn run(mut self) -> Kernel {
        self.gen_libs();
        self.gen_stubs();
        self.gen_handlers();
        self.gen_paravirt();
        let trunk_heads = self.gen_trunks();
        let entries = self.gen_syscall_chains(&trunk_heads);
        self.gen_cold_mass();
        self.gen_boot();
        debug_assert!(self.module.verify().is_ok());
        Kernel {
            module: self.module,
            spec: self.spec,
            interface_sites: self.interface_sites,
            entries,
        }
    }

    // -- building blocks ---------------------------------------------------

    /// Emits a mixed compute body of roughly `n` ops.
    fn body(b: &mut FunctionBuilder, rng: &mut SmallRng, n: usize) {
        for _ in 0..n {
            let k = match rng.gen_range(0..100) {
                0..=54 => OpKind::Alu,
                55..=74 => OpKind::Load,
                75..=84 => OpKind::Store,
                85..=94 => OpKind::Mov,
                _ => OpKind::Cmp,
            };
            b.op(k);
        }
    }

    /// A tiny leaf function.
    fn leaf(&mut self, name: String, ops: usize) -> (FuncId, u8) {
        let args = self.rng.gen_range(0..=2u8);
        let frame = self.rng.gen_range(16..=64);
        let mut b = FunctionBuilder::new(name, args);
        b.frame_bytes(frame);
        Self::body(&mut b, &mut self.rng, ops);
        b.ret();
        (self.module.add_function(b.build()), args)
    }

    fn fresh_helper(&mut self) -> (FuncId, u8) {
        self.helper_n += 1;
        let n = self.helper_n;
        let (lo, hi) = self.tuning.helper_ops;
        let ops = self.rng.gen_range(lo..=hi);
        self.leaf(format!("helper_{n}"), ops)
    }

    fn gen_libs(&mut self) {
        for i in 0..24 {
            let (lo, hi) = self.tuning.lib_ops;
            let ops = self.rng.gen_range(lo..=hi);
            let (id, args) = self.leaf(format!("lib_{i}"), ops);
            if i % 12 == 0 {
                self.module.function_mut(id).attrs_mut().noinline = true;
            }
            self.libs.push((id, args));
        }
    }

    fn gen_stubs(&mut self) {
        for i in 0..3 {
            let (id, _) = self.leaf(format!("hv_stub_{i}"), 2);
            self.stubs.push(id);
        }
    }

    fn lib_call(&mut self, b: &mut FunctionBuilder) {
        let (id, args) = self.libs[self.rng.gen_range(0..self.libs.len())];
        let site = self.module.fresh_site();
        b.call(site, id, args);
    }

    /// Singleton hook target: hook -> 2 helpers (+ maybe a lib call).
    fn gen_hook(&mut self) -> (FuncId, u8) {
        let h1 = self.fresh_helper();
        let h2 = self.fresh_helper();
        self.hook_n += 1;
        let n = self.hook_n;
        let args = self.rng.gen_range(0..=2u8);
        let frame = self.rng.gen_range(32..=96);
        // Heavy-tailed hook sizes: most hooks are small, but a fifth are
        // substantial (real LSM hooks and notifier callbacks straddle the
        // inliner thresholds, which is what separates PIBE's lax mode from
        // size-capped inlining).
        let ops = if self.rng.gen_bool(self.tuning.hook_tail_prob) {
            let (lo, hi) = self.tuning.tail_ops;
            self.rng.gen_range(lo..=hi)
        } else {
            let (lo, hi) = self.tuning.hook_ops;
            self.rng.gen_range(lo..=hi)
        };
        // ~10% of hooks are recursive (path walking, tree traversal):
        // recursive callees can never be inlined (§5.2), so their returns
        // stay hot and keep paying the backward-edge defense — part of the
        // paper's residual overhead and of Table 9's "other" blocked weight.
        let self_id = if self.rng.gen_bool(self.tuning.hook_recursion_prob) {
            let mut placeholder = FunctionBuilder::new(format!("hook_{n}"), args);
            placeholder.ret();
            Some(self.module.add_function(placeholder.build()))
        } else {
            None
        };
        let mut b = FunctionBuilder::new(format!("hook_{n}"), args);
        b.frame_bytes(frame);
        Self::body(&mut b, &mut self.rng, ops);
        let s1 = self.module.fresh_site();
        b.call(s1, h1.0, h1.1);
        if let Some(me) = self_id {
            // Bounded self-recursion: taken ~1 time in 5.
            let rec_bb = b.new_block();
            let cont = b.new_block();
            b.branch(Cond::Random { ptaken_milli: 200 }, rec_bb, cont);
            b.switch_to(rec_bb);
            let s = self.module.fresh_site();
            b.call(s, me, args);
            b.jump(cont);
            b.switch_to(cont);
        } else if self.rng.gen_bool(0.5) {
            self.lib_call(&mut b);
        }
        let s2 = self.module.fresh_site();
        b.call(s2, h2.0, h2.1);
        b.ret();
        let id = match self_id {
            Some(id) => {
                self.module.replace_function(id, b.build());
                id
            }
            None => self.module.add_function(b.build()),
        };
        if self.rng.gen_bool(self.tuning.hook_noinline_prob) {
            self.module.function_mut(id).attrs_mut().noinline = true;
        }
        (id, args)
    }

    /// Provider handler pools: the targets of multi-target dispatch sites.
    fn gen_handlers(&mut self) {
        for provider in Provider::ALL {
            for i in 0..12 {
                let deps: Vec<(FuncId, u8)> = (0..3).map(|_| self.fresh_helper()).collect();
                let args = self.rng.gen_range(1..=3u8);
                let frame = self.rng.gen_range(48..=160);
                let ops = if self.rng.gen_bool(self.tuning.handler_tail_prob) {
                    let (lo, hi) = self.tuning.tail_ops;
                    self.rng.gen_range(lo..=hi)
                } else {
                    self.rng.gen_range(12..=40)
                };
                let mut b = FunctionBuilder::new(format!("h_{provider}_{i}"), args);
                b.frame_bytes(frame);
                Self::body(&mut b, &mut self.rng, ops);
                for (id, a) in &deps {
                    let s = self.module.fresh_site();
                    b.call(s, *id, *a);
                }
                self.lib_call(&mut b);
                b.ret();
                let id = self.module.add_function(b.build());
                // Real kernels annotate a sizable share of callbacks
                // noinline (stack usage, tracing, cold attributes); these
                // keep paying the backward-edge defense.
                if self.rng.gen_bool(self.tuning.handler_noinline_prob) {
                    self.module.function_mut(id).attrs_mut().noinline = true;
                }
                self.handlers.push((id, provider, args));
            }
        }
    }

    /// 41 paravirt helpers: tiny bodies around an inline-asm indirect call,
    /// plus the five assembly jump tables.
    fn gen_paravirt(&mut self) {
        let n = self.spec.scaled(census::PARAVIRT_SITES, 3);
        for i in 0..n {
            let site = self.module.fresh_site();
            let ops = self.rng.gen_range(2..=6);
            let mut b = FunctionBuilder::new(format!("pv_{i}"), 1);
            b.frame_bytes(16);
            Self::body(&mut b, &mut self.rng, ops);
            b.call_indirect_asm(site, 1);
            b.ret();
            let id = self.module.add_function(b.build());
            self.pv_helpers.push((id, 1));
            self.interface_sites.push(InterfaceSite {
                site,
                subsystem: None,
                targets: self.stubs.iter().map(|s| (*s, Provider::Generic)).collect(),
                asm: true,
            });
        }
        for i in 0..census::ASM_JUMP_TABLES {
            let mut b = FunctionBuilder::new(format!("pv_switch_{i}"), 1);
            b.attrs(FnAttrs {
                inline_asm: true,
                ..FnAttrs::default()
            });
            let cases: Vec<_> = (0..3).map(|_| b.new_block()).collect();
            let exit = b.new_block();
            Self::body(&mut b, &mut self.rng, 3);
            b.switch(vec![1, 1, 1], cases.clone(), 1, exit, true);
            for c in cases {
                b.switch_to(c);
                b.op(OpKind::Alu);
                b.jump(exit);
            }
            b.switch_to(exit);
            b.ret();
            self.module.add_function(b.build());
        }
    }

    /// Fair-share allotment so the quotas are fully distributed over the
    /// remaining chain functions.
    fn take_share(quota: u64, funcs_left: u64) -> u64 {
        if funcs_left == 0 {
            quota
        } else {
            quota.div_ceil(funcs_left)
        }
    }

    /// Execution-probability gates cycled across interface sites: a hook is
    /// only consulted when its registration condition holds, so site weights
    /// spread over orders of magnitude — the skew that makes the paper's
    /// 99% / 99.9% / 99.9999% budget prefixes genuinely different site sets
    /// (Table 8: the 99% budget covers just 17% of the sites).
    fn next_gate(&mut self) -> u16 {
        let gates = &self.tuning.gates;
        let g = gates[self.gate_cursor % gates.len()];
        self.gate_cursor += 1;
        g
    }

    /// Emits one indirect call behind its probability gate.
    fn gated_icall(b: &mut FunctionBuilder, gate: u16, site: SiteId, args: u8) {
        if gate >= 1000 {
            b.op(OpKind::Load);
            b.call_indirect(site, args);
            return;
        }
        let call_bb = b.new_block();
        let cont = b.new_block();
        b.op(OpKind::Cmp);
        b.branch(Cond::Random { ptaken_milli: gate }, call_bb, cont);
        b.switch_to(call_bb);
        b.op(OpKind::Load);
        b.call_indirect(site, args);
        b.jump(cont);
        b.switch_to(cont);
    }

    fn emit_single_sites(&mut self, b: &mut FunctionBuilder, sub: Option<Subsystem>, n: u64) {
        for _ in 0..n.min(self.single_quota) {
            self.single_quota -= 1;
            let (hook, args) = self.gen_hook();
            let site = self.module.fresh_site();
            let gate = self.next_gate();
            Self::gated_icall(b, gate, site, args);
            self.interface_sites.push(InterfaceSite {
                site,
                subsystem: sub,
                targets: vec![(hook, Provider::Generic)],
                asm: false,
            });
        }
    }

    fn emit_multi_sites(&mut self, b: &mut FunctionBuilder, sub: Option<Subsystem>, n: u64) {
        for _ in 0..n {
            let Some(k) = self.multi_quota.pop() else {
                return;
            };
            let mut targets = Vec::with_capacity(k);
            let start = self.rng.gen_range(0..Provider::ALL.len());
            for j in 0..k {
                let provider = Provider::ALL[(start + j) % Provider::ALL.len()];
                loop {
                    let cand = self.handlers[self.rng.gen_range(0..self.handlers.len())];
                    if cand.1 == provider && !targets.iter().any(|(t, _)| *t == cand.0) {
                        targets.push((cand.0, provider));
                        break;
                    }
                }
            }
            let args = self.module.function(targets[0].0).arg_count();
            let site = self.module.fresh_site();
            let gate = self.next_gate();
            Self::gated_icall(b, gate, site, args);
            self.interface_sites.push(InterfaceSite {
                site,
                subsystem: sub,
                targets,
                asm: false,
            });
        }
    }

    /// A hot chain function shared by the trunk and syscall-prefix builders.
    fn chain_func(
        &mut self,
        name: String,
        sub: Option<Subsystem>,
        body_ops: usize,
        loop_permille: u16,
        call_pv: bool,
        tail_calls: &[(FuncId, u8)],
    ) -> (FuncId, u8) {
        let singles = Self::take_share(self.single_quota, self.chain_funcs_left);
        let multis = Self::take_share(self.multi_quota.len() as u64, self.chain_funcs_left);
        self.chain_funcs_left = self.chain_funcs_left.saturating_sub(1);

        let own_helpers: Vec<(FuncId, u8)> = (0..2).map(|_| self.fresh_helper()).collect();
        let args = self.rng.gen_range(0..=3u8);
        let frame = self.rng.gen_range(48..=256);
        let mut b = FunctionBuilder::new(name, args);
        b.frame_bytes(frame);
        Self::body(&mut b, &mut self.rng, body_ops / 2);

        if loop_permille > 0 {
            let loop_bb = b.new_block();
            let cont = b.new_block();
            b.jump(loop_bb);
            b.switch_to(loop_bb);
            Self::body(&mut b, &mut self.rng, (body_ops / 2).max(1));
            self.lib_call(&mut b);
            self.lib_call(&mut b);
            b.branch(
                Cond::Random {
                    ptaken_milli: loop_permille,
                },
                loop_bb,
                cont,
            );
            b.switch_to(cont);
        } else {
            Self::body(&mut b, &mut self.rng, body_ops / 2);
        }

        for (h, a) in &own_helpers {
            let s = self.module.fresh_site();
            b.call(s, *h, *a);
        }
        // Interface dispatches iterate like notifier chains / LSM hook
        // lists: each traversal invokes the sites a couple of times, which
        // is what makes kernel indirect calls such a large share of syscall
        // time (Table 3's 20.2% retpoline overhead).
        let singles_take = singles.min(self.single_quota);
        let multis_take = (multis as usize).min(self.multi_quota.len()) as u64;
        if singles_take + multis_take > 0 {
            let disp = b.new_block();
            let after = b.new_block();
            b.jump(disp);
            b.switch_to(disp);
            self.emit_single_sites(&mut b, sub, singles_take);
            self.emit_multi_sites(&mut b, sub, multis_take);
            b.branch(
                Cond::Random {
                    ptaken_milli: self.tuning.dispatch_loop_permille,
                },
                disp,
                after,
            );
            b.switch_to(after);
        }
        if call_pv && !self.pv_helpers.is_empty() {
            let (pv, a) = self.pv_helpers[self.pv_cursor % self.pv_helpers.len()];
            self.pv_cursor += 1;
            let s = self.module.fresh_site();
            b.call(s, pv, a);
        }
        self.lib_call(&mut b);
        for (t, a) in tail_calls {
            let s = self.module.fresh_site();
            b.call(s, *t, *a);
        }
        b.ret();
        let id = self.module.add_function(b.build());
        if self.rng.gen_bool(0.02) {
            self.module.function_mut(id).attrs_mut().optnone = true;
        }
        (id, args)
    }

    /// Shared subsystem trunks; returns each trunk's head function.
    fn gen_trunks(&mut self) -> BTreeMap<Subsystem, (FuncId, u8)> {
        let mut heads = BTreeMap::new();
        for sub in Subsystem::ALL {
            let mut next: Option<(FuncId, u8)> = None;
            for i in (0..TRUNK_LEN).rev() {
                let tail: Vec<(FuncId, u8)> = next.into_iter().collect();
                let ops = self.rng.gen_range(12..=30);
                let f = self.chain_func(
                    format!("{sub}_t{i}"),
                    Some(sub),
                    ops,
                    0,
                    i == TRUNK_LEN / 2,
                    &tail,
                );
                next = Some(f);
            }
            heads.insert(sub, next.expect("trunk has at least one stage"));
        }
        heads
    }

    /// Per-syscall prefixes + entry functions.
    fn gen_syscall_chains(
        &mut self,
        trunks: &BTreeMap<Subsystem, (FuncId, u8)>,
    ) -> BTreeMap<Syscall, FuncId> {
        let mut entries = BTreeMap::new();
        for sc in Syscall::ALL {
            let (len, body, permille) = sc.path_shape();
            let trunk_calls: Vec<(FuncId, u8)> = sc.trunks().iter().map(|s| trunks[s]).collect();
            let mut next: Vec<(FuncId, u8)> = trunk_calls;
            for i in (0..len).rev() {
                let f = self.chain_func(
                    format!("{}_c{i}", sc.name().replace('/', "_")),
                    None,
                    body,
                    if i % 2 == 0 { permille } else { 0 },
                    i == 1,
                    &next,
                );
                next = vec![f];
            }
            let mut b = FunctionBuilder::new(format!("sys_{}", sc.name().replace('/', "_")), 2);
            b.frame_bytes(64);
            Self::body(&mut b, &mut self.rng, 4);
            let s = self.module.fresh_site();
            let (head, a) = next[0];
            b.call(s, head, a);
            b.ret();
            entries.insert(sc, self.module.add_function(b.build()));
        }
        entries
    }

    /// The never-executed static mass: drivers, init code, etc.
    fn gen_cold_mass(&mut self) {
        let hot_census = self.module.census();
        let target_returns = self.spec.scaled(census::TOTAL_RETURNS, 200);
        let target_icalls = self.spec.scaled(census::TOTAL_ICALLS, 60);
        let mut icall_quota = target_icalls.saturating_sub(hot_census.indirect_calls);
        let mut table_quota = self.spec.scaled(census::COLD_JUMP_TABLES, 8);
        let mut returns = hot_census.returns;
        let mut cold: Vec<(FuncId, u8)> = Vec::new();

        while returns < target_returns {
            let i = cold.len();
            let args = self.rng.gen_range(0..=3u8);
            let frame = self.rng.gen_range(32..=192);
            let mut b = FunctionBuilder::new(format!("cold_{i}"), args);
            b.frame_bytes(frame);
            let rets = self.rng.gen_range(2..=4u32);

            let exits: Vec<_> = (0..rets - 1).map(|_| b.new_block()).collect();
            let ops = self.rng.gen_range(6..=30);
            Self::body(&mut b, &mut self.rng, ops);
            let ncalls = self.rng.gen_range(0..=2);
            for _ in 0..ncalls {
                if cold.is_empty() {
                    self.lib_call(&mut b);
                } else {
                    let (callee, a) = cold[self.rng.gen_range(0..cold.len())];
                    let s = self.module.fresh_site();
                    b.call(s, callee, a);
                }
            }
            for _ in 0..3 {
                if icall_quota == 0 {
                    break;
                }
                icall_quota -= 1;
                let s = self.module.fresh_site();
                let a = self.rng.gen_range(0..=3);
                b.op(OpKind::Load);
                b.call_indirect(s, a);
            }
            if table_quota > 0 {
                table_quota -= 1;
                let ncases = self.rng.gen_range(3..=8);
                let cases: Vec<_> = (0..ncases).map(|_| b.new_block()).collect();
                let merge = b.new_block();
                let weights = vec![1u16; cases.len()];
                b.switch(weights, cases.clone(), 1, merge, true);
                for c in &cases {
                    b.switch_to(*c);
                    b.op(OpKind::Alu);
                    b.jump(merge);
                }
                b.switch_to(merge);
            }
            // Route to the early exits: each gets its own return block.
            for e in &exits {
                let cont = b.new_block();
                b.branch(Cond::Random { ptaken_milli: 200 }, *e, cont);
                b.switch_to(cont);
                Self::body(&mut b, &mut self.rng, 3);
            }
            b.ret();
            for e in exits {
                b.switch_to(e);
                b.ret();
            }
            let id = self.module.add_function(b.build());
            returns += u64::from(rets);
            cold.push((id, args));
        }
    }

    /// Boot-only code: present, unexecuted, audit-exempt returns.
    fn gen_boot(&mut self) {
        let mut prev: Option<(FuncId, u8)> = None;
        for i in 0..4 {
            let mut b = FunctionBuilder::new(format!("boot_{i}"), 0);
            b.attrs(FnAttrs {
                boot_only: true,
                ..FnAttrs::default()
            });
            Self::body(&mut b, &mut self.rng, 10);
            if let Some((p, a)) = prev {
                let s = self.module.fresh_site();
                b.call(s, p, a);
            }
            let s = self.module.fresh_site();
            b.op(OpKind::Load);
            b.call_indirect(s, 0);
            b.ret();
            prev = Some((self.module.add_function(b.build()), 0));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> Kernel {
        Kernel::generate(KernelSpec::test())
    }

    #[test]
    fn generated_kernel_verifies() {
        let k = small();
        k.module.verify().unwrap();
        assert!(k.module.len() > 100);
    }

    #[test]
    fn generation_is_deterministic() {
        let a = Kernel::generate(KernelSpec::test());
        let b = Kernel::generate(KernelSpec::test());
        assert_eq!(a.module.len(), b.module.len());
        assert_eq!(a.module.code_bytes(), b.module.code_bytes());
        assert_eq!(a.interface_sites.len(), b.interface_sites.len());
    }

    #[test]
    fn every_syscall_has_an_entry() {
        let k = small();
        for sc in Syscall::ALL {
            let f = k.entry(sc);
            assert!(k.module.function(f).name().starts_with("sys_"));
        }
        assert_eq!(k.entries().count(), 20);
    }

    #[test]
    fn interface_sites_have_targets_and_tags() {
        let k = small();
        assert!(!k.interface_sites.is_empty());
        for s in &k.interface_sites {
            assert!(!s.targets.is_empty(), "{} has no targets", s.site);
        }
        let asm = k.interface_sites.iter().filter(|s| s.asm).count();
        assert!(asm >= 3, "paravirt sites present");
        let multi = k
            .interface_sites
            .iter()
            .filter(|s| !s.asm && s.targets.len() > 1)
            .count();
        assert!(multi > 0, "multi-target dispatch sites present");
    }

    #[test]
    fn quotas_are_fully_distributed() {
        let k = small();
        let spec = KernelSpec::test();
        let singles = k
            .interface_sites
            .iter()
            .filter(|s| !s.asm && s.targets.len() == 1)
            .count() as u64;
        assert_eq!(singles, spec.scaled(517, 40));
    }

    #[test]
    fn census_scales_with_spec() {
        let small = Kernel::generate(KernelSpec {
            seed: 1,
            scale: 0.02,
        });
        let bigger = Kernel::generate(KernelSpec {
            seed: 1,
            scale: 0.06,
        });
        let cs = small.module.census();
        let cb = bigger.module.census();
        assert!(cb.returns > cs.returns);
        assert!(cb.indirect_calls > cs.indirect_calls);
        assert!(cb.indirect_jumps > cs.indirect_jumps);
    }

    #[test]
    fn paper_scale_census_matches_linux() {
        let k = Kernel::generate(KernelSpec::paper());
        let c = k.module.census();
        let icalls = c.indirect_calls as f64;
        let rets = c.returns as f64;
        assert!(
            (icalls - 20_927.0).abs() / 20_927.0 < 0.1,
            "icall census ~20927, got {icalls}"
        );
        assert!(
            (rets - 133_005.0).abs() / 133_005.0 < 0.1,
            "return census ~133005, got {rets}"
        );
        // Table 4 histogram of hot sites (excluding paravirt).
        let mut hist = [0u64; 7];
        for s in k.interface_sites.iter().filter(|s| !s.asm) {
            let n = s.targets.len();
            hist[if n > 6 { 6 } else { n - 1 }] += 1;
        }
        assert_eq!(hist[0], 517);
        assert_eq!(hist[1], 109);
        assert_eq!(hist[2], 34);
        assert_eq!(hist[3], 23);
        assert_eq!(hist[4], 6);
        assert_eq!(hist[5], 12);
        assert_eq!(hist[6], 22);
    }

    #[test]
    fn tuning_knobs_change_the_generated_kernel() {
        let spec = KernelSpec::test();
        let default = Kernel::generate(spec);
        let hot_tuning = KernelTuning {
            gates: vec![1000], // every interface site ungated
            hook_recursion_prob: 0.0,
            ..KernelTuning::default()
        };
        let hot = Kernel::generate_with(spec, hot_tuning);
        hot.module.verify().unwrap();
        // The tuned kernel is a genuinely different program.
        assert_ne!(hot.module.code_bytes(), default.module.code_bytes());
        // No recursion: the call graph is a DAG everywhere.
        let (offsets, callees) = hot.module.call_sites().call_graph();
        assert!(pibe_ir::recursive_marks(offsets, callees)
            .iter()
            .all(|r| !r));
    }

    #[test]
    fn boot_functions_are_marked() {
        let k = small();
        let boot = k
            .module
            .functions()
            .iter()
            .filter(|f| f.attrs().boot_only)
            .count();
        assert_eq!(boot, 4);
    }
}
