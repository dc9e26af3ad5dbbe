//! Behavioural tests of the machine model: the simulator's costs must stay
//! consistent with the calibrated defense deltas and with basic
//! microarchitectural intuition.

use pibe::experiments::Lab;
use pibe::PibeConfig;
use pibe_harden::{costs, DefenseSet};
use pibe_ir::{Cond, FuncId, FunctionBuilder, Module, OpKind, SiteId};
use pibe_kernel::measure::{run_latency, run_throughput};
use pibe_kernel::workloads::{MacroBench, WorkloadSpec};
use pibe_sim::{FixedResolver, MapResolver, SimConfig, SimError, Simulator};

fn leaf_module(ops: usize) -> (Module, FuncId) {
    let mut m = Module::new("m");
    let mut b = FunctionBuilder::new("f", 0);
    b.ops(OpKind::Alu, ops);
    b.ret();
    let f = m.add_function(b.build());
    (m, f)
}

#[test]
fn op_costs_add_up_exactly() {
    // alu=1 each, ret=2, plus the function's entry bookkeeping; measure the
    // *difference* between two op counts to isolate the per-op cost.
    let (m10, f10) = leaf_module(10);
    let (m60, f60) = leaf_module(60);
    let run = |m: &Module, f: FuncId| {
        let mut sim = Simulator::new(m, FixedResolver(f), 1, SimConfig::default());
        sim.call_entry(f).unwrap();
        sim.call_entry(f).unwrap() // warm: no icache misses
    };
    let warm10 = run(&m10, f10);
    let warm60 = run(&m60, f60);
    assert_eq!(warm60 - warm10, 50, "each ALU op costs exactly one cycle");
}

#[test]
fn fence_ops_cost_more_than_alu() {
    let mut m = Module::new("m");
    let mut b = FunctionBuilder::new("fenced", 0);
    b.op(OpKind::Fence);
    b.ret();
    let fenced = m.add_function(b.build());
    let mut b = FunctionBuilder::new("plain", 0);
    b.op(OpKind::Alu);
    b.ret();
    let plain = m.add_function(b.build());
    let run = |f: FuncId| {
        let mut sim = Simulator::new(&m, FixedResolver(f), 1, SimConfig::default());
        sim.call_entry(f).unwrap();
        sim.call_entry(f).unwrap()
    };
    assert!(
        run(fenced) > run(plain) + 5,
        "lfence serialises the pipeline"
    );
}

#[test]
fn stack_overflow_is_reported_not_crashed() {
    // A chain deeper than max_depth.
    let mut m = Module::new("m");
    let mut prev: Option<FuncId> = None;
    for i in 0..40u64 {
        let mut b = FunctionBuilder::new(format!("d{i}"), 0);
        if let Some(p) = prev {
            b.call(SiteId::from_raw(i), p, 0);
        }
        b.ret();
        prev = Some(m.add_function(b.build()));
    }
    let top = prev.unwrap();
    let cfg = SimConfig {
        max_depth: 16,
        ..SimConfig::default()
    };
    let mut sim = Simulator::new(&m, FixedResolver(top), 1, cfg);
    assert_eq!(sim.call_entry(top), Err(SimError::StackOverflow(16)));
    // The simulator remains usable afterwards.
    let shallow = FuncId::from_raw(0);
    assert!(sim.call_entry(shallow).is_ok());
}

#[test]
fn jump_table_switch_is_cheaper_warm_than_long_compare_chain() {
    // A 8-way switch, lowered both ways; warm execution should favour the
    // table (one indexed jump vs up to 8 compares).
    let build = |via_table: bool| {
        let mut m = Module::new("m");
        let mut b = FunctionBuilder::new("sw", 0);
        let cases: Vec<_> = (0..8).map(|_| b.new_block()).collect();
        let exit = b.new_block();
        b.op(OpKind::Alu);
        // Weight the LAST case so the chain pays its full length.
        let mut weights = vec![0u16; 8];
        weights[7] = 1;
        b.switch(weights, cases.clone(), 0, exit, via_table);
        for c in &cases {
            b.switch_to(*c);
            b.jump(exit);
        }
        b.switch_to(exit);
        b.ret();
        let f = m.add_function(b.build());
        (m, f)
    };
    let run = |via_table: bool| {
        let (m, f) = build(via_table);
        let mut sim = Simulator::new(&m, FixedResolver(f), 3, SimConfig::default());
        for _ in 0..10 {
            sim.call_entry(f).unwrap();
        }
        sim.call_entry(f).unwrap()
    };
    assert!(
        run(true) < run(false),
        "warm jump table beats compare chain"
    );
}

#[test]
fn defense_deltas_match_the_calibrated_cost_model() {
    // caller -> icall(leaf); measure per-defense warm deltas and compare
    // against pibe_harden::costs exactly.
    let mut m = Module::new("m");
    let mut b = FunctionBuilder::new("leaf", 0);
    b.ret();
    let leaf = m.add_function(b.build());
    let s = m.fresh_site();
    let mut b = FunctionBuilder::new("caller", 0);
    b.call_indirect(s, 0);
    b.ret();
    let caller = m.add_function(b.build());

    let warm = |d: DefenseSet| {
        let cfg = SimConfig {
            defenses: d,
            ..SimConfig::default()
        };
        let mut sim = Simulator::new(&m, FixedResolver(leaf), 1, cfg);
        for _ in 0..4 {
            sim.call_entry(caller).unwrap();
        }
        sim.call_entry(caller).unwrap()
    };
    let base = warm(DefenseSet::NONE);
    for d in DefenseSet::EVALUATED {
        // 1 icall + 2 returns (leaf's and caller's) per invocation.
        let expected = costs::forward_delta(d) + 2 * costs::return_delta(d);
        assert_eq!(
            warm(d) - base,
            expected,
            "defense {d} must cost exactly its calibrated delta"
        );
    }
}

#[test]
fn map_resolver_respects_weights_statistically() {
    let mut m = Module::new("m");
    let mut b = FunctionBuilder::new("a", 0);
    b.ret();
    let a = m.add_function(b.build());
    let mut b = FunctionBuilder::new("b", 0);
    b.ret();
    let bf = m.add_function(b.build());
    let s = m.fresh_site();
    let mut b = FunctionBuilder::new("root", 0);
    b.call_indirect(s, 0);
    b.ret();
    let root = m.add_function(b.build());

    let mut r = MapResolver::new();
    r.insert(s, vec![(a, 9), (bf, 1)]);
    let cfg = SimConfig {
        collect_profile: true,
        ..SimConfig::default()
    };
    let mut sim = Simulator::new(&m, r, 1234, cfg);
    for _ in 0..1000 {
        sim.call_entry(root).unwrap();
    }
    let p = sim.take_profile();
    let vp = p.value_profile(s);
    assert_eq!(vp[0].target, a, "the 90% target dominates");
    let share = vp[0].count as f64 / 1000.0;
    assert!((share - 0.9).abs() < 0.05, "observed share {share}");
}

#[test]
fn eibrs_toll_is_charged_per_indirect_call() {
    let mut m = Module::new("m");
    let mut b = FunctionBuilder::new("leaf", 0);
    b.ret();
    let leaf = m.add_function(b.build());
    let s = m.fresh_site();
    let mut b = FunctionBuilder::new("caller", 0);
    b.call_indirect(s, 0);
    b.ret();
    let caller = m.add_function(b.build());
    let warm = |eibrs: bool| {
        let cfg = SimConfig {
            eibrs,
            ..SimConfig::default()
        };
        let mut sim = Simulator::new(&m, FixedResolver(leaf), 1, cfg);
        for _ in 0..4 {
            sim.call_entry(caller).unwrap();
        }
        sim.call_entry(caller).unwrap()
    };
    assert_eq!(warm(true) - warm(false), 2, "one icall, two cycles of toll");
}

#[test]
fn branch_probability_drives_taken_frequency() {
    let mut m = Module::new("m");
    let mut b = FunctionBuilder::new("f", 0);
    let taken = b.new_block();
    let not = b.new_block();
    let exit = b.new_block();
    b.branch(Cond::Random { ptaken_milli: 250 }, taken, not);
    b.switch_to(taken);
    b.ops(OpKind::Load, 30); // expensive taken path
    b.jump(exit);
    b.switch_to(not);
    b.op(OpKind::Alu);
    b.jump(exit);
    b.switch_to(exit);
    b.ret();
    let f = m.add_function(b.build());
    let mut sim = Simulator::new(&m, FixedResolver(f), 9, SimConfig::default());
    let mut total = 0;
    for _ in 0..2000 {
        total += sim.call_entry(f).unwrap();
    }
    let avg = total as f64 / 2000.0;
    // Expected ≈ base + 0.25 * (30 loads) vs 0.75 * (1 alu).
    let heavy = 30.0 * 3.0;
    let light = 1.0;
    let expected_extra = 0.25 * heavy + 0.75 * light;
    assert!(
        (avg - expected_extra).abs() < heavy * 0.2 + 8.0,
        "avg {avg} vs expected extra {expected_extra}"
    );
}

/// With trace collection off the simulator charges each run of plain ops in
/// one step; with it on, it steps per instruction. Every LMBench benchmark
/// and Nginx must see the same statistics both ways on the LTO, `lax` and
/// `lax+all` images of a test kernel.
#[test]
fn op_runs_charge_the_same_stats_as_per_instruction_steps() {
    let lab = Lab::test();
    let images = [
        ("lto", PibeConfig::lto()),
        ("lax", PibeConfig::builder().lax().build()),
        (
            "lax+all",
            PibeConfig::builder()
                .lax()
                .defenses(DefenseSet::ALL)
                .build(),
        ),
    ];
    let nginx = MacroBench::nginx(8);
    for (name, config) in images {
        let image = lab.image(&config);
        let cfg = |collect_trace| SimConfig {
            defenses: image.config.defenses,
            arch: image.config.arch,
            collect_trace,
            ..SimConfig::default()
        };
        let module = &image.module;
        for bench in &lab.suite {
            let stats = |trace| {
                let (_, stats, _) = run_latency(
                    module,
                    &lab.kernel,
                    &lab.workload,
                    *bench,
                    cfg(trace),
                    lab.seed,
                )
                .expect("latency benchmark runs");
                stats
            };
            assert_eq!(stats(true), stats(false), "{name} {:?}", bench.syscall);
        }
        let stats = |trace| {
            let (_, stats) = run_throughput(
                module,
                &lab.kernel,
                &WorkloadSpec::nginx(),
                &nginx,
                cfg(trace),
                lab.seed,
            )
            .expect("nginx runs");
            stats
        };
        assert_eq!(stats(true), stats(false), "{name} nginx");
    }
}
