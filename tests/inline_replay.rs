//! The PIBE inliner finds each popped call through a position hint rather
//! than `Function::find_call`; these tests hold it to the `find_call`
//! answer. Each replays the inliner's accepted `(caller, site)` sequence
//! through `inline_call_site` and requires the identical module, on a
//! generated kernel and on a hand-built caller that holds two live copies
//! of one site.

use pibe::PibeConfig;
use pibe_difftest::inline_replay;
use pibe_harden::DefenseSet;
use pibe_ir::{BlockId, FuncId, FunctionBuilder, Module, OpKind, SiteId};
use pibe_kernel::measure::collect_profile;
use pibe_kernel::workloads::{lmbench_suite, WorkloadSpec};
use pibe_kernel::{Kernel, KernelSpec};
use pibe_passes::{run_inliner, InlinerConfig, SiteWeights};
use pibe_profile::{Budget, Profile};
use std::sync::Mutex;

/// The replay reads the process-global tracer; tests that record serialize
/// on this and leave the tracer disabled and drained behind them.
fn lock() -> std::sync::MutexGuard<'static, ()> {
    static GATE: Mutex<()> = Mutex::new(());
    GATE.lock().unwrap_or_else(|e| e.into_inner())
}

#[test]
fn the_inliner_matches_its_find_call_replay_on_a_kernel() {
    let _g = lock();
    let kernel = Kernel::generate(KernelSpec::test());
    let profile = collect_profile(
        &kernel,
        &WorkloadSpec::lmbench(),
        &lmbench_suite(8),
        2,
        0xBA5E,
    )
    .expect("profiling succeeds");
    for (name, config) in [
        ("lax", PibeConfig::lax(DefenseSet::ALL)),
        ("lax+dce", PibeConfig::lax(DefenseSet::ALL).with_dce(true)),
        (
            "full P99.9999",
            PibeConfig::full(Budget::P99_9999, DefenseSet::ALL),
        ),
    ] {
        match inline_replay(&kernel.module, &profile, &config) {
            Ok(accepted) => assert!(accepted > 0, "{name} inlined nothing"),
            Err(d) => panic!("{name}: {d}"),
        }
    }
}

/// `c` calls `b` twice, and `b` is `{ call l2 (site t); call l (site s);
/// load }`, so inlining both calls leaves two live copies of `s` (and of
/// `t`) in `c`, in different blocks. Weights are chosen so the pops run
/// s1, s2, t and s inside `b`, then t_A, s_A, t_B and cold in `c` (A and B
/// name the first and second copy of `b`); the copy s_B is too cold to be
/// queued.
fn two_copies() -> (Module, Profile, FuncId, FuncId, SiteId) {
    let mut m = Module::new("m");
    let leaf = |m: &mut Module, name: &str| {
        let mut b = FunctionBuilder::new(name, 0);
        b.op(OpKind::Alu);
        b.ret();
        m.add_function(b.build())
    };
    let l = leaf(&mut m, "l");
    let l2 = leaf(&mut m, "l2");
    let t_fn = leaf(&mut m, "cold_leaf");
    let (t, s) = (m.fresh_site(), m.fresh_site());
    let mut b = FunctionBuilder::new("b", 0);
    b.call(t, l2, 0);
    b.call(s, l, 0);
    b.op(OpKind::Load);
    b.ret();
    let bf = m.add_function(b.build());
    let (s1, s2, cold) = (m.fresh_site(), m.fresh_site(), m.fresh_site());
    let mut b = FunctionBuilder::new("c", 0);
    b.call(s1, bf, 0);
    b.call(s2, bf, 0);
    b.call(cold, t_fn, 0);
    b.ret();
    let c = m.add_function(b.build());

    let mut p = Profile::new();
    for (site, n) in [(s1, 120), (s2, 80), (t, 60), (s, 45), (cold, 20)] {
        for _ in 0..n {
            p.record_direct(site);
        }
    }
    for (f, n) in [(bf, 200), (l2, 60), (l, 45), (t_fn, 20)] {
        for _ in 0..n {
            p.record_entry(f);
        }
    }
    (m, p, c, l, s)
}

#[test]
fn a_duplicated_site_inlines_the_copy_first_in_block_order() {
    let _g = lock();
    let (mut m, p, c, l, s) = two_copies();
    let config = PibeConfig {
        inliner: Some(InlinerConfig::default()),
        ..PibeConfig::lto()
    };
    assert_eq!(inline_replay(&m, &p, &config), Ok(8));

    pibe_trace::set_enabled(true);
    let _ = pibe_trace::take();
    let stats = run_inliner(
        &mut m,
        &SiteWeights::from_profile(&p),
        &p,
        &InlinerConfig::default(),
    );
    pibe_trace::set_enabled(false);
    let data = pibe_trace::take();
    assert_eq!(stats.inlined_sites, 8);

    // Inlining t_A split the first copy's block, moving s_A into a new
    // block (5) after the second copy's block (4). s_A's candidate pops
    // while both copies live, so find_call's block order decides: s_B is
    // inlined and s_A survives.
    assert_eq!(
        m.function(c).find_call(s),
        Some((BlockId::from_raw(5), 0, l, 0))
    );
    // t_A and s_A pop while their site has two live copies. s2, the s
    // inside `b` and cold sit in blocks an earlier inline split; t_B's
    // copy is unique again once t_A is inlined.
    let counter = |name| {
        data.last_counter(name)
            .unwrap_or_else(|| panic!("no {name}"))
    };
    assert_eq!(counter("inline.heap_pops"), 8);
    assert_eq!(counter("inline.splices"), 8);
    assert_eq!(counter("inline.find_call_fallbacks"), 2);
    assert_eq!(counter("inline.block_searches"), 3);
}
