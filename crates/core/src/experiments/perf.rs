//! Performance tables: Table 1 (micro costs), Figure 1 (Rule 3 example),
//! Tables 2, 3, 5, 6 (LMBench), Table 7 (macrobenchmarks).

use super::{defense_sweep, ExperimentError, Lab};
use crate::config::PibeConfig;
use crate::eval;
use crate::report::{micros, pct, Table};
use pibe_baselines::jumpswitch_sim_config;
use pibe_harden::costs::NonTransientDefense;
use pibe_harden::DefenseSet;
use pibe_kernel::measure::run_throughput;
use pibe_kernel::workloads::{MacroBench, WorkloadSpec};
use pibe_passes::{run_inliner, InlinerConfig, SiteWeights};
use pibe_profile::{Budget, Profile};
use pibe_sim::{micro, JumpSwitchConfig};

/// Table 1: per-call defense overheads in ticks plus the SPEC-like
/// slowdown. Transient rows are *measured* in the simulator; the
/// non-transient rows reproduce the paper's measurements (they exist to
/// justify the focus on transient defenses and are not part of the kernel
/// pipeline).
pub fn table1() -> Table {
    let mut t = Table::new(
        "Table 1: overhead of control-flow hijacking mitigations (ticks/call, % SPEC-like)",
        &["defense", "dcall", "icall", "vcall", "spec-like %"],
    );
    t.row(vec![
        "uninstrumented".into(),
        "0".into(),
        "0".into(),
        "0".into(),
        pct(0.0),
    ]);
    for d in [
        NonTransientDefense::LlvmCfi,
        NonTransientDefense::StackProtector,
        NonTransientDefense::SafeStack,
    ] {
        let (dc, ic, vc) = d.table1_ticks();
        t.row(vec![
            d.name().into(),
            dc.to_string(),
            ic.to_string(),
            vc.to_string(),
            "~1.0%".into(),
        ]);
    }
    let transient: [(&str, DefenseSet); 5] = [
        ("LVI-CFI", DefenseSet::LVI_CFI),
        ("retpolines", DefenseSet::RETPOLINES),
        (
            "retpolines + LVI-CFI",
            DefenseSet {
                retpolines: true,
                lvi_cfi: true,
                ret_retpolines: false,
            },
        ),
        ("return retpolines", DefenseSet::RET_RETPOLINES),
        ("all defenses", DefenseSet::ALL),
    ];
    for (name, d) in transient {
        let row = micro::table1_row(d);
        let spec = micro::spec_slowdown_percent(d);
        t.row(vec![
            name.into(),
            row.dcall.to_string(),
            row.icall.to_string(),
            row.vcall.to_string(),
            pct(spec),
        ]);
    }
    t
}

/// Figure 1: the `bar → foo_1/foo_2/foo_3` example motivating Rule 3 —
/// without it, greedy inlining of the hot heavyweight callee `foo_1`
/// depletes `bar`'s complexity budget; with it, `foo_2` and `foo_3` elide
/// the same weight at a fraction of the size.
pub fn figure1() -> Table {
    use pibe_ir::{FunctionBuilder, Module, OpKind};
    let mut m = Module::new("figure1");
    // Costs: foo_1 ≈ 12 000 (2 399 ops), foo_2 ≈ 300, foo_3 ≈ 200.
    let mut foos = Vec::new();
    for (name, ops) in [("foo_1", 2_399usize), ("foo_2", 59), ("foo_3", 39)] {
        let mut b = FunctionBuilder::new(name, 0);
        b.ops(OpKind::Alu, ops);
        b.ret();
        foos.push(m.add_function(b.build()));
    }
    let sites: Vec<_> = (0..3).map(|_| m.fresh_site()).collect();
    let mut b = FunctionBuilder::new("bar", 0);
    for (s, f) in sites.iter().zip(&foos) {
        b.call(*s, *f, 0);
    }
    b.ret();
    m.add_function(b.build());

    // Weights from Figure 1: 1000 / 500 / 500.
    let mut p = Profile::new();
    for (s, f, w) in [
        (sites[0], foos[0], 1000u64),
        (sites[1], foos[1], 500),
        (sites[2], foos[2], 500),
    ] {
        for _ in 0..w {
            p.record_direct(s);
            p.record_entry(f);
        }
    }
    let weights = SiteWeights::from_profile(&p);
    let stats = run_inliner(&mut m, &weights, &p, &InlinerConfig::default());

    let mut t = Table::new(
        "Figure 1: Rule 3 preserves bar's budget for small hot callees",
        &["callee", "edge weight", "inline cost", "decision"],
    );
    let cost = |f: pibe_ir::FuncId| pibe_ir::size::function_cost(m.function(f));
    t.row(vec![
        "foo_1".into(),
        "1000".into(),
        "~12000".into(),
        "skipped (Rule 3)".into(),
    ]);
    t.row(vec![
        "foo_2".into(),
        "500".into(),
        cost(foos[1]).to_string(),
        "inlined".into(),
    ]);
    t.row(vec![
        "foo_3".into(),
        "500".into(),
        cost(foos[2]).to_string(),
        "inlined".into(),
    ]);
    t.row(vec![
        "(total)".into(),
        format!("{} elided", stats.inlined_weight),
        format!("{} blocked by Rule 3", stats.blocked_rule3_weight),
        format!("{} sites inlined", stats.inlined_sites),
    ]);
    t
}

/// Table 2: the two baselines — LTO vs PIBE-optimized (no defenses) —
/// absolute latencies and relative overhead, geometric mean last.
pub fn table2(lab: &Lab) -> Table {
    let rows = &lab.measure(&PibeConfig::builder().lax().build()).rows;
    let mut t = Table::new(
        "Table 2: LTO baseline vs PIBE (PGO, no defenses) LMBench latencies",
        &[
            "Test",
            "LTO Baseline (us)",
            "PIBE Baseline (us)",
            "overhead",
        ],
    );
    for (b, n) in lab.lto_latencies.iter().zip(rows) {
        t.row(vec![
            b.name.clone(),
            micros(b.micros),
            micros(n.micros),
            pct(eval::overhead_pct(b.cycles, n.cycles)),
        ]);
    }
    t.row(vec![
        "Geometric Mean".into(),
        "-".into(),
        "-".into(),
        pct(lab.geomean(rows)),
    ]);
    t
}

/// The 12 retpoline-sensitive benchmarks Table 3 reports.
const TABLE3_BENCHES: [&str; 12] = [
    "null",
    "read",
    "write",
    "open",
    "stat",
    "fstat",
    "select_tcp",
    "udp",
    "tcp",
    "tcp_conn",
    "af_unix",
    "pipe",
];

/// Table 3: retpoline overhead — unoptimized vs JumpSwitches vs static ICP
/// at two budgets, all relative to the LTO baseline.
pub fn table3(lab: &Lab) -> Table {
    let retp = DefenseSet::RETPOLINES;
    let lto = PibeConfig::builder().defenses(retp).build();
    let icp99 = PibeConfig::builder()
        .icp(Budget::P99)
        .defenses(retp)
        .build();
    let icp999 = PibeConfig::builder()
        .icp(Budget::P99_999)
        .defenses(retp)
        .build();
    lab.prefetch(&[lto, icp99, icp999]);
    let lto_rows = &lab.measure(&lto).rows;
    // JumpSwitches run on the *unoptimized* image with the runtime
    // mechanism handling forward edges.
    let js_rows = &lab
        .evaluate(&lto, jumpswitch_sim_config(JumpSwitchConfig::default()))
        .rows;
    let icp99_rows = &lab.measure(&icp99).rows;
    let icp999_rows = &lab.measure(&icp999).rows;

    let mut t = Table::new(
        "Table 3: retpolines overhead vs LTO baseline",
        &[
            "Test",
            "LTO w/retpolines",
            "JumpSwitches",
            "+icp (99%)",
            "+icp (99.999%)",
        ],
    );
    let mut kept = vec![false; lab.suite.len()];
    for (i, b) in lab.lto_latencies.iter().enumerate() {
        kept[i] = TABLE3_BENCHES.contains(&b.name.as_str());
    }
    for (i, base) in lab.lto_latencies.iter().enumerate() {
        if !kept[i] {
            continue;
        }
        t.row(vec![
            base.name.clone(),
            pct(eval::overhead_pct(base.cycles, lto_rows[i].cycles)),
            pct(eval::overhead_pct(base.cycles, js_rows[i].cycles)),
            pct(eval::overhead_pct(base.cycles, icp99_rows[i].cycles)),
            pct(eval::overhead_pct(base.cycles, icp999_rows[i].cycles)),
        ]);
    }
    let geo = |rows: &[eval::LatencyRow]| {
        let base: Vec<f64> = lab
            .lto_latencies
            .iter()
            .enumerate()
            .filter(|(i, _)| kept[*i])
            .map(|(_, r)| r.cycles)
            .collect();
        let new: Vec<f64> = rows
            .iter()
            .enumerate()
            .filter(|(i, _)| kept[*i])
            .map(|(_, r)| r.cycles)
            .collect();
        eval::geomean_overhead_pct(&base, &new)
    };
    t.row(vec![
        "Geometric Mean".into(),
        pct(geo(lto_rows)),
        pct(geo(js_rows)),
        pct(geo(icp99_rows)),
        pct(geo(icp999_rows)),
    ]);
    t
}

/// Table 5: overhead with all defenses enabled across optimization
/// configurations — the headline 149.1% → 10.6% sweep.
pub fn table5(lab: &Lab) -> Table {
    let all = DefenseSet::ALL;
    let configs: Vec<(&str, PibeConfig)> = vec![
        (
            "LTO w/all-defenses",
            PibeConfig::builder().defenses(all).build(),
        ),
        (
            "+icp (99.999%)",
            PibeConfig::builder()
                .icp(Budget::P99_999)
                .defenses(all)
                .build(),
        ),
        (
            "+icp+inl (99%)",
            PibeConfig::builder()
                .icp(Budget::P99)
                .inliner(Budget::P99)
                .defenses(all)
                .build(),
        ),
        (
            "+icp+inl (99.9%)",
            PibeConfig::builder()
                .icp(Budget::P99_9)
                .inliner(Budget::P99_9)
                .defenses(all)
                .build(),
        ),
        (
            "+icp+inl (99.9999%)",
            PibeConfig::builder()
                .icp(Budget::P99_9999)
                .inliner(Budget::P99_9999)
                .defenses(all)
                .build(),
        ),
        (
            "lax heuristics",
            PibeConfig::builder().lax().defenses(all).build(),
        ),
    ];
    lab.prefetch(&configs.iter().map(|(_, c)| *c).collect::<Vec<_>>());
    let measured: Vec<_> = configs.iter().map(|(_, c)| lab.measure(c)).collect();

    let mut headers: Vec<&str> = vec!["Test"];
    headers.extend(configs.iter().map(|(n, _)| *n));
    let mut t = Table::new(
        "Table 5: overhead with all defenses enabled (vs LTO baseline)",
        &headers,
    );
    for (i, base) in lab.lto_latencies.iter().enumerate() {
        let mut row = vec![base.name.clone()];
        for e in &measured {
            row.push(pct(eval::overhead_pct(base.cycles, e.rows[i].cycles)));
        }
        t.row(row);
    }
    let mut last = vec!["Geometric Mean".to_string()];
    for e in &measured {
        last.push(pct(lab.geomean(&e.rows)));
    }
    t.row(last);
    t
}

/// Table 6: geometric-mean overhead per defense, unoptimized vs PIBE's
/// best configuration for that defense.
pub fn table6(lab: &Lab) -> Table {
    let mut t = Table::new(
        "Table 6: LMBench geometric mean overhead per defense",
        &["Defense", "LTO", "PIBE"],
    );
    // Optimal config per the paper: icp-only for retpolines (backward
    // edges are untouched anyway), lax for everything else.
    let best = |d: DefenseSet| {
        if d == DefenseSet::RETPOLINES {
            PibeConfig::builder()
                .icp(Budget::P99_999)
                .defenses(d)
                .build()
        } else {
            PibeConfig::builder().lax().defenses(d).build()
        }
    };
    let mut configs = vec![PibeConfig::builder().lax().build()];
    for (_, d) in defense_sweep() {
        configs.push(PibeConfig::builder().defenses(d).build());
        configs.push(best(d));
    }
    lab.prefetch(&configs);
    // "None": the PIBE baseline speedup.
    let (none_geo, _) = lab.run_config(&PibeConfig::builder().lax().build());
    t.row(vec!["None".into(), pct(0.0), pct(none_geo)]);
    for (name, d) in defense_sweep() {
        let (lto, _) = lab.run_config(&PibeConfig::builder().defenses(d).build());
        let (pibe, _) = lab.run_config(&best(d));
        t.row(vec![
            name.trim_start_matches("w/").into(),
            pct(lto),
            pct(pibe),
        ]);
    }
    t
}

/// Table 7: macrobenchmark throughput change (vs the LTO baseline) for
/// each defense, with and without PIBE's optimizations. The profile is the
/// LMBench training workload, as in §8.5.
///
/// # Errors
/// [`ExperimentError::Benchmark`] naming the macrobenchmark and seed when
/// a vanilla throughput run fails.
pub fn table7(lab: &Lab, requests: u32) -> Result<Table, ExperimentError> {
    let benches: [(MacroBench, WorkloadSpec); 3] = [
        (MacroBench::nginx(requests), WorkloadSpec::nginx()),
        (MacroBench::apache(requests), WorkloadSpec::apache()),
        (MacroBench::dbench(requests), WorkloadSpec::dbench()),
    ];
    let mut t = Table::new(
        "Table 7: throughput change for Nginx, Apache, DBench (vs LTO baseline)",
        &[
            "Benchmark",
            "Configuration",
            "no optimization",
            "PIBE optimizations",
        ],
    );
    let mut configs = Vec::new();
    for (_, d) in defense_sweep() {
        configs.push(PibeConfig::builder().defenses(d).build());
        configs.push(if d == DefenseSet::RETPOLINES {
            PibeConfig::builder()
                .icp(Budget::P99_999)
                .defenses(d)
                .build()
        } else {
            PibeConfig::builder().lax().defenses(d).build()
        });
    }
    lab.prefetch(&configs);
    // One thread per macro benchmark; rows and the first error come back
    // in benchmark order.
    let per_bench = std::thread::scope(|scope| {
        let handles: Vec<_> = benches
            .iter()
            .map(|(mb, wl)| scope.spawn(move || table7_rows(lab, mb, wl)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("benchmark thread panicked"))
            .collect::<Vec<_>>()
    });
    for rows in per_bench {
        for row in rows? {
            t.row(row);
        }
    }
    Ok(t)
}

/// Table 7's rows for one macro benchmark: its vanilla run, then the
/// unoptimized and optimized image of every defense in the sweep.
fn table7_rows(
    lab: &Lab,
    mb: &MacroBench,
    wl: &WorkloadSpec,
) -> Result<Vec<Vec<String>>, ExperimentError> {
    let (vanilla, _) = run_throughput(
        &lab.kernel.module,
        &lab.kernel,
        wl,
        mb,
        pibe_sim::SimConfig::default(),
        lab.seed,
    )
    .map_err(|source| ExperimentError::Benchmark {
        benchmark: mb.name.clone(),
        seed: lab.seed,
        source,
    })?;
    let mut rows = Vec::new();
    for (dname, d) in defense_sweep() {
        let unopt = lab.image(&PibeConfig::builder().defenses(d).build());
        let opt = if d == DefenseSet::RETPOLINES {
            // §8.5: "For the retpolines-only configuration we apply
            // only indirect call promotion."
            lab.image(
                &PibeConfig::builder()
                    .icp(Budget::P99_999)
                    .defenses(d)
                    .build(),
            )
        } else {
            lab.image(&PibeConfig::builder().lax().defenses(d).build())
        };
        let tp = |img: &crate::pipeline::Image| {
            eval::macro_throughput(
                &img.module,
                &lab.kernel,
                wl,
                mb,
                img.config.sim_config(),
                lab.seed,
            )
        };
        let delta = |rps: f64| (rps - vanilla.requests_per_sec) / vanilla.requests_per_sec * 100.0;
        rows.push(vec![
            mb.name.clone(),
            dname.into(),
            pct(delta(tp(&unopt))),
            pct(delta(tp(&opt))),
        ]);
    }
    Ok(rows)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_reproduces_paper_ticks() {
        let t = table1();
        assert_eq!(t.rows.len(), 9);
        let all = t.rows.last().unwrap();
        assert_eq!(all[0], "all defenses");
        assert_eq!(all[1], "32");
        assert_eq!(all[2], "73");
    }

    #[test]
    fn figure1_shows_rule3_skip() {
        let t = figure1();
        assert!(t.rows[0][3].contains("Rule 3"));
        assert_eq!(t.rows[1][3], "inlined");
        assert_eq!(t.rows[2][3], "inlined");
        assert!(t.rows[3][1].contains("1000 elided"));
    }

    #[test]
    fn table2_pibe_baseline_is_a_net_speedup() {
        let lab = Lab::test();
        let t = table2(&lab);
        assert_eq!(t.rows.len(), 21);
        let geo = t.rows.last().unwrap()[3]
            .trim_end_matches('%')
            .parse::<f64>()
            .unwrap();
        assert!(geo < 0.0, "geomean must be a speedup, got {geo}%");
    }

    /// The macro benchmarks run on threads of their own; their rows still
    /// come back in benchmark order, each in sweep order, and identical on
    /// every call.
    #[test]
    fn table7_rows_keep_benchmark_and_sweep_order() {
        let lab = Lab::test();
        let t = table7(&lab, 4).unwrap();
        let order: Vec<(&str, &str)> = t
            .rows
            .iter()
            .map(|r| (r[0].as_str(), r[1].as_str()))
            .collect();
        let expected: Vec<(&str, &str)> = ["Nginx", "Apache", "DBench"]
            .into_iter()
            .flat_map(|b| defense_sweep().map(|(d, _)| (b, d)))
            .collect();
        assert_eq!(order, expected);
        assert_eq!(t.rows, table7(&lab, 4).unwrap().rows);
    }

    #[test]
    fn table3_icp_beats_unoptimized_retpolines() {
        let lab = Lab::test();
        // The magnitudes below are x86-retpoline facts: a 1-cycle BTI pad
        // or Zicfilp lpad neither hurts the unoptimized kernel past 5%
        // nor guarantees promotion wins against its own i-cache growth.
        if lab.arch != pibe_harden::Arch::X86 {
            return;
        }
        let t = table3(&lab);
        let geo = t.rows.last().unwrap();
        let parse = |s: &str| s.trim_end_matches('%').parse::<f64>().unwrap();
        let lto = parse(&geo[1]);
        let icp_hi = parse(&geo[4]);
        assert!(icp_hi < lto, "icp 99.999 ({icp_hi}) must beat LTO ({lto})");
        assert!(lto > 5.0, "retpolines hurt the unoptimized kernel: {lto}");
    }
}
