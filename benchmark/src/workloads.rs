//! The three workloads. Each sets up [`SETUPS`] times (the median is
//! `setup_s`), then one client runs a closed loop of as many operations as
//! the time budget buys on the reference machine, then the outputs are
//! checked.
//!
//! * `repro`: every table of the `tables` binary, in its order, on a fresh
//!   `Lab`; its inputs do not depend on the seed. One operation is one such
//!   pass: table latencies are bimodal (microseconds to seconds), so their
//!   median would flip between neighbouring tables from run to run.
//! * `build`: cold builds of [`grid`]'s 25 configurations, in rounds
//!   shuffled by the seed. One operation is one build.
//! * `serve`: `DeltaStream`-style epochs into a bootstrapped `PibeService`.
//!   One operation is one epoch.

use crate::spans::SpanLog;
use crate::stats::{digest, median, peak_rss_mib};
use crate::stream::DeltaGen;
use crate::{probes, Check, Ctx, Metrics, Run, Status};
use pibe::eval;
use pibe::experiments::{self, ExperimentError, Lab};
use pibe::report::Table;
use pibe::{BuildMetrics, Image, PibeConfig, PibeConfigBuilder};
use pibe_harden::{Arch, DefenseSet};
use pibe_kernel::measure::collect_profile;
use pibe_kernel::workloads::lmbench_suite;
use pibe_kernel::{Kernel, WorkloadSpec};
use pibe_profile::{Budget, Profile};
use pibe_serve::{EpochOutcome, PibeService, ServeConfig};
use pibe_sim::SimConfig;
use serde_json::Value;
use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

/// Set-ups per run; `setup_s` is their median.
pub const SETUPS: usize = 3;

/// How much work a run does per second of `--seconds`, measured at paper
/// scale on 2 vCPUs. Runs do a fixed amount of work rather than stop at a
/// deadline: an epoch costs more the more epochs came before it (about
/// 150 ms at first, 300 ms by epoch 60), so a deadline would measure a
/// different set of epochs on a faster or slower machine.
const PASS_SECONDS: f64 = 20.0;
const BUILDS_PER_SECOND: f64 = 20.0;
const EPOCHS_PER_SECOND: f64 = 4.0;

/// The operations a `seconds` budget buys at `per_second`; at least one.
fn operations(seconds: f64, per_second: f64) -> u64 {
    ((seconds * per_second).round() as u64).max(1)
}

/// The simulation seed of the training profile and of every evaluation,
/// the same one `Lab` uses.
pub const EVAL_SEED: u64 = 0xBA5E;

const MIB: f64 = 1024.0 * 1024.0;

/// Problem sizes: the paper's, or a tiny one for the smoke test.
#[derive(Debug, Clone, Copy)]
pub struct Sizes {
    /// Kernel scale (1.0 = the paper's Linux census).
    pub scale: f64,
    /// LMBench iterations per benchmark.
    pub iters: u32,
    /// Profiling rounds of the training profile.
    pub rounds: u32,
    /// Macro-benchmark requests (Table 7 and robustness).
    pub requests: u32,
    /// Profiling runs of the userspace table.
    pub userspace_runs: u32,
    /// LMBench iterations of the sequential simulator probe.
    pub probe_iters: u32,
}

impl Sizes {
    /// The EXPERIMENTS.md settings.
    pub const PAPER: Sizes = Sizes {
        scale: 1.0,
        iters: 32,
        rounds: 11,
        requests: 60,
        userspace_runs: 400,
        probe_iters: 8,
    };

    /// `KernelSpec::test()` scale with tiny counts.
    pub const SMOKE: Sizes = Sizes {
        scale: 0.02,
        iters: 4,
        rounds: 1,
        requests: 4,
        userspace_runs: 8,
        probe_iters: 2,
    };
}

/// Table 6's fully hardened `lax+all` configuration: `build`'s warm-up,
/// and the image whose LMBench overhead and size every workload reports.
pub fn lax_all() -> PibeConfig {
    PibeConfig::builder()
        .lax()
        .defenses(DefenseSet::ALL)
        .build()
}

/// `lax+all` with DCE: the configuration `serve` rebuilds and the build
/// probe times. DCE renumbers functions, so its images cannot run the
/// kernel's entry points in the simulator.
pub fn lax_all_dce() -> PibeConfig {
    PibeConfig::builder()
        .lax()
        .defenses(DefenseSet::ALL)
        .dce(true)
        .build()
}

/// Builds [`lax_all`] at one stage thread.
pub fn build_lax_all(kernel: &Kernel, profile: &Profile) -> Result<Image, String> {
    Image::builder(&kernel.module)
        .profile(profile)
        .config(lax_all())
        .threads(1)
        .build()
        .map_err(|e| format!("lax+all build: {e}"))
}

/// `repro`'s tables in the `tables` binary's order. The order is fixed, not
/// seeded: it decides which table pays for each image the farm builds, and
/// shuffling it moves the median table latency by more than any bound.
type TableFn = fn(&Lab, &Sizes) -> Result<Table, ExperimentError>;
const TABLES: [(&str, TableFn); 21] = [
    ("1", |_, _| Ok(experiments::table1())),
    ("fig1", |_, _| Ok(experiments::figure1())),
    ("2", |lab, _| Ok(experiments::table2(lab))),
    ("3", |lab, _| Ok(experiments::table3(lab))),
    ("4", |lab, _| Ok(experiments::table4(lab))),
    ("5", |lab, _| Ok(experiments::table5(lab))),
    ("6", |lab, _| Ok(experiments::table6(lab))),
    ("8", |lab, _| Ok(experiments::table8(lab))),
    ("9", |lab, _| Ok(experiments::table9(lab))),
    ("10", |lab, _| Ok(experiments::table10(lab))),
    ("11", |lab, _| Ok(experiments::table11(lab))),
    ("12", |lab, _| Ok(experiments::table12(lab))),
    ("7", |lab, s| experiments::table7(lab, s.requests)),
    ("convergence", |lab, _| {
        experiments::profiling_convergence(lab).map(|(t, _)| t)
    }),
    ("eibrs", |lab, _| Ok(experiments::eibrs_comparison(lab).0)),
    ("userspace", |_, s| {
        Ok(experiments::userspace(s.userspace_runs).0)
    }),
    ("v1", |lab, _| Ok(experiments::spectre_v1_fencing(lab).0)),
    ("breakdown", |lab, _| {
        experiments::cycle_breakdown(lab).map(|(t, _)| t)
    }),
    ("refill", |lab, _| {
        Ok(experiments::rsb_refill_comparison(lab).0)
    }),
    ("robustness", |lab, s| {
        experiments::robustness(lab, s.requests).map(|(t, _)| t)
    }),
    ("crossarch", |lab, _| Ok(experiments::cross_arch(lab).0)),
];

/// One `build` configuration.
pub struct GridEntry {
    /// Reference key, e.g. `lax+dce+all@x86_64`.
    pub label: String,
    /// Optimisation family, for the per-family latency detail.
    pub family: &'static str,
    /// The configuration.
    pub config: PibeConfig,
}

/// `build`'s 25 configurations: 5 optimisation levels × 4 x86 defense
/// sets, plus `lto+all` and `lax+all+dce` on arm64 and riscv64 and
/// `lax+all+dce` on riscv64-nop.
pub fn grid() -> Vec<GridEntry> {
    let b = PibeConfig::builder;
    let levels: [(&str, &str, PibeConfigBuilder); 5] = [
        ("lto", "lto", b()),
        ("icp-p99.999", "icp", b().icp(Budget::P99_999)),
        (
            "full-p99+dce",
            "full",
            b().icp(Budget::P99).inliner(Budget::P99).dce(true),
        ),
        (
            "full-p99.9999+dce",
            "full",
            b().icp(Budget::P99_9999)
                .inliner(Budget::P99_9999)
                .dce(true),
        ),
        ("lax+dce", "lax", b().lax().dce(true)),
    ];
    let defenses = [
        ("retpolines", DefenseSet::RETPOLINES),
        ("ret-retpolines", DefenseSet::RET_RETPOLINES),
        ("lvi-cfi", DefenseSet::LVI_CFI),
        ("all", DefenseSet::ALL),
    ];
    let mut grid = Vec::new();
    for (level, family, builder) in levels {
        for (name, set) in defenses {
            grid.push(GridEntry {
                label: format!("{level}+{name}@x86_64"),
                family,
                config: builder.defenses(set).build(),
            });
        }
    }
    let lto_all = b().defenses(DefenseSet::ALL);
    let lax_all = b().lax().defenses(DefenseSet::ALL).dce(true);
    for (level, builder, arches) in [
        ("lto+all", lto_all, &[Arch::Arm64, Arch::Riscv64][..]),
        (
            "lax+dce+all",
            lax_all,
            &[Arch::Arm64, Arch::Riscv64, Arch::Riscv64Nop][..],
        ),
    ] {
        for &arch in arches {
            grid.push(GridEntry {
                label: format!("{level}@{}", arch.name()),
                family: "nonx86",
                config: builder.arch(arch).build(),
            });
        }
    }
    grid
}

/// The permutation of `0..n` used in `round`: Fisher-Yates driven by
/// SplitMix64, so every seed has its own build order.
fn shuffled(n: usize, seed: u64, round: u64) -> Vec<usize> {
    let mut state = seed ^ round.wrapping_mul(0xA076_1D64_78BD_642F);
    let mut next = || {
        state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    };
    let mut order: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        let j = (next() % (i as u64 + 1)) as usize;
        order.swap(i, j);
    }
    order
}

fn ms_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

/// Runs `f` inside a benchmark span.
fn spanned<T>(name: &'static str, f: impl FnOnce() -> T) -> T {
    let _span = pibe_trace::span(name);
    f()
}

/// Per-build means over `builds` builds whose timings sum to `agg`: the
/// total, each stage's share of it, and the share no stage covers.
fn build_layers(agg: &BuildMetrics, builds: u64) -> Metrics {
    let share = |ns: u64| {
        if agg.total_ns == 0 {
            0.0
        } else {
            ns as f64 * 100.0 / agg.total_ns as f64
        }
    };
    let mut out: Metrics = vec![
        ("build.count".into(), builds as f64, "count"),
        (
            "build.total_ms".into(),
            agg.total_ns as f64 / 1e6 / builds.max(1) as f64,
            "ms",
        ),
        ("build.rollbacks".into(), agg.rollbacks as f64, "count"),
    ];
    let mut staged = 0;
    for (stage, ns) in agg.stages() {
        staged += ns;
        out.push((format!("build.stage.{stage}_pct"), share(ns), "%"));
    }
    out.push((
        "build.unattributed_pct".into(),
        share(agg.total_ns.saturating_sub(staged)),
        "%",
    ));
    out
}

fn farm_layers(requests: u64, builds: u64) -> Metrics {
    let hit_pct = if requests == 0 {
        0.0
    } else {
        (requests - builds) as f64 * 100.0 / requests as f64
    };
    vec![
        ("farm.requests".into(), requests as f64, "count"),
        ("farm.builds".into(), builds as f64, "count"),
        ("farm.hit_pct".into(), hit_pct, "%"),
    ]
}

/// Epoch-loop counters; all zero for a workload that runs no epochs.
#[derive(Debug, Default)]
struct EpochCounts {
    epochs: u64,
    rebuilt: u64,
    drifted: u64,
    quarantined: u64,
    deltas: u64,
}

fn serve_layers(c: &EpochCounts) -> Metrics {
    let pct = |n: u64, of: u64| {
        if of == 0 {
            0.0
        } else {
            n as f64 * 100.0 / of as f64
        }
    };
    vec![
        ("serve.epochs".into(), c.epochs as f64, "count"),
        ("serve.rebuilt_pct".into(), pct(c.rebuilt, c.epochs), "%"),
        (
            "serve.drifted_functions_mean".into(),
            c.drifted as f64 / c.rebuilt.max(1) as f64,
            "count",
        ),
        (
            "serve.quarantined_pct".into(),
            pct(c.quarantined, c.deltas),
            "%",
        ),
    ]
}

/// LMBench geomean overhead (%) of `image` over the LTO kernel, its model
/// code size (MiB), and the time the LTO baseline evaluation took (s).
fn hardened_quality(kernel: &Kernel, image: &Image, sizes: &Sizes) -> (f64, f64, f64) {
    let workload = WorkloadSpec::lmbench();
    let suite = lmbench_suite(sizes.iters);
    let t = Instant::now();
    let base = eval::lmbench_latencies(
        &kernel.module,
        kernel,
        &workload,
        &suite,
        SimConfig::default(),
        EVAL_SEED,
    );
    let baseline_s = t.elapsed().as_secs_f64();
    let cfg = SimConfig {
        defenses: image.config.defenses,
        arch: image.config.arch,
        ..SimConfig::default()
    };
    let hardened =
        eval::lmbench_latencies(&image.module, kernel, &workload, &suite, cfg, EVAL_SEED);
    let overhead = eval::geomean_overhead_pct(&eval::cycles_of(&base), &eval::cycles_of(&hardened));
    (overhead, image.size.bytes as f64 / MIB, baseline_s)
}

/// FNV-1a digest of an image's printed IR, its audit, its harden report
/// and its size.
fn image_digest(image: &Image) -> String {
    digest(&format_args!(
        "{}{:?}{:?}{:?}",
        image.module, image.audit, image.harden_report, image.size
    ))
}

/// The reference stored under `key` for this seed, if any.
fn reference<'g>(ctx: &'g Ctx, key: &str) -> Option<&'g Value> {
    ctx.golden.as_ref().and_then(|g| g.get(key))
}

/// The golden check's verdict from a mismatch list.
fn golden_status(ctx: &Ctx, what: &str, checked: usize, mismatches: &[String]) -> Check {
    let status = match (&ctx.golden, mismatches) {
        (None, _) => Status::Unchecked,
        (Some(_), []) => Status::Pass(format!("{checked} {what} match")),
        (Some(_), m) => Status::Fail(format!("{} {what} differ: {}", m.len(), m.join(", "))),
    };
    Check {
        name: "golden",
        status,
    }
}

/// The durations of one run's set-ups and of their first two steps.
#[derive(Debug, Default)]
struct SetupTimes {
    total: Vec<f64>,
    generate: Vec<f64>,
    profile: Vec<f64>,
}

/// Generates the kernel and the training profile and runs `rest` on them,
/// [`SETUPS`] times; returns the last set-up and every duration.
fn set_up<T>(
    ctx: &Ctx,
    log: &mut SpanLog,
    rest: impl Fn(&Kernel, &Profile) -> Result<T, String>,
) -> Result<((Kernel, Profile, T), SetupTimes), String> {
    let mut times = SetupTimes::default();
    let mut state = None;
    for _ in 0..SETUPS {
        drop(state.take());
        let span = pibe_trace::span("bench.setup");
        let t = Instant::now();
        let kernel = Kernel::generate(ctx.spec());
        times.generate.push(t.elapsed().as_secs_f64());
        let p = Instant::now();
        let profile = collect_profile(
            &kernel,
            &WorkloadSpec::lmbench(),
            &lmbench_suite(ctx.sizes.iters),
            ctx.sizes.rounds,
            EVAL_SEED,
        )
        .map_err(|e| format!("training profile: {e}"))?;
        times.profile.push(p.elapsed().as_secs_f64());
        let more = rest(&kernel, &profile)?;
        times.total.push(t.elapsed().as_secs_f64());
        drop(span);
        log.drain();
        state = Some((kernel, profile, more));
    }
    Ok((state.expect("at least one set-up"), times))
}

fn kernel_layers(functions: usize, generate: &[f64], profile: &[f64], baseline: &[f64]) -> Metrics {
    vec![
        ("kernel.generate_s".into(), median(generate), "s"),
        ("kernel.profile_s".into(), median(profile), "s"),
        ("kernel.functions".into(), functions as f64, "count"),
        ("eval.baseline_s".into(), median(baseline), "s"),
    ]
}

/// `repro`: `Lab::new`, then passes over every table. A pass fails when a
/// table returns an error, panics, or differs from the reference.
pub fn repro(ctx: &Ctx, log: &mut SpanLog) -> Result<Run, String> {
    let sizes = &ctx.sizes;
    let new_lab = |log: &mut SpanLog| -> Result<(Lab, f64), String> {
        let t = Instant::now();
        let lab = spanned("bench.setup", || {
            Lab::new(ctx.spec(), sizes.iters, sizes.rounds)
        })
        .map_err(|e| e.to_string())?;
        let secs = t.elapsed().as_secs_f64();
        log.drain();
        Ok((lab, secs))
    };
    let mut setup_s = Vec::new();
    let mut lab = None;
    for _ in 0..SETUPS {
        drop(lab.take());
        let (l, secs) = new_lab(log)?;
        setup_s.push(secs);
        lab = Some(l);
    }
    let mut lab = lab.expect("at least one set-up");

    let golden = reference(ctx, "tables");
    let mut outputs: BTreeMap<&str, Value> = BTreeMap::new();
    let mut mismatches = Vec::new();
    let mut op_ms = Vec::new();
    let mut table_s: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
    let mut failed = 0u64;
    let mut agg = BuildMetrics::default();
    let (mut requests, mut builds) = (0, 0);
    let mut measured_s = 0.0;
    loop {
        let start = Instant::now();
        let measure = pibe_trace::span("bench.measure");
        let mut pass_ok = true;
        for (key, table) in TABLES {
            let t = Instant::now();
            let result = spanned("bench.table", || {
                catch_unwind(AssertUnwindSafe(|| table(&lab, sizes)))
            });
            table_s.entry(key).or_default().push(ms_since(t) / 1e3);
            pass_ok &= spanned("bench.check", || match result {
                Ok(Ok(table)) => {
                    let value = serde_json::json!(table);
                    let matches = golden.is_none_or(|g| g.get(key) == Some(&value));
                    if !matches {
                        mismatches.push(key.to_string());
                    }
                    outputs.entry(key).or_insert(value);
                    matches
                }
                Ok(Err(e)) => {
                    eprintln!("table {key} failed: {e}");
                    false
                }
                Err(_) => {
                    eprintln!("table {key} panicked");
                    false
                }
            });
            log.drain();
        }
        drop(measure);
        op_ms.push(ms_since(start));
        measured_s += start.elapsed().as_secs_f64();
        failed += u64::from(!pass_ok);
        let stats = lab.farm().stats();
        requests += stats.requests;
        builds += stats.builds;
        agg.accumulate(&lab.build_metrics());
        log.drain();
        if op_ms.len() as u64 >= operations(ctx.seconds, 1.0 / PASS_SECONDS) {
            break;
        }
        drop(lab);
        let (l, secs) = new_lab(log)?;
        setup_s.push(secs);
        lab = l;
    }

    let peak_rss_mib = peak_rss_mib()?;
    let (overhead, _) = lab.run_config(&lax_all());
    let image_mib = lab.image(&lax_all()).size.bytes as f64 / MIB;

    let mut run = Run::new(setup_s, op_ms, measured_s, failed);
    run.peak_rss_mib = peak_rss_mib;
    run.hardened = (overhead, image_mib);
    run.checks
        .push(golden_status(ctx, "tables", TABLES.len(), &mismatches));
    let outputs = outputs.into_iter().map(|(k, v)| (k.to_string(), v));
    run.outputs = serde_json::json!({ "tables": Value::Object(outputs.collect()) });
    for (key, secs) in &table_s {
        run.detail
            .push((format!("repro.table.{key}_s"), median(secs), "s"));
    }
    if ctx.trace {
        run.layers.extend(kernel_layers(
            lab.kernel.module.len(),
            &log.durations_s("lab.kernel_gen"),
            &log.durations_s("lab.profile"),
            &log.durations_s("lab.baseline"),
        ));
        run.layers.extend(build_layers(&agg, builds));
        run.layers.extend(farm_layers(requests, builds));
        run.layers.extend(serve_layers(&EpochCounts::default()));
        run.layers.extend(log.wall_breakdown());
        run.layers
            .extend(probes::run(&lab.kernel, &lab.profile, ctx)?);
    }
    Ok(run)
}

/// `build`: cold `Image::builder` builds of the 25-configuration grid.
pub fn build(ctx: &Ctx, log: &mut SpanLog) -> Result<Run, String> {
    let grid = grid();
    let ((kernel, profile, warm), setup) = set_up(ctx, log, build_lax_all)?;

    let mut last: Vec<Option<Image>> = grid.iter().map(|_| None).collect();
    let mut builds_of = vec![0u64; grid.len()];
    let mut family_ms: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
    let mut op_ms = Vec::new();
    let mut failed = 0u64;
    let mut agg = BuildMetrics::default();
    let mut built = 0u64;
    let start = Instant::now();
    let measure = pibe_trace::span("bench.measure");
    let rounds = operations(ctx.seconds, BUILDS_PER_SECOND).div_ceil(grid.len() as u64);
    for round in 0..rounds {
        let order = spanned("bench.generate", || shuffled(grid.len(), ctx.seed, round));
        for i in order {
            let t = Instant::now();
            let result = Image::builder(&kernel.module)
                .profile(&profile)
                .config(grid[i].config)
                .threads(1)
                .build();
            let ms = ms_since(t);
            op_ms.push(ms);
            family_ms.entry(grid[i].family).or_default().push(ms);
            builds_of[i] += 1;
            spanned("bench.check", || match result {
                Ok(image) => {
                    agg.accumulate(&image.metrics);
                    built += 1;
                    last[i] = Some(image);
                }
                Err(e) => {
                    eprintln!("build {} failed: {e}", grid[i].label);
                    failed += 1;
                }
            });
            log.drain();
        }
    }
    drop(measure);
    let measured_s = start.elapsed().as_secs_f64();
    let peak_rss_mib = peak_rss_mib()?;
    log.drain();

    // Outputs are checked after the timed loop: each configuration's last
    // image is digested, compared with the reference, and compared with a
    // rebuild at `nproc` stage threads (builds are bit-identical at any
    // thread count). A mismatch fails every build of that configuration.
    let golden = reference(ctx, "digests");
    let mut digests = Vec::new();
    let (mut mismatches, mut thread_mismatches) = (Vec::new(), Vec::new());
    for (i, image) in last.iter().enumerate() {
        let Some(image) = image else { continue };
        let entry = &grid[i];
        let d = image_digest(image);
        let wrong_ref = golden.is_some_and(|g| g.get(&entry.label) != Some(&Value::Str(d.clone())));
        let threaded = Image::builder(&kernel.module)
            .profile(&profile)
            .config(entry.config)
            .threads(ctx.nproc)
            .build()
            .map(|img| image_digest(&img));
        let wrong_threads = threaded.as_ref() != Ok(&d);
        if wrong_ref {
            mismatches.push(entry.label.clone());
        }
        if wrong_threads {
            thread_mismatches.push(entry.label.clone());
        }
        if wrong_ref || wrong_threads {
            failed += builds_of[i];
        }
        digests.push((entry.label.clone(), Value::Str(d)));
    }
    let (overhead, image_mib, baseline_s) = hardened_quality(&kernel, &warm, &ctx.sizes);

    let mut run = Run::new(setup.total, op_ms, measured_s, failed);
    run.peak_rss_mib = peak_rss_mib;
    run.hardened = (overhead, image_mib);
    run.checks
        .push(golden_status(ctx, "digests", digests.len(), &mismatches));
    run.checks.push(Check {
        name: "threads_bit_identical",
        status: if thread_mismatches.is_empty() {
            Status::Pass(format!(
                "{} configurations at {} threads",
                digests.len(),
                ctx.nproc
            ))
        } else {
            Status::Fail(thread_mismatches.join(", "))
        },
    });
    run.outputs = serde_json::json!({ "digests": Value::Object(digests) });
    for (family, ms) in &family_ms {
        run.detail
            .push((format!("build.{family}_ms_p50"), median(ms), "ms"));
    }
    if ctx.trace {
        run.layers.extend(kernel_layers(
            kernel.module.len(),
            &setup.generate,
            &setup.profile,
            &[baseline_s],
        ));
        run.layers.extend(build_layers(&agg, built));
        run.layers.extend(farm_layers(0, 0));
        run.layers.extend(serve_layers(&EpochCounts::default()));
        run.layers.extend(log.wall_breakdown());
        run.layers.extend(probes::run(&kernel, &profile, ctx)?);
    }
    Ok(run)
}

/// `serve`: `PibeService::bootstrap` with `lax+all+dce`, then epochs of
/// [`DeltaGen`] traffic: 2 shards, 10 % corrupted deltas and a hot-spot
/// shift every 5th epoch.
pub fn serve(ctx: &Ctx, log: &mut SpanLog) -> Result<Run, String> {
    let config = lax_all_dce();
    let ((kernel, profile, mut svc), setup) = set_up(ctx, log, |kernel, profile| {
        PibeService::bootstrap(
            kernel.module.clone(),
            profile.clone(),
            config,
            ServeConfig::default(),
        )
        .map_err(|e| format!("bootstrap: {e}"))
    })?;

    let mut stream = DeltaGen::new(&kernel.module, &profile, ctx.seed);
    let mut counts = EpochCounts::default();
    let mut sequence = Vec::new();
    let mut epoch_failed = Vec::new();
    let mut op_ms = Vec::new();
    let mut agg = BuildMetrics::default();
    let start = Instant::now();
    let measure = pibe_trace::span("bench.measure");
    for epoch in 0..operations(ctx.seconds, EPOCHS_PER_SECOND) {
        let deltas = spanned("bench.generate", || stream.epoch(epoch));
        let t = Instant::now();
        let record = svc.ingest_epoch(deltas).clone();
        op_ms.push(ms_since(t));
        spanned("bench.check", || {
            let outcome = match record.outcome {
                EpochOutcome::FastPath => "fast_path",
                EpochOutcome::Rebuilt { drifted, .. } => {
                    counts.rebuilt += 1;
                    counts.drifted += drifted as u64;
                    agg.accumulate(&svc.image().metrics);
                    "rebuilt"
                }
                EpochOutcome::RolledBack { .. } => "rolled_back",
                EpochOutcome::Frozen => "frozen",
            };
            counts.epochs += 1;
            counts.quarantined += record.quarantined as u64;
            counts.deltas += record.deltas as u64;
            epoch_failed.push(matches!(outcome, "rolled_back" | "frozen"));
            sequence.push(Value::Str(format!(
                "{outcome} {} {}",
                record.drifted_functions, record.quarantined
            )));
        });
        log.drain();
    }
    drop(measure);
    let measured_s = start.elapsed().as_secs_f64();
    let peak_rss_mib = peak_rss_mib()?;
    log.drain();

    let mut mismatches = Vec::new();
    let mut checked = 0;
    if let Some(Value::Array(expected)) = reference(ctx, "epochs") {
        for (epoch, (got, want)) in sequence.iter().zip(expected).enumerate() {
            checked += 1;
            if got != want {
                mismatches.push(format!("epoch {epoch}"));
                epoch_failed[epoch] = true;
            }
        }
    }
    let mut golden = golden_status(ctx, "epochs", checked, &mismatches);
    if let Status::Pass(msg) = &mut golden.status {
        if sequence.len() > checked {
            msg.push_str(&format!(
                "; {} later epochs have no reference",
                sequence.len() - checked
            ));
        }
    }

    // The served image must equal a from-scratch build of the cumulative
    // profile, bit for bit.
    let full = Image::builder(&kernel.module)
        .profile(svc.cumulative_profile())
        .config(config)
        .threads(1)
        .build()
        .map_err(|e| e.to_string())
        .and_then(|full| {
            pibe_difftest::bit_identical(&svc.image().module, &full.module)
                .map_err(|m| m.to_string())
        });
    let identical = Check {
        name: "served_image_bit_identical",
        status: match full {
            Ok(()) => Status::Pass(format!("after {} epochs", sequence.len())),
            Err(e) => {
                if let Some(last) = epoch_failed.last_mut() {
                    *last = true;
                }
                Status::Fail(e)
            }
        },
    };
    let failed = epoch_failed.iter().filter(|&&f| f).count() as u64;
    let hardened = build_lax_all(&kernel, &profile)?;
    let (overhead, image_mib, baseline_s) = hardened_quality(&kernel, &hardened, &ctx.sizes);

    let mut run = Run::new(setup.total, op_ms, measured_s, failed);
    run.peak_rss_mib = peak_rss_mib;
    run.hardened = (overhead, image_mib);
    run.checks.push(golden);
    run.checks.push(identical);
    run.outputs = serde_json::json!({ "epochs": Value::Array(sequence) });
    if ctx.trace {
        run.layers.extend(kernel_layers(
            kernel.module.len(),
            &setup.generate,
            &setup.profile,
            &[baseline_s],
        ));
        run.layers.extend(build_layers(&agg, counts.rebuilt));
        run.layers.extend(farm_layers(0, 0));
        run.layers.extend(serve_layers(&counts));
        run.layers.extend(log.wall_breakdown());
        run.layers.extend(probes::run(&kernel, &profile, ctx)?);
    }
    Ok(run)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grid_has_25_distinct_configurations() {
        let g = grid();
        assert_eq!(g.len(), 25);
        for (i, a) in g.iter().enumerate() {
            for b in &g[i + 1..] {
                assert_ne!(a.config, b.config, "{} == {}", a.label, b.label);
                assert_ne!(a.label, b.label);
            }
        }
    }

    #[test]
    fn shuffles_are_permutations_that_depend_on_seed_and_round() {
        let a = shuffled(25, 1, 0);
        let mut sorted = a.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..25).collect::<Vec<_>>());
        assert_eq!(a, shuffled(25, 1, 0));
        assert_ne!(a, shuffled(25, 2, 0));
        assert_ne!(a, shuffled(25, 1, 1));
    }
}
