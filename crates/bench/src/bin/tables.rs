//! Regenerates every table and figure of the paper's evaluation section.
//!
//! ```text
//! tables [--scale F] [--iters N] [--rounds N] [--requests N] [--only LIST]
//!
//!   --scale F      kernel scale: 1.0 = the paper's Linux 5.1 census
//!                  (default 0.15; use 1.0 for the EXPERIMENTS.md record)
//!   --iters N      LMBench iterations per benchmark (default 24)
//!   --rounds N     profiling rounds to aggregate (default 3; paper: 11)
//!   --requests N   macro-benchmark requests (default 40)
//!   --threads N    image-farm worker threads (default: PIBE_BUILD_THREADS
//!                  if set, else the machine's available parallelism)
//!   --arch NAME    defense backend every table runs under: x86_64
//!                  (default), arm64, riscv64, riscv64-nop. Equivalent to
//!                  setting PIBE_ARCH. The crossarch table always sweeps
//!                  all backends regardless of this flag.
//!   --only LIST    comma-separated subset, e.g. "1,5,robustness,fig1"
//!   --json PATH    additionally write all regenerated tables as JSON
//!   --trace PATH   enable pipeline tracing, write a Chrome trace-event
//!                  JSON file (load it at https://ui.perfetto.dev) and
//!                  print the hierarchical span summary
//! ```
//!
//! Every configuration any table requests is built exactly once through
//! the lab's [`pibe::ImageFarm`]; the closing build report shows how much
//! wall-clock each pipeline stage cost and how many rebuilds the farm's
//! cache absorbed.

use pibe::experiments::{self, ExperimentError, Lab};
use pibe_kernel::KernelSpec;
use std::time::Instant;

/// Unwraps an experiment result, exiting with the typed error (which names
/// the failing workload, benchmark, or build) instead of a panic trace.
fn or_die<T>(result: Result<T, ExperimentError>) -> T {
    result.unwrap_or_else(|e| {
        eprintln!("error: {e}");
        std::process::exit(1);
    })
}

struct Args {
    scale: f64,
    iters: u32,
    rounds: u32,
    requests: u32,
    threads: Option<usize>,
    arch: Option<String>,
    only: Option<Vec<String>>,
    json: Option<String>,
    trace: Option<String>,
}

fn parse_args() -> Args {
    let mut args = Args {
        scale: 0.15,
        iters: 24,
        rounds: 3,
        requests: 40,
        threads: None,
        arch: None,
        only: None,
        json: None,
        trace: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut val = || {
            it.next()
                .unwrap_or_else(|| panic!("missing value for {flag}"))
        };
        match flag.as_str() {
            "--scale" => args.scale = val().parse().expect("--scale takes a float"),
            "--iters" => args.iters = val().parse().expect("--iters takes an integer"),
            "--rounds" => args.rounds = val().parse().expect("--rounds takes an integer"),
            "--requests" => args.requests = val().parse().expect("--requests takes an integer"),
            "--threads" => {
                args.threads = Some(val().parse().expect("--threads takes a positive integer"));
            }
            "--arch" => {
                let name = val();
                let _: pibe::Arch = name
                    .parse()
                    .unwrap_or_else(|e: String| panic!("--arch: {e}"));
                args.arch = Some(name);
            }
            "--only" => args.only = Some(val().split(',').map(str::to_string).collect()),
            "--json" => args.json = Some(val()),
            "--trace" => args.trace = Some(val()),
            "--all" => args.only = None,
            "--list" => {
                println!(
                    "available keys: 1 fig1 2 3 4 5 6 7 8 9 10 11 12 \
                     robustness refill breakdown v1 eibrs userspace convergence \
                     crossarch"
                );
                std::process::exit(0);
            }
            other => {
                eprintln!("unknown flag {other}");
                std::process::exit(2);
            }
        }
    }
    args
}

fn main() {
    let args = parse_args();
    pibe_trace::init_from_env();
    if args.trace.is_some() {
        pibe_trace::set_enabled(true);
    }
    pibe_trace::set_track_name("main");
    if let Some(n) = args.threads {
        assert!(n >= 1, "--threads takes a positive integer");
        // The farm reads this when the lab constructs it.
        std::env::set_var("PIBE_BUILD_THREADS", n.to_string());
    }
    if let Some(arch) = &args.arch {
        // The lab reads this when it constructs; every table then runs
        // under the named backend.
        std::env::set_var("PIBE_ARCH", arch);
    }
    let wanted = |key: &str| {
        args.only
            .as_ref()
            .is_none_or(|list| list.iter().any(|k| k == key))
    };
    let mut produced: Vec<pibe::report::Table> = Vec::new();

    println!("; PIBE reproduction — table regeneration");
    println!(
        "; kernel scale {}, {} LMBench iters, {} profiling rounds, {} macro requests",
        args.scale, args.iters, args.rounds, args.requests
    );

    // Table 1 and Figure 1 need no kernel.
    if wanted("1") {
        let t0 = Instant::now();
        let span = pibe_trace::span("table.1");
        let t = experiments::table1();
        drop(span);
        println!("\n{t}");
        produced.push(t);
        eprintln!("[table 1 in {:.1?}]", t0.elapsed());
    }
    if wanted("fig1") {
        let span = pibe_trace::span("table.fig1");
        let t = experiments::figure1();
        drop(span);
        println!("\n{t}");
        produced.push(t);
    }

    let lab_keys = [
        "2",
        "3",
        "4",
        "5",
        "6",
        "7",
        "8",
        "9",
        "10",
        "11",
        "12",
        "robustness",
        "refill",
        "breakdown",
        "v1",
        "eibrs",
        "userspace",
        "convergence",
        "crossarch",
    ];
    if !lab_keys.iter().any(|k| wanted(k)) {
        write_json(&args, &produced);
        finish_trace(&args);
        return;
    }

    let t0 = Instant::now();
    let spec = KernelSpec {
        scale: args.scale,
        ..KernelSpec::paper()
    };
    let lab = or_die(Lab::new(spec, args.iters, args.rounds));
    let census = lab.kernel.module.census();
    eprintln!(
        "[lab ready in {:.1?}: {} functions, {} icall sites, {} return sites, \
         {} farm threads, arch {}]",
        t0.elapsed(),
        lab.kernel.module.len(),
        census.indirect_calls,
        census.returns,
        lab.farm().threads(),
        lab.arch.name()
    );

    type TableFn = dyn Fn(&Lab) -> pibe::report::Table;
    let simple: [(&str, &TableFn); 9] = [
        ("2", &experiments::table2),
        ("3", &experiments::table3),
        ("4", &experiments::table4),
        ("5", &experiments::table5),
        ("6", &experiments::table6),
        ("8", &experiments::table8),
        ("9", &experiments::table9),
        ("10", &experiments::table10),
        ("11", &experiments::table11),
    ];
    for (key, f) in simple {
        if wanted(key) {
            let t0 = Instant::now();
            let span = pibe_trace::span(format!("table.{key}"));
            let table = f(&lab);
            drop(span);
            println!("\n{table}");
            produced.push(table);
            eprintln!("[table {key} in {:.1?}]", t0.elapsed());
        }
    }
    if wanted("12") {
        let t0 = Instant::now();
        let span = pibe_trace::span("table.12");
        let table = experiments::table12(&lab);
        drop(span);
        println!("\n{table}");
        produced.push(table);
        eprintln!("[table 12 in {:.1?}]", t0.elapsed());
    }
    if wanted("7") {
        let t0 = Instant::now();
        let span = pibe_trace::span("table.7");
        let t = or_die(experiments::table7(&lab, args.requests));
        drop(span);
        println!("\n{t}");
        produced.push(t);
        eprintln!("[table 7 in {:.1?}]", t0.elapsed());
    }
    if wanted("convergence") {
        let t0 = Instant::now();
        let span = pibe_trace::span("table.convergence");
        let (table, _) = or_die(experiments::profiling_convergence(&lab));
        drop(span);
        println!("\n{table}");
        produced.push(table);
        eprintln!("[convergence in {:.1?}]", t0.elapsed());
    }
    if wanted("eibrs") {
        let t0 = Instant::now();
        let span = pibe_trace::span("table.eibrs");
        let (table, _) = experiments::eibrs_comparison(&lab);
        drop(span);
        println!("\n{table}");
        produced.push(table);
        eprintln!("[eibrs in {:.1?}]", t0.elapsed());
    }
    if wanted("userspace") {
        let t0 = Instant::now();
        let span = pibe_trace::span("table.userspace");
        let (table, _) = experiments::userspace(400);
        drop(span);
        println!("\n{table}");
        produced.push(table);
        eprintln!("[userspace in {:.1?}]", t0.elapsed());
    }
    if wanted("v1") {
        let t0 = Instant::now();
        let span = pibe_trace::span("table.v1");
        let (table, _) = experiments::spectre_v1_fencing(&lab);
        drop(span);
        println!("\n{table}");
        produced.push(table);
        eprintln!("[v1 in {:.1?}]", t0.elapsed());
    }
    if wanted("breakdown") {
        let t0 = Instant::now();
        let span = pibe_trace::span("table.breakdown");
        let (table, _) = or_die(experiments::cycle_breakdown(&lab));
        drop(span);
        println!("\n{table}");
        produced.push(table);
        eprintln!("[breakdown in {:.1?}]", t0.elapsed());
    }
    if wanted("refill") {
        let t0 = Instant::now();
        let span = pibe_trace::span("table.refill");
        let (table, _) = experiments::rsb_refill_comparison(&lab);
        drop(span);
        println!("\n{table}");
        produced.push(table);
        eprintln!("[refill in {:.1?}]", t0.elapsed());
    }
    if wanted("robustness") {
        let t0 = Instant::now();
        let span = pibe_trace::span("table.robustness");
        let (table, _) = or_die(experiments::robustness(&lab, args.requests));
        drop(span);
        println!("\n{table}");
        produced.push(table);
        eprintln!("[robustness in {:.1?}]", t0.elapsed());
    }
    if wanted("crossarch") {
        let t0 = Instant::now();
        let span = pibe_trace::span("table.crossarch");
        let (table, _) = experiments::cross_arch(&lab);
        drop(span);
        println!("\n{table}");
        produced.push(table);
        eprintln!("[crossarch in {:.1?}]", t0.elapsed());
    }
    let build_report = build_report(&lab);
    println!("\n{build_report}");
    produced.push(build_report);
    write_json(&args, &produced);
    finish_trace(&args);
}

/// When tracing is on, drains the tracer: writes the Chrome trace-event
/// JSON next to `--trace PATH` (when given) and prints the hierarchical
/// span summary table.
fn finish_trace(args: &Args) {
    if !pibe_trace::enabled() {
        return;
    }
    let data = pibe_trace::take();
    if data.is_empty() {
        return;
    }
    println!("\n{}", pibe::report::trace_summary(&data));
    if let Some(path) = &args.trace {
        data.write_chrome_json(path)
            .unwrap_or_else(|e| panic!("cannot write trace {path}: {e}"));
        eprintln!("[wrote {path}: load it at https://ui.perfetto.dev]");
    }
}

/// Summarises the lab's image-farm activity: cache effectiveness and the
/// wall-clock cost of each pipeline stage summed over every build.
fn build_report(lab: &Lab) -> pibe::report::Table {
    let stats = lab.farm().stats();
    let metrics = lab.build_metrics();
    let ms = |ns: u64| format!("{:.1}", ns as f64 / 1e6);
    let mut t = pibe::report::Table::new(
        "Build report: image-farm cache and per-stage pipeline timings",
        &["statistic", "value"],
    );
    t.row(vec![
        "farm worker threads".into(),
        lab.farm().threads().to_string(),
    ]);
    t.row(vec!["image requests".into(), stats.requests.to_string()]);
    t.row(vec!["pipeline builds".into(), stats.builds.to_string()]);
    t.row(vec!["cache hits".into(), stats.hits.to_string()]);
    t.row(vec![
        "distinct configurations".into(),
        stats.cached.to_string(),
    ]);
    t.row(vec!["failed builds".into(), stats.failed.to_string()]);
    for (stage, ns) in metrics.stages() {
        t.row(vec![format!("stage {stage} (ms)"), ms(ns)]);
    }
    t.row(vec!["total build time (ms)".into(), ms(metrics.total_ns)]);
    // Fold tracer aggregates in when tracing is on: span volume and the
    // per-build wall-clock distribution the pipeline records.
    if pibe_trace::enabled() {
        let trace = pibe_trace::snapshot();
        t.row(vec![
            "trace spans / tracks".into(),
            format!("{} / {}", trace.spans.len(), trace.tracks.len()),
        ]);
        for (name, h) in &trace.histograms {
            t.row(vec![
                format!("trace hist {name} (min/mean/max)"),
                format!("{} / {:.1} / {}", h.min, h.mean(), h.max),
            ]);
        }
    }
    t
}

/// Writes the regenerated tables as a JSON document when `--json` was given.
fn write_json(args: &Args, tables: &[pibe::report::Table]) {
    let Some(path) = &args.json else { return };
    let doc = serde_json::json!({
        "scale": args.scale,
        "iters": args.iters,
        "rounds": args.rounds,
        "requests": args.requests,
        "tables": tables,
    });
    std::fs::write(
        path,
        serde_json::to_string_pretty(&doc).expect("tables serialize"),
    )
    .unwrap_or_else(|e| panic!("cannot write {path}: {e}"));
    eprintln!("[wrote {path}]");
}
