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
//!   --only LIST    comma-separated subset, e.g. "1,5,robustness,fig1";
//!                  an unknown key exits 2 (`--list` prints the keys)
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
use pibe::report::Table;
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
            "--only" => {
                let keys: Vec<String> = val().split(',').map(str::to_string).collect();
                let unknown: Vec<&str> = keys
                    .iter()
                    .map(String::as_str)
                    .filter(|k| TABLES.iter().all(|(key, _)| key != k))
                    .collect();
                if !unknown.is_empty() {
                    eprintln!(
                        "unknown table key(s) {}; available keys: {}",
                        unknown.join(","),
                        key_list()
                    );
                    std::process::exit(2);
                }
                args.only = Some(keys);
            }
            "--json" => args.json = Some(val()),
            "--trace" => args.trace = Some(val()),
            "--all" => args.only = None,
            "--list" => {
                println!("available keys: {}", key_list());
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

/// How a table is produced: without a kernel, or measured on the lab.
enum Run {
    /// Needs no kernel, so a run of only these keys skips `Lab::new`.
    Static(fn() -> Table),
    /// Measured on the paper-scale lab.
    Lab(fn(&Lab, &Args) -> Table),
}

/// Every `--only` key in output order. `--list`, the lab decision and the
/// table loop all read this one list.
const TABLES: &[(&str, Run)] = &[
    ("1", Run::Static(experiments::table1)),
    ("fig1", Run::Static(experiments::figure1)),
    ("2", Run::Lab(|lab, _| experiments::table2(lab))),
    ("3", Run::Lab(|lab, _| experiments::table3(lab))),
    ("4", Run::Lab(|lab, _| experiments::table4(lab))),
    ("5", Run::Lab(|lab, _| experiments::table5(lab))),
    ("6", Run::Lab(|lab, _| experiments::table6(lab))),
    ("8", Run::Lab(|lab, _| experiments::table8(lab))),
    ("9", Run::Lab(|lab, _| experiments::table9(lab))),
    ("10", Run::Lab(|lab, _| experiments::table10(lab))),
    ("11", Run::Lab(|lab, _| experiments::table11(lab))),
    ("12", Run::Lab(|lab, _| experiments::table12(lab))),
    (
        "7",
        Run::Lab(|lab, a| or_die(experiments::table7(lab, a.requests))),
    ),
    (
        "convergence",
        Run::Lab(|lab, _| or_die(experiments::profiling_convergence(lab)).0),
    ),
    (
        "eibrs",
        Run::Lab(|lab, _| experiments::eibrs_comparison(lab).0),
    ),
    ("userspace", Run::Static(|| experiments::userspace(400).0)),
    (
        "v1",
        Run::Lab(|lab, _| experiments::spectre_v1_fencing(lab).0),
    ),
    (
        "breakdown",
        Run::Lab(|lab, _| or_die(experiments::cycle_breakdown(lab)).0),
    ),
    (
        "refill",
        Run::Lab(|lab, _| experiments::rsb_refill_comparison(lab).0),
    ),
    (
        "robustness",
        Run::Lab(|lab, a| or_die(experiments::robustness(lab, a.requests)).0),
    ),
    (
        "crossarch",
        Run::Lab(|lab, _| experiments::cross_arch(lab).0),
    ),
    (
        "ablations",
        Run::Lab(|lab, _| experiments::ablations(lab).0),
    ),
];

/// The valid `--only` keys, space-separated, in output order.
fn key_list() -> String {
    let keys: Vec<&str> = TABLES.iter().map(|(key, _)| *key).collect();
    keys.join(" ")
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
    let mut produced: Vec<Table> = Vec::new();

    println!("; PIBE reproduction — table regeneration");
    println!(
        "; kernel scale {}, {} LMBench iters, {} profiling rounds, {} macro requests",
        args.scale, args.iters, args.rounds, args.requests
    );

    // Built on the first table that needs it.
    let mut lab: Option<Lab> = None;
    for (key, run) in TABLES.iter().filter(|(key, _)| wanted(key)) {
        let table = match run {
            Run::Static(f) => timed(key, f),
            Run::Lab(f) => {
                let lab = lab.get_or_insert_with(|| new_lab(&args));
                timed(key, || f(lab, &args))
            }
        };
        println!("\n{table}");
        produced.push(table);
    }
    if let Some(lab) = &lab {
        let build_report = build_report(lab);
        println!("\n{build_report}");
        produced.push(build_report);
    }
    write_json(&args, &produced);
    finish_trace(&args);
}

/// Runs one table under its `table.KEY` trace span and reports its wall
/// time on stderr.
fn timed(key: &str, f: impl FnOnce() -> Table) -> Table {
    let t0 = Instant::now();
    let span = pibe_trace::span(format!("table.{key}"));
    let table = f();
    drop(span);
    eprintln!("[table {key} in {:.1?}]", t0.elapsed());
    table
}

/// Builds the paper-scale lab the kernel-backed tables share.
fn new_lab(args: &Args) -> Lab {
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
    lab
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

/// Summarises the lab's image-farm activity: cache effectiveness, the
/// evaluation memo's requests and simulated suite runs, and the wall-clock
/// cost of each pipeline stage summed over every build.
fn build_report(lab: &Lab) -> Table {
    let stats = lab.farm().stats();
    let metrics = lab.build_metrics();
    let ms = |ns: u64| format!("{:.1}", ns as f64 / 1e6);
    let mut t = Table::new(
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
    let evals = lab.eval_stats();
    t.row(vec![
        "evaluations requested".into(),
        evals.requests.to_string(),
    ]);
    t.row(vec![
        "evaluations simulated".into(),
        evals.simulated.to_string(),
    ]);
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
fn write_json(args: &Args, tables: &[Table]) {
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
