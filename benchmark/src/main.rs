//! `pibe-benchmark`: the repository's end-to-end and per-layer benchmark.
//!
//! ```text
//! pibe-benchmark run --workload repro|build|serve [--seed N] [--seconds S]
//!                    [--trace [0|1]] [--out FILE] [--smoke]
//! pibe-benchmark bless --workload NAME [--seed N] [--seconds S]
//! pibe-benchmark compare BASE_DIR/*.json CHANGE_DIR/*.json
//! ```
//!
//! `run` prints every metric as a `<workload> <metric> <value> <unit>` line
//! and ends with one JSON line holding `correct`, `attempted`, `failed` and
//! the metrics `BENCHMARK.json` names: its `end_to_end` list untraced, its
//! `per_layer` list with `--trace`. See README.md.

mod compare;
mod probes;
mod spans;
mod stats;
mod stream;
mod workloads;

use pibe_kernel::KernelSpec;
use serde_json::Value;
use spans::SpanLog;
use stats::{median, quantile};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use workloads::Sizes;

/// Metrics as `(name, value, unit)`.
pub type Metrics = Vec<(String, f64, &'static str)>;

/// The outcome of one output check.
#[derive(Debug)]
pub enum Status {
    /// The check ran and passed.
    Pass(String),
    /// The check ran and failed.
    Fail(String),
    /// No reference exists for this seed and scale.
    Unchecked,
}

impl Status {
    /// `(status, note)` as printed and saved.
    fn label(&self) -> (&'static str, &str) {
        match self {
            Status::Pass(note) => ("pass", note),
            Status::Fail(note) => ("fail", note),
            Status::Unchecked => ("unchecked", "no reference for this seed and scale"),
        }
    }
}

/// One named output check.
#[derive(Debug)]
pub struct Check {
    /// What was checked.
    pub name: &'static str,
    /// Its outcome.
    pub status: Status,
}

/// What a workload measured.
#[derive(Debug)]
pub struct Run {
    /// Every set-up's duration.
    pub setup_s: Vec<f64>,
    /// Every operation's latency.
    pub op_ms: Vec<f64>,
    /// Wall time of the measured phase, set-ups excluded.
    pub measured_s: f64,
    /// Peak resident memory up to the end of the measured phase; the
    /// checks after it evaluate images on 20 threads at once.
    pub peak_rss_mib: f64,
    /// Operations that failed or produced wrong output.
    pub failed: u64,
    /// LMBench geomean overhead (%) and model code size (MiB) of the
    /// workload's fully hardened image.
    pub hardened: (f64, f64),
    /// Output checks.
    pub checks: Vec<Check>,
    /// Per-layer metrics (traced runs only).
    pub layers: Metrics,
    /// Workload-specific detail, printed and saved but not in the result
    /// line.
    pub detail: Metrics,
    /// The outputs in reference format (what `bless` stores).
    pub outputs: Value,
}

impl Run {
    fn new(setup_s: Vec<f64>, op_ms: Vec<f64>, measured_s: f64, failed: u64) -> Run {
        Run {
            setup_s,
            op_ms,
            measured_s,
            failed,
            peak_rss_mib: 0.0,
            hardened: (0.0, 0.0),
            checks: Vec::new(),
            layers: Vec::new(),
            detail: Vec::new(),
            outputs: Value::Null,
        }
    }
}

/// The workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Every paper table.
    Repro,
    /// Cold builds of 25 configurations.
    Build,
    /// The continuous-PGO epoch loop.
    Serve,
}

impl Workload {
    fn parse(s: &str) -> Result<Workload, String> {
        match s {
            "repro" => Ok(Workload::Repro),
            "build" => Ok(Workload::Build),
            "serve" => Ok(Workload::Serve),
            _ => Err(format!("unknown workload {s:?} (repro, build, serve)")),
        }
    }

    fn name(self) -> &'static str {
        match self {
            Workload::Repro => "repro",
            Workload::Build => "build",
            Workload::Serve => "serve",
        }
    }
}

/// Settings of one run.
#[derive(Debug)]
pub struct Ctx {
    /// The workload.
    pub workload: Workload,
    /// Orders `build`'s builds and seeds `serve`'s delta stream.
    pub seed: u64,
    /// The time budget that sizes the measured phase.
    pub seconds: f64,
    /// Whether this is a traced run.
    pub trace: bool,
    /// Smoke-test sizes instead of the paper's.
    pub smoke: bool,
    /// Available parallelism.
    pub nproc: usize,
    /// Problem sizes.
    pub sizes: Sizes,
    /// The reference outputs for this seed, if committed.
    pub golden: Option<Value>,
}

impl Ctx {
    /// The kernel every workload generates: the EXPERIMENTS.md kernel
    /// whatever the seed, since kernels of other seeds differ in size by
    /// more than the bounds this benchmark holds changes to.
    pub fn spec(&self) -> KernelSpec {
        KernelSpec {
            scale: self.sizes.scale,
            ..KernelSpec::paper()
        }
    }
}

/// The benchmark's package directory.
fn package_dir() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

/// Where the reference outputs live. `repro` and `build` produce the same
/// outputs on every seed; `serve`'s depend on its delta stream.
fn golden_path(workload: Workload, seed: u64) -> PathBuf {
    let file = match workload {
        Workload::Serve => format!("serve-{seed:#x}.json"),
        _ => format!("{}.json", workload.name()),
    };
    package_dir().join("golden").join(file)
}

fn read_json(path: &Path) -> Result<Value, String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    serde_json::from_str(&text).map_err(|e| format!("{} is not JSON: {e}", path.display()))
}

/// `BENCHMARK.json`, at the repository root.
fn benchmark_spec() -> Result<Value, String> {
    read_json(&package_dir().join("../BENCHMARK.json"))
}

/// `(name, unit)` of every metric in `BENCHMARK.json`'s list `key`.
fn spec_metrics(spec: &Value, key: &str) -> Result<Vec<(String, String)>, String> {
    let Some(Value::Array(list)) = spec.get(key) else {
        return Err(format!("BENCHMARK.json has no {key} list"));
    };
    list.iter()
        .map(|m| match (m.get("name"), m.get("unit")) {
            (Some(Value::Str(n)), Some(Value::Str(u))) => Ok((n.clone(), u.clone())),
            _ => Err(format!("malformed {key} entry in BENCHMARK.json")),
        })
        .collect()
}

fn parse_seed(s: &str) -> Result<u64, String> {
    let parsed = match s.strip_prefix("0x") {
        Some(hex) => u64::from_str_radix(hex, 16),
        None => s.parse(),
    };
    parsed.map_err(|_| format!("--seed takes an integer, got {s:?}"))
}

#[derive(Debug)]
struct RunArgs {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    out: Option<PathBuf>,
    smoke: bool,
}

fn parse_run_args(args: &[String], default_seconds: f64) -> Result<RunArgs, String> {
    let mut workload = None;
    let mut parsed = RunArgs {
        workload: Workload::Repro,
        seed: KernelSpec::paper().seed,
        seconds: default_seconds,
        trace: false,
        out: None,
        smoke: false,
    };
    let mut it = args.iter().peekable();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(Workload::parse(value()?)?),
            "--seed" => parsed.seed = parse_seed(value()?)?,
            "--seconds" => {
                parsed.seconds = value()?
                    .parse()
                    .ok()
                    .filter(|s: &f64| *s > 0.0)
                    .ok_or("--seconds takes a positive number")?;
            }
            "--trace" => {
                parsed.trace = match it.peek().map(|s| s.as_str()) {
                    Some("0") => {
                        it.next();
                        false
                    }
                    Some("1") => {
                        it.next();
                        true
                    }
                    _ => true,
                };
            }
            "--out" => parsed.out = Some(PathBuf::from(value()?)),
            "--smoke" => parsed.smoke = true,
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    parsed.workload = workload.ok_or("--workload is required")?;
    Ok(parsed)
}

/// Pins the environment the program reads, so a run depends only on its
/// arguments and the machine.
fn pin_environment(trace: bool) -> usize {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    std::env::set_var("PIBE_ARCH", "x86_64");
    std::env::set_var(pibe_ir::par::THREADS_VAR, nproc.to_string());
    std::env::remove_var("PIBE_TRACE");
    pibe_trace::set_enabled(trace);
    pibe_trace::set_track_name("main");
    nproc
}

fn execute(args: &RunArgs, golden: Option<Value>) -> Result<(Ctx, Run, SpanLog), String> {
    let nproc = pin_environment(args.trace);
    let ctx = Ctx {
        workload: args.workload,
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
        smoke: args.smoke,
        nproc,
        sizes: if args.smoke {
            Sizes::SMOKE
        } else {
            Sizes::PAPER
        },
        golden,
    };
    eprintln!(
        "[{} seed {:#x}: {}s measured, trace {}, nproc {nproc}]",
        ctx.workload.name(),
        ctx.seed,
        ctx.seconds,
        ctx.trace
    );
    let mut log = SpanLog::default();
    let run = match ctx.workload {
        Workload::Repro => workloads::repro(&ctx, &mut log),
        Workload::Build => workloads::build(&ctx, &mut log),
        Workload::Serve => workloads::serve(&ctx, &mut log),
    }?;
    Ok((ctx, run, log))
}

fn end_to_end(run: &Run) -> Metrics {
    let ops = run.op_ms.len() as f64;
    vec![
        ("setup_s".into(), median(&run.setup_s), "s"),
        ("ops_per_s".into(), ops / run.measured_s, "1/s"),
        ("op_ms_p50".into(), quantile(&run.op_ms, 0.5), "ms"),
        ("op_ms_p90".into(), quantile(&run.op_ms, 0.9), "ms"),
        ("peak_rss_mb".into(), run.peak_rss_mib, "MiB"),
        ("hardened_overhead_pct".into(), run.hardened.0, "%"),
        ("hardened_image_mb".into(), run.hardened.1, "MiB"),
    ]
}

fn metrics_object(metrics: &Metrics) -> Value {
    Value::Object(
        metrics
            .iter()
            .map(|(name, value, unit)| {
                (
                    name.clone(),
                    serde_json::json!({ "value": *value, "unit": *unit }),
                )
            })
            .collect(),
    )
}

fn run_command(argv: &[String]) -> Result<(), String> {
    let spec = benchmark_spec()?;
    let default_seconds = match spec.get("run_seconds") {
        Some(Value::U64(s)) => *s as f64,
        _ => return Err("BENCHMARK.json has no run_seconds".into()),
    };
    let args = parse_run_args(argv, default_seconds)?;
    let wanted = spec_metrics(
        &spec,
        if args.trace {
            "per_layer"
        } else {
            "end_to_end"
        },
    )?;
    let path = golden_path(args.workload, args.seed);
    let golden = (!args.smoke && path.exists())
        .then(|| read_json(&path))
        .transpose()?;
    let (ctx, run, log) = execute(&args, golden)?;

    let name = ctx.workload.name();
    let attempted = run.op_ms.len() as u64;
    let mut shown = if ctx.trace {
        run.layers.clone()
    } else {
        end_to_end(&run)
    };
    shown.extend(run.detail.iter().cloned());
    shown.push((
        "failed_ops_pct".into(),
        run.failed as f64 * 100.0 / attempted.max(1) as f64,
        "%",
    ));
    for (metric, value, unit) in &shown {
        println!("{name} {metric} {value} {unit}");
    }
    let correct = run.failed == 0
        && !run
            .checks
            .iter()
            .any(|c| matches!(c.status, Status::Fail(_)));
    for check in &run.checks {
        let (status, note) = check.status.label();
        println!("{name} check.{} {status} ({note})", check.name);
    }

    let mut result = Vec::new();
    for (metric, unit) in &wanted {
        let Some((_, value, got)) = shown.iter().find(|(m, ..)| m == metric) else {
            return Err(format!("{name} does not report {metric}"));
        };
        if got != unit {
            return Err(format!("{metric} is in {got}, BENCHMARK.json says {unit}"));
        }
        if !value.is_finite() {
            return Err(format!("{metric} is not finite: {value}"));
        }
        result.push((metric.clone(), *value, *got));
    }

    if let Some(out) = &args.out {
        let doc = serde_json::json!({
            "workload": name,
            "seed": ctx.seed,
            "trace": ctx.trace,
            "seconds": ctx.seconds,
            "smoke": ctx.smoke,
            "nproc": ctx.nproc,
            "build_threads": ctx.nproc,
            "stage_threads": 1u64,
            "revision": stats::revision(&package_dir().join("..")),
            "correct": correct,
            "attempted": attempted,
            "failed": run.failed,
            "checks": Value::Array(
                run.checks
                    .iter()
                    .map(|c| {
                        let (status, note) = c.status.label();
                        serde_json::json!({ "name": c.name, "status": status, "note": note })
                    })
                    .collect()
            ),
            "setup_samples_s": run.setup_s,
            "op_samples_ms": run.op_ms,
            "metrics": metrics_object(&shown),
        });
        write(out, &doc)?;
        if ctx.trace {
            let trace = out.with_extension("trace.json");
            log.data()
                .write_chrome_json(&trace)
                .map_err(|e| format!("cannot write {}: {e}", trace.display()))?;
        }
    }

    let line = serde_json::json!({
        "correct": correct,
        "attempted": attempted,
        "failed": run.failed,
        "metrics": metrics_object(&result),
    });
    println!(
        "{}",
        serde_json::to_string(&line).map_err(|e| e.to_string())?
    );
    // Wrong outputs are reported in the result line, not the exit code.
    Ok(())
}

fn write(path: &Path, doc: &Value) -> Result<(), String> {
    if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
        std::fs::create_dir_all(dir)
            .map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    }
    let text = serde_json::to_string_pretty(doc).map_err(|e| e.to_string())?;
    std::fs::write(path, text + "\n").map_err(|e| format!("cannot write {}: {e}", path.display()))
}

/// Runs a workload at paper scale and stores its outputs as the reference
/// for its seed.
fn bless_command(argv: &[String]) -> Result<(), String> {
    let args = parse_run_args(argv, 60.0)?;
    if args.smoke || args.trace || args.out.is_some() {
        return Err("bless takes only --workload, --seed and --seconds".into());
    }
    let (ctx, run, _) = execute(&args, None)?;
    if run.failed != 0 {
        return Err(format!(
            "refusing to bless: {} of {} operations failed",
            run.failed,
            run.op_ms.len()
        ));
    }
    let path = golden_path(ctx.workload, ctx.seed);
    write(&path, &run.outputs)?;
    eprintln!("[wrote {}]", path.display());
    Ok(())
}

const USAGE: &str = "usage:
  pibe-benchmark run --workload repro|build|serve [--seed N] [--seconds S]
                     [--trace [0|1]] [--out FILE] [--smoke]
  pibe-benchmark bless --workload NAME [--seed N] [--seconds S]
  pibe-benchmark compare BASE_DIR/*.json CHANGE_DIR/*.json";

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let result = match argv.first().map(String::as_str) {
        Some("run") => run_command(&argv[1..]).map(|()| true),
        Some("bless") => bless_command(&argv[1..]).map(|()| true),
        Some("compare") => benchmark_spec().and_then(|spec| compare::run(&spec, &argv[1..])),
        _ => {
            eprintln!("{USAGE}");
            return ExitCode::from(2);
        }
    };
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}
