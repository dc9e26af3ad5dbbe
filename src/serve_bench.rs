//! `pibe-suite serve-bench` — times the continuous-PGO epoch loop.
//!
//! The serve loop's performance claim is *incrementality*: a no-drift
//! epoch costs validation + merge + decision-surface comparison (no
//! pipeline run at all), and only a drifting epoch pays for a rebuild. So
//! mean epoch latency should track how often decisions drift, not the
//! module size — and this benchmark makes that visible by running the same
//! epoch schedule against synthetic kernels of increasing scale and
//! recording, per scale: the from-scratch build time (which *does* grow
//! with module size), the mean drift-epoch latency, and the mean
//! fast-path latency.
//!
//! The epoch schedule is deterministic and clean (no chaos — the soak
//! test owns fault coverage): even epochs ship a return-count-only delta
//! (returns feed no profile-driven decision, so the surface cannot move —
//! a guaranteed fast path), odd epochs boost a rotating window of hot
//! direct call sites enough to flip budget-prefix decisions (a guaranteed
//! rebuild).

use pibe::{Image, PibeConfig};
use pibe_harden::DefenseSet;
use pibe_ir::{FuncId, SiteId};
use pibe_kernel::measure::collect_profile;
use pibe_kernel::workloads::lmbench_suite;
use pibe_kernel::{Kernel, KernelSpec, WorkloadSpec};
use pibe_profile::Profile;
use pibe_serve::{EpochOutcome, PibeService, ProfileDelta, ServeConfig};
use std::time::{Duration, Instant};

/// Per-scale latency means below this floor are excluded from the
/// baseline regression check: percent comparisons on sub-5ms figures
/// measure timer noise, not the serve loop.
const NOISE_FLOOR_NS: u64 = 5_000_000;

/// Counts added to each boosted site on drift epochs — large enough to
/// reorder budget prefixes against the LMBench-trained base profile.
const DRIFT_BOOST: u64 = 10_000;

struct Args {
    scales: Vec<f64>,
    epochs: u64,
    iters: u32,
    rounds: u32,
    threads: Option<usize>,
    drift_sites: usize,
    out: String,
    baseline: Option<String>,
    tolerance: f64,
}

fn usage() -> ! {
    eprintln!(
        "usage: pibe-suite serve-bench [--scales F,F,..] [--epochs N] \
         [--iters N] [--rounds N] [--threads N] [--drift-sites N] \
         [--out PATH] [--baseline PATH] [--tolerance PCT]"
    );
    std::process::exit(2);
}

fn parse_args(mut it: impl Iterator<Item = String>) -> Args {
    let mut args = Args {
        scales: vec![0.05, 0.1, 0.2],
        epochs: 32,
        iters: 2,
        rounds: 1,
        threads: None,
        drift_sites: 3,
        out: "BENCH_serve.json".into(),
        baseline: None,
        tolerance: 50.0,
    };
    while let Some(flag) = it.next() {
        let mut val = || {
            it.next()
                .unwrap_or_else(|| panic!("missing value for {flag}"))
        };
        match flag.as_str() {
            "--scales" => {
                args.scales = val()
                    .split(',')
                    .map(|s| s.trim().parse().expect("--scales takes floats"))
                    .collect();
            }
            "--epochs" => args.epochs = val().parse().expect("--epochs takes an integer"),
            "--iters" => args.iters = val().parse().expect("--iters takes an integer"),
            "--rounds" => args.rounds = val().parse().expect("--rounds takes an integer"),
            "--threads" => {
                args.threads = Some(val().parse().expect("--threads takes a positive integer"));
            }
            "--drift-sites" => {
                args.drift_sites = val().parse().expect("--drift-sites takes an integer");
            }
            "--out" => args.out = val(),
            "--baseline" => args.baseline = Some(val()),
            "--tolerance" => args.tolerance = val().parse().expect("--tolerance takes a float"),
            _ => usage(),
        }
    }
    assert!(!args.scales.is_empty(), "--scales must name at least one");
    assert!(args.epochs >= 2, "--epochs must be at least 2");
    assert!(args.drift_sites >= 1, "--drift-sites must be at least 1");
    args
}

/// A return-count-only delta: guaranteed fast path.
fn fast_delta(seq: u64) -> ProfileDelta {
    let mut p = Profile::new();
    p.record_return(FuncId::from_raw(0));
    ProfileDelta {
        shard: 0,
        seq,
        profile: p,
    }
}

/// Boosts a rotating window of `width` direct sites: guaranteed drift.
fn drift_delta(seq: u64, round: u64, sites: &[SiteId], width: usize) -> ProfileDelta {
    let mut p = Profile::new();
    for i in 0..width {
        let site = sites[(round as usize * width + i) % sites.len()];
        for _ in 0..DRIFT_BOOST {
            p.record_direct(site);
        }
    }
    ProfileDelta {
        shard: 0,
        seq,
        profile: p,
    }
}

struct ScaleResult {
    scale: f64,
    functions: usize,
    full_build_ns: u64,
    fast_path_epochs: u64,
    fast_path_ns_mean: u64,
    drift_epochs: u64,
    drift_ns_mean: u64,
    drifted_functions_mean: f64,
}

fn mean(samples: &[u64]) -> u64 {
    if samples.is_empty() {
        0
    } else {
        (samples.iter().map(|&n| u128::from(n)).sum::<u128>() / samples.len() as u128) as u64
    }
}

fn run_scale(scale: f64, args: &Args, threads: usize) -> ScaleResult {
    let spec = KernelSpec {
        scale,
        ..KernelSpec::paper()
    };
    let kernel = Kernel::generate(spec);
    let workload = WorkloadSpec::lmbench();
    let suite = lmbench_suite(args.iters);
    let profile =
        collect_profile(&kernel, &workload, &suite, args.rounds, 0xBA5E).unwrap_or_else(|e| {
            eprintln!("error: profiling run failed at scale {scale}: {e}");
            std::process::exit(1);
        });
    let config = PibeConfig::builder()
        .lax()
        .defenses(DefenseSet::ALL)
        .dce(true)
        .build();

    // The module-size reference point: what one cold pipeline run costs.
    let t = Instant::now();
    Image::builder(&kernel.module)
        .profile(&profile)
        .config(config)
        .threads(threads)
        .build()
        .unwrap_or_else(|e| {
            eprintln!("error: cold build failed at scale {scale}: {e}");
            std::process::exit(1);
        });
    let full_build_ns = t.elapsed().as_nanos() as u64;

    let mut sites: Vec<SiteId> = profile.iter_direct().map(|(s, _)| s).collect();
    sites.sort();
    assert!(
        !sites.is_empty(),
        "scale {scale}: the training profile recorded no direct sites"
    );

    let serve = ServeConfig {
        watchdog: Duration::from_secs(300),
        max_retries: 0,
        freeze_after: 3,
        backoff: Duration::ZERO,
        threads,
    };
    let mut svc = PibeService::bootstrap(kernel.module.clone(), profile, config, serve)
        .unwrap_or_else(|e| {
            eprintln!("error: bootstrap failed at scale {scale}: {e}");
            std::process::exit(1);
        });

    let mut fast_ns = Vec::new();
    let mut drift_ns = Vec::new();
    let mut drifted_total = 0usize;
    for epoch in 0..args.epochs {
        let delta = if epoch % 2 == 0 {
            fast_delta(epoch)
        } else {
            drift_delta(epoch, epoch / 2, &sites, args.drift_sites)
        };
        let t = Instant::now();
        let record = svc.ingest_epoch(vec![delta]);
        let ns = t.elapsed().as_nanos() as u64;
        match record.outcome {
            EpochOutcome::FastPath => fast_ns.push(ns),
            EpochOutcome::Rebuilt { drifted, .. } => {
                drift_ns.push(ns);
                drifted_total += drifted;
            }
            ref other => {
                eprintln!("error: clean epoch {epoch} at scale {scale} ended in {other:?}");
                std::process::exit(1);
            }
        }
    }
    assert_eq!(fast_ns.len() as u64, args.epochs.div_ceil(2));

    ScaleResult {
        scale,
        functions: kernel.module.len(),
        full_build_ns,
        fast_path_epochs: fast_ns.len() as u64,
        fast_path_ns_mean: mean(&fast_ns),
        drift_epochs: drift_ns.len() as u64,
        drift_ns_mean: mean(&drift_ns),
        drifted_functions_mean: if drift_ns.is_empty() {
            0.0
        } else {
            drifted_total as f64 / drift_ns.len() as f64
        },
    }
}

/// Entry point for the `serve-bench` subcommand; `it` yields the
/// arguments after the subcommand name.
pub fn run(it: impl Iterator<Item = String>) {
    let args = parse_args(it);
    let threads = args.threads.unwrap_or_else(pibe_ir::par::default_threads);
    assert!(threads >= 1, "--threads must be at least 1");

    println!("; PIBE serve-loop bench");
    println!(
        "; scales {:?}, {} epochs each, {} stage threads, {} drift sites/epoch",
        args.scales, args.epochs, threads, args.drift_sites
    );

    let ms = |ns: u64| format!("{:.1}", ns as f64 / 1e6);
    let mut results = Vec::new();
    for &scale in &args.scales {
        let r = run_scale(scale, &args, threads);
        eprintln!(
            "[scale {scale}: {} fns | cold build {}ms | drift epoch {}ms \
             (mean {:.1} drifted fns) | fast path {}ms]",
            r.functions,
            ms(r.full_build_ns),
            ms(r.drift_ns_mean),
            r.drifted_functions_mean,
            ms(r.fast_path_ns_mean),
        );
        results.push(r);
    }

    println!("\n; scale   functions  cold(ms)  drift(ms)  fast(ms)");
    for r in &results {
        println!(
            "  {:<7} {:>9} {:>9} {:>10} {:>9}",
            r.scale,
            r.functions,
            ms(r.full_build_ns),
            ms(r.drift_ns_mean),
            ms(r.fast_path_ns_mean),
        );
    }

    let doc = serde_json::json!({
        "bench": "serve",
        "epochs": args.epochs,
        "iters": args.iters,
        "rounds": args.rounds,
        "threads": threads,
        "drift_sites": args.drift_sites,
        "scales": results
            .iter()
            .map(|r| {
                serde_json::json!({
                    "scale": r.scale,
                    "functions": r.functions,
                    "full_build_ns": r.full_build_ns,
                    "fast_path_epochs": r.fast_path_epochs,
                    "fast_path_ns_mean": r.fast_path_ns_mean,
                    "drift_epochs": r.drift_epochs,
                    "drift_ns_mean": r.drift_ns_mean,
                    "drifted_functions_mean": r.drifted_functions_mean,
                })
            })
            .collect::<Vec<_>>(),
    });
    std::fs::write(
        &args.out,
        serde_json::to_string_pretty(&doc).expect("bench record serializes"),
    )
    .unwrap_or_else(|e| panic!("cannot write {}: {e}", args.out));
    eprintln!("[wrote {}]", args.out);

    if let Some(path) = &args.baseline {
        let regressions = compare_against_baseline(path, &results, args.tolerance);
        if !regressions.is_empty() {
            for r in &regressions {
                eprintln!("regression: {r}");
            }
            std::process::exit(1);
        }
        println!(
            "; no serve latency regressed more than {}% vs {path}",
            args.tolerance
        );
    }
}

/// Compares this run's per-scale latency means against a committed
/// baseline record, returning one message per figure that grew by more
/// than `tolerance` percent. Baseline figures below [`NOISE_FLOOR_NS`]
/// are skipped, as are scales absent from the baseline.
fn compare_against_baseline(path: &str, results: &[ScaleResult], tolerance: f64) -> Vec<String> {
    let text = std::fs::read_to_string(path)
        .unwrap_or_else(|e| panic!("cannot read baseline {path}: {e}"));
    let doc: serde_json::Value =
        serde_json::from_str(&text).unwrap_or_else(|e| panic!("baseline {path} is not JSON: {e}"));
    let baseline_scales = match doc.get("scales") {
        Some(serde_json::Value::Array(entries)) => entries,
        _ => panic!("baseline {path} has no scales array"),
    };
    let as_u64 = |v: Option<&serde_json::Value>| match v {
        Some(serde_json::Value::U64(n)) => Some(*n),
        Some(serde_json::Value::I64(n)) => Some(*n as u64),
        _ => None,
    };
    let mut regressions = Vec::new();
    for r in results {
        let base = baseline_scales.iter().find(|e| {
            matches!(e.get("scale"), Some(serde_json::Value::F64(s)) if (s - r.scale).abs() < 1e-9)
        });
        let Some(base) = base else { continue };
        for (figure, now_ns, base_ns) in [
            (
                "fast_path_ns_mean",
                r.fast_path_ns_mean,
                as_u64(base.get("fast_path_ns_mean")),
            ),
            (
                "drift_ns_mean",
                r.drift_ns_mean,
                as_u64(base.get("drift_ns_mean")),
            ),
        ] {
            let Some(base_ns) = base_ns else { continue };
            if base_ns < NOISE_FLOOR_NS {
                continue;
            }
            let limit = base_ns as f64 * (1.0 + tolerance / 100.0);
            if now_ns as f64 > limit {
                regressions.push(format!(
                    "scale {} {figure}: {:.1}ms vs baseline {:.1}ms (+{:.0}%, tolerance {tolerance}%)",
                    r.scale,
                    now_ns as f64 / 1e6,
                    base_ns as f64 / 1e6,
                    (now_ns as f64 / base_ns as f64 - 1.0) * 100.0,
                ));
            }
        }
    }
    regressions
}
