//! Observability guarantees: the span tree a traced build records is
//! deterministic for a fixed seed, and the Chrome trace-event export is
//! well-formed JSON that Perfetto can load (per-track events properly
//! nested, one named track per farm worker).

use pibe::eval::lmbench_latencies;
use pibe::{Image, ImageFarm, PibeConfig};
use pibe_harden::DefenseSet;
use pibe_kernel::measure::collect_profile;
use pibe_kernel::workloads::{lmbench_suite, WorkloadSpec};
use pibe_kernel::{Kernel, KernelSpec};
use pibe_profile::{Budget, Profile};
use pibe_sim::SimConfig;
use serde_json::Value;
use std::sync::Mutex;

/// The tracer is process-global; tests that record serialize on this and
/// leave the tracer disabled and drained behind them.
fn lock() -> std::sync::MutexGuard<'static, ()> {
    static GATE: Mutex<()> = Mutex::new(());
    GATE.lock().unwrap_or_else(|e| e.into_inner())
}

fn lab() -> (Kernel, Profile) {
    let kernel = Kernel::generate(KernelSpec::test());
    let profile = collect_profile(
        &kernel,
        &WorkloadSpec::lmbench(),
        &lmbench_suite(8),
        2,
        0xBA5E,
    )
    .expect("profiling succeeds");
    (kernel, profile)
}

const STAGES: [&str; 8] = [
    "stage.validate",
    "stage.clone",
    "stage.icp",
    "stage.inline",
    "stage.harden",
    "stage.audit",
    "stage.size",
    "stage.verify",
];

/// Two single-threaded builds of the same configuration from the same
/// fixed-seed kernel/profile record the identical span forest: same track,
/// same nesting depths, same names, in the same order. The stage spans
/// directly under `pipeline.build` and the labels of
/// `BuildMetrics::stages()` are the names the benchmark's per-layer
/// breakdown reads, so both are pinned exactly.
#[test]
fn span_tree_is_deterministic_for_a_fixed_seed() {
    let _g = lock();
    let (kernel, profile) = lab();
    let config = PibeConfig::lax(DefenseSet::ALL).with_dce(true);

    let mut runs = Vec::new();
    let mut images = Vec::new();
    for _ in 0..2 {
        pibe_trace::set_enabled(true);
        pibe_trace::set_track_name("test");
        let _ = pibe_trace::take();
        let image = Image::builder(&kernel.module)
            .profile(&profile)
            .config(config)
            .threads(1)
            .build()
            .expect("traced build succeeds");
        pibe_trace::set_enabled(false);
        runs.push(pibe_trace::take().structure());
        images.push(image);
    }

    assert!(!runs[0].is_empty(), "a traced build records spans");
    assert_eq!(runs[0], runs[1], "span structure diverges across runs");
    for stage in STAGES {
        assert!(
            runs[0].iter().any(|(_, _, name)| name == stage),
            "missing span for {stage}"
        );
    }
    // Stage spans nest under the top-level pipeline span.
    let spans = &runs[0];
    let build = spans
        .iter()
        .position(|(_, _, name)| name == "pipeline.build")
        .expect("pipeline.build span recorded");
    let (track, depth) = (&spans[build].0, spans[build].1);
    assert!(spans
        .iter()
        .filter(|(_, _, name)| name.starts_with("stage."))
        .all(|(_, d, _)| *d > depth));
    let children: Vec<&str> = spans[build + 1..]
        .iter()
        .take_while(|(t, d, _)| t != track || *d > depth)
        .filter(|(t, d, _)| t == track && *d == depth + 1)
        .map(|(_, _, name)| name.as_str())
        .collect();
    assert_eq!(
        children,
        [
            "stage.validate",
            "stage.clone",
            "stage.verify",
            "stage.icp",
            "stage.inline",
            "stage.dce",
            "stage.harden",
            "stage.audit",
            "stage.size",
            "stage.verify",
        ]
    );

    let labels: Vec<&str> = images[0].metrics.stages().iter().map(|(l, _)| *l).collect();
    assert_eq!(
        labels,
        ["validate", "clone", "icp", "inline", "dce", "harden", "audit", "size", "verify"]
    );
}

/// The Chrome trace-event export of a parallel farm build parses as JSON,
/// names one track per worker, covers every pipeline stage, and keeps each
/// track's complete (`ph:"X"`) events properly nested.
#[test]
fn chrome_export_is_wellformed_and_covers_the_farm() {
    let _g = lock();
    let (kernel, profile) = lab();
    pibe_trace::set_enabled(true);
    pibe_trace::set_track_name("test");
    let _ = pibe_trace::take();

    let farm = ImageFarm::new(kernel.module, profile).with_threads(2);
    let configs = vec![
        PibeConfig::lto_with(DefenseSet::ALL),
        PibeConfig::full(Budget::P99_9, DefenseSet::ALL),
        PibeConfig::lax(DefenseSet::ALL),
        PibeConfig::pibe_baseline(),
    ];
    farm.images(&configs).expect("matrix builds");
    pibe_trace::set_enabled(false);
    let json = pibe_trace::take().to_chrome_json();

    let doc: Value = serde_json::from_str(&json).expect("chrome JSON parses");
    let Some(Value::Array(events)) = doc.get("traceEvents") else {
        panic!("traceEvents is not an array");
    };
    assert!(!events.is_empty());

    // One named thread track per farm worker.
    let thread_names: Vec<&str> = events
        .iter()
        .filter(|e| str_field(e, "ph") == Some("M") && str_field(e, "name") == Some("thread_name"))
        .filter_map(|e| e.get("args").and_then(|a| str_field(a, "name")))
        .collect();
    for worker in ["worker-0", "worker-1"] {
        assert!(
            thread_names.contains(&worker),
            "missing thread_name metadata for {worker} in {thread_names:?}"
        );
    }

    // Every pipeline stage shows up as at least one complete event.
    let spans: Vec<&Value> = events
        .iter()
        .filter(|e| str_field(e, "ph") == Some("X"))
        .collect();
    for stage in STAGES {
        assert!(
            spans.iter().any(|e| str_field(e, "name") == Some(stage)),
            "no X event for {stage}"
        );
    }

    // Per track, X events are properly nested: sorted by start time
    // (longest first on ties), a span either sits inside the enclosing one
    // or starts after it ends.
    let mut tids: Vec<u64> = spans.iter().map(|e| num_field(e, "tid") as u64).collect();
    tids.sort_unstable();
    tids.dedup();
    assert!(tids.len() >= 2, "expected one span track per worker");
    for tid in tids {
        let mut track: Vec<(f64, f64)> = spans
            .iter()
            .filter(|e| num_field(e, "tid") as u64 == tid)
            .map(|e| {
                let ts = num_field(e, "ts");
                (ts, ts + num_field(e, "dur"))
            })
            .collect();
        track.sort_by(|a, b| {
            a.0.partial_cmp(&b.0)
                .unwrap()
                .then(b.1.partial_cmp(&a.1).unwrap())
        });
        let mut open: Vec<f64> = Vec::new();
        for (start, end) in track {
            while open.last().is_some_and(|&top_end| top_end <= start) {
                open.pop();
            }
            if let Some(&top_end) = open.last() {
                assert!(
                    end <= top_end,
                    "span [{start}, {end}] straddles its parent's end {top_end} on tid {tid}"
                );
            }
            open.push(end);
        }
    }
}

/// The string value of an object field, when present and a string.
fn str_field<'a>(v: &'a Value, key: &str) -> Option<&'a str> {
    match v.get(key) {
        Some(Value::Str(s)) => Some(s.as_str()),
        _ => None,
    }
}

/// The numeric value of an object field; panics when absent (every Chrome
/// `X` event must carry ts/dur/tid).
fn num_field(v: &Value, key: &str) -> f64 {
    match v.get(key) {
        Some(Value::U64(n)) => *n as f64,
        Some(Value::I64(n)) => *n as f64,
        Some(Value::F64(n)) => *n,
        other => panic!("field {key} is not a number: {other:?}"),
    }
}

/// A traced `lmbench_latencies` records one `sim.run` span per benchmark
/// of the suite, each naming its benchmark, although the runs execute on
/// worker threads.
#[test]
fn lmbench_latencies_records_one_sim_run_span_per_benchmark() {
    let _g = lock();
    let kernel = Kernel::generate(KernelSpec::test());
    let workload = WorkloadSpec::lmbench();
    let suite = lmbench_suite(2);
    pibe_trace::set_enabled(true);
    let _ = pibe_trace::take();
    lmbench_latencies(
        &kernel.module,
        &kernel,
        &workload,
        &suite,
        SimConfig::default(),
        7,
    );
    pibe_trace::set_enabled(false);
    let data = pibe_trace::take();

    let mut benches: Vec<String> = data
        .spans
        .iter()
        .filter(|s| s.name == "sim.run")
        .map(|s| match s.args.as_slice() {
            [("bench", pibe_trace::Value::Str(name))] => name.clone(),
            args => panic!("sim.run args {args:?}"),
        })
        .collect();
    assert_eq!(benches.len(), suite.len(), "one sim.run span per benchmark");
    let mut expected: Vec<String> = suite.iter().map(|b| b.syscall.name().to_string()).collect();
    benches.sort();
    expected.sort();
    assert_eq!(benches, expected);
}

/// A traced `lax` build reports the inliner's breakdown: heap pops,
/// splices, and how often locating a popped call needed a block search or
/// the `find_call` fallback.
#[test]
fn a_traced_lax_build_records_the_inliner_counters() {
    let _g = lock();
    let (kernel, profile) = lab();
    pibe_trace::set_enabled(true);
    let _ = pibe_trace::take();
    let image = Image::builder(&kernel.module)
        .profile(&profile)
        .config(PibeConfig::lax(DefenseSet::ALL))
        .threads(1)
        .build()
        .expect("traced build succeeds");
    pibe_trace::set_enabled(false);
    let data = pibe_trace::take();

    let counter = |name| {
        data.last_counter(name)
            .unwrap_or_else(|| panic!("no {name}"))
    };
    let pops = counter("inline.heap_pops");
    let splices = counter("inline.splices");
    let inlined = image.inline_stats.expect("lax inlines").inlined_sites;
    assert_eq!(splices, inlined, "one splice per inlined site");
    assert!(
        splices > 0 && splices <= pops,
        "{splices} splices, {pops} pops"
    );
    assert!(counter("inline.block_searches") <= pops);
    assert!(counter("inline.find_call_fallbacks") <= pops);
}

/// Tracing off is the default: a build with `PIBE_TRACE` unset records
/// nothing at all.
#[test]
fn disabled_tracing_records_nothing() {
    let _g = lock();
    pibe_trace::set_enabled(false);
    let _ = pibe_trace::take();
    let (kernel, profile) = lab();
    Image::builder(&kernel.module)
        .profile(&profile)
        .config(PibeConfig::pibe_baseline())
        .build()
        .expect("build succeeds");
    assert!(pibe_trace::take().is_empty());
}
