//! Runs every workload at `KernelSpec::test()` scale for one second, untraced
//! and traced, and checks that the result line names every metric of
//! `BENCHMARK.json` as a finite number and that no operation failed.

use serde_json::Value;
use std::process::Command;

fn benchmark_spec() -> Value {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json is readable");
    serde_json::from_str(&text).expect("BENCHMARK.json is JSON")
}

fn names(spec: &Value, list: &str) -> Vec<String> {
    let Some(Value::Array(entries)) = spec.get(list) else {
        panic!("BENCHMARK.json has no {list} list");
    };
    entries
        .iter()
        .map(|e| match e.get("name") {
            Some(Value::Str(name)) => name.clone(),
            other => panic!("{list} entry without a name: {other:?}"),
        })
        .collect()
}

fn check_workload(workload: &str) {
    let spec = benchmark_spec();
    for (trace, list) in [("0", "end_to_end"), ("1", "per_layer")] {
        let output = Command::new(env!("CARGO_BIN_EXE_pibe-benchmark"))
            .args(["run", "--workload", workload, "--smoke", "--seconds", "1"])
            .args(["--trace", trace])
            .output()
            .expect("the benchmark binary runs");
        let stdout = String::from_utf8_lossy(&output.stdout);
        assert!(
            output.status.success(),
            "{workload} --trace {trace} failed:\n{}",
            String::from_utf8_lossy(&output.stderr)
        );
        assert!(
            stdout.contains(&format!("{workload} failed_ops_pct 0 %")),
            "{workload} --trace {trace} reported failed operations:\n{stdout}"
        );
        let last = stdout.lines().last().expect("a result line");
        let result: Value = serde_json::from_str(last).expect("the result line is JSON");
        assert_eq!(result.get("correct"), Some(&Value::Bool(true)), "{last}");
        assert_eq!(result.get("failed"), Some(&Value::U64(0)), "{last}");
        assert!(
            matches!(result.get("attempted"), Some(Value::U64(n)) if *n >= 1),
            "{last}"
        );
        let Some(Value::Object(metrics)) = result.get("metrics") else {
            panic!("no metrics object: {last}");
        };
        let wanted = names(&spec, list);
        assert_eq!(metrics.len(), wanted.len(), "{last}");
        for name in wanted {
            let value = metrics
                .iter()
                .find(|(n, _)| *n == name)
                .and_then(|(_, m)| m.get("value"));
            assert!(
                matches!(value, Some(Value::F64(v)) if v.is_finite()),
                "{workload} --trace {trace}: {name} is {value:?}"
            );
        }
    }
}

#[test]
fn repro_reports_every_metric() {
    check_workload("repro");
}

#[test]
fn build_reports_every_metric() {
    check_workload("build");
}

#[test]
fn serve_reports_every_metric() {
    check_workload("serve");
}
