//! `pibe-benchmark compare`: decides, for every (end-to-end metric,
//! workload) pair, whether a change is better, the same, worse or
//! unresolved against a base, using the bounds in `BENCHMARK.json`.
//!
//! The rules follow the choosing-metrics guide (§6.5, §8): a pair is worse
//! when the change's median is worse than the base's by more than the
//! bound; unresolved when either side's spread (interquartile range over
//! median) is wider than the bound, unless every change run beats every
//! base run; better only when the change wins at least nine tenths of the
//! paired runs and the medians differ by more than the base's interquartile
//! range. Exact metrics must be equal seed by seed.

use crate::stats::quartiles;
use serde_json::Value;
use std::collections::{BTreeMap, BTreeSet};
use std::path::{Path, PathBuf};

/// Metrics that are deterministic for a seed: any difference is a change
/// in the program's output, not noise.
const EXACT: [&str; 2] = ["hardened_overhead_pct", "hardened_image_mb"];

/// One untraced result file.
struct RunFile {
    workload: String,
    seed: u64,
    path: PathBuf,
    metrics: BTreeMap<String, f64>,
}

fn load(path: &Path) -> Result<Option<RunFile>, String> {
    let doc = crate::read_json(path)?;
    if doc.get("trace") == Some(&Value::Bool(true)) {
        return Ok(None);
    }
    let (Some(Value::Str(workload)), Some(Value::U64(seed)), Some(Value::Object(metrics))) =
        (doc.get("workload"), doc.get("seed"), doc.get("metrics"))
    else {
        return Err(format!("{} is not a pibe-benchmark result", path.display()));
    };
    let metrics = metrics
        .iter()
        .filter_map(|(name, m)| match m.get("value") {
            Some(Value::F64(v)) => Some((name.clone(), *v)),
            Some(Value::U64(v)) => Some((name.clone(), *v as f64)),
            Some(Value::I64(v)) => Some((name.clone(), *v as f64)),
            _ => None,
        })
        .collect();
    Ok(Some(RunFile {
        workload: workload.clone(),
        seed: *seed,
        path: path.to_path_buf(),
        metrics,
    }))
}

/// Splits the arguments into the base and change sets: a directory stands
/// for its `*.json` files, and files are grouped by their directory, in
/// order of first appearance. Chrome traces (`*.trace.json`) are skipped.
fn groups(args: &[String]) -> Result<[Vec<PathBuf>; 2], String> {
    let result_file = |p: &PathBuf| {
        let name = p.to_string_lossy();
        name.ends_with(".json") && !name.ends_with(".trace.json")
    };
    let mut groups: Vec<(PathBuf, Vec<PathBuf>)> = Vec::new();
    for arg in args {
        let path = PathBuf::from(arg);
        let (dir, mut files) = if path.is_dir() {
            let files: Vec<PathBuf> = std::fs::read_dir(&path)
                .map_err(|e| format!("cannot list {arg}: {e}"))?
                .filter_map(|e| e.ok().map(|e| e.path()))
                .collect();
            (path, files)
        } else {
            let dir = path.parent().unwrap_or(Path::new("")).to_path_buf();
            (dir, vec![path])
        };
        files.retain(result_file);
        files.sort();
        match groups.iter_mut().find(|(d, _)| *d == dir) {
            Some((_, list)) => list.extend(files),
            None => groups.push((dir, files)),
        }
    }
    match <[(PathBuf, Vec<PathBuf>); 2]>::try_from(groups) {
        Ok([(_, base), (_, change)]) => Ok([base, change]),
        Err(g) => Err(format!(
            "compare needs exactly two directories of results, got {}",
            g.len()
        )),
    }
}

/// `(name, lower is better, bound)` of every end-to-end metric.
fn bounds(spec: &Value) -> Result<Vec<(String, bool, f64)>, String> {
    let Some(Value::Array(list)) = spec.get("end_to_end") else {
        return Err("BENCHMARK.json has no end_to_end list".into());
    };
    list.iter()
        .map(|m| match (m.get("name"), m.get("better"), m.get("bound")) {
            (Some(Value::Str(n)), Some(Value::Str(b)), Some(Value::F64(bound))) => {
                Ok((n.clone(), b == "lower", *bound))
            }
            _ => Err("malformed end_to_end entry in BENCHMARK.json".into()),
        })
        .collect()
}

/// The verdict for one metric on one workload.
fn verdict(base: &[f64], change: &[f64], lower_better: bool, bound: f64) -> (&'static str, usize) {
    let better = |a: f64, b: f64| if lower_better { a < b } else { a > b };
    let wins = base
        .iter()
        .zip(change)
        .filter(|(b, c)| better(**c, **b))
        .count();
    let (bq1, bmed, bq3) = quartiles(base);
    let (cq1, cmed, cq3) = quartiles(change);
    let spread = |q1: f64, med: f64, q3: f64| (q3 - q1) / med.abs();
    let worse_by = if lower_better {
        (cmed - bmed) / bmed.abs()
    } else {
        (bmed - cmed) / bmed.abs()
    };
    let all_better = change.iter().all(|c| base.iter().all(|b| better(*c, *b)));
    let pairs = base.len().min(change.len());
    let label = if all_better && (cmed - bmed).abs() > bq3 - bq1 {
        "better"
    } else if spread(bq1, bmed, bq3) > bound || spread(cq1, cmed, cq3) > bound {
        "unresolved"
    } else if worse_by > bound {
        "worse"
    } else if wins * 10 >= pairs * 9 && better(cmed, bmed) && (cmed - bmed).abs() > bq3 - bq1 {
        "better"
    } else {
        "same"
    };
    (label, wins)
}

/// Prints the comparison; returns whether no pair is worse, unresolved or
/// changed.
///
/// # Errors
/// On unreadable arguments or result files.
pub fn run(spec: &Value, args: &[String]) -> Result<bool, String> {
    let [base_paths, change_paths] = groups(args)?;
    let load_all = |paths: &[PathBuf]| -> Result<Vec<RunFile>, String> {
        let mut runs: Vec<RunFile> = paths
            .iter()
            .filter_map(|p| load(p).transpose())
            .collect::<Result<_, _>>()?;
        runs.sort_by(|a, b| (a.seed, &a.path).cmp(&(b.seed, &b.path)));
        Ok(runs)
    };
    let (base, change) = (load_all(&base_paths)?, load_all(&change_paths)?);
    let workloads: BTreeSet<&str> = base.iter().map(|r| r.workload.as_str()).collect();
    let mut clean = true;
    println!(
        "{:<8} {:<22} {:>30} {:>30} {:>8} {:>7}  verdict",
        "workload", "metric", "base median [q1, q3]", "change median [q1, q3]", "delta", "wins"
    );
    for workload in workloads {
        let of = |runs: &[RunFile], metric: &str| -> Vec<(u64, f64)> {
            runs.iter()
                .filter(|r| r.workload == workload)
                .filter_map(|r| r.metrics.get(metric).map(|v| (r.seed, *v)))
                .collect()
        };
        for (metric, lower_better, bound) in bounds(spec)? {
            let (b, c) = (of(&base, &metric), of(&change, &metric));
            if b.is_empty() || c.is_empty() {
                println!("{workload:<8} {metric:<22} missing on one side");
                clean = false;
                continue;
            }
            let values = |v: &[(u64, f64)]| v.iter().map(|(_, x)| *x).collect::<Vec<_>>();
            let (bv, cv) = (values(&b), values(&c));
            let (label, wins) = if EXACT.contains(&metric.as_str()) {
                let differs = b
                    .iter()
                    .any(|(seed, x)| c.iter().any(|(s, y)| s == seed && x != y));
                (if differs { "changed" } else { "exact" }, 0)
            } else {
                verdict(&bv, &cv, lower_better, bound)
            };
            clean &= matches!(label, "better" | "same" | "exact");
            let (bq1, bmed, bq3) = quartiles(&bv);
            let (cq1, cmed, cq3) = quartiles(&cv);
            println!(
                "{workload:<8} {metric:<22} {:>30} {:>30} {:>+7.2}% {:>3}/{:<3}  {label}",
                format!("{bmed:.4} [{bq1:.4}, {bq3:.4}]"),
                format!("{cmed:.4} [{cq1:.4}, {cq3:.4}]"),
                (cmed - bmed) / bmed.abs() * 100.0,
                wins,
                bv.len().min(cv.len()),
            );
        }
    }
    Ok(clean)
}

#[cfg(test)]
mod tests {
    use super::verdict;

    #[test]
    fn verdicts_follow_the_bound_and_the_spread() {
        let base = [100.0, 101.0, 99.0, 100.5, 99.5];
        assert_eq!(verdict(&base, &base, true, 0.1).0, "same");
        let slower = [120.0, 121.0, 119.0, 120.5, 119.5];
        assert_eq!(verdict(&base, &slower, true, 0.1).0, "worse");
        assert_eq!(verdict(&slower, &base, true, 0.1).0, "better");
        let noisy = [60.0, 140.0, 100.0, 80.0, 120.0];
        assert_eq!(verdict(&base, &noisy, true, 0.1).0, "unresolved");
        // Higher is better: a throughput drop is worse.
        assert_eq!(verdict(&slower, &base, false, 0.1).0, "worse");
    }
}
