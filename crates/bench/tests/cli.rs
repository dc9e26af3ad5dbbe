//! The `tables` command line: key listing, key validation, and which runs
//! skip building the paper-scale lab.

use std::process::{Command, Output};

/// Every `--only` key, in output order.
const KEYS: [&str; 22] = [
    "1",
    "fig1",
    "2",
    "3",
    "4",
    "5",
    "6",
    "8",
    "9",
    "10",
    "11",
    "12",
    "7",
    "convergence",
    "eibrs",
    "userspace",
    "v1",
    "breakdown",
    "refill",
    "robustness",
    "crossarch",
    "ablations",
];

fn tables(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_tables"))
        .args(args)
        .output()
        .expect("tables binary runs")
}

fn text(bytes: &[u8]) -> &str {
    std::str::from_utf8(bytes).expect("utf-8 output")
}

#[test]
fn list_names_every_key_in_output_order() {
    let out = tables(&["--list"]);
    assert!(out.status.success());
    let listed: Vec<&str> = text(&out.stdout)
        .trim()
        .strip_prefix("available keys: ")
        .expect("--list prefix")
        .split(' ')
        .collect();
    assert_eq!(listed, KEYS);
}

#[test]
fn unknown_key_exits_2_and_lists_the_valid_keys() {
    let out = tables(&["--only", "1,bogus"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(out.stdout.is_empty(), "nothing runs: {}", text(&out.stdout));
    let err = text(&out.stderr);
    assert!(err.contains("bogus"), "{err}");
    assert!(err.contains(&KEYS.join(" ")), "{err}");
}

#[test]
fn kernel_free_tables_skip_the_lab() {
    for key in ["1", "fig1", "userspace"] {
        let out = tables(&["--only", key]);
        assert!(out.status.success(), "--only {key}");
        let (stdout, stderr) = (text(&out.stdout), text(&out.stderr));
        assert!(!stderr.contains("lab ready"), "--only {key}: {stderr}");
        assert!(!stdout.contains("Build report"), "--only {key}: {stdout}");
        assert!(stderr.contains(&format!("[table {key} in ")), "{stderr}");
    }
}

/// The build report says how many optimized prefixes the farm's images
/// shared: Table 12's 13 images (LTO and four optimization levels, each
/// under several defense sets) lower from 5 ICP → inline → DCE prefixes.
#[test]
fn build_report_counts_shared_optimizations() {
    let out = tables(&[
        "--scale", "0.02", "--iters", "4", "--rounds", "1", "--only", "12",
    ]);
    assert!(out.status.success(), "{}", text(&out.stderr));
    let stdout = text(&out.stdout);
    let line = stdout
        .lines()
        .find(|l| l.contains("shared optimizations"))
        .unwrap_or_else(|| panic!("no optimization count in the build report: {stdout}"));
    let counts: Vec<u64> = line
        .split_whitespace()
        .filter_map(|w| w.parse().ok())
        .collect();
    assert_eq!(counts, [5, 13], "{line}");
    assert!(line.ends_with("5 optimizations for 13 images"), "{line}");
}
