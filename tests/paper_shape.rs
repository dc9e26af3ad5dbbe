//! Shape claims of the paper's evaluation, checked against the committed
//! paper-scale tables in `benchmark/golden/repro.json` (read, never
//! written).
//!
//! Each claim is one named test, so a regenerated golden that breaks a
//! claim names the claim rather than a cell. Table 3's ICP budget order is
//! left out: it is a recorded open divergence (EXPERIMENTS.md).

use pibe::report::Table;

/// Golden table `key` (`"5"`, `"6"`, ...).
fn table(key: &str) -> Table {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/benchmark/golden/repro.json");
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| panic!("{path}: {e}"));
    let doc: serde_json::Value = serde_json::from_str(&text).expect("golden file parses");
    let value = doc
        .get("tables")
        .and_then(|tables| tables.get(key))
        .unwrap_or_else(|| panic!("golden file has no table {key}"));
    let json = serde_json::to_string(value).expect("a parsed value re-encodes");
    serde_json::from_str(&json).unwrap_or_else(|e| panic!("table {key}: {e}"))
}

/// The cell at row `label` (first column) and column `header`, parsed from
/// a percentage such as `"132.5%"`.
fn pct(t: &Table, label: &str, header: &str) -> f64 {
    let col = t
        .headers
        .iter()
        .position(|h| h == header)
        .unwrap_or_else(|| panic!("{}: no column {header:?}", t.title));
    let row = t
        .rows
        .iter()
        .find(|r| r[0] == label)
        .unwrap_or_else(|| panic!("{}: no row {label:?}", t.title));
    let cell = &row[col];
    cell.trim_end_matches('%').parse().unwrap_or_else(|_| {
        panic!(
            "{}: {label}/{header} is not a percentage: {cell:?}",
            t.title
        )
    })
}

/// Table 5: every optimization step lowers (or keeps) the all-defenses
/// geometric mean, lax heuristics give the minimum, and LTO → lax falls at
/// least 10×.
#[test]
fn table5_geomean_falls_with_the_budget_to_a_lax_minimum() {
    let t = table("5");
    let means: Vec<f64> = t.headers[1..]
        .iter()
        .map(|h| pct(&t, "Geometric Mean", h))
        .collect();
    for (h, w) in t.headers[1..].windows(2).zip(means.windows(2)) {
        assert!(w[1] <= w[0], "{} ({}%) > {} ({}%)", h[1], w[1], h[0], w[0]);
    }
    let lax = pct(&t, "Geometric Mean", "lax heuristics");
    let lto = pct(&t, "Geometric Mean", "LTO w/all-defenses");
    assert!(
        means.iter().all(|&m| lax <= m),
        "lax {lax}% is not the minimum of {means:?}"
    );
    assert!(lax * 10.0 <= lto, "LTO {lto}% → lax {lax}% is under 10×");
}

/// Table 6: after PIBE, every defense (and all of them together) costs at
/// most 5%.
#[test]
fn table6_pibe_keeps_every_defense_within_5_percent() {
    let t = table("6");
    for row in &t.rows {
        let pibe = pct(&t, &row[0], "PIBE");
        assert!(pibe <= 5.0, "{}: PIBE {pibe}% > 5%", row[0]);
    }
}

/// PIBE with every defense is cheaper than LTO with retpolines alone.
#[test]
fn all_defenses_pibe_beats_lto_with_retpolines_alone() {
    let t = table("6");
    let pibe_all = pct(&t, "all-defenses", "PIBE");
    let lto_retpolines = pct(&t, "retpolines", "LTO");
    assert!(
        pibe_all < lto_retpolines,
        "PIBE all-defenses {pibe_all}% >= LTO retpolines {lto_retpolines}%"
    );
}
