//! Shape claims of the paper's evaluation, checked against the committed
//! paper-scale tables in `benchmark/golden/repro.json` (read, never
//! written).
//!
//! Each claim is one named test, so a regenerated golden that breaks a
//! claim names the claim rather than a cell. Table 3's ICP budget order is
//! left out: it is a recorded open divergence (EXPERIMENTS.md). Tables 4,
//! 8, 9, 10, 11 and 12 come from pass statistics, the audit and the size
//! model, so their claims do not depend on the simulated code layout.

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

/// The cell at row `label` (first column) and column `header`.
fn cell<'t>(t: &'t Table, label: &str, header: &str) -> &'t str {
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
    &row[col]
}

/// The leading number of a cell: `132.5` in `"132.5%"`, `1521` in
/// `"1521 (0.0%)"`.
fn num(t: &Table, label: &str, header: &str) -> f64 {
    let cell = cell(t, label, header);
    let lead = cell.split(' ').next().unwrap_or_default();
    lead.trim_end_matches('%')
        .parse()
        .unwrap_or_else(|_| panic!("{}: {label}/{header} is not a number: {cell:?}", t.title))
}

/// The parenthesised percentage of a cell: `98.3` in `"532908 (98.3%)"`.
fn share(t: &Table, label: &str, header: &str) -> f64 {
    let cell = cell(t, label, header);
    cell.split_once('(')
        .and_then(|(_, rest)| rest.strip_suffix("%)"))
        .and_then(|pct| pct.parse().ok())
        .unwrap_or_else(|| panic!("{}: {label}/{header} has no share: {cell:?}", t.title))
}

/// Table 4: most indirect call sites invoke one target, and the count
/// falls from one to two to three targets.
#[test]
fn table4_sites_fall_from_one_to_two_to_three_targets() {
    let t = table("4");
    let sites = ["1", "2", "3"].map(|h| num(&t, "Indirect Calls", h));
    assert!(sites.is_sorted_by(|a, b| a > b), "{sites:?} do not fall");
}

/// Table 9: Rule 3 (callee complexity) blocks more weight than Rule 2
/// (caller growth) at every budget — the paper's key inlining observation.
#[test]
fn table9_rule3_blocks_more_weight_than_rule2_at_every_budget() {
    let t = table("9");
    for budget in t.rows.iter().map(|r| &r[0]) {
        let (rule2, rule3) = (num(&t, budget, "Rule 2"), num(&t, budget, "Rule 3"));
        assert!(rule3 > rule2, "{budget}: Rule 3 {rule3} <= Rule 2 {rule2}");
    }
}

/// Table 8: ICP elides at least 98% of the indirect-call weight at every
/// budget, and a larger budget promotes more call sites.
#[test]
fn table8_icp_elides_98_percent_of_icall_weight_and_sites_grow_with_the_budget() {
    let t = table("8");
    let budgets: Vec<&str> = t.rows.iter().map(|r| r[0].as_str()).collect();
    for budget in &budgets {
        let elided = share(&t, budget, "icall weight");
        assert!(elided >= 98.0, "{budget}: ICP elides {elided}% < 98%");
    }
    let sites: Vec<f64> = budgets.iter().map(|b| num(&t, b, "call sites")).collect();
    assert!(
        sites.is_sorted_by(|a, b| a < b),
        "promoted sites {sites:?} do not grow over {budgets:?}"
    );
}

/// Table 10: optimization candidates are under 10% of all kernel indirect
/// branches, and grow with the budget for both ICP and inlining.
#[test]
fn table10_candidates_stay_under_10_percent_and_grow_with_the_budget() {
    let t = table("10");
    for pass in ["icp", "inl"] {
        let headers: Vec<&String> = t.headers[1..]
            .iter()
            .filter(|h| h.starts_with(pass))
            .collect();
        assert_eq!(headers.len(), 3, "{pass}: three budgets");
        let shares: Vec<f64> = headers.iter().map(|h| num(&t, "Candidates", h)).collect();
        assert!(
            shares.iter().all(|&c| c < 10.0),
            "{pass}: candidates {shares:?} reach 10%"
        );
        assert!(
            shares.is_sorted_by(|a, b| a < b),
            "{pass}: candidates {shares:?} do not grow with the budget"
        );
    }
}

/// Table 11: the five jump-table switches stay vulnerable at every budget
/// (PIBE never touches indirect jumps).
#[test]
fn table11_vulnerable_ijumps_stay_at_5() {
    let t = table("11");
    for h in &t.headers[1..] {
        assert_eq!(num(&t, "Vuln. IJumps", h), 5.0, "Vuln. IJumps at {h}");
    }
}

/// Table 12: PIBE with retpolines alone grows the image by under 1%.
#[test]
fn table12_retpolines_only_growth_is_under_1_percent() {
    let t = table("12");
    let growth = num(&t, "w/retpolines", "img size");
    assert!(growth < 1.0, "retpolines-only image growth {growth}% >= 1%");
}

/// Table 5: every optimization step lowers (or keeps) the all-defenses
/// geometric mean, lax heuristics give the minimum, and LTO → lax falls at
/// least 10×.
#[test]
fn table5_geomean_falls_with_the_budget_to_a_lax_minimum() {
    let t = table("5");
    let means: Vec<f64> = t.headers[1..]
        .iter()
        .map(|h| num(&t, "Geometric Mean", h))
        .collect();
    for (h, w) in t.headers[1..].windows(2).zip(means.windows(2)) {
        assert!(w[1] <= w[0], "{} ({}%) > {} ({}%)", h[1], w[1], h[0], w[0]);
    }
    let lax = num(&t, "Geometric Mean", "lax heuristics");
    let lto = num(&t, "Geometric Mean", "LTO w/all-defenses");
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
        let pibe = num(&t, &row[0], "PIBE");
        assert!(pibe <= 5.0, "{}: PIBE {pibe}% > 5%", row[0]);
    }
}

/// PIBE with every defense is cheaper than LTO with retpolines alone.
#[test]
fn all_defenses_pibe_beats_lto_with_retpolines_alone() {
    let t = table("6");
    let pibe_all = num(&t, "all-defenses", "PIBE");
    let lto_retpolines = num(&t, "retpolines", "LTO");
    assert!(
        pibe_all < lto_retpolines,
        "PIBE all-defenses {pibe_all}% >= LTO retpolines {lto_retpolines}%"
    );
}
