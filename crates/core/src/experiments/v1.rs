//! Spectre V1: why the paper's threat model leaves it to static analysis.
//!
//! §3: "we do not target Spectre V1, as static analysis already provides a
//! practical solution for the kernel"; §6.1: "few conditional branches are
//! suitable gadgets, and static analysis can identify and protect them
//! efficiently." This experiment quantifies both halves on the synthetic
//! kernel: the gadget finder touches a small fraction of the conditional
//! branches, and fencing just those costs a fraction of the naive
//! fence-every-branch mitigation.

use super::Lab;
use crate::report::{pct, Table};
use pibe_passes::{fence_all_conditionals, fence_gadgets, find_v1_gadgets};
use pibe_sim::SimConfig;
use serde::{Deserialize, Serialize};

/// Measured outcome of the Spectre V1 experiment.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct V1Summary {
    /// Gadget-shaped branch sites found by the analysis.
    pub gadgets: u64,
    /// All data-dependent conditional branches in the kernel.
    pub conditional_branches: u64,
    /// Geomean LMBench overhead of fencing only the gadgets.
    pub selective_pct: f64,
    /// Geomean LMBench overhead of fencing every conditional branch.
    pub naive_pct: f64,
}

/// Runs the Spectre V1 fencing comparison.
pub fn spectre_v1_fencing(lab: &Lab) -> (Table, V1Summary) {
    let gadgets = find_v1_gadgets(&lab.kernel.module);

    let mut selective = lab.kernel.module.clone();
    fence_gadgets(&mut selective, &gadgets);
    let mut naive = lab.kernel.module.clone();
    let naive_stats = fence_all_conditionals(&mut naive);

    let geomean =
        |module: &pibe_ir::Module| lab.geomean(&lab.latencies(module, SimConfig::default()));
    let summary = V1Summary {
        gadgets: gadgets.len() as u64,
        conditional_branches: naive_stats.branches_seen,
        selective_pct: geomean(&selective),
        naive_pct: geomean(&naive),
    };

    let mut t = Table::new(
        "Spectre V1 (3): selective gadget fencing vs fencing every conditional branch",
        &["measurement", "value"],
    );
    t.row(vec![
        "conditional branches".into(),
        summary.conditional_branches.to_string(),
    ]);
    t.row(vec![
        "gadget-shaped sites (double load behind a check)".into(),
        summary.gadgets.to_string(),
    ]);
    t.row(vec![
        "LMBench overhead, fence gadgets only".into(),
        pct(summary.selective_pct),
    ]);
    t.row(vec![
        "LMBench overhead, fence every conditional".into(),
        pct(summary.naive_pct),
    ]);
    (t, summary)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn selective_fencing_is_practical_and_naive_is_not() {
        let lab = Lab::test();
        let (_, s) = spectre_v1_fencing(&lab);
        assert!(s.gadgets > 0, "the kernel contains gadget-shaped code");
        assert!(
            s.gadgets * 4 < s.conditional_branches,
            "few branches are gadgets ({} of {})",
            s.gadgets,
            s.conditional_branches
        );
        assert!(
            s.selective_pct < s.naive_pct / 3.0,
            "selective fencing ({:.1}%) must be far cheaper than naive ({:.1}%)",
            s.selective_pct,
            s.naive_pct
        );
        assert!(
            s.selective_pct < 5.0,
            "selective fencing is practical: {:.1}%",
            s.selective_pct
        );
    }
}
