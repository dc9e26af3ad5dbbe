//! The workload-robustness experiment of §8.4.
//!
//! Three questions, answered against the same LMBench evaluation suite:
//!
//! 1. How much candidate weight do the LMBench and Apache workloads share
//!    at the reference budget? (paper: 58% ICP / 67% inlining at 99%)
//! 2. How well does a kernel *trained on Apache* perform under LMBench
//!    with comprehensive defenses? (paper: 22.5%, vs 10.6% matched and
//!    149.1% unoptimized)
//! 3. Does the win come from the workload or from PIBE's ordering? The
//!    default-LLVM-style inliner with the *matched* profile still lands at
//!    100.2% in the paper.

use super::{ExperimentError, Lab};
use crate::config::PibeConfig;
use crate::report::{pct, Table};
use pibe_baselines::{run_llvm_inliner, LlvmInlinerConfig};
use pibe_harden::DefenseSet;
use pibe_kernel::measure::collect_macro_profile;
use pibe_kernel::workloads::{MacroBench, WorkloadSpec};
use pibe_profile::{overlap, Budget};
use serde::{Deserialize, Serialize};

/// The measured robustness numbers (also rendered by [`robustness`]).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RobustnessSummary {
    /// ICP candidate weight shared between the workloads at 99%.
    pub icp_shared_pct: f64,
    /// Inlining candidate weight shared at 99%.
    pub inline_shared_pct: f64,
    /// Geomean LMBench overhead of the Apache-trained, fully-defended
    /// kernel.
    pub apache_trained_pct: f64,
    /// Geomean overhead of the matched (LMBench-trained) kernel.
    pub matched_pct: f64,
    /// Geomean overhead with no optimization at all.
    pub unoptimized_pct: f64,
    /// Geomean overhead using the default-LLVM-style inliner with the
    /// matched profile (plus PIBE's ICP, as in §8.4's comparison).
    pub llvm_inliner_pct: f64,
}

/// Runs the robustness experiment; `requests` sizes the Apache profiling
/// workload.
///
/// # Errors
/// [`ExperimentError::Profiling`] if the Apache profiling run fails;
/// [`ExperimentError::Build`] if the Apache-trained image fails to build.
pub fn robustness(lab: &Lab, requests: u32) -> Result<(Table, RobustnessSummary), ExperimentError> {
    // Apache profiling workload (ApacheBench in the paper).
    let apache_wl = WorkloadSpec::apache();
    let apache_seed = lab.seed ^ 0xA9;
    let apache_profile = collect_macro_profile(
        &lab.kernel,
        &apache_wl,
        &MacroBench::apache(requests),
        2,
        apache_seed,
    )
    .map_err(|source| ExperimentError::Profiling {
        workload: apache_wl.name.clone(),
        seed: apache_seed,
        source,
    })?;

    // 1. Candidate overlap at the 99% reference budget.
    let ov = overlap::overlap(&lab.profile, &apache_profile, Budget::P99);

    // 2. Apache-trained kernel, comprehensive defenses, LMBench eval. The
    // image is trained on a different profile than the lab's, so it is
    // built directly rather than through the farm, for the lab's arch.
    let apache_img = crate::Image::builder(&lab.kernel.module)
        .profile(&apache_profile)
        .config(
            PibeConfig::builder()
                .lax()
                .defenses(DefenseSet::ALL)
                .arch(lab.arch)
                .build(),
        )
        .build()?;
    let apache_rows = lab.latencies(&apache_img.module, apache_img.config.sim_config());
    let apache_trained_pct = lab.geomean(&apache_rows);

    lab.prefetch(&[
        PibeConfig::builder()
            .lax()
            .defenses(DefenseSet::ALL)
            .build(),
        PibeConfig::builder().defenses(DefenseSet::ALL).build(),
    ]);
    let (matched_pct, _) = lab.run_config(
        &PibeConfig::builder()
            .lax()
            .defenses(DefenseSet::ALL)
            .build(),
    );
    let (unoptimized_pct, _) =
        lab.run_config(&PibeConfig::builder().defenses(DefenseSet::ALL).build());

    // 3. The stock pipeline with the matched profile: LLVM's default
    // (weight-blind, bottom-up) inliner and no aggressive promotion —
    // indirect calls all stay behind the fenced retpoline, and the inliner
    // can only remove the returns of small direct callees. This is the
    // configuration the paper measures at 100.2% (§8.4).
    let llvm_inliner_pct = {
        let mut module = lab.kernel.module.clone();
        let weights = pibe_passes::SiteWeights::from_profile(&lab.profile);
        run_llvm_inliner(&mut module, &weights, &LlvmInlinerConfig::default());
        lab.hardened_overhead(module)
    };

    let summary = RobustnessSummary {
        icp_shared_pct: ov.icp_shared_weight * 100.0,
        inline_shared_pct: ov.inline_shared_weight * 100.0,
        apache_trained_pct,
        matched_pct,
        unoptimized_pct,
        llvm_inliner_pct,
    };

    let mut t = Table::new(
        "Robustness to workload profiles (8.4): LMBench geomean overhead, all defenses",
        &["measurement", "value"],
    );
    t.row(vec![
        "ICP candidate weight shared (99% budget)".into(),
        pct(summary.icp_shared_pct),
    ]);
    t.row(vec![
        "inline candidate weight shared (99% budget)".into(),
        pct(summary.inline_shared_pct),
    ]);
    t.row(vec![
        "unoptimized, all defenses".into(),
        pct(summary.unoptimized_pct),
    ]);
    t.row(vec![
        "Apache-trained PIBE, all defenses".into(),
        pct(summary.apache_trained_pct),
    ]);
    t.row(vec![
        "LMBench-trained PIBE, all defenses".into(),
        pct(summary.matched_pct),
    ]);
    t.row(vec![
        "default LLVM inliner, matched profile".into(),
        pct(summary.llvm_inliner_pct),
    ]);
    Ok((t, summary))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn robustness_ordering_matches_the_paper() {
        let lab = Lab::test();
        let (_, s) = robustness(&lab, 20).expect("robustness experiment runs");
        assert!(
            s.matched_pct <= s.apache_trained_pct,
            "matched profile wins ({} vs {})",
            s.matched_pct,
            s.apache_trained_pct
        );
        assert!(
            s.apache_trained_pct < s.unoptimized_pct,
            "mismatched profile still beats no optimization ({} vs {})",
            s.apache_trained_pct,
            s.unoptimized_pct
        );
        assert!(
            s.matched_pct < s.llvm_inliner_pct,
            "PIBE's ordering beats the default inliner ({} vs {})",
            s.matched_pct,
            s.llvm_inliner_pct
        );
        assert!(s.icp_shared_pct > 0.0 && s.icp_shared_pct <= 100.0);
        assert!(s.inline_shared_pct > 0.0);
    }
}
