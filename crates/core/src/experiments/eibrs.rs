//! Retpolines vs Enhanced IBRS (§6.4).
//!
//! "In recent hardware (e.g., Intel Cascade Lake) Enhanced IBRS (eIBRS) can
//! be enabled to replace retpolines, but the hardware mitigation has
//! limitations and does not prevent attacks that train on kernel
//! execution." This experiment puts numbers behind the sentence: eIBRS is
//! cheap, but its Spectre V2 surface is only *narrowed* (to same-domain
//! training) while retpolines — and especially PIBE-optimized retpolines —
//! close it.

use super::Lab;
use crate::config::PibeConfig;
use crate::eval;
use crate::report::{pct, Table};
use pibe_harden::{Arch, DefenseSet};
use pibe_profile::Budget;
use pibe_sim::SimConfig;
use serde::{Deserialize, Serialize};

/// Measured outcome of one forward-edge posture.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ForwardEdgePosture {
    /// Geomean LMBench overhead vs the LTO baseline.
    pub overhead_pct: f64,
    /// Executions hijackable by cross-domain (userspace) BTB training.
    pub cross_domain: u64,
    /// Executions hijackable only by in-kernel BTB training.
    pub kernel_trained: u64,
}

/// Compares forward-edge postures: nothing, eIBRS, retpolines, and
/// retpolines + PIBE's promotion.
pub fn eibrs_comparison(lab: &Lab) -> (Table, Vec<ForwardEdgePosture>) {
    let mut table = Table::new(
        "eIBRS vs retpolines (6.4): cost and residual Spectre V2 surface",
        &[
            "posture",
            "LMBench overhead",
            "user-trained V2",
            "kernel-trained V2",
        ],
    );
    let mut out = Vec::new();
    let mut measure = |name: &str, image: &crate::Image, cfg: SimConfig| {
        let rows = lab.latencies_with(image, cfg);
        let overhead = lab.geomean(&rows);
        let attacks = eval::lmbench_attack_surface(
            &image.module,
            &lab.kernel,
            &lab.workload,
            &lab.suite,
            cfg,
            lab.seed,
        );
        table.row(vec![
            name.to_string(),
            pct(overhead),
            attacks.btb_hijackable_icalls.to_string(),
            attacks.btb_kernel_trained_icalls.to_string(),
        ]);
        out.push(ForwardEdgePosture {
            overhead_pct: overhead,
            cross_domain: attacks.btb_hijackable_icalls,
            kernel_trained: attacks.btb_kernel_trained_icalls,
        });
    };

    // eIBRS and retpolines are x86 mitigations: every posture runs on an
    // x86 image, whatever the lab's arch.
    let configs = [
        PibeConfig::builder().build(),
        PibeConfig::builder()
            .defenses(DefenseSet::RETPOLINES)
            .build(),
        PibeConfig::builder()
            .icp(Budget::P99_999)
            .defenses(DefenseSet::RETPOLINES)
            .build(),
    ]
    .map(|c| c.with_arch(Arch::X86));
    lab.farm()
        .prefetch(&configs)
        .unwrap_or_else(|e| panic!("prefetch build failed: {e}"));
    let [lto, retp, retp_pibe] = configs.map(|c| lab.image_for_arch(&c, Arch::X86));
    measure("no forward-edge defense", &lto, lto.sim_config());
    measure(
        "eIBRS",
        &lto,
        SimConfig {
            eibrs: true,
            ..lto.sim_config()
        },
    );
    measure("retpolines (unoptimized)", &retp, retp.sim_config());
    measure("retpolines + PIBE icp", &retp_pibe, retp_pibe.sim_config());
    (table, out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn eibrs_is_cheap_but_trainable_from_the_kernel() {
        let lab = Lab::test();
        let (_, postures) = eibrs_comparison(&lab);
        let [none, eibrs, retp, retp_pibe] = postures[..] else {
            panic!("four postures expected");
        };
        // eIBRS blocks cross-domain training on every compiler-visible
        // site: what remains is exactly the paravirt asm residual that
        // retpolines leave too.
        assert!(none.cross_domain > 0);
        assert!(eibrs.cross_domain < none.cross_domain);
        assert_eq!(eibrs.cross_domain, retp.cross_domain);
        // ...but merely relabels the rest as kernel-trainable.
        assert!(
            eibrs.kernel_trained > 0,
            "same-domain training remains possible"
        );
        // Retpolines leave no trainable surface either way (asm aside).
        assert_eq!(retp.kernel_trained, 0);
        assert_eq!(retp_pibe.kernel_trained, 0);
        // Cost ordering: eIBRS < unoptimized retpolines; PIBE-optimized
        // retpolines close the gap.
        assert!(eibrs.overhead_pct < retp.overhead_pct);
        assert!(retp_pibe.overhead_pct < retp.overhead_pct);
    }
}
