//! The §6.4 backward-edge debate, quantified: RSB refilling vs return
//! retpolines.
//!
//! The kernel's stock answer to Ret2spec is ad-hoc RSB stuffing on context
//! switches. The paper argues (§6.4) that refilling (a) costs cycles on
//! every kernel entry, (b) "limits the attack surface, defending against
//! known userspace-to-kernel RSB attacks", but (c) "other RSB exploitation
//! scenarios are still possible under RSB refilling", whereas return
//! retpolines close them all — and, after PIBE's inlining, cost almost
//! nothing. This experiment measures all three claims on the same kernel.

use super::Lab;
use crate::config::PibeConfig;
use crate::eval;
use crate::report::{pct, Table};
use pibe_harden::{Arch, DefenseSet};
use pibe_sim::SimConfig;
use serde::{Deserialize, Serialize};

/// Measured outcome of one backward-edge posture.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct BackwardEdgePosture {
    /// Geomean LMBench overhead vs the LTO baseline.
    pub overhead_pct: f64,
    /// Dynamic return executions an RSB-poisoning attacker could hijack.
    pub hijackable_rets: u64,
}

/// Compares backward-edge postures: nothing, RSB refilling, return
/// retpolines (unoptimized), and return retpolines + PIBE.
pub fn rsb_refill_comparison(lab: &Lab) -> (Table, Vec<BackwardEdgePosture>) {
    let mut table = Table::new(
        "RSB refilling vs return retpolines (6.4): cost and residual Ret2spec surface",
        &["posture", "LMBench overhead", "hijackable returns"],
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
            attacks.rsb_hijackable_rets.to_string(),
        ]);
        out.push(BackwardEdgePosture {
            overhead_pct: overhead,
            hijackable_rets: attacks.rsb_hijackable_rets,
        });
    };

    // RSB refilling and return retpolines are x86 mitigations: every
    // posture runs on an x86 image, whatever the lab's arch.
    let configs = [
        PibeConfig::builder().build(),
        PibeConfig::builder()
            .defenses(DefenseSet::RET_RETPOLINES)
            .build(),
        PibeConfig::builder()
            .lax()
            .defenses(DefenseSet::RET_RETPOLINES)
            .build(),
    ]
    .map(|c| c.with_arch(Arch::X86));
    lab.farm()
        .prefetch(&configs)
        .unwrap_or_else(|e| panic!("prefetch build failed: {e}"));
    let [lto, rr, rr_pibe] = configs.map(|c| lab.image_for_arch(&c, Arch::X86));
    measure("no backward-edge defense", &lto, lto.sim_config());
    measure(
        "RSB refilling",
        &lto,
        SimConfig {
            rsb_refill: true,
            ..lto.sim_config()
        },
    );
    measure("return retpolines (unoptimized)", &rr, rr.sim_config());
    measure("return retpolines + PIBE", &rr_pibe, rr_pibe.sim_config());
    (table, out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn refilling_is_cheap_but_leaky_and_pibe_ret_retpolines_win() {
        let lab = Lab::test();
        let (_, postures) = rsb_refill_comparison(&lab);
        let [none, refill, rr, rr_pibe] = postures[..] else {
            panic!("four postures expected");
        };
        // Refilling reduces — but does not eliminate — the Ret2spec surface.
        assert!(refill.hijackable_rets < none.hijackable_rets / 2);
        assert!(
            refill.hijackable_rets > 0,
            "deep chains still overflow the RSB under refilling"
        );
        // Return retpolines close the surface entirely...
        assert_eq!(rr.hijackable_rets, 0);
        assert_eq!(rr_pibe.hijackable_rets, 0);
        // ...and cost far less once PIBE elides the hot returns.
        assert!(rr_pibe.overhead_pct < rr.overhead_pct / 2.0);
        // Refilling is not free either.
        assert!(refill.overhead_pct > none.overhead_pct);
    }
}
