//! The ablation sweeps behind the paper's inliner and ICP settings.
//!
//! * **Rule 2** (§5.2): the caller-complexity limit, picked by raising it
//!   from 3,000 in steps of 3,000; the paper settles on 12,000.
//! * **Rule 3** (§5.2): the callee-complexity limit, LLVM's hot-callsite
//!   threshold of 3,000.
//! * **ICP target cap** (§5.3): PIBE promotes every target inside the
//!   budget, where conventional ICP stops at one or two per site.
//! * **Inlining order** (§8.4): PIBE's greedy hot-first inliner against
//!   LLVM's weight-blind bottom-up one, both after the same ICP.
//!
//! Each sweep varies one knob around the paper's default point (both
//! passes at budget 99.9999%, all defenses) and reports LMBench geomean
//! overhead against the LTO baseline. Every point except LLVM's bottom-up
//! inliner is a [`PibeConfig`] built through the lab's farm, and the
//! default point is [`PibeConfig::full`] at 99.9999%, which the farm
//! builds once for all four sweeps.

use super::Lab;
use crate::config::PibeConfig;
use crate::report::Table;
use pibe_baselines::{run_llvm_inliner, LlvmInlinerConfig};
use pibe_harden::DefenseSet;
use pibe_ir::Module;
use pibe_passes::{promote_indirect_calls, IcpConfig, InlinerConfig, SiteWeights};
use pibe_profile::Budget;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;

/// The one knob an ablation point moves away from the paper's default.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Setting {
    /// Rule 2's caller-complexity limit (paper: 12,000).
    Rule2(u32),
    /// Rule 3's callee-complexity limit (paper: 3,000).
    Rule3(u32),
    /// ICP's promoted-target cap per site; `None` is unlimited (paper).
    IcpCap(Option<usize>),
    /// PIBE's greedy hot-first inlining order (the paper's).
    GreedyOrder,
    /// LLVM's bottom-up inliner with the matched profile, after PIBE's ICP.
    BottomUpOrder,
}

impl Setting {
    /// Every point of the four sweeps, in table order.
    fn all() -> Vec<Setting> {
        let mut points: Vec<Setting> = [3_000, 6_000, 12_000, 24_000].map(Setting::Rule2).into();
        points.extend([750, 1_500, 3_000, 6_000].map(Setting::Rule3));
        points.extend([Some(1), Some(2), None].map(Setting::IcpCap));
        points.extend([Setting::GreedyOrder, Setting::BottomUpOrder]);
        points
    }

    /// The farm configuration of this point, or `None` for
    /// [`Setting::BottomUpOrder`], whose inliner the pipeline does not run.
    fn config(self) -> Option<PibeConfig> {
        let mut icp = IcpConfig {
            budget: Budget::P99_9999,
            max_targets_per_site: None,
        };
        let mut inliner = InlinerConfig {
            budget: Budget::P99_9999,
            ..InlinerConfig::default()
        };
        match self {
            Setting::Rule2(limit) => inliner.rule2_caller_limit = limit,
            Setting::Rule3(limit) => inliner.rule3_callee_limit = limit,
            Setting::IcpCap(cap) => icp.max_targets_per_site = cap,
            Setting::GreedyOrder => {}
            Setting::BottomUpOrder => return None,
        }
        Some(
            PibeConfig::builder()
                .icp_config(icp)
                .inliner_config(inliner)
                .defenses(DefenseSet::ALL)
                .build(),
        )
    }

    /// The sweep this point belongs to (the table's first column).
    fn sweep(self) -> &'static str {
        match self {
            Setting::Rule2(_) => "Rule 2 caller limit",
            Setting::Rule3(_) => "Rule 3 callee limit",
            Setting::IcpCap(_) => "ICP targets per site",
            Setting::GreedyOrder | Setting::BottomUpOrder => "inlining order",
        }
    }

    /// The point's value, marked when it is the paper's choice.
    fn label(self) -> String {
        let value = match self {
            Setting::Rule2(limit) | Setting::Rule3(limit) => limit.to_string(),
            Setting::IcpCap(Some(cap)) => cap.to_string(),
            Setting::IcpCap(None) => "unlimited".into(),
            Setting::GreedyOrder => "greedy hot-first".into(),
            Setting::BottomUpOrder => "LLVM bottom-up".into(),
        };
        if self.config() == Some(PibeConfig::full(Budget::P99_9999, DefenseSet::ALL)) {
            format!("{value} (paper)")
        } else {
            value
        }
    }
}

/// One measured ablation point.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct AblationPoint {
    /// The knob this point moves.
    pub setting: Setting,
    /// Geomean LMBench overhead (%) vs the LTO baseline, all defenses.
    pub overhead_pct: f64,
}

/// The LLVM bottom-up point's module: PIBE's ICP at 99.9999%, then LLVM's
/// inliner, unhardened.
fn bottom_up_module(lab: &Lab) -> Module {
    let mut module = lab.kernel.module.clone();
    let mut weights = SiteWeights::from_profile(&lab.profile);
    promote_indirect_calls(
        &mut module,
        &mut weights,
        &lab.profile,
        &IcpConfig {
            budget: Budget::P99_9999,
            max_targets_per_site: None,
        },
    );
    run_llvm_inliner(&mut module, &weights, &LlvmInlinerConfig::default());
    module
}

/// Geomean overhead (%) of one ablation point.
fn overhead(lab: &Lab, setting: Setting) -> f64 {
    match setting.config() {
        Some(config) => lab.run_config(&config).0,
        None => lab.hardened_overhead(bottom_up_module(lab)),
    }
}

/// Runs all four sweeps. Points that share a configuration (each sweep's
/// default) are measured once.
pub fn ablations(lab: &Lab) -> (Table, Vec<AblationPoint>) {
    let settings = Setting::all();
    let configs: Vec<PibeConfig> = settings.iter().filter_map(|s| s.config()).collect();
    lab.prefetch(&configs);
    let mut table = Table::new(
        "Ablations (5.2, 5.3): LMBench geomean overhead, all defenses, budget 99.9999%",
        &["sweep", "setting", "geomean overhead"],
    );
    let mut measured: HashMap<Option<PibeConfig>, f64> = HashMap::new();
    let mut points = Vec::with_capacity(settings.len());
    for setting in settings {
        let overhead_pct = *measured
            .entry(setting.config())
            .or_insert_with(|| overhead(lab, setting));
        // Two decimals: neighbouring points differ by tenths of a percent.
        table.row(vec![
            setting.sweep().into(),
            setting.label(),
            format!("{overhead_pct:.2}%"),
        ]);
        points.push(AblationPoint {
            setting,
            overhead_pct,
        });
    }
    (table, points)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_point_is_the_full_config() {
        let full = PibeConfig::full(Budget::P99_9999, DefenseSet::ALL);
        for s in [
            Setting::Rule2(12_000),
            Setting::Rule3(3_000),
            Setting::IcpCap(None),
            Setting::GreedyOrder,
        ] {
            assert_eq!(s.config(), Some(full), "{s:?}");
            assert!(s.label().ends_with("(paper)"), "{s:?}");
        }
        assert_eq!(Setting::BottomUpOrder.config(), None);
        assert!(!Setting::Rule2(3_000).label().ends_with("(paper)"));
    }

    #[test]
    fn table_has_one_row_per_point() {
        let lab = Lab::test();
        let (table, points) = ablations(&lab);
        assert_eq!(points.len(), Setting::all().len());
        assert_eq!(table.rows.len(), points.len());
        // The bottom-up point is built off the farm, and the four sweeps'
        // default points share one build.
        assert_eq!(lab.farm().stats().builds as usize, points.len() - 4);
    }

    #[test]
    fn rule2_overhead_does_not_rise_with_its_cap() {
        let lab = Lab::test();
        let series = [3_000, 6_000, 12_000, 24_000].map(|c| overhead(&lab, Setting::Rule2(c)));
        assert!(
            series.windows(2).all(|w| w[1] <= w[0]),
            "Rule 2 sweep 3000..24000: {series:?}"
        );
    }

    #[test]
    fn unlimited_icp_beats_capped_icp() {
        let lab = Lab::test();
        let [cap1, cap2, unlimited] =
            [Some(1), Some(2), None].map(|c| overhead(&lab, Setting::IcpCap(c)));
        assert!(
            unlimited < cap2 && cap2 < cap1,
            "ICP cap 1 / 2 / unlimited: {cap1:.2}% / {cap2:.2}% / {unlimited:.2}%"
        );
    }

    #[test]
    fn greedy_hot_first_beats_bottom_up() {
        let lab = Lab::test();
        let greedy = overhead(&lab, Setting::GreedyOrder);
        let bottom_up = overhead(&lab, Setting::BottomUpOrder);
        assert!(
            greedy < bottom_up,
            "greedy {greedy:.2}% vs LLVM bottom-up {bottom_up:.2}%"
        );
    }
}
