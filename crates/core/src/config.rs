//! Pipeline configuration: the paper's evaluated build configurations.

use pibe_harden::{Arch, DefenseSet};
use pibe_passes::{IcpConfig, InlinerConfig};
use pibe_profile::Budget;
use pibe_sim::SimConfig;
use serde::{Deserialize, Serialize};

/// One kernel build configuration: which optimizations run (and at what
/// budget), which defenses harden the result, and for which architecture.
///
/// Configurations are `Eq + Hash`: the [`ImageFarm`](crate::ImageFarm)
/// content-keys its build cache on the full configuration, so two requests
/// for the same configuration share one built image.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct PibeConfig {
    /// Indirect call promotion, if enabled.
    pub icp: Option<IcpConfig>,
    /// The security inliner, if enabled.
    pub inliner: Option<InlinerConfig>,
    /// Dead-function elimination after the optimization passes (the
    /// `--gc-sections` analogue). Roots and address-taken functions are
    /// derived from the call graph and the profile's value profiles, so the
    /// pass trusts the profile to name every dynamically reachable target —
    /// exactly like real DCE trusts relocation/address-taken information.
    pub dce: bool,
    /// Defenses applied to the remaining branches.
    pub defenses: DefenseSet,
    /// The target architecture, selecting the
    /// [`DefenseBackend`](pibe_harden::DefenseBackend) that interprets
    /// `defenses` (cost model, transform semantics, auditor rules). The
    /// default [`Arch::X86`] keeps every pre-existing constant and
    /// serialized configuration meaning exactly what it did before the
    /// field existed.
    pub arch: Arch,
}

impl PibeConfig {
    /// Starts a fluent [`PibeConfigBuilder`] at the LTO baseline (no
    /// optimization, no defenses, x86). The preferred way
    /// to assemble a configuration; the named constructors below are thin
    /// wrappers kept for the existing call sites.
    pub fn builder() -> PibeConfigBuilder {
        PibeConfigBuilder::default()
    }

    /// The LTO baseline: no profile-guided optimization, no defenses —
    /// "how Linux is typically deployed" (§8.1).
    pub fn lto() -> Self {
        Self::builder().build()
    }

    /// The simulator configuration that runs this configuration's image as
    /// built: its defenses, charged by its architecture's backend.
    pub fn sim_config(&self) -> SimConfig {
        SimConfig {
            defenses: self.defenses,
            arch: self.arch,
            ..SimConfig::default()
        }
    }

    /// LTO plus defenses, still no optimization (the costly upper rows of
    /// Tables 3 and 5).
    ///
    /// **Deprecated** in favor of
    /// `PibeConfig::builder().defenses(d).build()`; kept as a thin wrapper
    /// for existing call sites.
    pub fn lto_with(defenses: DefenseSet) -> Self {
        Self::builder().defenses(defenses).build()
    }

    /// Indirect call promotion only, at `budget` (Table 3's "+icp"
    /// columns; paired with retpolines in the paper).
    ///
    /// **Deprecated** in favor of
    /// `PibeConfig::builder().icp(budget).defenses(d).build()`; kept as a
    /// thin wrapper for existing call sites.
    pub fn icp_only(budget: Budget, defenses: DefenseSet) -> Self {
        Self::builder().icp(budget).defenses(defenses).build()
    }

    /// Both optimizations at `budget` (Table 5's "+icp +inlining" columns).
    ///
    /// **Deprecated** in favor of
    /// `PibeConfig::builder().icp(budget).inliner(budget).defenses(d).build()`;
    /// kept as a thin wrapper for existing call sites.
    pub fn full(budget: Budget, defenses: DefenseSet) -> Self {
        Self::builder()
            .icp(budget)
            .inliner(budget)
            .defenses(defenses)
            .build()
    }

    /// The paper's optimal configuration (§8.3): budget 99.9999% with the
    /// size heuristics disabled for sites inside the 99% prefix
    /// ("lax heuristics"), reducing the comprehensive defense to 10.6%.
    ///
    /// **Deprecated** in favor of
    /// `PibeConfig::builder().lax().defenses(d).build()`; kept as a thin
    /// wrapper for existing call sites.
    pub fn lax(defenses: DefenseSet) -> Self {
        Self::builder().lax().defenses(defenses).build()
    }

    /// Enables (or disables) dead-function elimination after the
    /// optimization passes.
    pub fn with_dce(mut self, dce: bool) -> Self {
        self.dce = dce;
        self
    }

    /// Replaces the target architecture (and thus the defense backend).
    pub fn with_arch(mut self, arch: Arch) -> Self {
        self.arch = arch;
        self
    }

    /// The PIBE performance baseline of Table 2: the best optimization
    /// configuration with *no* defenses ("tuned to give the best possible
    /// performance on the LMBench test suite").
    pub fn pibe_baseline() -> Self {
        Self::builder().lax().build()
    }

    /// Whether any optimization pass runs.
    pub fn optimizes(&self) -> bool {
        self.icp.is_some() || self.inliner.is_some()
    }

    /// The defense backend selected by [`PibeConfig::arch`].
    pub fn backend(&self) -> &'static dyn pibe_harden::DefenseBackend {
        self.arch.backend()
    }
}

/// Fluent builder for [`PibeConfig`], starting from the LTO baseline.
///
/// ```
/// use pibe::PibeConfig;
/// use pibe_harden::{Arch, DefenseSet};
/// use pibe_profile::Budget;
///
/// let c = PibeConfig::builder()
///     .icp(Budget::P99_9)
///     .inliner(Budget::P99_9)
///     .defenses(DefenseSet::ALL)
///     .arch(Arch::Arm64)
///     .build();
/// assert!(c.optimizes());
/// assert_eq!(c.arch, Arch::Arm64);
/// ```
#[derive(Debug, Clone, Copy)]
pub struct PibeConfigBuilder {
    config: PibeConfig,
}

impl Default for PibeConfigBuilder {
    fn default() -> Self {
        PibeConfigBuilder {
            config: PibeConfig {
                icp: None,
                inliner: None,
                dce: false,
                defenses: DefenseSet::NONE,
                arch: Arch::X86,
            },
        }
    }
}

impl PibeConfigBuilder {
    /// Enables indirect call promotion at `budget` (default ICP settings).
    pub fn icp(mut self, budget: Budget) -> Self {
        self.config.icp = Some(IcpConfig {
            budget,
            max_targets_per_site: None,
        });
        self
    }

    /// Enables indirect call promotion with an explicit [`IcpConfig`].
    pub fn icp_config(mut self, icp: IcpConfig) -> Self {
        self.config.icp = Some(icp);
        self
    }

    /// Enables the security inliner at `budget` (default heuristics).
    pub fn inliner(mut self, budget: Budget) -> Self {
        self.config.inliner = Some(InlinerConfig {
            budget,
            ..InlinerConfig::default()
        });
        self
    }

    /// Enables the security inliner with an explicit [`InlinerConfig`].
    pub fn inliner_config(mut self, inliner: InlinerConfig) -> Self {
        self.config.inliner = Some(inliner);
        self
    }

    /// Configures both passes as the paper's optimal §8.3 setup: budget
    /// 99.9999% with lax size heuristics inside the 99% prefix.
    pub fn lax(mut self) -> Self {
        self.config.icp = Some(IcpConfig {
            budget: Budget::P99_9999,
            max_targets_per_site: None,
        });
        self.config.inliner = Some(InlinerConfig {
            budget: Budget::P99_9999,
            lax_heuristics: true,
            lax_budget: Budget::P99,
            ..InlinerConfig::default()
        });
        self
    }

    /// Selects the defenses applied to the remaining branches.
    pub fn defenses(mut self, defenses: DefenseSet) -> Self {
        self.config.defenses = defenses;
        self
    }

    /// Selects the target architecture / defense backend.
    pub fn arch(mut self, arch: Arch) -> Self {
        self.config.arch = arch;
        self
    }

    /// Enables (or disables) dead-function elimination.
    pub fn dce(mut self, dce: bool) -> Self {
        self.config.dce = dce;
        self
    }

    /// Finishes the build.
    pub fn build(self) -> PibeConfig {
        self.config
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lto_neither_optimizes_nor_defends() {
        let c = PibeConfig::lto();
        assert!(!c.optimizes());
        assert!(c.defenses.is_none());
    }

    #[test]
    fn full_config_runs_both_passes_at_one_budget() {
        let c = PibeConfig::full(Budget::P99_9, DefenseSet::ALL);
        assert_eq!(c.icp.unwrap().budget, Budget::P99_9);
        assert_eq!(c.inliner.unwrap().budget, Budget::P99_9);
        assert_eq!(c.defenses, DefenseSet::ALL);
        assert!(c.optimizes());
    }

    #[test]
    fn lax_config_matches_section_8_3() {
        let c = PibeConfig::lax(DefenseSet::ALL);
        let inl = c.inliner.unwrap();
        assert!(inl.lax_heuristics);
        assert_eq!(inl.budget, Budget::P99_9999);
        assert_eq!(inl.lax_budget, Budget::P99);
    }

    #[test]
    fn pibe_baseline_has_no_defenses() {
        assert!(PibeConfig::pibe_baseline().defenses.is_none());
        assert!(PibeConfig::pibe_baseline().optimizes());
    }

    #[test]
    fn dce_defaults_off_and_keys_the_cache() {
        let c = PibeConfig::lax(DefenseSet::ALL);
        assert!(!c.dce, "dce is opt-in");
        let d = c.with_dce(true);
        assert!(d.dce);
        // Part of the farm's content key, like the arch.
        assert_ne!(c, d);
    }

    #[test]
    fn builder_reproduces_every_named_constructor() {
        assert_eq!(PibeConfig::builder().build(), PibeConfig::lto());
        assert_eq!(
            PibeConfig::builder().defenses(DefenseSet::ALL).build(),
            PibeConfig::lto_with(DefenseSet::ALL)
        );
        assert_eq!(
            PibeConfig::builder()
                .icp(Budget::P99_9)
                .defenses(DefenseSet::RETPOLINES)
                .build(),
            PibeConfig::icp_only(Budget::P99_9, DefenseSet::RETPOLINES)
        );
        assert_eq!(
            PibeConfig::builder()
                .icp(Budget::P99_9)
                .inliner(Budget::P99_9)
                .defenses(DefenseSet::ALL)
                .build(),
            PibeConfig::full(Budget::P99_9, DefenseSet::ALL)
        );
        assert_eq!(
            PibeConfig::builder()
                .lax()
                .defenses(DefenseSet::ALL)
                .build(),
            PibeConfig::lax(DefenseSet::ALL)
        );
    }

    #[test]
    fn arch_defaults_to_x86_and_keys_the_cache() {
        let c = PibeConfig::lax(DefenseSet::ALL);
        assert_eq!(c.arch, Arch::X86, "existing constructors stay x86");
        let arm = c.with_arch(Arch::Arm64);
        assert_eq!(arm.arch, Arch::Arm64);
        // Part of the farm's content key: per-arch builds never alias.
        assert_ne!(c, arm);
        assert_eq!(arm.backend().name(), "arm-pac-bti");
    }
}
