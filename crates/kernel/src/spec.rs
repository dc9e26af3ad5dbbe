//! Kernel generation parameters.

use serde::{Deserialize, Serialize};
use std::fmt;

/// Parameters of the synthetic kernel.
///
/// `scale = 1.0` targets the paper's Linux 5.1 static census (§8.6,
/// Tables 4, 10, 11): ~21 k indirect call sites, ~133 k return sites, 723
/// profiled indirect-call sites distributed per Table 4, 41 unhardenable
/// paravirt call sites, 5 assembly jump tables, ~1 400 compiler jump tables.
/// Smaller scales shrink the cold mass and the interface-site quotas
/// proportionally while keeping the hot-path *structure* (chain lengths,
/// subsystem sharing) identical — tests use [`KernelSpec::test`].
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct KernelSpec {
    /// Seed for all structural randomness (function sizes, site placement).
    pub seed: u64,
    /// Linear scale factor on site quotas and cold mass.
    pub scale: f64,
}

impl KernelSpec {
    /// Full paper-scale kernel (use for the table-regeneration binaries).
    pub fn paper() -> Self {
        KernelSpec {
            seed: 0x51BE,
            scale: 1.0,
        }
    }

    /// A small kernel for unit and integration tests (~2% of paper scale).
    pub fn test() -> Self {
        KernelSpec {
            seed: 0x51BE,
            scale: 0.02,
        }
    }

    /// Scales an absolute paper-census quota, keeping at least `min`.
    pub(crate) fn scaled(&self, paper_count: u64, min: u64) -> u64 {
        ((paper_count as f64 * self.scale).round() as u64).max(min)
    }
}

impl Default for KernelSpec {
    fn default() -> Self {
        Self::test()
    }
}

/// The generator's calibration knobs: the dynamic-behaviour parameters that
/// were tuned so the simulated kernel reproduces the paper's overhead
/// *shapes* (see EXPERIMENTS.md). Exposed so the calibration is inspectable
/// and sweepable rather than buried in the generator; `Default` is the
/// calibrated configuration every experiment uses.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct KernelTuning {
    /// Body-op range of shared helper leaves (`helper_*`).
    pub helper_ops: (usize, usize),
    /// Body-op range of hot utility leaves (`lib_*`).
    pub lib_ops: (usize, usize),
    /// Body-op range of ordinary hooks, and the heavy-tail range a
    /// `hook_tail_prob` fraction of hooks draw from instead (real LSM hooks
    /// straddle the inliner thresholds).
    pub hook_ops: (usize, usize),
    /// Heavy-tail body-op range for hooks and handlers.
    pub tail_ops: (usize, usize),
    /// Probability a hook is heavy-tailed.
    pub hook_tail_prob: f64,
    /// Probability a provider handler is heavy-tailed.
    pub handler_tail_prob: f64,
    /// Probability a hook is self-recursive (uninlinable; part of the
    /// residual defense cost, Table 9's "other").
    pub hook_recursion_prob: f64,
    /// Probability a hook is annotated `noinline`.
    pub hook_noinline_prob: f64,
    /// Probability a provider handler is annotated `noinline`.
    pub handler_noinline_prob: f64,
    /// Continue-probability (per mille) of the interface dispatch loop —
    /// how many times per traversal a notifier chain re-fires.
    pub dispatch_loop_permille: u16,
    /// Execution-gate tiers cycled across interface sites: the per-mille
    /// probability each site actually fires per traversal, giving site
    /// weights the heavy skew the paper's budget sweep depends on.
    pub gates: Vec<u16>,
}

impl Default for KernelTuning {
    fn default() -> Self {
        KernelTuning {
            helper_ops: (4, 14),
            lib_ops: (6, 24),
            hook_ops: (10, 24),
            tail_ops: (150, 400),
            hook_tail_prob: 0.08,
            handler_tail_prob: 0.10,
            hook_recursion_prob: 0.10,
            hook_noinline_prob: 0.08,
            handler_noinline_prob: 0.10,
            dispatch_loop_permille: 700,
            gates: vec![1000, 1000, 500, 120, 30, 8, 3, 3, 3, 3, 3, 3],
        }
    }
}

/// Who implements a dispatched operation — the tag workloads use to skew
/// indirect-call target distributions (a file benchmark resolves
/// `file_ops->read` to tmpfs, a web server to sockets).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum Provider {
    /// tmpfs (the paper's dbench runs on tmpfs).
    Tmpfs,
    /// A disk filesystem.
    Ext4,
    /// procfs-style virtual files.
    Proc,
    /// Sockets.
    Sock,
    /// Pipes and FIFOs.
    Pipe,
    /// Device files.
    Dev,
    /// Anything else (notifier chains, LSM hooks, timers, …).
    Generic,
}

impl Provider {
    /// All providers.
    pub const ALL: [Provider; 7] = [
        Provider::Tmpfs,
        Provider::Ext4,
        Provider::Proc,
        Provider::Sock,
        Provider::Pipe,
        Provider::Dev,
        Provider::Generic,
    ];
}

impl fmt::Display for Provider {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Provider::Tmpfs => "tmpfs",
            Provider::Ext4 => "ext4",
            Provider::Proc => "proc",
            Provider::Sock => "sock",
            Provider::Pipe => "pipe",
            Provider::Dev => "dev",
            Provider::Generic => "generic",
        };
        f.write_str(s)
    }
}

/// Kernel subsystems: each owns a shared trunk of hot functions that
/// several syscall paths flow through.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum Subsystem {
    /// VFS layer.
    Vfs,
    /// Network core + protocols.
    Net,
    /// Memory management.
    Mm,
    /// Scheduler / process management.
    Sched,
    /// Pipes, futexes, SysV IPC.
    Ipc,
    /// Signal delivery.
    Signal,
    /// LSM security hooks.
    Security,
}

impl Subsystem {
    /// All subsystems with trunks.
    pub const ALL: [Subsystem; 7] = [
        Subsystem::Vfs,
        Subsystem::Net,
        Subsystem::Mm,
        Subsystem::Sched,
        Subsystem::Ipc,
        Subsystem::Signal,
        Subsystem::Security,
    ];
}

impl fmt::Display for Subsystem {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Subsystem::Vfs => "vfs",
            Subsystem::Net => "net",
            Subsystem::Mm => "mm",
            Subsystem::Sched => "sched",
            Subsystem::Ipc => "ipc",
            Subsystem::Signal => "signal",
            Subsystem::Security => "security",
        };
        f.write_str(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scaled_respects_minimum() {
        let s = KernelSpec::test();
        assert!(s.scaled(100, 5) >= 5);
        assert_eq!(KernelSpec::paper().scaled(517, 1), 517);
    }

    #[test]
    fn presets_differ_in_scale_only() {
        assert!(KernelSpec::test().scale < KernelSpec::paper().scale);
        assert_eq!(KernelSpec::test().seed, KernelSpec::paper().seed);
    }

    #[test]
    fn provider_and_subsystem_display() {
        assert_eq!(Provider::Tmpfs.to_string(), "tmpfs");
        assert_eq!(Subsystem::Vfs.to_string(), "vfs");
        assert_eq!(Provider::ALL.len(), 7);
        assert_eq!(Subsystem::ALL.len(), 7);
    }
}
