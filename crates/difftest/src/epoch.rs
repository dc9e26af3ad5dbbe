//! The incremental-vs-full bit-identity oracle for the serve loop.
//!
//! The continuous-PGO service maintains its image *incrementally*: no-drift
//! epochs skip the pipeline entirely (decision-surface equality), and only
//! drifting epochs rebuild. The contract is that the skipping is never
//! observable in the output: at any epoch,
//! the served image must be **bit-identical** to what a from-scratch
//! pipeline run over the same cumulative profile would produce. This
//! module is the judge — it compares the canonical textual rendering of
//! both modules (the same total representation the printer round-trips)
//! and, on mismatch, names the first function whose rendering diverges.

use pibe_ir::Module;
use std::fmt;

/// A bit-identity violation: the incremental image diverged from the
/// from-scratch rebuild.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EpochMismatch {
    /// Function count of the incremental image.
    pub incremental_functions: usize,
    /// Function count of the from-scratch image.
    pub full_functions: usize,
    /// The first diverging function's name and index, when both modules
    /// have the same function count (`None` when the counts differ —
    /// that *is* the divergence).
    pub first_divergence: Option<(usize, String)>,
}

impl fmt::Display for EpochMismatch {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.incremental_functions != self.full_functions {
            write!(
                f,
                "incremental image has {} functions, from-scratch has {}",
                self.incremental_functions, self.full_functions
            )
        } else {
            match &self.first_divergence {
                Some((idx, name)) => write!(
                    f,
                    "images diverge at function #{idx} ({name}): renderings differ"
                ),
                None => write!(f, "module headers or site watermarks diverge"),
            }
        }
    }
}

impl std::error::Error for EpochMismatch {}

/// Checks that `incremental` and `full` are bit-identical under the
/// canonical rendering.
///
/// # Errors
/// Returns an [`EpochMismatch`] locating the first divergence.
pub fn bit_identical(incremental: &Module, full: &Module) -> Result<(), EpochMismatch> {
    if incremental.to_string() == full.to_string() {
        return Ok(());
    }
    let mismatch = if incremental.len() != full.len() {
        EpochMismatch {
            incremental_functions: incremental.len(),
            full_functions: full.len(),
            first_divergence: None,
        }
    } else {
        let first = incremental
            .functions()
            .iter()
            .zip(full.functions())
            .enumerate()
            .find(|(_, (a, b))| format!("{a:?}") != format!("{b:?}"))
            .map(|(i, (a, _))| (i, a.name().to_string()));
        EpochMismatch {
            incremental_functions: incremental.len(),
            full_functions: full.len(),
            first_divergence: first,
        }
    };
    Err(mismatch)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pibe_ir::{FunctionBuilder, OpKind};

    fn module(ops: usize) -> Module {
        let mut m = Module::new("m");
        let mut b = FunctionBuilder::new("f", 0);
        for _ in 0..ops {
            b.op(OpKind::Alu);
        }
        b.ret();
        m.add_function(b.build());
        m
    }

    #[test]
    fn identical_modules_pass() {
        assert_eq!(bit_identical(&module(3), &module(3)), Ok(()));
    }

    #[test]
    fn divergence_names_the_function() {
        let err = bit_identical(&module(3), &module(4)).unwrap_err();
        assert_eq!(err.first_divergence, Some((0, "f".to_string())));
        assert!(err.to_string().contains("function #0 (f)"));
    }

    #[test]
    fn function_count_mismatch_is_reported_as_such() {
        let mut bigger = module(3);
        let mut b = FunctionBuilder::new("g", 0);
        b.ret();
        bigger.add_function(b.build());
        let err = bit_identical(&module(3), &bigger).unwrap_err();
        assert_eq!((err.incremental_functions, err.full_functions), (1, 2));
        assert!(err.first_divergence.is_none());
        assert!(err.to_string().contains("1 functions"));
    }
}
