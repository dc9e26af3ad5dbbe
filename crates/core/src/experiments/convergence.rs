//! Profiling convergence: how many profiling rounds are enough?
//!
//! The paper aggregates 11 LMBench iterations "to obtain an exact profiling
//! workload" (§8). This experiment measures what those extra rounds buy:
//! the optimization-candidate overlap between an n-round profile and the
//! lab's full reference profile, at the 99.9% budget. Hot candidates
//! stabilise almost immediately (they dominate every round); the tail —
//! rarely-taken hooks, low-weight targets — is what the extra rounds
//! gradually pick up.

use super::{ExperimentError, Lab, PREFIX_ROUNDS};
use crate::report::{pct, Table};
use pibe_kernel::measure::merge_profile_rounds;
use pibe_profile::{overlap, Budget};
use serde::{Deserialize, Serialize};

/// Overlap of an n-round profile's candidates with the reference profile.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ConvergencePoint {
    /// Profiling rounds aggregated.
    pub rounds: u32,
    /// ICP candidate-weight overlap with the reference (%).
    pub icp_shared_pct: f64,
    /// Inlining candidate-weight overlap with the reference (%).
    pub inline_shared_pct: f64,
}

/// Measures candidate overlap for 1, 2, 4, and 8 aggregated rounds against
/// the lab's reference profile. Each n-round profile is the one
/// [`Lab::new`] kept on the way to its own profile; round counts above the
/// lab's are reached by continuing the lab's profile, so no round is
/// simulated twice.
///
/// # Errors
/// [`ExperimentError::Profiling`] naming the round count and seed when one
/// of the continued profiling runs fails.
pub fn profiling_convergence(lab: &Lab) -> Result<(Table, Vec<ConvergencePoint>), ExperimentError> {
    let mut table = Table::new(
        "Profiling convergence: candidate overlap with the reference profile (99.9% budget)",
        &[
            "rounds",
            "icp candidates shared",
            "inline candidates shared",
        ],
    );
    let last = PREFIX_ROUNDS[PREFIX_ROUNDS.len() - 1];
    let mut continued = Vec::new();
    if last > lab.rounds {
        let mut merged = lab.profile.clone();
        merge_profile_rounds(
            &lab.kernel,
            &lab.workload,
            &lab.suite,
            &mut merged,
            lab.rounds..last,
            lab.seed,
            |n, p| {
                if PREFIX_ROUNDS.contains(&n) {
                    continued.push((n, p.clone()));
                }
            },
        )
        .map_err(|source| ExperimentError::Profiling {
            workload: format!("{} ({last} rounds)", lab.workload.name),
            seed: lab.seed,
            source,
        })?;
    }
    let mut out = Vec::new();
    for rounds in PREFIX_ROUNDS {
        let p = lab.profile_after(rounds).unwrap_or_else(|| {
            continued
                .iter()
                .find(|(n, _)| *n == rounds)
                .map(|(_, p)| p)
                .expect("every round count is kept or continued")
        });
        let ov = overlap::overlap(&lab.profile, p, Budget::P99_9);
        let point = ConvergencePoint {
            rounds,
            icp_shared_pct: ov.icp_shared_weight * 100.0,
            inline_shared_pct: ov.inline_shared_weight * 100.0,
        };
        table.row(vec![
            rounds.to_string(),
            pct(point.icp_shared_pct),
            pct(point.inline_shared_pct),
        ]);
        out.push(point);
    }
    Ok((table, out))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn one_round_already_captures_most_hot_weight() {
        let lab = Lab::test();
        let (_, points) = profiling_convergence(&lab).expect("convergence experiment runs");
        assert_eq!(points.len(), 4);
        // Even a single round covers the bulk of the candidate weight —
        // hot sites dominate every round.
        assert!(
            points[0].inline_shared_pct > 60.0,
            "round 1 inline overlap: {:.1}%",
            points[0].inline_shared_pct
        );
        // More rounds never lose ground dramatically (hot sets are stable).
        let last = points.last().unwrap();
        assert!(last.icp_shared_pct >= points[0].icp_shared_pct - 5.0);
        assert!(last.inline_shared_pct > 75.0);
    }
}
