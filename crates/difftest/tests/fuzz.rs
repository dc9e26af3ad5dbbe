//! The differential fuzzer: run the oracle over a window of seeds.
//!
//! The window is `[PIBE_DIFFTEST_BASE, PIBE_DIFFTEST_BASE +
//! PIBE_DIFFTEST_SEEDS)`, defaulting to seeds 0..500. CI runs the default
//! window; a soak run just sets a bigger `PIBE_DIFFTEST_SEEDS` (see
//! EXPERIMENTS.md, "Running the difftest fuzzer").

use pibe_difftest::{
    fixture, gen_case, run_fast_path_oracle, run_inline_replay_oracle, run_oracle, run_oracle_at,
    GenConfig,
};
use pibe_harden::Arch;

fn env_u64(name: &str, default: u64) -> u64 {
    std::env::var(name)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

#[test]
fn every_pipeline_stage_is_trace_equivalent_over_the_seed_window() {
    let base = env_u64("PIBE_DIFFTEST_BASE", 0);
    let count = env_u64("PIBE_DIFFTEST_SEEDS", 500);
    let cfg = GenConfig::default();
    let mut events = 0usize;
    for seed in base..base + count {
        let case = gen_case(seed, &cfg);
        match run_oracle(&case, None) {
            Ok(report) => events += report.events,
            Err(d) => panic!(
                "seed {seed} diverged: {d}\n\nreplayable fixture:\n{}",
                fixture::to_text(&case, &format!("diverging seed {seed}: {d}"))
            ),
        }
    }
    assert!(
        events > count as usize,
        "the window produced suspiciously few observable events"
    );
}

/// The simulator charges runs of plain ops in one step when it collects no
/// trace; over the same window, every case and stage image must give the
/// same call results and statistics both ways, including when the step
/// limit trips inside a run.
#[test]
fn the_simulator_fast_path_matches_per_instruction_stepping_over_the_seed_window() {
    let base = env_u64("PIBE_DIFFTEST_BASE", 0);
    let count = env_u64("PIBE_DIFFTEST_SEEDS", 500);
    let cfg = GenConfig::default();
    for seed in base..base + count {
        let case = gen_case(seed, &cfg);
        if let Err(d) = run_fast_path_oracle(&case) {
            panic!(
                "seed {seed} diverged: {d}\n\nreplayable fixture:\n{}",
                fixture::to_text(&case, &format!("diverging seed {seed}: {d}"))
            );
        }
    }
}

/// The inliner finds each popped call through a position hint; over the
/// same window, its output must equal replaying its accepted inlines
/// through `inline_call_site`, which finds them with `find_call`.
#[test]
fn the_inliner_matches_its_find_call_replay_over_the_seed_window() {
    let base = env_u64("PIBE_DIFFTEST_BASE", 0);
    let count = env_u64("PIBE_DIFFTEST_SEEDS", 500);
    let cfg = GenConfig::default();
    let mut accepted = 0usize;
    for seed in base..base + count {
        let case = gen_case(seed, &cfg);
        match run_inline_replay_oracle(&case) {
            Ok(n) => accepted += n,
            Err(d) => panic!(
                "seed {seed} diverged: {d}\n\nreplayable fixture:\n{}",
                fixture::to_text(&case, &format!("diverging seed {seed}: {d}"))
            ),
        }
    }
    assert!(accepted > 0, "the window inlined nothing");
}

/// The same oracle under every non-default defense backend, over a window
/// an order of magnitude smaller than the x86 one (the transform is the
/// identity for hardware CFI, so the stages under test are ICP, inlining,
/// and DCE interacting with the backend-keyed pipeline).
#[test]
fn every_backend_is_trace_equivalent_over_the_seed_window() {
    let base = env_u64("PIBE_DIFFTEST_BASE", 0);
    let count = env_u64("PIBE_DIFFTEST_SEEDS", 500).div_ceil(10).max(1);
    let cfg = GenConfig::default();
    for arch in [Arch::Arm64, Arch::Riscv64, Arch::Riscv64Nop] {
        let mut events = 0usize;
        for seed in base..base + count {
            let case = gen_case(seed, &cfg);
            match run_oracle_at(&case, None, arch) {
                Ok(report) => events += report.events,
                Err(d) => panic!(
                    "seed {seed} diverged on {}: {d}\n\nreplayable fixture:\n{}",
                    arch.name(),
                    fixture::to_text(
                        &case,
                        &format!("diverging seed {seed} on {}: {d}", arch.name())
                    )
                ),
            }
        }
        assert!(events > 0, "{} window observed no events", arch.name());
    }
}
