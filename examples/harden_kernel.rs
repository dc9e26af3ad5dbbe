//! End-to-end kernel hardening: the paper's whole pipeline in one run.
//!
//! Generates the synthetic kernel, collects the aggregated LMBench profile,
//! builds three production images (LTO, LTO + all defenses, PIBE + all
//! defenses), and reports the per-benchmark latencies and geometric-mean
//! overheads — a miniature of Tables 2 and 5.
//!
//! ```text
//! cargo run --release --example harden_kernel
//! ```

use pibe::experiments::Lab;
use pibe::PibeConfig;
use pibe_harden::DefenseSet;
use pibe_kernel::KernelSpec;

fn main() {
    println!("generating kernel and collecting the LMBench profile...");
    let lab = Lab::new(
        KernelSpec {
            scale: 0.05,
            ..KernelSpec::paper()
        },
        16,
        3,
    )
    .expect("profiling the pristine kernel succeeds");
    let census = lab.kernel.module.census();
    println!(
        "kernel: {} functions, {} indirect call sites, {} return sites, {} jump tables",
        lab.kernel.module.len(),
        census.indirect_calls,
        census.returns,
        census.indirect_jumps
    );
    println!(
        "profile: {} direct sites, {} indirect sites observed\n",
        lab.profile.stats().direct_sites,
        lab.profile.stats().indirect_sites
    );

    let unopt = PibeConfig::lto_with(DefenseSet::ALL);
    let pibe = lab.image(&PibeConfig::lax(DefenseSet::ALL));

    let unopt_rows = &lab.measure(&unopt).rows;
    let pibe_rows = &lab.measure(&pibe.config).rows;

    println!(
        "{:>14} | {:>10} | {:>12} | {:>10}",
        "benchmark", "LTO (us)", "all-def (us)", "PIBE (us)"
    );
    println!("{}", "-".repeat(58));
    for ((base, u), p) in lab.lto_latencies.iter().zip(unopt_rows).zip(pibe_rows) {
        println!(
            "{:>14} | {:>10.2} | {:>12.2} | {:>10.2}",
            base.name, base.micros, u.micros, p.micros
        );
    }
    println!("{}", "-".repeat(58));
    println!(
        "geomean overhead vs LTO:  all defenses {:+.1}%   PIBE + all defenses {:+.1}%",
        lab.geomean(unopt_rows),
        lab.geomean(pibe_rows)
    );

    let inl = pibe.inline_stats.expect("inliner ran");
    let icp = pibe.icp_stats.clone().expect("icp ran");
    println!(
        "\nPIBE elided {} indirect-call targets and {} call/return pairs \
         ({} of candidate weight promoted, image grew {:.1}%)",
        icp.promoted_targets,
        inl.inlined_sites,
        icp.promoted_weight,
        (pibe.module.code_bytes() as f64 / lab.kernel.module.code_bytes() as f64 - 1.0) * 100.0
    );
    println!(
        "residual attack surface: {} vulnerable icalls (paravirt asm), {} vulnerable ijumps",
        pibe.audit.vulnerable_icalls, pibe.audit.vulnerable_ijumps
    );
}
