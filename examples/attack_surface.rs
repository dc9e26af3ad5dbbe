//! Security evaluation demo: which dynamic branch executions could an
//! attacker hijack under each defense posture? (§8.6)
//!
//! Runs the LMBench suite against four kernels — undefended, retpolines
//! only, and fully hardened with and without PIBE — counting every
//! executed indirect branch an attacker could poison (BTB for Spectre V2,
//! RSB for Ret2spec, unfenced loads for LVI). The fully hardened kernels
//! are clean except for the paravirt inline-assembly hypercalls, which no
//! compiler-based defense can reach (Table 11's residual 41 sites).
//!
//! ```text
//! cargo run --release --example attack_surface
//! ```

use pibe::experiments::Lab;
use pibe::PibeConfig;
use pibe_harden::DefenseSet;
use pibe_kernel::KernelSpec;
use pibe_sim::SimConfig;

fn main() {
    let lab = Lab::new(KernelSpec::test(), 8, 2).expect("profiling run succeeds");
    println!(
        "{:>26} | {:>12} | {:>12} | {:>12} | {:>12}",
        "kernel", "V2 icalls", "V2 ijumps", "ret2spec", "LVI loads"
    );
    println!("{}", "-".repeat(88));

    let postures: [(&str, PibeConfig); 4] = [
        ("undefended LTO", PibeConfig::lto()),
        (
            "retpolines only",
            PibeConfig::lto_with(DefenseSet::RETPOLINES),
        ),
        ("all defenses", PibeConfig::lto_with(DefenseSet::ALL)),
        ("all defenses + PIBE", PibeConfig::lax(DefenseSet::ALL)),
    ];

    for (name, config) in postures {
        let report = lab.measure(&config).attacks;
        println!(
            "{:>26} | {:>12} | {:>12} | {:>12} | {:>12}",
            name,
            report.btb_hijackable_icalls,
            report.btb_hijackable_ijumps,
            report.rsb_hijackable_rets,
            report.lvi_injectable
        );
    }

    // The kernel's ad-hoc alternative for backward edges: RSB refilling
    // (§6.4). It blocks userspace-to-kernel poisoning but stops helping
    // once a deep call chain overflows the RSB — unlike return retpolines.
    let refill_report = lab
        .evaluate(
            &PibeConfig::lto(),
            SimConfig {
                rsb_refill: true,
                ..SimConfig::default()
            },
        )
        .attacks;
    println!(
        "{:>26} | {:>12} | {:>12} | {:>12} | {:>12}",
        "RSB refilling only",
        refill_report.btb_hijackable_icalls,
        refill_report.btb_hijackable_ijumps,
        refill_report.rsb_hijackable_rets,
        refill_report.lvi_injectable
    );

    println!(
        "\nThe residual hijackable executions under 'all defenses' come from the \
         paravirt\ninline-assembly hypercall sites the compiler cannot instrument; \
         inlining under\nPIBE duplicates those sites (Table 11), so the count can \
         *rise* even as every\ncompiler-visible branch stays protected."
    );

    // Static view (Table 11).
    let unopt = lab.image(&PibeConfig::lto_with(DefenseSet::ALL));
    let pibe = lab.image(&PibeConfig::lax(DefenseSet::ALL));
    println!(
        "\nstatic audit (all defenses):        unoptimized            PIBE\n  \
         protected icalls {:>18} {:>18}\n  vulnerable icalls{:>18} {:>18}\n  \
         vulnerable ijumps{:>18} {:>18}",
        unopt.audit.protected_icalls,
        pibe.audit.protected_icalls,
        unopt.audit.vulnerable_icalls,
        pibe.audit.vulnerable_icalls,
        unopt.audit.vulnerable_ijumps,
        pibe.audit.vulnerable_ijumps,
    );
}
