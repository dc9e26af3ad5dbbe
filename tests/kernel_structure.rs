//! Structural properties of the synthetic kernel the experiments rely on.

use pibe_ir::{FuncId, Inst};
use pibe_kernel::workloads::{lmbench_suite, WorkloadSpec};
use pibe_kernel::{Kernel, KernelSpec, Provider, Syscall};
use pibe_passes::strip_unreachable;
use std::collections::HashSet;

fn kernel() -> Kernel {
    Kernel::generate(KernelSpec::test())
}

/// The functions dead-function elimination keeps for `roots` and
/// `address_taken`: everything reachable from them along direct calls.
fn reachable(k: &Kernel, roots: &[FuncId], address_taken: &[FuncId]) -> HashSet<FuncId> {
    let (_, map, _) = strip_unreachable(&k.module, roots, address_taken);
    k.module
        .func_ids()
        .filter(|&f| map.translate(f).is_some())
        .collect()
}

#[test]
fn every_entry_reaches_its_subsystem_trunks() {
    let k = kernel();
    for sc in Syscall::ALL {
        let reach = reachable(&k, &[k.entry(sc)], &[]);
        for sub in sc.trunks() {
            let head = k
                .module
                .find_function(&format!("{sub}_t0"))
                .expect("trunk head exists");
            assert!(reach.contains(&head), "{sc} must reach its {sub} trunk");
        }
    }
}

#[test]
fn shared_trunks_create_workload_overlap() {
    let k = kernel();
    let read = reachable(&k, &[k.entry(Syscall::Read)], &[]);
    let write = reachable(&k, &[k.entry(Syscall::Write)], &[]);
    let shared = read.intersection(&write).count();
    assert!(
        shared * 2 > read.len(),
        "read and write share most of their path ({} of {})",
        shared,
        read.len()
    );
    // But distinct syscalls are not identical.
    let fork = reachable(&k, &[k.entry(Syscall::ForkExit)], &[]);
    assert_ne!(read, fork);
}

#[test]
fn paravirt_sites_sit_on_reachable_paths() {
    let k = kernel();
    let roots: Vec<FuncId> = Syscall::ALL.iter().map(|s| k.entry(*s)).collect();
    let reach = reachable(&k, &roots, &[]);
    let reachable_pv = k
        .module
        .functions()
        .iter()
        .filter(|f| f.name().starts_with("pv_") && reach.contains(&f.id()))
        .count();
    assert!(
        reachable_pv >= 3,
        "paravirt helpers execute on hot paths: {reachable_pv}"
    );
}

#[test]
fn interface_targets_exist_and_are_callable() {
    let k = kernel();
    for site in &k.interface_sites {
        for (target, _) in &site.targets {
            assert!(target.index() < k.module.len(), "target in range");
            assert!(
                k.module.function(*target).return_sites() > 0,
                "targets return"
            );
        }
    }
}

#[test]
fn multi_target_sites_span_providers() {
    let k = kernel();
    let multi = k
        .interface_sites
        .iter()
        .filter(|s| !s.asm && s.targets.len() >= 3);
    let mut found_spanning = false;
    for site in multi {
        let providers: HashSet<Provider> = site.targets.iter().map(|(_, p)| *p).collect();
        if providers.len() >= 3 {
            found_spanning = true;
        }
    }
    assert!(
        found_spanning,
        "dispatch tables span provider implementations"
    );
}

#[test]
fn asm_sites_live_in_the_module_as_flagged_instructions() {
    let k = kernel();
    let asm_sites: HashSet<_> = k
        .interface_sites
        .iter()
        .filter(|s| s.asm)
        .map(|s| s.site)
        .collect();
    let mut found = 0;
    for f in k.module.functions() {
        for inst in f.insts() {
            if let Inst::CallIndirect {
                site, asm: true, ..
            } = inst
            {
                assert!(asm_sites.contains(site));
                found += 1;
            }
        }
    }
    assert_eq!(found, asm_sites.len());
}

#[test]
fn resolver_is_deterministic_per_workload() {
    let k = kernel();
    let a = WorkloadSpec::lmbench().resolver(&k);
    let b = WorkloadSpec::lmbench().resolver(&k);
    for s in &k.interface_sites {
        assert_eq!(a.get(s.site), b.get(s.site));
    }
}

#[test]
fn profiling_observes_only_reachable_direct_sites() {
    let k = kernel();
    let p = pibe_kernel::measure::collect_profile(
        &k,
        &WorkloadSpec::lmbench(),
        &lmbench_suite(4),
        1,
        5,
    )
    .unwrap();
    // Reachability must include indirect-call targets (handlers and hooks
    // are reached through dispatch, not direct edges).
    let roots: Vec<FuncId> = Syscall::ALL.iter().map(|s| k.entry(*s)).collect();
    let address_taken: Vec<FuncId> = k
        .interface_sites
        .iter()
        .flat_map(|s| s.targets.iter().map(|(f, _)| *f))
        .collect();
    let reach = reachable(&k, &roots, &address_taken);
    // Every profiled direct site must belong to a reachable function.
    let calls = k.module.call_sites();
    let site_owner: std::collections::HashMap<_, _> = k
        .module
        .func_ids()
        .flat_map(|f| calls.direct_calls(f).map(move |(site, _)| (site, f)))
        .collect();
    for (site, count) in p.iter_direct() {
        assert!(count > 0);
        let owner = site_owner[&site];
        assert!(
            reach.contains(&owner),
            "profiled site {site} lives in unreachable {owner}"
        );
    }
}

#[test]
fn asm_sites_never_appear_in_profiles() {
    let k = kernel();
    let p = pibe_kernel::measure::collect_profile(
        &k,
        &WorkloadSpec::lmbench(),
        &lmbench_suite(4),
        1,
        5,
    )
    .unwrap();
    for s in k.interface_sites.iter().filter(|s| s.asm) {
        assert_eq!(
            p.indirect_count(s.site),
            0,
            "compiler instrumentation cannot see inline asm ({})",
            s.site
        );
    }
}
