//! Recursion analysis over a module's static direct-call graph.

use crate::ids::FuncId;

/// Per-function recursion marks from a flat CSR adjacency:
/// `callees[offsets[i] .. offsets[i + 1]]` are function `i`'s direct
/// callees (with multiplicity). `offsets` has one trailing entry, so it is
/// one longer than the function count. A function is marked when it
/// participates in a call cycle, directly or mutually; such functions are
/// never inlining candidates (§5.2).
///
/// Indirect edges are not part of the static graph; they become visible
/// only through value profiles (`pibe-profile`), exactly as in the paper's
/// pipeline. Inlining only ever shortcuts existing paths, so the marks stay
/// valid while an inliner transforms the module.
pub fn recursive_marks(offsets: &[u32], callees: &[FuncId]) -> Vec<bool> {
    let n = offsets.len().saturating_sub(1);
    tarjan_recursive(n, |i| {
        &callees[offsets[i] as usize..offsets[i + 1] as usize]
    })
}

/// Marks every function that belongs to a nontrivial SCC or has a self loop,
/// using Tarjan's algorithm (iterative) over any slice-adjacency.
fn tarjan_recursive<'a>(n: usize, callees: impl Fn(usize) -> &'a [FuncId]) -> Vec<bool> {
    let mut index = vec![usize::MAX; n];
    let mut low = vec![0usize; n];
    let mut on_stack = vec![false; n];
    let mut stack: Vec<usize> = Vec::new();
    let mut recursive = vec![false; n];
    let mut counter = 0usize;

    for root in 0..n {
        if index[root] != usize::MAX {
            continue;
        }
        // Iterative Tarjan.
        let mut work: Vec<(usize, usize)> = vec![(root, 0)];
        index[root] = counter;
        low[root] = counter;
        counter += 1;
        stack.push(root);
        on_stack[root] = true;

        while let Some(&mut (node, ref mut child_idx)) = work.last_mut() {
            let outs = callees(node);
            if *child_idx < outs.len() {
                let next = outs[*child_idx].index();
                *child_idx += 1;
                if index[next] == usize::MAX {
                    index[next] = counter;
                    low[next] = counter;
                    counter += 1;
                    stack.push(next);
                    on_stack[next] = true;
                    work.push((next, 0));
                } else if on_stack[next] {
                    low[node] = low[node].min(index[next]);
                }
            } else {
                if low[node] == index[node] {
                    // Pop the SCC rooted at `node`.
                    let mut members = Vec::new();
                    loop {
                        let w = stack.pop().expect("tarjan stack underflow");
                        on_stack[w] = false;
                        members.push(w);
                        if w == node {
                            break;
                        }
                    }
                    if members.len() > 1 {
                        for &m in &members {
                            recursive[m] = true;
                        }
                    } else {
                        // Self-loop?
                        let m = members[0];
                        if callees(m).iter().any(|c| c.index() == m) {
                            recursive[m] = true;
                        }
                    }
                }
                work.pop();
                if let Some(&mut (parent, _)) = work.last_mut() {
                    low[parent] = low[parent].min(low[node]);
                }
            }
        }
    }
    recursive
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::FunctionBuilder;
    use crate::ids::SiteId;
    use crate::inst::OpKind;
    use crate::Module;

    /// Builds: main -> a -> b, a -> c, b <-> c (mutual recursion), d -> d.
    fn cyclic_module() -> (Module, Vec<FuncId>) {
        let mut m = Module::new("m");
        // Create placeholders first so we can forward-reference ids.
        let ids: Vec<FuncId> = (0..5)
            .map(|i| {
                let mut b = FunctionBuilder::new(format!("tmp{i}"), 0);
                b.ret();
                m.add_function(b.build())
            })
            .collect();
        let (main, a, bb, c, d) = (ids[0], ids[1], ids[2], ids[3], ids[4]);

        let rebuild = |m: &mut Module, id: FuncId, name: &str, calls: Vec<FuncId>| {
            let mut b = FunctionBuilder::new(name, 0);
            b.op(OpKind::Alu);
            for (i, callee) in calls.iter().enumerate() {
                b.call(
                    SiteId::from_raw(id.index() as u64 * 10 + i as u64),
                    *callee,
                    0,
                );
            }
            b.ret();
            let mut f = b.build();
            f.id = id;
            *m.function_mut(id) = f;
        };
        rebuild(&mut m, main, "main", vec![a]);
        rebuild(&mut m, a, "a", vec![bb, c]);
        rebuild(&mut m, bb, "b", vec![c]);
        rebuild(&mut m, c, "c", vec![bb]);
        rebuild(&mut m, d, "d", vec![d]);
        (m, ids)
    }

    #[test]
    fn recursion_detection_finds_cycles_and_self_loops() {
        let (m, ids) = cyclic_module();
        let (offsets, callees) = m.call_sites().call_graph();
        let recursive = recursive_marks(offsets, callees);
        let is_recursive = |f: FuncId| recursive[f.index()];
        assert!(!is_recursive(ids[0]), "main is acyclic");
        assert!(!is_recursive(ids[1]), "a is acyclic");
        assert!(is_recursive(ids[2]), "b is in a cycle");
        assert!(is_recursive(ids[3]), "c is in a cycle");
        assert!(is_recursive(ids[4]), "d self-recurses");
    }
}
