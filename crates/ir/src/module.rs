//! Modules: the unit of whole-program optimization.
//!
//! A [`Module`] owns its functions behind `Arc`s (copy-on-write) and keys
//! them by dense [`FuncId`]s; names are interned [`Symbol`]s, so
//! [`Module::find_function`] is an interner lookup plus a `u32` scan, never
//! a string comparison per function.
//!
//! ```
//! use pibe_ir::{FunctionBuilder, Module, OpKind, BlockId};
//!
//! let mut m = Module::new("doc");
//! let mut b = FunctionBuilder::new("leaf", 0);
//! b.ops(OpKind::Alu, 2);
//! b.ret();
//! let id = m.add_function(b.build());
//!
//! // Blocks are (start, len) ranges over one flat instruction pool.
//! let f = m.function(id);
//! assert_eq!(f.num_blocks(), 1);
//! assert_eq!(f.block(BlockId::ENTRY).insts().len(), 2);
//! assert_eq!(f.iter_insts().count(), 2);
//! assert_eq!(m.find_function("leaf"), Some(id));
//! ```

use crate::func::Function;
use crate::ids::{FuncId, SiteId, Symbol};
use crate::inst::{Inst, Terminator};
use crate::verify::{self, VerifyError};
use serde::{Deserialize, Serialize};
use std::fmt;
use std::sync::{Arc, OnceLock};

/// A whole program: the analogue of the paper's LTO-linked kernel bitcode.
///
/// All of PIBE's passes are interprocedural and operate on a `Module`.
///
/// Functions are stored behind [`Arc`]s, making the module **copy-on-write**:
/// `Module::clone` is O(#functions) pointer bumps with full structural
/// sharing, and only [`Module::function_mut`] (via [`Arc::make_mut`])
/// materialises a private copy of the one function actually written. This is
/// what makes the pipeline's and the farm's per-build base clones
/// proportional to *hot work* instead of module size. Passes must therefore
/// check read-only whether a function needs changing before calling
/// `function_mut` — an unconditional write walk would degrade CoW back into
/// a deep copy.
///
/// # Memoized analyses
///
/// The module's [`CallSites`] table is computed on the first
/// [`Module::call_sites`] call and kept until a `&mut self` method clears
/// it. `Clone` shares it (a snapshot has the same sites), and it is
/// invisible to `Debug`, serialization and printing.
#[derive(Clone)]
pub struct Module {
    name: String,
    functions: Vec<Arc<Function>>,
    next_site: u64,
    call_sites: OnceLock<Arc<CallSites>>,
}

/// A module's call table, as returned by [`Module::call_sites`]: the
/// sorted, deduplicated call-site ids of each call kind, every function's
/// direct calls as CSR columns, and the owner of every unresolved indirect
/// site.
///
/// Site ids are arbitrary `u64`s (a text-parsed module can carry any), so
/// membership and owner lookups are binary searches rather than dense
/// bitmaps.
#[derive(Debug, Default, PartialEq, Eq)]
pub struct CallSites {
    direct: Vec<SiteId>,
    indirect: Vec<SiteId>,
    /// Function `i`'s direct calls are `calls[offsets[i]..offsets[i + 1]]`
    /// and `callees[..]` over the same range, in flat-pool order.
    offsets: Vec<u32>,
    calls: Vec<SiteId>,
    callees: Vec<FuncId>,
    /// `(site, owner, asm)` per unresolved indirect site, sorted by site.
    owners: Vec<(SiteId, FuncId, bool)>,
}

impl CallSites {
    fn scan(functions: &[Arc<Function>]) -> Self {
        let mut t = CallSites {
            offsets: vec![0],
            ..CallSites::default()
        };
        for f in functions {
            // Flat pool scan: tombstones are plain ops and cannot match.
            for inst in f.insts() {
                match inst {
                    Inst::Call { site, callee, .. } => {
                        t.calls.push(*site);
                        t.callees.push(*callee);
                    }
                    Inst::CallIndirect {
                        site,
                        resolved,
                        asm,
                        ..
                    } => {
                        t.indirect.push(*site);
                        if !resolved {
                            t.owners.push((*site, f.id(), *asm));
                        }
                    }
                    _ => {}
                }
            }
            t.offsets.push(t.calls.len() as u32);
        }
        t.direct.clone_from(&t.calls);
        for sites in [&mut t.direct, &mut t.indirect] {
            sites.sort_unstable();
            sites.dedup();
        }
        // A stable sort keeps each site's instances in module, then pool,
        // order, so the dedup keeps the owner rule's instance.
        t.owners.sort_by_key(|o| o.0);
        t.owners.dedup_by_key(|o| o.0);
        t
    }

    /// True when `site` is a direct call site of the module.
    pub fn has_direct(&self, site: SiteId) -> bool {
        self.direct.binary_search(&site).is_ok()
    }

    /// True when `site` is an indirect call site of the module.
    pub fn has_indirect(&self, site: SiteId) -> bool {
        self.indirect.binary_search(&site).is_ok()
    }

    /// Function `f`'s direct calls `(site, callee)` in flat-pool order.
    ///
    /// # Panics
    /// Panics if `f` is out of range.
    pub fn direct_calls(&self, f: FuncId) -> impl Iterator<Item = (SiteId, FuncId)> + '_ {
        let range = self.offsets[f.index()] as usize..self.offsets[f.index() + 1] as usize;
        self.calls[range.clone()]
            .iter()
            .copied()
            .zip(self.callees[range].iter().copied())
    }

    /// The static direct-call graph as a flat CSR adjacency `(offsets,
    /// callees)`: function `i`'s callees, with multiplicity, are
    /// `callees[offsets[i]..offsets[i + 1]]` (the input of
    /// [`recursive_marks`](crate::recursive_marks)).
    pub fn call_graph(&self) -> (&[u32], &[FuncId]) {
        (&self.offsets, &self.callees)
    }

    /// The owner of the unresolved indirect call site `site` and whether
    /// the instance it owns is inline assembly. The owner is the first
    /// function in module order holding an unresolved instance; its
    /// instance is the first in its flat pool. `None` when no function
    /// holds one (the site is gone or already promoted).
    pub fn indirect_owner(&self, site: SiteId) -> Option<(FuncId, bool)> {
        let i = self.owners.binary_search_by_key(&site, |o| o.0).ok()?;
        Some((self.owners[i].1, self.owners[i].2))
    }
}

impl Module {
    /// Creates an empty module.
    pub fn new(name: impl Into<String>) -> Self {
        Module {
            name: name.into(),
            functions: Vec::new(),
            next_site: 0,
            call_sites: OnceLock::new(),
        }
    }

    /// The module's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Adds a function, assigning and returning its id.
    pub fn add_function(&mut self, mut f: Function) -> FuncId {
        self.call_sites.take();
        let id = FuncId::from_raw(self.functions.len() as u32);
        f.id = id;
        self.functions.push(Arc::new(f));
        id
    }

    /// Adds an already-shared function, assigning and returning its id.
    ///
    /// When `f.id()` already equals the assigned id the `Arc` is pushed
    /// as-is (no copy — the DCE sweep keeps every untouched survivor
    /// shared with the input module this way); otherwise the function is
    /// copied once to fix its id.
    pub fn add_function_arc(&mut self, mut f: Arc<Function>) -> FuncId {
        self.call_sites.take();
        let id = FuncId::from_raw(self.functions.len() as u32);
        if f.id != id {
            Arc::make_mut(&mut f).id = id;
        }
        self.functions.push(f);
        id
    }

    /// Replaces the function at `id` with `f`, fixing `f`'s id to match.
    /// Used to rebuild forward-referenced functions (generators create
    /// placeholder bodies first, then fill them in).
    ///
    /// # Panics
    /// Panics if `id` is out of range.
    pub fn replace_function(&mut self, id: FuncId, mut f: Function) {
        self.call_sites.take();
        f.id = id;
        self.functions[id.index()] = Arc::new(f);
    }

    /// The raw value the next [`Module::fresh_site`] call would return
    /// (used by the text parser to keep parsed site ids collision-free).
    pub fn peek_next_site(&self) -> u64 {
        self.next_site
    }

    /// Allocates a fresh, never-used call-site id.
    pub fn fresh_site(&mut self) -> SiteId {
        self.call_sites.take();
        let id = SiteId::from_raw(self.next_site);
        self.next_site += 1;
        id
    }

    /// Returns the function with the given id.
    ///
    /// # Panics
    /// Panics if `id` is out of range.
    pub fn function(&self, id: FuncId) -> &Function {
        &self.functions[id.index()]
    }

    /// Mutable access to a function.
    ///
    /// Copy-on-write: when the function is shared with a snapshot (a cloned
    /// module), the first mutable access copies it; later accesses are free.
    /// Check read-only state first and call this only for functions that
    /// actually change.
    ///
    /// # Panics
    /// Panics if `id` is out of range.
    pub fn function_mut(&mut self, id: FuncId) -> &mut Function {
        self.call_sites.take();
        Arc::make_mut(&mut self.functions[id.index()])
    }

    /// All functions in id order, behind their sharing handles.
    ///
    /// Iterating yields `&Arc<Function>`, which auto-derefs to
    /// [`Function`] for method calls; use [`Arc::ptr_eq`] on two modules'
    /// entries to observe structural sharing.
    pub fn functions(&self) -> &[Arc<Function>] {
        &self.functions
    }

    /// The sharing handle of one function (cheap to clone; parallel stages
    /// hand these to worker threads).
    ///
    /// # Panics
    /// Panics if `id` is out of range.
    pub fn function_arc(&self, id: FuncId) -> &Arc<Function> {
        &self.functions[id.index()]
    }

    /// Installs a (typically worker-produced) function at `id`.
    ///
    /// # Panics
    /// Panics if `id` is out of range or `f`'s id does not match `id` —
    /// deterministic parallel merges are keyed by function id.
    pub fn set_function_arc(&mut self, id: FuncId, f: Arc<Function>) {
        assert_eq!(f.id, id, "merged function must keep its id");
        self.call_sites.take();
        self.functions[id.index()] = f;
    }

    /// Iterates over function ids.
    pub fn func_ids(&self) -> impl Iterator<Item = FuncId> {
        (0..self.functions.len() as u32).map(FuncId::from_raw)
    }

    /// Number of functions.
    pub fn len(&self) -> usize {
        self.functions.len()
    }

    /// True when the module has no functions.
    pub fn is_empty(&self) -> bool {
        self.functions.is_empty()
    }

    /// Looks a function up by name. The name is resolved through the symbol
    /// interner first, so a miss costs one hash lookup and a hit scans
    /// `u32`s, never strings.
    pub fn find_function(&self, name: &str) -> Option<FuncId> {
        let sym = Symbol::lookup(name)?;
        self.functions
            .iter()
            .position(|f| f.name == sym)
            .map(|i| FuncId::from_raw(i as u32))
    }

    /// The module's call table, scanned on first use and memoized until the
    /// next `&mut self` call. Profile validation, ICP's plan, the serve
    /// loop's decision surface and the LLVM-inliner baseline read it, so
    /// every build and epoch over one unchanged base scans its functions
    /// once.
    pub fn call_sites(&self) -> &CallSites {
        let sites = self
            .call_sites
            .get_or_init(|| Arc::new(CallSites::scan(&self.functions)));
        debug_assert_eq!(
            **sites,
            CallSites::scan(&self.functions),
            "the memoized call-site table must match a fresh scan"
        );
        sites
    }

    /// Checks structural invariants; see [`VerifyError`] for the conditions.
    pub fn verify(&self) -> Result<(), VerifyError> {
        verify::verify(self)
    }

    /// Like [`Module::verify`], fanning the independent per-function checks
    /// across up to `threads` workers. On failure the reported error is the
    /// one the sequential walk would find first (lowest offending function
    /// id), so diagnostics are identical under any thread count.
    pub fn verify_threaded(&self, threads: usize) -> Result<(), VerifyError> {
        verify::verify_with_threads(self, threads)
    }

    /// Counts the static branch population of the module — the denominators
    /// of the paper's Tables 10 and 11.
    pub fn census(&self) -> BranchCensus {
        let mut c = BranchCensus::default();
        for f in &self.functions {
            // Flat pool scan: tombstones are plain `Op`s and cannot match.
            for inst in f.insts() {
                match inst {
                    Inst::Call { .. } => c.direct_calls += 1,
                    Inst::CallIndirect { .. } => c.indirect_calls += 1,
                    _ => {}
                }
            }
            for term in f.terms() {
                match term {
                    Terminator::Return => c.returns += 1,
                    Terminator::Switch { via_table, .. } if *via_table => c.indirect_jumps += 1,
                    _ => {}
                }
            }
        }
        c
    }

    /// Total code size in model bytes (the paper's "img size" numerator).
    pub fn code_bytes(&self) -> u64 {
        self.functions
            .iter()
            .map(|f| crate::size::function_bytes(f))
            .sum()
    }
}

impl fmt::Debug for Module {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Module")
            .field("name", &self.name)
            .field("functions", &self.functions)
            .field("next_site", &self.next_site)
            .finish()
    }
}

/// The wire form: every field but the call-site memo.
#[derive(Serialize, Deserialize)]
struct ModuleWire {
    name: String,
    functions: Vec<Arc<Function>>,
    next_site: u64,
}

impl Serialize for Module {
    fn to_value(&self) -> serde::Value {
        ModuleWire {
            name: self.name.clone(),
            functions: self.functions.clone(),
            next_site: self.next_site,
        }
        .to_value()
    }
}

impl Deserialize for Module {
    fn from_value(v: &serde::Value) -> Result<Self, serde::DeError> {
        let w = ModuleWire::from_value(v)?;
        Ok(Module {
            name: w.name,
            functions: w.functions,
            next_site: w.next_site,
            call_sites: OnceLock::new(),
        })
    }
}

/// Static counts of each branch kind in a module.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct BranchCensus {
    /// Number of static direct call sites.
    pub direct_calls: u64,
    /// Number of static indirect call sites.
    pub indirect_calls: u64,
    /// Number of static indirect jumps (jump-table switches).
    pub indirect_jumps: u64,
    /// Number of static return sites.
    pub returns: u64,
}

impl BranchCensus {
    /// Total indirect branches (the attack surface): icalls + ijumps + rets.
    pub fn indirect_total(&self) -> u64 {
        self.indirect_calls + self.indirect_jumps + self.returns
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::FunctionBuilder;
    use crate::inst::OpKind;

    fn sample_module() -> Module {
        let mut m = Module::new("m");
        let mut b = FunctionBuilder::new("leaf", 0);
        b.op(OpKind::Alu);
        b.ret();
        let leaf = m.add_function(b.build());

        let s1 = m.fresh_site();
        let s2 = m.fresh_site();
        let mut b = FunctionBuilder::new("root", 0);
        b.call(s1, leaf, 0);
        b.call_indirect(s2, 1);
        b.ret();
        m.add_function(b.build());
        m
    }

    #[test]
    fn add_function_assigns_dense_ids() {
        let m = sample_module();
        assert_eq!(m.len(), 2);
        assert_eq!(m.function(FuncId::from_raw(0)).name(), "leaf");
        assert_eq!(m.function(FuncId::from_raw(1)).name(), "root");
        assert_eq!(m.find_function("root"), Some(FuncId::from_raw(1)));
        assert_eq!(m.find_function("missing"), None);
    }

    #[test]
    fn fresh_sites_never_repeat() {
        let mut m = Module::new("m");
        let a = m.fresh_site();
        let b = m.fresh_site();
        assert_ne!(a, b);
    }

    #[test]
    fn census_counts_each_branch_kind() {
        let m = sample_module();
        let c = m.census();
        assert_eq!(c.direct_calls, 1);
        assert_eq!(c.indirect_calls, 1);
        assert_eq!(c.returns, 2);
        assert_eq!(c.indirect_jumps, 0);
        assert_eq!(c.indirect_total(), 3);
    }

    #[test]
    fn code_bytes_is_positive_for_nonempty_module() {
        let m = sample_module();
        assert!(m.code_bytes() > 0);
    }

    #[test]
    fn module_serde_roundtrip_preserves_everything() {
        let m = sample_module();
        let json = serde_json::to_string(&m).expect("module serializes");
        let back: Module = serde_json::from_str(&json).expect("module parses");
        assert_eq!(back.name(), m.name());
        assert_eq!(back.len(), m.len());
        assert_eq!(back.functions(), m.functions());
        assert_eq!(back.peek_next_site(), m.peek_next_site());
        back.verify().unwrap();
    }

    #[test]
    fn call_table_holds_calls_and_indirect_owners() {
        let mut m = sample_module();
        let (leaf, root) = (FuncId::from_raw(0), FuncId::from_raw(1));
        let (s1, s2) = (SiteId::from_raw(0), SiteId::from_raw(1));
        // A later function holds root's indirect site too, as asm.
        let mut b = FunctionBuilder::new("twin", 0);
        b.call_indirect_asm(s2, 0);
        b.ret();
        m.add_function(b.build());
        let t = m.call_sites();
        assert_eq!(t.direct_calls(root).collect::<Vec<_>>(), [(s1, leaf)]);
        assert_eq!(t.call_graph(), (&[0, 0, 1, 1][..], &[leaf][..]));
        assert_eq!(t.indirect_owner(s2), Some((root, false)));
        assert_eq!(t.indirect_owner(s1), None);
    }

    #[test]
    fn replace_function_fixes_the_id() {
        let mut m = sample_module();
        let root = m.find_function("root").unwrap();
        let mut b = FunctionBuilder::new("root2", 0);
        b.ret();
        m.replace_function(root, b.build());
        assert_eq!(m.function(root).id(), root);
        assert_eq!(m.function(root).name(), "root2");
        m.verify().unwrap();
    }
}
