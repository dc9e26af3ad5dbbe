//! Microarchitectural models: cost parameters, BTB, RSB, i-cache.

use serde::{Deserialize, Serialize};

/// Cost and capacity parameters of the simulated machine.
///
/// Defaults approximate the paper's i7-8700K (Skylake): 32 KiB 8-way L1i
/// with 64-byte lines, a 4096-entry BTB, and a 16-entry RSB (§2.2:
/// "typically N = 16").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct MachineConfig {
    /// Cycles for ALU/mov/cmp/store class ops.
    pub cycles_simple: u64,
    /// Cycles for a (cache-hit) load.
    pub cycles_load: u64,
    /// Cycles for an explicit fence op in the source program.
    pub cycles_fence: u64,
    /// Base cycles of a direct call (predicted).
    pub cycles_call: u64,
    /// Base cycles of a return (predicted).
    pub cycles_ret: u64,
    /// Base cycles of an indirect call before prediction effects.
    pub cycles_icall: u64,
    /// Cycles of an unconditional or conditional branch (predicted).
    pub cycles_branch: u64,
    /// Penalty for a BTB miss / indirect-branch target mispredict.
    pub btb_miss_penalty: u64,
    /// Penalty for an RSB mispredict (underflow or desync).
    pub rsb_miss_penalty: u64,
    /// Penalty per L1i line miss that hits the L2 cache.
    pub icache_miss_penalty: u64,
    /// Additional penalty per line miss that also misses the L2.
    pub l2_miss_penalty: u64,
    /// Number of BTB entries (power of two).
    pub btb_entries: usize,
    /// RSB depth.
    pub rsb_depth: usize,
    /// L1i size in bytes.
    pub icache_bytes: usize,
    /// L1i line size in bytes (power of two).
    pub icache_line: usize,
    /// L1i associativity.
    pub icache_ways: usize,
    /// Unified L2 size in bytes (code footprint share).
    pub l2_bytes: usize,
    /// L2 associativity.
    pub l2_ways: usize,
}

impl Default for MachineConfig {
    fn default() -> Self {
        MachineConfig {
            cycles_simple: 1,
            cycles_load: 3,
            cycles_fence: 10,
            // Call/return base costs include the callee prologue/epilogue
            // work (frame setup, saved registers) that inlining eliminates.
            cycles_call: 3,
            cycles_ret: 2,
            cycles_icall: 2,
            cycles_branch: 1,
            btb_miss_penalty: 15,
            rsb_miss_penalty: 15,
            icache_miss_penalty: 10,
            l2_miss_penalty: 30,
            btb_entries: 4096,
            rsb_depth: 16,
            icache_bytes: 32 * 1024,
            icache_line: 64,
            icache_ways: 8,
            l2_bytes: 1024 * 1024,
            l2_ways: 16,
        }
    }
}

/// Branch target buffer: direct-mapped over the low bits of the branch
/// address, storing the last observed target (§2.2).
#[derive(Debug, Clone)]
pub struct Btb {
    entries: Vec<u64>, // predicted target per slot; 0 = empty
    mask: usize,
}

impl Btb {
    /// Creates a BTB with `entries` slots (rounded up to a power of two).
    pub fn new(entries: usize) -> Self {
        let n = entries.next_power_of_two().max(16);
        Btb {
            entries: vec![0; n],
            mask: n - 1,
        }
    }

    /// Predicts the target for the branch at `addr`; returns true on a
    /// correct prediction and trains the entry either way.
    pub fn predict_and_train(&mut self, addr: u64, actual: u64) -> bool {
        let slot = (addr as usize ^ (addr >> 12) as usize) & self.mask;
        let hit = self.entries[slot] == actual;
        self.entries[slot] = actual;
        hit
    }
}

/// Return stack buffer: a fixed-depth hardware stack of return tokens.
///
/// Overflow discards the oldest entry (deep call chains then mispredict on
/// the way back up); underflow always mispredicts.
#[derive(Debug, Clone)]
pub struct Rsb {
    stack: Vec<u64>,
    depth: usize,
    /// Entries silently lost to overflow, still unwound.
    lost: u64,
}

impl Rsb {
    /// Creates an RSB of the given depth.
    pub fn new(depth: usize) -> Self {
        Rsb {
            stack: Vec::with_capacity(depth),
            depth: depth.max(1),
            lost: 0,
        }
    }

    /// Pushes a return token for a call; returns true when the push
    /// evicted the oldest entry (an overflow — the condition under which
    /// RSB refilling stops protecting, §6.4).
    pub fn push(&mut self, token: u64) -> bool {
        let overflowed = self.stack.len() == self.depth;
        if overflowed {
            self.stack.remove(0);
            self.lost += 1;
        }
        self.stack.push(token);
        overflowed
    }

    /// Pops a prediction for a return; true when it matches `token`.
    pub fn pop_and_check(&mut self, token: u64) -> bool {
        match self.stack.pop() {
            Some(t) => t == token,
            None => {
                if self.lost > 0 {
                    self.lost -= 1;
                }
                false
            }
        }
    }
}

/// One set-associative cache level with LRU replacement.
#[derive(Debug, Clone)]
struct CacheLevel {
    /// Per set: (tag, last-use stamp) per way. tag 0 = empty.
    sets: Vec<(u64, u64)>,
    ways: usize,
    set_mask: u64,
    clock: u64,
}

impl CacheLevel {
    fn new(bytes: usize, line: usize, ways: usize) -> Self {
        let ways = ways.max(1);
        let sets = (bytes / (line * ways)).next_power_of_two().max(1);
        CacheLevel {
            sets: vec![(0, 0); sets * ways],
            ways,
            set_mask: sets as u64 - 1,
            clock: 0,
        }
    }

    fn touch_line(&mut self, line: u64) -> bool {
        self.clock += 1;
        let tag = line + 1; // avoid the empty sentinel 0
        let set = (line & self.set_mask) as usize;
        let base = set * self.ways;
        let ways = &mut self.sets[base..base + self.ways];
        if let Some(w) = ways.iter_mut().find(|(t, _)| *t == tag) {
            w.1 = self.clock;
            return true;
        }
        let victim = ways
            .iter_mut()
            .min_by_key(|(_, stamp)| *stamp)
            .expect("ways is non-empty");
        *victim = (tag, self.clock);
        false
    }
}

/// Two-level instruction-cache hierarchy (L1i backed by a unified L2):
/// code that spills out of the 32 KiB L1i — the cost of aggressive
/// inlining — is usually still in L2, so bloat costs the L1-miss penalty,
/// not a trip to memory. This is what keeps the paper's 5–30% image growth
/// affordable.
#[derive(Debug, Clone)]
pub struct ICache {
    l1: CacheLevel,
    l2: CacheLevel,
    line_shift: u32,
}

impl ICache {
    /// Creates the hierarchy with `l1_bytes`/`l1_ways` over `line`-byte
    /// lines, backed by `l2_bytes`/`l2_ways`.
    pub fn new(
        l1_bytes: usize,
        line: usize,
        l1_ways: usize,
        l2_bytes: usize,
        l2_ways: usize,
    ) -> Self {
        let line = line.next_power_of_two().max(16);
        ICache {
            l1: CacheLevel::new(l1_bytes, line, l1_ways),
            l2: CacheLevel::new(l2_bytes, line, l2_ways),
            line_shift: line.trailing_zeros(),
        }
    }

    /// Touches every line in `[addr, addr + len)`; returns
    /// `(l1_misses, l2_misses)` where every L2 miss is also an L1 miss.
    pub fn access(&mut self, addr: u64, len: u32) -> (u64, u64) {
        if len == 0 {
            return (0, 0);
        }
        let first = addr >> self.line_shift;
        let last = (addr + u64::from(len) - 1) >> self.line_shift;
        let mut l1_misses = 0;
        let mut l2_misses = 0;
        for line in first..=last {
            if !self.l1.touch_line(line) {
                l1_misses += 1;
                if !self.l2.touch_line(line) {
                    l2_misses += 1;
                }
            }
        }
        (l1_misses, l2_misses)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn btb_learns_targets() {
        let mut btb = Btb::new(64);
        assert!(!btb.predict_and_train(0x100, 0xAAA), "cold miss");
        assert!(btb.predict_and_train(0x100, 0xAAA), "trained hit");
        assert!(!btb.predict_and_train(0x100, 0xBBB), "target change misses");
        assert!(btb.predict_and_train(0x100, 0xBBB), "retrains");
    }

    #[test]
    fn btb_aliasing_causes_interference() {
        let mut btb = Btb::new(16);
        btb.predict_and_train(0x0, 0x1);
        // Address 16 maps to the same slot in a 16-entry BTB.
        btb.predict_and_train(0x10, 0x2);
        assert!(!btb.predict_and_train(0x0, 0x1), "aliased entry clobbered");
    }

    #[test]
    fn rsb_matches_balanced_call_ret() {
        let mut rsb = Rsb::new(4);
        for t in 0..4 {
            rsb.push(t);
        }
        for t in (0..4).rev() {
            assert!(rsb.pop_and_check(t));
        }
        assert!(!rsb.pop_and_check(9), "underflow mispredicts");
    }

    #[test]
    fn rsb_overflow_loses_oldest() {
        let mut rsb = Rsb::new(2);
        rsb.push(1);
        rsb.push(2);
        rsb.push(3); // evicts 1
        assert!(rsb.pop_and_check(3));
        assert!(rsb.pop_and_check(2));
        assert!(!rsb.pop_and_check(1), "evicted entry mispredicts");
    }

    #[test]
    fn icache_hits_after_first_touch() {
        let mut ic = ICache::new(1024, 64, 2, 8192, 4);
        assert_eq!(ic.access(0, 64), (1, 1), "cold miss reaches memory");
        assert_eq!(ic.access(0, 64), (0, 0), "warm hit");
        assert_eq!(ic.access(0, 128), (1, 1), "second line cold");
    }

    #[test]
    fn icache_l1_eviction_usually_hits_l2() {
        // L1: 4 lines (2 sets x 2 ways); L2: 64 lines.
        let mut ic = ICache::new(256, 64, 2, 4096, 4);
        for i in 0..6u64 {
            ic.access(i * 64, 1);
        }
        // Line 0 was evicted from L1 but is still resident in L2.
        assert_eq!(ic.access(0, 1), (1, 0), "L1 miss, L2 hit");
    }

    #[test]
    fn icache_zero_length_accesses_nothing() {
        let mut ic = ICache::new(1024, 64, 2, 8192, 4);
        assert_eq!(ic.access(128, 0), (0, 0));
    }

    #[test]
    fn machine_default_is_skylake_like() {
        let m = MachineConfig::default();
        assert_eq!(m.rsb_depth, 16);
        assert_eq!(m.icache_bytes, 32 * 1024);
        assert!(m.btb_miss_penalty > m.cycles_icall);
    }
}
