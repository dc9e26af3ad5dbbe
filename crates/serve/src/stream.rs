//! Deterministic synthesis of epoch delta streams — clean shard reports,
//! decision-drifting hot-spot shifts, and chaos-corrupted deltas — for the
//! chaos soak suite. (The benchmark's `serve` workload generates its own
//! traffic.)

use crate::delta::ProfileDelta;
use pibe_ir::{FuncId, Module, SiteId};
use pibe_profile::{corrupt_profile, ChaosRng, Profile, ValueProfileEntry};

/// Shape of the synthesized stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StreamConfig {
    /// Shard reports per epoch.
    pub shards: u32,
    /// Per-delta corruption probability, in permille (350 = 35% of deltas
    /// get a [`pibe_profile::ProfileChaos`] corruption attempt).
    pub corrupt_permille: u32,
    /// Every `drift_every`-th epoch (1-based; 0 disables) ships a hot-spot
    /// shift: one shard's delta massively boosts a rotating direct call
    /// site, enough to flip budget-prefix decisions.
    pub drift_every: u64,
    /// Counts added to the boosted site on drift epochs.
    pub drift_boost: u64,
}

impl Default for StreamConfig {
    fn default() -> Self {
        StreamConfig {
            shards: 4,
            corrupt_permille: 350,
            drift_every: 5,
            drift_boost: 40_000,
        }
    }
}

/// Running totals of what the stream emitted.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StreamStats {
    /// Epochs synthesized.
    pub epochs: u64,
    /// Deltas emitted.
    pub deltas: u64,
    /// Deltas carrying a *landed* corruption (the quarantine's workload).
    pub corrupted: u64,
    /// Hot-spot drift deltas emitted.
    pub drifts: u64,
}

/// A deterministic generator of per-epoch [`ProfileDelta`] batches over a
/// fixed base module and profile. Same seed, config and profile contents,
/// same stream — on every machine.
#[derive(Debug)]
pub struct DeltaStream<'a> {
    module: &'a Module,
    cfg: StreamConfig,
    seed: u64,
    // The base profile's counters in key order. The profile stores them in
    // hash maps whose iteration order differs between instances; thinning
    // walks these instead, so the RNG draws land on the same counters for
    // every copy of the profile.
    direct: Vec<(SiteId, u64)>,
    indirect: Vec<(SiteId, &'a [ValueProfileEntry])>,
    entries: Vec<(FuncId, u64)>,
    returns: Vec<(FuncId, u64)>,
    stats: StreamStats,
    seq: u64,
}

impl<'a> DeltaStream<'a> {
    /// A stream over `module`'s profile universe, thinning and perturbing
    /// `base` (a clean profile of the module).
    pub fn new(module: &'a Module, base: &'a Profile, cfg: StreamConfig, seed: u64) -> Self {
        fn sorted<K: Ord, V>(it: impl Iterator<Item = (K, V)>) -> Vec<(K, V)> {
            let mut v: Vec<(K, V)> = it.collect();
            v.sort_unstable_by(|a, b| a.0.cmp(&b.0));
            v
        }
        DeltaStream {
            module,
            cfg,
            seed,
            direct: sorted(base.iter_direct()),
            indirect: sorted(base.iter_indirect()),
            entries: sorted(base.iter_entries()),
            returns: sorted(base.iter_returns()),
            stats: StreamStats::default(),
            seq: 0,
        }
    }

    /// What the stream has emitted so far.
    pub fn stats(&self) -> StreamStats {
        self.stats
    }

    /// Synthesizes epoch `epoch`'s shard reports. Deterministic in
    /// `(seed, cfg, epoch)`; the mutable borrow only feeds [`Self::stats`]
    /// and the per-shard sequence numbers.
    pub fn epoch_deltas(&mut self, epoch: u64) -> Vec<ProfileDelta> {
        let mut out = Vec::with_capacity(self.cfg.shards as usize);
        let drift_epoch =
            self.cfg.drift_every != 0 && epoch % self.cfg.drift_every == self.cfg.drift_every - 1;
        for shard in 0..self.cfg.shards {
            let mut rng = ChaosRng::new(
                self.seed
                    ^ epoch.wrapping_mul(0x9E37_79B9_7F4A_7C15)
                    ^ u64::from(shard).wrapping_mul(0xD1B5_4A32_D192_ED03),
            );
            let mut profile = self.thinned_delta(&mut rng);

            if drift_epoch && shard == 0 && !self.direct.is_empty() {
                // Rotate the boosted site so successive drift epochs move
                // *different* decisions.
                let (site, _) =
                    self.direct[(epoch / self.cfg.drift_every) as usize % self.direct.len()];
                for _ in 0..self.cfg.drift_boost {
                    profile.record_direct(site);
                }
                self.stats.drifts += 1;
            }

            if rng.below(1000) < u64::from(self.cfg.corrupt_permille) {
                let corrupt_seed = rng.below(u64::MAX);
                let (corrupted, _kind, landed) =
                    corrupt_profile(&profile, self.module, corrupt_seed);
                if landed {
                    profile = corrupted;
                    self.stats.corrupted += 1;
                }
            }

            self.seq += 1;
            self.stats.deltas += 1;
            out.push(ProfileDelta {
                shard,
                seq: self.seq,
                profile,
            });
        }
        self.stats.epochs += 1;
        out
    }

    /// A clean shard report: a pseudorandom thinning of the base profile
    /// across all four counter dimensions.
    fn thinned_delta(&self, rng: &mut ChaosRng) -> Profile {
        let mut d = Profile::new();
        for &(site, count) in &self.direct {
            for _ in 0..(count % (2 + rng.below(7))) {
                d.record_direct(site);
            }
        }
        for &(site, entries) in &self.indirect {
            for e in entries {
                for _ in 0..(e.count % (2 + rng.below(5))) {
                    d.record_indirect(site, e.target);
                }
            }
        }
        for &(f, c) in &self.entries {
            for _ in 0..(c % (1 + rng.below(4))) {
                d.record_entry(f);
            }
        }
        for &(f, c) in &self.returns {
            for _ in 0..(c % (1 + rng.below(4))) {
                d.record_return(f);
            }
        }
        d
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pibe_difftest::{gen_case, profile_case, GenConfig};

    #[test]
    fn separately_built_equal_profiles_give_the_same_stream() {
        let case = gen_case(0x5EED_0D17, &GenConfig::default());
        // Two independent `Profile` values with equal contents: their hash
        // maps iterate in different orders.
        let a = profile_case(&case);
        let b = profile_case(&case);
        assert_eq!(a, b);
        let mut sa = DeltaStream::new(&case.module, &a, StreamConfig::default(), 7);
        let mut sb = DeltaStream::new(&case.module, &b, StreamConfig::default(), 7);
        for epoch in 0..20 {
            assert_eq!(
                sa.epoch_deltas(epoch),
                sb.epoch_deltas(epoch),
                "epoch {epoch}"
            );
        }
        assert_eq!(sa.stats(), sb.stats());
    }
}
