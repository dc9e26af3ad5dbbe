//! `serve`'s traffic: `pibe_serve::DeltaStream`'s epochs (thinned shard
//! reports, a hot-spot shift every `DRIFT_EVERY`-th epoch, chaos-corrupted
//! deltas), generated in a fixed order.
//!
//! `DeltaStream` thins by walking the base profile's hash maps while it
//! draws from its random stream, so one seed gives different deltas in
//! different processes. This generator walks the same counters sorted by
//! key, so a seed names one input on every run.

use pibe_ir::{FuncId, Module, SiteId};
use pibe_profile::{corrupt_profile, ChaosRng, Profile, ValueProfileEntry};
use pibe_serve::ProfileDelta;

/// Shard reports per epoch.
const SHARDS: u32 = 2;
/// Per-delta corruption probability, per mille.
const CORRUPT_PERMILLE: u64 = 100;
/// Every `DRIFT_EVERY`-th epoch boosts one direct site.
const DRIFT_EVERY: u64 = 5;
/// Counts added to the boosted site.
const DRIFT_BOOST: u64 = 40_000;

/// A deterministic generator of per-epoch shard deltas over a base profile.
#[derive(Debug)]
pub struct DeltaGen<'a> {
    module: &'a Module,
    seed: u64,
    seq: u64,
    direct: Vec<(SiteId, u64)>,
    indirect: Vec<(SiteId, Vec<ValueProfileEntry>)>,
    entries: Vec<(FuncId, u64)>,
    returns: Vec<(FuncId, u64)>,
}

impl<'a> DeltaGen<'a> {
    /// A generator thinning `base`, a clean profile of `module`.
    pub fn new(module: &'a Module, base: &Profile, seed: u64) -> Self {
        fn sorted<K: Ord, V>(mut v: Vec<(K, V)>) -> Vec<(K, V)> {
            v.sort_by(|a, b| a.0.cmp(&b.0));
            v
        }
        DeltaGen {
            module,
            seed,
            seq: 0,
            direct: sorted(base.iter_direct().collect()),
            indirect: sorted(base.iter_indirect().map(|(s, e)| (s, e.to_vec())).collect()),
            entries: sorted(base.iter_entries().collect()),
            returns: sorted(base.iter_returns().collect()),
        }
    }

    /// Epoch `epoch`'s shard reports; deterministic in `(seed, epoch)`.
    pub fn epoch(&mut self, epoch: u64) -> Vec<ProfileDelta> {
        let drift_epoch = epoch % DRIFT_EVERY == DRIFT_EVERY - 1;
        (0..SHARDS)
            .map(|shard| {
                let mut rng = ChaosRng::new(
                    self.seed
                        ^ epoch.wrapping_mul(0x9E37_79B9_7F4A_7C15)
                        ^ u64::from(shard).wrapping_mul(0xD1B5_4A32_D192_ED03),
                );
                let mut profile = self.thinned(&mut rng);
                if drift_epoch && shard == 0 && !self.direct.is_empty() {
                    // Rotate the boosted site so successive drift epochs
                    // move different decisions.
                    let (site, _) = self.direct[(epoch / DRIFT_EVERY) as usize % self.direct.len()];
                    for _ in 0..DRIFT_BOOST {
                        profile.record_direct(site);
                    }
                }
                if rng.below(1000) < CORRUPT_PERMILLE {
                    let (corrupted, _, landed) =
                        corrupt_profile(&profile, self.module, rng.below(u64::MAX));
                    if landed {
                        profile = corrupted;
                    }
                }
                self.seq += 1;
                ProfileDelta {
                    shard,
                    seq: self.seq,
                    profile,
                }
            })
            .collect()
    }

    /// A clean shard report: a pseudorandom thinning of every counter.
    fn thinned(&self, rng: &mut ChaosRng) -> Profile {
        let mut d = Profile::new();
        for &(site, count) in &self.direct {
            for _ in 0..(count % (2 + rng.below(7))) {
                d.record_direct(site);
            }
        }
        for (site, entries) in &self.indirect {
            for e in entries {
                for _ in 0..(e.count % (2 + rng.below(5))) {
                    d.record_indirect(*site, e.target);
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
