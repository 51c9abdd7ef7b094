//! Multi-GPU flat cache — the extension the paper leaves as future work
//! (§5, "Dealing with multi-GPU").
//!
//! Model parallelism over `G` devices: the flat-key space is partitioned
//! by hash, each shard runs an independent [`FlecheSystem`] on its own
//! simulated device, and a per-batch all-gather moves every shard's output
//! rows to the device that runs the dense layers. Sharding removes the
//! inter-GPU redundancy a replicated cache would have (G times the
//! aggregate capacity) at the price of the gather and of per-shard kernel
//! maintenance — exactly the trade the paper predicts, measurable here.

use crate::recovery::CheckpointChain;
use crate::{FlecheConfig, FlecheSystem, StalenessStats};
use fleche_coding::{FlatKeyCodec, SizeAwareCodec};
use fleche_gpu::{BytesPerNs, DeviceSpec, DramSpec, Gpu, Ns};
use fleche_store::api::{BatchStats, LifetimeStats};
use fleche_store::{CpuStore, UpdatePush};
use fleche_workload::{Batch, DatasetSpec};

/// Rendezvous (highest-random-weight) score of `key` on `shard`: a
/// splitmix64-style finalizer over the pair. Each shard's score stream is
/// independent, so removing one shard re-homes *only* that shard's keys —
/// the property that makes failover cheap (a modulo partition would
/// reshuffle nearly every key when the divisor changes).
fn rendezvous_weight(key: u64, shard: u64) -> u64 {
    let mut x = key ^ shard.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    x ^= x >> 30;
    x = x.wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x ^= x >> 27;
    x = x.wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^= x >> 31;
    x
}

/// Counters describing every device-loss/failover event a
/// [`MultiGpuFleche`] has absorbed. Drills print these so a reader sees
/// the failure timeline (lost, re-routed, re-warmed), not just the final
/// hit rate.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct FailoverStats {
    /// Device-loss transitions observed.
    pub device_losses: u64,
    /// Device-restore transitions observed.
    pub device_restores: u64,
    /// Entries re-warmed from a checkpoint on device restore.
    pub rewarm_restored_entries: u64,
    /// Restores that had to start cold (no checkpoint, or a rejected one).
    pub cold_rewarms: u64,
    /// Checkpoints refused at rewarm time (corrupt image detected).
    pub snapshot_rejected: u64,
    /// Newest update version any re-warm landed on (a delta chain re-warm
    /// recovers past the base; compare against the ledger's latest).
    pub rewarm_max_version: u64,
    /// Accesses served by a takeover shard while their home shard was
    /// dead (the moved key range).
    pub moved_keys: u64,
    /// Batches served with at least one shard dead.
    pub degraded_batches: u64,
    /// Wall time of those degraded batches.
    pub time_degraded: Ns,
    /// Simulated time spent replaying checkpoints into restored devices.
    pub rewarm_time: Ns,
}

/// Interconnect cost model for the all-gather.
#[derive(Clone, Debug)]
pub struct InterconnectSpec {
    /// Per-message fixed cost (launch + transport setup).
    pub per_transfer: Ns,
    /// Link bandwidth per direction.
    pub bandwidth: BytesPerNs,
}

impl InterconnectSpec {
    /// PCIe peer-to-peer (the T4 deployment the paper targets has no
    /// NVLink).
    pub fn pcie_p2p() -> InterconnectSpec {
        InterconnectSpec {
            per_transfer: Ns::from_us(8.0),
            bandwidth: BytesPerNs::from_gbps(10.0),
        }
    }

    /// An NVLink-class interconnect, for sensitivity checks.
    pub fn nvlink_like() -> InterconnectSpec {
        InterconnectSpec {
            per_transfer: Ns::from_us(3.0),
            bandwidth: BytesPerNs::from_gbps(250.0),
        }
    }
}

/// Timing of one sharded batch.
#[derive(Clone, Copy, Debug)]
pub struct ShardedTiming {
    /// Slowest shard's embedding time (shards run in parallel).
    pub shard_critical: Ns,
    /// All-gather time moving remote shards' rows to the dense device.
    pub gather: Ns,
    /// `shard_critical + gather`.
    pub total: Ns,
}

/// A model-parallel flat cache over multiple simulated GPUs.
pub struct MultiGpuFleche {
    shards: Vec<(Gpu, FlecheSystem)>,
    codec: SizeAwareCodec,
    interconnect: InterconnectSpec,
    spec: DatasetSpec,
    lifetime: LifetimeStats,
    /// Liveness per shard, maintained by [`MultiGpuFleche::poll_devices`].
    alive: Vec<bool>,
    /// Latest checkpoint chain per shard — its last full checkpoint plus
    /// the deltas cut since (dead shards keep their last one — it is
    /// exactly what the re-warm replays when the device returns, landing
    /// on the latest checkpointed version, not the stale base).
    chains: Vec<Option<CheckpointChain>>,
    failover: FailoverStats,
}

impl MultiGpuFleche {
    /// Builds `gpus` shards, each holding `cache_fraction` of total table
    /// bytes (so aggregate capacity scales with the device count).
    ///
    /// # Panics
    ///
    /// Panics if `gpus == 0`.
    pub fn new(
        spec: &DatasetSpec,
        gpus: usize,
        cache_fraction: f64,
        config: FlecheConfig,
        interconnect: InterconnectSpec,
    ) -> MultiGpuFleche {
        assert!(gpus > 0, "need at least one GPU");
        let corpora: Vec<u64> = spec.tables.iter().map(|t| t.corpus).collect();
        let codec = SizeAwareCodec::new(config.key_bits, &corpora);
        let shards = (0..gpus)
            .map(|_| {
                let store = CpuStore::new(spec, DramSpec::xeon_6252());
                let sys = FlecheSystem::new(
                    spec,
                    store,
                    FlecheConfig {
                        cache_fraction,
                        ..config.clone()
                    },
                );
                (Gpu::new(DeviceSpec::t4()), sys)
            })
            .collect();
        MultiGpuFleche {
            alive: vec![true; gpus],
            chains: vec![None; gpus],
            shards,
            codec,
            interconnect,
            spec: spec.clone(),
            lifetime: LifetimeStats::default(),
            failover: FailoverStats::default(),
        }
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Shards currently alive.
    pub fn alive_count(&self) -> usize {
        self.alive.iter().filter(|&&a| a).count()
    }

    /// Highest-weight shard for `key` among either the alive subset or
    /// all shards. Ties break toward the lower index (deterministic).
    fn best_shard(&self, key: u64, alive_only: bool) -> usize {
        let mut best: Option<(u64, usize)> = None;
        for s in 0..self.shards.len() {
            if alive_only && !self.alive[s] {
                continue;
            }
            let w = rendezvous_weight(key, s as u64);
            if best.is_none_or(|(bw, _)| w > bw) {
                best = Some((w, s));
            }
        }
        best.map_or(0, |(_, s)| s)
    }

    /// Which shard serves a `(table, feature)` pair right now: rendezvous
    /// hashing of its flat key over the *alive* shards. With every device
    /// up this equals [`MultiGpuFleche::home_shard_of`]; when a device is
    /// lost, only its keys re-route (to their next-highest-weight shard)
    /// and every other key stays put.
    pub fn shard_of(&self, table: u16, feature: u64) -> usize {
        self.best_shard(self.codec.encode(table, feature).0, true)
    }

    /// The shard that owns a pair when every device is alive (liveness-
    /// blind; used to account the moved key range during failover).
    pub fn home_shard_of(&self, table: u16, feature: u64) -> usize {
        self.best_shard(self.codec.encode(table, feature).0, false)
    }

    /// Lifetime cache statistics aggregated over shards.
    pub fn lifetime_stats(&self) -> LifetimeStats {
        self.lifetime
    }

    /// Failover counters (device losses, moved keys, rewarm outcomes).
    pub fn failover_stats(&self) -> FailoverStats {
        self.failover
    }

    /// One shard's device, for fault injection and clock reads.
    pub fn shard_gpu_mut(&mut self, s: usize) -> &mut Gpu {
        &mut self.shards[s].0
    }

    /// One shard's cache system (diagnostics).
    pub fn shard_system(&self, s: usize) -> &FlecheSystem {
        &self.shards[s].1
    }

    /// Arms the happens-before race checker on every shard's device.
    pub fn enable_race_checkers(&mut self) {
        for (gpu, _) in &mut self.shards {
            gpu.enable_race_checker();
        }
    }

    /// Total races observed across every shard's checker.
    pub fn race_count(&self) -> usize {
        self.shards
            .iter()
            .map(|(gpu, _)| gpu.race_checker().map_or(0, |rc| rc.race_count()))
            .sum()
    }

    /// Checkpoints every *alive* shard's cache (dead shards keep their
    /// previous image — that is what the re-warm will replay). Returns
    /// the slowest shard's checkpoint time; devices snapshot in parallel.
    pub fn checkpoint(&mut self) -> Ns {
        let mut slowest = Ns::ZERO;
        for (s, (gpu, sys)) in self.shards.iter_mut().enumerate() {
            if !self.alive[s] {
                continue;
            }
            let t0 = gpu.now();
            self.chains[s] = Some(sys.checkpoint(gpu));
            slowest = slowest.max(gpu.now() - t0);
        }
        slowest
    }

    /// Cuts an incremental checkpoint delta on every *alive* shard that
    /// has a full base, appending to its re-warm chain. Cheap relative to
    /// [`MultiGpuFleche::checkpoint`] under an update stream: each delta
    /// holds only the keys whose version advanced since that shard's base.
    /// Returns the slowest shard's capture time.
    pub fn delta_checkpoint(&mut self) -> Ns {
        let mut slowest = Ns::ZERO;
        for (s, (gpu, sys)) in self.shards.iter_mut().enumerate() {
            if !self.alive[s] {
                continue;
            }
            let t0 = gpu.now();
            if let Some(chain) = &mut self.chains[s] {
                sys.delta_checkpoint(gpu, chain);
            }
            slowest = slowest.max(gpu.now() - t0);
        }
        slowest
    }

    /// Broadcasts trainer version commits to every shard's ledger — the
    /// reliable metadata channel. Each shard must know every key's latest
    /// version (not just its own partition's) because failover re-routes
    /// keys across shards mid-stream.
    pub fn commit_updates(&mut self, pushes: &[UpdatePush]) {
        for (gpu, sys) in &mut self.shards {
            sys.commit_updates(gpu, pushes);
        }
    }

    /// Routes value pushes to each key's current serving shard — the
    /// lossy channel the chaos injectors disturb. A dead shard's pushes
    /// go to its rendezvous successor; keys not resident there are simply
    /// counted absent and picked up by the next miss-fill.
    pub fn push_updates(&mut self, pushes: &[UpdatePush]) {
        let mut per_shard: Vec<Vec<UpdatePush>> = vec![Vec::new(); self.shards.len()];
        for p in pushes {
            per_shard[self.shard_of(p.table, p.id)].push(*p);
        }
        for (s, (gpu, sys)) in self.shards.iter_mut().enumerate() {
            if !per_shard[s].is_empty() {
                sys.push_updates(gpu, &per_shard[s]);
            }
        }
    }

    /// Newest update version captured in shard `s`'s current *base*
    /// checkpoint image — what a re-warm would recover to with no deltas.
    /// `None` when the shard has never checkpointed (or its base is
    /// empty). Drill oracles compare
    /// [`FailoverStats::rewarm_max_version`] against this to prove a
    /// chain re-warm recovered past the stale base.
    pub fn shard_base_max_version(&self, s: usize) -> Option<u64> {
        self.chains[s].as_ref()?.base_max_version()
    }

    /// Staleness accounting aggregated over every shard.
    pub fn staleness_stats(&self) -> StalenessStats {
        let mut agg = StalenessStats::default();
        for (_, sys) in &self.shards {
            agg.absorb(&sys.staleness_stats());
        }
        agg
    }

    /// Reconciles shard liveness with each device's fault state. Newly
    /// lost devices are marked dead and their cache state dropped (HBM is
    /// gone); traffic re-routes away from them on the next batch. Newly
    /// restored devices re-warm from their latest checkpoint — a corrupt
    /// image is detected, counted, and degrades to a cold start rather
    /// than seeding the cache with garbage. Returns
    /// `(losses, restores)` observed by this poll.
    pub fn poll_devices(&mut self) -> (usize, usize) {
        let mut losses = 0;
        let mut restores = 0;
        for (s, (gpu, sys)) in self.shards.iter_mut().enumerate() {
            let lost = gpu.device_lost();
            if self.alive[s] && lost {
                self.alive[s] = false;
                sys.wipe_cache(gpu);
                self.failover.device_losses += 1;
                losses += 1;
            } else if !self.alive[s] && !lost {
                self.alive[s] = true;
                self.failover.device_restores += 1;
                restores += 1;
                let t0 = gpu.now();
                match self.chains[s]
                    .as_ref()
                    .map(|chain| sys.restore_checkpoint(gpu, chain))
                {
                    Some(Ok(report)) => {
                        self.failover.rewarm_restored_entries += report.restored;
                        self.failover.rewarm_max_version =
                            self.failover.rewarm_max_version.max(report.max_version);
                    }
                    Some(Err(_)) => {
                        self.failover.snapshot_rejected += 1;
                        self.failover.cold_rewarms += 1;
                    }
                    None => self.failover.cold_rewarms += 1,
                }
                self.failover.rewarm_time += gpu.now() - t0;
            }
        }
        (losses, restores)
    }

    /// Runs one batch: split by shard owner, query shards (in parallel —
    /// the slowest one gates), all-gather the remote rows. Returns the
    /// per-access rows in batch order plus timing.
    ///
    /// Device liveness is reconciled first: keys whose home shard died
    /// re-route to their rendezvous successor (initially cold for them —
    /// the degraded regime, served from that shard's DRAM), and restored
    /// devices re-warm from their last checkpoint before taking traffic.
    ///
    /// # Panics
    ///
    /// Panics if every device is lost — there is no shard left to serve
    /// from, which a real deployment escalates rather than absorbs.
    pub fn query_batch(&mut self, batch: &Batch) -> (Vec<Vec<f32>>, ShardedTiming, BatchStats) {
        self.poll_devices();
        assert!(
            self.alive.iter().any(|&a| a),
            "all devices lost: nothing can serve"
        );
        let any_dead = self.alive.iter().any(|&a| !a);
        let g = self.shards.len();
        // Split the batch per shard, remembering where each access goes.
        let mut shard_batches: Vec<Batch> = (0..g)
            .map(|_| Batch::from_table_ids(vec![Vec::new(); self.spec.table_count()]))
            .collect();
        // routing[k] = (shard, position within that shard's flattening).
        let mut routing = Vec::with_capacity(batch.total_ids());
        let mut counts = vec![vec![0usize; self.spec.table_count()]; g];
        for (t, ids) in batch.table_ids.iter().enumerate() {
            for &id in ids {
                let s = self.shard_of(t as u16, id);
                if any_dead && s != self.home_shard_of(t as u16, id) {
                    self.failover.moved_keys += 1;
                }
                shard_batches[s].table_ids[t].push(id);
                routing.push((s, t, counts[s][t]));
                counts[s][t] += 1;
            }
        }

        // Query every shard; each runs on its own device, so wall time is
        // the max, not the sum.
        let mut shard_rows: Vec<Vec<Vec<f32>>> = Vec::with_capacity(g);
        let mut shard_times = Vec::with_capacity(g);
        let mut agg = BatchStats::default();
        for (s, (gpu, sys)) in self.shards.iter_mut().enumerate() {
            use fleche_store::api::EmbeddingCacheSystem;
            if shard_batches[s].total_ids() == 0 {
                shard_rows.push(Vec::new());
                shard_times.push(Ns::ZERO);
                continue;
            }
            let t0 = gpu.now();
            let out = sys.query_batch(gpu, &shard_batches[s]);
            shard_times.push(gpu.now() - t0);
            agg.unique_keys += out.stats.unique_keys;
            agg.hits += out.stats.hits;
            agg.unified_hits += out.stats.unified_hits;
            agg.misses += out.stats.misses;
            agg.failed_keys += out.stats.failed_keys;
            agg.stale_keys += out.stats.stale_keys;
            agg.corrupt_detected += out.stats.corrupt_detected;
            agg.degraded |= out.stats.degraded;
            shard_rows.push(out.rows.into_vec());
        }
        let shard_critical = shard_times.iter().copied().fold(Ns::ZERO, Ns::max);

        // All-gather: every shard except the dense-layer host ships its
        // output rows. The host is the first *alive* shard — if device 0
        // is lost, the dense layers fail over with the cache traffic.
        let host = self.alive.iter().position(|&a| a).unwrap_or(0);
        let mut gather = Ns::ZERO;
        for (s, rows) in shard_rows.iter().enumerate() {
            if s == host {
                continue;
            }
            let bytes: u64 = rows.iter().map(|r| r.len() as u64 * 4).sum();
            if bytes > 0 {
                gather += self.interconnect.per_transfer
                    + self.interconnect.bandwidth.transfer_time(bytes);
            }
        }

        // Reassemble rows in original batch order. Each shard's rows are in
        // its own flattening (table-major); per-(shard, table) cursors over
        // prefix offsets recover positions. `routing` numbers each shard's
        // accesses per table in order, so every shard row lands in exactly
        // one output position and can be moved there, not copied.
        let mut table_offset = vec![vec![0usize; self.spec.table_count()]; g];
        for (offsets, shard_batch) in table_offset.iter_mut().zip(&shard_batches) {
            let mut off = 0usize;
            for (slot, ids) in offsets.iter_mut().zip(&shard_batch.table_ids) {
                *slot = off;
                off += ids.len();
            }
        }
        let rows = routing
            .iter()
            .map(|&(s, t, pos)| std::mem::take(&mut shard_rows[s][table_offset[s][t] + pos]))
            .collect();

        agg.wall = shard_critical + gather;
        // Degraded if a shard is dead or a shard's breaker served its part
        // on the DRAM-only path; the failover counters count dead shards.
        agg.degraded |= any_dead;
        if any_dead {
            self.failover.degraded_batches += 1;
            self.failover.time_degraded += agg.wall;
        }
        self.lifetime.observe(&agg);
        let timing = ShardedTiming {
            shard_critical,
            gather,
            total: shard_critical + gather,
        };
        (rows, timing, agg)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fleche_workload::{spec, TraceGenerator};

    fn build(gpus: usize) -> (MultiGpuFleche, TraceGenerator, DatasetSpec) {
        let ds = spec::synthetic(6, 4_000, 16, -1.3);
        let mg = MultiGpuFleche::new(
            &ds,
            gpus,
            0.05,
            FlecheConfig::full(0.05),
            InterconnectSpec::pcie_p2p(),
        );
        let gen = TraceGenerator::new(&ds);
        (mg, gen, ds)
    }

    #[test]
    fn sharded_rows_match_ground_truth() {
        let (mut mg, mut gen, ds) = build(3);
        let truth = CpuStore::new(&ds, DramSpec::xeon_6252());
        for _ in 0..4 {
            let batch = gen.next_batch(64);
            let (rows, timing, _) = mg.query_batch(&batch);
            assert_eq!(rows.len(), batch.total_ids());
            let mut k = 0;
            for (t, ids) in batch.table_ids.iter().enumerate() {
                for &id in ids {
                    assert_eq!(rows[k], truth.read(t as u16, id), "row {k}");
                    k += 1;
                }
            }
            assert!(timing.total >= timing.shard_critical);
        }
    }

    #[test]
    fn sharding_is_stable_and_balanced() {
        let (mg, _, ds) = build(4);
        let mut counts = vec![0usize; 4];
        for t in 0..ds.table_count() as u16 {
            for f in 0..200 {
                let s = mg.shard_of(t, f);
                assert_eq!(s, mg.shard_of(t, f), "stable routing");
                counts[s] += 1;
            }
        }
        let max = *counts.iter().max().expect("non-empty");
        let min = *counts.iter().min().expect("non-empty");
        assert!(max < min * 2, "imbalanced shards: {counts:?}");
    }

    #[test]
    fn single_shard_has_no_gather_cost() {
        let (mut mg, mut gen, _) = build(1);
        let (_, timing, _) = mg.query_batch(&gen.next_batch(64));
        assert_eq!(timing.gather, Ns::ZERO);
    }

    #[test]
    fn more_shards_gather_more() {
        let gather_of = |gpus: usize| {
            let (mut mg, mut gen, _) = build(gpus);
            let (_, timing, _) = mg.query_batch(&gen.next_batch(256));
            timing.gather
        };
        assert!(gather_of(4) > gather_of(2));
    }

    #[test]
    fn aggregate_capacity_raises_hit_rate() {
        // Each shard holds 5%: 4 shards see only their partition's keys,
        // so effective per-key capacity quadruples vs a single 5% device.
        let hit_of = |gpus: usize| {
            let (mut mg, mut gen, _) = build(gpus);
            for _ in 0..10 {
                mg.query_batch(&gen.next_batch(256));
            }
            mg.lifetime_stats().hit_rate()
        };
        let one = hit_of(1);
        let four = hit_of(4);
        assert!(
            four >= one - 0.02,
            "sharded hit rate {four} collapsed vs single {one}"
        );
    }

    #[test]
    fn stats_partition_across_shards() {
        let (mut mg, mut gen, _) = build(3);
        let batch = gen.next_batch(128);
        let (_, _, stats) = mg.query_batch(&batch);
        assert_eq!(
            stats.hits + stats.unified_hits + stats.misses,
            stats.unique_keys
        );
        assert!(stats.unique_keys <= batch.total_ids() as u64);
    }

    #[test]
    fn dead_shard_moves_only_its_own_keys() {
        use fleche_gpu::DeviceFault;
        let (mut mg, _, ds) = build(4);
        let mut before = Vec::new();
        for t in 0..ds.table_count() as u16 {
            for f in 0..300u64 {
                before.push(mg.shard_of(t, f));
            }
        }
        mg.shard_gpu_mut(2).inject_device_fault(DeviceFault::Lost);
        mg.poll_devices();
        let mut k = 0;
        let mut moved = 0usize;
        for t in 0..ds.table_count() as u16 {
            for f in 0..300u64 {
                let after = mg.shard_of(t, f);
                if before[k] == 2 {
                    assert_ne!(after, 2, "dead shard's keys must re-home");
                    moved += 1;
                } else {
                    assert_eq!(after, before[k], "({t},{f}) must not move");
                }
                assert_eq!(mg.home_shard_of(t, f), before[k], "home ignores liveness");
                k += 1;
            }
        }
        assert!(moved > 0, "shard 2 owned some of the sampled keys");
        // Restore: routing returns exactly to the original assignment.
        mg.shard_gpu_mut(2)
            .inject_device_fault(DeviceFault::Restored);
        mg.poll_devices();
        let mut k = 0;
        for t in 0..ds.table_count() as u16 {
            for f in 0..300u64 {
                assert_eq!(mg.shard_of(t, f), before[k], "restore reverts routing");
                k += 1;
            }
        }
        assert_eq!(mg.failover_stats().device_losses, 1);
        assert_eq!(mg.failover_stats().device_restores, 1);
    }

    #[test]
    fn failover_serves_ground_truth_throughout() {
        use fleche_gpu::DeviceFault;
        let (mut mg, mut gen, ds) = build(3);
        let truth = CpuStore::new(&ds, DramSpec::xeon_6252());
        for i in 0..10 {
            if i == 3 {
                mg.shard_gpu_mut(1).inject_device_fault(DeviceFault::Lost);
            }
            if i == 7 {
                mg.shard_gpu_mut(1)
                    .inject_device_fault(DeviceFault::Restored);
            }
            let batch = gen.next_batch(96);
            let (rows, _, stats) = mg.query_batch(&batch);
            let mut k = 0;
            for (t, ids) in batch.table_ids.iter().enumerate() {
                for &id in ids {
                    assert_eq!(rows[k], truth.read(t as u16, id), "batch {i} row {k}");
                    k += 1;
                }
            }
            assert_eq!(stats.degraded, (3..7).contains(&i), "batch {i}");
        }
        let f = mg.failover_stats();
        assert_eq!(f.device_losses, 1);
        assert_eq!(f.device_restores, 1);
        assert!(
            f.moved_keys > 0,
            "the dead shard's range was served elsewhere"
        );
        assert_eq!(f.degraded_batches, 4);
        assert_eq!(mg.lifetime_stats().degraded_batches, 4);
        assert!(f.time_degraded > Ns::ZERO);
        assert_eq!(mg.alive_count(), 3);
    }

    #[test]
    fn lifetime_sums_every_shard_counter_and_breaker_degradation() {
        use fleche_chaos::{BreakerConfig, FaultPlan};
        use fleche_store::api::EmbeddingCacheSystem;
        let ds = spec::synthetic(6, 4_000, 16, -1.3);
        let mut mg = MultiGpuFleche::new(
            &ds,
            3,
            0.05,
            FlecheConfig {
                breaker: Some(BreakerConfig {
                    failure_threshold: 0.5,
                    min_samples: 4,
                    window: 8,
                    cooldown: Ns::from_us(200.0),
                    probes_to_close: 2,
                }),
                ..FlecheConfig::full(0.05)
            },
            InterconnectSpec::pcie_p2p(),
        );
        let mut plan = FaultPlan::quiet(5);
        plan.gpu.launch_failure_rate = 1.0;
        mg.shard_gpu_mut(1)
            .set_fault_hook(Some(Box::new(plan.gpu_injector())));
        let mut gen = TraceGenerator::new(&ds);
        for _ in 0..12 {
            mg.query_batch(&gen.next_batch(128));
        }
        let agg = mg.lifetime_stats();
        assert!(
            agg.degraded_batches > 0,
            "a shard's breaker-degraded batch degrades the aggregate"
        );
        assert_eq!(
            mg.failover_stats().degraded_batches,
            0,
            "failover counts dead shards only"
        );
        let shards: Vec<LifetimeStats> = (0..3)
            .map(|s| mg.shard_system(s).lifetime_stats())
            .collect();
        let sum = |f: fn(&LifetimeStats) -> u64| shards.iter().map(f).sum::<u64>();
        assert_eq!(agg.unique_keys, sum(|l| l.unique_keys));
        assert_eq!(agg.hits, sum(|l| l.hits));
        assert_eq!(agg.unified_hits, sum(|l| l.unified_hits));
        assert_eq!(agg.misses, sum(|l| l.misses));
        assert_eq!(agg.failed_keys, sum(|l| l.failed_keys));
        assert_eq!(agg.stale_keys, sum(|l| l.stale_keys));
        assert_eq!(agg.corrupt_detected, sum(|l| l.corrupt_detected));
    }

    #[test]
    fn restored_device_rewarms_from_its_checkpoint() {
        use fleche_gpu::DeviceFault;
        let (mut mg, mut gen, _) = build(2);
        for _ in 0..8 {
            mg.query_batch(&gen.next_batch(256));
        }
        let ckpt_time = mg.checkpoint();
        assert!(ckpt_time > Ns::ZERO);
        mg.shard_gpu_mut(1).inject_device_fault(DeviceFault::Lost);
        mg.query_batch(&gen.next_batch(64));
        mg.shard_gpu_mut(1)
            .inject_device_fault(DeviceFault::Restored);
        mg.query_batch(&gen.next_batch(64));
        let f = mg.failover_stats();
        assert!(f.rewarm_restored_entries > 0, "checkpoint replayed: {f:?}");
        assert_eq!(f.snapshot_rejected, 0);
        assert_eq!(f.cold_rewarms, 0);
        assert!(f.rewarm_time > Ns::ZERO);
    }

    #[test]
    fn restore_without_checkpoint_rewarms_cold() {
        use fleche_gpu::DeviceFault;
        let (mut mg, mut gen, _) = build(2);
        mg.query_batch(&gen.next_batch(64));
        mg.shard_gpu_mut(0).inject_device_fault(DeviceFault::Lost);
        mg.query_batch(&gen.next_batch(64));
        mg.shard_gpu_mut(0)
            .inject_device_fault(DeviceFault::Restored);
        mg.query_batch(&gen.next_batch(64));
        let f = mg.failover_stats();
        assert_eq!(f.cold_rewarms, 1);
        assert_eq!(f.rewarm_restored_entries, 0);
    }

    #[test]
    fn updates_route_through_shards_and_serve_latest() {
        use fleche_store::{versioned_embedding_value, UpdateStream};
        let (mut mg, mut gen, ds) = build(3);
        for _ in 0..8 {
            mg.query_batch(&gen.next_batch(256));
        }
        let mut stream = UpdateStream::new(&ds, 21);
        let burst = stream.next_burst(256);
        mg.commit_updates(&burst);
        mg.push_updates(&burst);
        // Every staged push is accounted at the next batch boundary of its
        // owning shard.
        mg.query_batch(&gen.next_batch(256));
        let st = mg.staleness_stats();
        assert_eq!(
            st.updates_applied + st.updates_superseded + st.updates_absent,
            256
        );
        // After the boundary, every served row is at the ledger's latest
        // version regardless of which shard serves it.
        let batch = gen.next_batch(256);
        let (rows, _, _) = mg.query_batch(&batch);
        let mut k = 0;
        for (t, ids) in batch.table_ids.iter().enumerate() {
            for &id in ids {
                // Commits broadcast, so any shard's ledger knows the
                // version.
                let v = mg.shard_system(0).updates().ledger().get(t as u16, id);
                let mut want = vec![0.0f32; 16];
                versioned_embedding_value(t as u16, id, v, &mut want);
                assert_eq!(rows[k], want, "row {k} at version {v}");
                k += 1;
            }
        }
    }

    #[test]
    fn delta_rewarm_recovers_past_the_base() {
        use fleche_gpu::DeviceFault;
        use fleche_store::UpdateStream;
        let (mut mg, mut gen, ds) = build(2);
        for _ in 0..8 {
            mg.query_batch(&gen.next_batch(256));
        }
        mg.checkpoint();
        let mut stream = UpdateStream::new(&ds, 33);
        for _ in 0..3 {
            let burst = stream.next_burst(128);
            mg.commit_updates(&burst);
            mg.push_updates(&burst);
            mg.query_batch(&gen.next_batch(256));
            mg.delta_checkpoint();
        }
        mg.shard_gpu_mut(1).inject_device_fault(DeviceFault::Lost);
        mg.query_batch(&gen.next_batch(128));
        mg.shard_gpu_mut(1)
            .inject_device_fault(DeviceFault::Restored);
        mg.query_batch(&gen.next_batch(128));
        let f = mg.failover_stats();
        assert!(f.rewarm_restored_entries > 0, "chain replayed: {f:?}");
        assert_eq!(f.snapshot_rejected, 0);
        let latest = mg.shard_system(0).updates().ledger().max_version();
        assert!(
            f.rewarm_max_version > 0 && f.rewarm_max_version <= latest,
            "re-warm landed on an updated version (got {}, ledger max {latest})",
            f.rewarm_max_version
        );

        // A lone delta where the chain's base should be: the re-warm is
        // refused whole and the shard comes back cold, not "warm" with
        // only the keys that happened to change.
        let delta = mg.chains[1].as_ref().expect("checkpointed").deltas()[0].clone();
        mg.chains[1] = Some(CheckpointChain::from_images(delta, Vec::new()));
        mg.shard_gpu_mut(1).inject_device_fault(DeviceFault::Lost);
        mg.poll_devices();
        mg.shard_gpu_mut(1)
            .inject_device_fault(DeviceFault::Restored);
        assert_eq!(mg.poll_devices(), (0, 1));
        let f = mg.failover_stats();
        assert_eq!(f.snapshot_rejected, 1);
        assert_eq!(f.cold_rewarms, 1);
        assert_eq!(mg.shard_system(1).cache().len(), 0, "shard is cold");
    }

    #[test]
    #[should_panic(expected = "all devices lost")]
    fn losing_every_device_panics() {
        use fleche_gpu::DeviceFault;
        let (mut mg, mut gen, _) = build(2);
        mg.shard_gpu_mut(0).inject_device_fault(DeviceFault::Lost);
        mg.shard_gpu_mut(1).inject_device_fault(DeviceFault::Lost);
        mg.query_batch(&gen.next_batch(16));
    }

    #[test]
    #[should_panic(expected = "at least one GPU")]
    fn zero_gpus_rejected() {
        let ds = spec::synthetic(2, 100, 8, -1.2);
        let _ = MultiGpuFleche::new(
            &ds,
            0,
            0.05,
            FlecheConfig::full(0.05),
            InterconnectSpec::pcie_p2p(),
        );
    }
}
