//! The complete Fleche query workflow (paper §3).
//!
//! One batch proceeds: dedup → re-encode to flat keys → (fused) index
//! kernel → decoupled hit-copy kernel in parallel with the CPU-DRAM query
//! for misses (unified-index entries skip the CPU-side indexing) →
//! replacement (admission-filtered, copy-then-index order) → restore.
//! Each step is one stage function over a shared per-batch context
//! (`query_batch_inner` is the list of them); DESIGN.md §4.2 has the stage
//! diagram — what each stage reads, writes and prices, and which stages a
//! breaker-degraded batch runs.
//!
//! Every technique is individually switchable so the ablation experiments
//! (Exp #7, Exp #8) can measure each one's contribution:
//! `fusion` (self-identified kernel fusion vs per-table kernels),
//! `decoupling` (separate index/copy kernels + DRAM overlap vs coupled),
//! `unified_index` (GPU-resident DRAM pointers + capacity tuner).

use crate::flat_cache::{CacheAnswer, Captured, Fill, FlatCache, FlatCacheConfig};
use crate::fusion::{FusionMember, FusionPlan};
use crate::recovery::{CacheSnapshot, CheckpointChain, RestoreReport, SnapshotError};
use crate::tuner::UnifiedIndexTuner;
use crate::update::{StalenessStats, UpdatePipeline};
use fleche_chaos::{BreakerConfig, CircuitBreaker, StalenessConfig};
use fleche_coding::{FlatKey, FlatKeyCodec, SizeAwareCodec};
use fleche_gpu::{
    slot_resource, CopyApi, FaultCounters, Gpu, KernelDesc, KernelId, KernelWork, Ns, RaceChecker,
};
use fleche_index::{EpochGuard, ProbeStats, SLAB_WIDTH};
use fleche_store::api::{
    coupled_query_work, BatchStats, EmbeddingCacheSystem, LifetimeStats, QueryOutput,
    METADATA_COPY, PER_KERNEL_PREP,
};
use fleche_store::{
    CpuStore, Deduped, FetchReport, RowArena, RowPool, Rows, TieredStore, UpdatePush,
};
use fleche_workload::{Batch, DatasetSpec};

/// Host-side cost of re-encoding one key (a cached table-code fetch plus
/// shift/mask work — the paper calls this "ultra-fast").
const ENCODE_NS_PER_KEY: f64 = 2.0;

/// Feature switches and sizing for a Fleche instance.
#[derive(Clone, Debug)]
pub struct FlecheConfig {
    /// Fraction of total embedding bytes given to the cache.
    pub cache_fraction: f64,
    /// Flat-key width in bits.
    pub key_bits: u32,
    /// Merge all per-table query kernels into one (self-identified kernel
    /// fusion).
    pub fusion: bool,
    /// Decouple copying from indexing (separate kernels, DRAM overlap).
    pub decoupling: bool,
    /// Maintain GPU-resident pointers to CPU-DRAM embeddings.
    pub unified_index: bool,
    /// Cache replacement & eviction policy knobs.
    pub cache: FlatCacheConfig,
    /// Verify a per-slot checksum on every cache hit; corrupt entries are
    /// quarantined and the key refetched from the miss backend.
    pub checksums: bool,
    /// Circuit breaker over the GPU-cache path: when the per-batch fault
    /// rate (transient launch failures, stream stalls, detected
    /// corruption) trips the threshold, batches degrade to the DRAM-only
    /// path until half-open probes succeed. `None` disables it.
    pub breaker: Option<BreakerConfig>,
    /// Staleness bound over the online-update pipeline: when any hit's
    /// version lag exceeds `max_lag`, the system enters a declared
    /// staleness-degraded mode in which hits over `resume_lag` are demoted
    /// to misses (served at the ledger's latest version) and refreshed at
    /// the batch boundary, until the raw lag falls back to `resume_lag`.
    /// `None` serves arbitrarily stale hits silently.
    pub staleness: Option<StalenessConfig>,
}

impl Default for FlecheConfig {
    fn default() -> FlecheConfig {
        FlecheConfig {
            cache_fraction: 0.05,
            key_bits: 40,
            fusion: true,
            decoupling: true,
            unified_index: true,
            cache: FlatCacheConfig::default(),
            checksums: false,
            breaker: None,
            staleness: None,
        }
    }
}

impl FlecheConfig {
    /// The Fig-16 "+FC" stage: flat cache only (per-table kernels, coupled,
    /// no unified index).
    pub fn flat_cache_only(cache_fraction: f64) -> FlecheConfig {
        FlecheConfig {
            cache_fraction,
            fusion: false,
            decoupling: false,
            unified_index: false,
            ..FlecheConfig::default()
        }
    }

    /// The Fig-16 "+Fusion" stage: flat cache + fused (coupled) kernel.
    pub fn with_fusion(cache_fraction: f64) -> FlecheConfig {
        FlecheConfig {
            cache_fraction,
            fusion: true,
            decoupling: false,
            unified_index: false,
            ..FlecheConfig::default()
        }
    }

    /// Full Fleche minus the unified index (the paper's "Fleche w/o
    /// unified index" variant).
    pub fn without_unified_index(cache_fraction: f64) -> FlecheConfig {
        FlecheConfig {
            cache_fraction,
            unified_index: false,
            ..FlecheConfig::default()
        }
    }

    /// Full Fleche.
    pub fn full(cache_fraction: f64) -> FlecheConfig {
        FlecheConfig {
            cache_fraction,
            ..FlecheConfig::default()
        }
    }
}

/// Where missing embeddings are fetched from.
///
/// `Flat` is the paper's default deployment (the whole model fits in local
/// DRAM); `Tiered` is giant-model mode (paper §5), where the DRAM layer is
/// itself a cache over a remote parameter server and its evictions must
/// invalidate unified-index pointers.
// One instance per FlecheSystem, so the size gap between the two stores is
// irrelevant; boxing would only add indirection on the hot miss path.
#[allow(clippy::large_enum_variant)]
enum MissBackend {
    /// Local CPU-DRAM holds every embedding.
    Flat(CpuStore),
    /// CPU-DRAM caches a remote parameter server.
    Tiered(TieredStore),
}

impl MissBackend {
    /// Queries missing keys at simulated time `now` (the tiered backend's
    /// fault windows and retry deadlines are anchored to it), appending
    /// their rows to `arena`. The flat backend cannot fail and always
    /// reports a clean fetch.
    fn query_batch_into(
        &mut self,
        keys: &[(u16, u64)],
        now: Ns,
        arena: &mut RowArena,
    ) -> (Ns, FetchReport) {
        match self {
            MissBackend::Flat(s) => (s.query_batch_into(keys, arena), FetchReport::default()),
            MissBackend::Tiered(s) => s.query_batch_at_into(keys, now, arena),
        }
    }

    /// Reads keys whose location is already known (unified-index hits)
    /// into `arena`: payload cost only, no index walk. Tiered mode also
    /// refreshes the DRAM layer's LRU so located keys do not get evicted
    /// underneath their pointers.
    fn read_located_into(&mut self, keys: &[(u16, u64)], arena: &mut RowArena) -> Ns {
        match self {
            MissBackend::Flat(s) => {
                s.read_rows_into(keys, arena);
                s.payload_cost(keys)
            }
            MissBackend::Tiered(s) => s.read_located_into(keys, arena),
        }
    }

    /// The CPU-DRAM layer, whose prices every DRAM-resident key pays.
    fn dram(&self) -> &CpuStore {
        match self {
            MissBackend::Flat(s) => s,
            MissBackend::Tiered(s) => s.dram_layer(),
        }
    }

    fn take_evicted(&mut self) -> Vec<(u16, u64)> {
        match self {
            MissBackend::Flat(_) => Vec::new(),
            MissBackend::Tiered(s) => s.take_evicted(),
        }
    }
}

/// The stretch of a batch's unique-key list that belongs to one table, and
/// what the index phase learns about it. `Deduped::unique` is
/// table-contiguous (batches flatten table-major), so the per-table groups
/// that price the query kernels are runs found by one scan — no per-table
/// vectors.
#[derive(Clone, Copy, Default)]
struct TableRun {
    table: u16,
    start: usize,
    end: usize,
    /// Probe statistics folded over the run.
    stats: ProbeStats,
    /// Served HBM hits in the run, and the bytes copying them moves (read +
    /// write).
    hits: usize,
    hit_bytes: u64,
}

/// One batch's state, handed from stage to stage of the workflow (DESIGN.md
/// §4.2 has the diagram: which stage writes and reads what). Owned by the
/// system and lent to each batch, so a steady-state batch allocates none of
/// the working vectors; [`BatchContext::clear`] empties it when the batch
/// ends, so nothing carries over between batches but capacity.
#[derive(Default)]
struct BatchContext {
    /// What the batch reports, filled in as the stages run. `degraded` is
    /// set from the start for a batch the breaker routed around the GPU
    /// cache: it needs no flat keys and has no unified-index hits to read.
    stats: BatchStats,
    t_start: Ns,
    dedup: Deduped,
    /// One flat key per unique key, in `unique` order.
    keys: Vec<FlatKey>,
    /// One run per table present in the batch, ascending.
    runs: Vec<TableRun>,
    /// Start of the index phase: `probe`, `settle` and `index_kernels` are
    /// one span.
    index_start: Ns,
    /// Answer and probe statistics per unique key, in `unique` order.
    /// `settle` edits answers in place when it quarantines or demotes a
    /// hit; after it they are final.
    probed: Vec<(CacheAnswer, ProbeStats)>,
    /// Worst raw (pre-demotion) version lag over this batch's hits.
    max_lag: u64,
    /// Position in `unique` and pool location of every served HBM hit, in
    /// `unique` order, and the bytes copying them all moves.
    hit_pos: Vec<usize>,
    hit_slots: Vec<(u16, u32)>,
    hit_copy_bytes: u64,
    /// Epoch pin held while the decoupled copy kernel is in flight.
    pin: Option<EpochGuard>,
    /// The fill list — every key served from the miss backend: position in
    /// `unique`, `(table, id)`, fetched row (row `i` of one arena), and the
    /// update version the row carries (0 = frozen table value). The first
    /// `n_miss` are full misses, the rest unified-index hits.
    fill_pos: Vec<usize>,
    fill_keys: Vec<(u16, u64)>,
    n_miss: usize,
    fill_rows: RowArena,
    fill_versions: Vec<u64>,
    fill_bytes: u64,
    /// Sorted fill-list indices whose fetch failed (zero row) or was served
    /// stale: never rewritten, never admitted.
    unfetched: Vec<usize>,
    /// Pool locations admitted by this batch's replacement.
    admitted_slots: Vec<(u16, u32)>,
    /// Start of the `gather_rows` → batch-boundary tail, one `other` span.
    tail_start: Ns,
}

impl BatchContext {
    /// Empties the context when its batch ends, keeping every vector's
    /// capacity — the flat keys and the fill arena included — so the next
    /// batch reuses the memory. The dedup mapping is left for stage 1 to
    /// rebuild in place (or replace with a prepared one). (The scalars not
    /// named here are assigned by a stage every batch runs before anything
    /// reads them.)
    fn clear(&mut self) {
        self.stats = BatchStats::default();
        self.keys.clear();
        self.runs.clear();
        self.probed.clear();
        self.max_lag = 0;
        self.hit_pos.clear();
        self.hit_slots.clear();
        self.fill_pos.clear();
        self.fill_keys.clear();
        self.fill_rows.clear();
        self.fill_versions.clear();
        self.unfetched.clear();
        self.admitted_slots.clear();
    }

    /// Sorts the (final) answers into the hit list and the fill list — full
    /// misses first, then unified-index hits — counting each run's hits and
    /// hit-copy bytes in the same scan.
    fn classify(&mut self, dims: &[u32]) {
        self.hit_pos.clear();
        self.hit_slots.clear();
        self.hit_copy_bytes = 0;
        for run in &mut self.runs {
            for pos in run.start..run.end {
                match self.probed[pos].0 {
                    CacheAnswer::Hit { class, slot } => {
                        self.hit_pos.push(pos);
                        self.hit_slots.push((class, slot));
                        run.hits += 1;
                    }
                    CacheAnswer::Miss => self.fill_pos.push(pos),
                    CacheAnswer::UnifiedHit => {}
                }
            }
            run.hit_bytes = run.hits as u64 * u64::from(dims[run.table as usize]) * 4 * 2;
            self.hit_copy_bytes += run.hit_bytes;
        }
        self.n_miss = self.fill_pos.len();
        for (pos, (ans, _)) in self.probed.iter().enumerate() {
            if matches!(ans, CacheAnswer::UnifiedHit) {
                self.fill_pos.push(pos);
            }
        }
        let unique = &self.dedup.unique;
        self.fill_keys
            .extend(self.fill_pos.iter().map(|&pos| unique[pos]));
    }
}

/// The Fleche embedding cache system.
pub struct FlecheSystem {
    cache: FlatCache,
    codec: SizeAwareCodec,
    store: MissBackend,
    config: FlecheConfig,
    tuner: UnifiedIndexTuner,
    clock: u32,
    lifetime: LifetimeStats,
    n_tables: usize,
    breaker: Option<CircuitBreaker>,
    /// GPU fault counters as of the end of the previous batch, so each
    /// batch's breaker sample sees only its own fault delta.
    last_faults: FaultCounters,
    updates: UpdatePipeline,
    /// Epoch stamped into full checkpoints (increments per checkpoint).
    checkpoint_epoch: u64,
    scratch: BatchContext,
    /// The output matrix lent to each batch; it comes back when the
    /// batch's [`Rows`] is dropped.
    rows: RowPool,
}

impl FlecheSystem {
    /// Builds Fleche over `store`.
    pub fn new(spec: &DatasetSpec, store: CpuStore, config: FlecheConfig) -> FlecheSystem {
        FlecheSystem::with_backend(spec, MissBackend::Flat(store), config)
    }

    /// Builds Fleche in giant-model mode over a tiered (DRAM-cache +
    /// remote parameter server) backend.
    pub fn with_tiered_store(
        spec: &DatasetSpec,
        store: TieredStore,
        config: FlecheConfig,
    ) -> FlecheSystem {
        FlecheSystem::with_backend(spec, MissBackend::Tiered(store), config)
    }

    /// Builds Fleche over either miss backend, with the size-aware codec.
    fn with_backend(spec: &DatasetSpec, store: MissBackend, config: FlecheConfig) -> FlecheSystem {
        let corpora: Vec<u64> = spec.tables.iter().map(|t| t.corpus).collect();
        let cache_bytes = spec.cache_bytes(config.cache_fraction);
        let mut cache = FlatCache::new(spec, cache_bytes, config.cache);
        // Tuner: steps of ~12% of cache entries, capped at 1x cache
        // entries of pure pointers — pointers are ~25x smaller than a
        // dim-32 value, so even the max target displaces only a few
        // percent of cached values.
        let approx_entries = (cache_bytes / (spec.tables[0].dim as u64 * 4)).max(64);
        let tuner = UnifiedIndexTuner::new((approx_entries / 8).max(64), approx_entries);
        if config.checksums {
            cache.enable_checksums();
        }
        FlecheSystem {
            cache,
            codec: SizeAwareCodec::new(config.key_bits, &corpora),
            store,
            breaker: config.breaker.clone().map(CircuitBreaker::new),
            updates: UpdatePipeline::new(config.staleness),
            config,
            tuner,
            clock: 0,
            lifetime: LifetimeStats::default(),
            n_tables: spec.table_count(),
            last_faults: FaultCounters::default(),
            checkpoint_epoch: 0,
            scratch: BatchContext::default(),
            rows: RowPool::default(),
        }
    }

    /// The underlying flat cache (diagnostics).
    pub fn cache(&self) -> &FlatCache {
        &self.cache
    }

    /// Turns on per-tenant cache partitioning: tenant `t` may hold at most
    /// `quotas[t] ×` the pool's byte capacity. An at-quota tenant's misses
    /// bypass the cache instead of evicting someone else's working set,
    /// and eviction reclaims over-quota tenants' entries first. Entries
    /// resident before the call stay unowned: never charged, evicted in
    /// plain LRU order. Subsequent batches are attributed to whichever
    /// tenant [`EmbeddingCacheSystem::set_active_tenant`] last declared.
    ///
    /// # Panics
    ///
    /// Panics if `quotas` is empty, any share is non-positive, or the
    /// shares sum above 1.
    pub fn enable_tenant_partitioning(&mut self, quotas: &[f64]) {
        self.cache.enable_tenant_partitioning(quotas);
    }

    /// Capacity accounting for `tenant` under partitioning.
    pub fn tenant_cache_stats(&self, tenant: usize) -> crate::TenantCacheStats {
        self.cache.tenant_cache_stats(tenant)
    }

    /// The local CPU-DRAM store, when running in flat (non-tiered) mode.
    pub fn store(&self) -> Option<&CpuStore> {
        match &self.store {
            MissBackend::Flat(s) => Some(s),
            MissBackend::Tiered(_) => None,
        }
    }

    /// The tiered backend, when running in giant-model mode.
    pub fn tiered_store(&self) -> Option<&TieredStore> {
        match &self.store {
            MissBackend::Flat(_) => None,
            MissBackend::Tiered(s) => Some(s),
        }
    }

    /// The unified-index tuner (diagnostics).
    pub fn tuner(&self) -> &UnifiedIndexTuner {
        &self.tuner
    }

    /// The circuit breaker, when one is configured (diagnostics).
    pub fn breaker(&self) -> Option<&CircuitBreaker> {
        self.breaker.as_ref()
    }

    /// The online-update pipeline (diagnostics).
    pub fn updates(&self) -> &UpdatePipeline {
        &self.updates
    }

    /// Lifetime staleness accounting over the update pipeline.
    pub fn staleness_stats(&self) -> StalenessStats {
        self.updates.stats()
    }

    /// Commits trainer pushes to the version ledger — the *reliable*
    /// channel of the update pipeline.
    pub fn commit_updates(&mut self, gpu: &mut Gpu, pushes: &[UpdatePush]) {
        self.updates.commit(gpu, pushes);
    }

    /// Stages trainer pushes for the next batch boundary — the *lossy*
    /// channel of the update pipeline, which a chaos plan's
    /// [`fleche_chaos::UpdateFaultInjector`] drops, duplicates and reorders.
    pub fn push_updates(&mut self, gpu: &mut Gpu, pushes: &[UpdatePush]) {
        self.updates.stage(gpu, pushes);
    }

    /// Fault-injection hook: flips bit `bit` of float `word` of the `nth` of
    /// [`FlatCache::live_value_count`] live slots, checksum left stale.
    pub fn corrupt_nth_live(&mut self, nth: u64, word: u32, bit: u32) -> Option<(u16, u32)> {
        self.cache.corrupt_nth_live(nth, word, bit)
    }

    /// Captures a checkpoint of the GPU cache at a batch boundary, as a
    /// fresh [`CheckpointChain`] (a full base, no deltas yet).
    ///
    /// Synchronizes the device, closes out the epoch (so no retired slot
    /// or in-flight replace-copy can leak into the image), scans the live
    /// entries, and prices the scan kernel plus the D2H copy of the image
    /// on the simulated timeline. Every captured slot is declared to the
    /// race checker as a read of the snapshot kernel.
    pub fn checkpoint(&mut self, gpu: &mut Gpu) -> CheckpointChain {
        self.close_batch_boundary(gpu);
        self.checkpoint_epoch += 1;
        let (chain, read) = self.cache.checkpoint(self.checkpoint_epoch);
        Self::price_snapshot(gpu, chain.latest(), &read);
        chain
    }

    /// Appends an incremental delta to `chain`: exactly the live entries
    /// whose update version advanced past what the chain's base recorded.
    ///
    /// Like a full checkpoint this runs at a batch boundary: sync, epoch
    /// close-out, then a scan kernel whose reads are declared per captured
    /// slot, plus the host-side version compare against the base list.
    pub fn delta_checkpoint(&mut self, gpu: &mut Gpu, chain: &mut CheckpointChain) {
        self.close_batch_boundary(gpu);
        self.updates.price_delta_scan(gpu, self.cache.len());
        let read = self.cache.delta_checkpoint(chain);
        Self::price_snapshot(gpu, chain.latest(), &read);
    }

    /// Warm-restarts the cache from a checkpoint chain — a full base plus
    /// any deltas cut since, landing on the latest checkpointed version.
    ///
    /// Every image is checksum-verified and linkage-checked (kind, base
    /// epoch, contiguous sequence) on the host *before* any device state
    /// changes; a rejected chain returns `Err` with the cache untouched,
    /// and the caller falls back to a cold warm-up. On success the logical
    /// clock fast-forwards past the chain's newest stamp, the images are
    /// copied H2D, and one replay kernel writes the restored slots, each
    /// declared to the race checker as one of its writes.
    pub fn restore_checkpoint(
        &mut self,
        gpu: &mut Gpu,
        chain: &CheckpointChain,
    ) -> Result<RestoreReport, SnapshotError> {
        // Host-side verification cost (~FNV over the images at DRAM speed)
        // is paid whether or not the chain turns out to be clean.
        let bytes = chain.byte_len();
        gpu.elapse_host("snapshot-verify", Ns(bytes as f64 * 0.1));
        let report = self.cache.restore(chain)?;
        self.clock = self.clock.max(report.max_stamp);
        gpu.copy_blocking("snapshot-h2d", bytes.max(1), CopyApi::CudaMemcpy);
        let s = gpu.default_stream();
        let kid = gpu.launch(
            s,
            KernelDesc::new(
                "restore-replay",
                (report.restored as u32).saturating_mul(32).max(128),
                KernelWork::streaming(bytes),
            ),
        );
        declare_slots(gpu, kid, &report.slots, RaceChecker::kernel_write);
        gpu.sync_stream(s);
        Ok(report)
    }

    /// Drops all cached state, as a device loss does: after this the cache
    /// is cold and the next batches refill it through the normal workflow.
    /// Synchronizes first so no kernel is in flight over the wiped pool.
    pub fn wipe_cache(&mut self, gpu: &mut Gpu) {
        self.close_batch_boundary(gpu);
        // The wipe itself is a host-side write to every surviving slot;
        // declared, so a replayed schedule that overlaps a kernel with the
        // teardown is a reported race instead of a silent one.
        self.cache.wipe_with(|class, slot| {
            if let Some(rc) = gpu.race_checker_mut() {
                rc.host_write("wipe", slot_resource(class, slot));
            }
        });
    }

    /// The batch-boundary close-out every lifecycle operation starts from:
    /// synchronize the device, then reclaim, so no retired slot or in-flight
    /// replace-copy can leak into what follows.
    fn close_batch_boundary(&mut self, gpu: &mut Gpu) {
        gpu.sync_all();
        self.reclaim_retired(gpu);
    }

    /// Advances the epoch and frees retired slots — a host-side write to
    /// each. Safe only behind a device sync: that is the happens-before
    /// edge against an in-flight copy kernel; without it the race checker
    /// reports every reclaimed-while-read slot.
    fn reclaim_retired(&mut self, gpu: &mut Gpu) {
        if let Some(rc) = gpu.race_checker_mut() {
            rc.note_epoch_advance();
        }
        self.cache.end_batch_with(|class, slot| {
            if let Some(rc) = gpu.race_checker_mut() {
                rc.host_write("reclaim", slot_resource(class, slot));
            }
        });
    }

    /// Prices capturing `snap` on the simulated timeline: the scan kernel,
    /// with every captured slot declared as one of its reads, then the D2H
    /// copy of the image.
    fn price_snapshot(gpu: &mut Gpu, snap: &CacheSnapshot, read: &Captured) {
        let s = gpu.default_stream();
        let kid = gpu.launch(
            s,
            KernelDesc::new(
                "snapshot-scan",
                16_384,
                KernelWork::streaming(read.scan_bytes + snap.byte_len()),
            ),
        );
        declare_slots(gpu, kid, &read.slots, RaceChecker::kernel_read);
        gpu.sync_stream(s);
        gpu.copy_blocking("snapshot-d2h", snap.byte_len().max(1), CopyApi::CudaMemcpy);
    }

    /// Bounded cold-start warm-up: prefetches `hot` (hottest-first, e.g.
    /// from [`fleche_workload::WorkloadStats::hottest`]) through the
    /// normal query workflow in synthetic batches of `chunk` keys.
    /// Returns the number of warm-up batches run. Admission still applies,
    /// so a probabilistic filter may need more than one pass; warm-up
    /// batches land in lifetime stats like any other (callers typically
    /// `reset_stats` afterwards).
    pub fn warm_up(&mut self, gpu: &mut Gpu, hot: &[(u16, u64)], chunk: usize) -> u64 {
        let mut batches = 0u64;
        for keys in hot.chunks(chunk.max(1)) {
            let mut table_ids: Vec<Vec<u64>> = vec![Vec::new(); self.n_tables];
            for &(t, f) in keys {
                if let Some(ids) = table_ids.get_mut(t as usize) {
                    ids.push(f);
                }
            }
            self.query_batch(gpu, &Batch::from_table_ids(table_ids));
            batches += 1;
        }
        batches
    }
}

impl EmbeddingCacheSystem for FlecheSystem {
    fn name(&self) -> &'static str {
        match (
            self.config.fusion,
            self.config.decoupling,
            self.config.unified_index,
        ) {
            (false, _, _) => "fleche (+FC)",
            (true, false, _) => "fleche (+FC+fusion)",
            (true, true, false) => "fleche w/o unified index",
            (true, true, true) => "fleche",
        }
    }

    fn set_active_tenant(&mut self, tenant: usize) {
        self.cache.set_active_tenant(tenant);
    }

    fn lifetime_stats(&self) -> LifetimeStats {
        self.lifetime
    }

    fn reset_stats(&mut self) {
        self.lifetime = LifetimeStats::default();
        self.updates.reset_stats();
    }

    fn query_batch(&mut self, gpu: &mut Gpu, batch: &Batch) -> QueryOutput {
        self.query_batch_inner(gpu, batch, None)
    }

    fn query_batch_prepared(
        &mut self,
        gpu: &mut Gpu,
        batch: &Batch,
        prepared: Deduped,
    ) -> QueryOutput {
        self.query_batch_inner(gpu, batch, Some(prepared))
    }
}

/// Declares to the race checker that `kernel` accesses every pool slot in
/// `slots`; `access` is [`RaceChecker::kernel_read`] or
/// [`RaceChecker::kernel_write`].
fn declare_slots(
    gpu: &mut Gpu,
    kernel: KernelId,
    slots: &[(u16, u32)],
    access: fn(&mut RaceChecker, KernelId, u64),
) {
    if let Some(rc) = gpu.race_checker_mut() {
        for &(class, slot) in slots {
            access(rc, kernel, slot_resource(class, slot));
        }
    }
}

/// The batch-query workflow (paper §3–§4) as stages over one
/// [`BatchContext`]: `query_batch_inner` runs all of them, a degraded batch
/// runs `dedup`, `fetch` and `gather_rows`. Each stage does its functional step
/// and then prices *that* step — the tiered store reads the simulated clock
/// at fetch time, so pricing cannot wait for the end of the batch.
impl FlecheSystem {
    /// Shared by the plain and prepared entry points. A pipelined prep
    /// stage may hand in the dedup mapping it computed on another host
    /// thread; the simulated host cost charged is identical either way, so
    /// pipelining moves *real* CPU work between threads without perturbing
    /// simulated time.
    fn query_batch_inner(
        &mut self,
        gpu: &mut Gpu,
        batch: &Batch,
        prepared: Option<Deduped>,
    ) -> QueryOutput {
        let degraded = self.breaker.as_mut().is_some_and(|b| !b.allow(gpu.now()));
        self.clock += 1;
        let mut cx = std::mem::take(&mut self.scratch);
        cx.stats.degraded = degraded;
        cx.t_start = gpu.now();
        self.dedup(gpu, batch, prepared, &mut cx);
        let rows = if degraded {
            self.degraded_batch(gpu, &mut cx)
        } else {
            self.probe(gpu, &mut cx);
            self.settle(gpu, &mut cx);
            self.index_kernels(gpu, &mut cx);
            self.launch_copy(gpu, &mut cx);
            self.fetch(gpu, &mut cx);
            self.replace(gpu, &mut cx);
            let rows = self.gather_rows(gpu, &mut cx);
            self.close(gpu, &mut cx);
            rows
        };
        cx.stats.unique_keys = cx.dedup.unique.len() as u64;
        cx.stats.hits = cx.hit_pos.len() as u64;
        cx.stats.unified_hits = (cx.fill_pos.len() - cx.n_miss) as u64;
        cx.stats.misses = cx.n_miss as u64;
        cx.stats.wall = gpu.now() - cx.t_start;
        let stats = cx.stats;
        self.lifetime.observe(&stats);
        cx.clear();
        self.scratch = cx;
        QueryOutput { rows, stats }
    }

    /// Serves a deduplicated batch entirely from the miss backend: the
    /// workflow the breaker falls back to while the GPU cache is distrusted.
    /// The cache is neither consulted nor refilled and the batch boundary is
    /// not closed (staged updates wait for the next cache-path batch), so a
    /// faulty device only touches the (unavoidable) restore kernel.
    fn degraded_batch(&mut self, gpu: &mut Gpu, cx: &mut BatchContext) -> Rows {
        // The cache is not consulted: every unique key is a full miss.
        cx.n_miss = cx.dedup.unique.len();
        cx.fill_pos.extend(0..cx.n_miss);
        cx.fill_keys.extend_from_slice(&cx.dedup.unique);
        self.fetch(gpu, cx);
        let rows = self.gather_rows(gpu, cx);
        cx.stats.phases.other += gpu.now() - cx.tail_start;
        // Faults during degraded batches must not count against the next
        // probe's sample.
        self.last_faults = gpu.fault_counters();
        rows
    }

    /// Stage 1: dedup (in place, unless a prep thread handed in the
    /// mapping), then re-encode the unique keys to flat keys and find the
    /// table runs (host, "other"). Whether the hashing ran here or on a
    /// prep thread, the simulated host cost charged for it is the same.
    fn dedup(
        &mut self,
        gpu: &mut Gpu,
        batch: &Batch,
        prepared: Option<Deduped>,
        cx: &mut BatchContext,
    ) {
        let o0 = gpu.now();
        match prepared {
            Some(dedup) => cx.dedup = dedup,
            None => cx.dedup.rebuild(batch),
        }
        gpu.elapse_host("dedup", cx.dedup.host_cost());
        if !cx.stats.degraded {
            let unique = &cx.dedup.unique;
            gpu.elapse_host(
                "encode",
                Ns(unique.len() as f64 * ENCODE_NS_PER_KEY + self.n_tables as f64 * 50.0),
            );
            self.codec.encode_pairs_into(unique, &mut cx.keys);
            for (pos, &(t, _)) in unique.iter().enumerate() {
                match cx.runs.last_mut() {
                    Some(run) if run.table == t => run.end = pos + 1,
                    _ => cx.runs.push(TableRun {
                        table: t,
                        start: pos,
                        end: pos + 1,
                        ..TableRun::default()
                    }),
                }
            }
        }
        cx.stats.phases.other += gpu.now() - o0;
    }

    /// Stage 2: one batched probe walk over every table's keys (the flat
    /// cache's point: one index, one wide operation). Per-key answers and
    /// statistics are what per-key lookups return; folding them per run
    /// gives each table's kernel the statistics that price it.
    fn probe(&mut self, gpu: &Gpu, cx: &mut BatchContext) {
        cx.index_start = gpu.now();
        self.cache
            .lookup_batch_into(&cx.keys, self.clock, &mut cx.probed);
        for run in &mut cx.runs {
            for (_, s) in &cx.probed[run.start..run.end] {
                run.stats.merge(s);
            }
        }
    }

    /// Stage 3: decides which hits are served. Corrupt hits are quarantined
    /// and, while staleness-degraded, over-bound hits are demoted
    /// (`UpdatePipeline::check_lag`) — both become misses, so the DRAM fill
    /// serves clean, latest bytes instead. After this stage answers are
    /// final and sorted into the hit list and the fill list.
    fn settle(&mut self, gpu: &mut Gpu, cx: &mut BatchContext) {
        if self.config.checksums {
            // Verify every HBM hit in one pass over the rows the probe
            // prefetched, quarantining in `unique` order.
            for (pos, (ans, _)) in cx.probed.iter().enumerate() {
                if let CacheAnswer::Hit { class, slot } = *ans {
                    cx.hit_pos.push(pos);
                    cx.hit_slots.push((class, slot));
                }
            }
            let verdicts = self.cache.verify_hits(&cx.hit_slots);
            for ((&pos, &(class, slot)), ok) in cx.hit_pos.iter().zip(&cx.hit_slots).zip(verdicts) {
                if !ok {
                    self.cache.quarantine(cx.keys[pos], class, slot);
                    cx.stats.corrupt_detected += 1;
                    cx.probed[pos].0 = CacheAnswer::Miss;
                }
            }
        }
        cx.max_lag = self
            .updates
            .check_lag(gpu, &self.cache, &cx.dedup.unique, &mut cx.probed);
        cx.classify(self.cache.table_dims());
    }

    /// The query kernel each table's run would launch on its own: what
    /// `index_kernels` fuses, or launches one by one.
    fn query_members(&self, cx: &BatchContext) -> Vec<FusionMember> {
        let total_unique = cx.dedup.unique.len();
        let members = cx.runs.iter().map(|run| {
            let mut work = if self.config.decoupling {
                KernelWork {
                    global_bytes: run.stats.bytes_touched,
                    dependent_rounds: run.stats.max_chain,
                    ..KernelWork::NOOP
                }
            } else {
                // Coupled: the same kernel copies the hit values, and every
                // key of the batch contends for the one index's buckets.
                coupled_query_work(
                    &run.stats,
                    run.hit_bytes,
                    self.cache.table_dims()[run.table as usize],
                    total_unique,
                    self.cache.bucket_count(),
                )
            };
            if self.config.checksums {
                // Checksum verification folds one lane step (xor, then
                // multiply) per hit word into the query kernel, priced at
                // `hit_bytes / 8` flops — the calibration every figure
                // was captured with.
                work.flops = run.hit_bytes / 8;
            }
            FusionMember {
                threads: (run.end - run.start) as u32 * SLAB_WIDTH as u32,
                block_size: 128,
                grid_sync: false,
                work,
            }
        });
        members.collect()
    }

    /// Stage 4: the priced index kernels — one fused launch or one launch
    /// per table — and the hit/miss bitmap's trip back to the host. Closes
    /// the index phase: decoupled, all of it is `cache_index`; coupled, the
    /// query kernels also copy the hit values (so they read every hit
    /// slot), and the span splits by bytes.
    fn index_kernels(&mut self, gpu: &mut Gpu, cx: &mut BatchContext) {
        let members = self.query_members(cx);
        let coupled = !self.config.decoupling;
        if self.config.fusion {
            let label = if coupled {
                "fleche-query"
            } else {
                "fleche-index"
            };
            if let Ok(plan) = FusionPlan::build(label, &members) {
                gpu.elapse_host("fusion-prep", PER_KERNEL_PREP);
                gpu.copy_blocking("fusion-meta-h2d", plan.metadata_bytes, METADATA_COPY);
                let s = gpu.default_stream();
                let kid = gpu.launch(s, plan.fused);
                if coupled {
                    declare_slots(gpu, kid, &cx.hit_slots, RaceChecker::kernel_read);
                }
                gpu.sync_stream(s);
            }
        } else {
            let streams = gpu.streams(cx.runs.len().max(1));
            let mut run_hits = cx.hit_slots.as_slice();
            for (gi, (m, run)) in members.iter().zip(&cx.runs).enumerate() {
                gpu.elapse_host("kernel-args", PER_KERNEL_PREP);
                let kid = gpu.launch(streams[gi], KernelDesc::new("fc-query", m.threads, m.work));
                let (mine, rest) = run_hits.split_at(run.hits);
                run_hits = rest;
                if coupled {
                    declare_slots(gpu, kid, mine, RaceChecker::kernel_read);
                }
            }
            gpu.sync_all();
        }
        // Missing/hit bitmap back to host (one small D2H copy).
        gpu.copy_blocking("answers-d2h", cx.dedup.unique.len() as u64, METADATA_COPY);
        let q_span = gpu.now() - cx.index_start;
        if coupled {
            let total_bytes = members.iter().map(|m| m.work.global_bytes).sum();
            cx.stats
                .phases
                .add_coupled_query(q_span, cx.hit_copy_bytes, total_bytes);
        } else {
            cx.stats.phases.cache_index += q_span;
        }
    }

    /// Stage 5: the decoupled copy kernel. It reads every hit slot while
    /// the host overlaps the DRAM query in `fetch` — exactly the window the
    /// epoch pin protects (eviction cannot reclaim the slots mid-copy), and
    /// the window the race checker watches.
    fn launch_copy(&mut self, gpu: &mut Gpu, cx: &mut BatchContext) {
        if !self.config.decoupling || cx.hit_pos.is_empty() {
            return;
        }
        cx.pin = Some(self.cache.pin_reader());
        let threads = (cx.hit_pos.len() as u32)
            .saturating_mul(self.cache.table_dims()[cx.runs[0].table as usize])
            .max(256);
        let work = KernelWork {
            global_bytes: cx.hit_copy_bytes,
            flops: 0,
            dependent_rounds: 2,
            shared_accesses: 0,
        };
        gpu.elapse_host("copy-prep", PER_KERNEL_PREP);
        let c0 = gpu.now();
        let copy_stream = gpu.default_stream();
        let kid = gpu.launch(copy_stream, KernelDesc::new("fleche-copy", threads, work));
        declare_slots(gpu, kid, &cx.hit_slots, RaceChecker::kernel_read);
        cx.stats.phases.cache_copy += gpu.now() - c0; // launch cost; exec overlaps
    }

    /// Stage 6: serves the fill list from the miss backend — the CPU-DRAM
    /// query for full misses, a payload-only read for unified-index hits
    /// (they skip the CPU index) — rewrites the rows to the ledger's latest
    /// version (`UpdatePipeline::rewrite_to_latest`), and copies them to
    /// the device.
    fn fetch(&mut self, gpu: &mut Gpu, cx: &mut BatchContext) {
        let d0 = gpu.now();
        let (miss_keys, located_keys) = cx.fill_keys.split_at(cx.n_miss);
        let (miss_cost, report) = self
            .store
            .query_batch_into(miss_keys, d0, &mut cx.fill_rows);
        let mut located_payload = Ns::ZERO;
        if !cx.stats.degraded {
            // (Even an empty read advances the tiered store's LRU clock.)
            located_payload = self
                .store
                .read_located_into(located_keys, &mut cx.fill_rows);
        }
        gpu.elapse_host("dram-query", miss_cost + located_payload);
        let payload = self.store.dram().payload_cost(miss_keys) + located_payload;
        cx.stats.phases.add_dram_query(gpu.now() - d0, payload);
        // Keys whose fetch failed (zero-filled rows) or was served stale
        // must not be promoted into the GPU cache as if they were fresh.
        // Sorted Vec + binary search instead of a HashSet: membership is
        // the only operation, and determinism-critical modules avoid
        // randomized-order containers entirely (hash-iteration lint).
        cx.unfetched
            .extend(report.failed.iter().chain(&report.stale));
        cx.unfetched.sort_unstable();
        cx.unfetched.dedup();
        cx.stats.failed_keys = report.failed.len() as u64;
        cx.stats.stale_keys = report.stale.len() as u64;
        let located = (!cx.stats.degraded).then(|| cx.fill_keys.len() - cx.n_miss);
        self.updates.rewrite_to_latest(
            gpu,
            &cx.fill_keys,
            located,
            &cx.unfetched,
            &mut cx.fill_rows,
            &mut cx.fill_versions,
        );
        // H2D of fetched embeddings (straight into the output matrix).
        let h0 = gpu.now();
        let dims = self.cache.table_dims();
        cx.fill_bytes = cx
            .fill_keys
            .iter()
            .map(|&(t, _)| u64::from(dims[t as usize]) * 4)
            .sum();
        if cx.fill_bytes > 0 {
            gpu.copy_blocking("missing-emb-h2d", cx.fill_bytes, CopyApi::CudaMemcpy);
        }
        cx.stats.phases.dram_payload += gpu.now() - h0;
    }

    /// Stage 7: replacement — copy first, then index (paper order) — and
    /// the eviction pass if the watermark tripped, as the cache's fill
    /// ([`FlatCache::upsert_batch`]) decides them; this stage prices them.
    fn replace(&mut self, gpu: &mut Gpu, cx: &mut BatchContext) {
        let r0 = gpu.now();
        // Each fill key's flat key was already encoded for the probe.
        let rows = cx.fill_pos.iter().zip(cx.fill_rows.iter()).enumerate();
        let fills = rows.map(|(i, (&pos, row))| Fill {
            id: cx.fill_keys[i],
            key: cx.keys[pos],
            row,
            version: cx.fill_versions[i],
            fetched: cx.unfetched.binary_search(&i).is_err(),
        });
        let unified = self.config.unified_index.then_some(&self.codec);
        let (insert, evicted) =
            self.cache
                .upsert_batch(fills, self.clock, unified, &mut cx.admitted_slots);
        let admitted = cx.admitted_slots.len() as u64;
        if admitted > 0 {
            // Copy kernel (values into pool slots), then the index-update
            // kernel — two fused kernels regardless of table count.
            let copy_bytes: u64 = admitted * 64; // staging bookkeeping
            let s = gpu.default_stream();
            let kid = gpu.launch(
                s,
                KernelDesc::new(
                    "replace-copy",
                    (admitted as u32 * 32).max(128),
                    KernelWork::streaming(cx.fill_bytes + copy_bytes),
                ),
            );
            // The replacement copy kernel writes the newly admitted slots
            // (stream order serializes it behind the in-flight decoupled
            // copy on the same stream — that ordering is what makes a
            // same-batch reuse safe, and what the checker verifies).
            declare_slots(gpu, kid, &cx.admitted_slots, RaceChecker::kernel_write);
            gpu.launch(
                s,
                KernelDesc::new(
                    "replace-index",
                    (admitted as u32 * SLAB_WIDTH as u32).max(32),
                    KernelWork {
                        dependent_rounds: insert.max_chain + 1,
                        ..KernelWork::streaming(insert.bytes_touched)
                    },
                ),
            );
        }
        if let Some((scan_bytes, stats)) = evicted {
            let work = KernelWork {
                dependent_rounds: 2,
                ..KernelWork::streaming(scan_bytes + stats.bytes_touched)
            };
            let s = gpu.default_stream();
            gpu.launch(s, KernelDesc::new("evict-scan", 16_384, work));
        }
        cx.stats.phases.other += gpu.now() - r0;
    }

    /// Stage 8: gathers the output rows and prices the restore scatter,
    /// then drains the device. One borrowed view per unique key — the pool
    /// slot of a hit (still readable: retired slots are reclaimed only at
    /// the batch boundary), the arena row of a fill key — and the output
    /// rows are copied straight from the views, each once, over the matrix
    /// the system lends (`RowPool`): it comes back when the caller drops
    /// the returned rows, so a steady-state batch allocates no row. (The
    /// view table borrows the cache, so it cannot live in the reused
    /// context.)
    fn gather_rows(&mut self, gpu: &mut Gpu, cx: &mut BatchContext) -> Rows {
        cx.tail_start = gpu.now();
        let mut views: Vec<&[f32]> = vec![&[][..]; cx.dedup.unique.len()];
        for (&pos, &(class, slot)) in cx.hit_pos.iter().zip(&cx.hit_slots) {
            if let Some(rc) = gpu.race_checker_mut() {
                rc.host_read("restore-gather", slot_resource(class, slot));
            }
            views[pos] = self.cache.read_hit(class, slot);
        }
        for (&pos, row) in cx.fill_pos.iter().zip(cx.fill_rows.iter()) {
            views[pos] = row;
        }
        let mut rows = self.rows.lend(cx.dedup.access_len());
        cx.dedup.restore_into(&views, &mut rows);
        let s = gpu.default_stream();
        gpu.launch(
            s,
            KernelDesc::new(
                "restore",
                cx.dedup.access_len() as u32,
                cx.dedup.restore_kernel_work(self.cache.table_dims()),
            ),
        );
        gpu.sync_all();
        rows
    }

    /// Stage 9: the batch boundary. `gather_rows`'s sync is the happens-before
    /// edge everything here relies on: the decoupled copy has completed, so
    /// its pin is released and retired slots are reclaimed; staged updates
    /// become visible (mid-batch, readers only ever saw the pre-update
    /// values) and the staleness policy observes the batch
    /// (`UpdatePipeline::close_batch`); then the tuner and the breaker do.
    fn close(&mut self, gpu: &mut Gpu, cx: &mut BatchContext) {
        if let Some(pin) = cx.pin.take() {
            self.cache.release_reader(pin);
        }
        self.reclaim_retired(gpu);
        // Giant-model mode: embeddings evicted from the DRAM layer are no
        // longer where the unified index says — drop those pointers
        // (paper §5's invalidation corner case).
        let evicted = self.store.take_evicted();
        if !evicted.is_empty() {
            let inv0 = gpu.now();
            let codec = &self.codec;
            let keys = evicted.into_iter().map(|(t, f)| codec.encode(t, f));
            let invalidated = self.cache.invalidate_dram_ptrs(keys);
            // One small index-update kernel clears the stale pointers.
            if invalidated > 0 {
                let s = gpu.default_stream();
                gpu.launch(
                    s,
                    KernelDesc::new(
                        "ui-invalidate",
                        (invalidated as u32 * SLAB_WIDTH as u32).max(32),
                        KernelWork::streaming(invalidated * 64),
                    ),
                );
                gpu.sync_stream(s);
            }
            cx.stats.phases.other += gpu.now() - inv0;
        }
        self.updates
            .close_batch(gpu, &mut self.cache, &self.codec, cx.max_lag);
        cx.stats.phases.other += gpu.now() - cx.tail_start;
        if self.config.unified_index {
            let target = self.tuner.observe(gpu.now() - cx.t_start);
            self.cache.set_unified_target(target);
        }
        // Breaker sample: this batch failed if the device absorbed any
        // fault or a corrupt hit was detected.
        let fault_delta = gpu.fault_counters().since(self.last_faults);
        self.last_faults = gpu.fault_counters();
        if let Some(b) = &mut self.breaker {
            b.record(gpu.now(), fault_delta > 0 || cx.stats.corrupt_detected > 0);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::recovery::SnapshotKind;
    use fleche_gpu::{DeviceSpec, DramSpec};
    use fleche_store::versioned_embedding_value;
    use fleche_workload::{spec, TraceGenerator};

    fn setup(config: FlecheConfig) -> (Gpu, FlecheSystem, TraceGenerator) {
        let ds = spec::synthetic(8, 5_000, 16, -1.3);
        let store = CpuStore::new(&ds, DramSpec::xeon_6252());
        let sys = FlecheSystem::new(&ds, store, config);
        (Gpu::new(DeviceSpec::t4()), sys, TraceGenerator::new(&ds))
    }

    #[test]
    fn returns_ground_truth_rows() {
        let (mut gpu, mut sys, mut gen) = setup(FlecheConfig::full(0.05));
        let truth = CpuStore::new(&spec::synthetic(8, 5_000, 16, -1.3), DramSpec::xeon_6252());
        for _ in 0..4 {
            let batch = gen.next_batch(64);
            let out = sys.query_batch(&mut gpu, &batch);
            assert_eq!(out.rows.len(), batch.total_ids());
            let mut k = 0;
            for (t, ids) in batch.table_ids.iter().enumerate() {
                for &id in ids {
                    assert_eq!(out.rows[k], truth.read(t as u16, id), "row {k}");
                    k += 1;
                }
            }
        }
    }

    #[test]
    fn all_variants_return_correct_rows() {
        for config in [
            FlecheConfig::flat_cache_only(0.05),
            FlecheConfig::with_fusion(0.05),
            FlecheConfig::without_unified_index(0.05),
            FlecheConfig::full(0.05),
        ] {
            let (mut gpu, mut sys, mut gen) = setup(config);
            let truth = CpuStore::new(&spec::synthetic(8, 5_000, 16, -1.3), DramSpec::xeon_6252());
            for _ in 0..3 {
                let batch = gen.next_batch(48);
                let out = sys.query_batch(&mut gpu, &batch);
                let mut k = 0;
                for (t, ids) in batch.table_ids.iter().enumerate() {
                    for &id in ids {
                        assert_eq!(
                            out.rows[k],
                            truth.read(t as u16, id),
                            "system {} row {k}",
                            sys.name()
                        );
                        k += 1;
                    }
                }
            }
        }
    }

    #[test]
    fn hit_rate_grows_with_warmup() {
        let (mut gpu, mut sys, mut gen) = setup(FlecheConfig::full(0.2));
        for _ in 0..12 {
            sys.query_batch(&mut gpu, &gen.next_batch(256));
        }
        let warm = sys.query_batch(&mut gpu, &gen.next_batch(256)).stats;
        assert!(warm.hit_rate() > 0.4, "hit rate {}", warm.hit_rate());
    }

    #[test]
    fn fusion_reduces_wall_time() {
        let wall = |config: FlecheConfig| {
            let (mut gpu, mut sys, mut gen) = setup(config);
            for _ in 0..8 {
                sys.query_batch(&mut gpu, &gen.next_batch(128));
            }
            sys.query_batch(&mut gpu, &gen.next_batch(128)).stats.wall
        };
        let unfused = wall(FlecheConfig::flat_cache_only(0.05));
        let fused = wall(FlecheConfig::with_fusion(0.05));
        assert!(
            fused < unfused,
            "fusion ({fused}) must beat per-table kernels ({unfused})"
        );
    }

    #[test]
    fn unified_index_serves_location_hits() {
        let (mut gpu, mut sys, mut gen) = setup(FlecheConfig::full(0.02));
        // Warm long enough for the tuner to grow a target.
        let mut unified_seen = 0;
        for _ in 0..40 {
            let s = sys.query_batch(&mut gpu, &gen.next_batch(256)).stats;
            unified_seen += s.unified_hits;
        }
        assert!(sys.tuner().target() > 0, "tuner should have grown");
        assert!(
            unified_seen > 0,
            "some misses should be served through the unified index"
        );
    }

    #[test]
    fn no_unified_index_means_no_unified_hits() {
        let (mut gpu, mut sys, mut gen) = setup(FlecheConfig::without_unified_index(0.05));
        for _ in 0..10 {
            let s = sys.query_batch(&mut gpu, &gen.next_batch(128)).stats;
            assert_eq!(s.unified_hits, 0);
        }
        assert_eq!(sys.cache().unified_count(), 0);
    }

    #[test]
    fn wall_time_and_phase_accounting() {
        let (mut gpu, mut sys, mut gen) = setup(FlecheConfig::full(0.05));
        let out = sys.query_batch(&mut gpu, &gen.next_batch(128));
        assert!(out.stats.wall > Ns::ZERO);
        let p = out.stats.phases;
        assert!(p.total() > out.stats.wall * 0.4);
        assert!(p.cache_index > Ns::ZERO);
    }

    #[test]
    fn counters_partition_unique_keys() {
        let (mut gpu, mut sys, mut gen) = setup(FlecheConfig::full(0.1));
        for _ in 0..6 {
            let s = sys.query_batch(&mut gpu, &gen.next_batch(200)).stats;
            assert_eq!(s.hits + s.unified_hits + s.misses, s.unique_keys);
        }
    }

    #[test]
    fn checksums_serve_ground_truth_despite_corruption() {
        let (mut gpu, mut sys, mut gen) = setup(FlecheConfig {
            checksums: true,
            ..FlecheConfig::full(0.2)
        });
        let truth = CpuStore::new(&spec::synthetic(8, 5_000, 16, -1.3), DramSpec::xeon_6252());
        for _ in 0..8 {
            sys.query_batch(&mut gpu, &gen.next_batch(256));
        }
        // Flip a bit in every live slot: any subsequent hit on them must be
        // caught, quarantined, and refetched.
        let live = sys.cache().live_value_count();
        assert!(live > 0);
        for nth in 0..live {
            sys.corrupt_nth_live(nth, 3, 24).unwrap();
        }
        let mut detected = 0;
        for _ in 0..4 {
            let batch = gen.next_batch(256);
            let out = sys.query_batch(&mut gpu, &batch);
            detected += out.stats.corrupt_detected;
            let mut k = 0;
            for (t, ids) in batch.table_ids.iter().enumerate() {
                for &id in ids {
                    assert_eq!(out.rows[k], truth.read(t as u16, id), "row {k}");
                    k += 1;
                }
            }
        }
        assert!(detected > 0, "a warm cache must hit corrupted slots");
        assert_eq!(sys.lifetime_stats().corrupt_detected, detected);
    }

    #[test]
    fn without_checksums_corruption_reaches_the_output() {
        let (mut gpu, mut sys, mut gen) = setup(FlecheConfig::full(0.2));
        let truth = CpuStore::new(&spec::synthetic(8, 5_000, 16, -1.3), DramSpec::xeon_6252());
        for _ in 0..8 {
            sys.query_batch(&mut gpu, &gen.next_batch(256));
        }
        let live = sys.cache().live_value_count();
        for nth in 0..live {
            sys.corrupt_nth_live(nth, 3, 24).unwrap();
        }
        let mut wrong = 0u64;
        for _ in 0..4 {
            let batch = gen.next_batch(256);
            let out = sys.query_batch(&mut gpu, &batch);
            assert_eq!(out.stats.corrupt_detected, 0, "detection is off");
            let mut k = 0;
            for (t, ids) in batch.table_ids.iter().enumerate() {
                for &id in ids {
                    if out.rows[k] != truth.read(t as u16, id) {
                        wrong += 1;
                    }
                    k += 1;
                }
            }
        }
        assert!(wrong > 0, "the negative control must serve corrupt bytes");
    }

    #[test]
    fn breaker_degrades_under_launch_faults_and_recovers() {
        use fleche_chaos::{BreakerState, FaultPlan};
        let (mut gpu, mut sys, mut gen) = setup(FlecheConfig {
            breaker: Some(BreakerConfig {
                failure_threshold: 0.5,
                min_samples: 4,
                window: 8,
                cooldown: Ns::from_us(200.0),
                probes_to_close: 2,
            }),
            ..FlecheConfig::full(0.1)
        });
        let mut plan = FaultPlan::quiet(11);
        plan.gpu.launch_failure_rate = 1.0;
        gpu.set_fault_hook(Some(Box::new(plan.gpu_injector())));
        let mut saw_degraded = false;
        for _ in 0..12 {
            let s = sys.query_batch(&mut gpu, &gen.next_batch(128)).stats;
            saw_degraded |= s.degraded;
        }
        assert!(saw_degraded, "every-launch faults must trip the breaker");
        let b = sys.breaker().expect("configured");
        assert!(b.trips() >= 1);
        assert!(sys.lifetime_stats().degraded_batches > 0);
        // Device recovers: half-open probes succeed and traffic returns to
        // the cache path.
        gpu.set_fault_hook(None);
        let mut last_degraded = true;
        for _ in 0..24 {
            last_degraded = sys
                .query_batch(&mut gpu, &gen.next_batch(128))
                .stats
                .degraded;
        }
        assert!(!last_degraded, "breaker must close after clean probes");
        assert_eq!(
            sys.breaker().unwrap().clone().state_at(gpu.now()),
            BreakerState::Closed
        );
    }

    #[test]
    fn tiered_fetch_failures_flow_into_batch_stats() {
        use fleche_chaos::{FaultPlan, RetryPolicy};
        use fleche_gpu::DramSpec;
        use fleche_store::RemoteSpec;
        let ds = spec::synthetic(8, 5_000, 16, -1.3);
        let mut store = TieredStore::new(&ds, DramSpec::xeon_6252(), RemoteSpec::datacenter(), 0.1);
        let mut plan = FaultPlan::quiet(3);
        plan.remote.fetch_failure_rate = 1.0;
        store.set_fault_injector(Some(plan.remote_injector()));
        store.set_retry_policy(RetryPolicy::none());
        let mut sys = FlecheSystem::with_tiered_store(&ds, store, FlecheConfig::full(0.05));
        let mut gpu = Gpu::new(fleche_gpu::DeviceSpec::t4());
        let mut gen = TraceGenerator::new(&ds);
        let s = sys.query_batch(&mut gpu, &gen.next_batch(128)).stats;
        // Cold cache + dead remote: every miss fails and is zero-filled.
        assert!(s.failed_keys > 0);
        assert_eq!(s.failed_keys, s.misses);
        assert!(sys.lifetime_stats().availability() < 1.0);
    }

    #[test]
    fn checkpoint_restores_warm_state_into_a_fresh_process() {
        let (mut gpu, mut sys, mut gen) = setup(FlecheConfig::full(0.2));
        for _ in 0..12 {
            sys.query_batch(&mut gpu, &gen.next_batch(256));
        }
        let warm = sys
            .query_batch(&mut gpu, &gen.next_batch(256))
            .stats
            .hit_rate();
        let snap = sys.checkpoint(&mut gpu);
        assert!(snap.base().entry_count_hint() > 0);
        // Simulated process restart: fresh system, fresh device, same spec.
        let ds = spec::synthetic(8, 5_000, 16, -1.3);
        let store = CpuStore::new(&ds, DramSpec::xeon_6252());
        let mut sys2 = FlecheSystem::new(&ds, store, FlecheConfig::full(0.2));
        let mut gpu2 = Gpu::new(DeviceSpec::t4());
        let report = sys2
            .restore_checkpoint(&mut gpu2, &snap)
            .expect("clean image");
        assert!(report.restored > 0);
        assert_eq!(report.bypassed, 0);
        let restored = sys2
            .query_batch(&mut gpu2, &gen.next_batch(256))
            .stats
            .hit_rate();
        assert!(
            restored > warm * 0.8,
            "warm-restart hit rate {restored} vs steady {warm}"
        );
        // Restored bytes still match ground truth.
        let truth = CpuStore::new(&ds, DramSpec::xeon_6252());
        let batch = gen.next_batch(128);
        let out = sys2.query_batch(&mut gpu2, &batch);
        let mut k = 0;
        for (t, ids) in batch.table_ids.iter().enumerate() {
            for &id in ids {
                assert_eq!(out.rows[k], truth.read(t as u16, id), "row {k}");
                k += 1;
            }
        }
    }

    #[test]
    fn corrupt_checkpoint_is_refused_and_cache_survives() {
        let (mut gpu, mut sys, mut gen) = setup(FlecheConfig::full(0.2));
        for _ in 0..8 {
            sys.query_batch(&mut gpu, &gen.next_batch(256));
        }
        let mut snap = sys.checkpoint(&mut gpu);
        assert!(snap.corrupt_byte(snap.byte_len() / 3));
        let before = sys.cache().len();
        assert!(sys.restore_checkpoint(&mut gpu, &snap).is_err());
        assert_eq!(
            sys.cache().len(),
            before,
            "refused restore must not touch state"
        );
        // The system keeps serving ground truth afterwards.
        let truth = CpuStore::new(&spec::synthetic(8, 5_000, 16, -1.3), DramSpec::xeon_6252());
        let batch = gen.next_batch(64);
        let out = sys.query_batch(&mut gpu, &batch);
        let mut k = 0;
        for (t, ids) in batch.table_ids.iter().enumerate() {
            for &id in ids {
                assert_eq!(out.rows[k], truth.read(t as u16, id), "row {k}");
                k += 1;
            }
        }
    }

    #[test]
    fn wipe_then_warm_up_rebuilds_hit_rate() {
        use fleche_workload::WorkloadStats;
        let (mut gpu, mut sys, mut gen) = setup(FlecheConfig {
            cache: FlatCacheConfig {
                admission_probability: 1.0,
                ..FlatCacheConfig::default()
            },
            ..FlecheConfig::full(0.2)
        });
        let mut stats = WorkloadStats::new();
        for _ in 0..10 {
            let b = gen.next_batch(256);
            stats.observe(&b);
            sys.query_batch(&mut gpu, &b);
        }
        sys.wipe_cache(&mut gpu);
        assert_eq!(sys.cache().len(), 0);
        // Cold after the wipe…
        let cold = sys
            .query_batch(&mut gpu, &gen.next_batch(256))
            .stats
            .hit_rate();
        // …then a bounded warm-up from observed hot keys restores hits.
        let batches = sys.warm_up(&mut gpu, &stats.hottest(512), 128);
        assert_eq!(batches, 4);
        let warmed = sys
            .query_batch(&mut gpu, &gen.next_batch(256))
            .stats
            .hit_rate();
        assert!(
            warmed > cold,
            "warm-up ({warmed}) must beat cold restart ({cold})"
        );
    }

    #[test]
    fn updates_apply_at_batch_boundaries_and_serve_latest() {
        use fleche_store::UpdateStream;
        let (mut gpu, mut sys, mut gen) = setup(FlecheConfig {
            cache: FlatCacheConfig {
                admission_probability: 1.0,
                ..FlatCacheConfig::default()
            },
            ..FlecheConfig::full(0.2)
        });
        for _ in 0..10 {
            sys.query_batch(&mut gpu, &gen.next_batch(256));
        }
        let ds = spec::synthetic(8, 5_000, 16, -1.3);
        let mut stream = UpdateStream::new(&ds, 7);
        let burst = stream.next_burst(200);
        sys.commit_updates(&mut gpu, &burst);
        sys.push_updates(&mut gpu, &burst);
        assert_eq!(sys.updates().pending_len(), 200, "staged, not yet visible");
        // The staging batch applies them at its boundary.
        sys.query_batch(&mut gpu, &gen.next_batch(256));
        assert_eq!(sys.updates().pending_len(), 0);
        let st = sys.staleness_stats();
        assert_eq!(
            st.updates_applied + st.updates_superseded + st.updates_absent,
            200
        );
        // After the boundary every served row is at the ledger's latest
        // version: applied hits carry it, misses are rewritten to it.
        let batch = gen.next_batch(256);
        let out = sys.query_batch(&mut gpu, &batch);
        let mut k = 0;
        for (t, ids) in batch.table_ids.iter().enumerate() {
            for &id in ids {
                let v = sys.updates().ledger().get(t as u16, id);
                let mut want = vec![0.0f32; 16];
                versioned_embedding_value(t as u16, id, v, &mut want);
                assert_eq!(out.rows[k], want, "row {k} at version {v}");
                k += 1;
            }
        }
    }

    #[test]
    fn staleness_policy_degrades_demotes_and_recovers() {
        use fleche_store::UpdateStream;
        use fleche_workload::WorkloadStats;
        let (mut gpu, mut sys, mut gen) = setup(FlecheConfig {
            cache: FlatCacheConfig {
                admission_probability: 1.0,
                ..FlatCacheConfig::default()
            },
            staleness: Some(StalenessConfig {
                max_lag: 2,
                resume_lag: 2,
            }),
            ..FlecheConfig::full(0.2)
        });
        let mut stats = WorkloadStats::new();
        for _ in 0..10 {
            let b = gen.next_batch(256);
            stats.observe(&b);
            sys.query_batch(&mut gpu, &b);
        }
        let ds = spec::synthetic(8, 5_000, 16, -1.3);
        let mut stream = UpdateStream::new(&ds, 9);
        let hot = stats.hottest(64);
        // Push outage: versions commit to the ledger but no push reaches
        // the cache, so resident hot keys fall behind past the bound.
        for _ in 0..6 {
            let burst = stream.next_burst_from(&hot, 64);
            sys.commit_updates(&mut gpu, &burst);
            sys.query_batch(&mut gpu, &gen.next_batch(256));
        }
        let p = sys.updates().policy().expect("configured");
        assert!(p.entries() >= 1, "over-bound lag must degrade");
        let st = sys.staleness_stats();
        assert!(st.degraded_batches > 0);
        assert!(st.demoted > 0, "degraded mode must demote stale hits");
        assert_eq!(st.demoted, st.refreshes);
        // Outage over: demote-and-refresh catches the cache up and the
        // policy exits degraded mode.
        for _ in 0..8 {
            sys.query_batch(&mut gpu, &gen.next_batch(256));
        }
        let p = sys.updates().policy().expect("configured");
        assert!(p.exits() >= 1, "catch-up must exit degraded mode");
        assert!(!p.degraded());
    }

    #[test]
    fn delta_chain_restores_to_latest_version() {
        use fleche_store::UpdateStream;
        use fleche_workload::WorkloadStats;
        let config = || FlecheConfig {
            cache: FlatCacheConfig {
                admission_probability: 1.0,
                ..FlatCacheConfig::default()
            },
            ..FlecheConfig::full(0.2)
        };
        let (mut gpu, mut sys, mut gen) = setup(config());
        let mut stats = WorkloadStats::new();
        for _ in 0..10 {
            let b = gen.next_batch(256);
            stats.observe(&b);
            sys.query_batch(&mut gpu, &b);
        }
        let mut chain = sys.checkpoint(&mut gpu);
        // Keep updating hot (resident) keys; cut a delta per round.
        let ds = spec::synthetic(8, 5_000, 16, -1.3);
        let mut stream = UpdateStream::new(&ds, 11);
        let hot = stats.hottest(32);
        for _ in 0..3 {
            let burst = stream.next_burst_from(&hot, 48);
            sys.commit_updates(&mut gpu, &burst);
            sys.push_updates(&mut gpu, &burst);
            sys.query_batch(&mut gpu, &gen.next_batch(256));
            sys.delta_checkpoint(&mut gpu, &mut chain);
        }
        assert_eq!(chain.deltas().len(), 3);
        assert!(
            chain
                .deltas()
                .iter()
                .all(|d| d.byte_len() < chain.base().byte_len()),
            "a delta holds only advanced keys, not the whole cache"
        );
        // Fresh process: base + ordered deltas recovers the *latest*
        // version of every updated resident key, not the stale base.
        let store = CpuStore::new(&ds, DramSpec::xeon_6252());
        let mut sys2 = FlecheSystem::new(&ds, store, config());
        let mut gpu2 = Gpu::new(DeviceSpec::t4());
        let report = sys2
            .restore_checkpoint(&mut gpu2, &chain)
            .expect("clean chain");
        assert!(report.restored > 0);
        let latest = sys.updates().ledger().max_version();
        assert!(latest > 0);
        assert_eq!(
            report.max_version, latest,
            "chain must land on the newest pushed version"
        );
        // Served bytes for the updated hot keys match the latest versions
        // (sys2's ledger is empty, so these come from restored slots, not
        // the miss-path rewrite).
        let mut table_ids: Vec<Vec<u64>> = vec![Vec::new(); 8];
        for &(t, f) in &hot {
            table_ids[t as usize].push(f);
        }
        let batch = Batch::from_table_ids(table_ids);
        let out = sys2.query_batch(&mut gpu2, &batch);
        let mut k = 0;
        let mut updated_rows = 0;
        for (t, ids) in batch.table_ids.iter().enumerate() {
            for &id in ids {
                let v = sys.updates().ledger().get(t as u16, id);
                let mut want = vec![0.0f32; 16];
                versioned_embedding_value(t as u16, id, v, &mut want);
                assert_eq!(out.rows[k], want, "row {k} at version {v}");
                if v > 0 {
                    updated_rows += 1;
                }
                k += 1;
            }
        }
        assert!(updated_rows > 0, "the hot set must contain updated keys");

        // A lone delta is not a base: the chain is refused whole — after
        // the host has paid to verify it — and the cache stays as it was.
        let lone_delta = CheckpointChain::from_images(chain.deltas()[0].clone(), Vec::new());
        let cache = sys2.cache();
        let before = (cache.len(), cache.live_value_count(), cache.unified_count());
        let spans = gpu2.timeline().spans().len();
        assert_eq!(
            sys2.restore_checkpoint(&mut gpu2, &lone_delta),
            Err(SnapshotError::KindMismatch {
                expected: SnapshotKind::Full,
                found: SnapshotKind::Delta
            })
        );
        let cache = sys2.cache();
        assert_eq!(
            (cache.len(), cache.live_value_count(), cache.unified_count()),
            before
        );
        let charged = &gpu2.timeline().spans()[spans..];
        assert_eq!(charged.len(), 1, "verify only: no H2D copy, no replay");
        assert_eq!(charged[0].label, "snapshot-verify");
        let verify_ns = lone_delta.byte_len() as f64 * 0.1;
        assert!((charged[0].duration().0 - verify_ns).abs() < 1e-6);
    }

    #[test]
    fn small_cache_triggers_eviction_eventually() {
        let (mut gpu, mut sys, mut gen) = setup(FlecheConfig {
            cache: FlatCacheConfig {
                admission_probability: 1.0,
                ..FlatCacheConfig::default()
            },
            ..FlecheConfig::full(0.01)
        });
        for _ in 0..30 {
            sys.query_batch(&mut gpu, &gen.next_batch(512));
        }
        assert!(
            sys.cache().evict_passes() > 0,
            "a 1% cache under admission=1.0 must evict"
        );
    }
}
