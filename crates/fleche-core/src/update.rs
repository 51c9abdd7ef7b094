//! The online-update pipeline (DESIGN.md §7.2). Everything it charges the
//! simulator derives from [`UpdateCostSpec`], as device timing derives
//! from `fleche_gpu::DeviceSpec`; the analyzer's cost-constants rule
//! checks each public field against DESIGN.md §8.3.

use crate::flat_cache::{CacheAnswer, FlatCache, PendingUpdate};
use fleche_chaos::{StalenessConfig, StalenessPolicy};
use fleche_coding::{FlatKey, FlatKeyCodec, SizeAwareCodec};
use fleche_gpu::{ledger_resource, slot_resource, Gpu, KernelDesc, KernelWork, Ns};
use fleche_index::ProbeStats;
use fleche_store::{versioned_embedding_value, RowArena, UpdatePush, VersionLedger};

/// Calibration constants for ingesting, applying, and checkpointing
/// online embedding updates, shaped like the HugeCTR inference parameter
/// server's update path (arXiv 2210.08804; DESIGN.md §8.3).
#[derive(Clone, Debug)]
pub struct UpdateCostSpec {
    /// Host cost to decode and stage one accepted trainer push.
    pub push_decode_ns: f64,
    /// Host cost of one version-ledger probe (lag measurement per hit,
    /// commit per push).
    pub ledger_probe_ns: f64,
    /// Streaming-bytes multiplier of the update-apply kernel per row
    /// byte written (read-modify-write plus index-stamp traffic).
    pub apply_bytes_factor: f64,
    /// Thread count of the batched update-apply kernel.
    pub apply_kernel_threads: u32,
    /// Host cost per live entry scanned when capturing an incremental
    /// checkpoint delta (version compare against the base list).
    pub delta_scan_ns_per_entry: f64,
}

impl UpdateCostSpec {
    /// The modeled update path (see DESIGN.md §8.3 for sources).
    pub fn modeled() -> UpdateCostSpec {
        UpdateCostSpec {
            push_decode_ns: 40.0,
            ledger_probe_ns: 15.0,
            apply_bytes_factor: 2.0,
            apply_kernel_threads: 4096,
            delta_scan_ns_per_entry: 6.0,
        }
    }
}

/// Lifetime staleness accounting over the online-update pipeline.
///
/// Lag is measured per cache hit as `ledger version − resident slot
/// version` (saturating): how many committed trainer updates the served
/// row is behind. Misses always serve the ledger's latest version (the
/// miss-fill rewrites fetched rows), so only hits can be stale.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StalenessStats {
    /// Cache hits whose lag was sampled (every served hit).
    pub hits_sampled: u64,
    /// Sum of sampled lags (for the mean).
    pub lag_sum: u64,
    /// Worst lag ever observed on a hit, *before* demotion — the raw
    /// staleness of the cache, whether or not the row was served.
    pub max_lag: u64,
    /// Hits served with lag > 0 (an older-than-latest row reached the
    /// output).
    pub stale_serves: u64,
    /// Over-bound hits demoted to misses while staleness-degraded.
    pub demoted: u64,
    /// Refresh pushes self-enqueued for demoted keys.
    pub refreshes: u64,
    /// Batches served while in staleness-degraded mode.
    pub degraded_batches: u64,
    /// Staged pushes written into resident slots at batch boundaries.
    pub updates_applied: u64,
    /// Staged pushes skipped because the slot already held the same or a
    /// newer version (duplicated/reordered pushes are idempotent).
    pub updates_superseded: u64,
    /// Staged pushes whose key was not HBM-resident (left to miss-fill).
    pub updates_absent: u64,
}

impl StalenessStats {
    /// Mean version lag across all sampled hits (0 when nothing sampled).
    pub fn mean_lag(&self) -> f64 {
        if self.hits_sampled == 0 {
            0.0
        } else {
            self.lag_sum as f64 / self.hits_sampled as f64
        }
    }

    /// Folds another accumulator in (multi-GPU aggregation over shards).
    pub fn absorb(&mut self, other: &StalenessStats) {
        self.hits_sampled += other.hits_sampled;
        self.lag_sum += other.lag_sum;
        self.max_lag = self.max_lag.max(other.max_lag);
        self.stale_serves += other.stale_serves;
        self.demoted += other.demoted;
        self.refreshes += other.refreshes;
        self.degraded_batches += other.degraded_batches;
        self.updates_applied += other.updates_applied;
        self.updates_superseded += other.updates_superseded;
        self.updates_absent += other.updates_absent;
    }
}

/// The online-update pipeline of one serving cache: the version ledger,
/// the staged pushes, the staleness policy and their accounting.
/// `FlecheSystem` makes one call into it per stage; until the ledger
/// tracks a key, a batch is charged nothing.
pub struct UpdatePipeline {
    ledger: VersionLedger,
    /// Staged pushes and self-enqueued refreshes; never visible mid-batch.
    pending: Vec<UpdatePush>,
    policy: Option<StalenessPolicy>,
    stats: StalenessStats,
    costs: UpdateCostSpec,
}

impl UpdatePipeline {
    pub(crate) fn new(staleness: Option<StalenessConfig>) -> UpdatePipeline {
        UpdatePipeline {
            ledger: VersionLedger::new(),
            pending: Vec::new(),
            policy: staleness.map(StalenessPolicy::new),
            stats: StalenessStats::default(),
            costs: UpdateCostSpec::modeled(),
        }
    }

    /// The authoritative per-key update-version ledger.
    pub fn ledger(&self) -> &VersionLedger {
        &self.ledger
    }

    /// The staleness policy, when one is configured.
    pub fn policy(&self) -> Option<&StalenessPolicy> {
        self.policy.as_ref()
    }

    /// Pushes staged for the next batch boundary.
    pub fn pending_len(&self) -> usize {
        self.pending.len()
    }

    /// Lifetime staleness accounting (`FlecheSystem::staleness_stats`).
    pub(crate) fn stats(&self) -> StalenessStats {
        self.stats
    }

    pub(crate) fn reset_stats(&mut self) {
        self.stats = StalenessStats::default();
    }

    /// The reliable channel: commits pushes to the ledger, which only ever
    /// moves forward (duplicates and reorders are max-merged). Charges
    /// `ledger-commit`; the commits are host writes of each touched
    /// table's ledger, which the batch-boundary apply kernel reads.
    pub(crate) fn commit(&mut self, gpu: &mut Gpu, pushes: &[UpdatePush]) {
        if pushes.is_empty() {
            return;
        }
        let cost = Ns(pushes.len() as f64 * self.costs.ledger_probe_ns);
        gpu.elapse_host("ledger-commit", cost);
        if let Some(rc) = gpu.race_checker_mut() {
            for t in tables_of(pushes) {
                rc.host_write("ledger-commit", ledger_resource(t));
            }
        }
        for p in pushes {
            self.ledger.commit(p);
        }
    }

    /// The lossy channel: stages pushes for the next batch boundary.
    /// Charges `update-decode`.
    pub(crate) fn stage(&mut self, gpu: &mut Gpu, pushes: &[UpdatePush]) {
        if pushes.is_empty() {
            return;
        }
        let cost = Ns(pushes.len() as f64 * self.costs.push_decode_ns);
        gpu.elapse_host("update-decode", cost);
        self.pending.extend_from_slice(pushes);
    }

    /// The per-hit lag check over a batch's probe answers (`answers[i]`
    /// answers `keys[i]`): lag = ledger version − slot version. While the
    /// policy is degraded, a hit over the *resume* bound is demoted to a
    /// miss (the miss path serves the ledger's latest) and a refresh is
    /// staged, so every refresh pulls the raw lag toward the exit
    /// threshold and the mode converges instead of serving (resume_lag,
    /// max_lag] hits stale forever. Returns the batch's worst raw
    /// (pre-demotion) lag, which the policy observes at the boundary.
    pub(crate) fn check_lag(
        &mut self,
        gpu: &mut Gpu,
        cache: &FlatCache,
        keys: &[(u16, u64)],
        answers: &mut [(CacheAnswer, ProbeStats)],
    ) -> u64 {
        if self.ledger.tracked_keys() == 0 {
            return 0;
        }
        let cost = Ns(keys.len() as f64 * self.costs.ledger_probe_ns);
        gpu.elapse_host("ledger-probe", cost);
        let bound = match &self.policy {
            Some(p) if p.degraded() => p.config().resume_lag,
            _ => u64::MAX,
        };
        let mut batch_max = 0;
        for ((ans, _), &(table, id)) in answers.iter_mut().zip(keys) {
            let CacheAnswer::Hit { class, slot } = *ans else {
                continue;
            };
            let version = self.ledger.get(table, id);
            let lag = version.saturating_sub(cache.slot_version(class, slot));
            batch_max = batch_max.max(lag);
            self.stats.max_lag = self.stats.max_lag.max(lag);
            if lag > bound {
                *ans = CacheAnswer::Miss;
                self.pending.push(UpdatePush { table, id, version });
                self.stats.demoted += 1;
                self.stats.refreshes += 1;
                continue;
            }
            self.stats.hits_sampled += 1;
            self.stats.lag_sum += lag;
            self.stats.stale_serves += u64::from(lag > 0);
        }
        batch_max
    }

    /// The miss-fill rewrite: every fetched row the trainer has updated is
    /// rewritten to the ledger's latest, and `versions[i]` records the
    /// version row `i` carries for its admitted slot, so the miss path —
    /// degraded batches included — never serves a key older than before.
    /// Rows listed in the sorted `unfetched` keep their bytes. `fill` lists
    /// the rows' keys, full misses first; `located` is how many trailing
    /// ones the unified index located (`None` on a degraded batch). One
    /// ledger probe is charged per fetch.
    pub(crate) fn rewrite_to_latest(
        &self,
        gpu: &mut Gpu,
        fill: &[(u16, u64)],
        located: Option<usize>,
        unfetched: &[usize],
        rows: &mut RowArena,
        versions: &mut Vec<u64>,
    ) {
        versions.resize(fill.len(), 0);
        if self.ledger.tracked_keys() == 0 {
            return;
        }
        let per_key = self.costs.ledger_probe_ns;
        let n_miss = fill.len() - located.unwrap_or(0);
        gpu.elapse_host("ledger-probe", Ns(n_miss as f64 * per_key));
        if let Some(located) = located {
            gpu.elapse_host("ledger-probe", Ns(located as f64 * per_key));
        }
        for (i, &(t, f)) in fill.iter().enumerate() {
            let v = self.ledger.get(t, f);
            if v > 0 && unfetched.binary_search(&i).is_err() {
                versioned_embedding_value(t, f, v, rows.row_mut(i));
                versions[i] = v;
            }
        }
    }

    /// The batch boundary, after the batch's final sync: staged pushes
    /// become visible, generated straight into their slots (checksums
    /// recomputed, versions only moving forward) by one `update-apply`
    /// kernel whose slot writes and ledger reads are declared to the race
    /// checker; then the policy observes the batch's worst raw lag.
    pub(crate) fn close_batch(
        &mut self,
        gpu: &mut Gpu,
        cache: &mut FlatCache,
        codec: &SizeAwareCodec,
        batch_max_lag: u64,
    ) {
        if !self.pending.is_empty() {
            let keyed: Vec<KeyedPush> = self
                .pending
                .iter()
                .map(|&push| KeyedPush {
                    key: codec.encode(push.table, push.id),
                    dim: cache.table_dims()[push.table as usize],
                    push,
                })
                .collect();
            let value_bytes: u64 = keyed.iter().map(|k| u64::from(k.dim) * 4).sum();
            let report = cache.apply_updates(&keyed);
            let streamed = (value_bytes as f64 * self.costs.apply_bytes_factor) as u64;
            let s = gpu.default_stream();
            let threads = self.costs.apply_kernel_threads;
            let work = KernelWork::streaming(streamed.max(1));
            let kid = gpu.launch(s, KernelDesc::new("update-apply", threads, work));
            if let Some(rc) = gpu.race_checker_mut() {
                for &(class, slot) in &report.slots {
                    rc.kernel_write(kid, slot_resource(class, slot));
                }
                for t in tables_of(&self.pending) {
                    rc.kernel_read(kid, ledger_resource(t));
                }
            }
            gpu.sync_stream(s);
            self.pending.clear();
            self.stats.updates_applied += report.applied;
            self.stats.updates_superseded += report.superseded;
            self.stats.updates_absent += report.absent;
        }
        let tracked = self.ledger.tracked_keys() > 0;
        if let Some(p) = self.policy.as_mut().filter(|_| tracked) {
            self.stats.degraded_batches += u64::from(p.observe(batch_max_lag));
        }
    }

    /// Prices the host-side version compare of a delta capture over
    /// `entries` live index entries.
    pub(crate) fn price_delta_scan(&self, gpu: &mut Gpu, entries: usize) {
        let per_entry = self.costs.delta_scan_ns_per_entry;
        gpu.elapse_host("delta-scan", Ns(entries as f64 * per_entry));
    }
}

/// A staged push as the boundary apply takes it: its flat key and its
/// table's dimension, its value generated into the slot.
struct KeyedPush {
    key: FlatKey,
    dim: u32,
    push: UpdatePush,
}

impl PendingUpdate for KeyedPush {
    fn key(&self) -> FlatKey {
        self.key
    }

    fn version(&self) -> u64 {
        self.push.version
    }

    fn value_len(&self) -> usize {
        self.dim as usize
    }

    fn write_value(&self, row: &mut [f32]) {
        let UpdatePush { table, id, version } = self.push;
        versioned_embedding_value(table, id, version, row);
    }
}

/// The distinct tables `pushes` touch, ascending.
fn tables_of(pushes: &[UpdatePush]) -> Vec<u16> {
    let mut tables: Vec<u16> = pushes.iter().map(|p| p.table).collect();
    tables.sort_unstable();
    tables.dedup();
    tables
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn modeled_constants_are_sane() {
        let s = UpdateCostSpec::modeled();
        assert!(s.push_decode_ns > 0.0);
        assert!(s.ledger_probe_ns > 0.0);
        assert!(s.apply_bytes_factor >= 1.0, "apply at least writes the row");
        assert!(s.apply_kernel_threads > 0);
        assert!(s.delta_scan_ns_per_entry > 0.0);
    }
}
