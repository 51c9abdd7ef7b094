//! Giant-model mode: the three-layer hierarchy of paper §5.
//!
//! When a model exceeds one machine's DRAM, the local CPU-DRAM layer stops
//! being "all parameters" and becomes a second-level cache over a remote
//! parameter server. This module provides that substrate: a network cost
//! model for the parameter server ([`RemoteSpec`]) and a [`TieredStore`]
//! that serves lookups from a DRAM-resident LRU cache, fetching misses
//! remotely. The store logs DRAM-layer evictions so the GPU-resident
//! unified index can invalidate pointers to embeddings that left DRAM —
//! the corner case the paper flags for this mode.

use crate::table::{CpuStore, RowArena};
use fleche_chaos::{ChaosRng, RemoteFaultInjector, RetryPolicy};
use fleche_gpu::{BytesPerNs, DramSpec, Ns};
use fleche_workload::DatasetSpec;
use std::collections::HashMap;

/// Network cost model for the remote parameter server.
#[derive(Clone, Debug)]
pub struct RemoteSpec {
    /// Round-trip time of one batched fetch.
    pub rtt: Ns,
    /// Sustained network bandwidth for embedding payloads.
    pub bandwidth: BytesPerNs,
    /// Server-side cost per fetched key (shard lookup, serialization).
    pub per_key: Ns,
    /// How long a caller waits for one fetch attempt before declaring it
    /// dead. A timed-out attempt costs exactly this much wall time.
    pub timeout: Ns,
}

impl RemoteSpec {
    /// A same-datacenter parameter-server tier (25 GbE-ish effective).
    pub fn datacenter() -> RemoteSpec {
        RemoteSpec {
            rtt: Ns::from_us(60.0),
            bandwidth: BytesPerNs::from_gbps(3.0),
            per_key: Ns(150.0),
            timeout: Ns::from_ms(1.0),
        }
    }

    /// Time to fetch `keys` keys moving `bytes` of payload in one batched
    /// request.
    pub fn fetch_time(&self, keys: u64, bytes: u64) -> Ns {
        if keys == 0 {
            return Ns::ZERO;
        }
        self.rtt + Ns(self.per_key.0 * keys as f64) + self.bandwidth.transfer_time(bytes)
    }
}

/// Counters for the tiered store.
#[derive(Clone, Copy, Debug, Default)]
pub struct TieredStats {
    /// Lookups served from the DRAM layer.
    pub dram_hits: u64,
    /// Lookups that went to the remote parameter server.
    pub remote_fetches: u64,
    /// Entries evicted from the DRAM layer so far.
    pub dram_evictions: u64,
    /// Fetch attempts that timed out (injected faults or outages).
    pub remote_timeouts: u64,
    /// Retry attempts made after a failed first attempt.
    pub remote_retries: u64,
    /// Hedged second fetches fired.
    pub hedged_fetches: u64,
    /// Hedged fetches that rescued an otherwise-dead attempt.
    pub hedge_wins: u64,
    /// Keys served from the stale buffer after remote failure.
    pub stale_serves: u64,
    /// Sum over stale serves of (batches since the copy left DRAM); divide
    /// by `stale_serves` for mean staleness.
    pub staleness_sum: u64,
    /// Keys that could not be served at all (no fresh copy, no stale copy).
    pub failed_keys: u64,
}

/// Per-batch recovery report from [`TieredStore::query_batch_at_into`].
#[derive(Clone, Debug, Default)]
pub struct FetchReport {
    /// Indices into the batch's key slice served as zeros (unrecoverable).
    pub failed: Vec<usize>,
    /// Indices served from the stale buffer.
    pub stale: Vec<usize>,
    /// Remote fetch attempts made (0 when the batch was fully resident).
    pub attempts: u32,
    /// Whether a hedged second fetch was fired.
    pub hedged: bool,
}

impl FetchReport {
    /// True when every key was served fresh.
    pub fn clean(&self) -> bool {
        self.failed.is_empty() && self.stale.is_empty()
    }
}

/// The CPU-DRAM layer as an LRU cache over a remote parameter server.
///
/// The DRAM layer is a [`CpuStore`], which reads and prices every resident
/// row. Values stay procedurally deterministic (the remote server computes
/// the same rows), so byte-correctness checks hold in giant-model mode.
///
/// ```
/// use fleche_gpu::{DramSpec, Ns};
/// use fleche_store::{RemoteSpec, RowArena, TieredStore};
/// use fleche_workload::spec;
///
/// let ds = spec::synthetic(2, 1_000, 8, -1.2);
/// let mut store =
///     TieredStore::new(&ds, DramSpec::xeon_6252(), RemoteSpec::datacenter(), 0.25);
/// let mut rows = RowArena::default();
/// let (cold, _) = store.query_batch_at_into(&[(0, 7)], Ns::ZERO, &mut rows); // remote fetch
/// let (warm, _) = store.query_batch_at_into(&[(0, 7)], Ns::ZERO, &mut rows); // DRAM hit
/// assert!(cold > warm);
/// assert!(store.is_resident(0, 7));
/// ```
#[derive(Debug)]
pub struct TieredStore {
    /// The DRAM layer: rows, corpus bounds and DRAM prices.
    dram: CpuStore,
    remote: RemoteSpec,
    /// Resident set: key -> last-touch stamp.
    resident: HashMap<(u16, u64), u64>,
    capacity_entries: usize,
    clock: u64,
    evicted_log: Vec<(u16, u64)>,
    stats: TieredStats,
    /// Remote fault source; `None` = fault-free parameter server.
    injector: Option<RemoteFaultInjector>,
    /// How failed fetches are retried / hedged / deadlined.
    retry: RetryPolicy,
    /// When true, keys whose last DRAM copy was evicted but not yet scrubbed
    /// may be served stale after remote failure.
    stale_serve: bool,
    /// Evicted-but-unscrubbed copies: key -> clock at eviction. Bounded by
    /// `capacity_entries` (oldest dropped), mirroring a scrap arena whose
    /// pages get reused.
    stale_buffer: HashMap<(u16, u64), u64>,
    /// Jitter stream for retry backoff.
    backoff_rng: ChaosRng,
}

impl TieredStore {
    /// Builds a tiered store whose DRAM layer holds at most
    /// `dram_fraction` of all embeddings (by entry count).
    ///
    /// # Panics
    ///
    /// Panics if `dram_fraction` is not within `(0, 1]`.
    pub fn new(
        spec: &DatasetSpec,
        dram: DramSpec,
        remote: RemoteSpec,
        dram_fraction: f64,
    ) -> TieredStore {
        assert!(
            dram_fraction > 0.0 && dram_fraction <= 1.0,
            "dram fraction must be in (0, 1]"
        );
        let capacity = ((spec.total_corpus() as f64 * dram_fraction) as usize).max(16);
        TieredStore {
            dram: CpuStore::new(spec, dram),
            remote,
            resident: HashMap::with_capacity(capacity),
            capacity_entries: capacity,
            clock: 0,
            evicted_log: Vec::new(),
            stats: TieredStats::default(),
            injector: None,
            retry: RetryPolicy::none(),
            stale_serve: false,
            stale_buffer: HashMap::new(),
            backoff_rng: ChaosRng::new(0x7E7A_11ED),
        }
    }

    /// Installs (or clears) the remote fault source.
    pub fn set_fault_injector(&mut self, injector: Option<RemoteFaultInjector>) {
        self.injector = injector;
    }

    /// Sets the retry / hedging / deadline policy for remote fetches.
    pub fn set_retry_policy(&mut self, retry: RetryPolicy) {
        self.retry = retry;
    }

    /// Enables or disables the stale-serve fallback.
    pub fn set_stale_serve(&mut self, enabled: bool) {
        self.stale_serve = enabled;
    }

    /// The DRAM layer, whose prices a resident key pays.
    pub fn dram_layer(&self) -> &CpuStore {
        &self.dram
    }

    /// DRAM-layer capacity in entries.
    pub fn capacity_entries(&self) -> usize {
        self.capacity_entries
    }

    /// Entries currently resident in the DRAM layer.
    pub fn resident_entries(&self) -> usize {
        self.resident.len()
    }

    /// Running counters.
    pub fn stats(&self) -> TieredStats {
        self.stats
    }

    /// True when `(table, id)` is currently DRAM-resident.
    pub fn is_resident(&self, table: u16, id: u64) -> bool {
        self.resident.contains_key(&(table, id))
    }

    /// Drains the log of keys evicted from the DRAM layer since the last
    /// call. The GPU-resident unified index must drop its pointers to
    /// these keys (paper §5's invalidation corner case).
    pub fn take_evicted(&mut self) -> Vec<(u16, u64)> {
        std::mem::take(&mut self.evicted_log)
    }

    /// Queries a batch at simulated time `now` (used to place the batch
    /// relative to scheduled outage windows): DRAM-resident keys are served
    /// locally, the rest fetched remotely in one batched request (and
    /// admitted to DRAM, evicting coldest entries beyond capacity). Appends
    /// the rows to `arena` in key order and returns the total host-side
    /// time and the recovery report, whose indices count from this call's
    /// first key.
    ///
    /// With faults injected, the remote phase runs the configured
    /// [`RetryPolicy`]: timed-out attempts are retried with exponential
    /// backoff + jitter, a hedged second fetch may rescue a dead attempt,
    /// and the per-batch deadline caps total time spent. When the policy is
    /// exhausted, keys fall back to the stale buffer (if enabled and a
    /// not-yet-scrubbed evicted copy exists) or are served as zeros and
    /// reported in [`FetchReport::failed`].
    pub fn query_batch_at_into(
        &mut self,
        keys: &[(u16, u64)],
        now: Ns,
        arena: &mut RowArena,
    ) -> (Ns, FetchReport) {
        self.clock += 1;
        let base = arena.len();
        self.dram.read_rows_into(keys, arena);
        let resident = keys.iter().filter(|k| self.resident.contains_key(k));
        let dram_cost = self.dram.lookup_cost(resident);
        let mut missing: Vec<usize> = Vec::new();
        let mut remote_bytes = 0u64;
        for (i, k) in keys.iter().enumerate() {
            if let Some(stamp) = self.resident.get_mut(k) {
                *stamp = self.clock;
                self.stats.dram_hits += 1;
            } else {
                missing.push(i);
                remote_bytes += u64::from(self.dram.dim(k.0)) * 4;
            }
        }
        let remote_keys = missing.len() as u64;

        let mut report = FetchReport::default();
        if missing.is_empty() {
            self.evict_over_capacity();
            return (dram_cost, report);
        }

        let (fetched, remote_cost) = self.remote_phase(now, remote_keys, remote_bytes, &mut report);
        if fetched {
            self.stats.remote_fetches += remote_keys;
            for &i in &missing {
                let k = keys[i];
                self.resident.insert(k, self.clock);
                self.stale_buffer.remove(&k);
            }
        } else {
            // Recovery exhausted: stale-serve what we can, fail the rest.
            for &i in &missing {
                let k = keys[i];
                if self.stale_serve {
                    if let Some(&evicted_at) = self.stale_buffer.get(&k) {
                        // The procedural value model means stale bytes equal
                        // fresh bytes; only the accounting distinguishes them.
                        self.stats.stale_serves += 1;
                        self.stats.staleness_sum += self.clock.saturating_sub(evicted_at);
                        report.stale.push(i);
                        continue;
                    }
                }
                arena.row_mut(base + i).fill(0.0);
                self.stats.failed_keys += 1;
                report.failed.push(i);
            }
        }
        self.evict_over_capacity();
        (dram_cost + remote_cost, report)
    }

    /// Runs the remote fetch with retries, hedging, and the deadline.
    /// Returns whether the fetch eventually succeeded and the time spent.
    fn remote_phase(
        &mut self,
        now: Ns,
        remote_keys: u64,
        remote_bytes: u64,
        report: &mut FetchReport,
    ) -> (bool, Ns) {
        let nominal = self.remote.fetch_time(remote_keys, remote_bytes);
        let Some(injector) = self.injector.as_mut() else {
            report.attempts = 1;
            return (true, nominal);
        };
        let timeout = self.remote.timeout;
        let mut elapsed = Ns::ZERO;
        while report.attempts < self.retry.max_attempts {
            let backoff = self
                .retry
                .backoff_before(report.attempts + 1, &mut self.backoff_rng);
            // Only start an attempt if a full timeout still fits the budget:
            // starting one that cannot finish would blow the deadline by up
            // to a whole timeout.
            if !self.retry.within_deadline(elapsed + backoff + timeout) {
                break;
            }
            elapsed += backoff;
            report.attempts += 1;
            if report.attempts > 1 {
                self.stats.remote_retries += 1;
            }
            if !injector.times_out(now + elapsed) {
                elapsed += nominal;
                return (true, elapsed);
            }
            // The primary never answers. If hedging is on, a second fetch
            // fired `hedge_after` into the attempt gets its own independent
            // outcome and can rescue the attempt.
            if let Some(hedge_after) = self.retry.hedge_after {
                report.hedged = true;
                self.stats.hedged_fetches += 1;
                if !injector.times_out(now + elapsed + hedge_after) {
                    self.stats.hedge_wins += 1;
                    elapsed += hedge_after + nominal;
                    return (true, elapsed);
                }
            }
            self.stats.remote_timeouts += 1;
            elapsed += timeout;
        }
        (false, elapsed)
    }

    /// Reads keys whose DRAM residency is already known (unified-index
    /// hits) into `arena`, in key order: payload cost only, refreshing the
    /// LRU stamp so located keys stay resident under their pointers. A key
    /// that slipped out of DRAM despite the invalidation protocol is served
    /// remotely (defensive).
    pub fn read_located_into(&mut self, keys: &[(u16, u64)], arena: &mut RowArena) -> Ns {
        self.clock += 1;
        self.dram.read_rows_into(keys, arena);
        let resident = keys.iter().filter(|k| self.resident.contains_key(k));
        let payload = self.dram.payload_cost(resident);
        let mut stray_keys = 0u64;
        let mut stray_bytes = 0u64;
        for &k in keys {
            if let Some(stamp) = self.resident.get_mut(&k) {
                *stamp = self.clock;
                self.stats.dram_hits += 1;
            } else {
                self.stats.remote_fetches += 1;
                stray_keys += 1;
                stray_bytes += u64::from(self.dram.dim(k.0)) * 4;
                self.resident.insert(k, self.clock);
            }
        }
        self.evict_over_capacity();
        payload + self.remote.fetch_time(stray_keys, stray_bytes)
    }

    /// Evicts coldest entries until the resident set fits capacity; the
    /// victims go to the invalidation log and (until scrubbed) to the
    /// stale buffer the stale-serve fallback reads from.
    fn evict_over_capacity(&mut self) {
        if self.resident.len() <= self.capacity_entries {
            return;
        }
        let excess = self.resident.len() - self.capacity_entries;
        let mut entries: Vec<((u16, u64), u64)> =
            self.resident.iter().map(|(&k, &s)| (k, s)).collect();
        // Tie-break stamp collisions (one batch shares one clock) by key so
        // eviction order never depends on HashMap iteration order.
        entries.sort_unstable_by_key(|&(k, s)| (s, k));
        for &(k, _) in entries.iter().take(excess) {
            self.resident.remove(&k);
            self.evicted_log.push(k);
            self.stale_buffer.insert(k, self.clock);
            self.stats.dram_evictions += 1;
        }
        // The scrap arena is finite: oldest stale copies get scrubbed first.
        if self.stale_buffer.len() > self.capacity_entries {
            let excess = self.stale_buffer.len() - self.capacity_entries;
            let mut stale: Vec<((u16, u64), u64)> =
                self.stale_buffer.iter().map(|(&k, &s)| (k, s)).collect();
            stale.sort_unstable_by_key(|&(k, s)| (s, k));
            for &(k, _) in stale.iter().take(excess) {
                self.stale_buffer.remove(&k);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fleche_workload::spec;

    fn store(fraction: f64) -> TieredStore {
        TieredStore::new(
            &spec::synthetic(2, 1_000, 8, -1.2),
            DramSpec::xeon_6252(),
            RemoteSpec::datacenter(),
            fraction,
        )
    }

    /// [`TieredStore::query_batch_at_into`] into an arena of its own.
    fn query(s: &mut TieredStore, keys: &[(u16, u64)], now: Ns) -> (RowArena, Ns, FetchReport) {
        let mut rows = RowArena::default();
        let (cost, report) = s.query_batch_at_into(keys, now, &mut rows);
        (rows, cost, report)
    }

    #[test]
    fn values_match_the_flat_store() {
        let ds = spec::synthetic(2, 1_000, 8, -1.2);
        let flat = crate::table::CpuStore::new(&ds, DramSpec::xeon_6252());
        let mut tiered = store(0.5);
        let keys: Vec<(u16, u64)> = (0..50).map(|i| ((i % 2) as u16, i * 3)).collect();
        let (rows, _, _) = query(&mut tiered, &keys, Ns::ZERO);
        for (&(t, id), row) in keys.iter().zip(rows.iter()) {
            assert_eq!(row, &flat.read(t, id));
        }
        // Now that DRAM holds every key, a batch is the flat store's: the
        // same rows at the same price, to the bit.
        let (rows, cost, report) = query(&mut tiered, &keys, Ns::ZERO);
        let mut want = RowArena::default();
        let want_cost = flat.query_batch_into(&keys, &mut want);
        assert!(report.clean());
        assert_eq!(rows.to_rows(), want.to_rows());
        assert_eq!(cost.0.to_bits(), want_cost.0.to_bits());
        let located = tiered.read_located_into(&keys, &mut RowArena::default());
        assert_eq!(located.0.to_bits(), flat.payload_cost(&keys).0.to_bits());
        assert_eq!(tiered.stats().dram_hits, 100);
    }

    #[test]
    fn first_touch_is_remote_second_is_dram() {
        let mut s = store(0.5);
        let keys = vec![(0u16, 7u64), (1, 9)];
        let (_, cold, _) = query(&mut s, &keys, Ns::ZERO);
        assert_eq!(s.stats().remote_fetches, 2);
        let (_, warm, _) = query(&mut s, &keys, Ns::ZERO);
        assert_eq!(s.stats().dram_hits, 2);
        assert!(
            cold > warm + Ns::from_us(50.0),
            "remote RTT must dominate the cold path: {cold} vs {warm}"
        );
    }

    #[test]
    fn capacity_evictions_are_logged_lru_first() {
        let ds = spec::synthetic(1, 1_000, 8, -1.2);
        let mut s = TieredStore::new(
            &ds,
            DramSpec::xeon_6252(),
            RemoteSpec::datacenter(),
            0.016, // 16 entries
        );
        assert_eq!(s.capacity_entries(), 16);
        // Fill beyond capacity one batch at a time so stamps order them.
        for id in 0..20u64 {
            query(&mut s, &[(0, id)], Ns::ZERO);
        }
        assert!(s.resident_entries() <= 16);
        let evicted = s.take_evicted();
        assert_eq!(evicted.len(), 4);
        // Oldest first.
        assert!(evicted.contains(&(0, 0)));
        assert!(evicted.contains(&(0, 3)));
        assert!(!s.is_resident(0, 0));
        assert!(s.is_resident(0, 19));
        // Log drains.
        assert!(s.take_evicted().is_empty());
    }

    #[test]
    fn touching_protects_from_eviction() {
        let ds = spec::synthetic(1, 1_000, 8, -1.2);
        let mut s = TieredStore::new(&ds, DramSpec::xeon_6252(), RemoteSpec::datacenter(), 0.016);
        for id in 0..16u64 {
            query(&mut s, &[(0, id)], Ns::ZERO);
        }
        // Re-touch id 0, then overflow: id 0 must survive.
        query(&mut s, &[(0, 0)], Ns::ZERO);
        for id in 16..24u64 {
            query(&mut s, &[(0, id)], Ns::ZERO);
        }
        assert!(s.is_resident(0, 0), "recently touched key evicted");
    }

    #[test]
    fn fetch_time_scales() {
        let r = RemoteSpec::datacenter();
        assert_eq!(r.fetch_time(0, 0), Ns::ZERO);
        let one = r.fetch_time(1, 128);
        let many = r.fetch_time(1_000, 128_000);
        assert!(one >= r.rtt);
        assert!(many > one);
        // Batching amortizes: 1000 keys cost far less than 1000 RTTs.
        assert!(many < r.rtt * 100.0);
    }

    #[test]
    #[should_panic(expected = "dram fraction")]
    fn zero_fraction_rejected() {
        let _ = store(0.0);
    }

    mod faults {
        use super::*;
        use fleche_chaos::{FaultPlan, RemoteFaultSpec, RetryPolicy};

        /// A plan whose remote tier *always* times out.
        fn dead_remote(seed: u64) -> FaultPlan {
            let mut plan = FaultPlan::quiet(seed);
            plan.remote = RemoteFaultSpec {
                fetch_failure_rate: 1.0,
                ..RemoteFaultSpec::default()
            };
            plan
        }

        /// Retries without hedging so attempt counting is exact.
        fn retries_only(max_attempts: u32) -> RetryPolicy {
            RetryPolicy {
                max_attempts,
                base_backoff: Ns::from_us(50.0),
                backoff_multiplier: 2.0,
                jitter_frac: 0.0,
                hedge_after: None,
                deadline: None,
            }
        }

        #[test]
        fn fault_free_injector_matches_legacy_path() {
            let mut plain = store(0.5);
            let mut injected = store(0.5);
            injected.set_fault_injector(Some(FaultPlan::quiet(1).remote_injector()));
            injected.set_retry_policy(RetryPolicy::standard());
            let keys: Vec<(u16, u64)> = (0..64).map(|i| ((i % 2) as u16, i)).collect();
            let (rows_a, cost_a, _) = query(&mut plain, &keys, Ns::ZERO);
            let (rows_b, cost_b, report) = query(&mut injected, &keys, Ns::ZERO);
            assert_eq!(rows_a.to_rows(), rows_b.to_rows());
            assert_eq!(cost_a, cost_b);
            assert!(report.clean());
            assert_eq!(report.attempts, 1);
        }

        #[test]
        fn timeout_then_retry_then_success_counters_exact() {
            // Failure rate 1.0 for determinism is too blunt for this test;
            // instead schedule an outage window covering the first attempt
            // only: the retry (after backoff) lands outside the window.
            let mut plan = FaultPlan::quiet(3);
            plan.remote = RemoteFaultSpec {
                outage_period: Ns::from_ms(10.0),
                outage_duration: Ns::from_us(100.0),
                ..RemoteFaultSpec::default()
            };
            let mut s = store(0.5);
            s.set_fault_injector(Some(plan.remote_injector()));
            s.set_retry_policy(retries_only(3));
            // Batch issued just inside the outage window at t=10ms; first
            // attempt dies, waits out the 1ms timeout, retry at
            // ~t+1ms+50us lands after the 100us window closes (and well
            // before the next window at 20ms).
            let t = Ns::from_ms(10.0) + Ns::from_us(10.0);
            let (rows, cost, report) = query(&mut s, &[(0, 7)], t);
            assert!(report.clean(), "retry must recover: {report:?}");
            assert_eq!(report.attempts, 2);
            let st = s.stats();
            assert_eq!(st.remote_timeouts, 1);
            assert_eq!(st.remote_retries, 1);
            assert_eq!(st.failed_keys, 0);
            assert_eq!(st.stale_serves, 0);
            assert_eq!(st.remote_fetches, 1);
            // Cost ordering: timeout + backoff + nominal fetch, all present.
            let nominal = s.remote.fetch_time(1, 8 * 4);
            let floor = s.remote.timeout + Ns::from_us(50.0) + nominal;
            assert!(
                cost >= floor,
                "cost {cost} must include timeout+backoff+fetch {floor}"
            );
            // The value still arrives fresh and exact.
            let ds = spec::synthetic(2, 1_000, 8, -1.2);
            let flat = crate::table::CpuStore::new(&ds, DramSpec::xeon_6252());
            assert_eq!(rows.row(0), flat.read(0, 7));
        }

        #[test]
        fn exhausted_retries_fall_back_to_stale_then_fail() {
            let ds = spec::synthetic(1, 1_000, 8, -1.2);
            let mut s = TieredStore::new(
                &ds,
                DramSpec::xeon_6252(),
                RemoteSpec::datacenter(),
                0.016, // 16 entries
            );
            s.set_stale_serve(true);
            // Warm keys 0..20 fault-free: 0..4 get evicted into the stale
            // buffer, 4..20 stay resident.
            for id in 0..20u64 {
                query(&mut s, &[(0, id)], Ns::ZERO);
            }
            assert!(!s.is_resident(0, 0));
            // Now the remote dies permanently.
            s.set_fault_injector(Some(dead_remote(9).remote_injector()));
            s.set_retry_policy(retries_only(3));
            // Key 0: evicted earlier -> stale-servable. Key 500: never seen
            // -> must fail. Key 19: resident -> fresh.
            let (rows, _, report) = query(&mut s, &[(0, 0), (0, 500), (0, 19)], Ns::ZERO);
            assert_eq!(report.attempts, 3, "all retries spent before fallback");
            assert_eq!(report.stale, vec![0]);
            assert_eq!(report.failed, vec![1]);
            let st = s.stats();
            assert_eq!(st.remote_timeouts, 3);
            assert_eq!(st.remote_retries, 2);
            assert_eq!(st.stale_serves, 1);
            assert_eq!(st.failed_keys, 1);
            assert!(st.staleness_sum >= 1, "stale copy must age");
            // Stale bytes equal fresh bytes under the procedural model.
            let flat = crate::table::CpuStore::new(&ds, DramSpec::xeon_6252());
            assert_eq!(rows.row(0), flat.read(0, 0));
            // Failed key served as zeros.
            assert!(rows.row(1).iter().all(|&x| x == 0.0));
            // Resident key untouched by the remote failure.
            assert_eq!(rows.row(2), flat.read(0, 19));
        }

        #[test]
        fn deadline_cuts_retries_short() {
            let mut s = store(0.5);
            s.set_fault_injector(Some(dead_remote(5).remote_injector()));
            // 5 attempts allowed, but the deadline only fits two timeouts
            // (timeout = 1ms each, backoff 50us).
            s.set_retry_policy(RetryPolicy {
                max_attempts: 5,
                base_backoff: Ns::from_us(50.0),
                backoff_multiplier: 2.0,
                jitter_frac: 0.0,
                hedge_after: None,
                deadline: Some(Ns::from_ms(2.2)),
            });
            let (_, cost, report) = query(&mut s, &[(0, 1)], Ns::ZERO);
            assert_eq!(report.attempts, 2, "deadline must stop the third attempt");
            assert!(!report.failed.is_empty());
            assert!(
                cost <= Ns::from_ms(2.2) + Ns::from_us(1.0),
                "spent {cost} past the deadline"
            );
            assert_eq!(s.stats().remote_timeouts, 2);
        }

        #[test]
        fn hedged_fetch_rescues_a_dead_primary() {
            // Outage window of 100us: the primary at t(in-window) dies, the
            // hedge fired 150us later lands outside the window and wins.
            let mut plan = FaultPlan::quiet(7);
            plan.remote = RemoteFaultSpec {
                outage_period: Ns::from_ms(1.0),
                outage_duration: Ns::from_us(100.0),
                ..RemoteFaultSpec::default()
            };
            let mut s = store(0.5);
            s.set_fault_injector(Some(plan.remote_injector()));
            s.set_retry_policy(RetryPolicy {
                max_attempts: 1, // no retries: only the hedge can save it
                base_backoff: Ns::ZERO,
                backoff_multiplier: 1.0,
                jitter_frac: 0.0,
                hedge_after: Some(Ns::from_us(150.0)),
                deadline: None,
            });
            let t = Ns::from_ms(1.0) + Ns::from_us(10.0);
            let (_, cost, report) = query(&mut s, &[(0, 3)], t);
            assert!(report.clean(), "hedge must rescue: {report:?}");
            assert!(report.hedged);
            assert_eq!(report.attempts, 1);
            let st = s.stats();
            assert_eq!(st.hedged_fetches, 1);
            assert_eq!(st.hedge_wins, 1);
            assert_eq!(st.remote_timeouts, 0, "rescued attempt is not a timeout");
            // Cost = hedge delay + nominal fetch (cheaper than a timeout).
            assert!(cost < s.remote.timeout);
        }

        #[test]
        fn replay_is_deterministic() {
            let run = || {
                let mut plan = FaultPlan::quiet(21);
                plan.remote = RemoteFaultSpec {
                    fetch_failure_rate: 0.5,
                    ..RemoteFaultSpec::default()
                };
                let mut s = store(0.25);
                s.set_fault_injector(Some(plan.remote_injector()));
                s.set_retry_policy(RetryPolicy::standard());
                s.set_stale_serve(true);
                let mut total = Ns::ZERO;
                let mut failed = 0usize;
                for i in 0..200u64 {
                    let t = Ns::from_us(i as f64 * 37.0);
                    let (_, cost, report) = query(&mut s, &[(0, i % 40), (1, (i * 7) % 40)], t);
                    total += cost;
                    failed += report.failed.len();
                }
                (total.as_ns(), failed, s.stats().remote_timeouts)
            };
            assert_eq!(run(), run());
        }
    }
}
