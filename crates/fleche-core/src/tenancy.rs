//! Per-tenant cache quotas (DESIGN.md §7.3): which tenant owns each slot,
//! which tenant inserts, and what each holds.

use crate::flat_cache::SlotArray;
use fleche_index::{Loc, PackedLoc, SlabPool};

/// Per-tenant capacity accounting of a partitioned cache.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct TenantCacheStats {
    /// Value bytes currently resident under this tenant's ownership.
    pub occupancy_bytes: u64,
    /// The tenant's byte quota (its partition of pool capacity).
    pub quota_bytes: u64,
    /// Admissions denied because the tenant was at quota.
    pub denied: u64,
    /// Resident entries of this tenant evicted or displaced.
    pub evictions: u64,
}

/// `FlatCache` asks the partition whether to admit, tells it what it
/// wrote and retired, and takes its eviction band. A partition with no
/// tenants (the default) is partitioning off: it admits everything,
/// charges nothing and has no band.
#[derive(Default)]
pub(crate) struct TenantPartition {
    active: usize,
    /// Owning tenant per slot; unowned slots are never charged.
    owner: SlotArray<Option<u32>>,
    tenants: Vec<TenantCacheStats>,
}

impl TenantPartition {
    /// Tenant `t` may hold at most `quotas[t] ×` the pool's byte capacity.
    pub(crate) fn new(pool: &SlabPool, quotas: &[f64]) -> TenantPartition {
        assert!(!quotas.is_empty(), "need at least one tenant");
        let positive = quotas.iter().all(|&q| q > 0.0);
        assert!(positive, "every tenant needs a positive share");
        let total: f64 = quotas.iter().sum();
        assert!(total <= 1.0 + 1e-9, "tenant shares oversubscribe the pool");
        let cap = pool.capacity_bytes() as f64;
        let quota = |q: f64| TenantCacheStats {
            quota_bytes: (q * cap) as u64,
            ..TenantCacheStats::default()
        };
        TenantPartition {
            active: 0,
            owner: SlotArray::new(pool, None),
            tenants: quotas.iter().map(|&q| quota(q)).collect(),
        }
    }

    /// Declares the tenant owning subsequent inserts (ignored while off).
    pub(crate) fn set_active(&mut self, tenant: usize) {
        if !self.tenants.is_empty() {
            assert!(tenant < self.tenants.len(), "unknown tenant {tenant}");
            self.active = tenant;
        }
    }

    /// `tenant`'s accounting (zeros while off or for an unknown tenant).
    pub(crate) fn stats(&self, tenant: usize) -> TenantCacheStats {
        self.tenants.get(tenant).copied().unwrap_or_default()
    }

    /// Whether the active tenant may take a slot: one at its quota is
    /// denied, and the denial counted.
    pub(crate) fn may_admit(&mut self) -> bool {
        match self.tenants.get_mut(self.active) {
            Some(t) if t.occupancy_bytes >= t.quota_bytes => {
                t.denied += 1;
                false
            }
            _ => true,
        }
    }

    /// Charges a freshly written slot of `bytes` to the active tenant,
    /// moving the charge if a refresh handed it over from another tenant.
    pub(crate) fn charge(&mut self, class: u16, slot: u32, bytes: u64) {
        if self.tenants.is_empty() {
            return;
        }
        let prev = self.owner.replace(class, slot, Some(self.active as u32));
        if prev == Some(self.active as u32) {
            return;
        }
        if let Some(p) = prev {
            let t = &mut self.tenants[p as usize];
            t.occupancy_bytes = t.occupancy_bytes.saturating_sub(bytes);
        }
        self.tenants[self.active].occupancy_bytes += bytes;
    }

    /// Releases a retired slot of `bytes` from its owner; `evicted` counts
    /// it in the owner's eviction tally.
    pub(crate) fn release(&mut self, class: u16, slot: u32, bytes: u64, evicted: bool) {
        if let Some(owner) = self.owner.take(class, slot) {
            let t = &mut self.tenants[owner as usize];
            t.occupancy_bytes = t.occupancy_bytes.saturating_sub(bytes);
            t.evictions += u64::from(evicted);
        }
    }

    /// The eviction band of an index entry, for one pass: `false` while it
    /// is a value whose owner is over quota — those go first, so a flash
    /// crowd reclaims from the tenant that overflowed, not its neighbors.
    /// Pointers and unowned slots are in quota. `None` while off:
    /// everything is in quota, and the scan skips the call.
    pub(crate) fn band(&self) -> Option<impl Fn(PackedLoc) -> bool + '_> {
        if self.tenants.is_empty() {
            return None;
        }
        let over: Vec<bool> = self
            .tenants
            .iter()
            .map(|t| t.occupancy_bytes > t.quota_bytes)
            .collect();
        Some(move |loc: PackedLoc| match loc.unpack() {
            Loc::Hbm { class, slot } => !self
                .owner
                .get(class, slot)
                .is_some_and(|owner| over[owner as usize]),
            Loc::Dram { .. } => true,
        })
    }

    /// Drops every slot's owner and zeroes occupancy; quotas and the
    /// denial and eviction counters stay.
    pub(crate) fn clear(&mut self) {
        self.owner.clear();
        self.tenants.iter_mut().for_each(|t| t.occupancy_bytes = 0);
    }
}
