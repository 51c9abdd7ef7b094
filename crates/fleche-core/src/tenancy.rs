//! Per-tenant cache quotas (DESIGN.md §7.3): which tenant inserts, and
//! what each holds. Each slot's owner lives in its `SlotMeta`.

use fleche_index::SlabPool;

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

/// `FlatCache` asks the partition whether to admit, tells it the owner of
/// what it wrote and retired, and takes its eviction band. A partition with
/// no tenants (the default) is partitioning off: it admits everything,
/// charges nothing and has no band.
#[derive(Default)]
pub(crate) struct TenantPartition {
    active: u8,
    tenants: Vec<TenantCacheStats>,
}

impl TenantPartition {
    /// Tenant `t` may hold at most `quotas[t] ×` the pool's byte capacity.
    pub(crate) fn new(pool: &SlabPool, quotas: &[f64]) -> TenantPartition {
        assert!(!quotas.is_empty(), "need at least one tenant");
        assert!(quotas.len() <= 256, "a slot's owner is one byte");
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
            tenants: quotas.iter().map(|&q| quota(q)).collect(),
        }
    }

    /// Declares the tenant owning subsequent inserts (ignored while off).
    pub(crate) fn set_active(&mut self, tenant: usize) {
        if !self.tenants.is_empty() {
            assert!(tenant < self.tenants.len(), "unknown tenant {tenant}");
            self.active = tenant as u8;
        }
    }

    /// `tenant`'s accounting (zeros while off or for an unknown tenant).
    pub(crate) fn stats(&self, tenant: usize) -> TenantCacheStats {
        self.tenants.get(tenant).copied().unwrap_or_default()
    }

    /// Whether the active tenant may take a slot: one at its quota is
    /// denied, and the denial counted.
    pub(crate) fn may_admit(&mut self) -> bool {
        match self.tenants.get_mut(usize::from(self.active)) {
            Some(t) if t.occupancy_bytes >= t.quota_bytes => {
                t.denied += 1;
                false
            }
            _ => true,
        }
    }

    /// Charges a freshly written slot of `bytes`, owned by `owner`, to the
    /// active tenant, moving the charge if a refresh handed it over from
    /// another tenant. Returns the slot's owner from now on (`owner` while
    /// off).
    pub(crate) fn charge(&mut self, owner: Option<u8>, bytes: u64) -> Option<u8> {
        if self.tenants.is_empty() || owner == Some(self.active) {
            return owner;
        }
        if let Some(p) = owner {
            let t = &mut self.tenants[usize::from(p)];
            t.occupancy_bytes = t.occupancy_bytes.saturating_sub(bytes);
        }
        self.tenants[usize::from(self.active)].occupancy_bytes += bytes;
        Some(self.active)
    }

    /// Releases a retired slot of `bytes` from its `owner`; `evicted`
    /// counts it in the owner's eviction tally.
    pub(crate) fn release(&mut self, owner: Option<u8>, bytes: u64, evicted: bool) {
        if let Some(owner) = owner {
            let t = &mut self.tenants[usize::from(owner)];
            t.occupancy_bytes = t.occupancy_bytes.saturating_sub(bytes);
            t.evictions += u64::from(evicted);
        }
    }

    /// The eviction band of a resident value, for one pass: `false` while
    /// its owner is over quota — those go first, so a flash crowd reclaims
    /// from the tenant that overflowed, not its neighbors. Unowned slots
    /// (and pointers, which have no owner) are in quota. `None` while off:
    /// everything is in quota, and the pass skips the call.
    pub(crate) fn band(&self) -> Option<impl Fn(Option<u8>) -> bool> {
        if self.tenants.is_empty() {
            return None;
        }
        // An owner is one byte, so a table of 256 needs no allocation.
        let mut over = [false; 256];
        for (over, t) in over.iter_mut().zip(&self.tenants) {
            *over = t.occupancy_bytes > t.quota_bytes;
        }
        Some(move |owner: Option<u8>| !owner.is_some_and(|owner| over[usize::from(owner)]))
    }

    /// Zeroes occupancy, as a wipe that drops every slot's owner does;
    /// quotas and the denial and eviction counters stay.
    pub(crate) fn clear(&mut self) {
        self.tenants.iter_mut().for_each(|t| t.occupancy_bytes = 0);
    }
}
