//! Operation instrumentation.
//!
//! Every index/pool operation reports what it touched so callers can charge
//! the GPU cost model faithfully: slab probes become dependent
//! global-memory rounds, slot traffic becomes bytes, CAS-style updates
//! become atomics.

/// Footprint of one or more index operations.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ProbeStats {
    /// Slabs (32-slot cache lines) read while walking bucket chains.
    pub slabs_visited: u64,
    /// Longest single-operation chain walk (serial dependent rounds).
    pub max_chain: u32,
    /// Atomic read-modify-write operations (slot claims, timestamp bumps).
    pub atomics: u64,
    /// Bytes of index metadata read or written.
    pub bytes_touched: u64,
    /// Operations that found their key.
    pub hits: u64,
    /// Operations that did not find their key.
    pub misses: u64,
}

impl ProbeStats {
    /// A zeroed record.
    pub fn new() -> ProbeStats {
        ProbeStats::default()
    }

    /// Accumulates `other` as work done *concurrently* with this: traffic
    /// adds, the critical chain takes the maximum.
    pub fn merge(&mut self, other: &ProbeStats) {
        self.slabs_visited += other.slabs_visited;
        self.max_chain = self.max_chain.max(other.max_chain);
        self.atomics += other.atomics;
        self.bytes_touched += other.bytes_touched;
        self.hits += other.hits;
        self.misses += other.misses;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merge_adds_traffic_maxes_chain() {
        let mut a = ProbeStats {
            slabs_visited: 3,
            max_chain: 2,
            atomics: 1,
            bytes_touched: 300,
            hits: 1,
            misses: 0,
        };
        let b = ProbeStats {
            slabs_visited: 5,
            max_chain: 4,
            atomics: 2,
            bytes_touched: 500,
            hits: 0,
            misses: 2,
        };
        a.merge(&b);
        assert_eq!(a.slabs_visited, 8);
        assert_eq!(a.max_chain, 4);
        assert_eq!(a.atomics, 3);
        assert_eq!(a.bytes_touched, 800);
        assert_eq!(a.hits, 1);
        assert_eq!(a.misses, 2);
    }
}
