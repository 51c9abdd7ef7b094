//! Embedding tables and the CPU-DRAM store.
//!
//! The CPU-DRAM layer holds every embedding of every table. Embedding
//! values are *procedurally deterministic*: the value of `(table, id)` is a
//! pure function of both, so the store behaves exactly like a materialized
//! hash table (identical bytes on every read) without holding the scaled
//! datasets' hundreds of megabytes resident. End-to-end tests rely on this
//! determinism to verify that a cache returns byte-identical embeddings to
//! the ground truth.

use fleche_gpu::{DramSpec, Ns};
use fleche_workload::DatasetSpec;

/// Average hash-probe rounds per DRAM lookup (a lightly loaded chained
/// hash table misses the LLC roughly this often per query).
pub const DRAM_PROBES_PER_LOOKUP: f64 = 3.0;

/// Per-lookup index metadata traffic in bytes (bucket header + entry).
pub const DRAM_INDEX_BYTES: u64 = 64;

/// Deterministically fills `out` with the embedding of `(table, id)`.
///
/// Values are in `[-1, 1)`, derived from a SplitMix64 stream keyed by
/// `(table, id, component)`. This *is* the stored value of the embedding:
/// the function plays the role of the DRAM hash table's payload. It is
/// the version-0 case of [`crate::versioned_embedding_value`], whose
/// per-component stream is `fleche_simd::unit_fill` (the fill is the
/// gather path's bottleneck, so it runs under runtime SIMD dispatch; every
/// component is an independent exact op sequence, so the values are
/// bit-identical on every dispatch path).
pub fn embedding_value(table: u16, id: u64, out: &mut [f32]) {
    crate::update::versioned_embedding_value(table, id, 0, out);
}

/// The CPU-DRAM layer: all embedding tables of a dataset, plus the cost
/// model for querying them.
#[derive(Clone, Debug)]
pub struct CpuStore {
    dims: Vec<u32>,
    corpora: Vec<u64>,
    dram: DramSpec,
}

impl CpuStore {
    /// Builds the store for a dataset on the given memory system.
    pub fn new(spec: &DatasetSpec, dram: DramSpec) -> CpuStore {
        CpuStore {
            dims: spec.tables.iter().map(|t| t.dim).collect(),
            corpora: spec.tables.iter().map(|t| t.corpus).collect(),
            dram,
        }
    }

    /// Number of tables.
    pub fn table_count(&self) -> usize {
        self.dims.len()
    }

    /// Embedding dimension of `table`.
    ///
    /// # Panics
    ///
    /// Panics if `table` is out of range.
    pub fn dim(&self, table: u16) -> u32 {
        self.dims[table as usize]
    }

    /// Corpus size of `table`.
    pub fn corpus(&self, table: u16) -> u64 {
        self.corpora[table as usize]
    }

    /// The memory-system spec this store charges against.
    pub fn dram(&self) -> &DramSpec {
        &self.dram
    }

    /// Reads one embedding into `out` (length must equal the table's dim).
    ///
    /// # Panics
    ///
    /// Panics if `out.len()` does not match the table dimension or the id
    /// is outside the corpus.
    pub fn read_into(&self, table: u16, id: u64, out: &mut [f32]) {
        assert_eq!(
            out.len(),
            self.dims[table as usize] as usize,
            "output buffer does not match table dim"
        );
        assert!(
            id < self.corpora[table as usize],
            "id {id} outside corpus of table {table}"
        );
        embedding_value(table, id, out);
    }

    /// Reads one embedding, allocating.
    pub fn read(&self, table: u16, id: u64) -> Vec<f32> {
        let mut v = vec![0.0; self.dims[table as usize] as usize];
        self.read_into(table, id, &mut v);
        v
    }

    /// Gathers `ids` from `table` and reduces them with `pooling`,
    /// streaming each row through one reused scratch buffer instead of
    /// materializing a `Vec` per row. Bit-identical to reducing the rows
    /// returned by [`CpuStore::read`] (same per-element accumulation
    /// order), which `tests/simd_props.rs` pins.
    ///
    /// # Panics
    ///
    /// Panics if `ids` is empty or any id is outside the corpus.
    pub fn pooled(&self, table: u16, ids: &[u64], pooling: crate::Pooling) -> Vec<f32> {
        assert!(!ids.is_empty(), "pooling needs at least one vector");
        let dim = self.dims[table as usize] as usize;
        let mut out = vec![pooling.identity(); dim];
        let mut row = vec![0.0f32; dim];
        for &id in ids {
            self.read_into(table, id, &mut row);
            pooling.accumulate(&mut out, &row);
        }
        pooling.finish(&mut out, ids.len());
        out
    }

    /// Queries a batch of `(table, id)` keys: returns the embeddings and
    /// the host-side time the batch costs under the DRAM model
    /// (latency-bound for many small lookups, bandwidth-bound for bulk).
    pub fn query_batch(&self, keys: &[(u16, u64)]) -> (Vec<Vec<f32>>, Ns) {
        let mut out = Vec::with_capacity(keys.len());
        let mut bytes = 0u64;
        for &(t, id) in keys {
            let v = self.read(t, id);
            bytes += v.len() as u64 * 4 + DRAM_INDEX_BYTES;
            out.push(v);
        }
        let cost = self
            .dram
            .batch_lookup_time(keys.len() as u64, DRAM_PROBES_PER_LOOKUP, bytes);
        (out, cost)
    }

    /// Cost of only the *indexing* part of a DRAM batch query (probe
    /// traffic, no payload). The unified index bypasses exactly this.
    pub fn index_cost(&self, lookups: u64) -> Ns {
        self.dram
            .batch_lookup_time(lookups, DRAM_PROBES_PER_LOOKUP, lookups * DRAM_INDEX_BYTES)
    }

    /// Cost of only the *payload copy* part for `keys` (sequential reads of
    /// located embeddings, bandwidth-bound).
    pub fn payload_cost(&self, keys: &[(u16, u64)]) -> Ns {
        let bytes: u64 = keys
            .iter()
            .map(|&(t, _)| self.dims[t as usize] as u64 * 4)
            .sum();
        self.dram.batch_lookup_time(0, 0.0, bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fleche_workload::spec;

    fn store() -> CpuStore {
        CpuStore::new(&spec::synthetic(4, 10_000, 32, -1.2), DramSpec::xeon_6252())
    }

    #[test]
    fn values_are_deterministic() {
        let s = store();
        assert_eq!(s.read(0, 42), s.read(0, 42));
        assert_eq!(s.read(3, 9_999), s.read(3, 9_999));
    }

    #[test]
    fn values_differ_across_tables_and_ids() {
        let s = store();
        assert_ne!(s.read(0, 42), s.read(1, 42), "same id, different tables");
        assert_ne!(s.read(0, 42), s.read(0, 43), "same table, different ids");
    }

    #[test]
    fn values_are_bounded() {
        let s = store();
        for id in 0..100 {
            for v in s.read(2, id) {
                assert!((-1.0..1.0).contains(&v));
            }
        }
    }

    #[test]
    #[should_panic(expected = "outside corpus")]
    fn out_of_corpus_panics() {
        store().read(0, 10_000);
    }

    #[test]
    #[should_panic(expected = "does not match table dim")]
    fn wrong_buffer_panics() {
        let s = store();
        let mut buf = vec![0.0; 7];
        s.read_into(0, 0, &mut buf);
    }

    #[test]
    fn batch_query_returns_values_and_cost() {
        let s = store();
        let keys: Vec<(u16, u64)> = (0..500).map(|i| (0, i)).collect();
        let (vals, cost) = s.query_batch(&keys);
        assert_eq!(vals.len(), 500);
        assert_eq!(vals[7], s.read(0, 7));
        assert!(cost > Ns::ZERO);
        // More keys cost more.
        let (_, cost2) = s.query_batch(&keys[..100]);
        assert!(cost > cost2);
    }

    #[test]
    fn empty_batch_is_free() {
        let s = store();
        let (vals, cost) = s.query_batch(&[]);
        assert!(vals.is_empty());
        assert_eq!(cost, Ns::ZERO);
    }

    #[test]
    fn index_cost_scales_with_lookups() {
        let s = store();
        assert!(s.index_cost(10_000) > s.index_cost(100));
        assert_eq!(s.index_cost(0), Ns::ZERO);
    }

    #[test]
    fn full_query_costs_at_least_its_parts() {
        let s = store();
        let keys: Vec<(u16, u64)> = (0..1000).map(|i| (1, i)).collect();
        let (_, full) = s.query_batch(&keys);
        // max(latency, bw) composition means full >= each component alone.
        assert!(full >= s.payload_cost(&keys));
        assert!(full >= s.index_cost(keys.len() as u64) * 0.5);
    }

    #[test]
    fn dims_follow_spec() {
        let ds = spec::criteo_tb();
        let s = CpuStore::new(&ds, DramSpec::xeon_6252());
        assert_eq!(s.table_count(), 26);
        assert_eq!(s.dim(0), 128);
        assert_eq!(s.corpus(0), ds.tables[0].corpus);
    }
}
