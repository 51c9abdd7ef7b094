//! Deduplicating and restoring.
//!
//! A batch usually contains many duplicate IDs across samples. The paper
//! (§4) first deduplicates all IDs, queries each unique key once, then
//! restores the full output matrix from the dedup mapping. Deduplication
//! also guarantees at most one writer per key on the GPU index, which is
//! what lets timestamps double as the concurrency-control version.

use fleche_gpu::{KernelWork, Ns};
use fleche_workload::Batch;

/// Host-side cost per ID for hashing into the dedup map.
pub const DEDUP_NS_PER_ID: f64 = 2.5;

/// Marks an unclaimed slot of the dedup probe table (`unique` never holds
/// this many keys: its indices are `u32` and `inverse` stores them).
const VACANT: u32 = u32::MAX;

/// SplitMix64 finalizer over `(table, id)`: every input bit reaches the
/// high bits the probe table indexes by, so dense id ranges, ids near
/// `u64::MAX` and ids that differ only in the table all spread evenly.
/// Not keyed: a caller who can choose ids to collide can make one batch's
/// dedup quadratic, which is bounded by the batch size it already chose.
/// [`crate::VersionLedger`] hashes its keys with it too.
#[inline]
pub(crate) fn mix(table: u16, id: u64) -> u64 {
    let mut x = id ^ (u64::from(table) + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Result of deduplicating a batch.
#[derive(Clone, Debug, Default)]
pub struct Deduped {
    /// Each unique `(table, id)` in first-appearance order. Batches are
    /// flattened table-major, so every table's keys form one contiguous
    /// run, runs in ascending table order.
    pub unique: Vec<(u16, u64)>,
    /// `inverse[k]` maps the k-th access (batch flattening order: table
    /// major, sample order within table) to its index in `unique`.
    pub inverse: Vec<u32>,
    /// Accesses per table, in flattening order (prefix information needed
    /// to slice `inverse` back into per-table runs).
    pub per_table_counts: Vec<u32>,
    /// The open-addressing probe table of the last [`Deduped::rebuild`],
    /// kept so the next one reuses its memory.
    probe: Vec<u32>,
}

impl Deduped {
    /// Deduplicates `batch` into a new mapping (see [`Deduped::rebuild`]).
    ///
    /// # Panics
    ///
    /// Panics if the batch holds `u32::MAX` accesses or more.
    pub fn from_batch(batch: &Batch) -> Deduped {
        let mut d = Deduped::default();
        d.rebuild(batch);
        d
    }

    /// Replaces this mapping with `batch`'s, reusing every vector's
    /// memory. Deduplicates through an open-addressing table of indices
    /// into `unique`: power-of-two capacity of at least twice the access
    /// count (load factor ≤ 0.5), linear probing, sized once per batch — no
    /// rehash, no per-key allocation.
    ///
    /// # Panics
    ///
    /// Panics if the batch holds `u32::MAX` accesses or more.
    pub fn rebuild(&mut self, batch: &Batch) {
        let total = batch.total_ids();
        assert!(
            total < VACANT as usize,
            "batch too large for u32 dedup indices"
        );
        let capacity = (total * 2).next_power_of_two().max(2);
        let shift = 64 - capacity.trailing_zeros();
        let mask = capacity - 1;
        let Deduped {
            unique,
            inverse,
            per_table_counts,
            probe,
        } = self;
        probe.clear();
        probe.resize(capacity, VACANT);
        unique.clear();
        inverse.clear();
        inverse.reserve(total);
        per_table_counts.clear();
        for (t, ids) in batch.table_ids.iter().enumerate() {
            per_table_counts.push(ids.len() as u32);
            for &id in ids {
                let key = (t as u16, id);
                let mut at = (mix(t as u16, id) >> shift) as usize;
                let idx = loop {
                    let found = probe[at];
                    if found == VACANT {
                        let next = unique.len() as u32;
                        probe[at] = next;
                        unique.push(key);
                        break next;
                    }
                    if unique[found as usize] == key {
                        break found;
                    }
                    at = (at + 1) & mask;
                };
                inverse.push(idx);
            }
        }
    }

    /// Number of unique keys.
    pub fn unique_len(&self) -> usize {
        self.unique.len()
    }

    /// Total (pre-dedup) accesses.
    pub fn access_len(&self) -> usize {
        self.inverse.len()
    }

    /// Host CPU cost of building this dedup map.
    pub fn host_cost(&self) -> Ns {
        Ns(self.access_len() as f64 * DEDUP_NS_PER_ID)
    }

    /// Unique keys split per table (for per-table cache baselines, which
    /// query each cache table with its own deduplicated ID list).
    pub fn unique_per_table(&self) -> Vec<Vec<u64>> {
        let n_tables = self.per_table_counts.len();
        let mut out = vec![Vec::new(); n_tables];
        for &(t, id) in &self.unique {
            out[t as usize].push(id);
        }
        out
    }

    /// Restores the full per-access embedding matrix from unique rows into
    /// `out`, reusing its memory: `rows[i]` is the embedding fetched for
    /// `unique[i]`, as anything that views as `&[f32]` — owned rows, or
    /// borrowed views straight into wherever each row already lives, so a
    /// row is copied exactly once, into the output. Afterwards `out` holds
    /// one row per access, in flattening order, whatever it held before;
    /// each row is overwritten in place, so a matrix reused across batches
    /// allocates only where a row outgrows its capacity.
    ///
    /// # Panics
    ///
    /// Panics if `rows.len() != unique.len()`.
    pub fn restore_into<R: AsRef<[f32]>>(&self, rows: &[R], out: &mut Vec<Vec<f32>>) {
        assert_eq!(rows.len(), self.unique.len(), "row count mismatch");
        out.truncate(self.inverse.len());
        let reused = out.len();
        for (dst, &u) in out.iter_mut().zip(&self.inverse) {
            dst.clear();
            dst.extend_from_slice(rows[u as usize].as_ref());
        }
        let fresh = self.inverse[reused..].iter();
        out.extend(fresh.map(|&u| rows[u as usize].as_ref().to_vec()));
    }

    /// [`Deduped::restore_into`] a new matrix.
    ///
    /// # Panics
    ///
    /// Panics if `rows.len() != unique.len()`.
    pub fn restore_from<R: AsRef<[f32]>>(&self, rows: &[R]) -> Vec<Vec<f32>> {
        let mut out = Vec::new();
        self.restore_into(rows, &mut out);
        out
    }

    /// [`Deduped::restore_from`] over owned rows.
    ///
    /// # Panics
    ///
    /// Panics if `rows.len() != unique.len()`.
    pub fn restore(&self, rows: &[Vec<f32>]) -> Vec<Vec<f32>> {
        self.restore_from(rows)
    }

    /// The GPU kernel footprint of the restore scatter (each access row is
    /// read from the unique matrix and written to the output matrix).
    pub fn restore_kernel_work(&self, dims: &[u32]) -> KernelWork {
        let mut bytes = 0u64;
        let mut k = 0usize;
        for (t, &count) in self.per_table_counts.iter().enumerate() {
            bytes += count as u64 * dims[t] as u64 * 4 * 2; // read + write
            k += count as usize;
        }
        debug_assert_eq!(k, self.inverse.len());
        KernelWork::streaming(bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fleche_workload::{spec, TraceGenerator};

    fn batch() -> Batch {
        let ds = spec::synthetic(3, 50, 8, -1.5);
        TraceGenerator::new(&ds).next_batch(64)
    }

    #[test]
    fn dedup_removes_duplicates() {
        let b = batch();
        let d = Deduped::from_batch(&b);
        assert_eq!(d.access_len(), b.total_ids());
        assert!(d.unique_len() < d.access_len(), "skewed trace must repeat");
        // Unique list really is unique.
        let mut seen = std::collections::BTreeSet::new();
        for k in &d.unique {
            assert!(seen.insert(*k));
        }
    }

    #[test]
    fn inverse_maps_back_to_original() {
        let b = batch();
        let d = Deduped::from_batch(&b);
        let mut k = 0;
        for (t, ids) in b.table_ids.iter().enumerate() {
            for &id in ids {
                let u = d.inverse[k] as usize;
                assert_eq!(d.unique[u], (t as u16, id));
                k += 1;
            }
        }
    }

    #[test]
    fn restore_reproduces_per_access_rows() {
        let b = batch();
        let d = Deduped::from_batch(&b);
        // Give each unique key a distinctive row.
        let rows: Vec<Vec<f32>> = d
            .unique
            .iter()
            .map(|&(t, id)| vec![t as f32, id as f32])
            .collect();
        let restored = d.restore(&rows);
        assert_eq!(restored.len(), b.total_ids());
        let mut k = 0;
        for (t, ids) in b.table_ids.iter().enumerate() {
            for &id in ids {
                assert_eq!(restored[k], vec![t as f32, id as f32]);
                k += 1;
            }
        }
    }

    #[test]
    #[should_panic(expected = "row count mismatch")]
    fn restore_checks_row_count() {
        let d = Deduped::from_batch(&batch());
        let _ = d.restore(&[]);
    }

    #[test]
    fn unique_per_table_partitions() {
        let b = batch();
        let d = Deduped::from_batch(&b);
        let per = d.unique_per_table();
        assert_eq!(per.len(), 3);
        let total: usize = per.iter().map(Vec::len).sum();
        assert_eq!(total, d.unique_len());
        // Every per-table id must appear in that table's batch list.
        for (t, ids) in per.iter().enumerate() {
            for id in ids {
                assert!(b.table_ids[t].contains(id));
            }
        }
    }

    #[test]
    fn costs_scale_with_size() {
        let b = batch();
        let d = Deduped::from_batch(&b);
        assert!(d.host_cost() > Ns::ZERO);
        let w = d.restore_kernel_work(&[8, 8, 8]);
        assert_eq!(w.global_bytes, b.total_ids() as u64 * 8 * 4 * 2);
    }

    #[test]
    fn restore_from_views_equals_restore_from_owned_rows() {
        let b = batch();
        let d = Deduped::from_batch(&b);
        let rows: Vec<Vec<f32>> = d
            .unique
            .iter()
            .map(|&(t, id)| vec![t as f32, id as f32, 0.5])
            .collect();
        let views: Vec<&[f32]> = rows.iter().map(Vec::as_slice).collect();
        assert_eq!(d.restore_from(&views), d.restore(&rows));
    }

    #[test]
    fn restore_into_a_reused_matrix_equals_restore_from() {
        let b = batch();
        let d = Deduped::from_batch(&b);
        let rows: Vec<Vec<f32>> = d
            .unique
            .iter()
            .map(|&(t, id)| vec![t as f32, id as f32, 0.5])
            .collect();
        let want = d.restore_from(&rows);
        // Longer and shorter than the batch, holding rows of other dims.
        for len in [want.len() + 7, want.len() / 2, 0] {
            let mut out: Vec<Vec<f32>> = (0..len).map(|i| vec![-1.0; 1 + i % 5]).collect();
            d.restore_into(&rows, &mut out);
            assert_eq!(out, want, "reused matrix of {len} rows");
        }
    }

    #[test]
    fn rebuild_matches_a_fresh_dedup_at_any_previous_size() {
        let ds = spec::synthetic(3, 50, 8, -1.5);
        let mut gen = TraceGenerator::new(&ds);
        let mut d = Deduped::default();
        for size in [64, 3, 0, 40] {
            let b = gen.next_batch(size);
            d.rebuild(&b);
            let fresh = Deduped::from_batch(&b);
            assert_eq!(d.unique, fresh.unique);
            assert_eq!(d.inverse, fresh.inverse);
            assert_eq!(d.per_table_counts, fresh.per_table_counts);
        }
    }

    #[test]
    fn empty_batch_dedups_to_empty() {
        let ds = spec::synthetic(2, 10, 4, -1.0);
        let b = TraceGenerator::new(&ds).next_batch(0);
        let d = Deduped::from_batch(&b);
        assert_eq!(d.unique_len(), 0);
        assert_eq!(d.access_len(), 0);
        assert!(d.restore(&[]).is_empty());
    }
}
