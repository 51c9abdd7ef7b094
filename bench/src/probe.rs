//! `Timed`: the bench's view into the cache system from outside.
//!
//! `InferenceEngine::run_batch` drops the served rows and
//! `serve_concurrent` owns its engines, so the only place the benchmark
//! can see rows, per-batch counters and completion times on every
//! workload is a wrapper around the `EmbeddingCacheSystem` the engine
//! drives. `Timed` forwards every call to `FlecheSystem` unchanged and
//! records around it; it changes no simulated result.

use crate::alloc;
use crate::trace::Tracer;
use crate::twin::Twin;
use fleche_core::FlecheSystem;
use fleche_gpu::Gpu;
use fleche_store::api::{BatchStats, EmbeddingCacheSystem, LifetimeStats, QueryOutput};
use fleche_store::{embedding_value, versioned_embedding_value, Deduped, UpdateStream};
use fleche_workload::{Batch, DatasetSpec};
use std::collections::HashMap;
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Untraced passes compare every n-th batch with the oracle (traced
/// passes every one).
pub const CHECK_EVERY_UNTRACED: u64 = 8;

/// How far below the trainer's latest version the oracle searches for the
/// version a served row carries. Pushes become visible at the next batch
/// boundary, so a correct row lags by a few versions at most.
const VERSION_SEARCH_DEPTH: u64 = 64;

/// Row-for-row comparison with the procedural ground truth.
#[derive(Default)]
pub struct Oracle {
    /// The trainer's push stream, when the workload has one; it owns the
    /// truth ledger served versions are checked against.
    pub updates: Option<UpdateStream>,
    multi_hot: Vec<usize>,
    last_served: HashMap<(u16, u64), u64>,
    scratch: Vec<f32>,
    pub checked_batches: u64,
    pub checked_rows: u64,
    /// Rows matching no admissible version of their key.
    pub bad_rows: u64,
    /// Requests holding at least one bad row.
    pub bad_samples: u64,
}

impl Oracle {
    pub fn new(ds: &DatasetSpec, updates: Option<UpdateStream>) -> Oracle {
        Oracle {
            updates,
            multi_hot: ds.tables.iter().map(|t| t.multi_hot as usize).collect(),
            ..Oracle::default()
        }
    }

    /// Checks every row of one batch (`rows` in the batch's flattening
    /// order). Without an update stream a row must equal
    /// `embedding_value`; with one it must equal
    /// `versioned_embedding_value` at some version no newer than the
    /// trainer's latest and no older than the last one served for the key.
    pub fn check(&mut self, batch: &Batch, rows: &[Vec<f32>]) {
        self.checked_batches += 1;
        let mut bad_sample = vec![false; batch.len()];
        let mut k = 0usize;
        for (t, ids) in batch.table_ids.iter().enumerate() {
            let table = t as u16;
            for (i, &id) in ids.iter().enumerate() {
                let ok = rows.get(k).is_some_and(|row| self.row_ok(table, id, row));
                if !ok {
                    self.bad_rows += 1;
                    if let Some(flag) = bad_sample.get_mut(i / self.multi_hot[t]) {
                        *flag = true;
                    }
                }
                k += 1;
            }
        }
        if rows.len() != k {
            self.bad_rows += rows.len().abs_diff(k) as u64;
            bad_sample.iter_mut().for_each(|f| *f = true);
        }
        self.checked_rows += k as u64;
        self.bad_samples += bad_sample.iter().filter(|b| **b).count() as u64;
    }

    fn row_ok(&mut self, table: u16, id: u64, row: &[f32]) -> bool {
        self.scratch.resize(row.len(), 0.0);
        let Some(stream) = &self.updates else {
            embedding_value(table, id, &mut self.scratch);
            return self.scratch == row;
        };
        let latest = stream.version_of(table, id);
        let floor = self.last_served.get(&(table, id)).copied().unwrap_or(0);
        let lowest = floor.max(latest.saturating_sub(VERSION_SEARCH_DEPTH));
        for v in (lowest..=latest).rev() {
            versioned_embedding_value(table, id, v, &mut self.scratch);
            if self.scratch == row {
                if v > 0 {
                    self.last_served.insert((table, id), v);
                }
                return true;
            }
        }
        false
    }
}

/// Sums of the system's own per-batch counters (simulated clock), over
/// the counted batches.
#[derive(Clone, Copy, Debug, Default)]
pub struct SimSums {
    pub batches: u64,
    pub unique_keys: u64,
    pub hits: u64,
    pub unified_hits: u64,
    pub cache_index_ns: f64,
    pub cache_copy_ns: f64,
    pub dram_index_ns: f64,
    pub dram_payload_ns: f64,
    pub other_ns: f64,
    pub embedding_ns: f64,
}

impl SimSums {
    fn add(&mut self, s: &BatchStats) {
        self.batches += 1;
        self.unique_keys += s.unique_keys;
        self.hits += s.hits;
        self.unified_hits += s.unified_hits;
        self.cache_index_ns += s.phases.cache_index.as_ns();
        self.cache_copy_ns += s.phases.cache_copy.as_ns();
        self.dram_index_ns += s.phases.dram_index.as_ns();
        self.dram_payload_ns += s.phases.dram_payload.as_ns();
        self.other_ns += s.phases.other.as_ns();
        self.embedding_ns += s.wall.as_ns();
    }
}

/// What `Timed` has recorded since warm-up ended. Plain data, so a
/// serving worker can hand it back across threads when its engine drops.
#[derive(Default)]
pub struct Recorded {
    /// Batches served since warm-up ended.
    pub batches: u64,
    /// Requests in batches the system served degraded or with keys it
    /// could not fetch.
    pub impaired_samples: u64,
    /// When each batch's `query_batch` returned (serving workload only).
    pub completions: Vec<Instant>,
    /// Time spent in the bench's own checks and twin inside
    /// `query_batch`, total and for the latest batch.
    pub overhead_ns: u64,
    pub last_overhead_ns: u64,
    pub sim: SimSums,
    /// Length of the device's append-only span timeline when the first
    /// measured batch began, and `(batch, length)` when the latest
    /// counted one did.
    pub timeline_first: Option<usize>,
    pub timeline_last: (u64, usize),
    /// Allocator calls and bytes inside the system's `query_batch`, and
    /// the batches they were counted over.
    pub allocs: u64,
    pub alloc_bytes: u64,
    pub alloc_batches: u64,
}

/// Knobs and state of one `Timed`. Fields are public: the closed-loop
/// driver reaches them through `engine.system_mut()`.
pub struct Probe {
    /// Check every n-th batch against the oracle (0 = never).
    pub check_every: u64,
    /// Batches whose counters add to the repeatable counts.
    pub count_prefix: u64,
    /// Record when each batch completes.
    pub keep_completions: bool,
    /// Count allocations around the inner call, on counted batches.
    pub count_allocs: bool,
    /// Stays false through warm-up; `reset_stats` (how both the engine's
    /// users and `serve_concurrent` end warm-up) flips it.
    pub measuring: bool,
    /// Switch the tracer on when warm-up ends.
    pub trace_after_warmup: bool,
    pub oracle: Oracle,
    pub tracer: Tracer,
    /// A twin driven from inside `query_batch` (serving workload, where
    /// the loop belongs to `serve_concurrent`).
    pub inline_twin: Option<Twin>,
    pub rec: Recorded,
    /// Where to leave the results when the engine is dropped on a thread
    /// the benchmark does not own.
    pub sink: Option<Arc<Mutex<Vec<Finished>>>>,
}

/// What a dropped `Timed` leaves in its sink.
pub struct Finished {
    pub rec: Recorded,
    pub oracle: Oracle,
    pub tracer: Tracer,
    pub twin: Option<crate::twin::TwinCounts>,
    pub evict_passes: u64,
}

impl Probe {
    pub fn new(oracle: Oracle) -> Probe {
        Probe {
            check_every: 0,
            count_prefix: u64::MAX,
            keep_completions: false,
            count_allocs: false,
            measuring: false,
            trace_after_warmup: false,
            oracle,
            tracer: Tracer::default(),
            inline_twin: None,
            rec: Recorded::default(),
            sink: None,
        }
    }

    /// True when the next batch will be compared with the oracle.
    pub fn checks_next(&self) -> bool {
        self.measuring && self.check_every > 0 && self.rec.batches.is_multiple_of(self.check_every)
    }
}

/// `FlecheSystem` with the probe around it.
pub struct Timed {
    pub inner: FlecheSystem,
    pub probe: Probe,
}

impl Timed {
    fn observed(
        &mut self,
        gpu: &mut Gpu,
        batch: &Batch,
        call: impl FnOnce(&mut FlecheSystem, &mut Gpu) -> QueryOutput,
    ) -> QueryOutput {
        let p = &mut self.probe;
        let id = p.rec.batches;
        // The real batch runs under the target its tuner set at the end
        // of the previous batch; the twin must see that one.
        let unified_target = self.inner.cache().unified_target();
        if p.measuring && id <= p.count_prefix {
            p.rec
                .timeline_first
                .get_or_insert(gpu.timeline().spans().len());
            p.rec.timeline_last = (id, gpu.timeline().spans().len());
        }
        let counted = p.measuring && id < p.count_prefix;
        let span = p.tracer.begin("core.system.query_batch", id);
        let out = if p.count_allocs && counted {
            let (out, calls, bytes) = alloc::counted(|| call(&mut self.inner, gpu));
            p.rec.allocs += calls;
            p.rec.alloc_bytes += bytes;
            p.rec.alloc_batches += 1;
            out
        } else {
            call(&mut self.inner, gpu)
        };
        p.tracer.end(span);
        let done = Instant::now();
        if p.checks_next() {
            let span = p.tracer.begin("bench.oracle_check", id);
            p.oracle.check(batch, &out.rows);
            p.tracer.end(span);
        }
        if let Some(twin) = &mut p.inline_twin {
            twin.run_batch(batch, &mut p.tracer, id, unified_target, counted);
        }
        if p.measuring {
            if p.keep_completions {
                p.rec.completions.push(done);
            }
            if out.stats.degraded || out.stats.failed_keys > 0 {
                p.rec.impaired_samples += batch.len() as u64;
            }
            if counted {
                p.rec.sim.add(&out.stats);
            }
            p.rec.batches += 1;
            p.rec.last_overhead_ns = done.elapsed().as_nanos() as u64;
            p.rec.overhead_ns += p.rec.last_overhead_ns;
        }
        out
    }
}

impl EmbeddingCacheSystem for Timed {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn query_batch(&mut self, gpu: &mut Gpu, batch: &Batch) -> QueryOutput {
        self.observed(gpu, batch, |sys, gpu| sys.query_batch(gpu, batch))
    }

    fn query_batch_prepared(
        &mut self,
        gpu: &mut Gpu,
        batch: &Batch,
        prepared: Deduped,
    ) -> QueryOutput {
        self.observed(gpu, batch, |sys, gpu| {
            sys.query_batch_prepared(gpu, batch, prepared)
        })
    }

    fn set_active_tenant(&mut self, tenant: usize) {
        self.inner.set_active_tenant(tenant);
    }

    fn lifetime_stats(&self) -> LifetimeStats {
        self.inner.lifetime_stats()
    }

    fn reset_stats(&mut self) {
        self.inner.reset_stats();
        self.probe.measuring = true;
        self.probe.tracer.enabled = self.probe.trace_after_warmup;
    }
}

impl Drop for Timed {
    fn drop(&mut self) {
        let Some(sink) = self.probe.sink.take() else {
            return;
        };
        let finished = Finished {
            rec: std::mem::take(&mut self.probe.rec),
            oracle: std::mem::take(&mut self.probe.oracle),
            tracer: std::mem::take(&mut self.probe.tracer),
            twin: self.probe.inline_twin.as_ref().map(|t| t.counts),
            evict_passes: self.inner.cache().evict_passes(),
        };
        // A poisoned sink means the collecting thread already panicked;
        // there is no one left to report to.
        if let Ok(mut finished_list) = sink.lock() {
            finished_list.push(finished);
        };
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fleche_workload::{spec, TraceGenerator};

    fn true_rows(batch: &Batch, ds: &DatasetSpec) -> Vec<Vec<f32>> {
        batch
            .iter_accesses()
            .map(|(t, id)| {
                let mut row = vec![0.0; ds.tables[t as usize].dim as usize];
                embedding_value(t, id, &mut row);
                row
            })
            .collect()
    }

    #[test]
    fn oracle_accepts_true_rows_and_counts_a_flipped_bit() {
        let ds = spec::avazu_small_for_tests();
        let batch = TraceGenerator::new(&ds).next_batch(16);
        let mut rows = true_rows(&batch, &ds);
        let mut oracle = Oracle::new(&ds, None);
        oracle.check(&batch, &rows);
        assert_eq!((oracle.bad_rows, oracle.bad_samples), (0, 0));
        assert_eq!(oracle.checked_rows, batch.total_ids() as u64);

        // One flipped mantissa bit in one row of the last table: exactly
        // one row and the one request holding it fail.
        let last = rows.len() - 3;
        rows[last][2] = f32::from_bits(rows[last][2].to_bits() ^ 1);
        oracle.check(&batch, &rows);
        assert_eq!((oracle.bad_rows, oracle.bad_samples), (1, 1));

        // A short answer fails every request of the batch.
        rows.pop();
        let mut oracle = Oracle::new(&ds, None);
        oracle.check(&batch, &rows);
        assert_eq!(oracle.bad_samples, 16);
    }

    #[test]
    fn oracle_enforces_version_window_and_monotonicity() {
        let ds = spec::avazu_small_for_tests();
        let mut stream = UpdateStream::new(&ds, 1);
        let key = (0u16, 5u64);
        for _ in 0..3 {
            stream.next_burst_from(&[key], 1);
        }
        let mut oracle = Oracle::new(&ds, Some(stream));
        let at = |v: u64| {
            let mut row = vec![0.0; 8];
            versioned_embedding_value(key.0, key.1, v, &mut row);
            row
        };
        assert!(
            oracle.row_ok(key.0, key.1, &at(2)),
            "lagging by one is fine"
        );
        assert!(oracle.row_ok(key.0, key.1, &at(3)));
        assert!(
            !oracle.row_ok(key.0, key.1, &at(2)),
            "served version went back"
        );
        assert!(
            !oracle.row_ok(key.0, key.1, &at(4)),
            "newer than the trainer"
        );
    }
}
