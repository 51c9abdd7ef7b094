//! Per-layer metrics every workload's traced pass derives the same way:
//! mean µs per batch of each span, the twin's work counts, and the
//! system's own simulated-clock counters.

use crate::metrics::RunOutput;
use crate::micro;
use crate::probe::Recorded;
use crate::trace::{self, Span};
use crate::twin::{TwinCounts, LAYER_SPANS};

/// Sets the shared per-layer metrics. `batches` is how many batches the
/// spans cover; `dim` the workload's embedding dimension.
pub fn set_shared(
    out: &mut RunOutput,
    spans: &[Span],
    batches: f64,
    twin: &TwinCounts,
    rec: &Recorded,
    dim: usize,
) {
    let totals = trace::totals(spans);
    let us = |name: &str| totals.get(name).map_or(0.0, |t| t.0 as f64 / 1e3) / batches;
    let per_batch = |v: u64| v as f64 / twin.batches.max(1) as f64;
    let sim = &rec.sim;
    let per_sim_batch_us = |ns: f64| ns / 1e3 / sim.batches.max(1) as f64;
    let unique = twin.unique_keys.max(1) as f64;

    out.set("workload.trace.ids_per_batch", per_batch(twin.accesses));
    out.set("store.dedup.from_batch_us", us("store.dedup.from_batch"));
    out.set("store.dedup.restore_us", us("store.dedup.restore"));
    out.set("store.dedup.unique_keys", per_batch(twin.unique_keys));
    out.set("store.dedup.dup_factor", twin.accesses as f64 / unique);
    out.set("coding.codec.encode_us", us("coding.codec.encode"));
    out.set("coding.codec.keys", per_batch(twin.encoded_keys));
    // One index operation per encoded key: a probe per unique key and an
    // insert per filled one.
    let index_ops = twin.encoded_keys.max(1) as f64;
    out.set(
        "index.slab_hash.slabs_visited_per_key",
        twin.probe.slabs_visited as f64 / index_ops,
    );
    out.set(
        "index.slab_hash.bytes_touched_per_key",
        twin.probe.bytes_touched as f64 / index_ops,
    );
    out.set("index.slab_hash.max_chain", f64::from(twin.probe.max_chain));
    out.set(
        "core.flat_cache.lookup_batch_us",
        us("core.flat_cache.lookup_batch"),
    );
    out.set(
        "core.flat_cache.verify_hits_us",
        us("core.flat_cache.verify_hits"),
    );
    out.set(
        "core.flat_cache.read_hit_us",
        us("core.flat_cache.read_hit"),
    );
    out.set("core.flat_cache.insert_us", us("core.flat_cache.insert"));
    out.set("core.flat_cache.evict_us", us("core.flat_cache.evict"));
    let real_hit_rate = sim.hits as f64 / sim.unique_keys.max(1) as f64;
    out.set("core.flat_cache.hit_rate", real_hit_rate);
    out.set(
        "core.flat_cache.unified_hit_rate",
        sim.unified_hits as f64 / sim.unique_keys.max(1) as f64,
    );
    out.set(
        "core.flat_cache.admitted_per_batch",
        per_batch(twin.admitted),
    );
    out.set(
        "core.flat_cache.twin_hit_rate_delta",
        twin.hits as f64 / unique - real_hit_rate,
    );
    out.set("store.table.query_batch_us", us("store.table.query_batch"));
    out.set(
        "store.table.miss_keys",
        per_batch(twin.misses + twin.unified_hits),
    );
    out.set("store.table.fill_bytes", per_batch(twin.fill_bytes));
    let (fill_ns, checksum_ns) = micro::simd_ns_per_row(dim);
    out.set("simd.unit_fill_ns_per_row", fill_ns);
    out.set("simd.checksum_ns_per_row", checksum_ns);

    let query_us = us("core.system.query_batch");
    let explained: f64 = LAYER_SPANS.iter().map(|name| us(name)).sum();
    out.set("core.system.query_batch_us", query_us);
    out.set("core.system.unattributed_us", query_us - explained);
    out.set(
        "core.system.unattributed_share",
        (query_us - explained) / query_us,
    );

    let alloc_batches = rec.alloc_batches.max(1) as f64;
    out.set(
        "model.engine.allocs_per_batch",
        rec.allocs as f64 / alloc_batches,
    );
    out.set(
        "model.engine.alloc_bytes_per_batch",
        rec.alloc_bytes as f64 / alloc_batches,
    );
    let (last_id, last_len) = rec.timeline_last;
    let first_len = rec.timeline_first.unwrap_or(last_len);
    out.set(
        "gpu.sim.timeline_spans_per_batch",
        (last_len - first_len) as f64 / last_id.max(1) as f64,
    );
    out.set(
        "sim.phase.cache_index_us",
        per_sim_batch_us(sim.cache_index_ns),
    );
    out.set(
        "sim.phase.cache_copy_us",
        per_sim_batch_us(sim.cache_copy_ns),
    );
    out.set(
        "sim.phase.dram_index_us",
        per_sim_batch_us(sim.dram_index_ns),
    );
    out.set(
        "sim.phase.dram_payload_us",
        per_sim_batch_us(sim.dram_payload_ns),
    );
    out.set("sim.phase.other_us", per_sim_batch_us(sim.other_ns));
    out.set("sim.embedding_us", per_sim_batch_us(sim.embedding_ns));
    out.set("trace.batches", batches);

    // Call count beside each span's mean and self time, for people.
    let own = trace::self_totals(spans);
    for (name, (ns, calls)) in &totals {
        out.notes.push(format!(
            "span {name:<32} {calls:>8} calls  {:>10.2} us/batch  self {:>10.2} us/batch",
            *ns as f64 / 1e3 / batches,
            own[name] as f64 / 1e3 / batches
        ));
    }
}
