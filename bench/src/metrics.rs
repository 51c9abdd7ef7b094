//! The benchmark's vocabulary: every workload and metric by name, with
//! unit, direction and regression bound. `BENCHMARK.json` at the repo
//! root is generated from these tables (`--emit-benchmark-json`) and a
//! test keeps the two equal.

use std::collections::BTreeMap;
use std::fmt::Write;

pub struct WorkloadDoc {
    pub name: &'static str,
    pub why: &'static str,
}

pub const WORKLOADS: &[WorkloadDoc] = &[
    WorkloadDoc {
        name: "kaggle_hit",
        why: "criteo-kaggle, 10% cache, batch 512, closed loop: ~0.9 hit rate, so index probe + checksum verify + gather dominate",
    },
    WorkloadDoc {
        name: "tb_miss",
        why: "criteo-tb dim 128, 0.02% cache, closed loop: ~0.1 hit rate, so DRAM fill + insert/evict dominate; bypass control for index work",
    },
    WorkloadDoc {
        name: "kaggle_update",
        why: "kaggle_hit plus 256 trainer pushes before each batch: same cache and index used for writes beside reads; kaggle_hit is its control",
    },
    WorkloadDoc {
        name: "avazu_serve",
        why: "serve_concurrent front-end, avazu, open loop at 80k req/s simulated, mean batch ~23: per-batch fixed cost, queue hand-offs, in-loop trace generation",
    },
];

#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}
use Better::{Higher, Lower};

pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
}

/// End-to-end metrics with the share of the parent's median each may
/// worsen by. Host-clock metrics come from the untraced pass; `sim_*` are
/// on the simulated clock and repeat exactly for a seed.
///
/// The host-clock bounds sit at the benchmark contract's ceiling because
/// the sandbox is that noisy: over two sets of ten seeds per workload the
/// spread (IQR / median) reached 8.5% for throughput and p50, 15% for p99
/// and 9% for set-up, and medians drifted by up to 7%, 15% and 9% between
/// sets of the same binary. `sim_*` spread 0.1% across seeds and drift 0;
/// `peak_rss_mb` spread under 3%.
pub const END_TO_END: &[(MetricDef, f64)] = &[
    (m("host_samples_per_s", "1/s", Higher), 0.25),
    (m("host_batch_p50_us", "us", Lower), 0.25),
    (m("host_batch_p99_us", "us", Lower), 0.25),
    (m("sim_samples_per_s", "1/s", Higher), 0.02),
    (m("sim_latency_p99_us", "us", Lower), 0.02),
    (m("peak_rss_mb", "MB", Lower), 0.10),
    (m("setup_s", "s", Lower), 0.25),
];

/// Per-layer metrics of the traced pass. `*_us` are mean µs per batch
/// spent in the named public call; a metric a workload does not exercise
/// reads 0.
pub const PER_LAYER: &[MetricDef] = &[
    m("workload.trace.next_batch_us", "us", Lower),
    m("workload.trace.ids_per_batch", "count", Lower),
    m("store.dedup.from_batch_us", "us", Lower),
    m("store.dedup.restore_us", "us", Lower),
    m("store.dedup.unique_keys", "count", Lower),
    m("store.dedup.dup_factor", "ratio", Higher),
    m("coding.codec.encode_us", "us", Lower),
    m("coding.codec.keys", "count", Lower),
    m("index.slab_hash.slabs_visited_per_key", "count", Lower),
    m("index.slab_hash.bytes_touched_per_key", "B", Lower),
    m("index.slab_hash.max_chain", "count", Lower),
    m("core.flat_cache.lookup_batch_us", "us", Lower),
    m("core.flat_cache.verify_hits_us", "us", Lower),
    m("core.flat_cache.read_hit_us", "us", Lower),
    m("core.flat_cache.insert_us", "us", Lower),
    m("core.flat_cache.evict_us", "us", Lower),
    m("core.flat_cache.hit_rate", "ratio", Higher),
    m("core.flat_cache.unified_hit_rate", "ratio", Higher),
    m("core.flat_cache.admitted_per_batch", "count", Lower),
    m("core.flat_cache.evict_passes", "count", Lower),
    m("core.flat_cache.twin_hit_rate_delta", "ratio", Lower),
    m("store.table.query_batch_us", "us", Lower),
    m("store.table.miss_keys", "count", Lower),
    m("store.table.fill_bytes", "B", Lower),
    m("simd.unit_fill_ns_per_row", "ns", Lower),
    m("simd.checksum_ns_per_row", "ns", Lower),
    m("core.system.query_batch_us", "us", Lower),
    m("core.system.unattributed_us", "us", Lower),
    m("core.system.unattributed_share", "ratio", Lower),
    m("core.system.commit_updates_us", "us", Lower),
    m("core.system.push_updates_us", "us", Lower),
    m("core.system.updates_applied", "count", Higher),
    m("core.system.updates_superseded", "count", Lower),
    m("core.system.updates_absent", "count", Lower),
    m("core.system.stale_serves", "count", Lower),
    m("core.system.max_lag", "count", Lower),
    m("model.engine.run_batch_us", "us", Lower),
    m("model.engine.post_embed_us", "us", Lower),
    m("model.engine.allocs_per_batch", "count", Lower),
    m("model.engine.alloc_bytes_per_batch", "B", Lower),
    m("gpu.sim.timeline_spans_per_batch", "count", Lower),
    m("sim.phase.cache_index_us", "us", Lower),
    m("sim.phase.cache_copy_us", "us", Lower),
    m("sim.phase.dram_index_us", "us", Lower),
    m("sim.phase.dram_payload_us", "us", Lower),
    m("sim.phase.other_us", "us", Lower),
    m("sim.embedding_us", "us", Lower),
    m("sim.dense_us", "us", Lower),
    m("model.concurrent.wall_s", "s", Lower),
    m("model.concurrent.exec_busy_share", "ratio", Higher),
    m("model.concurrent.handoff_share", "ratio", Lower),
    m("model.concurrent.batches", "count", Lower),
    m("model.concurrent.mean_batch", "count", Higher),
    m("model.concurrent.queue_handoffs", "count", Lower),
    m("model.concurrent.queue_roundtrip_ns", "ns", Lower),
    m("model.concurrent.plan_ns_per_request", "ns", Lower),
    m("model.concurrent.pipelined_samples_per_s", "1/s", Higher),
    m(
        "model.concurrent.pipelined_prep_busy_share",
        "ratio",
        Higher,
    ),
    m(
        "model.concurrent.pipelined_exec_busy_share",
        "ratio",
        Higher,
    ),
    m("model.concurrent.pipelined_stall_share", "ratio", Lower),
    m("trace.batches", "count", Higher),
    m("trace.overhead_share", "ratio", Lower),
];

const fn m(name: &'static str, unit: &'static str, better: Better) -> MetricDef {
    MetricDef { name, unit, better }
}

/// How long one run measures, as `BENCHMARK.json` tells the driver.
pub const RUN_SECONDS: u32 = 15;

/// The text of `BENCHMARK.json`.
pub fn benchmark_json() -> String {
    let dir = |b: Better| if b == Lower { "lower" } else { "higher" };
    let mut s = String::new();
    s.push_str("{\n  \"command\": [\"bash\", \"bench/run.sh\"],\n  \"paths\": [\"bench\"],\n");
    let _ = writeln!(s, "  \"run_seconds\": {RUN_SECONDS},");
    s.push_str("  \"workloads\": [\n");
    for (i, w) in WORKLOADS.iter().enumerate() {
        let sep = if i + 1 < WORKLOADS.len() { "," } else { "" };
        let _ = writeln!(
            s,
            "    {{\"name\": \"{}\", \"why\": \"{}\"}}{sep}",
            w.name, w.why
        );
    }
    s.push_str("  ],\n  \"end_to_end\": [\n");
    for (i, (d, bound)) in END_TO_END.iter().enumerate() {
        let sep = if i + 1 < END_TO_END.len() { "," } else { "" };
        let _ = writeln!(
            s,
            "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {bound}}}{sep}",
            d.name,
            d.unit,
            dir(d.better)
        );
    }
    s.push_str("  ],\n  \"per_layer\": [\n");
    for (i, d) in PER_LAYER.iter().enumerate() {
        let sep = if i + 1 < PER_LAYER.len() { "," } else { "" };
        let _ = writeln!(
            s,
            "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}{sep}",
            d.name,
            d.unit,
            dir(d.better)
        );
    }
    s.push_str("  ]\n}\n");
    s
}

/// The metrics one pass reports: per-layer when traced, else end-to-end.
fn pass_metrics(traced: bool) -> Vec<&'static MetricDef> {
    if traced {
        PER_LAYER.iter().collect()
    } else {
        END_TO_END.iter().map(|(d, _)| d).collect()
    }
}

/// The outcome of one run of one workload.
#[derive(Default)]
pub struct RunOutput {
    pub metrics: BTreeMap<&'static str, f64>,
    /// Requests sent into the system in the measured window.
    pub attempted: u64,
    /// Requests shed, served from an impaired batch, or holding a row the
    /// oracle rejects.
    pub failed: u64,
    /// No failures, and the oracle did check rows.
    pub correct: bool,
    /// Sample counts and other context, printed above the result line.
    pub notes: Vec<String>,
    /// The traced pass's spans, for the trace file.
    pub spans: Vec<crate::trace::Span>,
}

impl RunOutput {
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(value.is_finite(), "metric {name} is not a finite number");
        self.metrics.insert(name, value);
    }

    pub fn get(&self, name: &str) -> f64 {
        self.metrics.get(name).copied().unwrap_or(0.0)
    }

    /// The result line the driver reads: the metrics of the chosen pass,
    /// in table order.
    pub fn result_line(&self, traced: bool) -> String {
        let defs = pass_metrics(traced);
        let mut s = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct, self.attempted, self.failed
        );
        for (i, d) in defs.iter().enumerate() {
            let value = match self.metrics.get(d.name) {
                Some(v) => *v,
                // Only a traced metric may be absent: a layer this
                // workload does not exercise.
                None if traced => 0.0,
                None => panic!("end-to-end metric {} was not measured", d.name),
            };
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                s,
                "{sep}\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
                d.name, d.unit
            );
        }
        s.push_str("}}");
        s
    }

    /// Every metric by name with its unit, for people.
    pub fn table(&self, traced: bool) -> String {
        let defs = pass_metrics(traced);
        let mut s = String::new();
        for d in defs {
            let _ = writeln!(s, "  {:<48} {:>16.4} {}", d.name, self.get(d.name), d.unit);
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn benchmark_json_matches_the_tables() {
        assert_eq!(
            benchmark_json(),
            include_str!("../../BENCHMARK.json"),
            "regenerate with: bench/run.sh --emit-benchmark-json > BENCHMARK.json"
        );
    }

    #[test]
    fn names_are_unique_and_within_the_contract() {
        let mut names: Vec<&str> = END_TO_END
            .iter()
            .map(|(d, _)| d.name)
            .chain(PER_LAYER.iter().map(|d| d.name))
            .chain(WORKLOADS.iter().map(|w| w.name))
            .collect();
        let n = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), n, "a name is used twice");
        assert!(names.iter().all(|n| n.len() <= 64));
        assert!(PER_LAYER.len() <= 128 && END_TO_END.len() <= 16);
        assert!(WORKLOADS.iter().all(|w| w.why.len() <= 200));
        assert!(END_TO_END.iter().all(|(_, b)| *b > 0.0 && *b <= 0.25));
    }

    #[test]
    fn result_line_lists_the_chosen_pass_only() {
        let mut out = RunOutput {
            attempted: 10,
            correct: true,
            ..RunOutput::default()
        };
        for (d, _) in END_TO_END {
            out.set(d.name, 1.5);
        }
        let line = out.result_line(false);
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 10, \"failed\": 0"));
        assert!(line.contains("\"setup_s\": {\"value\": 1.5, \"unit\": \"s\"}"));
        assert!(!line.contains("trace.overhead_share"));
        assert!(out
            .result_line(true)
            .contains("\"trace.overhead_share\": {\"value\": 0"));
    }
}
