//! # fleche-bench
//!
//! Experiment harnesses for the Fleche (EuroSys '22) reproduction. Each
//! module under `src/experiments/` regenerates one table or figure of the
//! paper or runs one drill or tool; `experiments.rs` is the table of them and
//! the one command line (`fleche-bench <experiment>`) over it (see
//! DESIGN.md §3 for the full index). The rest of this library is the
//! plumbing they share: system construction, warm-up/measure loops,
//! plain-text tables, the `BENCH_*.json` writer, the drill harness and the
//! host-clock timer.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod drill;
mod experiments;
mod timer;

pub use experiments::{cli_main, Args};

use fleche_baseline::{BaselineConfig, PerTableCacheSystem};
use fleche_core::{FlecheConfig, FlecheSystem};
use fleche_gpu::{DeviceSpec, DramSpec, Gpu, Ns};
use fleche_model::{DenseModel, InferenceEngine, MeasuredRun, ModelMode};
use fleche_store::CpuStore;
use fleche_workload::{DatasetSpec, TraceGenerator};

/// The batch sizes the paper sweeps (32..8192).
pub const PAPER_BATCH_SIZES: [usize; 9] = [32, 64, 128, 256, 512, 1024, 2048, 4096, 8192];

/// A reduced sweep for quick runs (`--quick`).
pub const QUICK_BATCH_SIZES: [usize; 4] = [32, 256, 2048, 8192];

/// Standard warm-up batches before measurement.
pub const WARMUP_BATCHES: usize = 24;
/// Standard measured batches.
pub const MEASURE_BATCHES: usize = 16;

/// The batch sweep: reduced under `--quick` (smaller sweeps, same shapes).
pub fn batch_sizes(quick: bool) -> Vec<usize> {
    if quick {
        QUICK_BATCH_SIZES.to_vec()
    } else {
        PAPER_BATCH_SIZES.to_vec()
    }
}

/// The three evaluation datasets with their paper cache fractions.
pub fn paper_datasets() -> Vec<(DatasetSpec, f64)> {
    vec![
        (fleche_workload::spec::avazu(), 0.05),
        (fleche_workload::spec::criteo_kaggle(), 0.05),
        (fleche_workload::spec::criteo_tb(), 0.005),
    ]
}

/// Which system variant to build.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum SystemKind {
    /// HugeCTR-like static per-table cache.
    Baseline,
    /// Flat cache only (per-table kernels, coupled).
    FlecheFlatCacheOnly,
    /// Flat cache + fused (coupled) kernel.
    FlecheFused,
    /// Full workflow minus the unified index.
    FlecheNoUnified,
    /// Full Fleche.
    FlecheFull,
}

impl SystemKind {
    /// Display label.
    pub fn label(self) -> &'static str {
        match self {
            SystemKind::Baseline => "HugeCTR",
            SystemKind::FlecheFlatCacheOnly => "+FC",
            SystemKind::FlecheFused => "+Fusion",
            SystemKind::FlecheNoUnified => "Fleche w/o UI",
            SystemKind::FlecheFull => "Fleche",
        }
    }
}

/// Builds a fresh engine of `kind` over `spec` with `fraction` cache.
pub fn build_engine(
    kind: SystemKind,
    spec: &DatasetSpec,
    fraction: f64,
    mode: ModelMode,
) -> Box<dyn MeasurableEngine> {
    let gpu = Gpu::new(DeviceSpec::t4());
    let store = CpuStore::new(spec, DramSpec::xeon_6252());
    let dense = DenseModel::dcn_paper(concat_dim(spec));
    match kind {
        SystemKind::Baseline => {
            let sys = PerTableCacheSystem::new(
                spec,
                store,
                BaselineConfig {
                    cache_fraction: fraction,
                    ..BaselineConfig::default()
                },
            );
            Box::new(InferenceEngine::new(gpu, sys, dense, mode, spec))
        }
        SystemKind::FlecheFlatCacheOnly => {
            let sys = FlecheSystem::new(spec, store, FlecheConfig::flat_cache_only(fraction));
            Box::new(InferenceEngine::new(gpu, sys, dense, mode, spec))
        }
        SystemKind::FlecheFused => {
            let sys = FlecheSystem::new(spec, store, FlecheConfig::with_fusion(fraction));
            Box::new(InferenceEngine::new(gpu, sys, dense, mode, spec))
        }
        SystemKind::FlecheNoUnified => {
            let sys = FlecheSystem::new(spec, store, FlecheConfig::without_unified_index(fraction));
            Box::new(InferenceEngine::new(gpu, sys, dense, mode, spec))
        }
        SystemKind::FlecheFull => {
            let sys = FlecheSystem::new(spec, store, FlecheConfig::full(fraction));
            Box::new(InferenceEngine::new(gpu, sys, dense, mode, spec))
        }
    }
}

/// Concatenated pooled-embedding width of a dataset.
pub fn concat_dim(spec: &DatasetSpec) -> u32 {
    spec.tables.iter().map(|t| t.dim).sum()
}

/// Object-safe facade over `InferenceEngine<S>` so harnesses can hold
/// heterogeneous systems uniformly.
pub trait MeasurableEngine {
    /// Warm the cache.
    fn warmup(&mut self, gen: &mut TraceGenerator, batches: usize, batch_size: usize);
    /// Measure throughput/latency over `batches`.
    fn measure(
        &mut self,
        gen: &mut TraceGenerator,
        batches: usize,
        batch_size: usize,
    ) -> MeasuredRun;
    /// One batch, returning `(embedding, dense, total)` wall times and the
    /// phase breakdown.
    fn run_one(
        &mut self,
        gen: &mut TraceGenerator,
        batch_size: usize,
    ) -> (Ns, Ns, Ns, fleche_store::api::BatchStats);
    /// Lifetime cache statistics.
    fn lifetime(&self) -> fleche_store::api::LifetimeStats;
}

impl<S: fleche_store::api::EmbeddingCacheSystem> MeasurableEngine for InferenceEngine<S> {
    fn warmup(&mut self, gen: &mut TraceGenerator, batches: usize, batch_size: usize) {
        InferenceEngine::warmup(self, gen, batches, batch_size);
    }

    fn measure(
        &mut self,
        gen: &mut TraceGenerator,
        batches: usize,
        batch_size: usize,
    ) -> MeasuredRun {
        InferenceEngine::measure(self, gen, batches, batch_size)
    }

    fn run_one(
        &mut self,
        gen: &mut TraceGenerator,
        batch_size: usize,
    ) -> (Ns, Ns, Ns, fleche_store::api::BatchStats) {
        let b = gen.next_batch(batch_size);
        let t = self.run_batch(&b);
        (t.embedding, t.dense, t.total, t.stats)
    }

    fn lifetime(&self) -> fleche_store::api::LifetimeStats {
        self.system().lifetime_stats()
    }
}

/// Warm + measure one configuration; returns the measured run.
pub fn run_workload(
    kind: SystemKind,
    spec: &DatasetSpec,
    fraction: f64,
    mode: ModelMode,
    batch_size: usize,
) -> MeasuredRun {
    let mut engine = build_engine(kind, spec, fraction, mode);
    let mut gen = TraceGenerator::new(spec);
    let (warm, meas) = scaled_batches(batch_size);
    engine.warmup(&mut gen, warm, batch_size);
    engine.measure(&mut gen, meas, batch_size)
}

/// Scales warm-up/measure batch counts down for huge batches so harness
/// runtime stays bounded while total sample counts stay comparable.
pub fn scaled_batches(batch_size: usize) -> (usize, usize) {
    let scale = (batch_size / 1024).clamp(1, 2);
    (
        (WARMUP_BATCHES / scale).max(12),
        (MEASURE_BATCHES / scale).max(8),
    )
}

/// Plain-text table writer: pads columns, prints a header rule.
pub struct TextTable {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl TextTable {
    /// Creates a table with the given column headers.
    pub fn new(header: &[&str]) -> TextTable {
        TextTable {
            header: header.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends one row (must match the header width).
    ///
    /// # Panics
    ///
    /// Panics on column-count mismatch.
    pub fn row(&mut self, cells: &[String]) {
        assert_eq!(cells.len(), self.header.len(), "column count mismatch");
        self.rows.push(cells.to_vec());
    }

    /// Renders the table to a string.
    pub fn render(&self) -> String {
        let ncols = self.header.len();
        let mut widths: Vec<usize> = self.header.iter().map(String::len).collect();
        for r in &self.rows {
            for c in 0..ncols {
                widths[c] = widths[c].max(r[c].len());
            }
        }
        let mut out = String::new();
        let fmt_row = |cells: &[String], widths: &[usize]| -> String {
            cells
                .iter()
                .zip(widths)
                .map(|(c, w)| format!("{c:>w$}", w = w))
                .collect::<Vec<_>>()
                .join("  ")
        };
        out.push_str(&fmt_row(&self.header, &widths));
        out.push('\n');
        out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * (ncols - 1)));
        out.push('\n');
        for r in &self.rows {
            out.push_str(&fmt_row(r, &widths));
            out.push('\n');
        }
        out
    }

    /// Renders as a GitHub-markdown table (for EXPERIMENTS.md).
    pub fn render_markdown(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!("| {} |\n", self.header.join(" | ")));
        out.push_str(&format!("|{}\n", "---|".repeat(self.header.len())));
        for r in &self.rows {
            out.push_str(&format!("| {} |\n", r.join(" | ")));
        }
        out
    }
}

/// Minimal hand-rolled JSON writer for the machine-readable `BENCH_*.json`
/// artifacts (the workspace vendors no serde, so harnesses assemble their
/// reports by hand). Keys are emitted in call order and every value comes
/// from the deterministic simulation, so two runs of a drill produce
/// byte-identical files — CI can diff them like stdout.
#[derive(Default)]
pub struct JsonEmitter {
    buf: String,
    /// One entry per open `{`/`[`: whether a comma is due before the next
    /// element at that level.
    stack: Vec<bool>,
}

impl JsonEmitter {
    /// Starts a report: the root object is opened immediately.
    pub fn new() -> JsonEmitter {
        JsonEmitter {
            buf: String::from("{"),
            stack: vec![false],
        }
    }

    fn comma(&mut self) {
        if let Some(due) = self.stack.last_mut() {
            if *due {
                self.buf.push(',');
            }
            *due = true;
        }
    }

    fn key(&mut self, k: &str) {
        self.comma();
        self.buf.push('"');
        self.buf.push_str(k);
        self.buf.push_str("\":");
    }

    /// Opens a nested object under `k`.
    pub fn begin_obj(&mut self, k: &str) {
        self.key(k);
        self.buf.push('{');
        self.stack.push(false);
    }

    /// Opens an anonymous object (an array element).
    pub fn begin_elem(&mut self) {
        self.comma();
        self.buf.push('{');
        self.stack.push(false);
    }

    /// Closes the innermost object.
    pub fn end_obj(&mut self) {
        self.stack.pop();
        self.buf.push('}');
    }

    /// Opens an array under `k`.
    pub fn begin_arr(&mut self, k: &str) {
        self.key(k);
        self.buf.push('[');
        self.stack.push(false);
    }

    /// Closes the innermost array.
    pub fn end_arr(&mut self) {
        self.stack.pop();
        self.buf.push(']');
    }

    /// Writes an unsigned-integer field.
    pub fn field_u64(&mut self, k: &str, v: u64) {
        self.key(k);
        self.buf.push_str(&v.to_string());
    }

    /// Writes a float field (Rust's shortest-roundtrip formatting, which
    /// is deterministic).
    pub fn field_f64(&mut self, k: &str, v: f64) {
        self.key(k);
        self.buf.push_str(&v.to_string());
    }

    /// Writes a boolean field.
    pub fn field_bool(&mut self, k: &str, v: bool) {
        self.key(k);
        self.buf.push_str(if v { "true" } else { "false" });
    }

    /// Writes a string field (escapes quotes and backslashes; the drills
    /// emit no control characters).
    pub fn field_str(&mut self, k: &str, v: &str) {
        self.key(k);
        self.buf.push('"');
        for c in v.chars() {
            match c {
                '"' => self.buf.push_str("\\\""),
                '\\' => self.buf.push_str("\\\\"),
                '\n' => self.buf.push_str("\\n"),
                _ => self.buf.push(c),
            }
        }
        self.buf.push('"');
    }

    /// Closes the root object and returns the document.
    pub fn finish(mut self) -> String {
        while self.stack.pop().is_some() {
            self.buf.push('}');
        }
        self.buf.push('\n');
        self.buf
    }
}

/// The host CPU model string, read from `/proc/cpuinfo` (first
/// `model name` line). Falls back to `"unknown"` off-Linux or when the
/// file is unreadable.
pub fn host_cpu_model() -> String {
    if let Ok(info) = std::fs::read_to_string("/proc/cpuinfo") {
        for line in info.lines() {
            if let Some(rest) = line.strip_prefix("model name") {
                if let Some((_, v)) = rest.split_once(':') {
                    return v.trim().to_string();
                }
            }
        }
    }
    "unknown".to_string()
}

/// The x86 SIMD feature sets detected at runtime, comma-joined (empty on
/// other architectures). Only features the hot paths could care about are
/// probed, so the string stays short and stable.
pub fn host_features() -> String {
    #[cfg(target_arch = "x86_64")]
    {
        let mut feats: Vec<&str> = Vec::new();
        if std::arch::is_x86_feature_detected!("sse4.2") {
            feats.push("sse4.2");
        }
        if std::arch::is_x86_feature_detected!("avx2") {
            feats.push("avx2");
        }
        if std::arch::is_x86_feature_detected!("fma") {
            feats.push("fma");
        }
        if std::arch::is_x86_feature_detected!("avx512f") {
            feats.push("avx512f");
        }
        feats.join(",")
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        String::new()
    }
}

/// A stable identifier for "the machine these numbers were measured on":
/// CPU model + detected features + architecture. `bench_gate` only
/// compares wall-clock rates between reports whose fingerprints match —
/// cross-machine comparisons are meaningless. Deliberately excludes the
/// quick-mode flag (quick runs shrink sweeps, not the machine).
pub fn host_fingerprint() -> String {
    format!(
        "{}|{}|{}",
        host_cpu_model(),
        host_features(),
        std::env::consts::ARCH
    )
}

/// Starts a `BENCH_*.json` report with the one prelude every file
/// carries: `bench` (the experiment's table name), the `host` block (CPU
/// model, detected SIMD features, the dispatch level the hot paths
/// actually selected, architecture, the comparison fingerprint) so
/// wall-clock numbers are never read without knowing the machine behind
/// them, and whether this was a `--quick` run.
pub fn bench_report(bench: &str, quick: bool) -> JsonEmitter {
    let mut j = JsonEmitter::new();
    j.field_str("bench", bench);
    j.begin_obj("host");
    j.field_str("cpu", &host_cpu_model());
    j.field_str("features", &host_features());
    j.field_str("simd_level", fleche_simd::simd_level());
    j.field_str("arch", std::env::consts::ARCH);
    j.field_str("fingerprint", &host_fingerprint());
    j.end_obj();
    j.field_bool("quick", quick);
    j
}

/// Writes a `BENCH_*.json` report into `results/`, creating the directory
/// when missing, and prints the canonical `wrote <path>` line (which is
/// part of the drill's determinism-diffed stdout).
pub fn write_bench_json(name: &str, json: String) {
    let dir = std::path::Path::new("results");
    if let Err(e) = std::fs::create_dir_all(dir) {
        eprintln!("warning: could not create results/: {e}");
        return;
    }
    let path = dir.join(name);
    match std::fs::write(&path, json) {
        Ok(()) => println!("wrote {}", path.display()),
        Err(e) => eprintln!("warning: could not write {}: {e}", path.display()),
    }
}

/// Mean of the last up-to-`window` entries (all of them when fewer).
pub fn rolling_mean(rates: &[f64], window: usize) -> f64 {
    if rates.is_empty() {
        return 0.0;
    }
    let n = rates.len().min(window);
    let tail = &rates[rates.len() - n..];
    tail.iter().sum::<f64>() / n as f64
}

/// Formats a simulated duration compactly.
pub fn fmt_ns(t: Ns) -> String {
    format!("{t}")
}

/// Formats a throughput figure.
pub fn fmt_tput(t: f64) -> String {
    if t >= 1e6 {
        format!("{:.2}M/s", t / 1e6)
    } else if t >= 1e3 {
        format!("{:.1}K/s", t / 1e3)
    } else {
        format!("{t:.0}/s")
    }
}

/// Prints the standard harness header (platform constants = Table 1).
pub fn print_header(experiment: &str) {
    let t4 = DeviceSpec::t4();
    let dram = DramSpec::xeon_6252();
    println!("== {experiment} ==");
    println!(
        "platform: {} ({} GB/s HBM) + {} ({} GB/s DRAM)  [simulated]",
        t4.name,
        t4.hbm_bandwidth.as_gbps(),
        dram.name,
        dram.bandwidth.as_gbps()
    );
    println!();
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn text_table_renders_aligned() {
        let mut t = TextTable::new(&["a", "metric"]);
        t.row(&["1".into(), "22".into()]);
        t.row(&["333".into(), "4".into()]);
        let s = t.render();
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].contains("metric"));
        assert!(lines[1].starts_with('-'));
    }

    #[test]
    #[should_panic(expected = "column count mismatch")]
    fn text_table_checks_width() {
        let mut t = TextTable::new(&["a", "b"]);
        t.row(&["only-one".into()]);
    }

    #[test]
    fn markdown_table_shape() {
        let mut t = TextTable::new(&["x", "y"]);
        t.row(&["1".into(), "2".into()]);
        let md = t.render_markdown();
        assert!(md.starts_with("| x | y |"));
        assert!(md.contains("|---|---|"));
    }

    #[test]
    fn json_emitter_builds_nested_documents() {
        let mut j = JsonEmitter::new();
        j.field_str("drill", "update");
        j.begin_obj("a");
        j.field_u64("torn", 0);
        j.field_f64("hit", 0.5);
        j.field_bool("pass", true);
        j.end_obj();
        j.begin_arr("rows");
        j.begin_elem();
        j.field_u64("batch", 1);
        j.end_obj();
        j.begin_elem();
        j.field_u64("batch", 2);
        j.end_obj();
        j.end_arr();
        assert_eq!(
            j.finish(),
            "{\"drill\":\"update\",\"a\":{\"torn\":0,\"hit\":0.5,\"pass\":true},\
             \"rows\":[{\"batch\":1},{\"batch\":2}]}\n"
        );
    }

    #[test]
    fn json_emitter_escapes_strings_and_closes_open_scopes() {
        let mut j = JsonEmitter::new();
        j.field_str("note", "a \"b\" \\ c");
        j.begin_obj("open");
        j.field_u64("x", 1);
        let s = j.finish();
        assert_eq!(s, "{\"note\":\"a \\\"b\\\" \\\\ c\",\"open\":{\"x\":1}}\n");
    }

    #[test]
    fn host_block_shape() {
        let s = bench_report("some_drill", true).finish();
        assert!(s.starts_with("{\"bench\":\"some_drill\",\"host\":{\"cpu\":"));
        assert!(s.ends_with("},\"quick\":true}\n"), "{s}");
        for key in [
            "\"features\":",
            "\"simd_level\":",
            "\"arch\":",
            "\"fingerprint\":",
        ] {
            assert!(s.contains(key), "missing {key} in {s}");
        }
        // The fingerprint is stable within a process and embeds the arch.
        assert_eq!(host_fingerprint(), host_fingerprint());
        assert!(host_fingerprint().ends_with(std::env::consts::ARCH));
    }

    #[test]
    fn formatting_helpers() {
        assert_eq!(fmt_tput(2_500_000.0), "2.50M/s");
        assert_eq!(fmt_tput(1_500.0), "1.5K/s");
        assert_eq!(fmt_tput(12.0), "12/s");
    }

    #[test]
    fn scaled_batches_bounded() {
        let (w, m) = scaled_batches(32);
        assert_eq!((w, m), (WARMUP_BATCHES, MEASURE_BATCHES));
        let (w, m) = scaled_batches(8192);
        assert!(w >= 12 && m >= 8);
        assert!(w < WARMUP_BATCHES);
    }

    #[test]
    fn build_every_system_kind() {
        let ds = fleche_workload::spec::synthetic(4, 500, 8, -1.2);
        for kind in [
            SystemKind::Baseline,
            SystemKind::FlecheFlatCacheOnly,
            SystemKind::FlecheFused,
            SystemKind::FlecheNoUnified,
            SystemKind::FlecheFull,
        ] {
            let mut e = build_engine(kind, &ds, 0.1, ModelMode::EmbeddingOnly);
            let mut gen = TraceGenerator::new(&ds);
            let (emb, _, total, stats) = e.run_one(&mut gen, 16);
            assert!(emb > Ns::ZERO, "{}", kind.label());
            assert!(total >= emb);
            assert_eq!(
                stats.hits + stats.unified_hits + stats.misses,
                stats.unique_keys
            );
        }
    }
}
