//! # fleche-bench
//!
//! Experiment harnesses for the Fleche (EuroSys '22) reproduction. Each
//! module under `src/experiments/` regenerates one table or figure of the
//! paper or runs one drill or tool; `experiments.rs` is the table of them and
//! the one command line (`fleche-bench <experiment>`) over it (see
//! DESIGN.md §3 for the full index). The rest of this library is the
//! plumbing they share: the reference hardware (one T4, one Xeon-6252
//! DRAM store), one engine builder over both systems, warm-up/measure
//! loops, plain-text tables, the `BENCH_*.json` writer, the drill harness
//! and the host-clock timer. CI regenerates every figure and both Chrome
//! traces and diffs them with the committed `results/`.

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
use fleche_store::api::EmbeddingCacheSystem;
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

/// A fresh simulated T4, the paper's GPU (Table 1).
pub fn t4() -> Gpu {
    Gpu::new(DeviceSpec::t4())
}

/// The paper's host memory (Table 1): a Xeon Gold 6252's DRAM.
pub fn xeon_dram() -> DramSpec {
    DramSpec::xeon_6252()
}

/// The CPU-DRAM store of `spec` on [`xeon_dram`].
pub fn xeon_store(spec: &DatasetSpec) -> CpuStore {
    CpuStore::new(spec, xeon_dram())
}

/// An engine over whichever system a [`SystemKind`] named, so both
/// systems run through one code path.
pub type Engine = InferenceEngine<Box<dyn EmbeddingCacheSystem>>;

/// Builds a fresh engine of `kind` over `spec` with `fraction` cache, on
/// [`t4`] and [`xeon_store`], running `mode` over a DCN with
/// `hidden_layers` hidden layers of 1024 units (the paper's model has 2).
pub fn build_engine(
    kind: SystemKind,
    spec: &DatasetSpec,
    fraction: f64,
    mode: ModelMode,
    hidden_layers: usize,
) -> Engine {
    let fleche = match kind {
        SystemKind::Baseline => None,
        SystemKind::FlecheFlatCacheOnly => Some(FlecheConfig::flat_cache_only(fraction)),
        SystemKind::FlecheFused => Some(FlecheConfig::with_fusion(fraction)),
        SystemKind::FlecheNoUnified => Some(FlecheConfig::without_unified_index(fraction)),
        SystemKind::FlecheFull => Some(FlecheConfig::full(fraction)),
    };
    let store = xeon_store(spec);
    let system: Box<dyn EmbeddingCacheSystem> = match fleche {
        Some(config) => Box::new(FlecheSystem::new(spec, store, config)),
        None => Box::new(PerTableCacheSystem::new(
            spec,
            store,
            BaselineConfig {
                cache_fraction: fraction,
                ..BaselineConfig::default()
            },
        )),
    };
    let dense = DenseModel::with_hidden_layers(Engine::concat_dim(spec), hidden_layers);
    InferenceEngine::new(t4(), system, dense, mode, spec)
}

/// The synthetic 8-table Fleche engine that both serving front-end
/// comparisons (Fig 9's and `serve_scaling`'s) replicate per worker.
pub fn front_end_replica(_worker: usize) -> (Engine, TraceGenerator) {
    let ds = fleche_workload::spec::synthetic(8, 30_000, 16, -1.3);
    let mode = ModelMode::EmbeddingOnly;
    let engine = build_engine(SystemKind::FlecheFull, &ds, 0.05, mode, 2);
    (engine, TraceGenerator::new(&ds))
}

/// Warm + measure one configuration; returns the measured run.
pub fn run_workload(
    kind: SystemKind,
    spec: &DatasetSpec,
    fraction: f64,
    mode: ModelMode,
    batch_size: usize,
) -> MeasuredRun {
    let mut engine = build_engine(kind, spec, fraction, mode, 2);
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
    let (gpu, dram) = (t4(), xeon_dram());
    let t4 = gpu.spec();
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
            let mut e = build_engine(kind, &ds, 0.1, ModelMode::EmbeddingOnly, 2);
            let t = e.run_batch(&TraceGenerator::new(&ds).next_batch(16));
            assert!(t.embedding > Ns::ZERO, "{}", kind.label());
            assert!(t.total >= t.embedding);
            assert_eq!(
                t.stats.hits + t.stats.unified_hits + t.stats.misses,
                t.stats.unique_keys
            );
        }
    }
}
