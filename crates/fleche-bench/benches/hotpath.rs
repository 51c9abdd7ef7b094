//! Scalar host hot-loop micro-benchmarks, emitting machine-readable JSON.
//!
//! Where `benches/micro.rs` prints a human table, this harness also
//! writes `results/BENCH_hotpath.json` through the vendored criterion
//! shim's result collection, so CI and the analysis notebooks can track
//! the host-side hot loops the serving front-end leans on:
//!
//! * pooled reduction (the baseline's per-(sample, table) CPU pooling);
//! * per-slot FNV-1a checksumming, standalone and fused into the value
//!   write (the one-pass fill the flat cache now uses);
//! * flat-key codec encode/decode (fixed-length and size-aware);
//! * slab-hash probing (insert + hit lookup).
//!
//! All numbers are real wall time on the build machine — the JSON labels
//! them machine-dependent. Run with `--quick` (or `FLECHE_QUICK=1`) for a
//! fast smoke pass.

use criterion::{black_box, BenchmarkId, Criterion, Throughput};
use fleche_baseline::ReductionCache;
use fleche_bench::{emit_host, print_header, quick_mode, write_bench_json, JsonEmitter};
use fleche_coding::{FixedLenCodec, FlatKeyCodec, SizeAwareCodec};
use fleche_core::checksum_of;
use fleche_gpu::DramSpec;
use fleche_index::{ClassSpec, Loc, SlabHash, SlabPool};
use fleche_store::{CpuStore, Pooling};
use fleche_workload::spec;

fn bench_pooled_reduction(c: &mut Criterion) {
    let ds = spec::synthetic(4, 50_000, 32, -1.3);
    let store = CpuStore::new(&ds, DramSpec::xeon_6252());
    let ids: Vec<u64> = (0..64u64).map(|i| (i * 97) % 50_000).collect();
    let mut g = c.benchmark_group("reduction");
    g.throughput(Throughput::Elements(ids.len() as u64));
    g.bench_function("pooled_64ids_32d", |b| {
        let mut cache = ReductionCache::new(0, Pooling::Sum);
        b.iter(|| black_box(cache.pooled(&store, 0, &ids)));
    });
    // The gather pair bench_gate compares: the pre-vectorization shape
    // (materialize every row via the scalar fill, then a naive element
    // loop) vs the streaming blocked gather the miss path uses now. The
    // scalar side uses `embedding_value_portable` so it measures what the
    // code actually did before this optimization — `store.read` itself
    // now dispatches the vectorized fill.
    let dim = store.dim(0) as usize;
    g.bench_function("gather_scalar_64ids_32d", |b| {
        b.iter(|| {
            let rows: Vec<Vec<f32>> = ids
                .iter()
                .map(|&id| {
                    let mut row = vec![0.0f32; dim];
                    fleche_store::embedding_value_portable(0, id, &mut row);
                    row
                })
                .collect();
            let mut acc = vec![0.0f32; rows[0].len()];
            for row in &rows {
                for (a, &r) in acc.iter_mut().zip(row) {
                    *a += r;
                }
            }
            black_box(acc)
        });
    });
    g.bench_function("gather_64ids_32d", |b| {
        b.iter(|| black_box(store.pooled(0, &ids, Pooling::Sum)));
    });
    g.finish();
}

fn bench_checksum(c: &mut Criterion) {
    let mut g = c.benchmark_group("checksum");
    for &dim in &[32usize, 128] {
        let value: Vec<f32> = (0..dim).map(|i| i as f32 * 0.5).collect();
        g.throughput(Throughput::Bytes(dim as u64 * 4));
        g.bench_with_input(BenchmarkId::new("fnv1a", dim), &value, |b, v| {
            b.iter(|| black_box(checksum_of(v)));
        });
        // Two-pass (write then re-read for the checksum) vs the fused
        // single pass the flat cache uses now.
        let mut pool = SlabPool::new(&[ClassSpec {
            dim: dim as u32,
            slots: 16,
        }]);
        let (slot, _) = pool.alloc(0).expect("room");
        g.bench_with_input(BenchmarkId::new("write_two_pass", dim), &value, |b, v| {
            b.iter(|| {
                pool.write(0, slot, v).expect("live");
                black_box(checksum_of(v))
            });
        });
        let mut pool = SlabPool::new(&[ClassSpec {
            dim: dim as u32,
            slots: 16,
        }]);
        let (slot, _) = pool.alloc(0).expect("room");
        g.bench_with_input(BenchmarkId::new("write_fused", dim), &value, |b, v| {
            b.iter(|| black_box(pool.write_with_checksum(0, slot, v).expect("live").0));
        });
        // The batch pair bench_gate compares: 64 slots checksummed one
        // serial FNV chain at a time vs four interleaved chains
        // (fleche_index::fnv1a_batch). Per-slot values are identical; only
        // the instruction-level parallelism differs.
        let slots: Vec<Vec<f32>> = (0..64u32)
            .map(|s| {
                (0..dim)
                    .map(|i| (s * 31 + i as u32) as f32 * 0.25)
                    .collect()
            })
            .collect();
        let views: Vec<&[f32]> = slots.iter().map(Vec::as_slice).collect();
        g.bench_with_input(BenchmarkId::new("batch64_scalar", dim), &views, |b, vs| {
            b.iter(|| {
                let mut acc = 0u32;
                for v in vs {
                    acc ^= checksum_of(v);
                }
                black_box(acc)
            });
        });
        g.bench_with_input(
            BenchmarkId::new("batch64_interleaved", dim),
            &views,
            |b, vs| {
                b.iter(|| black_box(fleche_index::fnv1a_batch(vs)));
            },
        );
    }
    g.finish();
}

fn bench_codec(c: &mut Criterion) {
    let corpora: Vec<u64> = vec![1 << 20, 1 << 14, 1 << 26, 1 << 10];
    let fixed = FixedLenCodec::kraken32(corpora.clone());
    let aware = SizeAwareCodec::new(32, &corpora);
    let n = 4_096u64;
    let mut g = c.benchmark_group("codec");
    g.throughput(Throughput::Elements(n));
    g.bench_function("fixed_encode", |b| {
        b.iter(|| {
            let mut acc = 0u64;
            for f in 0..n {
                acc ^= fixed.encode((f % 4) as u16, f % 1_000).0 as u64;
            }
            black_box(acc)
        });
    });
    g.bench_function("fixed_decode", |b| {
        let keys: Vec<_> = (0..n)
            .map(|f| fixed.encode((f % 4) as u16, f % 1_000))
            .collect();
        b.iter(|| {
            let mut hits = 0u64;
            for &k in &keys {
                if fixed.decode(k).is_some() {
                    hits += 1;
                }
            }
            black_box(hits)
        });
    });
    g.bench_function("size_aware_encode", |b| {
        b.iter(|| {
            let mut acc = 0u64;
            for f in 0..n {
                acc ^= aware.encode((f % 4) as u16, f % 1_000).0 as u64;
            }
            black_box(acc)
        });
    });
    g.bench_function("size_aware_decode", |b| {
        let keys: Vec<_> = (0..n)
            .map(|f| aware.encode((f % 4) as u16, f % 1_000))
            .collect();
        b.iter(|| {
            let mut hits = 0u64;
            for &k in &keys {
                if aware.decode(k).is_some() {
                    hits += 1;
                }
            }
            black_box(hits)
        });
    });
    // The batch pairs bench_gate compares: per-key encode (table layout
    // re-resolved every key) vs encode_batch (resolved once per table),
    // over the same per-table feature runs the system's grouping loop
    // produces; and per-key decode vs decode_batch over the same keys.
    let feats: Vec<Vec<u64>> = (0..4)
        .map(|t| (0..n / 4).map(|f| (f * 4 + t) % 1_000).collect())
        .collect();
    // Both twins materialize the per-table key vectors (the system's
    // grouping loop does), so the pair isolates what batching changes —
    // per-key vs hoisted table resolution — not materialization cost.
    g.bench_function("fixed_encode_scalar", |b| {
        b.iter(|| {
            let mut total = 0usize;
            for (t, fs) in feats.iter().enumerate() {
                let keys: Vec<_> = fs.iter().map(|&f| fixed.encode(t as u16, f)).collect();
                total += black_box(&keys).len();
            }
            black_box(total)
        });
    });
    g.bench_function("fixed_encode_batch", |b| {
        b.iter(|| {
            let mut total = 0usize;
            for (t, fs) in feats.iter().enumerate() {
                let keys = fixed.encode_batch(t as u16, fs);
                total += black_box(&keys).len();
            }
            black_box(total)
        });
    });
    g.bench_function("size_aware_encode_scalar", |b| {
        b.iter(|| {
            let mut total = 0usize;
            for (t, fs) in feats.iter().enumerate() {
                let keys: Vec<_> = fs.iter().map(|&f| aware.encode(t as u16, f)).collect();
                total += black_box(&keys).len();
            }
            black_box(total)
        });
    });
    g.bench_function("size_aware_encode_batch", |b| {
        b.iter(|| {
            let mut total = 0usize;
            for (t, fs) in feats.iter().enumerate() {
                let keys = aware.encode_batch(t as u16, fs);
                total += black_box(&keys).len();
            }
            black_box(total)
        });
    });
    g.bench_function("fixed_decode_batch", |b| {
        let keys: Vec<_> = (0..n)
            .map(|f| fixed.encode((f % 4) as u16, f % 1_000))
            .collect();
        b.iter(|| {
            let hits = fixed
                .decode_batch(&keys)
                .iter()
                .filter(|d| d.is_some())
                .count();
            black_box(hits)
        });
    });
    g.bench_function("size_aware_decode_batch", |b| {
        let keys: Vec<_> = (0..n)
            .map(|f| aware.encode((f % 4) as u16, f % 1_000))
            .collect();
        b.iter(|| {
            let hits = aware
                .decode_batch(&keys)
                .iter()
                .filter(|d| d.is_some())
                .count();
            black_box(hits)
        });
    });
    g.finish();
}

fn bench_slab_probe(c: &mut Criterion) {
    let n = if quick_mode() { 10_000usize } else { 100_000 };
    let mut g = c.benchmark_group("slab_probe");
    g.throughput(Throughput::Elements(n as u64));
    g.bench_with_input(BenchmarkId::new("insert", n), &n, |b, &n| {
        b.iter(|| {
            let mut h = SlabHash::for_capacity(n);
            for k in 0..n as u64 {
                h.insert(
                    k + 1,
                    Loc::Hbm {
                        class: 0,
                        slot: k as u32,
                    }
                    .pack(),
                    0,
                );
            }
            black_box(h.len())
        });
    });
    g.bench_with_input(BenchmarkId::new("lookup_hit", n), &n, |b, &n| {
        let mut h = SlabHash::for_capacity(n);
        for k in 0..n as u64 {
            h.insert(
                k + 1,
                Loc::Hbm {
                    class: 0,
                    slot: k as u32,
                }
                .pack(),
                0,
            );
        }
        b.iter(|| {
            let mut found = 0u64;
            for k in 0..n as u64 {
                if h.lookup(k + 1, Some(1)).0.is_some() {
                    found += 1;
                }
            }
            black_box(found)
        });
    });
    // The probe pair bench_gate compares: the per-key walk above vs
    // lookup_batch, which walks in the same input order but prefetches
    // the chain head and first slab of the keys a few probes ahead.
    g.bench_with_input(BenchmarkId::new("lookup_batch", n), &n, |b, &n| {
        let mut h = SlabHash::for_capacity(n);
        for k in 0..n as u64 {
            h.insert(
                k + 1,
                Loc::Hbm {
                    class: 0,
                    slot: k as u32,
                }
                .pack(),
                0,
            );
        }
        let keys: Vec<u64> = (1..=n as u64).collect();
        b.iter(|| {
            let mut found = 0u64;
            h.lookup_batch(&keys, Some(1), |loc, _| found += u64::from(loc.is_some()));
            black_box(found)
        });
    });
    g.finish();
}

fn main() {
    // `cargo bench` runs with the package as cwd; anchor at the workspace
    // root so `results/BENCH_hotpath.json` lands beside the drill reports.
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    if std::env::set_current_dir(&root).is_err() {
        eprintln!("warning: could not enter workspace root; writing results under cwd");
    }
    print_header("hotpath: scalar host hot-loop microbenches");
    let mut c = Criterion::default();
    bench_pooled_reduction(&mut c);
    bench_checksum(&mut c);
    bench_codec(&mut c);
    bench_slab_probe(&mut c);

    let mut j = JsonEmitter::new();
    j.field_str("experiment", "hotpath");
    j.field_str(
        "note",
        "wall-clock microbenches; all timings are machine-dependent",
    );
    j.field_bool("quick", quick_mode());
    emit_host(&mut j);
    j.begin_arr("benches");
    for r in c.results() {
        j.begin_elem();
        j.field_str("label", &r.label);
        j.field_f64("per_iter_ns", r.per_iter_ns);
        j.field_u64("iters", r.iters);
        if let Some(rate) = r.rate_per_sec() {
            j.field_f64("rate_per_sec", rate);
        }
        j.end_obj();
    }
    j.end_arr();
    write_bench_json("BENCH_hotpath.json", j.finish());
}
