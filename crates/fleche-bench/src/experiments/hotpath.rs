//! Scalar host hot-loop micro-benchmarks, emitting machine-readable JSON.
//!
//! Times the host-side hot loops the serving front-end leans on with the
//! crate's one wall-clock timer and writes `results/BENCH_hotpath.json`,
//! so CI (`bench_gate`) and the analysis notebooks can track them:
//!
//! * pooled reduction (the baseline's per-(sample, table) CPU pooling);
//! * the per-slot lane checksum, per row, inside the checksummed value
//!   write, and over 64 slots against the byte-serial FNV-1a it replaced;
//! * flat-key codec encode/decode (fixed-length and size-aware);
//! * slab-hash probing (insert + hit lookup).
//!
//! All numbers are real wall time on the build machine — the JSON labels
//! them machine-dependent. Run with `--quick` for a fast smoke pass.
//!
//! Run: `cargo run --release -p fleche-bench -- hotpath [--quick]`

use std::fmt::Display;
use std::hint::black_box;
use std::process::ExitCode;

use crate::timer::{time, Timing};
use crate::{bench_report, print_header, write_bench_json, xeon_store, Args};
use fleche_baseline::ReductionCache;
use fleche_coding::{FixedLenCodec, FlatKey, FlatKeyCodec, SizeAwareCodec};
use fleche_index::{ClassSpec, GpuIndex, Loc, SlabHash, SlabPool};
use fleche_workload::spec;

/// The timed labels of one run, in run order.
#[derive(Default)]
struct Hotpath {
    group: &'static str,
    work: u64,
    /// `(label, timing, elements or bytes one call processes)`.
    benches: Vec<(String, Timing, u64)>,
}

impl Hotpath {
    /// Opens a label group whose bodies each process `work` elements or
    /// bytes per call.
    fn group(&mut self, name: &'static str, work: u64) {
        self.group = name;
        self.work = work;
    }

    /// Times `f` under `group/id`.
    fn bench<O>(&mut self, id: impl Display, f: impl FnMut() -> O) {
        let label = format!("{}/{id}", self.group);
        let t = time(f);
        println!(
            "{label:<48} {:>12.0} ns / iter  [{} iters]",
            t.per_iter_ns, t.iters
        );
        self.benches.push((label, t, self.work));
    }
}

fn bench_pooled_reduction(h: &mut Hotpath) {
    let ds = spec::synthetic(4, 50_000, 32, -1.3);
    let store = xeon_store(&ds);
    let ids: Vec<u64> = (0..64u64).map(|i| (i * 97) % 50_000).collect();
    h.group("reduction", ids.len() as u64);
    let mut cache = ReductionCache::new(0);
    h.bench("pooled_64ids_32d", || {
        black_box(cache.pooled(&store, 0, &ids))
    });
    // The gather pair bench_gate compares: the pre-vectorization shape
    // (materialize every row via the scalar fill, then a naive element
    // loop) vs the streaming blocked gather the miss path uses now. The
    // scalar side fills through `embedding_value_portable` so it measures
    // what the code did before this optimization — `store.read` itself
    // now dispatches the vectorized fill.
    let dim = store.dim(0) as usize;
    h.bench("gather_scalar_64ids_32d", || {
        let rows: Vec<Vec<f32>> = ids
            .iter()
            .map(|&id| {
                let mut row = vec![0.0f32; dim];
                embedding_value_portable(0, id, &mut row);
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
    h.bench("gather_64ids_32d", || black_box(store.pooled(0, &ids)));
}

/// The row fill before vectorization: the scalar `unit_fill` loop, keyed
/// as `fleche_store::embedding_value` keys it, whatever the host supports.
/// Kept only as the scalar side of the gather pair.
fn embedding_value_portable(table: u16, id: u64, out: &mut [f32]) {
    let base = (u64::from(table) + 1)
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(id.wrapping_mul(0xBF58_476D_1CE4_E5B9));
    fleche_simd::unit_fill_portable(base, out);
}

/// The slot checksum the lane kernel replaced: byte-serial FNV-1a over
/// each slot's f32 bits, four slots' chains interleaved. Kept only as the
/// scalar side of the checksum pair, as `embedding_value_portable` serves
/// the gather pair.
fn byte_fnv1a_batch(values: &[&[f32]]) -> Vec<u32> {
    fn step(mut h: u32, v: f32) -> u32 {
        for b in v.to_bits().to_le_bytes() {
            h = (h ^ u32::from(b)).wrapping_mul(fleche_simd::FNV_PRIME);
        }
        h
    }
    let mut out = Vec::with_capacity(values.len());
    let mut groups = values.chunks_exact(4);
    for g in groups.by_ref() {
        let n = g.iter().map(|v| v.len()).min().unwrap_or(0);
        let (a, b, c, d) = (&g[0][..n], &g[1][..n], &g[2][..n], &g[3][..n]);
        let mut h = [fleche_simd::FNV_BASIS; 4];
        for i in 0..n {
            h[0] = step(h[0], a[i]);
            h[1] = step(h[1], b[i]);
            h[2] = step(h[2], c[i]);
            h[3] = step(h[3], d[i]);
        }
        for (hj, v) in h.iter_mut().zip(g) {
            *hj = v[n..].iter().fold(*hj, |h, &x| step(h, x));
        }
        out.extend_from_slice(&h);
    }
    for v in groups.remainder() {
        out.push(v.iter().fold(fleche_simd::FNV_BASIS, |h, &x| step(h, x)));
    }
    out
}

fn bench_checksum(h: &mut Hotpath) {
    for &dim in &[32usize, 128] {
        let value: Vec<f32> = (0..dim).map(|i| i as f32 * 0.5).collect();
        let v = &value;
        h.group("checksum", dim as u64 * 4);
        h.bench(format_args!("row/{dim}"), || {
            black_box(fleche_simd::checksum(v))
        });
        let mut pool = SlabPool::new(&[ClassSpec {
            dim: dim as u32,
            slots: 16,
        }]);
        let (slot, _) = pool.alloc(0).expect("room");
        h.bench(format_args!("write/{dim}"), || {
            black_box(pool.write_with_checksum(0, slot, v).expect("live").0)
        });
        // The pair bench_gate compares, over the same 64 slots: the
        // four-chain byte FNV-1a the cache used to record vs the lane
        // checksum it records now.
        let slots: Vec<Vec<f32>> = (0..64u32)
            .map(|s| {
                (0..dim)
                    .map(|i| (s * 31 + i as u32) as f32 * 0.25)
                    .collect()
            })
            .collect();
        let views: Vec<&[f32]> = slots.iter().map(Vec::as_slice).collect();
        let vs = &views;
        h.bench(format_args!("batch64_byte_fnv1a/{dim}"), || {
            black_box(byte_fnv1a_batch(vs))
        });
        h.bench(format_args!("batch64/{dim}"), || {
            black_box(fleche_simd::checksum_batch(vs))
        });
    }
}

/// Keys each codec body processes per call.
const CODEC_KEYS: u64 = 4_096;

fn codec_keys(codec: &impl FlatKeyCodec) -> Vec<FlatKey> {
    (0..CODEC_KEYS)
        .map(|f| codec.encode((f % 4) as u16, f % 1_000))
        .collect()
}

fn bench_codec_per_key(h: &mut Hotpath, name: &str, codec: &impl FlatKeyCodec) {
    h.bench(format_args!("{name}_encode"), || {
        let mut acc = 0u64;
        for f in 0..CODEC_KEYS {
            acc ^= codec.encode((f % 4) as u16, f % 1_000).0;
        }
        black_box(acc)
    });
    let keys = codec_keys(codec);
    h.bench(format_args!("{name}_decode"), || {
        let mut hits = 0u64;
        for &k in &keys {
            if codec.decode(k).is_some() {
                hits += 1;
            }
        }
        black_box(hits)
    });
}

/// Both twins materialize the per-table key vectors (the system's
/// grouping loop does), so the pair isolates what batching changes —
/// per-key vs hoisted table resolution — not materialization cost.
fn bench_codec_encode_pair(h: &mut Hotpath, name: &str, codec: &impl FlatKeyCodec) {
    let feats: Vec<Vec<u64>> = (0..4)
        .map(|t| (0..CODEC_KEYS / 4).map(|f| (f * 4 + t) % 1_000).collect())
        .collect();
    h.bench(format_args!("{name}_encode_scalar"), || {
        let mut total = 0usize;
        for (t, fs) in feats.iter().enumerate() {
            let keys: Vec<_> = fs.iter().map(|&f| codec.encode(t as u16, f)).collect();
            total += black_box(&keys).len();
        }
        black_box(total)
    });
    h.bench(format_args!("{name}_encode_batch"), || {
        let mut total = 0usize;
        for (t, fs) in feats.iter().enumerate() {
            let keys = codec.encode_batch(t as u16, fs);
            total += black_box(&keys).len();
        }
        black_box(total)
    });
}

fn bench_codec_decode_batch(h: &mut Hotpath, name: &str, codec: &impl FlatKeyCodec) {
    let keys = codec_keys(codec);
    h.bench(format_args!("{name}_decode_batch"), || {
        let hits = codec
            .decode_batch(&keys)
            .iter()
            .filter(|d| d.is_some())
            .count();
        black_box(hits)
    });
}

fn bench_codec(h: &mut Hotpath) {
    let corpora: Vec<u64> = vec![1 << 20, 1 << 14, 1 << 26, 1 << 10];
    let fixed = FixedLenCodec::kraken32(corpora.clone());
    let aware = SizeAwareCodec::new(32, &corpora);
    h.group("codec", CODEC_KEYS);
    bench_codec_per_key(h, "fixed", &fixed);
    bench_codec_per_key(h, "size_aware", &aware);
    // The batch pairs bench_gate compares: per-key encode (table layout
    // re-resolved every key) vs encode_batch (resolved once per table),
    // over the same per-table feature runs the system's grouping loop
    // produces; and per-key decode vs decode_batch over the same keys.
    bench_codec_encode_pair(h, "fixed", &fixed);
    bench_codec_encode_pair(h, "size_aware", &aware);
    bench_codec_decode_batch(h, "fixed", &fixed);
    bench_codec_decode_batch(h, "size_aware", &aware);
}

/// A table of `n` keys `1..=n`, each at its own HBM slot.
fn filled(n: usize) -> SlabHash {
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
    h
}

fn bench_slab_probe(h: &mut Hotpath, quick: bool) {
    let n = if quick { 10_000usize } else { 100_000 };
    h.group("slab_probe", n as u64);
    h.bench(format_args!("insert/{n}"), || black_box(filled(n).len()));
    let mut table = filled(n);
    h.bench(format_args!("lookup_hit/{n}"), || {
        let mut found = 0u64;
        for k in 0..n as u64 {
            if table.lookup(k + 1, Some(1)).0.is_some() {
                found += 1;
            }
        }
        black_box(found)
    });
    // The probe pair bench_gate compares: the per-key walk above vs
    // lookup_batch, which walks in the same input order but prefetches
    // the chain head and first slab of the keys a few probes ahead.
    let keys: Vec<u64> = (1..=n as u64).collect();
    h.bench(format_args!("lookup_batch/{n}"), || {
        let mut found = 0u64;
        table.lookup_batch(&keys, Some(1), &mut |loc, _| {
            found += u64::from(loc.is_some())
        });
        black_box(found)
    });
}

pub(crate) fn main(args: &Args) -> ExitCode {
    print_header("hotpath: scalar host hot-loop microbenches");
    let mut h = Hotpath::default();
    bench_pooled_reduction(&mut h);
    bench_checksum(&mut h);
    bench_codec(&mut h);
    bench_slab_probe(&mut h, args.quick);

    let mut j = bench_report(args.name, args.quick);
    j.field_str(
        "note",
        "wall-clock microbenches; all timings are machine-dependent",
    );
    j.begin_arr("benches");
    for (label, t, work) in &h.benches {
        j.begin_elem();
        j.field_str("label", label);
        j.field_f64("per_iter_ns", t.per_iter_ns);
        j.field_u64("iters", t.iters);
        j.field_f64("rate_per_sec", *work as f64 / t.per_iter_ns * 1e9);
        j.end_obj();
    }
    j.end_arr();
    if let Err(e) = write_bench_json("BENCH_hotpath.json", j.finish()) {
        eprintln!("error: {e}");
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_scalar_fill_is_the_stored_value() {
        for (table, id) in [(0, 0), (0, 49_999), (3, 7)] {
            let (mut scalar, mut stored) = (vec![0.0f32; 37], vec![0.0f32; 37]);
            embedding_value_portable(table, id, &mut scalar);
            fleche_store::embedding_value(table, id, &mut stored);
            let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&scalar), bits(&stored), "({table}, {id})");
        }
    }
}
