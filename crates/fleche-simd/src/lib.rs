//! fleche-simd: blocked, runtime-dispatched kernels for the host hot paths.
//!
//! The paper's flat cache wins by minimizing per-lookup work on the
//! device; this crate does the host-side equivalent for the loops the
//! `hotpath` bench measures — the pooled gather's sum ([`add_assign`]),
//! lane-parallel slot checksums ([`checksum`]), the procedural embedding
//! fill behind the CPU store ([`unit_fill`]), and the batched probe's
//! cache hint ([`prefetch_read`]).
//!
//! # Determinism contract
//!
//! Every primitive here has one *kernel* — a plain, `#[inline(always)]`
//! Rust loop written in the canonical blocked form — and a few entry
//! points into it: the portable path (the kernel compiled under the
//! crate's baseline feature set) and, on `x86_64`,
//! `#[target_feature]` wrappers around the *same* kernel source. Because
//! every path executes the identical sequence of operations, results are
//! bit-identical regardless of which path the runtime
//! `is_x86_feature_detected!` dispatch picks; the wrappers only change
//! what code the compiler is allowed to emit (wider registers, FMA stays
//! off — we never enable `fma`, which *would* change results).
//! `tests/simd_props.rs` pins this: dispatched vs portable, across
//! non-multiple-of-lane sizes, NaN payloads, and unaligned slices. No
//! kernel reduces floats: each element-wise output is one op whose NaN
//! result both codegens agree on, and [`unit_fill`] never produces a NaN.
//!
//! # Dispatch tiers
//!
//! [`add_assign`] and [`checksum`] take AVX2 when the host has it, else
//! the portable path. [`unit_fill`] tries AVX-512 first (F, DQ and VL,
//! all three detected), then AVX2, then portable. Only the fill gets the
//! wider tier because only its lanes are 64-bit: each component is three
//! 64-bit multiplies and a u64→f64 convert, which AVX-512 DQ has as
//! single instructions (`vpmullq`, `vcvtqq2pd`) and AVX2 does not. A
//! dim-128 row fills about 2.7x faster there. [`simd_level`] names the
//! widest tier taken.
//!
//! # Canonical lane order
//!
//! The slot [`checksum`] splits a row round-robin over [`LANES`] = 8
//! integer lanes: word `i` (an `f32`'s bits) folds into lane `i % 8` by
//! one FNV-1a step, `h = (h ^ w) * FNV_PRIME`, and the eight lanes fold
//! into the result in lane order. Each row is eight independent multiply
//! chains (one `u32x8` register under AVX2) instead of one serial chain
//! per byte, and every step is a bijection in both the state and the
//! word, so any change confined to one word — every single-bit flip —
//! changes the checksum. Integer ops have no rounding and no NaN, so both
//! dispatch paths agree by construction.
//!
//! # Safety policy
//!
//! The workspace forbids `unsafe` everywhere else. Calling a
//! `#[target_feature]` fn from ordinary code requires `unsafe` (the
//! caller asserts the CPU really has the feature), so this crate holds
//! the only `unsafe` blocks in the repo: one per dispatch tier, each
//! directly behind the `is_x86_feature_detected!` checks of every
//! feature its wrapper enables, under `#![deny(unsafe_code)]` with a
//! narrow, commented `allow`. The `target-feature-guard` lint in
//! fleche-analyzer enforces exactly this shape (and that no
//! `#[target_feature]` fn is `pub`). The one other block is
//! [`prefetch_read`]'s cache hint, under the same narrow allow.

#![deny(unsafe_code)]
#![warn(missing_docs)]

/// Number of independent [`checksum`] lanes (one AVX2 `u32x8` register's
/// worth).
pub const LANES: usize = 8;

/// FNV-1a offset basis: every [`checksum`] lane and the combine start here.
pub const FNV_BASIS: u32 = 0x811C_9DC5;
/// FNV-1a prime: the multiplier of every [`checksum`] step.
pub const FNV_PRIME: u32 = 0x0100_0193;

// ---------------------------------------------------------------------
// Kernels: one definition per primitive, `#[inline(always)]` so every
// dispatch wrapper compiles its own copy under its own feature set.
// ---------------------------------------------------------------------

#[inline(always)]
fn add_assign_kernel(acc: &mut [f32], row: &[f32]) {
    for (a, &r) in acc.iter_mut().zip(row.iter()) {
        *a += r;
    }
}

#[inline(always)]
fn checksum_kernel(value: &[f32]) -> u32 {
    let mut lanes = [FNV_BASIS; LANES];
    let mut words = value.chunks_exact(LANES);
    for chunk in words.by_ref() {
        for (h, &v) in lanes.iter_mut().zip(chunk) {
            *h = (*h ^ v.to_bits()).wrapping_mul(FNV_PRIME);
        }
    }
    // A ragged tail of `r` words goes into lanes `0..r`.
    for (h, &v) in lanes.iter_mut().zip(words.remainder()) {
        *h = (*h ^ v.to_bits()).wrapping_mul(FNV_PRIME);
    }
    // Fixed combine, in lane order — part of the checksum's definition.
    lanes
        .iter()
        .fold(FNV_BASIS, |r, &h| (r ^ h).wrapping_mul(FNV_PRIME))
}

#[inline(always)]
fn unit_fill_kernel(base: u64, out: &mut [f32]) {
    // SplitMix64 finalizer per component, mapped into [-1, 1). Every
    // element is an independent fixed op sequence (integer mix, exact
    // u64→f64 convert, division by 2^53 — exact, it is a power of two —
    // then `* 2.0 - 1.0`), so vectorizing *across* elements cannot
    // change any element's bits: dispatch paths agree by construction.
    for (j, v) in out.iter_mut().enumerate() {
        let mut x = base.wrapping_add((j as u64).wrapping_mul(0x94D0_49BB_1331_11EB));
        x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        x ^= x >> 31;
        *v = ((x >> 11) as f64 / (1u64 << 53) as f64 * 2.0 - 1.0) as f32;
    }
}

// ---------------------------------------------------------------------
// AVX2 specializations: the same kernels, monomorphized with AVX2
// codegen. Safe `#[target_feature]` fns — callers must prove the
// feature at runtime, which only the dispatchers below do. Kept private
// so every call site is in this file (enforced by the
// `target-feature-guard` lint).
// ---------------------------------------------------------------------

#[cfg(target_arch = "x86_64")]
mod avx2 {
    use super::*;

    #[target_feature(enable = "avx2")]
    pub(super) fn add_assign_avx2(acc: &mut [f32], row: &[f32]) {
        add_assign_kernel(acc, row);
    }

    #[target_feature(enable = "avx2")]
    pub(super) fn unit_fill_avx2(base: u64, out: &mut [f32]) {
        unit_fill_kernel(base, out);
    }

    #[target_feature(enable = "avx2")]
    pub(super) fn checksum_avx2(value: &[f32]) -> u32 {
        checksum_kernel(value)
    }
}

// ---------------------------------------------------------------------
// AVX-512 specialization of the fill alone: its lanes are 64-bit, and
// AVX-512 DQ has the native 64-bit multiply (`vpmullq`) and u64→f64
// convert (`vcvtqq2pd`) that AVX2 emulates or leaves scalar. The f32
// kernels have native 32-bit ops under AVX2 already (see DESIGN §9.4).
// ---------------------------------------------------------------------

#[cfg(target_arch = "x86_64")]
mod avx512 {
    use super::*;

    #[target_feature(enable = "avx512f,avx512dq,avx512vl")]
    pub(super) fn unit_fill_avx512(base: u64, out: &mut [f32]) {
        unit_fill_kernel(base, out);
    }
}

// ---------------------------------------------------------------------
// Public dispatchers + portable twins.
// ---------------------------------------------------------------------

/// The widest dispatch tier any kernel takes on this host: `"avx512"`
/// when [`unit_fill`] takes its AVX-512 tier, `"avx2"` when the kernels
/// take AVX2, else `"portable"`. Stamped next to the detected features in
/// every `BENCH_*.json` host block and the bench's `host:` line; it is not
/// part of the host fingerprint.
pub fn simd_level() -> &'static str {
    #[cfg(target_arch = "x86_64")]
    {
        if std::arch::is_x86_feature_detected!("avx512f")
            && std::arch::is_x86_feature_detected!("avx512dq")
            && std::arch::is_x86_feature_detected!("avx512vl")
        {
            return "avx512";
        }
        if std::arch::is_x86_feature_detected!("avx2") {
            return "avx2";
        }
    }
    "portable"
}

/// Element-wise `acc[i] += row[i]` over the common prefix of the two
/// slices. Bit-identical across dispatch paths.
#[inline]
pub fn add_assign(acc: &mut [f32], row: &[f32]) {
    #[cfg(target_arch = "x86_64")]
    {
        if std::arch::is_x86_feature_detected!("avx2") {
            // SAFETY: reached only when the CPU reports AVX2 at runtime,
            // which is the exact contract `#[target_feature]` requires.
            #[allow(unsafe_code)]
            unsafe {
                avx2::add_assign_avx2(acc, row)
            };
            return;
        }
    }
    add_assign_portable(acc, row);
}

/// Portable path of [`add_assign`] (public so tests can pin the
/// dispatched path against it).
#[inline]
pub fn add_assign_portable(acc: &mut [f32], row: &[f32]) {
    add_assign_kernel(acc, row);
}

/// The workspace's slot checksum: `LANES` FNV-1a lanes over the `f32`
/// words of `value` (word `i` into lane `i % 8`), folded in lane order
/// (see crate docs). Detects every change confined to one word.
/// Bit-identical across dispatch paths: integer ops only.
#[inline]
pub fn checksum(value: &[f32]) -> u32 {
    #[cfg(target_arch = "x86_64")]
    {
        if std::arch::is_x86_feature_detected!("avx2") {
            // SAFETY: guarded by the runtime AVX2 check directly above.
            #[allow(unsafe_code)]
            return unsafe { avx2::checksum_avx2(value) };
        }
    }
    checksum_portable(value)
}

/// Portable path of [`checksum`].
#[inline]
pub fn checksum_portable(value: &[f32]) -> u32 {
    checksum_kernel(value)
}

/// [`checksum`] of every slot: `out[i] == checksum(values[i])`.
#[inline]
pub fn checksum_batch(values: &[&[f32]]) -> Vec<u32> {
    values.iter().map(|v| checksum(v)).collect()
}

/// Fills `out` with the deterministic unit stream of `base`: component
/// `j` is the SplitMix64 finalizer of `base + j·0x94D0_49BB_1331_11EB`,
/// mapped into `[-1, 1)` — the procedural embedding payload
/// (`fleche_store::versioned_embedding_value` derives `base` from
/// `(table, id, version)` and delegates here). Bit-identical across
/// dispatch paths: each element is an independent exact op sequence, so
/// the AVX-512 and AVX2 tiers only change how many elements are in
/// flight, never their bits.
#[inline]
pub fn unit_fill(base: u64, out: &mut [f32]) {
    #[cfg(target_arch = "x86_64")]
    {
        if std::arch::is_x86_feature_detected!("avx512f")
            && std::arch::is_x86_feature_detected!("avx512dq")
            && std::arch::is_x86_feature_detected!("avx512vl")
        {
            // SAFETY: guarded by the runtime checks of all three features
            // the wrapper enables, directly above.
            #[allow(unsafe_code)]
            unsafe {
                avx512::unit_fill_avx512(base, out)
            };
            return;
        }
        if std::arch::is_x86_feature_detected!("avx2") {
            // SAFETY: guarded by the runtime AVX2 check directly above.
            #[allow(unsafe_code)]
            unsafe {
                avx2::unit_fill_avx2(base, out)
            };
            return;
        }
    }
    unit_fill_portable(base, out);
}

/// Portable path of [`unit_fill`].
#[inline]
pub fn unit_fill_portable(base: u64, out: &mut [f32]) {
    unit_fill_kernel(base, out);
}

/// Hints the CPU to pull the cache line holding `*value` towards L1
/// ahead of a read the caller is about to make. A hint only: no value,
/// no ordering and no fault depends on it, so it cannot change any
/// result — batched probes use it to overlap the memory waits of
/// independent keys. A no-op off `x86_64`.
#[inline(always)]
pub fn prefetch_read<T>(value: &T) {
    #[cfg(target_arch = "x86_64")]
    {
        use std::arch::x86_64::{_mm_prefetch, _MM_HINT_T0};
        // SAFETY: `_mm_prefetch` is baseline SSE (always present on
        // x86_64), never faults, and never reads or writes through the
        // pointer architecturally; a live `&T` is more than it needs.
        #[allow(unsafe_code)]
        unsafe {
            _mm_prefetch::<_MM_HINT_T0>((value as *const T).cast::<i8>())
        };
    }
    #[cfg(not(target_arch = "x86_64"))]
    let _ = value;
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Deterministic pseudo-random f32s, including negative and tiny
    /// values (SplitMix64-style, same family the stores use).
    fn prf_f32(seed: u64, i: u64) -> f32 {
        let mut z = seed
            .wrapping_add(i.wrapping_mul(0x9E37_79B9_7F4A_7C15))
            .wrapping_add(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^= z >> 31;
        ((z as u32 as f64 / u32::MAX as f64) as f32 - 0.5) * 4.0
    }

    fn vecs(seed: u64, n: usize) -> (Vec<f32>, Vec<f32>) {
        let a: Vec<f32> = (0..n).map(|i| prf_f32(seed, i as u64)).collect();
        let b: Vec<f32> = (0..n).map(|i| prf_f32(seed ^ 0xABCD, i as u64)).collect();
        (a, b)
    }

    #[test]
    fn dispatched_paths_match_portable_bitwise() {
        for n in [0usize, 1, 3, 7, 8, 9, 15, 16, 17, 31, 32, 33, 64, 127] {
            let (a, b) = vecs(n as u64, n);
            let mut acc1 = a.clone();
            let mut acc2 = a.clone();
            add_assign(&mut acc1, &b);
            add_assign_portable(&mut acc2, &b);
            assert_eq!(bits(&acc1), bits(&acc2), "add n={n}");
        }
    }

    fn bits(v: &[f32]) -> Vec<u32> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    #[test]
    fn prefetch_is_a_pure_hint() {
        let v = [1u64, 2, 3];
        prefetch_read(&v);
        prefetch_read(&v[2]);
        assert_eq!(v, [1, 2, 3]);
    }

    #[test]
    fn checksum_batch_matches_serial_per_slot() {
        // Ragged dims so full lane blocks and every tail length run.
        let slots: Vec<Vec<f32>> = (0..11)
            .map(|s| (0..(13 + 7 * s) % 40).map(|i| prf_f32(s, i)).collect())
            .collect();
        let refs: Vec<&[f32]> = slots.iter().map(|v| v.as_slice()).collect();
        let per_slot: Vec<u32> = refs.iter().map(|v| checksum_portable(v)).collect();
        assert_eq!(checksum_batch(&refs), per_slot);
        assert!(refs.iter().all(|v| checksum(v) == checksum_portable(v)));
    }

    #[test]
    fn one_word_checksum_follows_the_definition() {
        // One word lands in lane 0; lanes 1..8 stay at the basis.
        let step = |h: u32, w: u32| (h ^ w).wrapping_mul(FNV_PRIME);
        let w = 1.5f32.to_bits();
        let mut want = step(FNV_BASIS, step(FNV_BASIS, w));
        for _ in 1..LANES {
            want = step(want, FNV_BASIS);
        }
        assert_eq!(checksum(&[1.5]), want);
    }

    #[test]
    fn checksum_distinguishes_nan_payloads() {
        let q1 = f32::from_bits(0x7FC0_0001);
        let q2 = f32::from_bits(0x7FC0_0002);
        assert_ne!(checksum(&[q1]), checksum(&[q2]));
        assert_eq!(
            checksum_batch(&[&[q1], &[q2]]),
            vec![checksum(&[q1]), checksum(&[q2])]
        );
    }

    /// Stream bases at the edges of `u64` (zero, one, all ones, the top
    /// bit) plus a few fixed ones.
    const EDGE_BASES: [u64; 7] = [
        0,
        1,
        u64::MAX,
        1 << 63,
        0xDEAD_BEEF,
        0x9E37_79B9_7F4A_7C15,
        0x0123_4567_89AB_CDEF,
    ];

    /// 64-bit FNV-1a over the bits of `fill`'s output for every edge base
    /// and each dim in `dims`, in that order.
    fn fill_digest(fill: fn(u64, &mut [f32]), dims: &[usize]) -> u64 {
        let mut h = 0xCBF2_9CE4_8422_2325u64;
        let mut row = Vec::new();
        for &base in &EDGE_BASES {
            for &dim in dims {
                row.clear();
                row.resize(dim, 0.0f32);
                fill(base, &mut row);
                for byte in row.iter().flat_map(|v| v.to_bits().to_le_bytes()) {
                    h = (h ^ byte as u64).wrapping_mul(0x0000_0100_0000_01B3);
                }
            }
        }
        h
    }

    #[test]
    fn unit_fill_stream_is_pinned() {
        // Every tail length of an 8-double (512-bit) and a 4-double
        // (256-bit) vector, around one and around several full vectors.
        let dims = [0, 1, 7, 8, 9, 15, 16, 17, 31, 32, 33, 127, 128, 131];
        const PINNED: u64 = 0x64D9_B887_30CB_B76A;
        assert_eq!(fill_digest(unit_fill, &dims), PINNED);
        assert_eq!(fill_digest(unit_fill_portable, &dims), PINNED);
    }

    /// One `unit_fill` tier's entry point.
    type Fill = Box<dyn Fn(u64, &mut [f32])>;

    /// Every `unit_fill` tier this host can run, widest last: a name and
    /// the tier's entry point. Each `unsafe` call sits in a closure built
    /// only once its features are detected.
    #[allow(unsafe_code)]
    fn fill_tiers() -> Vec<(&'static str, Fill)> {
        let mut tiers: Vec<(&'static str, Fill)> = vec![("portable", Box::new(unit_fill_portable))];
        #[cfg(target_arch = "x86_64")]
        {
            if std::arch::is_x86_feature_detected!("avx2") {
                // SAFETY: AVX2 is detected directly above.
                tiers.push((
                    "avx2",
                    Box::new(|b, o| unsafe { avx2::unit_fill_avx2(b, o) }),
                ));
            }
            if std::arch::is_x86_feature_detected!("avx512f")
                && std::arch::is_x86_feature_detected!("avx512dq")
                && std::arch::is_x86_feature_detected!("avx512vl")
            {
                // SAFETY: all three enabled features are detected above.
                tiers.push((
                    "avx512",
                    Box::new(|b, o| unsafe { avx512::unit_fill_avx512(b, o) }),
                ));
            }
        }
        tiers
    }

    #[test]
    fn every_tier_the_host_runs_fills_like_the_portable_kernel() {
        // Component `j` of stream `base` is component 0 of stream
        // `base + j·0x94D0_49BB_1331_11EB`: a one-element portable fill
        // per component is a reference no vector code runs.
        let reference = |base: u64, dim: usize| -> Vec<u32> {
            (0..dim as u64)
                .map(|j| {
                    let mut v = [0.0f32];
                    unit_fill_portable(
                        base.wrapping_add(j.wrapping_mul(0x94D0_49BB_1331_11EB)),
                        &mut v,
                    );
                    v[0].to_bits()
                })
                .collect()
        };
        let tiers = fill_tiers();
        let mut out = Vec::new();
        for &base in &EDGE_BASES {
            for dim in 0..=140 {
                let want = reference(base, dim);
                for (name, fill) in &tiers {
                    out.clear();
                    out.resize(dim, 0.0f32);
                    fill(base, &mut out);
                    assert_eq!(bits(&out), want, "tier {name}, base {base:#x}, dim {dim}");
                    assert!(out.iter().all(|v| (-1.0..1.0).contains(v)), "tier {name}");
                }
            }
        }
        let names: Vec<&str> = tiers.iter().map(|(name, _)| *name).collect();
        println!("unit_fill tiers run: {}", names.join(", "));
    }

    #[test]
    fn simd_level_names_a_known_path() {
        // The level is the widest tier `unit_fill` takes on this host.
        let widest = fill_tiers().last().map(|(name, _)| *name);
        assert_eq!(Some(simd_level()), widest);
        assert!(["avx512", "avx2", "portable"].contains(&simd_level()));
    }
}
