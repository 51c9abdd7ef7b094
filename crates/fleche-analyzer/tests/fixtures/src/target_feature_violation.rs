//! Seeded `target-feature-guard` violations: one exported specialization,
//! one unguarded call and one AVX-512 call behind an AVX2 check, plus the
//! four shapes that must stay clean (guarded dispatch, a check of every
//! enabled feature, tf-to-tf call, restricted visibility).

#[target_feature(enable = "avx2")]
pub fn exported_specialization(a: &[f32]) -> f32 {
    // VIOLATION: bare `pub` exports the specialization past this file.
    a[0]
}

#[target_feature(enable = "avx2")]
pub(crate) fn dot_avx2(a: &[f32]) -> f32 {
    a.iter().sum()
}

#[target_feature(enable = "avx2")]
pub(crate) fn sum_avx2(a: &[f32]) -> f32 {
    // Clean: a target-feature fn calling a sibling needs no re-check.
    dot_avx2(a)
}

pub fn unguarded(a: &[f32]) -> f32 {
    // VIOLATION: no runtime feature check dominates this call.
    dot_avx2(a)
}

pub fn dispatched(a: &[f32]) -> f32 {
    // Clean: the call only runs once the feature is proven present.
    if std::arch::is_x86_feature_detected!("avx2") {
        return sum_avx2(a);
    }
    a.iter().sum()
}

#[target_feature(enable = "avx512f,avx512dq,avx512vl")]
pub(crate) fn fill_avx512(out: &mut [f32]) {
    out.fill(0.0);
}

pub fn fill_behind_the_wrong_check(out: &mut [f32]) {
    // VIOLATION: an AVX2 check proves none of the three AVX-512 features.
    if std::arch::is_x86_feature_detected!("avx2") {
        return fill_avx512(out);
    }
    out.fill(0.0);
}

pub fn fill_dispatched(out: &mut [f32]) {
    // Clean: every feature the wrapper enables is detected first.
    if std::arch::is_x86_feature_detected!("avx512f")
        && std::arch::is_x86_feature_detected!("avx512dq")
        && std::arch::is_x86_feature_detected!("avx512vl")
    {
        return fill_avx512(out);
    }
    out.fill(0.0);
}
