//! Projection ("map") primitives (§2.1).
//!
//! Expressions are split by arithmetic operator into one primitive per
//! operation; every primitive materializes a dense output vector aligned
//! with its inputs — the per-step load/store traffic that Table 1's
//! instruction counts attribute to Tectorwise.

use crate::SimdPolicy;
use dbep_runtime::{simd_level, SimdLevel};
use dbep_storage::StrColumn;

#[inline(always)]
fn prep<T: Copy + Default>(out: &mut Vec<T>, n: usize) {
    out.clear();
    out.resize(n, T::default());
}

/// `out[i] = c - a[i]` (e.g. `1 - l_discount` at scale 2).
pub fn map_rsub_const_i64(c: i64, a: &[i64], out: &mut Vec<i64>) {
    prep(out, a.len());
    for (o, &v) in out.iter_mut().zip(a) {
        *o = c - v;
    }
}

/// `out[i] = c + a[i]` (e.g. `1 + l_tax` at scale 2).
pub fn map_add_const_i64(c: i64, a: &[i64], out: &mut Vec<i64>) {
    prep(out, a.len());
    for (o, &v) in out.iter_mut().zip(a) {
        *o = c + v;
    }
}

/// `out[i] = a[i] * b[i]`.
pub fn map_mul_i64(a: &[i64], b: &[i64], out: &mut Vec<i64>) {
    assert_eq!(a.len(), b.len(), "map inputs must align");
    prep(out, a.len());
    for i in 0..a.len() {
        out[i] = a[i] * b[i];
    }
}

/// `out[i] = a[i] - b[i]`.
pub fn map_sub_i64(a: &[i64], b: &[i64], out: &mut Vec<i64>) {
    assert_eq!(a.len(), b.len(), "map inputs must align");
    prep(out, a.len());
    for i in 0..a.len() {
        out[i] = a[i] - b[i];
    }
}

/// `out[i] = extract(year from dates[i])` (Q9's `o_year`).
pub fn map_year(dates: &[i32], out: &mut Vec<i32>) {
    prep(out, dates.len());
    for (o, &d) in out.iter_mut().zip(dates) {
        *o = dbep_storage::types::year_of(d);
    }
}

// ---------------------------------------------------------------------
// String prefix-match flags (Q14's `p_type LIKE 'PROMO%'`).
// ---------------------------------------------------------------------

fn str_prefix_flags_scalar(col: &StrColumn, sel: &[u32], prefix: &[u8], out: &mut Vec<u8>) {
    prep(out, sel.len());
    for (o, &i) in out.iter_mut().zip(sel) {
        *o = col.get_bytes(i as usize).starts_with(prefix) as u8;
    }
}

/// # Safety
/// Requires AVX-512 (the attribute exists so LLVM may auto-vectorize
/// the scalar body with 512-bit registers); reached only via the
/// non-scalar dispatch arms, which check [`simd_level`].
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f,avx512bw,avx512dq,avx512vl")]
unsafe fn str_prefix_flags_autovec(col: &StrColumn, sel: &[u32], prefix: &[u8], out: &mut Vec<u8>) {
    str_prefix_flags_scalar(col, sel, prefix, out)
}

/// `out[i] = col[sel[i]] starts_with prefix` as a 0/1 flag vector,
/// aligned with `sel`. Variable-length strings rule out hand-written
/// gathers, so the non-scalar policies take the Fig. 10 route: the same
/// loop compiled with 512-bit features enabled, whatever LLVM makes of
/// it (DESIGN.md substitution 2).
pub fn map_str_prefix_flags(
    col: &StrColumn,
    sel: &[u32],
    prefix: &[u8],
    policy: SimdPolicy,
    out: &mut Vec<u8>,
) {
    #[cfg(target_arch = "x86_64")]
    if policy.wants_simd() && simd_level() >= SimdLevel::Avx512 {
        // SAFETY: ISA presence checked by simd_level().
        unsafe { str_prefix_flags_autovec(col, sel, prefix, out) };
        return;
    }
    let _ = policy;
    str_prefix_flags_scalar(col, sel, prefix, out)
}

// ---------------------------------------------------------------------
// Conditional aggregation primitives (Q12's CASE counters, Q14's
// promo/total ratio): one branch-free pass per CASE arm.
// ---------------------------------------------------------------------

fn sum_i64_where_u8_scalar(vals: &[i64], flags: &[u8]) -> i64 {
    let mut s = 0i64;
    for (&v, &f) in vals.iter().zip(flags) {
        s = s.wrapping_add(v * (f != 0) as i64);
    }
    s
}

/// # Safety
/// Requires the AVX-512 features named in `target_feature` — reached
/// only via the `Simd` dispatch arm, which checks [`simd_level`].
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f,avx512bw,avx512vl")]
unsafe fn sum_i64_where_u8_avx512(vals: &[i64], flags: &[u8]) -> i64 {
    use std::arch::x86_64::*;
    let mut acc = _mm512_setzero_si512();
    let mut i = 0usize;
    while i + 8 <= vals.len() {
        let v = _mm512_loadu_si512(vals.as_ptr().add(i) as *const _);
        let f = _mm_loadl_epi64(flags.as_ptr().add(i) as *const _);
        let m = _mm_cmpneq_epi8_mask(f, _mm_setzero_si128()) as __mmask8;
        acc = _mm512_mask_add_epi64(acc, m, acc, v);
        i += 8;
    }
    let mut s = _mm512_reduce_add_epi64(acc);
    while i < vals.len() {
        s = s.wrapping_add(*vals.get_unchecked(i) * (*flags.get_unchecked(i) != 0) as i64);
        i += 1;
    }
    s
}

/// Conditional sum: `Σ vals[i]` where `flags[i] != 0` (the CASE-WHEN arm
/// of Q14's promo revenue). Wrapping, like [`sum_i64`].
pub fn sum_i64_where_u8(vals: &[i64], flags: &[u8], policy: SimdPolicy) -> i64 {
    assert_eq!(vals.len(), flags.len(), "conditional sum inputs must align");
    #[cfg(target_arch = "x86_64")]
    if policy.wants_simd() && simd_level() >= SimdLevel::Avx512 {
        // SAFETY: ISA presence checked by simd_level().
        return unsafe { sum_i64_where_u8_avx512(vals, flags) };
    }
    let _ = policy;
    sum_i64_where_u8_scalar(vals, flags)
}

fn count_nonzero_u8_scalar(flags: &[u8]) -> i64 {
    let mut n = 0i64;
    for &f in flags {
        n += (f != 0) as i64;
    }
    n
}

/// # Safety
/// Requires the AVX-512 features named in `target_feature` — reached
/// only via the `Simd` dispatch arm, which checks [`simd_level`].
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f,avx512bw,avx512vl")]
unsafe fn count_nonzero_u8_avx512(flags: &[u8]) -> i64 {
    use std::arch::x86_64::*;
    let mut n = 0i64;
    let mut i = 0usize;
    while i + 64 <= flags.len() {
        let v = _mm512_loadu_si512(flags.as_ptr().add(i) as *const _);
        let m = _mm512_cmpneq_epi8_mask(v, _mm512_setzero_si512());
        n += m.count_ones() as i64;
        i += 64;
    }
    while i < flags.len() {
        n += (*flags.get_unchecked(i) != 0) as i64;
        i += 1;
    }
    n
}

/// Conditional count: number of non-zero flags (Q12's
/// `sum(CASE WHEN … THEN 1 ELSE 0 END)` over a gathered flag vector).
pub fn count_nonzero_u8(flags: &[u8], policy: SimdPolicy) -> i64 {
    #[cfg(target_arch = "x86_64")]
    if policy.wants_simd() && simd_level() >= SimdLevel::Avx512 {
        // SAFETY: ISA presence checked by simd_level().
        return unsafe { count_nonzero_u8_avx512(flags) };
    }
    let _ = policy;
    count_nonzero_u8_scalar(flags)
}

// ---------------------------------------------------------------------
// Sum primitives (aggregation without grouping, e.g. Q6 / SSB Q1.1).
// ---------------------------------------------------------------------

fn sum_i64_scalar(vals: &[i64]) -> i64 {
    let mut s = 0i64;
    for &v in vals {
        s = s.wrapping_add(v);
    }
    s
}

/// # Safety
/// Requires AVX-512F — reached only via the `Simd` dispatch arm,
/// which checks [`simd_level`].
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
unsafe fn sum_i64_avx512(vals: &[i64]) -> i64 {
    use std::arch::x86_64::*;
    let mut acc = _mm512_setzero_si512();
    let mut i = 0usize;
    while i + 8 <= vals.len() {
        let v = _mm512_loadu_si512(vals.as_ptr().add(i) as *const _);
        acc = _mm512_add_epi64(acc, v);
        i += 8;
    }
    let mut s = _mm512_reduce_add_epi64(acc);
    while i < vals.len() {
        s = s.wrapping_add(*vals.get_unchecked(i));
        i += 1;
    }
    s
}

/// Sum a dense i64 vector. Wrapping, like the paper's prototypes
/// (no overflow checks, §3.2).
pub fn sum_i64(vals: &[i64], policy: SimdPolicy) -> i64 {
    #[cfg(target_arch = "x86_64")]
    if policy.wants_simd() && simd_level() >= SimdLevel::Avx512 {
        // SAFETY: ISA presence checked by simd_level().
        return unsafe { sum_i64_avx512(vals) };
    }
    let _ = policy;
    sum_i64_scalar(vals)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arithmetic_maps() {
        let a = vec![1i64, 2, 3];
        let b = vec![10i64, 20, 30];
        let mut out = Vec::new();
        map_rsub_const_i64(100, &a, &mut out);
        assert_eq!(out, vec![99, 98, 97]);
        map_add_const_i64(100, &a, &mut out);
        assert_eq!(out, vec![101, 102, 103]);
        map_mul_i64(&a, &b, &mut out);
        assert_eq!(out, vec![10, 40, 90]);
        map_sub_i64(&b, &a, &mut out);
        assert_eq!(out, vec![9, 18, 27]);
    }

    #[test]
    fn sums_agree_across_policies() {
        let vals: Vec<i64> = (0..1003).map(|i| (i * i) as i64 - 500).collect();
        let model: i64 = vals.iter().sum();
        assert_eq!(sum_i64(&vals, SimdPolicy::Scalar), model);
        assert_eq!(sum_i64(&vals, SimdPolicy::Simd), model);
    }

    #[test]
    fn empty_inputs() {
        let mut out = Vec::new();
        map_mul_i64(&[], &[], &mut out);
        assert!(out.is_empty());
        assert_eq!(sum_i64(&[], SimdPolicy::Simd), 0);
        assert_eq!(sum_i64_where_u8(&[], &[], SimdPolicy::Simd), 0);
        assert_eq!(count_nonzero_u8(&[], SimdPolicy::Simd), 0);
    }

    fn all_policies() -> [SimdPolicy; 3] {
        [SimdPolicy::Scalar, SimdPolicy::Simd, SimdPolicy::Auto]
    }

    #[test]
    fn prefix_flags_match_model() {
        let col: StrColumn = [
            "PROMO PLATED TIN",
            "STANDARD BRUSHED COPPER",
            "PROMO ANODIZED STEEL",
            "PRO",
            "",
            "ECONOMY POLISHED BRASS",
        ]
        .into_iter()
        .collect();
        let sel: Vec<u32> = vec![0, 1, 2, 3, 4, 5, 2, 0];
        let model: Vec<u8> = sel
            .iter()
            .map(|&i| col.get_bytes(i as usize).starts_with(b"PROMO") as u8)
            .collect();
        for policy in all_policies() {
            let mut out = Vec::new();
            map_str_prefix_flags(&col, &sel, b"PROMO", policy, &mut out);
            assert_eq!(out, model, "{policy:?}");
        }
        // A prefix longer than the string never matches (no OOB read).
        let mut out = Vec::new();
        map_str_prefix_flags(&col, &[3], b"PROMO", SimdPolicy::Simd, &mut out);
        assert_eq!(out, vec![0]);
    }

    #[test]
    fn conditional_sum_and_count_match_model() {
        let n = 1003usize;
        let vals: Vec<i64> = (0..n).map(|i| (i * i) as i64 - 300).collect();
        let flags: Vec<u8> = (0..n)
            .map(|i| ((i * 7) % 3 == 0) as u8 * ((i % 5) as u8 + 1))
            .collect();
        let model_sum: i64 = vals
            .iter()
            .zip(&flags)
            .filter(|(_, &f)| f != 0)
            .map(|(&v, _)| v)
            .sum();
        let model_count = flags.iter().filter(|&&f| f != 0).count() as i64;
        for policy in all_policies() {
            assert_eq!(sum_i64_where_u8(&vals, &flags, policy), model_sum, "{policy:?}");
            assert_eq!(count_nonzero_u8(&flags, policy), model_count, "{policy:?}");
        }
        // Tail sizes around the SIMD widths (8 for sums, 64 for counts).
        for k in [1usize, 7, 8, 9, 63, 64, 65] {
            for policy in all_policies() {
                assert_eq!(
                    sum_i64_where_u8(&vals[..k], &flags[..k], policy),
                    sum_i64_where_u8_scalar(&vals[..k], &flags[..k]),
                    "sum k={k} {policy:?}"
                );
                assert_eq!(
                    count_nonzero_u8(&flags[..k], policy),
                    count_nonzero_u8_scalar(&flags[..k]),
                    "count k={k} {policy:?}"
                );
            }
        }
    }

    #[test]
    #[should_panic(expected = "align")]
    fn misaligned_inputs_panic() {
        let mut out = Vec::new();
        map_mul_i64(&[1], &[1, 2], &mut out);
    }
}
