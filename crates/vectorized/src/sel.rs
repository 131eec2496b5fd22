//! Selection primitives (§2.1, §5.1).
//!
//! Each primitive evaluates one comparison on one column type and
//! produces a selection vector of global row indices:
//!
//! * `*_dense` — first selection of a cascade: scans `col[chunk]` and
//!   emits `base + i`;
//! * `*_sparse` — subsequent selections: consumes an input selection
//!   vector and gathers `col[sel[i]]` from non-contiguous locations
//!   (§5.1's "sparse data loading").
//!
//! Three implementations are provided per primitive (Fig. 6/7/10):
//! branch-free scalar (predicated `*res = i; res += cond`), hand-written
//! SIMD (AVX-512 compress-store; AVX2 permutation-table emulation), and
//! an auto-vectorization variant (plain loop compiled with 512-bit
//! features enabled).
//!
//! The `*_packed` / `*_for` families fuse decompression into selection
//! (ROADMAP item 3): they evaluate predicates directly over bit-packed
//! frame-of-reference columns ([`PackedInts`]) without materializing the
//! flat array. Naming scheme: `sel_<op>_<ty>_packed[_sparse]` for packed
//! comparisons, `sel_between_<ty>_for[_sparse]` for packed range
//! predicates. Fused
//! kernels decode in the 64-bit domain regardless of the source type and
//! compare against the widened constant; SIMD variants engage for packed
//! widths `1..=`[`MAX_PACKED_WIDTH`] (an 8-byte gather window decodes at
//! most 57 bits after the sub-byte shift), everything else takes the
//! scalar path with identical results.

use crate::SimdPolicy;
use dbep_runtime::{simd_level, SimdLevel};
use dbep_storage::encoded::MAX_PACKED_WIDTH;
use dbep_storage::{PackedInts, StrColumn};
use std::ops::Range;

/// Comparison codes matching `_MM_CMPINT_*` so scalar, SIMD and autovec
/// variants share one const-generic parameter.
pub const CMP_EQ: i32 = 0;
pub const CMP_LT: i32 = 1;
pub const CMP_LE: i32 = 2;
pub const CMP_GE: i32 = 5;
pub const CMP_GT: i32 = 6;

#[inline(always)]
fn cmp_op<const OP: i32, T: PartialOrd>(a: T, b: T) -> bool {
    match OP {
        CMP_EQ => a == b,
        CMP_LT => a < b,
        CMP_LE => a <= b,
        CMP_GE => a >= b,
        CMP_GT => a > b,
        _ => unreachable!("unknown comparison code"),
    }
}

/// Prepare `out` for up to `n` index writes, returning the write cursor.
///
/// The buffer is written through a raw pointer and the length set
/// afterwards, so no time is spent zero-filling (§2.1 footprint: the
/// materialization itself is the cost we measure, not bookkeeping).
#[inline(always)]
fn out_ptr(out: &mut Vec<u32>, n: usize) -> *mut u32 {
    out.clear();
    out.reserve(n);
    out.as_mut_ptr()
}

// ---------------------------------------------------------------------
// Scalar variants (branch-free predicated evaluation).
// ---------------------------------------------------------------------

macro_rules! scalar_dense {
    ($name:ident, $ty:ty) => {
        fn $name<const OP: i32>(col: &[$ty], c: $ty, base: u32, out: &mut Vec<u32>) -> usize {
            let p = out_ptr(out, col.len());
            let mut k = 0usize;
            for (i, &v) in col.iter().enumerate() {
                // SAFETY: k <= i < col.len() <= reserved capacity.
                unsafe { *p.add(k) = base + i as u32 };
                k += cmp_op::<OP, $ty>(v, c) as usize;
            }
            // SAFETY: the first k slots were initialized above.
            unsafe { out.set_len(k) };
            k
        }
    };
}
scalar_dense!(dense_i32_scalar, i32);
scalar_dense!(dense_i64_scalar, i64);

macro_rules! scalar_sparse {
    ($name:ident, $ty:ty) => {
        fn $name<const OP: i32>(col: &[$ty], c: $ty, in_sel: &[u32], out: &mut Vec<u32>) -> usize {
            let p = out_ptr(out, in_sel.len());
            let mut k = 0usize;
            for &i in in_sel {
                debug_assert!((i as usize) < col.len());
                // SAFETY: selection vectors only contain indices produced
                // by a prior primitive over this column's table.
                let v = unsafe { *col.get_unchecked(i as usize) };
                unsafe { *p.add(k) = i };
                k += cmp_op::<OP, $ty>(v, c) as usize;
            }
            // SAFETY: the first k slots were initialized above.
            unsafe { out.set_len(k) };
            k
        }
    };
}
scalar_sparse!(sparse_i32_scalar, i32);
scalar_sparse!(sparse_i64_scalar, i64);

fn dense_between_i64_scalar(col: &[i64], lo: i64, hi: i64, base: u32, out: &mut Vec<u32>) -> usize {
    let p = out_ptr(out, col.len());
    let mut k = 0usize;
    for (i, &v) in col.iter().enumerate() {
        // SAFETY: as in scalar_dense.
        unsafe { *p.add(k) = base + i as u32 };
        k += (v >= lo && v <= hi) as usize;
    }
    // SAFETY: the first k slots were initialized above.
    unsafe { out.set_len(k) };
    k
}

fn sparse_between_i64_scalar(col: &[i64], lo: i64, hi: i64, in_sel: &[u32], out: &mut Vec<u32>) -> usize {
    let p = out_ptr(out, in_sel.len());
    let mut k = 0usize;
    for &i in in_sel {
        debug_assert!((i as usize) < col.len());
        // SAFETY: as in scalar_sparse.
        let v = unsafe { *col.get_unchecked(i as usize) };
        unsafe { *p.add(k) = i };
        k += (v >= lo && v <= hi) as usize;
    }
    // SAFETY: the first k slots were initialized above.
    unsafe { out.set_len(k) };
    k
}

fn dense_cmp_i32_col_scalar<const OP: i32>(a: &[i32], b: &[i32], base: u32, out: &mut Vec<u32>) -> usize {
    assert_eq!(a.len(), b.len(), "column-column compare inputs must align");
    let p = out_ptr(out, a.len());
    let mut k = 0usize;
    for i in 0..a.len() {
        // SAFETY: k <= i < reserved capacity.
        unsafe { *p.add(k) = base + i as u32 };
        k += cmp_op::<OP, i32>(a[i], b[i]) as usize;
    }
    // SAFETY: the first k slots were initialized above.
    unsafe { out.set_len(k) };
    k
}

fn sparse_cmp_i32_col_scalar<const OP: i32>(
    a: &[i32],
    b: &[i32],
    in_sel: &[u32],
    out: &mut Vec<u32>,
) -> usize {
    let p = out_ptr(out, in_sel.len());
    let mut k = 0usize;
    for &i in in_sel {
        debug_assert!((i as usize) < a.len() && (i as usize) < b.len());
        // SAFETY: selection vectors index their source table.
        let (va, vb) = unsafe { (*a.get_unchecked(i as usize), *b.get_unchecked(i as usize)) };
        unsafe { *p.add(k) = i };
        k += cmp_op::<OP, i32>(va, vb) as usize;
    }
    // SAFETY: the first k slots were initialized above.
    unsafe { out.set_len(k) };
    k
}

fn packed_dense_scalar<const OP: i32>(
    col: &PackedInts,
    c: i64,
    chunk: Range<usize>,
    out: &mut Vec<u32>,
) -> usize {
    let p = out_ptr(out, chunk.len());
    let mut k = 0usize;
    for i in chunk {
        // SAFETY: k < chunk.len() <= reserved capacity.
        unsafe { *p.add(k) = i as u32 };
        k += cmp_op::<OP, i64>(col.get(i), c) as usize;
    }
    // SAFETY: the first k slots were initialized above.
    unsafe { out.set_len(k) };
    k
}

fn packed_sparse_scalar<const OP: i32>(
    col: &PackedInts,
    c: i64,
    in_sel: &[u32],
    out: &mut Vec<u32>,
) -> usize {
    let p = out_ptr(out, in_sel.len());
    let mut k = 0usize;
    for &i in in_sel {
        debug_assert!((i as usize) < col.len());
        // SAFETY: k <= position < reserved capacity.
        unsafe { *p.add(k) = i };
        k += cmp_op::<OP, i64>(col.get(i as usize), c) as usize;
    }
    // SAFETY: the first k slots were initialized above.
    unsafe { out.set_len(k) };
    k
}

fn packed_between_dense_scalar(
    col: &PackedInts,
    lo: i64,
    hi: i64,
    chunk: Range<usize>,
    out: &mut Vec<u32>,
) -> usize {
    let p = out_ptr(out, chunk.len());
    let mut k = 0usize;
    for i in chunk {
        let v = col.get(i);
        // SAFETY: as in packed_dense_scalar.
        unsafe { *p.add(k) = i as u32 };
        k += (v >= lo && v <= hi) as usize;
    }
    // SAFETY: the first k slots were initialized above.
    unsafe { out.set_len(k) };
    k
}

fn packed_between_sparse_scalar(
    col: &PackedInts,
    lo: i64,
    hi: i64,
    in_sel: &[u32],
    out: &mut Vec<u32>,
) -> usize {
    let p = out_ptr(out, in_sel.len());
    let mut k = 0usize;
    for &i in in_sel {
        debug_assert!((i as usize) < col.len());
        let v = col.get(i as usize);
        // SAFETY: as in packed_sparse_scalar.
        unsafe { *p.add(k) = i };
        k += (v >= lo && v <= hi) as usize;
    }
    // SAFETY: the first k slots were initialized above.
    unsafe { out.set_len(k) };
    k
}

// ---------------------------------------------------------------------
// AVX-512 variants (compress-store, gathers).
// ---------------------------------------------------------------------

#[cfg(target_arch = "x86_64")]
mod avx512 {
    use super::*;
    use std::arch::x86_64::*;

    /// # Safety
    /// Requires the AVX-512 features named in `target_feature` — reached
    /// only via the `Simd` dispatch arms, which check [`simd_level`].
    #[target_feature(enable = "avx512f")]
    pub unsafe fn dense_i32<const OP: i32>(col: &[i32], c: i32, base: u32, out: &mut Vec<u32>) -> usize {
        let n = col.len();
        let p = out_ptr(out, n);
        let cv = _mm512_set1_epi32(c);
        let mut idx = _mm512_add_epi32(
            _mm512_set1_epi32(base as i32),
            _mm512_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15),
        );
        let step = _mm512_set1_epi32(16);
        let mut k = 0usize;
        let mut i = 0usize;
        while i + 16 <= n {
            let v = _mm512_loadu_si512(col.as_ptr().add(i) as *const _);
            let m = _mm512_cmp_epi32_mask::<OP>(v, cv);
            _mm512_mask_compressstoreu_epi32(p.add(k) as *mut _, m, idx);
            k += m.count_ones() as usize;
            idx = _mm512_add_epi32(idx, step);
            i += 16;
        }
        while i < n {
            *p.add(k) = base + i as u32;
            k += cmp_op::<OP, i32>(*col.get_unchecked(i), c) as usize;
            i += 1;
        }
        out.set_len(k);
        k
    }

    /// # Safety
    /// Requires the AVX-512 features named in `target_feature` — reached
    /// only via the `Simd` dispatch arms, which check [`simd_level`].
    /// Every `in_sel` index must be in bounds for the column: selection
    /// vectors are produced by prior primitives over the same table.
    #[target_feature(enable = "avx512f")]
    pub unsafe fn sparse_i32<const OP: i32>(
        col: &[i32],
        c: i32,
        in_sel: &[u32],
        out: &mut Vec<u32>,
    ) -> usize {
        let n = in_sel.len();
        let p = out_ptr(out, n);
        let cv = _mm512_set1_epi32(c);
        let mut k = 0usize;
        let mut i = 0usize;
        while i + 16 <= n {
            let iv = _mm512_loadu_si512(in_sel.as_ptr().add(i) as *const _);
            let v = _mm512_i32gather_epi32::<4>(iv, col.as_ptr());
            let m = _mm512_cmp_epi32_mask::<OP>(v, cv);
            _mm512_mask_compressstoreu_epi32(p.add(k) as *mut _, m, iv);
            k += m.count_ones() as usize;
            i += 16;
        }
        while i < n {
            let row = *in_sel.get_unchecked(i);
            *p.add(k) = row;
            k += cmp_op::<OP, i32>(*col.get_unchecked(row as usize), c) as usize;
            i += 1;
        }
        out.set_len(k);
        k
    }

    /// # Safety
    /// Requires the AVX-512 features named in `target_feature` — reached
    /// only via the `Simd` dispatch arms, which check [`simd_level`].
    /// Every `in_sel` index must be in bounds for the column: selection
    /// vectors are produced by prior primitives over the same table.
    #[target_feature(enable = "avx512f,avx512vl")]
    pub unsafe fn sparse_i64<const OP: i32>(
        col: &[i64],
        c: i64,
        in_sel: &[u32],
        out: &mut Vec<u32>,
    ) -> usize {
        let n = in_sel.len();
        let p = out_ptr(out, n);
        let cv = _mm512_set1_epi64(c);
        let mut k = 0usize;
        let mut i = 0usize;
        while i + 8 <= n {
            let iv = _mm256_loadu_si256(in_sel.as_ptr().add(i) as *const _);
            let v = _mm512_i32gather_epi64::<8>(iv, col.as_ptr());
            let m = _mm512_cmp_epi64_mask::<OP>(v, cv);
            _mm256_mask_compressstoreu_epi32(p.add(k) as *mut _, m, iv);
            k += m.count_ones() as usize;
            i += 8;
        }
        while i < n {
            let row = *in_sel.get_unchecked(i);
            *p.add(k) = row;
            k += cmp_op::<OP, i64>(*col.get_unchecked(row as usize), c) as usize;
            i += 1;
        }
        out.set_len(k);
        k
    }

    /// # Safety
    /// Requires the AVX-512 features named in `target_feature` — reached
    /// only via the `Simd` dispatch arms, which check [`simd_level`].
    /// Every `in_sel` index must be in bounds for the column: selection
    /// vectors are produced by prior primitives over the same table.
    #[target_feature(enable = "avx512f,avx512vl")]
    pub unsafe fn sparse_between_i64(
        col: &[i64],
        lo: i64,
        hi: i64,
        in_sel: &[u32],
        out: &mut Vec<u32>,
    ) -> usize {
        let n = in_sel.len();
        let p = out_ptr(out, n);
        let lov = _mm512_set1_epi64(lo);
        let hiv = _mm512_set1_epi64(hi);
        let mut k = 0usize;
        let mut i = 0usize;
        while i + 8 <= n {
            let iv = _mm256_loadu_si256(in_sel.as_ptr().add(i) as *const _);
            let v = _mm512_i32gather_epi64::<8>(iv, col.as_ptr());
            let m = _mm512_cmp_epi64_mask::<{ CMP_GE }>(v, lov) & _mm512_cmp_epi64_mask::<{ CMP_LE }>(v, hiv);
            _mm256_mask_compressstoreu_epi32(p.add(k) as *mut _, m, iv);
            k += m.count_ones() as usize;
            i += 8;
        }
        while i < n {
            let row = *in_sel.get_unchecked(i);
            let v = *col.get_unchecked(row as usize);
            *p.add(k) = row;
            k += (v >= lo && v <= hi) as usize;
            i += 1;
        }
        out.set_len(k);
        k
    }

    /// # Safety
    /// Requires the AVX-512 features named in `target_feature` — reached
    /// only via the `Simd` dispatch arms, which check [`simd_level`].
    #[target_feature(enable = "avx512f")]
    pub unsafe fn dense_cmp_i32_col<const OP: i32>(
        a: &[i32],
        b: &[i32],
        base: u32,
        out: &mut Vec<u32>,
    ) -> usize {
        assert_eq!(a.len(), b.len(), "column-column compare inputs must align");
        let n = a.len();
        let p = out_ptr(out, n);
        let mut idx = _mm512_add_epi32(
            _mm512_set1_epi32(base as i32),
            _mm512_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15),
        );
        let step = _mm512_set1_epi32(16);
        let mut k = 0usize;
        let mut i = 0usize;
        while i + 16 <= n {
            let va = _mm512_loadu_si512(a.as_ptr().add(i) as *const _);
            let vb = _mm512_loadu_si512(b.as_ptr().add(i) as *const _);
            let m = _mm512_cmp_epi32_mask::<OP>(va, vb);
            _mm512_mask_compressstoreu_epi32(p.add(k) as *mut _, m, idx);
            k += m.count_ones() as usize;
            idx = _mm512_add_epi32(idx, step);
            i += 16;
        }
        while i < n {
            *p.add(k) = base + i as u32;
            k += cmp_op::<OP, i32>(*a.get_unchecked(i), *b.get_unchecked(i)) as usize;
            i += 1;
        }
        out.set_len(k);
        k
    }

    /// # Safety
    /// Requires the AVX-512 features named in `target_feature` — reached
    /// only via the `Simd` dispatch arms, which check [`simd_level`].
    /// Every `in_sel` index must be in bounds for the column: selection
    /// vectors are produced by prior primitives over the same table.
    #[target_feature(enable = "avx512f")]
    pub unsafe fn sparse_cmp_i32_col<const OP: i32>(
        a: &[i32],
        b: &[i32],
        in_sel: &[u32],
        out: &mut Vec<u32>,
    ) -> usize {
        let n = in_sel.len();
        let p = out_ptr(out, n);
        let mut k = 0usize;
        let mut i = 0usize;
        while i + 16 <= n {
            let iv = _mm512_loadu_si512(in_sel.as_ptr().add(i) as *const _);
            let va = _mm512_i32gather_epi32::<4>(iv, a.as_ptr());
            let vb = _mm512_i32gather_epi32::<4>(iv, b.as_ptr());
            let m = _mm512_cmp_epi32_mask::<OP>(va, vb);
            _mm512_mask_compressstoreu_epi32(p.add(k) as *mut _, m, iv);
            k += m.count_ones() as usize;
            i += 16;
        }
        while i < n {
            let row = *in_sel.get_unchecked(i);
            *p.add(k) = row;
            k += cmp_op::<OP, i32>(*a.get_unchecked(row as usize), *b.get_unchecked(row as usize)) as usize;
            i += 1;
        }
        out.set_len(k);
        k
    }

    /// # Safety
    /// Requires the AVX-512 features named in `target_feature` — reached
    /// only via the `Simd` dispatch arms, which check [`simd_level`].
    #[target_feature(enable = "avx512f")]
    pub unsafe fn dense_between_i64(col: &[i64], lo: i64, hi: i64, base: u32, out: &mut Vec<u32>) -> usize {
        let n = col.len();
        let p = out_ptr(out, n);
        let lov = _mm512_set1_epi64(lo);
        let hiv = _mm512_set1_epi64(hi);
        let mut idx = _mm256_add_epi32(
            _mm256_set1_epi32(base as i32),
            _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7),
        );
        let step = _mm256_set1_epi32(8);
        let mut k = 0usize;
        let mut i = 0usize;
        while i + 8 <= n {
            let v = _mm512_loadu_si512(col.as_ptr().add(i) as *const _);
            let m = _mm512_cmp_epi64_mask::<{ CMP_GE }>(v, lov) & _mm512_cmp_epi64_mask::<{ CMP_LE }>(v, hiv);
            // Compress 8 32-bit indices under an 8-bit mask: widen the
            // mask path through the 512-bit unit to stay on avx512f only.
            _mm512_mask_compressstoreu_epi32(p.add(k) as *mut _, m as u16, _mm512_castsi256_si512(idx));
            k += m.count_ones() as usize;
            idx = _mm256_add_epi32(idx, step);
            i += 8;
        }
        while i < n {
            let v = *col.get_unchecked(i);
            *p.add(k) = base + i as u32;
            k += (v >= lo && v <= hi) as usize;
            i += 1;
        }
        out.set_len(k);
        k
    }

    /// # Safety
    /// Requires the AVX-512 features named in `target_feature` — reached
    /// only via the `Simd` dispatch arms, which check [`simd_level`].
    #[target_feature(enable = "avx512f")]
    pub unsafe fn dense_i64<const OP: i32>(col: &[i64], c: i64, base: u32, out: &mut Vec<u32>) -> usize {
        let n = col.len();
        let p = out_ptr(out, n);
        let cv = _mm512_set1_epi64(c);
        let mut idx = _mm256_add_epi32(
            _mm256_set1_epi32(base as i32),
            _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7),
        );
        let step = _mm256_set1_epi32(8);
        let mut k = 0usize;
        let mut i = 0usize;
        while i + 8 <= n {
            let v = _mm512_loadu_si512(col.as_ptr().add(i) as *const _);
            let m = _mm512_cmp_epi64_mask::<OP>(v, cv);
            // Compress 8 32-bit indices under an 8-bit mask via the
            // 512-bit unit (avx512f only), as in dense_between_i64.
            _mm512_mask_compressstoreu_epi32(p.add(k) as *mut _, m as u16, _mm512_castsi256_si512(idx));
            k += m.count_ones() as usize;
            idx = _mm256_add_epi32(idx, step);
            i += 8;
        }
        while i < n {
            *p.add(k) = base + i as u32;
            k += cmp_op::<OP, i64>(*col.get_unchecked(i), c) as usize;
            i += 1;
        }
        out.set_len(k);
        k
    }

    // -----------------------------------------------------------------
    // Fused decompress-and-select kernels over bit-packed FOR columns.
    //
    // Per lane: gather the 8-byte window holding the packed value
    // (byte offset `(row * width) >> 3`), shift by the sub-byte offset
    // (`(row * width) & 7`), mask to the width, add the frame-of-
    // reference minimum, and compare decoded i64s — the flat array is
    // never materialized. Valid for widths 1..=57; the +1 pad word of
    // every `PackedInts` allocation keeps the last gather in bounds.
    // -----------------------------------------------------------------

    /// # Safety
    /// Requires the AVX-512 features named in `target_feature` — reached
    /// only via the `Simd` dispatch arms, which check [`simd_level`].
    /// `col.width()` must be in `1..=MAX_PACKED_WIDTH` (callers check
    /// `packed_simd_ok`): the +1 pad word of every `PackedInts` keeps
    /// each 8-byte gather window in bounds.
    #[target_feature(enable = "avx512f")]
    pub unsafe fn packed_dense<const OP: i32>(
        col: &PackedInts,
        c: i64,
        chunk: Range<usize>,
        out: &mut Vec<u32>,
    ) -> usize {
        let w = col.width() as usize;
        debug_assert!((1..=MAX_PACKED_WIDTH as usize).contains(&w));
        let bytes = col.words().as_ptr() as *const u8;
        let p = out_ptr(out, chunk.len());
        let cv = _mm512_set1_epi64(c);
        let minv = _mm512_set1_epi64(col.min());
        let maskv = _mm512_set1_epi64(col.mask() as i64);
        let seven = _mm512_set1_epi64(7);
        let s = chunk.start;
        let mut off = _mm512_setr_epi64(
            (s * w) as i64,
            ((s + 1) * w) as i64,
            ((s + 2) * w) as i64,
            ((s + 3) * w) as i64,
            ((s + 4) * w) as i64,
            ((s + 5) * w) as i64,
            ((s + 6) * w) as i64,
            ((s + 7) * w) as i64,
        );
        let offstep = _mm512_set1_epi64((8 * w) as i64);
        let mut idx = _mm256_add_epi32(
            _mm256_set1_epi32(s as i32),
            _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7),
        );
        let idxstep = _mm256_set1_epi32(8);
        let mut k = 0usize;
        let mut i = s;
        while i + 8 <= chunk.end {
            let byte_off = _mm512_srli_epi64::<3>(off);
            let sh = _mm512_and_epi64(off, seven);
            let win = _mm512_i64gather_epi64::<1>(byte_off, bytes as *const _);
            let dec = _mm512_add_epi64(_mm512_and_epi64(_mm512_srlv_epi64(win, sh), maskv), minv);
            let m = _mm512_cmp_epi64_mask::<OP>(dec, cv);
            _mm512_mask_compressstoreu_epi32(p.add(k) as *mut _, m as u16, _mm512_castsi256_si512(idx));
            k += m.count_ones() as usize;
            off = _mm512_add_epi64(off, offstep);
            idx = _mm256_add_epi32(idx, idxstep);
            i += 8;
        }
        while i < chunk.end {
            *p.add(k) = i as u32;
            k += cmp_op::<OP, i64>(col.get(i), c) as usize;
            i += 1;
        }
        out.set_len(k);
        k
    }

    /// # Safety
    /// Requires the AVX-512 features named in `target_feature` — reached
    /// only via the `Simd` dispatch arms, which check [`simd_level`].
    /// `col.width()` must be in `1..=MAX_PACKED_WIDTH` (callers check
    /// `packed_simd_ok`): the +1 pad word of every `PackedInts` keeps
    /// each 8-byte gather window in bounds.
    #[target_feature(enable = "avx512f")]
    pub unsafe fn packed_between_dense(
        col: &PackedInts,
        lo: i64,
        hi: i64,
        chunk: Range<usize>,
        out: &mut Vec<u32>,
    ) -> usize {
        let w = col.width() as usize;
        debug_assert!((1..=MAX_PACKED_WIDTH as usize).contains(&w));
        let bytes = col.words().as_ptr() as *const u8;
        let p = out_ptr(out, chunk.len());
        let lov = _mm512_set1_epi64(lo);
        let hiv = _mm512_set1_epi64(hi);
        let minv = _mm512_set1_epi64(col.min());
        let maskv = _mm512_set1_epi64(col.mask() as i64);
        let seven = _mm512_set1_epi64(7);
        let s = chunk.start;
        let mut off = _mm512_setr_epi64(
            (s * w) as i64,
            ((s + 1) * w) as i64,
            ((s + 2) * w) as i64,
            ((s + 3) * w) as i64,
            ((s + 4) * w) as i64,
            ((s + 5) * w) as i64,
            ((s + 6) * w) as i64,
            ((s + 7) * w) as i64,
        );
        let offstep = _mm512_set1_epi64((8 * w) as i64);
        let mut idx = _mm256_add_epi32(
            _mm256_set1_epi32(s as i32),
            _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7),
        );
        let idxstep = _mm256_set1_epi32(8);
        let mut k = 0usize;
        let mut i = s;
        while i + 8 <= chunk.end {
            let byte_off = _mm512_srli_epi64::<3>(off);
            let sh = _mm512_and_epi64(off, seven);
            let win = _mm512_i64gather_epi64::<1>(byte_off, bytes as *const _);
            let dec = _mm512_add_epi64(_mm512_and_epi64(_mm512_srlv_epi64(win, sh), maskv), minv);
            let m =
                _mm512_cmp_epi64_mask::<{ CMP_GE }>(dec, lov) & _mm512_cmp_epi64_mask::<{ CMP_LE }>(dec, hiv);
            _mm512_mask_compressstoreu_epi32(p.add(k) as *mut _, m as u16, _mm512_castsi256_si512(idx));
            k += m.count_ones() as usize;
            off = _mm512_add_epi64(off, offstep);
            idx = _mm256_add_epi32(idx, idxstep);
            i += 8;
        }
        while i < chunk.end {
            let v = col.get(i);
            *p.add(k) = i as u32;
            k += (v >= lo && v <= hi) as usize;
            i += 1;
        }
        out.set_len(k);
        k
    }

    /// # Safety
    /// Requires the AVX-512 features named in `target_feature` — reached
    /// only via the `Simd` dispatch arms, which check [`simd_level`].
    /// Every `in_sel` index must be in bounds for the column: selection
    /// vectors are produced by prior primitives over the same table.
    /// `col.width()` must be in `1..=MAX_PACKED_WIDTH` (callers check
    /// `packed_simd_ok`): the +1 pad word of every `PackedInts` keeps
    /// each 8-byte gather window in bounds.
    #[target_feature(enable = "avx512f,avx512dq,avx512vl")]
    pub unsafe fn packed_sparse<const OP: i32>(
        col: &PackedInts,
        c: i64,
        in_sel: &[u32],
        out: &mut Vec<u32>,
    ) -> usize {
        let w = col.width() as usize;
        debug_assert!((1..=MAX_PACKED_WIDTH as usize).contains(&w));
        let bytes = col.words().as_ptr() as *const u8;
        let n = in_sel.len();
        let p = out_ptr(out, n);
        let cv = _mm512_set1_epi64(c);
        let minv = _mm512_set1_epi64(col.min());
        let maskv = _mm512_set1_epi64(col.mask() as i64);
        let seven = _mm512_set1_epi64(7);
        let wv = _mm512_set1_epi64(w as i64);
        let mut k = 0usize;
        let mut i = 0usize;
        while i + 8 <= n {
            let iv = _mm256_loadu_si256(in_sel.as_ptr().add(i) as *const _);
            let off = _mm512_mullo_epi64(_mm512_cvtepu32_epi64(iv), wv);
            let byte_off = _mm512_srli_epi64::<3>(off);
            let sh = _mm512_and_epi64(off, seven);
            let win = _mm512_i64gather_epi64::<1>(byte_off, bytes as *const _);
            let dec = _mm512_add_epi64(_mm512_and_epi64(_mm512_srlv_epi64(win, sh), maskv), minv);
            let m = _mm512_cmp_epi64_mask::<OP>(dec, cv);
            _mm256_mask_compressstoreu_epi32(p.add(k) as *mut _, m, iv);
            k += m.count_ones() as usize;
            i += 8;
        }
        while i < n {
            let row = *in_sel.get_unchecked(i);
            *p.add(k) = row;
            k += cmp_op::<OP, i64>(col.get(row as usize), c) as usize;
            i += 1;
        }
        out.set_len(k);
        k
    }

    /// # Safety
    /// Requires the AVX-512 features named in `target_feature` — reached
    /// only via the `Simd` dispatch arms, which check [`simd_level`].
    /// Every `in_sel` index must be in bounds for the column: selection
    /// vectors are produced by prior primitives over the same table.
    /// `col.width()` must be in `1..=MAX_PACKED_WIDTH` (callers check
    /// `packed_simd_ok`): the +1 pad word of every `PackedInts` keeps
    /// each 8-byte gather window in bounds.
    #[target_feature(enable = "avx512f,avx512dq,avx512vl")]
    pub unsafe fn packed_between_sparse(
        col: &PackedInts,
        lo: i64,
        hi: i64,
        in_sel: &[u32],
        out: &mut Vec<u32>,
    ) -> usize {
        let w = col.width() as usize;
        debug_assert!((1..=MAX_PACKED_WIDTH as usize).contains(&w));
        let bytes = col.words().as_ptr() as *const u8;
        let n = in_sel.len();
        let p = out_ptr(out, n);
        let lov = _mm512_set1_epi64(lo);
        let hiv = _mm512_set1_epi64(hi);
        let minv = _mm512_set1_epi64(col.min());
        let maskv = _mm512_set1_epi64(col.mask() as i64);
        let seven = _mm512_set1_epi64(7);
        let wv = _mm512_set1_epi64(w as i64);
        let mut k = 0usize;
        let mut i = 0usize;
        while i + 8 <= n {
            let iv = _mm256_loadu_si256(in_sel.as_ptr().add(i) as *const _);
            let off = _mm512_mullo_epi64(_mm512_cvtepu32_epi64(iv), wv);
            let byte_off = _mm512_srli_epi64::<3>(off);
            let sh = _mm512_and_epi64(off, seven);
            let win = _mm512_i64gather_epi64::<1>(byte_off, bytes as *const _);
            let dec = _mm512_add_epi64(_mm512_and_epi64(_mm512_srlv_epi64(win, sh), maskv), minv);
            let m =
                _mm512_cmp_epi64_mask::<{ CMP_GE }>(dec, lov) & _mm512_cmp_epi64_mask::<{ CMP_LE }>(dec, hiv);
            _mm256_mask_compressstoreu_epi32(p.add(k) as *mut _, m, iv);
            k += m.count_ones() as usize;
            i += 8;
        }
        while i < n {
            let row = *in_sel.get_unchecked(i);
            let v = col.get(row as usize);
            *p.add(k) = row;
            k += (v >= lo && v <= hi) as usize;
            i += 1;
        }
        out.set_len(k);
        k
    }
}

// ---------------------------------------------------------------------
// AVX2 variants (permutation-table compress, as in the paper's fn. 6).
// ---------------------------------------------------------------------

#[cfg(target_arch = "x86_64")]
mod avx2 {
    use super::*;
    use std::arch::x86_64::*;

    /// 256-entry table: for each 8-bit mask, the lane permutation that
    /// packs selected lanes to the front (the AVX2 "left-packing" trick).
    fn lut() -> &'static [[i32; 8]; 256] {
        use std::sync::OnceLock;
        static LUT: OnceLock<Box<[[i32; 8]; 256]>> = OnceLock::new();
        LUT.get_or_init(|| {
            let mut t = Box::new([[0i32; 8]; 256]);
            for (mask, row) in t.iter_mut().enumerate() {
                let mut k = 0;
                for lane in 0..8 {
                    if mask & (1 << lane) != 0 {
                        row[k] = lane;
                        k += 1;
                    }
                }
            }
            t
        })
    }

    /// # Safety
    /// Requires AVX2 — reached only via the `Simd` dispatch arms, which
    /// check [`simd_level`].
    #[target_feature(enable = "avx2")]
    pub unsafe fn dense_i32<const OP: i32>(col: &[i32], c: i32, base: u32, out: &mut Vec<u32>) -> usize {
        let n = col.len();
        let p = out_ptr(out, n + 8); // +8: full-lane stores may overhang
        let lut = lut();
        let cv = _mm256_set1_epi32(c);
        let mut idx = _mm256_add_epi32(
            _mm256_set1_epi32(base as i32),
            _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7),
        );
        let step = _mm256_set1_epi32(8);
        let mut k = 0usize;
        let mut i = 0usize;
        while i + 8 <= n {
            let v = _mm256_loadu_si256(col.as_ptr().add(i) as *const _);
            // AVX2 has no unsigned/ordered compare family; build the mask
            // from gt/eq.
            let m = match OP {
                CMP_EQ => _mm256_cmpeq_epi32(v, cv),
                CMP_LT => _mm256_cmpgt_epi32(cv, v),
                CMP_LE => _mm256_or_si256(_mm256_cmpgt_epi32(cv, v), _mm256_cmpeq_epi32(v, cv)),
                CMP_GE => _mm256_or_si256(_mm256_cmpgt_epi32(v, cv), _mm256_cmpeq_epi32(v, cv)),
                CMP_GT => _mm256_cmpgt_epi32(v, cv),
                _ => unreachable!(),
            };
            let mask = _mm256_movemask_ps(_mm256_castsi256_ps(m)) as usize;
            let perm = _mm256_loadu_si256(lut[mask].as_ptr() as *const _);
            let packed = _mm256_permutevar8x32_epi32(idx, perm);
            _mm256_storeu_si256(p.add(k) as *mut _, packed);
            k += mask.count_ones() as usize;
            idx = _mm256_add_epi32(idx, step);
            i += 8;
        }
        while i < n {
            *p.add(k) = base + i as u32;
            k += cmp_op::<OP, i32>(*col.get_unchecked(i), c) as usize;
            i += 1;
        }
        out.set_len(k);
        k
    }

    /// # Safety
    /// Requires AVX2 — reached only via the `Simd` dispatch arms, which
    /// check [`simd_level`].
    /// Every `in_sel` index must be in bounds for the column: selection
    /// vectors are produced by prior primitives over the same table.
    #[target_feature(enable = "avx2")]
    pub unsafe fn sparse_i32<const OP: i32>(
        col: &[i32],
        c: i32,
        in_sel: &[u32],
        out: &mut Vec<u32>,
    ) -> usize {
        let n = in_sel.len();
        let p = out_ptr(out, n + 8);
        let lut = lut();
        let cv = _mm256_set1_epi32(c);
        let mut k = 0usize;
        let mut i = 0usize;
        while i + 8 <= n {
            let iv = _mm256_loadu_si256(in_sel.as_ptr().add(i) as *const _);
            let v = _mm256_i32gather_epi32::<4>(col.as_ptr(), iv);
            let m = match OP {
                CMP_EQ => _mm256_cmpeq_epi32(v, cv),
                CMP_LT => _mm256_cmpgt_epi32(cv, v),
                CMP_LE => _mm256_or_si256(_mm256_cmpgt_epi32(cv, v), _mm256_cmpeq_epi32(v, cv)),
                CMP_GE => _mm256_or_si256(_mm256_cmpgt_epi32(v, cv), _mm256_cmpeq_epi32(v, cv)),
                CMP_GT => _mm256_cmpgt_epi32(v, cv),
                _ => unreachable!(),
            };
            let mask = _mm256_movemask_ps(_mm256_castsi256_ps(m)) as usize;
            let perm = _mm256_loadu_si256(lut[mask].as_ptr() as *const _);
            let packed = _mm256_permutevar8x32_epi32(iv, perm);
            _mm256_storeu_si256(p.add(k) as *mut _, packed);
            k += mask.count_ones() as usize;
            i += 8;
        }
        while i < n {
            let row = *in_sel.get_unchecked(i);
            *p.add(k) = row;
            k += cmp_op::<OP, i32>(*col.get_unchecked(row as usize), c) as usize;
            i += 1;
        }
        out.set_len(k);
        k
    }
}

// ---------------------------------------------------------------------
// Auto-vectorization variants (Fig. 10 substitution): the *scalar* loop
// compiled with 512-bit features enabled — whatever LLVM makes of it is
// the experiment's result.
// ---------------------------------------------------------------------

#[cfg(target_arch = "x86_64")]
mod autovec {
    /// # Safety
    /// Requires AVX-512 (the attribute exists so LLVM may auto-vectorize
    /// the scalar body with 512-bit registers); reached only via the
    /// `Auto` dispatch arms, which check [`simd_level`].
    #[target_feature(enable = "avx512f,avx512bw,avx512dq,avx512vl")]
    pub unsafe fn dense_i32<const OP: i32>(col: &[i32], c: i32, base: u32, out: &mut Vec<u32>) -> usize {
        super::dense_i32_scalar::<OP>(col, c, base, out)
    }

    /// # Safety
    /// Requires AVX-512 (the attribute exists so LLVM may auto-vectorize
    /// the scalar body with 512-bit registers); reached only via the
    /// `Auto` dispatch arms, which check [`simd_level`].
    #[target_feature(enable = "avx512f,avx512bw,avx512dq,avx512vl")]
    pub unsafe fn sparse_i32<const OP: i32>(
        col: &[i32],
        c: i32,
        in_sel: &[u32],
        out: &mut Vec<u32>,
    ) -> usize {
        super::sparse_i32_scalar::<OP>(col, c, in_sel, out)
    }

    /// # Safety
    /// Requires AVX-512 (the attribute exists so LLVM may auto-vectorize
    /// the scalar body with 512-bit registers); reached only via the
    /// `Auto` dispatch arms, which check [`simd_level`].
    #[target_feature(enable = "avx512f,avx512bw,avx512dq,avx512vl")]
    pub unsafe fn sparse_i64<const OP: i32>(
        col: &[i64],
        c: i64,
        in_sel: &[u32],
        out: &mut Vec<u32>,
    ) -> usize {
        super::sparse_i64_scalar::<OP>(col, c, in_sel, out)
    }

    /// # Safety
    /// Requires AVX-512 (the attribute exists so LLVM may auto-vectorize
    /// the scalar body with 512-bit registers); reached only via the
    /// `Auto` dispatch arms, which check [`simd_level`].
    #[target_feature(enable = "avx512f,avx512bw,avx512dq,avx512vl")]
    pub unsafe fn dense_cmp_i32_col<const OP: i32>(
        a: &[i32],
        b: &[i32],
        base: u32,
        out: &mut Vec<u32>,
    ) -> usize {
        super::dense_cmp_i32_col_scalar::<OP>(a, b, base, out)
    }

    /// # Safety
    /// Requires AVX-512 (the attribute exists so LLVM may auto-vectorize
    /// the scalar body with 512-bit registers); reached only via the
    /// `Auto` dispatch arms, which check [`simd_level`].
    #[target_feature(enable = "avx512f,avx512bw,avx512dq,avx512vl")]
    pub unsafe fn sparse_cmp_i32_col<const OP: i32>(
        a: &[i32],
        b: &[i32],
        in_sel: &[u32],
        out: &mut Vec<u32>,
    ) -> usize {
        super::sparse_cmp_i32_col_scalar::<OP>(a, b, in_sel, out)
    }

    /// # Safety
    /// Requires AVX-512 (the attribute exists so LLVM may auto-vectorize
    /// the scalar body with 512-bit registers); reached only via the
    /// `Auto` dispatch arms, which check [`simd_level`].
    #[target_feature(enable = "avx512f,avx512bw,avx512dq,avx512vl")]
    pub unsafe fn dense_i64<const OP: i32>(col: &[i64], c: i64, base: u32, out: &mut Vec<u32>) -> usize {
        super::dense_i64_scalar::<OP>(col, c, base, out)
    }

    /// # Safety
    /// Requires AVX-512 (the attribute exists so LLVM may auto-vectorize
    /// the scalar body with 512-bit registers); reached only via the
    /// `Auto` dispatch arms, which check [`simd_level`].
    #[target_feature(enable = "avx512f,avx512bw,avx512dq,avx512vl")]
    pub unsafe fn packed_dense<const OP: i32>(
        col: &super::PackedInts,
        c: i64,
        chunk: super::Range<usize>,
        out: &mut Vec<u32>,
    ) -> usize {
        super::packed_dense_scalar::<OP>(col, c, chunk, out)
    }

    /// # Safety
    /// Requires AVX-512 (the attribute exists so LLVM may auto-vectorize
    /// the scalar body with 512-bit registers); reached only via the
    /// `Auto` dispatch arms, which check [`simd_level`].
    #[target_feature(enable = "avx512f,avx512bw,avx512dq,avx512vl")]
    pub unsafe fn packed_sparse<const OP: i32>(
        col: &super::PackedInts,
        c: i64,
        in_sel: &[u32],
        out: &mut Vec<u32>,
    ) -> usize {
        super::packed_sparse_scalar::<OP>(col, c, in_sel, out)
    }

    /// # Safety
    /// Requires AVX-512 (the attribute exists so LLVM may auto-vectorize
    /// the scalar body with 512-bit registers); reached only via the
    /// `Auto` dispatch arms, which check [`simd_level`].
    #[target_feature(enable = "avx512f,avx512bw,avx512dq,avx512vl")]
    pub unsafe fn packed_between_dense(
        col: &super::PackedInts,
        lo: i64,
        hi: i64,
        chunk: super::Range<usize>,
        out: &mut Vec<u32>,
    ) -> usize {
        super::packed_between_dense_scalar(col, lo, hi, chunk, out)
    }

    /// # Safety
    /// Requires AVX-512 (the attribute exists so LLVM may auto-vectorize
    /// the scalar body with 512-bit registers); reached only via the
    /// `Auto` dispatch arms, which check [`simd_level`].
    #[target_feature(enable = "avx512f,avx512bw,avx512dq,avx512vl")]
    pub unsafe fn packed_between_sparse(
        col: &super::PackedInts,
        lo: i64,
        hi: i64,
        in_sel: &[u32],
        out: &mut Vec<u32>,
    ) -> usize {
        super::packed_between_sparse_scalar(col, lo, hi, in_sel, out)
    }
}

// ---------------------------------------------------------------------
// Public dispatching primitives.
// ---------------------------------------------------------------------

macro_rules! dispatch_dense_i32 {
    ($name:ident, $op:expr) => {
        /// Dense selection over a chunk slice; emits `base + i`.
        pub fn $name(col: &[i32], c: i32, base: u32, out: &mut Vec<u32>, policy: SimdPolicy) -> usize {
            #[cfg(target_arch = "x86_64")]
            match (policy, simd_level()) {
                (SimdPolicy::Simd, SimdLevel::Avx512) => {
                    // SAFETY: ISA presence checked by simd_level().
                    return unsafe { avx512::dense_i32::<{ $op }>(col, c, base, out) };
                }
                (SimdPolicy::Simd, SimdLevel::Avx2) => {
                    // SAFETY: ISA presence checked by simd_level().
                    return unsafe { avx2::dense_i32::<{ $op }>(col, c, base, out) };
                }
                (SimdPolicy::Auto, SimdLevel::Avx512) => {
                    // SAFETY: ISA presence checked by simd_level().
                    return unsafe { autovec::dense_i32::<{ $op }>(col, c, base, out) };
                }
                _ => {}
            }
            dense_i32_scalar::<{ $op }>(col, c, base, out)
        }
    };
}
dispatch_dense_i32!(sel_lt_i32_dense, CMP_LT);
dispatch_dense_i32!(sel_le_i32_dense, CMP_LE);
dispatch_dense_i32!(sel_ge_i32_dense, CMP_GE);
dispatch_dense_i32!(sel_gt_i32_dense, CMP_GT);
dispatch_dense_i32!(sel_eq_i32_dense, CMP_EQ);

macro_rules! dispatch_sparse_i32 {
    ($name:ident, $op:expr) => {
        /// Sparse selection refining an input selection vector.
        pub fn $name(col: &[i32], c: i32, in_sel: &[u32], out: &mut Vec<u32>, policy: SimdPolicy) -> usize {
            #[cfg(target_arch = "x86_64")]
            match (policy, simd_level()) {
                (SimdPolicy::Simd, SimdLevel::Avx512) => {
                    // SAFETY: ISA presence checked by simd_level().
                    return unsafe { avx512::sparse_i32::<{ $op }>(col, c, in_sel, out) };
                }
                (SimdPolicy::Simd, SimdLevel::Avx2) => {
                    // SAFETY: ISA presence checked by simd_level().
                    return unsafe { avx2::sparse_i32::<{ $op }>(col, c, in_sel, out) };
                }
                (SimdPolicy::Auto, SimdLevel::Avx512) => {
                    // SAFETY: ISA presence checked by simd_level().
                    return unsafe { autovec::sparse_i32::<{ $op }>(col, c, in_sel, out) };
                }
                _ => {}
            }
            sparse_i32_scalar::<{ $op }>(col, c, in_sel, out)
        }
    };
}
dispatch_sparse_i32!(sel_lt_i32_sparse, CMP_LT);
dispatch_sparse_i32!(sel_le_i32_sparse, CMP_LE);
dispatch_sparse_i32!(sel_ge_i32_sparse, CMP_GE);
dispatch_sparse_i32!(sel_gt_i32_sparse, CMP_GT);
dispatch_sparse_i32!(sel_eq_i32_sparse, CMP_EQ);

macro_rules! dispatch_sparse_i64 {
    ($name:ident, $op:expr) => {
        /// Sparse selection on a 64-bit column.
        pub fn $name(col: &[i64], c: i64, in_sel: &[u32], out: &mut Vec<u32>, policy: SimdPolicy) -> usize {
            #[cfg(target_arch = "x86_64")]
            match (policy, simd_level()) {
                (SimdPolicy::Simd, SimdLevel::Avx512) => {
                    // SAFETY: ISA presence checked by simd_level().
                    return unsafe { avx512::sparse_i64::<{ $op }>(col, c, in_sel, out) };
                }
                (SimdPolicy::Auto, SimdLevel::Avx512) => {
                    // SAFETY: ISA presence checked by simd_level().
                    return unsafe { autovec::sparse_i64::<{ $op }>(col, c, in_sel, out) };
                }
                _ => {}
            }
            sparse_i64_scalar::<{ $op }>(col, c, in_sel, out)
        }
    };
}
dispatch_sparse_i64!(sel_lt_i64_sparse, CMP_LT);
dispatch_sparse_i64!(sel_ge_i64_sparse, CMP_GE);
dispatch_sparse_i64!(sel_le_i64_sparse, CMP_LE);

macro_rules! dispatch_dense_i64 {
    ($name:ident, $op:expr) => {
        /// Dense selection on a 64-bit column; emits `base + i`.
        pub fn $name(col: &[i64], c: i64, base: u32, out: &mut Vec<u32>, policy: SimdPolicy) -> usize {
            #[cfg(target_arch = "x86_64")]
            match (policy, simd_level()) {
                (SimdPolicy::Simd, SimdLevel::Avx512) => {
                    // SAFETY: ISA presence checked by simd_level().
                    return unsafe { avx512::dense_i64::<{ $op }>(col, c, base, out) };
                }
                (SimdPolicy::Auto, SimdLevel::Avx512) => {
                    // SAFETY: ISA presence checked by simd_level().
                    return unsafe { autovec::dense_i64::<{ $op }>(col, c, base, out) };
                }
                _ => {}
            }
            dense_i64_scalar::<{ $op }>(col, c, base, out)
        }
    };
}
dispatch_dense_i64!(sel_lt_i64_dense, CMP_LT);

// ---------------------------------------------------------------------
// Fused decompress-and-select dispatchers (bit-packed FOR columns and
// dictionary codes). SIMD variants engage for packed widths
// 1..=MAX_PACKED_WIDTH; all-equal (width 0) and raw-fallback (width 64)
// columns take the scalar path with identical results.
// ---------------------------------------------------------------------

#[inline]
fn packed_simd_ok(col: &PackedInts) -> bool {
    (1..=MAX_PACKED_WIDTH).contains(&col.width())
}

macro_rules! dispatch_packed_dense {
    ($name:ident, $ty:ty, $op:expr) => {
        /// Fused decompress-and-select over the packed column rows in
        /// `chunk`; emits global row indices without materializing the
        /// flat array.
        pub fn $name(
            col: &PackedInts,
            c: $ty,
            chunk: Range<usize>,
            out: &mut Vec<u32>,
            policy: SimdPolicy,
        ) -> usize {
            let c = c as i64;
            #[cfg(target_arch = "x86_64")]
            if packed_simd_ok(col) {
                match (policy, simd_level()) {
                    (SimdPolicy::Simd, SimdLevel::Avx512) => {
                        // SAFETY: ISA presence checked by simd_level();
                        // width gate checked by packed_simd_ok.
                        return unsafe { avx512::packed_dense::<{ $op }>(col, c, chunk, out) };
                    }
                    (SimdPolicy::Auto, SimdLevel::Avx512) => {
                        // SAFETY: ISA presence checked by simd_level().
                        return unsafe { autovec::packed_dense::<{ $op }>(col, c, chunk, out) };
                    }
                    _ => {}
                }
            }
            packed_dense_scalar::<{ $op }>(col, c, chunk, out)
        }
    };
}
dispatch_packed_dense!(sel_lt_i32_packed, i32, CMP_LT);
dispatch_packed_dense!(sel_le_i32_packed, i32, CMP_LE);
dispatch_packed_dense!(sel_ge_i32_packed, i32, CMP_GE);
dispatch_packed_dense!(sel_gt_i32_packed, i32, CMP_GT);
dispatch_packed_dense!(sel_eq_i32_packed, i32, CMP_EQ);
dispatch_packed_dense!(sel_lt_i64_packed, i64, CMP_LT);
dispatch_packed_dense!(sel_le_i64_packed, i64, CMP_LE);
dispatch_packed_dense!(sel_ge_i64_packed, i64, CMP_GE);
dispatch_packed_dense!(sel_gt_i64_packed, i64, CMP_GT);
dispatch_packed_dense!(sel_eq_i64_packed, i64, CMP_EQ);

macro_rules! dispatch_packed_sparse {
    ($name:ident, $ty:ty, $op:expr) => {
        /// Fused decompress-and-select refining an input selection
        /// vector over a packed column.
        pub fn $name(
            col: &PackedInts,
            c: $ty,
            in_sel: &[u32],
            out: &mut Vec<u32>,
            policy: SimdPolicy,
        ) -> usize {
            let c = c as i64;
            #[cfg(target_arch = "x86_64")]
            if packed_simd_ok(col) {
                match (policy, simd_level()) {
                    (SimdPolicy::Simd, SimdLevel::Avx512) => {
                        // SAFETY: as in dispatch_packed_dense.
                        return unsafe { avx512::packed_sparse::<{ $op }>(col, c, in_sel, out) };
                    }
                    (SimdPolicy::Auto, SimdLevel::Avx512) => {
                        // SAFETY: ISA presence checked by simd_level().
                        return unsafe { autovec::packed_sparse::<{ $op }>(col, c, in_sel, out) };
                    }
                    _ => {}
                }
            }
            packed_sparse_scalar::<{ $op }>(col, c, in_sel, out)
        }
    };
}
dispatch_packed_sparse!(sel_lt_i32_packed_sparse, i32, CMP_LT);
dispatch_packed_sparse!(sel_le_i32_packed_sparse, i32, CMP_LE);
dispatch_packed_sparse!(sel_ge_i32_packed_sparse, i32, CMP_GE);
dispatch_packed_sparse!(sel_gt_i32_packed_sparse, i32, CMP_GT);
dispatch_packed_sparse!(sel_eq_i32_packed_sparse, i32, CMP_EQ);
dispatch_packed_sparse!(sel_lt_i64_packed_sparse, i64, CMP_LT);
dispatch_packed_sparse!(sel_le_i64_packed_sparse, i64, CMP_LE);
dispatch_packed_sparse!(sel_ge_i64_packed_sparse, i64, CMP_GE);
dispatch_packed_sparse!(sel_gt_i64_packed_sparse, i64, CMP_GT);
dispatch_packed_sparse!(sel_eq_i64_packed_sparse, i64, CMP_EQ);

fn between_for_dense(
    col: &PackedInts,
    lo: i64,
    hi: i64,
    chunk: Range<usize>,
    out: &mut Vec<u32>,
    policy: SimdPolicy,
) -> usize {
    #[cfg(target_arch = "x86_64")]
    if packed_simd_ok(col) {
        match (policy, simd_level()) {
            (SimdPolicy::Simd, SimdLevel::Avx512) => {
                // SAFETY: as in dispatch_packed_dense.
                return unsafe { avx512::packed_between_dense(col, lo, hi, chunk, out) };
            }
            (SimdPolicy::Auto, SimdLevel::Avx512) => {
                // SAFETY: ISA presence checked by simd_level().
                return unsafe { autovec::packed_between_dense(col, lo, hi, chunk, out) };
            }
            _ => {}
        }
    }
    packed_between_dense_scalar(col, lo, hi, chunk, out)
}

fn between_for_sparse(
    col: &PackedInts,
    lo: i64,
    hi: i64,
    in_sel: &[u32],
    out: &mut Vec<u32>,
    policy: SimdPolicy,
) -> usize {
    #[cfg(target_arch = "x86_64")]
    if packed_simd_ok(col) {
        match (policy, simd_level()) {
            (SimdPolicy::Simd, SimdLevel::Avx512) => {
                // SAFETY: as in dispatch_packed_dense.
                return unsafe { avx512::packed_between_sparse(col, lo, hi, in_sel, out) };
            }
            (SimdPolicy::Auto, SimdLevel::Avx512) => {
                // SAFETY: ISA presence checked by simd_level().
                return unsafe { autovec::packed_between_sparse(col, lo, hi, in_sel, out) };
            }
            _ => {}
        }
    }
    packed_between_sparse_scalar(col, lo, hi, in_sel, out)
}

/// Fused `lo <= v <= hi` over the packed rows in `chunk` (32-bit
/// constants widened into the 64-bit decode domain).
pub fn sel_between_i32_for(
    col: &PackedInts,
    lo: i32,
    hi: i32,
    chunk: Range<usize>,
    out: &mut Vec<u32>,
    policy: SimdPolicy,
) -> usize {
    between_for_dense(col, lo as i64, hi as i64, chunk, out, policy)
}

/// Fused `lo <= v <= hi` over the packed rows in `chunk`.
pub fn sel_between_i64_for(
    col: &PackedInts,
    lo: i64,
    hi: i64,
    chunk: Range<usize>,
    out: &mut Vec<u32>,
    policy: SimdPolicy,
) -> usize {
    between_for_dense(col, lo, hi, chunk, out, policy)
}

/// Fused sparse `lo <= v <= hi` refining an input selection vector.
pub fn sel_between_i64_for_sparse(
    col: &PackedInts,
    lo: i64,
    hi: i64,
    in_sel: &[u32],
    out: &mut Vec<u32>,
    policy: SimdPolicy,
) -> usize {
    between_for_sparse(col, lo, hi, in_sel, out, policy)
}

/// Dense `lo <= v <= hi` on a 64-bit column.
pub fn sel_between_i64_dense(
    col: &[i64],
    lo: i64,
    hi: i64,
    base: u32,
    out: &mut Vec<u32>,
    policy: SimdPolicy,
) -> usize {
    #[cfg(target_arch = "x86_64")]
    if policy == SimdPolicy::Simd && simd_level() >= SimdLevel::Avx512 {
        // SAFETY: ISA presence checked by simd_level().
        return unsafe { avx512::dense_between_i64(col, lo, hi, base, out) };
    }
    dense_between_i64_scalar(col, lo, hi, base, out)
}

/// Sparse `lo <= v <= hi` on a 64-bit column.
pub fn sel_between_i64_sparse(
    col: &[i64],
    lo: i64,
    hi: i64,
    in_sel: &[u32],
    out: &mut Vec<u32>,
    policy: SimdPolicy,
) -> usize {
    #[cfg(target_arch = "x86_64")]
    if policy == SimdPolicy::Simd && simd_level() >= SimdLevel::Avx512 {
        // SAFETY: ISA presence checked by simd_level().
        return unsafe { avx512::sparse_between_i64(col, lo, hi, in_sel, out) };
    }
    sparse_between_i64_scalar(col, lo, hi, in_sel, out)
}

macro_rules! dispatch_dense_i32_col {
    ($name:ident, $op:expr) => {
        /// Dense column-vs-column selection over aligned chunk slices
        /// (e.g. Q4/Q12's `l_commitdate < l_receiptdate`); emits `base + i`.
        pub fn $name(a: &[i32], b: &[i32], base: u32, out: &mut Vec<u32>, policy: SimdPolicy) -> usize {
            #[cfg(target_arch = "x86_64")]
            match (policy, simd_level()) {
                (SimdPolicy::Simd, SimdLevel::Avx512) => {
                    // SAFETY: ISA presence checked by simd_level().
                    return unsafe { avx512::dense_cmp_i32_col::<{ $op }>(a, b, base, out) };
                }
                (SimdPolicy::Auto, SimdLevel::Avx512) => {
                    // SAFETY: ISA presence checked by simd_level().
                    return unsafe { autovec::dense_cmp_i32_col::<{ $op }>(a, b, base, out) };
                }
                _ => {}
            }
            dense_cmp_i32_col_scalar::<{ $op }>(a, b, base, out)
        }
    };
}
dispatch_dense_i32_col!(sel_lt_i32_col_dense, CMP_LT);

macro_rules! dispatch_sparse_i32_col {
    ($name:ident, $op:expr) => {
        /// Sparse column-vs-column selection refining an input selection
        /// vector (both columns gathered at `in_sel[i]`).
        pub fn $name(a: &[i32], b: &[i32], in_sel: &[u32], out: &mut Vec<u32>, policy: SimdPolicy) -> usize {
            #[cfg(target_arch = "x86_64")]
            match (policy, simd_level()) {
                (SimdPolicy::Simd, SimdLevel::Avx512) => {
                    // SAFETY: ISA presence checked by simd_level().
                    return unsafe { avx512::sparse_cmp_i32_col::<{ $op }>(a, b, in_sel, out) };
                }
                (SimdPolicy::Auto, SimdLevel::Avx512) => {
                    // SAFETY: ISA presence checked by simd_level().
                    return unsafe { autovec::sparse_cmp_i32_col::<{ $op }>(a, b, in_sel, out) };
                }
                _ => {}
            }
            sparse_cmp_i32_col_scalar::<{ $op }>(a, b, in_sel, out)
        }
    };
}
dispatch_sparse_i32_col!(sel_lt_i32_col_sparse, CMP_LT);

/// Dense string-equality selection over `chunk` (scalar only: the paper's
/// string primitives are not SIMD candidates).
pub fn sel_eq_str_dense(
    col: &StrColumn,
    val: &[u8],
    chunk: std::ops::Range<usize>,
    out: &mut Vec<u32>,
) -> usize {
    out.clear();
    out.reserve(chunk.len());
    for i in chunk {
        if col.get_bytes(i) == val {
            out.push(i as u32);
        }
    }
    out.len()
}

/// Dense IN-list selection over `chunk` (Q12's
/// `l_shipmode IN ('MAIL','SHIP')`); one membership primitive instead of
/// per-value equality cascades so the selection vector stays ascending.
/// Scalar, like the other string primitives.
pub fn sel_in_str_dense(
    col: &StrColumn,
    vals: &[&[u8]],
    chunk: std::ops::Range<usize>,
    out: &mut Vec<u32>,
) -> usize {
    out.clear();
    out.reserve(chunk.len());
    for i in chunk {
        let s = col.get_bytes(i);
        if vals.contains(&s) {
            out.push(i as u32);
        }
    }
    out.len()
}

/// Dense single-byte-code equality (e.g. `l_returnflag`).
pub fn sel_eq_char_dense(col: &[u8], c: u8, base: u32, out: &mut Vec<u32>) -> usize {
    let p = out_ptr(out, col.len());
    let mut k = 0usize;
    for (i, &v) in col.iter().enumerate() {
        // SAFETY: k <= i < reserved capacity.
        unsafe { *p.add(k) = base + i as u32 };
        k += (v == c) as usize;
    }
    // SAFETY: the first k slots were initialized above.
    unsafe { out.set_len(k) };
    k
}

#[cfg(test)]
mod tests {
    use super::*;

    fn policies() -> Vec<SimdPolicy> {
        vec![SimdPolicy::Scalar, SimdPolicy::Simd, SimdPolicy::Auto]
    }

    fn pseudo_i32(n: usize, m: i32) -> Vec<i32> {
        (0..n)
            .map(|i| ((i as u64).wrapping_mul(2654435761) % m as u64) as i32)
            .collect()
    }

    #[test]
    fn dense_matches_model_all_policies() {
        let col = pseudo_i32(1000, 100);
        let model: Vec<u32> = (0..1000).filter(|&i| col[i] < 40).map(|i| i as u32 + 7).collect();
        for policy in policies() {
            let mut out = Vec::new();
            let k = sel_lt_i32_dense(&col, 40, 7, &mut out, policy);
            assert_eq!(k, out.len());
            assert_eq!(out, model, "{policy:?}");
        }
    }

    #[test]
    fn sparse_matches_model_all_policies() {
        let col = pseudo_i32(4096, 1000);
        let in_sel: Vec<u32> = (0..4096).step_by(3).map(|i| i as u32).collect();
        let model: Vec<u32> = in_sel
            .iter()
            .copied()
            .filter(|&i| col[i as usize] >= 500)
            .collect();
        for policy in policies() {
            let mut out = Vec::new();
            sel_ge_i32_sparse(&col, 500, &in_sel, &mut out, policy);
            assert_eq!(out, model, "{policy:?}");
        }
    }

    #[test]
    fn sparse_i64_between_matches_model() {
        let col: Vec<i64> = (0..2048).map(|i| (i * 37 % 11) as i64).collect();
        let in_sel: Vec<u32> = (0..2048).filter(|i| i % 2 == 0).map(|i| i as u32).collect();
        let model: Vec<u32> = in_sel
            .iter()
            .copied()
            .filter(|&i| (5..=7).contains(&col[i as usize]))
            .collect();
        for policy in policies() {
            let mut out = Vec::new();
            sel_between_i64_sparse(&col, 5, 7, &in_sel, &mut out, policy);
            assert_eq!(out, model, "{policy:?}");
        }
    }

    #[test]
    fn dense_i64_between_matches_model() {
        let col: Vec<i64> = (0..777).map(|i| (i * 13 % 29) as i64).collect();
        let model: Vec<u32> = (0..777u32)
            .filter(|&i| (10..=20).contains(&col[i as usize]))
            .collect();
        for policy in policies() {
            let mut out = Vec::new();
            sel_between_i64_dense(&col, 10, 20, 0, &mut out, policy);
            assert_eq!(out, model, "{policy:?}");
        }
    }

    #[test]
    fn empty_and_tail_sizes() {
        // Lengths around the SIMD width must all work (tail handling).
        for n in [0usize, 1, 7, 8, 15, 16, 17, 31, 33] {
            let col = pseudo_i32(n, 10);
            for policy in policies() {
                let mut out = Vec::new();
                sel_lt_i32_dense(&col, 5, 0, &mut out, policy);
                let model: Vec<u32> = (0..n).filter(|&i| col[i] < 5).map(|i| i as u32).collect();
                assert_eq!(out, model, "n={n} {policy:?}");
            }
        }
    }

    #[test]
    fn all_and_none_selected() {
        let col = vec![5i32; 100];
        for policy in policies() {
            let mut out = Vec::new();
            assert_eq!(sel_eq_i32_dense(&col, 5, 0, &mut out, policy), 100);
            assert_eq!(sel_eq_i32_dense(&col, 6, 0, &mut out, policy), 0);
        }
    }

    #[test]
    fn string_and_char_selection() {
        let col: StrColumn = ["BUILDING", "AUTOMOBILE", "BUILDING", "MACHINERY"]
            .into_iter()
            .collect();
        let mut out = Vec::new();
        sel_eq_str_dense(&col, b"BUILDING", 0..4, &mut out);
        assert_eq!(out, vec![0, 2]);
        let flags = vec![b'N', b'A', b'N', b'R', b'N'];
        sel_eq_char_dense(&flags, b'N', 10, &mut out);
        assert_eq!(out, vec![10, 12, 14]);
    }

    #[test]
    fn col_col_selection_matches_model() {
        let a = pseudo_i32(1000, 50);
        let b = pseudo_i32(1000, 50).into_iter().rev().collect::<Vec<_>>();
        let dense_model: Vec<u32> = (0..1000).filter(|&i| a[i] < b[i]).map(|i| i as u32 + 3).collect();
        let in_sel: Vec<u32> = (0..1000).step_by(3).map(|i| i as u32).collect();
        let sparse_model: Vec<u32> = in_sel
            .iter()
            .copied()
            .filter(|&i| a[i as usize] < b[i as usize])
            .collect();
        for policy in policies() {
            let mut out = Vec::new();
            let k = sel_lt_i32_col_dense(&a, &b, 3, &mut out, policy);
            assert_eq!(k, out.len());
            assert_eq!(out, dense_model, "dense {policy:?}");
            sel_lt_i32_col_sparse(&a, &b, &in_sel, &mut out, policy);
            assert_eq!(out, sparse_model, "sparse {policy:?}");
        }
    }

    #[test]
    fn col_col_tail_sizes() {
        for n in [0usize, 1, 15, 16, 17, 31, 33] {
            let a = pseudo_i32(n, 8);
            let b = vec![4i32; n];
            let model: Vec<u32> = (0..n).filter(|&i| a[i] < 4).map(|i| i as u32).collect();
            for policy in policies() {
                let mut out = Vec::new();
                sel_lt_i32_col_dense(&a, &b, 0, &mut out, policy);
                assert_eq!(out, model, "n={n} {policy:?}");
            }
        }
    }

    #[test]
    fn in_list_string_selection() {
        let col: StrColumn = ["MAIL", "SHIP", "AIR", "TRUCK", "SHIP", "FOB", "MAIL"]
            .into_iter()
            .collect();
        let mut out = Vec::new();
        let k = sel_in_str_dense(&col, &[b"MAIL", b"SHIP"], 0..7, &mut out);
        assert_eq!(k, 4);
        assert_eq!(out, vec![0, 1, 4, 6]);
        // Empty list selects nothing; a sub-range respects bounds.
        assert_eq!(sel_in_str_dense(&col, &[], 0..7, &mut out), 0);
        sel_in_str_dense(&col, &[b"SHIP"], 2..5, &mut out);
        assert_eq!(out, vec![4]);
    }

    #[test]
    fn comparison_ops_agree_with_semantics() {
        let col = vec![-5i32, 0, 3, 7, 7, 9];
        let mut out = Vec::new();
        for policy in policies() {
            sel_le_i32_dense(&col, 7, 0, &mut out, policy);
            assert_eq!(out, vec![0, 1, 2, 3, 4], "{policy:?} le");
            sel_gt_i32_dense(&col, 7, 0, &mut out, policy);
            assert_eq!(out, vec![5], "{policy:?} gt");
            sel_ge_i32_dense(&col, 7, 0, &mut out, policy);
            assert_eq!(out, vec![3, 4, 5], "{policy:?} ge");
        }
    }
}
