//! Column readers: one scanned numeric column in whichever format its
//! table holds.
//!
//! A plan stage asks its table once ([`Col::of`]) and gets the flat
//! slice or the bit-packed companion; every method is a per-*vector*
//! `match` onto the primitives of [`sel`], [`gather`] and [`hashp`], so
//! the stage is written once and the kernels never see a format they
//! were not built for. The element type is static (`Col<i32>` for
//! keys and dates, `Col<i64>` for decimals): a method exists only where
//! a primitive does.
//!
//! Range predicates keep each format's own shape. Packed columns run the
//! fused `sel_between_*_for` kernels (one decode, two compares). Flat
//! columns run the paper's cascade of single-comparison primitives — Q6
//! stays Fig. 6c's one dense and four sparse selections — except the
//! dense 64-bit range, whose flat primitive is `sel_between_i64_dense`
//! (there is no dense 64-bit `>=` to start a cascade with).

use crate::{gather, hashp, sel, SimdPolicy};
use dbep_runtime::hash::HashFn;
use dbep_storage::{ColumnData, PackedInts, Table};
use std::ops::Range;

/// One column of `T`s as its table holds it.
#[derive(Clone, Copy, Debug)]
pub enum Col<'a, T> {
    Flat(&'a [T]),
    Packed(&'a PackedInts),
}

impl<T: Copy + Into<i64>> Col<'_, T> {
    /// Bits one row of this column contributes to a scan (the
    /// `bytes_scanned` accounting and the bandwidth throttle).
    pub fn bits(&self) -> usize {
        match self {
            Col::Flat(_) => 8 * std::mem::size_of::<T>(),
            Col::Packed(p) => p.width() as usize,
        }
    }

    /// One row's value — probe equality and build-side pushes, not scans.
    #[inline]
    pub fn get(&self, i: usize) -> i64 {
        match self {
            Col::Flat(v) => v[i].into(),
            Col::Packed(p) => p.get(i),
        }
    }
}

impl<'a> Col<'a, i32> {
    /// The `I32` or `Date` column `name` of `table`: its packed
    /// companion where the table is encoded, the flat slice otherwise.
    pub fn of(table: &'a Table, name: &str) -> Self {
        match table.encoded(name) {
            Some(enc) => Col::Packed(enc.packed()),
            None => match table.col(name) {
                ColumnData::I32(v) | ColumnData::Date(v) => Col::Flat(v),
                other => panic!("expected a 32-bit column {name}, found {}", other.type_name()),
            },
        }
    }

    /// Dense `v <= c` over the rows of `chunk`.
    pub fn sel_le(&self, c: i32, chunk: Range<usize>, out: &mut Vec<u32>, policy: SimdPolicy) -> usize {
        match self {
            Col::Flat(v) => sel::sel_le_i32_dense(&v[chunk.clone()], c, chunk.start as u32, out, policy),
            Col::Packed(p) => sel::sel_le_i32_packed(p, c, chunk, out, policy),
        }
    }

    /// Dense `lo <= v <= hi` over the rows of `chunk`; `tmp` carries the
    /// flat cascade's intermediate selection.
    pub fn sel_between(
        &self,
        lo: i32,
        hi: i32,
        chunk: Range<usize>,
        tmp: &mut Vec<u32>,
        out: &mut Vec<u32>,
        policy: SimdPolicy,
    ) -> usize {
        match self {
            Col::Flat(v) => {
                if sel::sel_ge_i32_dense(&v[chunk.clone()], lo, chunk.start as u32, tmp, policy) == 0 {
                    out.clear();
                    return 0;
                }
                sel::sel_le_i32_sparse(v, hi, tmp, out, policy)
            }
            Col::Packed(p) => sel::sel_between_i32_for(p, lo, hi, chunk, out, policy),
        }
    }

    /// Hash `col[sel[i]]` into `out[i]`; packed keys decode into `keys`
    /// on the way.
    pub fn hash(&self, sel: &[u32], hf: HashFn, keys: &mut Vec<i64>, out: &mut Vec<u64>, policy: SimdPolicy) {
        match self {
            Col::Flat(v) => hashp::hash_i32(v, sel, hf, out),
            Col::Packed(p) => {
                gather::gather_packed_i64(p, sel, policy, keys);
                out.clear();
                out.extend(keys.iter().map(|&k| hf.hash(k as u64)));
            }
        }
    }
}

impl<'a> Col<'a, i64> {
    /// The `I64` column `name` of `table`: its packed companion where
    /// the table is encoded, the flat slice otherwise.
    pub fn of(table: &'a Table, name: &str) -> Self {
        match table.encoded(name) {
            Some(enc) => Col::Packed(enc.packed()),
            None => Col::Flat(table.col(name).i64s()),
        }
    }

    /// Dense `lo <= v <= hi` over the rows of `chunk`.
    pub fn sel_between(
        &self,
        lo: i64,
        hi: i64,
        chunk: Range<usize>,
        out: &mut Vec<u32>,
        policy: SimdPolicy,
    ) -> usize {
        match self {
            Col::Flat(v) => {
                sel::sel_between_i64_dense(&v[chunk.clone()], lo, hi, chunk.start as u32, out, policy)
            }
            Col::Packed(p) => sel::sel_between_i64_for(p, lo, hi, chunk, out, policy),
        }
    }

    /// Sparse `lo <= v <= hi` refining `in_sel`; `tmp` carries the flat
    /// cascade's intermediate selection.
    pub fn sel_between_sparse(
        &self,
        lo: i64,
        hi: i64,
        in_sel: &[u32],
        tmp: &mut Vec<u32>,
        out: &mut Vec<u32>,
        policy: SimdPolicy,
    ) -> usize {
        match self {
            Col::Flat(v) => {
                if sel::sel_ge_i64_sparse(v, lo, in_sel, tmp, policy) == 0 {
                    out.clear();
                    return 0;
                }
                sel::sel_le_i64_sparse(v, hi, tmp, out, policy)
            }
            Col::Packed(p) => sel::sel_between_i64_for_sparse(p, lo, hi, in_sel, out, policy),
        }
    }

    /// Sparse `v < c` refining `in_sel`.
    pub fn sel_lt_sparse(&self, c: i64, in_sel: &[u32], out: &mut Vec<u32>, policy: SimdPolicy) -> usize {
        match self {
            Col::Flat(v) => sel::sel_lt_i64_sparse(v, c, in_sel, out, policy),
            Col::Packed(p) => sel::sel_lt_i64_packed_sparse(p, c, in_sel, out, policy),
        }
    }

    /// `out[i] = col[sel[i]]`: the measures of the surviving rows as the
    /// dense vector the arithmetic and aggregate primitives consume.
    pub fn gather(&self, sel: &[u32], policy: SimdPolicy, out: &mut Vec<i64>) {
        match self {
            Col::Flat(v) => gather::gather_i64(v, sel, policy, out),
            Col::Packed(p) => gather::gather_packed_i64(p, sel, policy, out),
        }
    }
}
