//! The compiled engine's column reader: one fused row scan over the
//! numeric columns of a table, in whichever format the table holds.
//!
//! A generated pipeline is one loop whose body keeps the row's
//! attributes in registers; where those attributes come from is not the
//! body's business. [`RowScan::of`] asks the table once — flat slices,
//! or the bit-packed companions of an encoded table — and
//! [`for_each_row!`](crate::for_each_row) runs the body over a morsel
//! through the loop that format needs: [`scan_slices`], the direct slice
//! loop, for flat columns (no copy, no per-row format test) and
//! [`scan_blocks`](crate::packed::scan_blocks) for packed ones. Every
//! value reaches the body widened to `i64`, the domain packed columns
//! decode in.
//!
//! The 32-bit columns (keys, dates) and the 64-bit columns (decimals)
//! are named separately because their flat slices are different types;
//! the body receives them as two arrays in that order.

use dbep_storage::{ColumnData, PackedInts, Table};
use std::ops::Range;

/// `A` 32-bit and `B` 64-bit scanned columns of one table.
#[derive(Clone, Copy, Debug)]
pub enum RowScan<'a, const A: usize, const B: usize> {
    Flat([&'a [i32]; A], [&'a [i64]; B]),
    Packed([&'a PackedInts; A], [&'a PackedInts; B]),
}

impl<'a, const A: usize, const B: usize> RowScan<'a, A, B> {
    /// The named `I32`/`Date` and `I64` columns of `table`: packed where
    /// the table is encoded, flat otherwise (a table is one or the
    /// other, see [`Table`]).
    pub fn of(table: &'a Table, i32s: [&str; A], i64s: [&str; B]) -> Self {
        let packed = |name: &str| {
            table
                .encoded(name)
                .unwrap_or_else(|| panic!("table {} is encoded but {name} is not", table.name()))
                .packed()
        };
        if i32s.iter().chain(&i64s).any(|name| table.encoded(name).is_some()) {
            return RowScan::Packed(i32s.map(packed), i64s.map(packed));
        }
        RowScan::Flat(
            i32s.map(|name| match table.col(name) {
                ColumnData::I32(v) | ColumnData::Date(v) => v.as_slice(),
                other => panic!("expected a 32-bit column {name}, found {}", other.type_name()),
            }),
            i64s.map(|name| table.col(name).i64s()),
        )
    }

    /// Bits one row of these columns contributes to a scan (the
    /// `bytes_scanned` accounting and the bandwidth throttle).
    pub fn bits(&self) -> usize {
        match self {
            RowScan::Flat(..) => 32 * A + 64 * B,
            RowScan::Packed(a, b) => a.iter().chain(b).map(|p| p.width() as usize).sum(),
        }
    }
}

/// The flat arm of [`for_each_row!`](crate::for_each_row): for every row
/// of `rows`, in order, call `body(row, a_values, b_values)`.
#[inline]
pub fn scan_slices<const A: usize, const B: usize>(
    a: [&[i32]; A],
    b: [&[i64]; B],
    rows: Range<usize>,
    mut body: impl FnMut(usize, [i64; A], [i64; B]),
) {
    // Slicing to the morsel first gives every column the loop's own
    // length, so the indexing below is check-free.
    let a = a.map(|c| &c[rows.clone()]);
    let b = b.map(|c| &c[rows.clone()]);
    for k in 0..rows.len() {
        body(rows.start + k, a.map(|c| c[k] as i64), b.map(|c| c[k]));
    }
}

/// `for_each_row!(scan, rows, |row, [a, ..], [b, ..]| { .. })`: run the
/// closure for every row of `rows`, in order, with that row's value of
/// each 32-bit and each 64-bit column of the [`RowScan`] `scan`.
///
/// A macro, not a method: the closure expression is expanded once per
/// format, so each format's loop owns a closure *type* of its own, with
/// one call site. A closure shared by the two loops has two — and so
/// has every generic function it instantiates (`GroupByShard::update`
/// in Q1) — and LLVM then stops inlining them: measured at SF 0.5, Q1's
/// Typer scan ran 15 % (body forced inline) to 50 % slower that way.
#[macro_export]
macro_rules! for_each_row {
    ($scan:expr, $rows:expr, $body:expr $(,)?) => {
        match $scan {
            $crate::RowScan::Flat(a, b) => $crate::scan::scan_slices(a, b, $rows, $body),
            $crate::RowScan::Packed(a, b) => $crate::packed::scan_blocks(a, b, $rows, $body),
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;
    use dbep_storage::Arena;

    fn table() -> Table {
        let mut t = Table::new("t");
        t.add_column("k", ColumnData::I32((0..300).map(|i| i * 7 - 50).collect()))
            .add_column("d", ColumnData::Date((0..300).map(|i| 9000 + i % 40).collect()))
            .add_column(
                "v",
                ColumnData::I64((0..300).map(|i| i as i64 * 1_000_003).collect()),
            );
        t
    }

    /// Both formats hand the body the same rows, in order, and charge
    /// the width they hold.
    #[test]
    fn flat_and_packed_scans_agree() {
        let flat = table();
        let mut enc = table();
        enc.encode_all(&Arena::new());
        let rows_of = |t: &Table, range: Range<usize>| {
            let scan = RowScan::of(t, ["k", "d"], ["v"]);
            let mut seen = Vec::new();
            crate::for_each_row!(scan, range, |i, [k, d], [v]| seen.push((i, k, d, v)));
            seen
        };
        for range in [0..300, 5..131, 128..129, 7..7] {
            let want: Vec<_> = range
                .clone()
                .map(|i| (i, i as i64 * 7 - 50, 9000 + i as i64 % 40, i as i64 * 1_000_003))
                .collect();
            assert_eq!(rows_of(&flat, range.clone()), want, "flat {range:?}");
            assert_eq!(rows_of(&enc, range.clone()), want, "packed {range:?}");
        }
        assert_eq!(RowScan::of(&flat, ["k", "d"], ["v"]).bits(), 32 + 32 + 64);
        let width = |name| enc.encoded(name).unwrap().bits_per_value();
        assert_eq!(
            RowScan::of(&enc, ["k", "d"], ["v"]).bits(),
            width("k") + width("d") + width("v")
        );
    }
}
