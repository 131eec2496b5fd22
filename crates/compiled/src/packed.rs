//! Block-wise scan access to bit-packed columns for the fused loops.
//!
//! The compiled engine's fused loops keep attribute values in registers
//! (Fig. 2a), but decoding a [`PackedInts`] value per row *inside* such
//! a loop costs a width `match`, a variable shift and a loop-carried bit
//! cursor per value per column, which the morsel closure does not get
//! unswitched: measured at SF 0.5, Q6 read 4.2× fewer bytes that way and
//! ran 4× slower than flat. Scans therefore take the paper's own closing
//! point about hybrid models (HyPer scans compressed Data Blocks
//! vector-at-a-time and feeds the compiled pipeline from the decoded
//! vectors): [`scan_blocks`] unpacks each scanned column [`BLOCK`] rows
//! at a time into a stack buffer through the format's one decode kernel
//! ([`PackedInts::unpack`] — width matched once per block, every shift
//! an immediate) and runs the fused row body over the buffers, which
//! stay L1-resident. The vectorized engine's `sel_*_packed` primitives
//! keep their own fused decompress-and-select form.
//!
//! [`PackedReader`] is the cursor underneath: [`PackedReader::fill`] is
//! the block accessor; [`PackedReader::next`] decodes a single value and
//! is the tail/point accessor, not a scan path. (The benchmark's
//! `compiled.packed_read_ns_per_elem` probe times `next()`, i.e. the
//! tail accessor; a later `benchmark/` change should repoint it at
//! `fill`.)

use dbep_storage::encoded::MAX_PACKED_WIDTH;
use dbep_storage::PackedInts;
use std::ops::Range;

/// Rows decoded per column per step of [`scan_blocks`]. 128 × 8 bytes is
/// 1 KiB per scanned column: five columns (Q1) stay far inside L1, and
/// the per-block width dispatch is amortised over 128 values.
pub const BLOCK: usize = 128;

/// Sequential decoder over a bit-packed FOR column.
///
/// Constructed once per morsel at the morsel's start row. Scans pull
/// whole blocks with [`fill`](PackedReader::fill); `next()` yields one
/// value. All-equal (width 0) and raw (width 64) columns take dedicated
/// branches; packed widths (1..=[`MAX_PACKED_WIDTH`]) decode through an
/// unaligned 8-byte window — the column's pad word keeps the window of
/// every in-bounds row inside the allocation, the same invariant the
/// AVX-512 gather kernels rely on.
pub struct PackedReader<'a> {
    col: &'a PackedInts,
    words: &'a [u64],
    /// Bit position of the next value (packed widths only).
    bit: usize,
    width: u32,
    mask: u64,
    min: i64,
    /// Row the next `next()`/`fill()` call decodes first.
    row: usize,
}

impl<'a> PackedReader<'a> {
    /// Cursor positioned at `start_row` (a morsel boundary).
    pub fn new(col: &'a PackedInts, start_row: usize) -> PackedReader<'a> {
        debug_assert!(start_row <= col.len());
        let width = col.width();
        debug_assert!(width == 0 || width == 64 || width <= MAX_PACKED_WIDTH);
        PackedReader {
            col,
            words: col.words(),
            bit: start_row * width as usize,
            width,
            mask: col.mask(),
            min: col.min(),
            row: start_row,
        }
    }

    /// Decode the next `out.len()` values — fewer when the column ends
    /// first — into the front of `out`, advance past them and return how
    /// many were written.
    pub fn fill(&mut self, out: &mut [i64]) -> usize {
        let n = out.len().min(self.col.len().saturating_sub(self.row));
        self.col.unpack(self.row, &mut out[..n]);
        self.row += n;
        self.bit += n * self.width as usize;
        n
    }

    /// Decode the next value. Caller stays within the column length
    /// (morsel ranges are in bounds by construction).
    // Not `Iterator`: an `Option<i64>` per row would put an end-check
    // into every caller's loop.
    #[allow(clippy::should_implement_trait)]
    #[inline(always)]
    pub fn next(&mut self) -> i64 {
        let row = self.row;
        self.row = row + 1;
        match self.width {
            0 => self.min,
            64 => self.words[row] as i64,
            w => {
                let bit = self.bit;
                self.bit = bit + w as usize;
                debug_assert!((bit >> 3) + 8 <= self.words.len() * 8);
                // SAFETY: width <= MAX_PACKED_WIDTH and the payload's
                // pad word keep the 8-byte window of any in-bounds row
                // inside the allocation.
                let win = unsafe {
                    (self.words.as_ptr() as *const u8)
                        .add(bit >> 3)
                        .cast::<u64>()
                        .read_unaligned()
                };
                self.min.wrapping_add(((win >> (bit & 7)) & self.mask) as i64)
            }
        }
    }
}

/// The packed arm of [`for_each_row!`](crate::for_each_row): for every row
/// of `rows`, in order, call `body(row, a_values, b_values)` with that
/// row's decoded value of each column of `a` and of `b`.
///
/// Per [`BLOCK`] rows every column is unpacked into a stack buffer, then
/// `body` runs over the buffers as a plain indexed loop — after inlining
/// it is the flat fused loop with the column slices swapped for the
/// buffers. Flat companions (char flags, dictionary codes) are indexed
/// by `row` as before.
#[inline]
pub fn scan_blocks<const A: usize, const B: usize>(
    a: [&PackedInts; A],
    b: [&PackedInts; B],
    rows: Range<usize>,
    mut body: impl FnMut(usize, [i64; A], [i64; B]),
) {
    let mut readers_a = a.map(|c| PackedReader::new(c, rows.start));
    let mut readers_b = b.map(|c| PackedReader::new(c, rows.start));
    let mut bufs_a = [[0i64; BLOCK]; A];
    let mut bufs_b = [[0i64; BLOCK]; B];
    let mut row = rows.start;
    while row < rows.end {
        let n = (rows.end - row).min(BLOCK);
        let columns = readers_a
            .iter_mut()
            .zip(bufs_a.iter_mut())
            .chain(readers_b.iter_mut().zip(bufs_b.iter_mut()));
        for (reader, buf) in columns {
            let got = reader.fill(&mut buf[..n]);
            assert_eq!(got, n, "scan range runs past a packed column");
        }
        for k in 0..n {
            body(
                row + k,
                std::array::from_fn(|c| bufs_a[c][k]),
                std::array::from_fn(|c| bufs_b[c][k]),
            );
        }
        row += n;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dbep_storage::Arena;

    fn check(vals: &[i64], starts: &[usize]) {
        let arena = Arena::new();
        let col = PackedInts::encode(vals, &arena);
        for &start in starts {
            if start > vals.len() {
                continue;
            }
            let mut r = PackedReader::new(&col, start);
            for (i, &expect) in vals.iter().enumerate().skip(start) {
                assert_eq!(
                    r.next(),
                    expect,
                    "row {i} from start {start} width {}",
                    col.width()
                );
            }
        }
    }

    #[test]
    fn sequential_read_matches_all_widths() {
        // Miri runs at interpreter speed: shrink the sweep there while
        // keeping sub-word, word-boundary and wide-row coverage.
        let widths: &[u32] = if cfg!(miri) {
            &[1, 12, 31, 57]
        } else {
            &[1, 3, 7, 8, 12, 13, 21, 31, 33, 48, 57]
        };
        let rows: usize = if cfg!(miri) { 80 } else { 300 };
        for &w in widths {
            check(
                &column_of_width(w, rows),
                &[0, 1, 7, 8, 63, 64, 65, rows / 2, rows - 1, rows],
            );
        }
    }

    #[test]
    fn all_equal_and_raw_paths() {
        check(&vec![99i64; 128], &[0, 50, 128]);
        check(&[i64::MIN, 0, i64::MAX, -1, 7], &[0, 2, 5]);
    }

    #[test]
    fn single_row_and_empty() {
        check(&[42], &[0, 1]);
        check(&[], &[0]);
        // Distinct two-row column exercises a nonzero width.
        check(&[5, 9], &[0, 1, 2]);
    }

    /// `rows` values that pack to exactly `width` bits (0 = all-equal,
    /// 64 = raw): rows 0 and 1 pin the two ends of the range.
    fn column_of_width(width: u32, rows: usize) -> Vec<i64> {
        (0..rows as u64)
            .map(|i| match (width, i) {
                (0, _) => 99,
                (64, 0) => i64::MIN,
                (64, 1) => i64::MAX,
                (64, _) => i.wrapping_mul(0x9e37_79b9_7f4a_7c15) as i64,
                (w, 0) => ((1u64 << w) - 1) as i64 - 17,
                (_, 1) => -17,
                (w, _) => (i.wrapping_mul(0x9e37_79b9_7f4a_7c15) >> (64 - w)) as i64 - 17,
            })
            .collect()
    }

    fn sweep_widths() -> Vec<u32> {
        if cfg!(miri) {
            vec![0, 1, 12, 31, 57, 64]
        } else {
            (0..=MAX_PACKED_WIDTH).chain([64]).collect()
        }
    }

    /// `fill` against `get` for every width and cursor start, with block
    /// lengths on and off the group-of-eight grid and `next()` calls in
    /// between (which knock the cursor off the grid, so later fills take
    /// the head path); the final over-long fill must stop at the last
    /// row — the one whose window reaches into the pad word.
    #[test]
    fn fill_interleaved_with_next_matches_get() {
        let rows: usize = if cfg!(miri) { 141 } else { 301 };
        let arena = Arena::new();
        let lens = [8usize, 1, 7, 9, 0, 63, 64, 127, 128, 129];
        let mut buf = [0i64; 129];
        for w in sweep_widths() {
            let col = PackedInts::encode(&column_of_width(w, rows), &arena);
            assert_eq!(col.width(), w, "fixture width");
            for start in [0, 1, 7, 8, 9, 63, 64, 65, rows / 2, rows - 1, rows] {
                let mut r = PackedReader::new(&col, start);
                let mut row = start;
                for (step, &len) in lens.iter().cycle().enumerate() {
                    let want = len.min(rows - row);
                    assert_eq!(r.fill(&mut buf[..len]), want, "width {w} row {row} len {len}");
                    for (k, &v) in buf[..want].iter().enumerate() {
                        assert_eq!(v, col.get(row + k), "width {w} start {start} row {}", row + k);
                    }
                    row += want;
                    if row == rows {
                        break;
                    }
                    for _ in 0..step % 3 {
                        if row < rows {
                            assert_eq!(r.next(), col.get(row), "width {w} next() at row {row}");
                            row += 1;
                        }
                    }
                }
                assert_eq!(r.fill(&mut buf), 0, "width {w}: fill past the end");
            }
        }
    }

    /// `scan_blocks` hands the body every row of the range exactly once,
    /// in order, with that row's value of each column — over ranges that
    /// start and end off the block and group grids.
    #[test]
    fn scan_blocks_visits_each_row_once_in_order() {
        let rows = if cfg!(miri) { 141 } else { 2 * BLOCK + 45 };
        let arena = Arena::new();
        let a = PackedInts::encode(&column_of_width(13, rows), &arena);
        let b = PackedInts::encode(&column_of_width(4, rows), &arena);
        for range in [
            0..rows,
            5..rows,
            3..3,
            BLOCK..BLOCK + 1,
            9..BLOCK + 9,
            rows - 1..rows,
        ] {
            let mut next_row = range.start;
            scan_blocks([&a], [&b], range.clone(), |i, [x], [y]| {
                assert_eq!(i, next_row, "range {range:?}");
                assert_eq!((x, y), (a.get(i), b.get(i)), "range {range:?} row {i}");
                next_row += 1;
            });
            assert_eq!(next_row, range.end, "range {range:?}");
        }
    }

    #[test]
    fn word_boundary_starts() {
        // Width 12: rows 0..=4 fit word 0 (60 bits), row 5 spans the
        // word boundary — starts at and around it must decode right.
        let vals: Vec<i64> = (0..64).map(|i| 1000 + (i * 371 % 4096)).collect();
        check(&vals, &[4, 5, 6, 10, 11]);
    }
}
