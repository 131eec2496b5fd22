//! Compressed column representations (ROADMAP item 3).
//!
//! The paper's Table 5 experiments show Q1/Q6-style scans are bound by
//! bytes moved, not instructions retired. This module shrinks the stored
//! form so fused scan kernels (see `dbep-vectorized::sel` and
//! `dbep-compiled::packed`) touch fewer bytes without a separate
//! decompression pass:
//!
//! * [`PackedInts`] — frame-of-reference bit-packing for `i32`/`i64`/date
//!   columns. The per-column bit width is chosen at load time from the
//!   observed min/max: `width = bits(max - min)`, `0` for all-equal
//!   columns, and a raw 64-bit fallback when the range needs more than
//!   57 bits (the widest value a byte-aligned 64-bit SIMD extraction can
//!   decode, see below).
//! * [`DictStrColumn`] — dictionary coding for low-cardinality string
//!   columns: a `u8` code per row plus a sorted [`StrColumn`] dictionary
//!   kept as the decode target. Columns with more than 256 distinct
//!   values stay flat.
//!
//! All payloads live in 64-byte-aligned [`AlignedBuf`] allocations handed
//! out by a reusable [`Arena`], so scans start cache-line-aligned and
//! reload cycles recycle buffers instead of churning the allocator.
//!
//! Bit layout: value `i` of a width-`w` column occupies bits
//! `[i*w, i*w + w)` of the little-endian `u64` word stream. Every buffer
//! carries at least one trailing padding word so SIMD kernels may gather
//! a full 8-byte window at byte offset `(i*w) >> 3` for any valid row —
//! that window covers widths up to `64 - 7 = 57` bits after the
//! sub-byte shift, which is why wider ranges fall back to raw storage.

use crate::column::{ColumnData, StrColumn};
use std::alloc::{alloc_zeroed, dealloc, handle_alloc_error, Layout};
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::ops::Deref;
use std::ptr::NonNull;

/// Widest bit width the fused SIMD kernels can decode (byte-aligned
/// 8-byte gather + sub-byte shift leaves 57 usable bits).
pub const MAX_PACKED_WIDTH: u32 = 57;

const ALIGN: usize = 64;

/// A 64-byte-aligned, zero-initialised `u64` buffer.
///
/// Plain `Vec<u64>` only guarantees 8-byte alignment; the fused scan
/// kernels want cache-line-aligned starts (SNIPPETS.md Snippet 1 makes
/// the same demand of its column allocations).
pub struct AlignedBuf {
    ptr: NonNull<u64>,
    words: usize,
    cap: usize,
}

// SAFETY: the buffer is an owned, uniquely-allocated memory region; the
// raw pointer is only an artifact of manual alignment.
unsafe impl Send for AlignedBuf {}
unsafe impl Sync for AlignedBuf {}

impl AlignedBuf {
    fn layout(cap: usize) -> Layout {
        Layout::from_size_align(cap * 8, ALIGN).expect("AlignedBuf layout")
    }

    /// Allocate `words` zeroed `u64`s (at least one, so the pointer is
    /// always dereferenceable).
    pub fn new_zeroed(words: usize) -> Self {
        let cap = words.max(1);
        let layout = Self::layout(cap);
        // SAFETY: layout has non-zero size.
        let raw = unsafe { alloc_zeroed(layout) };
        let Some(ptr) = NonNull::new(raw as *mut u64) else {
            handle_alloc_error(layout)
        };
        AlignedBuf { ptr, words, cap }
    }

    /// Logical length in `u64` words.
    pub fn len(&self) -> usize {
        self.words
    }

    pub fn is_empty(&self) -> bool {
        self.words == 0
    }

    /// Allocated capacity in `u64` words.
    pub fn capacity(&self) -> usize {
        self.cap
    }

    #[inline]
    pub fn as_slice(&self) -> &[u64] {
        // SAFETY: `words <= cap` and the allocation is initialised.
        unsafe { std::slice::from_raw_parts(self.ptr.as_ptr(), self.words) }
    }

    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [u64] {
        // SAFETY: as above, and `&mut self` gives unique access.
        unsafe { std::slice::from_raw_parts_mut(self.ptr.as_ptr(), self.words) }
    }

    /// Byte view of the first `len` bytes (`len <= 8 * capacity`).
    #[inline]
    pub fn as_bytes(&self, len: usize) -> &[u8] {
        assert!(len <= self.cap * 8, "byte view exceeds allocation");
        // SAFETY: in-bounds per the assert; u8 has no validity invariant.
        unsafe { std::slice::from_raw_parts(self.ptr.as_ptr() as *const u8, len) }
    }

    /// Shrink-to-fit reuse: rezero and set the logical length. Panics if
    /// `words` exceeds capacity (arena reuse picks a large-enough buffer).
    fn reset(&mut self, words: usize) {
        assert!(words <= self.cap, "AlignedBuf reset beyond capacity");
        self.words = words;
        // SAFETY: zeroing the full capacity is in-bounds.
        unsafe { std::ptr::write_bytes(self.ptr.as_ptr(), 0, self.cap) };
    }
}

impl Deref for AlignedBuf {
    type Target = [u64];
    fn deref(&self) -> &[u64] {
        self.as_slice()
    }
}

impl Drop for AlignedBuf {
    fn drop(&mut self) {
        // SAFETY: allocated with the identical layout in `new_zeroed`.
        unsafe { dealloc(self.ptr.as_ptr() as *mut u8, Self::layout(self.cap)) };
    }
}

impl Clone for AlignedBuf {
    fn clone(&self) -> Self {
        let mut copy = AlignedBuf::new_zeroed(self.words);
        copy.as_mut_slice().copy_from_slice(self.as_slice());
        copy
    }
}

impl std::fmt::Debug for AlignedBuf {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "AlignedBuf({} words)", self.words)
    }
}

impl PartialEq for AlignedBuf {
    fn eq(&self, other: &Self) -> bool {
        self.as_slice() == other.as_slice()
    }
}

/// A free-list of [`AlignedBuf`]s so reload cycles (parameter sweeps,
/// repeated `generate_encoded` calls) reuse allocations instead of
/// round-tripping the system allocator for every column.
#[derive(Default)]
pub struct Arena {
    free: RefCell<Vec<AlignedBuf>>,
}

impl Arena {
    pub fn new() -> Self {
        Arena::default()
    }

    /// Hand out a zeroed buffer of at least `words` words, reusing a
    /// recycled one when a large-enough allocation is available.
    pub fn alloc(&self, words: usize) -> AlignedBuf {
        let mut free = self.free.borrow_mut();
        if let Some(pos) = free.iter().position(|b| b.capacity() >= words.max(1)) {
            let mut buf = free.swap_remove(pos);
            buf.reset(words);
            return buf;
        }
        AlignedBuf::new_zeroed(words)
    }

    /// Return a buffer to the free list for later reuse.
    pub fn recycle(&self, buf: AlignedBuf) {
        self.free.borrow_mut().push(buf);
    }

    /// Buffers currently waiting on the free list.
    pub fn free_buffers(&self) -> usize {
        self.free.borrow().len()
    }
}

/// Frame-of-reference bit-packed integers: `stored(i) = value(i) - min`,
/// packed at a fixed per-column bit width.
#[derive(Clone, Debug, PartialEq)]
pub struct PackedInts {
    words: AlignedBuf,
    len: usize,
    width: u32,
    min: i64,
}

impl PackedInts {
    /// Encode a slice, choosing the width from the observed min/max.
    pub fn encode<T: Copy + Into<i64>>(vals: &[T], arena: &Arena) -> PackedInts {
        let mut min = i64::MAX;
        let mut max = i64::MIN;
        for &v in vals {
            let v: i64 = v.into();
            min = min.min(v);
            max = max.max(v);
        }
        if vals.is_empty() {
            return PackedInts {
                words: arena.alloc(0),
                len: 0,
                width: 0,
                min: 0,
            };
        }
        let range = max as i128 - min as i128;
        let width = if range == 0 {
            0
        } else if range >= 1i128 << MAX_PACKED_WIDTH {
            64 // raw fallback: range wider than a fused kernel can decode
        } else {
            64 - (range as u64).leading_zeros()
        };
        match width {
            0 => PackedInts {
                words: arena.alloc(0),
                len: vals.len(),
                width: 0,
                min,
            },
            64 => {
                let mut words = arena.alloc(vals.len());
                for (w, &v) in words.as_mut_slice().iter_mut().zip(vals) {
                    *w = Into::<i64>::into(v) as u64;
                }
                PackedInts {
                    words,
                    len: vals.len(),
                    width: 64,
                    min: 0,
                }
            }
            w => {
                // +1 trailing pad word: SIMD kernels gather 8 bytes at
                // byte offset (i*w)>>3, which may run past the last
                // payload byte by up to 7 + ceil(w/8) bytes.
                let payload = (vals.len() * w as usize).div_ceil(64);
                let mut words = arena.alloc(payload + 1);
                let slice = words.as_mut_slice();
                for (i, &v) in vals.iter().enumerate() {
                    let delta = (Into::<i64>::into(v).wrapping_sub(min)) as u64;
                    let bit = i * w as usize;
                    let word = bit >> 6;
                    let sh = bit & 63;
                    slice[word] |= delta << sh;
                    if sh + w as usize > 64 {
                        slice[word + 1] |= delta >> (64 - sh);
                    }
                }
                PackedInts {
                    words,
                    len: vals.len(),
                    width: w,
                    min,
                }
            }
        }
    }

    /// Number of encoded values.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Bits per stored value (0 for all-equal columns, 64 for the raw
    /// fallback, otherwise `<= MAX_PACKED_WIDTH`).
    #[inline]
    pub fn width(&self) -> u32 {
        self.width
    }

    /// Frame of reference subtracted before packing.
    #[inline]
    pub fn min(&self) -> i64 {
        self.min
    }

    /// Mask selecting the low `width` bits of an extracted window.
    #[inline]
    pub fn mask(&self) -> u64 {
        if self.width >= 64 {
            u64::MAX
        } else {
            (1u64 << self.width) - 1
        }
    }

    /// Raw packed word stream (includes the trailing pad word). SIMD
    /// kernels index this as bytes; the pad word keeps every in-range
    /// 8-byte gather inside the allocation.
    #[inline]
    pub fn words(&self) -> &[u64] {
        self.words.as_slice()
    }

    /// Decode one value (scalar path; hot loops use the fused kernels).
    #[inline]
    pub fn get(&self, i: usize) -> i64 {
        debug_assert!(i < self.len);
        match self.width {
            0 => self.min,
            64 => self.words[i] as i64,
            w => {
                let bit = i * w as usize;
                let word = bit >> 6;
                let sh = (bit & 63) as u32;
                let mut v = self.words[word] >> sh;
                if sh + w > 64 {
                    v |= self.words[word + 1] << (64 - sh);
                }
                self.min.wrapping_add((v & self.mask()) as i64)
            }
        }
    }

    /// Decode the dense run of rows `start_row .. start_row + out.len()`
    /// into `out` — the one block decode kernel of the packed format.
    ///
    /// Eight consecutive width-`w` values starting at a row that is a
    /// multiple of eight occupy exactly `w` whole bytes, so inside such
    /// a group every value's byte offset and sub-byte shift is a
    /// compile-time constant of `w`. The width is matched **once per
    /// call** to a const-generic loop over whole groups; the rows before
    /// the first and after the last whole group go through [`get`].
    /// All-equal columns fill, raw columns copy.
    ///
    /// [`get`]: PackedInts::get
    pub fn unpack(&self, start_row: usize, out: &mut [i64]) {
        // Not a debug_assert: the window reads below rely on it.
        assert!(
            start_row <= self.len && out.len() <= self.len - start_row,
            "unpack of rows {start_row}..+{} beyond a column of {}",
            out.len(),
            self.len
        );
        match self.width {
            0 => out.fill(self.min),
            64 => {
                for (o, &w) in out.iter_mut().zip(&self.words[start_row..]) {
                    *o = w as i64;
                }
            }
            w => {
                let head = ((GROUP - start_row % GROUP) % GROUP).min(out.len());
                let (head_out, rest) = out.split_at_mut(head);
                for (k, o) in head_out.iter_mut().enumerate() {
                    *o = self.get(start_row + k);
                }
                let first_group = (start_row + head) / GROUP;
                let whole = rest.len() / GROUP * GROUP;
                let (groups_out, tail_out) = rest.split_at_mut(whole);
                // SAFETY: every row the groups cover is in bounds (the
                // assert above), and `width <= MAX_PACKED_WIDTH` plus the
                // trailing pad word keep the 8-byte window of any
                // in-bounds row inside the allocation — group
                // `first_group + g` starts at byte `(first_group + g) * w`
                // and its value `j` reads the window of row
                // `(first_group + g) * 8 + j`.
                unsafe {
                    let src = (self.words.as_ptr() as *const u8).add(first_group * w as usize);
                    unpack_groups(w, src, self.min, groups_out);
                }
                let tail_row = start_row + head + whole;
                for (k, o) in tail_out.iter_mut().enumerate() {
                    *o = self.get(tail_row + k);
                }
            }
        }
    }

    /// Decode everything into `out` (test oracle / fallback path).
    pub fn decode_into(&self, out: &mut Vec<i64>) {
        out.clear();
        out.resize(self.len, 0);
        self.unpack(0, out);
    }

    /// Allocated payload bytes (what a full scan actually touches).
    pub fn byte_size(&self) -> usize {
        self.words.len() * 8
    }
}

/// Values per unpack group: eight width-`w` values are `w` whole bytes.
const GROUP: usize = 8;

/// Decode whole groups of eight width-`W` values from `src` into `out`.
/// `W` is a constant, so after unrolling each of the eight extractions
/// is a load at a fixed displacement, an immediate shift and a mask.
///
/// # Safety
/// `out.len()` is a multiple of eight, `src` points at the first byte of
/// a group of a width-`W` payload, and the 8-byte window of every value
/// decoded lies inside that payload's allocation.
unsafe fn unpack_groups_w<const W: usize>(src: *const u8, min: i64, out: &mut [i64]) {
    let mask = (1u64 << W) - 1;
    for (g, group) in out.chunks_exact_mut(GROUP).enumerate() {
        // SAFETY: group `g` starts `g * W` bytes in (caller's contract).
        let base = unsafe { src.add(g * W) };
        for (j, o) in group.iter_mut().enumerate() {
            let bit = j * W;
            // SAFETY: the window of an in-bounds value (caller's
            // contract: MAX_PACKED_WIDTH + the trailing pad word).
            let win = unsafe { base.add(bit >> 3).cast::<u64>().read_unaligned() };
            *o = min.wrapping_add(((win >> (bit & 7)) & mask) as i64);
        }
    }
}

/// The single width dispatch of [`PackedInts::unpack`]: one `match` per
/// call, expanded over every packed width.
///
/// # Safety
/// As [`unpack_groups_w`], with `width` in `1..=MAX_PACKED_WIDTH` the
/// payload's width.
unsafe fn unpack_groups(width: u32, src: *const u8, min: i64, out: &mut [i64]) {
    macro_rules! dispatch {
        ($($w:literal)*) => {
            match width {
                // SAFETY: forwarded contract; the arm fixes W = width.
                $($w => unsafe { unpack_groups_w::<$w>(src, min, out) },)*
                _ => unreachable!("packed width {width} outside 1..={MAX_PACKED_WIDTH}"),
            }
        };
    }
    dispatch!(1 2 3 4 5 6 7 8 9 10 11 12 13 14 15 16 17 18 19 20 21 22 23 24 25 26 27 28 29
              30 31 32 33 34 35 36 37 38 39 40 41 42 43 44 45 46 47 48 49 50 51 52 53 54 55 56 57)
}

/// Dictionary-coded string column: one `u8` code per row plus a sorted
/// dictionary kept as a [`StrColumn`] decode target.
#[derive(Clone, Debug, PartialEq)]
pub struct DictStrColumn {
    codes: AlignedBuf,
    len: usize,
    dict: StrColumn,
}

impl DictStrColumn {
    /// Encode a string column; `None` if it has more than 256 distinct
    /// values (the column stays flat).
    pub fn encode(col: &StrColumn, arena: &Arena) -> Option<DictStrColumn> {
        let mut ids: BTreeMap<&[u8], u8> = BTreeMap::new();
        for i in 0..col.len() {
            let bytes = col.get_bytes(i);
            if !ids.contains_key(bytes) {
                if ids.len() > u8::MAX as usize {
                    return None;
                }
                let n = ids.len() as u8;
                ids.insert(bytes, n);
            }
        }
        // BTreeMap iteration is sorted; renumber so codes follow the
        // dictionary's sort order (deterministic across loads).
        let mut dict = StrColumn::new();
        let mut remap = vec![0u8; ids.len()];
        for (sorted, (bytes, id)) in ids.iter().enumerate() {
            remap[*id as usize] = sorted as u8;
            dict.push(std::str::from_utf8(bytes).expect("StrColumn holds UTF-8"));
        }
        let mut codes = arena.alloc(col.len().div_ceil(8));
        {
            // SAFETY: the buffer holds >= len bytes; u8 writes need no
            // further invariant.
            let bytes = unsafe {
                std::slice::from_raw_parts_mut(codes.as_mut_slice().as_mut_ptr() as *mut u8, col.len())
            };
            for (i, b) in bytes.iter_mut().enumerate() {
                *b = remap[ids[col.get_bytes(i)] as usize];
            }
        }
        Some(DictStrColumn {
            codes,
            len: col.len(),
            dict,
        })
    }

    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Per-row codes; indexes into [`DictStrColumn::dict`].
    #[inline]
    pub fn codes(&self) -> &[u8] {
        self.codes.as_bytes(self.len)
    }

    /// The sorted dictionary (decode target).
    #[inline]
    pub fn dict(&self) -> &StrColumn {
        &self.dict
    }

    /// Code for `s`, if the dictionary contains it. Query predicates
    /// translate their string constant once per query, then compare
    /// codes in the scan.
    pub fn code_of(&self, s: &str) -> Option<u8> {
        (0..self.dict.len())
            .find(|&c| self.dict.get(c) == s)
            .map(|c| c as u8)
    }

    #[inline]
    pub fn get(&self, i: usize) -> &str {
        self.dict.get(self.codes()[i] as usize)
    }

    /// Rebuild the flat column (test oracle / fallback path).
    pub fn decode(&self) -> StrColumn {
        let mut out = StrColumn::new();
        for i in 0..self.len {
            out.push(self.get(i));
        }
        out
    }

    /// Bytes a full scan touches: the code array (the dictionary is
    /// cache-resident and amortised across the scan).
    pub fn byte_size(&self) -> usize {
        self.len
    }
}

/// A compressed companion representation of one [`ColumnData`].
#[derive(Clone, Debug, PartialEq)]
pub enum EncodedColumn {
    PackedI32(PackedInts),
    PackedI64(PackedInts),
    PackedDate(PackedInts),
    DictStr(DictStrColumn),
}

impl EncodedColumn {
    /// Encode a flat column, or `None` when no encoding applies
    /// (`Char` columns are already one byte/row; high-cardinality
    /// strings stay flat).
    pub fn from_column(col: &ColumnData, arena: &Arena) -> Option<EncodedColumn> {
        match col {
            ColumnData::I32(v) => Some(EncodedColumn::PackedI32(PackedInts::encode(v, arena))),
            ColumnData::I64(v) => Some(EncodedColumn::PackedI64(PackedInts::encode(v, arena))),
            ColumnData::Date(v) => Some(EncodedColumn::PackedDate(PackedInts::encode(v, arena))),
            ColumnData::Char(_) => None,
            ColumnData::Str(v) => DictStrColumn::encode(v, arena).map(EncodedColumn::DictStr),
        }
    }

    pub fn len(&self) -> usize {
        match self {
            EncodedColumn::PackedI32(p) | EncodedColumn::PackedI64(p) | EncodedColumn::PackedDate(p) => {
                p.len()
            }
            EncodedColumn::DictStr(d) => d.len(),
        }
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Bits per row a scan of this representation touches.
    pub fn bits_per_value(&self) -> usize {
        match self {
            EncodedColumn::PackedI32(p) | EncodedColumn::PackedI64(p) | EncodedColumn::PackedDate(p) => {
                p.width() as usize
            }
            EncodedColumn::DictStr(_) => 8,
        }
    }

    /// Payload bytes of the encoded form.
    pub fn byte_size(&self) -> usize {
        match self {
            EncodedColumn::PackedI32(p) | EncodedColumn::PackedI64(p) | EncodedColumn::PackedDate(p) => {
                p.byte_size()
            }
            EncodedColumn::DictStr(d) => d.byte_size(),
        }
    }

    /// The packed-integer payload; panics on a dictionary column
    /// (plan-construction error, mirrors [`ColumnData`] accessors).
    #[inline]
    pub fn packed(&self) -> &PackedInts {
        match self {
            EncodedColumn::PackedI32(p) | EncodedColumn::PackedI64(p) | EncodedColumn::PackedDate(p) => p,
            EncodedColumn::DictStr(_) => panic!("expected packed column, found dict"),
        }
    }

    /// The dictionary payload; panics on a packed column.
    #[inline]
    pub fn dict_str(&self) -> &DictStrColumn {
        match self {
            EncodedColumn::DictStr(d) => d,
            other => panic!("expected dict column, found {other:?}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn arena() -> Arena {
        Arena::new()
    }

    #[test]
    fn packed_roundtrip_basic() {
        let a = arena();
        let vals: Vec<i32> = vec![7, 3, 12, 7, 0, 255, 19];
        let p = PackedInts::encode(&vals, &a);
        assert_eq!(p.len(), vals.len());
        assert_eq!(p.min(), 0);
        assert_eq!(p.width(), 8);
        for (i, &v) in vals.iter().enumerate() {
            assert_eq!(p.get(i), v as i64);
        }
    }

    #[test]
    fn packed_frame_of_reference() {
        let a = arena();
        let vals: Vec<i64> = vec![1_000_000, 1_000_003, 1_000_001];
        let p = PackedInts::encode(&vals, &a);
        assert_eq!(p.min(), 1_000_000);
        assert_eq!(p.width(), 2);
        let mut out = Vec::new();
        p.decode_into(&mut out);
        assert_eq!(out, vals);
    }

    #[test]
    fn packed_all_equal_is_width_zero() {
        let a = arena();
        let p = PackedInts::encode(&vec![42i32; 1000], &a);
        assert_eq!(p.width(), 0);
        assert_eq!(p.byte_size(), 0);
        assert_eq!(p.get(999), 42);
    }

    #[test]
    fn packed_single_row_and_empty() {
        let a = arena();
        let one = PackedInts::encode(&[-7i64], &a);
        assert_eq!(one.width(), 0);
        assert_eq!(one.get(0), -7);
        let none = PackedInts::encode::<i32>(&[], &a);
        assert_eq!(none.len(), 0);
    }

    #[test]
    fn packed_raw_fallback_for_huge_range() {
        let a = arena();
        let vals = vec![i64::MIN, 0, i64::MAX];
        let p = PackedInts::encode(&vals, &a);
        assert_eq!(p.width(), 64);
        for (i, &v) in vals.iter().enumerate() {
            assert_eq!(p.get(i), v);
        }
    }

    #[test]
    fn packed_negative_frame() {
        let a = arena();
        let vals: Vec<i32> = vec![-50, -20, -50, -21];
        let p = PackedInts::encode(&vals, &a);
        assert_eq!(p.min(), -50);
        assert_eq!(p.width(), 5);
        let mut out = Vec::new();
        p.decode_into(&mut out);
        assert_eq!(out, vec![-50, -20, -50, -21]);
    }

    /// `rows` values whose packed form has exactly `width` bits (0 =
    /// all-equal, 64 = raw fallback): rows 0 and 1 pin the range's two
    /// ends, the rest are a multiplicative-hash scramble inside it.
    fn column_of_width(width: u32, rows: usize) -> Vec<i64> {
        let min = -17i64;
        (0..rows as u64)
            .map(|i| match (width, i) {
                (0, _) => min,
                (64, 0) => i64::MIN,
                (64, 1) => i64::MAX,
                (64, _) => i.wrapping_mul(0x9e37_79b9_7f4a_7c15) as i64,
                (w, 0) => min + ((1u64 << w) - 1) as i64,
                (_, 1) => min,
                (w, _) => min + (i.wrapping_mul(0x9e37_79b9_7f4a_7c15) >> (64 - w)) as i64,
            })
            .collect()
    }

    /// Property suite for the block decode kernel: every width × start
    /// × length, against the encoded source values and against `get`.
    /// Starts off the group-of-eight grid take the head path, lengths
    /// that are not whole groups the tail path, and every run reaching
    /// `rows` decodes the last row, whose 8-byte window extends into the
    /// pad word.
    #[test]
    fn unpack_matches_get_for_every_width_start_and_length() {
        // Miri runs at interpreter speed: shrink the sweep there while
        // keeping sub-byte, byte-multiple, widest, all-equal and raw
        // columns and every head/tail shape.
        let widths: Vec<u32> = if cfg!(miri) {
            vec![0, 1, 12, 31, 56, 57, 64]
        } else {
            (0..=MAX_PACKED_WIDTH).chain([64]).collect()
        };
        let rows: usize = if cfg!(miri) { 141 } else { 301 };
        let a = arena();
        let mut out = vec![0i64; rows];
        for w in widths {
            let vals = column_of_width(w, rows);
            let p = PackedInts::encode(&vals, &a);
            assert_eq!(p.width(), w, "fixture width");
            for start in [0, 1, 7, 8, 9, 63, 64, 65, rows / 2, rows - 1, rows] {
                for len in [0, 1, 7, 8, 9, 63, 64, 127, 128, 129, rows - start] {
                    if start + len > rows {
                        continue;
                    }
                    out.fill(i64::MIN + 1);
                    p.unpack(start, &mut out[..len]);
                    for k in 0..len {
                        assert_eq!(
                            out[k],
                            vals[start + k],
                            "width {w} start {start} len {len} row +{k}"
                        );
                        assert_eq!(out[k], p.get(start + k), "width {w}: unpack vs get");
                    }
                    assert!(
                        out[len..].iter().all(|&v| v == i64::MIN + 1),
                        "width {w} start {start} len {len}: wrote past the run"
                    );
                }
            }
            a.recycle(p.words);
        }
    }

    #[test]
    #[should_panic(expected = "beyond a column of 10")]
    fn unpack_rejects_runs_past_the_column() {
        let p = PackedInts::encode(&column_of_width(9, 10), &arena());
        p.unpack(3, &mut [0i64; 8]);
    }

    #[test]
    fn aligned_buf_is_cache_line_aligned() {
        let b = AlignedBuf::new_zeroed(3);
        assert_eq!(b.as_slice().as_ptr() as usize % 64, 0);
        assert_eq!(b.len(), 3);
        assert_eq!(b.as_slice(), &[0, 0, 0]);
        let c = b.clone();
        assert_eq!(c, b);
    }

    #[test]
    fn arena_recycles_buffers() {
        let a = arena();
        let p = PackedInts::encode(&[1i32, 2, 3, 4], &a);
        let words_before = p.words.capacity();
        a.recycle(p.words);
        assert_eq!(a.free_buffers(), 1);
        let reused = a.alloc(1);
        assert!(reused.capacity() >= words_before.min(1));
        assert_eq!(a.free_buffers(), 0);
        assert!(
            reused.as_slice().iter().all(|&w| w == 0),
            "reused buffer rezeroed"
        );
    }

    #[test]
    fn dict_roundtrip_and_codes() {
        let a = arena();
        let col: StrColumn = ["MAIL", "AIR", "SHIP", "AIR", "MAIL"].into_iter().collect();
        let d = DictStrColumn::encode(&col, &a).expect("low cardinality");
        assert_eq!(d.len(), 5);
        assert_eq!(d.dict().len(), 3);
        // Sorted dictionary: AIR < MAIL < SHIP.
        assert_eq!(d.code_of("AIR"), Some(0));
        assert_eq!(d.code_of("MAIL"), Some(1));
        assert_eq!(d.code_of("SHIP"), Some(2));
        assert_eq!(d.code_of("TRUCK"), None);
        assert_eq!(d.codes(), &[1, 0, 2, 0, 1]);
        assert_eq!(d.decode(), col);
    }

    #[test]
    fn dict_rejects_high_cardinality() {
        let a = arena();
        let col: StrColumn = (0..300)
            .map(|i| format!("s{i}"))
            .collect::<Vec<_>>()
            .iter()
            .map(|s| s.as_str())
            .collect();
        assert!(DictStrColumn::encode(&col, &a).is_none());
    }

    #[test]
    fn dict_exactly_256_values_fits() {
        let a = arena();
        let strings: Vec<String> = (0..256).map(|i| format!("v{i:03}")).collect();
        let col: StrColumn = strings.iter().map(|s| s.as_str()).collect();
        let d = DictStrColumn::encode(&col, &a).expect("256 fits u8");
        assert_eq!(d.dict().len(), 256);
        assert_eq!(d.decode(), col);
    }

    #[test]
    fn from_column_dispatch() {
        let a = arena();
        assert!(matches!(
            EncodedColumn::from_column(&ColumnData::I32(vec![1, 2]), &a),
            Some(EncodedColumn::PackedI32(_))
        ));
        assert!(matches!(
            EncodedColumn::from_column(&ColumnData::Date(vec![100, 200]), &a),
            Some(EncodedColumn::PackedDate(_))
        ));
        assert!(EncodedColumn::from_column(&ColumnData::Char(vec![b'A']), &a).is_none());
        let enc = EncodedColumn::from_column(&ColumnData::I64(vec![500, 510]), &a).unwrap();
        assert_eq!(enc.bits_per_value(), 4);
        assert_eq!(enc.packed().min(), 500);
    }
}
