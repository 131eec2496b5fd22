//! Vector-at-a-time chunk delivery on top of morsel-driven scans.
//!
//! A worker claims morsels (§6.1) and slices them into vectors of the
//! configured size; §4.3's Fig. 5 sweeps this size from 1 to "Max"
//! (full materialization, the MonetDB end of the spectrum). With the
//! shared scheduler, scan bodies receive one morsel range at a time and
//! slice it locally via [`chunks`].

use std::ops::Range;

/// The paper's default vector size ("1,000 tuples, the default in
/// VectorWise"; we use the power of two the reference implementation
/// picks).
pub const DEFAULT_VECTOR_SIZE: usize = 1024;

/// Slice one morsel range into consecutive vectors of at most
/// `vector_size` tuples — the per-morsel chunk loop of a scheduler-run
/// scan body. Chunks never cross the morsel boundary.
pub fn chunks(range: Range<usize>, vector_size: usize) -> Chunks {
    assert!(vector_size > 0, "vector size must be positive");
    Chunks { range, vector_size }
}

/// Iterator of vector-sized sub-ranges; see [`chunks`].
pub struct Chunks {
    range: Range<usize>,
    vector_size: usize,
}

impl Iterator for Chunks {
    type Item = Range<usize>;

    #[inline]
    fn next(&mut self) -> Option<Range<usize>> {
        if self.range.is_empty() {
            return None;
        }
        let start = self.range.start;
        let end = start.saturating_add(self.vector_size).min(self.range.end);
        self.range.start = end;
        Some(start..end)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chunks_tile_a_morsel_range() {
        let tiles: Vec<_> = chunks(100..1100, 256).collect();
        assert_eq!(tiles, vec![100..356, 356..612, 612..868, 868..1100]);
        assert!(chunks(7..7, 256).next().is_none());
        // Degenerate "Max" vector size must not overflow.
        assert_eq!(chunks(5..50, usize::MAX).collect::<Vec<_>>(), vec![5..50]);
        // Vector size 1 degrades to tuple-at-a-time.
        assert_eq!(chunks(3..6, 1).collect::<Vec<_>>(), vec![3..4, 4..5, 5..6]);
    }
}
