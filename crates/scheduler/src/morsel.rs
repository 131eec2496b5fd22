//! The lock-free morsel dispenser (§6.1).

use std::ops::Range;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Morsel size cap in tuples: the size of every fixed-size claim
/// ([`Morsels::claim`], the spawn fallback's) and the most one sized
/// claim ([`Morsels::claim_up_to`], the pool's) hands out. HyPer-style
/// systems use 10k–100k; the pool sizes its claims below this to a
/// time slice ([`crate::pool::SLICE`]), so a slow engine's morsel holds a
/// worker about as long as a fast engine's.
pub const MORSEL_TUPLES: usize = 16 * 1024;

/// A lock-free dispenser of tuple ranges over `0..total`.
pub struct Morsels {
    next: AtomicUsize,
    total: usize,
    morsel: usize,
}

impl Morsels {
    pub fn new(total: usize) -> Self {
        Self::with_size(total, MORSEL_TUPLES)
    }

    /// Dispenser with an explicit morsel size. Degenerate sizes are
    /// normalized here — once, instead of at every call site: zero
    /// becomes one tuple, and a morsel larger than the relation is
    /// clamped to the relation (so the claim cursor advances by at most
    /// `total` per claim and repeated claims cannot overflow it even
    /// for `usize::MAX`-sized requests).
    pub fn with_size(total: usize, morsel: usize) -> Self {
        Morsels {
            next: AtomicUsize::new(0),
            total,
            morsel: morsel.clamp(1, total.max(1)),
        }
    }

    /// Claim the next morsel of [`Morsels::morsel_size`] tuples; `None`
    /// once the relation is exhausted.
    #[inline]
    pub fn claim(&self) -> Option<Range<usize>> {
        self.claim_up_to(self.morsel)
    }

    /// Claim the next `n` tuples, `n` clamped to `1..=morsel_size`, so
    /// the dispenser's size stays the cap of every claim; `None` once
    /// the relation is exhausted.
    #[inline]
    pub fn claim_up_to(&self, n: usize) -> Option<Range<usize>> {
        let n = n.clamp(1, self.morsel);
        // ORDERING: Relaxed — the fetch_add's atomicity alone makes the
        // claimed ranges disjoint; the morsel data itself is published
        // by the scheduler's run/join edges, not by this cursor.
        let start = self.next.fetch_add(n, Ordering::Relaxed);
        if start >= self.total {
            return None;
        }
        Some(start..(start + n).min(self.total))
    }

    pub fn total(&self) -> usize {
        self.total
    }

    /// `true` once no future [`Morsels::claim`] can succeed (the cursor
    /// moved past the relation). Observational only — it does not
    /// consume a morsel.
    pub fn is_exhausted(&self) -> bool {
        // ORDERING: Relaxed — advisory snapshot; a stale read only
        // delays the caller by one wasted claim.
        self.next.load(Ordering::Relaxed) >= self.total
    }

    /// The (normalized) morsel size: what [`Morsels::claim`] dispenses
    /// and the cap of [`Morsels::claim_up_to`].
    pub fn morsel_size(&self) -> usize {
        self.morsel
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn morsels_cover_exactly_once() {
        let m = Morsels::with_size(100_000, 1024);
        let mut seen = vec![false; 100_000];
        while let Some(r) = m.claim() {
            for i in r {
                assert!(!seen[i], "tuple {i} dispensed twice");
                seen[i] = true;
            }
        }
        assert!(seen.iter().all(|&b| b), "gap in coverage");
    }

    #[test]
    fn sized_claims_cover_exactly_once_and_never_exceed_the_cap() {
        let m = Morsels::with_size(10_000, 700);
        let mut seen = vec![false; 10_000];
        for n in (0..).map(|i| [0, 1, 5, 699, 700, 701, usize::MAX][i % 7]) {
            let Some(r) = m.claim_up_to(n) else { break };
            assert!(r.len() <= n.clamp(1, 700), "claim of {n} got {r:?}");
            for i in r {
                assert!(!seen[i], "tuple {i} dispensed twice");
                seen[i] = true;
            }
        }
        assert!(seen.iter().all(|&b| b), "gap in coverage");
    }

    #[test]
    fn empty_relation() {
        let m = Morsels::new(0);
        assert!(m.claim().is_none());
    }

    #[test]
    fn oversized_morsel_clamps_to_relation() {
        // morsel > total: one claim hands out the whole relation, and
        // the cursor cannot overflow no matter how often it is bumped.
        let m = Morsels::with_size(10, usize::MAX);
        assert_eq!(m.morsel_size(), 10);
        assert_eq!(m.claim(), Some(0..10));
        for _ in 0..1000 {
            assert!(m.claim().is_none());
        }
    }

    #[test]
    fn zero_morsel_normalizes_to_one() {
        let m = Morsels::with_size(3, 0);
        assert_eq!(m.morsel_size(), 1);
        assert_eq!(m.claim(), Some(0..1));
        assert_eq!(m.claim(), Some(1..2));
        assert_eq!(m.claim(), Some(2..3));
        assert!(m.claim().is_none());
    }

    #[test]
    fn empty_relation_with_degenerate_size() {
        let m = Morsels::with_size(0, 0);
        assert_eq!(m.morsel_size(), 1);
        assert!(m.claim().is_none());
    }
}
