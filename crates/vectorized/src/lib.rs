//! **Tectorwise** — the vectorized engine (§2.1–§2.2).
//!
//! Vectorized execution follows two hard constraints the paper derives:
//! every primitive (i) works on exactly one data type and (ii) processes
//! a whole vector of tuples per call. Operators are therefore decomposed
//! into *interpretation logic* (plan wiring, here: the query functions in
//! `dbep-queries`) and *primitives* (this crate) that do all the work and
//! materialize their results into vectors.
//!
//! Conventions shared by all primitives:
//!
//! * a **selection vector** is a `Vec<u32>` of *global row indices* into
//!   the scanned table (ascending within a chunk);
//! * the *first* selection primitive of a cascade runs over a dense chunk
//!   (`col[chunk]`, producing `base + i`); later primitives consume a
//!   selection vector and gather sparsely (§5.1's "sparse data loading");
//! * map/hash primitives produce *dense* outputs aligned index-for-index
//!   with their input selection vector;
//! * scalar selection uses predicated evaluation (`*res = i; res += cond`)
//!   exactly as §2.1 describes; SIMD variants use AVX-512 compress-store
//!   (or an AVX2 permutation-table fallback) as §5.1 describes.
//!
//! [`SimdPolicy`] chooses between the scalar baseline, hand-written SIMD
//! (§5) and the auto-vectorization variants (§5.3) at plan level.

pub mod chunk;
pub mod col;
pub mod gather;
pub mod grouping;
pub mod hashp;
pub mod map;
pub mod probe;
pub mod sel;

pub use chunk::{chunks, Chunks, DEFAULT_VECTOR_SIZE};
pub use col::Col;
pub use probe::ProbeBuffers;

/// Which implementation of the hot primitives a plan uses (§5).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SimdPolicy {
    /// Branch-free scalar baseline (compiled for baseline x86-64).
    Scalar,
    /// Hand-written intrinsics, dispatched on the detected ISA.
    Simd,
    /// Plain loops compiled with 512-bit features enabled, letting the
    /// compiler auto-vectorize (Fig. 10 substitution).
    Auto,
}

impl SimdPolicy {
    /// True if this policy may execute AVX-512 code paths.
    pub fn wants_simd(self) -> bool {
        !matches!(self, SimdPolicy::Scalar)
    }
}
