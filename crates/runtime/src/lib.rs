//! Shared execution substrate.
//!
//! Everything in this crate is used by *both* engines, which is the core
//! methodological requirement of the paper (§3): identical algorithms and
//! data structures, so that vectorized-versus-compiled is the only
//! difference.
//!
//! * [`hash`] — Murmur2-64A (Tectorwise's hash) and a CRC32C-based 64-bit
//!   hash (Typer's hash), §4.1.
//! * [`join_ht`] — chaining join hash table whose directory words carry a
//!   16-bit Bloom-filter-like tag in the unused pointer bits, §3.2.
//! * [`agg_ht`] — aggregation hash table plus the two-phase
//!   (pre-aggregate, spill to partitions, final aggregate) group-by
//!   machinery, §3.2.
//! * morsel-driven work distribution now lives in `dbep-scheduler`
//!   (atomic cursor over fixed-size tuple ranges, pipeline barriers,
//!   and the shared inter-query worker pool, §6.1); the dispenser and
//!   the spawn-per-query fallback are re-exported here for the
//!   execution layers.
//! * [`counters`] — `perf_event_open` CPU counters with graceful
//!   degradation, used to produce Table 1 / Fig. 4 / Fig. 7.
//! * [`simd`] — runtime ISA detection for the SIMD primitives of §5.

pub mod agg_ht;
pub mod counters;
pub mod hash;
pub mod join_ht;
pub mod rng;
pub mod simd;

pub use agg_ht::{AggHt, GroupByShard, PARTITION_COUNT, PREAGG_GROUPS};
pub use counters::{CounterSet, CounterValues};
pub use dbep_scheduler::{scope_workers, ExecCtx, Morsels, MORSEL_TUPLES};
pub use hash::{crc64, hash_bytes_murmur2, murmur2, rehash_crc, rehash_murmur2, HashFn};
pub use join_ht::JoinHt;
pub use rng::SmallRng;
pub use simd::{simd_level, SimdLevel};
