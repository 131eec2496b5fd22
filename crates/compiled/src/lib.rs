//! **Typer** — the data-centric compiled engine (§2, Fig. 2a).
//!
//! Data-centric code generation fuses all non-blocking operators of a
//! query pipeline into one tight loop that keeps attribute values in CPU
//! registers. The paper generates that code at query time (HyPer emits
//! LLVM IR, the paper's test system emits C++) and explicitly excludes
//! compilation time from every measurement; what is measured is the
//! *execution of the fused loops*. This crate therefore represents the
//! generator's **output** directly in Rust (see DESIGN.md substitution 1):
//!
//! * The Typer bodies of the per-query stages in `dbep-queries::tpch`/
//!   `ssb` are the "generated code" for each physical plan —
//!   hand-written fused loops exactly in the shape of Fig. 2a
//!   (push-based, the consumer's code inside the scan loop, no
//!   materialization between operators), each run over a whole morsel
//!   by the stage's driver call (`ExecCfg::fold`, `build` or
//!   `group_by`) over the shared substrate (`dbep-runtime`'s hash
//!   tables, hash functions and morsel-driven scheduler).
//! * [`scan`] — the column reader of the plans that scan encoded
//!   tables: [`RowScan`] + [`for_each_row!`] run one fused row body
//!   over flat slices or, through [`packed`]'s block-wise unpack, over
//!   bit-packed columns.
//!
//! Pipeline breakers (hash-table build, pre-aggregation) end a fused
//! loop; the next pipeline starts after all workers finish the previous
//! one, mirroring HyPer's barrier-separated pipeline phases (§6.1).

pub mod packed;
pub mod scan;

pub use packed::PackedReader;
pub use scan::RowScan;
