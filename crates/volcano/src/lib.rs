//! Classic **Volcano-style** tuple-at-a-time interpreter.
//!
//! The paper's introduction frames both modern paradigms against this
//! traditional model: pull-based `next()` returning one tuple, virtual
//! dispatch per operator per tuple, and expression *interpretation* with
//! type dispatch per value (§1, §4.2, Table 6 row "System R"). We build
//! it as the third engine to
//!
//! * stand in for the interpretation-overhead baseline of Table 2
//!   (DESIGN.md substitution 5),
//! * cover the pull+interpretation corner of the §9.2 taxonomy, and
//! * cross-validate results: every query must return the same rows on
//!   Volcano, Typer and Tectorwise.
//!
//! It keeps the interpretation costs that *are* the model being
//! contrasted: one virtual `next()` per operator per tuple through boxed
//! operators, a runtime-typed [`Val`] per value with type dispatch on
//! every use, and an [`Expr`] tree walked per tuple. The allocator is not
//! one of those costs: operators overwrite a [`Row`] buffer their caller
//! owns and hash operators probe by a reused key buffer, so a plan
//! allocates per inserted build row and group, never per scanned tuple.
//! Nor is a hash table of its own: its joins build and probe the
//! runtime's [`dbep_runtime::JoinHt`] and its aggregates fold into the
//! runtime's [`dbep_runtime::GroupByShard`]s, the tables Typer and
//! Tectorwise use, keyed by the runtime's Murmur2 over the key's values.
//!
//! A query is a [`Plan`] value — scans, selections, projections, joins
//! and aggregates over named tables — and [`Plan::run`] is the one
//! interpreter. It runs every pipeline of the plan on the scheduler's
//! one morsel driver, as Typer and Tectorwise do: for each morsel of the
//! pipeline's driving scan a worker opens the pipeline's operators over
//! that morsel and drains them into a shard of its own. Every join's
//! build side runs once this way, into one read-only table all workers
//! probe; every aggregate's shards are merged one non-empty hash
//! partition per morsel; every scan is paced and recorded, and the
//! workers' rows are concatenated.

pub mod expr;
pub mod ops;
pub mod plan;

pub use expr::{BinOp, CmpOp, Expr, Val};
pub use ops::{
    AggSpec, Aggregate, BoxOp, HashJoin, JoinShard, KeyShard, Operator, Project, Row, Scan, Select, SemiJoin,
    Shard,
};
pub use plan::Plan;
