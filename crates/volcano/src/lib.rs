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
//! owns, hash operators probe by a borrowed key buffer, and value-keyed
//! tables hash with the runtime's Murmur2 — so a plan allocates per
//! inserted build row and group, never per scanned tuple.
//!
//! A query is a [`Plan`] value — scans, selections, projections, joins
//! and aggregates over named tables — and [`Plan::run`] is the one
//! interpreter: it opens the operators of [`ops`] for each worker of
//! the [`exchange`] union, paces and records every scan, and merges the
//! workers' partial rows.

pub mod exchange;
pub mod expr;
pub mod ops;
pub mod plan;

pub use expr::{BinOp, CmpOp, Expr, Val};
pub use ops::{AggSpec, Aggregate, BoxOp, HashJoin, Operator, Project, Row, Rows, Scan, Select, SemiJoin};
pub use plan::Plan;
