//! Exchange-style intra-query parallelism for the Volcano engine.
//!
//! Volcano's classic answer to parallelism is the *exchange* operator
//! (Graefe): the plan itself stays single-threaded, and an operator
//! boundary fans tuples out to worker instances of the sub-plan and
//! unions their outputs. We implement the degenerate but general form
//! the study's plans need: each worker opens an instance of one
//! pipeline whose *driving* source claims morsels from a shared cursor
//! ([`crate::ops::Scan::morsel_driven`]), and drains it into a shard of
//! its own.
//!
//! [`crate::Plan::run`] runs every pipeline of a plan this way, one
//! after another: each join's build side first, its worker shards
//! merged into the one read-only table all workers of the probe
//! pipeline borrow, then the probe pipeline from the plan's driving
//! scan, whose partial rows it concatenates.

use crate::expr::Expr;
use crate::ops::{build, BoxOp, Shard};
use dbep_runtime::ExecCtx;

/// Run `make_plan(worker)` on one worker instance per degree of
/// parallelism and drain each instance into a shard of its own, made by
/// `init` and keyed by `keys`. Instances are dispensed as unit tasks
/// through `exec` — drained by the shared pool's workers when one is
/// attached, by scoped threads otherwise (inline on the caller for a
/// single-threaded context).
///
/// **Scheduling granularity caveat:** each unit task drains an entire
/// pipeline instance, because Volcano operators hold state across the
/// whole scan. On a shared pool this makes a Volcano pipeline
/// coarse-grained: a worker that picks up an instance keeps it until
/// the pipeline is exhausted, so the morsel-level inter-query fairness
/// the scheduler gives Typer/Tectorwise does not apply within one, and
/// long interpreted queries can head-of-line-block a small pool.
/// Serving mixes include Volcano all the same — `experiments serve` and
/// `load` sweep every selectable engine by default, and the benchmark's
/// `serve_mix` runs it — so its requests set the tail there.
pub(crate) fn shards<'a, S, F>(
    exec: &ExecCtx,
    keys: &[Expr],
    init: impl Fn() -> S + Sync,
    make_plan: F,
) -> Vec<S>
where
    S: Shard,
    F: Fn(usize) -> BoxOp<'a> + Sync,
{
    exec.map_parts(exec.parallelism(), |w| build(make_plan(w), keys, init()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::{CmpOp, Expr};
    use crate::ops::{Row, Scan, Select};
    use dbep_runtime::Morsels;
    use dbep_storage::{ColumnData, Table};

    #[test]
    fn partitioned_scan_union_covers_all_rows() {
        let mut t = Table::new("t");
        let n = 50_000;
        t.add_column("k", ColumnData::I32((0..n).collect()));
        for threads in [1usize, 4] {
            let m = Morsels::new(n as usize);
            let rows: Vec<Vec<Row>> = shards(&ExecCtx::spawn(threads), &[], Vec::new, |_| {
                Box::new(Select {
                    input: Box::new(Scan::new(&t, &["k"]).morsel_driven(&m)),
                    pred: Expr::cmp(CmpOp::Lt, Expr::col(0), Expr::lit_i32(10_000)),
                })
            });
            assert_eq!(rows.len(), threads, "one shard per worker");
            assert_eq!(Vec::merge(rows).len(), 10_000, "{threads} threads");
        }
    }
}
