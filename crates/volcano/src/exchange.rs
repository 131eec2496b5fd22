//! Exchange-style intra-query parallelism for the Volcano engine.
//!
//! Volcano's classic answer to parallelism is the *exchange* operator
//! (Graefe): the plan itself stays single-threaded, and an operator
//! boundary fans tuples out to worker instances of the sub-plan and
//! unions their outputs. We implement the degenerate but general form
//! used by all the study's plans: each worker builds a complete instance
//! of the plan whose *driving scan* claims morsels from a shared cursor
//! ([`crate::ops::Scan::morsel_driven`]), so the probe-side input is
//! partitioned while blocking build sides (hash tables, sub-aggregates)
//! are constructed redundantly per worker — the honest cost model of a
//! baseline interpreter without shared operator state.
//!
//! [`crate::Plan::run`] builds the worker instances, partitions the
//! driving scan and merges the unioned partial rows (re-aggregating them when
//! the plan's root is an aggregate).

use crate::ops::{collect, BoxOp, Row};
use dbep_runtime::ExecCtx;

/// Run `make_plan(worker)` on one worker instance per degree of
/// parallelism and union all produced rows. Instances are dispensed as
/// unit tasks through `exec` — drained by the shared pool's workers
/// when one is attached, by scoped threads otherwise (inline on the
/// caller for a single-threaded context).
///
/// **Scheduling granularity caveat:** each unit task drains an entire
/// plan instance, because Volcano operators hold state across the whole
/// scan (that per-instance state *is* the honest cost model of the
/// baseline interpreter). On a shared pool this makes a Volcano query
/// coarse-grained: a worker that picks up an instance keeps it until
/// the plan is exhausted, so the morsel-level inter-query fairness the
/// scheduler gives Typer/Tectorwise does not apply within a Volcano
/// plan, and long interpreted queries can head-of-line-block a small
/// pool. Serving mixes include Volcano all the same — `experiments
/// serve` and `load` sweep every selectable engine by default, and the
/// benchmark's `serve_mix` runs it — so its requests set the tail there.
pub fn union<'a, F>(exec: &ExecCtx, make_plan: F) -> Vec<Row>
where
    F: Fn(usize) -> BoxOp<'a> + Sync,
{
    exec.map_parts(exec.parallelism(), |w| collect(make_plan(w)))
        .into_iter()
        .flatten()
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::{CmpOp, Expr};
    use crate::ops::{Scan, Select};
    use dbep_runtime::Morsels;
    use dbep_storage::{ColumnData, Table};

    #[test]
    fn partitioned_scan_union_covers_all_rows() {
        let mut t = Table::new("t");
        let n = 50_000;
        t.add_column("k", ColumnData::I32((0..n).collect()));
        for threads in [1usize, 4] {
            let m = Morsels::new(n as usize);
            let rows = union(&ExecCtx::spawn(threads), |_| {
                Box::new(Select {
                    input: Box::new(Scan::new(&t, &["k"]).morsel_driven(&m)),
                    pred: Expr::cmp(CmpOp::Lt, Expr::col(0), Expr::lit_i32(10_000)),
                })
            });
            assert_eq!(rows.len(), 10_000, "{threads} threads");
        }
    }
}
