//! A Volcano plan as a value, and the one interpreter that runs it.
//!
//! A [`Plan`] is the physical plan of one query — which tables are
//! scanned, in which column order, what is selected, projected, joined
//! (with which build side) and aggregated — written down once and
//! handed to [`Plan::run`]. The interpreter does the wiring every query
//! needs the same way: it opens every scan paced against the storage
//! device and recorded into the run's byte counter, partitions the one
//! *driving* scan by morsel across the workers of the exchange union
//! ([`crate::exchange`]), and merges the workers' partial rows. The
//! driving scan is the plan's shape, not a mark: the leaf reached from
//! the root through inputs and probe sides, so every plan has exactly
//! one.
//!
//! Interpretation changes nothing about the engine: every worker opens
//! the same boxed operator tree a hand-wired plan would build, so the
//! per-tuple costs that make up the Volcano model stay exactly as they
//! were. The plan also answers questions about itself, such as the
//! §3.4 normalization denominator ([`Plan::tuples_scanned`]).

use crate::exchange;
use crate::expr::Expr;
use crate::ops::{collect, AggSpec, Aggregate, BoxOp, HashJoin, Project, Row, Rows, Scan, Select, SemiJoin};
use dbep_runtime::{ExecCtx, Morsels};
use dbep_scheduler::QueryRun;
use dbep_storage::throttle::Throttle;
use dbep_storage::Database;

/// One physical plan over the tables of a [`Database`]: a tree of the
/// operators of [`crate::ops`].
#[derive(Clone, Debug)]
pub enum Plan {
    /// The named columns of `table`, in order. The driving scan claims
    /// morsels from a cursor all workers share; every other scan (a
    /// build side) is read whole by every worker.
    Scan {
        table: &'static str,
        columns: Vec<&'static str>,
    },
    /// The input tuples satisfying `pred` ([`Select`]).
    Select { input: Box<Plan>, pred: Expr },
    /// `exprs` evaluated over each input tuple ([`Project`]).
    Project { input: Box<Plan>, exprs: Vec<Expr> },
    /// Inner hash join; each output tuple is the build columns followed
    /// by the probe columns ([`HashJoin`]).
    HashJoin {
        build: Box<Plan>,
        build_keys: Vec<Expr>,
        probe: Box<Plan>,
        probe_keys: Vec<Expr>,
    },
    /// The probe tuples with at least one build match ([`SemiJoin`]).
    SemiJoin {
        build: Box<Plan>,
        build_keys: Vec<Expr>,
        probe: Box<Plan>,
        probe_keys: Vec<Expr>,
    },
    /// One row per group: the `group_by` values, then `aggs`
    /// ([`Aggregate`]).
    Aggregate {
        input: Box<Plan>,
        group_by: Vec<Expr>,
        aggs: Vec<AggSpec>,
    },
}

/// What every scan of one run is opened with.
struct Io<'a> {
    db: &'a Database,
    morsels: &'a Morsels,
    throttle: Option<&'a Throttle>,
    recorder: Option<&'a QueryRun>,
}

impl Plan {
    pub fn scan(table: &'static str, columns: &[&'static str]) -> Plan {
        Plan::Scan {
            table,
            columns: columns.to_vec(),
        }
    }

    pub fn select(self, pred: Expr) -> Plan {
        Plan::Select {
            input: Box::new(self),
            pred,
        }
    }

    pub fn project(self, exprs: Vec<Expr>) -> Plan {
        Plan::Project {
            input: Box::new(self),
            exprs,
        }
    }

    /// `self` is the build side, `probe` the probe side.
    pub fn hash_join(self, build_keys: Vec<Expr>, probe: Plan, probe_keys: Vec<Expr>) -> Plan {
        Plan::HashJoin {
            build: Box::new(self),
            build_keys,
            probe: Box::new(probe),
            probe_keys,
        }
    }

    /// `self` is the build side, `probe` the probe side.
    pub fn semi_join(self, build_keys: Vec<Expr>, probe: Plan, probe_keys: Vec<Expr>) -> Plan {
        Plan::SemiJoin {
            build: Box::new(self),
            build_keys,
            probe: Box::new(probe),
            probe_keys,
        }
    }

    pub fn aggregate(self, group_by: Vec<Expr>, aggs: Vec<AggSpec>) -> Plan {
        Plan::Aggregate {
            input: Box::new(self),
            group_by,
            aggs,
        }
    }

    /// The scanned table of every scan, depth first, build side before
    /// probe side.
    fn scans(&self) -> Vec<&'static str> {
        match self {
            Plan::Scan { table, .. } => vec![*table],
            Plan::Select { input, .. } | Plan::Project { input, .. } | Plan::Aggregate { input, .. } => {
                input.scans()
            }
            Plan::HashJoin { build, probe, .. } | Plan::SemiJoin { build, probe, .. } => {
                let mut scans = build.scans();
                scans.extend(probe.scans());
                scans
            }
        }
    }

    /// Total tuples the plan's scans read over `db`: the sum of the row
    /// counts of the scanned tables, one term per scan.
    pub fn tuples_scanned(&self, db: &Database) -> usize {
        self.scans().iter().map(|t| db.table(t).len()).sum()
    }

    /// The table of the driving scan: the leaf at the end of the input
    /// and probe edges from the root.
    fn driving_table(&self) -> &'static str {
        match self {
            Plan::Scan { table, .. } => table,
            Plan::Select { input, .. } | Plan::Project { input, .. } | Plan::Aggregate { input, .. } => {
                input.driving_table()
            }
            Plan::HashJoin { probe, .. } | Plan::SemiJoin { probe, .. } => probe.driving_table(),
        }
    }

    /// Run the plan on one instance per degree of parallelism of `exec`
    /// and merge their outputs. Every scan is paced against `throttle`
    /// and recorded into the run attached to `exec`; the driving scan is
    /// partitioned across the instances. When the root is an
    /// [`Plan::Aggregate`], the partial groups are re-aggregated on the
    /// group columns — counts and 64-bit sums add up as 64-bit sums,
    /// 128-bit sums as 128-bit sums — and an ungrouped aggregate yields
    /// exactly one row, zeros when no tuple qualified. Any other root's
    /// partial rows are concatenated.
    pub fn run(&self, db: &Database, exec: &ExecCtx, throttle: Option<&Throttle>) -> Vec<Row> {
        let morsels = Morsels::new(db.table(self.driving_table()).len());
        let io = Io {
            db,
            morsels: &morsels,
            throttle,
            recorder: exec.run,
        };
        let partials = exchange::union(exec, |_| self.open(&io, true));
        match self {
            Plan::Aggregate { group_by, aggs, .. } => merge(partials, group_by.len(), aggs),
            _ => partials,
        }
    }

    /// Build this worker's operator tree; `driving` holds on the path
    /// from the root through inputs and probe sides. A join opens its
    /// build side first, and drains it on construction.
    fn open<'a>(&self, io: &Io<'a>, driving: bool) -> BoxOp<'a> {
        match self {
            Plan::Scan { table, columns } => {
                let scan = Scan::new(io.db.table(table), columns)
                    .paced(io.throttle)
                    .recorded(io.recorder);
                Box::new(if driving {
                    scan.morsel_driven(io.morsels)
                } else {
                    scan
                })
            }
            Plan::Select { input, pred } => Box::new(Select {
                input: input.open(io, driving),
                pred: pred.clone(),
            }),
            Plan::Project { input, exprs } => Box::new(Project {
                input: input.open(io, driving),
                exprs: exprs.clone(),
            }),
            Plan::HashJoin {
                build,
                build_keys,
                probe,
                probe_keys,
            }
            | Plan::SemiJoin {
                build,
                build_keys,
                probe,
                probe_keys,
            } => {
                let (build, probe) = (build.open(io, false), probe.open(io, driving));
                let (build_keys, probe_keys) = (build_keys.clone(), probe_keys.clone());
                match self {
                    Plan::HashJoin { .. } => Box::new(HashJoin::new(build, build_keys, probe, probe_keys)),
                    _ => Box::new(SemiJoin::new(build, build_keys, probe, probe_keys)),
                }
            }
            Plan::Aggregate {
                input,
                group_by,
                aggs,
            } => Box::new(Aggregate::new(
                input.open(io, driving),
                group_by.clone(),
                aggs.clone(),
            )),
        }
    }
}

/// Re-aggregate the workers' partial rows — `keys` group columns, then
/// one partial per entry of `aggs` — into the final groups.
fn merge(partials: Vec<Row>, keys: usize, aggs: &[AggSpec]) -> Vec<Row> {
    let sums = aggs
        .iter()
        .enumerate()
        .map(|(i, spec)| match spec {
            AggSpec::SumI64(_) | AggSpec::Count => AggSpec::SumI64(Expr::col(keys + i)),
            AggSpec::SumI128(_) => AggSpec::SumI128(Expr::col(keys + i)),
        })
        .collect();
    let (input, group_by) = (Box::new(Rows::new(partials)), (0..keys).map(Expr::col).collect());
    let mut rows = collect(Box::new(Aggregate::new(input, group_by, sums)));
    if keys == 0 && rows.is_empty() {
        rows.push(aggs.iter().map(AggSpec::zero).collect());
    }
    rows
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::{CmpOp, Val};
    use dbep_storage::{ColumnData, Table};

    /// `t(k, g, v)`: 50 000 rows, `k` = `v` = row number, `g` = `k % 4`;
    /// `d(g)`: the two groups 1 and 3.
    fn db() -> Database {
        let n = 50_000;
        let mut t = Table::new("t");
        t.add_column("k", ColumnData::I32((0..n).collect()))
            .add_column("g", ColumnData::I32((0..n).map(|i| i % 4).collect()))
            .add_column("v", ColumnData::I64((0..n as i64).collect()));
        let mut d = Table::new("d");
        d.add_column("g", ColumnData::I32(vec![1, 3]));
        let mut db = Database::new();
        db.add(t).add(d);
        db
    }

    fn run_on(plan: &Plan, db: &Database, threads: usize) -> Vec<Row> {
        let mut rows = plan.run(db, &ExecCtx::spawn(threads), None);
        rows.sort();
        rows
    }

    #[test]
    fn grouped_aggregate_merges_partials_per_group_and_counts_every_scan() {
        let db = db();
        let plan = Plan::scan("d", &["g"]).hash_join(
            vec![Expr::col(0)],
            Plan::scan("t", &["g", "v"]),
            vec![Expr::col(0)],
        );
        let plan = plan.aggregate(
            vec![Expr::col(1)],
            vec![
                AggSpec::Count,
                AggSpec::SumI64(Expr::col(2)),
                AggSpec::SumI128(Expr::col(2)),
            ],
        );
        assert_eq!(plan.scans(), vec!["d", "t"]);
        assert_eq!(plan.driving_table(), "t");
        assert_eq!(plan.tuples_scanned(&db), 50_002);
        let group = |g: i32| {
            let sum = (0..50_000i64).filter(|v| v % 4 == g as i64).sum::<i64>();
            vec![
                Val::I32(g),
                Val::I64(12_500),
                Val::I64(sum),
                Val::I128(sum as i128),
            ]
        };
        let want = vec![group(1), group(3)];
        for threads in [1, 4] {
            assert_eq!(run_on(&plan, &db, threads), want, "{threads} threads");
        }
    }

    #[test]
    fn ungrouped_aggregate_yields_one_row_even_when_nothing_qualifies() {
        let db = db();
        let scan = Plan::scan("t", &["k", "v"]);
        let aggs = vec![
            AggSpec::SumI64(Expr::col(1)),
            AggSpec::Count,
            AggSpec::SumI128(Expr::col(1)),
        ];
        let below = |n: i32| {
            scan.clone()
                .select(Expr::cmp(CmpOp::Lt, Expr::col(0), Expr::lit_i32(n)))
                .aggregate(vec![], aggs.clone())
        };
        for threads in [1, 4] {
            assert_eq!(
                run_on(&below(1000), &db, threads),
                vec![vec![Val::I64(499_500), Val::I64(1000), Val::I128(499_500)]],
                "{threads} threads"
            );
            assert_eq!(
                run_on(&below(0), &db, threads),
                vec![vec![Val::I64(0), Val::I64(0), Val::I128(0)]],
                "{threads} threads"
            );
        }
    }

    #[test]
    fn non_aggregate_root_concatenates_the_partial_rows() {
        let db = db();
        let plan = Plan::scan("d", &["g"])
            .semi_join(
                vec![Expr::col(0)],
                Plan::scan("t", &["k", "g"]),
                vec![Expr::col(1)],
            )
            .select(Expr::cmp(CmpOp::Lt, Expr::col(0), Expr::lit_i32(8)))
            .project(vec![Expr::col(0)]);
        let want: Vec<Row> = [1, 3, 5, 7].map(|k| vec![Val::I32(k)]).into();
        for threads in [1, 4] {
            assert_eq!(run_on(&plan, &db, threads), want, "{threads} threads");
        }
    }
}
