//! A Volcano plan as a value, and the one interpreter that runs it.
//!
//! A [`Plan`] is the physical plan of one query — which tables are
//! scanned, in which column order, what is selected, projected, joined
//! (with which build side) and aggregated — written down once and
//! handed to [`Plan::run`]. The interpreter does the wiring every query
//! needs the same way. It cuts the plan into pipelines at its breakers:
//! each join's build side is a pipeline of its own, run before the
//! pipeline that probes it, and each aggregate's input is a pipeline
//! of its own, run before the pipeline that reads its groups. Every
//! pipeline is one morsel-driven parallel region, the same
//! [`ExecCtx::map_slots`] loop Typer and Tectorwise run (§6.1): the
//! morsels are row ranges of its *driving* scan — the leaf reached from
//! its root through inputs and probe sides — or, for a pipeline driven
//! by an aggregate, row ranges of its merged groups. For every morsel a
//! worker opens the pipeline's operators over that morsel alone and
//! drains them into a shard of its own; the workers' shards are merged
//! once. A build side's shards are published into the one read-only
//! [`JoinHt`] every worker of the probing pipeline borrows; an
//! aggregate's are merged by the runtime's two-phase group-by, one
//! non-empty hash partition per morsel, into the groups whose morsels
//! drive the pipeline reading them (see [`Plan::run`]); the plan's own
//! pipeline yields the result rows.
//! So every scan reads its table once, at any thread count, paced
//! against the storage device and recorded into the run's byte counter,
//! and on a shared pool a Volcano query yields to the others between
//! any two morsels, as the other engines' queries do.
//!
//! Interpretation changes nothing about the engine: every morsel opens
//! the same boxed operators a hand-wired plan would build, so the
//! per-tuple costs that make up the Volcano model stay exactly as they
//! were; re-opening costs O(operators) per morsel. Sharing a built
//! table between workers is parallelization, not compilation. The plan
//! also answers questions about itself, such as the §3.4 normalization
//! denominator ([`Plan::tuples_scanned`]).

use crate::expr::Expr;
use crate::ops::{
    drain, AggSpec, BoxOp, GroupRows, GroupShard, HashJoin, JoinShard, KeyShard, Project, Row, Scan, Select,
    SemiJoin, Shard,
};
use dbep_runtime::{ExecCtx, JoinHt, Morsels};
use dbep_storage::throttle::Throttle;
use dbep_storage::Database;
use std::ops::Range;

/// One physical plan over the tables of a [`Database`]: a tree of the
/// operators of [`crate::ops`].
#[derive(Clone, Debug)]
pub enum Plan {
    /// The named columns of `table`, in order. Every scan drives the
    /// pipeline it is the leaf of: that pipeline's morsels are ranges of
    /// its rows.
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
    /// ([`crate::ops::Aggregate`]).
    Aggregate {
        input: Box<Plan>,
        group_by: Vec<Expr>,
        aggs: Vec<AggSpec>,
    },
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
        assert_eq!(build_keys.len(), probe_keys.len(), "join key arity");
        Plan::HashJoin {
            build: Box::new(self),
            build_keys,
            probe: Box::new(probe),
            probe_keys,
        }
    }

    /// `self` is the build side, `probe` the probe side.
    pub fn semi_join(self, build_keys: Vec<Expr>, probe: Plan, probe_keys: Vec<Expr>) -> Plan {
        assert_eq!(build_keys.len(), probe_keys.len(), "join key arity");
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

    /// Run the plan's pipelines on `exec`, one after another, each
    /// morsel by morsel across its workers, and concatenate the rows the
    /// workers drained from the last one, the plan's own. Every scan is
    /// paced against `throttle` and recorded into the run attached to
    /// `exec`.
    /// A [`Plan::Aggregate`] is the runtime's two-phase group-by: the
    /// workers of its input's pipeline fold their rows into a
    /// pre-aggregation table each, which spills its groups into hash
    /// partitions whenever it is full and at the end;
    /// [`dbep_runtime::agg_ht::merge_partitions`] merges one non-empty
    /// partition per morsel — counts and 64-bit sums add up as 64-bit
    /// sums, 128-bit sums as 128-bit sums — and the pipeline reading it
    /// scans the merged groups in morsels. An ungrouped aggregate yields
    /// exactly one row, zeros when no tuple qualified.
    pub fn run(&self, db: &Database, exec: &ExecCtx, throttle: Option<&Throttle>) -> Vec<Row> {
        let run = Run { db, exec, throttle };
        run.pipeline(self, &[], Vec::new)
    }
}

/// What every pipeline of one run is opened with.
struct Run<'a> {
    db: &'a Database,
    /// Where the pipelines' morsels run, and the run every scan records
    /// its bytes into.
    exec: &'a ExecCtx<'a>,
    throttle: Option<&'a Throttle>,
}

/// What a pipeline borrows from the pipelines run before it: one entry
/// per breaker on its driving path, from the root down.
enum Built {
    /// A join's build side: per build row its key values, then the row
    /// for a [`HashJoin`], nothing more for a [`SemiJoin`].
    Table(JoinHt<Row>),
    /// The merged groups of an aggregate, each its key and its states:
    /// the rows that drive the pipeline reading them.
    Groups(Vec<(Row, Row)>),
}

impl Run<'_> {
    /// Build what the pipeline rooted at `plan` borrows, then run it
    /// over its morsels: each worker drains every morsel it claims into
    /// one shard made by `init` and keyed by `keys`, and the workers'
    /// shards are merged into what they build. The pipelines it depends
    /// on run first, one after another, from the calling thread: never
    /// from inside a worker's task, which would nest parallel regions.
    fn pipeline<S: Shard>(&self, plan: &Plan, keys: &[Expr], init: impl Fn() -> S + Sync) -> S::Built {
        let mut built = Vec::new();
        let morsels = self.prepare(plan, &mut built);
        let mut shards = self.exec.map_slots(
            morsels,
            |_| init(),
            |shard, morsel| drain(self.open(plan, morsel, &mut built.iter()), keys, shard),
        );
        if shards.is_empty() {
            // No morsel, as over an empty table: no worker made a shard,
            // but the merge needs one, and an ungrouped aggregate's is
            // its row of zeros.
            shards.push(init());
        }
        S::merge(shards, self.exec)
    }

    /// Push to `built` what the pipeline rooted at `plan` borrows, in
    /// the order [`Run::open`] takes it, and return the pipeline's
    /// morsels: row ranges of its driving scan, or of the groups of the
    /// aggregate driving it.
    fn prepare(&self, plan: &Plan, built: &mut Vec<Built>) -> Morsels {
        match plan {
            Plan::Scan { table, .. } => Morsels::new(self.db.table(table).len()),
            Plan::Select { input, .. } | Plan::Project { input, .. } => self.prepare(input, built),
            Plan::Aggregate {
                input,
                group_by,
                aggs,
            } => {
                let groups = self.pipeline(input, group_by, || GroupShard::new(aggs, group_by.is_empty()));
                let morsels = Morsels::new(groups.len());
                built.push(Built::Groups(groups));
                morsels
            }
            Plan::HashJoin {
                build,
                build_keys,
                probe,
                ..
            } => {
                built.push(Built::Table(self.pipeline(build, build_keys, JoinShard::default)));
                self.prepare(probe, built)
            }
            Plan::SemiJoin {
                build,
                build_keys,
                probe,
                ..
            } => {
                built.push(Built::Table(self.pipeline(build, build_keys, KeyShard::default)));
                self.prepare(probe, built)
            }
        }
    }

    /// Open the pipeline rooted at `plan` over one of its morsels, its
    /// breakers borrowed from `built`.
    fn open<'b>(
        &'b self,
        plan: &'b Plan,
        morsel: Range<usize>,
        built: &mut std::slice::Iter<'b, Built>,
    ) -> BoxOp<'b> {
        match plan {
            Plan::Scan { table, columns } => Box::new(
                Scan::new(self.db.table(table), columns)
                    .rows(morsel)
                    .paced(self.throttle)
                    .recorded(self.exec.run),
            ),
            Plan::Select { input, pred } => Box::new(Select {
                input: self.open(input, morsel, built),
                pred: pred.clone(),
            }),
            Plan::Project { input, exprs } => Box::new(Project {
                input: self.open(input, morsel, built),
                exprs: exprs.clone(),
            }),
            Plan::HashJoin {
                probe, probe_keys, ..
            } => {
                let Some(Built::Table(table)) = built.next() else {
                    unreachable!("prepare builds every join table on the driving path")
                };
                Box::new(HashJoin::new(
                    table,
                    self.open(probe, morsel, built),
                    probe_keys.clone(),
                ))
            }
            Plan::SemiJoin {
                probe, probe_keys, ..
            } => {
                let Some(Built::Table(keys)) = built.next() else {
                    unreachable!("prepare builds every join table on the driving path")
                };
                Box::new(SemiJoin::new(
                    keys,
                    self.open(probe, morsel, built),
                    probe_keys.clone(),
                ))
            }
            Plan::Aggregate { .. } => {
                let Some(Built::Groups(groups)) = built.next() else {
                    unreachable!("prepare groups every aggregate on the driving path")
                };
                Box::new(GroupRows(groups[morsel].iter()))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::{CmpOp, Val};
    use crate::ops::hash_key;
    use dbep_runtime::agg_ht::partition_of;
    use dbep_runtime::MORSEL_TUPLES;
    use dbep_scheduler::{Scheduler, DEFAULT_PRIORITY};
    use dbep_storage::{ColumnData, Table};
    use std::collections::BTreeSet;

    /// `t(k, g, v)`: 50 000 rows, `k` = `v` = row number, `g` = `k % 4`;
    /// `d(g)`: the two groups 1 and 3; `e(k)`: 0, 5, …, 49 995; `z(k, v)`:
    /// no rows.
    fn db() -> Database {
        let n = 50_000;
        let mut t = Table::new("t");
        t.add_column("k", ColumnData::I32((0..n).collect()))
            .add_column("g", ColumnData::I32((0..n).map(|i| i % 4).collect()))
            .add_column("v", ColumnData::I64((0..n as i64).collect()));
        let mut d = Table::new("d");
        d.add_column("g", ColumnData::I32(vec![1, 3]));
        let mut e = Table::new("e");
        e.add_column("k", ColumnData::I32((0..n).step_by(5).collect()));
        let mut z = Table::new("z");
        z.add_column("k", ColumnData::I32(Vec::new()))
            .add_column("v", ColumnData::I64(Vec::new()));
        let mut db = Database::new();
        db.add(t).add(d).add(e).add(z);
        db
    }

    /// The sorted rows of `plan` over `db` at 1, 2 and 4 threads, spawned
    /// per query and on a pool of as many workers; every run must return
    /// the same rows and scan the same bytes.
    fn run_everywhere(plan: &Plan, db: &Database) -> Vec<Row> {
        let run = |exec: &ExecCtx| {
            let mut rows = plan.run(db, exec, None);
            rows.sort();
            rows
        };
        let want = run(&ExecCtx::inline());
        let mut bytes = None;
        for threads in [1, 2, 4] {
            assert_eq!(run(&ExecCtx::spawn(threads)), want, "{threads} threads spawned");
            let pool = Scheduler::new(threads);
            let query = pool.begin_query(DEFAULT_PRIORITY);
            assert_eq!(
                run(&ExecCtx::pooled(threads, &query)),
                want,
                "{threads} threads pooled"
            );
            let scanned = query.stats().bytes_scanned;
            assert_eq!(
                *bytes.get_or_insert(scanned),
                scanned,
                "bytes at {threads} threads"
            );
        }
        want
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
        assert_eq!(run_everywhere(&plan, &db), vec![group(1), group(3)]);
    }

    #[test]
    fn grouped_root_at_one_instance_returns_the_rows_of_four() {
        let db = db();
        // The merged groups are the result, scanned in morsels: 4 000
        // groups of a join here, 50 000 groups of a scan below.
        let plan = Plan::scan("t", &["k", "v"])
            .select(Expr::cmp(CmpOp::Lt, Expr::col(0), Expr::lit_i32(20_000)))
            .hash_join(vec![Expr::col(0)], Plan::scan("e", &["k"]), vec![Expr::col(0)])
            .aggregate(
                vec![Expr::col(0)],
                vec![AggSpec::Count, AggSpec::SumI64(Expr::col(1))],
            );
        let rows = run_everywhere(&plan, &db);
        let want: Vec<Row> = (0..20_000)
            .step_by(5)
            .map(|k| vec![Val::I32(k), Val::I64(1), Val::I64(k as i64)])
            .collect();
        assert_eq!(rows, want);
        let grouped = Plan::scan("t", &["k", "v"]).aggregate(
            vec![Expr::col(0)],
            vec![AggSpec::Count, AggSpec::SumI64(Expr::col(1))],
        );
        let rows = run_everywhere(&grouped, &db);
        assert_eq!(rows.len(), 50_000);
        assert!(rows
            .iter()
            .all(|r| r[1] == Val::I64(1) && r[2] == Val::I64(r[0].as_i64())));
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
        assert_eq!(
            run_everywhere(&below(1000), &db),
            vec![vec![Val::I64(499_500), Val::I64(1000), Val::I128(499_500)]]
        );
        assert_eq!(
            run_everywhere(&below(0), &db),
            vec![vec![Val::I64(0), Val::I64(0), Val::I128(0)]]
        );
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
        assert_eq!(run_everywhere(&plan, &db), want);
    }

    /// The Q18 shape: a build side that is an aggregate, once as the
    /// build's root and once under a HAVING selection.
    #[test]
    fn aggregate_build_sides_are_merged_before_they_are_probed() {
        let db = db();
        let sums = Plan::scan("t", &["g", "v"]).aggregate(
            vec![Expr::col(0)],
            vec![AggSpec::SumI64(Expr::col(1)), AggSpec::Count],
        );
        let sum = |g: i64| (0..50_000i64).filter(|v| v % 4 == g).sum::<i64>();
        let group = |g: i32| {
            vec![
                Val::I32(g),
                Val::I64(sum(g as i64)),
                Val::I64(12_500),
                Val::I32(g),
            ]
        };
        let probe = || Plan::scan("d", &["g"]);
        let root = sums
            .clone()
            .hash_join(vec![Expr::col(0)], probe(), vec![Expr::col(0)]);
        assert_eq!(run_everywhere(&root, &db), vec![group(1), group(3)]);
        // Only group 3's sum exceeds group 2's: a HAVING that a partial
        // group, holding a fraction of its sum, would fail.
        let having = sums
            .select(Expr::cmp(CmpOp::Gt, Expr::col(1), Expr::lit_i64(sum(2))))
            .hash_join(vec![Expr::col(0)], probe(), vec![Expr::col(0)]);
        assert_eq!(run_everywhere(&having, &db), vec![group(3)]);
    }

    /// The Q9 shape: the build side is itself a join, with its own
    /// driving scan, and the outer join probes its output.
    #[test]
    fn a_build_side_with_its_own_join_is_built_once() {
        let db = db();
        // d ⋈ t on g: [g, k, g] for the 25 000 rows of groups 1 and 3.
        let inner = Plan::scan("d", &["g"]).hash_join(
            vec![Expr::col(0)],
            Plan::scan("t", &["k", "g"]),
            vec![Expr::col(1)],
        );
        // ⋈ e on k: the multiples of 5 among them; [g, k, g, k].
        let plan = inner
            .hash_join(vec![Expr::col(1)], Plan::scan("e", &["k"]), vec![Expr::col(0)])
            .aggregate(vec![Expr::col(0)], vec![AggSpec::Count]);
        assert_eq!(plan.tuples_scanned(&db), 2 + 50_000 + 10_000);
        assert_eq!(
            run_everywhere(&plan, &db),
            vec![
                vec![Val::I32(1), Val::I64(2_500)],
                vec![Val::I32(3), Val::I64(2_500)]
            ]
        );
    }

    #[test]
    fn duplicate_build_keys_keep_every_row_and_pass_each_semi_join_probe_once() {
        let db = db();
        // 50 000 build rows over four keys, spread over every worker's
        // shard; the probe's two rows match.
        let build = || Plan::scan("t", &["g"]);
        let semi = build().semi_join(vec![Expr::col(0)], Plan::scan("d", &["g"]), vec![Expr::col(0)]);
        assert_eq!(
            run_everywhere(&semi, &db),
            vec![vec![Val::I32(1)], vec![Val::I32(3)]]
        );
        let join = build()
            .hash_join(vec![Expr::col(0)], Plan::scan("d", &["g"]), vec![Expr::col(0)])
            .aggregate(vec![Expr::col(1)], vec![AggSpec::Count]);
        assert_eq!(
            run_everywhere(&join, &db),
            vec![
                vec![Val::I32(1), Val::I64(12_500)],
                vec![Val::I32(3), Val::I64(12_500)]
            ]
        );
    }

    #[test]
    fn an_empty_build_side_matches_nothing() {
        let db = db();
        let none = || Plan::scan("t", &["k"]).select(Expr::cmp(CmpOp::Lt, Expr::col(0), Expr::lit_i32(0)));
        let probe = || Plan::scan("e", &["k"]);
        let join = none().hash_join(vec![Expr::col(0)], probe(), vec![Expr::col(0)]);
        let semi = none().semi_join(vec![Expr::col(0)], probe(), vec![Expr::col(0)]);
        assert!(run_everywhere(&join, &db).is_empty());
        assert!(run_everywhere(&semi, &db).is_empty());
        let counted = none()
            .hash_join(vec![Expr::col(0)], probe(), vec![Expr::col(0)])
            .aggregate(vec![], vec![AggSpec::Count]);
        assert_eq!(run_everywhere(&counted, &db), vec![vec![Val::I64(0)]]);
    }

    /// A pipeline over an empty table gets no morsel, so no worker makes
    /// a shard: the pipeline still yields one empty shard.
    #[test]
    fn an_empty_driving_table_yields_what_an_empty_input_does() {
        let db = db();
        let empty = || Plan::scan("z", &["k", "v"]);
        let ungrouped = empty().aggregate(vec![], vec![AggSpec::Count, AggSpec::SumI64(Expr::col(1))]);
        assert_eq!(
            run_everywhere(&ungrouped, &db),
            vec![vec![Val::I64(0), Val::I64(0)]]
        );
        let grouped = empty().aggregate(vec![Expr::col(0)], vec![AggSpec::Count]);
        assert!(run_everywhere(&grouped, &db).is_empty());
        let build = || Plan::scan("e", &["k"]);
        let join = build().hash_join(vec![Expr::col(0)], empty(), vec![Expr::col(0)]);
        let semi = build().semi_join(vec![Expr::col(0)], empty(), vec![Expr::col(0)]);
        assert!(run_everywhere(&join, &db).is_empty());
        assert!(run_everywhere(&semi, &db).is_empty());
        let counted = join.aggregate(vec![], vec![AggSpec::Count]);
        assert_eq!(run_everywhere(&counted, &db), vec![vec![Val::I64(0)]]);
        let as_build = empty().hash_join(vec![Expr::col(0)], build(), vec![Expr::col(0)]);
        let as_keys = empty().semi_join(vec![Expr::col(0)], build(), vec![Expr::col(0)]);
        assert!(run_everywhere(&as_build, &db).is_empty());
        assert!(run_everywhere(&as_keys, &db).is_empty());
    }

    /// On a pool, every pipeline is one task and every morsel of its
    /// driving scan, or of the groups of its driving aggregate, one
    /// morsel of that task: a Volcano query yields to other queries
    /// between any two of them. So is every publish of a join table,
    /// one morsel per worker's shard, and every merge of an aggregate,
    /// one morsel per hash partition that holds a group.
    #[test]
    fn every_pipeline_is_one_pool_task_run_morsel_by_morsel() {
        let db = db();
        // The Q9 shape: pipelines driven by d (building d ⋈ t's table),
        // by t (building the outer join's table), by e (folding the
        // groups) and by the merged groups.
        let plan = Plan::scan("d", &["g"])
            .hash_join(
                vec![Expr::col(0)],
                Plan::scan("t", &["k", "g"]),
                vec![Expr::col(1)],
            )
            .hash_join(vec![Expr::col(1)], Plan::scan("e", &["k"]), vec![Expr::col(0)])
            .aggregate(vec![Expr::col(0)], vec![AggSpec::Count]);
        let scanned: usize = [2, 50_000, 10_000]
            .map(|rows: usize| rows.div_ceil(MORSEL_TUPLES))
            .iter()
            .sum();
        // d's one morsel makes one shard to publish, the merge one morsel
        // per partition holding a group, the two groups one morsel to
        // read; t's morsels make one shard per worker that claimed any.
        let groups = plan.run(&db, &ExecCtx::inline(), None);
        let partitions: BTreeSet<usize> = groups.iter().map(|g| partition_of(hash_key(&g[..1]))).collect();
        let fixed = scanned + 1 + partitions.len() + 1;
        for threads in [1, 2] {
            let pool = Scheduler::new(threads);
            let query = pool.begin_query(DEFAULT_PRIORITY);
            assert_eq!(plan.run(&db, &ExecCtx::pooled(threads, &query), None).len(), 2);
            let stats = query.stats();
            // Four pipelines, two publishes, one merge.
            assert_eq!(stats.tasks, 7, "{threads} threads");
            let morsels = stats.morsels as usize;
            assert!(
                (fixed + 1..=fixed + threads).contains(&morsels),
                "{threads} threads: {morsels} morsels"
            );
        }
    }
}
