//! Regression guard: a Volcano plan allocates for what its breakers
//! store — one `Row` per build row or key a join table takes in, a key
//! and a `Row` of states each time a group enters a pre-aggregation
//! table, and the growth of the runtime tables and spill partitions that
//! hold them — and for opening each pipeline once per worker, never per
//! scanned tuple. Re-opening a pipeline over a morsel gets a fixed
//! budget of allocations. With the build side and the group count
//! fixed, running a one-aggregate [`Plan`] over N and over 4N scanned
//! tuples may differ by at most that budget per extra morsel.

use dbep_runtime::{ExecCtx, MORSEL_TUPLES};
use dbep_storage::{ColumnData, Database, Table};
use dbep_volcano::{AggSpec, BinOp, CmpOp, Expr, Plan, Row};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// Allocations one re-open of a pipeline over a morsel may make: none,
/// since a worker's operators, row and key buffers outlive its morsels.
const ALLOCS_PER_MORSEL: u64 = 0;

/// The system allocator, counting the allocations of each thread.
struct Counting;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn count_one() {
    let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
}

// SAFETY: every call forwards unchanged to `System`, which upholds the
// `GlobalAlloc` contract; the counter is a const-initialized thread-local
// without a destructor, so touching it never allocates or re-enters.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        // SAFETY: same layout contract as the caller's.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` was allocated by `System` with `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        // SAFETY: `ptr` was allocated by `System` with `layout`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocations the current thread makes while `run` runs a plan.
fn allocations(run: impl FnOnce() -> Vec<Row>) -> u64 {
    let before = ALLOCS.with(Cell::get);
    let rows = run();
    let after = ALLOCS.with(Cell::get);
    assert!(!rows.is_empty());
    after - before
}

const NAMES: [&str; 4] = ["AIR", "MAIL", "REG AIR", "TRUCK"];

/// `probe`: `n` tuples, a key over 200 values, a payload, a flag byte and
/// a string of one of four lengths; `build`: 256 rows over 128 keys (two
/// rows per key).
fn db(n: usize) -> Database {
    let mut probe = Table::new("probe");
    probe
        .add_column(
            "k",
            ColumnData::I32((0..n).map(|i| (i * 37 % 200) as i32).collect()),
        )
        .add_column("v", ColumnData::I64((0..n).map(|i| i as i64 * 3 - 7).collect()))
        .add_column("f", ColumnData::Char((0..n).map(|i| b"NR"[i % 2]).collect()))
        .add_column(
            "s",
            ColumnData::Str((0..n).map(|i| NAMES[i % NAMES.len()]).collect()),
        );
    let mut build = Table::new("build");
    build
        .add_column("bk", ColumnData::I32((0..256).map(|i| i % 128).collect()))
        .add_column("bv", ColumnData::I64((0..256).collect()));
    let mut db = Database::new();
    db.add(probe).add(build);
    db
}

/// Scan → Select → Project → Aggregate over 48 groups.
fn select_project_aggregate() -> Plan {
    Plan::scan("probe", &["k", "v", "f"])
        .select(Expr::cmp(CmpOp::Lt, Expr::col(0), Expr::lit_i32(48)))
        .project(vec![
            Expr::col(0),
            Expr::arith(BinOp::Mul, Expr::col(1), Expr::lit_i64(2)),
            Expr::col(2),
        ])
        .aggregate(
            vec![Expr::col(0)],
            vec![
                AggSpec::SumI64(Expr::col(1)),
                AggSpec::SumI64(Expr::col(2)),
                AggSpec::Count,
            ],
        )
}

/// Build a join table, then Scan → HashJoin (probe) → Aggregate grouped
/// by the string column.
fn join_aggregate() -> Plan {
    // [bk, bv, k, v, s]
    Plan::scan("build", &["bk", "bv"])
        .hash_join(
            vec![Expr::col(0)],
            Plan::scan("probe", &["k", "v", "s"]),
            vec![Expr::col(0)],
        )
        .aggregate(
            vec![Expr::col(4)],
            vec![
                AggSpec::SumI64(Expr::col(1)),
                AggSpec::SumI128(Expr::col(3)),
                AggSpec::Count,
            ],
        )
}

/// Build a key set, then Scan → SemiJoin (probe) → Aggregate grouped by
/// (string, flag).
fn semi_join_aggregate() -> Plan {
    Plan::scan("build", &["bk"])
        .semi_join(
            vec![Expr::col(0)],
            Plan::scan("probe", &["s", "f", "k"]),
            vec![Expr::col(2)],
        )
        .aggregate(vec![Expr::col(0), Expr::col(1)], vec![AggSpec::Count])
}

/// Run `plan` inline over N and over 4N probe tuples, after one warm-up
/// run so one-time process state is not charged to either, and check
/// that the allocation counts differ by at most the re-open budget of
/// the extra morsels. Inline, the probe scan is cut into fixed-size
/// morsels of `MORSEL_TUPLES` rows, so their count is known.
fn allocations_grow_with_morsels_not_tuples(plan: Plan) {
    const N: usize = 20_000;
    let (small, large) = (db(N), db(4 * N));
    let run = |db: &Database| plan.run(db, &ExecCtx::inline(), None);
    allocations(|| run(&small));
    let (n, n4) = (allocations(|| run(&small)), allocations(|| run(&large)));
    let extra_morsels = (4 * N).div_ceil(MORSEL_TUPLES) - N.div_ceil(MORSEL_TUPLES);
    assert!(extra_morsels > 0);
    assert!(
        n4 <= n + ALLOCS_PER_MORSEL * extra_morsels as u64,
        "allocations grow with scanned tuples: {n} at N, {n4} at 4N, {extra_morsels} more morsels"
    );
}

#[test]
fn scan_select_project_aggregate_allocates_per_morsel_not_per_tuple() {
    allocations_grow_with_morsels_not_tuples(select_project_aggregate());
}

#[test]
fn scan_join_aggregate_allocates_per_morsel_not_per_tuple() {
    allocations_grow_with_morsels_not_tuples(join_aggregate());
}

#[test]
fn scan_semi_join_aggregate_allocates_per_morsel_not_per_tuple() {
    allocations_grow_with_morsels_not_tuples(semi_join_aggregate());
}
