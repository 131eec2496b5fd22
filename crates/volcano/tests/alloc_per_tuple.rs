//! Regression guard: a Volcano plan allocates for what its breakers
//! store — one `Row` per build row or key a join table takes in, a key
//! and a `Row` of states each time a group enters a pre-aggregation
//! table, and the growth of the runtime tables and spill partitions that
//! hold them — never per scanned tuple. With the build side and the
//! group count fixed, building the join tables and draining a plan over
//! N and over 4N scanned tuples must make exactly the same number of
//! allocations.

use dbep_storage::{ColumnData, Table};
use dbep_volcano::ops::{build, collect};
use dbep_volcano::{
    AggSpec, Aggregate, BinOp, CmpOp, Expr, HashJoin, JoinShard, KeyShard, Project, Row, Scan, Select,
    SemiJoin,
};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

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

/// Allocations the current thread makes while `run` builds and drains a
/// plan.
fn allocations(run: impl FnOnce() -> Vec<Row>) -> u64 {
    let before = ALLOCS.with(Cell::get);
    let rows = run();
    let after = ALLOCS.with(Cell::get);
    assert!(!rows.is_empty());
    after - before
}

const NAMES: [&str; 4] = ["AIR", "MAIL", "REG AIR", "TRUCK"];

/// `n` probe tuples: a key over 200 values, a payload, a flag byte and a
/// string of one of four lengths.
fn probe_table(n: usize) -> Table {
    let mut t = Table::new("probe");
    t.add_column(
        "k",
        ColumnData::I32((0..n).map(|i| (i * 37 % 200) as i32).collect()),
    )
    .add_column("v", ColumnData::I64((0..n).map(|i| i as i64 * 3 - 7).collect()))
    .add_column("f", ColumnData::Char((0..n).map(|i| b"NR"[i % 2]).collect()))
    .add_column(
        "s",
        ColumnData::Str((0..n).map(|i| NAMES[i % NAMES.len()]).collect()),
    );
    t
}

/// A fixed build side: 256 rows over 128 keys (two rows per key).
fn build_table() -> Table {
    let mut t = Table::new("build");
    t.add_column("bk", ColumnData::I32((0..256).map(|i| i % 128).collect()))
        .add_column("bv", ColumnData::I64((0..256).collect()));
    t
}

/// Scan → Select → Project → Aggregate over 48 groups.
fn select_project_aggregate(t: &Table, _: &Table) -> Vec<Row> {
    let filtered = Select {
        input: Box::new(Scan::new(t, &["k", "v", "f"])),
        pred: Expr::cmp(CmpOp::Lt, Expr::col(0), Expr::lit_i32(48)),
    };
    let projected = Project {
        input: Box::new(filtered),
        exprs: vec![
            Expr::col(0),
            Expr::arith(BinOp::Mul, Expr::col(1), Expr::lit_i64(2)),
            Expr::col(2),
        ],
    };
    collect(Box::new(Aggregate::new(
        Box::new(projected),
        vec![Expr::col(0)],
        vec![
            AggSpec::SumI64(Expr::col(1)),
            AggSpec::SumI64(Expr::col(2)),
            AggSpec::Count,
        ],
    )))
}

/// Build a join table, then Scan → HashJoin (probe) → Aggregate grouped
/// by the string column.
fn join_aggregate(t: &Table, build_side: &Table) -> Vec<Row> {
    let table = build(
        Box::new(Scan::new(build_side, &["bk", "bv"])),
        &[Expr::col(0)],
        JoinShard::default(),
    );
    // [bk, bv, k, v, s]
    let join = HashJoin::new(
        &table,
        Box::new(Scan::new(t, &["k", "v", "s"])),
        vec![Expr::col(0)],
    );
    collect(Box::new(Aggregate::new(
        Box::new(join),
        vec![Expr::col(4)],
        vec![
            AggSpec::SumI64(Expr::col(1)),
            AggSpec::SumI128(Expr::col(3)),
            AggSpec::Count,
        ],
    )))
}

/// Build a key set, then Scan → SemiJoin (probe) → Aggregate grouped by
/// (string, flag).
fn semi_join_aggregate(t: &Table, build_side: &Table) -> Vec<Row> {
    let keys = build(
        Box::new(Scan::new(build_side, &["bk"])),
        &[Expr::col(0)],
        KeyShard::default(),
    );
    let semi = SemiJoin::new(
        &keys,
        Box::new(Scan::new(t, &["s", "f", "k"])),
        vec![Expr::col(2)],
    );
    collect(Box::new(Aggregate::new(
        Box::new(semi),
        vec![Expr::col(0), Expr::col(1)],
        vec![AggSpec::Count],
    )))
}

/// Allocation counts of `plan` over N and 4N scanned tuples, after one
/// warm-up drain so one-time process state is not charged to either.
fn counts_at_n_and_4n(plan: impl Fn(&Table, &Table) -> Vec<Row>) -> (u64, u64) {
    const N: usize = 20_000;
    let build = build_table();
    let (small, large) = (probe_table(N), probe_table(4 * N));
    allocations(|| plan(&small, &build));
    (
        allocations(|| plan(&small, &build)),
        allocations(|| plan(&large, &build)),
    )
}

#[test]
fn scan_select_project_aggregate_allocates_independently_of_input_size() {
    let (n, n4) = counts_at_n_and_4n(select_project_aggregate);
    assert_eq!(
        n, n4,
        "allocations grow with scanned tuples: {n} at N, {n4} at 4N"
    );
}

#[test]
fn scan_join_aggregate_allocates_independently_of_input_size() {
    let (n, n4) = counts_at_n_and_4n(join_aggregate);
    assert_eq!(
        n, n4,
        "allocations grow with scanned tuples: {n} at N, {n4} at 4N"
    );
}

#[test]
fn scan_semi_join_aggregate_allocates_independently_of_input_size() {
    let (n, n4) = counts_at_n_and_4n(semi_join_aggregate);
    assert_eq!(
        n, n4,
        "allocations grow with scanned tuples: {n} at N, {n4} at 4N"
    );
}
