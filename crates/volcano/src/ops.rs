//! Volcano operators: boxed, pull-based, one tuple per `next()` call.
//!
//! Every operator writes its tuple into a [`Row`] its caller owns and
//! reuses that buffer's slots — and their string buffers — from one call
//! to the next. Hash operators evaluate keys into one reused key buffer
//! and look up by `&[Val]`, so a plan allocates only when a build row or
//! a group is inserted. What is left per tuple is the model itself: one
//! virtual `next()` per operator, a runtime-typed [`Val`] per value and
//! an [`Expr`] tree walked per tuple.

use crate::expr::{Expr, Val};
use dbep_runtime::{hash_bytes_murmur2, rehash_murmur2, Morsels, MORSEL_TUPLES};
use dbep_scheduler::QueryRun;
use dbep_storage::throttle::Throttle;
use dbep_storage::{ColumnData, Table};
use std::borrow::Cow;
use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};
use std::ops::Range;

/// One tuple.
pub type Row = Vec<Val>;

/// The iterator interface every operator implements (§1).
pub trait Operator {
    /// Overwrite `row` with the next tuple and return `true`, or return
    /// `false` when exhausted (`row` then holds nothing to use).
    fn next(&mut self, row: &mut Row) -> bool;
}

/// [`Hasher`] over the runtime's Murmur2 for the value-keyed tables:
/// every word is folded in with [`rehash_murmur2`] (Tectorwise's
/// composite-key rehash), byte strings are first reduced with
/// [`hash_bytes_murmur2`]. The overridden `write_*` methods are the ones
/// a key's hash calls per value (and `write_usize` for its length);
/// `i128` falls back to `write`. Unseeded, unlike std's SipHash: the
/// keys are column values of the loaded database, not input a client
/// chooses.
#[derive(Default)]
struct MurmurHasher(u64);

impl Hasher for MurmurHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        self.write_u64(hash_bytes_murmur2(bytes));
    }

    fn write_u8(&mut self, v: u8) {
        self.write_u64(v as u64);
    }

    fn write_u32(&mut self, v: u32) {
        self.write_u64(v as u64);
    }

    fn write_u64(&mut self, v: u64) {
        self.0 = rehash_murmur2(self.0, v);
    }

    fn write_usize(&mut self, v: usize) {
        self.write_u64(v as u64);
    }
}

/// Hash map keyed by a value tuple, probed with a borrowed `&[Val]`.
type ValMap<V> = HashMap<Row, V, BuildHasherDefault<MurmurHasher>>;

/// Overwrite `row` with `vals`, reusing its slots: a borrowed value is
/// copied into its slot (into the slot's string buffer when both are
/// strings), an owned one is moved in.
fn overwrite<'v>(row: &mut Row, vals: impl Iterator<Item = Cow<'v, Val>>) {
    let mut n = 0;
    for v in vals {
        match (row.get_mut(n), v) {
            (Some(slot), Cow::Borrowed(v)) => slot.clone_from(v),
            (Some(slot), Cow::Owned(v)) => *slot = v,
            (None, v) => row.push(v.into_owned()),
        }
        n += 1;
    }
    row.truncate(n);
}

/// Evaluate `exprs` over `row` into the reused key buffer `key`.
fn eval_into(key: &mut Row, exprs: &[Expr], row: &[Val]) {
    overwrite(key, exprs.iter().map(|e| e.eval_ref(row)));
}

/// Table scan producing the named columns in order.
///
/// By default it walks the whole table. [`Scan::morsel_driven`] makes it
/// claim tuple ranges from a shared [`Morsels`] cursor instead — the
/// mechanism the exchange-style parallel union uses to partition the
/// driving scan of a plan across workers (§6.1 applied to the baseline
/// engine). [`Scan::paced`] debits every claimed range against a shared
/// bandwidth [`Throttle`], giving Volcano the same emulated-SSD behaviour
/// (Table 5) as the other two engines.
pub struct Scan<'a> {
    cols: Vec<&'a ColumnData>,
    current: Range<usize>,
    next_dense: usize,
    len: usize,
    morsels: Option<&'a Morsels>,
    throttle: Option<&'a Throttle>,
    recorder: Option<&'a QueryRun>,
    bytes_per_row: usize,
}

impl<'a> Scan<'a> {
    pub fn new(table: &'a Table, columns: &[&str]) -> Self {
        let cols: Vec<&ColumnData> = columns.iter().map(|c| table.col(c)).collect();
        let bytes_per_row = if table.is_empty() {
            0
        } else {
            cols.iter().map(|c| c.byte_size() / table.len()).sum()
        };
        Scan {
            cols,
            current: 0..0,
            next_dense: 0,
            len: table.len(),
            morsels: None,
            throttle: None,
            recorder: None,
            bytes_per_row,
        }
    }

    /// Pace every claimed tuple range against `throttle` (no-op if `None`).
    pub fn paced(mut self, throttle: Option<&'a Throttle>) -> Self {
        self.throttle = throttle;
        self
    }

    /// Record every claimed tuple range's bytes into the run's scheduler
    /// stats (no-op if `None`). Volcano always scans the flat columns —
    /// its interpretation overhead is the baseline — so it reports flat
    /// byte volume even when encoded companions exist.
    pub fn recorded(mut self, run: Option<&'a QueryRun>) -> Self {
        self.recorder = run;
        self
    }

    /// Claim tuple ranges from a shared cursor instead of scanning densely.
    /// The cursor must dispense ranges within this table's row count.
    pub fn morsel_driven(mut self, morsels: &'a Morsels) -> Self {
        assert!(morsels.total() <= self.len, "morsel cursor exceeds table");
        self.morsels = Some(morsels);
        self
    }

    fn refill(&mut self) -> bool {
        let range = match self.morsels {
            Some(m) => match m.claim() {
                Some(r) => r,
                None => return false,
            },
            None => {
                if self.next_dense >= self.len {
                    return false;
                }
                let start = self.next_dense;
                let end = (start + MORSEL_TUPLES).min(self.len);
                self.next_dense = end;
                start..end
            }
        };
        let bytes = range.len() * self.bytes_per_row;
        if let Some(run) = self.recorder {
            run.add_bytes(bytes as u64);
        }
        if let Some(t) = self.throttle {
            t.consume(bytes);
        }
        self.current = range;
        true
    }
}

impl<'a> Operator for Scan<'a> {
    /// Overwrites the buffer's slots in place; a string column copies
    /// into the slot's existing `String` when the slot already holds one.
    fn next(&mut self, row: &mut Row) -> bool {
        if self.current.is_empty() && !self.refill() {
            return false;
        }
        let i = self.current.start;
        self.current.start += 1;
        row.resize_with(self.cols.len(), || Val::I32(0));
        for (slot, c) in row.iter_mut().zip(&self.cols) {
            match c {
                ColumnData::I32(v) => *slot = Val::I32(v[i]),
                ColumnData::I64(v) => *slot = Val::I64(v[i]),
                ColumnData::Date(v) => *slot = Val::I32(v[i]),
                ColumnData::Char(v) => *slot = Val::Byte(v[i]),
                ColumnData::Str(v) => match slot {
                    Val::Str(buf) => {
                        buf.clear();
                        buf.push_str(v.get(i));
                    }
                    other => *other = Val::Str(v.get(i).to_owned()),
                },
            }
        }
        true
    }
}

/// Source over already-materialized rows (used to merge the partial
/// results of a parallel union back through a final operator chain).
pub struct Rows {
    iter: std::vec::IntoIter<Row>,
}

impl Rows {
    pub fn new(rows: Vec<Row>) -> Self {
        Rows {
            iter: rows.into_iter(),
        }
    }
}

impl Operator for Rows {
    /// Moves the next materialized row into the buffer (no copy).
    fn next(&mut self, row: &mut Row) -> bool {
        match self.iter.next() {
            Some(r) => {
                *row = r;
                true
            }
            None => false,
        }
    }
}

/// A boxed operator with borrowed table data.
pub type BoxOp<'a> = Box<dyn Operator + 'a>;

/// Tuple-at-a-time selection.
pub struct Select<'a> {
    pub input: BoxOp<'a>,
    pub pred: Expr,
}

impl<'a> Operator for Select<'a> {
    fn next(&mut self, row: &mut Row) -> bool {
        while self.input.next(row) {
            if self.pred.eval_bool(row) {
                return true;
            }
        }
        false
    }
}

/// Tuple-at-a-time projection. The outputs are appended behind the input
/// tuple in the shared buffer, then the inputs are drained from its front.
/// A string column projected through or dropped here costs an allocation
/// per tuple, since its slot's buffer leaves with the drained input.
pub struct Project<'a> {
    pub input: BoxOp<'a>,
    pub exprs: Vec<Expr>,
}

impl<'a> Operator for Project<'a> {
    fn next(&mut self, row: &mut Row) -> bool {
        if !self.input.next(row) {
            return false;
        }
        let n = row.len();
        for e in &self.exprs {
            let v = e.eval_ref(&row[..n]).into_owned();
            row.push(v);
        }
        row.drain(..n);
        true
    }
}

/// Blocking hash join: materializes the whole build side into a value-
/// keyed hash map, then streams the probe side (inner join, all matches,
/// each emitted as build columns followed by probe columns). A probe
/// tuple's matches are emitted newest build row first.
pub struct HashJoin<'a> {
    probe: BoxOp<'a>,
    probe_keys: Vec<Expr>,
    /// Build key → index of its newest build row.
    table: ValMap<usize>,
    /// Build rows in build order; `older[i]` is the next-older row with
    /// row `i`'s key.
    rows: Vec<Row>,
    older: Vec<Option<usize>>,
    /// The current probe tuple and the key buffer, reused across tuples.
    probe_row: Row,
    key: Row,
    /// The next build row to emit for `probe_row`.
    cursor: Option<usize>,
}

impl<'a> HashJoin<'a> {
    /// Fully consumes `build` on construction (the pipeline breaker).
    pub fn new(mut build: BoxOp<'_>, build_keys: Vec<Expr>, probe: BoxOp<'a>, probe_keys: Vec<Expr>) -> Self {
        assert_eq!(build_keys.len(), probe_keys.len(), "join key arity");
        let mut table: ValMap<usize> = ValMap::default();
        let (mut rows, mut older) = (Vec::new(), Vec::new());
        let (mut row, mut key) = (Row::new(), Row::new());
        while build.next(&mut row) {
            eval_into(&mut key, &build_keys, &row);
            let i = rows.len();
            older.push(match table.get_mut(key.as_slice()) {
                Some(newest) => Some(std::mem::replace(newest, i)),
                None => {
                    table.insert(key.clone(), i);
                    None
                }
            });
            rows.push(row.clone());
        }
        HashJoin {
            probe,
            probe_keys,
            table,
            rows,
            older,
            probe_row: Row::new(),
            key,
            cursor: None,
        }
    }
}

impl<'a> Operator for HashJoin<'a> {
    fn next(&mut self, row: &mut Row) -> bool {
        loop {
            if let Some(b) = self.cursor {
                self.cursor = self.older[b];
                overwrite(row, self.rows[b].iter().chain(&self.probe_row).map(Cow::Borrowed));
                return true;
            }
            if !self.probe.next(&mut self.probe_row) {
                return false;
            }
            eval_into(&mut self.key, &self.probe_keys, &self.probe_row);
            self.cursor = self.table.get(self.key.as_slice()).copied();
        }
    }
}

/// Blocking hash **semi**-join (SQL `EXISTS` / `IN` subquery):
/// materializes the build side's key set, then streams probe tuples that
/// have at least one build match — each probe tuple at most once, never
/// widened with build columns.
pub struct SemiJoin<'a> {
    probe: BoxOp<'a>,
    probe_keys: Vec<Expr>,
    keys: HashSet<Row, BuildHasherDefault<MurmurHasher>>,
    key: Row,
}

impl<'a> SemiJoin<'a> {
    /// Fully consumes `build` on construction (the pipeline breaker).
    pub fn new(mut build: BoxOp<'_>, build_keys: Vec<Expr>, probe: BoxOp<'a>, probe_keys: Vec<Expr>) -> Self {
        assert_eq!(build_keys.len(), probe_keys.len(), "join key arity");
        let mut keys = HashSet::default();
        let (mut row, mut key) = (Row::new(), Row::new());
        while build.next(&mut row) {
            eval_into(&mut key, &build_keys, &row);
            if !keys.contains(key.as_slice()) {
                keys.insert(key.clone());
            }
        }
        SemiJoin {
            probe,
            probe_keys,
            keys,
            key,
        }
    }
}

impl<'a> Operator for SemiJoin<'a> {
    fn next(&mut self, row: &mut Row) -> bool {
        while self.probe.next(row) {
            eval_into(&mut self.key, &self.probe_keys, row);
            if self.keys.contains(self.key.as_slice()) {
                return true;
            }
        }
        false
    }
}

/// Aggregate function specifications.
#[derive(Clone, Debug)]
pub enum AggSpec {
    /// 64-bit sum of an expression.
    SumI64(Expr),
    /// 128-bit sum (for scale-6 decimals).
    SumI128(Expr),
    Count,
}

impl AggSpec {
    fn zero(&self) -> Val {
        match self {
            AggSpec::SumI64(_) | AggSpec::Count => Val::I64(0),
            AggSpec::SumI128(_) => Val::I128(0),
        }
    }
}

/// Fold one input tuple into a group's aggregate state.
fn accumulate(state: &mut [Val], aggs: &[AggSpec], row: &[Val]) {
    for (slot, spec) in state.iter_mut().zip(aggs) {
        *slot = match spec {
            AggSpec::SumI64(e) => Val::I64(slot.as_i64().wrapping_add(e.eval_ref(row).as_i64())),
            AggSpec::SumI128(e) => Val::I128(slot.as_i128() + e.eval_ref(row).as_i128()),
            AggSpec::Count => Val::I64(slot.as_i64() + 1),
        };
    }
}

/// Blocking hash aggregation (group by a list of expressions); emits one
/// row per group, group keys followed by the aggregates.
pub struct Aggregate {
    out: Rows,
}

impl Aggregate {
    pub fn new(mut input: BoxOp<'_>, group_by: Vec<Expr>, aggs: Vec<AggSpec>) -> Self {
        let n = aggs.len();
        // Group key → group number `g`, whose aggregates are
        // `states[g * n..][..n]`. A key is stored with room for its
        // aggregates, which are appended to it on output.
        let mut groups: ValMap<usize> = ValMap::default();
        let mut states: Vec<Val> = Vec::new();
        let (mut row, mut key) = (Row::new(), Row::new());
        while input.next(&mut row) {
            eval_into(&mut key, &group_by, &row);
            let g = match groups.get(key.as_slice()) {
                Some(&g) => g,
                None => {
                    let mut stored = Row::with_capacity(key.len() + n);
                    stored.extend_from_slice(&key);
                    groups.insert(stored, groups.len());
                    states.extend(aggs.iter().map(AggSpec::zero));
                    groups.len() - 1
                }
            };
            accumulate(&mut states[g * n..][..n], &aggs, &row);
        }
        let rows = groups
            .into_iter()
            .map(|(mut k, g)| {
                k.extend_from_slice(&states[g * n..][..n]);
                k
            })
            .collect();
        Aggregate { out: Rows::new(rows) }
    }
}

impl Operator for Aggregate {
    fn next(&mut self, row: &mut Row) -> bool {
        self.out.next(row)
    }
}

/// Sort key: column position + direction.
#[derive(Clone, Copy, Debug)]
pub struct SortKey {
    pub col: usize,
    pub desc: bool,
}

/// Blocking sort with optional LIMIT.
pub struct Sort {
    out: Rows,
}

impl Sort {
    pub fn new(input: BoxOp<'_>, keys: Vec<SortKey>, limit: Option<usize>) -> Self {
        let mut rows = collect(input);
        rows.sort_by(|a, b| {
            for k in &keys {
                let ord = a[k.col].partial_cmp(&b[k.col]).expect("comparable vals");
                let ord = if k.desc { ord.reverse() } else { ord };
                if !ord.is_eq() {
                    return ord;
                }
            }
            std::cmp::Ordering::Equal
        });
        if let Some(l) = limit {
            rows.truncate(l);
        }
        Sort { out: Rows::new(rows) }
    }
}

impl Operator for Sort {
    fn next(&mut self, row: &mut Row) -> bool {
        self.out.next(row)
    }
}

/// Drain an operator into a vector of rows.
pub fn collect(mut op: BoxOp<'_>) -> Vec<Row> {
    let (mut out, mut row) = (Vec::new(), Row::new());
    while op.next(&mut row) {
        out.push(row.clone());
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::{BinOp, CmpOp};
    use dbep_storage::column::ColumnData;
    use std::collections::BTreeMap;

    fn test_table() -> Table {
        let mut t = Table::new("t");
        t.add_column("k", ColumnData::I32(vec![1, 2, 3, 4]))
            .add_column("v", ColumnData::I64(vec![10, 20, 30, 40]))
            .add_column("s", ColumnData::Str(["a", "b", "a", "b"].into_iter().collect()));
        t
    }

    #[test]
    fn scan_select_project() {
        let t = test_table();
        let plan = Project {
            input: Box::new(Select {
                input: Box::new(Scan::new(&t, &["k", "v"])),
                pred: Expr::cmp(CmpOp::Gt, Expr::col(1), Expr::lit_i64(15)),
            }),
            exprs: vec![Expr::arith(BinOp::Mul, Expr::col(0), Expr::lit_i64(2))],
        };
        let rows = collect(Box::new(plan));
        assert_eq!(
            rows,
            vec![vec![Val::I64(4)], vec![Val::I64(6)], vec![Val::I64(8)]]
        );
    }

    #[test]
    fn project_narrows_and_widens_through_a_reused_buffer() {
        let t = test_table();
        // [k, v, s] → [v] → [v, v + 1, "x"]
        let narrow = Project {
            input: Box::new(Scan::new(&t, &["k", "v", "s"])),
            exprs: vec![Expr::col(1)],
        };
        let mut widen = Project {
            input: Box::new(narrow),
            exprs: vec![
                Expr::col(0),
                Expr::arith(BinOp::Add, Expr::col(0), Expr::lit_i64(1)),
                Expr::Const(Val::Str("x".into())),
            ],
        };
        let mut row = vec![Val::Str("stale".into()); 5];
        let mut buffers = Vec::new();
        for v in [10, 20, 30, 40] {
            assert!(widen.next(&mut row));
            assert_eq!(row, vec![Val::I64(v), Val::I64(v + 1), Val::Str("x".into())]);
            buffers.push(row.as_ptr());
        }
        assert!(!widen.next(&mut row));
        // The first tuple sizes the buffer; every later one reuses it.
        assert!(buffers.windows(2).all(|w| w[0] == w[1]), "{buffers:?}");
    }

    #[test]
    fn scan_reuses_one_string_buffer_across_lengths() {
        let mut t = Table::new("t");
        let strs = ["a much longer string than the rest", "b", "", "cde", "fghij"];
        t.add_column("s", ColumnData::Str(strs.into_iter().collect()));
        let mut scan = Scan::new(&t, &["s"]);
        let mut row = Row::new();
        assert!(scan.next(&mut row));
        let buf = row[0].as_str().as_ptr();
        for want in &strs[1..] {
            assert!(scan.next(&mut row));
            assert_eq!(row, vec![Val::Str(want.to_string())]);
            assert_eq!(
                row[0].as_str().as_ptr(),
                buf,
                "string slot reallocated for {want:?}"
            );
        }
        assert!(!scan.next(&mut row));
    }

    #[test]
    fn join_produces_all_matches() {
        let t = test_table();
        // Self-join on s: 'a' x 'a' (2x2=4 rows) + 'b' x 'b' (4) = 8.
        let join = HashJoin::new(
            Box::new(Scan::new(&t, &["k", "s"])),
            vec![Expr::col(1)],
            Box::new(Scan::new(&t, &["k", "s"])),
            vec![Expr::col(1)],
        );
        let rows = collect(Box::new(join));
        assert_eq!(rows.len(), 8);
        for r in &rows {
            assert_eq!(r[1], r[3], "join key mismatch in {r:?}");
        }
    }

    #[test]
    fn join_emits_duplicate_build_keys_newest_first() {
        let mut build = Table::new("b");
        build
            .add_column("key", ColumnData::I32(vec![7, 8, 7, 7]))
            .add_column("id", ColumnData::I64(vec![1, 2, 3, 4]));
        let mut probe = Table::new("p");
        probe
            .add_column("key", ColumnData::I32(vec![7, 9, 8, 7]))
            .add_column(
                "tag",
                ColumnData::Str(["p0", "p1", "p2", "p3"].into_iter().collect()),
            );
        let join = HashJoin::new(
            Box::new(Scan::new(&build, &["id", "key"])),
            vec![Expr::col(1)],
            Box::new(Scan::new(&probe, &["tag", "key"])),
            vec![Expr::col(1)],
        );
        let emitted: Vec<(i64, String)> = collect(Box::new(join))
            .iter()
            .map(|r| (r[0].as_i64(), r[2].as_str().to_string()))
            .collect();
        let want = [
            (4, "p0"),
            (3, "p0"),
            (1, "p0"),
            (2, "p2"),
            (4, "p3"),
            (3, "p3"),
            (1, "p3"),
        ];
        let want: Vec<(i64, String)> = want.iter().map(|&(id, tag)| (id, tag.to_string())).collect();
        assert_eq!(emitted, want);
    }

    #[test]
    fn semi_join_emits_probe_rows_once() {
        let t = test_table();
        // Build side has duplicate s values; every probe row with a
        // matching s must come out exactly once, unwidened.
        let semi = SemiJoin::new(
            Box::new(Select {
                input: Box::new(Scan::new(&t, &["s", "v"])),
                pred: Expr::cmp(CmpOp::Eq, Expr::col(0), Expr::Const(Val::Str("a".into()))),
            }),
            vec![Expr::col(0)],
            Box::new(Scan::new(&t, &["k", "s"])),
            vec![Expr::col(1)],
        );
        let rows = collect(Box::new(semi));
        assert_eq!(
            rows,
            vec![
                vec![Val::I32(1), Val::Str("a".into())],
                vec![Val::I32(3), Val::Str("a".into())],
            ]
        );
    }

    #[test]
    fn semi_join_with_many_duplicate_build_keys() {
        let mut build = Table::new("b");
        build.add_column("key", ColumnData::I32((0..1000).map(|i| i % 3).collect()));
        let mut probe = Table::new("p");
        probe.add_column("key", ColumnData::I32(vec![0, 5, 2, 2, 1, 3]));
        let semi = SemiJoin::new(
            Box::new(Scan::new(&build, &["key"])),
            vec![Expr::col(0)],
            Box::new(Scan::new(&probe, &["key"])),
            vec![Expr::col(0)],
        );
        let keys: Vec<i64> = collect(Box::new(semi)).iter().map(|r| r[0].as_i64()).collect();
        assert_eq!(keys, vec![0, 2, 2, 1]);
    }

    #[test]
    fn semi_join_empty_build_side() {
        let t = test_table();
        let semi = SemiJoin::new(
            Box::new(Select {
                input: Box::new(Scan::new(&t, &["s"])),
                pred: Expr::cmp(CmpOp::Eq, Expr::col(0), Expr::Const(Val::Str("zzz".into()))),
            }),
            vec![Expr::col(0)],
            Box::new(Scan::new(&t, &["k", "s"])),
            vec![Expr::col(1)],
        );
        assert!(collect(Box::new(semi)).is_empty());
    }

    #[test]
    fn aggregate_groups_and_sums() {
        let t = test_table();
        let agg = Aggregate::new(
            Box::new(Scan::new(&t, &["s", "v"])),
            vec![Expr::col(0)],
            vec![AggSpec::SumI64(Expr::col(1)), AggSpec::Count],
        );
        let mut rows = collect(Box::new(agg));
        rows.sort_by(|a, b| a[0].partial_cmp(&b[0]).unwrap());
        assert_eq!(
            rows,
            vec![
                vec![Val::Str("a".into()), Val::I64(40), Val::I64(2)],
                vec![Val::Str("b".into()), Val::I64(60), Val::I64(2)],
            ]
        );
    }

    #[test]
    fn aggregate_ten_thousand_groups_matches_btreemap() {
        let n = 100_000usize;
        let mut t = Table::new("t");
        t.add_column(
            "g",
            ColumnData::I32((0..n).map(|i| (i * 7919 % 10_000) as i32).collect()),
        )
        .add_column("h", ColumnData::Str((0..n).map(|i| ["x", "yy"][i % 2]).collect()))
        .add_column(
            "v",
            ColumnData::I64((0..n).map(|i| i as i64 * 31 - 5_000).collect()),
        );
        let agg = Aggregate::new(
            Box::new(Scan::new(&t, &["g", "h", "v"])),
            vec![Expr::col(0), Expr::col(1)],
            vec![
                AggSpec::SumI64(Expr::col(2)),
                AggSpec::SumI128(Expr::arith(BinOp::Mul, Expr::col(2), Expr::col(2))),
                AggSpec::Count,
            ],
        );
        let got: BTreeMap<(i64, String), (i64, i128, i64)> = collect(Box::new(agg))
            .into_iter()
            .map(|r| {
                (
                    (r[0].as_i64(), r[1].as_str().to_string()),
                    (r[2].as_i64(), r[3].as_i128(), r[4].as_i64()),
                )
            })
            .collect();
        let mut want: BTreeMap<(i64, String), (i64, i128, i64)> = BTreeMap::new();
        for i in 0..n {
            let key = ((i * 7919 % 10_000) as i64, ["x", "yy"][i % 2].to_string());
            let v = i as i64 * 31 - 5_000;
            let e = want.entry(key).or_default();
            *e = (e.0 + v, e.1 + v.wrapping_mul(v) as i128, e.2 + 1);
        }
        assert_eq!(want.len(), 10_000);
        assert_eq!(got, want);
    }

    #[test]
    fn rows_and_sort_drain_through_the_buffer() {
        let rows = vec![
            vec![Val::I32(2), Val::Str("two".into())],
            vec![Val::I32(1)],
            vec![Val::I32(3), Val::Str("three".into()), Val::I64(3)],
        ];
        let mut src = Rows::new(rows.clone());
        let mut row = vec![Val::Str("stale".into()); 4];
        for want in &rows {
            assert!(src.next(&mut row));
            assert_eq!(&row, want);
        }
        assert!(!src.next(&mut row));
        assert!(!src.next(&mut row), "an exhausted source stays exhausted");

        let mut sort = Sort::new(
            Box::new(Rows::new(rows)),
            vec![SortKey { col: 0, desc: false }],
            None,
        );
        for k in [1, 2, 3] {
            assert!(sort.next(&mut row));
            assert_eq!(row[0], Val::I32(k));
        }
        assert!(!sort.next(&mut row));
        assert!(!sort.next(&mut row));
    }

    #[test]
    fn sort_with_limit() {
        let t = test_table();
        let sort = Sort::new(
            Box::new(Scan::new(&t, &["k", "v"])),
            vec![SortKey { col: 1, desc: true }],
            Some(2),
        );
        let rows = collect(Box::new(sort));
        assert_eq!(
            rows,
            vec![vec![Val::I32(4), Val::I64(40)], vec![Val::I32(3), Val::I64(30)]]
        );
    }

    #[test]
    fn empty_inputs_everywhere() {
        let mut t = Table::new("e");
        t.add_column("k", ColumnData::I32(vec![]));
        let agg = Aggregate::new(
            Box::new(Scan::new(&t, &["k"])),
            vec![Expr::col(0)],
            vec![AggSpec::Count],
        );
        assert!(collect(Box::new(agg)).is_empty());
    }
}
