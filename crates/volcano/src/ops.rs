//! Volcano operators: boxed, pull-based, one tuple per `next()` call.
//!
//! Every operator writes its tuple into a [`Row`] its caller owns and
//! reuses that buffer's slots — and their string buffers — from one call
//! to the next. Hash operators evaluate keys into one reused key buffer
//! and probe with it, so a plan allocates only when a build row or a
//! group is inserted. The breakers build the runtime's tables, the ones
//! Typer and Tectorwise build: a join's build side is a [`JoinHt`], an
//! aggregate folds into [`GroupByShard`]s merged by [`merge_partitions`].
//! What is left per tuple is the model itself: one virtual `next()` per
//! operator, a runtime-typed [`Val`] per value and an [`Expr`] tree
//! walked per tuple.

use crate::expr::{Expr, Val};
use dbep_runtime::agg_ht::merge_partitions;
use dbep_runtime::join_ht::{JoinHtShard, ProbeIter};
use dbep_runtime::{hash_bytes_murmur2, rehash_murmur2, ExecCtx, GroupByShard, JoinHt};
use dbep_scheduler::QueryRun;
use dbep_storage::throttle::Throttle;
use dbep_storage::{ColumnData, Table};
use std::borrow::Cow;
use std::hash::{Hash, Hasher};
use std::ops::Range;

/// One tuple.
pub type Row = Vec<Val>;

/// The iterator interface every operator implements (§1).
pub trait Operator {
    /// Overwrite `row` with the next tuple and return `true`, or return
    /// `false` when exhausted (`row` then holds nothing to use).
    fn next(&mut self, row: &mut Row) -> bool;
}

/// [`Hasher`] over the runtime's Murmur2 that turns a key into the hash
/// the runtime's tables take ([`hash_key`]): every word is folded in
/// with [`rehash_murmur2`] (Tectorwise's composite-key rehash), byte
/// strings are first reduced with [`hash_bytes_murmur2`]. The overridden
/// `write_*` methods are the ones a key's hash calls per value; `i128`
/// falls back to `write`. Unseeded: the keys are column values of the
/// loaded database, not input a client chooses.
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
}

/// The hash of a key, its values folded in order.
pub(crate) fn hash_key(key: &[Val]) -> u64 {
    let mut h = MurmurHasher(0);
    Val::hash_slice(key, &mut h);
    h.finish()
}
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

/// Table scan producing the named columns in order, over one range of
/// rows: the whole table unless [`Scan::rows`] narrows it. The plan
/// interpreter opens one scan per morsel of a pipeline's driving table
/// (§6.1 applied to the baseline engine). [`Scan::paced`] debits the
/// range against a shared bandwidth [`Throttle`] when the first tuple is
/// pulled, giving Volcano the same emulated-SSD behaviour (Table 5) as
/// the other two engines.
pub struct Scan<'a> {
    cols: Vec<&'a ColumnData>,
    rows: Range<usize>,
    /// Whether `rows` has been debited and recorded yet.
    charged: bool,
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
            rows: 0..table.len(),
            charged: false,
            throttle: None,
            recorder: None,
            bytes_per_row,
        }
    }

    /// Walk only `rows`, which must lie within the table.
    pub fn rows(mut self, rows: Range<usize>) -> Self {
        assert!(rows.end <= self.rows.end, "scan range exceeds table");
        self.rows = rows;
        self
    }

    /// Pace the scanned range against `throttle` (no-op if `None`).
    pub fn paced(mut self, throttle: Option<&'a Throttle>) -> Self {
        self.throttle = throttle;
        self
    }

    /// Record the scanned range's bytes into the run's scheduler stats
    /// (no-op if `None`). Volcano always scans the flat columns — its
    /// interpretation overhead is the baseline — so it reports flat byte
    /// volume even when encoded companions exist.
    pub fn recorded(mut self, run: Option<&'a QueryRun>) -> Self {
        self.recorder = run;
        self
    }

    fn charge(&mut self) {
        self.charged = true;
        let bytes = self.rows.len() * self.bytes_per_row;
        if let Some(run) = self.recorder {
            run.add_bytes(bytes as u64);
        }
        if let Some(t) = self.throttle {
            t.consume(bytes);
        }
    }
}

impl<'a> Operator for Scan<'a> {
    /// Overwrites the buffer's slots in place; a string column copies
    /// into the slot's existing `String` when the slot already holds one.
    fn next(&mut self, row: &mut Row) -> bool {
        if !self.charged {
            self.charge();
        }
        let Some(i) = self.rows.next() else {
            return false;
        };
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

/// A pipeline breaker's state as its input is drained into it: one per
/// worker of a parallel region, then merged once into what the breaker
/// builds. Each input row arrives with its key already evaluated, as a
/// [`Row`] a group table can look up without copying it.
pub trait Shard: Send + Sized {
    /// What the merged shards build.
    type Built;

    fn push(&mut self, key: &Row, row: &[Val]);

    /// Combine the workers' shards — at least one — into what they
    /// build, in parallel on `exec` where the table allows.
    fn merge(shards: Vec<Self>, exec: &ExecCtx) -> Self::Built;
}

/// Drain `op` into `shard`, keying every row by `keys`, and build what
/// the one shard builds.
pub fn build<S: Shard>(op: BoxOp<'_>, keys: &[Expr], mut shard: S) -> S::Built {
    drain(op, keys, &mut shard);
    S::merge(vec![shard], &ExecCtx::inline())
}

/// Drain `op` into a shard the caller keeps, as a worker does across the
/// morsels of a pipeline.
pub(crate) fn drain<S: Shard>(mut op: BoxOp<'_>, keys: &[Expr], shard: &mut S) {
    let (mut row, mut key) = (Row::new(), Row::new());
    while op.next(&mut row) {
        eval_into(&mut key, keys, &row);
        shard.push(&key, &row);
    }
}

/// The rows themselves, in order; the key is ignored.
impl Shard for Vec<Row> {
    type Built = Vec<Row>;

    fn push(&mut self, _: &Row, row: &[Val]) {
        Vec::push(self, row.to_vec());
    }

    fn merge(shards: Vec<Self>, _: &ExecCtx) -> Vec<Row> {
        shards.into_iter().flatten().collect()
    }
}

/// The build side of a [`HashJoin`] as one worker drains it: one
/// [`JoinHt`] entry per build row, the key values followed by the row.
#[derive(Default)]
pub struct JoinShard(JoinHtShard<Row>);

impl Shard for JoinShard {
    type Built = JoinHt<Row>;

    fn push(&mut self, key: &Row, row: &[Val]) {
        self.0.push(hash_key(key), [key, row].concat());
    }

    fn merge(shards: Vec<Self>, exec: &ExecCtx) -> JoinHt<Row> {
        JoinHt::from_shards(shards.into_iter().map(|s| s.0).collect(), exec)
    }
}

/// Inner hash join against the table of [`JoinShard`]s built before the
/// probe side opens: streams the probe side, each match emitted as build
/// columns followed by probe columns.
pub struct HashJoin<'a> {
    table: &'a JoinHt<Row>,
    probe: BoxOp<'a>,
    probe_keys: Vec<Expr>,
    /// The current probe tuple and the key buffer, reused across tuples.
    probe_row: Row,
    key: Row,
    /// The entries left to compare with `key`: the chain of its hash.
    cursor: Option<ProbeIter<'a, Row>>,
}

impl<'a> HashJoin<'a> {
    pub fn new(table: &'a JoinHt<Row>, probe: BoxOp<'a>, probe_keys: Vec<Expr>) -> Self {
        HashJoin {
            table,
            probe,
            probe_keys,
            probe_row: Row::new(),
            key: Row::new(),
            cursor: None,
        }
    }
}

impl<'a> Operator for HashJoin<'a> {
    fn next(&mut self, row: &mut Row) -> bool {
        let n = self.probe_keys.len();
        loop {
            if let Some(cursor) = &mut self.cursor {
                if let Some(e) = cursor.find(|e| e.row[..n] == self.key[..]) {
                    overwrite(row, e.row[n..].iter().chain(&self.probe_row).map(Cow::Borrowed));
                    return true;
                }
            }
            if !self.probe.next(&mut self.probe_row) {
                return false;
            }
            eval_into(&mut self.key, &self.probe_keys, &self.probe_row);
            self.cursor = Some(self.table.probe(hash_key(&self.key)));
        }
    }
}

/// The build side of a [`SemiJoin`] as one worker drains it: one
/// [`JoinHt`] entry per build row, its key values.
#[derive(Default)]
pub struct KeyShard(JoinHtShard<Row>);

impl Shard for KeyShard {
    type Built = JoinHt<Row>;

    fn push(&mut self, key: &Row, _: &[Val]) {
        self.0.push(hash_key(key), key.clone());
    }

    fn merge(shards: Vec<Self>, exec: &ExecCtx) -> JoinHt<Row> {
        JoinHt::from_shards(shards.into_iter().map(|s| s.0).collect(), exec)
    }
}

/// Hash **semi**-join (SQL `EXISTS` / `IN` subquery) against the table
/// of [`KeyShard`]s built before the probe side opens: streams the probe
/// tuples that have at least one build match — each probe tuple at most
/// once, never widened with build columns.
pub struct SemiJoin<'a> {
    keys: &'a JoinHt<Row>,
    probe: BoxOp<'a>,
    probe_keys: Vec<Expr>,
    key: Row,
}

impl<'a> SemiJoin<'a> {
    pub fn new(keys: &'a JoinHt<Row>, probe: BoxOp<'a>, probe_keys: Vec<Expr>) -> Self {
        SemiJoin {
            keys,
            probe,
            probe_keys,
            key: Row::new(),
        }
    }
}

impl<'a> Operator for SemiJoin<'a> {
    fn next(&mut self, row: &mut Row) -> bool {
        while self.probe.next(row) {
            eval_into(&mut self.key, &self.probe_keys, row);
            if self.keys.contains(hash_key(&self.key), |k| *k == self.key) {
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

/// A new group's states.
fn zeros(aggs: &[AggSpec]) -> Row {
    aggs.iter().map(AggSpec::zero).collect()
}

/// Fold one input tuple into a group's aggregate states.
fn accumulate(states: &mut [Val], aggs: &[AggSpec], row: &[Val]) {
    for (slot, spec) in states.iter_mut().zip(aggs) {
        *slot = match spec {
            AggSpec::SumI64(e) => Val::I64(slot.as_i64().wrapping_add(e.eval_ref(row).as_i64())),
            AggSpec::SumI128(e) => Val::I128(slot.as_i128() + e.eval_ref(row).as_i128()),
            AggSpec::Count => Val::I64(slot.as_i64() + 1),
        };
    }
}

/// Add a partial group's states into another's: counts and 64-bit sums
/// as 64-bit sums, 128-bit sums as 128-bit sums.
fn add_states(states: &mut Row, partial: Row) {
    for (to, from) in states.iter_mut().zip(partial) {
        *to = match to {
            Val::I128(v) => Val::I128(*v + from.as_i128()),
            _ => Val::I64(to.as_i64().wrapping_add(from.as_i64())),
        };
    }
}

/// The groups of an aggregation as one worker folds its rows into them:
/// per group key, one state per [`AggSpec`]. Merged shards add up the
/// states of a key and yield each group as its key and its states.
pub(crate) struct GroupShard<'a> {
    aggs: &'a [AggSpec],
    groups: GroupByShard<Row, Row>,
}

impl<'a> GroupShard<'a> {
    /// No groups yet; an ungrouped aggregation starts with its one
    /// group, so it yields a row of zeros when no input arrives.
    pub(crate) fn new(aggs: &'a [AggSpec], ungrouped: bool) -> Self {
        let mut groups = GroupByShard::new();
        if ungrouped {
            groups.update(hash_key(&[]), Row::new(), || zeros(aggs), |_| {});
        }
        GroupShard { aggs, groups }
    }
}

impl Shard for GroupShard<'_> {
    type Built = Vec<(Row, Row)>;

    fn push(&mut self, key: &Row, row: &[Val]) {
        let (hash, aggs) = (hash_key(key), self.aggs);
        match self.groups.ht.find(hash, key) {
            Some(g) => accumulate(self.groups.ht.agg_mut(g), aggs, row),
            None => self
                .groups
                .update(hash, key.clone(), || zeros(aggs), |s| accumulate(s, aggs, row)),
        }
    }

    fn merge(shards: Vec<Self>, exec: &ExecCtx) -> Vec<(Row, Row)> {
        let parts = shards.into_iter().map(|s| s.groups.finish()).collect();
        merge_partitions(parts, exec, add_states)
    }
}

/// Overwrite `row` with a group: its key, then its states.
fn emit_group(row: &mut Row, (key, states): &(Row, Row)) {
    overwrite(row, key.iter().chain(states).map(Cow::Borrowed));
}

/// Source over merged groups, as [`emit_group`] writes them.
pub(crate) struct GroupRows<'a>(pub(crate) std::slice::Iter<'a, (Row, Row)>);

impl Operator for GroupRows<'_> {
    fn next(&mut self, row: &mut Row) -> bool {
        self.0.next().map(|group| emit_group(row, group)).is_some()
    }
}

/// Blocking hash aggregation (group by a list of expressions); emits one
/// row per group, group keys followed by the aggregates. An ungrouped
/// aggregate emits exactly one row, zeros when its input is empty.
pub struct Aggregate {
    groups: Vec<(Row, Row)>,
    next: usize,
}

impl Aggregate {
    pub fn new(input: BoxOp<'_>, group_by: Vec<Expr>, aggs: Vec<AggSpec>) -> Self {
        let groups = build(input, &group_by, GroupShard::new(&aggs, group_by.is_empty()));
        Aggregate { groups, next: 0 }
    }
}

impl Operator for Aggregate {
    fn next(&mut self, row: &mut Row) -> bool {
        let Some(group) = self.groups.get(self.next) else {
            return false;
        };
        self.next += 1;
        emit_group(row, group);
        true
    }
}

/// Drain an operator into a vector of rows.
pub fn collect(op: BoxOp<'_>) -> Vec<Row> {
    build(op, &[], Vec::new())
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
        let table = build(
            Box::new(Scan::new(&t, &["k", "s"])),
            &[Expr::col(1)],
            JoinShard::default(),
        );
        let join = HashJoin::new(&table, Box::new(Scan::new(&t, &["k", "s"])), vec![Expr::col(1)]);
        let rows = collect(Box::new(join));
        assert_eq!(rows.len(), 8);
        for r in &rows {
            assert_eq!(r[1], r[3], "join key mismatch in {r:?}");
        }
    }

    /// `rows` as `(key, id)` pushed into `S`'s shards, one shard per
    /// slice and one more left empty, merged on two threads.
    fn merged<S: Shard + Default>(shards: &[&[(i32, i64)]]) -> S::Built {
        let mut built: Vec<S> = shards
            .iter()
            .map(|rows| {
                let mut shard = S::default();
                for &(k, id) in rows.iter() {
                    shard.push(&vec![Val::I32(k)], &[Val::I64(id), Val::I32(k)]);
                }
                shard
            })
            .collect();
        built.push(S::default());
        S::merge(built, &ExecCtx::spawn(2))
    }

    /// The rows of `op`, sorted: equal to another such list exactly when
    /// the two hold the same rows as often.
    fn sorted(op: BoxOp<'_>) -> Vec<Row> {
        let mut rows = collect(op);
        rows.sort();
        rows
    }

    #[test]
    fn join_emits_each_pair_of_duplicate_build_keys_once() {
        // Key 7 has three build rows, one of them in the second shard.
        let table = merged::<JoinShard>(&[&[(7, 1), (8, 2), (7, 3)], &[(7, 4)]]);
        let mut probe = Table::new("p");
        probe
            .add_column("key", ColumnData::I32(vec![7, 9, 8, 7]))
            .add_column("tag", ColumnData::I64(vec![0, 1, 2, 3]));
        let join = HashJoin::new(
            &table,
            Box::new(Scan::new(&probe, &["tag", "key"])),
            vec![Expr::col(1)],
        );
        let pair = |id: i64, k: i32, tag: i64| vec![Val::I64(id), Val::I32(k), Val::I64(tag), Val::I32(k)];
        let mut want = vec![pair(2, 8, 2)];
        for tag in [0, 3] {
            want.extend([1, 3, 4].map(|id| pair(id, 7, tag)));
        }
        want.sort();
        assert_eq!(sorted(Box::new(join)), want);
    }

    #[test]
    fn merged_join_table_holds_every_row_of_every_shard() {
        // Key 7 is in both non-empty shards.
        let table = merged::<JoinShard>(&[&[(7, 1), (8, 2), (7, 3)], &[(7, 4), (9, 5), (7, 6), (10, 7)]]);
        assert_eq!(table.len(), 7);
        let mut probe = Table::new("p");
        probe.add_column("key", ColumnData::I32(vec![7, 8, 9, 10, 11]));
        let join = HashJoin::new(&table, Box::new(Scan::new(&probe, &["key"])), vec![Expr::col(0)]);
        let emitted: Vec<(i64, i32)> = sorted(Box::new(join))
            .iter()
            .map(|r| (r[0].as_i64(), r[2].as_i32()))
            .collect();
        assert_eq!(
            emitted,
            vec![(1, 7), (2, 8), (3, 7), (4, 7), (5, 9), (6, 7), (7, 10)]
        );
    }

    #[test]
    fn merged_groups_add_up_the_states_of_a_key() {
        let aggs = vec![
            AggSpec::Count,
            AggSpec::SumI64(Expr::col(1)),
            AggSpec::SumI128(Expr::col(1)),
        ];
        let shard = |ungrouped: bool, rows: &[(i32, i64)]| {
            let mut g = GroupShard::new(&aggs, ungrouped);
            let key = |k: i32| if ungrouped { vec![] } else { vec![Val::I32(k)] };
            for &(k, v) in rows {
                g.push(&key(k), &[Val::I32(k), Val::I64(v)]);
            }
            g
        };
        let rows_of = |groups: Vec<(Row, Row)>| {
            let mut rows = collect(Box::new(GroupRows(groups.iter())));
            rows.sort();
            rows
        };
        let row = |k: i32, n: i64, s: i64| vec![Val::I32(k), Val::I64(n), Val::I64(s), Val::I128(s as i128)];
        for exec in [ExecCtx::inline(), ExecCtx::spawn(3)] {
            let shards = vec![
                shard(false, &[(1, 10), (2, 20)]),
                shard(false, &[]),
                shard(false, &[(2, 5), (3, 7), (3, 1)]),
            ];
            assert_eq!(
                rows_of(GroupShard::merge(shards, &exec)),
                vec![row(1, 1, 10), row(2, 2, 25), row(3, 2, 8)]
            );
            // An ungrouped aggregation keeps its one group through a
            // merge, zeros when no shard saw a row, the sums otherwise.
            let none = || shard(true, &[]);
            let zero = vec![Val::I64(0), Val::I64(0), Val::I128(0)];
            assert_eq!(
                rows_of(GroupShard::merge(vec![none(), none()], &exec)),
                vec![zero]
            );
            let some = vec![none(), shard(true, &[(1, 4), (2, 5)]), shard(true, &[(3, 6)])];
            assert_eq!(
                rows_of(GroupShard::merge(some, &exec)),
                vec![vec![Val::I64(3), Val::I64(15), Val::I128(15)]]
            );
        }
    }

    #[test]
    fn merged_key_set_is_the_union_of_its_shards() {
        let keys = merged::<KeyShard>(&[&[(1, 0), (2, 0), (2, 0)], &[(2, 0), (3, 0)]]);
        let mut probe = Table::new("p");
        probe.add_column("key", ColumnData::I32((0..6).collect()));
        let semi = SemiJoin::new(&keys, Box::new(Scan::new(&probe, &["key"])), vec![Expr::col(0)]);
        let got: Vec<i32> = collect(Box::new(semi)).iter().map(|r| r[0].as_i32()).collect();
        assert_eq!(got, vec![1, 2, 3]);
    }

    #[test]
    fn semi_join_emits_probe_rows_once() {
        let t = test_table();
        // Build side has duplicate s values; every probe row with a
        // matching s must come out exactly once, unwidened.
        let keys = build(
            Box::new(Select {
                input: Box::new(Scan::new(&t, &["s", "v"])),
                pred: Expr::cmp(CmpOp::Eq, Expr::col(0), Expr::Const(Val::Str("a".into()))),
            }),
            &[Expr::col(0)],
            KeyShard::default(),
        );
        let semi = SemiJoin::new(&keys, Box::new(Scan::new(&t, &["k", "s"])), vec![Expr::col(1)]);
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
        let keys = super::build(
            Box::new(Scan::new(&build, &["key"])),
            &[Expr::col(0)],
            KeyShard::default(),
        );
        let semi = SemiJoin::new(&keys, Box::new(Scan::new(&probe, &["key"])), vec![Expr::col(0)]);
        let keys: Vec<i64> = collect(Box::new(semi)).iter().map(|r| r[0].as_i64()).collect();
        assert_eq!(keys, vec![0, 2, 2, 1]);
    }

    #[test]
    fn semi_join_empty_build_side() {
        let t = test_table();
        let keys = build(
            Box::new(Select {
                input: Box::new(Scan::new(&t, &["s"])),
                pred: Expr::cmp(CmpOp::Eq, Expr::col(0), Expr::Const(Val::Str("zzz".into()))),
            }),
            &[Expr::col(0)],
            KeyShard::default(),
        );
        let semi = SemiJoin::new(&keys, Box::new(Scan::new(&t, &["k", "s"])), vec![Expr::col(1)]);
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
    fn empty_inputs_everywhere() {
        let mut t = Table::new("e");
        t.add_column("k", ColumnData::I32(vec![]));
        let agg = Aggregate::new(
            Box::new(Scan::new(&t, &["k"])),
            vec![Expr::col(0)],
            vec![AggSpec::Count],
        );
        assert!(collect(Box::new(agg)).is_empty());
        let ungrouped = Aggregate::new(
            Box::new(Scan::new(&t, &["k"])),
            vec![],
            vec![AggSpec::Count, AggSpec::SumI128(Expr::col(0))],
        );
        assert_eq!(
            collect(Box::new(ungrouped)),
            vec![vec![Val::I64(0), Val::I128(0)]]
        );
    }
}
