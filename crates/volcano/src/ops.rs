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
use dbep_runtime::{hash_bytes_murmur2, rehash_murmur2};
use dbep_scheduler::QueryRun;
use dbep_storage::throttle::Throttle;
use dbep_storage::{ColumnData, Table};
use std::borrow::Cow;
use std::collections::hash_map::Entry;
use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hash, Hasher};
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
/// worker of a parallel region, then merged once. Each input row
/// arrives with its key already evaluated.
pub trait Shard: Send + Sized {
    fn push(&mut self, key: &[Val], row: &[Val]);

    /// Combine the workers' shards — at least one — into one.
    fn merge(shards: Vec<Self>) -> Self;
}

/// Drain `op` into `shard`, keying every row by `keys`.
pub fn build<S: Shard>(op: BoxOp<'_>, keys: &[Expr], mut shard: S) -> S {
    drain(op, keys, &mut shard);
    shard
}

/// [`build`] into a shard the caller keeps, as a worker does across the
/// morsels of a pipeline.
pub(crate) fn drain<S: Shard>(mut op: BoxOp<'_>, keys: &[Expr], shard: &mut S) {
    let (mut row, mut key) = (Row::new(), Row::new());
    while op.next(&mut row) {
        eval_into(&mut key, keys, &row);
        shard.push(&key, &row);
    }
}

/// Remove the shard for which `size` is largest, the one the others are
/// merged into, so the fewest entries are hashed again.
fn take_largest<S>(shards: &mut Vec<S>, size: impl Fn(&S) -> usize) -> S {
    let largest = (0..shards.len())
        .max_by_key(|&i| size(&shards[i]))
        .expect("one shard per worker");
    shards.swap_remove(largest)
}

/// The rows themselves, in order; the key is ignored.
impl Shard for Vec<Row> {
    fn push(&mut self, _: &[Val], row: &[Val]) {
        Vec::push(self, row.to_vec());
    }

    fn merge(shards: Vec<Self>) -> Self {
        shards.into_iter().flatten().collect()
    }
}

/// The build side of a [`HashJoin`]: every build row, and per key its
/// newest row, from which each row links to the next-older row with
/// the same key.
#[derive(Default)]
pub struct JoinTable {
    /// Build key → index of its newest build row.
    newest: ValMap<usize>,
    /// Build rows in build order; `older[i]` is the next-older row with
    /// row `i`'s key.
    rows: Vec<Row>,
    older: Vec<Option<usize>>,
}

impl Shard for JoinTable {
    fn push(&mut self, key: &[Val], row: &[Val]) {
        let i = self.rows.len();
        self.older.push(match self.newest.get_mut(key) {
            Some(newest) => Some(std::mem::replace(newest, i)),
            None => {
                self.newest.insert(key.to_vec(), i);
                None
            }
        });
        self.rows.push(row.to_vec());
    }

    /// Appends the other shards' rows to the one with the most keys.
    /// Where a key is in both, the appended shard's rows come first,
    /// newest first, then the rows already there.
    fn merge(mut shards: Vec<Self>) -> Self {
        let mut table = take_largest(&mut shards, |t| t.newest.len());
        for shard in shards {
            // Keys arrive in the shard's hash order, which crowds a
            // growing table with the same hash function into a few long
            // probe sequences; room for all of them is made first.
            table.newest.reserve(shard.newest.len());
            let base = table.rows.len();
            table.rows.extend(shard.rows);
            table
                .older
                .extend(shard.older.iter().map(|o| o.map(|i| i + base)));
            for (key, newest) in shard.newest {
                match table.newest.entry(key) {
                    Entry::Occupied(mut head) => {
                        let mut oldest = newest + base;
                        while let Some(i) = table.older[oldest] {
                            oldest = i;
                        }
                        table.older[oldest] = Some(head.insert(newest + base));
                    }
                    Entry::Vacant(slot) => {
                        slot.insert(newest + base);
                    }
                }
            }
        }
        table
    }
}

/// Inner hash join against a [`JoinTable`] built before the probe side
/// opens: streams the probe side, each match emitted as build columns
/// followed by probe columns, a probe tuple's matches newest build row
/// first.
pub struct HashJoin<'a> {
    table: &'a JoinTable,
    probe: BoxOp<'a>,
    probe_keys: Vec<Expr>,
    /// The current probe tuple and the key buffer, reused across tuples.
    probe_row: Row,
    key: Row,
    /// The next build row to emit for `probe_row`.
    cursor: Option<usize>,
}

impl<'a> HashJoin<'a> {
    pub fn new(table: &'a JoinTable, probe: BoxOp<'a>, probe_keys: Vec<Expr>) -> Self {
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
        loop {
            if let Some(b) = self.cursor {
                self.cursor = self.table.older[b];
                overwrite(
                    row,
                    self.table.rows[b]
                        .iter()
                        .chain(&self.probe_row)
                        .map(Cow::Borrowed),
                );
                return true;
            }
            if !self.probe.next(&mut self.probe_row) {
                return false;
            }
            eval_into(&mut self.key, &self.probe_keys, &self.probe_row);
            self.cursor = self.table.newest.get(self.key.as_slice()).copied();
        }
    }
}

/// The build side of a [`SemiJoin`]: its distinct keys.
#[derive(Default)]
pub struct KeySet(HashSet<Row, BuildHasherDefault<MurmurHasher>>);

impl Shard for KeySet {
    fn push(&mut self, key: &[Val], _: &[Val]) {
        if !self.0.contains(key) {
            self.0.insert(key.to_vec());
        }
    }

    /// Adds the other shards' keys to the largest, room made first as in
    /// [`JoinTable`]'s merge.
    fn merge(mut shards: Vec<Self>) -> Self {
        let mut keys = take_largest(&mut shards, |k| k.0.len());
        for shard in shards {
            keys.0.reserve(shard.0.len());
            keys.0.extend(shard.0);
        }
        keys
    }
}

/// Hash **semi**-join (SQL `EXISTS` / `IN` subquery) against a
/// [`KeySet`] built before the probe side opens: streams the probe
/// tuples that have at least one build match — each probe tuple at most
/// once, never widened with build columns.
pub struct SemiJoin<'a> {
    keys: &'a KeySet,
    probe: BoxOp<'a>,
    probe_keys: Vec<Expr>,
    key: Row,
}

impl<'a> SemiJoin<'a> {
    pub fn new(keys: &'a KeySet, probe: BoxOp<'a>, probe_keys: Vec<Expr>) -> Self {
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
            if self.keys.0.contains(self.key.as_slice()) {
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

/// The groups of an aggregation: per group key, one state per
/// [`AggSpec`], in one or more partitions by the hash of the key. A
/// shard holds the groups of the rows one worker saw; merged shards
/// add up the states of a key. Partitioned shards are merged one
/// partition at a time, the partitions in parallel.
pub(crate) struct Groups {
    aggs: Vec<AggSpec>,
    parts: Vec<Part>,
}

/// One partition of [`Groups`].
#[derive(Default)]
pub(crate) struct Part {
    /// Group key → group number `g`, whose aggregates are
    /// `states[g * n..][..n]`.
    index: ValMap<usize>,
    states: Vec<Val>,
}

impl Part {
    /// The number of `key`'s group, inserted with zero states if new.
    fn group(&mut self, key: &[Val], aggs: &[AggSpec]) -> usize {
        if let Some(&g) = self.index.get(key) {
            return g;
        }
        let g = self.index.len();
        self.index.insert(key.to_vec(), g);
        self.states.extend(aggs.iter().map(AggSpec::zero));
        g
    }

    /// Adds the other parts' states into the one with the most groups:
    /// counts and 64-bit sums as 64-bit sums, 128-bit sums as 128-bit
    /// sums. Room is made first as in [`JoinTable`]'s merge.
    pub(crate) fn merge(mut parts: Vec<Part>, aggs: &[AggSpec]) -> Part {
        let mut merged = take_largest(&mut parts, |p| p.index.len());
        let n = aggs.len();
        for part in parts {
            merged.index.reserve(part.index.len());
            for (key, g) in part.index {
                let next = merged.index.len();
                let into = match merged.index.entry(key) {
                    Entry::Occupied(e) => *e.get(),
                    Entry::Vacant(e) => {
                        merged.states.extend(aggs.iter().map(AggSpec::zero));
                        *e.insert(next)
                    }
                };
                let (to, from) = (&mut merged.states[into * n..][..n], &part.states[g * n..][..n]);
                for (to, from) in to.iter_mut().zip(from) {
                    *to = match to {
                        Val::I128(v) => Val::I128(*v + from.as_i128()),
                        _ => Val::I64(to.as_i64().wrapping_add(from.as_i64())),
                    };
                }
            }
        }
        merged
    }
}

impl Groups {
    /// No groups yet, in `parts` partitions; an ungrouped aggregation
    /// starts with its one group, so it yields a row of zeros when no
    /// input arrives.
    pub(crate) fn new(aggs: Vec<AggSpec>, ungrouped: bool, parts: usize) -> Self {
        let mut groups = Groups {
            aggs,
            parts: (0..parts.max(1)).map(|_| Part::default()).collect(),
        };
        if ungrouped {
            groups.push_group(&[]);
        }
        groups
    }

    /// The partition and number of `key`'s group, inserted if new. The
    /// partition is taken from the hash's upper half; a partition's
    /// table places its keys by the lower bits.
    fn push_group(&mut self, key: &[Val]) -> (usize, usize) {
        let p = match self.parts.len() {
            1 => 0,
            parts => {
                let mut h = MurmurHasher::default();
                key.hash(&mut h);
                (h.finish() >> 32) as usize % parts
            }
        };
        (p, self.parts[p].group(key, &self.aggs))
    }

    /// Entry `p` holds partition `p` of every shard; every shard has
    /// as many partitions.
    pub(crate) fn partitions(shards: Vec<Groups>) -> Vec<Vec<Part>> {
        let mut by_part: Vec<Vec<Part>> = shards[0].parts.iter().map(|_| Vec::new()).collect();
        for shard in shards {
            assert_eq!(shard.parts.len(), by_part.len(), "shards partitioned alike");
            for (into, part) in by_part.iter_mut().zip(shard.parts) {
                into.push(part);
            }
        }
        by_part
    }

    /// The groups as a source of rows, each the key, then the
    /// aggregates.
    pub(crate) fn into_source(self) -> GroupRows {
        GroupRows::new(self.parts, self.aggs.len())
    }
}

impl Shard for Groups {
    fn push(&mut self, key: &[Val], row: &[Val]) {
        let n = self.aggs.len();
        let (p, g) = self.push_group(key);
        accumulate(&mut self.parts[p].states[g * n..][..n], &self.aggs, row);
    }

    /// Merges partition by partition.
    fn merge(mut shards: Vec<Self>) -> Self {
        let aggs = std::mem::take(&mut shards[0].aggs);
        let parts = Groups::partitions(shards)
            .into_iter()
            .map(|part| Part::merge(part, &aggs))
            .collect();
        Groups { aggs, parts }
    }
}

/// Source over the groups of a [`Groups`]: each group's key and
/// aggregates are copied into the caller's buffer, and the keys are
/// freed together when the source is dropped, not one per row.
pub(crate) struct GroupRows {
    groups: Vec<(Row, usize)>,
    states: Vec<Val>,
    n: usize,
    next: usize,
}

impl GroupRows {
    /// The groups of `parts`, `n` aggregates each.
    pub(crate) fn new(parts: Vec<Part>, n: usize) -> Self {
        let mut groups = Vec::with_capacity(parts.iter().map(|p| p.index.len()).sum());
        let mut states = Vec::with_capacity(parts.iter().map(|p| p.states.len()).sum());
        let mut base = 0;
        for part in parts {
            let len = part.index.len();
            groups.extend(part.index.into_iter().map(|(k, g)| (k, base + g)));
            states.extend(part.states);
            base += len;
        }
        GroupRows {
            groups,
            states,
            n,
            next: 0,
        }
    }
}

impl Operator for GroupRows {
    fn next(&mut self, row: &mut Row) -> bool {
        let Some((key, g)) = self.groups.get(self.next) else {
            return false;
        };
        self.next += 1;
        let states = &self.states[g * self.n..][..self.n];
        overwrite(row, key.iter().chain(states).map(Cow::Borrowed));
        true
    }
}

/// Blocking hash aggregation (group by a list of expressions); emits one
/// row per group, group keys followed by the aggregates. An ungrouped
/// aggregate emits exactly one row, zeros when its input is empty.
pub struct Aggregate {
    out: GroupRows,
}

impl Aggregate {
    pub fn new(input: BoxOp<'_>, group_by: Vec<Expr>, aggs: Vec<AggSpec>) -> Self {
        let groups = build(input, &group_by, Groups::new(aggs, group_by.is_empty(), 1));
        Aggregate {
            out: groups.into_source(),
        }
    }
}

impl Operator for Aggregate {
    fn next(&mut self, row: &mut Row) -> bool {
        self.out.next(row)
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
            JoinTable::default(),
        );
        let join = HashJoin::new(&table, Box::new(Scan::new(&t, &["k", "s"])), vec![Expr::col(1)]);
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
        let table = super::build(
            Box::new(Scan::new(&build, &["id", "key"])),
            &[Expr::col(1)],
            JoinTable::default(),
        );
        let join = HashJoin::new(
            &table,
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
    fn merged_join_table_chains_each_shard_newest_first() {
        // Two shards of (key, id); key 7 is in both.
        let shard = |rows: &[(i32, i64)]| {
            let mut t = JoinTable::default();
            for &(k, id) in rows {
                t.push(&[Val::I32(k)], &[Val::I64(id), Val::I32(k)]);
            }
            t
        };
        let first = shard(&[(7, 1), (8, 2), (7, 3)]);
        let second = shard(&[(7, 4), (9, 5), (7, 6), (10, 7)]);
        // `second` has more keys, so `first`'s rows are appended to it.
        let table = JoinTable::merge(vec![first, second]);
        let mut probe = Table::new("p");
        probe.add_column("key", ColumnData::I32(vec![7, 8, 9, 10, 11]));
        let join = HashJoin::new(&table, Box::new(Scan::new(&probe, &["key"])), vec![Expr::col(0)]);
        let emitted: Vec<(i64, i32)> = collect(Box::new(join))
            .iter()
            .map(|r| (r[0].as_i64(), r[2].as_i32()))
            .collect();
        assert_eq!(
            emitted,
            vec![(3, 7), (1, 7), (6, 7), (4, 7), (2, 8), (5, 9), (7, 10)]
        );
    }

    #[test]
    fn merged_groups_add_up_the_states_of_a_key() {
        let aggs = vec![
            AggSpec::Count,
            AggSpec::SumI64(Expr::col(1)),
            AggSpec::SumI128(Expr::col(1)),
        ];
        let row = |k: i32, n: i64, s: i64| vec![Val::I32(k), Val::I64(n), Val::I64(s), Val::I128(s as i128)];
        let want = vec![row(1, 1, 10), row(2, 2, 25), row(3, 2, 8)];
        for parts in [1, 3] {
            let shard = |rows: &[(i32, i64)]| {
                let mut g = Groups::new(aggs.clone(), false, parts);
                for &(k, v) in rows {
                    g.push(&[Val::I32(k)], &[Val::I32(k), Val::I64(v)]);
                }
                g
            };
            let shards = || vec![shard(&[(1, 10), (2, 20)]), shard(&[(2, 5), (3, 7), (3, 1)])];
            let rows_of = |g: Groups| collect(Box::new(g.into_source()));
            let mut rows = rows_of(Groups::merge(shards()));
            rows.sort();
            assert_eq!(rows, want, "{parts} partitions");
            // Partition by partition: no key is in two partitions.
            let mut rows: Vec<Row> = Groups::partitions(shards())
                .into_iter()
                .flat_map(|part| {
                    collect(Box::new(GroupRows::new(
                        vec![Part::merge(part, &aggs)],
                        aggs.len(),
                    )))
                })
                .collect();
            rows.sort();
            assert_eq!(rows, want, "{parts} partitions, merged one at a time");
        }
        // An ungrouped aggregation keeps its one group through a merge.
        let none = || Groups::new(aggs.clone(), true, 2);
        assert_eq!(
            collect(Box::new(Groups::merge(vec![none(), none()]).into_source())),
            vec![vec![Val::I64(0), Val::I64(0), Val::I128(0)]]
        );
    }

    #[test]
    fn merged_key_set_is_the_union_of_its_shards() {
        let shard = |keys: &[i32]| {
            let mut s = KeySet::default();
            for &k in keys {
                s.push(&[Val::I32(k)], &[]);
            }
            s
        };
        let keys = KeySet::merge(vec![shard(&[1, 2, 2]), shard(&[2, 3]), KeySet::default()]);
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
            KeySet::default(),
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
            KeySet::default(),
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
            KeySet::default(),
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
