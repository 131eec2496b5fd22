//! Aggregation hash table and the two-phase parallel group-by (§3.2).
//!
//! "The group by operator is split into two phases for cache friendly
//! parallelization. A pre-aggregation handles heavy hitters and spills
//! groups into partitions. Afterwards, a final step aggregates the groups
//! in each partition."
//!
//! * [`AggHt`] — single-writer chaining table (index-linked, no atomics)
//!   used for each thread's pre-aggregation and for each final partition.
//! * [`GroupByShard`] — one worker's pre-aggregation: an [`AggHt`] of at
//!   most [`PREAGG_GROUPS`] groups that *flushes when full* — a new group
//!   arriving at a full table first moves every group the table holds
//!   into its radix partition ([`PARTITION_COUNT`] spill buffers) and
//!   empties the table, as HyPer's morsel-driven group-by does. A group
//!   is spilled once per flush, however many rows it folded, so runs of
//!   equal keys (Q18's `l_orderkey`) cost one spilled entry, not one per
//!   row. The table starts small and grows up to the bound. The
//!   vectorized engine instead makes room for a whole vector's groups
//!   before it resolves them ([`GroupByShard::make_room`]), so its table
//!   holds at most the larger of the bound and one vector's distinct
//!   keys.
//! * [`merge_partitions`] — the final phase: each non-empty partition is
//!   merged by exactly one worker, so no synchronization on group state
//!   is needed.

/// Number of spill partitions. 64 keeps every partition's final table
/// well inside L2 for the paper's workloads while giving 64-way final
/// parallelism.
pub const PARTITION_COUNT: usize = 64;

/// Radix partition of a hash. Uses bits 56..62, disjoint from the
/// directory slot bits (low) of any reasonably sized table.
#[inline]
pub fn partition_of(hash: u64) -> usize {
    ((hash >> 56) & (PARTITION_COUNT as u64 - 1)) as usize
}

struct AggEntry<K, A> {
    hash: u64,
    /// Index+1 of the next chain entry; 0 terminates.
    next: u32,
    key: K,
    agg: A,
}

/// Single-writer chaining aggregation hash table.
///
/// Entries are identified by dense `u32` indices, which the vectorized
/// engine uses as its "group pointers" (gather/scatter targets).
pub struct AggHt<K, A> {
    dir: Vec<u32>,
    mask: u64,
    entries: Vec<AggEntry<K, A>>,
}

impl<K: PartialEq, A> AggHt<K, A> {
    /// Table expecting roughly `groups` distinct keys (it grows if
    /// exceeded).
    pub fn with_capacity(groups: usize) -> Self {
        let dir_size = (groups.max(8) * 2).next_power_of_two();
        AggHt {
            dir: vec![0; dir_size],
            mask: (dir_size - 1) as u64,
            entries: Vec::with_capacity(groups),
        }
    }

    pub fn len(&self) -> usize {
        self.entries.len()
    }

    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Index of the group for `(hash, key)`, if present.
    #[inline]
    pub fn find(&self, hash: u64, key: &K) -> Option<u32> {
        self.find_newer(hash, key, 0)
    }

    /// Index of the group for `(hash, key)` among the groups inserted
    /// after the first `older`, if present. Chains run newest first (an
    /// insert prepends, and growing relinks in index order), so the walk
    /// stops at the first older group.
    #[inline]
    pub fn find_newer(&self, hash: u64, key: &K, older: u32) -> Option<u32> {
        let mut idx = self.dir[(hash & self.mask) as usize];
        while idx > older {
            let e = &self.entries[idx as usize - 1];
            if e.hash == hash && e.key == *key {
                return Some(idx - 1);
            }
            idx = e.next;
        }
        None
    }

    /// Insert a group known to be absent; returns its index.
    pub fn insert_new(&mut self, hash: u64, key: K, agg: A) -> u32 {
        if self.entries.len() + 1 > self.dir.len() / 2 {
            self.grow();
        }
        let slot = (hash & self.mask) as usize;
        let idx = self.entries.len() as u32 + 1;
        self.entries.push(AggEntry {
            hash,
            next: self.dir[slot],
            key,
            agg,
        });
        self.dir[slot] = idx;
        idx - 1
    }

    fn grow(&mut self) {
        let new_size = self.dir.len() * 2;
        self.dir.clear();
        self.dir.resize(new_size, 0);
        self.mask = (new_size - 1) as u64;
        for (i, e) in self.entries.iter_mut().enumerate() {
            let slot = (e.hash & self.mask) as usize;
            e.next = self.dir[slot];
            self.dir[slot] = i as u32 + 1;
        }
    }

    /// Find-or-insert, folding one row into the group's aggregate.
    #[inline]
    pub fn update(&mut self, hash: u64, key: K, init: impl FnOnce() -> A, fold: impl FnOnce(&mut A)) {
        match self.find(hash, &key) {
            Some(idx) => fold(&mut self.entries[idx as usize].agg),
            None => {
                let mut agg = init();
                fold(&mut agg);
                self.insert_new(hash, key, agg);
            }
        }
    }

    #[inline]
    pub fn agg_mut(&mut self, idx: u32) -> &mut A {
        &mut self.entries[idx as usize].agg
    }

    #[inline]
    pub fn key(&self, idx: u32) -> &K {
        &self.entries[idx as usize].key
    }

    // --- raw chain access for the vectorized engine's primitives ---

    /// Head of the bucket chain for `hash` (index+1; 0 = empty).
    #[inline]
    pub fn head(&self, hash: u64) -> u32 {
        self.dir[(hash & self.mask) as usize]
    }

    /// Stored hash of chain node `idx_plus_1`.
    #[inline]
    pub fn node_hash(&self, idx_plus_1: u32) -> u64 {
        self.entries[idx_plus_1 as usize - 1].hash
    }

    /// Next chain node after `idx_plus_1` (index+1; 0 = end).
    #[inline]
    pub fn node_next(&self, idx_plus_1: u32) -> u32 {
        self.entries[idx_plus_1 as usize - 1].next
    }

    /// Empty the table, yielding `(hash, key, aggregate)` per group. The
    /// entries and the directory keep their size for the groups to come.
    pub fn drain(&mut self) -> impl Iterator<Item = (u64, K, A)> + '_ {
        self.dir.fill(0);
        self.entries.drain(..).map(|e| (e.hash, e.key, e.agg))
    }

    /// Iterate `(key, aggregate)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (&K, &A)> + '_ {
        self.entries.iter().map(|e| (&e.key, &e.agg))
    }
}

/// Groups a pre-aggregation table holds before it flushes; the one
/// bound of every engine's group-by. Chosen by measuring Q18 per engine
/// at SF 0.5 on two workers with `1 << 12`, `1 << 14` and `1 << 16`
/// (EXPERIMENTS.md, "The pre-aggregation flushes when full").
pub const PREAGG_GROUPS: usize = 1 << 14;

/// Groups a pre-aggregation table makes room for before it first grows.
const START_GROUPS: usize = 1 << 8;

/// One worker's pre-aggregation state: an [`AggHt`] that flushes into
/// spill buffers partitioned by hash radix when it is full.
///
/// A flush empties `ht` and so renumbers every group. It happens only in
/// [`update`](Self::update), when a new group finds the table full, and
/// in [`make_room`](Self::make_room), which the vectorized engine calls
/// before it resolves a vector's groups, so the indices of one vector
/// stay valid until its aggregates are updated.
pub struct GroupByShard<K, A> {
    pub ht: AggHt<K, A>,
    max_groups: usize,
    spill: Vec<Vec<(u64, K, A)>>,
}

impl<K: PartialEq, A> Default for GroupByShard<K, A> {
    fn default() -> Self {
        Self::new()
    }
}

impl<K: PartialEq, A> GroupByShard<K, A> {
    /// A shard bounded at [`PREAGG_GROUPS`].
    pub fn new() -> Self {
        Self::with_bound(PREAGG_GROUPS)
    }

    /// A shard whose table flushes when it holds `max_groups` groups.
    pub fn with_bound(max_groups: usize) -> Self {
        assert!(max_groups > 0, "a pre-aggregation table holds at least one group");
        GroupByShard {
            ht: AggHt::with_capacity(max_groups.min(START_GROUPS)),
            max_groups,
            spill: (0..PARTITION_COUNT).map(|_| Vec::new()).collect(),
        }
    }

    /// Fold one row into its group; a new group arriving at a full table
    /// flushes the table first.
    #[inline]
    pub fn update(&mut self, hash: u64, key: K, init: impl FnOnce() -> A, fold: impl FnOnce(&mut A)) {
        if let Some(idx) = self.ht.find(hash, &key) {
            fold(self.ht.agg_mut(idx));
            return;
        }
        if self.ht.len() >= self.max_groups {
            self.flush();
        }
        let mut agg = init();
        fold(&mut agg);
        self.ht.insert_new(hash, key, agg);
    }

    /// Flush unless the table can take `n` more groups within its bound;
    /// an empty table is left as it is.
    #[inline]
    pub fn make_room(&mut self, n: usize) {
        if !self.ht.is_empty() && self.ht.len().saturating_add(n) > self.max_groups {
            self.flush();
        }
    }

    /// Move every group of the table into its partition.
    #[cold]
    fn flush(&mut self) {
        for (hash, key, agg) in self.ht.drain() {
            self.spill[partition_of(hash)].push((hash, key, agg));
        }
    }

    /// End of phase 1: flush the table and hand the partitions to the
    /// merge phase.
    pub fn finish(mut self) -> Vec<Vec<(u64, K, A)>> {
        self.flush();
        self.spill
    }
}

/// Final phase: merge all shards' partition buffers. Each partition that
/// any shard spilled into is merged by exactly one worker (dispensed as
/// unit morsels through `exec` — the shared pool when one is attached;
/// empty partitions cost no morsel); `combine` folds a partial aggregate
/// into the surviving one. Result order is unspecified.
pub fn merge_partitions<K, A>(
    shards: Vec<Vec<Vec<(u64, K, A)>>>,
    exec: &dbep_scheduler::ExecCtx,
    combine: impl Fn(&mut A, A) + Sync,
) -> Vec<(K, A)>
where
    K: PartialEq + Send + Sync,
    A: Send + Sync,
{
    use std::sync::Mutex;
    // Per partition, the shards' non-empty buffers; only partitions with
    // any are merged.
    let mut parts: Vec<Vec<Vec<(u64, K, A)>>> = (0..PARTITION_COUNT).map(|_| Vec::new()).collect();
    for shard in shards {
        for (p, buf) in shard.into_iter().enumerate() {
            if !buf.is_empty() {
                parts[p].push(buf);
            }
        }
    }
    parts.retain(|bufs| !bufs.is_empty());
    let parts: Vec<_> = parts.into_iter().map(Mutex::new).collect();
    let results: Vec<Mutex<Vec<(K, A)>>> = parts.iter().map(|_| Mutex::new(Vec::new())).collect();
    exec.for_each_morsel(dbep_scheduler::Morsels::with_size(parts.len(), 1), |_, r| {
        for p in r {
            let bufs = std::mem::take(&mut *parts[p].lock().expect("spill lock"));
            let mut ht: AggHt<K, A> = AggHt::with_capacity(bufs.iter().map(Vec::len).sum());
            for (hash, key, agg) in bufs.into_iter().flatten() {
                match ht.find(hash, &key) {
                    Some(idx) => combine(ht.agg_mut(idx), agg),
                    None => {
                        ht.insert_new(hash, key, agg);
                    }
                }
            }
            *results[p].lock().expect("result lock") = ht.drain().map(|(_, k, a)| (k, a)).collect();
        }
    });
    results
        .into_iter()
        .flat_map(|m| m.into_inner().expect("result lock"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hash::murmur2;

    #[test]
    fn update_and_find() {
        let mut ht: AggHt<u64, i64> = AggHt::with_capacity(4);
        for i in 0..100u64 {
            let key = i % 7;
            ht.update(murmur2(key), key, || 0, |a| *a += i as i64);
        }
        assert_eq!(ht.len(), 7);
        let mut sums = [0i64; 7];
        for i in 0..100u64 {
            sums[(i % 7) as usize] += i as i64;
        }
        for key in 0..7u64 {
            let idx = ht.find(murmur2(key), &key).expect("group exists");
            assert_eq!(*ht.key(idx), key);
            assert_eq!(*ht.agg_mut(idx), sums[key as usize]);
        }
        assert!(ht.find(murmur2(7), &7).is_none());
    }

    #[test]
    fn growth_preserves_groups() {
        let mut ht: AggHt<u64, u64> = AggHt::with_capacity(8);
        for k in 0..10_000u64 {
            ht.update(murmur2(k), k, || 0, |a| *a += 1);
        }
        assert_eq!(ht.len(), 10_000);
        for k in 0..10_000u64 {
            assert!(ht.find(murmur2(k), &k).is_some(), "lost key {k}");
        }
    }

    #[test]
    fn chain_walk_api() {
        let mut ht: AggHt<u64, u64> = AggHt::with_capacity(8);
        for k in 0..64u64 {
            ht.update(murmur2(k), k, || 0, |a| *a += 1);
        }
        // Every key must be reachable through head/node_next alone.
        for k in 0..64u64 {
            let h = murmur2(k);
            let mut node = ht.head(h);
            let mut found = false;
            while node != 0 {
                if ht.node_hash(node) == h && *ht.key(node - 1) == k {
                    found = true;
                    break;
                }
                node = ht.node_next(node);
            }
            assert!(found, "key {k} unreachable via chain");
        }
    }

    #[test]
    fn find_newer_skips_the_older_groups() {
        // Ten older groups, then ten newer ones inserted across a growth
        // of the directory: only the newer ones are seen past `older`.
        let mut ht: AggHt<u64, u64> = AggHt::with_capacity(8);
        for k in 0..10u64 {
            ht.insert_new(murmur2(k), k, 0);
        }
        let older = ht.len() as u32;
        for k in 0..10u64 {
            assert_eq!(ht.find_newer(murmur2(k), &k, older), None, "older key {k}");
        }
        for k in 10..20u64 {
            ht.insert_new(murmur2(k), k, 0);
        }
        for k in 0..20u64 {
            let want = (k >= 10).then_some(k as u32);
            assert_eq!(ht.find_newer(murmur2(k), &k, older), want, "key {k}");
            assert_eq!(ht.find(murmur2(k), &k), Some(k as u32), "key {k}");
        }
    }

    #[test]
    fn shard_spills_beyond_capacity() {
        let mut shard: GroupByShard<u64, i64> = GroupByShard::with_bound(4);
        for i in 0..1000u64 {
            let key = i % 100; // 100 groups, only 4 fit
            shard.update(murmur2(key), key, || 0, |a| *a += 1);
            assert!(shard.ht.len() <= 4);
        }
        let parts = shard.finish();
        let total_rows: usize = parts.iter().map(|p| p.len()).sum();
        assert!(total_rows >= 100, "all groups must surface");
        let merged = merge_partitions(vec![parts], &dbep_scheduler::ExecCtx::inline(), |a, b| *a += b);
        assert_eq!(merged.len(), 100);
        for (_k, count) in merged {
            assert_eq!(count, 10);
        }
    }

    #[test]
    fn a_full_table_spills_groups_not_rows() {
        // Sorted keys, each four times in a row, ten times more groups
        // than the bound: every group is whole in the table when it
        // flushes, so it is spilled once, not once per row.
        let bound = 64;
        let groups = 10 * bound as u64;
        let mut shard: GroupByShard<u64, i64> = GroupByShard::with_bound(bound);
        let mut model = std::collections::BTreeMap::new();
        for key in 0..groups {
            for rep in 0..4 {
                let v = (key * 7 + rep) as i64;
                shard.update(murmur2(key), key, || 0, |a| *a += v);
                *model.entry(key).or_insert(0) += v;
            }
        }
        let parts = shard.finish();
        assert_eq!(parts.iter().map(Vec::len).sum::<usize>(), groups as usize);
        let merged = merge_partitions(vec![parts], &dbep_scheduler::ExecCtx::spawn(2), |a, b| *a += b);
        assert_eq!(
            merged.into_iter().collect::<std::collections::BTreeMap<_, _>>(),
            model
        );
    }

    #[test]
    fn a_flush_empties_the_table_and_keeps_its_groups() {
        // Two flushes split key 0's rows over three generations of the
        // table: three spilled entries whose sum is the model's.
        let mut shard: GroupByShard<u64, i64> = GroupByShard::with_bound(2);
        for key in [0u64, 1, 2, 0, 3, 4, 0] {
            shard.update(murmur2(key), key, || 0, |a| *a += 1);
        }
        assert_eq!(shard.ht.len(), 1, "the last flush left only key 0's new group");
        let parts = shard.finish();
        let zeros: Vec<i64> = parts.iter().flatten().filter(|e| e.1 == 0).map(|e| e.2).collect();
        assert_eq!(zeros, vec![1, 1, 1]);
        let mut merged = merge_partitions(vec![parts], &dbep_scheduler::ExecCtx::inline(), |a, b| *a += b);
        merged.sort_unstable();
        assert_eq!(merged, vec![(0, 3), (1, 1), (2, 1), (3, 1), (4, 1)]);
    }

    #[test]
    fn merge_dispatches_only_non_empty_partitions() {
        let pool = dbep_scheduler::Scheduler::new(2);
        let query = pool.begin_query(dbep_scheduler::DEFAULT_PRIORITY);
        let mut shard: GroupByShard<u64, i64> = GroupByShard::new();
        for key in [3u64, 5] {
            shard.update(murmur2(key), key, || 0, |a| *a += 1);
        }
        let used: std::collections::BTreeSet<usize> = [3u64, 5].map(|k| partition_of(murmur2(k))).into();
        let merged = merge_partitions(
            vec![shard.finish()],
            &dbep_scheduler::ExecCtx::pooled(2, &query),
            |a, b| *a += b,
        );
        assert_eq!(merged.len(), 2);
        assert_eq!(query.stats().morsels as usize, used.len());
    }

    #[test]
    fn multi_shard_merge_parallel() {
        // 4 shards, overlapping groups; merged counts must match a
        // sequential model.
        let mut shards = Vec::new();
        for s in 0..4u64 {
            let mut shard: GroupByShard<u64, i64> = GroupByShard::with_bound(16);
            for i in 0..5000u64 {
                let key = (i + s) % 997;
                shard.update(murmur2(key), key, || 0, |a| *a += 1);
            }
            shards.push(shard.finish());
        }
        let merged = merge_partitions(shards, &dbep_scheduler::ExecCtx::spawn(4), |a, b| *a += b);
        assert_eq!(merged.len(), 997);
        let total: i64 = merged.iter().map(|(_, c)| *c).sum();
        assert_eq!(total, 4 * 5000);
    }

    #[test]
    fn empty_merge() {
        let merged: Vec<(u64, i64)> =
            merge_partitions(Vec::new(), &dbep_scheduler::ExecCtx::spawn(2), |a, b| *a += b);
        assert!(merged.is_empty());
    }

    #[test]
    fn partition_of_is_in_range() {
        for k in 0..100_000u64 {
            assert!(partition_of(murmur2(k)) < PARTITION_COUNT);
        }
    }
}
