//! Vectorized group-by machinery (§2.2).
//!
//! The Tectorwise aggregation first gives every tuple of a vector its
//! group ([`find_or_insert_groups`]), then runs one aggregate-update
//! primitive per aggregate column over (group, value) pairs. Groups are
//! found with the same candidate-round technique as the hash join; a
//! tuple whose group is missing is looked up once more among the groups
//! the vector has inserted so far and gets a new group if none matches
//! (the simplification of the paper's equal-key partition shuffle
//! documented in DESIGN.md — identical results, and every aggregate still
//! runs vector-at-a-time). The shard makes room for a whole vector's
//! groups before the lookup, so no flush renumbers a vector's groups
//! before its aggregates are updated.

use dbep_runtime::{AggHt, GroupByShard};

/// Scratch vectors for one group-by pipeline.
///
/// After [`find_or_insert_groups`], `groups[j]` is the group of scanned
/// tuple `sel[j]`.
#[derive(Default)]
pub struct GroupBuffers {
    pub groups: Vec<u32>,
    /// Positions in `sel` of the tuples the candidate rounds left
    /// without a group.
    misses: Vec<u32>,
    cand_node: Vec<u32>,
    cand_pos: Vec<u32>,
    next_node: Vec<u32>,
    next_pos: Vec<u32>,
}

impl GroupBuffers {
    pub fn new() -> Self {
        Self::default()
    }
}

/// Give every tuple of a vector its group, inserting the groups that are
/// missing with `init()`.
///
/// `hashes[j]` is the group-key hash of tuple `sel[j]` and `key(sel[j])`
/// its group key (built from one column per key part). The shard first
/// makes room for `sel.len()` new groups, so the table holds at most the
/// larger of its bound and the vector's distinct keys, and the groups
/// stay valid until the next call.
pub fn find_or_insert_groups<K: PartialEq, A>(
    shard: &mut GroupByShard<K, A>,
    hashes: &[u64],
    sel: &[u32],
    key: impl Fn(u32) -> K,
    init: impl Fn() -> A,
    bufs: &mut GroupBuffers,
) {
    assert_eq!(hashes.len(), sel.len(), "find_or_insert_groups inputs must align");
    shard.make_room(sel.len());
    let older = shard.ht.len() as u32;
    find_groups(&shard.ht, hashes, sel, &key, bufs);
    // A missing key may occur more than once in the vector: look it up
    // among the groups inserted since `older` before inserting it.
    let ht = &mut shard.ht;
    for &j in &bufs.misses {
        let j = j as usize;
        let k = key(sel[j]);
        bufs.groups[j] = match ht.find_newer(hashes[j], &k, older) {
            Some(g) => g,
            None => ht.insert_new(hashes[j], k, init()),
        };
    }
}

/// Candidate rounds: set `groups[j]` for every tuple whose group the
/// table holds and list the positions of the others in `misses`.
fn find_groups<K: PartialEq, A>(
    ht: &AggHt<K, A>,
    hashes: &[u64],
    sel: &[u32],
    key: impl Fn(u32) -> K,
    bufs: &mut GroupBuffers,
) {
    bufs.groups.clear();
    bufs.groups.resize(sel.len(), 0);
    bufs.misses.clear();
    bufs.cand_node.clear();
    bufs.cand_pos.clear();
    for (j, &h) in hashes.iter().enumerate() {
        let node = ht.head(h);
        if node == 0 {
            bufs.misses.push(j as u32);
        } else {
            bufs.cand_node.push(node);
            bufs.cand_pos.push(j as u32);
        }
    }
    while !bufs.cand_node.is_empty() {
        bufs.next_node.clear();
        bufs.next_pos.clear();
        for i in 0..bufs.cand_node.len() {
            let (node, j) = (bufs.cand_node[i], bufs.cand_pos[i]);
            let ju = j as usize;
            if ht.node_hash(node) == hashes[ju] && *ht.key(node - 1) == key(sel[ju]) {
                bufs.groups[ju] = node - 1;
                continue; // group keys are unique: first match wins
            }
            let next = ht.node_next(node);
            if next == 0 {
                bufs.misses.push(j);
            } else {
                bufs.next_node.push(next);
                bufs.next_pos.push(j);
            }
        }
        std::mem::swap(&mut bufs.cand_node, &mut bufs.next_node);
        std::mem::swap(&mut bufs.cand_pos, &mut bufs.next_pos);
    }
}

/// Aggregate-update primitive: fold `vals[i]` into group `groups[i]`.
/// One call per aggregate column, as constraint (i) demands.
pub fn agg_update_i64<K: PartialEq, A>(
    ht: &mut AggHt<K, A>,
    groups: &[u32],
    vals: &[i64],
    f: impl Fn(&mut A, i64),
) {
    assert_eq!(groups.len(), vals.len(), "agg inputs must align");
    for (j, &g) in groups.iter().enumerate() {
        f(ht.agg_mut(g), vals[j]);
    }
}

/// Count-style update (no value column).
pub fn agg_update_unit<K: PartialEq, A>(ht: &mut AggHt<K, A>, groups: &[u32], f: impl Fn(&mut A)) {
    for &g in groups {
        f(ht.agg_mut(g));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dbep_runtime::agg_ht::merge_partitions;
    use dbep_runtime::hash::murmur2;
    use std::collections::{BTreeMap, BTreeSet};

    /// One vector of `keys` through the Tectorwise pattern, `sel` naming
    /// every other slot of a key column twice as long: groups first, then
    /// one sum primitive over all tuples. Returns the groups.
    fn aggregate(
        shard: &mut GroupByShard<u64, i64>,
        keys: &[u64],
        model: &mut BTreeMap<u64, i64>,
        bufs: &mut GroupBuffers,
    ) -> Vec<u32> {
        let col: Vec<u64> = keys.iter().flat_map(|&k| [u64::MAX, k]).collect();
        let sel: Vec<u32> = (0..keys.len() as u32).map(|j| 2 * j + 1).collect();
        let hashes: Vec<u64> = keys.iter().map(|&k| murmur2(k)).collect();
        let vals: Vec<i64> = keys.iter().map(|&k| k as i64 * 3 + 1).collect();
        find_or_insert_groups(shard, &hashes, &sel, |t| col[t as usize], || 0, bufs);
        for (j, &g) in bufs.groups.iter().enumerate() {
            assert_eq!(
                *shard.ht.key(g),
                col[sel[j] as usize],
                "group of tuple {}",
                sel[j]
            );
        }
        agg_update_i64(&mut shard.ht, &bufs.groups, &vals, |a, v| *a += v);
        for (&k, &v) in keys.iter().zip(&vals) {
            *model.entry(k).or_insert(0) += v;
        }
        bufs.groups.clone()
    }

    fn merged(shard: GroupByShard<u64, i64>) -> BTreeMap<u64, i64> {
        merge_partitions(vec![shard.finish()], &dbep_runtime::ExecCtx::inline(), |a, b| {
            *a += b
        })
        .into_iter()
        .collect()
    }

    #[test]
    fn hits_keep_their_groups_and_misses_get_new_ones() {
        let mut shard: GroupByShard<u64, i64> = GroupByShard::new();
        let (mut model, mut bufs) = (BTreeMap::new(), GroupBuffers::new());
        let first = aggregate(&mut shard, &(0..10).collect::<Vec<_>>(), &mut model, &mut bufs);
        // Keys 5..10 hit the first vector's groups, keys 10..15 are new.
        let second = aggregate(&mut shard, &(5..15).collect::<Vec<_>>(), &mut model, &mut bufs);
        assert_eq!(second[..5], first[5..]);
        assert!(second[5..].iter().all(|&g| g >= 10));
        assert_eq!(shard.ht.len(), 15);
        assert_eq!(merged(shard), model);
    }

    #[test]
    fn repeated_keys_share_one_group() {
        // 1000 tuples over 13 keys into an empty table: every key misses
        // the candidate rounds, and only its first tuple inserts a group.
        let mut shard: GroupByShard<u64, i64> = GroupByShard::new();
        let (mut model, mut bufs) = (BTreeMap::new(), GroupBuffers::new());
        let keys: Vec<u64> = (0..1000).map(|i| i % 13).collect();
        aggregate(&mut shard, &keys, &mut model, &mut bufs);
        assert_eq!(shard.ht.len(), 13);
        for k in 0..13u64 {
            let g = shard.ht.find(murmur2(k), &k).expect("group");
            assert_eq!(*shard.ht.agg_mut(g), model[&k], "group {k}");
        }
    }

    #[test]
    fn an_empty_vector_leaves_the_table_alone() {
        let mut shard: GroupByShard<u64, i64> = GroupByShard::with_bound(1);
        let (mut model, mut bufs) = (BTreeMap::new(), GroupBuffers::new());
        aggregate(&mut shard, &[7], &mut model, &mut bufs);
        assert!(aggregate(&mut shard, &[], &mut model, &mut bufs).is_empty());
        assert_eq!(shard.ht.len(), 1);
    }

    #[test]
    fn a_vector_never_straddles_a_flush() {
        // A shard of 8 groups: the first vector fills the table; the
        // second has all 8 keys again, interleaved with 20 new ones, so
        // the table flushes before the vector's groups are resolved and
        // then holds every key of the vector once.
        let mut shard: GroupByShard<u64, i64> = GroupByShard::with_bound(8);
        let (mut model, mut bufs) = (BTreeMap::new(), GroupBuffers::new());
        aggregate(&mut shard, &(0..8).collect::<Vec<_>>(), &mut model, &mut bufs);
        let second: Vec<u64> = (0..8)
            .flat_map(|k| [k, 100 + k, 200 + k])
            .chain(300..304)
            .collect();
        aggregate(&mut shard, &second, &mut model, &mut bufs);
        assert_eq!(shard.ht.len(), 28, "one entry per key of the second vector");
        let parts = shard.finish();
        assert_eq!(
            parts.iter().map(Vec::len).sum::<usize>(),
            8 + 28,
            "the first vector's groups were spilled once, by the flush"
        );
        let merged = merge_partitions(vec![parts], &dbep_runtime::ExecCtx::inline(), |a, b| *a += b);
        assert_eq!(merged.into_iter().collect::<BTreeMap<_, _>>(), model);
    }

    #[test]
    fn a_vector_longer_than_the_bound_holds_its_own_keys() {
        let bound = 8;
        let mut shard: GroupByShard<u64, i64> = GroupByShard::with_bound(bound);
        let (mut model, mut bufs) = (BTreeMap::new(), GroupBuffers::new());
        let vectors: [Vec<u64>; 4] = [
            (0..20).collect(),
            (10..30).collect(),
            (0..20).map(|i| i % 5).collect(),
            (0..3).collect(),
        ];
        for keys in &vectors {
            aggregate(&mut shard, keys, &mut model, &mut bufs);
            let distinct = keys.iter().collect::<BTreeSet<_>>().len();
            assert!(
                shard.ht.len() <= bound.max(distinct),
                "{} groups after a vector of {distinct} keys",
                shard.ht.len()
            );
        }
        assert_eq!(merged(shard), model);
    }

    #[test]
    fn unit_updates_count() {
        let mut ht: AggHt<u64, i64> = AggHt::with_capacity(4);
        ht.insert_new(murmur2(1), 1, 0);
        agg_update_unit(&mut ht, &[0, 0, 0], |a| *a += 1);
        assert_eq!(*ht.agg_mut(0), 3);
    }
}
