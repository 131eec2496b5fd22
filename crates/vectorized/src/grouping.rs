//! Vectorized group-by machinery (§2.2).
//!
//! The Tectorwise aggregation finds each inbound tuple's group with the
//! same candidate-round technique as the hash join; tuples whose group is
//! missing are resolved against the thread-private pre-aggregation shard
//! one at a time (the simplification of the paper's equal-key partition
//! shuffle documented in DESIGN.md — identical results, the vector path
//! still handles every hit). Aggregate updates then run as one primitive
//! per aggregate column over (group, value) pairs.
//!
//! A pipeline applies a vector's hits before it resolves the vector's
//! misses: resolving a miss may flush the worker's pre-aggregation table
//! ([`dbep_runtime::GroupByShard::update`]), and a flush renumbers every
//! group `find_groups` returned.

use dbep_runtime::AggHt;

/// Scratch vectors for one group-by pipeline.
///
/// After [`find_groups`], `groups[i]` is the group index for scanned
/// tuple `group_sel[i]`, and `miss_sel` lists tuples without a group.
#[derive(Default)]
pub struct GroupBuffers {
    pub groups: Vec<u32>,
    pub group_sel: Vec<u32>,
    pub miss_sel: Vec<u32>,
    cand_node: Vec<u32>,
    cand_hash: Vec<u64>,
    cand_sel: Vec<u32>,
    next_node: Vec<u32>,
    next_hash: Vec<u64>,
    next_sel: Vec<u32>,
}

impl GroupBuffers {
    pub fn new() -> Self {
        Self::default()
    }
}

/// Resolve group indices for a vector of tuples.
///
/// `hashes[i]` is the group-key hash of tuple `sel[i]`; `key_eq` is the
/// composed per-key-column comparison (one type-specialized primitive
/// per column in Tectorwise terms).
pub fn find_groups<K: PartialEq, A>(
    ht: &AggHt<K, A>,
    hashes: &[u64],
    sel: &[u32],
    key_eq: impl Fn(&K, u32) -> bool,
    bufs: &mut GroupBuffers,
) {
    assert_eq!(hashes.len(), sel.len(), "find_groups inputs must align");
    bufs.groups.clear();
    bufs.group_sel.clear();
    bufs.miss_sel.clear();
    bufs.cand_node.clear();
    bufs.cand_hash.clear();
    bufs.cand_sel.clear();
    for (j, &h) in hashes.iter().enumerate() {
        let node = ht.head(h);
        if node == 0 {
            bufs.miss_sel.push(sel[j]);
        } else {
            bufs.cand_node.push(node);
            bufs.cand_hash.push(h);
            bufs.cand_sel.push(sel[j]);
        }
    }
    while !bufs.cand_node.is_empty() {
        bufs.next_node.clear();
        bufs.next_hash.clear();
        bufs.next_sel.clear();
        for j in 0..bufs.cand_node.len() {
            let node = bufs.cand_node[j];
            if ht.node_hash(node) == bufs.cand_hash[j] && key_eq(ht.key(node - 1), bufs.cand_sel[j]) {
                bufs.groups.push(node - 1);
                bufs.group_sel.push(bufs.cand_sel[j]);
                continue; // group keys are unique: first match wins
            }
            let next = ht.node_next(node);
            if next == 0 {
                bufs.miss_sel.push(bufs.cand_sel[j]);
            } else {
                bufs.next_node.push(next);
                bufs.next_hash.push(bufs.cand_hash[j]);
                bufs.next_sel.push(bufs.cand_sel[j]);
            }
        }
        std::mem::swap(&mut bufs.cand_node, &mut bufs.next_node);
        std::mem::swap(&mut bufs.cand_hash, &mut bufs.next_hash);
        std::mem::swap(&mut bufs.cand_sel, &mut bufs.next_sel);
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
    use dbep_runtime::GroupByShard;
    use std::collections::BTreeMap;

    #[test]
    fn hits_and_misses_split_correctly() {
        let mut ht: AggHt<u64, i64> = AggHt::with_capacity(8);
        for k in 0..10u64 {
            ht.insert_new(murmur2(k), k, 0);
        }
        let keys: Vec<u64> = (5..15).collect();
        let hashes: Vec<u64> = keys.iter().map(|&k| murmur2(k)).collect();
        let sel: Vec<u32> = (0..10).collect();
        let mut bufs = GroupBuffers::new();
        find_groups(&ht, &hashes, &sel, |k, t| *k == keys[t as usize], &mut bufs);
        // keys 5..10 hit, keys 10..15 miss. Hits surface in candidate-round
        // order, so compare as sets.
        let mut hits = bufs.group_sel.clone();
        hits.sort_unstable();
        assert_eq!(hits, vec![0, 1, 2, 3, 4]);
        let mut misses = bufs.miss_sel.clone();
        misses.sort_unstable();
        assert_eq!(misses, vec![5, 6, 7, 8, 9]);
        for (j, &g) in bufs.groups.iter().enumerate() {
            assert_eq!(*ht.key(g), keys[bufs.group_sel[j] as usize]);
        }
    }

    #[test]
    fn vectorized_aggregation_matches_scalar() {
        let mut ht: AggHt<u64, i64> = AggHt::with_capacity(16);
        let keys: Vec<u64> = (0..1000).map(|i| i % 13).collect();
        let vals: Vec<i64> = (0..1000).map(|i| i as i64).collect();
        // Insert all groups first.
        for k in 0..13u64 {
            ht.insert_new(murmur2(k), k, 0);
        }
        let hashes: Vec<u64> = keys.iter().map(|&k| murmur2(k)).collect();
        let sel: Vec<u32> = (0..1000).collect();
        let mut bufs = GroupBuffers::new();
        find_groups(&ht, &hashes, &sel, |k, t| *k == keys[t as usize], &mut bufs);
        assert!(bufs.miss_sel.is_empty());
        assert_eq!(bufs.groups.len(), 1000);
        // Gather the value per found tuple and update.
        let gathered: Vec<i64> = bufs.group_sel.iter().map(|&t| vals[t as usize]).collect();
        agg_update_i64(&mut ht, &bufs.groups, &gathered, |a, v| *a += v);
        let mut model = [0i64; 13];
        for i in 0..1000usize {
            model[i % 13] += i as i64;
        }
        for k in 0..13u64 {
            let idx = ht.find(murmur2(k), &k).expect("group");
            assert_eq!(*ht.agg_mut(idx), model[k as usize], "group {k}");
        }
    }

    #[test]
    fn empty_table_all_miss() {
        let ht: AggHt<u64, i64> = AggHt::with_capacity(4);
        let hashes = vec![murmur2(1), murmur2(2)];
        let sel = vec![10u32, 20];
        let mut bufs = GroupBuffers::new();
        find_groups(&ht, &hashes, &sel, |_, _| true, &mut bufs);
        assert!(bufs.groups.is_empty());
        assert_eq!(bufs.miss_sel, vec![10, 20]);
    }

    #[test]
    fn hits_then_misses_survive_a_flush_mid_vector() {
        // The Tectorwise pattern over a shard of 8 groups: the first
        // vector fills the table, the second hits all 8 groups and
        // brings 20 new ones, whose misses flush the table three times.
        let mut shard: GroupByShard<u64, i64> = GroupByShard::with_bound(8);
        let first: Vec<u64> = (0..8).collect();
        let second: Vec<u64> = (0..8)
            .flat_map(|k| [k, 100 + k, 200 + k])
            .chain(300..304)
            .collect();
        let mut model = BTreeMap::new();
        let mut bufs = GroupBuffers::new();
        for keys in [&first, &second] {
            let vals: Vec<i64> = keys.iter().map(|&k| k as i64 * 3 + 1).collect();
            let hashes: Vec<u64> = keys.iter().map(|&k| murmur2(k)).collect();
            let sel: Vec<u32> = (0..keys.len() as u32).collect();
            find_groups(&shard.ht, &hashes, &sel, |k, t| *k == keys[t as usize], &mut bufs);
            let hit_vals: Vec<i64> = bufs.group_sel.iter().map(|&t| vals[t as usize]).collect();
            agg_update_i64(&mut shard.ht, &bufs.groups, &hit_vals, |a, v| *a += v);
            for &t in &bufs.miss_sel {
                let t = t as usize;
                shard.update(hashes[t], keys[t], || 0, |a| *a += vals[t]);
            }
            for (&k, &v) in keys.iter().zip(&vals) {
                *model.entry(k).or_insert(0) += v;
            }
        }
        assert_eq!(
            bufs.groups.len(),
            8,
            "the second vector hits every group of the first"
        );
        assert_eq!(bufs.miss_sel.len(), 20);
        let merged = merge_partitions(vec![shard.finish()], &dbep_runtime::ExecCtx::inline(), |a, b| {
            *a += b
        });
        assert_eq!(merged.into_iter().collect::<BTreeMap<_, _>>(), model);
    }

    #[test]
    fn unit_updates_count() {
        let mut ht: AggHt<u64, i64> = AggHt::with_capacity(4);
        ht.insert_new(murmur2(1), 1, 0);
        agg_update_unit(&mut ht, &[0, 0, 0], |a| *a += 1);
        assert_eq!(*ht.agg_mut(0), 3);
    }
}
