//! Micro-benchmarks of the shared hash tables: tagged-pointer join
//! table build/probe (with and without the Bloom tag — the §3.2
//! ablation) and the two-phase aggregation table.

use dbep_bench::harness::Bench;
use dbep_runtime::agg_ht::merge_partitions;
use dbep_runtime::join_ht::{JoinHt, JoinHtShard};
use dbep_runtime::rng::SmallRng;
use dbep_runtime::{murmur2, GroupByShard};

fn bench_join_build(b: &Bench) {
    let n = 100_000usize;
    let rows: Vec<(u64, (i32, i64))> = (0..n as u64)
        .map(|k| (murmur2(k), (k as i32, k as i64)))
        .collect();
    b.run("join_ht_build_100k/serial", n as u64, || {
        let mut shard = JoinHtShard::with_capacity(n);
        for &(h, r) in &rows {
            shard.push(h, r);
        }
        JoinHt::from_shards(vec![shard], &dbep_runtime::ExecCtx::inline())
    });
}

fn bench_join_probe(b: &Bench) {
    let mut rng = SmallRng::seed_from_u64(5);
    let n = 100_000usize;
    let probes: Vec<u64> = (0..100_000).map(|_| rng.gen_range(0..n as u64 * 2)).collect();
    for tags in [true, false] {
        let mut shard = JoinHtShard::with_capacity(n);
        for k in 0..n as u64 {
            shard.push(murmur2(k), (k as i32, k as i64));
        }
        let ht = JoinHt::from_shards_cfg(vec![shard], &dbep_runtime::ExecCtx::inline(), tags);
        let label = if tags { "tagged" } else { "untagged" };
        b.run(
            &format!("join_ht_probe_50pct_miss/{label}"),
            probes.len() as u64,
            || {
                let mut hits = 0u64;
                for &k in &probes {
                    if ht.probe(murmur2(k)).any(|e| e.row.0 == k as i32) {
                        hits += 1;
                    }
                }
                hits
            },
        );
    }
}

fn bench_aggregation(b: &Bench) {
    let mut rng = SmallRng::seed_from_u64(6);
    for groups in [4u64, 1 << 16] {
        let keys: Vec<u64> = (0..200_000).map(|_| rng.gen_range(0..groups)).collect();
        b.run(
            &format!("group_by_{groups}_groups/shard_update_merge"),
            keys.len() as u64,
            || {
                let mut shard: GroupByShard<u64, i64> = GroupByShard::new();
                for &k in &keys {
                    shard.update(murmur2(k), k, || 0, |a| *a += 1);
                }
                merge_partitions(vec![shard.finish()], &dbep_runtime::ExecCtx::inline(), |a, b| {
                    *a += b
                })
                .len()
            },
        );
    }
}

fn main() {
    let b = Bench::from_env();
    bench_join_build(&b);
    bench_join_probe(&b);
    bench_aggregation(&b);
}
