//! Property-style tests on the core data structures and primitives.
//!
//! Strategy: every SIMD/vectorized/concurrent fast path must agree with
//! a trivially correct model (`std` collections, plain loops) on
//! randomized inputs — the invariants the whole study rests on. Inputs
//! are drawn from the in-tree deterministic PRNG (the workspace is
//! dependency-free, so no proptest): many seeded cases per property,
//! fully reproducible.

use db_engine_paradigms::prelude::*;
use dbep_core::runtime::agg_ht::merge_partitions;
use dbep_core::runtime::join_ht::{JoinHt, JoinHtShard};
use dbep_core::runtime::rng::SmallRng;
use dbep_core::runtime::{murmur2, GroupByShard, Morsels};
use dbep_core::storage::types::{civil, date, format_date, parse_date};
use dbep_core::storage::StrColumn;
use dbep_core::vectorized::{gather, hashp, map, probe, sel};
use std::collections::HashMap;

const CASES: u64 = 64;

fn all_policies() -> Vec<SimdPolicy> {
    vec![SimdPolicy::Scalar, SimdPolicy::Simd, SimdPolicy::Auto]
}

// ----- selection primitives ≡ filter model, every policy -----

#[test]
fn dense_selection_matches_model() {
    for case in 0..CASES {
        let mut rng = SmallRng::seed_from_u64(0x5e1 ^ case);
        let n = rng.gen_range(0usize..300);
        let col: Vec<i32> = (0..n).map(|_| rng.gen_range(-1000i32..1000)).collect();
        let c = rng.gen_range(-1000i32..1000);
        let model: Vec<u32> = (0..n).filter(|&i| col[i] < c).map(|i| i as u32).collect();
        for policy in all_policies() {
            let mut out = Vec::new();
            sel::sel_lt_i32_dense(&col, c, 0, &mut out, policy);
            assert_eq!(out, model, "case {case} policy {policy:?}");
        }
    }
}

#[test]
fn sparse_selection_matches_model() {
    for case in 0..CASES {
        let mut rng = SmallRng::seed_from_u64(0x5b2 ^ case);
        let n = rng.gen_range(1usize..300);
        let col: Vec<i64> = (0..n).map(|_| rng.gen_range(-100i64..100)).collect();
        let in_sel: Vec<u32> = (0..n).filter(|_| rng.gen_bool(0.5)).map(|i| i as u32).collect();
        let lo = rng.gen_range(-100i64..100);
        let hi = lo + rng.gen_range(0i64..50);
        let model: Vec<u32> = in_sel
            .iter()
            .copied()
            .filter(|&i| col[i as usize] >= lo && col[i as usize] <= hi)
            .collect();
        for policy in all_policies() {
            let mut out = Vec::new();
            sel::sel_between_i64_sparse(&col, lo, hi, &in_sel, &mut out, policy);
            assert_eq!(out, model, "case {case} policy {policy:?}");
        }
    }
}

#[test]
fn col_col_selection_matches_model() {
    for case in 0..CASES {
        let mut rng = SmallRng::seed_from_u64(0xcc1 ^ case);
        let n = rng.gen_range(0usize..300);
        let a: Vec<i32> = (0..n).map(|_| rng.gen_range(-50i32..50)).collect();
        let b: Vec<i32> = (0..n).map(|_| rng.gen_range(-50i32..50)).collect();
        let dense_model: Vec<u32> = (0..n).filter(|&i| a[i] < b[i]).map(|i| i as u32).collect();
        let in_sel: Vec<u32> = (0..n).filter(|_| rng.gen_bool(0.6)).map(|i| i as u32).collect();
        let sparse_model: Vec<u32> = in_sel
            .iter()
            .copied()
            .filter(|&i| a[i as usize] < b[i as usize])
            .collect();
        for policy in all_policies() {
            let mut out = Vec::new();
            sel::sel_lt_i32_col_dense(&a, &b, 0, &mut out, policy);
            assert_eq!(out, dense_model, "dense case {case} policy {policy:?}");
            sel::sel_lt_i32_col_sparse(&a, &b, &in_sel, &mut out, policy);
            assert_eq!(out, sparse_model, "sparse case {case} policy {policy:?}");
        }
    }
}

// ----- semi-join probe ≡ HashSet-membership model, every policy -----

#[test]
fn semijoin_probe_matches_model() {
    for case in 0..CASES {
        let mut rng = SmallRng::seed_from_u64(0x5e31 ^ case);
        let nb = rng.gen_range(0usize..300);
        // Duplicate-heavy build side: semi-join must not fan out.
        let build: Vec<i32> = (0..nb).map(|_| rng.gen_range(0i32..64)).collect();
        let np = rng.gen_range(0usize..300);
        let probe_keys: Vec<i32> = (0..np).map(|_| rng.gen_range(0i32..128)).collect();
        let ht = JoinHt::build(build.iter().map(|&k| (murmur2(k as u64), k)));
        let set: std::collections::HashSet<i32> = build.iter().copied().collect();
        let mut model: Vec<u32> = (0..np as u32)
            .filter(|&t| set.contains(&probe_keys[t as usize]))
            .collect();
        model.sort_unstable();
        // The runtime's scalar existence path agrees with the set model.
        for (t, &k) in probe_keys.iter().enumerate() {
            assert_eq!(
                ht.contains(murmur2(k as u64), |r| *r == k),
                set.contains(&k),
                "case {case} tuple {t}"
            );
        }
        // The vectorized primitive agrees under every policy.
        let hashes: Vec<u64> = probe_keys.iter().map(|&k| murmur2(k as u64)).collect();
        let tuples: Vec<u32> = (0..np as u32).collect();
        for policy in all_policies() {
            let mut bufs = probe::ProbeBuffers::new();
            let n = probe::probe_semijoin(
                &ht,
                &hashes,
                &tuples,
                |r, t| *r == probe_keys[t as usize],
                policy,
                &mut bufs,
            );
            let mut got = bufs.match_tuple.clone();
            got.sort_unstable();
            assert_eq!(n, got.len(), "case {case} policy {policy:?}");
            assert_eq!(got, model, "case {case} policy {policy:?}");
        }
    }
}

// ----- string prefix-match flags ≡ starts_with model, every policy -----

#[test]
fn str_prefix_flags_match_model() {
    let alphabet = [b'P', b'R', b'O', b'M', b'X'];
    for case in 0..CASES {
        let mut rng = SmallRng::seed_from_u64(0x9ef1 ^ case);
        let n = rng.gen_range(0usize..200);
        // Strings from a tiny alphabet so prefixes actually collide.
        let strings: Vec<String> = (0..n)
            .map(|_| {
                let len = rng.gen_range(0usize..8);
                (0..len)
                    .map(|_| alphabet[rng.gen_range(0..alphabet.len())] as char)
                    .collect()
            })
            .collect();
        let col: StrColumn = strings.iter().map(|s| s.as_str()).collect();
        let sel_v: Vec<u32> = (0..n).filter(|_| rng.gen_bool(0.7)).map(|i| i as u32).collect();
        let plen = rng.gen_range(0usize..5);
        let prefix: Vec<u8> = (0..plen)
            .map(|_| alphabet[rng.gen_range(0..alphabet.len())])
            .collect();
        let model: Vec<u8> = sel_v
            .iter()
            .map(|&i| strings[i as usize].as_bytes().starts_with(&prefix) as u8)
            .collect();
        for policy in all_policies() {
            let mut out = Vec::new();
            map::map_str_prefix_flags(&col, &sel_v, &prefix, policy, &mut out);
            assert_eq!(out, model, "case {case} policy {policy:?}");
        }
    }
}

// ----- conditional aggregation primitives ≡ filter-sum model -----

#[test]
fn conditional_sum_and_count_match_model() {
    for case in 0..CASES {
        let mut rng = SmallRng::seed_from_u64(0xca5e ^ case);
        let n = rng.gen_range(0usize..400);
        let vals: Vec<i64> = (0..n).map(|_| rng.gen_range(-1000i64..1000)).collect();
        let flags: Vec<u8> = (0..n).map(|_| rng.gen_range(0u32..3) as u8).collect();
        let model_sum: i64 = vals
            .iter()
            .zip(&flags)
            .filter(|(_, &f)| f != 0)
            .map(|(&v, _)| v)
            .sum();
        let model_count = flags.iter().filter(|&&f| f != 0).count() as i64;
        for policy in all_policies() {
            assert_eq!(
                map::sum_i64_where_u8(&vals, &flags, policy),
                model_sum,
                "case {case} policy {policy:?}"
            );
            assert_eq!(
                map::count_nonzero_u8(&flags, policy),
                model_count,
                "case {case} policy {policy:?}"
            );
        }
    }
}

// ----- gathers and hash primitives ≡ map model -----

#[test]
fn gather_matches_model() {
    for case in 0..CASES {
        let mut rng = SmallRng::seed_from_u64(0x6a7 ^ case);
        let n = rng.gen_range(1usize..500);
        let col: Vec<i64> = (0..n).map(|_| rng.next_u64() as i64).collect();
        let m = rng.gen_range(0usize..200);
        let sel_v: Vec<u32> = (0..m).map(|_| rng.gen_range(0usize..n) as u32).collect();
        let model: Vec<i64> = sel_v.iter().map(|&i| col[i as usize]).collect();
        for policy in [SimdPolicy::Scalar, SimdPolicy::Simd] {
            let mut out = Vec::new();
            gather::gather_i64(&col, &sel_v, policy, &mut out);
            assert_eq!(out, model, "case {case} policy {policy:?}");
        }
    }
}

#[test]
fn simd_hash_matches_scalar() {
    for case in 0..CASES {
        let mut rng = SmallRng::seed_from_u64(0x4a5 ^ case);
        let n = rng.gen_range(0usize..200);
        let keys: Vec<u64> = (0..n).map(|_| rng.next_u64()).collect();
        let mut scalar = Vec::new();
        let mut simd = Vec::new();
        hashp::murmur2_u64_vec(&keys, SimdPolicy::Scalar, &mut scalar);
        hashp::murmur2_u64_vec(&keys, SimdPolicy::Simd, &mut simd);
        assert_eq!(scalar, simd, "case {case}");
    }
}

// ----- join hash table ≡ HashMap multimap model -----

#[test]
fn join_ht_matches_multimap() {
    for case in 0..CASES {
        let mut rng = SmallRng::seed_from_u64(0x1a1 ^ case);
        let nb = rng.gen_range(0usize..300);
        let build: Vec<(i32, i64)> = (0..nb)
            .map(|_| (rng.gen_range(0i32..64), rng.next_u64() as i64))
            .collect();
        let np = rng.gen_range(0usize..300);
        let probe: Vec<i32> = (0..np).map(|_| rng.gen_range(0i32..128)).collect();
        let ht = JoinHt::build(build.iter().map(|&(k, v)| (murmur2(k as u64), (k, v))));
        let mut model: HashMap<i32, Vec<i64>> = HashMap::new();
        for &(k, v) in &build {
            model.entry(k).or_default().push(v);
        }
        for &k in &probe {
            let mut got: Vec<i64> = ht
                .probe(murmur2(k as u64))
                .filter(|e| e.row.0 == k)
                .map(|e| e.row.1)
                .collect();
            got.sort_unstable();
            let mut want = model.get(&k).cloned().unwrap_or_default();
            want.sort_unstable();
            assert_eq!(got, want, "case {case} key {k}");
        }
    }
}

#[test]
fn parallel_join_build_matches_serial() {
    for case in 0..CASES {
        let mut rng = SmallRng::seed_from_u64(0x9b3 ^ case);
        let n = rng.gen_range(0usize..500);
        let rows: Vec<(i32, i64)> = (0..n)
            .map(|_| (rng.next_u64() as i32, rng.next_u64() as i64))
            .collect();
        let serial = JoinHt::build(rows.iter().map(|&(k, v)| (murmur2(k as u64), (k, v))));
        let mut shards: Vec<JoinHtShard<(i32, i64)>> = (0..4).map(|_| JoinHtShard::new()).collect();
        for (i, &(k, v)) in rows.iter().enumerate() {
            shards[i % 4].push(murmur2(k as u64), (k, v));
        }
        let parallel = JoinHt::from_shards(shards, &db_engine_paradigms::runtime::ExecCtx::spawn(4));
        assert_eq!(serial.len(), parallel.len(), "case {case}");
        for &(k, _) in &rows {
            let count =
                |ht: &JoinHt<(i32, i64)>| ht.probe(murmur2(k as u64)).filter(|e| e.row.0 == k).count();
            assert_eq!(count(&serial), count(&parallel), "case {case} key {k}");
        }
    }
}

// ----- two-phase group-by ≡ HashMap aggregation model -----

#[test]
fn group_by_matches_hashmap() {
    for case in 0..CASES {
        let mut rng = SmallRng::seed_from_u64(0x6b4 ^ case);
        let n = rng.gen_range(0usize..1000);
        let keys: Vec<u64> = (0..n).map(|_| rng.gen_range(0u64..100)).collect();
        let cap = rng.gen_range(1usize..64);
        let shard_count = rng.gen_range(1usize..4);
        let mut shards = Vec::new();
        for s in 0..shard_count {
            let mut shard: GroupByShard<u64, i64> = GroupByShard::with_bound(cap);
            for (i, &k) in keys.iter().enumerate() {
                if i % shard_count == s {
                    shard.update(murmur2(k), k, || 0, |a| *a += 1);
                }
            }
            shards.push(shard.finish());
        }
        let merged = merge_partitions(
            shards,
            &db_engine_paradigms::runtime::ExecCtx::spawn(2),
            |a, b| *a += b,
        );
        let mut model: HashMap<u64, i64> = HashMap::new();
        for &k in &keys {
            *model.entry(k).or_insert(0) += 1;
        }
        assert_eq!(merged.len(), model.len(), "case {case}");
        for (k, v) in merged {
            assert_eq!(v, model[&k], "case {case} group {k}");
        }
    }
}

// ----- storage scalar types -----

#[test]
fn date_roundtrip() {
    let mut rng = SmallRng::seed_from_u64(0xda7e);
    for case in 0..2000u32 {
        let days = rng.gen_range(-200_000i32..200_000);
        let (y, m, d) = civil(days);
        assert_eq!(date(y, m, d), days, "case {case}");
        assert_eq!(parse_date(&format_date(days)), Some(days), "case {case}");
    }
}

#[test]
fn str_column_roundtrip() {
    let mut rng = SmallRng::seed_from_u64(0x57c);
    for case in 0..CASES {
        let n = rng.gen_range(0usize..50);
        let strings: Vec<String> = (0..n)
            .map(|_| {
                // Mix ASCII with arbitrary multi-byte scalars so the
                // byte-offset layout is exercised, not just 1-byte chars.
                let len = rng.gen_range(0usize..40);
                (0..len)
                    .map(|_| {
                        if rng.gen_bool(0.5) {
                            char::from(rng.gen_range(32u32..127) as u8)
                        } else {
                            loop {
                                if let Some(c) = char::from_u32(rng.gen_range(0u32..0x11_0000)) {
                                    break c;
                                }
                            }
                        }
                    })
                    .collect()
            })
            .collect();
        let col: StrColumn = strings.iter().map(|s| s.as_str()).collect();
        assert_eq!(col.len(), strings.len(), "case {case}");
        for (i, s) in strings.iter().enumerate() {
            assert_eq!(col.get(i), s.as_str(), "case {case} row {i}");
        }
    }
}

// ----- morsel dispenser covers every tuple exactly once -----

#[test]
fn morsels_tile_exactly() {
    let mut rng = SmallRng::seed_from_u64(0x305e1);
    for case in 0..CASES {
        let total = rng.gen_range(0usize..100_000);
        let size = rng.gen_range(1usize..5_000);
        let m = Morsels::with_size(total, size);
        let mut covered = 0usize;
        let mut next_expected = 0usize;
        while let Some(r) = m.claim() {
            assert_eq!(r.start, next_expected, "case {case}");
            covered += r.len();
            next_expected = r.end;
        }
        assert_eq!(covered, total, "case {case}");
    }
}

// ----- shared result ordering is total and deterministic -----

#[test]
fn result_sort_is_total() {
    use dbep_core::queries::result::{OrderBy, QueryResult};
    let mut rng = SmallRng::seed_from_u64(0x50f7);
    for case in 0..CASES {
        let n = rng.gen_range(0usize..100);
        let rows: Vec<Vec<Value>> = (0..n)
            .map(|_| {
                vec![
                    Value::I64(rng.next_u64() as i64),
                    Value::I64(rng.gen_range(0i64..5)),
                ]
            })
            .collect();
        let r1 = QueryResult::new(&["a", "b"], rows.clone(), &[OrderBy::desc(1)], None);
        let mut shuffled = rows;
        shuffled.reverse();
        let r2 = QueryResult::new(&["a", "b"], shuffled, &[OrderBy::desc(1)], None);
        assert_eq!(r1, r2, "case {case}");
    }
}

// ----- end-to-end: arbitrary tiny databases, all engines agree -----

#[test]
fn engines_agree_on_arbitrary_seeds() {
    for seed in 0..16u64 {
        let db = dbep_datagen::tpch::generate(0.01, seed * 61 + 1);
        let cfg = ExecCfg::default();
        for q in [QueryId::Q6, QueryId::Q1, QueryId::Q4, QueryId::Q12, QueryId::Q14] {
            let typer = run(Engine::Typer, q, &db, &cfg);
            let tw = run(Engine::Tectorwise, q, &db, &cfg);
            assert_eq!(typer, tw, "{} seed {seed}", q.name());
        }
    }
}
