//! Fused-vs-decode-then-select equivalence properties: every fused
//! primitive over a bit-packed column must produce exactly
//! the selection vector (or gathered values) that decoding the column
//! and running the flat primitive would, for every [`SimdPolicy`], over
//! randomized widths, ranges, lengths, and selection densities.

use dbep_storage::{Arena, PackedInts};
use dbep_vectorized::gather::gather_packed_i64;
use dbep_vectorized::sel::*;
use dbep_vectorized::SimdPolicy;

struct Rng(u64);

impl Rng {
    fn new(seed: u64) -> Rng {
        Rng(seed.max(1))
    }

    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x.wrapping_mul(0x2545_f491_4f6c_dd1d)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

const POLICIES: [SimdPolicy; 3] = [SimdPolicy::Scalar, SimdPolicy::Simd, SimdPolicy::Auto];

/// Randomized packed column + its decoded flat form. Widths sweep the
/// SIMD-eligible range, width 0 (all-equal) and the raw 64-bit fallback.
fn random_column(rng: &mut Rng, arena: &Arena, target_width: u32) -> (PackedInts, Vec<i64>) {
    let len = 1 + rng.below(1500) as usize;
    let min = rng.next() as i64 % 1_000_000;
    let vals: Vec<i64> = match target_width {
        0 => vec![min; len],
        58.. => (0..len).map(|_| rng.next() as i64).collect(),
        w => (0..len)
            .map(|_| min.wrapping_add(rng.below(1u64 << w) as i64))
            .collect(),
    };
    let packed = PackedInts::encode(&vals, arena);
    let mut flat = Vec::new();
    packed.decode_into(&mut flat);
    assert_eq!(flat, vals, "roundtrip is the precondition of equivalence");
    (packed, flat)
}

fn random_sel(rng: &mut Rng, len: usize) -> Vec<u32> {
    let keep = 1 + rng.below(4);
    (0..len as u32).filter(|_| rng.below(4) < keep).collect()
}

#[test]
fn packed_dense_cmp_matches_flat() {
    let arena = Arena::new();
    let mut rng = Rng::new(0xfced_0001);
    for target_width in [0u32, 1, 3, 7, 8, 12, 13, 24, 31, 33, 49, 57, 60] {
        let (packed, flat) = random_column(&mut rng, &arena, target_width);
        let c = flat[rng.below(flat.len() as u64) as usize];
        let start = rng.below(flat.len() as u64) as usize;
        let chunk = start..flat.len();
        for policy in POLICIES {
            let mut fused = Vec::new();
            let mut model = Vec::new();
            sel_lt_i64_packed(&packed, c, chunk.clone(), &mut fused, policy);
            sel_lt_i64_dense(&flat[chunk.clone()], c, chunk.start as u32, &mut model, policy);
            assert_eq!(fused, model, "lt w={target_width} {policy:?}");

            sel_ge_i64_packed(&packed, c, chunk.clone(), &mut fused, policy);
            sel_ge_i64_sparse(
                &flat,
                c,
                &(chunk.clone().map(|i| i as u32).collect::<Vec<_>>()),
                &mut model,
                policy,
            );
            assert_eq!(fused, model, "ge w={target_width} {policy:?}");

            sel_eq_i64_packed(&packed, c, chunk.clone(), &mut fused, policy);
            let eq_model: Vec<u32> = chunk
                .clone()
                .filter(|&i| flat[i] == c)
                .map(|i| i as u32)
                .collect();
            assert_eq!(fused, eq_model, "eq w={target_width} {policy:?}");

            sel_le_i64_packed(&packed, c, chunk.clone(), &mut fused, policy);
            let le_model: Vec<u32> = chunk
                .clone()
                .filter(|&i| flat[i] <= c)
                .map(|i| i as u32)
                .collect();
            assert_eq!(fused, le_model, "le w={target_width} {policy:?}");

            sel_gt_i64_packed(&packed, c, chunk.clone(), &mut fused, policy);
            let gt_model: Vec<u32> = chunk.clone().filter(|&i| flat[i] > c).map(|i| i as u32).collect();
            assert_eq!(fused, gt_model, "gt w={target_width} {policy:?}");
        }
    }
}

#[test]
fn packed_sparse_cmp_matches_flat() {
    let arena = Arena::new();
    let mut rng = Rng::new(0xfced_0002);
    for target_width in [0u32, 1, 4, 9, 13, 21, 33, 47, 57, 61] {
        let (packed, flat) = random_column(&mut rng, &arena, target_width);
        let c = flat[rng.below(flat.len() as u64) as usize];
        let in_sel = random_sel(&mut rng, flat.len());
        for policy in POLICIES {
            let mut fused = Vec::new();
            let mut model = Vec::new();
            sel_lt_i64_packed_sparse(&packed, c, &in_sel, &mut fused, policy);
            sel_lt_i64_sparse(&flat, c, &in_sel, &mut model, policy);
            assert_eq!(fused, model, "lt w={target_width} {policy:?}");

            sel_ge_i64_packed_sparse(&packed, c, &in_sel, &mut fused, policy);
            sel_ge_i64_sparse(&flat, c, &in_sel, &mut model, policy);
            assert_eq!(fused, model, "ge w={target_width} {policy:?}");

            sel_le_i64_packed_sparse(&packed, c, &in_sel, &mut fused, policy);
            sel_le_i64_sparse(&flat, c, &in_sel, &mut model, policy);
            assert_eq!(fused, model, "le w={target_width} {policy:?}");

            sel_eq_i64_packed_sparse(&packed, c, &in_sel, &mut fused, policy);
            let eq_model: Vec<u32> = in_sel
                .iter()
                .copied()
                .filter(|&i| flat[i as usize] == c)
                .collect();
            assert_eq!(fused, eq_model, "eq w={target_width} {policy:?}");

            sel_gt_i64_packed_sparse(&packed, c, &in_sel, &mut fused, policy);
            let gt_model: Vec<u32> = in_sel.iter().copied().filter(|&i| flat[i as usize] > c).collect();
            assert_eq!(fused, gt_model, "gt w={target_width} {policy:?}");
        }
    }
}

#[test]
fn packed_i32_wrappers_match_flat() {
    // The i32-named wrappers widen the constant into the decode domain;
    // they must agree with i32 flat primitives on i32-ranged data.
    let arena = Arena::new();
    let mut rng = Rng::new(0xfced_0003);
    for _ in 0..12 {
        let len = 1 + rng.below(1200) as usize;
        let vals32: Vec<i32> = (0..len).map(|_| rng.next() as i32 % 10_000).collect();
        let packed = PackedInts::encode(&vals32, &arena);
        let c = vals32[rng.below(len as u64) as usize];
        let in_sel = random_sel(&mut rng, len);
        for policy in POLICIES {
            let mut fused = Vec::new();
            let mut model = Vec::new();
            sel_ge_i32_packed(&packed, c, 0..len, &mut fused, policy);
            sel_ge_i32_dense(&vals32, c, 0, &mut model, policy);
            assert_eq!(fused, model, "dense ge {policy:?}");

            sel_lt_i32_packed_sparse(&packed, c, &in_sel, &mut fused, policy);
            sel_lt_i32_sparse(&vals32, c, &in_sel, &mut model, policy);
            assert_eq!(fused, model, "sparse lt {policy:?}");

            sel_eq_i32_packed(&packed, c, 0..len, &mut fused, policy);
            sel_eq_i32_dense(&vals32, c, 0, &mut model, policy);
            assert_eq!(fused, model, "dense eq {policy:?}");

            sel_le_i32_packed(&packed, c, 0..len, &mut fused, policy);
            sel_le_i32_dense(&vals32, c, 0, &mut model, policy);
            assert_eq!(fused, model, "dense le {policy:?}");

            sel_gt_i32_packed_sparse(&packed, c, &in_sel, &mut fused, policy);
            sel_gt_i32_sparse(&vals32, c, &in_sel, &mut model, policy);
            assert_eq!(fused, model, "sparse gt {policy:?}");
        }
    }
}

#[test]
fn between_for_matches_flat() {
    let arena = Arena::new();
    let mut rng = Rng::new(0xfced_0004);
    for target_width in [0u32, 2, 4, 11, 26, 40, 57, 59] {
        let (packed, flat) = random_column(&mut rng, &arena, target_width);
        let a = flat[rng.below(flat.len() as u64) as usize];
        let b = flat[rng.below(flat.len() as u64) as usize];
        let (lo, hi) = (a.min(b), a.max(b));
        let in_sel = random_sel(&mut rng, flat.len());
        for policy in POLICIES {
            let mut fused = Vec::new();
            let mut model = Vec::new();
            sel_between_i64_for(&packed, lo, hi, 0..flat.len(), &mut fused, policy);
            sel_between_i64_dense(&flat, lo, hi, 0, &mut model, policy);
            assert_eq!(fused, model, "dense w={target_width} {policy:?}");

            sel_between_i64_for_sparse(&packed, lo, hi, &in_sel, &mut fused, policy);
            sel_between_i64_sparse(&flat, lo, hi, &in_sel, &mut model, policy);
            assert_eq!(fused, model, "sparse w={target_width} {policy:?}");
        }
    }
    // i32 wrapper over date-like data.
    let dates: Vec<i32> = (0..3000).map(|i| 9000 + (i * 37 % 2500)).collect();
    let packed = PackedInts::encode(&dates, &arena);
    for policy in POLICIES {
        let mut fused = Vec::new();
        let model: Vec<u32> = (0..3000u32)
            .filter(|&i| (9100..=9900).contains(&dates[i as usize]))
            .collect();
        sel_between_i32_for(&packed, 9100, 9900, 0..3000, &mut fused, policy);
        assert_eq!(fused, model, "{policy:?}");
    }
}

#[test]
fn gather_packed_matches_flat_gather() {
    let arena = Arena::new();
    let mut rng = Rng::new(0xfced_0006);
    for target_width in [0u32, 1, 5, 13, 24, 31, 42, 57, 62] {
        let (packed, flat) = random_column(&mut rng, &arena, target_width);
        let sel = random_sel(&mut rng, flat.len());
        let model: Vec<i64> = sel.iter().map(|&i| flat[i as usize]).collect();
        for policy in POLICIES {
            let mut out = Vec::new();
            gather_packed_i64(&packed, &sel, policy, &mut out);
            assert_eq!(out, model, "w={target_width} {policy:?}");
        }
    }
}

#[test]
fn fused_tail_sizes() {
    // Lengths and chunk starts around the 8-lane width: tail handling
    // and non-zero chunk bases.
    let arena = Arena::new();
    let vals: Vec<i64> = (0..70).map(|i| i % 19).collect();
    let packed = PackedInts::encode(&vals, &arena);
    for start in [0usize, 1, 7, 8, 9] {
        for end in [start, start + 1, 33, 64, 65, 70] {
            if end > 70 || end < start {
                continue;
            }
            let model: Vec<u32> = (start..end).filter(|&i| vals[i] < 9).map(|i| i as u32).collect();
            for policy in POLICIES {
                let mut out = Vec::new();
                sel_lt_i64_packed(&packed, 9, start..end, &mut out, policy);
                assert_eq!(out, model, "{start}..{end} {policy:?}");
            }
        }
    }
}

#[test]
fn dense_i64_simd_satellite_matches_scalar() {
    // The satellite fix: sel_lt_i64_dense must honor SimdPolicy and all
    // flavors must agree (it previously hard-wired the scalar path).
    let mut rng = Rng::new(0xfced_0007);
    for n in [0usize, 1, 7, 8, 9, 500, 1023] {
        let col: Vec<i64> = (0..n).map(|_| rng.next() as i64 % 1000).collect();
        let model: Vec<u32> = col
            .iter()
            .enumerate()
            .filter(|(_, &v)| v < 250)
            .map(|(i, _)| 5 + i as u32)
            .collect();
        for policy in POLICIES {
            let mut out = Vec::new();
            sel_lt_i64_dense(&col, 250, 5, &mut out, policy);
            assert_eq!(out, model, "n={n} {policy:?}");
        }
    }
}

/// The column reader over a flat and a packed view of the same values:
/// every method must select the same rows / gather the same values as a
/// plain-Rust model, under every policy — this is what lets a plan stage
/// be written once for both storage formats.
#[test]
fn col_reader_matches_across_formats() {
    use dbep_runtime::hash::HashFn;
    use dbep_vectorized::Col;
    let arena = Arena::new();
    let mut rng = Rng::new(0xfced_0008);
    for target_width in [0u32, 1, 5, 12, 17, 24, 29] {
        // 64-bit measures: dense/sparse ranges, sparse `<`, gather, get.
        let (packed, flat) = random_column(&mut rng, &arena, target_width);
        let n = flat.len();
        let a = flat[rng.below(n as u64) as usize];
        let b = flat[rng.below(n as u64) as usize];
        let (lo, hi) = (a.min(b), a.max(b));
        let chunk = rng.below(n as u64) as usize..n;
        let in_sel = random_sel(&mut rng, n);
        let between = |i: &u32| (lo..=hi).contains(&flat[*i as usize]);
        let dense_model: Vec<u32> = chunk.clone().map(|i| i as u32).filter(between).collect();
        let sparse_model: Vec<u32> = in_sel.iter().copied().filter(between).collect();
        let lt_model: Vec<u32> = in_sel
            .iter()
            .copied()
            .filter(|&i| flat[i as usize] < hi)
            .collect();
        let gather_model: Vec<i64> = in_sel.iter().map(|&i| flat[i as usize]).collect();
        let views = [Col::<i64>::Flat(&flat), Col::Packed(&packed)];
        assert_eq!(views[0].bits(), 64);
        assert_eq!(views[1].bits(), packed.width() as usize);
        for col in views {
            let format = if matches!(col, Col::Flat(_)) {
                "flat"
            } else {
                "packed"
            };
            let what = format!("{format} w={target_width}");
            for policy in POLICIES {
                // Scratch starts dirty: the reader must overwrite it.
                let (mut tmp, mut out, mut vals) = (vec![7], vec![7, 7], vec![7]);
                col.sel_between(lo, hi, chunk.clone(), &mut out, policy);
                assert_eq!(out, dense_model, "sel_between {what} {policy:?}");
                col.sel_between_sparse(lo, hi, &in_sel, &mut tmp, &mut out, policy);
                assert_eq!(out, sparse_model, "sel_between_sparse {what} {policy:?}");
                // An empty first step must leave an empty result behind.
                let n_out = col.sel_between_sparse(i64::MAX, i64::MAX, &in_sel, &mut tmp, &mut out, policy);
                assert_eq!((n_out, out.len()), (0, 0), "empty sparse range {what} {policy:?}");
                col.sel_lt_sparse(hi, &in_sel, &mut out, policy);
                assert_eq!(out, lt_model, "sel_lt_sparse {what} {policy:?}");
                col.gather(&in_sel, policy, &mut vals);
                assert_eq!(vals, gather_model, "gather {what} {policy:?}");
            }
            assert!((0..n).all(|i| col.get(i) == flat[i]), "get {what}");
        }

        // 32-bit keys and dates: dense `<=`, dense range, hash, get.
        let flat32: Vec<i32> = flat.iter().map(|&v| v as i32).collect();
        let packed32 = PackedInts::encode(&flat32, &arena);
        let (lo, hi) = (lo as i32, hi as i32);
        let le_model: Vec<u32> = chunk
            .clone()
            .map(|i| i as u32)
            .filter(|&i| flat32[i as usize] <= hi)
            .collect();
        let views = [Col::<i32>::Flat(&flat32), Col::Packed(&packed32)];
        assert_eq!(views[0].bits(), 32);
        for col in views {
            let format = if matches!(col, Col::Flat(_)) {
                "flat"
            } else {
                "packed"
            };
            let what = format!("{format} w={target_width}");
            for policy in POLICIES {
                let (mut tmp, mut out) = (vec![7], vec![7, 7]);
                col.sel_le(hi, chunk.clone(), &mut out, policy);
                assert_eq!(out, le_model, "sel_le {what} {policy:?}");
                col.sel_between(lo, hi, chunk.clone(), &mut tmp, &mut out, policy);
                assert_eq!(out, dense_model, "sel_between i32 {what} {policy:?}");
                let n_out = col.sel_between(i32::MAX, i32::MAX, chunk.clone(), &mut tmp, &mut out, policy);
                assert_eq!((n_out, out.len()), (0, 0), "empty dense range {what} {policy:?}");
                for hf in [HashFn::Murmur2, HashFn::Crc] {
                    let (mut keys, mut hashes) = (vec![7], vec![7]);
                    col.hash(&in_sel, hf, &mut keys, &mut hashes, policy);
                    let model: Vec<u64> = in_sel
                        .iter()
                        .map(|&i| hf.hash(flat32[i as usize] as u64))
                        .collect();
                    assert_eq!(hashes, model, "hash {hf:?} {what} {policy:?}");
                }
            }
            assert!((0..n).all(|i| col.get(i) == flat32[i] as i64), "get i32 {what}");
        }
    }
}

/// `Col::of` hands out the format the table holds: flat slices before
/// `encode_all`, packed companions after — for `I32`, `Date` and `I64`.
#[test]
fn col_of_follows_the_table() {
    use dbep_storage::{ColumnData, Table};
    use dbep_vectorized::Col;
    let mut t = Table::new("t");
    t.add_column("k", ColumnData::I32(vec![3, 1, 2]))
        .add_column("d", ColumnData::Date(vec![9000, 9001, 9002]))
        .add_column("v", ColumnData::I64(vec![10, 30, 20]));
    assert!(matches!(Col::<i32>::of(&t, "k"), Col::Flat([3, 1, 2])));
    assert!(matches!(Col::<i32>::of(&t, "d"), Col::Flat([9000, 9001, 9002])));
    assert!(matches!(Col::<i64>::of(&t, "v"), Col::Flat([10, 30, 20])));
    t.encode_all(&Arena::new());
    for (col, want) in [
        (Col::<i32>::of(&t, "k"), [3, 1, 2]),
        (Col::<i32>::of(&t, "d"), [9000, 9001, 9002]),
    ] {
        assert!(matches!(col, Col::Packed(_)));
        assert_eq!([col.get(0), col.get(1), col.get(2)], want);
    }
    let v = Col::<i64>::of(&t, "v");
    assert!(matches!(v, Col::Packed(_)));
    assert_eq!([v.get(0), v.get(1), v.get(2)], [10, 30, 20]);
}
