//! Layer probes of the traced run: each times one public kernel of one
//! crate on a synthetic input of a stated size, beside two host roofs
//! measured in the same run (sequential read bandwidth, L2-resident
//! gather). They place a layer against a ceiling, not against its own
//! previous run, and they are the numbers an optimisation of that one
//! layer moves first.

use crate::catalog::PER_LAYER;
use dbep_core::compiled::PackedReader;
use dbep_core::runtime::hash::HashFn;
use dbep_core::runtime::join_ht::{JoinHt, JoinHtShard};
use dbep_core::runtime::{crc64, murmur2, AggHt, ExecCtx, Morsels, SmallRng, MORSEL_TUPLES};
use dbep_core::scheduler::{Scheduler, DEFAULT_PRIORITY};
use dbep_core::storage::encoded::Arena;
use dbep_core::storage::PackedInts;
use dbep_core::vectorized::{gather, hashp, probe, sel, ProbeBuffers, SimdPolicy, DEFAULT_VECTOR_SIZE};
use std::hint::black_box;
use std::time::Instant;

/// Timed repetitions per probe; the median is reported.
const REPS: usize = 3;

/// The policy sessions run under unless told otherwise
/// (`ExecCfg::default`), so the probes time what the workloads run.
const POLICY: SimdPolicy = SimdPolicy::Scalar;

/// Median nanoseconds per element of `f`, which processes `elems`
/// elements per call; one untimed call first.
fn ns_per<T>(elems: usize, mut f: impl FnMut() -> T) -> f64 {
    black_box(f());
    let mut ns: Vec<f64> = (0..REPS)
        .map(|_| {
            let t = Instant::now();
            black_box(f());
            t.elapsed().as_nanos() as f64
        })
        .collect();
    ns.sort_by(f64::total_cmp);
    ns[REPS / 2] / elems as f64
}

fn host(out: &mut Vec<(&'static str, f64)>, shrink: u32) {
    // Sequential sum over 256 MiB: far beyond every cache level a
    // query's working set could sit in.
    let words = (256usize << 20 >> shrink) / 8;
    let data: Vec<u64> = (0..words as u64).collect();
    let ns_per_word = ns_per(words, || data.iter().fold(0u64, |a, &w| a.wrapping_add(w)));
    out.push(("host.read_gbps", 8.0 / ns_per_word));

    // Dependent-free random gather from a 1 MiB table: resident in L2.
    let table: Vec<i64> = (0..1 << 17).collect();
    let mut rng = SmallRng::seed_from_u64(1);
    let idx: Vec<u32> = (0..1 << 20 >> shrink)
        .map(|_| rng.gen_range(0..1u32 << 17))
        .collect();
    out.push((
        "host.l2_gather_ns",
        ns_per(idx.len(), || {
            idx.iter().fold(0i64, |a, &i| a.wrapping_add(table[i as usize]))
        }),
    ));
}

fn join_table(keys: u64) -> JoinHt<u32> {
    let mut shard = JoinHtShard::with_capacity(keys as usize);
    for k in 0..keys {
        shard.push(murmur2(k), k as u32);
    }
    JoinHt::from_shards(vec![shard], &ExecCtx::inline())
}

fn probe_ns(ht: &JoinHt<u32>, keys: u64, probes: usize) -> f64 {
    let mut rng = SmallRng::seed_from_u64(2);
    let wanted: Vec<u64> = (0..probes).map(|_| rng.gen_range(0..keys)).collect();
    ns_per(probes, || {
        wanted
            .iter()
            .filter(|&&k| ht.probe(murmur2(k)).any(|e| e.row == k as u32))
            .count()
    })
}

fn runtime(out: &mut Vec<(&'static str, f64)>, shrink: u32) -> JoinHt<u32> {
    // 2^22 keys: directory and entries far beyond L2.
    let big_keys = 1u64 << 22 >> shrink;
    out.push((
        "runtime.join_build_ns_per_key",
        ns_per(big_keys as usize, || join_table(big_keys).len()),
    ));
    let big = join_table(big_keys);
    out.push((
        "runtime.join_probe_ns_per_key",
        probe_ns(&big, big_keys, 1 << 20 >> shrink),
    ));
    // 2^14 keys: the whole table sits in L2.
    let small_keys = 1u64 << 14;
    out.push((
        "runtime.join_probe_l2_ns_per_key",
        probe_ns(&join_table(small_keys), small_keys, 1 << 20 >> shrink),
    ));

    let groups = 1u64 << 20 >> shrink;
    let mut rng = SmallRng::seed_from_u64(3);
    let rows: Vec<u64> = (0..groups * 4).map(|_| rng.gen_range(0..groups)).collect();
    out.push((
        "runtime.agg_update_ns_per_row",
        ns_per(rows.len(), || {
            let mut ht: AggHt<u64, i64> = AggHt::with_capacity(groups as usize);
            for &k in &rows {
                ht.update(murmur2(k), k, || 0, |a| *a += 1);
            }
            ht.len()
        }),
    ));

    let keys: Vec<u64> = (0..1u64 << 20 >> shrink).collect();
    out.push((
        "runtime.hash_crc_ns_per_key",
        ns_per(keys.len(), || keys.iter().fold(0u64, |a, &k| a ^ crc64(k))),
    ));
    out.push((
        "runtime.hash_murmur_ns_per_key",
        ns_per(keys.len(), || keys.iter().fold(0u64, |a, &k| a ^ murmur2(k))),
    ));
    big
}

fn kernels(out: &mut Vec<(&'static str, f64)>, big: &JoinHt<u32>, shrink: u32) {
    // One vector at a time over a column of many vectors, as the
    // Tectorwise scan loop calls the primitives.
    let n = DEFAULT_VECTOR_SIZE * (1024 >> shrink);
    let mut rng = SmallRng::seed_from_u64(4);
    let col: Vec<i32> = (0..n).map(|_| rng.gen_range(0..100)).collect();
    let vectors = || {
        (0..n)
            .step_by(DEFAULT_VECTOR_SIZE)
            .map(|v| v..v + DEFAULT_VECTOR_SIZE)
    };
    let mut sel_out = Vec::new();
    out.push((
        "vectorized.sel_dense_ns_per_elem",
        ns_per(n, || {
            vectors()
                .map(|v| sel::sel_lt_i32_dense(&col[v.clone()], 40, v.start as u32, &mut sel_out, POLICY))
                .sum::<usize>()
        }),
    ));
    let in_sel: Vec<u32> = (0..n as u32).step_by(2).collect();
    out.push((
        "vectorized.sel_sparse_ns_per_elem",
        ns_per(in_sel.len(), || {
            in_sel
                .chunks(DEFAULT_VECTOR_SIZE)
                .map(|s| sel::sel_lt_i32_sparse(&col, 40, s, &mut sel_out, POLICY))
                .sum::<usize>()
        }),
    ));
    let packed = PackedInts::encode(&col, &Arena::new());
    out.push((
        "vectorized.sel_packed_ns_per_elem",
        ns_per(n, || {
            vectors()
                .map(|v| sel::sel_lt_i32_packed(&packed, 40, v, &mut sel_out, POLICY))
                .sum::<usize>()
        }),
    ));
    out.push((
        "compiled.packed_read_ns_per_elem",
        ns_per(n, || {
            let mut reader = PackedReader::new(&packed, 0);
            (0..n).fold(0i64, |a, _| a.wrapping_add(reader.next()))
        }),
    ));

    let keys = big.len() as u32;
    let probe_keys: Vec<i32> = (0..n).map(|_| rng.gen_range(0..keys) as i32).collect();
    let all: Vec<u32> = (0..n as u32).collect();
    let mut hashes = Vec::new();
    out.push((
        "vectorized.hash_ns_per_elem",
        ns_per(n, || {
            all.chunks(DEFAULT_VECTOR_SIZE)
                .map(|s| {
                    hashp::hash_i32(&probe_keys, s, HashFn::Murmur2, &mut hashes);
                    hashes.len()
                })
                .sum::<usize>()
        }),
    ));
    let mut bufs = ProbeBuffers::new();
    out.push((
        "vectorized.probe_ns_per_elem",
        ns_per(n, || {
            all.chunks(DEFAULT_VECTOR_SIZE)
                .map(|s| {
                    hashp::hash_i32(&probe_keys, s, HashFn::Murmur2, &mut hashes);
                    let eq = |row: &u32, t: u32| *row == probe_keys[t as usize] as u32;
                    probe::probe_join(big, &hashes, s, eq, POLICY, &mut bufs)
                })
                .sum::<usize>()
        }),
    ));
    let table: Vec<i64> = (0..1 << 16).collect();
    let gather_sel: Vec<u32> = (0..n).map(|_| rng.gen_range(0..1u32 << 16)).collect();
    let mut gathered = Vec::new();
    out.push((
        "vectorized.gather_ns_per_elem",
        ns_per(n, || {
            gather_sel
                .chunks(DEFAULT_VECTOR_SIZE)
                .map(|s| {
                    gather::gather_i64(&table, s, POLICY, &mut gathered);
                    gathered.len()
                })
                .sum::<usize>()
        }),
    ));
}

fn dispatch(out: &mut Vec<(&'static str, f64)>, shrink: u32) {
    // An empty body: what is left is claim, hand-over and barrier.
    let morsels = 4096usize >> shrink;
    let pool = Scheduler::new(1);
    let run = pool.begin_query(DEFAULT_PRIORITY);
    out.push((
        "scheduler.dispatch_ns_per_morsel",
        ns_per(morsels, || {
            run.run_task(Morsels::new(morsels * MORSEL_TUPLES), 1, &|_, _| {})
        }),
    ));
}

/// Run every probe. `quick` shrinks the inputs 64-fold.
pub fn probe(quick: bool) -> Vec<(&'static str, f64)> {
    let shrink = if quick { 6 } else { 0 };
    let mut out = Vec::new();
    host(&mut out, shrink);
    let big = runtime(&mut out, shrink);
    kernels(&mut out, &big, shrink);
    dispatch(&mut out, shrink);
    out
}

/// `values` in [`PER_LAYER`] order; a metric the workload does not
/// exercise reads 0.
pub fn in_catalogue_order(values: Vec<(&'static str, f64)>) -> Vec<(&'static str, f64)> {
    for (name, _) in &values {
        assert!(
            PER_LAYER.iter().any(|(n, _)| n == name),
            "{name} is not a catalogued per-layer metric"
        );
    }
    PER_LAYER
        .iter()
        .map(|&(name, _)| {
            let value = values.iter().find(|(n, _)| *n == name).map_or(0.0, |(_, v)| *v);
            (name, value)
        })
        .collect()
}
