//! Parameterized equivalence sweep: randomized-but-valid substitution
//! parameters drawn from the seeded PRNG, checked across **all 36
//! (engine, query) pairs** against the parameterized naive oracles.
//!
//! A fixed workload instance can hide constant-folding bugs (a filter
//! accidentally compiled against the paper's constant still passes every
//! fixed-instance test); sweeping the binding space cannot.

mod common;

use dbep_queries::params::*;
use dbep_queries::{run_with, Engine, ExecCfg, QueryId};
use dbep_runtime::rng::SmallRng;
use dbep_storage::types::date;
use dbep_storage::Database;

/// Non-default draws per query; with the three engines each, every
/// query contributes 9 randomized (engine, binding) checks.
const DRAWS: usize = 3;

fn pick<'a>(rng: &mut SmallRng, xs: &[&'a str]) -> &'a str {
    xs[rng.gen_range(0..xs.len())]
}

/// Draw a valid parameter binding from the benchmark's substitution
/// domain (validating constructors reject anything outside it).
fn draw(q: QueryId, rng: &mut SmallRng) -> Params {
    use dbep_datagen::ssb::REGIONS;
    use dbep_datagen::tpch::{COLORS, SEGMENTS, SHIPMODES};
    match q {
        QueryId::Q1 => Q1Params::new(rng.gen_range(60..=120)).unwrap().into(),
        QueryId::Q6 => Q6Params::new(
            rng.gen_range(1993..=1997),
            rng.gen_range(2..=9),
            rng.gen_range(20..=30),
        )
        .unwrap()
        .into(),
        QueryId::Q3 => Q3Params::new(pick(rng, SEGMENTS), date(1995, 3, 1) + rng.gen_range(0..31))
            .unwrap()
            .into(),
        QueryId::Q9 => Q9Params::new(pick(rng, COLORS)).unwrap().into(),
        QueryId::Q18 => Q18Params::new(rng.gen_range(250..=330)).unwrap().into(),
        QueryId::Q4 => Q4Params::new(rng.gen_range(1993..=1997), rng.gen_range(1..=4))
            .unwrap()
            .into(),
        QueryId::Q12 => {
            let a = rng.gen_range(0..SHIPMODES.len());
            let b = (a + rng.gen_range(1..SHIPMODES.len())) % SHIPMODES.len();
            Q12Params::new(SHIPMODES[a], SHIPMODES[b], rng.gen_range(1993..=1997))
                .unwrap()
                .into()
        }
        QueryId::Q14 => Q14Params::new(rng.gen_range(1993..=1997), rng.gen_range(1..=12))
            .unwrap()
            .into(),
        QueryId::Ssb1_1 => {
            let lo = rng.gen_range(0i64..=8);
            SsbQ11Params::new(
                rng.gen_range(1992..=1998),
                lo,
                lo + rng.gen_range(0i64..=2),
                rng.gen_range(20..=40),
            )
            .unwrap()
            .into()
        }
        QueryId::Ssb2_1 => {
            let category = format!("MFGR#{}{}", rng.gen_range(1..=5), rng.gen_range(1..=5));
            SsbQ21Params::new(&category, pick(rng, REGIONS)).unwrap().into()
        }
        QueryId::Ssb3_1 => {
            let lo = rng.gen_range(1992..=1997);
            SsbQ31Params::new(
                pick(rng, REGIONS),
                pick(rng, REGIONS),
                lo,
                rng.gen_range(lo..=1998),
            )
            .unwrap()
            .into()
        }
        QueryId::Ssb4_1 => {
            let a = rng.gen_range(1..=5);
            let b = (a + rng.gen_range(1..=4) - 1) % 5 + 1;
            SsbQ41Params::new(pick(rng, REGIONS), pick(rng, REGIONS), a, b)
                .unwrap()
                .into()
        }
    }
}

#[test]
fn randomized_params_agree_with_oracles_on_all_36_pairs() {
    let tpch = dbep_datagen::tpch::generate(0.01, 7);
    let ssb = dbep_datagen::ssb::generate(0.01, 7);
    let cfg = ExecCfg::default();
    let mut rng = SmallRng::seed_from_u64(0xB1DD);
    let mut nonempty = 0usize;
    for q in QueryId::ALL {
        let db: &Database = if QueryId::SSB.contains(&q) { &ssb } else { &tpch };
        let mut done = 0;
        while done < DRAWS {
            let params = draw(q, &mut rng);
            if params == Params::default_for(q) {
                continue; // the sweep must exercise non-paper instances
            }
            let oracle = common::oracle(q, db, &params);
            nonempty += !oracle.is_empty() as usize;
            for engine in Engine::ALL {
                let got = run_with(engine, q, db, &cfg, &params);
                assert_eq!(
                    got,
                    oracle,
                    "{} on {engine:?} deviates from the oracle under {params:?}",
                    q.name()
                );
            }
            done += 1;
        }
    }
    // The sweep is vacuous if every random instance selects nothing.
    assert!(
        nonempty >= QueryId::ALL.len() * DRAWS / 2,
        "only {nonempty} non-empty oracle results — draws too selective"
    );
}

/// The randomized sweep repeated over compressed storage: fused
/// decompress-and-select scans must agree with the naive oracles under
/// arbitrary valid bindings, for every engine and every `SimdPolicy`.
/// (Constant-folding against a packed column's frame of reference is
/// exactly the class of bug only a non-default binding can expose.)
#[test]
fn randomized_params_agree_with_oracles_on_encoded_storage() {
    use dbep_vectorized::SimdPolicy;
    let tpch = dbep_datagen::tpch::generate_encoded(0.01, 7);
    let ssb = dbep_datagen::ssb::generate_encoded(0.01, 7);
    let mut rng = SmallRng::seed_from_u64(0xEC0D);
    for q in QueryId::ALL {
        let db: &Database = if QueryId::SSB.contains(&q) { &ssb } else { &tpch };
        let mut done = 0;
        while done < DRAWS {
            let params = draw(q, &mut rng);
            if params == Params::default_for(q) {
                continue;
            }
            let oracle = common::oracle(q, db, &params);
            for engine in Engine::ALL {
                for policy in [SimdPolicy::Scalar, SimdPolicy::Simd, SimdPolicy::Auto] {
                    let cfg = ExecCfg {
                        policy,
                        ..Default::default()
                    };
                    let got = run_with(engine, q, db, &cfg, &params);
                    assert_eq!(
                        got,
                        oracle,
                        "{} on encoded storage, {engine:?}/{policy:?}, deviates under {params:?}",
                        q.name()
                    );
                }
            }
            done += 1;
        }
    }
    // Mixed layouts: each stage reads its table in the format that table
    // holds, so Q14 — the one fused-scan plan over two tables — must
    // agree with the oracle with only its probe side or only its build
    // side encoded, whatever the morsel split.
    let flat = dbep_datagen::tpch::generate(0.01, 7);
    let q = QueryId::Q14;
    for only in ["lineitem", "part"] {
        let mut table = flat.table(only).clone();
        table.encode_all(&dbep_storage::Arena::new());
        let mut mixed = flat.clone();
        mixed.add(table);
        for params in [Params::default_for(q), draw(q, &mut rng), draw(q, &mut rng)] {
            let oracle = common::oracle(q, &mixed, &params);
            for engine in [Engine::Typer, Engine::Tectorwise] {
                for threads in [1, 3] {
                    let got = run_with(engine, q, &mixed, &ExecCfg::with_threads(threads), &params);
                    assert_eq!(
                        got, oracle,
                        "Q14 with only {only} encoded, {engine:?} × {threads}, deviates under {params:?}"
                    );
                }
            }
        }
    }
}

/// `db` with table `name` cut to its first `rows` rows (flat columns
/// only — encode afterwards).
fn truncated(db: &Database, name: &str, rows: usize) -> Database {
    use dbep_storage::{ColumnData, Table};
    let mut cut = Table::new(name);
    for (col, data) in db.table(name).columns() {
        let data = match data {
            ColumnData::I32(v) => ColumnData::I32(v[..rows].to_vec()),
            ColumnData::I64(v) => ColumnData::I64(v[..rows].to_vec()),
            ColumnData::Date(v) => ColumnData::Date(v[..rows].to_vec()),
            ColumnData::Char(v) => ColumnData::Char(v[..rows].to_vec()),
            ColumnData::Str(v) => ColumnData::Str(v.iter().take(rows).collect()),
        };
        cut.add_column(col, data);
    }
    let mut out = db.clone();
    out.add(cut);
    out
}

/// The block-wise encoded scans through real plans on scanned tables
/// whose length is no multiple of 8 (the unpack group) or 128 (the
/// block): the last morsel ends in a partial block whose last rows take
/// the kernel's per-value tail path. Lengths below one block, one past a
/// block, and one whole morsel plus a ragged remainder.
#[test]
fn encoded_scans_agree_with_oracles_on_ragged_table_lengths() {
    // SF 0.0105: 2 100 parts, so Q14's build-side scan is ragged too
    // (`part` cannot be cut — lineitem's foreign keys must resolve).
    let tpch = dbep_datagen::tpch::generate(0.0105, 7);
    let ssb = dbep_datagen::ssb::generate(0.01, 7);
    assert_eq!(tpch.table("part").len() % 8, 4);
    let mut rng = SmallRng::seed_from_u64(0x7A11);
    for rows in [1usize, 7, 129, 16_384 + 3_619] {
        assert!(rows == 1 || (rows % 8 != 0 && rows % 128 != 0));
        let mut cut_tpch = truncated(&tpch, "lineitem", rows);
        let mut cut_ssb = truncated(&ssb, "lineorder", rows);
        cut_tpch.encode_all();
        cut_ssb.encode_all();
        for q in [QueryId::Q1, QueryId::Q6, QueryId::Q14, QueryId::Ssb1_1] {
            let db: &Database = if QueryId::SSB.contains(&q) {
                &cut_ssb
            } else {
                &cut_tpch
            };
            for params in [Params::default_for(q), draw(q, &mut rng)] {
                let oracle = common::oracle(q, db, &params);
                for engine in Engine::ALL {
                    for threads in [1, 3] {
                        let cfg = ExecCfg::with_threads(threads);
                        let got = run_with(engine, q, db, &cfg, &params);
                        assert_eq!(
                            got,
                            oracle,
                            "{} on {rows} encoded rows, {engine:?} × {threads}, deviates under {params:?}",
                            q.name()
                        );
                    }
                }
            }
        }
    }
}

/// Binding draws must be reproducible: the sweep is seeded, so a failure
/// message's `params` can be turned into a fixed regression test.
#[test]
fn draws_are_deterministic() {
    for q in QueryId::ALL {
        let mut a = SmallRng::seed_from_u64(123);
        let mut b = SmallRng::seed_from_u64(123);
        assert_eq!(draw(q, &mut a), draw(q, &mut b), "{}", q.name());
    }
}
