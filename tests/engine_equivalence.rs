//! Cross-engine result validation: the paper's methodology only holds if
//! Typer, Tectorwise and the Volcano baseline compute identical results
//! for identical plans. Every query is checked at two scale factors,
//! plus Tectorwise under SIMD, odd vector sizes, multiple threads,
//! hash-function swaps and every per-stage Typer/Tectorwise assignment —
//! none of which may change a single output row.

use db_engine_paradigms::prelude::*;

fn tpch_db() -> &'static Database {
    static DB: std::sync::OnceLock<Database> = std::sync::OnceLock::new();
    DB.get_or_init(|| dbep_datagen::tpch::generate(0.05, 42))
}

fn ssb_db() -> &'static Database {
    static DB: std::sync::OnceLock<Database> = std::sync::OnceLock::new();
    DB.get_or_init(|| dbep_datagen::ssb::generate(0.05, 42))
}

fn tpch_db_001() -> &'static Database {
    static DB: std::sync::OnceLock<Database> = std::sync::OnceLock::new();
    DB.get_or_init(|| dbep_datagen::tpch::generate(0.01, 42))
}

fn ssb_db_001() -> &'static Database {
    static DB: std::sync::OnceLock<Database> = std::sync::OnceLock::new();
    DB.get_or_init(|| dbep_datagen::ssb::generate(0.01, 42))
}

fn tpch_db_enc() -> &'static Database {
    static DB: std::sync::OnceLock<Database> = std::sync::OnceLock::new();
    DB.get_or_init(|| dbep_datagen::tpch::generate_encoded(0.01, 42))
}

fn ssb_db_enc() -> &'static Database {
    static DB: std::sync::OnceLock<Database> = std::sync::OnceLock::new();
    DB.get_or_init(|| dbep_datagen::ssb::generate_encoded(0.01, 42))
}

fn db_for(q: QueryId) -> &'static Database {
    if QueryId::TPCH.contains(&q) {
        tpch_db()
    } else {
        ssb_db()
    }
}

fn db_for_001(q: QueryId) -> &'static Database {
    if QueryId::TPCH.contains(&q) {
        tpch_db_001()
    } else {
        ssb_db_001()
    }
}

fn assert_equal(q: QueryId, a: &QueryResult, b: &QueryResult, what: &str) {
    assert_eq!(a.columns, b.columns, "{}: column mismatch on {what}", q.name());
    assert_eq!(
        a.rows.len(),
        b.rows.len(),
        "{}: row count mismatch on {what}",
        q.name()
    );
    for (i, (ra, rb)) in a.rows.iter().zip(&b.rows).enumerate() {
        assert_eq!(ra, rb, "{}: row {i} differs on {what}", q.name());
    }
}

/// Every registered query — the paper's 5 TPC-H + the Q4/Q12/Q14
/// workload broadening + the 4 SSB flights.
const ALL: [QueryId; 12] = QueryId::ALL;

/// All 36 (engine, query) pairs at SF 0.01: every registered query on
/// every paradigm, identical `QueryResult`s (the acceptance bar of the
/// registry refactor and of the Q4/Q12/Q14 expansion).
#[test]
fn all_36_engine_query_pairs_agree_at_sf_001() {
    for q in ALL {
        let db = db_for_001(q);
        let cfg = ExecCfg::default();
        let results: Vec<QueryResult> = Engine::ALL.iter().map(|&e| run(e, q, db, &cfg)).collect();
        assert!(!results[0].is_empty(), "{}: empty result", q.name());
        assert_equal(q, &results[0], &results[1], "typer vs tectorwise");
        assert_equal(q, &results[0], &results[2], "typer vs volcano");
    }
}

/// Compressed companions must be invisible in every result: all 36
/// (engine, query) pairs on an encoded database, under every
/// `SimdPolicy`, must match the flat database bit-for-bit. Plans with
/// fused-scan variants switch to them automatically; the rest must be
/// unperturbed by the companions' presence.
#[test]
fn encoded_storage_agrees_with_flat_on_all_36_pairs() {
    for q in ALL {
        let (flat, enc) = if QueryId::TPCH.contains(&q) {
            (tpch_db_001(), tpch_db_enc())
        } else {
            (ssb_db_001(), ssb_db_enc())
        };
        assert!(enc.is_encoded(), "fixture lost its companions");
        let reference = run(Engine::Typer, q, flat, &ExecCfg::default());
        for &e in Engine::ALL.iter() {
            for policy in [SimdPolicy::Scalar, SimdPolicy::Simd, SimdPolicy::Auto] {
                let cfg = ExecCfg {
                    policy,
                    ..Default::default()
                };
                let r = run(e, q, enc, &cfg);
                assert_equal(q, &reference, &r, &format!("encoded {e:?} {policy:?}"));
            }
        }
    }
    // The format is chosen per stage from what that stage's table holds:
    // Q14, the one fused-scan plan over two tables, must also match with
    // only its probe side or only its build side encoded.
    let q = QueryId::Q14;
    let reference = run(Engine::Typer, q, tpch_db_001(), &ExecCfg::default());
    for only in ["lineitem", "part"] {
        let mut table = tpch_db_001().table(only).clone();
        table.encode_all(&dbep_storage::Arena::new());
        let mut mixed = tpch_db_001().clone();
        mixed.add(table);
        for e in [Engine::Typer, Engine::Tectorwise] {
            for policy in [SimdPolicy::Scalar, SimdPolicy::Simd, SimdPolicy::Auto] {
                let cfg = ExecCfg {
                    policy,
                    ..Default::default()
                };
                let r = run(e, q, &mixed, &cfg);
                assert_equal(
                    q,
                    &reference,
                    &r,
                    &format!("only {only} encoded, {e:?} {policy:?}"),
                );
            }
        }
    }
}

/// The assignment axis: a plan is its list of stages, so *every*
/// element of `{Typer, Tectorwise}^stages` (32 for Q9, at most 8
/// elsewhere) must return the Volcano result — single- and
/// multi-threaded, over flat and fully encoded tables — and the two
/// uniform assignments are exactly what the pure engines run.
#[test]
fn every_stage_assignment_agrees_with_volcano() {
    for q in ALL {
        let plan = dbep_queries::plan(q);
        let params = Params::default_for(q);
        let stages = plan.stages().len();
        let (flat, enc) = if QueryId::TPCH.contains(&q) {
            (tpch_db_001(), tpch_db_enc())
        } else {
            (ssb_db_001(), ssb_db_enc())
        };
        let reference = run(Engine::Volcano, q, flat, &ExecCfg::default());
        for (db, layout) in [(flat, "flat"), (enc, "encoded")] {
            for threads in [1usize, 3] {
                let cfg = ExecCfg::with_threads(threads);
                for mask in 0..1usize << stages {
                    let choices: Vec<Engine> = (0..stages)
                        .map(|i| [Engine::Typer, Engine::Tectorwise][mask >> i & 1])
                        .collect();
                    let r = plan.run_stages(db, &cfg, &params, &choices);
                    let what = format!("{layout}, {threads} threads, {choices:?}");
                    assert_equal(q, &reference, &r, &what);
                }
                for e in [Engine::Typer, Engine::Tectorwise] {
                    let uniform = plan.run_stages(db, &cfg, &params, &vec![e; stages]);
                    let what = format!("{layout}, {threads} threads, uniform {e:?} vs run()");
                    assert_equal(q, &uniform, &run(e, q, db, &cfg), &what);
                }
            }
        }
    }
}

/// Encoded scans must also commute with morsel parallelism: the
/// `PackedReader` mid-column cursor starts and the fused kernels' chunk
/// boundaries shift with the thread count, the results must not.
#[test]
fn encoded_storage_threads_do_not_change_results() {
    for q in [QueryId::Q1, QueryId::Q6, QueryId::Q14, QueryId::Ssb1_1] {
        let enc = if QueryId::TPCH.contains(&q) {
            tpch_db_enc()
        } else {
            ssb_db_enc()
        };
        let single = run(Engine::Typer, q, enc, &ExecCfg::default());
        for threads in [2usize, 4, 8] {
            let cfg = ExecCfg::with_threads(threads);
            assert_equal(
                q,
                &single,
                &run(Engine::Typer, q, enc, &cfg),
                &format!("encoded typer {threads} threads"),
            );
            assert_equal(
                q,
                &single,
                &run(Engine::Tectorwise, q, enc, &cfg),
                &format!("encoded tectorwise {threads} threads"),
            );
        }
    }
}

/// The registry is complete and self-consistent: one plan per
/// `QueryId`, ids unique, lookup total. (Registry *order* vs
/// `QueryId::ALL` is pinned by a unit test inside `dbep-queries`.)
#[test]
fn registry_covers_every_query_exactly_once() {
    use dbep_queries::{plan, QueryId, REGISTRY};
    assert_eq!(REGISTRY.len(), QueryId::ALL.len());
    for q in QueryId::ALL {
        assert_eq!(plan(q).id(), q, "registry lookup roundtrip for {}", q.name());
    }
    let mut names: Vec<&str> = REGISTRY.iter().map(|p| p.id().name()).collect();
    names.sort_unstable();
    names.dedup();
    assert_eq!(names.len(), REGISTRY.len(), "duplicate registry entries");
}

#[test]
fn typer_equals_tectorwise_equals_volcano() {
    for q in ALL {
        let db = db_for(q);
        let cfg = ExecCfg::default();
        let typer = run(Engine::Typer, q, db, &cfg);
        let tw = run(Engine::Tectorwise, q, db, &cfg);
        let volcano = run(Engine::Volcano, q, db, &cfg);
        assert!(!typer.is_empty(), "{}: empty result", q.name());
        assert_equal(q, &typer, &tw, "typer vs tectorwise");
        assert_equal(q, &typer, &volcano, "typer vs volcano");
    }
}

/// Running Volcano's pipelines over their morsels on more workers must
/// not change results.
#[test]
fn volcano_threads_do_not_change_results() {
    for q in ALL {
        let db = db_for_001(q);
        let single = run(Engine::Volcano, q, db, &ExecCfg::default());
        for threads in [2usize, 4] {
            let cfg = ExecCfg::with_threads(threads);
            let parallel = run(Engine::Volcano, q, db, &cfg);
            assert_equal(q, &single, &parallel, &format!("volcano {threads} threads"));
        }
    }
}

#[test]
fn simd_policy_does_not_change_results() {
    for q in ALL {
        let db = db_for(q);
        let scalar = run(Engine::Tectorwise, q, db, &ExecCfg::default());
        for policy in [SimdPolicy::Simd, SimdPolicy::Auto] {
            let cfg = ExecCfg {
                policy,
                ..Default::default()
            };
            let r = run(Engine::Tectorwise, q, db, &cfg);
            assert_equal(q, &scalar, &r, &format!("{policy:?}"));
        }
    }
}

#[test]
fn vector_size_does_not_change_results() {
    for q in ALL {
        let db = db_for(q);
        let reference = run(Engine::Tectorwise, q, db, &ExecCfg::default());
        for vs in [1usize, 3, 17, 255, 8192, usize::MAX] {
            let cfg = ExecCfg {
                vector_size: vs.min(1 << 20),
                ..Default::default()
            };
            let r = run(Engine::Tectorwise, q, db, &cfg);
            assert_equal(q, &reference, &r, &format!("vector size {vs}"));
        }
    }
}

#[test]
fn threads_do_not_change_results() {
    for q in ALL {
        let db = db_for(q);
        let single = run(Engine::Typer, q, db, &ExecCfg::default());
        for threads in [2usize, 4, 8] {
            let cfg = ExecCfg::with_threads(threads);
            let typer = run(Engine::Typer, q, db, &cfg);
            assert_equal(q, &single, &typer, &format!("typer {threads} threads"));
            let tw = run(Engine::Tectorwise, q, db, &cfg);
            assert_equal(q, &single, &tw, &format!("tectorwise {threads} threads"));
        }
    }
}

#[test]
fn hash_function_swap_does_not_change_results() {
    for q in ALL {
        let db = db_for(q);
        let reference = run(Engine::Typer, q, db, &ExecCfg::default());
        for hash in [HashFn::Murmur2, HashFn::Crc] {
            let cfg = ExecCfg {
                hash: Some(hash),
                ..Default::default()
            };
            assert_equal(
                q,
                &reference,
                &run(Engine::Typer, q, db, &cfg),
                &format!("typer {hash:?}"),
            );
            assert_equal(
                q,
                &reference,
                &run(Engine::Tectorwise, q, db, &cfg),
                &format!("tectorwise {hash:?}"),
            );
        }
    }
}

#[test]
fn throttled_scan_changes_time_not_results() {
    let db = tpch_db();
    let reference = run(Engine::Typer, QueryId::Q6, db, &ExecCfg::default());
    let throttle = dbep_storage::throttle::Throttle::new(200.0e6);
    let cfg = ExecCfg {
        throttle: Some(&throttle),
        ..Default::default()
    };
    let throttled = run(Engine::Typer, QueryId::Q6, db, &cfg);
    assert_equal(QueryId::Q6, &reference, &throttled, "throttled");
    assert!(throttle.total_consumed() > 0, "throttle must have been exercised");
}

/// The throttle now applies to the Volcano paradigm too (unified
/// `ExecCfg` across all three engines).
#[test]
fn volcano_throttled_scan_changes_time_not_results() {
    let db = tpch_db_001();
    let reference = run(Engine::Volcano, QueryId::Q6, db, &ExecCfg::default());
    let throttle = dbep_storage::throttle::Throttle::new(500.0e6);
    let cfg = ExecCfg {
        throttle: Some(&throttle),
        ..Default::default()
    };
    let throttled = run(Engine::Volcano, QueryId::Q6, db, &cfg);
    assert_equal(QueryId::Q6, &reference, &throttled, "volcano throttled");
    assert!(
        throttle.total_consumed() > 0,
        "volcano scans must debit the throttle"
    );
}

#[test]
fn q1_shape_matches_spec() {
    // Q1 must produce exactly the four (returnflag, linestatus) groups in
    // order.
    let r = run(Engine::Typer, QueryId::Q1, tpch_db(), &ExecCfg::default());
    let keys: Vec<(String, String)> = r
        .rows
        .iter()
        .map(|row| (row[0].to_string(), row[1].to_string()))
        .collect();
    assert_eq!(
        keys,
        vec![
            ("A".into(), "F".into()),
            ("N".into(), "F".into()),
            ("N".into(), "O".into()),
            ("R".into(), "F".into()),
        ]
    );
}

#[test]
fn q3_and_q18_respect_limits() {
    let q3 = run(Engine::Typer, QueryId::Q3, tpch_db(), &ExecCfg::default());
    assert!(q3.len() <= 10);
    // Revenue must be non-increasing.
    for w in q3.rows.windows(2) {
        assert!(w[0][1] >= w[1][1], "q3 not sorted by revenue desc");
    }
    let q18 = run(Engine::Typer, QueryId::Q18, tpch_db(), &ExecCfg::default());
    assert!(q18.len() <= 100);
    for w in q18.rows.windows(2) {
        assert!(w[0][4] >= w[1][4], "q18 not sorted by totalprice desc");
    }
}

#[test]
fn q4_q12_q14_shapes_match_spec() {
    let db = tpch_db();
    let cfg = ExecCfg::default();
    // Q4: at most the five spec priorities, ordered ascending, all counts
    // positive.
    let q4 = run(Engine::Typer, QueryId::Q4, db, &cfg);
    assert!((1..=5).contains(&q4.len()), "q4 group count {}", q4.len());
    let prios: Vec<String> = q4.rows.iter().map(|r| r[0].to_string()).collect();
    assert!(
        prios.windows(2).all(|w| w[0] < w[1]),
        "q4 not ordered by priority"
    );
    for row in &q4.rows {
        assert!(row[0].to_string().as_bytes()[0].is_ascii_digit());
        assert!(row[1] > Value::I64(0), "q4 empty group emitted");
    }
    // Q12: exactly the IN-list groups, MAIL before SHIP, both CASE arms
    // populated at SF 0.05.
    let q12 = run(Engine::Typer, QueryId::Q12, db, &cfg);
    let modes: Vec<String> = q12.rows.iter().map(|r| r[0].to_string()).collect();
    assert_eq!(modes, vec!["MAIL".to_string(), "SHIP".to_string()]);
    for row in &q12.rows {
        assert!(row[1] > Value::I64(0) && row[2] > Value::I64(0), "empty CASE arm");
    }
    // Q14: a single ratio row; PROMO types are ~1/6 of parts, so the
    // promo-revenue percentage sits well inside (0, 100).
    let q14 = run(Engine::Typer, QueryId::Q14, db, &cfg);
    assert_eq!(q14.len(), 1);
    match q14.rows[0][0] {
        Value::Dec { digits, scale: 4 } => {
            assert!(
                (50_000..500_000).contains(&digits),
                "promo_revenue {digits} (scale 4) far from the ~16.7% spec selectivity"
            );
        }
        ref other => panic!("unexpected promo_revenue value {other:?}"),
    }
}

#[test]
fn oltp_lookups_agree_across_engines() {
    let db = tpch_db();
    let idx = dbep_queries::oltp::OltpIndex::build(db, HashFn::Crc);
    let mut scratch = dbep_queries::oltp::TwLookupScratch::new();
    let n_orders = db.table("orders").len() as i32;
    for orderkey in [1, 2, 77, n_orders / 2, n_orders] {
        let t = dbep_queries::oltp::lookup_typer(db, &idx, orderkey).expect("order exists");
        let v =
            dbep_queries::oltp::lookup_tectorwise(db, &idx, orderkey, &mut scratch).expect("order exists");
        let w = dbep_queries::oltp::lookup_volcano(db, orderkey).expect("order exists");
        assert_eq!(t, v, "typer vs tectorwise, order {orderkey}");
        assert_eq!(t, w, "typer vs volcano, order {orderkey}");
        assert!(t.line_count >= 1 && t.line_count <= 7);
    }
    // Missing key behaves identically.
    assert!(dbep_queries::oltp::lookup_typer(db, &idx, n_orders + 1).is_none());
    assert!(dbep_queries::oltp::lookup_volcano(db, n_orders + 1).is_none());
}
