//! The pre-aggregation flushes when it is full (§3.2). Q18 groups
//! `lineitem` by `l_orderkey`; at SF 0.05 that is more groups than
//! [`PREAGG_GROUPS`], so at one thread the Typer, Tectorwise and Volcano
//! aggregates each flush at least once (at two, as the morsels fall).
//! Every per-stage Typer/Tectorwise assignment and Volcano must then
//! return the orders a `BTreeMap` over `lineitem` qualifies, with their
//! sums. The Tectorwise aggregate also runs with one-tuple vectors and
//! with whole-morsel vectors, as long as the bound, so that every vector
//! after the first flushes the table before it finds its groups.

use db_engine_paradigms::prelude::*;
use db_engine_paradigms::queries::params::Q18Params;
use db_engine_paradigms::runtime::PREAGG_GROUPS;
use std::collections::BTreeMap;

#[test]
fn q18_agrees_with_a_model_when_every_engine_flushes() {
    let db = dbep_datagen::tpch::generate(0.05, 42);
    let li = db.table("lineitem");
    let mut sums = BTreeMap::new();
    for (&k, &q) in li
        .col("l_orderkey")
        .i32s()
        .iter()
        .zip(li.col("l_quantity").i64s())
    {
        *sums.entry(k).or_insert(0i64) += q;
    }
    assert!(
        sums.len() > PREAGG_GROUPS,
        "{} groups never fill a {PREAGG_GROUPS}-group table",
        sums.len()
    );
    // Low enough that dozens of orders qualify at this scale.
    let quantity = 250;
    let params = Params::from(Q18Params::new(quantity).expect("valid quantity"));
    let want: BTreeMap<i32, i64> = sums.into_iter().filter(|&(_, s)| s > quantity * 100).collect();
    assert!(want.len() > 10, "only {} orders qualify", want.len());
    let check = |r: &QueryResult, what: &str| {
        assert_eq!(r.rows.len(), want.len().min(100), "{what}: row count");
        for row in &r.rows {
            let Value::I32(order) = row[2] else {
                panic!("{what}: o_orderkey is {:?}", row[2]);
            };
            assert_eq!(row[5], Value::dec2(want[&order]), "{what}: order {order}");
        }
    };
    let plan = dbep_queries::plan(QueryId::Q18);
    let stages = plan.stages().len();
    for threads in [1usize, 2] {
        let cfg = ExecCfg::with_threads(threads);
        let volcano = run_with(Engine::Volcano, QueryId::Q18, &db, &cfg, &params);
        check(&volcano, &format!("volcano, {threads} threads"));
        for mask in 0..1usize << stages {
            let choices: Vec<Engine> = (0..stages)
                .map(|i| [Engine::Typer, Engine::Tectorwise][mask >> i & 1])
                .collect();
            let r = plan.run_stages(&db, &cfg, &params, &choices);
            let what = format!("{threads} threads, {choices:?}");
            check(&r, &what);
            assert_eq!(r, volcano, "{what} vs volcano");
            if choices[0] != Engine::Tectorwise {
                continue;
            }
            for vector_size in [1, usize::MAX] {
                let cfg = ExecCfg { vector_size, ..cfg };
                let r = plan.run_stages(&db, &cfg, &params, &choices);
                let what = format!("{what}, vector size {vector_size}");
                check(&r, &what);
                assert_eq!(r, volcano, "{what} vs volcano");
            }
        }
    }
}
