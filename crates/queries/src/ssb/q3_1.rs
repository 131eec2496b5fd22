//! SSB Q3.1: customer × supplier region filters, (c_nation, s_nation,
//! d_year) aggregation.
//!
//! ```sql
//! SELECT c_nation, s_nation, d_year, sum(lo_revenue) AS revenue
//! FROM customer, lineorder, supplier, date
//! WHERE lo_custkey = c_custkey AND lo_suppkey = s_suppkey
//!   AND lo_orderdate = d_datekey AND c_region = 'ASIA'
//!   AND s_region = 'ASIA' AND d_year >= 1992 AND d_year <= 1997
//! GROUP BY c_nation, s_nation, d_year ORDER BY d_year ASC, revenue DESC
//! ```
//!
//! Two stages: `build_dims` is one body for both paradigms (one paced
//! `build_dim` per dimension table), `probe_lineorder` has a Typer body
//! and a Tectorwise body.

use crate::params::SsbQ31Params;
use crate::result::{OrderBy, QueryResult, Value};
use crate::ssb::{build_dim, realign_i32, realign_u32, ProbeScratch};
use crate::{Engine, ExecCfg, Params};
use dbep_datagen::ssb::NATIONS;
use dbep_runtime::hash::HashFn;
use dbep_runtime::JoinHt;
use dbep_storage::Database;
use dbep_vectorized as tw;
use dbep_volcano::{AggSpec, CmpOp, Expr, Plan, Row};

type Key = (i32, i32, i32); // (c_nation, s_nation, d_year)

fn finish(groups: Vec<(Key, i64)>) -> QueryResult {
    let rows = groups
        .into_iter()
        .map(|((cn, sn, y), rev)| {
            vec![
                Value::Str(NATIONS[cn as usize].0.to_string()),
                Value::Str(NATIONS[sn as usize].0.to_string()),
                Value::I32(y),
                Value::dec2(rev),
            ]
        })
        .collect();
    QueryResult::new(
        &["c_nation", "s_nation", "d_year", "revenue"],
        rows,
        &[OrderBy::asc(2), OrderBy::desc(3)],
        None,
    )
}

struct Dims {
    ht_s: JoinHt<(i32, i32)>, // suppkey → s_nation
    ht_c: JoinHt<(i32, i32)>, // custkey → c_nation
    ht_d: JoinHt<(i32, i32)>, // datekey → year
}

/// Stage 0 (`build-dims`): one build per dimension table, hashed with
/// `hf`.
fn build_dims(db: &Database, cfg: &ExecCfg, hf: HashFn, p: &SsbQ31Params) -> Dims {
    let s = db.table("ssb_supplier");
    let (sk, sreg, snat) = (
        s.col("s_suppkey").i32s(),
        s.col("s_region").i32s(),
        s.col("s_nation").i32s(),
    );
    let ht_s = build_dim(cfg, s, &["s_suppkey", "s_nation", "s_region"], hf, |i| {
        (sreg[i] == p.supp_region).then(|| (sk[i], (sk[i], snat[i])))
    });
    let c = db.table("ssb_customer");
    let (ck, creg, cnat) = (
        c.col("c_custkey").i32s(),
        c.col("c_region").i32s(),
        c.col("c_nation").i32s(),
    );
    let ht_c = build_dim(cfg, c, &["c_custkey", "c_nation", "c_region"], hf, |i| {
        (creg[i] == p.cust_region).then(|| (ck[i], (ck[i], cnat[i])))
    });
    let d = db.table("date");
    let (dk, dy) = (d.col("d_datekey").i32s(), d.col("d_year").i32s());
    let ht_d = build_dim(cfg, d, &["d_datekey", "d_year"], hf, |i| {
        (p.year_lo..=p.year_hi)
            .contains(&dy[i])
            .then(|| (dk[i], (dk[i], dy[i])))
    });
    Dims { ht_s, ht_c, ht_d }
}

/// Stage 1 (`probe-lineorder`): lineorder ⋈ dimensions → Γ. `hf` is the
/// hash the dimension tables were built with; the stage's private
/// aggregate tables reuse it.
fn probe_lineorder(db: &Database, cfg: &ExecCfg, engine: Engine, hf: HashFn, dims: &Dims) -> Vec<(Key, i64)> {
    let lo = db.table("lineorder");
    let lck = lo.col("lo_custkey").i32s();
    let lsk = lo.col("lo_suppkey").i32s();
    let lod = lo.col("lo_orderdate").i32s();
    let rev = lo.col("lo_revenue").i64s();
    let policy = cfg.policy;
    #[derive(Default)]
    struct Scratch {
        probe: ProbeScratch,
        gb: tw::grouping::GroupBuffers,
        rows0: Vec<u32>,
        rows1: Vec<u32>,
        rows2: Vec<u32>,
        rows3: Vec<u32>,
        v_snat: Vec<i32>,
        v_snat2: Vec<i32>,
        v_snat3: Vec<i32>,
        v_cnat: Vec<i32>,
        v_cnat2: Vec<i32>,
        v_year: Vec<i32>,
        v_rev: Vec<i64>,
        ghash: Vec<u64>,
        ordinals: Vec<u32>,
    }
    cfg.group_by(
        engine,
        lo.len(),
        lo.flat_bits(&["lo_custkey", "lo_suppkey", "lo_orderdate", "lo_revenue"]),
        Scratch::default,
        // Fused probe chain.
        |(shard, _), r| {
            for i in r {
                let hs = hf.hash(lsk[i] as u64);
                let Some(e_s) = dims.ht_s.probe(hs).find(|e| e.row.0 == lsk[i]) else {
                    continue;
                };
                let hc = hf.hash(lck[i] as u64);
                let Some(e_c) = dims.ht_c.probe(hc).find(|e| e.row.0 == lck[i]) else {
                    continue;
                };
                let hd = hf.hash(lod[i] as u64);
                let Some(e_d) = dims.ht_d.probe(hd).find(|e| e.row.0 == lod[i]) else {
                    continue;
                };
                let key = (e_c.row.1, e_s.row.1, e_d.row.1);
                let gh = hf.rehash(hf.rehash(hf.hash(key.0 as u64), key.1 as u64), key.2 as u64);
                shard.update(gh, key, || 0, |a| *a += rev[i]);
            }
        },
        // Probe steps with realignment of both nation vectors.
        |(shard, st), c| {
            tw::hashp::iota(c.start as u32, c.len(), &mut st.rows0);
            if st
                .probe
                .probe_step(&dims.ht_s, lsk, &st.rows0, hf, policy, |e, k| e.0 == k)
                == 0
            {
                return;
            }
            tw::gather::gather_build(&dims.ht_s, &st.probe.bufs.match_entry, |r| r.1, &mut st.v_snat);
            realign_u32(&st.rows0, &st.probe.bufs.match_tuple, &mut st.rows1);
            if st
                .probe
                .probe_step(&dims.ht_c, lck, &st.rows1, hf, policy, |e, k| e.0 == k)
                == 0
            {
                return;
            }
            tw::gather::gather_build(&dims.ht_c, &st.probe.bufs.match_entry, |r| r.1, &mut st.v_cnat);
            realign_i32(&st.v_snat, &st.probe.bufs.match_tuple, &mut st.v_snat2);
            realign_u32(&st.rows1, &st.probe.bufs.match_tuple, &mut st.rows2);
            let n = st
                .probe
                .probe_step(&dims.ht_d, lod, &st.rows2, hf, policy, |e, k| e.0 == k);
            if n == 0 {
                return;
            }
            tw::gather::gather_build(&dims.ht_d, &st.probe.bufs.match_entry, |r| r.1, &mut st.v_year);
            realign_i32(&st.v_snat2, &st.probe.bufs.match_tuple, &mut st.v_snat3);
            realign_i32(&st.v_cnat, &st.probe.bufs.match_tuple, &mut st.v_cnat2);
            realign_u32(&st.rows2, &st.probe.bufs.match_tuple, &mut st.rows3);
            tw::gather::gather_i64(rev, &st.rows3, policy, &mut st.v_rev);
            tw::hashp::iota(0, n, &mut st.ordinals);
            tw::hashp::hash_i32_dense(&st.v_cnat2, hf, &mut st.ghash);
            tw::hashp::rehash_i32(&st.v_snat3, &st.ordinals, hf, &mut st.ghash);
            tw::hashp::rehash_i32(&st.v_year, &st.ordinals, hf, &mut st.ghash);
            let (v_cnat2, v_snat3, v_year) = (&st.v_cnat2, &st.v_snat3, &st.v_year);
            tw::grouping::find_or_insert_groups(
                shard,
                &st.ghash,
                &st.ordinals,
                |j| {
                    let j = j as usize;
                    (v_cnat2[j], v_snat3[j], v_year[j])
                },
                || 0,
                &mut st.gb,
            );
            tw::grouping::agg_update_i64(&mut shard.ht, &st.gb.groups, &st.v_rev, |a, v| *a += v);
        },
        |a, b| *a += b,
    )
}

/// Registry entry (see [`crate::QueryPlan`]).
pub struct Q31;

impl crate::QueryPlan for Q31 {
    fn id(&self) -> crate::QueryId {
        crate::QueryId::Ssb3_1
    }

    /// The interpreted joins; the fact scan drives.
    fn volcano_plan(&self, params: &Params) -> Plan {
        let p = params.ssb3_1();
        let supplier = Plan::scan("ssb_supplier", &["s_suppkey", "s_nation", "s_region"]).select(Expr::cmp(
            CmpOp::Eq,
            Expr::col(2),
            Expr::lit_i32(p.supp_region),
        ));
        let fact = Plan::scan(
            "lineorder",
            &["lo_custkey", "lo_suppkey", "lo_orderdate", "lo_revenue"],
        );
        let customer = Plan::scan("ssb_customer", &["c_custkey", "c_nation", "c_region"]).select(Expr::cmp(
            CmpOp::Eq,
            Expr::col(2),
            Expr::lit_i32(p.cust_region),
        ));
        let dates = Plan::scan("date", &["d_datekey", "d_year"]).select(Expr::And(vec![
            Expr::cmp(CmpOp::Ge, Expr::col(1), Expr::lit_i32(p.year_lo)),
            Expr::cmp(CmpOp::Le, Expr::col(1), Expr::lit_i32(p.year_hi)),
        ]));
        // [s_suppkey, s_nation, s_region, lo_custkey, lo_suppkey, lo_orderdate, lo_revenue]
        let with_supp = supplier.hash_join(vec![Expr::col(0)], fact, vec![Expr::col(1)]);
        // [c_custkey, c_nation, c_region] ++ 7 cols
        let with_cust = customer.hash_join(vec![Expr::col(0)], with_supp, vec![Expr::col(3)]);
        // [d_datekey, d_year] ++ 10 cols
        dates
            .hash_join(vec![Expr::col(0)], with_cust, vec![Expr::col(8)])
            .aggregate(
                vec![Expr::col(3), Expr::col(6), Expr::col(1)], // c_nation, s_nation, d_year
                vec![AggSpec::SumI64(Expr::col(11))],           // lo_revenue
            )
    }

    fn volcano_result(&self, _db: &Database, rows: Vec<Row>) -> QueryResult {
        let key = |r: &Row| (r[0].as_i32(), r[1].as_i32(), r[2].as_i32());
        finish(rows.iter().map(|r| (key(r), r[3].as_i64())).collect())
    }

    fn stages(&self) -> &'static [crate::StageDesc] {
        use crate::{StageDesc, StageKind};
        const S: &[crate::StageDesc] = &[
            StageDesc::new("build-dims", StageKind::JoinBuild),
            StageDesc::new("probe-lineorder", StageKind::JoinProbe),
        ];
        S
    }

    fn run_stages(&self, db: &Database, cfg: &ExecCfg, params: &Params, choices: &[Engine]) -> QueryResult {
        let [build, probe] = crate::assignment(choices);
        let hf = cfg.hash_for(build);
        let dims = {
            let _s = cfg.stage(0);
            build_dims(db, cfg, hf, params.ssb3_1())
        };
        let _s = cfg.stage(1);
        finish(probe_lineorder(db, cfg, probe, hf, &dims))
    }
}
