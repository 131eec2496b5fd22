//! SSB Q2.1: three dimension probes + (year, brand) aggregation.
//!
//! ```sql
//! SELECT sum(lo_revenue), d_year, p_brand1
//! FROM lineorder, date, part, supplier
//! WHERE lo_orderdate = d_datekey AND lo_partkey = p_partkey
//!   AND lo_suppkey = s_suppkey AND p_category = 'MFGR#12'
//!   AND s_region = 'AMERICA'
//! GROUP BY d_year, p_brand1 ORDER BY d_year, p_brand1
//! ```
//!
//! Two stages: `build_dims` is one body for both paradigms (one paced
//! `build_dim` per dimension table), `probe_lineorder` has a Typer body
//! and a Tectorwise body.

use crate::params::SsbQ21Params;
use crate::result::{OrderBy, QueryResult, Value};
use crate::ssb::{build_dim, realign_i32, realign_u32, ProbeScratch};
use crate::{Engine, ExecCfg, Params};
use dbep_datagen::ssb::brand_name;
use dbep_runtime::hash::HashFn;
use dbep_runtime::JoinHt;
use dbep_storage::Database;
use dbep_vectorized as tw;
use dbep_volcano::{AggSpec, CmpOp, Expr, Plan, Row};

fn finish(groups: Vec<((i32, i32), i64)>) -> QueryResult {
    let rows = groups
        .into_iter()
        .map(|((year, brand), rev)| vec![Value::dec2(rev), Value::I32(year), Value::Str(brand_name(brand))])
        .collect();
    QueryResult::new(
        &["sum_revenue", "d_year", "p_brand1"],
        rows,
        &[OrderBy::asc(1), OrderBy::asc(2)],
        None,
    )
}

/// Dimension hash tables shared by Typer and Tectorwise.
struct Dims {
    ht_p: JoinHt<(i32, i32)>, // partkey → brand
    ht_s: JoinHt<i32>,        // suppkey (semi-join)
    ht_d: JoinHt<(i32, i32)>, // datekey → year
}

/// Stage 0 (`build-dims`): one build per dimension table, hashed with
/// `hf`.
fn build_dims(db: &Database, cfg: &ExecCfg, hf: HashFn, p0: &SsbQ21Params) -> Dims {
    let (category, region) = (p0.category, p0.region);
    let p = db.table("ssb_part");
    let (pk, pcat, pbrand) = (
        p.col("p_partkey").i32s(),
        p.col("p_category").i32s(),
        p.col("p_brand1").i32s(),
    );
    let ht_p = build_dim(cfg, p, &["p_partkey", "p_brand1", "p_category"], hf, |i| {
        (pcat[i] == category).then(|| (pk[i], (pk[i], pbrand[i])))
    });
    let s = db.table("ssb_supplier");
    let (sk, sreg) = (s.col("s_suppkey").i32s(), s.col("s_region").i32s());
    let ht_s = build_dim(cfg, s, &["s_suppkey", "s_region"], hf, |i| {
        (sreg[i] == region).then(|| (sk[i], sk[i]))
    });
    let d = db.table("date");
    let (dk, dy) = (d.col("d_datekey").i32s(), d.col("d_year").i32s());
    let ht_d = build_dim(cfg, d, &["d_datekey", "d_year"], hf, |i| {
        Some((dk[i], (dk[i], dy[i])))
    });
    Dims { ht_p, ht_s, ht_d }
}

/// Stage 1 (`probe-lineorder`): lineorder ⋈ dimensions → Γ. `hf` is the
/// hash the dimension tables were built with; the stage's private
/// aggregate tables reuse it.
fn probe_lineorder(
    db: &Database,
    cfg: &ExecCfg,
    engine: Engine,
    hf: HashFn,
    dims: &Dims,
) -> Vec<((i32, i32), i64)> {
    let lo = db.table("lineorder");
    let lpk = lo.col("lo_partkey").i32s();
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
        v_brand: Vec<i32>,
        v_brand2: Vec<i32>,
        v_brand3: Vec<i32>,
        v_year: Vec<i32>,
        v_rev: Vec<i64>,
        ghash: Vec<u64>,
        ordinals: Vec<u32>,
    }
    cfg.group_by(
        engine,
        lo.len(),
        lo.flat_bits(&["lo_partkey", "lo_suppkey", "lo_orderdate", "lo_revenue"]),
        Scratch::default,
        // One fused probe chain per fact tuple.
        |(shard, _), r| {
            for i in r {
                let hp = hf.hash(lpk[i] as u64);
                let Some(e_p) = dims.ht_p.probe(hp).find(|e| e.row.0 == lpk[i]) else {
                    continue;
                };
                let hs = hf.hash(lsk[i] as u64);
                if !dims.ht_s.probe(hs).any(|e| e.row == lsk[i]) {
                    continue;
                }
                let hd = hf.hash(lod[i] as u64);
                let Some(e_d) = dims.ht_d.probe(hd).find(|e| e.row.0 == lod[i]) else {
                    continue;
                };
                let key = (e_d.row.1, e_p.row.1);
                let gh = hf.rehash(hf.hash(key.0 as u64), key.1 as u64);
                shard.update(gh, key, || 0, |a| *a += rev[i]);
            }
        },
        // Probe steps with carried-vector realignment.
        |(shard, st), c| {
            tw::hashp::iota(c.start as u32, c.len(), &mut st.rows0);
            // part probe: fetch brand.
            if st
                .probe
                .probe_step(&dims.ht_p, lpk, &st.rows0, hf, policy, |e, k| e.0 == k)
                == 0
            {
                return;
            }
            tw::gather::gather_build(&dims.ht_p, &st.probe.bufs.match_entry, |r| r.1, &mut st.v_brand);
            realign_u32(&st.rows0, &st.probe.bufs.match_tuple, &mut st.rows1);
            // supplier semi-join.
            if st
                .probe
                .probe_step(&dims.ht_s, lsk, &st.rows1, hf, policy, |e, k| *e == k)
                == 0
            {
                return;
            }
            realign_i32(&st.v_brand, &st.probe.bufs.match_tuple, &mut st.v_brand2);
            realign_u32(&st.rows1, &st.probe.bufs.match_tuple, &mut st.rows2);
            // date probe: fetch year.
            let n = st
                .probe
                .probe_step(&dims.ht_d, lod, &st.rows2, hf, policy, |e, k| e.0 == k);
            if n == 0 {
                return;
            }
            tw::gather::gather_build(&dims.ht_d, &st.probe.bufs.match_entry, |r| r.1, &mut st.v_year);
            realign_i32(&st.v_brand2, &st.probe.bufs.match_tuple, &mut st.v_brand3);
            realign_u32(&st.rows2, &st.probe.bufs.match_tuple, &mut st.rows3);
            // Aggregate by (year, brand).
            tw::gather::gather_i64(rev, &st.rows3, policy, &mut st.v_rev);
            tw::hashp::iota(0, n, &mut st.ordinals);
            tw::hashp::hash_i32_dense(&st.v_year, hf, &mut st.ghash);
            tw::hashp::rehash_i32(&st.v_brand3, &st.ordinals, hf, &mut st.ghash);
            let (v_year, v_brand3) = (&st.v_year, &st.v_brand3);
            tw::grouping::find_or_insert_groups(
                shard,
                &st.ghash,
                &st.ordinals,
                |j| {
                    let j = j as usize;
                    (v_year[j], v_brand3[j])
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
pub struct Q21;

impl crate::QueryPlan for Q21 {
    fn id(&self) -> crate::QueryId {
        crate::QueryId::Ssb2_1
    }

    /// The interpreted joins; the fact scan drives.
    fn volcano_plan(&self, params: &Params) -> Plan {
        let p = params.ssb2_1();
        let part = Plan::scan("ssb_part", &["p_partkey", "p_brand1", "p_category"]).select(Expr::cmp(
            CmpOp::Eq,
            Expr::col(2),
            Expr::lit_i32(p.category),
        ));
        let fact = Plan::scan(
            "lineorder",
            &["lo_partkey", "lo_suppkey", "lo_orderdate", "lo_revenue"],
        );
        let supplier = Plan::scan("ssb_supplier", &["s_suppkey", "s_region"]).select(Expr::cmp(
            CmpOp::Eq,
            Expr::col(1),
            Expr::lit_i32(p.region),
        ));
        // [p_partkey, p_brand1, p_category, lo_partkey, lo_suppkey, lo_orderdate, lo_revenue]
        let with_part = part.hash_join(vec![Expr::col(0)], fact, vec![Expr::col(0)]);
        // [s_suppkey, s_region] ++ 7 cols
        let with_supp = supplier.hash_join(vec![Expr::col(0)], with_part, vec![Expr::col(4)]);
        // [d_datekey, d_year] ++ 9 cols
        Plan::scan("date", &["d_datekey", "d_year"])
            .hash_join(vec![Expr::col(0)], with_supp, vec![Expr::col(7)])
            .aggregate(
                vec![Expr::col(1), Expr::col(5)],     // d_year, p_brand1
                vec![AggSpec::SumI64(Expr::col(10))], // lo_revenue
            )
    }

    fn volcano_result(&self, _db: &Database, rows: Vec<Row>) -> QueryResult {
        finish(
            rows.into_iter()
                .map(|r| ((r[0].as_i32(), r[1].as_i32()), r[2].as_i64()))
                .collect(),
        )
    }

    fn stages(&self) -> &'static [crate::StageDesc] {
        use crate::{StageDesc, StageKind};
        // The dimension builds are one body for both paradigms
        // (`build_dims`); the probe chain over the fact table is the
        // whole game.
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
            build_dims(db, cfg, hf, params.ssb2_1())
        };
        let _s = cfg.stage(1);
        finish(probe_lineorder(db, cfg, probe, hf, &dims))
    }
}
