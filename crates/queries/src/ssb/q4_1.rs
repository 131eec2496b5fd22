//! SSB Q4.1: four dimension probes, profit aggregation.
//!
//! ```sql
//! SELECT d_year, c_nation, sum(lo_revenue - lo_supplycost) AS profit
//! FROM date, customer, supplier, part, lineorder
//! WHERE lo_custkey = c_custkey AND lo_suppkey = s_suppkey
//!   AND lo_partkey = p_partkey AND lo_orderdate = d_datekey
//!   AND c_region = 'AMERICA' AND s_region = 'AMERICA'
//!   AND (p_mfgr = 'MFGR#1' OR p_mfgr = 'MFGR#2')
//! GROUP BY d_year, c_nation ORDER BY d_year, c_nation
//! ```
//!
//! Two stages: `build_dims` is one body for both paradigms,
//! `probe_lineorder` has a Typer arm and a Tectorwise arm.

use crate::params::SsbQ41Params;
use crate::result::{OrderBy, QueryResult, Value};
use crate::ssb::{realign_i32, realign_u32, ProbeScratch};
use crate::{Engine, ExecCfg, Params};
use dbep_datagen::ssb::NATIONS;
use dbep_runtime::agg_ht::merge_partitions;
use dbep_runtime::hash::HashFn;
use dbep_runtime::{GroupByShard, JoinHt};
use dbep_storage::Database;
use dbep_vectorized as tw;
use dbep_volcano::{AggSpec, BinOp, CmpOp, Expr, Plan, Row};

const LO_BITS: usize = 8 * (4 * 4 + 8 * 2);

type Key = (i32, i32); // (d_year, c_nation)

fn finish(groups: Vec<(Key, i64)>) -> QueryResult {
    let rows = groups
        .into_iter()
        .map(|((y, cn), profit)| {
            vec![
                Value::I32(y),
                Value::Str(NATIONS[cn as usize].0.to_string()),
                Value::dec2(profit),
            ]
        })
        .collect();
    QueryResult::new(
        &["d_year", "c_nation", "profit"],
        rows,
        &[OrderBy::asc(0), OrderBy::asc(1)],
        None,
    )
}

struct Dims {
    ht_s: JoinHt<i32>,        // suppkey (semi-join)
    ht_c: JoinHt<(i32, i32)>, // custkey → c_nation
    ht_p: JoinHt<i32>,        // partkey (semi-join)
    ht_d: JoinHt<(i32, i32)>, // datekey → year
}

fn build_dims(db: &Database, hf: HashFn, p0: &SsbQ41Params) -> Dims {
    let s = db.table("ssb_supplier");
    let (sk, sreg) = (s.col("s_suppkey").i32s(), s.col("s_region").i32s());
    let ht_s = JoinHt::build(
        (0..s.len())
            .filter(|&i| sreg[i] == p0.supp_region)
            .map(|i| (hf.hash(sk[i] as u64), sk[i])),
    );
    let c = db.table("ssb_customer");
    let (ck, creg, cnat) = (
        c.col("c_custkey").i32s(),
        c.col("c_region").i32s(),
        c.col("c_nation").i32s(),
    );
    let ht_c = JoinHt::build(
        (0..c.len())
            .filter(|&i| creg[i] == p0.cust_region)
            .map(|i| (hf.hash(ck[i] as u64), (ck[i], cnat[i]))),
    );
    let p = db.table("ssb_part");
    let (pk, mfgr) = (p.col("p_partkey").i32s(), p.col("p_mfgr").i32s());
    let ht_p = JoinHt::build(
        (0..p.len())
            .filter(|&i| mfgr[i] == p0.mfgrs[0] || mfgr[i] == p0.mfgrs[1])
            .map(|i| (hf.hash(pk[i] as u64), pk[i])),
    );
    let d = db.table("date");
    let (dk, dy) = (d.col("d_datekey").i32s(), d.col("d_year").i32s());
    let ht_d = JoinHt::build((0..d.len()).map(|i| (hf.hash(dk[i] as u64), (dk[i], dy[i]))));
    Dims {
        ht_s,
        ht_c,
        ht_p,
        ht_d,
    }
}

/// Stage 1 (`probe-lineorder`): lineorder ⋈ dimensions → Γ. `hf` is the
/// hash the dimension tables were built with; the stage's private
/// aggregate tables reuse it.
fn probe_lineorder(db: &Database, cfg: &ExecCfg, engine: Engine, hf: HashFn, dims: &Dims) -> Vec<(Key, i64)> {
    let lo = db.table("lineorder");
    let lck = lo.col("lo_custkey").i32s();
    let lsk = lo.col("lo_suppkey").i32s();
    let lpk = lo.col("lo_partkey").i32s();
    let lod = lo.col("lo_orderdate").i32s();
    let rev = lo.col("lo_revenue").i64s();
    let cost = lo.col("lo_supplycost").i64s();
    let shards = match engine {
        // Fused probe chain over four tables.
        Engine::Typer => {
            let shards = cfg.map_scan(
                lo.len(),
                LO_BITS,
                |_| GroupByShard::<Key, i64>::new(),
                |shard, r| {
                    for i in r {
                        let hs = hf.hash(lsk[i] as u64);
                        if !dims.ht_s.probe(hs).any(|e| e.row == lsk[i]) {
                            continue;
                        }
                        let hc = hf.hash(lck[i] as u64);
                        let Some(e_c) = dims.ht_c.probe(hc).find(|e| e.row.0 == lck[i]) else {
                            continue;
                        };
                        let hp = hf.hash(lpk[i] as u64);
                        if !dims.ht_p.probe(hp).any(|e| e.row == lpk[i]) {
                            continue;
                        }
                        let hd = hf.hash(lod[i] as u64);
                        let Some(e_d) = dims.ht_d.probe(hd).find(|e| e.row.0 == lod[i]) else {
                            continue;
                        };
                        let key = (e_d.row.1, e_c.row.1);
                        let gh = hf.rehash(hf.hash(key.0 as u64), key.1 as u64);
                        shard.update(gh, key, || 0, |a| *a += rev[i] - cost[i]);
                    }
                },
            );
            shards.into_iter().map(GroupByShard::finish).collect()
        }
        // Probe steps with realignment.
        Engine::Tectorwise => {
            let policy = cfg.policy;
            #[derive(Default)]
            struct Scratch {
                probe: ProbeScratch,
                gb: tw::grouping::GroupBuffers,
                rows0: Vec<u32>,
                rows1: Vec<u32>,
                rows2: Vec<u32>,
                rows3: Vec<u32>,
                rows4: Vec<u32>,
                v_cnat: Vec<i32>,
                v_cnat2: Vec<i32>,
                v_cnat3: Vec<i32>,
                v_year: Vec<i32>,
                v_rev: Vec<i64>,
                v_cost: Vec<i64>,
                v_profit: Vec<i64>,
                ghash: Vec<u64>,
                ordinals: Vec<u32>,
                v_profit_sel: Vec<i64>,
            }
            let shards = cfg.map_scan(
                lo.len(),
                LO_BITS,
                |_| (GroupByShard::<Key, i64>::new(), Scratch::default()),
                |(shard, st), r| {
                    for c in tw::chunks(r, cfg.vector_size) {
                        tw::hashp::iota(c.start as u32, c.len(), &mut st.rows0);
                        if st
                            .probe
                            .probe_step(&dims.ht_s, lsk, &st.rows0, hf, policy, |e, k| *e == k)
                            == 0
                        {
                            continue;
                        }
                        realign_u32(&st.rows0, &st.probe.bufs.match_tuple, &mut st.rows1);
                        if st
                            .probe
                            .probe_step(&dims.ht_c, lck, &st.rows1, hf, policy, |e, k| e.0 == k)
                            == 0
                        {
                            continue;
                        }
                        tw::gather::gather_build(
                            &dims.ht_c,
                            &st.probe.bufs.match_entry,
                            |r| r.1,
                            &mut st.v_cnat,
                        );
                        realign_u32(&st.rows1, &st.probe.bufs.match_tuple, &mut st.rows2);
                        if st
                            .probe
                            .probe_step(&dims.ht_p, lpk, &st.rows2, hf, policy, |e, k| *e == k)
                            == 0
                        {
                            continue;
                        }
                        realign_i32(&st.v_cnat, &st.probe.bufs.match_tuple, &mut st.v_cnat2);
                        realign_u32(&st.rows2, &st.probe.bufs.match_tuple, &mut st.rows3);
                        let n = st
                            .probe
                            .probe_step(&dims.ht_d, lod, &st.rows3, hf, policy, |e, k| e.0 == k);
                        if n == 0 {
                            continue;
                        }
                        tw::gather::gather_build(
                            &dims.ht_d,
                            &st.probe.bufs.match_entry,
                            |r| r.1,
                            &mut st.v_year,
                        );
                        realign_i32(&st.v_cnat2, &st.probe.bufs.match_tuple, &mut st.v_cnat3);
                        realign_u32(&st.rows3, &st.probe.bufs.match_tuple, &mut st.rows4);
                        tw::gather::gather_i64(rev, &st.rows4, policy, &mut st.v_rev);
                        tw::gather::gather_i64(cost, &st.rows4, policy, &mut st.v_cost);
                        tw::map::map_sub_i64(&st.v_rev, &st.v_cost, &mut st.v_profit);
                        tw::hashp::iota(0, n, &mut st.ordinals);
                        tw::hashp::hash_i32_dense(&st.v_year, hf, &mut st.ghash);
                        tw::hashp::rehash_i32(&st.v_cnat3, &st.ordinals, hf, &mut st.ghash);
                        let (v_year, v_cnat3) = (&st.v_year, &st.v_cnat3);
                        tw::grouping::find_groups(
                            &shard.ht,
                            &st.ghash,
                            &st.ordinals,
                            |k, j| {
                                let j = j as usize;
                                k.0 == v_year[j] && k.1 == v_cnat3[j]
                            },
                            &mut st.gb,
                        );
                        // Hits first: a miss may flush the table, which renumbers
                        // the groups `find_groups` resolved.
                        tw::gather::gather_i64(&st.v_profit, &st.gb.group_sel, policy, &mut st.v_profit_sel);
                        tw::grouping::agg_update_i64(
                            &mut shard.ht,
                            &st.gb.groups,
                            &st.v_profit_sel,
                            |a, v| *a += v,
                        );
                        for &j in &st.gb.miss_sel {
                            let j = j as usize;
                            shard.update(
                                st.ghash[j],
                                (st.v_year[j], st.v_cnat3[j]),
                                || 0,
                                |a| *a += st.v_profit[j],
                            );
                        }
                    }
                },
            );
            shards.into_iter().map(|(shard, _)| shard.finish()).collect()
        }
        other => unreachable!("{} is not a per-stage candidate", other.name()),
    };
    merge_partitions(shards, &cfg.exec(), |a, b| *a += b)
}

/// Registry entry (see [`crate::QueryPlan`]).
pub struct Q41;

impl crate::QueryPlan for Q41 {
    fn id(&self) -> crate::QueryId {
        crate::QueryId::Ssb4_1
    }

    /// The interpreted joins; the fact scan drives.
    fn volcano_plan(&self, params: &Params) -> Plan {
        let p = params.ssb4_1();
        let supplier = Plan::scan("ssb_supplier", &["s_suppkey", "s_region"]).select(Expr::cmp(
            CmpOp::Eq,
            Expr::col(1),
            Expr::lit_i32(p.supp_region),
        ));
        let fact = Plan::scan(
            "lineorder",
            &[
                "lo_custkey",
                "lo_suppkey",
                "lo_partkey",
                "lo_orderdate",
                "lo_revenue",
                "lo_supplycost",
            ],
        );
        let customer = Plan::scan("ssb_customer", &["c_custkey", "c_nation", "c_region"]).select(Expr::cmp(
            CmpOp::Eq,
            Expr::col(2),
            Expr::lit_i32(p.cust_region),
        ));
        let part = Plan::scan("ssb_part", &["p_partkey", "p_mfgr"]).select(Expr::Or(vec![
            Expr::cmp(CmpOp::Eq, Expr::col(1), Expr::lit_i32(p.mfgrs[0])),
            Expr::cmp(CmpOp::Eq, Expr::col(1), Expr::lit_i32(p.mfgrs[1])),
        ]));
        // [s_suppkey, s_region] ++ [lo_custkey, lo_suppkey, lo_partkey, lo_orderdate, lo_revenue, lo_supplycost]
        let with_supp = supplier.hash_join(vec![Expr::col(0)], fact, vec![Expr::col(1)]);
        // [c_custkey, c_nation, c_region] ++ 8 cols (3..11)
        let with_cust = customer.hash_join(vec![Expr::col(0)], with_supp, vec![Expr::col(2)]);
        // [p_partkey, p_mfgr] ++ 11 cols (2..13)
        let with_part = part.hash_join(vec![Expr::col(0)], with_cust, vec![Expr::col(7)]);
        // [d_datekey, d_year] ++ 13 cols (2..15)
        Plan::scan("date", &["d_datekey", "d_year"])
            .hash_join(vec![Expr::col(0)], with_part, vec![Expr::col(10)])
            .aggregate(
                vec![Expr::col(1), Expr::col(5)], // d_year, c_nation
                vec![AggSpec::SumI64(Expr::arith(
                    BinOp::Sub,
                    Expr::col(13),
                    Expr::col(14),
                ))],
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
            build_dims(db, hf, params.ssb4_1())
        };
        let _s = cfg.stage(1);
        finish(probe_lineorder(db, cfg, probe, hf, &dims))
    }
}
