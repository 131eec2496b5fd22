//! TPC-H Q3: two hash joins feeding a grouped aggregation
//! (build ≈147 K, probe ≈3.2 M tuples at SF 1 — §3.3).
//!
//! ```sql
//! SELECT l_orderkey, sum(l_extendedprice*(1-l_discount)) AS revenue,
//!        o_orderdate, o_shippriority
//! FROM customer, orders, lineitem
//! WHERE c_mktsegment = 'BUILDING' AND c_custkey = o_custkey
//!   AND l_orderkey = o_orderkey AND o_orderdate < DATE '1995-03-15'
//!   AND l_shipdate > DATE '1995-03-15'
//! GROUP BY l_orderkey, o_orderdate, o_shippriority
//! ORDER BY revenue DESC, o_orderdate LIMIT 10
//! ```
//!
//! Physical plan (identical in all engines): filter customer → HT₁;
//! filter orders, probe HT₁ → HT₂; filter lineitem, probe HT₂, group by
//! order. Three stages (`build_customer`, `probe_orders`,
//! `probe_lineitem`), each one function with a Typer arm and a
//! Tectorwise arm.

use crate::params::Q3Params;
use crate::result::{OrderBy, QueryResult, Value};
use crate::{Engine, ExecCfg, Params};
use dbep_runtime::agg_ht::merge_partitions;
use dbep_runtime::hash::HashFn;
use dbep_runtime::{GroupByShard, JoinHt};
use dbep_storage::Database;
use dbep_vectorized as tw;
use dbep_volcano::{AggSpec, BinOp, CmpOp, Expr, Plan, Row, Val};

const CUST_BITS: usize = 8 * (4 + 10); // custkey + segment text
const ORD_BITS: usize = 8 * (4 + 4 + 4 + 4);
const LI_BITS: usize = 8 * (4 + 8 + 8 + 4);

type GroupKey = (i32, i32, i32); // (o_orderkey, o_orderdate, o_shippriority)

fn finish(groups: Vec<(GroupKey, i64)>) -> QueryResult {
    let rows = groups
        .into_iter()
        .map(|((okey, odate, prio), rev)| {
            vec![
                Value::I32(okey),
                Value::dec4(rev as i128),
                Value::Date(odate),
                Value::I32(prio),
            ]
        })
        .collect();
    QueryResult::new(
        &["l_orderkey", "revenue", "o_orderdate", "o_shippriority"],
        rows,
        &[OrderBy::desc(1), OrderBy::asc(2)],
        Some(10),
    )
}

/// Stage 0 (`build-customer`): σ(customer) → HT_c under either
/// paradigm. The hash function travels with the table: whichever
/// engine runs the downstream probe must hash `o_custkey` with the
/// build engine's `hf`.
fn build_customer(db: &Database, cfg: &ExecCfg, engine: Engine, hf: HashFn, p: &Q3Params) -> JoinHt<i32> {
    let segment = p.segment.as_bytes();
    let cust = db.table("customer");
    let seg = cust.col("c_mktsegment").strs();
    let ckey = cust.col("c_custkey").i32s();
    match engine {
        Engine::Typer => cfg.build_ht(
            cust.len(),
            CUST_BITS,
            || (),
            |sh, _, r| {
                for i in r {
                    if seg.get_bytes(i) == segment {
                        sh.push(hf.hash(ckey[i] as u64), ckey[i]);
                    }
                }
            },
        ),
        Engine::Tectorwise => cfg.build_ht(
            cust.len(),
            CUST_BITS,
            || (Vec::new(), Vec::new()),
            |sh, (sel, hashes), r| {
                for c in tw::chunks(r, cfg.vector_size) {
                    if tw::sel::sel_eq_str_dense(seg, segment, c, sel) == 0 {
                        continue;
                    }
                    tw::hashp::hash_i32(ckey, sel, hf, hashes);
                    for (j, &t) in sel.iter().enumerate() {
                        sh.push(hashes[j], ckey[t as usize]);
                    }
                }
            },
        ),
        other => unreachable!("{} is not a per-stage candidate", other.name()),
    }
}

/// Stage 1 (`probe-orders`): σ(orders) ⋈ HT_c → HT_o. Probes with
/// `hf_c` (HT_c's build hash) and builds HT_o with this stage's own
/// `hf_o`.
fn probe_orders(
    db: &Database,
    cfg: &ExecCfg,
    p: &Q3Params,
    engine: Engine,
    hf_c: HashFn,
    hf_o: HashFn,
    ht_c: &JoinHt<i32>,
) -> JoinHt<GroupKey> {
    let cut = p.cut;
    let ord = db.table("orders");
    let okey = ord.col("o_orderkey").i32s();
    let ocust = ord.col("o_custkey").i32s();
    let odate = ord.col("o_orderdate").dates();
    let oprio = ord.col("o_shippriority").i32s();
    match engine {
        Engine::Typer => cfg.build_ht(
            ord.len(),
            ORD_BITS,
            || (),
            |sh, _, r| {
                for i in r {
                    if odate[i] < cut {
                        let h = hf_c.hash(ocust[i] as u64);
                        if ht_c.probe(h).any(|e| e.row == ocust[i]) {
                            sh.push(hf_o.hash(okey[i] as u64), (okey[i], odate[i], oprio[i]));
                        }
                    }
                }
            },
        ),
        Engine::Tectorwise => {
            let policy = cfg.policy;
            #[derive(Default)]
            struct P2Scratch {
                sel: Vec<u32>,
                hashes: Vec<u64>,
                h2: Vec<u64>,
                bufs: tw::ProbeBuffers,
            }
            cfg.build_ht(ord.len(), ORD_BITS, P2Scratch::default, |sh, st, r| {
                for c in tw::chunks(r, cfg.vector_size) {
                    if tw::sel::sel_lt_i32_dense(&odate[c.clone()], cut, c.start as u32, &mut st.sel, policy)
                        == 0
                    {
                        continue;
                    }
                    tw::hashp::hash_i32(ocust, &st.sel, hf_c, &mut st.hashes);
                    if tw::probe::probe_join(
                        ht_c,
                        &st.hashes,
                        &st.sel,
                        |row, t| *row == ocust[t as usize],
                        policy,
                        &mut st.bufs,
                    ) == 0
                    {
                        continue;
                    }
                    tw::hashp::hash_i32(okey, &st.bufs.match_tuple, hf_o, &mut st.h2);
                    for (j, &t) in st.bufs.match_tuple.iter().enumerate() {
                        let t = t as usize;
                        sh.push(st.h2[j], (okey[t], odate[t], oprio[t]));
                    }
                }
            })
        }
        other => unreachable!("{} is not a per-stage candidate", other.name()),
    }
}

/// Stage 2 (`probe-lineitem-agg`): σ(lineitem) ⋈ HT_o → Γ. Probes with
/// `hf_o` (HT_o's build hash), which doubles as the group hash: the
/// grouping key's first component equals the probe key, so both
/// paradigms reuse the probe hash for the aggregate table.
fn probe_lineitem(
    db: &Database,
    cfg: &ExecCfg,
    p: &Q3Params,
    engine: Engine,
    hf_o: HashFn,
    ht_o: &JoinHt<GroupKey>,
) -> Vec<(GroupKey, i64)> {
    let cut = p.cut;
    let hf = hf_o;
    let li = db.table("lineitem");
    let lokey = li.col("l_orderkey").i32s();
    let ext = li.col("l_extendedprice").i64s();
    let disc = li.col("l_discount").i64s();
    let ship = li.col("l_shipdate").dates();
    let shards: Vec<_> = match engine {
        Engine::Typer => {
            let shards = cfg.map_scan(
                li.len(),
                LI_BITS,
                |_| GroupByShard::<GroupKey, i64>::new(),
                |shard, r| {
                    for i in r {
                        if ship[i] > cut {
                            let h = hf.hash(lokey[i] as u64);
                            for e in ht_o.probe(h) {
                                if e.row.0 == lokey[i] {
                                    let rev = ext[i] * (100 - disc[i]);
                                    shard.update(h, e.row, || 0, |a| *a += rev);
                                }
                            }
                        }
                    }
                },
            );
            shards.into_iter().map(GroupByShard::finish).collect()
        }
        Engine::Tectorwise => {
            let policy = cfg.policy;
            #[derive(Default)]
            struct P3Scratch {
                sel: Vec<u32>,
                hashes: Vec<u64>,
                bufs: tw::ProbeBuffers,
                gb: tw::grouping::GroupBuffers,
                k_okey: Vec<i32>,
                k_odate: Vec<i32>,
                k_prio: Vec<i32>,
                v_ext: Vec<i64>,
                v_disc: Vec<i64>,
                v_om: Vec<i64>,
                v_rev: Vec<i64>,
                v_rev_sel: Vec<i64>,
                ghash: Vec<u64>,
                ordinals: Vec<u32>,
            }
            let shards = cfg.map_scan(
                li.len(),
                LI_BITS,
                |_| (GroupByShard::<GroupKey, i64>::new(), P3Scratch::default()),
                |(shard, st), r| {
                    for c in tw::chunks(r, cfg.vector_size) {
                        if tw::sel::sel_gt_i32_dense(
                            &ship[c.clone()],
                            cut,
                            c.start as u32,
                            &mut st.sel,
                            policy,
                        ) == 0
                        {
                            continue;
                        }
                        tw::hashp::hash_i32(lokey, &st.sel, hf, &mut st.hashes);
                        let nm = tw::probe::probe_join(
                            ht_o,
                            &st.hashes,
                            &st.sel,
                            |row, t| row.0 == lokey[t as usize],
                            policy,
                            &mut st.bufs,
                        );
                        if nm == 0 {
                            continue;
                        }
                        // buildGather: key columns out of the matched entries.
                        tw::gather::gather_build(ht_o, &st.bufs.match_entry, |r| r.0, &mut st.k_okey);
                        tw::gather::gather_build(ht_o, &st.bufs.match_entry, |r| r.1, &mut st.k_odate);
                        tw::gather::gather_build(ht_o, &st.bufs.match_entry, |r| r.2, &mut st.k_prio);
                        // Probe-side values.
                        tw::gather::gather_i64(ext, &st.bufs.match_tuple, policy, &mut st.v_ext);
                        tw::gather::gather_i64(disc, &st.bufs.match_tuple, policy, &mut st.v_disc);
                        tw::map::map_rsub_const_i64(100, &st.v_disc, &mut st.v_om);
                        tw::map::map_mul_i64(&st.v_ext, &st.v_om, &mut st.v_rev);
                        // Group lookup over match ordinals.
                        tw::hashp::hash_i32_dense(&st.k_okey, hf, &mut st.ghash);
                        tw::hashp::iota(0, nm, &mut st.ordinals);
                        let (k_okey, k_odate, k_prio) = (&st.k_okey, &st.k_odate, &st.k_prio);
                        tw::grouping::find_groups(
                            &shard.ht,
                            &st.ghash,
                            &st.ordinals,
                            |k, j| {
                                let j = j as usize;
                                k.0 == k_okey[j] && k.1 == k_odate[j] && k.2 == k_prio[j]
                            },
                            &mut st.gb,
                        );
                        // Hits first: a miss may flush the table, which renumbers
                        // the groups `find_groups` resolved.
                        tw::gather::gather_i64(&st.v_rev, &st.gb.group_sel, policy, &mut st.v_rev_sel);
                        tw::grouping::agg_update_i64(&mut shard.ht, &st.gb.groups, &st.v_rev_sel, |a, v| {
                            *a += v
                        });
                        for &j in &st.gb.miss_sel {
                            let j = j as usize;
                            shard.update(
                                st.ghash[j],
                                (st.k_okey[j], st.k_odate[j], st.k_prio[j]),
                                || 0,
                                |a| *a += st.v_rev[j],
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
pub struct Q3;

impl crate::QueryPlan for Q3 {
    fn id(&self) -> crate::QueryId {
        crate::QueryId::Q3
    }

    /// The same plan, interpreted; the lineitem scan drives.
    fn volcano_plan(&self, params: &Params) -> Plan {
        let p = params.q3();
        let customer = Plan::scan("customer", &["c_custkey", "c_mktsegment"]).select(Expr::cmp(
            CmpOp::Eq,
            Expr::col(1),
            Expr::Const(Val::Str(p.segment.clone())),
        ));
        let orders = Plan::scan(
            "orders",
            &["o_orderkey", "o_custkey", "o_orderdate", "o_shippriority"],
        )
        .select(Expr::cmp(CmpOp::Lt, Expr::col(2), Expr::lit_i32(p.cut)));
        let lineitem = Plan::scan(
            "lineitem",
            &["l_orderkey", "l_extendedprice", "l_discount", "l_shipdate"],
        )
        .select(Expr::cmp(CmpOp::Gt, Expr::col(3), Expr::lit_i32(p.cut)));
        // [c_custkey, c_mktsegment, o_orderkey, o_custkey, o_orderdate, o_prio]
        customer
            .hash_join(vec![Expr::col(0)], orders, vec![Expr::col(1)])
            // ++ [l_orderkey, ext, disc, ship]
            .hash_join(vec![Expr::col(2)], lineitem, vec![Expr::col(0)])
            .aggregate(
                vec![Expr::col(2), Expr::col(4), Expr::col(5)],
                vec![AggSpec::SumI64(Expr::arith(
                    BinOp::Mul,
                    Expr::col(7),
                    Expr::arith(BinOp::Sub, Expr::lit_i64(100), Expr::col(8)),
                ))],
            )
    }

    fn volcano_result(&self, _db: &Database, rows: Vec<Row>) -> QueryResult {
        let key = |r: &Row| (r[0].as_i32(), r[1].as_i32(), r[2].as_i32());
        finish(rows.iter().map(|r| (key(r), r[3].as_i64())).collect())
    }

    fn stages(&self) -> &'static [crate::StageDesc] {
        use crate::{StageDesc, StageKind};
        const S: &[crate::StageDesc] = &[
            StageDesc::new("build-customer", StageKind::JoinBuild),
            StageDesc::new("probe-orders", StageKind::JoinProbe),
            StageDesc::new("probe-lineitem-agg", StageKind::JoinProbe),
        ];
        S
    }

    fn run_stages(&self, db: &Database, cfg: &ExecCfg, params: &Params, choices: &[Engine]) -> QueryResult {
        let p = params.q3();
        let [customer, orders, lineitem] = crate::assignment(choices);
        let (hf_c, hf_o) = (cfg.hash_for(customer), cfg.hash_for(orders));
        let ht_c = {
            let _s = cfg.stage(0);
            build_customer(db, cfg, customer, hf_c, p)
        };
        let ht_o = {
            let _s = cfg.stage(1);
            probe_orders(db, cfg, p, orders, hf_c, hf_o, &ht_c)
        };
        let _s = cfg.stage(2);
        finish(probe_lineitem(db, cfg, p, lineitem, hf_o, &ht_o))
    }
}
