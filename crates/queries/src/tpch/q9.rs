//! TPC-H Q9: the join-heaviest query of the subset (build ≈320 K,
//! probe ≈1.5 M at SF 1 — §3.3), with a **composite-key** join
//! (partsupp on (partkey, suppkey)) that forces Tectorwise to compose
//! hash/rehash and per-column compare primitives (§2.2).
//!
//! ```sql
//! SELECT nation, o_year, sum(amount) AS sum_profit FROM (
//!   SELECT n_name AS nation, extract(year FROM o_orderdate) AS o_year,
//!          l_extendedprice*(1-l_discount) - ps_supplycost*l_quantity AS amount
//!   FROM part, supplier, lineitem, partsupp, orders, nation
//!   WHERE s_suppkey = l_suppkey AND ps_suppkey = l_suppkey
//!     AND ps_partkey = l_partkey AND p_partkey = l_partkey
//!     AND o_orderkey = l_orderkey AND n_nationkey = s_nationkey
//!     AND p_name LIKE '%green%') AS profit
//! GROUP BY nation, o_year ORDER BY nation, o_year DESC
//! ```
//!
//! Physical plan: σ(part) → HT_p; partsupp ⋈ HT_p → HT_ps (composite);
//! supplier → HT_s; lineitem ⋈ HT_ps ⋈ HT_s → HT_li (keyed by
//! orderkey, the paper's 320 K-entry build); orders ⋈ HT_li → Γ(nation,
//! year). Five stages, one function each with a body per paradigm
//! (the supplier build is one body); each table is hashed with its
//! build stage's function and probed with the same.

use crate::params::Q9Params;
use crate::result::{OrderBy, QueryResult, Value};
use crate::ssb::realign_u32;
use crate::{Engine, ExecCfg, Params};
use dbep_runtime::hash::HashFn;
use dbep_runtime::JoinHt;
use dbep_storage::types::year_of;
use dbep_storage::Database;
use dbep_vectorized as tw;
use dbep_volcano::{AggSpec, BinOp, Expr, Plan, Row};

type PsRow = (i32, i32, i64); // (ps_partkey, ps_suppkey, ps_supplycost)
type LiRow = (i32, i32, i64); // (l_orderkey, nationkey, amount s4)

fn finish(db: &Database, groups: Vec<((i32, i32), i64)>) -> QueryResult {
    let nation_names = db.table("nation").col("n_name").strs();
    let rows = groups
        .into_iter()
        .map(|((nat, year), amount)| {
            vec![
                Value::Str(nation_names.get(nat as usize).to_string()),
                Value::I32(year),
                Value::dec4(amount as i128),
            ]
        })
        .collect();
    QueryResult::new(
        &["nation", "o_year", "sum_profit"],
        rows,
        &[OrderBy::asc(0), OrderBy::desc(1)],
        None,
    )
}

/// Stage 0 (`build-part`): σ(part, name ~ needle) → HT_p, hashed with
/// `hf`.
fn build_part(db: &Database, cfg: &ExecCfg, p: &Q9Params, engine: Engine, hf: HashFn) -> JoinHt<i32> {
    let needle = p.needle.as_str();
    let part = db.table("part");
    let pkey = part.col("p_partkey").i32s();
    let pname = part.col("p_name").strs();
    cfg.build(
        engine,
        part.len(),
        part.flat_bits(&["p_partkey", "p_name"]),
        <(Vec<u32>, Vec<u64>)>::default,
        |(sh, _), r| {
            for i in r {
                if pname.get(i).contains(needle) {
                    sh.push(hf.hash(pkey[i] as u64), pkey[i]);
                }
            }
        },
        // The string filter is a scalar primitive.
        |(sh, (sel, hashes)), c| {
            sel.clear();
            for i in c {
                if pname.get(i).contains(needle) {
                    sel.push(i as u32);
                }
            }
            if sel.is_empty() {
                return;
            }
            tw::hashp::hash_i32(pkey, sel, hf, hashes);
            for (j, &t) in sel.iter().enumerate() {
                sh.push(hashes[j], pkey[t as usize]);
            }
        },
    )
}

/// Stage 1 (`probe-partsupp`): partsupp ⋈ HT_p → HT_ps keyed
/// (partkey, suppkey). Probes with `hf_p` (HT_p's build hash) and
/// builds the composite key with this stage's own `hf_ps`.
fn probe_partsupp(
    db: &Database,
    cfg: &ExecCfg,
    engine: Engine,
    hf_p: HashFn,
    hf_ps: HashFn,
    ht_p: &JoinHt<i32>,
) -> JoinHt<PsRow> {
    let ps = db.table("partsupp");
    let pspk = ps.col("ps_partkey").i32s();
    let pssk = ps.col("ps_suppkey").i32s();
    let cost = ps.col("ps_supplycost").i64s();
    let policy = cfg.policy;
    #[derive(Default)]
    struct Scratch {
        all: Vec<u32>,
        hashes: Vec<u64>,
        hc: Vec<u64>,
        bufs: tw::ProbeBuffers,
    }
    cfg.build(
        engine,
        ps.len(),
        ps.flat_bits(&["ps_partkey", "ps_suppkey", "ps_supplycost"]),
        Scratch::default,
        |(sh, _), r| {
            for i in r {
                if ht_p.probe(hf_p.hash(pspk[i] as u64)).any(|e| e.row == pspk[i]) {
                    let hc = hf_ps.rehash(hf_ps.hash(pspk[i] as u64), pssk[i] as u64);
                    sh.push(hc, (pspk[i], pssk[i], cost[i]));
                }
            }
        },
        |(sh, st), c| {
            tw::hashp::iota(c.start as u32, c.len(), &mut st.all);
            tw::hashp::hash_i32(pspk, &st.all, hf_p, &mut st.hashes);
            if tw::probe::probe_join(
                ht_p,
                &st.hashes,
                &st.all,
                |row, t| *row == pspk[t as usize],
                policy,
                &mut st.bufs,
            ) == 0
            {
                return;
            }
            tw::hashp::hash_i32(pspk, &st.bufs.match_tuple, hf_ps, &mut st.hc);
            tw::hashp::rehash_i32(pssk, &st.bufs.match_tuple, hf_ps, &mut st.hc);
            for (j, &t) in st.bufs.match_tuple.iter().enumerate() {
                let t = t as usize;
                sh.push(st.hc[j], (pspk[t], pssk[t], cost[t]));
            }
        },
    )
}

/// Stage 2 (`build-supplier`): supplier → HT_s (suppkey → nationkey).
/// One body for both paradigms — an unfiltered 10 K-row-per-SF copy has
/// nothing to select or batch; the build engine only picks `hf`.
fn build_supplier(db: &Database, cfg: &ExecCfg, hf: HashFn) -> JoinHt<(i32, i32)> {
    let supp = db.table("supplier");
    let skey = supp.col("s_suppkey").i32s();
    let snat = supp.col("s_nationkey").i32s();
    cfg.build_ht(
        supp.len(),
        supp.flat_bits(&["s_suppkey", "s_nationkey"]),
        || (),
        |(sh, ()), r| {
            for i in r {
                sh.push(hf.hash(skey[i] as u64), (skey[i], snat[i]));
            }
        },
    )
}

/// Stage 3 (`probe-lineitem`): lineitem ⋈ HT_ps ⋈ HT_s → HT_li keyed
/// by orderkey. Probes with `hf_ps` and `hf_s` (the two tables' build
/// hashes) and builds with this stage's own `hf_li`.
#[allow(clippy::too_many_arguments)] // one call site; three hashes and two tables are the stage's input
fn probe_lineitem(
    db: &Database,
    cfg: &ExecCfg,
    engine: Engine,
    hf_ps: HashFn,
    hf_s: HashFn,
    hf_li: HashFn,
    ht_ps: &JoinHt<PsRow>,
    ht_s: &JoinHt<(i32, i32)>,
) -> JoinHt<LiRow> {
    let li = db.table("lineitem");
    let lok = li.col("l_orderkey").i32s();
    let lpk = li.col("l_partkey").i32s();
    let lsk = li.col("l_suppkey").i32s();
    let qty = li.col("l_quantity").i64s();
    let ext = li.col("l_extendedprice").i64s();
    let disc = li.col("l_discount").i64s();
    let policy = cfg.policy;
    #[derive(Default)]
    struct Scratch {
        all: Vec<u32>,
        hc: Vec<u64>,
        hs: Vec<u64>,
        hok: Vec<u64>,
        ordinals: Vec<u32>,
        bufs: tw::ProbeBuffers,
        bufs2: tw::ProbeBuffers,
        rows2: Vec<u32>,
        v_cost: Vec<i64>,
        v_cost2: Vec<i64>,
        v_ext: Vec<i64>,
        v_disc: Vec<i64>,
        v_qty: Vec<i64>,
        v_om: Vec<i64>,
        v_rev: Vec<i64>,
        v_costq: Vec<i64>,
        v_amount: Vec<i64>,
        v_nat: Vec<i32>,
    }
    cfg.build(
        engine,
        li.len(),
        li.flat_bits(&[
            "l_orderkey",
            "l_partkey",
            "l_suppkey",
            "l_quantity",
            "l_extendedprice",
            "l_discount",
        ]),
        Scratch::default,
        |(sh, _), r| {
            for i in r {
                // Composite-key probe: the generated code checks both key
                // parts in one expression (Fig. 2a).
                let hc = hf_ps.rehash(hf_ps.hash(lpk[i] as u64), lsk[i] as u64);
                for e in ht_ps.probe(hc) {
                    if e.row.0 == lpk[i] && e.row.1 == lsk[i] {
                        let hs = hf_s.hash(lsk[i] as u64);
                        for s in ht_s.probe(hs) {
                            if s.row.0 == lsk[i] {
                                // Both terms are scale-4 fixed point.
                                let amount = ext[i] * (100 - disc[i]) - e.row.2 * qty[i];
                                sh.push(hf_li.hash(lok[i] as u64), (lok[i], s.row.1, amount));
                            }
                        }
                    }
                }
            }
        },
        |(sh, st), c| {
            tw::hashp::iota(c.start as u32, c.len(), &mut st.all);
            // Composite key: hash partkey, fold suppkey in, compare both
            // parts with one primitive each (§2.2).
            tw::hashp::hash_i32(lpk, &st.all, hf_ps, &mut st.hc);
            tw::hashp::rehash_i32(lsk, &st.all, hf_ps, &mut st.hc);
            let nm = tw::probe::probe_join(
                ht_ps,
                &st.hc,
                &st.all,
                |row, t| row.0 == lpk[t as usize] && row.1 == lsk[t as usize],
                policy,
                &mut st.bufs,
            );
            if nm == 0 {
                return;
            }
            tw::gather::gather_build(ht_ps, &st.bufs.match_entry, |r| r.2, &mut st.v_cost);
            // Second probe: suppkey → nationkey. Tuple ids are ordinals
            // into the first probe's match list.
            tw::hashp::hash_i32(lsk, &st.bufs.match_tuple, hf_s, &mut st.hs);
            tw::hashp::iota(0, nm, &mut st.ordinals);
            let first_matches = &st.bufs.match_tuple;
            let n2 = tw::probe::probe_join(
                ht_s,
                &st.hs,
                &st.ordinals,
                |row, j| row.0 == lsk[first_matches[j as usize] as usize],
                policy,
                &mut st.bufs2,
            );
            if n2 == 0 {
                return;
            }
            // Align everything to the second probe's matches.
            realign_u32(&st.bufs.match_tuple, &st.bufs2.match_tuple, &mut st.rows2);
            tw::gather::gather_build(ht_s, &st.bufs2.match_entry, |r| r.1, &mut st.v_nat);
            tw::gather::gather_i64(&st.v_cost, &st.bufs2.match_tuple, policy, &mut st.v_cost2);
            tw::gather::gather_i64(ext, &st.rows2, policy, &mut st.v_ext);
            tw::gather::gather_i64(disc, &st.rows2, policy, &mut st.v_disc);
            tw::gather::gather_i64(qty, &st.rows2, policy, &mut st.v_qty);
            tw::map::map_rsub_const_i64(100, &st.v_disc, &mut st.v_om);
            tw::map::map_mul_i64(&st.v_ext, &st.v_om, &mut st.v_rev);
            tw::map::map_mul_i64(&st.v_cost2, &st.v_qty, &mut st.v_costq);
            // Both products are scale-4 fixed point.
            tw::map::map_sub_i64(&st.v_rev, &st.v_costq, &mut st.v_amount);
            tw::hashp::hash_i32(lok, &st.rows2, hf_li, &mut st.hok);
            for (j, &t) in st.rows2.iter().enumerate() {
                sh.push(st.hok[j], (lok[t as usize], st.v_nat[j], st.v_amount[j]));
            }
        },
    )
}

/// Stage 4 (`probe-orders`): orders ⋈ HT_li → Γ(nation, year). `hf` is
/// HT_li's build hash; the stage's private aggregate tables reuse it.
fn probe_orders(
    db: &Database,
    cfg: &ExecCfg,
    engine: Engine,
    hf: HashFn,
    ht_li: &JoinHt<LiRow>,
) -> Vec<((i32, i32), i64)> {
    let ord = db.table("orders");
    let okey = ord.col("o_orderkey").i32s();
    let odate = ord.col("o_orderdate").dates();
    let policy = cfg.policy;
    #[derive(Default)]
    struct Scratch {
        all: Vec<u32>,
        hashes: Vec<u64>,
        ghash: Vec<u64>,
        ordinals: Vec<u32>,
        bufs: tw::ProbeBuffers,
        gb: tw::grouping::GroupBuffers,
        k_nat: Vec<i32>,
        v_amt: Vec<i64>,
        v_date: Vec<i32>,
        k_year: Vec<i32>,
    }
    cfg.group_by(
        engine,
        ord.len(),
        ord.flat_bits(&["o_orderkey", "o_orderdate"]),
        Scratch::default,
        |(shard, _), r| {
            for i in r {
                let h = hf.hash(okey[i] as u64);
                for e in ht_li.probe(h) {
                    if e.row.0 == okey[i] {
                        let key = (e.row.1, year_of(odate[i]));
                        let gh = hf.rehash(hf.hash(key.0 as u64), key.1 as u64);
                        shard.update(gh, key, || 0, |a| *a += e.row.2);
                    }
                }
            }
        },
        |(shard, st), c| {
            tw::hashp::iota(c.start as u32, c.len(), &mut st.all);
            tw::hashp::hash_i32(okey, &st.all, hf, &mut st.hashes);
            let nm = tw::probe::probe_join(
                ht_li,
                &st.hashes,
                &st.all,
                |row, t| row.0 == okey[t as usize],
                policy,
                &mut st.bufs,
            );
            if nm == 0 {
                return;
            }
            tw::gather::gather_build(ht_li, &st.bufs.match_entry, |r| r.1, &mut st.k_nat);
            tw::gather::gather_build(ht_li, &st.bufs.match_entry, |r| r.2, &mut st.v_amt);
            tw::gather::gather_i32(odate, &st.bufs.match_tuple, &mut st.v_date);
            tw::map::map_year(&st.v_date, &mut st.k_year);
            tw::hashp::iota(0, nm, &mut st.ordinals);
            tw::hashp::hash_i32_dense(&st.k_nat, hf, &mut st.ghash);
            tw::hashp::rehash_i32(&st.k_year, &st.ordinals, hf, &mut st.ghash);
            let (k_nat, k_year) = (&st.k_nat, &st.k_year);
            tw::grouping::find_or_insert_groups(
                shard,
                &st.ghash,
                &st.ordinals,
                |j| {
                    let j = j as usize;
                    (k_nat[j], k_year[j])
                },
                || 0,
                &mut st.gb,
            );
            tw::grouping::agg_update_i64(&mut shard.ht, &st.gb.groups, &st.v_amt, |a, v| *a += v);
        },
        |a, b| *a += b,
    )
}

/// Registry entry (see [`crate::QueryPlan`]).
pub struct Q9;

impl crate::QueryPlan for Q9 {
    fn id(&self) -> crate::QueryId {
        crate::QueryId::Q9
    }

    /// The same plan, interpreted; the orders scan drives. The heavy
    /// build chain runs once before it, as pipelines of its own — the
    /// supplier, part and partsupp builds, then the lineitem scan that
    /// probes them — into one table all workers probe.
    fn volcano_plan(&self, params: &Params) -> Plan {
        let p = params.q9();
        let part = Plan::scan("part", &["p_partkey", "p_name"])
            .select(Expr::Contains(Box::new(Expr::col(1)), p.needle.clone()));
        let partsupp = Plan::scan("partsupp", &["ps_partkey", "ps_suppkey", "ps_supplycost"]);
        let lineitem = Plan::scan(
            "lineitem",
            &[
                "l_orderkey",
                "l_partkey",
                "l_suppkey",
                "l_quantity",
                "l_extendedprice",
                "l_discount",
            ],
        );
        let supplier = Plan::scan("supplier", &["s_suppkey", "s_nationkey"]);
        let orders =
            Plan::scan("orders", &["o_orderkey", "o_orderdate"]).project(vec![Expr::col(0), Expr::col(1)]);
        // amount = ext*(100-disc) - cost*qty/100
        let amount = Expr::arith(
            BinOp::Sub,
            Expr::arith(
                BinOp::Mul,
                Expr::col(9),
                Expr::arith(BinOp::Sub, Expr::lit_i64(100), Expr::col(10)),
            ),
            Expr::arith(BinOp::Mul, Expr::col(4), Expr::col(8)),
        );
        // [p_partkey, p_name, ps_partkey, ps_suppkey, ps_supplycost],
        // pruned to [ps_partkey, ps_suppkey, ps_supplycost].
        let ps = part
            .hash_join(vec![Expr::col(0)], partsupp, vec![Expr::col(0)])
            .project(vec![Expr::col(2), Expr::col(3), Expr::col(4)]);
        // ⋈ lineitem on (partkey, suppkey):
        // [ps_pk, ps_sk, cost, l_orderkey, l_partkey, l_suppkey, qty, ext, disc]
        let li = ps.hash_join(
            vec![Expr::col(0), Expr::col(1)],
            lineitem,
            vec![Expr::col(1), Expr::col(2)],
        );
        // supplier ⋈: [s_suppkey, s_nationkey] ++ the 9 columns above,
        // pruned to [nationkey, l_orderkey, amount].
        supplier
            .hash_join(vec![Expr::col(0)], li, vec![Expr::col(5)])
            .project(vec![Expr::col(1), Expr::col(5), amount])
            // ⋈ orders: [nationkey, l_orderkey, amount, o_orderkey, o_orderdate]
            .hash_join(vec![Expr::col(1)], orders, vec![Expr::col(0)])
            .aggregate(
                vec![Expr::col(0), Expr::col(4)],
                vec![AggSpec::SumI64(Expr::col(2))],
            )
    }

    /// The plan groups per day; re-aggregate per year.
    fn volcano_result(&self, db: &Database, rows: Vec<Row>) -> QueryResult {
        let mut by_year: std::collections::HashMap<(i32, i32), i64> = std::collections::HashMap::new();
        for r in rows {
            *by_year
                .entry((r[0].as_i32(), year_of(r[1].as_i32())))
                .or_insert(0) += r[2].as_i64();
        }
        finish(db, by_year.into_iter().collect())
    }

    fn stages(&self) -> &'static [crate::StageDesc] {
        use crate::{StageDesc, StageKind};
        const S: &[crate::StageDesc] = &[
            StageDesc::new("build-part", StageKind::JoinBuild),
            StageDesc::new("probe-partsupp", StageKind::JoinProbe),
            StageDesc::new("build-supplier", StageKind::JoinBuild),
            StageDesc::new("probe-lineitem", StageKind::JoinProbe),
            StageDesc::new("probe-orders", StageKind::JoinProbe),
        ];
        S
    }

    fn run_stages(&self, db: &Database, cfg: &ExecCfg, params: &Params, choices: &[Engine]) -> QueryResult {
        let [part, partsupp, supplier, lineitem, orders] = crate::assignment(choices);
        let [hf_p, hf_ps, hf_s, hf_li] = [part, partsupp, supplier, lineitem].map(|e| cfg.hash_for(e));
        let ht_p = {
            let _s = cfg.stage(0);
            build_part(db, cfg, params.q9(), part, hf_p)
        };
        let ht_ps = {
            let _s = cfg.stage(1);
            probe_partsupp(db, cfg, partsupp, hf_p, hf_ps, &ht_p)
        };
        let ht_s = {
            let _s = cfg.stage(2);
            build_supplier(db, cfg, hf_s)
        };
        let ht_li = {
            let _s = cfg.stage(3);
            probe_lineitem(db, cfg, lineitem, hf_ps, hf_s, hf_li, &ht_ps, &ht_s)
        };
        let _s = cfg.stage(4);
        finish(db, probe_orders(db, cfg, orders, hf_li, &ht_li))
    }
}
