//! TPC-H Q18: high-cardinality aggregation — 1.5 M groups per scale
//! factor (§3.3), the workload where the two-phase partitioned group-by
//! earns its keep.
//!
//! ```sql
//! SELECT c_name, c_custkey, o_orderkey, o_orderdate, o_totalprice,
//!        sum(l_quantity)
//! FROM customer, orders, lineitem
//! WHERE o_orderkey IN (SELECT l_orderkey FROM lineitem
//!                      GROUP BY l_orderkey HAVING sum(l_quantity) > 300)
//!   AND c_custkey = o_custkey AND o_orderkey = l_orderkey
//! GROUP BY c_name, c_custkey, o_orderkey, o_orderdate, o_totalprice
//! ORDER BY o_totalprice DESC, o_orderdate LIMIT 100
//! ```
//!
//! Physical plan: Γ(lineitem by l_orderkey) → HAVING filter → HT_sel;
//! orders ⋈ HT_sel → HT_cust (keyed by o_custkey); customer ⋈ HT_cust →
//! result. Because `o_orderkey` is unique, the outer GROUP BY needs no
//! second aggregation. Three stages: `agg_lineitem` has a Typer arm and
//! a Tectorwise arm, the two join stages (`join_phases`) are one body
//! for both paradigms.

use crate::params::Q18Params;
use crate::result::{OrderBy, QueryResult, Value};
use crate::{Engine, ExecCfg, Params};
use dbep_runtime::agg_ht::merge_partitions;
use dbep_runtime::hash::HashFn;
use dbep_runtime::{GroupByShard, JoinHt};
use dbep_storage::Database;
use dbep_vectorized as tw;

const LI_BITS: usize = 8 * (4 + 8);
const ORD_BITS: usize = 8 * (4 + 4 + 4 + 8);
const CUST_BITS: usize = 8 * (4 + 18);
/// Pre-aggregation shard capacity. Q18's group count is huge, so shards
/// spill heavily — exactly the §3.2 design point.
const PREAGG_GROUPS: usize = 1 << 16;

/// (custkey, orderkey, orderdate, totalprice, sum_qty)
type OrdRow = (i32, i32, i32, i64, i64);

fn finish(db: &Database, rows_raw: Vec<(i32, OrdRow)>) -> QueryResult {
    let names = db.table("customer").col("c_name").strs();
    let custkeys = db.table("customer").col("c_custkey").i32s();
    let rows = rows_raw
        .into_iter()
        .map(|(cust_row, (ck, ok, od, tp, qty))| {
            debug_assert_eq!(custkeys[cust_row as usize], ck);
            vec![
                Value::Str(names.get(cust_row as usize).to_string()),
                Value::I32(ck),
                Value::I32(ok),
                Value::Date(od),
                Value::dec2(tp),
                Value::dec2(qty),
            ]
        })
        .collect();
    QueryResult::new(
        &[
            "c_name",
            "c_custkey",
            "o_orderkey",
            "o_orderdate",
            "o_totalprice",
            "sum_qty",
        ],
        rows,
        &[OrderBy::desc(4), OrderBy::asc(3)],
        Some(100),
    )
}

/// Registry entry (see [`crate::QueryPlan`]).
pub struct Q18;

impl crate::QueryPlan for Q18 {
    fn id(&self) -> crate::QueryId {
        crate::QueryId::Q18
    }

    fn tuples_scanned(&self, db: &Database) -> usize {
        db.table("lineitem").len() * 2 + db.table("orders").len() + db.table("customer").len()
    }

    fn stages(&self) -> &'static [crate::StageDesc] {
        use crate::{StageDesc, StageKind};
        // The join pipelines after the HAVING filter are one body for
        // both paradigms (`join_phases`); only the 1.5 M-group
        // aggregation has an arm each.
        const S: &[crate::StageDesc] = &[
            StageDesc::new("agg-lineitem", StageKind::Aggregate),
            StageDesc::new("probe-orders", StageKind::JoinProbe),
            StageDesc::new("probe-customer", StageKind::JoinProbe),
        ];
        S
    }

    fn run_stages(&self, db: &Database, cfg: &ExecCfg, params: &Params, choices: &[Engine]) -> QueryResult {
        // The customer probe has one body and builds nothing, so its
        // choice selects no code: HT_cust carries the orders stage's hash.
        let [agg, orders, _customer] = crate::assignment(choices);
        let big = {
            let _s = cfg.stage(0);
            agg_lineitem(db, cfg, params.q18(), agg)
        };
        join_phases(db, cfg, big, cfg.hash_for(orders))
    }

    fn volcano(&self, db: &Database, cfg: &ExecCfg, params: &Params) -> QueryResult {
        volcano(db, cfg, params.q18())
    }
}

/// Stages 1 and 2 (`probe-orders`, `probe-customer`): one body for
/// both paradigms once the big aggregation delivered the qualifying
/// orders. Both tables are built in stage 1, with `hf`.
fn join_phases(db: &Database, cfg: &ExecCfg, big_orders: Vec<(i32, i64)>, hf: HashFn) -> QueryResult {
    let _s1 = cfg.stage(1);
    // HT_sel: qualifying orderkeys (tiny).
    let ht_sel = JoinHt::build(big_orders.into_iter().map(|(k, q)| (hf.hash(k as u64), (k, q))));
    // Pipeline: orders ⋈ HT_sel → HT_cust (keyed by custkey).
    let ord = db.table("orders");
    let okey = ord.col("o_orderkey").i32s();
    let ocust = ord.col("o_custkey").i32s();
    let odate = ord.col("o_orderdate").dates();
    let ototal = ord.col("o_totalprice").i64s();
    let ht_cust: JoinHt<OrdRow> = cfg.build_ht(
        ord.len(),
        ORD_BITS,
        || (),
        |sh, _, r| {
            for i in r {
                let h = hf.hash(okey[i] as u64);
                for e in ht_sel.probe(h) {
                    if e.row.0 == okey[i] {
                        sh.push(
                            hf.hash(ocust[i] as u64),
                            (ocust[i], okey[i], odate[i], ototal[i], e.row.1),
                        );
                    }
                }
            }
        },
    );
    drop(_s1);
    // Pipeline: customer ⋈ HT_cust → result rows.
    let _s2 = cfg.stage(2);
    let cust = db.table("customer");
    let ckey = cust.col("c_custkey").i32s();
    let locals = cfg.map_scan(
        cust.len(),
        CUST_BITS,
        |_| Vec::new(),
        |local, r| {
            for i in r {
                let h = hf.hash(ckey[i] as u64);
                for e in ht_cust.probe(h) {
                    if e.row.0 == ckey[i] {
                        local.push((i as i32, e.row));
                    }
                }
            }
        },
    );
    finish(db, locals.into_iter().flatten().collect())
}

/// Stage 0 (`agg-lineitem`): Γ(lineitem by l_orderkey) → HAVING; the
/// qualifying `(orderkey, sum_qty)` pairs.
fn agg_lineitem(db: &Database, cfg: &ExecCfg, p: &Q18Params, engine: Engine) -> Vec<(i32, i64)> {
    let qty_limit = p.qty_limit;
    let hf = cfg.hash_for(engine);
    let li = db.table("lineitem");
    let lok = li.col("l_orderkey").i32s();
    let qty = li.col("l_quantity").i64s();
    let shards = match engine {
        // Fused 1.5 M-group aggregation.
        Engine::Typer => {
            let shards = cfg.map_scan(
                li.len(),
                LI_BITS,
                |_| GroupByShard::<i32, i64>::new(PREAGG_GROUPS),
                |shard, r| {
                    for i in r {
                        shard.update(hf.hash(lok[i] as u64), lok[i], || 0, |a| *a += qty[i]);
                    }
                },
            );
            shards.into_iter().map(GroupByShard::finish).collect()
        }
        // Vectorized find-groups/aggregate primitives.
        Engine::Tectorwise => {
            let policy = cfg.policy;
            #[derive(Default)]
            struct Scratch {
                all: Vec<u32>,
                hashes: Vec<u64>,
                v_qty: Vec<i64>,
                gb: tw::grouping::GroupBuffers,
            }
            let shards = cfg.map_scan(
                li.len(),
                LI_BITS,
                |_| (GroupByShard::<i32, i64>::new(PREAGG_GROUPS), Scratch::default()),
                |(shard, st), r| {
                    for c in tw::chunks(r, cfg.vector_size) {
                        tw::hashp::iota(c.start as u32, c.len(), &mut st.all);
                        tw::hashp::hash_i32(lok, &st.all, hf, &mut st.hashes);
                        tw::grouping::find_groups(
                            &shard.ht,
                            &st.hashes,
                            &st.all,
                            |k, t| *k == lok[t as usize],
                            &mut st.gb,
                        );
                        for &t in &st.gb.miss_sel {
                            let t = t as usize;
                            shard.update(hf.hash(lok[t] as u64), lok[t], || 0, |a| *a += qty[t]);
                        }
                        if st.gb.groups.is_empty() {
                            continue;
                        }
                        tw::gather::gather_i64(qty, &st.gb.group_sel, policy, &mut st.v_qty);
                        tw::grouping::agg_update_i64(&mut shard.ht, &st.gb.groups, &st.v_qty, |a, v| *a += v);
                    }
                },
            );
            shards.into_iter().map(|(shard, _)| shard.finish()).collect()
        }
        other => unreachable!("{} is not a per-stage candidate", other.name()),
    };
    let groups = merge_partitions(shards, &cfg.exec(), |a, b| *a += b);
    groups.into_iter().filter(|(_, q)| *q > qty_limit).collect()
}

/// Volcano: interpreted plan (HAVING via Select over the aggregate).
/// The driving orders scan is morsel-partitioned across `cfg.threads`
/// workers; since `o_orderkey` is unique, each worker's output rows are
/// disjoint and the union needs no re-aggregation.
pub fn volcano(db: &Database, cfg: &ExecCfg, p: &Q18Params) -> QueryResult {
    use dbep_runtime::Morsels;
    use dbep_volcano::{exchange, AggSpec, Aggregate, CmpOp, Expr, HashJoin, Scan, Select, Val};
    let ord = db.table("orders");
    let m = Morsels::new(ord.len());
    let rows_raw = exchange::union(&cfg.exec(), |_| {
        // Γ(lineitem) with HAVING.
        let agg = Aggregate::new(
            Box::new(
                Scan::new(db.table("lineitem"), &["l_orderkey", "l_quantity"])
                    .paced(cfg.throttle)
                    .recorded(cfg.sched),
            ),
            vec![Expr::col(0)],
            vec![AggSpec::SumI64(Expr::col(1))],
        );
        let having = Select {
            input: Box::new(agg),
            pred: Expr::cmp(CmpOp::Gt, Expr::col(1), Expr::lit_i64(p.qty_limit)),
        };
        // ⋈ orders: [l_orderkey, sum_qty, o_orderkey, o_custkey, o_orderdate, o_totalprice]
        let j_o = HashJoin::new(
            Box::new(having),
            vec![Expr::col(0)],
            Box::new(
                Scan::new(ord, &["o_orderkey", "o_custkey", "o_orderdate", "o_totalprice"])
                    .paced(cfg.throttle)
                    .recorded(cfg.sched)
                    .morsel_driven(&m),
            ),
            vec![Expr::col(0)],
        );
        // ⋈ customer: [c_custkey, c_name] ++ previous 6.
        Box::new(HashJoin::new(
            Box::new(
                Scan::new(db.table("customer"), &["c_custkey", "c_name"])
                    .paced(cfg.throttle)
                    .recorded(cfg.sched),
            ),
            vec![Expr::col(0)],
            Box::new(j_o),
            vec![Expr::col(3)],
        ))
    });
    let rows = rows_raw
        .into_iter()
        .map(|r| {
            let get_i32 = |v: &Val| match v {
                Val::I32(x) => *x,
                other => panic!("unexpected value {other:?}"),
            };
            vec![
                Value::Str(r[1].as_str().to_string()),
                Value::I32(get_i32(&r[0])),
                Value::I32(get_i32(&r[4])),
                Value::Date(get_i32(&r[6])),
                Value::dec2(r[7].as_i64()),
                Value::dec2(r[3].as_i64()),
            ]
        })
        .collect();
    QueryResult::new(
        &[
            "c_name",
            "c_custkey",
            "o_orderkey",
            "o_orderdate",
            "o_totalprice",
            "sum_qty",
        ],
        rows,
        &[OrderBy::desc(4), OrderBy::asc(3)],
        Some(100),
    )
}
