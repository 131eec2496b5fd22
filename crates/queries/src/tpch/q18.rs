//! TPC-H Q18: high-cardinality aggregation — 1.5 M groups per scale
//! factor (§3.3), the workload where the two-phase partitioned group-by
//! earns its keep. Far more groups than a pre-aggregation table holds,
//! so every worker's table flushes into the partitions again and again;
//! `lineitem` arrives in `l_orderkey` runs, so each order's rows fold
//! into one group before it is spilled.
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
//! Physical plan, the same in all three engines: Γ(lineitem by
//! l_orderkey) → HAVING filter → HT_sel; an `orders` scan probes HT_sel
//! and builds HT_cust (keyed by `o_custkey`) from the qualifying
//! orders; a `customer` scan probes HT_cust → result. Because
//! `o_orderkey` is unique, the outer GROUP BY needs no second
//! aggregation. Three stages: `agg_lineitem` has a Typer body and a
//! Tectorwise body, the two join stages (`join_phases`) are one body
//! for both paradigms.

use crate::params::Q18Params;
use crate::result::{OrderBy, QueryResult, Value};
use crate::{Engine, ExecCfg, Params};
use dbep_runtime::hash::HashFn;
use dbep_runtime::JoinHt;
use dbep_storage::Database;
use dbep_vectorized as tw;
use dbep_volcano::{AggSpec, CmpOp, Expr, Plan, Row};

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
    result(rows)
}

/// The result columns, ordered by `o_totalprice` desc, `o_orderdate`,
/// first 100.
fn result(rows: Vec<Vec<Value>>) -> QueryResult {
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

    /// The interpreted plan, HAVING as a selection over the aggregate.
    /// `o_orderkey` is unique, so the workers' rows are disjoint and
    /// need no re-aggregation.
    fn volcano_plan(&self, params: &Params) -> Plan {
        let p = params.q18();
        let big = Plan::scan("lineitem", &["l_orderkey", "l_quantity"])
            .aggregate(vec![Expr::col(0)], vec![AggSpec::SumI64(Expr::col(1))])
            .select(Expr::cmp(CmpOp::Gt, Expr::col(1), Expr::lit_i64(p.qty_limit)));
        let orders = Plan::scan(
            "orders",
            &["o_orderkey", "o_custkey", "o_orderdate", "o_totalprice"],
        );
        // [l_orderkey, sum_qty, o_orderkey, o_custkey, o_orderdate, o_totalprice]
        let big_orders = big.hash_join(vec![Expr::col(0)], orders, vec![Expr::col(0)]);
        // HT_cust: the 6 columns above ++ [c_custkey, c_name].
        big_orders.hash_join(
            vec![Expr::col(3)],
            Plan::scan("customer", &["c_custkey", "c_name"]),
            vec![Expr::col(0)],
        )
    }

    fn volcano_result(&self, _db: &Database, rows: Vec<Row>) -> QueryResult {
        let rows = rows
            .into_iter()
            .map(|r| {
                vec![
                    Value::Str(r[7].as_str().to_string()),
                    Value::I32(r[6].as_i32()),
                    Value::I32(r[2].as_i32()),
                    Value::Date(r[4].as_i32()),
                    Value::dec2(r[5].as_i64()),
                    Value::dec2(r[1].as_i64()),
                ]
            })
            .collect();
        result(rows)
    }

    /// The plan's scans plus a second `lineitem`: the SQL joins
    /// `lineitem` again for the outer `sum(l_quantity)`, which the plan
    /// takes from the HAVING aggregate (`o_orderkey` is unique). The
    /// denominator follows the query, not that shortcut.
    fn tuples_scanned(&self, db: &Database) -> usize {
        self.volcano_plan(&Params::default_for(self.id()))
            .tuples_scanned(db)
            + db.table("lineitem").len()
    }

    fn stages(&self) -> &'static [crate::StageDesc] {
        use crate::{StageDesc, StageKind};
        // The join pipelines after the HAVING filter are one body for
        // both paradigms (`join_phases`); only the 1.5 M-group
        // aggregation has a body each.
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
        ord.flat_bits(&["o_orderkey", "o_custkey", "o_orderdate", "o_totalprice"]),
        || (),
        |(sh, ()), r| {
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
    // `finish` reads `c_name` of the matching rows.
    let bits = cust.flat_bits(&["c_custkey", "c_name"]);
    let locals = cfg.map_scan(cust.len(), bits, Vec::new, |local, r| {
        for i in r {
            let h = hf.hash(ckey[i] as u64);
            for e in ht_cust.probe(h) {
                if e.row.0 == ckey[i] {
                    local.push((i as i32, e.row));
                }
            }
        }
    });
    finish(db, locals.into_iter().flatten().collect())
}

/// Stage 0 (`agg-lineitem`): Γ(lineitem by l_orderkey) → HAVING; the
/// qualifying `(orderkey, sum_qty)` pairs.
fn agg_lineitem(db: &Database, cfg: &ExecCfg, p: &Q18Params, engine: Engine) -> Vec<(i32, i64)> {
    let hf = cfg.hash_for(engine);
    let li = db.table("lineitem");
    let lok = li.col("l_orderkey").i32s();
    let qty = li.col("l_quantity").i64s();
    #[derive(Default)]
    struct Scratch {
        all: Vec<u32>,
        hashes: Vec<u64>,
        gb: tw::grouping::GroupBuffers,
    }
    let groups = cfg.group_by(
        engine,
        li.len(),
        li.flat_bits(&["l_orderkey", "l_quantity"]),
        Scratch::default,
        // Fused 1.5 M-group aggregation; the shard flushes when full.
        |(shard, _), r| {
            for i in r {
                shard.update(hf.hash(lok[i] as u64), lok[i], || 0, |a| *a += qty[i]);
            }
        },
        // Vectorized find-or-insert-groups/aggregate primitives.
        |(shard, st), c| {
            tw::hashp::iota(c.start as u32, c.len(), &mut st.all);
            tw::hashp::hash_i32(lok, &st.all, hf, &mut st.hashes);
            tw::grouping::find_or_insert_groups(
                shard,
                &st.hashes,
                &st.all,
                |t| lok[t as usize],
                || 0,
                &mut st.gb,
            );
            tw::grouping::agg_update_i64(&mut shard.ht, &st.gb.groups, &qty[c], |a, v| *a += v);
        },
        |a, b| *a += b,
    );
    groups.into_iter().filter(|(_, q)| *q > p.qty_limit).collect()
}

#[cfg(test)]
mod tests {
    use crate::{Params, QueryId, QueryPlan};
    use dbep_volcano::Plan;

    /// The scan that drives `plan`'s pipeline: the leaf reached
    /// through probe sides.
    fn driving_scan(plan: &Plan) -> &'static str {
        match plan {
            Plan::Scan { table, .. } => table,
            Plan::HashJoin { probe, .. } | Plan::SemiJoin { probe, .. } => driving_scan(probe),
            Plan::Select { input, .. } | Plan::Project { input, .. } | Plan::Aggregate { input, .. } => {
                driving_scan(input)
            }
        }
    }

    #[test]
    fn volcano_builds_ht_cust_from_orders_and_probes_with_customer() {
        let plan = super::Q18.volcano_plan(&Params::default_for(QueryId::Q18));
        let Plan::HashJoin { build, probe, .. } = &plan else {
            panic!("Q18's root is not a hash join: {plan:?}");
        };
        assert!(
            matches!(
                probe.as_ref(),
                Plan::Scan {
                    table: "customer",
                    ..
                }
            ),
            "probe side: {probe:?}"
        );
        assert_eq!(driving_scan(build), "orders");
    }
}
