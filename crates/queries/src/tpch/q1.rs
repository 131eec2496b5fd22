//! TPC-H Q1: scan-dominated fixed-point arithmetic over a 4-group
//! aggregation.
//!
//! ```sql
//! SELECT l_returnflag, l_linestatus, sum(l_quantity), sum(l_extendedprice),
//!        sum(l_extendedprice*(1-l_discount)),
//!        sum(l_extendedprice*(1-l_discount)*(1+l_tax)),
//!        avg(l_quantity), avg(l_extendedprice), avg(l_discount), count(*)
//! FROM lineitem WHERE l_shipdate <= DATE '1998-09-02'
//! GROUP BY l_returnflag, l_linestatus ORDER BY l_returnflag, l_linestatus
//! ```
//!
//! This is the query where Typer's register-resident intermediates pay
//! off most (§4.1): the Tectorwise version must materialize every
//! arithmetic step into vectors.
//!
//! The plan is one stage with a body per paradigm; the five numeric
//! columns come through the body's column reader
//! (`dbep_compiled::RowScan`, `dbep_vectorized::Col`) in whichever
//! format `lineitem` holds, and the scan is charged the widths the
//! readers report plus the two flat char flags.

use crate::params::Q1Params;
use crate::result::{avg_i64, OrderBy, QueryResult, Value};
use crate::{Engine, ExecCfg, Params};
use dbep_compiled::{for_each_row, RowScan};
use dbep_storage::Database;
use dbep_vectorized as tw;
use dbep_volcano::{AggSpec, BinOp, CmpOp, Expr, Plan, Row, Val};

/// Per-group aggregate state (sums at scales 2/2/4/6/2 plus count).
#[derive(Clone, Copy, Default)]
pub struct Q1Agg {
    qty: i64,
    base: i64,
    disc_price: i64,
    charge: i128,
    disc: i64,
    count: i64,
}

impl Q1Agg {
    fn merge(a: &mut Q1Agg, b: Q1Agg) {
        a.qty += b.qty;
        a.base += b.base;
        a.disc_price += b.disc_price;
        a.charge += b.charge;
        a.disc += b.disc;
        a.count += b.count;
    }
}

/// Shared result assembly: identical ordering/averages for all engines.
fn finish(groups: Vec<((u8, u8), Q1Agg)>) -> QueryResult {
    let rows = groups
        .into_iter()
        .map(|((rf, ls), a)| {
            vec![
                Value::Str((rf as char).to_string()),
                Value::Str((ls as char).to_string()),
                Value::dec2(a.qty),
                Value::dec2(a.base),
                Value::dec4(a.disc_price as i128),
                Value::dec6(a.charge),
                Value::dec2(avg_i64(a.qty, a.count)),
                Value::dec2(avg_i64(a.base, a.count)),
                Value::dec2(avg_i64(a.disc, a.count)),
                Value::I64(a.count),
            ]
        })
        .collect();
    QueryResult::new(
        &[
            "l_returnflag",
            "l_linestatus",
            "sum_qty",
            "sum_base_price",
            "sum_disc_price",
            "sum_charge",
            "avg_qty",
            "avg_price",
            "avg_disc",
            "count_order",
        ],
        rows,
        &[OrderBy::asc(0), OrderBy::asc(1)],
        None,
    )
}

/// Stage 0 (`scan-agg-lineitem`): σ(lineitem) → Γ(returnflag,
/// linestatus).
fn scan_agg(db: &Database, cfg: &ExecCfg, p: &Q1Params, engine: Engine) -> Vec<((u8, u8), Q1Agg)> {
    let li = db.table("lineitem");
    let rf = li.col("l_returnflag").chars();
    let ls = li.col("l_linestatus").chars();
    let hf = cfg.hash_for(engine);
    let scan = RowScan::of(
        li,
        ["l_shipdate"],
        ["l_quantity", "l_extendedprice", "l_discount", "l_tax"],
    );
    let ship = tw::Col::<i32>::of(li, "l_shipdate");
    let qty = tw::Col::<i64>::of(li, "l_quantity");
    let ext = tw::Col::<i64>::of(li, "l_extendedprice");
    let disc = tw::Col::<i64>::of(li, "l_discount");
    let tax = tw::Col::<i64>::of(li, "l_tax");
    let policy = cfg.policy;
    #[derive(Default)]
    struct Scratch {
        sel: Vec<u32>,
        hashes: Vec<u64>,
        gb: tw::grouping::GroupBuffers,
        v_qty: Vec<i64>,
        v_ext: Vec<i64>,
        v_disc: Vec<i64>,
        v_tax: Vec<i64>,
        v_om: Vec<i64>,
        v_dp: Vec<i64>,
        v_ot: Vec<i64>,
        v_ch: Vec<i64>,
    }
    cfg.group_by(
        engine,
        li.len(),
        // The `Char` flags have no encoded form: both layouts read them flat.
        scan.bits() + li.flat_bits(&["l_returnflag", "l_linestatus"]),
        Scratch::default,
        // The fused loop a data-centric generator emits (Fig. 2a shape).
        |(shard, _), r| {
            let ship_cut = p.ship_cut as i64;
            for_each_row!(scan, r, |i, [s], [q, e, d, t]| {
                if s <= ship_cut {
                    // All intermediates live in registers until the
                    // single aggregate update — the fused pipeline.
                    let disc_price = e * (100 - d);
                    let charge = disc_price as i128 * (100 + t) as i128;
                    let key = (rf[i], ls[i]);
                    let h = hf.rehash(hf.hash(key.0 as u64), key.1 as u64);
                    shard.update(h, key, Q1Agg::default, |a| {
                        a.qty += q;
                        a.base += e;
                        a.disc_price += disc_price;
                        a.charge += charge;
                        a.disc += d;
                        a.count += 1;
                    });
                }
            });
        },
        // Selection → hash → find-or-insert-groups → one aggregate-update
        // primitive per sum, with every intermediate materialized
        // (Fig. 2b shape). The arithmetic and aggregate primitives only
        // ever see the dense vectors the column readers gather.
        |(shard, st), c| {
            if ship.sel_le(p.ship_cut, c, &mut st.sel, policy) == 0 {
                return;
            }
            tw::hashp::hash_u8(rf, &st.sel, hf, &mut st.hashes);
            tw::hashp::rehash_u8(ls, &st.sel, hf, &mut st.hashes);
            tw::grouping::find_or_insert_groups(
                shard,
                &st.hashes,
                &st.sel,
                |t| (rf[t as usize], ls[t as usize]),
                Q1Agg::default,
                &mut st.gb,
            );
            // Vector-at-a-time, one primitive per step/aggregate.
            qty.gather(&st.sel, policy, &mut st.v_qty);
            tw::grouping::agg_update_i64(&mut shard.ht, &st.gb.groups, &st.v_qty, |a, v| a.qty += v);
            ext.gather(&st.sel, policy, &mut st.v_ext);
            tw::grouping::agg_update_i64(&mut shard.ht, &st.gb.groups, &st.v_ext, |a, v| a.base += v);
            disc.gather(&st.sel, policy, &mut st.v_disc);
            tw::map::map_rsub_const_i64(100, &st.v_disc, &mut st.v_om);
            tw::map::map_mul_i64(&st.v_ext, &st.v_om, &mut st.v_dp);
            tw::grouping::agg_update_i64(&mut shard.ht, &st.gb.groups, &st.v_dp, |a, v| a.disc_price += v);
            tax.gather(&st.sel, policy, &mut st.v_tax);
            tw::map::map_add_const_i64(100, &st.v_tax, &mut st.v_ot);
            tw::map::map_mul_i64(&st.v_dp, &st.v_ot, &mut st.v_ch);
            tw::grouping::agg_update_i64(&mut shard.ht, &st.gb.groups, &st.v_ch, |a, v| {
                a.charge += v as i128
            });
            tw::grouping::agg_update_i64(&mut shard.ht, &st.gb.groups, &st.v_disc, |a, v| a.disc += v);
            tw::grouping::agg_update_unit(&mut shard.ht, &st.gb.groups, |a| a.count += 1);
        },
        Q1Agg::merge,
    )
}

/// Registry entry (see [`crate::QueryPlan`]).
pub struct Q1;

impl crate::QueryPlan for Q1 {
    fn id(&self) -> crate::QueryId {
        crate::QueryId::Q1
    }

    /// The interpreted plan: σ, the derived measures as a projection,
    /// then the grouped sums.
    fn volcano_plan(&self, params: &Params) -> Plan {
        let p = params.q1();
        let disc_price = Expr::arith(
            BinOp::Mul,
            Expr::col(3),
            Expr::arith(BinOp::Sub, Expr::lit_i64(100), Expr::col(4)),
        );
        let charge = Expr::arith(
            BinOp::Mul,
            disc_price.clone(),
            Expr::arith(BinOp::Add, Expr::lit_i64(100), Expr::col(5)),
        );
        Plan::scan(
            "lineitem",
            &[
                "l_returnflag",
                "l_linestatus",
                "l_quantity",
                "l_extendedprice",
                "l_discount",
                "l_tax",
                "l_shipdate",
            ],
        )
        .select(Expr::cmp(CmpOp::Le, Expr::col(6), Expr::lit_i32(p.ship_cut)))
        .project(vec![
            Expr::col(0),
            Expr::col(1),
            Expr::col(2),
            Expr::col(3),
            disc_price,
            charge,
            Expr::col(4),
        ])
        .aggregate(
            vec![Expr::col(0), Expr::col(1)],
            vec![
                AggSpec::SumI64(Expr::col(2)),
                AggSpec::SumI64(Expr::col(3)),
                AggSpec::SumI64(Expr::col(4)),
                AggSpec::SumI128(Expr::col(5)),
                AggSpec::SumI64(Expr::col(6)),
                AggSpec::Count,
            ],
        )
    }

    fn volcano_result(&self, _db: &Database, rows: Vec<Row>) -> QueryResult {
        let groups = rows
            .into_iter()
            .map(|row| {
                let key = match (&row[0], &row[1]) {
                    (Val::Byte(a), Val::Byte(b)) => (*a, *b),
                    other => panic!("unexpected group key {other:?}"),
                };
                (
                    key,
                    Q1Agg {
                        qty: row[2].as_i64(),
                        base: row[3].as_i64(),
                        disc_price: row[4].as_i64(),
                        charge: row[5].as_i128(),
                        disc: row[6].as_i64(),
                        count: row[7].as_i64(),
                    },
                )
            })
            .collect();
        finish(groups)
    }

    fn stages(&self) -> &'static [crate::StageDesc] {
        use crate::{StageDesc, StageKind};
        // One fused pipeline: σ(lineitem) → Γ(returnflag, linestatus).
        const S: &[crate::StageDesc] = &[StageDesc::new("scan-agg-lineitem", StageKind::Aggregate)];
        S
    }

    fn run_stages(&self, db: &Database, cfg: &ExecCfg, params: &Params, choices: &[Engine]) -> QueryResult {
        let [engine] = crate::assignment(choices);
        let _stage = cfg.stage(0);
        finish(scan_agg(db, cfg, params.q1(), engine))
    }
}
