//! TPC-H Q6: highly selective conjunctive filter (≈2 % of lineitem).
//!
//! ```sql
//! SELECT sum(l_extendedprice * l_discount) AS revenue
//! FROM lineitem
//! WHERE l_shipdate >= DATE '1994-01-01' AND l_shipdate < DATE '1995-01-01'
//!   AND l_discount BETWEEN 0.05 AND 0.07 AND l_quantity < 24
//! ```
//!
//! Typer evaluates the whole conjunction branch-free per tuple (the
//! implementation §6.2's footnote 8 refers to: it always reads all four
//! columns, costing memory bandwidth at high thread counts). Tectorwise
//! runs the paper's five-primitive selection cascade — one dense
//! selection, four sparse ones (§5.1) — which is also the SIMD showcase
//! of Fig. 6c.
//!
//! The plan is one stage with an arm per paradigm. Which format
//! `lineitem` holds is the column reader's business
//! (`dbep_compiled::RowScan`, `dbep_vectorized::Col`): over an encoded
//! table the same Typer loop is fed block-wise unpacked values and the
//! same Tectorwise cascade runs the fused decompress-and-select kernels
//! (two BETWEENs and one sparse comparison in place of the five flat
//! selections). Bytes are charged from the readers' widths.

use crate::params::Q6Params;
use crate::result::{QueryResult, Value};
use crate::{Engine, ExecCfg, Params};
use dbep_compiled::{for_each_row, RowScan};
use dbep_storage::Database;
use dbep_vectorized as tw;
use dbep_volcano::{AggSpec, BinOp, CmpOp, Expr, Plan, Row};

fn finish(revenue: i64) -> QueryResult {
    QueryResult::new(&["revenue"], vec![vec![Value::dec4(revenue as i128)]], &[], None)
}

/// Stage 0 (`scan-filter-lineitem`): σ(lineitem) → SUM.
fn scan_filter(db: &Database, cfg: &ExecCfg, p: &Q6Params, engine: Engine) -> i64 {
    let li = db.table("lineitem");
    let (disc_lo, disc_hi, qty_hi) = (p.disc_lo, p.disc_hi, p.qty_hi);
    match engine {
        // One fused, branch-free loop.
        Engine::Typer => {
            let (ship_lo, ship_hi) = (p.ship_lo as i64, p.ship_hi as i64);
            let scan = RowScan::of(
                li,
                ["l_shipdate"],
                ["l_discount", "l_quantity", "l_extendedprice"],
            );
            let locals = cfg.map_scan(
                li.len(),
                scan.bits(),
                |_| 0i64,
                |local, r| {
                    // A morsel-local sum: with no store in the loop the bounds
                    // stay in registers beside it.
                    let mut revenue = 0i64;
                    for_each_row!(scan, r, |_, [s], [d, q, e]| {
                        // Predicated evaluation: no branches, all columns read.
                        let ok =
                            (s >= ship_lo) & (s < ship_hi) & (d >= disc_lo) & (d <= disc_hi) & (q < qty_hi);
                        // `ok * (e * d)`, not `ok * e * d`: the latter becomes
                        // `select(ok, load e, 0) * d`, which LLVM turns into a
                        // branch on a ~50 % predicate to skip the load.
                        revenue += (ok as i64) * (e * d);
                    });
                    *local += revenue;
                },
            );
            locals.into_iter().sum()
        }
        // The selection cascade, then gather/multiply/sum of the
        // surviving rows' measures.
        Engine::Tectorwise => {
            let (ship_lo, ship_hi) = (p.ship_lo, p.ship_hi);
            let ship = tw::Col::<i32>::of(li, "l_shipdate");
            let disc = tw::Col::<i64>::of(li, "l_discount");
            let qty = tw::Col::<i64>::of(li, "l_quantity");
            let ext = tw::Col::<i64>::of(li, "l_extendedprice");
            let policy = cfg.policy;
            #[derive(Default)]
            struct Scratch {
                local: i64,
                tmp: Vec<u32>,
                s1: Vec<u32>,
                s2: Vec<u32>,
                s3: Vec<u32>,
                v_ext: Vec<i64>,
                v_disc: Vec<i64>,
                v_rev: Vec<i64>,
            }
            let locals = cfg.map_scan(
                li.len(),
                ship.bits() + disc.bits() + qty.bits() + ext.bits(),
                |_| Scratch::default(),
                |st, r| {
                    for c in tw::chunks(r, cfg.vector_size) {
                        // Flat: 1 dense + 4 sparse selections (§5.1's cascade);
                        // packed: two fused BETWEENs and one sparse comparison.
                        // BETWEEN is inclusive: shipdate < hi becomes <= hi-1.
                        if ship.sel_between(ship_lo, ship_hi - 1, c, &mut st.tmp, &mut st.s1, policy) == 0 {
                            continue;
                        }
                        if disc.sel_between_sparse(disc_lo, disc_hi, &st.s1, &mut st.tmp, &mut st.s2, policy)
                            == 0
                        {
                            continue;
                        }
                        if qty.sel_lt_sparse(qty_hi, &st.s2, &mut st.s3, policy) == 0 {
                            continue;
                        }
                        ext.gather(&st.s3, policy, &mut st.v_ext);
                        disc.gather(&st.s3, policy, &mut st.v_disc);
                        tw::map::map_mul_i64(&st.v_ext, &st.v_disc, &mut st.v_rev);
                        st.local += tw::map::sum_i64(&st.v_rev, policy);
                    }
                },
            );
            locals.into_iter().map(|s| s.local).sum()
        }
        other => unreachable!("{} is not a per-stage candidate", other.name()),
    }
}

/// Registry entry (see [`crate::QueryPlan`]).
pub struct Q6;

impl crate::QueryPlan for Q6 {
    fn id(&self) -> crate::QueryId {
        crate::QueryId::Q6
    }

    /// The interpreted conjunction, one tuple at a time.
    fn volcano_plan(&self, params: &Params) -> Plan {
        let p = params.q6();
        Plan::scan(
            "lineitem",
            &["l_shipdate", "l_discount", "l_quantity", "l_extendedprice"],
        )
        .select(Expr::And(vec![
            Expr::cmp(CmpOp::Ge, Expr::col(0), Expr::lit_i32(p.ship_lo)),
            Expr::cmp(CmpOp::Lt, Expr::col(0), Expr::lit_i32(p.ship_hi)),
            Expr::cmp(CmpOp::Ge, Expr::col(1), Expr::lit_i64(p.disc_lo)),
            Expr::cmp(CmpOp::Le, Expr::col(1), Expr::lit_i64(p.disc_hi)),
            Expr::cmp(CmpOp::Lt, Expr::col(2), Expr::lit_i64(p.qty_hi)),
        ]))
        .aggregate(
            vec![],
            vec![AggSpec::SumI64(Expr::arith(
                BinOp::Mul,
                Expr::col(3),
                Expr::col(1),
            ))],
        )
    }

    fn volcano_result(&self, _db: &Database, rows: Vec<Row>) -> QueryResult {
        finish(rows[0][0].as_i64())
    }

    fn stages(&self) -> &'static [crate::StageDesc] {
        use crate::{StageDesc, StageKind};
        // One selection-dominated pipeline: σ(lineitem) → SUM.
        const S: &[crate::StageDesc] = &[StageDesc::new("scan-filter-lineitem", StageKind::ScanFilter)];
        S
    }

    fn run_stages(&self, db: &Database, cfg: &ExecCfg, params: &Params, choices: &[Engine]) -> QueryResult {
        let [engine] = crate::assignment(choices);
        let _stage = cfg.stage(0);
        finish(scan_filter(db, cfg, params.q6(), engine))
    }
}
