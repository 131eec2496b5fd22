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

use crate::params::Q6Params;
use crate::result::{QueryResult, Value};
use crate::{ExecCfg, Params};
use dbep_compiled::packed::scan_blocks;
use dbep_storage::{Database, PackedInts, Table};
use dbep_vectorized as tw;

/// Bytes read per scanned row (date + 3×i64), flat storage.
const ROW_BITS: usize = 8 * (4 + 3 * 8);

/// The four scanned columns, in encoding/bandwidth-accounting order.
const COLS: [&str; 4] = ["l_shipdate", "l_discount", "l_quantity", "l_extendedprice"];

/// Bit-packed companions for all four scanned columns, if present.
fn packed_cols(li: &Table) -> Option<[&PackedInts; 4]> {
    let mut out = [None; 4];
    for (slot, name) in out.iter_mut().zip(COLS) {
        *slot = Some(li.encoded(name)?.packed());
    }
    Some(out.map(|c| c.expect("filled above")))
}

fn finish(revenue: i64) -> QueryResult {
    QueryResult::new(&["revenue"], vec![vec![Value::dec4(revenue as i128)]], &[], None)
}

/// Typer over encoded storage: the same fused loop body, fed by
/// [`scan_blocks`] — each column is unpacked a block at a time into an
/// L1-resident buffer, so width dispatch is paid per block, not per row.
fn typer_encoded(li: &Table, cols: [&PackedInts; 4], cfg: &ExecCfg, p: &Q6Params) -> QueryResult {
    let (ship_lo, ship_hi) = (p.ship_lo as i64, p.ship_hi as i64);
    let (disc_lo, disc_hi, qty_hi) = (p.disc_lo, p.disc_hi, p.qty_hi);
    let locals = cfg.map_scan(
        li.len(),
        li.row_bits(&COLS),
        |_| 0i64,
        |local, r| {
            scan_blocks(cols, r, |_, [s, d, q, e]| {
                let ok = (s >= ship_lo) & (s < ship_hi) & (d >= disc_lo) & (d <= disc_hi) & (q < qty_hi);
                // `ok * (e * d)`, not `ok * e * d`: the latter becomes
                // `select(ok, load e, 0) * d`, which LLVM turns into a
                // branch on a ~50 % predicate to skip the load.
                *local += (ok as i64) * (e * d);
            });
        },
    );
    finish(locals.into_iter().sum())
}

/// Tectorwise over encoded storage: fused decompress-and-select
/// cascade — two BETWEEN kernels and one sparse comparison replace the
/// five flat selections, then conditional-aggregate readers unpack only
/// the surviving rows' measures.
fn tectorwise_encoded(li: &Table, cols: [&PackedInts; 4], cfg: &ExecCfg, p: &Q6Params) -> QueryResult {
    let (ship_lo, ship_hi) = (p.ship_lo, p.ship_hi);
    let (disc_lo, disc_hi, qty_hi) = (p.disc_lo, p.disc_hi, p.qty_hi);
    let [ship, disc, qty, ext] = cols;
    let policy = cfg.policy;
    #[derive(Default)]
    struct Scratch {
        local: i64,
        s1: Vec<u32>,
        s2: Vec<u32>,
        s3: Vec<u32>,
        v_ext: Vec<i64>,
        v_disc: Vec<i64>,
        v_rev: Vec<i64>,
    }
    let locals = cfg.map_scan(
        li.len(),
        li.row_bits(&COLS),
        |_| Scratch::default(),
        |st, r| {
            for c in tw::chunks(r, cfg.vector_size) {
                // BETWEEN is inclusive: shipdate < hi becomes <= hi-1.
                if tw::sel::sel_between_i32_for(ship, ship_lo, ship_hi - 1, c, &mut st.s1, policy) == 0 {
                    continue;
                }
                if tw::sel::sel_between_i64_for_sparse(disc, disc_lo, disc_hi, &st.s1, &mut st.s2, policy)
                    == 0
                {
                    continue;
                }
                if tw::sel::sel_lt_i64_packed_sparse(qty, qty_hi, &st.s2, &mut st.s3, policy) == 0 {
                    continue;
                }
                tw::gather::gather_packed_i64(ext, &st.s3, policy, &mut st.v_ext);
                tw::gather::gather_packed_i64(disc, &st.s3, policy, &mut st.v_disc);
                tw::map::map_mul_i64(&st.v_ext, &st.v_disc, &mut st.v_rev);
                st.local += tw::map::sum_i64(&st.v_rev, policy);
            }
        },
    );
    finish(locals.into_iter().map(|s| s.local).sum())
}

/// Typer: one fused, branch-free loop.
pub fn typer(db: &Database, cfg: &ExecCfg, p: &Q6Params) -> QueryResult {
    let _stage = cfg.stage(0);
    let li = db.table("lineitem");
    if let Some(cols) = packed_cols(li) {
        return typer_encoded(li, cols, cfg, p);
    }
    let (ship_lo, ship_hi) = (p.ship_lo, p.ship_hi);
    let (disc_lo, disc_hi, qty_hi) = (p.disc_lo, p.disc_hi, p.qty_hi);
    let ship = li.col("l_shipdate").dates();
    let disc = li.col("l_discount").i64s();
    let qty = li.col("l_quantity").i64s();
    let ext = li.col("l_extendedprice").i64s();
    let locals = cfg.map_scan(
        li.len(),
        ROW_BITS,
        |_| 0i64,
        |local, r| {
            for i in r {
                // Predicated evaluation: no branches, all columns read.
                let ok = (ship[i] >= ship_lo)
                    & (ship[i] < ship_hi)
                    & (disc[i] >= disc_lo)
                    & (disc[i] <= disc_hi)
                    & (qty[i] < qty_hi);
                *local += (ok as i64) * ext[i] * disc[i];
            }
        },
    );
    finish(locals.into_iter().sum())
}

/// Tectorwise: five selection primitives, then gather/multiply/sum.
pub fn tectorwise(db: &Database, cfg: &ExecCfg, p: &Q6Params) -> QueryResult {
    let _stage = cfg.stage(0);
    let li = db.table("lineitem");
    if let Some(cols) = packed_cols(li) {
        return tectorwise_encoded(li, cols, cfg, p);
    }
    let (ship_lo, ship_hi) = (p.ship_lo, p.ship_hi);
    let (disc_lo, disc_hi, qty_hi) = (p.disc_lo, p.disc_hi, p.qty_hi);
    let ship = li.col("l_shipdate").dates();
    let disc = li.col("l_discount").i64s();
    let qty = li.col("l_quantity").i64s();
    let ext = li.col("l_extendedprice").i64s();
    let policy = cfg.policy;
    #[derive(Default)]
    struct Scratch {
        local: i64,
        s1: Vec<u32>,
        s2: Vec<u32>,
        s3: Vec<u32>,
        s4: Vec<u32>,
        s5: Vec<u32>,
        v_ext: Vec<i64>,
        v_disc: Vec<i64>,
        v_rev: Vec<i64>,
    }
    let locals = cfg.map_scan(
        li.len(),
        ROW_BITS,
        |_| Scratch::default(),
        |st, r| {
            for c in tw::chunks(r, cfg.vector_size) {
                // 1 dense + 4 sparse selections (§5.1's cascade).
                if tw::sel::sel_ge_i32_dense(&ship[c.clone()], ship_lo, c.start as u32, &mut st.s1, policy)
                    == 0
                {
                    continue;
                }
                if tw::sel::sel_lt_i32_sparse(ship, ship_hi, &st.s1, &mut st.s2, policy) == 0 {
                    continue;
                }
                if tw::sel::sel_ge_i64_sparse(disc, disc_lo, &st.s2, &mut st.s3, policy) == 0 {
                    continue;
                }
                if tw::sel::sel_le_i64_sparse(disc, disc_hi, &st.s3, &mut st.s4, policy) == 0 {
                    continue;
                }
                if tw::sel::sel_lt_i64_sparse(qty, qty_hi, &st.s4, &mut st.s5, policy) == 0 {
                    continue;
                }
                tw::gather::gather_i64(ext, &st.s5, policy, &mut st.v_ext);
                tw::gather::gather_i64(disc, &st.s5, policy, &mut st.v_disc);
                tw::map::map_mul_i64(&st.v_ext, &st.v_disc, &mut st.v_rev);
                st.local += tw::map::sum_i64(&st.v_rev, policy);
            }
        },
    );
    finish(locals.into_iter().map(|s| s.local).sum())
}

/// Volcano: interpreted conjunction, one tuple at a time; `threads`
/// partition the scan through the exchange union, partial sums merge
/// here.
pub fn volcano(db: &Database, cfg: &ExecCfg, p: &Q6Params) -> QueryResult {
    use dbep_runtime::Morsels;
    use dbep_volcano::{exchange, AggSpec, Aggregate, BinOp, CmpOp, Expr, Scan, Select};
    let li = db.table("lineitem");
    let m = Morsels::new(li.len());
    let partials = exchange::union(&cfg.exec(), |_| {
        let scan = Scan::new(li, &["l_shipdate", "l_discount", "l_quantity", "l_extendedprice"])
            .paced(cfg.throttle)
            .recorded(cfg.sched)
            .morsel_driven(&m);
        let filtered = Select {
            input: Box::new(scan),
            pred: Expr::And(vec![
                Expr::cmp(CmpOp::Ge, Expr::col(0), Expr::lit_i32(p.ship_lo)),
                Expr::cmp(CmpOp::Lt, Expr::col(0), Expr::lit_i32(p.ship_hi)),
                Expr::cmp(CmpOp::Ge, Expr::col(1), Expr::lit_i64(p.disc_lo)),
                Expr::cmp(CmpOp::Le, Expr::col(1), Expr::lit_i64(p.disc_hi)),
                Expr::cmp(CmpOp::Lt, Expr::col(2), Expr::lit_i64(p.qty_hi)),
            ]),
        };
        Box::new(Aggregate::new(
            Box::new(filtered),
            vec![],
            vec![AggSpec::SumI64(Expr::arith(
                BinOp::Mul,
                Expr::col(3),
                Expr::col(1),
            ))],
        ))
    });
    finish(partials.iter().map(|r| r[0].as_i64()).sum())
}

/// Registry entry (see [`crate::QueryPlan`]).
pub struct Q6;

impl crate::QueryPlan for Q6 {
    fn id(&self) -> crate::QueryId {
        crate::QueryId::Q6
    }

    fn tuples_scanned(&self, db: &Database) -> usize {
        db.table("lineitem").len()
    }

    fn stages(&self) -> &'static [crate::StageDesc] {
        use crate::{StageDesc, StageKind};
        // One selection-dominated pipeline: σ(lineitem) → SUM.
        const S: &[crate::StageDesc] = &[StageDesc::new("scan-filter-lineitem", StageKind::ScanFilter)];
        S
    }

    fn typer(&self, db: &Database, cfg: &ExecCfg, params: &Params) -> QueryResult {
        typer(db, cfg, params.q6())
    }

    fn tectorwise(&self, db: &Database, cfg: &ExecCfg, params: &Params) -> QueryResult {
        tectorwise(db, cfg, params.q6())
    }

    fn volcano(&self, db: &Database, cfg: &ExecCfg, params: &Params) -> QueryResult {
        volcano(db, cfg, params.q6())
    }
}
