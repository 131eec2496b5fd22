//! OLTP-style point lookups (§8.1).
//!
//! "For OLTP workloads, vectorization has little benefit over
//! traditional Volcano-style iteration. With compilation, in contrast,
//! it is possible to compile all queries of a stored procedure into a
//! single, efficient machine code fragment."
//!
//! The workload: given an order key, fetch the order's header and
//! aggregate its lineitems (quantity and revenue) — a read-only stored
//! procedure. Three implementations:
//!
//! * [`lookup_typer`] — the compiled stored procedure: one fused
//!   fragment, index probe + tight loop.
//! * [`lookup_tectorwise`] — the vectorized engine forced to run with a
//!   "vector" of one tuple per operator step (primitive-call overhead
//!   per single value).
//! * [`lookup_volcano`] — classic interpretation: an expression-driven
//!   plan constructed and pulled per statement.
//!
//! All three share the same hash index ([`OltpIndex`]), built once.

use dbep_runtime::hash::HashFn;
use dbep_runtime::JoinHt;
use dbep_storage::Database;
use dbep_vectorized as tw;
use dbep_vectorized::SimdPolicy;

/// Primary-key hash indexes: orderkey → orders row, orderkey → first
/// lineitem row + count (lineitems of one order are stored
/// contiguously).
pub struct OltpIndex {
    orders: JoinHt<(i32, u32)>,
    lineitem_ranges: JoinHt<(i32, u32, u32)>,
    hf: HashFn,
}

/// The stored procedure's result row.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct OrderDetails {
    pub orderkey: i32,
    pub custkey: i32,
    pub totalprice: i64,
    pub line_count: i64,
    pub sum_qty: i64,
    pub sum_revenue: i64,
}

impl OltpIndex {
    /// Build both indexes (the OLTP database's primary-key structures).
    pub fn build(db: &Database, hf: HashFn) -> Self {
        let ord = db.table("orders");
        let okey = ord.col("o_orderkey").i32s();
        let orders = JoinHt::build((0..ord.len()).map(|i| (hf.hash(okey[i] as u64), (okey[i], i as u32))));
        let li = db.table("lineitem");
        let lok = li.col("l_orderkey").i32s();
        let mut ranges: Vec<(i32, u32, u32)> = Vec::new();
        let mut i = 0usize;
        while i < li.len() {
            let k = lok[i];
            let start = i;
            while i < li.len() && lok[i] == k {
                i += 1;
            }
            ranges.push((k, start as u32, (i - start) as u32));
        }
        let lineitem_ranges = JoinHt::build(ranges.into_iter().map(|r| (hf.hash(r.0 as u64), r)));
        OltpIndex {
            orders,
            lineitem_ranges,
            hf,
        }
    }
}

/// Typer: the whole procedure is one fused fragment.
pub fn lookup_typer(db: &Database, idx: &OltpIndex, orderkey: i32) -> Option<OrderDetails> {
    let h = idx.hf.hash(orderkey as u64);
    let ord_row = idx.orders.probe(h).find(|e| e.row.0 == orderkey)?.row.1 as usize;
    let ord = db.table("orders");
    let mut out = OrderDetails {
        orderkey,
        custkey: ord.col("o_custkey").i32s()[ord_row],
        totalprice: ord.col("o_totalprice").i64s()[ord_row],
        ..Default::default()
    };
    let li = db.table("lineitem");
    let qty = li.col("l_quantity").i64s();
    let ext = li.col("l_extendedprice").i64s();
    let disc = li.col("l_discount").i64s();
    if let Some(e) = idx.lineitem_ranges.probe(h).find(|e| e.row.0 == orderkey) {
        let (start, cnt) = (e.row.1 as usize, e.row.2 as usize);
        for i in start..start + cnt {
            out.line_count += 1;
            out.sum_qty += qty[i];
            out.sum_revenue += ext[i] * (100 - disc[i]);
        }
    }
    Some(out)
}

/// Tectorwise: the same procedure through vector primitives with a
/// single-tuple "vector" for the probe and tiny vectors for the line
/// aggregation — the §8.1 overhead regime.
pub fn lookup_tectorwise(
    db: &Database,
    idx: &OltpIndex,
    orderkey: i32,
    scratch: &mut TwLookupScratch,
) -> Option<OrderDetails> {
    let keys = [orderkey];
    tw::hashp::hash_i32(&keys, &[0], idx.hf, &mut scratch.hashes);
    let n = tw::probe::probe_join(
        &idx.orders,
        &scratch.hashes,
        &[0],
        |row, _| row.0 == orderkey,
        SimdPolicy::Scalar,
        &mut scratch.bufs,
    );
    if n == 0 {
        return None;
    }
    let ord_row = {
        let mut rows = Vec::new();
        tw::gather::gather_build(&idx.orders, &scratch.bufs.match_entry, |r| r.1, &mut rows);
        rows[0] as usize
    };
    let ord = db.table("orders");
    let mut out = OrderDetails {
        orderkey,
        custkey: ord.col("o_custkey").i32s()[ord_row],
        totalprice: ord.col("o_totalprice").i64s()[ord_row],
        ..Default::default()
    };
    let nli = tw::probe::probe_join(
        &idx.lineitem_ranges,
        &scratch.hashes,
        &[0],
        |row, _| row.0 == orderkey,
        SimdPolicy::Scalar,
        &mut scratch.bufs,
    );
    if nli == 0 {
        return Some(out);
    }
    let mut range = Vec::new();
    tw::gather::gather_build(
        &idx.lineitem_ranges,
        &scratch.bufs.match_entry,
        |r| (r.1, r.2),
        &mut range,
    );
    let (start, cnt) = (range[0].0, range[0].1 as usize);
    let li = db.table("lineitem");
    tw::hashp::iota(start, cnt, &mut scratch.sel);
    tw::gather::gather_i64(
        li.col("l_quantity").i64s(),
        &scratch.sel,
        SimdPolicy::Scalar,
        &mut scratch.v_qty,
    );
    tw::gather::gather_i64(
        li.col("l_extendedprice").i64s(),
        &scratch.sel,
        SimdPolicy::Scalar,
        &mut scratch.v_ext,
    );
    tw::gather::gather_i64(
        li.col("l_discount").i64s(),
        &scratch.sel,
        SimdPolicy::Scalar,
        &mut scratch.v_disc,
    );
    tw::map::map_rsub_const_i64(100, &scratch.v_disc, &mut scratch.v_om);
    tw::map::map_mul_i64(&scratch.v_ext, &scratch.v_om, &mut scratch.v_rev);
    out.line_count = cnt as i64;
    out.sum_qty = tw::map::sum_i64(&scratch.v_qty, SimdPolicy::Scalar);
    out.sum_revenue = tw::map::sum_i64(&scratch.v_rev, SimdPolicy::Scalar);
    Some(out)
}

/// Reusable buffers for [`lookup_tectorwise`].
#[derive(Default)]
pub struct TwLookupScratch {
    hashes: Vec<u64>,
    bufs: tw::ProbeBuffers,
    sel: Vec<u32>,
    v_qty: Vec<i64>,
    v_ext: Vec<i64>,
    v_disc: Vec<i64>,
    v_om: Vec<i64>,
    v_rev: Vec<i64>,
}

impl TwLookupScratch {
    pub fn new() -> Self {
        TwLookupScratch {
            bufs: tw::ProbeBuffers::new(),
            ..Default::default()
        }
    }
}

/// Volcano: a fresh interpreted plan per statement (plan construction +
/// per-tuple interpretation are the measured overhead).
pub fn lookup_volcano(db: &Database, orderkey: i32) -> Option<OrderDetails> {
    use dbep_volcano::{AggSpec, BinOp, CmpOp, Expr, Plan, Val};
    let exec = dbep_runtime::ExecCtx::inline();
    let this_order = Expr::cmp(CmpOp::Eq, Expr::col(0), Expr::lit_i32(orderkey));
    let ord_rows = Plan::scan("orders", &["o_orderkey", "o_custkey", "o_totalprice"])
        .select(this_order.clone())
        .run(db, &exec, None);
    let ord = ord_rows.first()?;
    let sums = Plan::scan(
        "lineitem",
        &["l_orderkey", "l_quantity", "l_extendedprice", "l_discount"],
    )
    .select(this_order)
    .aggregate(
        vec![],
        vec![
            AggSpec::Count,
            AggSpec::SumI64(Expr::col(1)),
            AggSpec::SumI64(Expr::arith(
                BinOp::Mul,
                Expr::col(2),
                Expr::arith(BinOp::Sub, Expr::lit_i64(100), Expr::col(3)),
            )),
        ],
    )
    .run(db, &exec, None);
    Some(OrderDetails {
        orderkey,
        custkey: match &ord[1] {
            Val::I32(v) => *v,
            other => panic!("unexpected custkey {other:?}"),
        },
        totalprice: ord[2].as_i64(),
        line_count: sums[0][0].as_i64(),
        sum_qty: sums[0][1].as_i64(),
        sum_revenue: sums[0][2].as_i64(),
    })
}
