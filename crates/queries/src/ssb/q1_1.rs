//! SSB Q1.1: selective fact filter + one dimension probe.
//!
//! ```sql
//! SELECT sum(lo_extendedprice * lo_discount) AS revenue
//! FROM lineorder, date
//! WHERE lo_orderdate = d_datekey AND d_year = 1993
//!   AND lo_discount BETWEEN 1 AND 3 AND lo_quantity < 25
//! ```
//!
//! Two stages: the date build is one body for both paradigms, the fact
//! scan has a body each. Both run on the paced driver. The date build
//! reads the flat date columns in every layout and is charged their
//! flat width (`Table::flat_bits`). The four fact columns come through
//! the body's column reader (`dbep_compiled::RowScan`,
//! `dbep_vectorized::Col`) in whichever format `lineorder` holds, and
//! the fact scan is charged the widths the readers report.

use crate::params::SsbQ11Params;
use crate::result::{QueryResult, Value};
use crate::ssb::build_dim;
use crate::{Engine, ExecCfg, Params};
use dbep_compiled::{for_each_row, RowScan};
use dbep_runtime::hash::HashFn;
use dbep_runtime::JoinHt;
use dbep_storage::Database;
use dbep_vectorized as tw;
use dbep_volcano::{AggSpec, BinOp, CmpOp, Expr, Plan, Row};

fn finish(revenue: i64) -> QueryResult {
    QueryResult::new(&["revenue"], vec![vec![Value::dec4(revenue as i128)]], &[], None)
}

/// Stage 0 (`build-date`), one body for both paradigms: σ(date, year)
/// → HT_d, a paced and charged scan of the flat date columns in every
/// layout — compressing the tiny dimension saves nothing measurable.
fn build_date_ht(db: &Database, cfg: &ExecCfg, hf: HashFn, year: i32) -> JoinHt<i32> {
    let d = db.table("date");
    let (dk, dy) = (d.col("d_datekey").i32s(), d.col("d_year").i32s());
    build_dim(cfg, d, &["d_datekey", "d_year"], hf, |i| {
        (dy[i] == year).then(|| (dk[i], dk[i]))
    })
}

/// Stage 1 (`scan-filter-lineorder`): σ(lineorder) ⋈ HT_d → SUM. `hf`
/// is the hash HT_d was built with.
fn scan_lineorder(
    db: &Database,
    cfg: &ExecCfg,
    p: &SsbQ11Params,
    engine: Engine,
    hf: HashFn,
    ht_d: &JoinHt<i32>,
) -> i64 {
    let lo = db.table("lineorder");
    let (disc_lo, disc_hi, qty_hi) = (p.disc_lo, p.disc_hi, p.qty_hi);
    let scan = RowScan::of(
        lo,
        ["lo_orderdate"],
        ["lo_discount", "lo_quantity", "lo_extendedprice"],
    );
    let od = tw::Col::<i32>::of(lo, "lo_orderdate");
    let disc = tw::Col::<i64>::of(lo, "lo_discount");
    let qty = tw::Col::<i64>::of(lo, "lo_quantity");
    let ext = tw::Col::<i64>::of(lo, "lo_extendedprice");
    let policy = cfg.policy;
    #[derive(Default)]
    struct Scratch {
        s1: Vec<u32>,
        s2: Vec<u32>,
        hashes: Vec<u64>,
        bufs: tw::ProbeBuffers,
        v_od: Vec<i64>,
        v_ext: Vec<i64>,
        v_disc: Vec<i64>,
        v_rev: Vec<i64>,
    }
    let locals = cfg.fold(
        engine,
        lo.len(),
        scan.bits(),
        <(i64, Scratch)>::default,
        // Fused filter + probe + sum.
        |(local, _), r| {
            for_each_row!(scan, r, |_, [o], [d, q, e]| {
                if d >= disc_lo && d <= disc_hi && q < qty_hi {
                    let o = o as i32;
                    let h = hf.hash(o as u64);
                    if ht_d.probe(h).any(|entry| entry.row == o) {
                        *local += e * d;
                    }
                }
            });
        },
        // Two selections, one probe, gather/multiply/sum.
        |(local, st), c| {
            if disc.sel_between(disc_lo, disc_hi, c, &mut st.s1, policy) == 0 {
                return;
            }
            if qty.sel_lt_sparse(qty_hi, &st.s1, &mut st.s2, policy) == 0 {
                return;
            }
            od.hash(&st.s2, hf, &mut st.v_od, &mut st.hashes, policy);
            if tw::probe::probe_join(
                ht_d,
                &st.hashes,
                &st.s2,
                |row, t| *row as i64 == od.get(t as usize),
                policy,
                &mut st.bufs,
            ) == 0
            {
                return;
            }
            ext.gather(&st.bufs.match_tuple, policy, &mut st.v_ext);
            disc.gather(&st.bufs.match_tuple, policy, &mut st.v_disc);
            tw::map::map_mul_i64(&st.v_ext, &st.v_disc, &mut st.v_rev);
            *local += tw::map::sum_i64(&st.v_rev, policy);
        },
    );
    locals.into_iter().map(|(local, _)| local).sum()
}

/// Registry entry (see [`crate::QueryPlan`]).
pub struct Q11;

impl crate::QueryPlan for Q11 {
    fn id(&self) -> crate::QueryId {
        crate::QueryId::Ssb1_1
    }

    /// The interpreted join and aggregate; the fact scan drives.
    fn volcano_plan(&self, params: &Params) -> Plan {
        let p = params.ssb1_1();
        let dates = Plan::scan("date", &["d_datekey", "d_year"]).select(Expr::cmp(
            CmpOp::Eq,
            Expr::col(1),
            Expr::lit_i32(p.year),
        ));
        let fact = Plan::scan(
            "lineorder",
            &["lo_orderdate", "lo_discount", "lo_quantity", "lo_extendedprice"],
        )
        .select(Expr::And(vec![
            Expr::cmp(CmpOp::Ge, Expr::col(1), Expr::lit_i64(p.disc_lo)),
            Expr::cmp(CmpOp::Le, Expr::col(1), Expr::lit_i64(p.disc_hi)),
            Expr::cmp(CmpOp::Lt, Expr::col(2), Expr::lit_i64(p.qty_hi)),
        ]));
        // [d_datekey, d_year, lo_orderdate, lo_discount, lo_quantity, lo_ext]
        dates
            .hash_join(vec![Expr::col(0)], fact, vec![Expr::col(0)])
            .aggregate(
                vec![],
                vec![AggSpec::SumI64(Expr::arith(
                    BinOp::Mul,
                    Expr::col(5),
                    Expr::col(3),
                ))],
            )
    }

    fn volcano_result(&self, _db: &Database, rows: Vec<Row>) -> QueryResult {
        finish(rows[0][0].as_i64())
    }

    fn stages(&self) -> &'static [crate::StageDesc] {
        use crate::{StageDesc, StageKind};
        // The date build keeps one year of a tiny dimension; the fact
        // scan is selection-dominated (the date probe hits a table that
        // fits in L1).
        const S: &[crate::StageDesc] = &[
            StageDesc::new("build-date", StageKind::JoinBuild),
            StageDesc::new("scan-filter-lineorder", StageKind::ScanFilter),
        ];
        S
    }

    fn run_stages(&self, db: &Database, cfg: &ExecCfg, params: &Params, choices: &[Engine]) -> QueryResult {
        let p = params.ssb1_1();
        let [build, scan] = crate::assignment(choices);
        let hf = cfg.hash_for(build);
        let ht_d = {
            let _s = cfg.stage(0);
            build_date_ht(db, cfg, hf, p.year)
        };
        let _s = cfg.stage(1);
        finish(scan_lineorder(db, cfg, p, scan, hf, &ht_d))
    }
}
