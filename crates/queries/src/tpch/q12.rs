//! TPC-H Q12: shipmode IN-list + three date predicates (two of them
//! column-vs-column), a join against orders, and **dual CASE counters**
//! per ship mode — the workload's conditional-aggregation shape.
//!
//! ```sql
//! SELECT l_shipmode,
//!        sum(CASE WHEN o_orderpriority = '1-URGENT' OR o_orderpriority = '2-HIGH'
//!                 THEN 1 ELSE 0 END) AS high_line_count,
//!        sum(CASE WHEN o_orderpriority <> '1-URGENT' AND o_orderpriority <> '2-HIGH'
//!                 THEN 1 ELSE 0 END) AS low_line_count
//! FROM orders, lineitem
//! WHERE o_orderkey = l_orderkey AND l_shipmode IN ('MAIL', 'SHIP')
//!   AND l_commitdate < l_receiptdate AND l_shipdate < l_commitdate
//!   AND l_receiptdate >= DATE '1994-01-01' AND l_receiptdate < DATE '1995-01-01'
//! GROUP BY l_shipmode ORDER BY l_shipmode
//! ```
//!
//! Physical plan (identical in all engines): orders → HT_ord keyed by
//! `o_orderkey` carrying a precomputed "high priority" flag (leading
//! byte ≤ '2'); σ(lineitem, IN-list + dates) probes HT_ord; the group-by
//! domain equals the IN-list, so aggregation is a 2×2 counter matrix
//! `[mode][high/low]`. Two stages: `build_orders_ht` is one body for
//! both paradigms, `probe_lineitem` has a body each.

use crate::params::Q12Params;
use crate::result::{OrderBy, QueryResult, Value};
use crate::{Engine, ExecCfg, Params};
use dbep_runtime::hash::HashFn;
use dbep_runtime::JoinHt;
use dbep_storage::Database;
use dbep_vectorized as tw;
use dbep_volcano::{AggSpec, CmpOp, Expr, Plan, Row, Val};

/// `counts[mode][1]` = high_line_count, `counts[mode][0]` = low.
type ModeCounts = [[i64; 2]; 2];

fn merge(parts: Vec<ModeCounts>) -> ModeCounts {
    let mut all = [[0i64; 2]; 2];
    for p in parts {
        for g in 0..2 {
            all[g][0] += p[g][0];
            all[g][1] += p[g][1];
        }
    }
    all
}

fn finish(p: &Q12Params, counts: ModeCounts) -> QueryResult {
    let rows = (0..2)
        .filter(|&g| counts[g][0] + counts[g][1] > 0)
        .map(|g| {
            vec![
                Value::Str(p.modes[g].clone()),
                Value::I64(counts[g][1]),
                Value::I64(counts[g][0]),
            ]
        })
        .collect();
    result(rows)
}

/// The result columns, ordered by ship mode.
fn result(rows: Vec<Vec<Value>>) -> QueryResult {
    QueryResult::new(
        &["l_shipmode", "high_line_count", "low_line_count"],
        rows,
        &[OrderBy::asc(0)],
        None,
    )
}

/// Stage 0 (`build-orders`): orders → HT keyed by orderkey, payload
/// `(o_orderkey, high_flag)`. One body for both paradigms (the
/// per-tuple work is a byte compare; there is nothing to vectorize);
/// the build engine only picks the hash function.
fn build_orders_ht(db: &Database, cfg: &ExecCfg, hf: HashFn) -> JoinHt<(i32, u8)> {
    let ord = db.table("orders");
    let okey = ord.col("o_orderkey").i32s();
    let prio = ord.col("o_orderpriority").strs();
    cfg.build_ht(
        ord.len(),
        ord.flat_bits(&["o_orderkey", "o_orderpriority"]),
        || (),
        |(sh, ()), r| {
            for i in r {
                // '1-URGENT' and '2-HIGH' are exactly the priorities whose
                // leading byte is <= '2'.
                let high = (prio.get_bytes(i)[0] <= b'2') as u8;
                sh.push(hf.hash(okey[i] as u64), (okey[i], high));
            }
        },
    )
}

/// Stage 1 (`probe-lineitem`): σ(lineitem, IN-list + dates) ⋈ HT_ord →
/// the counter matrix. `hf` is the hash HT_ord was built with.
fn probe_lineitem(
    db: &Database,
    cfg: &ExecCfg,
    p: &Q12Params,
    engine: Engine,
    hf: HashFn,
    ht_ord: &JoinHt<(i32, u8)>,
) -> ModeCounts {
    // Bound IN-list as a byte table (the group-by domain).
    let modes: [&[u8]; 2] = [p.modes[0].as_bytes(), p.modes[1].as_bytes()];
    let (receipt_lo, receipt_hi) = (p.receipt_lo, p.receipt_hi);
    let li = db.table("lineitem");
    let lok = li.col("l_orderkey").i32s();
    let ship = li.col("l_shipdate").dates();
    let commit = li.col("l_commitdate").dates();
    let receipt = li.col("l_receiptdate").dates();
    let mode = li.col("l_shipmode").strs();
    let policy = cfg.policy;
    #[derive(Default)]
    struct Scratch {
        s1: Vec<u32>,
        s2: Vec<u32>,
        s3: Vec<u32>,
        s4: Vec<u32>,
        s5: Vec<u32>,
        hashes: Vec<u64>,
        bufs: tw::ProbeBuffers,
        v_high: Vec<u8>,
        v_mode: Vec<u8>,
        mode_sel: Vec<u32>,
        f_sel: Vec<u8>,
    }
    let parts = cfg.fold(
        engine,
        li.len(),
        li.flat_bits(&[
            "l_orderkey",
            "l_shipmode",
            "l_shipdate",
            "l_commitdate",
            "l_receiptdate",
        ]),
        <(ModeCounts, Scratch)>::default,
        // One fused probe loop with branch-free counter updates
        // (`counts[mode][flag] += 1`).
        |(counts, _), r| {
            for i in r {
                let s = mode.get_bytes(i);
                let g = match modes.iter().position(|&v| v == s) {
                    Some(g) => g,
                    None => continue,
                };
                if commit[i] < receipt[i]
                    && ship[i] < commit[i]
                    && receipt[i] >= receipt_lo
                    && receipt[i] < receipt_hi
                {
                    let h = hf.hash(lok[i] as u64);
                    for e in ht_ord.probe(h) {
                        if e.row.0 == lok[i] {
                            counts[g][e.row.1 as usize] += 1;
                        }
                    }
                }
            }
        },
        // IN-list selection, column-column compares, probe, then the
        // conditional-aggregation primitives (one char-selection per
        // mode, one flag count per CASE arm).
        |(counts, st), c| {
            // 1 dense IN-list + 4 sparse selections.
            if tw::sel::sel_in_str_dense(mode, &modes, c, &mut st.s1) == 0 {
                return;
            }
            if tw::sel::sel_lt_i32_col_sparse(commit, receipt, &st.s1, &mut st.s2, policy) == 0 {
                return;
            }
            if tw::sel::sel_lt_i32_col_sparse(ship, commit, &st.s2, &mut st.s3, policy) == 0 {
                return;
            }
            if tw::sel::sel_ge_i32_sparse(receipt, receipt_lo, &st.s3, &mut st.s4, policy) == 0 {
                return;
            }
            if tw::sel::sel_lt_i32_sparse(receipt, receipt_hi, &st.s4, &mut st.s5, policy) == 0 {
                return;
            }
            tw::hashp::hash_i32(lok, &st.s5, hf, &mut st.hashes);
            if tw::probe::probe_join(
                ht_ord,
                &st.hashes,
                &st.s5,
                |row, t| row.0 == lok[t as usize],
                policy,
                &mut st.bufs,
            ) == 0
            {
                return;
            }
            // Dual CASE counters: gather the build-side high flag and the
            // mode ordinal (full-string compare — IN-list members may
            // share a prefix), split per mode, count each arm.
            tw::gather::gather_build(ht_ord, &st.bufs.match_entry, |r| r.1, &mut st.v_high);
            tw::gather::gather_str_ordinal(mode, &st.bufs.match_tuple, &modes, &mut st.v_mode);
            for (g, count) in counts.iter_mut().enumerate() {
                let n = tw::sel::sel_eq_char_dense(&st.v_mode, g as u8, 0, &mut st.mode_sel);
                if n == 0 {
                    continue;
                }
                tw::gather::gather_u8(&st.v_high, &st.mode_sel, &mut st.f_sel);
                let high = tw::map::count_nonzero_u8(&st.f_sel, policy);
                count[1] += high;
                count[0] += n as i64 - high;
            }
        },
    );
    merge(parts.into_iter().map(|(c, _)| c).collect())
}

/// Registry entry (see [`crate::QueryPlan`]).
pub struct Q12;

impl crate::QueryPlan for Q12 {
    fn id(&self) -> crate::QueryId {
        crate::QueryId::Q12
    }

    /// The interpreted plan, the CASE arms as boolean-expression sums;
    /// the lineitem scan drives.
    fn volcano_plan(&self, params: &Params) -> Plan {
        let p = params.q12();
        let str_lit = |s: &str| Expr::Const(Val::Str(s.to_string()));
        let lineitem = Plan::scan(
            "lineitem",
            &[
                "l_orderkey",
                "l_shipmode",
                "l_shipdate",
                "l_commitdate",
                "l_receiptdate",
            ],
        )
        .select(Expr::And(vec![
            Expr::Or(vec![
                Expr::cmp(CmpOp::Eq, Expr::col(1), str_lit(&p.modes[0])),
                Expr::cmp(CmpOp::Eq, Expr::col(1), str_lit(&p.modes[1])),
            ]),
            Expr::cmp(CmpOp::Lt, Expr::col(3), Expr::col(4)),
            Expr::cmp(CmpOp::Lt, Expr::col(2), Expr::col(3)),
            Expr::cmp(CmpOp::Ge, Expr::col(4), Expr::lit_i32(p.receipt_lo)),
            Expr::cmp(CmpOp::Lt, Expr::col(4), Expr::lit_i32(p.receipt_hi)),
        ]));
        let high = Expr::Or(vec![
            Expr::cmp(CmpOp::Eq, Expr::col(1), str_lit("1-URGENT")),
            Expr::cmp(CmpOp::Eq, Expr::col(1), str_lit("2-HIGH")),
        ]);
        let low = Expr::And(vec![
            Expr::cmp(CmpOp::Ne, Expr::col(1), str_lit("1-URGENT")),
            Expr::cmp(CmpOp::Ne, Expr::col(1), str_lit("2-HIGH")),
        ]);
        // [o_orderkey, o_orderpriority] ++ the 5 lineitem columns.
        Plan::scan("orders", &["o_orderkey", "o_orderpriority"])
            .hash_join(vec![Expr::col(0)], lineitem, vec![Expr::col(0)])
            .aggregate(
                vec![Expr::col(3)],
                vec![AggSpec::SumI64(high), AggSpec::SumI64(low)],
            )
    }

    fn volcano_result(&self, _db: &Database, rows: Vec<Row>) -> QueryResult {
        let row = |r: &Row| {
            let mode = Value::Str(r[0].as_str().to_string());
            vec![mode, Value::I64(r[1].as_i64()), Value::I64(r[2].as_i64())]
        };
        result(rows.iter().map(row).collect())
    }

    fn stages(&self) -> &'static [crate::StageDesc] {
        use crate::{StageDesc, StageKind};
        // The build pipeline is one body for both paradigms; only the
        // probe pipeline has a body each.
        const S: &[crate::StageDesc] = &[
            StageDesc::new("build-orders", StageKind::JoinBuild),
            StageDesc::new("probe-lineitem", StageKind::JoinProbe),
        ];
        S
    }

    fn run_stages(&self, db: &Database, cfg: &ExecCfg, params: &Params, choices: &[Engine]) -> QueryResult {
        let p = params.q12();
        let [build, probe] = crate::assignment(choices);
        let hf = cfg.hash_for(build);
        let ht_ord = {
            let _s = cfg.stage(0);
            build_orders_ht(db, cfg, hf)
        };
        let _s = cfg.stage(1);
        finish(p, probe_lineitem(db, cfg, p, probe, hf, &ht_ord))
    }
}
