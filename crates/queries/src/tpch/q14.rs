//! TPC-H Q14: promo-revenue ratio — a string **prefix** predicate on the
//! build side and a conditional/total aggregate pair on the probe side.
//!
//! ```sql
//! SELECT 100.00 * sum(CASE WHEN p_type LIKE 'PROMO%'
//!                          THEN l_extendedprice * (1 - l_discount)
//!                          ELSE 0 END)
//!               / sum(l_extendedprice * (1 - l_discount)) AS promo_revenue
//! FROM lineitem, part
//! WHERE l_partkey = p_partkey
//!   AND l_shipdate >= DATE '1995-09-01' AND l_shipdate < DATE '1995-10-01'
//! ```
//!
//! Physical plan (identical in all engines): part → HT_part keyed by
//! `p_partkey`, payload carries the precomputed `LIKE 'PROMO%'` flag;
//! σ(lineitem, one-month ship window) probes HT_part and feeds two
//! accumulators — the flagged (CASE) revenue and the total revenue. The
//! final division is one shared fixed-point helper so all engines agree
//! bit-for-bit.
//!
//! Each of the two stages has an arm per paradigm and reads its table
//! in the format that table holds — a flat `part` beside an encoded
//! `lineitem` (or the reverse) is two independent reader choices, just
//! as a Typer build beside a Tectorwise probe is two independent
//! engine choices. The numeric columns come through the arm's column
//! reader (`dbep_compiled::RowScan`, `dbep_vectorized::Col`), `p_type`
//! through `PromoFlag`, and every scan is charged the widths its
//! readers report.

use crate::params::Q14Params;
use crate::result::{QueryResult, Value};
use crate::{Engine, ExecCfg, Params};
use dbep_compiled::{for_each_row, RowScan};
use dbep_runtime::hash::HashFn;
use dbep_runtime::JoinHt;
use dbep_storage::{Database, StrColumn, Table};
use dbep_vectorized as tw;
use dbep_volcano::{AggSpec, BinOp, CmpOp, Expr, Plan, Row};

/// What a scan of flat `p_type` is charged per row: its text, 21 bytes
/// on average (offsets are not charged).
const P_TYPE_TEXT_BITS: usize = 8 * 21;

/// `p_type LIKE '<prefix>%'` as a 0/1 flag per `part` row, read from
/// whichever form the table holds.
enum PromoFlag<'a> {
    /// Flat text: the prefix test runs per row.
    Flat(&'a StrColumn, &'a [u8]),
    /// Dictionary codes — the dictionary-coding payoff: the LIKE is
    /// evaluated once per dictionary entry and the per-row test
    /// collapses to a byte-indexed table lookup.
    Dict { codes: &'a [u8], flags: Vec<u8> },
}

impl<'a> PromoFlag<'a> {
    fn of(part: &'a Table, prefix: &'a [u8]) -> Self {
        match part.encoded("p_type") {
            Some(enc) => {
                let ptype = enc.dict_str();
                let flags = (0..ptype.dict().len())
                    .map(|c| ptype.dict().get_bytes(c).starts_with(prefix) as u8)
                    .collect();
                PromoFlag::Dict {
                    codes: ptype.codes(),
                    flags,
                }
            }
            None => PromoFlag::Flat(part.col("p_type").strs(), prefix),
        }
    }

    fn bits(&self) -> usize {
        match self {
            PromoFlag::Flat(..) => P_TYPE_TEXT_BITS,
            PromoFlag::Dict { .. } => 8,
        }
    }

    /// Row `i`'s flag (the compiled engine's per-row form).
    #[inline]
    fn get(&self, i: usize) -> u8 {
        match self {
            PromoFlag::Flat(col, prefix) => col.get_bytes(i).starts_with(prefix) as u8,
            PromoFlag::Dict { codes, flags } => flags[codes[i] as usize],
        }
    }

    /// `out[j]` = the flag of row `sel[j]` (the vectorized form: the
    /// string prefix-match primitive, or a code gather plus lookup).
    fn gather(&self, sel: &[u32], policy: tw::SimdPolicy, out: &mut Vec<u8>) {
        match self {
            PromoFlag::Flat(col, prefix) => tw::map::map_str_prefix_flags(col, sel, prefix, policy, out),
            PromoFlag::Dict { codes, flags } => {
                tw::gather::gather_u8(codes, sel, out);
                for f in out.iter_mut() {
                    *f = flags[*f as usize];
                }
            }
        }
    }
}

/// `100.00 * promo / total` as a scale-4 decimal (both sums are scale-4
/// fixed point; truncating division, shared by every engine).
fn finish(promo: i128, total: i128) -> QueryResult {
    let digits = if total == 0 { 0 } else { promo * 1_000_000 / total };
    QueryResult::new(&["promo_revenue"], vec![vec![Value::dec4(digits)]], &[], None)
}

/// Stage 0 (`build-part`): part → HT_part (partkey → PROMO flag),
/// hashed with `hf`.
fn build_part(db: &Database, cfg: &ExecCfg, p: &Q14Params, engine: Engine, hf: HashFn) -> JoinHt<(i32, u8)> {
    let part = db.table("part");
    let promo = PromoFlag::of(part, p.prefix.as_bytes());
    match engine {
        // A fused prefix test per row.
        Engine::Typer => {
            let pkey = RowScan::of(part, ["p_partkey"], []);
            cfg.build_ht(
                part.len(),
                pkey.bits() + promo.bits(),
                || (),
                |sh, _, r| {
                    for_each_row!(pkey, r, |i, [pk], []| {
                        let pk = pk as i32;
                        sh.push(hf.hash(pk as u64), (pk, promo.get(i)));
                    });
                },
            )
        }
        // The prefix test is a flag vector per build chunk.
        Engine::Tectorwise => {
            let pkey = tw::Col::<i32>::of(part, "p_partkey");
            let policy = cfg.policy;
            #[derive(Default)]
            struct Scratch {
                all: Vec<u32>,
                flags: Vec<u8>,
                v_pk: Vec<i64>,
                hashes: Vec<u64>,
            }
            cfg.build_ht(
                part.len(),
                pkey.bits() + promo.bits(),
                Scratch::default,
                |sh, st, r| {
                    for c in tw::chunks(r, cfg.vector_size) {
                        tw::hashp::iota(c.start as u32, c.len(), &mut st.all);
                        promo.gather(&st.all, policy, &mut st.flags);
                        pkey.hash(&st.all, hf, &mut st.v_pk, &mut st.hashes, policy);
                        for (j, &t) in st.all.iter().enumerate() {
                            sh.push(st.hashes[j], (pkey.get(t as usize) as i32, st.flags[j]));
                        }
                    }
                },
            )
        }
        other => unreachable!("{} is not a per-stage candidate", other.name()),
    }
}

/// Stage 1 (`probe-lineitem`): σ(lineitem) ⋈ HT_part → `(promo,
/// total)`. `hf` is the hash HT_part was built with.
fn probe_lineitem(
    db: &Database,
    cfg: &ExecCfg,
    p: &Q14Params,
    engine: Engine,
    hf: HashFn,
    ht_part: &JoinHt<(i32, u8)>,
) -> (i128, i128) {
    let li = db.table("lineitem");
    match engine {
        // One probe loop with two register-resident accumulators
        // (`promo += flag * rev`).
        Engine::Typer => {
            let (ship_lo, ship_hi) = (p.ship_lo as i64, p.ship_hi as i64);
            let scan = RowScan::of(li, ["l_partkey", "l_shipdate"], ["l_extendedprice", "l_discount"]);
            let parts = cfg.map_scan(
                li.len(),
                scan.bits(),
                |_| (0i128, 0i128),
                |(promo, total), r| {
                    for_each_row!(scan, r, |_, [pk, s], [e, d]| {
                        if s >= ship_lo && s < ship_hi {
                            let pk = pk as i32;
                            let h = hf.hash(pk as u64);
                            for entry in ht_part.probe(h) {
                                if entry.row.0 == pk {
                                    let rev = e * (100 - d);
                                    // Branch-free CASE: the flag gates the summand.
                                    *promo += (entry.row.1 as i64 * rev) as i128;
                                    *total += rev as i128;
                                }
                            }
                        }
                    });
                },
            );
            parts.into_iter().fold((0, 0), |a, b| (a.0 + b.0, a.1 + b.1))
        }
        // The conditional-sum primitive takes the CASE arm.
        Engine::Tectorwise => {
            let (ship_lo, ship_hi) = (p.ship_lo, p.ship_hi);
            let policy = cfg.policy;
            let lpk = tw::Col::<i32>::of(li, "l_partkey");
            let ship = tw::Col::<i32>::of(li, "l_shipdate");
            let ext = tw::Col::<i64>::of(li, "l_extendedprice");
            let disc = tw::Col::<i64>::of(li, "l_discount");
            #[derive(Default)]
            struct Scratch {
                promo: i128,
                total: i128,
                tmp: Vec<u32>,
                s1: Vec<u32>,
                hashes: Vec<u64>,
                bufs: tw::ProbeBuffers,
                v_pk: Vec<i64>,
                v_flag: Vec<u8>,
                v_ext: Vec<i64>,
                v_disc: Vec<i64>,
                v_om: Vec<i64>,
                v_rev: Vec<i64>,
            }
            let parts = cfg.map_scan(
                li.len(),
                lpk.bits() + ship.bits() + ext.bits() + disc.bits(),
                |_| Scratch::default(),
                |st, r| {
                    for c in tw::chunks(r, cfg.vector_size) {
                        // BETWEEN is inclusive: shipdate < hi becomes <= hi-1.
                        if ship.sel_between(ship_lo, ship_hi - 1, c, &mut st.tmp, &mut st.s1, policy) == 0 {
                            continue;
                        }
                        lpk.hash(&st.s1, hf, &mut st.v_pk, &mut st.hashes, policy);
                        if tw::probe::probe_join(
                            ht_part,
                            &st.hashes,
                            &st.s1,
                            |row, t| row.0 as i64 == lpk.get(t as usize),
                            policy,
                            &mut st.bufs,
                        ) == 0
                        {
                            continue;
                        }
                        tw::gather::gather_build(ht_part, &st.bufs.match_entry, |r| r.1, &mut st.v_flag);
                        ext.gather(&st.bufs.match_tuple, policy, &mut st.v_ext);
                        disc.gather(&st.bufs.match_tuple, policy, &mut st.v_disc);
                        tw::map::map_rsub_const_i64(100, &st.v_disc, &mut st.v_om);
                        tw::map::map_mul_i64(&st.v_ext, &st.v_om, &mut st.v_rev);
                        // Conditional (CASE) and total sums, one primitive each.
                        st.promo += tw::map::sum_i64_where_u8(&st.v_rev, &st.v_flag, policy) as i128;
                        st.total += tw::map::sum_i64(&st.v_rev, policy) as i128;
                    }
                },
            );
            parts
                .into_iter()
                .fold((0, 0), |a, b| (a.0 + b.promo, a.1 + b.total))
        }
        other => unreachable!("{} is not a per-stage candidate", other.name()),
    }
}

/// Registry entry (see [`crate::QueryPlan`]).
pub struct Q14;

impl crate::QueryPlan for Q14 {
    fn id(&self) -> crate::QueryId {
        crate::QueryId::Q14
    }

    /// The interpreted plan; the CASE arm is the revenue expression
    /// multiplied by the 0/1 `StartsWith` predicate. The lineitem scan
    /// drives.
    fn volcano_plan(&self, params: &Params) -> Plan {
        let p = params.q14();
        let lineitem = Plan::scan(
            "lineitem",
            &["l_partkey", "l_extendedprice", "l_discount", "l_shipdate"],
        )
        .select(Expr::And(vec![
            Expr::cmp(CmpOp::Ge, Expr::col(3), Expr::lit_i32(p.ship_lo)),
            Expr::cmp(CmpOp::Lt, Expr::col(3), Expr::lit_i32(p.ship_hi)),
        ]));
        // [p_partkey, p_type] ++ the 4 lineitem columns.
        let rev = Expr::arith(
            BinOp::Mul,
            Expr::col(3),
            Expr::arith(BinOp::Sub, Expr::lit_i64(100), Expr::col(4)),
        );
        let promo = Expr::arith(
            BinOp::Mul,
            rev.clone(),
            Expr::StartsWith(Box::new(Expr::col(1)), p.prefix.clone()),
        );
        Plan::scan("part", &["p_partkey", "p_type"])
            .hash_join(vec![Expr::col(0)], lineitem, vec![Expr::col(0)])
            .aggregate(vec![], vec![AggSpec::SumI64(promo), AggSpec::SumI64(rev)])
    }

    fn volcano_result(&self, _db: &Database, rows: Vec<Row>) -> QueryResult {
        finish(rows[0][0].as_i128(), rows[0][1].as_i128())
    }

    fn stages(&self) -> &'static [crate::StageDesc] {
        use crate::{StageDesc, StageKind};
        const S: &[crate::StageDesc] = &[
            StageDesc::new("build-part", StageKind::JoinBuild),
            StageDesc::new("probe-lineitem", StageKind::JoinProbe),
        ];
        S
    }

    fn run_stages(&self, db: &Database, cfg: &ExecCfg, params: &Params, choices: &[Engine]) -> QueryResult {
        let p = params.q14();
        let [build, probe] = crate::assignment(choices);
        let hf = cfg.hash_for(build);
        let ht_part = {
            let _s = cfg.stage(0);
            build_part(db, cfg, p, build, hf)
        };
        let _s = cfg.stage(1);
        let (promo, total) = probe_lineitem(db, cfg, p, probe, hf, &ht_part);
        finish(promo, total)
    }
}
