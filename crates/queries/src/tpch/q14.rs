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

use crate::params::Q14Params;
use crate::result::{QueryResult, Value};
use crate::{ExecCfg, Params};
use dbep_compiled::packed::scan_blocks;
use dbep_runtime::join_ht::JoinHtShard;
use dbep_runtime::JoinHt;
use dbep_storage::{Database, DictStrColumn, PackedInts, Table};
use dbep_vectorized as tw;

const PART_BITS: usize = 8 * (4 + 21); // partkey + type text, flat
const LI_BITS: usize = 8 * (4 + 4 + 8 + 8); // partkey + shipdate + price + discount, flat

const PART_COLS: [&str; 2] = ["p_partkey", "p_type"];
const LI_COLS: [&str; 4] = ["l_partkey", "l_shipdate", "l_extendedprice", "l_discount"];

/// Encoded companions for both sides of the join, if all are present:
/// packed `p_partkey`, dictionary-coded `p_type`, and the four packed
/// lineitem columns.
fn encoded_cols<'a>(
    part: &'a Table,
    li: &'a Table,
) -> Option<(&'a PackedInts, &'a DictStrColumn, [&'a PackedInts; 4])> {
    let pkey = part.encoded("p_partkey")?.packed();
    let ptype = part.encoded("p_type")?.dict_str();
    let mut out = [None; 4];
    for (slot, name) in out.iter_mut().zip(LI_COLS) {
        *slot = Some(li.encoded(name)?.packed());
    }
    Some((pkey, ptype, out.map(|c| c.expect("filled above"))))
}

/// `LIKE 'PROMO%'` evaluated once per dictionary entry instead of once
/// per row — the dictionary-coding payoff: the per-row prefix test
/// collapses to a byte-indexed table lookup.
fn promo_flags(ptype: &DictStrColumn, prefix: &[u8]) -> Vec<u8> {
    (0..ptype.dict().len())
        .map(|c| ptype.dict().get_bytes(c).starts_with(prefix) as u8)
        .collect()
}

/// `100.00 * promo / total` as a scale-4 decimal (both sums are scale-4
/// fixed point; truncating division, shared by every engine).
fn finish(promo: i128, total: i128) -> QueryResult {
    let digits = if total == 0 { 0 } else { promo * 1_000_000 / total };
    QueryResult::new(&["promo_revenue"], vec![vec![Value::dec4(digits)]], &[], None)
}

/// Typer over encoded storage: the build side reads dictionary codes
/// and flags them through [`promo_flags`]; both sides pull their packed
/// columns a block at a time through [`scan_blocks`].
fn typer_encoded(
    part: &Table,
    li: &Table,
    pkey: &PackedInts,
    ptype: &DictStrColumn,
    lcols: [&PackedInts; 4],
    cfg: &ExecCfg,
    p: &Q14Params,
) -> QueryResult {
    let (ship_lo, ship_hi) = (p.ship_lo as i64, p.ship_hi as i64);
    let hf = cfg.typer_hash();
    // Pipeline 1: part → HT_part (partkey → PROMO flag via dict codes).
    let _s0 = cfg.stage(0);
    let flags = promo_flags(ptype, p.prefix.as_bytes());
    let codes = ptype.codes();
    let shards = cfg.map_scan(
        part.len(),
        part.row_bits(&PART_COLS),
        |_| JoinHtShard::<(i32, u8)>::new(),
        |sh, r| {
            scan_blocks([pkey], r, |i, [pk]| {
                let pk = pk as i32;
                sh.push(hf.hash(pk as u64), (pk, flags[codes[i] as usize]));
            });
        },
    );
    let ht_part = JoinHt::from_shards(shards, &cfg.exec());
    drop(_s0);

    // Pipeline 2: σ(lineitem) ⋈ HT_part → (promo, total).
    let _s1 = cfg.stage(1);
    let parts = cfg.map_scan(
        li.len(),
        li.row_bits(&LI_COLS),
        |_| (0i128, 0i128),
        |(promo, total), r| {
            scan_blocks(lcols, r, |_, [pk, s, e, d]| {
                if s >= ship_lo && s < ship_hi {
                    let pk = pk as i32;
                    let h = hf.hash(pk as u64);
                    for entry in ht_part.probe(h) {
                        if entry.row.0 == pk {
                            let rev = e * (100 - d);
                            *promo += (entry.row.1 as i64 * rev) as i128;
                            *total += rev as i128;
                        }
                    }
                }
            });
        },
    );
    let (promo, total) = parts.into_iter().fold((0, 0), |a, b| (a.0 + b.0, a.1 + b.1));
    finish(promo, total)
}

/// Typer: build with a fused prefix test, then one probe loop with two
/// register-resident accumulators (`promo += flag * rev`).
pub fn typer(db: &Database, cfg: &ExecCfg, p: &Q14Params) -> QueryResult {
    let part = db.table("part");
    let li = db.table("lineitem");
    if let Some((pkey, ptype, lcols)) = encoded_cols(part, li) {
        return typer_encoded(part, li, pkey, ptype, lcols, cfg, p);
    }
    let prefix = p.prefix.as_bytes();
    let (ship_lo, ship_hi) = (p.ship_lo, p.ship_hi);
    let hf = cfg.typer_hash();
    // Pipeline 1: part → HT_part (partkey → PROMO flag).
    let _s0 = cfg.stage(0);
    let pkey = part.col("p_partkey").i32s();
    let ptype = part.col("p_type").strs();
    let shards = cfg.map_scan(
        part.len(),
        PART_BITS,
        |_| JoinHtShard::<(i32, u8)>::new(),
        |sh, r| {
            for i in r {
                let promo = ptype.get_bytes(i).starts_with(prefix) as u8;
                sh.push(hf.hash(pkey[i] as u64), (pkey[i], promo));
            }
        },
    );
    let ht_part = JoinHt::from_shards(shards, &cfg.exec());
    drop(_s0);

    // Pipeline 2: σ(lineitem) ⋈ HT_part → (promo, total).
    let _s1 = cfg.stage(1);
    let li = db.table("lineitem");
    let lpk = li.col("l_partkey").i32s();
    let ship = li.col("l_shipdate").dates();
    let ext = li.col("l_extendedprice").i64s();
    let disc = li.col("l_discount").i64s();
    let parts = cfg.map_scan(
        li.len(),
        LI_BITS,
        |_| (0i128, 0i128),
        |(promo, total), r| {
            for i in r {
                if ship[i] >= ship_lo && ship[i] < ship_hi {
                    let h = hf.hash(lpk[i] as u64);
                    for e in ht_part.probe(h) {
                        if e.row.0 == lpk[i] {
                            let rev = ext[i] * (100 - disc[i]);
                            // Branch-free CASE: the flag gates the summand.
                            *promo += (e.row.1 as i64 * rev) as i128;
                            *total += rev as i128;
                        }
                    }
                }
            }
        },
    );
    let (promo, total) = parts.into_iter().fold((0, 0), |a, b| (a.0 + b.0, a.1 + b.1));
    finish(promo, total)
}

/// Tectorwise over encoded storage: the build-side prefix primitive
/// becomes a dictionary flag lookup; the probe side runs a fused BETWEEN
/// kernel on the packed shipdate and decodes join keys and measures with
/// conditional-aggregate readers.
fn tectorwise_encoded(
    part: &Table,
    li: &Table,
    pkey: &PackedInts,
    ptype: &DictStrColumn,
    lcols: [&PackedInts; 4],
    cfg: &ExecCfg,
    p: &Q14Params,
) -> QueryResult {
    let (ship_lo, ship_hi) = (p.ship_lo, p.ship_hi);
    let hf = cfg.tw_hash();
    let policy = cfg.policy;
    // Pipeline 1: part → HT_part. The per-row LIKE collapses to a
    // byte-indexed lookup, so the vector loop degenerates to one pass.
    let _s0 = cfg.stage(0);
    let flags = promo_flags(ptype, p.prefix.as_bytes());
    let codes = ptype.codes();
    let shards = cfg.map_scan(
        part.len(),
        part.row_bits(&PART_COLS),
        |_| JoinHtShard::<(i32, u8)>::new(),
        |sh, r| {
            scan_blocks([pkey], r, |i, [pk]| {
                let pk = pk as i32;
                sh.push(hf.hash(pk as u64), (pk, flags[codes[i] as usize]));
            });
        },
    );
    let ht_part = JoinHt::from_shards(shards, &cfg.exec());
    drop(_s0);

    // Pipeline 2: σ(lineitem) ⋈ HT_part → (promo, total).
    let _s1 = cfg.stage(1);
    let [lpk, ship, ext, disc] = lcols;
    #[derive(Default)]
    struct Scratch {
        promo: i128,
        total: i128,
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
        li.row_bits(&LI_COLS),
        |_| Scratch::default(),
        |st, r| {
            for c in tw::chunks(r, cfg.vector_size) {
                // One fused BETWEEN kernel replaces the two-step cascade.
                if tw::sel::sel_between_i32_for(ship, ship_lo, ship_hi - 1, c, &mut st.s1, policy) == 0 {
                    continue;
                }
                // Join keys decode straight into the hash input vector.
                tw::gather::gather_packed_i64(lpk, &st.s1, policy, &mut st.v_pk);
                st.hashes.clear();
                st.hashes.extend(st.v_pk.iter().map(|&k| hf.hash(k as u64)));
                if tw::probe::probe_join(
                    &ht_part,
                    &st.hashes,
                    &st.s1,
                    |row, t| row.0 as i64 == lpk.get(t as usize),
                    policy,
                    &mut st.bufs,
                ) == 0
                {
                    continue;
                }
                tw::gather::gather_build(&ht_part, &st.bufs.match_entry, |r| r.1, &mut st.v_flag);
                tw::gather::gather_packed_i64(ext, &st.bufs.match_tuple, policy, &mut st.v_ext);
                tw::gather::gather_packed_i64(disc, &st.bufs.match_tuple, policy, &mut st.v_disc);
                tw::map::map_rsub_const_i64(100, &st.v_disc, &mut st.v_om);
                tw::map::map_mul_i64(&st.v_ext, &st.v_om, &mut st.v_rev);
                st.promo += tw::map::sum_i64_where_u8(&st.v_rev, &st.v_flag, policy) as i128;
                st.total += tw::map::sum_i64(&st.v_rev, policy) as i128;
            }
        },
    );
    let (promo, total) = parts
        .into_iter()
        .fold((0, 0), |a, b| (a.0 + b.promo, a.1 + b.total));
    finish(promo, total)
}

/// Tectorwise: the prefix test is the vectorized string prefix-match
/// primitive at build; the probe side uses the conditional-sum primitive
/// for the CASE arm.
pub fn tectorwise(db: &Database, cfg: &ExecCfg, p: &Q14Params) -> QueryResult {
    let part = db.table("part");
    let li = db.table("lineitem");
    if let Some((pkey, ptype, lcols)) = encoded_cols(part, li) {
        return tectorwise_encoded(part, li, pkey, ptype, lcols, cfg, p);
    }
    let prefix = p.prefix.as_bytes();
    let (ship_lo, ship_hi) = (p.ship_lo, p.ship_hi);
    let hf = cfg.tw_hash();
    let policy = cfg.policy;
    // Pipeline 1: part → HT_part.
    let _s0 = cfg.stage(0);
    let pkey = part.col("p_partkey").i32s();
    let ptype = part.col("p_type").strs();
    let shards = cfg.map_scan(
        part.len(),
        PART_BITS,
        |_| {
            (
                JoinHtShard::<(i32, u8)>::new(),
                Vec::new(),
                Vec::new(),
                Vec::new(),
            )
        },
        |(sh, all, flags, hashes), r| {
            for c in tw::chunks(r, cfg.vector_size) {
                tw::hashp::iota(c.start as u32, c.len(), all);
                tw::map::map_str_prefix_flags(ptype, all, prefix, policy, flags);
                tw::hashp::hash_i32(pkey, all, hf, hashes);
                for (j, &t) in all.iter().enumerate() {
                    sh.push(hashes[j], (pkey[t as usize], flags[j]));
                }
            }
        },
    );
    let shards = shards.into_iter().map(|(sh, ..)| sh).collect();
    let ht_part = JoinHt::from_shards(shards, &cfg.exec());
    drop(_s0);

    // Pipeline 2: σ(lineitem) ⋈ HT_part → (promo, total).
    let _s1 = cfg.stage(1);
    let li = db.table("lineitem");
    let lpk = li.col("l_partkey").i32s();
    let ship = li.col("l_shipdate").dates();
    let ext = li.col("l_extendedprice").i64s();
    let disc = li.col("l_discount").i64s();
    #[derive(Default)]
    struct Scratch {
        promo: i128,
        total: i128,
        s1: Vec<u32>,
        s2: Vec<u32>,
        hashes: Vec<u64>,
        bufs: tw::ProbeBuffers,
        v_flag: Vec<u8>,
        v_ext: Vec<i64>,
        v_disc: Vec<i64>,
        v_om: Vec<i64>,
        v_rev: Vec<i64>,
    }
    let parts = cfg.map_scan(
        li.len(),
        LI_BITS,
        |_| Scratch::default(),
        |st, r| {
            for c in tw::chunks(r, cfg.vector_size) {
                if tw::sel::sel_ge_i32_dense(&ship[c.clone()], ship_lo, c.start as u32, &mut st.s1, policy)
                    == 0
                {
                    continue;
                }
                if tw::sel::sel_lt_i32_sparse(ship, ship_hi, &st.s1, &mut st.s2, policy) == 0 {
                    continue;
                }
                tw::hashp::hash_i32(lpk, &st.s2, hf, &mut st.hashes);
                if tw::probe::probe_join(
                    &ht_part,
                    &st.hashes,
                    &st.s2,
                    |row, t| row.0 == lpk[t as usize],
                    policy,
                    &mut st.bufs,
                ) == 0
                {
                    continue;
                }
                tw::gather::gather_build(&ht_part, &st.bufs.match_entry, |r| r.1, &mut st.v_flag);
                tw::gather::gather_i64(ext, &st.bufs.match_tuple, policy, &mut st.v_ext);
                tw::gather::gather_i64(disc, &st.bufs.match_tuple, policy, &mut st.v_disc);
                tw::map::map_rsub_const_i64(100, &st.v_disc, &mut st.v_om);
                tw::map::map_mul_i64(&st.v_ext, &st.v_om, &mut st.v_rev);
                // Conditional (CASE) and total sums, one primitive each.
                st.promo += tw::map::sum_i64_where_u8(&st.v_rev, &st.v_flag, policy) as i128;
                st.total += tw::map::sum_i64(&st.v_rev, policy) as i128;
            }
        },
    );
    let (promo, total) = parts
        .into_iter()
        .fold((0, 0), |a, b| (a.0 + b.promo, a.1 + b.total));
    finish(promo, total)
}

/// Volcano: interpreted plan; the CASE arm is the revenue expression
/// multiplied by the 0/1 `StartsWith` predicate. The driving lineitem
/// scan is morsel-partitioned across `cfg.threads` workers; partial sums
/// add up here.
pub fn volcano(db: &Database, cfg: &ExecCfg, p: &Q14Params) -> QueryResult {
    use dbep_runtime::Morsels;
    use dbep_volcano::{exchange, AggSpec, Aggregate, BinOp, CmpOp, Expr, HashJoin, Scan, Select};
    let li = db.table("lineitem");
    let m = Morsels::new(li.len());
    let partials = exchange::union(&cfg.exec(), |_| {
        let li_f = Select {
            input: Box::new(
                Scan::new(li, &["l_partkey", "l_extendedprice", "l_discount", "l_shipdate"])
                    .paced(cfg.throttle)
                    .recorded(cfg.sched)
                    .morsel_driven(&m),
            ),
            pred: Expr::And(vec![
                Expr::cmp(CmpOp::Ge, Expr::col(3), Expr::lit_i32(p.ship_lo)),
                Expr::cmp(CmpOp::Lt, Expr::col(3), Expr::lit_i32(p.ship_hi)),
            ]),
        };
        // rows: [p_partkey, p_type] ++ the 4 lineitem columns.
        let join = HashJoin::new(
            Box::new(
                Scan::new(db.table("part"), &["p_partkey", "p_type"])
                    .paced(cfg.throttle)
                    .recorded(cfg.sched),
            ),
            vec![Expr::col(0)],
            Box::new(li_f),
            vec![Expr::col(0)],
        );
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
        Box::new(Aggregate::new(
            Box::new(join),
            vec![],
            vec![AggSpec::SumI64(promo), AggSpec::SumI64(rev)],
        ))
    });
    let (promo, total) = partials.iter().fold((0i128, 0i128), |a, r| {
        (a.0 + r[0].as_i128(), a.1 + r[1].as_i128())
    });
    finish(promo, total)
}

/// Registry entry (see [`crate::QueryPlan`]).
pub struct Q14;

impl crate::QueryPlan for Q14 {
    fn id(&self) -> crate::QueryId {
        crate::QueryId::Q14
    }

    fn tuples_scanned(&self, db: &Database) -> usize {
        db.table("part").len() + db.table("lineitem").len()
    }

    fn stages(&self) -> &'static [crate::StageDesc] {
        use crate::{StageDesc, StageKind};
        const S: &[crate::StageDesc] = &[
            StageDesc::new("build-part", StageKind::JoinBuild),
            StageDesc::new("probe-lineitem", StageKind::JoinProbe),
        ];
        S
    }

    fn typer(&self, db: &Database, cfg: &ExecCfg, params: &Params) -> QueryResult {
        typer(db, cfg, params.q14())
    }

    fn tectorwise(&self, db: &Database, cfg: &ExecCfg, params: &Params) -> QueryResult {
        tectorwise(db, cfg, params.q14())
    }

    fn volcano(&self, db: &Database, cfg: &ExecCfg, params: &Params) -> QueryResult {
        volcano(db, cfg, params.q14())
    }
}
