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

use crate::params::Q1Params;
use crate::result::{avg_i64, OrderBy, QueryResult, Value};
use crate::{ExecCfg, Params};
use dbep_compiled::packed::scan_blocks;
use dbep_runtime::agg_ht::merge_partitions;
use dbep_runtime::GroupByShard;
use dbep_storage::{Database, PackedInts, Table};
use dbep_vectorized as tw;

/// Bytes read per scanned lineitem row (5×i64 + date + 2×char), flat.
const ROW_BITS: usize = 8 * (5 * 8 + 4 + 2);

/// All seven scanned columns (bandwidth accounting); the first five are
/// bit-packed, the two char flags stay flat (already one byte).
const COLS: [&str; 7] = [
    "l_shipdate",
    "l_quantity",
    "l_extendedprice",
    "l_discount",
    "l_tax",
    "l_returnflag",
    "l_linestatus",
];

/// Bit-packed companions for the five numeric columns, if present.
fn packed_cols(li: &Table) -> Option<[&PackedInts; 5]> {
    let mut out = [None; 5];
    for (slot, name) in out.iter_mut().zip(COLS) {
        *slot = Some(li.encoded(name)?.packed());
    }
    Some(out.map(|c| c.expect("filled above")))
}
/// Pre-aggregation capacity: Q1 has 4 groups, but sizing generously
/// keeps the shard generic.
const PREAGG_GROUPS: usize = 1 << 12;

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

/// Typer over encoded storage: the same fused loop body, fed by
/// [`scan_blocks`] — the five numeric columns are unpacked a block at a
/// time into L1-resident buffers; the char flags stay flat.
fn typer_encoded(li: &Table, cols: [&PackedInts; 5], cfg: &ExecCfg, p: &Q1Params) -> QueryResult {
    let ship_cut = p.ship_cut as i64;
    let rf = li.col("l_returnflag").chars();
    let ls = li.col("l_linestatus").chars();
    let hf = cfg.typer_hash();
    let shards = cfg.map_scan(
        li.len(),
        li.row_bits(&COLS),
        |_| GroupByShard::<(u8, u8), Q1Agg>::new(PREAGG_GROUPS),
        |shard, r| {
            scan_blocks(cols, r, |i, [s, q, e, d, t]| {
                if s <= ship_cut {
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
    );
    let shards = shards.into_iter().map(GroupByShard::finish).collect();
    finish(merge_partitions(shards, &cfg.exec(), Q1Agg::merge))
}

/// Typer: the fused loop a data-centric generator emits (Fig. 2a shape).
pub fn typer(db: &Database, cfg: &ExecCfg, p: &Q1Params) -> QueryResult {
    let _stage = cfg.stage(0);
    let li = db.table("lineitem");
    if let Some(cols) = packed_cols(li) {
        return typer_encoded(li, cols, cfg, p);
    }
    let ship_cut = p.ship_cut;
    let ship = li.col("l_shipdate").dates();
    let qty = li.col("l_quantity").i64s();
    let ext = li.col("l_extendedprice").i64s();
    let disc = li.col("l_discount").i64s();
    let tax = li.col("l_tax").i64s();
    let rf = li.col("l_returnflag").chars();
    let ls = li.col("l_linestatus").chars();
    let hf = cfg.typer_hash();
    let shards = cfg.map_scan(
        li.len(),
        ROW_BITS,
        |_| GroupByShard::<(u8, u8), Q1Agg>::new(PREAGG_GROUPS),
        |shard, r| {
            for i in r {
                if ship[i] <= ship_cut {
                    // All intermediates live in registers until the
                    // single aggregate update — the fused pipeline.
                    let disc_price = ext[i] * (100 - disc[i]);
                    let charge = disc_price as i128 * (100 + tax[i]) as i128;
                    let key = (rf[i], ls[i]);
                    let h = hf.rehash(hf.hash(key.0 as u64), key.1 as u64);
                    shard.update(h, key, Q1Agg::default, |a| {
                        a.qty += qty[i];
                        a.base += ext[i];
                        a.disc_price += disc_price;
                        a.charge += charge;
                        a.disc += disc[i];
                        a.count += 1;
                    });
                }
            }
        },
    );
    let shards = shards.into_iter().map(GroupByShard::finish).collect();
    finish(merge_partitions(shards, &cfg.exec(), Q1Agg::merge))
}

/// Tectorwise over encoded storage: the dense selection becomes a fused
/// decompress-and-select kernel and every measure gather becomes a
/// conditional-aggregate reader; the arithmetic/aggregate primitives are
/// unchanged and never see compressed data.
fn tectorwise_encoded(li: &Table, cols: [&PackedInts; 5], cfg: &ExecCfg, p: &Q1Params) -> QueryResult {
    let ship_cut = p.ship_cut;
    let [ship, qty, ext, disc, tax] = cols;
    let rf = li.col("l_returnflag").chars();
    let ls = li.col("l_linestatus").chars();
    let hf = cfg.tw_hash();
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
    let shards = cfg.map_scan(
        li.len(),
        li.row_bits(&COLS),
        |_| {
            (
                GroupByShard::<(u8, u8), Q1Agg>::new(PREAGG_GROUPS),
                Scratch::default(),
            )
        },
        |(shard, st), r| {
            for c in tw::chunks(r, cfg.vector_size) {
                let n = tw::sel::sel_le_i32_packed(ship, ship_cut, c, &mut st.sel, policy);
                if n == 0 {
                    continue;
                }
                tw::hashp::hash_u8(rf, &st.sel, hf, &mut st.hashes);
                tw::hashp::rehash_u8(ls, &st.sel, hf, &mut st.hashes);
                tw::grouping::find_groups(
                    &shard.ht,
                    &st.hashes,
                    &st.sel,
                    |k, t| k.0 == rf[t as usize] && k.1 == ls[t as usize],
                    &mut st.gb,
                );
                // Misses: per-tuple find-or-insert on the private shard.
                for &t in &st.gb.miss_sel {
                    let ti = t as usize;
                    let key = (rf[ti], ls[ti]);
                    let h = hf.rehash(hf.hash(key.0 as u64), key.1 as u64);
                    let (e, d) = (ext.get(ti), disc.get(ti));
                    let disc_price = e * (100 - d);
                    shard.update(h, key, Q1Agg::default, |a| {
                        a.qty += qty.get(ti);
                        a.base += e;
                        a.disc_price += disc_price;
                        a.charge += disc_price as i128 * (100 + tax.get(ti)) as i128;
                        a.disc += d;
                        a.count += 1;
                    });
                }
                if st.gb.groups.is_empty() {
                    continue;
                }
                // Hits: vector-at-a-time; measures decode straight into
                // the dense vectors the aggregate primitives consume.
                tw::gather::gather_packed_i64(qty, &st.gb.group_sel, policy, &mut st.v_qty);
                tw::grouping::agg_update_i64(&mut shard.ht, &st.gb.groups, &st.v_qty, |a, v| a.qty += v);
                tw::gather::gather_packed_i64(ext, &st.gb.group_sel, policy, &mut st.v_ext);
                tw::grouping::agg_update_i64(&mut shard.ht, &st.gb.groups, &st.v_ext, |a, v| a.base += v);
                tw::gather::gather_packed_i64(disc, &st.gb.group_sel, policy, &mut st.v_disc);
                tw::map::map_rsub_const_i64(100, &st.v_disc, &mut st.v_om);
                tw::map::map_mul_i64(&st.v_ext, &st.v_om, &mut st.v_dp);
                tw::grouping::agg_update_i64(&mut shard.ht, &st.gb.groups, &st.v_dp, |a, v| {
                    a.disc_price += v
                });
                tw::gather::gather_packed_i64(tax, &st.gb.group_sel, policy, &mut st.v_tax);
                tw::map::map_add_const_i64(100, &st.v_tax, &mut st.v_ot);
                tw::map::map_mul_i64(&st.v_dp, &st.v_ot, &mut st.v_ch);
                tw::grouping::agg_update_i64(&mut shard.ht, &st.gb.groups, &st.v_ch, |a, v| {
                    a.charge += v as i128
                });
                tw::grouping::agg_update_i64(&mut shard.ht, &st.gb.groups, &st.v_disc, |a, v| a.disc += v);
                tw::grouping::agg_update_unit(&mut shard.ht, &st.gb.groups, |a| a.count += 1);
            }
        },
    );
    let shards = shards.into_iter().map(|(shard, _)| shard.finish()).collect();
    finish(merge_partitions(shards, &cfg.exec(), Q1Agg::merge))
}

/// Tectorwise: selection → hash → find-groups → one aggregate-update
/// primitive per sum, with every intermediate materialized (Fig. 2b
/// shape).
pub fn tectorwise(db: &Database, cfg: &ExecCfg, p: &Q1Params) -> QueryResult {
    let _stage = cfg.stage(0);
    let li = db.table("lineitem");
    if let Some(cols) = packed_cols(li) {
        return tectorwise_encoded(li, cols, cfg, p);
    }
    let ship_cut = p.ship_cut;
    let ship = li.col("l_shipdate").dates();
    let qty = li.col("l_quantity").i64s();
    let ext = li.col("l_extendedprice").i64s();
    let disc = li.col("l_discount").i64s();
    let tax = li.col("l_tax").i64s();
    let rf = li.col("l_returnflag").chars();
    let ls = li.col("l_linestatus").chars();
    let hf = cfg.tw_hash();
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
    let shards = cfg.map_scan(
        li.len(),
        ROW_BITS,
        |_| {
            (
                GroupByShard::<(u8, u8), Q1Agg>::new(PREAGG_GROUPS),
                Scratch::default(),
            )
        },
        |(shard, st), r| {
            for c in tw::chunks(r, cfg.vector_size) {
                let n = tw::sel::sel_le_i32_dense(
                    &ship[c.clone()],
                    ship_cut,
                    c.start as u32,
                    &mut st.sel,
                    policy,
                );
                if n == 0 {
                    continue;
                }
                tw::hashp::hash_u8(rf, &st.sel, hf, &mut st.hashes);
                tw::hashp::rehash_u8(ls, &st.sel, hf, &mut st.hashes);
                tw::grouping::find_groups(
                    &shard.ht,
                    &st.hashes,
                    &st.sel,
                    |k, t| k.0 == rf[t as usize] && k.1 == ls[t as usize],
                    &mut st.gb,
                );
                // Misses: per-tuple find-or-insert on the private shard
                // (DESIGN.md simplification of the equal-key shuffle).
                for &t in &st.gb.miss_sel {
                    let t = t as usize;
                    let key = (rf[t], ls[t]);
                    let h = hf.rehash(hf.hash(key.0 as u64), key.1 as u64);
                    let disc_price = ext[t] * (100 - disc[t]);
                    shard.update(h, key, Q1Agg::default, |a| {
                        a.qty += qty[t];
                        a.base += ext[t];
                        a.disc_price += disc_price;
                        a.charge += disc_price as i128 * (100 + tax[t]) as i128;
                        a.disc += disc[t];
                        a.count += 1;
                    });
                }
                if st.gb.groups.is_empty() {
                    continue;
                }
                // Hits: vector-at-a-time, one primitive per step/aggregate.
                tw::gather::gather_i64(qty, &st.gb.group_sel, policy, &mut st.v_qty);
                tw::grouping::agg_update_i64(&mut shard.ht, &st.gb.groups, &st.v_qty, |a, v| a.qty += v);
                tw::gather::gather_i64(ext, &st.gb.group_sel, policy, &mut st.v_ext);
                tw::grouping::agg_update_i64(&mut shard.ht, &st.gb.groups, &st.v_ext, |a, v| a.base += v);
                tw::gather::gather_i64(disc, &st.gb.group_sel, policy, &mut st.v_disc);
                tw::map::map_rsub_const_i64(100, &st.v_disc, &mut st.v_om);
                tw::map::map_mul_i64(&st.v_ext, &st.v_om, &mut st.v_dp);
                tw::grouping::agg_update_i64(&mut shard.ht, &st.gb.groups, &st.v_dp, |a, v| {
                    a.disc_price += v
                });
                tw::gather::gather_i64(tax, &st.gb.group_sel, policy, &mut st.v_tax);
                tw::map::map_add_const_i64(100, &st.v_tax, &mut st.v_ot);
                tw::map::map_mul_i64(&st.v_dp, &st.v_ot, &mut st.v_ch);
                tw::grouping::agg_update_i64(&mut shard.ht, &st.gb.groups, &st.v_ch, |a, v| {
                    a.charge += v as i128
                });
                tw::grouping::agg_update_i64(&mut shard.ht, &st.gb.groups, &st.v_disc, |a, v| a.disc += v);
                tw::grouping::agg_update_unit(&mut shard.ht, &st.gb.groups, |a| a.count += 1);
            }
        },
    );
    let shards = shards.into_iter().map(|(shard, _)| shard.finish()).collect();
    finish(merge_partitions(shards, &cfg.exec(), Q1Agg::merge))
}

/// Volcano: interpreted tuple-at-a-time plan; `threads` partition the
/// scan through the exchange union, and the per-worker partial groups
/// re-aggregate through a final merge pass.
pub fn volcano(db: &Database, cfg: &ExecCfg, p: &Q1Params) -> QueryResult {
    use dbep_runtime::Morsels;
    use dbep_volcano::{exchange, AggSpec, Aggregate, BinOp, CmpOp, Expr, Project, Rows, Scan, Select, Val};
    let li = db.table("lineitem");
    let m = Morsels::new(li.len());
    let partials = exchange::union(&cfg.exec(), |_| {
        let scan = Scan::new(
            li,
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
        .paced(cfg.throttle)
        .recorded(cfg.sched)
        .morsel_driven(&m);
        let filtered = Select {
            input: Box::new(scan),
            pred: Expr::cmp(CmpOp::Le, Expr::col(6), Expr::lit_i32(p.ship_cut)),
        };
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
        let projected = Project {
            input: Box::new(filtered),
            exprs: vec![
                Expr::col(0),
                Expr::col(1),
                Expr::col(2),
                Expr::col(3),
                disc_price,
                charge,
                Expr::col(4),
            ],
        };
        Box::new(Aggregate::new(
            Box::new(projected),
            vec![Expr::col(0), Expr::col(1)],
            vec![
                AggSpec::SumI64(Expr::col(2)),
                AggSpec::SumI64(Expr::col(3)),
                AggSpec::SumI64(Expr::col(4)),
                AggSpec::SumI128(Expr::col(5)),
                AggSpec::SumI64(Expr::col(6)),
                AggSpec::Count,
            ],
        ))
    });
    // Merge: re-aggregate the partial groups (counts sum like any other
    // partial aggregate).
    let merge = Aggregate::new(
        Box::new(Rows::new(partials)),
        vec![Expr::col(0), Expr::col(1)],
        vec![
            AggSpec::SumI64(Expr::col(2)),
            AggSpec::SumI64(Expr::col(3)),
            AggSpec::SumI64(Expr::col(4)),
            AggSpec::SumI128(Expr::col(5)),
            AggSpec::SumI64(Expr::col(6)),
            AggSpec::SumI64(Expr::col(7)),
        ],
    );
    let groups = dbep_volcano::ops::collect(Box::new(merge))
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

/// Registry entry (see [`crate::QueryPlan`]).
pub struct Q1;

impl crate::QueryPlan for Q1 {
    fn id(&self) -> crate::QueryId {
        crate::QueryId::Q1
    }

    fn tuples_scanned(&self, db: &Database) -> usize {
        db.table("lineitem").len()
    }

    fn stages(&self) -> &'static [crate::StageDesc] {
        use crate::{StageDesc, StageKind};
        // One fused pipeline: σ(lineitem) → Γ(returnflag, linestatus).
        const S: &[crate::StageDesc] = &[StageDesc::new("scan-agg-lineitem", StageKind::Aggregate)];
        S
    }

    fn typer(&self, db: &Database, cfg: &ExecCfg, params: &Params) -> QueryResult {
        typer(db, cfg, params.q1())
    }

    fn tectorwise(&self, db: &Database, cfg: &ExecCfg, params: &Params) -> QueryResult {
        tectorwise(db, cfg, params.q1())
    }

    fn volcano(&self, db: &Database, cfg: &ExecCfg, params: &Params) -> QueryResult {
        volcano(db, cfg, params.q1())
    }
}
