//! TPC-H Q4: EXISTS semi-join (orders ⋉ lineitem) feeding a tiny
//! priority grouping — the workload's semi-join shape.
//!
//! ```sql
//! SELECT o_orderpriority, count(*) AS order_count
//! FROM orders
//! WHERE o_orderdate >= DATE '1993-07-01' AND o_orderdate < DATE '1993-10-01'
//!   AND EXISTS (SELECT * FROM lineitem
//!               WHERE l_orderkey = o_orderkey AND l_commitdate < l_receiptdate)
//! GROUP BY o_orderpriority ORDER BY o_orderpriority
//! ```
//!
//! Physical plan (identical in all engines): σ(lineitem,
//! commit < receipt) → HT_late keyed by `l_orderkey`; σ(orders, 3-month
//! window) probes HT_late **existence-only** — duplicate lineitems per
//! order must not duplicate output — then counts per priority. The five
//! priorities have distinct leading bytes, so the grouping runs on a
//! 5-slot array keyed by `o_orderpriority[0]`; a representative row per
//! slot recovers the full string for the result. Two stages
//! (`build_late`, `probe_orders`), each one function with a Typer arm
//! and a Tectorwise arm.

use crate::params::Q4Params;
use crate::result::{OrderBy, QueryResult, Value};
use crate::{Engine, ExecCfg, Params};
use dbep_runtime::hash::HashFn;
use dbep_runtime::JoinHt;
use dbep_storage::Database;
use dbep_vectorized as tw;
use dbep_volcano::{AggSpec, CmpOp, Expr, Plan, Row};

const LI_BITS: usize = 8 * (4 + 4 + 4); // orderkey + commitdate + receiptdate
const ORD_BITS: usize = 8 * (4 + 4 + 9); // orderkey + orderdate + priority text
/// Priority slots: leading bytes '1'..'5'.
const SLOTS: usize = 5;

/// Per-worker grouping state: count and a representative orders row per
/// priority slot (all rows in a slot share the same priority string).
#[derive(Clone, Copy)]
struct PrioCounts {
    counts: [i64; SLOTS],
    rep: [u32; SLOTS],
}

impl PrioCounts {
    fn new() -> Self {
        PrioCounts {
            counts: [0; SLOTS],
            rep: [u32::MAX; SLOTS],
        }
    }

    #[inline]
    fn slot(byte0: u8) -> usize {
        let s = byte0.wrapping_sub(b'1') as usize;
        debug_assert!(s < SLOTS, "priority byte {byte0} outside domain");
        s
    }

    #[inline]
    fn add(&mut self, byte0: u8, row: u32, n: i64) {
        let s = Self::slot(byte0);
        self.counts[s] += n;
        if self.rep[s] == u32::MAX {
            self.rep[s] = row;
        }
    }

    fn merge(mut parts: Vec<PrioCounts>) -> PrioCounts {
        let mut all = PrioCounts::new();
        for p in parts.drain(..) {
            for s in 0..SLOTS {
                all.counts[s] += p.counts[s];
                if all.rep[s] == u32::MAX {
                    all.rep[s] = p.rep[s];
                }
            }
        }
        all
    }
}

fn finish(db: &Database, g: PrioCounts) -> QueryResult {
    let prio = db.table("orders").col("o_orderpriority").strs();
    let rows = (0..SLOTS)
        .filter(|&s| g.counts[s] > 0)
        .map(|s| {
            vec![
                Value::Str(prio.get(g.rep[s] as usize).to_string()),
                Value::I64(g.counts[s]),
            ]
        })
        .collect();
    result(rows)
}

/// The result columns, ordered by priority.
fn result(rows: Vec<Vec<Value>>) -> QueryResult {
    QueryResult::new(
        &["o_orderpriority", "order_count"],
        rows,
        &[OrderBy::asc(0)],
        None,
    )
}

/// Stage 0 (`build-late`): σ(lineitem, commit < receipt) → HT_late,
/// under either paradigm. The hash function is the *build* engine's
/// choice and travels with the table — the probe stage must use the
/// same one regardless of which engine runs it.
fn build_late(db: &Database, cfg: &ExecCfg, engine: Engine, hf: HashFn) -> JoinHt<i32> {
    let li = db.table("lineitem");
    let lok = li.col("l_orderkey").i32s();
    let commit = li.col("l_commitdate").dates();
    let receipt = li.col("l_receiptdate").dates();
    match engine {
        // Fused filter + push, one branch per tuple.
        Engine::Typer => cfg.build_ht(
            li.len(),
            LI_BITS,
            || (),
            |sh, _, r| {
                for i in r {
                    if commit[i] < receipt[i] {
                        sh.push(hf.hash(lok[i] as u64), lok[i]);
                    }
                }
            },
        ),
        // Column-vs-column selection primitive, then hash + push.
        Engine::Tectorwise => {
            let policy = cfg.policy;
            cfg.build_ht(
                li.len(),
                LI_BITS,
                || (Vec::new(), Vec::new()),
                |sh, (sel, hashes), r| {
                    for c in tw::chunks(r, cfg.vector_size) {
                        // Column-vs-column compare: the first selection of the cascade.
                        if tw::sel::sel_lt_i32_col_dense(
                            &commit[c.clone()],
                            &receipt[c.clone()],
                            c.start as u32,
                            sel,
                            policy,
                        ) == 0
                        {
                            continue;
                        }
                        tw::hashp::hash_i32(lok, sel, hf, hashes);
                        for (j, &t) in sel.iter().enumerate() {
                            sh.push(hashes[j], lok[t as usize]);
                        }
                    }
                },
            )
        }
        other => unreachable!("{} is not a per-stage candidate", other.name()),
    }
}

/// Stage 1 (`probe-orders`): σ(orders) ⋉ HT_late → Γ(priority), under
/// either paradigm. `hf` must be the hash HT_late was built with.
fn probe_orders(
    db: &Database,
    cfg: &ExecCfg,
    p: &Q4Params,
    engine: Engine,
    hf: HashFn,
    ht_late: &JoinHt<i32>,
) -> PrioCounts {
    let (date_lo, date_hi) = (p.date_lo, p.date_hi);
    let ord = db.table("orders");
    let okey = ord.col("o_orderkey").i32s();
    let odate = ord.col("o_orderdate").dates();
    let prio = ord.col("o_orderpriority").strs();
    match engine {
        // Fused probe loop; the existence-only path stops at the first
        // witness lineitem.
        Engine::Typer => {
            let parts = cfg.map_scan(
                ord.len(),
                ORD_BITS,
                |_| PrioCounts::new(),
                |g, r| {
                    for i in r {
                        if odate[i] >= date_lo && odate[i] < date_hi {
                            let h = hf.hash(okey[i] as u64);
                            // Existence-only: stop at the first witness lineitem.
                            if ht_late.contains(h, |k| *k == okey[i]) {
                                g.add(prio.get_bytes(i)[0], i as u32, 1);
                            }
                        }
                    }
                },
            );
            PrioCounts::merge(parts)
        }
        // Primitive chain; the probe is the dedicated semi-join
        // primitive (each order emitted at most once).
        Engine::Tectorwise => {
            let policy = cfg.policy;
            #[derive(Default)]
            struct P2Scratch {
                s1: Vec<u32>,
                s2: Vec<u32>,
                hashes: Vec<u64>,
                bufs: tw::ProbeBuffers,
                v_byte: Vec<u8>,
                slot_sel: Vec<u32>,
            }
            let parts = cfg.map_scan(
                ord.len(),
                ORD_BITS,
                |_| (PrioCounts::new(), P2Scratch::default()),
                |(g, st), r| {
                    for c in tw::chunks(r, cfg.vector_size) {
                        if tw::sel::sel_ge_i32_dense(
                            &odate[c.clone()],
                            date_lo,
                            c.start as u32,
                            &mut st.s1,
                            policy,
                        ) == 0
                        {
                            continue;
                        }
                        if tw::sel::sel_lt_i32_sparse(odate, date_hi, &st.s1, &mut st.s2, policy) == 0 {
                            continue;
                        }
                        tw::hashp::hash_i32(okey, &st.s2, hf, &mut st.hashes);
                        if tw::probe::probe_semijoin(
                            ht_late,
                            &st.hashes,
                            &st.s2,
                            |k, t| *k == okey[t as usize],
                            policy,
                            &mut st.bufs,
                        ) == 0
                        {
                            continue;
                        }
                        // Conditional counting per priority slot: gather the leading
                        // byte, then one char-equality selection per slot.
                        tw::gather::gather_str_byte0(prio, &st.bufs.match_tuple, &mut st.v_byte);
                        for s in 0..SLOTS as u8 {
                            let n = tw::sel::sel_eq_char_dense(&st.v_byte, b'1' + s, 0, &mut st.slot_sel);
                            if n > 0 {
                                g.add(b'1' + s, st.bufs.match_tuple[st.slot_sel[0] as usize], n as i64);
                            }
                        }
                    }
                },
            );
            PrioCounts::merge(parts.into_iter().map(|(g, _)| g).collect())
        }
        other => unreachable!("{} is not a per-stage candidate", other.name()),
    }
}

/// Registry entry (see [`crate::QueryPlan`]).
pub struct Q4;

impl crate::QueryPlan for Q4 {
    fn id(&self) -> crate::QueryId {
        crate::QueryId::Q4
    }

    /// The same plan through the interpreted semi-join; the orders scan
    /// drives.
    fn volcano_plan(&self, params: &Params) -> Plan {
        let p = params.q4();
        let late = Plan::scan("lineitem", &["l_orderkey", "l_commitdate", "l_receiptdate"])
            .select(Expr::cmp(CmpOp::Lt, Expr::col(1), Expr::col(2)));
        let orders =
            Plan::scan("orders", &["o_orderkey", "o_orderdate", "o_orderpriority"]).select(Expr::And(vec![
                Expr::cmp(CmpOp::Ge, Expr::col(1), Expr::lit_i32(p.date_lo)),
                Expr::cmp(CmpOp::Lt, Expr::col(1), Expr::lit_i32(p.date_hi)),
            ]));
        late.semi_join(vec![Expr::col(0)], orders, vec![Expr::col(0)])
            .aggregate(vec![Expr::col(2)], vec![AggSpec::Count])
    }

    fn volcano_result(&self, _db: &Database, rows: Vec<Row>) -> QueryResult {
        result(
            rows.iter()
                .map(|r| vec![Value::Str(r[0].as_str().to_string()), Value::I64(r[1].as_i64())])
                .collect(),
        )
    }

    fn stages(&self) -> &'static [crate::StageDesc] {
        use crate::{StageDesc, StageKind};
        const S: &[crate::StageDesc] = &[
            StageDesc::new("build-late", StageKind::JoinBuild),
            StageDesc::new("probe-orders", StageKind::JoinProbe),
        ];
        S
    }

    fn run_stages(&self, db: &Database, cfg: &ExecCfg, params: &Params, choices: &[Engine]) -> QueryResult {
        let [build, probe] = crate::assignment(choices);
        let hf = cfg.hash_for(build);
        let ht_late = {
            let _s = cfg.stage(0);
            build_late(db, cfg, build, hf)
        };
        let _s = cfg.stage(1);
        finish(db, probe_orders(db, cfg, params.q4(), probe, hf, &ht_late))
    }
}
