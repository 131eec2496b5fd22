//! TPC-H physical plans (§3.3, extended).
//!
//! The paper's subset and its bottlenecks, as §3.3 selects them:
//!
//! * **Q1** — fixed-point arithmetic, 4-group aggregation
//! * **Q6** — selective filters
//! * **Q3** — join (build ≈147 K, probe ≈3.2 M at SF 1)
//! * **Q9** — join (build ≈320 K, probe ≈1.5 M at SF 1), composite keys
//! * **Q18** — high-cardinality aggregation (1.5 M groups per SF)
//!
//! Plus three query shapes the subset leaves uncovered (the broader
//! TPC-H workload hinges on them):
//!
//! * **Q4** — EXISTS semi-join (orders ⋉ lineitem), existence-only probe
//! * **Q12** — string IN-list + column-column date filters, dual CASE
//!   counters per ship mode
//! * **Q14** — string prefix predicate, conditional/total ratio aggregate
//!
//! Every query module is one unit struct implementing
//! [`crate::QueryPlan`] that the dispatch registry ([`crate::REGISTRY`])
//! points at: its stages (a Typer and a Tectorwise body each) and its
//! Volcano plan value. All three engines return identical
//! [`crate::result::QueryResult`]s.

pub mod q1;
pub mod q12;
pub mod q14;
pub mod q18;
pub mod q3;
pub mod q4;
pub mod q6;
pub mod q9;
