//! Plan-cache and adaptive-engine integration tests: hit/miss
//! semantics over exact parameter bindings, single-entry convergence
//! under concurrent prepares, and `Engine::Adaptive` result
//! equivalence against the pure engines across all 12 queries × 3
//! non-default parameter draws (covering both exploration runs and the
//! learned steady state, which is the per-stage minima for every plan).

use dbep_core::prelude::*;
use dbep_core::runtime::rng::SmallRng;
use dbep_core::scheduler::StageTrace;
use dbep_core::storage::types::date;
use dbep_queries::params::*;
use std::sync::Arc;

const SF: f64 = 0.01;
const SEED: u64 = 42;
const DRAWS: usize = 3;

fn tpch() -> Arc<Database> {
    static DB: std::sync::OnceLock<Arc<Database>> = std::sync::OnceLock::new();
    Arc::clone(DB.get_or_init(|| Arc::new(dbep_datagen::tpch::generate(SF, SEED))))
}

fn ssb() -> Arc<Database> {
    static DB: std::sync::OnceLock<Arc<Database>> = std::sync::OnceLock::new();
    Arc::clone(DB.get_or_init(|| Arc::new(dbep_datagen::ssb::generate(SF, SEED))))
}

#[test]
fn repeated_prepare_hits_the_cache() {
    let session = Session::new(tpch());
    let first = session.prepare(QueryId::Q6);
    assert!(!first.cache_hit(), "cold cache must miss");
    let second = session.prepare(QueryId::Q6);
    assert!(second.cache_hit(), "same binding must hit");
    let stats = session.plan_cache_stats();
    assert_eq!((stats.hits, stats.misses, stats.entries), (1, 1, 1));
    // Cached preparation skips planning: a hit is a map lookup.
    assert!(
        second.planning_ns() < 1_000_000,
        "cache hit took {} ns to prepare",
        second.planning_ns()
    );
}

#[test]
fn different_bindings_do_not_collide() {
    let session = Session::new(tpch());
    session.prepare(QueryId::Q6); // paper default: miss.
    let other = session.prepare_params(Q6Params::new(1995, 3, 30).unwrap());
    assert!(
        !other.cache_hit(),
        "a different binding of the same template is a different entry"
    );
    // Same template, same non-default binding: now a hit.
    assert!(session
        .prepare_params(Q6Params::new(1995, 3, 30).unwrap())
        .cache_hit());
    let stats = session.plan_cache_stats();
    assert_eq!((stats.hits, stats.misses, stats.entries), (1, 2, 2));
}

#[test]
fn session_clones_share_one_cache() {
    let session = Session::new(tpch());
    let clone = session.clone();
    assert!(!session.prepare(QueryId::Q1).cache_hit());
    assert!(clone.prepare(QueryId::Q1).cache_hit(), "clones share the memo");
    assert_eq!(clone.plan_cache_stats(), session.plan_cache_stats());
}

#[test]
fn concurrent_prepares_converge_on_one_entry() {
    let session = Session::with_cfg(tpch(), ExecCfg::with_threads(2));
    std::thread::scope(|s| {
        for _ in 0..8 {
            s.spawn(|| {
                let q = session.prepare(QueryId::Q12);
                assert_eq!(q.query(), QueryId::Q12);
            });
        }
    });
    let stats = session.plan_cache_stats();
    assert_eq!(stats.entries, 1, "8 racing prepares must yield one entry");
    assert_eq!(stats.misses, 1, "exactly one prepare populates the entry");
    assert_eq!(stats.hits, 7);
}

fn pick<'a>(rng: &mut SmallRng, xs: &[&'a str]) -> &'a str {
    xs[rng.gen_range(0..xs.len())]
}

/// A valid non-default draw from each query's substitution domain
/// (mirrors the queries crate's parameterized sweep).
fn draw(q: QueryId, rng: &mut SmallRng) -> Params {
    use dbep_datagen::ssb::REGIONS;
    use dbep_datagen::tpch::{COLORS, SEGMENTS, SHIPMODES};
    match q {
        QueryId::Q1 => Q1Params::new(rng.gen_range(60..=120)).unwrap().into(),
        QueryId::Q6 => Q6Params::new(
            rng.gen_range(1993..=1997),
            rng.gen_range(2..=9),
            rng.gen_range(20..=30),
        )
        .unwrap()
        .into(),
        QueryId::Q3 => Q3Params::new(pick(rng, SEGMENTS), date(1995, 3, 1) + rng.gen_range(0..31))
            .unwrap()
            .into(),
        QueryId::Q9 => Q9Params::new(pick(rng, COLORS)).unwrap().into(),
        QueryId::Q18 => Q18Params::new(rng.gen_range(250..=330)).unwrap().into(),
        QueryId::Q4 => Q4Params::new(rng.gen_range(1993..=1997), rng.gen_range(1..=4))
            .unwrap()
            .into(),
        QueryId::Q12 => {
            let a = rng.gen_range(0..SHIPMODES.len());
            let b = (a + rng.gen_range(1..SHIPMODES.len())) % SHIPMODES.len();
            Q12Params::new(SHIPMODES[a], SHIPMODES[b], rng.gen_range(1993..=1997))
                .unwrap()
                .into()
        }
        QueryId::Q14 => Q14Params::new(rng.gen_range(1993..=1997), rng.gen_range(1..=12))
            .unwrap()
            .into(),
        QueryId::Ssb1_1 => {
            let lo = rng.gen_range(0i64..=8);
            SsbQ11Params::new(
                rng.gen_range(1992..=1998),
                lo,
                lo + rng.gen_range(0i64..=2),
                rng.gen_range(20..=40),
            )
            .unwrap()
            .into()
        }
        QueryId::Ssb2_1 => {
            let category = format!("MFGR#{}{}", rng.gen_range(1..=5), rng.gen_range(1..=5));
            SsbQ21Params::new(&category, pick(rng, REGIONS)).unwrap().into()
        }
        QueryId::Ssb3_1 => {
            let lo = rng.gen_range(1992..=1997);
            SsbQ31Params::new(
                pick(rng, REGIONS),
                pick(rng, REGIONS),
                lo,
                rng.gen_range(lo..=1998),
            )
            .unwrap()
            .into()
        }
        QueryId::Ssb4_1 => {
            let a = rng.gen_range(1..=5);
            let b = (a + rng.gen_range(1..=4) - 1) % 5 + 1;
            SsbQ41Params::new(pick(rng, REGIONS), pick(rng, REGIONS), a, b)
                .unwrap()
                .into()
        }
    }
}

/// Adaptive must return pure-engine results at every point of its
/// lifecycle: the Typer exploration run, the Tectorwise exploration
/// run, and the learned steady state — for every query and for
/// arbitrary valid bindings. The steady state of *every* plan is the
/// per-stage minima of its two exploration runs (there is no pure
/// engine to fall back to: `Decision::Use` carries only `choices`).
/// Re-preparing the binding must hit the cache and keep the learned
/// assignment.
#[test]
fn adaptive_matches_pure_engines_across_all_queries() {
    let tpch_session = Session::with_cfg(tpch(), ExecCfg::with_threads(2));
    let ssb_session = Session::with_cfg(ssb(), ExecCfg::with_threads(2));
    let mut rng = SmallRng::seed_from_u64(0xADA9);
    for q in QueryId::ALL {
        let session = if QueryId::SSB.contains(&q) {
            &ssb_session
        } else {
            &tpch_session
        };
        let plan = dbep_queries::plan(q);
        let stages = plan.stages().len();
        let mut done = 0;
        while done < DRAWS {
            let params = draw(q, &mut rng);
            if params == Params::default_for(q) {
                continue;
            }
            let prepared = session.prepare_params(params.clone());
            let reference = prepared.run(Engine::Typer);
            assert_eq!(
                reference,
                prepared.run(Engine::Tectorwise),
                "{} pure engines",
                q.name()
            );
            // Runs 1–2 explore (uniform Typer, uniform Tectorwise);
            // exploration records into an attached stage trace, so
            // attaching one per run captures what the plan cache saw.
            let explored: Vec<Vec<u64>> = (0..2)
                .map(|round| {
                    let trace = StageTrace::new(stages);
                    let cfg = ExecCfg {
                        stage_trace: Some(&trace),
                        ..*session.cfg()
                    };
                    assert_eq!(
                        reference,
                        prepared.run_with(Engine::Adaptive, &cfg),
                        "{} exploration run {round} under {params:?}",
                        q.name()
                    );
                    trace.snapshot()
                })
                .collect();
            let minima: Vec<Engine> = explored[0]
                .iter()
                .zip(&explored[1])
                .map(|(&t, &v)| if v < t { Engine::Tectorwise } else { Engine::Typer })
                .collect();
            let (choices, faster) = prepared
                .adaptive_choices()
                .unwrap_or_else(|| panic!("{} never finished exploring", q.name()));
            assert_eq!(choices, minima, "{} commits the per-stage minima", q.name());
            assert!(matches!(faster, Engine::Typer | Engine::Tectorwise));
            // Runs 3–4 execute that assignment, for every plan.
            for round in 2..4 {
                assert_eq!(
                    reference,
                    prepared.run(Engine::Adaptive),
                    "{} adaptive round {round} under {params:?}",
                    q.name()
                );
            }
            assert_eq!(
                reference,
                plan.run_stages(session.db(), session.cfg(), &params, &choices),
                "{} learned assignment {choices:?}",
                q.name()
            );
            // Re-preparing the same binding is a hit that inherits the
            // learned state — no re-exploration.
            let again = session.prepare_params(params.clone());
            assert!(again.cache_hit(), "{} re-prepare must hit", q.name());
            assert_eq!(
                again.adaptive_choices().map(|(c, _)| c),
                Some(choices),
                "{} learned choices survive re-prepare",
                q.name()
            );
            assert_eq!(reference, again.run(Engine::Adaptive));
            done += 1;
        }
    }
}

/// Adaptive also works on a pool-less session (no scheduler): the
/// explore/learn protocol is independent of the worker pool.
#[test]
fn adaptive_works_without_a_pool() {
    let session = Session::without_pool(tpch(), ExecCfg::default());
    let q3 = session.prepare(QueryId::Q3);
    let reference = q3.run(Engine::Typer);
    for _ in 0..3 {
        assert_eq!(reference, q3.run(Engine::Adaptive));
    }
    assert!(q3.adaptive_choices().is_some());
}
