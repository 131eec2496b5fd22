//! Prepare-once / run-many execution facade over a shared scheduler.
//!
//! Production analytical traffic is dominated by repeated parameterized
//! templates fired by many concurrent clients, so the serving shape is:
//! open a [`Session`] over a shared database, [`Session::prepare`] a
//! query once (validating and binding its substitution parameters),
//! then run the resulting [`PreparedQuery`] as many times as needed —
//! from as many threads as needed — with per-call engine and
//! [`ExecCfg`] overrides.
//!
//! Every session owns an `Arc<`[`Scheduler`]`>`: a **persistent pool of
//! `ExecCfg.threads` workers** that executes the morsels of *all* the
//! session's concurrently running queries (§6.1 morsel-driven
//! parallelism, extended across queries). Client threads submit and
//! wait; worker count stays fixed no matter how many clients fire — the
//! spawn-per-query behavior of the standalone `dbep_queries::run` path
//! is available via [`Session::without_pool`] for comparison.
//!
//! With default parameters a prepared query reproduces the paper's
//! workload instance byte-for-byte; with bound [`Params`] it runs any
//! member of the query's substitution family.
//!
//! ```
//! use dbep_core::prelude::*;
//!
//! let db = dbep_datagen::tpch::generate(0.01, 42);
//! let session = Session::new(db);
//! let q6 = session.prepare(QueryId::Q6);
//! let typer = q6.run(Engine::Typer);
//! let tw = q6.run(Engine::Tectorwise);
//! assert_eq!(typer, tw);
//!
//! // Bind a different workload instance of the same template.
//! let q6_95 = session.prepare_params(dbep_queries::params::Q6Params::new(1995, 3, 30)?);
//! assert_eq!(q6_95.run(Engine::Typer), q6_95.run(Engine::Volcano));
//! # Ok::<(), dbep_queries::params::ParamError>(())
//! ```

use crate::metrics::EngineMetrics;
use crate::plan_cache::{CachedPlan, Decision, PlanCache, PlanCacheStats};
use dbep_obs::{fingerprint64, QueryLog, QueryLogRecord, QueryTrace, TraceSink};
use dbep_queries::params::Params;
use dbep_queries::result::QueryResult;
use dbep_queries::{Engine, ExecCfg, QueryId, QueryPlan};
use dbep_scheduler::{QueryRun, RunStats, Scheduler, StageTrace, DEFAULT_PRIORITY};
use dbep_storage::Database;
use std::sync::Arc;
use std::time::Instant;

/// The canonical parameter-binding fingerprint: the one identity the
/// query log, the wire protocol and log-mining tools all agree on.
/// Stable across processes for a given binding (FNV-1a over the
/// binding's debug rendering, whose shape is pinned by the typed
/// [`Params`] structs).
pub fn params_fingerprint(params: &Params) -> u64 {
    fingerprint64(format!("{params:?}").as_bytes())
}

/// A connection-like handle owning a shared database, a default
/// execution configuration, and the scheduler pool queries execute on.
///
/// Cloning is cheap (database and scheduler are behind [`Arc`]s);
/// sessions and the prepared queries they hand out are `Send + Sync`,
/// so one session can serve concurrent callers — their queries
/// interleave at morsel granularity on the fixed worker pool.
#[derive(Clone)]
pub struct Session {
    db: Arc<Database>,
    cfg: ExecCfg<'static>,
    sched: Option<Arc<Scheduler>>,
    plan_cache: Arc<PlanCache>,
    metrics: Option<Arc<EngineMetrics>>,
    trace_sink: Option<Arc<TraceSink>>,
    query_log: Option<Arc<QueryLog>>,
}

impl Session {
    /// Open a session with the default [`ExecCfg`] (single thread,
    /// 1K vectors, scalar primitives) and a pool of one worker.
    pub fn new(db: impl Into<Arc<Database>>) -> Self {
        Session::with_cfg(db, ExecCfg::default())
    }

    /// Open a session with an explicit default configuration; the
    /// scheduler pool is sized to `cfg.threads` workers. Per-call
    /// overrides remain possible via [`PreparedQuery::run_with`]
    /// (`threads` then caps the query's share of the pool).
    pub fn with_cfg(db: impl Into<Arc<Database>>, cfg: ExecCfg<'static>) -> Self {
        let sched = Arc::new(Scheduler::new(cfg.threads));
        Session::with_scheduler(db, cfg, sched)
    }

    /// Open a session on an existing scheduler pool — several sessions
    /// (e.g. over different databases) can share one set of workers.
    pub fn with_scheduler(
        db: impl Into<Arc<Database>>,
        cfg: ExecCfg<'static>,
        sched: Arc<Scheduler>,
    ) -> Self {
        Session {
            db: db.into(),
            cfg,
            sched: Some(sched),
            plan_cache: Arc::new(PlanCache::new()),
            metrics: None,
            trace_sink: None,
            query_log: None,
        }
    }

    /// Open a session **without** a scheduler pool: every run falls
    /// back to spawn-per-query scoped threads (the pre-scheduler
    /// behavior) — the baseline the `serve` benchmark compares against.
    pub fn without_pool(db: impl Into<Arc<Database>>, cfg: ExecCfg<'static>) -> Self {
        Session {
            db: db.into(),
            cfg,
            sched: None,
            plan_cache: Arc::new(PlanCache::new()),
            metrics: None,
            trace_sink: None,
            query_log: None,
        }
    }

    /// The shared database.
    pub fn db(&self) -> &Arc<Database> {
        &self.db
    }

    /// The session's default execution configuration.
    pub fn cfg(&self) -> &ExecCfg<'static> {
        &self.cfg
    }

    /// The shared scheduler pool (`None` for a
    /// [`Session::without_pool`] session).
    pub fn scheduler(&self) -> Option<&Arc<Scheduler>> {
        self.sched.as_ref()
    }

    /// Attach a metrics bundle: every prepare and every run through
    /// this session (and its clones / prepared queries) updates it.
    pub fn with_metrics(mut self, metrics: Arc<EngineMetrics>) -> Self {
        self.metrics = Some(metrics);
        self
    }

    /// Attach a span-trace sink: every run records a query span plus
    /// the stage and morsel spans the plans emit, exportable as Chrome
    /// `trace_event` JSON via [`dbep_obs::chrome_trace`].
    pub fn with_trace(mut self, sink: Arc<TraceSink>) -> Self {
        self.trace_sink = Some(sink);
        self
    }

    /// Attach a structured query log: every run appends one JSONL
    /// [`QueryLogRecord`] (query, engine, parameter fingerprint, stage
    /// timings, scheduler stats, cache fact) at completion.
    pub fn with_query_log(mut self, log: Arc<QueryLog>) -> Self {
        self.query_log = Some(log);
        self
    }

    /// The attached metrics bundle, if any.
    pub fn metrics(&self) -> Option<&Arc<EngineMetrics>> {
        self.metrics.as_ref()
    }

    /// The attached span-trace sink, if any.
    pub fn trace_sink(&self) -> Option<&Arc<TraceSink>> {
        self.trace_sink.as_ref()
    }

    /// The attached query log, if any.
    pub fn query_log(&self) -> Option<&Arc<QueryLog>> {
        self.query_log.as_ref()
    }

    /// Prepare `query` with the paper's default parameters (§3.3).
    pub fn prepare(&self, query: QueryId) -> PreparedQuery {
        self.prepare_params(Params::default_for(query))
    }

    /// Prepare the query bound by `params`.
    ///
    /// Parameters are validated and normalized when constructed (see
    /// [`dbep_queries::params`]); preparation resolves the plan once so
    /// every subsequent run is admission + dispatch + execute.
    ///
    /// Preparation is memoized per session: re-preparing an
    /// already-seen `(query, params)` binding is a plan-cache hit that
    /// reuses the resolved plan *and* any engine choices
    /// `Engine::Adaptive` has already learned for it (see
    /// [`crate::plan_cache`]). [`PreparedQuery::cache_hit`] and
    /// [`PreparedQuery::planning_ns`] report what happened.
    pub fn prepare_params(&self, params: impl Into<Params>) -> PreparedQuery {
        let params = params.into();
        let t0 = Instant::now();
        let (cached, cache_hit) = self.plan_cache.lookup(&params);
        let planning_ns = t0.elapsed().as_nanos() as u64;
        if let Some(m) = &self.metrics {
            if cache_hit {
                m.plan_cache_hits.inc();
            } else {
                m.plan_cache_misses.inc();
            }
        }
        PreparedQuery {
            db: Arc::clone(&self.db),
            cfg: self.cfg,
            cached,
            cache_hit,
            planning_ns,
            params,
            sched: self.sched.clone(),
            priority: DEFAULT_PRIORITY,
            metrics: self.metrics.clone(),
            trace_sink: self.trace_sink.clone(),
            query_log: self.query_log.clone(),
        }
    }

    /// Plan-cache effectiveness counters (shared by all clones of this
    /// session).
    pub fn plan_cache_stats(&self) -> PlanCacheStats {
        self.plan_cache.stats()
    }
}

/// A validated, bound, re-runnable query: plan resolved, parameters
/// normalized, database pinned, scheduler attached.
///
/// `Sync` by construction — one prepared query may be run from many
/// threads concurrently (each run is read-only over the database,
/// allocates its own execution state, and registers separately with
/// the scheduler's admission gate).
pub struct PreparedQuery {
    db: Arc<Database>,
    cfg: ExecCfg<'static>,
    cached: Arc<CachedPlan>,
    cache_hit: bool,
    planning_ns: u64,
    params: Params,
    sched: Option<Arc<Scheduler>>,
    priority: usize,
    metrics: Option<Arc<EngineMetrics>>,
    trace_sink: Option<Arc<TraceSink>>,
    query_log: Option<Arc<QueryLog>>,
}

impl PreparedQuery {
    fn plan(&self) -> &'static dyn QueryPlan {
        self.cached.plan()
    }

    /// The query this plan executes.
    pub fn query(&self) -> QueryId {
        self.plan().id()
    }

    /// True if preparation was answered from the session's plan cache.
    pub fn cache_hit(&self) -> bool {
        self.cache_hit
    }

    /// Wall time spent in preparation (plan-cache lookup plus, on a
    /// miss, plan resolution and insertion). ~0 on hits.
    pub fn planning_ns(&self) -> u64 {
        self.planning_ns
    }

    /// The per-stage engine assignment `Engine::Adaptive` has learned
    /// for this binding and runs from then on; `None` while still
    /// exploring (fewer than two adaptive runs). The second element is
    /// a report value only — the uniform assignment whose exploration
    /// run had the lower total, ties to Typer — and no execution path
    /// reads it; the pair shape stays because the frozen benchmark of
    /// record destructures it (see
    /// [`AdaptiveState::learned`](crate::plan_cache::AdaptiveState::learned)).
    pub fn adaptive_choices(&self) -> Option<(Vec<Engine>, Engine)> {
        self.cached.adaptive().learned()
    }

    /// The bound parameters.
    pub fn params(&self) -> &Params {
        &self.params
    }

    /// Scheduling priority of this query's runs: the weight the shared
    /// pool divides their attained worker time by when it chooses whom
    /// to serve, so priority *p* gets *p* times the worker time of a
    /// priority-1 query beside it (clamped to
    /// `1..=`[`dbep_scheduler::MAX_PRIORITY`]). Default 1.
    pub fn with_priority(mut self, priority: usize) -> Self {
        self.priority = priority;
        self
    }

    /// The configured scheduling priority.
    pub fn priority(&self) -> usize {
        self.priority
    }

    /// Tuples scanned per execution (the §3.4 normalization
    /// denominator).
    pub fn tuples_scanned(&self) -> usize {
        self.plan().tuples_scanned(&self.db)
    }

    /// Execute on `engine` with the session's default configuration.
    pub fn run(&self, engine: Engine) -> QueryResult {
        self.run_with(engine, &self.cfg)
    }

    /// Execute on `engine` with a per-call configuration override
    /// (thread count, vector size, SIMD policy, hash function,
    /// throttle). With a pooled session the run first passes the
    /// admission gate, then submits every pipeline to the shared
    /// workers; `cfg.threads` caps this query's concurrent workers.
    pub fn run_with(&self, engine: Engine, cfg: &ExecCfg) -> QueryResult {
        self.run_traced(engine, cfg).0
    }

    /// As [`PreparedQuery::run`], also returning the scheduler-side
    /// [`RunStats`] of this execution (zeros for a pool-less session).
    pub fn run_with_stats(&self, engine: Engine) -> (QueryResult, RunStats) {
        self.run_traced(engine, &self.cfg)
    }

    /// Non-blocking variant of [`PreparedQuery::run_with_stats`]: when
    /// the session's scheduler admission gate is saturated, returns
    /// `None` immediately instead of parking the caller. The serving
    /// front door turns that `None` into a wire-level RETRY frame.
    /// Pool-less sessions have no admission gate and always run.
    pub fn try_run_with_stats(&self, engine: Engine) -> Option<(QueryResult, RunStats)> {
        let admitted = match &self.sched {
            Some(sched) => Some(sched.try_begin_query(self.priority)?),
            None => None,
        };
        Some(self.run_admitted(engine, &self.cfg, admitted))
    }

    /// The canonical fingerprint of this query's parameter binding —
    /// the same value the query log records, so wire responses and log
    /// records join on it. See [`params_fingerprint`].
    pub fn params_fp(&self) -> u64 {
        params_fingerprint(&self.params)
    }

    /// Blocking-admission entry: acquires a slot (waiting at the gate
    /// if needed), then runs through the instrumented choke point.
    fn run_traced(&self, engine: Engine, cfg: &ExecCfg) -> (QueryResult, RunStats) {
        let admitted = self.sched.as_ref().map(|s| s.begin_query(self.priority));
        self.run_admitted(engine, cfg, admitted)
    }

    /// The single completion choke point every run passes through: it
    /// attaches the session's observability instruments around the
    /// dispatch, then folds the outcome into the metrics bundle and the
    /// structured query log. `admitted` is the already-acquired
    /// admission slot (`None` for pool-less sessions).
    fn run_admitted(
        &self,
        engine: Engine,
        cfg: &ExecCfg,
        admitted: Option<QueryRun>,
    ) -> (QueryResult, RunStats) {
        if let Some(m) = &self.metrics {
            m.queries_started.inc();
        }
        // The query log wants per-stage wall times, so a log attaches a
        // stage trace when the caller didn't; adaptive exploration then
        // reuses it instead of creating its own (see `dispatch`).
        let own_stage_trace = (self.query_log.is_some() && cfg.stage_trace.is_none())
            .then(|| StageTrace::new(self.plan().stages().len()));
        let span_trace = self
            .trace_sink
            .as_ref()
            .map(|sink| QueryTrace::new(sink, self.query().ordinal(), engine.ordinal()));
        let t0 = Instant::now();
        let (result, stats) = {
            let _query_span = span_trace.as_ref().map(|t| t.query_span());
            let cfg = ExecCfg {
                trace: span_trace.as_ref(),
                stage_trace: own_stage_trace.as_ref().or(cfg.stage_trace),
                ..*cfg
            };
            match &admitted {
                Some(run) => {
                    let cfg = ExecCfg {
                        sched: Some(run),
                        ..cfg
                    };
                    let result = self.dispatch(engine, &cfg);
                    (result, run.stats())
                }
                None => (self.dispatch(engine, &cfg), RunStats::default()),
            }
        };
        let latency_ns = t0.elapsed().as_nanos() as u64;
        if let Some(m) = &self.metrics {
            m.observe_run(latency_ns, &stats, self.sched.as_deref());
        }
        if let Some(log) = &self.query_log {
            log.append(QueryLogRecord {
                seq: 0,     // assigned by the log
                unix_ms: 0, // stamped by the log
                query: self.query().name().to_string(),
                engine: engine.name().to_string(),
                // Wire fields stay empty for in-process runs; the
                // network front-end logs its own records with them set.
                client: String::new(),
                wire_ns: 0,
                params_fp: params_fingerprint(&self.params),
                cache_hit: self.cache_hit,
                planning_ns: self.planning_ns,
                latency_ns,
                rows: result.len() as u64,
                morsels_executed: stats.morsels_executed(),
                queue_wait_ns: stats.queue_wait_ns(),
                admission_wait_ns: stats.admission_wait_ns(),
                tasks: stats.tasks,
                steals: stats.steals,
                bytes_scanned: stats.bytes_scanned,
                stage_ns: own_stage_trace
                    .as_ref()
                    .map(StageTrace::snapshot)
                    .unwrap_or_default(),
            });
        }
        (result, stats)
    }

    /// Route one execution. Pure engines go straight to the plan;
    /// `Engine::Adaptive` consults the cached [`AdaptiveState`]
    /// (explore → measure a uniform assignment under a stage trace;
    /// learned → run the per-stage minima; in-flight elsewhere → static
    /// heuristic via the plan's own `Adaptive` arm).
    ///
    /// [`AdaptiveState`]: crate::plan_cache::AdaptiveState
    fn dispatch(&self, engine: Engine, cfg: &ExecCfg) -> QueryResult {
        let plan = self.plan();
        if engine != Engine::Adaptive {
            return plan.run(engine, &self.db, cfg, &self.params);
        }
        match self.cached.adaptive().decide() {
            Decision::Explore(candidate) => {
                // Reuse an already-attached stage trace (e.g. the query
                // log's) so one instrumented run feeds both consumers.
                let own = cfg
                    .stage_trace
                    .is_none()
                    .then(|| StageTrace::new(plan.stages().len()));
                let trace = cfg
                    .stage_trace
                    .or(own.as_ref())
                    .expect("a stage trace is attached");
                let cfg = ExecCfg {
                    stage_trace: Some(trace),
                    ..*cfg
                };
                let result = plan.run(candidate, &self.db, &cfg, &self.params);
                self.cached.adaptive().record(candidate, trace.snapshot());
                result
            }
            Decision::Use { choices } => plan.run_stages(&self.db, cfg, &self.params, &choices),
            Decision::Heuristic => plan.run(Engine::Adaptive, &self.db, cfg, &self.params),
        }
    }
}

// Both handles must stay shareable across serving threads.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<Session>();
    assert_send_sync::<PreparedQuery>();
};

#[cfg(test)]
mod tests {
    use super::*;
    use dbep_queries::params::{Q18Params, Q6Params};
    use dbep_queries::run;

    fn tiny_db() -> Arc<Database> {
        static DB: std::sync::OnceLock<Arc<Database>> = std::sync::OnceLock::new();
        Arc::clone(DB.get_or_init(|| Arc::new(dbep_datagen::tpch::generate(0.01, 42))))
    }

    #[test]
    fn prepare_defaults_match_free_run() {
        let session = Session::new(tiny_db());
        for q in [QueryId::Q1, QueryId::Q6, QueryId::Q12] {
            let prepared = session.prepare(q);
            for engine in Engine::ALL {
                assert_eq!(
                    prepared.run(engine),
                    run(engine, q, session.db(), session.cfg()),
                    "{} on {engine:?}",
                    q.name()
                );
            }
        }
    }

    #[test]
    fn prepared_query_is_rerunnable_and_overridable() {
        let session = Session::new(tiny_db());
        let q6 = session.prepare_params(Q6Params::new(1995, 3, 30).unwrap());
        let first = q6.run(Engine::Typer);
        assert_eq!(first, q6.run(Engine::Typer), "same binding, same result");
        let threaded = q6.run_with(Engine::Typer, &ExecCfg::with_threads(4));
        assert_eq!(first, threaded, "cfg override must not change results");
        // The bound instance differs from the paper's default.
        assert_ne!(first, session.prepare(QueryId::Q6).run(Engine::Typer));
    }

    #[test]
    fn prepared_query_runs_concurrently() {
        let session = Session::with_cfg(tiny_db(), ExecCfg::with_threads(2));
        let q18 = session.prepare_params(Q18Params::new(280).unwrap());
        let reference = q18.run(Engine::Typer);
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    for engine in Engine::ALL {
                        assert_eq!(q18.run(engine), reference);
                    }
                });
            }
        });
    }

    #[test]
    fn pooled_and_poolless_sessions_agree() {
        let pooled = Session::with_cfg(tiny_db(), ExecCfg::with_threads(3));
        let spawning = Session::without_pool(tiny_db(), ExecCfg::with_threads(3));
        assert!(pooled.scheduler().is_some());
        assert!(spawning.scheduler().is_none());
        for q in [QueryId::Q3, QueryId::Ssb1_1] {
            // SSB queries need the SSB database; skip them on TPC-H.
            if QueryId::SSB.contains(&q) {
                continue;
            }
            for engine in Engine::ALL {
                assert_eq!(pooled.prepare(q).run(engine), spawning.prepare(q).run(engine));
            }
        }
    }

    #[test]
    fn run_with_stats_reports_scheduler_counters() {
        let session = Session::with_cfg(tiny_db(), ExecCfg::with_threads(2));
        let q6 = session.prepare(QueryId::Q6).with_priority(3);
        assert_eq!(q6.priority(), 3);
        let (result, stats) = q6.run_with_stats(Engine::Typer);
        assert_eq!(result.len(), 1);
        assert!(stats.tasks >= 1, "Q6 submits at least its scan pipeline");
        assert!(stats.morsels >= 1);
        // Pool-less sessions report zeros.
        let spawning = Session::without_pool(tiny_db(), ExecCfg::default());
        let (_, stats) = spawning.prepare(QueryId::Q6).run_with_stats(Engine::Typer);
        assert_eq!(stats, RunStats::default());
    }

    #[test]
    fn try_run_refuses_only_when_gate_is_full() {
        // A pool whose gate admits exactly one query: hold the slot,
        // then the non-blocking path must refuse instead of parking.
        let sched = Arc::new(Scheduler::with_limits(1, 1));
        let session = Session::with_scheduler(tiny_db(), ExecCfg::default(), Arc::clone(&sched));
        let q6 = session.prepare(QueryId::Q6);
        let held = sched.begin_query(DEFAULT_PRIORITY);
        assert!(q6.try_run_with_stats(Engine::Typer).is_none(), "gate full");
        drop(held);
        let (result, _) = q6.try_run_with_stats(Engine::Typer).expect("gate free");
        assert_eq!(result, q6.run(Engine::Typer));
        // Pool-less sessions have no gate: always run.
        let spawning = Session::without_pool(tiny_db(), ExecCfg::default());
        assert!(spawning
            .prepare(QueryId::Q6)
            .try_run_with_stats(Engine::Typer)
            .is_some());
    }

    #[test]
    fn params_fp_matches_the_query_log_identity() {
        let session = Session::new(tiny_db());
        let a = session.prepare_params(Q6Params::new(1995, 3, 30).unwrap());
        let b = session.prepare_params(Q6Params::new(1995, 3, 30).unwrap());
        assert_eq!(a.params_fp(), b.params_fp(), "same binding, same identity");
        assert_ne!(a.params_fp(), session.prepare(QueryId::Q6).params_fp());
        assert_eq!(a.params_fp(), params_fingerprint(a.params()));
    }

    #[test]
    fn sessions_can_share_one_scheduler() {
        let sched = Arc::new(Scheduler::new(2));
        let a = Session::with_scheduler(tiny_db(), ExecCfg::with_threads(2), Arc::clone(&sched));
        let b = Session::with_scheduler(tiny_db(), ExecCfg::with_threads(2), Arc::clone(&sched));
        assert_eq!(
            a.prepare(QueryId::Q6).run(Engine::Typer),
            b.prepare(QueryId::Q6).run(Engine::Typer)
        );
        assert_eq!(sched.live_workers(), 2, "shared pool stays at its fixed size");
    }
}
