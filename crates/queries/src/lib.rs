//! Physical query plans for the paper's workload, in **all three**
//! engines.
//!
//! Per the methodology (§3), every query is *one physical plan* — same
//! join order, same build sides, same data structures. For Typer and
//! Tectorwise it is written as its list of pipeline stages: each stage
//! is one driver call ([`ExecCfg`]'s `fold`, `build` or `group_by`)
//! given the stage's engine, a Typer morsel body (a fused loop) and a
//! Tectorwise vector body (a primitive chain) over one per-worker state.
//! The driver picks the body in one place, so the execution paradigm is
//! the only variable and is chosen per stage
//! ([`QueryPlan::run_stages`]); the pure engines are the two uniform
//! assignments. For Volcano it is a value, a [`dbep_volcano::Plan`]
//! ([`QueryPlan::volcano_plan`]), that the one interpreter
//! [`dbep_volcano::Plan::run`] executes tuple-at-a-time — the
//! interpretation baseline and the cross-check of every result — and
//! from which the plan's §3.4 normalization denominator
//! ([`QueryPlan::tuples_scanned`]) is derived.
//!
//! * [`tpch`] — Q1, Q6, Q3, Q9, Q18 (the paper's representative subset,
//!   §3.3 lists each query's bottleneck), plus Q4, Q12 and Q14 for the
//!   semi-join, string-predicate and conditional-aggregation shapes.
//! * [`ssb`] — Star Schema Benchmark Q1.1, Q2.1, Q3.1, Q4.1 (§4.4).
//! * [`oltp`] — the stored-procedure-style point-lookup workload used to
//!   discuss OLTP behaviour (§8.1).
//! * [`params`] — typed, validated substitution parameters per query;
//!   `Default` is the paper's instance (§3.3), so `run()` reproduces the
//!   paper while `run_with`/`Session::prepare_params` open the full
//!   substitution family.
//! * [`result`] — engine-independent result rows with deterministic
//!   ordering, so `typer == tectorwise == volcano` is a meaningful
//!   assertion.

pub mod oltp;
pub mod params;
pub mod result;
pub mod ssb;
pub mod tpch;

pub use params::Params;

use dbep_obs::QueryTrace;
use dbep_runtime::agg_ht::merge_partitions;
use dbep_runtime::counters::{StageCounterGuard, StageCounters};
use dbep_runtime::hash::HashFn;
use dbep_runtime::join_ht::JoinHtShard;
use dbep_runtime::{ExecCtx, GroupByShard, JoinHt, Morsels};
use dbep_scheduler::{QueryRun, StageTimer, StageTrace};
use dbep_storage::throttle::Throttle;
use dbep_vectorized::SimdPolicy;
use std::ops::Range;

pub use dbep_scheduler::StageKind;
use dbep_volcano::{Plan, Row};

/// Execution configuration shared by all engines.
///
/// `vector_size` and `policy` only affect Tectorwise; `hash` defaults to
/// each engine's §4.1 choice (Murmur2 for TW, CRC for Typer) unless
/// overridden for the ablation. `sched` attaches the run to a shared
/// [`dbep_scheduler::Scheduler`] pool (set by `dbep_core::Session` per
/// execution); without it, parallel regions fall back to
/// spawn-per-query scoped threads.
#[derive(Clone, Copy)]
pub struct ExecCfg<'a> {
    pub threads: usize,
    pub vector_size: usize,
    pub policy: SimdPolicy,
    /// `None` = engine default (§4.1); `Some` = force for both engines.
    pub hash: Option<HashFn>,
    /// Optional bandwidth-limited storage device (Table 5).
    pub throttle: Option<&'a Throttle>,
    /// Admitted scheduler run this execution submits its pipelines to.
    pub sched: Option<&'a QueryRun>,
    /// Per-pipeline-stage wall-time trace (attached by the adaptive
    /// driver when instrumenting a candidate engine; `None` otherwise).
    pub stage_trace: Option<&'a StageTrace>,
    /// Span tracing for this execution: stage and morsel spans are
    /// recorded into the trace's ring-buffer sink. `None` (the default)
    /// costs nothing — not even a clock read — on the hot paths.
    pub trace: Option<&'a QueryTrace<'a>>,
    /// Per-stage hardware-counter accumulators (Table-1 attribution by
    /// stage); attached by `experiments table1 --per-stage`.
    pub stage_counters: Option<&'a StageCounters>,
}

impl Default for ExecCfg<'_> {
    fn default() -> Self {
        ExecCfg {
            threads: 1,
            vector_size: dbep_vectorized::DEFAULT_VECTOR_SIZE,
            policy: SimdPolicy::Scalar,
            hash: None,
            throttle: None,
            sched: None,
            stage_trace: None,
            trace: None,
            stage_counters: None,
        }
    }
}

/// Compound RAII guard for one pipeline stage: wall-time into the
/// attached [`StageTrace`], a stage span into the attached
/// [`QueryTrace`], and a hardware-counter delta into the attached
/// [`StageCounters`] — whichever of the three are present. All fields
/// are `None` on untraced runs and the guard is free. Fields drop in
/// declaration order: counters close first so the span's duration
/// covers the whole instrumented region.
#[derive(Default)]
pub struct StageGuard<'a> {
    // RAII-only fields: never read, their Drop impls do the recording.
    _counters: Option<StageCounterGuard<'a>>,
    _span: Option<dbep_obs::SpanGuard<'a, 'a>>,
    _timer: Option<StageTimer<'a>>,
}

impl<'a> ExecCfg<'a> {
    pub fn with_threads(threads: usize) -> Self {
        ExecCfg {
            threads,
            ..Default::default()
        }
    }

    /// The hash function a stage run under `engine` builds its tables
    /// with (§4.1: CRC for Typer, Murmur2 for Tectorwise, unless `hash`
    /// forces one). The function travels with the table: every probe of
    /// it, under either paradigm, hashes with its *build* stage's choice.
    pub(crate) fn hash_for(&self, engine: Engine) -> HashFn {
        self.hash.unwrap_or(match engine {
            Engine::Tectorwise => HashFn::Murmur2,
            _ => HashFn::Crc,
        })
    }

    /// Account a scan morsel: record the touched bytes into the run's
    /// scheduler stats and pace against the configured storage device.
    ///
    /// `row_bits` is the per-row payload width in **bits**, one value per
    /// stage whichever body runs it, and always what storage holds. A
    /// stage that reads raw slices passes
    /// [`Table::flat_bits`](dbep_storage::Table::flat_bits) of the
    /// columns it reads — what Volcano's scan of those columns charges,
    /// a string column's offsets included. A stage that reads through
    /// column readers passes the Typer reader's `RowScan::bits`, which
    /// the Tectorwise readers' `Col::bits` match column for column
    /// (pinned by test): packed columns contribute their packed width,
    /// flat columns their byte width × 8, the same as `flat_bits`. So
    /// the engines charge the same bytes for the same plan (pinned by
    /// `tests/engines_charge_equal_bytes.rs`). A morsel is charged the whole
    /// bytes between the bit offsets of its first and its end row, so a
    /// scan charges `total * row_bits / 8` however the pool cuts it into
    /// morsels.
    #[inline]
    pub fn pace(&self, rows: Range<usize>, row_bits: usize) {
        let bytes = rows.end * row_bits / 8 - rows.start * row_bits / 8;
        if let Some(run) = self.sched {
            run.add_bytes(bytes as u64);
        }
        if let Some(t) = self.throttle {
            t.consume(bytes);
        }
    }

    /// Enter pipeline stage `idx` (index into the plan's
    /// [`QueryPlan::stages`]): when the returned guard drops, elapsed
    /// wall time is recorded into the attached [`StageTrace`], a stage
    /// span into the attached [`QueryTrace`], and a hardware-counter
    /// delta into the attached [`StageCounters`] — for whichever are
    /// attached. No-op (empty guard, nothing recorded, no clock read)
    /// when the run is uninstrumented — plans bracket every pipeline
    /// unconditionally and only instrumented runs pay for it. Bind the
    /// guard for the pipeline's scope: `let _stage = cfg.stage(0);`.
    #[inline]
    pub fn stage(&self, idx: usize) -> StageGuard<'a> {
        // Span opens before the counter region and (by field order)
        // closes after it, so the span brackets the counted work.
        let span = self.trace.map(|t| t.stage_span(idx as u16));
        StageGuard {
            _counters: self.stage_counters.and_then(|c| c.start_stage(idx)),
            _span: span,
            _timer: self.stage_trace.map(|t| t.start(idx)),
        }
    }

    /// The execution context parallel regions run on: pooled when a
    /// scheduler run is attached, spawn-per-query otherwise.
    pub fn exec(&self) -> ExecCtx<'a> {
        ExecCtx {
            threads: self.threads,
            run: self.sched,
        }
    }

    /// **The** morsel-driven scan loop every plan runs on, replacing the
    /// per-query `scope_workers` + `while let Some(r) = morsels.claim()`
    /// idiom the plans used to hand-roll: `fold(state, range)` runs for
    /// every morsel of `0..total`, paced against the configured storage
    /// device, on the shared pool when a scheduler run is attached.
    /// Per-worker state (build shards, pre-aggregation shards, vector
    /// scratch, local accumulators) lives in slots: `init()` creates a
    /// slot's state on its first morsel, and the participating workers'
    /// states come back for the merge step.
    ///
    /// Note on throttling: [`ExecCfg::pace`] sleeps inside the morsel
    /// body, i.e. **on the pool workers** when pooled — an emulated
    /// IO-stalled morsel occupies its worker just like a real blocking
    /// read would, so a throttled query slows co-scheduled queries the
    /// way a saturated shared device does.
    pub fn map_scan<T: Send>(
        &self,
        total: usize,
        row_bits: usize,
        init: impl Fn() -> T + Sync,
        fold: impl Fn(&mut T, Range<usize>) + Sync,
    ) -> Vec<T> {
        self.exec().map_slots(Morsels::new(total), init, |state, r| {
            // Morsel spans read the clock only when a trace is attached;
            // untraced serving runs pay nothing here.
            let t0 = self.trace.map(|t| t.now_ns());
            self.pace(r.clone(), row_bits);
            let rows = r.len();
            fold(state, r);
            if let (Some(trace), Some(t0)) = (self.trace, t0) {
                trace.record_morsel(t0, rows.min(u32::MAX as usize) as u32);
            }
        })
    }

    /// One σ→build pipeline, to its breaker: a [`ExecCfg::map_scan`]
    /// (so it is paced and traced like every other scan) whose workers
    /// push `(hash, row)` pairs into private shards, merged into one
    /// [`JoinHt`]. A worker's state is its shard and the `scratch` a
    /// vectorized body needs (`()` for a fused loop).
    pub fn build_ht<K: Send + Sync, S: Send>(
        &self,
        total: usize,
        row_bits: usize,
        scratch: impl Fn() -> S + Sync,
        body: impl Fn(&mut (JoinHtShard<K>, S), Range<usize>) + Sync,
    ) -> JoinHt<K> {
        let parts = self.map_scan(total, row_bits, || (JoinHtShard::new(), scratch()), body);
        JoinHt::from_shards(parts.into_iter().map(|(sh, _)| sh).collect(), &self.exec())
    }

    /// **The** paradigm dispatch of a stage: the morsel body it runs
    /// under `engine`. Typer runs `typer` over the whole morsel (a fused
    /// loop); Tectorwise runs `tectorwise` over each vector of at most
    /// [`ExecCfg::vector_size`] rows of it, in order (a primitive
    /// chain, which ends a vector with `return`). Both bodies fold into
    /// the same per-worker state; every morsel of a stage runs the
    /// stage's one engine. Panics unless `engine` is `Typer` or
    /// `Tectorwise`.
    fn bodies<S>(
        &self,
        engine: Engine,
        typer: impl Fn(&mut S, Range<usize>) + Sync,
        tectorwise: impl Fn(&mut S, Range<usize>) + Sync,
    ) -> impl Fn(&mut S, Range<usize>) + Sync {
        assert!(
            matches!(engine, Engine::Typer | Engine::Tectorwise),
            "{} is not a per-stage candidate",
            engine.name()
        );
        let vector_size = self.vector_size;
        move |state, morsel| match engine {
            Engine::Typer => typer(state, morsel),
            _ => {
                for vector in dbep_vectorized::chunks(morsel, vector_size) {
                    tectorwise(state, vector);
                }
            }
        }
    }

    /// A stage that folds each worker's rows into a private state
    /// (`init`), e.g. a sum or a counter matrix, under `engine`'s body
    /// (see [`ExecCfg::bodies`]); the workers' states come back for the
    /// stage to combine.
    pub(crate) fn fold<S: Send>(
        &self,
        engine: Engine,
        total: usize,
        row_bits: usize,
        init: impl Fn() -> S + Sync,
        typer: impl Fn(&mut S, Range<usize>) + Sync,
        tectorwise: impl Fn(&mut S, Range<usize>) + Sync,
    ) -> Vec<S> {
        self.map_scan(total, row_bits, init, self.bodies(engine, typer, tectorwise))
    }

    /// A stage that builds a [`JoinHt`] ([`ExecCfg::build_ht`]) under
    /// `engine`'s body.
    pub(crate) fn build<K: Send + Sync, S: Send>(
        &self,
        engine: Engine,
        total: usize,
        row_bits: usize,
        scratch: impl Fn() -> S + Sync,
        typer: impl Fn(&mut (JoinHtShard<K>, S), Range<usize>) + Sync,
        tectorwise: impl Fn(&mut (JoinHtShard<K>, S), Range<usize>) + Sync,
    ) -> JoinHt<K> {
        self.build_ht(total, row_bits, scratch, self.bodies(engine, typer, tectorwise))
    }

    /// A stage that groups its rows under `engine`'s body: each worker
    /// pre-aggregates into a bounded [`GroupByShard`] beside its
    /// `scratch`, and the shards' partitions are merged with `combine`
    /// (§3.2's two-phase aggregation). Returns every group once, in no
    /// particular order.
    #[allow(clippy::too_many_arguments)] // the fold's six, plus the merge's `combine`
    pub(crate) fn group_by<K, A, S>(
        &self,
        engine: Engine,
        total: usize,
        row_bits: usize,
        scratch: impl Fn() -> S + Sync,
        typer: impl Fn(&mut (GroupByShard<K, A>, S), Range<usize>) + Sync,
        tectorwise: impl Fn(&mut (GroupByShard<K, A>, S), Range<usize>) + Sync,
        combine: impl Fn(&mut A, A) + Sync,
    ) -> Vec<(K, A)>
    where
        K: PartialEq + Send + Sync,
        A: Send + Sync,
        S: Send,
    {
        let init = || (GroupByShard::new(), scratch());
        let shards = self.fold(engine, total, row_bits, init, typer, tectorwise);
        let parts = shards.into_iter().map(|(shard, _)| shard.finish()).collect();
        merge_partitions(parts, &self.exec(), combine)
    }
}

/// Checked conversion of a stage assignment to a plan's arity: exactly
/// `N` choices, each `Typer` or `Tectorwise`.
pub(crate) fn assignment<const N: usize>(choices: &[Engine]) -> [Engine; N] {
    assert!(
        choices.len() == N
            && choices
                .iter()
                .all(|e| matches!(e, Engine::Typer | Engine::Tectorwise)),
        "expected {N} Typer/Tectorwise stage choices, got {choices:?}"
    );
    std::array::from_fn(|i| choices[i])
}

/// The three execution paradigms (Table 6 taxonomy), plus the hybrid
/// driver that mixes them per pipeline stage.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Engine {
    /// Push + compiled (HyPer model).
    Typer,
    /// Pull + vectorized (VectorWise model).
    Tectorwise,
    /// Pull + interpreted (System R model).
    Volcano,
    /// Per-pipeline-stage hybrid of Typer and Tectorwise (the
    /// Kashuba & Mühleisen direction): each stage of
    /// [`QueryPlan::stages`] runs under whichever paradigm is expected
    /// to win it. Outside a `dbep_core::Session` this uses the static
    /// paper heuristic ([`Engine::heuristic_choices`]); inside a
    /// session, the plan cache learns the choice from instrumented
    /// runs of both candidates.
    Adaptive,
}

impl Engine {
    /// Every *paradigm*, in the paper's presentation order. `Adaptive`
    /// is deliberately excluded: it composes these three and would make
    /// cross-engine equivalence sweeps self-referential.
    pub const ALL: [Engine; 3] = [Engine::Typer, Engine::Tectorwise, Engine::Volcano];

    /// Everything `--engine` accepts: the paradigms plus `adaptive`.
    pub const SELECTABLE: [Engine; 4] = [
        Engine::Typer,
        Engine::Tectorwise,
        Engine::Volcano,
        Engine::Adaptive,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Engine::Typer => "typer",
            Engine::Tectorwise => "tectorwise",
            Engine::Volcano => "volcano",
            Engine::Adaptive => "adaptive",
        }
    }

    /// Position in [`Engine::SELECTABLE`] — the small integer id span
    /// traces record an engine as (`dbep_obs` name tables index by it).
    pub fn ordinal(self) -> u8 {
        Engine::SELECTABLE
            .iter()
            .position(|e| *e == self)
            .expect("every engine is selectable") as u8
    }

    /// The static per-stage choice (§4's findings as a rule): hash-table
    /// probes are cache-miss-bound and go to Tectorwise, whose batched
    /// probes overlap misses; everything else (fused scan/filter,
    /// builds, aggregation) goes to Typer, which keeps tuples in
    /// registers. What `Engine::Adaptive` runs before any instrumented
    /// run has been observed.
    pub fn heuristic_choices(stages: &[StageDesc]) -> Vec<Engine> {
        stages
            .iter()
            .map(|s| match s.kind {
                StageKind::JoinProbe => Engine::Tectorwise,
                _ => Engine::Typer,
            })
            .collect()
    }
}

impl std::str::FromStr for Engine {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        Engine::SELECTABLE
            .into_iter()
            .find(|e| e.name().eq_ignore_ascii_case(s))
            .ok_or_else(|| format!("unknown engine {s:?} (expected typer|tectorwise|volcano|adaptive)"))
    }
}

/// Identifiers for every benchmark query in the study.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum QueryId {
    Q1,
    Q6,
    Q3,
    Q9,
    Q18,
    Q4,
    Q12,
    Q14,
    Ssb1_1,
    Ssb2_1,
    Ssb3_1,
    Ssb4_1,
}

impl QueryId {
    /// The paper's TPC-H subset in its presentation order (§3.3) —
    /// use this for reproducing the paper's figures/tables row-for-row.
    pub const TPCH_PAPER: [QueryId; 5] = [QueryId::Q1, QueryId::Q6, QueryId::Q3, QueryId::Q9, QueryId::Q18];
    /// All TPC-H queries: the paper's subset in its presentation order
    /// (§3.3), then the workload-broadening additions (Q4 semi-join,
    /// Q12 IN-list + CASE counters, Q14 prefix-match ratio).
    pub const TPCH: [QueryId; 8] = [
        QueryId::Q1,
        QueryId::Q6,
        QueryId::Q3,
        QueryId::Q9,
        QueryId::Q18,
        QueryId::Q4,
        QueryId::Q12,
        QueryId::Q14,
    ];
    /// The SSB flights of §4.4.
    pub const SSB: [QueryId; 4] = [QueryId::Ssb1_1, QueryId::Ssb2_1, QueryId::Ssb3_1, QueryId::Ssb4_1];
    /// Every query of the study (registry order).
    pub const ALL: [QueryId; 12] = [
        QueryId::Q1,
        QueryId::Q6,
        QueryId::Q3,
        QueryId::Q9,
        QueryId::Q18,
        QueryId::Q4,
        QueryId::Q12,
        QueryId::Q14,
        QueryId::Ssb1_1,
        QueryId::Ssb2_1,
        QueryId::Ssb3_1,
        QueryId::Ssb4_1,
    ];

    pub fn name(self) -> &'static str {
        match self {
            QueryId::Q1 => "q1",
            QueryId::Q6 => "q6",
            QueryId::Q3 => "q3",
            QueryId::Q9 => "q9",
            QueryId::Q18 => "q18",
            QueryId::Q4 => "q4",
            QueryId::Q12 => "q12",
            QueryId::Q14 => "q14",
            QueryId::Ssb1_1 => "ssb-q1.1",
            QueryId::Ssb2_1 => "ssb-q2.1",
            QueryId::Ssb3_1 => "ssb-q3.1",
            QueryId::Ssb4_1 => "ssb-q4.1",
        }
    }

    /// Inverse of [`QueryId::name`] (the single place names map back to
    /// ids — harnesses must not re-implement this with string matches).
    pub fn from_name(name: &str) -> Option<QueryId> {
        QueryId::ALL.into_iter().find(|q| q.name() == name)
    }

    /// Position in [`QueryId::ALL`] (== [`REGISTRY`] order, held there
    /// by test) — the small integer id span traces record a query as.
    pub fn ordinal(self) -> u16 {
        QueryId::ALL
            .iter()
            .position(|q| *q == self)
            .expect("QueryId::ALL is exhaustive") as u16
    }

    /// Total tuples scanned by this query's plan — the paper's
    /// normalization denominator ("the sum of the cardinalities of all
    /// tables scanned", §3.4). Delegates to the registered plan.
    pub fn tuples_scanned(self, db: &dbep_storage::Database) -> usize {
        plan(self).tuples_scanned(db)
    }
}

impl std::str::FromStr for QueryId {
    type Err = String;

    /// Case-insensitive (like `Engine::from_str` — the two feed the
    /// same CLI flags); [`QueryId::from_name`] stays the exact inverse
    /// of [`QueryId::name`].
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        QueryId::ALL
            .into_iter()
            .find(|q| q.name().eq_ignore_ascii_case(s))
            .ok_or_else(|| {
                let known: Vec<&str> = QueryId::ALL.iter().map(|q| q.name()).collect();
                format!("unknown query {s:?} (expected one of {})", known.join(" "))
            })
    }
}

/// One named pipeline stage of a physical plan — the granularity the
/// adaptive engine chooses paradigms at. Stages are separated by
/// pipeline breakers (hash-table builds, aggregation merges) and listed
/// in execution order; [`ExecCfg::stage`] indices refer to this order.
#[derive(Clone, Copy, Debug)]
pub struct StageDesc {
    /// Short stable label for reports (e.g. `"probe-lineitem"`).
    pub name: &'static str,
    /// The stage's dominant operation, driving the static heuristic.
    pub kind: StageKind,
}

impl StageDesc {
    pub const fn new(name: &'static str, kind: StageKind) -> Self {
        StageDesc { name, kind }
    }
}

/// One physical query plan of the study: its list of pipeline stages,
/// and the same plan as a Volcano [`Plan`] value.
///
/// Per the methodology (§3) every paradigm runs the same plan — join
/// order, build sides, data structures — so the paradigm is the only
/// variable, and it is chosen *per stage*: each stage is one driver call
/// with a Typer body (a fused loop over a morsel) and a Tectorwise body
/// (a primitive chain over a vector) that fold into the same per-worker
/// state, and a pure engine is the uniform assignment. Volcano
/// interprets [`QueryPlan::volcano_plan`]. Every entry point receives
/// the query's bound substitution [`Params`] (see [`params`]); with
/// [`Params::default_for`] the plan reproduces the paper's instance
/// byte-for-byte. Adding a query to the harness is one struct
/// implementing this trait plus a [`REGISTRY`] entry; the dispatcher,
/// benchmarks and equivalence tests pick it up from there.
pub trait QueryPlan: Sync {
    /// The identifier this plan is registered under.
    fn id(&self) -> QueryId;

    /// The plan's pipeline stages in execution order.
    /// [`QueryPlan::run_stages`] brackets each with [`ExecCfg::stage`]
    /// using these indices, so an attached [`StageTrace`] decomposes a
    /// run into per-stage wall times. Volcano is the interpretation
    /// baseline and is never a per-stage candidate, so its runs stay
    /// uninstrumented.
    fn stages(&self) -> &'static [StageDesc];

    /// Execute the plan with `choices[i]` running stage `i` of
    /// [`QueryPlan::stages`]: `Typer` is data-centric compiled
    /// execution (push, fused pipelines), `Tectorwise` is
    /// vector-at-a-time (pull, primitives). Panics unless there is
    /// exactly one such choice per stage. A hash table is hashed with
    /// its *build* stage's function ([`ExecCfg::hash`] or that
    /// paradigm's §4.1 default) and every probe of it, under either
    /// paradigm, uses the same one.
    fn run_stages(
        &self,
        db: &dbep_storage::Database,
        cfg: &ExecCfg,
        params: &Params,
        choices: &[Engine],
    ) -> result::QueryResult;

    /// The plan as a Volcano operator tree bound to `params`: the same
    /// tables, join order and build sides as the stages, with the fact
    /// table (the probe side) as the driving scan.
    fn volcano_plan(&self, params: &Params) -> Plan;

    /// The engine-independent result of the rows [`Plan::run`] returned
    /// for [`QueryPlan::volcano_plan`].
    fn volcano_result(&self, db: &dbep_storage::Database, rows: Vec<Row>) -> result::QueryResult;

    /// Total tuples scanned by the plan — the paper's normalization
    /// denominator ("the sum of the cardinalities of all tables
    /// scanned", §3.4): the row counts of the tables the Volcano plan
    /// scans.
    fn tuples_scanned(&self, db: &dbep_storage::Database) -> usize {
        self.volcano_plan(&Params::default_for(self.id()))
            .tuples_scanned(db)
    }

    /// Dispatch on the execution paradigm: `Typer` and `Tectorwise` are
    /// the two uniform stage assignments, `Volcano` interprets
    /// [`QueryPlan::volcano_plan`] with `cfg.threads` workers and every
    /// scan paced against `cfg.throttle`, `Adaptive` (here, with no
    /// session and so no learned state) the static
    /// [`Engine::heuristic_choices`].
    fn run(
        &self,
        engine: Engine,
        db: &dbep_storage::Database,
        cfg: &ExecCfg,
        params: &Params,
    ) -> result::QueryResult {
        let stages = self.stages();
        match engine {
            Engine::Typer | Engine::Tectorwise => {
                self.run_stages(db, cfg, params, &vec![engine; stages.len()])
            }
            Engine::Volcano => {
                let rows = self.volcano_plan(params).run(db, &cfg.exec(), cfg.throttle);
                self.volcano_result(db, rows)
            }
            Engine::Adaptive => self.run_stages(db, cfg, params, &Engine::heuristic_choices(stages)),
        }
    }
}

/// Every registered query plan, in the paper's presentation order.
pub static REGISTRY: &[&dyn QueryPlan] = &[
    &tpch::q1::Q1,
    &tpch::q6::Q6,
    &tpch::q3::Q3,
    &tpch::q9::Q9,
    &tpch::q18::Q18,
    &tpch::q4::Q4,
    &tpch::q12::Q12,
    &tpch::q14::Q14,
    &ssb::q1_1::Q11,
    &ssb::q2_1::Q21,
    &ssb::q3_1::Q31,
    &ssb::q4_1::Q41,
];

/// Look up the registered plan for a query.
pub fn plan(query: QueryId) -> &'static dyn QueryPlan {
    REGISTRY
        .iter()
        .copied()
        .find(|p| p.id() == query)
        .unwrap_or_else(|| panic!("no registered plan for {:?}", query))
}

/// Name tables for exporting span traces recorded against this
/// registry's ordinals ([`QueryId::ordinal`] / [`Engine::ordinal`] /
/// stage indices) — the bridge between the id-only `dbep_obs` sink and
/// human-readable Chrome trace output.
pub fn trace_names() -> dbep_obs::TraceNames {
    dbep_obs::TraceNames {
        queries: REGISTRY
            .iter()
            .map(|p| dbep_obs::TraceQuery {
                name: p.id().name().to_string(),
                stages: p.stages().iter().map(|s| s.name.to_string()).collect(),
            })
            .collect(),
        engines: Engine::SELECTABLE.iter().map(|e| e.name().to_string()).collect(),
    }
}

/// Run any benchmark query on any engine with the paper's default
/// parameters (harness entry point; see [`run_with`] for bound
/// parameters and `dbep_core::Session` for the prepare-once API).
pub fn run(
    engine: Engine,
    query: QueryId,
    db: &dbep_storage::Database,
    cfg: &ExecCfg,
) -> result::QueryResult {
    run_with(engine, query, db, cfg, &Params::default_for(query))
}

/// Run a query with explicitly bound [`Params`].
///
/// Panics if `params` binds a different query than `query` — prepared
/// queries (`dbep_core::Session::prepare`) rule this out statically.
pub fn run_with(
    engine: Engine,
    query: QueryId,
    db: &dbep_storage::Database,
    cfg: &ExecCfg,
    params: &Params,
) -> result::QueryResult {
    assert_eq!(
        params.query(),
        query,
        "params bind {} but {} was requested",
        params.query().name(),
        query.name()
    );
    plan(query).run(engine, db, cfg, params)
}

#[cfg(test)]
mod registry_tests {
    use super::*;

    /// `QueryId::ALL` is documented as "registry order" — hold the two
    /// to it so they cannot drift when a query is added.
    #[test]
    fn query_id_all_matches_registry_order() {
        assert_eq!(REGISTRY.len(), QueryId::ALL.len());
        for (i, p) in REGISTRY.iter().enumerate() {
            assert_eq!(
                p.id(),
                QueryId::ALL[i],
                "REGISTRY[{i}] is {} but QueryId::ALL[{i}] is {}",
                p.id().name(),
                QueryId::ALL[i].name()
            );
        }
    }

    #[test]
    fn names_roundtrip() {
        for q in QueryId::ALL {
            assert_eq!(QueryId::from_name(q.name()), Some(q));
            assert_eq!(q.name().parse::<QueryId>(), Ok(q));
        }
        assert!(QueryId::from_name("q99").is_none());
        assert!("q99".parse::<QueryId>().is_err());
        // FromStr is case-insensitive (like Engine's); from_name exact.
        assert_eq!("Q6".parse::<QueryId>(), Ok(QueryId::Q6));
        assert!(QueryId::from_name("Q6").is_none());
        for e in Engine::SELECTABLE {
            assert_eq!(e.name().parse::<Engine>(), Ok(e));
        }
        assert_eq!("TYPER".parse::<Engine>(), Ok(Engine::Typer));
        assert_eq!("adaptive".parse::<Engine>(), Ok(Engine::Adaptive));
        assert!("spark".parse::<Engine>().is_err());
        assert!(!Engine::ALL.contains(&Engine::Adaptive));
    }

    /// Every plan declares at least one stage, with names unique within
    /// the plan (stage labels key per-stage reports).
    #[test]
    fn all_plans_declare_stages() {
        for p in REGISTRY {
            let stages = p.stages();
            assert!(!stages.is_empty(), "{} declares no stages", p.id().name());
            for (i, a) in stages.iter().enumerate() {
                for b in &stages[..i] {
                    assert_ne!(a.name, b.name, "{} repeats stage name {}", p.id().name(), a.name);
                }
            }
        }
    }

    /// Ordinals are positions in the canonical arrays, and the exported
    /// name tables line up with them — a span recorded with
    /// `(q.ordinal(), e.ordinal(), stage_idx)` names back correctly.
    #[test]
    fn ordinals_and_trace_names_line_up() {
        let names = trace_names();
        assert_eq!(names.queries.len(), QueryId::ALL.len());
        assert_eq!(names.engines.len(), Engine::SELECTABLE.len());
        for q in QueryId::ALL {
            assert_eq!(names.queries[q.ordinal() as usize].name, q.name());
            let stages = plan(q).stages();
            assert_eq!(names.queries[q.ordinal() as usize].stages.len(), stages.len());
        }
        for e in Engine::SELECTABLE {
            assert_eq!(names.engines[e.ordinal() as usize], e.name());
        }
        assert_eq!(QueryId::Q1.ordinal(), 0);
        assert_eq!(Engine::Typer.ordinal(), 0);
    }

    /// `ExecCfg::stage` with traces attached records into all three
    /// instruments; without, the guard is inert.
    #[test]
    fn stage_guard_feeds_attached_instruments() {
        let cfg = ExecCfg::default();
        drop(cfg.stage(0)); // inert guard on an uninstrumented cfg

        let sink = dbep_obs::TraceSink::new(64);
        let qt = QueryTrace::new(&sink, QueryId::Q6.ordinal(), Engine::Typer.ordinal());
        let st = StageTrace::new(2);
        let sc = StageCounters::new(2);
        let cfg = ExecCfg {
            stage_trace: Some(&st),
            trace: Some(&qt),
            stage_counters: Some(&sc),
            ..ExecCfg::default()
        };
        {
            let _g = cfg.stage(1);
            std::hint::black_box(std::time::Instant::now());
        }
        assert!(st.snapshot()[1] > 0, "stage timer recorded");
        let events = sink.snapshot();
        assert_eq!(events.len(), 1, "one stage span recorded");
        assert_eq!(events[0].stage, 1);
        // Counter samples appear only where perf is available.
        let samples = sc.snapshot()[1].samples;
        assert!(samples <= 1);
    }

    /// Morsel spans from `map_scan` carry rows and land under the
    /// current stage.
    #[test]
    fn map_scan_emits_morsel_spans_when_traced() {
        let sink = dbep_obs::TraceSink::new(256);
        let qt = QueryTrace::new(&sink, QueryId::Q6.ordinal(), Engine::Tectorwise.ordinal());
        let cfg = ExecCfg {
            trace: Some(&qt),
            ..ExecCfg::default()
        };
        let total = 10_000;
        let states = {
            let _stage = cfg.stage(0);
            cfg.map_scan(total, 64, || 0usize, |acc, r| *acc += r.len())
        };
        assert_eq!(states.iter().sum::<usize>(), total);
        let events = sink.snapshot();
        let morsels: Vec<_> = events
            .iter()
            .filter(|e| e.kind == dbep_obs::SpanKind::Morsel)
            .collect();
        assert!(!morsels.is_empty());
        assert_eq!(morsels.iter().map(|e| e.rows as usize).sum::<usize>(), total);
        assert!(morsels.iter().all(|e| e.stage == 0), "attributed to stage 0");

        // Untraced cfg: same scan still works with no trace attached.
        let cfg = ExecCfg::default();
        let states = cfg.map_scan(total, 64, || 0usize, |acc, r| *acc += r.len());
        assert_eq!(states.iter().sum::<usize>(), total);
    }

    /// The paradigm dispatch: Typer's body sees exactly the morsels,
    /// Tectorwise's sees vectors of at most `vector_size` rows that tile
    /// each morsel in order, inline and on a 2-worker pool, and a morsel
    /// span is recorded per morsel, not per vector. Each worker's state
    /// holds the morsels it ran and the ranges its bodies saw.
    #[test]
    fn bodies_run_typer_per_morsel_and_tectorwise_per_vector() {
        type Seen = (Vec<Range<usize>>, Vec<Range<usize>>);
        let total = 100_000;
        let pool = dbep_scheduler::Scheduler::new(2);
        let run = pool.begin_query(dbep_scheduler::DEFAULT_PRIORITY);
        for (threads, sched) in [(1, None), (2, Some(&run))] {
            for vector_size in [1, 1024, usize::MAX] {
                for engine in [Engine::Typer, Engine::Tectorwise] {
                    let sink = dbep_obs::TraceSink::new(1 << 12);
                    let qt = QueryTrace::new(&sink, QueryId::Q6.ordinal(), engine.ordinal());
                    let cfg = ExecCfg {
                        threads,
                        vector_size,
                        sched,
                        trace: Some(&qt),
                        ..ExecCfg::default()
                    };
                    let see = |(_, seen): &mut Seen, r: Range<usize>| seen.push(r);
                    let body = cfg.bodies(engine, see, see);
                    let states = cfg.map_scan(total, 64, Seen::default, |state, r| {
                        state.0.push(r.clone());
                        body(state, r);
                    });
                    let mut morsels = Vec::new();
                    for (ran, seen) in states {
                        let mut seen = seen.into_iter();
                        for m in ran {
                            if engine == Engine::Typer {
                                assert_eq!(seen.next(), Some(m.clone()), "Typer's body sees the morsel");
                            } else {
                                let mut at = m.start;
                                while at < m.end {
                                    let v = seen.next().expect("the morsel's vectors cover it");
                                    assert_eq!(v.start, at, "vectors tile the morsel in order");
                                    assert!(!v.is_empty() && v.len() <= vector_size, "{v:?}");
                                    at = v.end;
                                }
                                assert_eq!(at, m.end, "a vector crosses its morsel's end");
                            }
                            morsels.push(m);
                        }
                        assert!(seen.next().is_none(), "a body ran outside any morsel");
                    }
                    morsels.sort_by_key(|m| m.start);
                    assert!(morsels.windows(2).all(|w| w[0].end == w[1].start));
                    assert_eq!((morsels[0].start, morsels[morsels.len() - 1].end), (0, total));
                    let mut rows: Vec<usize> = morsels.iter().map(|m| m.len()).collect();
                    let mut spans: Vec<usize> = sink
                        .snapshot()
                        .iter()
                        .filter(|e| e.kind == dbep_obs::SpanKind::Morsel)
                        .map(|e| e.rows as usize)
                        .collect();
                    rows.sort_unstable();
                    spans.sort_unstable();
                    assert_eq!(spans, rows, "one morsel span per morsel, with its rows");
                    assert_eq!(sink.dropped(), 0);
                }
            }
        }
    }

    /// Volcano and Adaptive have no morsel body: choosing one for a
    /// stage panics at the driver, before any morsel runs.
    #[test]
    fn driver_rejects_non_candidates() {
        for engine in [Engine::Volcano, Engine::Adaptive] {
            let ran = std::sync::atomic::AtomicBool::new(false);
            let body = |_: &mut (), _: Range<usize>| ran.store(true, std::sync::atomic::Ordering::Relaxed);
            let cfg = ExecCfg::default();
            let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                cfg.fold(engine, 100, 64, || (), body, body)
            }));
            assert!(result.is_err(), "{engine:?} ran a stage");
            assert!(!ran.into_inner(), "{engine:?} ran a morsel body");
        }
    }

    /// A stage assignment is one `Typer`/`Tectorwise` choice per stage;
    /// anything else is a caller bug and panics at the plan's door.
    #[test]
    fn assignment_rejects_wrong_arity_and_non_candidates() {
        assert_eq!(
            assignment::<2>(&[Engine::Typer, Engine::Tectorwise]),
            [Engine::Typer, Engine::Tectorwise]
        );
        for bad in [
            &[Engine::Typer][..],
            &[Engine::Typer, Engine::Volcano],
            &[Engine::Adaptive, Engine::Typer],
        ] {
            assert!(
                std::panic::catch_unwind(|| assignment::<2>(bad)).is_err(),
                "{bad:?}"
            );
        }
    }

    #[test]
    fn heuristic_prefers_tw_for_probes() {
        let probe_heavy = [
            StageDesc::new("build", StageKind::JoinBuild),
            StageDesc::new("probe", StageKind::JoinProbe),
        ];
        assert_eq!(
            Engine::heuristic_choices(&probe_heavy),
            vec![Engine::Typer, Engine::Tectorwise]
        );
        let fused = [StageDesc::new("scan", StageKind::ScanFilter)];
        assert_eq!(Engine::heuristic_choices(&fused), vec![Engine::Typer]);
    }
}
