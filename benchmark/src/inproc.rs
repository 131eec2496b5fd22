//! The in-process workloads (`scan_flat`, `scan_encoded`,
//! `hash_heavy`): one closed-loop client preparing and running on a
//! `Session` in this process.
//!
//! Everything is measured from outside the engines: the calls are
//! timed here, and the per-layer numbers are read from what the calls
//! return (`RunStats`, a `StageTrace` attached through `ExecCfg`,
//! `PlanCacheStats`) or from the instruments a traced run attaches
//! (`Session::with_trace`, `Session::with_metrics`).

use crate::catalog::{Workload, SINK_CAPACITY};
use crate::data::{self, mixes_engines, Databases, Sessions};
use crate::layers;
use crate::report::{Opts, Outcome};
use crate::schedule::{self, Binding, Request, BINDINGS};
use crate::spans::{self, kind_index, stage_span, Recorder, Span};
use crate::stats::{self, end_to_end, ratio, Sample};
use crate::verify::{self, Digest, References};
use dbep_bench::json;
use dbep_core::obs::TraceSink;
use dbep_core::queries::params::Params;
use dbep_core::queries::{plan, Engine, ExecCfg, QueryId, StageKind};
use dbep_core::scheduler::{RunStats, StageTrace};
use dbep_core::{EngineMetrics, Session};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Rounds of the plan-cache probe: each prepares one held and one
/// fresh binding per workload query.
const PREPARE_PROBES: usize = 32;

/// Sessions over the workload's databases with every recurring binding
/// prepared.
struct Ctx {
    sessions: Sessions,
    bindings: Vec<(QueryId, [Params; BINDINGS])>,
    refs: References,
}

/// The instruments a traced run attaches to its sessions.
struct Instruments {
    sink: Arc<TraceSink>,
    metrics: Arc<EngineMetrics>,
}

impl Ctx {
    fn build(wl: &Workload, dbs: &Databases, seed: u64, threads: usize) -> Ctx {
        let ctx = Ctx {
            sessions: Sessions::open(dbs, |db| Session::with_cfg(db, ExecCfg::with_threads(threads))),
            bindings: wl
                .queries
                .iter()
                .map(|&q| (q, schedule::recurring(seed, q)))
                .collect(),
            refs: References::default(),
        };
        for (query, bindings) in &ctx.bindings {
            for params in bindings {
                ctx.session(*query).prepare_params(params.clone());
            }
        }
        ctx
    }

    /// The same sessions with the traced run's instruments attached:
    /// clones share the worker pool and the plan cache, so what the
    /// warm-up committed stays committed.
    fn instrumented(&self, ins: &Instruments) -> Ctx {
        Ctx {
            sessions: self.sessions.map(|s| {
                s.clone()
                    .with_trace(Arc::clone(&ins.sink))
                    .with_metrics(Arc::clone(&ins.metrics))
            }),
            bindings: self.bindings.clone(),
            refs: self.refs.clone(),
        }
    }

    fn session(&self, query: QueryId) -> &Session {
        self.sessions.of(query)
    }

    fn params(&self, query: QueryId, binding: usize) -> &Params {
        let (_, bindings) = self
            .bindings
            .iter()
            .find(|(q, _)| *q == query)
            .expect("a workload query");
        &bindings[binding]
    }

    /// Untimed passes that let caches fill and lazy set-up finish: one
    /// per `(query, binding, light engine)`, Adaptive repeated until its
    /// choice is committed, and Volcano once on binding 0. Returns the
    /// Adaptive runs made while still exploring, and whether every
    /// result agreed (and, in quick mode, matched its pin).
    fn warm_up(&mut self, quick: bool) -> (u64, bool) {
        let mut explore_runs = 0;
        let mut agreed = true;
        for (query, bindings) in self.bindings.clone() {
            for (b, params) in bindings.into_iter().enumerate() {
                let binding = Binding::Recurring(b);
                let prepared = self.session(query).prepare_params(params);
                let mut engines = vec![Engine::Typer, Engine::Tectorwise];
                if b == 0 {
                    engines.push(Engine::Volcano);
                }
                for engine in engines {
                    let result = prepared.run(engine);
                    if b == 0 && quick && engine == Engine::Typer {
                        agreed &= verify::matches_pin(query, &result);
                    }
                    agreed &= self.refs.agrees(query, &binding, Digest::of(&result));
                }
                // Two exploring runs commit the choice; one more runs it.
                for _ in 0..4 {
                    let exploring = prepared.adaptive_choices().is_none();
                    explore_runs += exploring as u64;
                    let result = prepared.run(Engine::Adaptive);
                    agreed &= self.refs.agrees(query, &binding, Digest::of(&result));
                    if !exploring {
                        break;
                    }
                }
            }
        }
        (explore_runs, agreed)
    }

    /// `(query, binding)` plans whose committed Adaptive assignment
    /// mixes both engines.
    fn mixed_plans(&self) -> usize {
        self.bindings
            .iter()
            .flat_map(|(q, bindings)| bindings.iter().map(move |p| (*q, p)))
            .filter(|(q, p)| mixes_engines(&self.session(*q).prepare_params((*p).clone())))
            .count()
    }

    /// Median time to prepare a binding the plan cache holds, and one
    /// it has never seen, taken back-to-back so the two compare.
    fn prepare_us(&self, wl: &Workload, seed: u64) -> (f64, f64) {
        let (mut hits, mut misses) = (Vec::new(), Vec::new());
        let mut specs = schedule::fresh_specs(wl, seed);
        for _ in 0..PREPARE_PROBES {
            for (query, bindings) in &self.bindings {
                let session = self.session(*query);
                let recurring = bindings[0].clone();
                let t = Instant::now();
                let prepared = session.prepare_params(recurring);
                hits.push(t.elapsed());
                drop(prepared);
                let fresh = specs.next(*query);
                let t = Instant::now();
                let prepared = session.prepare_params(fresh);
                let took = t.elapsed();
                if !prepared.cache_hit() {
                    misses.push(took);
                }
            }
        }
        (
            stats::us(stats::quantile(&hits, 0.5)),
            stats::us(stats::quantile(&misses, 0.5)),
        )
    }

    fn plan_cache(&self) -> (u64, u64, usize) {
        self.sessions
            .iter()
            .map(Session::plan_cache_stats)
            .fold((0, 0, 0), |(h, m, e), s| {
                (h + s.hits, m + s.misses, e + s.entries)
            })
    }
}

/// Per-engine sums behind the `*.ns_per_tuple` and `storage.scan_*`
/// numbers, indexed by `Engine::ordinal`.
#[derive(Clone, Copy, Default)]
struct EngineSums {
    time_ns: u64,
    tuples: u64,
    bytes: u64,
}

/// What one timed pass over the schedule produced.
#[derive(Default)]
struct Pass {
    samples: Vec<Sample>,
    wall: Duration,
    cycles: usize,
    by_engine: [EngineSums; 4],
    stats: RunStats,
    /// Stage wall time by [`KINDS`] position, and the run wall of the
    /// runs that reported stages (traced passes only).
    stage_ns: [u64; 4],
    staged_run_ns: u64,
}

impl Pass {
    fn attempted(&self) -> u64 {
        self.samples.len() as u64
    }

    fn failed(&self) -> u64 {
        self.samples.iter().filter(|s| !s.ok).count() as u64
    }

    fn qps(&self) -> f64 {
        (self.attempted() - self.failed()) as f64 / self.wall.as_secs_f64()
    }
}

/// One traced pass's own instruments.
struct Tracer {
    recorder: Recorder,
    metrics: Arc<EngineMetrics>,
}

/// The scheduler-side counters a traced run reads back from the
/// attached metrics bundle (the run itself returns only the result).
fn metered(m: &EngineMetrics) -> RunStats {
    RunStats {
        admission_wait: Duration::from_nanos(m.admission_wait_ns.sum()),
        queue_wait: Duration::from_nanos(m.queue_wait_ns.sum()),
        tasks: 0,
        morsels: m.morsels_executed_total.get(),
        steals: m.steals_total.get(),
        bytes_scanned: m.bytes_scanned_total.get(),
    }
}

fn add_stats(total: &mut RunStats, s: &RunStats) {
    total.admission_wait += s.admission_wait;
    total.queue_wait += s.queue_wait;
    total.tasks += s.tasks;
    total.morsels += s.morsels;
    total.steals += s.steals;
    total.bytes_scanned += s.bytes_scanned;
}

/// Issue one request: prepare (a plan-cache hit), run, verify.
fn issue(ctx: &mut Ctx, pass: &mut Pass, request: &Request, id: u32, tracer: Option<&mut Tracer>) {
    let Binding::Recurring(b) = request.binding else {
        unreachable!("in-process schedules only carry recurring bindings");
    };
    let (query, engine) = (request.query, request.engine);
    let params = ctx.params(query, b).clone();
    let session = ctx.session(query);

    let t0 = Instant::now();
    let prepared = session.prepare_params(params);
    let t1 = Instant::now();
    let (result, stats, stages) = match &tracer {
        None => {
            let (result, stats) = prepared.run_with_stats(engine);
            (result, stats, Vec::new())
        }
        Some(t) => {
            let trace = StageTrace::new(plan(query).stages().len());
            let cfg = ExecCfg {
                stage_trace: Some(&trace),
                ..*session.cfg()
            };
            let before = metered(&t.metrics);
            let result = prepared.run_with(engine, &cfg);
            let after = metered(&t.metrics);
            let stats = RunStats {
                admission_wait: after.admission_wait - before.admission_wait,
                queue_wait: after.queue_wait - before.queue_wait,
                tasks: 0,
                morsels: after.morsels - before.morsels,
                steals: after.steals - before.steals,
                bytes_scanned: after.bytes_scanned - before.bytes_scanned,
            };
            (result, stats, trace.snapshot())
        }
    };
    let t2 = Instant::now();

    let ok = ctx.refs.agrees(query, &request.binding, Digest::of(&result));
    pass.samples.push(Sample {
        query,
        engine,
        latency: t2 - t0,
        ok,
    });
    let run_ns = (t2 - t1).as_nanos() as u64;
    let sums = &mut pass.by_engine[engine.ordinal() as usize];
    sums.time_ns += run_ns;
    sums.tuples += prepared.tuples_scanned() as u64;
    sums.bytes += stats.bytes_scanned;
    add_stats(&mut pass.stats, &stats);

    let Some(tracer) = tracer else { return };
    let staged: u64 = stages.iter().sum();
    if staged > 0 {
        pass.staged_run_ns += run_ns;
    }
    let rec = &mut tracer.recorder;
    let (start, prepared_at, end) = (rec.at(t0), rec.at(t1), rec.at(t2));
    let root = rec.push(Span {
        name: "request",
        parent: None,
        request: id,
        start_ns: start,
        end_ns: end,
        query,
        engine,
    });
    rec.child(root, "core.prepare", start, prepared_at - start);
    let run = rec.child(root, "queries.run", prepared_at, end - prepared_at);
    // The run returns how long it waited and how long each stage took,
    // not when: the gate comes first, stages follow in plan order, and
    // the queue wait (task submission to first morsel, inside whichever
    // stage submitted) is laid at the head of the stages in proportion.
    let admission = stats.admission_wait.as_nanos() as u64;
    rec.child(run, "scheduler.admission_wait", prepared_at, admission);
    let mut cursor = prepared_at + admission;
    for (i, &ns) in stages.iter().enumerate() {
        if ns == 0 {
            continue;
        }
        let kind = plan(query).stages()[i].kind;
        pass.stage_ns[kind_index(kind)] += ns;
        let stage = rec.child(run, stage_span(kind), cursor, ns);
        let queued = (stats.queue_wait.as_nanos() as u64).min(staged) as u128 * ns as u128 / staged as u128;
        rec.child(stage, "scheduler.queue_wait", cursor, queued as u64);
        cursor += ns;
    }
}

/// Run whole cycles from cycle 0 until `budget` has passed, and never
/// fewer than `min_cycles`.
fn timed_pass(
    ctx: &mut Ctx,
    wl: &Workload,
    seed: u64,
    budget: Duration,
    min_cycles: usize,
    mut tracer: Option<&mut Tracer>,
) -> Pass {
    let mut pass = Pass::default();
    let t0 = Instant::now();
    while pass.cycles < min_cycles || t0.elapsed() < budget {
        for request in schedule::cycle(wl, seed, pass.cycles) {
            let id = pass.samples.len() as u32;
            issue(ctx, &mut pass, &request, id, tracer.as_deref_mut());
        }
        pass.cycles += 1;
    }
    pass.wall = t0.elapsed();
    pass
}

/// The untraced run: every end-to-end metric.
fn untraced(opts: &Opts) -> Outcome {
    let wl = &opts.workload;
    let preamble = opts.started.elapsed();
    let (mut ctx, build) =
        data::build_repeatedly(|| Ctx::build(wl, &data::generate(wl), opts.seed, wl.threads));
    let t = Instant::now();
    let (_, agreed) = ctx.warm_up(opts.quick);
    let setup = preamble + build + t.elapsed();

    let budget = Duration::from_secs_f64(opts.seconds);
    let pass = timed_pass(&mut ctx, wl, opts.seed, budget, wl.min_cycles, None);
    let (metrics, mut detail) = end_to_end(
        setup.as_secs_f64(),
        wl.queries,
        &pass.samples,
        &pass.samples,
        pass.qps(),
    );
    detail.push(("cycles", pass.cycles.to_string()));
    detail.push(("timed_wall_s", json::number(pass.wall.as_secs_f64())));
    detail.push(("warm_up_agreed", agreed.to_string()));
    Outcome {
        attempted: pass.attempted() + !agreed as u64,
        failed: pass.failed() + !agreed as u64,
        metrics,
        detail,
    }
}

/// `t1 / (threads · t_threads)` over the pure-engine requests of round
/// 0: the same requests on a one-worker session and on the workload's.
fn parallel_efficiency(wl: &Workload, dbs: &Databases, seed: u64, pooled: &mut Ctx) -> f64 {
    if wl.threads < 2 {
        return 0.0;
    }
    let mut single = Ctx::build(wl, dbs, seed, 1);
    let requests: Vec<Request> = schedule::round(wl, seed, 0)
        .into_iter()
        .filter(|r| matches!(r.engine, Engine::Typer | Engine::Tectorwise))
        .collect();
    let lap = |ctx: &mut Ctx| {
        let mut pass = Pass::default();
        for request in &requests {
            issue(ctx, &mut pass, request, 0, None);
        }
        pass.samples.iter().map(|s| s.latency.as_secs_f64()).sum::<f64>()
    };
    // The first lap warms the session; the second is timed.
    let time = |ctx: &mut Ctx| {
        lap(ctx);
        lap(ctx)
    };
    let t1 = time(&mut single);
    let tn = time(pooled);
    ratio(t1, wl.threads as f64 * tn)
}

/// The traced run: every per-layer metric, and the trace file.
fn traced(opts: &Opts) -> Outcome {
    let wl = &opts.workload;
    let dbs = data::generate(wl);
    // A quarter of the budget untraced, a quarter traced, the rest for
    // the layer probes; a slow host still completes one cycle of each.
    let budget = Duration::from_secs_f64(opts.seconds / 4.0);

    let mut plain = Ctx::build(wl, &dbs, opts.seed, wl.threads);
    let (explore_runs, agreed) = plain.warm_up(opts.quick);
    let base = timed_pass(&mut plain, wl, opts.seed, budget, 1, None);

    let ins = Instruments {
        sink: Arc::new(TraceSink::new(SINK_CAPACITY)),
        metrics: EngineMetrics::new(),
    };
    let mut ctx = plain.instrumented(&ins);
    let mut tracer = Tracer {
        recorder: Recorder::new(Instant::now(), 1),
        metrics: Arc::clone(&ins.metrics),
    };
    let pass = timed_pass(&mut ctx, wl, opts.seed, budget, 1, Some(&mut tracer));
    let efficiency = parallel_efficiency(wl, &dbs, opts.seed, &mut plain);
    let probes = layers::probe(opts.quick);

    let recorders = [tracer.recorder];
    let waterfall = spans::waterfall(&recorders);
    let (hits, misses, entries) = ctx.plan_cache();
    let (prepare_hit_us, prepare_miss_us) = ctx.prepare_us(wl, opts.seed);
    let engine = |e: Engine| base.by_engine[e.ordinal() as usize];
    let ns_per_tuple = |e: Engine| ratio(engine(e).time_ns as f64, engine(e).tuples as f64);
    let gbps = |e: Engine| ratio(engine(e).bytes as f64, engine(e).time_ns as f64);
    let stage_ms = |k: StageKind| pass.stage_ns[kind_index(k)] as f64 / 1e6;

    let mut values = dbs.facts.metrics();
    values.extend([
        ("storage.scan_bytes", base.stats.bytes_scanned as f64),
        ("storage.scan_bytes_typer", engine(Engine::Typer).bytes as f64),
        (
            "storage.scan_bytes_tectorwise",
            engine(Engine::Tectorwise).bytes as f64,
        ),
        ("storage.scan_bytes_volcano", engine(Engine::Volcano).bytes as f64),
        ("storage.scan_gbps_typer", gbps(Engine::Typer)),
        ("storage.scan_gbps_tectorwise", gbps(Engine::Tectorwise)),
        ("vectorized.ns_per_tuple", ns_per_tuple(Engine::Tectorwise)),
        ("compiled.ns_per_tuple", ns_per_tuple(Engine::Typer)),
        ("volcano.ns_per_tuple", ns_per_tuple(Engine::Volcano)),
        ("scheduler.morsels", base.stats.morsels as f64),
        ("scheduler.tasks", base.stats.tasks as f64),
        ("scheduler.steals", base.stats.steals as f64),
        ("scheduler.queue_wait_ms", stats::ms(base.stats.queue_wait)),
        (
            "scheduler.admission_wait_ms",
            stats::ms(base.stats.admission_wait),
        ),
        ("scheduler.parallel_efficiency", efficiency),
        ("queries.stage_ms.scan_filter", stage_ms(StageKind::ScanFilter)),
        ("queries.stage_ms.join_build", stage_ms(StageKind::JoinBuild)),
        ("queries.stage_ms.join_probe", stage_ms(StageKind::JoinProbe)),
        ("queries.stage_ms.aggregate", stage_ms(StageKind::Aggregate)),
        (
            "queries.stage_coverage",
            ratio(
                pass.stage_ns.iter().sum::<u64>() as f64,
                pass.staged_run_ns as f64,
            ),
        ),
        ("core.prepare_hit_us", prepare_hit_us),
        ("core.prepare_miss_us", prepare_miss_us),
        (
            "core.plan_cache_hit_ratio",
            ratio(hits as f64, (hits + misses) as f64),
        ),
        ("core.plan_cache_entries", entries as f64),
        ("core.adaptive_explore_runs", explore_runs as f64),
        ("core.adaptive_mixed_plans", ctx.mixed_plans() as f64),
        ("obs.trace_overhead", ratio(pass.qps(), base.qps())),
        ("obs.spans_dropped", ins.sink.dropped() as f64),
        ("obs.spans_recorded", ins.sink.recorded() as f64),
        ("obs.waterfall_gap", waterfall.gap),
    ]);
    values.extend(probes);
    let metrics = layers::in_catalogue_order(values);
    let mut detail = vec![
        ("untraced_cycles", base.cycles.to_string()),
        ("traced_cycles", pass.cycles.to_string()),
        ("untraced_qps", json::number(base.qps())),
        ("traced_qps", json::number(pass.qps())),
    ];
    detail.extend(spans::write_trace(
        &opts.out_dir,
        wl.name,
        &recorders,
        &waterfall,
        &metrics,
    ));
    Outcome {
        attempted: base.attempted() + pass.attempted() + !agreed as u64,
        failed: base.failed() + pass.failed() + !agreed as u64,
        metrics,
        detail,
    }
}

pub fn run(opts: &Opts) -> Outcome {
    if opts.trace {
        traced(opts)
    } else {
        untraced(opts)
    }
}
