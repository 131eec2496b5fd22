//! The `serve_mix` workload: `dbep_net::Server` in this process, one
//! pool worker, clients over loopback TCP.
//!
//! Two timed phases run the same schedule. The **closed** phase drives
//! every connection back-to-back (a caller that waits for its reply)
//! and yields `throughput_qps` and `latency_p95_ms`. The **open** phase
//! sends on a seeded Poisson schedule at a fixed rate whatever the
//! server does (independent users), charges each request from the
//! moment it was *due*, and yields the per-engine latencies. Its own
//! p95 sits in a sparse tail that a thousand requests cannot pin down
//! (README, *Open and closed loop*); it is recorded, not bounded.
//! Three of four light requests `RUN` a handle `PREPARE`d in set-up;
//! the fourth is a `RUN_PARAMS` with a fresh binding, so the plan cache
//! is used both ways.
//!
//! A RESULT frame carries a checksum and a row count, not rows; both
//! must equal those of an in-process oracle session over the same data.

use crate::catalog::{Workload, SINK_CAPACITY};
use crate::data::{self, mixes_engines, Databases, Sessions};
use crate::layers;
use crate::report::{Opts, Outcome};
use crate::schedule::{self, Binding, Request, BINDINGS};
use crate::spans::{self, kind_index, Recorder, Span};
use crate::stats::{self, end_to_end, ratio, Sample};
use crate::verify::{self, Digest, References};
use dbep_bench::json::{self, Object};
use dbep_bench::load::{find_knee, poisson_arrivals, LoadPoint};
use dbep_bench::serve_stats::throughput;
use dbep_core::obs::{SpanKind, TraceSink};
use dbep_core::queries::params::Params;
use dbep_core::queries::{plan, Engine, ExecCfg, QueryId};
use dbep_core::runtime::SmallRng;
use dbep_core::{EngineMetrics, Session};
use dbep_net::{Client, ErrorCode, Response, RunOutcome, Server, ServerConfig};
use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Share of the timed budget the closed phase gets; the open phase
/// gets the rest.
const CLOSED_SHARE: f64 = 0.25;

/// Latency limit on the light p95 for a swept rate to count as met.
const SWEEP_LIMIT: Duration = Duration::from_millis(100);

/// Swept rates, as multiples of the workload's open rate.
const SWEEP: [f64; 4] = [0.5, 1.0, 1.5, 2.0];

/// One connection with the recurring bindings prepared on it.
struct Conn {
    client: Client,
    handles: HashMap<(QueryId, usize), u32>,
}

/// A listening server and its connected clients.
struct Stack {
    server: Server,
    conns: Vec<Conn>,
}

/// Why a request did not produce a usable RESULT.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Failure {
    Retry,
    Busy,
    /// Any other ERROR frame, a timeout or a transport failure.
    Error,
}

/// One exchange as its client saw it.
struct Done {
    request: Request,
    /// Completion, as an offset from the phase start.
    at: Duration,
    /// Due time to response (open) or send to response (closed).
    latency: Duration,
    /// Sent minus due; zero in the closed phase.
    lag: Duration,
    /// Send to response.
    call: Duration,
    outcome: Result<RunOutcome, Failure>,
}

impl Stack {
    fn start(wl: &Workload, dbs: &Databases, seed: u64, cfg: ServerConfig) -> std::io::Result<Stack> {
        let server = Server::serve("127.0.0.1:0", dbs.tpch.clone(), dbs.ssb.clone(), cfg)?;
        let mut conns = Vec::new();
        for _ in 0..wl.clients {
            let mut client = Client::connect(server.local_addr())?;
            let mut handles = HashMap::new();
            for &query in wl.queries {
                for (b, params) in schedule::recurring(seed, query).iter().enumerate() {
                    match client.prepare(query.name(), &params.to_spec()) {
                        Ok(Response::Prepared { handle, .. }) => handles.insert((query, b), handle),
                        other => return Err(std::io::Error::other(format!("PREPARE failed: {other:?}"))),
                    };
                }
            }
            conns.push(Conn { client, handles });
        }
        Ok(Stack { server, conns })
    }

    /// Untimed passes over the wire, as the in-process warm-up makes
    /// them: every `(query, binding, light engine)`, Adaptive three
    /// times (two exploring runs commit its choice), Volcano on
    /// binding 0.
    fn warm_up(&mut self, wl: &Workload, refs: &mut References) -> bool {
        let mut agreed = true;
        let conn = &mut self.conns[0];
        for &query in wl.queries {
            for b in 0..BINDINGS {
                let mut engines = vec![Engine::Typer, Engine::Tectorwise];
                engines.extend([Engine::Adaptive; 3]);
                if b == 0 {
                    engines.push(Engine::Volcano);
                }
                for engine in engines {
                    let request = Request {
                        query,
                        binding: Binding::Recurring(b),
                        engine,
                    };
                    agreed &= match exchange(conn, &request) {
                        Ok(o) => refs.agrees(query, &request.binding, digest(&o)),
                        Err(_) => false,
                    };
                }
            }
        }
        agreed
    }
}

fn digest(o: &RunOutcome) -> Digest {
    Digest {
        checksum: o.checksum,
        rows: o.rows,
    }
}

/// One request/response exchange.
fn exchange(conn: &mut Conn, request: &Request) -> Result<RunOutcome, Failure> {
    let engine = request.engine.name();
    let response = match &request.binding {
        Binding::Recurring(b) => conn.client.run(conn.handles[&(request.query, *b)], engine),
        Binding::Fresh(spec) => conn.client.run_params(request.query.name(), engine, spec),
    };
    match response {
        Ok(Response::Result(outcome)) => Ok(outcome),
        Ok(Response::Retry { .. }) => Err(Failure::Retry),
        Ok(Response::Error {
            code: ErrorCode::Busy,
            ..
        }) => Err(Failure::Busy),
        _ => Err(Failure::Error),
    }
}

/// The in-process oracle: pool-less sessions over the served data.
struct Oracle {
    sessions: Sessions,
}

impl Oracle {
    fn new(dbs: &Databases) -> Oracle {
        Oracle {
            sessions: Sessions::open(dbs, |db| Session::without_pool(db, ExecCfg::default())),
        }
    }

    fn session(&self, query: QueryId) -> &Session {
        self.sessions.of(query)
    }

    /// Reference digests of the recurring bindings (Typer), with the
    /// quick-mode pin check on binding 0.
    fn references(&self, wl: &Workload, seed: u64, quick: bool, refs: &mut References) -> bool {
        let mut agreed = true;
        for &query in wl.queries {
            for (b, params) in schedule::recurring(seed, query).into_iter().enumerate() {
                let result = self.session(query).prepare_params(params).run(Engine::Typer);
                if b == 0 && quick {
                    agreed &= verify::matches_pin(query, &result);
                }
                agreed &= refs.agrees(query, &Binding::Recurring(b), Digest::of(&result));
            }
        }
        agreed
    }

    /// Digest of a fresh binding, on an engine other than the one the
    /// server ran it under.
    fn fresh(&self, query: QueryId, spec: &str, served: Engine) -> Option<Digest> {
        let params = Params::from_spec(query, spec).ok()?;
        let engine = if served == Engine::Typer {
            Engine::Tectorwise
        } else {
            Engine::Typer
        };
        Some(Digest::of(
            &self.session(query).prepare_params(params).run(engine),
        ))
    }
}

/// What one client thread brings back from a phase.
type ClientLog = (Vec<Done>, Recorder);

/// Run `client(index, connection)` on one thread per connection and
/// collect what each returns.
fn on_every_connection<T: Send>(stack: &mut Stack, client: impl Fn(usize, &mut Conn) -> T + Sync) -> Vec<T> {
    std::thread::scope(|scope| {
        let client = &client;
        let workers: Vec<_> = stack
            .conns
            .iter_mut()
            .enumerate()
            .map(|(c, conn)| scope.spawn(move || client(c, conn)))
            .collect();
        workers
            .into_iter()
            .map(|w| w.join().expect("client thread"))
            .collect()
    })
}

/// Request ids of the open phase start here, clear of the closed
/// phase's, so a request keeps one id across the exported trace.
const OPEN_IDS: u32 = 1 << 24;

/// Both clients back-to-back over the schedule until `budget` has
/// passed, and each through its share of the workload's `min_cycles`
/// however long that takes. Returns the exchanges, the window they are counted over, and
/// the spans (recorded only when `epoch` is given).
fn closed_phase(
    stack: &mut Stack,
    wl: &Workload,
    seed: u64,
    budget: Duration,
    epoch: Option<Instant>,
) -> (Vec<Done>, Duration, Vec<Recorder>) {
    let clients = stack.conns.len();
    let t0 = Instant::now();
    let logs: Vec<(ClientLog, Duration)> = on_every_connection(stack, |c, conn| {
        let mut recorder = Recorder::new(epoch.unwrap_or(t0), c as u16 + 1);
        let mut done = Vec::new();
        let mut required = Duration::ZERO;
        'cycles: for cycle in 0.. {
            if cycle == wl.min_cycles {
                required = t0.elapsed();
            }
            let requests = schedule::cycle(wl, seed, cycle);
            for request in requests.into_iter().skip(c).step_by(clients) {
                if cycle >= wl.min_cycles && t0.elapsed() >= budget {
                    break 'cycles;
                }
                let sent = Instant::now();
                let outcome = exchange(conn, &request);
                let call = sent.elapsed();
                if epoch.is_some() {
                    let id = (done.len() * clients + c) as u32;
                    record(&mut recorder, id, &request, sent, sent, call, &outcome);
                }
                done.push(Done {
                    request,
                    at: t0.elapsed(),
                    latency: call,
                    lag: Duration::ZERO,
                    call,
                    outcome,
                });
            }
        }
        ((done, recorder), required)
    });
    // Required cycles that outlast the budget stretch the window.
    let window = logs
        .iter()
        .map(|(_, required)| *required)
        .fold(budget, Duration::max);
    let (done, recorders): (Vec<Vec<Done>>, Vec<Recorder>) = logs.into_iter().map(|(log, _)| log).unzip();
    (done.into_iter().flatten().collect(), window, recorders)
}

/// Seeded Poisson arrivals at `rate` over `window`; each request goes
/// to whichever connection is free first (a client with a pool of
/// connections) and is timed from its due time. Every round holds the
/// cycle's mix of engines, so a window of any length sees it.
fn open_phase(
    stack: &mut Stack,
    wl: &Workload,
    seed: u64,
    rate: f64,
    window: Duration,
    epoch: Option<Instant>,
) -> (Vec<Done>, Vec<Recorder>) {
    let mut rng = SmallRng::seed_from_u64(seed ^ rate.to_bits());
    let arrivals = poisson_arrivals(rate, window, &mut rng);
    let mut requests = (0..).flat_map(|c| schedule::cycle(wl, seed, c));
    let due: Vec<(Duration, Request)> = arrivals
        .into_iter()
        .map(|at| (at, requests.next().expect("endless")))
        .collect();
    let next = AtomicUsize::new(0);
    let t0 = Instant::now();
    let logs: Vec<ClientLog> = on_every_connection(stack, |c, conn| {
        let mut recorder = Recorder::new(epoch.unwrap_or(t0), c as u16 + 1);
        let mut done = Vec::new();
        loop {
            // ORDERING: Relaxed — a ticket counter; it hands out indices
            // into the immutable `due` and publishes nothing.
            let i = next.fetch_add(1, Ordering::Relaxed);
            let Some((due_at, request)) = due.get(i) else {
                break;
            };
            if let Some(wait) = due_at.checked_sub(t0.elapsed()) {
                std::thread::sleep(wait);
            }
            let sent = Instant::now();
            let outcome = exchange(conn, request);
            let call = sent.elapsed();
            let at = t0.elapsed();
            if epoch.is_some() {
                record(
                    &mut recorder,
                    OPEN_IDS + i as u32,
                    request,
                    t0 + *due_at,
                    sent,
                    call,
                    &outcome,
                );
            }
            done.push(Done {
                request: request.clone(),
                at,
                latency: at.saturating_sub(*due_at),
                lag: (sent - t0).saturating_sub(*due_at),
                call,
                outcome,
            });
        }
        (done, recorder)
    });
    let (done, recorders): (Vec<Vec<Done>>, Vec<Recorder>) = logs.into_iter().unzip();
    (done.into_iter().flatten().collect(), recorders)
}

/// Spans of one exchange: `request` from the due time, `net.call` from
/// the send, and inside it what the RESULT frame says the server did.
/// The frame gives durations, not instants: the server's part is
/// centred in the call (the two wire legs are taken as equal).
fn record(
    rec: &mut Recorder,
    id: u32,
    request: &Request,
    due: Instant,
    sent: Instant,
    call: Duration,
    outcome: &Result<RunOutcome, Failure>,
) {
    let (start, sent_ns) = (rec.at(due), rec.at(sent));
    let call_ns = call.as_nanos() as u64;
    let root = rec.push(Span {
        name: "request",
        parent: None,
        request: id,
        start_ns: start,
        end_ns: sent_ns + call_ns,
        query: request.query,
        engine: request.engine,
    });
    let net = rec.child(root, "net.call", sent_ns, call_ns);
    let Ok(o) = outcome else { return };
    let served = o.wire_ns + o.latency_ns;
    let server_start = sent_ns + call_ns.saturating_sub(served) / 2;
    let wire = rec.child(net, "net.server_wire", server_start, o.wire_ns);
    if matches!(request.binding, Binding::Fresh(_)) {
        // A RUN_PARAMS request is prepared between decode and run.
        rec.child(wire, "core.prepare", server_start, o.planning_ns.min(o.wire_ns));
    }
    let run_start = server_start + o.wire_ns;
    let run = rec.child(net, "queries.run", run_start, o.latency_ns);
    rec.child(run, "scheduler.admission_wait", run_start, o.admission_wait_ns);
    rec.child(
        run,
        "scheduler.queue_wait",
        run_start + o.admission_wait_ns,
        o.queue_wait_ns
            .min(o.latency_ns.saturating_sub(o.admission_wait_ns)),
    );
}

/// Turn exchanges into samples: a request is ok when it got a RESULT
/// whose digest equals its binding's reference (recurring) or the
/// oracle's (fresh).
fn judge(done: &[Done], refs: &mut References, oracle: &Oracle) -> Vec<Sample> {
    done.iter()
        .map(|d| {
            let (query, engine) = (d.request.query, d.request.engine);
            let binding = &d.request.binding;
            let ok = match &d.outcome {
                Err(_) => false,
                Ok(o) => {
                    if let (Binding::Fresh(spec), None) = (binding, refs.get(query, binding)) {
                        // The oracle's digest becomes the reference the
                        // served one is then held to.
                        if let Some(reference) = oracle.fresh(query, spec, engine) {
                            refs.agrees(query, binding, reference);
                        }
                    }
                    refs.agrees(query, binding, digest(o))
                }
            };
            Sample {
                query,
                engine,
                latency: d.latency,
                ok,
            }
        })
        .collect()
}

fn light_p95(done: &[Done]) -> Duration {
    let light: Vec<Duration> = done
        .iter()
        .filter(|d| d.outcome.is_ok() && schedule::LIGHT.contains(&d.request.engine))
        .map(|d| d.latency)
        .collect();
    stats::quantile(&light, 0.95)
}

fn count(done: &[Done], failure: Failure) -> f64 {
    done.iter().filter(|d| d.outcome == Err(failure)).count() as f64
}

fn server_config(wl: &Workload) -> ServerConfig {
    ServerConfig {
        threads: wl.threads,
        pool: true,
        ..ServerConfig::default()
    }
}

/// Start a stack, or end the run: without a server there is nothing to
/// measure, and no result line is printed.
fn start_or_exit(wl: &Workload, dbs: &Databases, seed: u64, cfg: ServerConfig) -> Stack {
    Stack::start(wl, dbs, seed, cfg).unwrap_or_else(|e| {
        eprintln!("error: serve_mix could not start its server: {e}");
        std::process::exit(2);
    })
}

/// The untraced run: every end-to-end metric.
fn untraced(opts: &Opts) -> Outcome {
    let wl = &opts.workload;
    let preamble = opts.started.elapsed();
    let ((dbs, mut stack), build) = data::build_repeatedly(|| {
        let dbs = data::generate(wl);
        let stack = start_or_exit(wl, &dbs, opts.seed, server_config(wl));
        (dbs, stack)
    });
    let t = Instant::now();
    let oracle = Oracle::new(&dbs);
    let mut refs = References::default();
    let mut agreed = oracle.references(wl, opts.seed, opts.quick, &mut refs);
    agreed &= stack.warm_up(wl, &mut refs);
    let setup = preamble + build + t.elapsed();

    let budget = Duration::from_secs_f64(opts.seconds);
    let (closed, window, _) = closed_phase(&mut stack, wl, opts.seed, budget.mul_f64(CLOSED_SHARE), None);
    let (open, _) = open_phase(
        &mut stack,
        wl,
        opts.seed,
        wl.open_rate,
        budget.mul_f64(1.0 - CLOSED_SHARE),
        None,
    );
    let closed_samples = judge(&closed, &mut refs, &oracle);
    let open_samples = judge(&open, &mut refs, &oracle);
    let completed: Vec<Duration> = closed
        .iter()
        .zip(&closed_samples)
        .filter(|(_, s)| s.ok)
        .map(|(d, _)| d.at)
        .collect();
    let closed_qps = throughput(&completed, window);

    let (metrics, mut detail) = end_to_end(
        setup.as_secs_f64(),
        wl.queries,
        &open_samples,
        &closed_samples,
        closed_qps.qps,
    );
    let failed = closed_samples
        .iter()
        .chain(&open_samples)
        .filter(|s| !s.ok)
        .count() as u64;
    detail.push(("closed_requests", closed.len().to_string()));
    detail.push((
        "open_light_latency_ms",
        stats::percentiles_ms(&stats::light_latencies(&open_samples)),
    ));
    detail.push(("closed_window_s", json::number(window.as_secs_f64())));
    detail.push(("closed_drained", closed_qps.drained.to_string()));
    detail.push(("open_requests", open.len().to_string()));
    detail.push(("open_rate", json::number(wl.open_rate)));
    detail.push((
        "open_generator_lag_ms_p95",
        json::number(stats::ms(stats::quantile(
            &open.iter().map(|d| d.lag).collect::<Vec<_>>(),
            0.95,
        ))),
    ));
    detail.push(("warm_up_agreed", agreed.to_string()));
    Outcome {
        attempted: (closed.len() + open.len()) as u64 + !agreed as u64,
        failed: failed + !agreed as u64,
        metrics,
        detail,
    }
}

/// Stage wall time by kind and the share of stage-reporting runs'
/// wall that stages cover, from the spans the server's sessions
/// recorded into the attached sink from `since_ns` on.
fn stage_evidence(sink: &TraceSink, since_ns: u64) -> ([f64; 4], f64) {
    let mut events = sink.snapshot();
    events.retain(|e| e.t0_ns >= since_ns);
    let mut stage_ms = [0.0; 4];
    let mut staged: HashMap<u32, u64> = HashMap::new();
    for ev in events.iter().filter(|e| e.kind == SpanKind::Stage) {
        let stages = plan(QueryId::ALL[ev.query as usize]).stages();
        if let Some(desc) = stages.get(ev.stage as usize) {
            stage_ms[kind_index(desc.kind)] += ev.dur_ns as f64 / 1e6;
            *staged.entry(ev.run_seq).or_default() += ev.dur_ns;
        }
    }
    let run_ns: u64 = events
        .iter()
        .filter(|e| e.kind == SpanKind::Query && staged.contains_key(&e.run_seq))
        .map(|e| e.dur_ns)
        .sum();
    (
        stage_ms,
        ratio(staged.values().sum::<u64>() as f64, run_ns as f64),
    )
}

/// Adaptive runs that explored: explore-then-commit spends the first
/// two Adaptive runs of a binding measuring one candidate each.
fn explore_runs(done: &[&Done]) -> usize {
    let mut adaptive: Vec<&&Done> = done
        .iter()
        .filter(|d| d.request.engine == Engine::Adaptive && matches!(d.request.binding, Binding::Fresh(_)))
        .collect();
    adaptive.sort_by_key(|d| d.at);
    let mut seen: HashMap<(QueryId, &Binding), u32> = HashMap::new();
    adaptive
        .into_iter()
        .filter(|d| {
            let runs = seen.entry((d.request.query, &d.request.binding)).or_default();
            *runs += 1;
            *runs <= 2
        })
        .count()
}

/// The traced run: every per-layer metric, and the trace file.
fn traced(opts: &Opts) -> Outcome {
    let wl = &opts.workload;
    let dbs = data::generate(wl);
    let oracle = Oracle::new(&dbs);
    let mut refs = References::default();
    let mut agreed = oracle.references(wl, opts.seed, opts.quick, &mut refs);
    // Of the budget: 0.15 closed untraced, 0.15 closed traced, 0.3 open
    // traced, 4 × 0.1 for the rate sweep.
    let share = |s: f64| Duration::from_secs_f64(opts.seconds * s);

    let mut plain = start_or_exit(wl, &dbs, opts.seed, server_config(wl));
    agreed &= plain.warm_up(wl, &mut refs);
    let (base, base_window, _) = closed_phase(&mut plain, wl, opts.seed, share(0.15), None);
    let base_qps = throughput(&base.iter().map(|d| d.at).collect::<Vec<_>>(), base_window).qps;
    drop(plain);

    let sink = Arc::new(TraceSink::new(SINK_CAPACITY));
    let cfg = ServerConfig {
        metrics: Some(EngineMetrics::new()),
        trace: Some(Arc::clone(&sink)),
        ..server_config(wl)
    };
    let mut stack = start_or_exit(wl, &dbs, opts.seed, cfg);
    agreed &= stack.warm_up(wl, &mut refs);
    let epoch = Instant::now();
    let timed_from = sink.now_ns();
    let (closed, window, mut recorders) = closed_phase(&mut stack, wl, opts.seed, share(0.15), Some(epoch));
    let closed_qps = throughput(&closed.iter().map(|d| d.at).collect::<Vec<_>>(), window).qps;
    let (open, open_recorders) = open_phase(&mut stack, wl, opts.seed, wl.open_rate, share(0.3), Some(epoch));
    recorders.extend(open_recorders);
    // Evidence read before the sweep overloads the server on purpose.
    let (stage_ms, coverage) = stage_evidence(&sink, timed_from);
    let (spans_dropped, spans_recorded) = (sink.dropped(), sink.recorded());

    let mut curve = Vec::new();
    let mut sweep = Vec::new();
    for multiple in SWEEP {
        let rate = wl.open_rate * multiple;
        let window = share(0.1);
        let (done, _) = open_phase(&mut stack, wl, opts.seed, rate, window, None);
        let p95 = light_p95(&done);
        let kept_up = done
            .iter()
            .filter(|d| d.outcome.is_ok() && d.at <= window)
            .count();
        curve.push(LoadPoint {
            offered: rate,
            sent: done.len() as f64 / window.as_secs_f64(),
            // A rate that misses the latency limit has no goodput.
            goodput: if p95 <= SWEEP_LIMIT {
                kept_up as f64 / window.as_secs_f64()
            } else {
                0.0
            },
        });
        sweep.push(
            Object::new()
                .field("rate", json::number(rate))
                .field("sent", done.len().to_string())
                .field("completed_in_window", kept_up.to_string())
                .field("light_p95_ms", json::number(stats::ms(p95)))
                .build(),
        );
    }

    // One more connection for the PREPARE round trips, so the handle
    // tables of the measured connections stay as set-up left them.
    let rtt = Client::connect(stack.server.local_addr()).ok().map(|mut c| {
        let spec = schedule::recurring(opts.seed, QueryId::Q6)[0].to_spec();
        let rtts: Vec<Duration> = (0..200)
            .map(|_| {
                let t = Instant::now();
                let _ = c.prepare(QueryId::Q6.name(), &spec);
                t.elapsed()
            })
            .collect();
        stats::us(stats::quantile(&rtts, 0.5))
    });

    let timed: Vec<&Done> = closed.iter().chain(&open).collect();
    let results: Vec<(&Done, &RunOutcome)> = timed
        .iter()
        .filter_map(|d| d.outcome.as_ref().ok().map(|o| (*d, o)))
        .collect();
    let tuples = |q: QueryId| plan(q).tuples_scanned(oracle.session(q).db()) as f64;
    let of = |e: Engine| results.iter().filter(move |(d, _)| d.request.engine == e);
    let bytes = |e: Engine| of(e).map(|(_, o)| o.bytes_scanned as f64).sum::<f64>();
    let run_ns = |e: Engine| of(e).map(|(_, o)| o.latency_ns as f64).sum::<f64>();
    let ns_per_tuple = |e: Engine| {
        ratio(
            run_ns(e),
            of(e).map(|(d, _)| tuples(d.request.query)).sum::<f64>(),
        )
    };
    let sum = |f: fn(&RunOutcome) -> u64| results.iter().map(|(_, o)| f(o) as f64).sum::<f64>();
    let planning = |hit: bool| {
        let ns: Vec<Duration> = results
            .iter()
            .filter(|(d, o)| matches!(d.request.binding, Binding::Fresh(_)) && o.cache_hit == hit)
            .map(|(_, o)| Duration::from_nanos(o.planning_ns))
            .collect();
        stats::us(stats::quantile(&ns, 0.5))
    };
    let closed_results: Vec<(Duration, &RunOutcome)> = closed
        .iter()
        .filter_map(|d| d.outcome.as_ref().ok().map(|o| (d.call, o)))
        .collect();
    let wire_overhead: Vec<Duration> = closed_results
        .iter()
        .map(|(call, o)| call.saturating_sub(Duration::from_nanos(o.latency_ns)))
        .collect();
    let server_wire: Vec<Duration> = closed_results
        .iter()
        .map(|(_, o)| Duration::from_nanos(o.wire_ns))
        .collect();
    let (tpch_cache, ssb_cache) = stack.server.plan_cache_stats();
    let (hits, misses, entries) = [tpch_cache, ssb_cache]
        .into_iter()
        .flatten()
        .fold((0, 0, 0), |(h, m, e), s| {
            (h + s.hits, m + s.misses, e + s.entries)
        });
    // The server's learned choices are not on the wire; the oracle
    // session learns its own over the same data with the same code.
    let mixed = wl
        .queries
        .iter()
        .flat_map(|&q| schedule::recurring(opts.seed, q).into_iter().map(move |p| (q, p)))
        .filter(|(q, p)| {
            let prepared = oracle.session(*q).prepare_params(p.clone());
            for _ in 0..2 {
                prepared.run(Engine::Adaptive);
            }
            mixes_engines(&prepared)
        })
        .count();
    let waterfall = spans::waterfall(&recorders);
    let lags: Vec<Duration> = open.iter().map(|d| d.lag).collect();

    let mut values = dbs.facts.metrics();
    values.extend([
        ("storage.scan_bytes", sum(|o| o.bytes_scanned)),
        ("storage.scan_bytes_typer", bytes(Engine::Typer)),
        ("storage.scan_bytes_tectorwise", bytes(Engine::Tectorwise)),
        ("storage.scan_bytes_volcano", bytes(Engine::Volcano)),
        (
            "storage.scan_gbps_typer",
            ratio(bytes(Engine::Typer), run_ns(Engine::Typer)),
        ),
        (
            "storage.scan_gbps_tectorwise",
            ratio(bytes(Engine::Tectorwise), run_ns(Engine::Tectorwise)),
        ),
        ("vectorized.ns_per_tuple", ns_per_tuple(Engine::Tectorwise)),
        ("compiled.ns_per_tuple", ns_per_tuple(Engine::Typer)),
        ("volcano.ns_per_tuple", ns_per_tuple(Engine::Volcano)),
        ("scheduler.morsels", sum(|o| o.morsels)),
        ("scheduler.tasks", sum(|o| o.tasks)),
        ("scheduler.steals", sum(|o| o.steals)),
        ("scheduler.queue_wait_ms", sum(|o| o.queue_wait_ns) / 1e6),
        ("scheduler.admission_wait_ms", sum(|o| o.admission_wait_ns) / 1e6),
        ("queries.stage_ms.scan_filter", stage_ms[0]),
        ("queries.stage_ms.join_build", stage_ms[1]),
        ("queries.stage_ms.join_probe", stage_ms[2]),
        ("queries.stage_ms.aggregate", stage_ms[3]),
        ("queries.stage_coverage", coverage),
        ("core.prepare_hit_us", planning(true)),
        ("core.prepare_miss_us", planning(false)),
        (
            "core.plan_cache_hit_ratio",
            ratio(hits as f64, (hits + misses) as f64),
        ),
        ("core.plan_cache_entries", entries as f64),
        ("core.adaptive_explore_runs", explore_runs(&timed) as f64),
        ("core.adaptive_mixed_plans", mixed as f64),
        ("net.rtt_us", rtt.unwrap_or(0.0)),
        (
            "net.wire_overhead_us",
            stats::us(stats::quantile(&wire_overhead, 0.5)),
        ),
        (
            "net.server_wire_us",
            stats::us(stats::quantile(&server_wire, 0.5)),
        ),
        (
            "net.retries",
            count(&closed, Failure::Retry) + count(&open, Failure::Retry),
        ),
        (
            "net.errors",
            count(&closed, Failure::Error) + count(&open, Failure::Error),
        ),
        (
            "net.busy",
            count(&closed, Failure::Busy) + count(&open, Failure::Busy),
        ),
        (
            "net.generator_lag_ms_p95",
            stats::ms(stats::quantile(&lags, 0.95)),
        ),
        ("net.open_p95_ms", stats::ms(light_p95(&open))),
        ("net.max_rate_ok", find_knee(&curve, 0.95).unwrap_or(0.0)),
        ("obs.trace_overhead", ratio(closed_qps, base_qps)),
        ("obs.spans_dropped", spans_dropped as f64),
        ("obs.spans_recorded", spans_recorded as f64),
        ("obs.waterfall_gap", waterfall.gap),
    ]);
    values.extend(layers::probe(opts.quick));
    let metrics = layers::in_catalogue_order(values);
    let mut detail = vec![
        ("untraced_closed_qps", json::number(base_qps)),
        ("traced_closed_qps", json::number(closed_qps)),
        ("open_requests", open.len().to_string()),
        ("open_rate", json::number(wl.open_rate)),
        ("sweep_latency_limit_ms", json::number(stats::ms(SWEEP_LIMIT))),
        ("sweep", json::array(sweep)),
    ];
    detail.extend(spans::write_trace(
        &opts.out_dir,
        wl.name,
        &recorders,
        &waterfall,
        &metrics,
    ));

    let closed_samples = judge(&closed, &mut refs, &oracle);
    let open_samples = judge(&open, &mut refs, &oracle);
    let failed = closed_samples
        .iter()
        .chain(&open_samples)
        .filter(|s| !s.ok)
        .count() as u64
        + base.iter().filter(|d| d.outcome.is_err()).count() as u64;
    Outcome {
        attempted: (base.len() + closed.len() + open.len()) as u64 + !agreed as u64,
        failed: failed + !agreed as u64,
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
