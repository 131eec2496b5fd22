//! Experiment harness: one subcommand per table/figure of the paper.
//!
//! ```text
//! cargo run --release -p dbep-bench --bin experiments -- <id> [--sf N]
//!     [--threads N] [--reps N] [--no-tag] [--json]
//!     [--query <name>] [--engine <name>]
//! ```
//!
//! Ids: `fig3 table1 fig4 fig5 ssb table2 fig6 fig7 fig8 fig9 fig10
//! table3 table4 table5 fig11 oltp table6 query serve metrics
//! compression all`, plus the standalone network experiments
//! `serve-net` and `load` (excluded from `all`). Each prints the
//! same rows/series the paper reports (EXPERIMENTS.md records paper-
//! versus-measured). Scale-factor defaults are sized for a ~20 GB host;
//! pass `--sf` to reproduce the paper's exact scales on bigger machines.
//!
//! Every subcommand except `metrics` and `serve-net` measures into one
//! [`Report`], which `main` renders once: as aligned text tables by
//! default, or with `--json` as one machine-readable JSON document
//! (`all --json` writes one document per line), so perf trajectories
//! can be recorded as `BENCH_*.json` files across PRs.
//!
//! `--query`/`--engine` take the canonical names (`q3`, `ssb-q4.1`,
//! `typer`, …) via the registry's `FromStr` impls and narrow every
//! subcommand that loops over queries or engines; a query outside the
//! subcommand's set exits 2. `query` runs one prepared query through
//! the `Session` API and reports its result table, e.g.
//! `experiments -- query --query q6 --engine tectorwise --sf 0.1`.
//!
//! `fig3` runs every registered query (TPC-H and SSB) on all three
//! engines; `table1` runs the full TPC-H workload (the paper's five plus
//! Q4/Q12/Q14); the remaining paper-artifact subcommands stick to the
//! §3.3 subset so their rows line up with the paper's figures.
//!
//! `serve` is the **inter-query** scenario: `--clients N[,N...]`
//! closed-loop clients fire the mixed 12-query workload (TPC-H + SSB,
//! two `Session`s over one shared scheduler in pool mode) with one
//! engine per scenario — `typer`, `tectorwise`, `volcano` or
//! `adaptive` (per-stage engine selection backed by the Session plan
//! cache); the default sweep runs all four. It compares the shared
//! morsel scheduler (worker count fixed at `--threads`) against the
//! old spawn-per-query behavior (`--mode pool|spawn|both`), and
//! reports deadline-clamped QPS (post-deadline drain counted
//! separately), interpolated p50/p95/p99 latency, plan-cache hit
//! rates with a re-prepare sweep, learned adaptive stage assignments,
//! and per-query scheduler stats (admission wait, queue wait,
//! morsels, steals, bytes scanned). Example:
//! `experiments -- serve --sf 0.1 --clients 1,4,16 --duration-ms 2000`.
//!
//! `serve-net` stands the TCP front-end (`dbep-net`) up for external
//! clients: it binds `--addr`/`--port` (default `127.0.0.1:7878`),
//! serves the mixed TPC-H + SSB workload over the length-prefixed wire
//! protocol (pooled unless `--mode spawn`), and drains when a client
//! sends the SHUTDOWN frame. `load` is the **open-loop** companion: it
//! sweeps `--rate R[,R...]` offered rates (requests/second), scheduling
//! arrivals by a seeded Poisson process *decoupled from completions* —
//! latency is measured from the scheduled arrival, so queueing delay
//! under overload is charged to the tail percentiles instead of
//! silently throttling the offered rate the way closed-loop clients
//! do. Each (mode, engine) curve reports goodput vs offered rate,
//! interpolated p50/p95/p99, RETRY counts (admission-gate pushback on
//! the wire), and the **knee** — the last swept rate with goodput ≥
//! 95 % of offered. Without `--port` it self-hosts an in-process server
//! per scenario on an ephemeral loopback port; with `--addr`/`--port`
//! it drives an external `serve-net`. `--conns` sizes the connection
//! pool carrying the schedule; `--duration-ms` is the window per sweep
//! point. Example:
//! `experiments -- load --sf 0.1 --rate 16,64,256 --duration-ms 2000 --json`.
//!
//! Observability surfaces: `query --trace out.json` attaches the span
//! sink and exports the run as Chrome `trace_event` JSON (load in
//! Perfetto / `chrome://tracing`); `metrics` drives the mixed workload
//! through a metrics-attached `Session` and dumps the registry as JSON
//! (default) or Prometheus text (`--prom`); `table1 --per-stage` reads
//! grouped hardware counters around every pipeline stage and reports
//! Table-1-style per-stage rows with a whole-run cross-check;
//! `serve --obs` runs every scenario with the span sink and metrics
//! bundle attached (the tracing-overhead benchmark) and embeds each
//! scenario's metric snapshot in the JSON document.
//!
//! `--encoded` (honoured by `fig3`, `table1 --per-stage`, `query`,
//! `serve`, `serve-net`, `metrics` and `load`) builds the compressed
//! companion columns after generation, so bandwidth-bound plans run
//! their fused decompress-and-select scans. `compression` compares flat versus
//! encoded directly: runtime and bytes-scanned for Q1/Q6/Q14/SSB Q1.1
//! on both block-at-a-time engines (`--throttle` adds the same cells
//! read through the emulated 1.4 GB/s SSD of `table5`), recorded as
//! `BENCH_compression.json` with `--json` — host fingerprint, median
//! and min/max per cell.

use dbep_bench::report::{Obj, Report, Value};
use dbep_bench::{counters_note, measure_counters, time_median, time_spread, TimeSpread};
use dbep_core::Session;
use dbep_queries::{run, Engine, ExecCfg, QueryId};
use dbep_runtime::counters::CounterValues;
use dbep_runtime::hash::HashFn;
use dbep_runtime::rng::SmallRng;
use dbep_storage::Database;
use dbep_vectorized::SimdPolicy;
use std::sync::Arc;
use std::time::{Duration, Instant};

struct Args {
    id: String,
    sf: Option<f64>,
    threads: Option<usize>,
    reps: usize,
    no_tag: bool,
    json: bool,
    /// `--query q3` narrows query loops to one registered query.
    query: Option<QueryId>,
    /// `--engine typer` narrows engine loops to one paradigm.
    engine: Option<Engine>,
    /// `serve`: closed-loop client counts (`--clients 1,4,16`).
    clients: Vec<usize>,
    /// `serve`/`load`: measured duration per scenario in milliseconds.
    duration_ms: u64,
    /// `serve`/`load`: `pool`, `spawn`, or `both`; `serve-net`: `spawn`
    /// picks the pool-less baseline, anything else serves pooled.
    mode: String,
    /// `load`: open-loop offered rates in requests/second
    /// (`--rate 16,64,256`).
    rate: Vec<u32>,
    /// `serve-net`: bind address; `load`: server address to drive.
    addr: Option<String>,
    /// `serve-net`: listen port (default 7878); `load`: remote server
    /// port — absent means self-host in-process on an ephemeral port.
    port: Option<u16>,
    /// `load`: connection workers carrying the open-loop schedule.
    conns: usize,
    /// Build compressed companions after generation (`--encoded`).
    encoded: bool,
    /// `query`: export a Chrome `trace_event` JSON file (`--trace out.json`).
    trace: Option<String>,
    /// `table1`: per-stage hardware-counter rows (`--per-stage`).
    per_stage: bool,
    /// `metrics`: Prometheus text exposition instead of JSON (`--prom`).
    prom: bool,
    /// `serve`: attach the observability layer — span sink, metrics
    /// bundle, per-scenario metric snapshots (`--obs`).
    obs: bool,
    /// `compression`: also time every cell through the emulated
    /// 1.4 GB/s SSD (`--throttle`).
    throttle: bool,
}

impl Args {
    /// `base` filtered by `--query` (names resolve through
    /// `QueryId::from_str`, never ad-hoc string matching). Exits with
    /// an error when the selected query is not in this experiment's
    /// set — a silently empty report would read as "ran fine".
    fn queries(&self, base: &[QueryId]) -> Vec<QueryId> {
        let selected: Vec<QueryId> = base
            .iter()
            .copied()
            .filter(|q| self.query.is_none_or(|sel| sel == *q))
            .collect();
        if selected.is_empty() {
            if let Some(q) = self.query {
                let known: Vec<&str> = base.iter().map(|b| b.name()).collect();
                eprintln!(
                    "query {} is not part of this experiment's set ({})",
                    q.name(),
                    known.join(" ")
                );
                std::process::exit(2);
            }
        }
        selected
    }

    /// The experiment's `default` engines, or the one `--engine` picks.
    fn engines(&self, default: &[Engine]) -> Vec<Engine> {
        self.engine.map_or_else(|| default.to_vec(), |e| vec![e])
    }
}

/// Exit with a usage error (status 2, no panic backtrace). Every
/// malformed flag reports its name and the accepted form.
fn usage_error(msg: &str) -> ! {
    eprintln!("error: {msg}");
    std::process::exit(2);
}

/// The value following `flag`, or a usage error naming the flag and
/// its accepted form.
fn flag_value(it: &mut impl Iterator<Item = String>, flag: &str, form: &str) -> String {
    it.next()
        .unwrap_or_else(|| usage_error(&format!("{flag} needs a value (usage: {flag} {form})")))
}

/// Parse a flag's value, or a usage error quoting the offending input
/// and the accepted form.
fn parse_value<T: std::str::FromStr>(value: &str, flag: &str, form: &str) -> T
where
    T::Err: std::fmt::Display,
{
    value
        .parse()
        .unwrap_or_else(|e| usage_error(&format!("{flag} got {value:?}: {e} (usage: {flag} {form})")))
}

/// Parse a comma-separated list of positive integers — the shared
/// shape of `--clients` and `--rate`. Empty lists, zeros and garbage
/// all exit 2 naming the flag and its accepted form.
fn parse_u32_list(value: &str, flag: &str, form: &str) -> Vec<u32> {
    if value.trim().is_empty() {
        usage_error(&format!("{flag} got an empty list (usage: {flag} {form})"));
    }
    value
        .split(',')
        .map(|item| {
            let n: u32 = parse_value(item.trim(), flag, form);
            if n == 0 {
                usage_error(&format!(
                    "{flag} values must be at least 1 (usage: {flag} {form})"
                ));
            }
            n
        })
        .collect()
}

fn parse_args() -> Args {
    let mut args = Args {
        id: String::new(),
        sf: None,
        threads: None,
        reps: 3,
        no_tag: false,
        json: false,
        query: None,
        engine: None,
        clients: vec![4],
        duration_ms: 2000,
        mode: "both".to_string(),
        rate: vec![16, 32, 64, 128, 256],
        addr: None,
        port: None,
        conns: 32,
        encoded: false,
        trace: None,
        per_stage: false,
        prom: false,
        obs: false,
        throttle: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        match a.as_str() {
            "--sf" => {
                let v = flag_value(&mut it, "--sf", "<scale-factor>");
                let sf: f64 = parse_value(&v, "--sf", "<scale-factor>, e.g. --sf 0.1");
                if !(sf.is_finite() && sf > 0.0) {
                    usage_error(&format!(
                        "--sf got {v:?}: a scale factor is a positive number (usage: --sf <scale-factor>)"
                    ));
                }
                args.sf = Some(sf);
            }
            "--threads" => {
                let v = flag_value(&mut it, "--threads", "<count>");
                args.threads = Some(parse_value(&v, "--threads", "<count>, e.g. --threads 4"));
            }
            "--reps" => {
                let v = flag_value(&mut it, "--reps", "<count>");
                args.reps = parse_value(&v, "--reps", "<count>, e.g. --reps 3");
                if args.reps == 0 {
                    usage_error("--reps must be at least 1 (usage: --reps <count>)");
                }
            }
            "--no-tag" => args.no_tag = true,
            "--json" => args.json = true,
            "--encoded" => args.encoded = true,
            "--per-stage" => args.per_stage = true,
            "--prom" => args.prom = true,
            "--obs" => args.obs = true,
            "--throttle" => args.throttle = true,
            "--trace" => {
                args.trace = Some(flag_value(&mut it, "--trace", "<path>, e.g. --trace trace.json"));
            }
            "--query" => {
                let v = flag_value(&mut it, "--query", "<name>");
                args.query = Some(parse_value(&v, "--query", "<name>, e.g. --query q3"));
            }
            "--engine" => {
                let v = flag_value(&mut it, "--engine", "<name>");
                args.engine = Some(parse_value(&v, "--engine", "typer|tectorwise|volcano|adaptive"));
            }
            "--clients" => {
                let v = flag_value(&mut it, "--clients", "N[,N...]");
                args.clients = parse_u32_list(&v, "--clients", "N[,N...], e.g. --clients 1,4,16")
                    .into_iter()
                    .map(|n| n as usize)
                    .collect();
            }
            "--rate" => {
                let v = flag_value(&mut it, "--rate", "R[,R...]");
                args.rate = parse_u32_list(&v, "--rate", "R[,R...] requests/second, e.g. --rate 16,64,256");
            }
            "--addr" => {
                let v = flag_value(&mut it, "--addr", "<ip>");
                if v.parse::<std::net::IpAddr>().is_err() {
                    usage_error(&format!(
                        "--addr got {v:?}: not an IP address (usage: --addr <ip>, e.g. --addr 127.0.0.1)"
                    ));
                }
                args.addr = Some(v);
            }
            "--port" => {
                let v = flag_value(&mut it, "--port", "<1-65535>");
                let p: u16 = parse_value(&v, "--port", "<1-65535>, e.g. --port 7878");
                if p == 0 {
                    usage_error(
                        "--port 0 would pick an ephemeral port; pass an explicit one (usage: --port <1-65535>)",
                    );
                }
                args.port = Some(p);
            }
            "--conns" => {
                let v = flag_value(&mut it, "--conns", "<count>");
                args.conns = parse_value(&v, "--conns", "<count>, e.g. --conns 32");
                if args.conns == 0 {
                    usage_error("--conns must be at least 1 (usage: --conns <count>)");
                }
            }
            "--duration-ms" => {
                let v = flag_value(&mut it, "--duration-ms", "<milliseconds>");
                args.duration_ms =
                    parse_value(&v, "--duration-ms", "<milliseconds>, e.g. --duration-ms 2000");
                if args.duration_ms == 0 {
                    usage_error(
                        "--duration-ms must be greater than 0 (a zero-length window measures nothing)",
                    );
                }
            }
            "--mode" => {
                let m = flag_value(&mut it, "--mode", "pool|spawn|both");
                if !matches!(m.as_str(), "pool" | "spawn" | "both") {
                    usage_error(&format!("--mode got {m:?} (usage: --mode pool|spawn|both)"));
                }
                args.mode = m;
            }
            other if args.id.is_empty() && !other.starts_with('-') => args.id = other.to_string(),
            other => usage_error(&format!(
                "unknown argument {other:?} (see the module docs for the experiment list and flags)"
            )),
        }
    }
    if args.id.is_empty() {
        args.id = "all".to_string();
    }
    args
}

fn cores() -> usize {
    std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
}

fn gen_tpch(sf: f64) -> Database {
    let t = Instant::now();
    let db = dbep_datagen::tpch::generate_par(sf, 42, cores());
    eprintln!(
        "[gen] TPC-H SF={sf} in {:.1}s ({} lineitem rows)",
        t.elapsed().as_secs_f64(),
        db.table("lineitem").len()
    );
    db
}

fn gen_ssb(sf: f64) -> Database {
    let t = Instant::now();
    let db = dbep_datagen::ssb::generate_par(sf, 42, cores());
    eprintln!(
        "[gen] SSB SF={sf} in {:.1}s ({} lineorder rows)",
        t.elapsed().as_secs_f64(),
        db.table("lineorder").len()
    );
    db
}

/// Build compressed companions (the `--encoded` switch, and the encoded
/// side of `compression`).
fn encode(mut db: Database) -> Database {
    let t = Instant::now();
    db.encode_all();
    eprintln!(
        "[gen] encoded companions in {:.1}s ({:.1} MB packed payload)",
        t.elapsed().as_secs_f64(),
        db.encoded_byte_size() as f64 / 1e6
    );
    db
}

/// One slot per benchmark schema: TPC-H and SSB.
struct PerBench<T> {
    tpch: Option<T>,
    ssb: Option<T>,
}

impl<T> PerBench<T> {
    fn map<U>(self, mut f: impl FnMut(T) -> U) -> PerBench<U> {
        PerBench {
            tpch: self.tpch.map(&mut f),
            ssb: self.ssb.map(f),
        }
    }

    /// The slot query `q` reads.
    fn get(&self, q: QueryId) -> &T {
        let slot = if QueryId::SSB.contains(&q) {
            &self.ssb
        } else {
            &self.tpch
        };
        slot.as_ref().expect("a database for every query of the set")
    }
}

/// The databases `queries` read — each generated only when some query
/// needs it — with compressed companions when `encoded`.
fn databases(sf: f64, queries: &[QueryId], encoded: bool) -> PerBench<Database> {
    let needs = |ssb: bool| queries.iter().any(|q| QueryId::SSB.contains(q) == ssb);
    let prepare = |db| if encoded { encode(db) } else { db };
    PerBench {
        tpch: needs(false).then(|| prepare(gen_tpch(sf))),
        ssb: needs(true).then(|| prepare(gen_ssb(sf))),
    }
}

/// The two block-at-a-time engines the paper compares.
const BLOCK: [Engine; 2] = [Engine::Typer, Engine::Tectorwise];

/// Median wall time of `reps` runs of `q` on `engine` after one warm-up.
fn time_query(reps: usize, engine: Engine, q: QueryId, db: &Database, cfg: &ExecCfg) -> Duration {
    time_median(reps, || std::mem::drop(run(engine, q, db, cfg)))
}

/// Counters of one run of `q` on `engine` after one warm-up.
fn count_query(engine: Engine, q: QueryId, db: &Database, cfg: &ExecCfg) -> CounterValues {
    measure_counters(|| std::mem::drop(run(engine, q, db, cfg)))
}

/// One run of `q` whose scans read through the emulated 1.4 GB/s SSD
/// (substitution 4). A fresh throttle per run banks no idle budget.
fn run_on_ssd(engine: Engine, q: QueryId, db: &Database, threads: usize) {
    let throttle = dbep_storage::throttle::Throttle::paper_ssd();
    let cfg = ExecCfg {
        threads,
        throttle: Some(&throttle),
        ..Default::default()
    };
    std::mem::drop(run(engine, q, db, &cfg));
}

/// The column `{engine}{suffix}`, e.g. `typer_ms`.
fn col(engine: Engine, suffix: &str) -> String {
    format!("{}{suffix}", engine.name())
}

/// `num`'s time over `den`'s, or `None` when `--engine` left one out.
fn ratio(times: &[(Engine, Duration)], num: Engine, den: Engine) -> Option<f64> {
    let secs = |e| times.iter().find(|(x, _)| *x == e).map(|(_, d)| d.as_secs_f64());
    Some(secs(num)? / secs(den)?)
}

fn names(queries: &[QueryId]) -> Vec<&'static str> {
    queries.iter().map(|q| q.name()).collect()
}

// ---------------------------------------------------------------------
// Fig. 3: single-threaded runtimes over every registered query (TPC-H
// and SSB), Typer vs Tectorwise with the Volcano baseline.
// ---------------------------------------------------------------------
fn fig3(a: &Args) -> Report {
    let sf = a.sf.unwrap_or(1.0);
    let queries = a.queries(&QueryId::ALL);
    let dbs = databases(sf, &queries, a.encoded);
    let engines = a.engines(&Engine::ALL);
    let cfg = ExecCfg::default();
    let rows: Vec<Obj> = queries
        .iter()
        .map(|&q| {
            let db = dbs.get(q);
            let times: Vec<(Engine, Duration)> = engines
                .iter()
                .map(|&e| (e, time_query(a.reps, e, q, db, &cfg)))
                .collect();
            let mut row = Obj::new()
                .with("query", q.name())
                .with(
                    "benchmark",
                    if QueryId::SSB.contains(&q) { "ssb" } else { "tpch" },
                )
                .with("tuples_scanned", q.tuples_scanned(db));
            for (e, t) in &times {
                row.push(col(*e, "_ms"), *t);
            }
            row.with(
                "tectorwise_over_typer",
                ratio(&times, Engine::Tectorwise, Engine::Typer),
            )
        })
        .collect();
    let storage = if a.encoded { ", encoded storage" } else { "" };
    Report::new(
        "fig3",
        format!("Fig. 3 — TPC-H + SSB SF={sf}, 1 thread{storage}, runtime [ms]"),
    )
    .with("sf", sf)
    .with("reps", a.reps)
    .with("threads", 1usize)
    .with("encoded", a.encoded)
    .with("queries", rows)
}

// ---------------------------------------------------------------------
// Table 1: CPU counters per tuple, TPC-H SF=1, 1 thread.
// ---------------------------------------------------------------------

/// Table 1's rows: one per (query, engine), raw counter totals beside
/// their per-tuple normalization (`null` where the hardware event is
/// unavailable).
fn counter_rows(a: &Args, db: &Database, queries: &[QueryId]) -> Vec<Obj> {
    let cfg = ExecCfg::default();
    let mut rows = Vec::new();
    for &q in queries {
        let tuples = q.tuples_scanned(db);
        for e in a.engines(&BLOCK) {
            let v = count_query(e, q, db, &cfg);
            let mut row = Obj::new()
                .with("query", q.name())
                .with("engine", e.name())
                .with("tuples_scanned", tuples);
            let mut per_tuple = Obj::new();
            for (event, total) in [
                ("cycles", Some(v.cycles_estimate())),
                ("instructions", v.instructions),
                ("l1d_miss", v.l1d_miss),
                ("llc_miss", v.llc_miss),
                ("branch_miss", v.branch_miss),
                ("stalled_backend", v.stalled_backend),
            ] {
                row.push(event, total);
                per_tuple.push(event, total.map(|x| x as f64 / tuples.max(1) as f64));
            }
            rows.push(row.with("ipc", v.ipc()).with("per_tuple", per_tuple));
        }
    }
    rows
}

fn table1(a: &Args) -> Report {
    if a.per_stage {
        return table1_per_stage(a);
    }
    let sf = a.sf.unwrap_or(1.0);
    let db = gen_tpch(sf);
    let rows = counter_rows(a, &db, &a.queries(&QueryId::TPCH));
    // §4.1 hash-function ablation on the join-heaviest query.
    let mut ablation = Vec::new();
    if a.query.is_none_or(|q| q == QueryId::Q9) {
        let tuples = QueryId::Q9.tuples_scanned(&db) as f64;
        for (label, hash) in [
            ("default", None),
            ("murmur2", Some(HashFn::Murmur2)),
            ("crc", Some(HashFn::Crc)),
        ] {
            let cfg = ExecCfg {
                hash,
                ..Default::default()
            };
            let mut row = Obj::new().with("query", "q9").with("hash", label);
            for e in a.engines(&BLOCK) {
                let v = count_query(e, QueryId::Q9, &db, &cfg);
                row.push(col(e, "_cycles_per_tuple"), v.cycles_estimate() as f64 / tuples);
            }
            ablation.push(row);
        }
    }
    Report::new(
        "table1",
        format!("Table 1 — TPC-H SF={sf}, 1 thread, counters normalized per tuple scanned"),
    )
    .note(counters_note())
    .with("sf", sf)
    .with("hardware_counters", dbep_runtime::CounterSet::available())
    .with("rows", rows)
    .with("hash_ablation", ablation)
}

/// `table1 --per-stage`: grouped hardware counters (cycles,
/// instructions, LLC misses, branch misses) read around every pipeline
/// stage of every registered query — Table-1 attribution sliced by
/// stage instead of whole query. Single-threaded runs so the whole-run
/// group delta on the calling thread is an independent cross-check of
/// the per-stage sum (the gap is glue outside stage brackets). Falls
/// back to wall-time-only rows when perf is unavailable.
fn table1_per_stage(a: &Args) -> Report {
    use dbep_core::scheduler::StageTrace;
    use dbep_runtime::counters::{with_thread_group, GroupReading, StageCounters};
    let sf = a.sf.unwrap_or(1.0);
    let queries = a.queries(&QueryId::ALL);
    let dbs = databases(sf, &queries, a.encoded);
    let hw = with_thread_group(|g| g.len()).is_some();
    let group = |g: &GroupReading| {
        Obj::new()
            .with("cycles", g.cycles)
            .with("instructions", g.instructions)
            .with("llc_miss", g.llc_miss)
            .with("branch_miss", g.branch_miss)
    };
    let mut rows = Vec::new();
    for &q in &queries {
        let db = dbs.get(q);
        let stages = dbep_queries::plan(q).stages();
        for engine in a.engines(&BLOCK) {
            // Warm once (first-touch effects), then keep the second run,
            // bracketed by whole-group reads on this thread.
            let mut measured = None;
            for _ in 0..2 {
                let counters = StageCounters::new(stages.len());
                let trace = StageTrace::new(stages.len());
                let cfg = ExecCfg {
                    stage_trace: Some(&trace),
                    stage_counters: Some(&counters),
                    ..ExecCfg::default()
                };
                let before = with_thread_group(|g| g.read()).flatten();
                let t0 = Instant::now();
                std::mem::drop(run(engine, q, db, &cfg));
                let wall_ns = t0.elapsed().as_nanos() as u64;
                let whole = with_thread_group(|g| g.read())
                    .flatten()
                    .zip(before)
                    .map(|(end, start)| end.delta_since(&start));
                measured = Some((wall_ns, whole, trace.snapshot(), counters.snapshot()));
            }
            let (wall_ns, whole, walls, per) = measured.expect("two runs");
            let sum = per.iter().fold(GroupReading::default(), |acc, s| GroupReading {
                cycles: acc.cycles + s.cycles,
                instructions: acc.instructions + s.instructions,
                llc_miss: acc.llc_miss + s.llc_miss,
                branch_miss: acc.branch_miss + s.branch_miss,
            });
            let stage_rows: Vec<Obj> = stages
                .iter()
                .zip(&walls)
                .zip(&per)
                .map(|((desc, &wall), c)| {
                    Obj::new()
                        .with("stage", desc.name)
                        .with("kind", desc.kind.name())
                        .with("wall_ms", Duration::from_nanos(wall))
                        .with("wall_ns", wall)
                        .with("cycles", c.cycles)
                        .with("instructions", c.instructions)
                        .with("llc_miss", c.llc_miss)
                        .with("branch_miss", c.branch_miss)
                        .with("ipc", c.ipc())
                        .with("samples", c.samples)
                })
                .collect();
            rows.push(
                Obj::new()
                    .with("run", format!("{}/{}", q.name(), engine.name()))
                    .with("query", q.name())
                    .with("engine", engine.name())
                    .with("wall_ms", Duration::from_nanos(wall_ns))
                    .with("stage_sum", group(&sum))
                    .with("whole_run", whole.as_ref().map(group))
                    // Cross-checks: the share of whole-run cycles
                    // (hardware) and of wall time spent inside stages.
                    .with(
                        "stage_coverage",
                        whole
                            .filter(|w| w.cycles > 0)
                            .map(|w| sum.cycles as f64 / w.cycles as f64),
                    )
                    .with(
                        "stage_wall_share",
                        walls.iter().sum::<u64>() as f64 / wall_ns.max(1) as f64,
                    )
                    .with("stages", stage_rows),
            );
        }
    }
    let mut report = Report::new(
        "table1-per-stage",
        format!("Table 1 (per stage) — SF={sf}, 1 thread, grouped counters per pipeline stage"),
    );
    if !hw {
        report = report.note("hardware counters unavailable (perf_event_open failed); wall time only");
    }
    report
        .with("sf", sf)
        .with("hardware_counters", hw)
        .with("queries", rows)
}

// ---------------------------------------------------------------------
// Fig. 4: memory-stall vs other cycles across data sizes.
// ---------------------------------------------------------------------

/// The paper's scale factors below `max_sf`, then `max_sf` itself.
fn fig4_scale_factors(max_sf: f64) -> Vec<f64> {
    [1.0, 3.0, 10.0, 30.0, 100.0]
        .into_iter()
        .filter(|&s| s < max_sf)
        .chain([max_sf])
        .collect()
}

fn fig4(a: &Args) -> Report {
    let sfs = fig4_scale_factors(a.sf.unwrap_or(10.0));
    let queries = a.queries(&QueryId::TPCH_PAPER);
    let mut rows = Vec::new();
    for &sf in &sfs {
        let db = gen_tpch(sf);
        for &q in &queries {
            let tuples = q.tuples_scanned(&db) as f64;
            let mut row = Obj::new().with("query", q.name()).with("sf", sf);
            for e in a.engines(&BLOCK) {
                let v = count_query(e, q, &db, &ExecCfg::default());
                row.push(col(e, "_cycles_per_tuple"), v.cycles_estimate() as f64 / tuples);
                row.push(
                    col(e, "_stall_per_tuple"),
                    v.stalled_backend.map(|s| s as f64 / tuples),
                );
            }
            rows.push(row);
        }
    }
    Report::new(
        "fig4",
        "Fig. 4 — cycles/tuple vs scale factor (paper sweeps 1..100), 1 thread",
    )
    .note(counters_note())
    .with("sfs", sfs)
    .with("rows", rows)
}

// ---------------------------------------------------------------------
// Fig. 5: Tectorwise vector-size sweep, normalized to 1K.
// ---------------------------------------------------------------------
fn fig5(a: &Args) -> Report {
    let sf = a.sf.unwrap_or(1.0);
    let db = gen_tpch(sf);
    let sizes: [(usize, &str); 9] = [
        (1, "1"),
        (16, "16"),
        (256, "256"),
        (1024, "1K"),
        (4096, "4K"),
        (65536, "64K"),
        (1 << 20, "1M"),
        (1 << 24, "16M"),
        (usize::MAX >> 1, "Max"),
    ];
    let rows: Vec<Obj> = a
        .queries(&QueryId::TPCH_PAPER)
        .into_iter()
        .map(|q| {
            let at = |vector_size, reps| {
                let cfg = ExecCfg {
                    vector_size,
                    ..Default::default()
                };
                time_query(reps, Engine::Tectorwise, q, &db, &cfg)
            };
            let base = at(1024, a.reps);
            sizes
                .iter()
                .fold(Obj::new().with("query", q.name()), |row, &(vs, label)| {
                    row.with(label, at(vs, a.reps.min(2)).as_secs_f64() / base.as_secs_f64())
                })
        })
        .collect();
    Report::new(
        "fig5",
        "Fig. 5 — TW vector-size sweep, time relative to 1K vectors",
    )
    .with("sf", sf)
    .with("rows", rows)
}

// ---------------------------------------------------------------------
// §4.4: SSB counter table (paper: SF=30; default here SF=5).
// ---------------------------------------------------------------------
fn ssb(a: &Args) -> Report {
    let sf = a.sf.unwrap_or(5.0);
    let db = gen_ssb(sf);
    Report::new(
        "ssb",
        format!("§4.4 — SSB SF={sf} (paper: 30), 1 thread, counters per tuple scanned"),
    )
    .note(counters_note())
    .with("sf", sf)
    .with("rows", counter_rows(a, &db, &a.queries(&QueryId::SSB)))
}

// ---------------------------------------------------------------------
// Table 2: prototypes vs the interpretation baseline (substitution 5).
// ---------------------------------------------------------------------
fn table2(a: &Args) -> Report {
    let sf = a.sf.unwrap_or(1.0);
    let db = gen_tpch(sf);
    let cfg = ExecCfg::default();
    let engines = a.engines(&[Engine::Volcano, Engine::Typer, Engine::Tectorwise]);
    let rows: Vec<Obj> = a
        .queries(&QueryId::TPCH_PAPER)
        .into_iter()
        .map(|q| {
            engines
                .iter()
                .fold(Obj::new().with("query", q.name()), |row, &e| {
                    // One timed run of the interpreter: it is 10–100× slower.
                    let reps = if e == Engine::Volcano { 1 } else { a.reps };
                    row.with(col(e, "_ms"), time_query(reps, e, q, &db, &cfg))
                })
        })
        .collect();
    Report::new(
        "table2",
        format!("Table 2 — TPC-H SF={sf}, 1 thread, runtime [ms]"),
    )
    .note(
        "production systems HyPer/VectorWise are quoted in EXPERIMENTS.md; \
             the Volcano interpreter stands in for the traditional-engine gap",
    )
    .with("sf", sf)
    .with("reps", a.reps)
    .with("rows", rows)
}

/// One scalar-versus-SIMD comparison of Figs. 6 and 8: `measure` runs
/// under each policy.
fn simd_row(panel: &str, unit: &str, mut measure: impl FnMut(SimdPolicy) -> f64) -> Obj {
    let (scalar, simd) = (measure(SimdPolicy::Scalar), measure(SimdPolicy::Simd));
    Obj::new()
        .with("panel", panel)
        .with("unit", unit)
        .with("scalar", scalar)
        .with("simd", simd)
        .with("speedup", scalar / simd)
}

/// Cycles per element when each of `reps` calls of `kernel` processes
/// `elems` elements (after one warm-up pass).
fn cycles_per(elems: usize, reps: usize, mut kernel: impl FnMut()) -> f64 {
    let v = measure_counters(|| (0..reps).for_each(|_| kernel()));
    v.cycles_estimate() as f64 / (elems * reps).max(1) as f64
}

/// Tectorwise runtime of `q` under `policy`, in milliseconds.
fn tw_ms(a: &Args, q: QueryId, db: &Database, policy: SimdPolicy) -> f64 {
    let cfg = ExecCfg {
        policy,
        ..Default::default()
    };
    time_query(a.reps, Engine::Tectorwise, q, db, &cfg).as_secs_f64() * 1e3
}

// ---------------------------------------------------------------------
// Fig. 6: scalar vs SIMD selection (dense, sparse, Q6).
// ---------------------------------------------------------------------
fn fig6(a: &Args) -> Report {
    use dbep_vectorized::sel;
    let n = 8192usize;
    let mut rng = SmallRng::seed_from_u64(7);
    let col: Vec<i32> = (0..n).map(|_| rng.gen_range(0..100)).collect();
    let cutoff = 40; // 40% selectivity
    let reps = 20_000;
    let mut out = Vec::new();
    let dense = simd_row(
        "6a dense selection, 8192 ints in L1, 40% selectivity",
        "cycles/elem",
        |policy| {
            cycles_per(n, reps, || {
                sel::sel_lt_i32_dense(&col, cutoff, 0, &mut out, policy);
                std::hint::black_box(&out);
            })
        },
    );
    // 6b: sparse input (selection vector selects 40%), selection selects 40%.
    let mut in_sel = Vec::new();
    sel::sel_lt_i32_dense(&col, cutoff, 0, &mut in_sel, SimdPolicy::Scalar);
    let col2: Vec<i32> = (0..n).map(|_| rng.gen_range(0..100)).collect();
    let sparse = simd_row(
        "6b sparse selection, 40% input sel., 40% output",
        "cycles/elem",
        |policy| {
            cycles_per(in_sel.len(), reps, || {
                sel::sel_lt_i32_sparse(&col2, cutoff, &in_sel, &mut out, policy);
                std::hint::black_box(&out);
            })
        },
    );
    let sf = a.sf.unwrap_or(1.0);
    let db = gen_tpch(sf);
    let q6 = simd_row(&format!("6c TPC-H Q6 (TW), SF={sf}"), "ms", |policy| {
        tw_ms(a, QueryId::Q6, &db, policy)
    });
    Report::new("fig6", "Fig. 6 — scalar vs SIMD selection")
        .with("sf", sf)
        .with("panels", vec![dense, sparse, q6])
}

// ---------------------------------------------------------------------
// Fig. 7: sparse selection vs input selectivity on out-of-cache data.
// ---------------------------------------------------------------------
fn fig7(a: &Args) -> Report {
    use dbep_vectorized::sel;
    // Paper: 4 GB. Default 1 GiB so modest hosts can run it; --sf = GiB.
    let gib = a.sf.unwrap_or(1.0);
    let n = (gib * 1024.0 * 1024.0 * 1024.0 / 4.0) as usize;
    let mut rng = SmallRng::seed_from_u64(9);
    eprintln!("[gen] {n} i32s ({gib} GiB)");
    let col: Vec<i32> = (0..n).map(|_| rng.gen_range(0..1000)).collect();
    let mut out = Vec::new();
    let mut rows = Vec::new();
    for pct in [10usize, 20, 40, 60, 80, 100] {
        let in_sel: Vec<u32> = (0..n).filter(|i| i % 100 < pct).map(|i| i as u32).collect();
        let cutoff = 400; // 40% of values < 400
        let mut cycles = |policy| {
            cycles_per(in_sel.len(), 1, || {
                sel::sel_lt_i32_sparse(&col, cutoff, &in_sel, &mut out, policy);
                std::hint::black_box(&out);
            })
        };
        rows.push(
            Obj::new()
                .with("input_sel_pct", pct)
                .with("scalar", cycles(SimdPolicy::Scalar))
                .with("simd", cycles(SimdPolicy::Simd)),
        );
    }
    Report::new(
        "fig7",
        format!("Fig. 7 — sparse selection on {gib} GiB of i32, output selectivity 40%"),
    )
    .note(format!("cycles per input-selected element; {}", counters_note()))
    .with("gib", gib)
    .with("rows", rows)
}

// ---------------------------------------------------------------------
// Fig. 8: scalar vs SIMD join probing components + full queries.
// ---------------------------------------------------------------------
fn fig8(a: &Args) -> Report {
    use dbep_runtime::JoinHt;
    use dbep_vectorized::{gather, hashp, probe};
    let queries = a.queries(&[QueryId::Q3, QueryId::Q9]);
    let mut rng = SmallRng::seed_from_u64(11);
    let reps = 20_000;
    // (a) hashing.
    let keys: Vec<u64> = (0..8192u64).map(|_| rng.next_u64()).collect();
    let mut hashed = Vec::new();
    let hashing = simd_row(
        "8a Murmur2 hashing, dense, L1-resident",
        "cycles/elem",
        |policy| {
            cycles_per(keys.len(), reps, || {
                hashp::murmur2_u64_vec(&keys, policy, &mut hashed);
                std::hint::black_box(&hashed);
            })
        },
    );
    // (b) gather from an L1-resident array.
    let table: Vec<i64> = (0..4096).map(|i| i as i64).collect();
    let sel: Vec<u32> = (0..8192).map(|_| rng.gen_range(0..4096u32)).collect();
    let mut gathered = Vec::new();
    let gathering = simd_row("8b gather, L1-resident", "cycles/elem", |policy| {
        cycles_per(sel.len(), reps, || {
            gather::gather_i64(&table, &sel, policy, &mut gathered);
            std::hint::black_box(&gathered);
        })
    });
    // (c) TW probe primitive on a cache-resident hash table.
    let build_n = 2048usize;
    let ht = JoinHt::build((0..build_n as u64).map(|k| (dbep_runtime::murmur2(k), (k as i32, k as i64))));
    let probe_keys: Vec<i32> = (0..8192).map(|_| rng.gen_range(0..build_n as i32 * 2)).collect();
    let tuples: Vec<u32> = (0..probe_keys.len() as u32).collect();
    let mut hashes = Vec::new();
    hashp::hash_i32(&probe_keys, &tuples, HashFn::Murmur2, &mut hashes);
    let mut bufs = probe::ProbeBuffers::new();
    let probing = simd_row(
        "8c TW join-probe primitive, cache-resident HT",
        "cycles/lookup",
        |policy| {
            cycles_per(probe_keys.len(), reps / 4, || {
                let hit = |r: &(i32, i64), t| r.0 == probe_keys[t as usize];
                probe::probe_join(&ht, &hashes, &tuples, hit, policy, &mut bufs);
                std::hint::black_box(&bufs.match_tuple);
            })
        },
    );
    let mut rows = vec![hashing, gathering, probing];
    // (d) full TPC-H join queries.
    let sf = a.sf.unwrap_or(1.0);
    let db = gen_tpch(sf);
    for q in queries {
        let panel = format!("8d TPC-H {} (TW), SF={sf}", q.name());
        rows.push(simd_row(&panel, "ms", |policy| tw_ms(a, q, &db, policy)));
    }
    Report::new("fig8", "Fig. 8 — scalar vs SIMD join probing")
        .with("sf", sf)
        .with("panels", rows)
}

// ---------------------------------------------------------------------
// Fig. 9: probe cost vs working-set size (+ Bloom-tag ablation).
// ---------------------------------------------------------------------
fn fig9(a: &Args) -> Report {
    use dbep_runtime::join_ht::{JoinHt, JoinHtShard};
    use dbep_vectorized::{hashp, probe};
    let mut rng = SmallRng::seed_from_u64(13);
    let probes = 4_000_000usize;
    let mut rows = Vec::new();
    for shift in [12usize, 14, 16, 18, 20, 22, 24, 25] {
        let n = 1usize << shift;
        let mut shard = JoinHtShard::with_capacity(n);
        for k in 0..n as u64 {
            shard.push(dbep_runtime::murmur2(k), (k as i32, k as i64));
        }
        let ht = JoinHt::from_shards_cfg(vec![shard], &dbep_runtime::ExecCtx::inline(), !a.no_tag);
        let ws = ht.memory_bytes();
        // 50% hit rate: keys drawn from twice the build domain.
        let keys: Vec<i32> = (0..probes)
            .map(|_| rng.gen_range(0..(n as i32).saturating_mul(2)))
            .collect();
        let tuples: Vec<u32> = (0..keys.len() as u32).collect();
        let mut hashes = Vec::new();
        hashp::hash_i32(&keys, &tuples, HashFn::Murmur2, &mut hashes);
        let mut bufs = probe::ProbeBuffers::new();
        let mut cycles = |policy| {
            // Probe in vector-sized batches like the engine does.
            cycles_per(probes, 1, || {
                for c in hashes.chunks(1024).zip(tuples.chunks(1024)) {
                    probe::probe_join(&ht, c.0, c.1, |r, t| r.0 == keys[t as usize], policy, &mut bufs);
                    std::hint::black_box(&bufs.match_tuple);
                }
            })
        };
        let label = if ws >= 1 << 20 {
            format!("{:.0} MiB", ws as f64 / (1 << 20) as f64)
        } else {
            format!("{:.0} KiB", ws as f64 / 1024.0)
        };
        rows.push(
            Obj::new()
                .with("working_set", label)
                .with("working_set_bytes", ws)
                .with("scalar", cycles(SimdPolicy::Scalar))
                .with("simd", cycles(SimdPolicy::Simd)),
        );
    }
    Report::new(
        "fig9",
        "Fig. 9 — TW hash-table lookup: cycles/lookup vs working-set size, 50% probe-miss rate",
    )
    .with("tag_filter", !a.no_tag)
    .with("rows", rows)
}

// ---------------------------------------------------------------------
// Fig. 10: auto-vectorization vs scalar vs manual SIMD (substitution 2).
// ---------------------------------------------------------------------
fn fig10(a: &Args) -> Report {
    let sf = a.sf.unwrap_or(1.0);
    let db = gen_tpch(sf);
    let hw = dbep_runtime::CounterSet::available();
    let rows: Vec<Obj> = a
        .queries(&QueryId::TPCH_PAPER)
        .into_iter()
        .map(|q| {
            let instr = |policy| {
                let cfg = ExecCfg {
                    policy,
                    ..Default::default()
                };
                let v = count_query(Engine::Tectorwise, q, &db, &cfg);
                v.instructions.unwrap_or(0) as f64
            };
            let base = tw_ms(a, q, &db, SimdPolicy::Scalar);
            let base_instr = hw.then(|| instr(SimdPolicy::Scalar));
            let mut row = Obj::new().with("query", q.name());
            for (label, policy) in [("auto", SimdPolicy::Auto), ("manual", SimdPolicy::Simd)] {
                let time = tw_ms(a, q, &db, policy);
                row.push(format!("time_reduction_{label}_pct"), (1.0 - time / base) * 100.0);
                row.push(
                    format!("instr_reduction_{label}_pct"),
                    base_instr.map(|b| (1.0 - instr(policy) / b) * 100.0),
                );
            }
            row
        })
        .collect();
    let mut report = Report::new(
        "fig10",
        "Fig. 10 — rustc/LLVM auto-vectorization (paper: ICC 18): reduction vs scalar TW [%] (positive = better)",
    );
    if !hw {
        report = report.note(format!("instruction reductions are null: {}", counters_note()));
    }
    report.with("sf", sf).with("rows", rows)
}

// ---------------------------------------------------------------------
// Table 3: multi-threaded execution (paper: SF=100; default SF=10).
// ---------------------------------------------------------------------

/// One, half and all of `max_t` threads: ascending, distinct, and never
/// above `max_t`.
fn table3_threads(max_t: usize) -> Vec<usize> {
    let mut points = [1, (max_t / 2).max(2), max_t].map(|t| t.min(max_t)).to_vec();
    points.sort_unstable();
    points.dedup();
    points
}

fn table3(a: &Args) -> Report {
    let sf = a.sf.unwrap_or(10.0);
    let db = gen_tpch(sf);
    let max_t = a.threads.unwrap_or_else(cores).max(1);
    let points = table3_threads(max_t);
    let engines = a.engines(&BLOCK);
    let mut rows = Vec::new();
    for q in a.queries(&QueryId::TPCH_PAPER) {
        let mut base = Vec::new();
        for &t in &points {
            let cfg = ExecCfg::with_threads(t);
            let times: Vec<(Engine, Duration)> = engines
                .iter()
                .map(|&e| (e, time_query(a.reps.min(2), e, q, &db, &cfg)))
                .collect();
            if t == 1 {
                base = times.clone();
            }
            let mut row = Obj::new().with("query", q.name()).with("threads", t);
            for ((e, d), (_, b)) in times.iter().zip(&base) {
                row.push(col(*e, "_ms"), *d);
                row.push(col(*e, "_speedup"), b.as_secs_f64() / d.as_secs_f64());
            }
            rows.push(row.with(
                "typer_over_tectorwise",
                ratio(&times, Engine::Typer, Engine::Tectorwise),
            ));
        }
    }
    Report::new(
        "table3",
        format!("Table 3 — TPC-H SF={sf} (paper: 100), {max_t}-core host, runtime [ms]"),
    )
    .with("sf", sf)
    .with("threads", points)
    .with("rows", rows)
}

// ---------------------------------------------------------------------
// Table 4: hardware inventory.
// ---------------------------------------------------------------------
fn table4(_a: &Args) -> Report {
    let rows: Vec<Obj> = dbep_bench::hwinfo::fields()
        .into_iter()
        .map(|(k, v)| Obj::new().with("attribute", k).with("value", v))
        .collect();
    Report::new(
        "table4",
        "Table 4 — host hardware (paper compares Skylake-X / Threadripper / KNL)",
    )
    .with("hardware", rows)
}

// ---------------------------------------------------------------------
// Table 5: out-of-memory via bandwidth throttle (substitution 4).
// ---------------------------------------------------------------------
fn table5(a: &Args) -> Report {
    let sf = a.sf.unwrap_or(10.0);
    let db = gen_tpch(sf);
    let threads = a.threads.unwrap_or_else(cores);
    let engines = a.engines(&BLOCK);
    let cfg = ExecCfg::with_threads(threads);
    let rows: Vec<Obj> = a
        .queries(&QueryId::TPCH_PAPER)
        .into_iter()
        .map(|q| {
            let mem: Vec<(Engine, Duration)> = engines
                .iter()
                .map(|&e| (e, time_query(a.reps.min(2), e, q, &db, &cfg)))
                .collect();
            let ssd: Vec<(Engine, Duration)> = engines
                .iter()
                .map(|&e| {
                    let t = Instant::now();
                    run_on_ssd(e, q, &db, threads);
                    (e, t.elapsed())
                })
                .collect();
            let mut row = Obj::new().with("query", q.name());
            for (e, d) in &mem {
                row.push(col(*e, "_ms"), *d);
            }
            row.push(
                "typer_over_tectorwise",
                ratio(&mem, Engine::Typer, Engine::Tectorwise),
            );
            for (e, d) in &ssd {
                row.push(col(*e, "_ssd_ms"), *d);
            }
            row.with(
                "ssd_typer_over_tectorwise",
                ratio(&ssd, Engine::Typer, Engine::Tectorwise),
            )
        })
        .collect();
    Report::new(
        "table5",
        format!("Table 5 — TPC-H SF={sf}, {threads} threads: memory vs emulated 1.4 GB/s SSD [ms]"),
    )
    .with("sf", sf)
    .with("threads", threads)
    .with("rows", rows)
}

// ---------------------------------------------------------------------
// Figs. 11/12: queries/second vs % cores used.
// ---------------------------------------------------------------------
fn fig11(a: &Args) -> Report {
    let sf = a.sf.unwrap_or(10.0);
    let db = gen_tpch(sf);
    let max_t = a.threads.unwrap_or_else(cores);
    let points: Vec<usize> = [1, 2, 4, 8, 12, 16, 24, 32, 48]
        .into_iter()
        .filter(|&t| t <= max_t)
        .collect();
    let engines = a.engines(&BLOCK);
    let mut rows = Vec::new();
    for q in a.queries(&QueryId::TPCH_PAPER) {
        for &t in &points {
            let cfg = ExecCfg::with_threads(t);
            rows.push(engines.iter().fold(
                Obj::new().with("query", q.name()).with("threads", t),
                |row, &e| {
                    let d = time_query(a.reps.min(2), e, q, &db, &cfg);
                    row.with(col(e, "_qps"), 1.0 / d.as_secs_f64())
                },
            ));
        }
    }
    Report::new(
        "fig11",
        format!("Figs. 11/12 — queries/second vs cores used, TPC-H SF={sf}"),
    )
    .with("sf", sf)
    .with("rows", rows)
}

// ---------------------------------------------------------------------
// §8.1: OLTP point lookups.
// ---------------------------------------------------------------------
fn oltp(a: &Args) -> Report {
    use dbep_queries::oltp;
    let sf = a.sf.unwrap_or(1.0);
    let db = gen_tpch(sf);
    let idx = oltp::OltpIndex::build(&db, HashFn::Crc);
    let n_orders = db.table("orders").len() as i32;
    let mut rng = SmallRng::seed_from_u64(17);
    let keys: Vec<i32> = (0..100_000).map(|_| rng.gen_range(1..=n_orders)).collect();
    let row = |engine: Engine, procedure: &str, lookups: usize, t: Duration| {
        Obj::new()
            .with("engine", engine.name())
            .with("procedure", procedure)
            .with("lookups", lookups)
            .with("lookups_per_s", lookups as f64 / t.as_secs_f64())
    };
    let engines = a.engines(&Engine::ALL);
    let mut rows = Vec::new();
    if engines.contains(&Engine::Typer) {
        let t = time_median(a.reps, || {
            for &k in &keys {
                std::hint::black_box(oltp::lookup_typer(&db, &idx, k));
            }
        });
        rows.push(row(Engine::Typer, "compiled procedure", keys.len(), t));
    }
    if engines.contains(&Engine::Tectorwise) {
        let mut scratch = oltp::TwLookupScratch::new();
        let t = time_median(a.reps, || {
            for &k in &keys {
                std::hint::black_box(oltp::lookup_tectorwise(&db, &idx, k, &mut scratch));
            }
        });
        rows.push(row(Engine::Tectorwise, "vector-of-one", keys.len(), t));
    }
    if engines.contains(&Engine::Volcano) {
        let few = &keys[..8];
        let t = time_median(1, || {
            for &k in few {
                std::hint::black_box(oltp::lookup_volcano(&db, k));
            }
        });
        rows.push(row(Engine::Volcano, "interpreted, no index", few.len(), t));
    }
    Report::new(
        "oltp",
        "§8.1 — OLTP stored-procedure lookups (order + lineitem aggregate)",
    )
    .with("sf", sf)
    .with("rows", rows)
}

// ---------------------------------------------------------------------
// Table 6 / Fig. 13: the processing-model taxonomy, demonstrated live.
// ---------------------------------------------------------------------
fn table6(a: &Args) -> Report {
    let sf = a.sf.unwrap_or(1.0);
    let db = gen_tpch(sf);
    let queries = a.queries(&[QueryId::Q1, QueryId::Q6]);
    let engines = a.engines(&Engine::ALL);
    let d = ExecCfg::default();
    let vectors = |vector_size| ExecCfg {
        vector_size,
        ..Default::default()
    };
    let models = [
        ("pull + interpretation (System R / Volcano)", Engine::Volcano, d),
        (
            "pull + vectorization, vectors of 1",
            Engine::Tectorwise,
            vectors(1),
        ),
        ("pull + vectorization (VectorWise, 1K)", Engine::Tectorwise, d),
        (
            "full materialization (MonetDB)",
            Engine::Tectorwise,
            vectors(usize::MAX >> 1),
        ),
        ("push + compilation (HyPer / Typer)", Engine::Typer, d),
    ];
    let rows: Vec<Obj> = models
        .iter()
        .filter(|(_, e, _)| engines.contains(e))
        .map(|(model, e, cfg)| {
            queries.iter().fold(
                Obj::new().with("model", *model).with("engine", e.name()),
                |row, &q| {
                    row.with(
                        format!("{}_ms", q.name()),
                        time_query(a.reps.min(2), *e, q, &db, cfg),
                    )
                },
            )
        })
        .collect();
    Report::new(
        "table6",
        format!("Table 6 — processing models on TPC-H Q1/Q6, SF={sf}, 1 thread [ms]"),
    )
    .with("sf", sf)
    .with("rows", rows)
}

// ---------------------------------------------------------------------
// `query`: run one prepared query through the Session API and report it.
// ---------------------------------------------------------------------
fn query(a: &Args) -> Report {
    let q = a.query.unwrap_or(QueryId::Q6);
    let sf = a.sf.unwrap_or(0.1);
    let threads = a.threads.unwrap_or(1);
    let PerBench { tpch, ssb } = databases(sf, &[q], a.encoded);
    let db = tpch.or(ssb).expect("the query's database");
    // `--trace`: attach the span sink so every run below records
    // query → stage → morsel spans; exported as one Chrome
    // `trace_event` document after the engines finish.
    let sink = a
        .trace
        .as_ref()
        .map(|_| Arc::new(dbep_obs::TraceSink::new(1 << 16)));
    let mut session = Session::with_cfg(db, ExecCfg::with_threads(threads));
    if let Some(sink) = &sink {
        session = session.with_trace(Arc::clone(sink));
    }
    let prepared = session.prepare(q);
    let mut runs = Vec::new();
    let mut reference = None;
    for engine in a.engines(&Engine::ALL) {
        let t = time_median(a.reps, || std::mem::drop(prepared.run(engine)));
        let result = prepared.run(engine);
        runs.push(
            Obj::new()
                .with("engine", engine.name())
                .with("ms", t)
                .with("rows", result.len()),
        );
        if let Some(r) = &reference {
            assert_eq!(r, &result, "{engine:?} disagrees");
        }
        reference.get_or_insert(result);
    }
    let result = reference.expect("at least one engine");
    let result_rows: Vec<Obj> = result
        .rows
        .iter()
        .map(|row| {
            result
                .columns
                .iter()
                .zip(row)
                .fold(Obj::new(), |o, (c, v)| o.with(c.as_str(), v.to_string()))
        })
        .collect();
    if let (Some(path), Some(sink)) = (&a.trace, &sink) {
        let events = sink.snapshot();
        let doc = dbep_obs::chrome_trace(&events, &dbep_queries::trace_names());
        std::fs::write(path, doc).unwrap_or_else(|e| usage_error(&format!("--trace {path}: {e}")));
        eprintln!(
            "[trace] wrote {} span(s) to {path} ({} dropped by the ring); open in Perfetto or chrome://tracing",
            events.len(),
            sink.dropped()
        );
    }
    let storage = if a.encoded { ", encoded storage" } else { "" };
    Report::new(
        "query",
        format!(
            "{} — SF={sf}, {threads} thread(s), default (paper) parameters{storage}",
            q.name()
        ),
    )
    .with("query", q.name())
    .with("sf", sf)
    .with("threads", threads)
    .with("encoded", a.encoded)
    .with("engines", runs)
    .with("result", result_rows)
}

// ---------------------------------------------------------------------
// `serve`: the inter-query benchmark — N closed-loop clients fire the
// mixed 12-query workload (TPC-H + SSB, two Sessions over one shared
// morsel scheduler in pool mode) with one engine per scenario:
// typer, tectorwise, volcano, or adaptive (per-stage selection backed
// by the Session plan cache). Reports deadline-clamped QPS,
// interpolated p50/p95/p99 latency, plan-cache hit rates, learned
// adaptive assignments and per-query scheduler stats.
// ---------------------------------------------------------------------

/// Completed-request record of one closed-loop client.
struct ServeSample {
    /// Index into the scenario's query list.
    pair: usize,
    latency: Duration,
    /// Completion offset from the scenario start (the deadline clamp
    /// uses this; in-flight requests finishing after the window still
    /// contribute latency samples but not QPS).
    done_at: Duration,
    stats: dbep_core::scheduler::RunStats,
}

/// Run one serve scenario and report it as one `scenarios` row.
#[allow(clippy::too_many_arguments)] // one call site; a struct would just rename the labels
fn serve_scenario(
    dbs: &PerBench<Arc<Database>>,
    mode: &'static str,
    threads: usize,
    clients: usize,
    engine: Engine,
    window: Duration,
    queries: &[QueryId],
    obs: bool,
) -> Obj {
    use dbep_bench::serve_stats::{percentile, throughput};
    let cfg = ExecCfg::with_threads(threads);
    // Pool mode: one fixed worker pool shared by both databases'
    // sessions (the scheduler is per-pool, not per-database). Spawn
    // mode: scoped threads per query, the pre-scheduler baseline.
    let shared = matches!(mode, "pool").then(|| Arc::new(dbep_core::scheduler::Scheduler::new(threads)));
    // `--obs`: one span sink + one metrics bundle shared by both
    // sessions, so the scenario pays the full instrumented cost (the
    // tracing-overhead comparison runs serve with and without this).
    let sink = obs.then(|| Arc::new(dbep_obs::TraceSink::new(1 << 16)));
    let metrics = obs.then(dbep_core::EngineMetrics::new);
    let mk_session = |db: &Arc<Database>| {
        let mut s = match &shared {
            Some(pool) => Session::with_scheduler(Arc::clone(db), cfg, Arc::clone(pool)),
            None => Session::without_pool(Arc::clone(db), cfg),
        };
        if let Some(sink) = &sink {
            s = s.with_trace(Arc::clone(sink));
        }
        if let Some(m) = &metrics {
            s = s.with_metrics(Arc::clone(m));
        }
        s
    };
    let sessions = PerBench {
        tpch: dbs.tpch.as_ref().map(mk_session),
        ssb: dbs.ssb.as_ref().map(mk_session),
    };
    let prepared: Vec<_> = queries.iter().map(|&q| sessions.get(q).prepare(q)).collect();
    // Warm up before the clock: once per query for first-touch
    // effects; twice for Adaptive so both exploration runs (pure Typer
    // and pure Tectorwise under a stage trace) finish and the measured
    // window runs the learned assignment.
    let warmups = if engine == Engine::Adaptive { 2 } else { 1 };
    for p in &prepared {
        for _ in 0..warmups {
            std::mem::drop(p.run(engine));
        }
    }
    let start = Instant::now();
    let deadline = start + window;
    let samples = std::sync::Mutex::new(Vec::new());
    std::thread::scope(|s| {
        for client in 0..clients {
            let (prepared, samples) = (&prepared, &samples);
            s.spawn(move || {
                let mut local = Vec::new();
                let mut k = client; // stagger each client's walk of the mix
                while Instant::now() < deadline {
                    let pair = k % prepared.len();
                    let t0 = Instant::now();
                    let (result, stats) = prepared[pair].run_with_stats(engine);
                    std::hint::black_box(&result);
                    local.push(ServeSample {
                        pair,
                        latency: t0.elapsed(),
                        done_at: start.elapsed(),
                        stats,
                    });
                    k += 1;
                }
                samples.lock().expect("serve samples").extend(local);
            });
        }
    });
    let elapsed = start.elapsed();
    let samples = samples.into_inner().expect("serve samples");
    // Re-prepare the whole mix: every prepare must now hit the plan
    // cache with ~zero planning time (and, for Adaptive, inherit the
    // learned stage assignment instead of re-exploring).
    let reprepared: Vec<_> = queries.iter().map(|&q| sessions.get(q).prepare(q)).collect();
    let reprepare_avg_ns =
        reprepared.iter().map(|p| p.planning_ns() as f64).sum::<f64>() / reprepared.len().max(1) as f64;
    let adaptive: Vec<Obj> = prepared
        .iter()
        .zip(queries)
        .filter(|_| engine == Engine::Adaptive)
        .filter_map(|(p, q)| {
            let (choices, _) = p.adaptive_choices()?;
            let stages = dbep_queries::plan(*q).stages();
            let rendered: Vec<String> = stages
                .iter()
                .zip(&choices)
                .map(|(s, e)| format!("{}={}", s.name, e.name()))
                .collect();
            Some(
                Obj::new()
                    .with("query", q.name())
                    .with("stages", rendered.join(" ")),
            )
        })
        .collect();
    let plan_cache = [&sessions.tpch, &sessions.ssb]
        .into_iter()
        .flatten()
        .map(Session::plan_cache_stats)
        .fold(dbep_core::PlanCacheStats::default(), |a, b| {
            dbep_core::PlanCacheStats {
                hits: a.hits + b.hits,
                misses: a.misses + b.misses,
                entries: a.entries + b.entries,
            }
        });
    let per_query: Vec<Obj> = queries
        .iter()
        .enumerate()
        .filter_map(|(pair, q)| {
            let runs: Vec<&ServeSample> = samples.iter().filter(|s| s.pair == pair).collect();
            let n = u32::try_from(runs.len()).ok().filter(|&n| n > 0)?;
            let avg = |f: fn(&ServeSample) -> Duration| runs.iter().map(|s| f(s)).sum::<Duration>() / n;
            let total = |f: fn(&ServeSample) -> u64| runs.iter().map(|s| f(s)).sum::<u64>();
            Some(
                Obj::new()
                    .with("query", q.name())
                    .with("runs", runs.len())
                    .with("avg_ms", avg(|s| s.latency))
                    .with("avg_admission_wait_ms", avg(|s| s.stats.admission_wait))
                    .with("avg_queue_wait_ms", avg(|s| s.stats.queue_wait))
                    .with("morsels", total(|s| s.stats.morsels))
                    .with("steals", total(|s| s.stats.steals))
                    .with("bytes_scanned", total(|s| s.stats.bytes_scanned)),
            )
        })
        .collect();
    let mut lat: Vec<Duration> = samples.iter().map(|s| s.latency).collect();
    lat.sort_unstable();
    let done: Vec<Duration> = samples.iter().map(|s| s.done_at).collect();
    let t = throughput(&done, window);
    // Log-linear buckets over the same samples the exact percentiles
    // summarize: the aggregatable form a scrape endpoint would serve,
    // kept out of the text tables.
    let hist = dbep_obs::Histogram::default();
    for l in &lat {
        hist.record(l.as_nanos() as u64);
    }
    let buckets: Vec<Obj> = hist
        .buckets()
        .into_iter()
        .map(|(le, n)| Obj::new().with("le_ns", le).with("count", n))
        .collect();
    let histogram = Obj::new()
        .with("count", hist.count())
        .with("sum_ns", hist.sum())
        .with("buckets", buckets);
    Obj::new()
        .with("scenario", format!("{mode}/{}/{clients}", engine.name()))
        .with("mode", mode)
        .with("engine", engine.name())
        .with("clients", clients)
        .with("queries_completed", t.completed)
        .with("drained_after_deadline", t.drained)
        .with("qps", t.qps)
        .with("wall_elapsed_ms", elapsed)
        .with("p50_ms", percentile(&lat, 0.50))
        .with("p95_ms", percentile(&lat, 0.95))
        .with("p99_ms", percentile(&lat, 0.99))
        .with("latency_histogram", Value::Raw(Value::Obj(histogram).to_json()))
        .with(
            "plan_cache",
            Obj::new()
                .with("hits", plan_cache.hits)
                .with("misses", plan_cache.misses)
                .with("entries", plan_cache.entries)
                .with(
                    "reprepare_hits",
                    reprepared.iter().filter(|p| p.cache_hit()).count(),
                )
                .with("reprepare_total", reprepared.len())
                .with("reprepare_avg_planning_ns", reprepare_avg_ns),
        )
        .with("adaptive_choices", adaptive)
        .with("per_query", per_query)
        .with(
            "observability",
            metrics.as_ref().map(|m| {
                // The registry's own rendering, embedded verbatim.
                Obj::new()
                    .with("spans_retained", sink.as_ref().map_or(0, |s| s.snapshot().len()))
                    .with("spans_overwritten", sink.as_ref().map_or(0, |s| s.dropped()))
                    .with("metrics", Value::Raw(m.registry().snapshot_json()))
            }),
        )
}

/// `--mode`: `pool`, `spawn`, or both (spawn first).
fn modes(a: &Args) -> Vec<&'static str> {
    match a.mode.as_str() {
        "pool" => vec!["pool"],
        "spawn" => vec!["spawn"],
        _ => vec!["spawn", "pool"],
    }
}

fn serve(a: &Args) -> Report {
    let sf = a.sf.unwrap_or(0.1);
    let threads = a.threads.unwrap_or_else(cores);
    let window = Duration::from_millis(a.duration_ms);
    // The mixed workload: all 12 queries over both databases, narrowed
    // by --query.
    let queries = a.queries(&QueryId::ALL);
    let dbs = databases(sf, &queries, a.encoded).map(Arc::new);
    // One engine per scenario; the default sweep compares Adaptive
    // against every single-engine run of the same mix.
    let engines = a.engines(&Engine::SELECTABLE);
    let mut scenarios = Vec::new();
    let mut scenario_engines = Vec::new();
    for &clients in &a.clients {
        for mode in modes(a) {
            for &engine in &engines {
                eprintln!(
                    "[serve] mode={mode} engine={} clients={clients} threads={threads} window={window:?}",
                    engine.name()
                );
                scenarios.push(serve_scenario(
                    &dbs, mode, threads, clients, engine, window, &queries, a.obs,
                ));
                scenario_engines.push(engine.name());
            }
        }
    }
    Report::new(
        "serve",
        format!("serve — closed-loop query serving, SF={sf}, {threads} worker threads"),
    )
    .with("sf", sf)
    .with("threads", threads)
    .with("duration_ms", a.duration_ms)
    .with("encoded", a.encoded)
    .with("obs", a.obs)
    .with("mix", names(&queries))
    .with("engines", scenario_engines)
    .with("scenarios", scenarios)
}

// ---------------------------------------------------------------------
// `metrics`: drive the mixed workload through a metrics-attached
// Session, then dump the registry — the JSON snapshot by default, the
// Prometheus text exposition with --prom. This is the exposition
// endpoint a scrape would hit; the CI smoke asserts both forms parse.
// ---------------------------------------------------------------------
fn metrics_cmd(a: &Args) {
    let sf = a.sf.unwrap_or(0.01);
    let threads = a.threads.unwrap_or(1);
    let queries = a.queries(&QueryId::ALL);
    let engines = a.engines(&[Engine::Adaptive]);
    let metrics = dbep_core::EngineMetrics::new();
    let cfg = ExecCfg::with_threads(threads);
    let sessions = databases(sf, &queries, a.encoded)
        .map(|db| Session::with_cfg(db, cfg).with_metrics(Arc::clone(&metrics)));
    for &q in &queries {
        let prepared = sessions.get(q).prepare(q);
        for &engine in &engines {
            for _ in 0..a.reps {
                std::mem::drop(prepared.run(engine));
            }
        }
    }
    if a.prom {
        print!("{}", metrics.registry().prometheus());
    } else {
        println!("{}", metrics.registry().snapshot_json());
    }
}

// ---------------------------------------------------------------------
// `compression`: flat versus encoded storage for the bandwidth-bound
// plans — runtime and scheduler-side bytes_scanned per (query, engine),
// with the reduction ratios. Results are asserted identical. Volcano is
// excluded by default (it always scans flat; pick it via --engine to
// see the unchanged baseline). `--throttle` adds the same pair read
// through the emulated 1.4 GB/s SSD, exactly as `table5` paces it: a
// fresh `Throttle::paper_ssd()` per run, so no idle budget is banked.
// ---------------------------------------------------------------------
fn compression(a: &Args) -> Report {
    let sf = a.sf.unwrap_or(0.1);
    let threads = a.threads.unwrap_or(1);
    let queries = a.queries(&[QueryId::Q1, QueryId::Q6, QueryId::Q14, QueryId::Ssb1_1]);
    let cfg = ExecCfg::with_threads(threads);
    let sessions = databases(sf, &queries, false).map(|flat| {
        let enc = encode(flat.clone());
        (Session::with_cfg(flat, cfg), Session::with_cfg(enc, cfg))
    });
    // `{side}_ms` is the median; min/max are the run-to-run spread.
    let cells = |mut o: Obj, flat: TimeSpread, enc: TimeSpread| {
        for (side, t) in [("flat", flat), ("encoded", enc)] {
            o.push(format!("{side}_ms"), t.median);
            o.push(format!("{side}_min_ms"), t.min);
            o.push(format!("{side}_max_ms"), t.max);
        }
        o.with("speedup", flat.median.as_secs_f64() / enc.median.as_secs_f64())
    };
    let mut rows = Vec::new();
    for q in queries {
        let (flat, enc) = sessions.get(q);
        for engine in a.engines(&BLOCK) {
            let pf = flat.prepare(q);
            let pe = enc.prepare(q);
            let (r_flat, s_flat) = pf.run_with_stats(engine);
            let (r_enc, s_enc) = pe.run_with_stats(engine);
            assert_eq!(
                r_flat,
                r_enc,
                "{} on {engine:?}: encoded result differs",
                q.name()
            );
            let ssd_run = |db| time_spread(a.reps, || run_on_ssd(engine, q, db, threads));
            let row = Obj::new().with("query", q.name()).with("engine", engine.name());
            let mut row = cells(
                row,
                time_spread(a.reps, || std::mem::drop(pf.run(engine))),
                time_spread(a.reps, || std::mem::drop(pe.run(engine))),
            )
            .with("flat_bytes_scanned", s_flat.bytes_scanned)
            .with("encoded_bytes_scanned", s_enc.bytes_scanned)
            .with(
                "bytes_reduction",
                s_flat.bytes_scanned as f64 / s_enc.bytes_scanned.max(1) as f64,
            );
            if a.throttle {
                row.push(
                    "paper_ssd",
                    cells(Obj::new(), ssd_run(flat.db()), ssd_run(enc.db())),
                );
            }
            rows.push(row);
        }
    }
    let hwinfo = dbep_bench::hwinfo::fields()
        .into_iter()
        .fold(Obj::new(), |o, (k, v)| o.with(k, v));
    Report::new(
        "compression",
        format!(
            "compression — flat vs encoded storage, SF={sf}, {threads} thread(s), runtime [ms] / bytes scanned"
        ),
    )
    .with("sf", sf)
    .with("threads", threads)
    .with("reps", a.reps)
    .with("hwinfo", hwinfo)
    .with("queries", rows)
}

// ---------------------------------------------------------------------
// serve-net: stand the TCP front-end up for external clients.
// ---------------------------------------------------------------------
fn serve_net(a: &Args) {
    use dbep_net::{Server, ServerConfig};
    let sf = a.sf.unwrap_or(0.1);
    let threads = a.threads.unwrap_or_else(cores);
    let pool = a.mode != "spawn"; // `both` (the default) serves pooled
    let dbs = databases(sf, &QueryId::ALL, a.encoded).map(Arc::new);
    let metrics = a.obs.then(dbep_core::EngineMetrics::new);
    let cfg = ServerConfig {
        threads,
        pool,
        metrics: metrics.clone(),
        ..ServerConfig::default()
    };
    let addr = format!(
        "{}:{}",
        a.addr.as_deref().unwrap_or("127.0.0.1"),
        a.port.unwrap_or(7878)
    );
    let server = Server::serve(&addr, dbs.tpch, dbs.ssb, cfg).unwrap_or_else(|e| {
        eprintln!("error: cannot bind {addr}: {e}");
        std::process::exit(1);
    });
    println!(
        "serving TPC-H + SSB (SF={sf}) on {} — mode={}, {threads} threads; a SHUTDOWN frame drains",
        server.local_addr(),
        if pool { "pool" } else { "spawn" },
    );
    server.join();
    if let Some(m) = &metrics {
        println!("{}", m.registry().snapshot_json());
    }
    eprintln!("[serve-net] drained");
}

// ---------------------------------------------------------------------
// load: open-loop latency-vs-offered-load sweep over TCP loopback.
// Arrivals follow a Poisson schedule decoupled from completions, so
// queueing delay is charged to latency (measured from the *scheduled*
// arrival) instead of silently throttling the offered rate the way the
// closed-loop `serve` experiment does.
// ---------------------------------------------------------------------

/// One open-loop request, timed against its schedule.
struct LoadSample {
    /// Scheduled arrival offset from the sweep-point start.
    scheduled: Duration,
    /// Completion offset from the sweep-point start.
    done_at: Duration,
    outcome: LoadOutcome,
}

#[derive(Clone, Copy, PartialEq)]
enum LoadOutcome {
    /// RESULT frame: counts toward goodput.
    Done,
    /// RETRY frame: the admission gate pushed back.
    Retried,
    /// Typed error, transport failure, or no connection.
    Failed,
}

/// Drive one Poisson schedule through `conns` connections sharing an
/// atomic claim index. Lateness is never forgiven: a worker that falls
/// behind sends immediately and the delay lands in the sample.
fn open_loop(
    addr: std::net::SocketAddr,
    engine: Engine,
    queries: &[QueryId],
    arrivals: &[Duration],
    conns: usize,
    window: Duration,
) -> Vec<LoadSample> {
    use dbep_net::{Client, Response};
    use std::sync::atomic::{AtomicUsize, Ordering};
    let next = AtomicUsize::new(0);
    let samples = std::sync::Mutex::new(Vec::with_capacity(arrivals.len()));
    let start = Instant::now();
    std::thread::scope(|s| {
        for _ in 0..conns {
            let (next, samples) = (&next, &samples);
            s.spawn(move || {
                let mut client = Client::connect(addr).ok();
                let mut local = Vec::new();
                loop {
                    // ORDERING: a pure claim ticket — no data is
                    // published through this counter.
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    let Some(&scheduled) = arrivals.get(i) else {
                        break;
                    };
                    if let Some(wait) = scheduled.checked_sub(start.elapsed()) {
                        std::thread::sleep(wait);
                    }
                    // Drain bound: past 2× the window the point is
                    // already decided (nothing completing now lands
                    // inside it) — shed the rest of the schedule as
                    // failures instead of queueing on a saturated
                    // server for minutes. Only spawn mode hits this;
                    // pooled overload answers RETRY immediately.
                    if start.elapsed() > window * 2 {
                        local.push(LoadSample {
                            scheduled,
                            done_at: start.elapsed(),
                            outcome: LoadOutcome::Failed,
                        });
                        continue;
                    }
                    let q = queries[i % queries.len()];
                    if client.is_none() {
                        client = Client::connect(addr).ok();
                    }
                    let mut lost = false;
                    let outcome = match client.as_mut() {
                        None => LoadOutcome::Failed,
                        Some(c) => match c.run_params(q.name(), engine.name(), "") {
                            Ok(Response::Result(_)) => LoadOutcome::Done,
                            Ok(Response::Retry { .. }) => LoadOutcome::Retried,
                            Ok(_) => LoadOutcome::Failed,
                            Err(_) => {
                                lost = true;
                                LoadOutcome::Failed
                            }
                        },
                    };
                    if lost {
                        client = None;
                    }
                    local.push(LoadSample {
                        scheduled,
                        done_at: start.elapsed(),
                        outcome,
                    });
                }
                samples.lock().expect("load samples").extend(local);
            });
        }
    });
    samples.into_inner().expect("load samples")
}

fn load_cmd(a: &Args) -> Report {
    use dbep_bench::load::{find_knee, poisson_arrivals, LoadPoint};
    use dbep_bench::serve_stats::{percentile, throughput};
    use dbep_net::{Client, Server, ServerConfig};
    use std::net::ToSocketAddrs;

    let sf = a.sf.unwrap_or(0.1);
    let threads = a.threads.unwrap_or_else(cores);
    let window = Duration::from_millis(a.duration_ms);
    let queries = a.queries(&QueryId::ALL);
    // `--port` points the sweep at an externally started server (one
    // fixed mode, labeled `remote`); otherwise each (mode, engine)
    // scenario self-hosts a fresh in-process server on loopback.
    let remote: Option<std::net::SocketAddr> = a.port.map(|p| {
        let target = format!("{}:{p}", a.addr.as_deref().unwrap_or("127.0.0.1"));
        target
            .to_socket_addrs()
            .ok()
            .and_then(|mut i| i.next())
            .unwrap_or_else(|| usage_error(&format!("--addr/--port: cannot resolve {target:?}")))
    });
    let (modes, dbs) = match remote {
        Some(_) => (
            vec!["remote"],
            PerBench {
                tpch: None,
                ssb: None,
            },
        ),
        None => (modes(a), databases(sf, &queries, a.encoded).map(Arc::new)),
    };
    let mut curves = Vec::new();
    for mode in modes {
        for engine in a.engines(&Engine::SELECTABLE) {
            let server = remote.is_none().then(|| {
                Server::serve(
                    "127.0.0.1:0",
                    dbs.tpch.clone(),
                    dbs.ssb.clone(),
                    ServerConfig {
                        threads,
                        pool: mode == "pool",
                        ..ServerConfig::default()
                    },
                )
                .expect("bind loopback server")
            });
            let addr = server
                .as_ref()
                .map(|s| s.local_addr())
                .or(remote)
                .expect("a server to drive");
            // Warm-up outside the clock: first-touch effects, plan-cache
            // fills, and (for Adaptive) both exploration runs.
            let warmups = if engine == Engine::Adaptive { 2 } else { 1 };
            let mut warm = Client::connect(addr).expect("warm-up connection");
            for q in &queries {
                for _ in 0..warmups {
                    let _ = warm.run_params(q.name(), engine.name(), "");
                }
            }
            drop(warm);
            let mut curve = Vec::new();
            let mut points = Vec::new();
            for &rate in &a.rate {
                eprintln!(
                    "[load] mode={mode} engine={} rate={rate}/s conns={} window={window:?}",
                    engine.name(),
                    a.conns
                );
                // Deterministic per-point schedule: re-runs sweep the
                // same arrival offsets.
                let seed = dbep_obs::fingerprint64(format!("{mode}/{}/{rate}", engine.name()).as_bytes());
                let arrivals = poisson_arrivals(rate as f64, window, &mut SmallRng::seed_from_u64(seed));
                let samples = open_loop(addr, engine, &queries, &arrivals, a.conns, window);
                let done: Vec<&LoadSample> = samples
                    .iter()
                    .filter(|s| s.outcome == LoadOutcome::Done)
                    .collect();
                let mut lat: Vec<Duration> = done
                    .iter()
                    .map(|s| s.done_at.saturating_sub(s.scheduled))
                    .collect();
                lat.sort_unstable();
                let done_at: Vec<Duration> = done.iter().map(|s| s.done_at).collect();
                let count = |o: LoadOutcome| samples.iter().filter(|s| s.outcome == o).count();
                let goodput = throughput(&done_at, window).qps;
                curve.push(LoadPoint {
                    offered: rate as f64,
                    sent: samples.len() as f64 / window.as_secs_f64(),
                    goodput,
                });
                points.push(
                    Obj::new()
                        .with("offered_per_s", rate)
                        .with("sent", samples.len())
                        .with("done", done.len())
                        .with("retried", count(LoadOutcome::Retried))
                        .with("failed", count(LoadOutcome::Failed))
                        .with("goodput_per_s", goodput)
                        .with("p50_ms", percentile(&lat, 0.50))
                        .with("p95_ms", percentile(&lat, 0.95))
                        .with("p99_ms", percentile(&lat, 0.99)),
                );
            }
            if let Some(server) = server {
                server.shutdown();
                server.join();
            }
            curves.push(
                Obj::new()
                    .with("curve", format!("{mode}/{}", engine.name()))
                    .with("mode", mode)
                    .with("engine", engine.name())
                    .with("knee_per_s", find_knee(&curve, 0.95))
                    .with("points", points),
            );
        }
    }
    Report::new(
        "load",
        format!(
            "load — open-loop offered-rate sweep, SF={sf}, {threads} worker threads, {} connections",
            a.conns
        ),
    )
    .with("sf", sf)
    .with("threads", threads)
    .with("conns", a.conns)
    .with("window_ms", a.duration_ms)
    .with("mix", names(&queries))
    .with(
        "knee_definition",
        "largest swept offered rate whose goodput stays within 95% of offered, \
         with every lower swept rate also keeping up",
    )
    .with("curves", curves)
}

/// How a subcommand produces its output.
enum Output {
    /// Measures into one report, which `main` renders as text or JSON.
    Measure(fn(&Args) -> Report),
    /// Writes its own output: `metrics`' exposition formats and
    /// `serve-net`'s server log.
    Own(fn(&Args)),
}

fn main() {
    use Output::{Measure, Own};
    let args = parse_args();
    let t = Instant::now();
    let all: Vec<(&str, Output)> = vec![
        ("fig3", Measure(fig3)),
        ("table1", Measure(table1)),
        ("fig4", Measure(fig4)),
        ("fig5", Measure(fig5)),
        ("ssb", Measure(ssb)),
        ("table2", Measure(table2)),
        ("fig6", Measure(fig6)),
        ("fig7", Measure(fig7)),
        ("fig8", Measure(fig8)),
        ("fig9", Measure(fig9)),
        ("fig10", Measure(fig10)),
        ("table3", Measure(table3)),
        ("table4", Measure(table4)),
        ("table5", Measure(table5)),
        ("fig11", Measure(fig11)),
        ("oltp", Measure(oltp)),
        ("table6", Measure(table6)),
        ("query", Measure(query)),
        ("serve", Measure(serve)),
        ("metrics", Own(metrics_cmd)),
        ("compression", Measure(compression)),
    ];
    // Standalone network experiments: excluded from `all` (serve-net
    // blocks on the wire until a SHUTDOWN frame, load sweeps minutes).
    let standalone: Vec<(&str, Output)> = vec![("serve-net", Own(serve_net)), ("load", Measure(load_cmd))];
    let emit = |output: &Output| match output {
        Own(f) => f(&args),
        Measure(f) => {
            let report = f(&args);
            if args.json {
                println!("{}", report.to_json());
            } else {
                print!("{}", report.to_text());
            }
        }
    };
    if args.id == "all" {
        for (name, output) in &all {
            if !args.json {
                println!("\n================ {name} ================");
            }
            emit(output);
        }
    } else {
        match all.iter().chain(standalone.iter()).find(|(n, _)| *n == args.id) {
            Some((_, output)) => emit(output),
            None => {
                eprintln!(
                    "unknown experiment '{}'; known: {} all",
                    args.id,
                    all.iter()
                        .chain(standalone.iter())
                        .map(|(n, _)| *n)
                        .collect::<Vec<_>>()
                        .join(" ")
                );
                std::process::exit(2);
            }
        }
    }
    eprintln!("[done] {} in {:.1}s", args.id, t.elapsed().as_secs_f64());
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig4_sweeps_the_paper_scale_factors_up_to_sf() {
        assert_eq!(fig4_scale_factors(0.01), [0.01]);
        assert_eq!(fig4_scale_factors(5.0), [1.0, 3.0, 5.0]);
        assert_eq!(fig4_scale_factors(10.0), [1.0, 3.0, 10.0]);
        assert_eq!(fig4_scale_factors(100.0), [1.0, 3.0, 10.0, 30.0, 100.0]);
    }

    #[test]
    fn table3_thread_points_are_distinct_and_capped() {
        assert_eq!(table3_threads(1), [1]);
        assert_eq!(table3_threads(2), [1, 2]);
        assert_eq!(table3_threads(3), [1, 2, 3]);
        assert_eq!(table3_threads(16), [1, 8, 16]);
    }
}
