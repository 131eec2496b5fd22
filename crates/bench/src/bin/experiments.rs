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
//! `--query`/`--engine` take the canonical names (`q3`, `ssb-q4.1`,
//! `typer`, …) via the registry's `FromStr` impls and narrow `fig3`,
//! `table1` and the `query` subcommand — `query` runs one prepared
//! query through the `Session` API and prints its result table, e.g.
//! `experiments -- query --query q6 --engine tectorwise --sf 0.1`.
//!
//! `fig3` and `table1` run the full TPC-H workload (the paper's five
//! plus Q4/Q12/Q14); the remaining paper-artifact subcommands stick to
//! the §3.3 subset so their rows line up with the paper's figures.
//!
//! `--json` (supported by `fig3`, `table1` and `serve`) switches stdout
//! to one machine-readable JSON document — per-query runtimes (`fig3`,
//! over **every** registered query, TPC-H and SSB, on all three
//! engines), per-query CPU counters (`table1`), or serving throughput
//! (`serve`) — so perf trajectories can be recorded as `BENCH_*.json`
//! files across PRs.
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
//! grouped hardware counters around every pipeline stage and prints
//! Table-1-style per-stage rows with a whole-run cross-check;
//! `serve --obs` runs every scenario with the span sink and metrics
//! bundle attached (the tracing-overhead benchmark) and embeds each
//! scenario's metric snapshot in the JSON document.
//!
//! `--encoded` (supported by `fig3`, `query` and `serve`) builds the
//! compressed companion columns after generation, so bandwidth-bound
//! plans run their fused decompress-and-select scans. `compression`
//! compares flat versus encoded directly: runtime and bytes-scanned for
//! Q1/Q6/Q14/SSB Q1.1 on both block-at-a-time engines (`--throttle`
//! adds the same cells read through the emulated 1.4 GB/s SSD of
//! `table5`), recorded as `BENCH_compression.json` with `--json` —
//! host fingerprint, median and min/max per cell.

use dbep_bench::{counters_note, fmt_ms, measure_counters, per_tuple_header, per_tuple_row, time_median};
use dbep_core::Session;
use dbep_queries::{run, Engine, ExecCfg, QueryId};
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

    /// `Engine::ALL` filtered by `--engine`.
    fn engines(&self) -> Vec<Engine> {
        match self.engine {
            Some(e) => vec![e],
            None => Engine::ALL.to_vec(),
        }
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
                args.sf = Some(parse_value(&v, "--sf", "<scale-factor>, e.g. --sf 0.1"));
            }
            "--threads" => {
                let v = flag_value(&mut it, "--threads", "<count>");
                args.threads = Some(parse_value(&v, "--threads", "<count>, e.g. --threads 4"));
            }
            "--reps" => {
                let v = flag_value(&mut it, "--reps", "<count>");
                args.reps = parse_value(&v, "--reps", "<count>, e.g. --reps 3");
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

/// `db`, encoded when `--encoded` was passed.
fn maybe_encode(db: Database, a: &Args) -> Database {
    if a.encoded {
        encode(db)
    } else {
        db
    }
}

// ---------------------------------------------------------------------
// Fig. 3: single-threaded runtimes, Typer vs Tectorwise, TPC-H SF=1.
// With --json: machine-readable runtimes over *every* registered query
// (TPC-H and SSB) on all three engines.
// ---------------------------------------------------------------------
fn fig3(a: &Args) {
    if a.json {
        return fig3_json(a);
    }
    let db = maybe_encode(gen_tpch(a.sf.unwrap_or(1.0)), a);
    let cfg = ExecCfg::default();
    println!(
        "# Fig. 3 — TPC-H SF={}, 1 thread{}, runtime [ms]",
        a.sf.unwrap_or(1.0),
        if a.encoded { ", encoded storage" } else { "" }
    );
    println!("{:<6} {:>10} {:>10} {:>9}", "query", "Typer", "TW", "TW/Typer");
    for q in a.queries(&QueryId::TPCH) {
        let t = time_median(a.reps, || std::mem::drop(run(Engine::Typer, q, &db, &cfg)));
        let w = time_median(a.reps, || std::mem::drop(run(Engine::Tectorwise, q, &db, &cfg)));
        println!(
            "{:<6} {:>10} {:>10} {:>9.2}",
            q.name(),
            fmt_ms(t),
            fmt_ms(w),
            w.as_secs_f64() / t.as_secs_f64()
        );
    }
}

fn fig3_json(a: &Args) {
    use dbep_bench::json;
    let sf = a.sf.unwrap_or(1.0);
    let tpch = maybe_encode(gen_tpch(sf), a);
    let ssb_db = maybe_encode(gen_ssb(sf), a);
    let cfg = ExecCfg::default();
    let queries = a.queries(&QueryId::ALL).into_iter().map(|q| {
        let db = if QueryId::SSB.contains(&q) { &ssb_db } else { &tpch };
        let ms = |engine| {
            let t = time_median(a.reps, || std::mem::drop(run(engine, q, db, &cfg)));
            json::number(t.as_secs_f64() * 1e3)
        };
        json::Object::new()
            .field("query", json::string(q.name()))
            .field(
                "benchmark",
                json::string(if QueryId::SSB.contains(&q) { "ssb" } else { "tpch" }),
            )
            .field("tuples_scanned", format!("{}", q.tuples_scanned(db)))
            .field("typer_ms", ms(Engine::Typer))
            .field("tectorwise_ms", ms(Engine::Tectorwise))
            .field("volcano_ms", ms(Engine::Volcano))
            .build()
    });
    let doc = json::Object::new()
        .field("experiment", json::string("fig3"))
        .field("sf", json::number(sf))
        .field("reps", format!("{}", a.reps))
        .field("threads", "1".to_string())
        .field("encoded", format!("{}", a.encoded))
        .field("queries", json::array(queries))
        .build();
    println!("{doc}");
}

// ---------------------------------------------------------------------
// Table 1: CPU counters per tuple, TPC-H SF=1, 1 thread.
// With --json: machine-readable per-query counters.
// ---------------------------------------------------------------------
fn table1(a: &Args) {
    if a.per_stage {
        return table1_per_stage(a);
    }
    if a.json {
        return table1_json(a);
    }
    let db = gen_tpch(a.sf.unwrap_or(1.0));
    let cfg = ExecCfg::default();
    println!(
        "# Table 1 — TPC-H SF={}, 1 thread, counters normalized per tuple scanned",
        a.sf.unwrap_or(1.0)
    );
    println!("# ({})", counters_note());
    println!("{}", per_tuple_header());
    for q in a.queries(&QueryId::TPCH) {
        let tuples = q.tuples_scanned(&db);
        let v = measure_counters(|| std::mem::drop(run(Engine::Typer, q, &db, &cfg)));
        println!("{}", per_tuple_row(&format!("{} Typer", q.name()), &v, tuples));
        let v = measure_counters(|| std::mem::drop(run(Engine::Tectorwise, q, &db, &cfg)));
        println!("{}", per_tuple_row(&format!("{} TW", q.name()), &v, tuples));
    }
    // §4.1 hash-function ablation on the join-heaviest query.
    println!("\n## hash-function ablation (cycles/tuple, Q9)");
    for (label, hash) in [
        ("default", None),
        ("murmur2", Some(HashFn::Murmur2)),
        ("crc", Some(HashFn::Crc)),
    ] {
        let cfg = ExecCfg {
            hash,
            ..Default::default()
        };
        let tuples = QueryId::Q9.tuples_scanned(&db) as f64;
        let t = measure_counters(|| std::mem::drop(run(Engine::Typer, QueryId::Q9, &db, &cfg)));
        let w = measure_counters(|| std::mem::drop(run(Engine::Tectorwise, QueryId::Q9, &db, &cfg)));
        println!(
            "{label:<8} Typer {:>7.1} c/t   TW {:>7.1} c/t",
            t.cycles_estimate() as f64 / tuples,
            w.cycles_estimate() as f64 / tuples
        );
    }
}

fn table1_json(a: &Args) {
    use dbep_bench::json;
    let sf = a.sf.unwrap_or(1.0);
    let db = gen_tpch(sf);
    let cfg = ExecCfg::default();
    let mut rows = Vec::new();
    for q in QueryId::TPCH {
        let tuples = q.tuples_scanned(&db);
        for (engine, name) in [(Engine::Typer, "typer"), (Engine::Tectorwise, "tectorwise")] {
            let v = measure_counters(|| std::mem::drop(run(engine, q, &db, &cfg)));
            rows.push(
                json::Object::new()
                    .field("query", json::string(q.name()))
                    .field("engine", json::string(name))
                    .field("tuples_scanned", format!("{tuples}"))
                    .field("cycles", format!("{}", v.cycles_estimate()))
                    .field("instructions", json::opt_u64(v.instructions))
                    .field("l1d_miss", json::opt_u64(v.l1d_miss))
                    .field("llc_miss", json::opt_u64(v.llc_miss))
                    .field("branch_miss", json::opt_u64(v.branch_miss))
                    .field("stalled_backend", json::opt_u64(v.stalled_backend))
                    .build(),
            );
        }
    }
    let doc = json::Object::new()
        .field("experiment", json::string("table1"))
        .field("sf", json::number(sf))
        .field(
            "hardware_counters",
            if dbep_runtime::CounterSet::available() {
                "true"
            } else {
                "false"
            }
            .to_string(),
        )
        .field("rows", json::array(rows))
        .build();
    println!("{doc}");
}

/// `table1 --per-stage`: grouped hardware counters (cycles,
/// instructions, LLC misses, branch misses) read around every pipeline
/// stage of every registered query — Table-1 attribution sliced by
/// stage instead of whole query. Single-threaded runs so the whole-run
/// group delta on the calling thread is an independent cross-check of
/// the per-stage sum (the gap is glue outside stage brackets). Falls
/// back to wall-time-only rows when perf is unavailable.
fn table1_per_stage(a: &Args) {
    use dbep_bench::json;
    use dbep_core::scheduler::StageTrace;
    use dbep_runtime::counters::{with_thread_group, GroupReading, StageCounters};
    let sf = a.sf.unwrap_or(1.0);
    let queries = a.queries(&QueryId::ALL);
    let engines = match a.engine {
        Some(e) => vec![e],
        None => vec![Engine::Typer, Engine::Tectorwise],
    };
    let tpch = queries
        .iter()
        .any(|q| !QueryId::SSB.contains(q))
        .then(|| gen_tpch(sf));
    let ssb_db = queries
        .iter()
        .any(|q| QueryId::SSB.contains(q))
        .then(|| gen_ssb(sf));
    let hw = with_thread_group(|g| g.len()).is_some();
    struct StageRow {
        name: &'static str,
        kind: &'static str,
        wall_ns: u64,
        counters: dbep_runtime::counters::StageCounterValues,
    }
    struct QueryRows {
        query: QueryId,
        engine: Engine,
        wall_ns: u64,
        whole: Option<GroupReading>,
        stages: Vec<StageRow>,
    }
    let mut reports = Vec::new();
    for &q in &queries {
        let db = if QueryId::SSB.contains(&q) {
            ssb_db.as_ref().expect("SSB database")
        } else {
            tpch.as_ref().expect("TPC-H database")
        };
        let stages = dbep_queries::plan(q).stages();
        for &engine in &engines {
            let counters = StageCounters::new(stages.len());
            let trace = StageTrace::new(stages.len());
            let cfg = ExecCfg {
                stage_trace: Some(&trace),
                stage_counters: Some(&counters),
                ..ExecCfg::default()
            };
            // Warm once (first-touch effects), then measure one run
            // bracketed by whole-group reads on this thread.
            std::mem::drop(run(engine, q, db, &cfg));
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
            let wall = trace.snapshot();
            let per = counters.snapshot();
            reports.push(QueryRows {
                query: q,
                engine,
                wall_ns,
                whole,
                stages: stages
                    .iter()
                    .zip(wall)
                    .zip(per)
                    .map(|((desc, wall_ns), counters)| StageRow {
                        name: desc.name,
                        kind: desc.kind.name(),
                        wall_ns,
                        counters,
                    })
                    .collect(),
            });
        }
    }
    if a.json {
        let rendered = reports.iter().map(|r| {
            let sum = r
                .stages
                .iter()
                .fold(GroupReading::default(), |acc, s| GroupReading {
                    cycles: acc.cycles + s.counters.cycles,
                    instructions: acc.instructions + s.counters.instructions,
                    llc_miss: acc.llc_miss + s.counters.llc_miss,
                    branch_miss: acc.branch_miss + s.counters.branch_miss,
                });
            let group = |g: &GroupReading| {
                json::Object::new()
                    .field("cycles", format!("{}", g.cycles))
                    .field("instructions", format!("{}", g.instructions))
                    .field("llc_miss", format!("{}", g.llc_miss))
                    .field("branch_miss", format!("{}", g.branch_miss))
                    .build()
            };
            let stages = r.stages.iter().map(|s| {
                json::Object::new()
                    .field("stage", json::string(s.name))
                    .field("kind", json::string(s.kind))
                    .field("wall_ns", format!("{}", s.wall_ns))
                    .field("cycles", format!("{}", s.counters.cycles))
                    .field("instructions", format!("{}", s.counters.instructions))
                    .field("llc_miss", format!("{}", s.counters.llc_miss))
                    .field("branch_miss", format!("{}", s.counters.branch_miss))
                    .field("ipc", s.counters.ipc().map_or("null".to_string(), json::number))
                    .field("samples", format!("{}", s.counters.samples))
                    .build()
            });
            json::Object::new()
                .field("query", json::string(r.query.name()))
                .field("engine", json::string(r.engine.name()))
                .field("wall_ms", json::number(r.wall_ns as f64 / 1e6))
                .field("stage_sum", group(&sum))
                .field("whole_run", r.whole.as_ref().map_or("null".to_string(), group))
                .field(
                    "stage_coverage",
                    r.whole.filter(|w| w.cycles > 0).map_or("null".to_string(), |w| {
                        json::number(sum.cycles as f64 / w.cycles as f64)
                    }),
                )
                .field("stages", json::array(stages))
                .build()
        });
        let doc = json::Object::new()
            .field("experiment", json::string("table1-per-stage"))
            .field("sf", json::number(sf))
            .field("hardware_counters", format!("{hw}"))
            .field("queries", json::array(rendered))
            .build();
        println!("{doc}");
        return;
    }
    println!("# Table 1 (per stage) — SF={sf}, 1 thread, grouped counters per pipeline stage");
    if !hw {
        println!("# hardware counters unavailable (perf_event_open failed); wall time only");
    }
    for r in &reports {
        println!(
            "\n## {} {} — {}",
            r.query.name(),
            r.engine.name(),
            fmt_ms(Duration::from_nanos(r.wall_ns))
        );
        println!(
            "{:<22} {:<11} {:>9} {:>10} {:>10} {:>6} {:>9} {:>9}",
            "stage", "kind", "wall", "Mcycles", "Minstr", "IPC", "LLC-miss", "br-miss"
        );
        let fmt_m = |v: u64| {
            if v == 0 {
                "-".to_string()
            } else {
                format!("{:.1}", v as f64 / 1e6)
            }
        };
        let fmt_c = |v: u64| if v == 0 { "-".to_string() } else { format!("{v}") };
        for s in &r.stages {
            println!(
                "{:<22} {:<11} {:>9} {:>10} {:>10} {:>6} {:>9} {:>9}",
                s.name,
                s.kind,
                fmt_ms(Duration::from_nanos(s.wall_ns)),
                fmt_m(s.counters.cycles),
                fmt_m(s.counters.instructions),
                s.counters.ipc().map_or("-".to_string(), |i| format!("{i:.2}")),
                fmt_c(s.counters.llc_miss),
                fmt_c(s.counters.branch_miss),
            );
        }
        // Cross-check: stage sums against the whole-run group delta
        // (hardware) or end-to-end wall time (fallback).
        let sum_wall: u64 = r.stages.iter().map(|s| s.wall_ns).sum();
        match &r.whole {
            Some(w) if w.cycles > 0 => {
                let sum_cycles: u64 = r.stages.iter().map(|s| s.counters.cycles).sum();
                println!(
                    "{:<22} {:<11} {:>9} {:>10}   ({:.1}% of whole-run cycles in stages)",
                    "= stages / whole-run",
                    "",
                    fmt_ms(Duration::from_nanos(sum_wall)),
                    fmt_m(w.cycles),
                    100.0 * sum_cycles as f64 / w.cycles as f64,
                );
            }
            _ => println!(
                "{:<22} {:<11} {:>9}   ({:.1}% of wall time in stages)",
                "= stages / whole-run",
                "",
                fmt_ms(Duration::from_nanos(sum_wall)),
                100.0 * sum_wall as f64 / r.wall_ns.max(1) as f64,
            ),
        }
    }
}

// ---------------------------------------------------------------------
// Fig. 4: memory-stall vs other cycles across data sizes.
// ---------------------------------------------------------------------
fn fig4(a: &Args) {
    let max_sf = a.sf.unwrap_or(10.0);
    let sfs: Vec<f64> = [1.0, 3.0, 10.0, 30.0, 100.0]
        .into_iter()
        .filter(|&s| s <= max_sf)
        .collect();
    println!("# Fig. 4 — cycles/tuple vs scale factor (paper sweeps 1..100), 1 thread");
    println!("# ({})", counters_note());
    println!(
        "{:<6} {:>5} {:>12} {:>12} {:>12} {:>12}",
        "query", "SF", "Typer c/t", "TW c/t", "Typer stall", "TW stall"
    );
    for &sf in &sfs {
        let db = gen_tpch(sf);
        let cfg = ExecCfg::default();
        for q in QueryId::TPCH_PAPER {
            let tuples = q.tuples_scanned(&db) as f64;
            let t = measure_counters(|| std::mem::drop(run(Engine::Typer, q, &db, &cfg)));
            let w = measure_counters(|| std::mem::drop(run(Engine::Tectorwise, q, &db, &cfg)));
            let stall = |v: &dbep_runtime::CounterValues| match v.stalled_backend {
                Some(s) => format!("{:.1}", s as f64 / tuples),
                None => "-".to_string(),
            };
            println!(
                "{:<6} {:>5} {:>12.1} {:>12.1} {:>12} {:>12}",
                q.name(),
                sf,
                t.cycles_estimate() as f64 / tuples,
                w.cycles_estimate() as f64 / tuples,
                stall(&t),
                stall(&w)
            );
        }
    }
}

// ---------------------------------------------------------------------
// Fig. 5: Tectorwise vector-size sweep, normalized to 1K.
// ---------------------------------------------------------------------
fn fig5(a: &Args) {
    let db = gen_tpch(a.sf.unwrap_or(1.0));
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
    println!("# Fig. 5 — TW vector-size sweep, time relative to 1K vectors");
    print!("{:<6}", "query");
    for (_, label) in sizes {
        print!(" {label:>7}");
    }
    println!();
    for q in QueryId::TPCH_PAPER {
        let base_cfg = ExecCfg {
            vector_size: 1024,
            ..Default::default()
        };
        let base = time_median(a.reps, || {
            std::mem::drop(run(Engine::Tectorwise, q, &db, &base_cfg))
        });
        print!("{:<6}", q.name());
        for (vs, _) in sizes {
            let cfg = ExecCfg {
                vector_size: vs,
                ..Default::default()
            };
            let t = time_median(a.reps.min(2), || {
                std::mem::drop(run(Engine::Tectorwise, q, &db, &cfg))
            });
            print!(" {:>7.2}", t.as_secs_f64() / base.as_secs_f64());
        }
        println!();
    }
}

// ---------------------------------------------------------------------
// §4.4: SSB counter table (paper: SF=30; default here SF=5).
// ---------------------------------------------------------------------
fn ssb(a: &Args) {
    let sf = a.sf.unwrap_or(5.0);
    let db = gen_ssb(sf);
    let cfg = ExecCfg::default();
    println!("# §4.4 — SSB SF={sf} (paper: 30), 1 thread, counters per tuple scanned");
    println!("# ({})", counters_note());
    println!("{}", per_tuple_header());
    for q in QueryId::SSB {
        let tuples = q.tuples_scanned(&db);
        let v = measure_counters(|| std::mem::drop(run(Engine::Typer, q, &db, &cfg)));
        println!("{}", per_tuple_row(&format!("{} Typer", q.name()), &v, tuples));
        let v = measure_counters(|| std::mem::drop(run(Engine::Tectorwise, q, &db, &cfg)));
        println!("{}", per_tuple_row(&format!("{} TW", q.name()), &v, tuples));
    }
}

// ---------------------------------------------------------------------
// Table 2: prototypes vs the interpretation baseline (substitution 5).
// ---------------------------------------------------------------------
fn table2(a: &Args) {
    let db = gen_tpch(a.sf.unwrap_or(1.0));
    let cfg = ExecCfg::default();
    println!(
        "# Table 2 — TPC-H SF={}, 1 thread, runtime [ms]",
        a.sf.unwrap_or(1.0)
    );
    println!("# (production systems HyPer/VectorWise are quoted in EXPERIMENTS.md; the");
    println!("#  Volcano interpreter stands in for the traditional-engine gap)");
    println!("{:<6} {:>10} {:>10} {:>10}", "query", "Volcano", "Typer", "TW");
    for q in QueryId::TPCH_PAPER {
        let v = time_median(1, || std::mem::drop(run(Engine::Volcano, q, &db, &cfg)));
        let t = time_median(a.reps, || std::mem::drop(run(Engine::Typer, q, &db, &cfg)));
        let w = time_median(a.reps, || std::mem::drop(run(Engine::Tectorwise, q, &db, &cfg)));
        println!(
            "{:<6} {:>10} {:>10} {:>10}",
            q.name(),
            fmt_ms(v),
            fmt_ms(t),
            fmt_ms(w)
        );
    }
}

// ---------------------------------------------------------------------
// Fig. 6: scalar vs SIMD selection (dense, sparse, Q6).
// ---------------------------------------------------------------------
fn fig6(a: &Args) {
    use dbep_vectorized::sel;
    let n = 8192usize;
    let mut rng = SmallRng::seed_from_u64(7);
    let col: Vec<i32> = (0..n).map(|_| rng.gen_range(0..100)).collect();
    let cutoff = 40; // 40% selectivity
    let reps = 20_000;
    let cycles_per_elem = |policy: SimdPolicy| {
        let mut out = Vec::new();
        let v = measure_counters(|| {
            for _ in 0..reps {
                sel::sel_lt_i32_dense(&col, cutoff, 0, &mut out, policy);
                std::hint::black_box(&out);
            }
        });
        v.cycles_estimate() as f64 / (n * reps) as f64
    };
    println!("# Fig. 6a — dense selection, 8192 ints in L1, 40% selectivity [cycles/elem]");
    let s = cycles_per_elem(SimdPolicy::Scalar);
    let v = cycles_per_elem(SimdPolicy::Simd);
    println!("scalar {s:.3}   simd {v:.3}   speedup {:.1}x", s / v);

    // 6b: sparse input (selection vector selects 40%), selection selects 40%.
    let mut in_sel = Vec::new();
    sel::sel_lt_i32_dense(&col, cutoff, 0, &mut in_sel, SimdPolicy::Scalar);
    let col2: Vec<i32> = (0..n).map(|_| rng.gen_range(0..100)).collect();
    let sparse_cycles = |policy: SimdPolicy| {
        let mut out = Vec::new();
        let v = measure_counters(|| {
            for _ in 0..reps {
                sel::sel_lt_i32_sparse(&col2, cutoff, &in_sel, &mut out, policy);
                std::hint::black_box(&out);
            }
        });
        v.cycles_estimate() as f64 / (in_sel.len() * reps) as f64
    };
    println!("# Fig. 6b — sparse selection (40% input sel., 40% output) [cycles/elem]");
    let s = sparse_cycles(SimdPolicy::Scalar);
    let v = sparse_cycles(SimdPolicy::Simd);
    println!("scalar {s:.3}   simd {v:.3}   speedup {:.1}x", s / v);

    println!("# Fig. 6c — TPC-H Q6 (TW), SF={} [ms]", a.sf.unwrap_or(1.0));
    let db = gen_tpch(a.sf.unwrap_or(1.0));
    let sc = time_median(a.reps, || {
        std::mem::drop(run(Engine::Tectorwise, QueryId::Q6, &db, &ExecCfg::default()))
    });
    let si = time_median(a.reps, || {
        let cfg = ExecCfg {
            policy: SimdPolicy::Simd,
            ..Default::default()
        };
        std::mem::drop(run(Engine::Tectorwise, QueryId::Q6, &db, &cfg))
    });
    println!(
        "scalar {}   simd {}   speedup {:.1}x",
        fmt_ms(sc),
        fmt_ms(si),
        sc.as_secs_f64() / si.as_secs_f64()
    );
}

// ---------------------------------------------------------------------
// Fig. 7: sparse selection vs input selectivity on out-of-cache data.
// ---------------------------------------------------------------------
fn fig7(a: &Args) {
    use dbep_vectorized::sel;
    // Paper: 4 GB. Default 1 GiB so modest hosts can run it; --sf = GiB.
    let gib = a.sf.unwrap_or(1.0);
    let n = (gib * 1024.0 * 1024.0 * 1024.0 / 4.0) as usize;
    let mut rng = SmallRng::seed_from_u64(9);
    eprintln!("[gen] {n} i32s ({gib} GiB)");
    let col: Vec<i32> = (0..n).map(|_| rng.gen_range(0..1000)).collect();
    println!("# Fig. 7 — sparse selection on {gib} GiB of i32, output selectivity 40%");
    println!("# cycles per input-selected element; ({})", counters_note());
    println!("{:<10} {:>10} {:>10}", "input sel", "scalar", "simd");
    for pct in [10usize, 20, 40, 60, 80, 100] {
        let in_sel: Vec<u32> = (0..n).filter(|i| i % 100 < pct).map(|i| i as u32).collect();
        let cutoff = 400; // 40% of values < 400
        let mut out = Vec::new();
        let cycles = |policy: SimdPolicy, out: &mut Vec<u32>| {
            let v = measure_counters(|| {
                sel::sel_lt_i32_sparse(&col, cutoff, &in_sel, out, policy);
                std::hint::black_box(&out);
            });
            v.cycles_estimate() as f64 / in_sel.len().max(1) as f64
        };
        println!(
            "{:<10} {:>10.2} {:>10.2}",
            format!("{pct}%"),
            cycles(SimdPolicy::Scalar, &mut out),
            cycles(SimdPolicy::Simd, &mut out)
        );
    }
}

// ---------------------------------------------------------------------
// Fig. 8: scalar vs SIMD join probing components + full queries.
// ---------------------------------------------------------------------
fn fig8(a: &Args) {
    use dbep_runtime::JoinHt;
    use dbep_vectorized::{gather, hashp, probe};
    let mut rng = SmallRng::seed_from_u64(11);
    let reps = 20_000;
    // (a) hashing.
    let keys: Vec<u64> = (0..8192u64).map(|_| rng.next_u64()).collect();
    let mut out = Vec::new();
    let hash_cycles = |policy: SimdPolicy, out: &mut Vec<u64>| {
        let v = measure_counters(|| {
            for _ in 0..reps {
                hashp::murmur2_u64_vec(&keys, policy, out);
                std::hint::black_box(&out);
            }
        });
        v.cycles_estimate() as f64 / (keys.len() * reps) as f64
    };
    let s = hash_cycles(SimdPolicy::Scalar, &mut out);
    let v = hash_cycles(SimdPolicy::Simd, &mut out);
    println!("# Fig. 8a — Murmur2 hashing, dense, L1-resident [cycles/elem]");
    println!("scalar {s:.3}   simd {v:.3}   speedup {:.1}x", s / v);

    // (b) gather from an L1-resident array.
    let table: Vec<i64> = (0..4096).map(|i| i as i64).collect();
    let sel: Vec<u32> = (0..8192).map(|_| rng.gen_range(0..4096u32)).collect();
    let mut outs = Vec::new();
    let gather_cycles = |policy: SimdPolicy, outs: &mut Vec<i64>| {
        let v = measure_counters(|| {
            for _ in 0..reps {
                gather::gather_i64(&table, &sel, policy, outs);
                std::hint::black_box(&outs);
            }
        });
        v.cycles_estimate() as f64 / (sel.len() * reps) as f64
    };
    let s = gather_cycles(SimdPolicy::Scalar, &mut outs);
    let v = gather_cycles(SimdPolicy::Simd, &mut outs);
    println!("# Fig. 8b — gather, L1-resident [cycles/elem]");
    println!("scalar {s:.3}   simd {v:.3}   speedup {:.1}x", s / v);

    // (c) TW probe primitive on a cache-resident hash table.
    let build_n = 2048usize;
    let ht = JoinHt::build((0..build_n as u64).map(|k| (dbep_runtime::murmur2(k), (k as i32, k as i64))));
    let probe_keys: Vec<i32> = (0..8192).map(|_| rng.gen_range(0..build_n as i32 * 2)).collect();
    let tuples: Vec<u32> = (0..probe_keys.len() as u32).collect();
    let mut hashes = Vec::new();
    hashp::hash_i32(&probe_keys, &tuples, HashFn::Murmur2, &mut hashes);
    let mut bufs = probe::ProbeBuffers::new();
    let probe_reps = reps / 4;
    let mut probe_cycles = |policy: SimdPolicy| {
        let v = measure_counters(|| {
            for _ in 0..probe_reps {
                probe::probe_join(
                    &ht,
                    &hashes,
                    &tuples,
                    |r, t| r.0 == probe_keys[t as usize],
                    policy,
                    &mut bufs,
                );
                std::hint::black_box(&bufs.match_tuple);
            }
        });
        v.cycles_estimate() as f64 / (probe_keys.len() * probe_reps) as f64
    };
    let s = probe_cycles(SimdPolicy::Scalar);
    let v = probe_cycles(SimdPolicy::Simd);
    println!("# Fig. 8c — TW join-probe primitive, cache-resident HT [cycles/lookup]");
    println!("scalar {s:.3}   simd {v:.3}   speedup {:.1}x", s / v);

    // (d) full TPC-H join queries.
    println!("# Fig. 8d — TPC-H Q3/Q9 (TW), SF={} [ms]", a.sf.unwrap_or(1.0));
    let db = gen_tpch(a.sf.unwrap_or(1.0));
    for q in [QueryId::Q3, QueryId::Q9] {
        let sc = time_median(a.reps, || {
            std::mem::drop(run(Engine::Tectorwise, q, &db, &ExecCfg::default()))
        });
        let si = time_median(a.reps, || {
            let cfg = ExecCfg {
                policy: SimdPolicy::Simd,
                ..Default::default()
            };
            std::mem::drop(run(Engine::Tectorwise, q, &db, &cfg))
        });
        println!(
            "{:<4} scalar {}   simd {}   speedup {:.2}x",
            q.name(),
            fmt_ms(sc),
            fmt_ms(si),
            sc.as_secs_f64() / si.as_secs_f64()
        );
    }
}

// ---------------------------------------------------------------------
// Fig. 9: probe cost vs working-set size (+ Bloom-tag ablation).
// ---------------------------------------------------------------------
fn fig9(a: &Args) {
    use dbep_runtime::join_ht::{JoinHt, JoinHtShard};
    use dbep_vectorized::{hashp, probe};
    println!("# Fig. 9 — TW hash-table lookup: cycles/lookup vs working-set size");
    println!(
        "# tag filter {}; 50% probe-miss rate",
        if a.no_tag { "OFF (ablation)" } else { "ON" }
    );
    println!("{:<12} {:>10} {:>10}", "working set", "scalar", "simd");
    let mut rng = SmallRng::seed_from_u64(13);
    let probes = 4_000_000usize;
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
        let mut cyc = [0f64; 2];
        for (slot, policy) in [(0usize, SimdPolicy::Scalar), (1, SimdPolicy::Simd)] {
            // Probe in vector-sized batches like the engine does.
            let v = measure_counters(|| {
                for c in hashes.chunks(1024).zip(tuples.chunks(1024)) {
                    probe::probe_join(&ht, c.0, c.1, |r, t| r.0 == keys[t as usize], policy, &mut bufs);
                    std::hint::black_box(&bufs.match_tuple);
                }
            });
            cyc[slot] = v.cycles_estimate() as f64 / probes as f64;
        }
        let label = if ws >= 1 << 20 {
            format!("{:.0} MiB", ws as f64 / (1 << 20) as f64)
        } else {
            format!("{:.0} KiB", ws as f64 / 1024.0)
        };
        println!("{label:<12} {:>10.2} {:>10.2}", cyc[0], cyc[1]);
    }
}

// ---------------------------------------------------------------------
// Fig. 10: auto-vectorization vs scalar vs manual SIMD (substitution 2).
// ---------------------------------------------------------------------
fn fig10(a: &Args) {
    let db = gen_tpch(a.sf.unwrap_or(1.0));
    println!("# Fig. 10 — rustc/LLVM auto-vectorization (paper: ICC 18)");
    println!("# time reduction vs scalar TW, per query [%] (positive = faster)");
    println!("{:<6} {:>8} {:>8}", "query", "auto", "manual");
    for q in QueryId::TPCH_PAPER {
        let base = time_median(a.reps, || {
            std::mem::drop(run(Engine::Tectorwise, q, &db, &ExecCfg::default()))
        });
        let reduction = |policy: SimdPolicy| {
            let cfg = ExecCfg {
                policy,
                ..Default::default()
            };
            let t = time_median(a.reps, || std::mem::drop(run(Engine::Tectorwise, q, &db, &cfg)));
            (1.0 - t.as_secs_f64() / base.as_secs_f64()) * 100.0
        };
        println!(
            "{:<6} {:>8.1} {:>8.1}",
            q.name(),
            reduction(SimdPolicy::Auto),
            reduction(SimdPolicy::Simd)
        );
    }
    if dbep_runtime::CounterSet::available() {
        println!("\n## instruction reduction vs scalar [%] (per tuple)");
        println!("{:<6} {:>8} {:>8}", "query", "auto", "manual");
        for q in QueryId::TPCH_PAPER {
            let instr = |policy: SimdPolicy| {
                let cfg = ExecCfg {
                    policy,
                    ..Default::default()
                };
                let v = measure_counters(|| std::mem::drop(run(Engine::Tectorwise, q, &db, &cfg)));
                v.instructions.unwrap_or(0) as f64
            };
            let base = instr(SimdPolicy::Scalar);
            println!(
                "{:<6} {:>8.1} {:>8.1}",
                q.name(),
                (1.0 - instr(SimdPolicy::Auto) / base) * 100.0,
                (1.0 - instr(SimdPolicy::Simd) / base) * 100.0
            );
        }
    } else {
        println!("# (instruction-count panel skipped: {})", counters_note());
    }
}

// ---------------------------------------------------------------------
// Table 3: multi-threaded execution (paper: SF=100; default SF=10).
// ---------------------------------------------------------------------
fn table3(a: &Args) {
    let sf = a.sf.unwrap_or(10.0);
    let db = gen_tpch(sf);
    let max_t = a.threads.unwrap_or_else(cores);
    let thread_points = [1, (max_t / 2).max(2), max_t];
    println!("# Table 3 — TPC-H SF={sf} (paper: 100), {max_t}-core host, runtime [ms]");
    println!(
        "{:<6} {:>4} {:>10} {:>8} {:>10} {:>8} {:>7}",
        "query", "thr", "Typer", "spdup", "TW", "spdup", "ratio"
    );
    for q in QueryId::TPCH_PAPER {
        let mut base = (0f64, 0f64);
        for &t in &thread_points {
            let cfg = ExecCfg::with_threads(t);
            let ty = time_median(a.reps.min(2), || std::mem::drop(run(Engine::Typer, q, &db, &cfg)));
            let tw = time_median(a.reps.min(2), || {
                std::mem::drop(run(Engine::Tectorwise, q, &db, &cfg))
            });
            if t == 1 {
                base = (ty.as_secs_f64(), tw.as_secs_f64());
            }
            println!(
                "{:<6} {:>4} {:>10} {:>8.1} {:>10} {:>8.1} {:>7.2}",
                q.name(),
                t,
                fmt_ms(ty),
                base.0 / ty.as_secs_f64(),
                fmt_ms(tw),
                base.1 / tw.as_secs_f64(),
                ty.as_secs_f64() / tw.as_secs_f64()
            );
        }
    }
}

// ---------------------------------------------------------------------
// Table 4: hardware inventory.
// ---------------------------------------------------------------------
fn table4(_a: &Args) {
    println!("# Table 4 — host hardware (paper compares Skylake-X / Threadripper / KNL)");
    println!("{}", dbep_bench::hwinfo::report());
}

// ---------------------------------------------------------------------
// Table 5: out-of-memory via bandwidth throttle (substitution 4).
// ---------------------------------------------------------------------
fn table5(a: &Args) {
    let sf = a.sf.unwrap_or(10.0);
    let db = gen_tpch(sf);
    let threads = a.threads.unwrap_or_else(cores);
    println!("# Table 5 — TPC-H SF={sf}, {threads} threads: memory vs emulated 1.4 GB/s SSD [ms]");
    println!(
        "{:<6} {:>10} {:>10} {:>7} {:>12} {:>12} {:>7}",
        "query", "Typer", "TW", "ratio", "Typer(ssd)", "TW(ssd)", "ratio"
    );
    for q in QueryId::TPCH_PAPER {
        let cfg = ExecCfg::with_threads(threads);
        let tm = time_median(a.reps.min(2), || std::mem::drop(run(Engine::Typer, q, &db, &cfg)));
        let wm = time_median(a.reps.min(2), || {
            std::mem::drop(run(Engine::Tectorwise, q, &db, &cfg))
        });
        let ssd_run = |engine| {
            let throttle = dbep_storage::throttle::Throttle::paper_ssd();
            let cfg = ExecCfg {
                threads,
                throttle: Some(&throttle),
                ..Default::default()
            };
            let t = Instant::now();
            std::mem::drop(run(engine, q, &db, &cfg));
            t.elapsed()
        };
        let ts = ssd_run(Engine::Typer);
        let ws = ssd_run(Engine::Tectorwise);
        println!(
            "{:<6} {:>10} {:>10} {:>7.2} {:>12} {:>12} {:>7.2}",
            q.name(),
            fmt_ms(tm),
            fmt_ms(wm),
            tm.as_secs_f64() / wm.as_secs_f64(),
            fmt_ms(ts),
            fmt_ms(ws),
            ts.as_secs_f64() / ws.as_secs_f64()
        );
    }
}

// ---------------------------------------------------------------------
// Figs. 11/12: queries/second vs % cores used.
// ---------------------------------------------------------------------
fn fig11(a: &Args) {
    let sf = a.sf.unwrap_or(10.0);
    let db = gen_tpch(sf);
    let max_t = a.threads.unwrap_or_else(cores);
    let points: Vec<usize> = [1, 2, 4, 8, 12, 16, 24, 32, 48]
        .into_iter()
        .filter(|&t| t <= max_t)
        .collect();
    println!("# Figs. 11/12 — queries/second vs cores used, TPC-H SF={sf}");
    println!("{:<6} {:>5} {:>12} {:>12}", "query", "thr", "Typer q/s", "TW q/s");
    for q in QueryId::TPCH_PAPER {
        for &t in &points {
            let cfg = ExecCfg::with_threads(t);
            let ty = time_median(a.reps.min(2), || std::mem::drop(run(Engine::Typer, q, &db, &cfg)));
            let tw = time_median(a.reps.min(2), || {
                std::mem::drop(run(Engine::Tectorwise, q, &db, &cfg))
            });
            println!(
                "{:<6} {:>5} {:>12.2} {:>12.2}",
                q.name(),
                t,
                1.0 / ty.as_secs_f64(),
                1.0 / tw.as_secs_f64()
            );
        }
    }
}

// ---------------------------------------------------------------------
// §8.1: OLTP point lookups.
// ---------------------------------------------------------------------
fn oltp(a: &Args) {
    use dbep_queries::oltp;
    let db = gen_tpch(a.sf.unwrap_or(1.0));
    let idx = oltp::OltpIndex::build(&db, HashFn::Crc);
    let n_orders = db.table("orders").len() as i32;
    let mut rng = SmallRng::seed_from_u64(17);
    let keys: Vec<i32> = (0..100_000).map(|_| rng.gen_range(1..=n_orders)).collect();
    println!("# §8.1 — OLTP stored-procedure lookups (order + lineitem aggregate)");
    let t = time_median(a.reps, || {
        for &k in &keys {
            std::hint::black_box(oltp::lookup_typer(&db, &idx, k));
        }
    });
    println!(
        "Typer (compiled procedure):       {:>12.0} lookups/s",
        keys.len() as f64 / t.as_secs_f64()
    );
    let mut scratch = oltp::TwLookupScratch::new();
    let t = time_median(a.reps, || {
        for &k in &keys {
            std::hint::black_box(oltp::lookup_tectorwise(&db, &idx, k, &mut scratch));
        }
    });
    println!(
        "Tectorwise (vector-of-one):       {:>12.0} lookups/s",
        keys.len() as f64 / t.as_secs_f64()
    );
    let few = &keys[..8];
    let t = time_median(1, || {
        for &k in few {
            std::hint::black_box(oltp::lookup_volcano(&db, k));
        }
    });
    println!(
        "Volcano (interpreted, no index):  {:>12.0} lookups/s",
        few.len() as f64 / t.as_secs_f64()
    );
}

// ---------------------------------------------------------------------
// Table 6 / Fig. 13: the processing-model taxonomy, demonstrated live.
// ---------------------------------------------------------------------
fn table6(a: &Args) {
    let db = gen_tpch(a.sf.unwrap_or(1.0));
    println!(
        "# Table 6 — processing models on TPC-H Q1/Q6, SF={}, 1 thread [ms]",
        a.sf.unwrap_or(1.0)
    );
    println!("{:<42} {:>9} {:>9}", "model (pipelining + execution)", "q1", "q6");
    let q = |engine, query: QueryId, cfg: &ExecCfg| {
        fmt_ms(time_median(a.reps.min(2), || {
            std::mem::drop(run(engine, query, &db, cfg))
        }))
    };
    let d = ExecCfg::default();
    println!(
        "{:<42} {:>9} {:>9}",
        "pull + interpretation (System R / Volcano)",
        q(Engine::Volcano, QueryId::Q1, &d),
        q(Engine::Volcano, QueryId::Q6, &d)
    );
    let vs1 = ExecCfg {
        vector_size: 1,
        ..Default::default()
    };
    println!(
        "{:<42} {:>9} {:>9}",
        "pull + vectorization, vectors of 1",
        q(Engine::Tectorwise, QueryId::Q1, &vs1),
        q(Engine::Tectorwise, QueryId::Q6, &vs1)
    );
    println!(
        "{:<42} {:>9} {:>9}",
        "pull + vectorization (VectorWise, 1K)",
        q(Engine::Tectorwise, QueryId::Q1, &d),
        q(Engine::Tectorwise, QueryId::Q6, &d)
    );
    let vsmax = ExecCfg {
        vector_size: usize::MAX >> 1,
        ..Default::default()
    };
    println!(
        "{:<42} {:>9} {:>9}",
        "full materialization (MonetDB)",
        q(Engine::Tectorwise, QueryId::Q1, &vsmax),
        q(Engine::Tectorwise, QueryId::Q6, &vsmax)
    );
    println!(
        "{:<42} {:>9} {:>9}",
        "push + compilation (HyPer / Typer)",
        q(Engine::Typer, QueryId::Q1, &d),
        q(Engine::Typer, QueryId::Q6, &d)
    );
}

// ---------------------------------------------------------------------
// `query`: run one prepared query through the Session API and print it.
// ---------------------------------------------------------------------
fn query(a: &Args) {
    let q = a.query.unwrap_or(QueryId::Q6);
    let sf = a.sf.unwrap_or(0.1);
    let threads = a.threads.unwrap_or(1);
    let db = maybe_encode(
        if QueryId::SSB.contains(&q) {
            gen_ssb(sf)
        } else {
            gen_tpch(sf)
        },
        a,
    );
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
    println!(
        "# {} — SF={sf}, {threads} thread(s), default (paper) parameters{}",
        q.name(),
        if a.encoded { ", encoded storage" } else { "" }
    );
    let mut reference = None;
    for engine in a.engines() {
        let t = time_median(a.reps, || std::mem::drop(prepared.run(engine)));
        let result = prepared.run(engine);
        println!("{:<10} {:>10}  {} rows", engine.name(), fmt_ms(t), result.len());
        if let Some(r) = &reference {
            assert_eq!(r, &result, "{engine:?} disagrees");
        }
        reference.get_or_insert(result);
    }
    println!("\n{}", reference.expect("at least one engine").to_table());
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
}

// ---------------------------------------------------------------------
// `serve`: the inter-query benchmark — N closed-loop clients fire the
// mixed 12-query workload (TPC-H + SSB, two Sessions over one shared
// morsel scheduler in pool mode) with one engine per scenario:
// typer, tectorwise, volcano, or adaptive (per-stage selection backed
// by the Session plan cache). Reports deadline-clamped QPS,
// interpolated p50/p95/p99 latency, plan-cache hit rates, learned
// adaptive assignments and per-query scheduler stats; one JSON
// document with --json.
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

struct ServeScenario {
    mode: &'static str,
    engine: Engine,
    clients: usize,
    /// The configured measurement window (QPS denominator).
    window: Duration,
    /// Wall time including the post-deadline drain (reported, never a
    /// QPS denominator).
    elapsed: Duration,
    samples: Vec<ServeSample>,
    /// Combined plan-cache counters of the scenario's sessions, taken
    /// after the run plus one re-prepare sweep of the whole mix.
    plan_cache: dbep_core::PlanCacheStats,
    /// Re-prepare sweep: `(hits, total)` and mean planning time — the
    /// "second prepare skips planning" demonstration.
    reprepare_hits: usize,
    reprepare_total: usize,
    reprepare_avg_ns: f64,
    /// Learned per-stage assignments (`Engine::Adaptive` scenarios
    /// only): `(query index, "stage=engine ..." rendering)`.
    adaptive: Vec<(usize, String)>,
    /// `--obs`: the scenario ran with the span sink and metrics bundle
    /// attached; snapshot taken after the drain.
    obs: Option<ObsReport>,
}

/// End-of-scenario observability snapshot (`serve --obs`).
struct ObsReport {
    /// The registry's JSON snapshot, pre-rendered (embedded verbatim
    /// in the serve JSON document).
    metrics_json: String,
    /// Spans still in the ring at the end of the run.
    spans: usize,
    /// Spans overwritten by the ring (recorded minus retained).
    spans_dropped: u64,
}

#[allow(clippy::too_many_arguments)] // one call site; a struct would just rename the labels
fn serve_scenario(
    tpch: Option<&Arc<Database>>,
    ssb: Option<&Arc<Database>>,
    mode: &'static str,
    threads: usize,
    clients: usize,
    engine: Engine,
    window: Duration,
    queries: &[QueryId],
    obs: bool,
) -> ServeScenario {
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
    let tpch_session = tpch.map(mk_session);
    let ssb_session = ssb.map(mk_session);
    let session_for = |q: &QueryId| -> &Session {
        if QueryId::SSB.contains(q) {
            ssb_session.as_ref().expect("SSB query without SSB database")
        } else {
            tpch_session.as_ref().expect("TPC-H query without TPC-H database")
        }
    };
    let prepared: Vec<_> = queries.iter().map(|q| session_for(q).prepare(*q)).collect();
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
    // Re-prepare the whole mix: every prepare must now hit the plan
    // cache with ~zero planning time (and, for Adaptive, inherit the
    // learned stage assignment instead of re-exploring).
    let reprepared: Vec<_> = queries.iter().map(|q| session_for(q).prepare(*q)).collect();
    let reprepare_hits = reprepared.iter().filter(|p| p.cache_hit()).count();
    let reprepare_avg_ns =
        reprepared.iter().map(|p| p.planning_ns() as f64).sum::<f64>() / reprepared.len().max(1) as f64;
    let adaptive = if engine == Engine::Adaptive {
        prepared
            .iter()
            .enumerate()
            .filter_map(|(i, p)| {
                let (choices, _) = p.adaptive_choices()?;
                let stages = dbep_queries::plan(queries[i]).stages();
                let rendered = stages
                    .iter()
                    .zip(&choices)
                    .map(|(s, e)| format!("{}={}", s.name, e.name()))
                    .collect::<Vec<_>>()
                    .join(" ");
                Some((i, rendered))
            })
            .collect()
    } else {
        Vec::new()
    };
    let plan_cache = [&tpch_session, &ssb_session]
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
    ServeScenario {
        mode,
        engine,
        clients,
        window,
        elapsed,
        samples: samples.into_inner().expect("serve samples"),
        plan_cache,
        reprepare_hits,
        reprepare_total: reprepared.len(),
        reprepare_avg_ns,
        adaptive,
        obs: metrics.as_ref().map(|m| ObsReport {
            metrics_json: m.registry().snapshot_json(),
            spans: sink.as_ref().map_or(0, |s| s.snapshot().len()),
            spans_dropped: sink.as_ref().map_or(0, |s| s.dropped()),
        }),
    }
}

fn serve(a: &Args) {
    let sf = a.sf.unwrap_or(0.1);
    let threads = a.threads.unwrap_or_else(cores);
    let window = std::time::Duration::from_millis(a.duration_ms);
    // The mixed workload: all 12 queries over both databases, narrowed
    // by --query. Databases are generated only if the mix needs them.
    let queries = a.queries(&QueryId::ALL);
    let tpch = queries
        .iter()
        .any(|q| !QueryId::SSB.contains(q))
        .then(|| Arc::new(maybe_encode(gen_tpch(sf), a)));
    let ssb = queries
        .iter()
        .any(|q| QueryId::SSB.contains(q))
        .then(|| Arc::new(maybe_encode(gen_ssb(sf), a)));
    // One engine per scenario; the default sweep compares Adaptive
    // against every single-engine run of the same mix.
    let engines = match a.engine {
        Some(e) => vec![e],
        None => Engine::SELECTABLE.to_vec(),
    };
    let modes: Vec<&'static str> = match a.mode.as_str() {
        "pool" => vec!["pool"],
        "spawn" => vec!["spawn"],
        _ => vec!["spawn", "pool"],
    };
    let mut scenarios = Vec::new();
    for &clients in &a.clients {
        for mode in &modes {
            for &engine in &engines {
                eprintln!(
                    "[serve] mode={mode} engine={} clients={clients} threads={threads} window={window:?}",
                    engine.name()
                );
                scenarios.push(serve_scenario(
                    tpch.as_ref(),
                    ssb.as_ref(),
                    mode,
                    threads,
                    clients,
                    engine,
                    window,
                    &queries,
                    a.obs,
                ));
            }
        }
    }
    if a.json {
        serve_json(a, sf, threads, &queries, &scenarios);
    } else {
        serve_text(sf, threads, &queries, &scenarios);
    }
}

fn serve_text(sf: f64, threads: usize, queries: &[QueryId], scenarios: &[ServeScenario]) {
    use dbep_bench::serve_stats::{percentile, throughput};
    println!("# serve — closed-loop query serving, SF={sf}, {threads} worker threads");
    println!(
        "# mix: {}",
        queries.iter().map(|q| q.name()).collect::<Vec<_>>().join(" ")
    );
    println!(
        "{:<6} {:<11} {:>8} {:>9} {:>8} {:>10} {:>10} {:>10} {:>10}",
        "mode", "engine", "clients", "queries", "drained", "QPS", "p50", "p95", "p99"
    );
    for sc in scenarios {
        let mut lat: Vec<Duration> = sc.samples.iter().map(|s| s.latency).collect();
        lat.sort_unstable();
        let done: Vec<Duration> = sc.samples.iter().map(|s| s.done_at).collect();
        let t = throughput(&done, sc.window);
        println!(
            "{:<6} {:<11} {:>8} {:>9} {:>8} {:>10.2} {:>10} {:>10} {:>10}",
            sc.mode,
            sc.engine.name(),
            sc.clients,
            t.completed,
            t.drained,
            t.qps,
            fmt_ms(percentile(&lat, 0.50)),
            fmt_ms(percentile(&lat, 0.95)),
            fmt_ms(percentile(&lat, 0.99)),
        );
    }
    // Plan-cache effectiveness and adaptive assignments, per scenario.
    println!("\n## plan cache");
    for sc in scenarios {
        println!(
            "{:<6} {:<11} {:>3} hits / {:>3} misses / {:>3} entries; re-prepare {}/{} hits, avg {:.1} µs planning",
            sc.mode,
            sc.engine.name(),
            sc.plan_cache.hits,
            sc.plan_cache.misses,
            sc.plan_cache.entries,
            sc.reprepare_hits,
            sc.reprepare_total,
            sc.reprepare_avg_ns / 1e3,
        );
        for (i, rendered) in &sc.adaptive {
            println!("       {}: {}", queries[*i].name(), rendered);
        }
    }
    if scenarios.iter().any(|s| s.obs.is_some()) {
        println!("\n## observability (--obs: span sink + metrics bundle attached)");
        for sc in scenarios {
            if let Some(o) = &sc.obs {
                println!(
                    "{:<6} {:<11} {:>8} span(s) retained, {:>8} overwritten by the ring (metrics snapshot: --json)",
                    sc.mode,
                    sc.engine.name(),
                    o.spans,
                    o.spans_dropped
                );
            }
        }
    }
    // Per-query scheduler stats of the most concurrent pooled scenario.
    if let Some(sc) = scenarios
        .iter()
        .filter(|s| s.mode == "pool")
        .max_by_key(|s| s.clients)
    {
        println!(
            "\n## per-query scheduler stats (pool, engine {}, {} clients)",
            sc.engine.name(),
            sc.clients
        );
        println!(
            "{:<18} {:>8} {:>12} {:>12} {:>10} {:>8} {:>12}",
            "query", "runs", "avg admit", "avg queue", "morsels", "steals", "MB scanned"
        );
        for (pair, q) in queries.iter().enumerate() {
            let runs: Vec<&ServeSample> = sc.samples.iter().filter(|s| s.pair == pair).collect();
            if runs.is_empty() {
                continue;
            }
            let n = runs.len() as u32;
            let admit: Duration = runs.iter().map(|s| s.stats.admission_wait).sum::<Duration>() / n;
            let queue: Duration = runs.iter().map(|s| s.stats.queue_wait).sum::<Duration>() / n;
            println!(
                "{:<18} {:>8} {:>12} {:>12} {:>10} {:>8} {:>12.1}",
                q.name(),
                n,
                format!("{:.2?}", admit),
                format!("{:.2?}", queue),
                runs.iter().map(|s| s.stats.morsels).sum::<u64>(),
                runs.iter().map(|s| s.stats.steals).sum::<u64>(),
                runs.iter().map(|s| s.stats.bytes_scanned).sum::<u64>() as f64 / 1e6,
            );
        }
    }
}

fn serve_json(a: &Args, sf: f64, threads: usize, queries: &[QueryId], scenarios: &[ServeScenario]) {
    use dbep_bench::json;
    use dbep_bench::serve_stats::{percentile, throughput};
    let rendered = scenarios.iter().map(|sc| {
        let mut lat: Vec<Duration> = sc.samples.iter().map(|s| s.latency).collect();
        lat.sort_unstable();
        let done: Vec<Duration> = sc.samples.iter().map(|s| s.done_at).collect();
        let t = throughput(&done, sc.window);
        let per_query = queries.iter().enumerate().filter_map(|(pair, q)| {
            let runs: Vec<&ServeSample> = sc.samples.iter().filter(|s| s.pair == pair).collect();
            if runs.is_empty() {
                return None;
            }
            let n = runs.len() as f64;
            let sum_ms = runs.iter().map(|s| s.latency.as_secs_f64() * 1e3).sum::<f64>();
            Some(
                json::Object::new()
                    .field("query", json::string(q.name()))
                    .field("runs", format!("{}", runs.len()))
                    .field("avg_ms", json::number(sum_ms / n))
                    .field(
                        "avg_admission_wait_ms",
                        json::number(
                            runs.iter()
                                .map(|s| s.stats.admission_wait.as_secs_f64() * 1e3)
                                .sum::<f64>()
                                / n,
                        ),
                    )
                    .field(
                        "avg_queue_wait_ms",
                        json::number(
                            runs.iter()
                                .map(|s| s.stats.queue_wait.as_secs_f64() * 1e3)
                                .sum::<f64>()
                                / n,
                        ),
                    )
                    .field(
                        "morsels",
                        format!("{}", runs.iter().map(|s| s.stats.morsels).sum::<u64>()),
                    )
                    .field(
                        "steals",
                        format!("{}", runs.iter().map(|s| s.stats.steals).sum::<u64>()),
                    )
                    .field(
                        "bytes_scanned",
                        format!("{}", runs.iter().map(|s| s.stats.bytes_scanned).sum::<u64>()),
                    )
                    .build(),
            )
        });
        let adaptive_choices = sc.adaptive.iter().map(|(i, rendered)| {
            json::Object::new()
                .field("query", json::string(queries[*i].name()))
                .field("stages", json::string(rendered))
                .build()
        });
        json::Object::new()
            .field("mode", json::string(sc.mode))
            .field("engine", json::string(sc.engine.name()))
            .field("clients", format!("{}", sc.clients))
            .field("queries_completed", format!("{}", t.completed))
            .field("drained_after_deadline", format!("{}", t.drained))
            .field("qps", json::number(t.qps))
            .field("wall_elapsed_ms", json::number(sc.elapsed.as_secs_f64() * 1e3))
            .field("p50_ms", json::number(percentile(&lat, 0.50).as_secs_f64() * 1e3))
            .field("p95_ms", json::number(percentile(&lat, 0.95).as_secs_f64() * 1e3))
            .field("p99_ms", json::number(percentile(&lat, 0.99).as_secs_f64() * 1e3))
            .field("latency_histogram", {
                // Log-linear buckets over the same samples the exact
                // percentiles above summarize (the aggregatable form a
                // scrape endpoint would serve).
                let hist = dbep_obs::Histogram::default();
                for l in &lat {
                    hist.record(l.as_nanos() as u64);
                }
                let buckets = hist.buckets().into_iter().map(|(le, n)| {
                    json::Object::new()
                        .field("le_ns", format!("{le}"))
                        .field("count", format!("{n}"))
                        .build()
                });
                json::Object::new()
                    .field("count", format!("{}", hist.count()))
                    .field("sum_ns", format!("{}", hist.sum()))
                    .field("buckets", json::array(buckets))
                    .build()
            })
            .field(
                "plan_cache",
                json::Object::new()
                    .field("hits", format!("{}", sc.plan_cache.hits))
                    .field("misses", format!("{}", sc.plan_cache.misses))
                    .field("entries", format!("{}", sc.plan_cache.entries))
                    .field("reprepare_hits", format!("{}", sc.reprepare_hits))
                    .field("reprepare_total", format!("{}", sc.reprepare_total))
                    .field("reprepare_avg_planning_ns", json::number(sc.reprepare_avg_ns))
                    .build(),
            )
            .field("adaptive_choices", json::array(adaptive_choices))
            .field("per_query", json::array(per_query))
            .field(
                "observability",
                match &sc.obs {
                    // `metrics_json` is the registry's own rendering,
                    // embedded verbatim as a sub-document.
                    Some(o) => json::Object::new()
                        .field("spans_retained", format!("{}", o.spans))
                        .field("spans_overwritten", format!("{}", o.spans_dropped))
                        .field("metrics", o.metrics_json.clone())
                        .build(),
                    None => "null".to_string(),
                },
            )
            .build()
    });
    let doc = json::Object::new()
        .field("experiment", json::string("serve"))
        .field("sf", json::number(sf))
        .field("threads", format!("{threads}"))
        .field("duration_ms", format!("{}", a.duration_ms))
        .field("encoded", format!("{}", a.encoded))
        .field("obs", format!("{}", a.obs))
        .field("mix", json::array(queries.iter().map(|q| json::string(q.name()))))
        .field(
            "engines",
            json::array(scenarios.iter().map(|s| json::string(s.engine.name()))),
        )
        .field("scenarios", json::array(rendered))
        .build();
    println!("{doc}");
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
    let engines = match a.engine {
        Some(e) => vec![e],
        None => vec![Engine::Adaptive],
    };
    let metrics = dbep_core::EngineMetrics::new();
    let cfg = ExecCfg::with_threads(threads);
    let mk = |db: Database| Session::with_cfg(db, cfg).with_metrics(Arc::clone(&metrics));
    let tpch = queries
        .iter()
        .any(|q| !QueryId::SSB.contains(q))
        .then(|| mk(maybe_encode(gen_tpch(sf), a)));
    let ssb_db = queries
        .iter()
        .any(|q| QueryId::SSB.contains(q))
        .then(|| mk(maybe_encode(gen_ssb(sf), a)));
    for &q in &queries {
        let session = if QueryId::SSB.contains(&q) { &ssb_db } else { &tpch }
            .as_ref()
            .expect("database for query");
        let prepared = session.prepare(q);
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
fn compression(a: &Args) {
    use dbep_bench::{json, time_spread, TimeSpread};
    let sf = a.sf.unwrap_or(0.1);
    let threads = a.threads.unwrap_or(1);
    let queries = a.queries(&[QueryId::Q1, QueryId::Q6, QueryId::Q14, QueryId::Ssb1_1]);
    let engines = match a.engine {
        Some(e) => vec![e],
        None => vec![Engine::Typer, Engine::Tectorwise],
    };
    let cfg = ExecCfg::with_threads(threads);
    let mut sessions: Vec<(bool, Session, Session)> = Vec::new(); // (is_ssb, flat, encoded)
    fn session_pair(
        sessions: &mut Vec<(bool, Session, Session)>,
        ssb: bool,
        sf: f64,
        cfg: ExecCfg<'static>,
    ) -> usize {
        if let Some(i) = sessions.iter().position(|(s, ..)| *s == ssb) {
            return i;
        }
        let flat = if ssb { gen_ssb(sf) } else { gen_tpch(sf) };
        let enc = encode(flat.clone());
        sessions.push((ssb, Session::with_cfg(flat, cfg), Session::with_cfg(enc, cfg)));
        sessions.len() - 1
    }
    struct Row {
        query: QueryId,
        engine: Engine,
        flat: TimeSpread,
        enc: TimeSpread,
        /// (flat, encoded) through the throttled device (`--throttle`).
        ssd: Option<(TimeSpread, TimeSpread)>,
        flat_bytes: u64,
        enc_bytes: u64,
    }
    let ms = |d: Duration| d.as_secs_f64() * 1e3;
    let mut rows = Vec::new();
    for q in queries {
        let i = session_pair(&mut sessions, QueryId::SSB.contains(&q), sf, cfg);
        let (_, flat, enc) = &sessions[i];
        for &engine in &engines {
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
            let ssd_run = |db: &Database| {
                time_spread(a.reps, || {
                    let throttle = dbep_storage::throttle::Throttle::paper_ssd();
                    let cfg = ExecCfg {
                        threads,
                        throttle: Some(&throttle),
                        ..Default::default()
                    };
                    std::mem::drop(run(engine, q, db, &cfg));
                })
            };
            rows.push(Row {
                query: q,
                engine,
                flat: time_spread(a.reps, || std::mem::drop(pf.run(engine))),
                enc: time_spread(a.reps, || std::mem::drop(pe.run(engine))),
                ssd: a.throttle.then(|| (ssd_run(flat.db()), ssd_run(enc.db()))),
                flat_bytes: s_flat.bytes_scanned,
                enc_bytes: s_enc.bytes_scanned,
            });
        }
    }
    if a.json {
        // `<prefix>_ms` is the median; min/max are the run-to-run spread.
        let cell = |o: json::Object, prefix: &str, t: &TimeSpread| {
            o.field(&format!("{prefix}_ms"), json::number(ms(t.median)))
                .field(&format!("{prefix}_min_ms"), json::number(ms(t.min)))
                .field(&format!("{prefix}_max_ms"), json::number(ms(t.max)))
        };
        let pair = |o: json::Object, flat: &TimeSpread, enc: &TimeSpread| {
            cell(cell(o, "flat", flat), "encoded", enc)
                .field("speedup", json::number(ms(flat.median) / ms(enc.median)))
        };
        let rendered = rows.iter().map(|r| {
            let o = json::Object::new()
                .field("query", json::string(r.query.name()))
                .field("engine", json::string(r.engine.name()));
            let mut o = pair(o, &r.flat, &r.enc)
                .field("flat_bytes_scanned", format!("{}", r.flat_bytes))
                .field("encoded_bytes_scanned", format!("{}", r.enc_bytes))
                .field(
                    "bytes_reduction",
                    json::number(r.flat_bytes as f64 / r.enc_bytes.max(1) as f64),
                );
            if let Some((flat, enc)) = &r.ssd {
                o = o.field("paper_ssd", pair(json::Object::new(), flat, enc).build());
            }
            o.build()
        });
        let hwinfo = dbep_bench::hwinfo::fields()
            .into_iter()
            .fold(json::Object::new(), |o, (k, v)| o.field(&k, json::string(&v)));
        let doc = json::Object::new()
            .field("experiment", json::string("compression"))
            .field("sf", json::number(sf))
            .field("threads", format!("{threads}"))
            .field("reps", format!("{}", a.reps))
            .field("hwinfo", hwinfo.build())
            .field("queries", json::array(rendered))
            .build();
        println!("{doc}");
    } else {
        println!("# compression — flat vs encoded storage, SF={sf}, {threads} thread(s), runtime [ms] / bytes scanned");
        println!(
            "{:<18} {:>9} {:>9} {:>7} {:>12} {:>12} {:>7}",
            "query/engine", "flat", "encoded", "spdup", "flat MB", "enc MB", "ratio"
        );
        for r in &rows {
            println!(
                "{:<18} {:>9.2} {:>9.2} {:>7.2} {:>12.1} {:>12.1} {:>7.2}",
                format!("{}/{}", r.query.name(), r.engine.name()),
                ms(r.flat.median),
                ms(r.enc.median),
                ms(r.flat.median) / ms(r.enc.median),
                r.flat_bytes as f64 / 1e6,
                r.enc_bytes as f64 / 1e6,
                r.flat_bytes as f64 / r.enc_bytes.max(1) as f64,
            );
        }
        if a.throttle {
            println!("# the same scans through the emulated 1.4 GB/s SSD [ms]");
            println!(
                "{:<18} {:>9} {:>9} {:>7}",
                "query/engine", "flat", "encoded", "spdup"
            );
            for r in &rows {
                let (flat, enc) = r.ssd.as_ref().expect("--throttle fills every row");
                println!(
                    "{:<18} {:>9.2} {:>9.2} {:>7.2}",
                    format!("{}/{}", r.query.name(), r.engine.name()),
                    ms(flat.median),
                    ms(enc.median),
                    ms(flat.median) / ms(enc.median),
                );
            }
        }
    }
}

type Experiment = fn(&Args);

// ---------------------------------------------------------------------
// serve-net: stand the TCP front-end up for external clients.
// ---------------------------------------------------------------------
fn serve_net(a: &Args) {
    use dbep_net::{Server, ServerConfig};
    let sf = a.sf.unwrap_or(0.1);
    let threads = a.threads.unwrap_or_else(cores);
    let pool = a.mode != "spawn"; // `both` (the default) serves pooled
    let tpch = Arc::new(maybe_encode(gen_tpch(sf), a));
    let ssb = Arc::new(maybe_encode(gen_ssb(sf), a));
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
    let server = Server::serve(&addr, Some(tpch), Some(ssb), cfg).unwrap_or_else(|e| {
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

/// One measured sweep point.
struct LoadReport {
    offered: u32,
    sent: usize,
    done: usize,
    retried: usize,
    failed: usize,
    /// RESULT completions inside the window, per second.
    goodput: f64,
    /// Schedule-relative latency percentiles over RESULT completions.
    p50: Duration,
    p95: Duration,
    p99: Duration,
}

/// One (mode, engine) curve over the swept rates.
struct LoadCurve {
    mode: &'static str,
    engine: Engine,
    points: Vec<LoadReport>,
    /// Largest swept rate the server kept up with (goodput ≥ 95 % of
    /// offered, monotone prefix); `None` = saturated below the sweep.
    knee: Option<f64>,
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

fn load_cmd(a: &Args) {
    use dbep_bench::load::{find_knee, poisson_arrivals, LoadPoint};
    use dbep_bench::serve_stats::{percentile, throughput};
    use dbep_net::{Client, Server, ServerConfig};
    use std::net::ToSocketAddrs;

    let sf = a.sf.unwrap_or(0.1);
    let threads = a.threads.unwrap_or_else(cores);
    let window = Duration::from_millis(a.duration_ms);
    let queries = a.queries(&QueryId::ALL);
    let engines = match a.engine {
        Some(e) => vec![e],
        None => Engine::SELECTABLE.to_vec(),
    };
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
    let modes: Vec<&'static str> = match (&remote, a.mode.as_str()) {
        (Some(_), _) => vec!["remote"],
        (None, "pool") => vec!["pool"],
        (None, "spawn") => vec!["spawn"],
        _ => vec!["spawn", "pool"],
    };
    let (tpch, ssb) = if remote.is_none() {
        (
            queries
                .iter()
                .any(|q| !QueryId::SSB.contains(q))
                .then(|| Arc::new(maybe_encode(gen_tpch(sf), a))),
            queries
                .iter()
                .any(|q| QueryId::SSB.contains(q))
                .then(|| Arc::new(maybe_encode(gen_ssb(sf), a))),
        )
    } else {
        (None, None)
    };
    let mut curves = Vec::new();
    for mode in &modes {
        for &engine in &engines {
            let server = remote.is_none().then(|| {
                Server::serve(
                    "127.0.0.1:0",
                    tpch.clone(),
                    ssb.clone(),
                    ServerConfig {
                        threads,
                        pool: *mode == "pool",
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
                let mut lat: Vec<Duration> = samples
                    .iter()
                    .filter(|s| s.outcome == LoadOutcome::Done)
                    .map(|s| s.done_at.saturating_sub(s.scheduled))
                    .collect();
                lat.sort_unstable();
                let done_at: Vec<Duration> = samples
                    .iter()
                    .filter(|s| s.outcome == LoadOutcome::Done)
                    .map(|s| s.done_at)
                    .collect();
                let count = |o: LoadOutcome| samples.iter().filter(|s| s.outcome == o).count();
                points.push(LoadReport {
                    offered: rate,
                    sent: samples.len(),
                    done: count(LoadOutcome::Done),
                    retried: count(LoadOutcome::Retried),
                    failed: count(LoadOutcome::Failed),
                    goodput: throughput(&done_at, window).qps,
                    p50: percentile(&lat, 0.50),
                    p95: percentile(&lat, 0.95),
                    p99: percentile(&lat, 0.99),
                });
            }
            if let Some(server) = server {
                server.shutdown();
                server.join();
            }
            let knee = find_knee(
                &points
                    .iter()
                    .map(|p| LoadPoint {
                        offered: p.offered as f64,
                        sent: p.sent as f64 / window.as_secs_f64(),
                        goodput: p.goodput,
                    })
                    .collect::<Vec<_>>(),
                0.95,
            );
            curves.push(LoadCurve {
                mode,
                engine,
                points,
                knee,
            });
        }
    }
    if a.json {
        load_json(a, sf, threads, &queries, &curves);
    } else {
        load_text(sf, threads, a.conns, &queries, &curves);
    }
}

fn load_text(sf: f64, threads: usize, conns: usize, queries: &[QueryId], curves: &[LoadCurve]) {
    println!("# load — open-loop offered-rate sweep, SF={sf}, {threads} worker threads, {conns} connections");
    println!(
        "# mix: {}",
        queries.iter().map(|q| q.name()).collect::<Vec<_>>().join(" ")
    );
    println!(
        "{:<6} {:<11} {:>8} {:>7} {:>7} {:>7} {:>6} {:>10} {:>9} {:>9} {:>9}",
        "mode", "engine", "offered", "sent", "done", "retry", "fail", "goodput", "p50", "p95", "p99"
    );
    for c in curves {
        for p in &c.points {
            println!(
                "{:<6} {:<11} {:>8} {:>7} {:>7} {:>7} {:>6} {:>10.2} {:>9} {:>9} {:>9}",
                c.mode,
                c.engine.name(),
                p.offered,
                p.sent,
                p.done,
                p.retried,
                p.failed,
                p.goodput,
                fmt_ms(p.p50),
                fmt_ms(p.p95),
                fmt_ms(p.p99),
            );
        }
        match c.knee {
            Some(k) => println!(
                "       {} {}: knee at {k:.0}/s (last offered rate with goodput ≥ 95 %)",
                c.mode,
                c.engine.name()
            ),
            None => println!(
                "       {} {}: saturated below the lowest swept rate",
                c.mode,
                c.engine.name()
            ),
        }
    }
}

fn load_json(a: &Args, sf: f64, threads: usize, queries: &[QueryId], curves: &[LoadCurve]) {
    use dbep_bench::json;
    let rendered = curves.iter().map(|c| {
        let points = c.points.iter().map(|p| {
            json::Object::new()
                .field("offered_per_s", format!("{}", p.offered))
                .field("sent", format!("{}", p.sent))
                .field("done", format!("{}", p.done))
                .field("retried", format!("{}", p.retried))
                .field("failed", format!("{}", p.failed))
                .field("goodput_per_s", json::number(p.goodput))
                .field("p50_ms", json::number(p.p50.as_secs_f64() * 1e3))
                .field("p95_ms", json::number(p.p95.as_secs_f64() * 1e3))
                .field("p99_ms", json::number(p.p99.as_secs_f64() * 1e3))
                .build()
        });
        json::Object::new()
            .field("mode", json::string(c.mode))
            .field("engine", json::string(c.engine.name()))
            .field("points", json::array(points))
            .field("knee_per_s", c.knee.map_or("null".to_string(), json::number))
            .build()
    });
    let doc = json::Object::new()
        .field("experiment", json::string("load"))
        .field("sf", json::number(sf))
        .field("threads", format!("{threads}"))
        .field("conns", format!("{}", a.conns))
        .field("window_ms", format!("{}", a.duration_ms))
        .field(
            "mix",
            json::array(queries.iter().map(|q| json::string(q.name()))),
        )
        .field(
            "knee_definition",
            json::string("largest swept offered rate whose goodput stays within 95% of offered, with every lower swept rate also keeping up"),
        )
        .field("curves", json::array(rendered))
        .build();
    println!("{doc}");
}

fn main() {
    let args = parse_args();
    let t = Instant::now();
    let all: Vec<(&str, Experiment)> = vec![
        ("fig3", fig3),
        ("table1", table1),
        ("fig4", fig4),
        ("fig5", fig5),
        ("ssb", ssb),
        ("table2", table2),
        ("fig6", fig6),
        ("fig7", fig7),
        ("fig8", fig8),
        ("fig9", fig9),
        ("fig10", fig10),
        ("table3", table3),
        ("table4", table4),
        ("table5", table5),
        ("fig11", fig11),
        ("oltp", oltp),
        ("table6", table6),
        ("query", query),
        ("serve", serve),
        ("metrics", metrics_cmd),
        ("compression", compression),
    ];
    // Standalone network experiments: excluded from `all` (serve-net
    // blocks on the wire until a SHUTDOWN frame, load sweeps minutes).
    let standalone: Vec<(&str, Experiment)> = vec![("serve-net", serve_net), ("load", load_cmd)];
    if args.id == "all" {
        for (name, f) in &all {
            println!("\n================ {name} ================");
            f(&args);
        }
    } else {
        match all.iter().chain(standalone.iter()).find(|(n, _)| *n == args.id) {
            Some((_, f)) => f(&args),
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
