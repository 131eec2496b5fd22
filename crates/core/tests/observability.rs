//! Session-level observability integration: span traces nest correctly
//! and export as Chrome `trace_event` JSON, the structured query log
//! round-trips and *replays* (a record names everything needed to
//! re-prepare and re-run the execution it describes), and the metrics
//! bundle agrees with what actually ran.

use dbep_core::prelude::*;
use dbep_obs::{chrome_trace, QueryLogRecord, SpanEvent, SpanKind};
use std::io::Write;
use std::sync::{Arc, Mutex};

const SF: f64 = 0.01;
const SEED: u64 = 42;

fn tpch() -> Arc<Database> {
    static DB: std::sync::OnceLock<Arc<Database>> = std::sync::OnceLock::new();
    Arc::clone(DB.get_or_init(|| Arc::new(dbep_datagen::tpch::generate(SF, SEED))))
}

/// Stage count a query's plan declares, via the export name table.
fn stage_count(q: QueryId) -> usize {
    dbep_queries::trace_names().queries[q.ordinal() as usize]
        .stages
        .len()
}

#[test]
fn trace_spans_nest_and_export_as_chrome_json() {
    let sink = Arc::new(TraceSink::new(1 << 14));
    let session = Session::with_cfg(tpch(), ExecCfg::with_threads(2)).with_trace(Arc::clone(&sink));
    // Each plan with the table its stages scan, in stage order: every
    // stage of these plans is one morsel-driven scan.
    let plans: [(QueryId, &[&str]); 5] = [
        (QueryId::Q1, &["lineitem"]),
        (QueryId::Q6, &["lineitem"]),
        (QueryId::Q3, &["customer", "orders", "lineitem"]),
        (QueryId::Q4, &["lineitem", "orders"]),
        (
            QueryId::Q9,
            &["part", "partsupp", "supplier", "lineitem", "orders"],
        ),
    ];
    let runs: Vec<(QueryId, Engine, &[&str])> = plans
        .iter()
        .flat_map(|&(q, tables)| [Engine::Typer, Engine::Tectorwise].map(|e| (q, e, tables)))
        .collect();
    for (q, e, _) in &runs {
        session.prepare(*q).run(*e);
    }
    let events = sink.snapshot();
    assert_eq!(sink.dropped(), 0, "ring sized to hold every span");
    assert_eq!(sink.lost(), 0, "no writer wraps onto another's slot");

    // One query span per run, and every other span nests inside its
    // run's query span (by run_seq and by time containment).
    let query_spans: Vec<&SpanEvent> = events.iter().filter(|e| e.kind == SpanKind::Query).collect();
    assert_eq!(query_spans.len(), runs.len());
    for ev in &events {
        let parent = query_spans
            .iter()
            .find(|q| q.run_seq == ev.run_seq)
            .expect("every span belongs to a run with a query span");
        assert!(ev.t0_ns >= parent.t0_ns, "span starts inside its query span");
        assert!(
            ev.t0_ns + ev.dur_ns <= parent.t0_ns + parent.dur_ns,
            "span ends inside its query span"
        );
    }
    // Stage ids stay within the plan's declared stages; morsels carry
    // the stage they executed under and their batch size, and every
    // scan goes through `map_scan`: a stage's morsels cover its table
    // exactly once, builds and probe→builds included.
    for (i, (q, e, tables)) in runs.iter().enumerate() {
        let stages = stage_count(*q) as u16;
        assert_eq!(tables.len(), stages as usize);
        let run_seq = query_spans[i].run_seq;
        let mut saw_stage = false;
        let mut saw_morsel = false;
        let mut morsel_rows = vec![0usize; tables.len()];
        for ev in events.iter().filter(|e| e.run_seq == run_seq) {
            match ev.kind {
                SpanKind::Query => assert_eq!(ev.query, q.ordinal()),
                SpanKind::Stage => {
                    saw_stage = true;
                    assert!(ev.stage < stages, "stage id within plan bounds");
                }
                SpanKind::Morsel => {
                    saw_morsel = true;
                    assert!(ev.stage < stages);
                    assert!(ev.rows > 0, "morsel spans carry their batch size");
                    morsel_rows[ev.stage as usize] += ev.rows as usize;
                }
            }
        }
        assert!(saw_stage, "{} emitted stage spans", q.name());
        assert!(saw_morsel, "{} emitted morsel spans", q.name());
        for (stage, table) in tables.iter().enumerate() {
            assert_eq!(
                morsel_rows[stage],
                session.db().table(table).len(),
                "{} on {e:?}: stage {stage}'s morsel spans cover {table}",
                q.name()
            );
        }
    }

    let doc = chrome_trace(&events, &dbep_queries::trace_names());
    assert!(doc.starts_with("{\"displayTimeUnit\""));
    assert_eq!(
        doc.matches('{').count(),
        doc.matches('}').count(),
        "balanced braces"
    );
    for needle in [
        "\"cat\": \"query\"",
        "\"cat\": \"stage\"",
        "\"cat\": \"morsel\"",
        "\"ph\": \"X\"",
        "\"name\": \"q1\"",
        "\"name\": \"q6\"",
        "\"engine\": \"typer\"",
        "\"engine\": \"tectorwise\"",
    ] {
        assert!(doc.contains(needle), "{needle} missing from export");
    }
}

/// A shared `Vec<u8>` sink observable while the log is live.
#[derive(Clone, Default)]
struct SharedBuf(Arc<Mutex<Vec<u8>>>);

impl Write for SharedBuf {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.0.lock().unwrap().extend_from_slice(buf);
        Ok(buf.len())
    }
    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

#[test]
fn query_log_roundtrips_and_replays() {
    let buf = SharedBuf::default();
    let log = Arc::new(QueryLog::new(Box::new(buf.clone())));
    let session = Session::with_cfg(tpch(), ExecCfg::with_threads(2)).with_query_log(Arc::clone(&log));
    let mut expected = Vec::new();
    for q in [QueryId::Q1, QueryId::Q3, QueryId::Q6] {
        let prepared = session.prepare(q);
        for e in [Engine::Typer, Engine::Tectorwise, Engine::Adaptive] {
            expected.push((q, e, prepared.run(e)));
        }
    }
    assert_eq!(log.len(), expected.len() as u64);

    let text = String::from_utf8(buf.0.lock().unwrap().clone()).unwrap();
    let records: Vec<QueryLogRecord> = text
        .lines()
        .map(|l| QueryLogRecord::parse(l).expect("every log line parses"))
        .collect();
    assert_eq!(records.len(), expected.len());

    let replay = Session::new(tpch());
    for (i, (rec, (q, e, result))) in records.iter().zip(&expected).enumerate() {
        assert_eq!(rec.seq, i as u64, "seqs follow run order");
        assert_eq!(rec.query, q.name());
        assert_eq!(rec.engine, e.name());
        assert_eq!(rec.rows, result.len() as u64);
        assert_eq!(
            rec.stage_ns.len(),
            stage_count(*q),
            "the log attaches a stage trace covering every declared stage"
        );
        assert!(rec.morsels_executed >= 1, "pooled runs execute morsels");
        // A record is replayable: its query and engine names resolve,
        // and re-running the binding reproduces the logged execution.
        let qid = QueryId::from_name(&rec.query).expect("logged query name resolves");
        let engine: Engine = rec.engine.parse().expect("logged engine name resolves");
        let rerun = replay.prepare(qid).run(engine);
        assert_eq!(
            &rerun, result,
            "replay of {} on {} reproduces the run",
            rec.query, rec.engine
        );
    }
    // The parameter fingerprint identifies the binding: stable across
    // runs of one prepared query, distinct across queries.
    for pair in records.chunks(3) {
        assert!(pair.windows(2).all(|w| w[0].params_fp == w[1].params_fp));
    }
    assert_ne!(records[0].params_fp, records[3].params_fp);
    // Rendering a parsed record re-produces a parseable line (the
    // format is its own fixed point).
    let rendered = records[4].to_json_line();
    assert_eq!(QueryLogRecord::parse(&rendered), Some(records[4].clone()));
}

#[test]
fn metrics_bundle_agrees_with_runs_and_plan_cache() {
    let metrics = EngineMetrics::new();
    let session = Session::with_cfg(tpch(), ExecCfg::with_threads(2)).with_metrics(Arc::clone(&metrics));
    const REPS: u64 = 3;
    let mut runs = 0;
    for q in [QueryId::Q1, QueryId::Q6] {
        let prepared = session.prepare(q);
        for _ in 0..REPS {
            prepared.run(Engine::Typer);
            runs += 1;
        }
    }
    let hit = session.prepare(QueryId::Q1);
    assert!(hit.cache_hit(), "re-prepare of a seen binding hits the cache");

    assert_eq!(metrics.queries_started.get(), runs);
    assert_eq!(metrics.queries_completed.get(), runs);
    assert_eq!(metrics.query_latency_ns.count(), runs);
    assert_eq!(metrics.queue_wait_ns.count(), runs);
    assert!(
        metrics.morsels_executed_total.get() >= runs,
        "every pooled run executes morsels"
    );
    assert!(metrics.bytes_scanned_total.get() > 0);

    // The bundle and PlanCacheStats count the same events.
    let stats = session.plan_cache_stats();
    assert_eq!(metrics.plan_cache_misses.get(), stats.misses);
    assert_eq!(metrics.plan_cache_hits.get(), stats.hits);
    assert_eq!(stats.misses, 2);
    assert_eq!(stats.hits, 1);

    // Both exposition formats carry the observed values.
    let json = metrics.registry().snapshot_json();
    for name in ["queries_completed", "plan_cache_hits", "query_latency_ns"] {
        assert!(json.contains(name), "{name} missing from JSON snapshot");
    }
    let prom = metrics.registry().prometheus();
    assert!(prom.contains("# TYPE queries_completed counter"));
    assert!(prom.contains(&format!("queries_completed {runs}\n")));
    assert!(prom.contains(&format!("query_latency_ns_count {runs}\n")));
}
