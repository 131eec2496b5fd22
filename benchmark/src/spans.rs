//! The benchmark's own spans: recorded in memory around the calls into
//! each layer, completed with child intervals from the evidence those
//! calls return, and written out as Chrome `trace_event` JSON when the
//! run ends. Spans *inside* the program are a later change.
//!
//! A span's layer is the part of its name before the first dot. Its
//! self time is its duration minus what its children cover; the self
//! times of one request must sum to the request span, and how far they
//! miss is the *waterfall gap* — evidence that overruns the interval it
//! was measured in shows up there.

use crate::report::Detail;
use dbep_bench::json::{self, Object};
use dbep_core::obs::{chrome_trace, SpanEvent, SpanKind};
use dbep_core::queries::{trace_names, Engine, QueryId, StageKind};
use std::collections::BTreeMap;
use std::path::Path;
use std::time::Instant;

/// Every span name the benchmark records. The position is the span's
/// `stage` ordinal in the exported trace.
pub const NAMES: [&str; 11] = [
    "request",
    "core.prepare",
    "queries.run",
    "net.call",
    "net.server_wire",
    "scheduler.admission_wait",
    "scheduler.queue_wait",
    "queries.stage.scan_filter",
    "queries.stage.join_build",
    "queries.stage.join_probe",
    "queries.stage.aggregate",
];

const KINDS: [StageKind; 4] = [
    StageKind::ScanFilter,
    StageKind::JoinBuild,
    StageKind::JoinProbe,
    StageKind::Aggregate,
];

/// The span name of a stage kind.
pub fn stage_span(kind: StageKind) -> &'static str {
    match kind {
        StageKind::ScanFilter => "queries.stage.scan_filter",
        StageKind::JoinBuild => "queries.stage.join_build",
        StageKind::JoinProbe => "queries.stage.join_probe",
        StageKind::Aggregate => "queries.stage.aggregate",
    }
}

pub fn kind_index(kind: StageKind) -> usize {
    KINDS.iter().position(|k| *k == kind).expect("four kinds")
}

#[derive(Clone, Copy, Debug)]
pub struct Span {
    pub name: &'static str,
    /// Index of the causing span in the recorder; `None` for a request.
    pub parent: Option<usize>,
    /// Shared by all spans of one request.
    pub request: u32,
    pub start_ns: u64,
    pub end_ns: u64,
    pub query: QueryId,
    pub engine: Engine,
}

impl Span {
    fn dur(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// One client thread's spans; recorders of one run share the epoch.
pub struct Recorder {
    epoch: Instant,
    tid: u16,
    pub spans: Vec<Span>,
}

impl Recorder {
    pub fn new(epoch: Instant, tid: u16) -> Recorder {
        Recorder {
            epoch,
            tid,
            spans: Vec::new(),
        }
    }

    /// Nanoseconds since the epoch.
    pub fn at(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    pub fn push(&mut self, span: Span) -> usize {
        debug_assert!(
            NAMES.contains(&span.name),
            "{} is not a catalogued span",
            span.name
        );
        self.spans.push(span);
        self.spans.len() - 1
    }

    /// Append a child of `parent` covering `[start_ns, start_ns + dur_ns)`.
    pub fn child(&mut self, parent: usize, name: &'static str, start_ns: u64, dur_ns: u64) -> usize {
        let Span {
            request,
            query,
            engine,
            ..
        } = self.spans[parent];
        self.push(Span {
            name,
            parent: Some(parent),
            request,
            start_ns,
            end_ns: start_ns + dur_ns,
            query,
            engine,
        })
    }
}

/// Self time per span name, summed over all requests, and the worst
/// per-request miss between the summed parts and the whole.
pub struct Waterfall {
    pub self_ns: BTreeMap<&'static str, u64>,
    pub requests: usize,
    /// max over requests of |Σ self − request| / request.
    pub gap: f64,
}

pub fn waterfall(recorders: &[Recorder]) -> Waterfall {
    let mut self_ns: BTreeMap<&'static str, u64> = BTreeMap::new();
    let mut requests = 0;
    let mut gap = 0.0_f64;
    for rec in recorders {
        let mut children: Vec<Vec<usize>> = vec![Vec::new(); rec.spans.len()];
        for (i, s) in rec.spans.iter().enumerate() {
            if let Some(p) = s.parent {
                children[p].push(i);
            }
        }
        let mut parts: BTreeMap<u32, u64> = BTreeMap::new();
        for (i, s) in rec.spans.iter().enumerate() {
            // Union of the children's intervals, clipped to the span.
            let mut kids: Vec<(u64, u64)> = children[i]
                .iter()
                .map(|&c| {
                    (
                        rec.spans[c].start_ns.max(s.start_ns),
                        rec.spans[c].end_ns.min(s.end_ns),
                    )
                })
                .filter(|(a, b)| b > a)
                .collect();
            kids.sort_unstable();
            let mut covered = 0;
            let mut reach = s.start_ns;
            for (a, b) in kids {
                let a = a.max(reach);
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            let own = s.dur() - covered;
            *self_ns.entry(s.name).or_default() += own;
            *parts.entry(s.request).or_default() += own;
        }
        for s in rec.spans.iter().filter(|s| s.parent.is_none()) {
            requests += 1;
            let whole = s.dur().max(1) as f64;
            let summed = parts[&s.request] as f64;
            gap = gap.max((summed - whole).abs() / whole);
        }
    }
    Waterfall {
        self_ns,
        requests,
        gap,
    }
}

/// Write `<out_dir>/<workload>.trace.json` and return the run-record
/// detail that goes with it. A trace that cannot be written is a
/// warning: the metrics are still worth having.
pub fn write_trace(
    out_dir: &Path,
    workload: &str,
    recorders: &[Recorder],
    waterfall: &Waterfall,
    counts: &[(&'static str, f64)],
) -> Detail {
    let path = out_dir.join(format!("{workload}.trace.json"));
    let written =
        std::fs::create_dir_all(out_dir).and_then(|()| std::fs::write(&path, chrome(recorders, counts)));
    if let Err(e) = written {
        eprintln!("warning: could not write {}: {e}", path.display());
    }
    let self_ms = waterfall.self_ns.iter().fold(Object::new(), |o, (name, ns)| {
        o.field(name, json::number(*ns as f64 / 1e6))
    });
    vec![
        ("waterfall_requests", waterfall.requests.to_string()),
        ("waterfall_self_ms", self_ms.build()),
        ("trace_file", json::string(&path.display().to_string())),
    ]
}

/// Chrome `trace_event` JSON of all spans, through the repo's exporter
/// (`dbep_obs::chrome`), with `counts` added as a top-level member.
pub fn chrome(recorders: &[Recorder], counts: &[(&'static str, f64)]) -> String {
    // The exporter names a stage span from its query's stage table;
    // handing every query the span-name table makes `stage` the span's
    // ordinal in [`NAMES`] while `args` keeps the real query and engine.
    let mut names = trace_names();
    for q in &mut names.queries {
        q.stages = NAMES.iter().map(|n| n.to_string()).collect();
    }
    let events: Vec<SpanEvent> = recorders
        .iter()
        .flat_map(|rec| {
            rec.spans.iter().map(|s| SpanEvent {
                kind: SpanKind::Stage,
                query: s.query.ordinal(),
                engine: s.engine.ordinal(),
                stage: NAMES.iter().position(|n| *n == s.name).unwrap_or(0) as u16,
                tid: rec.tid,
                run_seq: s.request,
                rows: 0,
                t0_ns: s.start_ns,
                dur_ns: s.dur(),
            })
        })
        .collect();
    let doc = chrome_trace(&events, &names);
    let body = doc.strip_suffix('}').expect("the exporter emits an object");
    let counts = counts
        .iter()
        .fold(Object::new(), |o, (k, v)| o.field(k, json::number(*v)));
    format!("{body}, \"counts\": {}}}", counts.build())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn request(rec: &mut Recorder, id: u32, start: u64, end: u64) -> usize {
        rec.push(Span {
            name: "request",
            parent: None,
            request: id,
            start_ns: start,
            end_ns: end,
            query: QueryId::Q6,
            engine: Engine::Typer,
        })
    }

    #[test]
    fn self_times_sum_to_the_request_when_evidence_fits() {
        let mut rec = Recorder::new(Instant::now(), 1);
        let root = request(&mut rec, 0, 0, 1000);
        rec.child(root, "core.prepare", 0, 100);
        let run = rec.child(root, "queries.run", 100, 900);
        rec.child(run, "scheduler.admission_wait", 100, 50);
        rec.child(run, "queries.stage.scan_filter", 150, 800);
        let w = waterfall(&[rec]);
        assert_eq!(w.requests, 1);
        assert!(w.gap < 1e-9, "gap {}", w.gap);
        assert_eq!(w.self_ns["request"], 0);
        assert_eq!(w.self_ns["queries.run"], 50);
        assert_eq!(w.self_ns["queries.stage.scan_filter"], 800);
    }

    #[test]
    fn evidence_that_overruns_its_interval_opens_a_gap() {
        let mut rec = Recorder::new(Instant::now(), 1);
        let root = request(&mut rec, 0, 0, 1000);
        let run = rec.child(root, "queries.run", 0, 1000);
        // A stage longer than the run it happened in.
        rec.child(run, "queries.stage.join_probe", 0, 1500);
        let w = waterfall(&[rec]);
        assert!((w.gap - 0.5).abs() < 1e-9, "gap {}", w.gap);
    }

    #[test]
    fn export_names_spans_and_carries_counts() {
        let mut rec = Recorder::new(Instant::now(), 3);
        let root = request(&mut rec, 7, 0, 1000);
        rec.child(root, "net.call", 10, 900);
        let doc = chrome(&[rec], &[("net.retries", 0.0)]);
        assert!(doc.contains("\"name\": \"request\""));
        assert!(doc.contains("\"name\": \"net.call\""));
        assert!(doc.contains("\"query\": \"q6\""));
        assert!(doc.contains("\"run\": 7"));
        assert!(doc.ends_with("\"counts\": {\"net.retries\":0}}"));
    }
}
