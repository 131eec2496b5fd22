//! What the benchmark runs and what it reports: the four workloads and
//! the two metric catalogues. `BENCHMARK.json` at the repo root names
//! the same workloads and metrics (held to that by `tests/quick.rs`)
//! and owns the regression bounds; README.md has the definitions.

use dbep_core::queries::QueryId;

/// Seconds one run measures unless `--seconds` says otherwise; equals
/// `run_seconds` in `BENCHMARK.json`.
pub const DEFAULT_SECONDS: f64 = 15.0;

/// The database seed. Fixed and separate from the workload `--seed`:
/// the data never changes, only the schedule of requests over it.
pub const DATA_SEED: u64 = 42;

/// Scale factor of `--quick` runs; the scale `tests/params_pin.rs`
/// pins its fingerprints at.
pub const QUICK_SF: f64 = 0.01;

/// The set-up's build part (datagen, encode, sessions, PREPAREs) is
/// repeated this often in an untraced run; `setup_s` takes the median.
pub const BUILD_REPS: usize = 3;

/// Capacity of a traced run's span sink: room for every stage and
/// morsel span of a pass (`obs.spans_dropped` says if it was not).
pub const SINK_CAPACITY: usize = 1 << 20;

/// How a workload reaches the engines.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    /// One closed-loop client calling a `Session` in this process.
    InProcess { encoded: bool },
    /// `dbep_net::Server` in this process, clients over loopback TCP.
    Serve,
}

/// One workload: a seeded schedule of `(query, binding, engine)`
/// requests over a fixed database.
#[derive(Clone, Copy, Debug)]
pub struct Workload {
    pub name: &'static str,
    /// One line, repeated in `BENCHMARK.json`.
    pub why: &'static str,
    pub kind: Kind,
    pub sf: f64,
    /// Scheduler workers of the session or server.
    pub threads: usize,
    /// Concurrent clients (connections for `Serve`).
    pub clients: usize,
    pub queries: &'static [QueryId],
    /// Each query also runs under Volcano every `volcano_every`-th
    /// round (staggered by query). That many rounds make one *cycle*:
    /// the unit of equal work the timed phase repeats and stops on.
    pub volcano_every: usize,
    /// Cycles a time-cut phase always completes, however slow the host.
    /// In process: enough for 10 samples per light pair and 3 per
    /// Volcano pair. `Serve`: the closed phase only needs a rate; the
    /// open phase's sample count is set by its arrival rate.
    pub min_cycles: usize,
    /// Open-loop arrival rate, requests per second (`Serve` only).
    pub open_rate: f64,
}

impl Workload {
    /// The `--quick` variant: tiny data, two-round cycles, one cycle
    /// at least.
    pub fn quick(mut self) -> Workload {
        self.sf = QUICK_SF;
        self.volcano_every = 2;
        self.min_cycles = 1;
        self
    }

    pub fn encoded(&self) -> bool {
        matches!(self.kind, Kind::InProcess { encoded: true })
    }

    pub fn needs_tpch(&self) -> bool {
        self.queries.iter().any(|q| !QueryId::SSB.contains(q))
    }

    pub fn needs_ssb(&self) -> bool {
        self.queries.iter().any(|q| QueryId::SSB.contains(q))
    }
}

const SCAN_QUERIES: &[QueryId] = &[QueryId::Q1, QueryId::Q6, QueryId::Q14, QueryId::Ssb1_1];
const HASH_QUERIES: &[QueryId] = &[
    QueryId::Q3,
    QueryId::Q9,
    QueryId::Q18,
    QueryId::Ssb2_1,
    QueryId::Ssb4_1,
];

pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "scan_flat",
        why: "Fig. 3 selection/arithmetic plans on flat columns: sel/map primitives and fused loops do the work, hash tables hold a handful of groups, one uncontended worker, no net",
        kind: Kind::InProcess { encoded: false },
        sf: 0.5,
        threads: 1,
        clients: 1,
        queries: SCAN_QUERIES,
        volcano_every: 6,
        min_cycles: 3,
        open_rate: 0.0,
    },
    Workload {
        name: "scan_encoded",
        why: "the scan_flat schedule after Database::encode_all: packed companions, fused decompress-and-select, PackedReader; a gain on one storage path that costs the other shows as this pair diverging",
        kind: Kind::InProcess { encoded: true },
        sf: 0.5,
        threads: 1,
        clients: 1,
        queries: SCAN_QUERIES,
        volcano_every: 6,
        min_cycles: 3,
        open_rate: 0.0,
    },
    Workload {
        name: "hash_heavy",
        why: "Table 3 join and high-cardinality aggregate plans on a 2-worker pool: join_ht/agg_ht/hash and probe/hashp/gather dominate, tables exceed L2, morsel dispatch and partition merge run every request",
        kind: Kind::InProcess { encoded: false },
        sf: 0.5,
        threads: 2,
        clients: 1,
        queries: HASH_QUERIES,
        volcano_every: 4,
        min_cycles: 3,
        open_rate: 0.0,
    },
    Workload {
        name: "serve_mix",
        why: "all 12 queries over loopback TCP on one pool worker, small data: net, plan cache, admission and cross-query fairness do the work; heavy Volcano among light requests makes the tail a scheduling result",
        kind: Kind::Serve,
        sf: 0.02,
        threads: 1,
        clients: 2,
        queries: &QueryId::ALL,
        volcano_every: 6,
        min_cycles: 1,
        open_rate: 100.0,
    },
];

pub fn workload(name: &str) -> Option<Workload> {
    WORKLOADS.into_iter().find(|w| w.name == name)
}

/// `(name, unit)` of every end-to-end metric, in print order. The
/// untraced run reports exactly these. `fail_ratio` is not among them:
/// a metric that is normally 0 has no relative bound, so failures
/// travel as `attempted`/`failed` beside the metrics and `bench diff`
/// rejects any increase.
pub const END_TO_END: [(&str, &str); 8] = [
    ("setup_s", "s"),
    ("typer_ms", "ms"),
    ("tectorwise_ms", "ms"),
    ("adaptive_ms", "ms"),
    ("volcano_ms", "ms"),
    ("latency_p95_ms", "ms"),
    ("throughput_qps", "1/s"),
    ("peak_rss_mb", "MB"),
];

/// `(name, unit)` of every per-layer metric, in print order; the layer
/// is the crate name before the first dot. The traced run reports
/// exactly these, `0` where a layer does no work on the workload.
pub const PER_LAYER: [(&str, &str); 62] = [
    ("datagen.tpch_s", "s"),
    ("datagen.ssb_s", "s"),
    ("datagen.rows_per_s", "rows/s"),
    ("storage.encode_s", "s"),
    ("storage.flat_bytes", "bytes"),
    ("storage.encoded_bytes", "bytes"),
    ("storage.bytes_ratio", "ratio"),
    ("storage.scan_bytes", "bytes"),
    ("storage.scan_bytes_typer", "bytes"),
    ("storage.scan_bytes_tectorwise", "bytes"),
    ("storage.scan_bytes_volcano", "bytes"),
    ("storage.scan_gbps_typer", "GB/s"),
    ("storage.scan_gbps_tectorwise", "GB/s"),
    ("host.read_gbps", "GB/s"),
    ("host.l2_gather_ns", "ns/elem"),
    ("runtime.join_build_ns_per_key", "ns/key"),
    ("runtime.join_probe_ns_per_key", "ns/key"),
    ("runtime.join_probe_l2_ns_per_key", "ns/key"),
    ("runtime.agg_update_ns_per_row", "ns/row"),
    ("runtime.hash_crc_ns_per_key", "ns/key"),
    ("runtime.hash_murmur_ns_per_key", "ns/key"),
    ("vectorized.sel_dense_ns_per_elem", "ns/elem"),
    ("vectorized.sel_sparse_ns_per_elem", "ns/elem"),
    ("vectorized.sel_packed_ns_per_elem", "ns/elem"),
    ("vectorized.probe_ns_per_elem", "ns/elem"),
    ("vectorized.hash_ns_per_elem", "ns/elem"),
    ("vectorized.gather_ns_per_elem", "ns/elem"),
    ("vectorized.ns_per_tuple", "ns/tuple"),
    ("compiled.packed_read_ns_per_elem", "ns/elem"),
    ("compiled.ns_per_tuple", "ns/tuple"),
    ("volcano.ns_per_tuple", "ns/tuple"),
    ("scheduler.dispatch_ns_per_morsel", "ns/morsel"),
    ("scheduler.morsels", "count"),
    ("scheduler.tasks", "count"),
    ("scheduler.steals", "count"),
    ("scheduler.queue_wait_ms", "ms"),
    ("scheduler.admission_wait_ms", "ms"),
    ("scheduler.parallel_efficiency", "ratio"),
    ("queries.stage_ms.scan_filter", "ms"),
    ("queries.stage_ms.join_build", "ms"),
    ("queries.stage_ms.join_probe", "ms"),
    ("queries.stage_ms.aggregate", "ms"),
    ("queries.stage_coverage", "ratio"),
    ("core.prepare_hit_us", "us"),
    ("core.prepare_miss_us", "us"),
    ("core.plan_cache_hit_ratio", "ratio"),
    ("core.plan_cache_entries", "count"),
    ("core.adaptive_explore_runs", "count"),
    ("core.adaptive_mixed_plans", "count"),
    ("net.rtt_us", "us"),
    ("net.wire_overhead_us", "us"),
    ("net.server_wire_us", "us"),
    ("net.retries", "count"),
    ("net.errors", "count"),
    ("net.busy", "count"),
    ("net.generator_lag_ms_p95", "ms"),
    ("net.open_p95_ms", "ms"),
    ("net.max_rate_ok", "1/s"),
    ("obs.trace_overhead", "ratio"),
    ("obs.spans_dropped", "count"),
    ("obs.spans_recorded", "count"),
    ("obs.waterfall_gap", "ratio"),
];
