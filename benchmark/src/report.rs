//! What a run prints and records: every metric by name with its unit,
//! the run record (`<out>/<workload>[.traced].json`) and, last on
//! stdout, the one-line result object the driver reads. JSON is written
//! with `dbep_bench::json`, the host facts come from
//! `dbep_bench::hwinfo`.

use crate::catalog::{Workload, DATA_SEED, END_TO_END, PER_LAYER};
use dbep_bench::json::{self, Object};
use dbep_core::queries::ExecCfg;
use std::path::PathBuf;
use std::time::Instant;

/// One `bench run` invocation.
pub struct Opts {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub quick: bool,
    pub out_dir: PathBuf,
    /// Process start, where `setup_s` begins.
    pub started: Instant,
}

/// `(name, value)` per metric, in catalogue order.
pub type Metrics = Vec<(&'static str, f64)>;

/// Already-rendered JSON members for the run record (sample counts per
/// pair, cycles, waterfall, ...).
pub type Detail = Vec<(&'static str, String)>;

/// What a workload driver hands back.
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// Every metric of the mode's catalogue.
    pub metrics: Metrics,
    pub detail: Detail,
}

impl Outcome {
    pub fn correct(&self) -> bool {
        self.failed == 0
    }
}

pub fn unit_of(name: &str) -> &'static str {
    END_TO_END
        .iter()
        .chain(PER_LAYER.iter())
        .find(|(n, _)| *n == name)
        .map_or("", |(_, unit)| unit)
}

/// The checked-out commit, read from `.git` under the working
/// directory (the driver's checkout has none: `"unknown"`).
fn git_commit() -> String {
    let read = |p: &str| std::fs::read_to_string(p).ok().map(|s| s.trim().to_string());
    let Some(head) = read(".git/HEAD") else {
        return "unknown".to_string();
    };
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head;
    };
    read(&format!(".git/{reference}"))
        .or_else(|| {
            let packed = read(".git/packed-refs")?;
            let line = packed.lines().find(|l| l.ends_with(reference))?;
            Some(line.split_whitespace().next()?.to_string())
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// The run record's `run` member: everything needed to judge whether
/// two records are comparable.
fn run_facts(opts: &Opts) -> String {
    let wl = &opts.workload;
    let host: Vec<String> = dbep_bench::hwinfo::report().lines().map(str::to_string).collect();
    let line = |prefix: &str| {
        host.iter()
            .find_map(|l| l.strip_prefix(prefix))
            .unwrap_or("unknown")
            .to_string()
    };
    let caches = host
        .iter()
        .filter(|l| l.starts_with('L') && l.contains("cache"))
        .cloned();
    let parallelism = std::thread::available_parallelism().map_or(1, |n| n.get());
    Object::new()
        .field("git_commit", json::string(&git_commit()))
        .field("seed", opts.seed.to_string())
        .field("data_seed", DATA_SEED.to_string())
        .field("seconds", json::number(opts.seconds))
        .field("quick", opts.quick.to_string())
        .field("sf", json::number(wl.sf))
        .field("threads", wl.threads.to_string())
        .field("clients", wl.clients.to_string())
        .field("rounds_per_cycle", wl.volcano_every.to_string())
        .field("min_cycles", wl.min_cycles.to_string())
        .field("available_parallelism", parallelism.to_string())
        .field("cpu_model", json::string(&line("model: ")))
        .field("caches", json::array(caches.map(|c| json::string(&c))))
        .field(
            "simd_detected",
            json::string(&dbep_core::runtime::simd::describe()),
        )
        .field(
            "simd_policy",
            json::string(&format!("{:?}", ExecCfg::default().policy)),
        )
        .field(
            "hardware_counters",
            dbep_core::runtime::CounterSet::available().to_string(),
        )
        .field("counters_mode", json::string(dbep_bench::counters_note()))
        .field("host", json::array(host.iter().map(|l| json::string(l))))
        .build()
}

fn metrics_object(metrics: &Metrics) -> String {
    metrics
        .iter()
        .fold(Object::new(), |o, (name, value)| {
            o.field(
                name,
                Object::new()
                    .field("value", json::number(*value))
                    .field("unit", json::string(unit_of(name)))
                    .build(),
            )
        })
        .build()
}

/// Print the metrics, write the run record, and print the result line.
pub fn emit(opts: &Opts, outcome: &Outcome) -> std::io::Result<()> {
    let wl = &opts.workload;
    println!(
        "# {} seed {} trace {} seconds {} sf {} threads {} clients {}",
        wl.name, opts.seed, opts.trace as u8, opts.seconds, wl.sf, wl.threads, wl.clients
    );
    for (name, value) in &outcome.metrics {
        println!("{name:<36} {value:>16.4} {}", unit_of(name));
    }
    let fail_ratio = outcome.failed as f64 / outcome.attempted.max(1) as f64;
    println!(
        "{:<36} {fail_ratio:>16.4} ratio ({} failed of {})",
        "fail_ratio", outcome.failed, outcome.attempted
    );

    let mut record = Object::new()
        .field("benchmark", json::string("dbep-benchmark"))
        .field("workload", json::string(wl.name))
        .field("why", json::string(wl.why))
        .field("trace", opts.trace.to_string())
        .field("run", run_facts(opts))
        .field("correct", outcome.correct().to_string())
        .field("attempted", outcome.attempted.to_string())
        .field("failed", outcome.failed.to_string())
        .field("fail_ratio", json::number(fail_ratio))
        .field("metrics", metrics_object(&outcome.metrics));
    for (key, rendered) in &outcome.detail {
        record = record.field(key, rendered.clone());
    }
    // This change defines the benchmark and claims no gain.
    let record = record.field("claim", "null").build();
    std::fs::create_dir_all(&opts.out_dir)?;
    let file = format!("{}{}.json", wl.name, if opts.trace { ".traced" } else { "" });
    std::fs::write(opts.out_dir.join(file), record + "\n")?;

    println!(
        "{}",
        Object::new()
            .field("correct", outcome.correct().to_string())
            .field("attempted", outcome.attempted.to_string())
            .field("failed", outcome.failed.to_string())
            .field("metrics", metrics_object(&outcome.metrics))
            .build()
    );
    Ok(())
}
