//! Samples and the end-to-end numbers derived from them. Percentiles
//! come from `dbep_bench::serve_stats::percentile`, the repo's one
//! interpolating implementation.

use crate::report::{Detail, Metrics};
use crate::schedule::LIGHT;
use dbep_bench::json::{self, Object};
use dbep_bench::serve_stats::percentile;
use dbep_core::queries::{Engine, QueryId};
use std::time::Duration;

/// One completed request as its client saw it.
#[derive(Clone, Copy, Debug)]
pub struct Sample {
    pub query: QueryId,
    pub engine: Engine,
    /// Send (closed loop) or due time (open loop) to response.
    pub latency: Duration,
    /// A RESULT that matched the reference for its binding. A failed
    /// request is attempted but missing from every latency number.
    pub ok: bool,
}

pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

pub fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// `p`-quantile of `durations` (any order).
pub fn quantile(durations: &[Duration], p: f64) -> Duration {
    let mut sorted = durations.to_vec();
    sorted.sort_unstable();
    percentile(&sorted, p)
}

/// `p`-quantile of non-negative numbers, through the same
/// implementation (a `Duration` is a non-negative number of seconds).
pub fn quantile_f64(values: &[f64], p: f64) -> f64 {
    let durations: Vec<Duration> = values
        .iter()
        .map(|v| Duration::from_secs_f64(v.max(0.0)))
        .collect();
    quantile(&durations, p).as_secs_f64()
}

/// `num / den`, or 0 when nothing was measured.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

pub fn geomean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    (values.iter().map(|v| v.ln()).sum::<f64>() / values.len() as f64).exp()
}

/// Median latency and sample count of one `(query, engine)` pair.
#[derive(Clone, Copy, Debug)]
pub struct Pair {
    pub query: QueryId,
    pub engine: Engine,
    pub samples: usize,
    pub median_ms: f64,
}

pub fn pairs(samples: &[Sample], queries: &[QueryId]) -> Vec<Pair> {
    let mut out = Vec::new();
    for &query in queries {
        for engine in Engine::SELECTABLE {
            let latencies: Vec<Duration> = samples
                .iter()
                .filter(|s| s.ok && s.query == query && s.engine == engine)
                .map(|s| s.latency)
                .collect();
            out.push(Pair {
                query,
                engine,
                samples: latencies.len(),
                median_ms: ms(quantile(&latencies, 0.5)),
            });
        }
    }
    out
}

/// Geometric mean over the queries of `engine`'s per-pair medians, and
/// the smallest sample count among those pairs.
pub fn engine_ms(pairs: &[Pair], engine: Engine) -> (f64, usize) {
    let of_engine: Vec<&Pair> = pairs
        .iter()
        .filter(|p| p.engine == engine && p.samples > 0)
        .collect();
    let medians: Vec<f64> = of_engine.iter().map(|p| p.median_ms).collect();
    let fewest = of_engine.iter().map(|p| p.samples).min().unwrap_or(0);
    (geomean(&medians), fewest)
}

/// Latencies of the light-engine requests that succeeded: what
/// `latency_p95_ms` is taken over.
pub fn light_latencies(samples: &[Sample]) -> Vec<Duration> {
    samples
        .iter()
        .filter(|s| s.ok && LIGHT.contains(&s.engine))
        .map(|s| s.latency)
        .collect()
}

/// Peak resident set of this process (`VmHWM`), in MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.split_whitespace().next())
        .and_then(|kb| kb.parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

fn pair_table(pairs: &[Pair]) -> String {
    json::array(pairs.iter().filter(|p| p.samples > 0).map(|p| {
        Object::new()
            .field("query", json::string(p.query.name()))
            .field("engine", json::string(p.engine.name()))
            .field("samples", p.samples.to_string())
            .field("median_ms", json::number(p.median_ms))
            .build()
    }))
}

/// The spread of a latency sample for the run record: p50 to p99.
pub fn percentiles_ms(latencies: &[Duration]) -> String {
    [0.5, 0.75, 0.9, 0.95, 0.99]
        .iter()
        .fold(Object::new(), |o, p| {
            o.field(
                &format!("p{}", p * 100.0),
                json::number(ms(quantile(latencies, *p))),
            )
        })
        .build()
}

/// The eight end-to-end metrics, with the sample counts behind them as
/// run-record detail: the per-engine latencies from `engine_samples`,
/// the p95 from the light requests among `tail_samples` (the same
/// samples in process; the open and the closed phase on `serve_mix`).
pub fn end_to_end(
    setup_s: f64,
    queries: &[QueryId],
    engine_samples: &[Sample],
    tail_samples: &[Sample],
    throughput_qps: f64,
) -> (Metrics, Detail) {
    let pairs = pairs(engine_samples, queries);
    let mut metrics = vec![("setup_s", setup_s)];
    let mut fewest = Object::new();
    for (name, engine) in [
        ("typer_ms", Engine::Typer),
        ("tectorwise_ms", Engine::Tectorwise),
        ("adaptive_ms", Engine::Adaptive),
        ("volcano_ms", Engine::Volcano),
    ] {
        let (ms, samples) = engine_ms(&pairs, engine);
        metrics.push((name, ms));
        fewest = fewest.field(engine.name(), samples.to_string());
    }
    let lights = light_latencies(tail_samples);
    metrics.push(("latency_p95_ms", ms(quantile(&lights, 0.95))));
    let tail = percentiles_ms(&lights);
    metrics.push(("throughput_qps", throughput_qps));
    metrics.push(("peak_rss_mb", peak_rss_mb()));
    let detail = vec![
        ("fewest_samples_per_pair", fewest.build()),
        ("light_requests_behind_p95", lights.len().to_string()),
        ("light_latency_ms", tail),
        ("pairs", pair_table(&pairs)),
    ];
    (metrics, detail)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn geomean_and_quantiles() {
        assert!((geomean(&[1.0, 100.0]) - 10.0).abs() < 1e-9);
        assert_eq!(geomean(&[]), 0.0);
        let v = [4.0, 1.0, 3.0, 2.0, 5.0];
        assert!((quantile_f64(&v, 0.5) - 3.0).abs() < 1e-9);
        assert!((quantile_f64(&v, 0.25) - 2.0).abs() < 1e-9);
    }

    #[test]
    fn failed_samples_are_missing_from_latency_numbers() {
        let sample = |latency_ms, ok| Sample {
            query: QueryId::Q6,
            engine: Engine::Typer,
            latency: Duration::from_millis(latency_ms),
            ok,
        };
        let samples = [sample(10, true), sample(1000, false), sample(30, true)];
        let pairs = pairs(&samples, &[QueryId::Q6]);
        let (typer, fewest) = engine_ms(&pairs, Engine::Typer);
        assert_eq!(fewest, 2);
        assert!((typer - 20.0).abs() < 1e-6);
        assert_eq!(light_latencies(&samples).len(), 2);
        assert!(peak_rss_mb() > 0.0);
    }
}
