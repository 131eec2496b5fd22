//! `bench suite`, `bench diff` and `bench aa`: run the whole benchmark,
//! and compare two sets of runs under the bounds `BENCHMARK.json` fixes.
//!
//! A suite runs every workload in a process of its own, `--runs` times
//! with seeds `seed, seed+1, ...`, and records per (workload, metric)
//! the values, their median and quartiles, and the *spread* (distance
//! between the quartiles as a share of the median). `diff` then calls
//! each (metric, workload) `worse` when the second median is worse than
//! the first by more than the metric's bound, `within` when it is not,
//! and `unresolved` when either side's spread exceeds the bound (or too
//! few runs were made to know it): noise that wide cannot show a change
//! that small.

use crate::catalog::{DEFAULT_SECONDS, END_TO_END, WORKLOADS};
use crate::jsonin::Json;
use crate::report::unit_of;
use crate::stats::quantile_f64;
use dbep_bench::json::{self, Object};
use std::path::{Path, PathBuf};
use std::process::Command;

/// Runs per side below which quartiles say nothing.
const MIN_RUNS_FOR_SPREAD: usize = 4;

pub struct SuiteOpts {
    pub runs: usize,
    pub seed: u64,
    pub seconds: f64,
    pub quick: bool,
    pub out_dir: PathBuf,
    pub summary: PathBuf,
}

impl SuiteOpts {
    pub fn new(out_dir: PathBuf) -> SuiteOpts {
        SuiteOpts {
            runs: 1,
            seed: 1,
            seconds: DEFAULT_SECONDS,
            quick: false,
            summary: out_dir.join("summary.json"),
            out_dir,
        }
    }
}

/// One `bench run` in a child process; returns its parsed result line.
fn run_child(opts: &SuiteOpts, workload: &str, seed: u64) -> Result<Json, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find this executable: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["run", "--workload", workload, "--trace", "0"])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &opts.seconds.to_string()])
        .arg("--out")
        .arg(&opts.out_dir);
    if opts.quick {
        cmd.arg("--quick");
    }
    let output = cmd.output().map_err(|e| format!("cannot run {workload}: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    print!("{stdout}");
    if !output.status.success() {
        eprint!("{}", String::from_utf8_lossy(&output.stderr));
        return Err(format!("{workload} seed {seed} exited with {}", output.status));
    }
    let last = stdout
        .lines()
        .last()
        .ok_or_else(|| format!("{workload} printed nothing"))?;
    Json::parse(last)
}

struct Series {
    values: Vec<f64>,
}

impl Series {
    fn median(&self) -> f64 {
        quantile_f64(&self.values, 0.5)
    }

    /// Interquartile distance over the median; `None` below
    /// [`MIN_RUNS_FOR_SPREAD`] runs.
    fn spread(&self) -> Option<f64> {
        (self.values.len() >= MIN_RUNS_FOR_SPREAD && self.median() > 0.0)
            .then(|| (quantile_f64(&self.values, 0.75) - quantile_f64(&self.values, 0.25)) / self.median())
    }

    fn render(&self, name: &str) -> String {
        Object::new()
            .field("unit", json::string(unit_of(name)))
            .field(
                "values",
                json::array(self.values.iter().map(|v| json::number(*v))),
            )
            .field("median", json::number(self.median()))
            .field("q1", json::number(quantile_f64(&self.values, 0.25)))
            .field("q3", json::number(quantile_f64(&self.values, 0.75)))
            .field("spread", self.spread().map_or("null".to_string(), json::number))
            .build()
    }
}

/// Run the whole benchmark and write the summary. `Ok(false)` if any
/// run reported a failed request.
pub fn suite(opts: &SuiteOpts) -> Result<bool, String> {
    let mut all_correct = true;
    let mut workloads = Object::new();
    for wl in WORKLOADS {
        let mut series: Vec<Series> = END_TO_END.iter().map(|_| Series { values: Vec::new() }).collect();
        let (mut attempted, mut failed) = (0.0, 0.0);
        for run in 0..opts.runs {
            let result = run_child(opts, wl.name, opts.seed + run as u64)?;
            all_correct &= result.get("correct") == Some(&Json::Bool(true));
            attempted += result.get("attempted").and_then(Json::num).unwrap_or(0.0);
            failed += result.get("failed").and_then(Json::num).unwrap_or(0.0);
            for ((name, _), s) in END_TO_END.iter().zip(&mut series) {
                let value = result
                    .get("metrics")
                    .and_then(|m| m.get(name))
                    .and_then(|m| m.get("value"))
                    .and_then(Json::num)
                    .ok_or_else(|| format!("{}: result line lacks {name}", wl.name))?;
                s.values.push(value);
            }
        }
        let metrics = END_TO_END
            .iter()
            .zip(&series)
            .fold(Object::new(), |o, ((name, _), s)| o.field(name, s.render(name)));
        workloads = workloads.field(
            wl.name,
            Object::new()
                .field(
                    "sf",
                    json::number(if opts.quick {
                        crate::catalog::QUICK_SF
                    } else {
                        wl.sf
                    }),
                )
                .field("attempted", json::number(attempted))
                .field("failed", json::number(failed))
                .field("fail_ratio", json::number(failed / attempted.max(1.0)))
                .field("metrics", metrics.build())
                .build(),
        );
    }
    let summary = Object::new()
        .field("benchmark", json::string("dbep-benchmark"))
        .field("runs", opts.runs.to_string())
        .field("first_seed", opts.seed.to_string())
        .field("seconds", json::number(opts.seconds))
        .field("quick", opts.quick.to_string())
        .field("workloads", workloads.build())
        // This change defines the benchmark and claims no gain.
        .field("claim", "null")
        .build();
    std::fs::create_dir_all(&opts.out_dir)
        .and_then(|()| std::fs::write(&opts.summary, summary + "\n"))
        .map_err(|e| format!("cannot write {}: {e}", opts.summary.display()))?;
    println!("# summary written to {}", opts.summary.display());
    Ok(all_correct)
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    Within,
    Worse,
    Unresolved,
}

/// Compare one metric: medians and spreads of the two sides, the
/// direction that is better, and the bound.
pub fn verdict(
    a: (f64, Option<f64>),
    b: (f64, Option<f64>),
    higher_is_better: bool,
    bound: f64,
) -> (f64, Verdict) {
    let worsening = if higher_is_better { a.0 - b.0 } else { b.0 - a.0 } / a.0;
    let verdict = match (a.1, b.1) {
        (Some(sa), Some(sb)) if sa.max(sb) <= bound => {
            if worsening > bound {
                Verdict::Worse
            } else {
                Verdict::Within
            }
        }
        _ => Verdict::Unresolved,
    };
    (worsening, verdict)
}

fn read(path: &Path) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

fn series_of(summary: &Json, workload: &str, metric: &str) -> Option<(f64, Option<f64>)> {
    let m = summary
        .get("workloads")?
        .get(workload)?
        .get("metrics")?
        .get(metric)?;
    Some((m.get("median")?.num()?, m.get("spread").and_then(Json::num)))
}

/// Apply the spec's bounds to two summaries. Returns how many
/// (metric, workload) pairs came out `(worse, unresolved)`.
pub fn diff(a_path: &Path, b_path: &Path, spec_path: &Path) -> Result<(usize, usize), String> {
    let (a, b, spec) = (read(a_path)?, read(b_path)?, read(spec_path)?);
    let (mut worse, mut unresolved) = (0, 0);
    println!(
        "{:<14} {:<16} {:>12} {:>12} {:>9} {:>7} {:>8} {:>8}  verdict",
        "workload", "metric", "a", "b", "worsening", "bound", "spread_a", "spread_b"
    );
    for wl in spec.get("workloads").map_or(&[][..], Json::items) {
        let workload = wl.get("name").and_then(Json::str).unwrap_or_default();
        for metric in spec.get("end_to_end").map_or(&[][..], Json::items) {
            let name = metric.get("name").and_then(Json::str).unwrap_or_default();
            let bound = metric.get("bound").and_then(Json::num).unwrap_or(0.0);
            let higher = metric.get("better").and_then(Json::str) == Some("higher");
            let (Some(sa), Some(sb)) = (series_of(&a, workload, name), series_of(&b, workload, name)) else {
                return Err(format!("{workload}/{name} is missing from a summary"));
            };
            let (worsening, v) = verdict(sa, sb, higher, bound);
            worse += (v == Verdict::Worse) as usize;
            unresolved += (v == Verdict::Unresolved) as usize;
            let pct = |x: Option<f64>| x.map_or("n/a".to_string(), |x| format!("{:.1}%", x * 100.0));
            println!(
                "{workload:<14} {name:<16} {:>12.4} {:>12.4} {:>9} {:>7} {:>8} {:>8}  {}",
                sa.0,
                sb.0,
                pct(Some(worsening)),
                pct(Some(bound)),
                pct(sa.1),
                pct(sb.1),
                format!("{v:?}").to_lowercase()
            );
        }
        // Failures have no relative bound: any increase is worse.
        let ratio = |s: &Json| {
            s.get("workloads")
                .and_then(|w| w.get(workload))
                .and_then(|w| w.get("fail_ratio"))
                .and_then(Json::num)
                .unwrap_or(0.0)
        };
        let (fa, fb) = (ratio(&a), ratio(&b));
        worse += (fb > fa) as usize;
        println!(
            "{workload:<14} {:<16} {fa:>12.4} {fb:>12.4} {:>9} {:>7} {:>8} {:>8}  {}",
            "fail_ratio",
            "",
            "0",
            "",
            "",
            if fb > fa { "worse" } else { "within" }
        );
    }
    println!("# {worse} worse, {unresolved} unresolved");
    Ok((worse, unresolved))
}

/// Run the whole benchmark twice on this build and diff the two.
pub fn aa(opts: &SuiteOpts, spec: &Path) -> Result<(usize, usize), String> {
    let sides = ["aa_a.json", "aa_b.json"].map(|name| opts.out_dir.join(name));
    for side in &sides {
        suite(&SuiteOpts {
            summary: side.clone(),
            out_dir: opts.out_dir.clone(),
            ..*opts
        })?;
    }
    diff(&sides[0], &sides[1], spec)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdicts_follow_the_bound_and_the_spread() {
        let steady = |m| (m, Some(0.01));
        // Lower is better: 100 -> 104 within 5 %, 100 -> 106 is not.
        assert_eq!(
            verdict(steady(100.0), steady(104.0), false, 0.05).1,
            Verdict::Within
        );
        assert_eq!(
            verdict(steady(100.0), steady(106.0), false, 0.05).1,
            Verdict::Worse
        );
        // An improvement is never worse.
        assert_eq!(
            verdict(steady(100.0), steady(50.0), false, 0.05).1,
            Verdict::Within
        );
        // Higher is better: a drop beyond the bound is worse.
        assert_eq!(verdict(steady(100.0), steady(90.0), true, 0.07).1, Verdict::Worse);
        assert_eq!(
            verdict(steady(100.0), steady(95.0), true, 0.07).1,
            Verdict::Within
        );
        // Noise wider than the bound, or unknown, resolves nothing.
        assert_eq!(
            verdict((100.0, Some(0.2)), steady(150.0), false, 0.05).1,
            Verdict::Unresolved
        );
        assert_eq!(
            verdict((100.0, None), steady(100.0), false, 0.05).1,
            Verdict::Unresolved
        );
    }

    #[test]
    fn spread_needs_enough_runs() {
        let few = Series {
            values: vec![1.0, 2.0, 3.0],
        };
        assert_eq!(few.spread(), None);
        let enough = Series {
            values: vec![10.0, 10.0, 11.0, 9.0, 10.0],
        };
        assert!(enough.spread().is_some_and(|s| s < 0.11));
    }
}
