//! Runs the benchmark in `--quick` mode (SF 0.01, a fraction of a
//! second per phase) and holds its output to the contract in
//! `BENCHMARK.json`: every workload and metric named there is printed,
//! by that name, with that unit.

use dbep_benchmark::catalog::{DEFAULT_SECONDS, END_TO_END, PER_LAYER, WORKLOADS};
use dbep_benchmark::jsonin::Json;
use std::path::PathBuf;
use std::process::{Command, Output};

const BENCH: &str = env!("CARGO_BIN_EXE_bench");
const SPEC: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");

fn spec() -> Json {
    Json::parse(&std::fs::read_to_string(SPEC).expect("BENCHMARK.json at the repo root")).expect("valid JSON")
}

/// A scratch directory per test: tests run in parallel and must not
/// share files.
fn out_dir(test: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(test)
}

fn bench(args: &[&str]) -> Output {
    Command::new(BENCH)
        .args(args)
        .output()
        .expect("the bench binary runs")
}

fn valid_name(name: &str) -> bool {
    let mut chars = name.chars();
    chars.next().is_some_and(|c| c.is_ascii_alphanumeric())
        && name.len() <= 64
        && chars.all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
}

fn valid_unit(unit: &str) -> bool {
    (1..=16).contains(&unit.len())
        && unit
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
}

fn named<'a>(spec: &'a Json, list: &str) -> Vec<(&'a str, &'a str)> {
    spec.get(list)
        .expect(list)
        .items()
        .iter()
        .map(|m| {
            (
                m.get("name").and_then(Json::str).expect("name"),
                m.get("unit").and_then(Json::str).expect("unit"),
            )
        })
        .collect()
}

/// Run one workload in quick mode and check that it printed exactly the
/// metrics of `list`, each with its unit, on a correct run.
fn check_run(workload: &str, trace: &str, list: &str, test: &str) {
    let out = out_dir(test);
    let output = bench(&[
        "run",
        "--workload",
        workload,
        "--quick",
        "--seed",
        "7",
        "--seconds",
        "0.4",
        "--trace",
        trace,
        "--out",
        out.to_str().expect("utf-8 path"),
    ]);
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert!(
        output.status.success(),
        "{workload} trace {trace} failed:\n{stdout}\n{}",
        String::from_utf8_lossy(&output.stderr)
    );
    let result = Json::parse(stdout.lines().last().expect("a result line")).expect("result line is JSON");
    let keys: Vec<&str> = result.members().iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
    assert_eq!(result.get("correct"), Some(&Json::Bool(true)));
    assert_eq!(result.get("failed").and_then(Json::num), Some(0.0));
    assert!(result.get("attempted").and_then(Json::num).expect("attempted") >= 1.0);

    let spec = spec();
    let wanted = named(&spec, list);
    let printed = result.get("metrics").expect("metrics").members();
    assert_eq!(
        printed.iter().map(|(k, _)| k.as_str()).collect::<Vec<_>>(),
        wanted.iter().map(|(n, _)| *n).collect::<Vec<_>>(),
        "{workload}: printed metrics differ from BENCHMARK.json {list}"
    );
    for ((name, metric), (_, unit)) in printed.iter().zip(&wanted) {
        assert!(valid_name(name), "{name}");
        assert_eq!(metric.get("unit").and_then(Json::str), Some(*unit), "{name}");
        let value = metric.get("value").and_then(Json::num).expect("a numeric value");
        assert!(value.is_finite() && value >= 0.0, "{name} = {value}");
        if list == "end_to_end" {
            assert!(value > 0.0, "{workload}: end-to-end metric {name} is 0");
        }
        // The same name is on a line of its own, with the unit.
        assert!(
            stdout
                .lines()
                .any(|l| l.starts_with(name.as_str()) && l.trim_end().ends_with(unit)),
            "{name} is not printed by name with its unit"
        );
    }
    let record = if trace == "1" { "traced.json" } else { "json" };
    let record = std::fs::read_to_string(out.join(format!("{workload}.{record}"))).expect("run record");
    let record = Json::parse(&record).expect("run record is JSON");
    assert_eq!(
        record.members().last().map(|(k, v)| (k.as_str(), v)),
        Some(("claim", &Json::Null))
    );
    for fact in [
        "git_commit",
        "seed",
        "sf",
        "threads",
        "available_parallelism",
        "cpu_model",
        "simd_policy",
    ] {
        assert!(
            record.get("run").and_then(|r| r.get(fact)).is_some(),
            "run record lacks {fact}"
        );
    }
    if trace == "1" {
        let trace_file =
            std::fs::read_to_string(out.join(format!("{workload}.trace.json"))).expect("trace file");
        let doc = Json::parse(&trace_file).expect("trace file is JSON");
        assert!(!doc.get("traceEvents").expect("traceEvents").items().is_empty());
        assert!(doc.get("counts").is_some());
    }
}

#[test]
fn untraced_runs_print_every_end_to_end_metric() {
    for wl in WORKLOADS {
        check_run(wl.name, "0", "end_to_end", "untraced");
    }
}

#[test]
fn traced_runs_print_every_per_layer_metric() {
    for wl in WORKLOADS {
        check_run(wl.name, "1", "per_layer", "traced");
    }
}

#[test]
fn benchmark_json_matches_the_catalogue_and_the_contract() {
    let spec = spec();
    let keys: Vec<&str> = spec.members().iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(
        keys,
        [
            "command",
            "paths",
            "run_seconds",
            "workloads",
            "end_to_end",
            "per_layer"
        ]
    );
    assert_eq!(spec.get("run_seconds").and_then(Json::num), Some(DEFAULT_SECONDS));
    let paths: Vec<&str> = spec
        .get("paths")
        .expect("paths")
        .items()
        .iter()
        .filter_map(Json::str)
        .collect();
    assert_eq!(paths, ["benchmark"]);

    let workloads = spec.get("workloads").expect("workloads").items();
    assert_eq!(workloads.len(), WORKLOADS.len());
    for (listed, wl) in workloads.iter().zip(WORKLOADS) {
        assert_eq!(listed.get("name").and_then(Json::str), Some(wl.name));
        assert_eq!(listed.get("why").and_then(Json::str), Some(wl.why));
        assert!(valid_name(wl.name) && wl.why.len() <= 200 && !wl.why.contains('\n'));
    }

    assert_eq!(named(&spec, "end_to_end"), END_TO_END);
    assert_eq!(named(&spec, "per_layer"), PER_LAYER);
    let mut names: Vec<&str> = END_TO_END
        .iter()
        .chain(PER_LAYER.iter())
        .map(|(n, _)| *n)
        .collect();
    names.extend(WORKLOADS.iter().map(|w| w.name));
    for (i, name) in names.iter().enumerate() {
        assert!(valid_name(name), "{name}");
        assert!(!names[..i].contains(name), "{name} is used twice");
    }
    for (_, unit) in END_TO_END.iter().chain(PER_LAYER.iter()) {
        assert!(valid_unit(unit), "{unit}");
    }
    for metric in spec.get("end_to_end").expect("end_to_end").items() {
        let bound = metric.get("bound").and_then(Json::num).expect("bound");
        assert!(bound > 0.0 && bound <= 0.25, "{metric:?}");
        assert!(matches!(
            metric.get("better").and_then(Json::str),
            Some("lower" | "higher")
        ));
    }
    let setup = &spec.get("end_to_end").expect("end_to_end").items()[0];
    assert_eq!(setup.get("name").and_then(Json::str), Some("setup_s"));
    assert_eq!(setup.get("unit").and_then(Json::str), Some("s"));
    assert_eq!(setup.get("better").and_then(Json::str), Some("lower"));
}

#[test]
fn the_seed_changes_the_schedule_and_reproduces_it() {
    let digest = |workload: &str, seed: &str| {
        let output = bench(&["schedule", "--workload", workload, "--seed", seed]);
        assert!(output.status.success());
        String::from_utf8_lossy(&output.stdout).trim().to_string()
    };
    for wl in WORKLOADS {
        assert_eq!(digest(wl.name, "3"), digest(wl.name, "3"), "{}", wl.name);
        assert_ne!(digest(wl.name, "3"), digest(wl.name, "4"), "{}", wl.name);
    }
    assert_eq!(digest("scan_flat", "9"), digest("scan_encoded", "9"));
}

#[test]
fn suite_writes_a_summary_that_diff_reads() {
    let out = out_dir("suite");
    let summary = out.join("summary.json");
    let (out, summary) = (out.to_str().expect("utf-8"), summary.to_str().expect("utf-8"));
    let suite = bench(&[
        "suite",
        "--quick",
        "--seconds",
        "0.2",
        "--out",
        out,
        "--summary",
        summary,
    ]);
    assert!(
        suite.status.success(),
        "{}",
        String::from_utf8_lossy(&suite.stderr)
    );
    let doc = Json::parse(&std::fs::read_to_string(summary).expect("summary")).expect("summary is JSON");
    assert_eq!(
        doc.members().last().map(|(k, v)| (k.as_str(), v)),
        Some(("claim", &Json::Null))
    );
    // One run a side: no spread is known, so nothing is resolved — and
    // a file compared with itself is never worse.
    let diff = bench(&["diff", summary, summary, "--spec", SPEC]);
    let table = String::from_utf8_lossy(&diff.stdout);
    assert!(diff.status.success(), "{table}");
    assert!(
        table.contains("unresolved") && table.contains("# 0 worse"),
        "{table}"
    );
    // Bad input is an error, not a verdict.
    assert_eq!(bench(&["diff", summary]).status.code(), Some(2));
    assert_eq!(bench(&["run", "--workload", "nope"]).status.code(), Some(2));
}
