//! `bench` — the benchmark's command line. See `README.md`.

use dbep_benchmark::catalog::{self, Kind, DEFAULT_SECONDS};
use dbep_benchmark::diff::{self, SuiteOpts};
use dbep_benchmark::report::{self, Opts};
use dbep_benchmark::{inproc, schedule, serve};
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

const USAGE: &str = "\
bench — the benchmark of record of db-engine-paradigms

USAGE:
    bench run --workload <name> [--seed <n>] [--seconds <s>] [--trace [0|1]] [--quick] [--out <dir>]
    bench suite [--runs <n>] [--seed <n>] [--seconds <s>] [--quick] [--out <dir>] [--summary <file>]
    bench diff <a.json> <b.json> [--spec <BENCHMARK.json>]
    bench aa [--runs <n>] [--seed <n>] [--seconds <s>] [--quick] [--out <dir>] [--spec <BENCHMARK.json>]
    bench schedule --workload <name> [--seed <n>]

WORKLOADS:
    scan_flat  scan_encoded  hash_heavy  serve_mix

`run` measures one workload in this process: with tracing off it prints
every end-to-end metric, with `--trace` every per-layer metric (and
writes <out>/<workload>.trace.json). The last line of its output is one
JSON object {correct, attempted, failed, metrics}; the exit code is 1 if
any request failed. `suite` runs all four workloads, each in a process
of its own; `diff` applies the bounds of BENCHMARK.json to two suite
summaries; `aa` runs the suite twice on this build and diffs the two.
`--quick` is the smoke mode: SF 0.01, one short cycle per phase.
Run from the repository root; <out> defaults to benchmark/out.
";

/// Flags shared by the subcommands, with their defaults.
struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    quick: bool,
    runs: usize,
    out: PathBuf,
    summary: Option<PathBuf>,
    spec: PathBuf,
    files: Vec<PathBuf>,
}

fn parse(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 1,
        seconds: DEFAULT_SECONDS,
        trace: false,
        quick: false,
        runs: 1,
        out: PathBuf::from("benchmark/out"),
        summary: None,
        spec: PathBuf::from("BENCHMARK.json"),
        files: Vec::new(),
    };
    let mut it = argv.iter().peekable();
    while let Some(flag) = it.next() {
        let mut value = |form: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs a value ({form})"))
        };
        fn number<T: std::str::FromStr>(flag: &str, v: String, form: &str) -> Result<T, String> {
            v.parse().map_err(|_| format!("{flag} {v:?} is not {form}"))
        }
        match flag.as_str() {
            "--workload" => args.workload = Some(value("a workload name")?),
            "--seed" => args.seed = number(flag, value("a whole number")?, "a whole number")?,
            "--seconds" => {
                args.seconds = number(flag, value("seconds")?, "a number of seconds")?;
                if !(args.seconds > 0.0 && args.seconds.is_finite()) {
                    return Err(format!("--seconds must be positive, got {}", args.seconds));
                }
            }
            "--runs" => {
                args.runs = number(flag, value("a count")?, "a count")?;
                if args.runs == 0 {
                    return Err("--runs must be at least 1".to_string());
                }
            }
            "--out" => args.out = PathBuf::from(value("a directory")?),
            "--summary" => args.summary = Some(PathBuf::from(value("a file")?)),
            "--spec" => args.spec = PathBuf::from(value("a file")?),
            "--quick" => args.quick = true,
            // `--trace` alone switches tracing on; the driver passes 0 or 1.
            "--trace" => {
                args.trace = match it.peek().map(|s| s.as_str()) {
                    Some("0") => {
                        it.next();
                        false
                    }
                    Some("1") => {
                        it.next();
                        true
                    }
                    _ => true,
                }
            }
            other if other.starts_with("--") => return Err(format!("unknown flag {other}")),
            file => args.files.push(PathBuf::from(file)),
        }
    }
    Ok(args)
}

fn workload(args: &Args) -> Result<catalog::Workload, String> {
    let name = args.workload.as_deref().ok_or("--workload is required")?;
    let wl = catalog::workload(name).ok_or_else(|| {
        let known: Vec<&str> = catalog::WORKLOADS.iter().map(|w| w.name).collect();
        format!("unknown workload {name:?} (expected one of {})", known.join(" "))
    })?;
    Ok(if args.quick { wl.quick() } else { wl })
}

fn suite_opts(args: &Args) -> SuiteOpts {
    let defaults = SuiteOpts::new(args.out.clone());
    SuiteOpts {
        runs: args.runs,
        seed: args.seed,
        seconds: args.seconds,
        quick: args.quick,
        summary: args.summary.clone().unwrap_or(defaults.summary),
        out_dir: defaults.out_dir,
    }
}

/// Exit code of a comparison: nothing may be worse; `strict` (the A/A
/// check) also rejects what could not be resolved.
fn compared(outcome: Result<(usize, usize), String>, strict: bool) -> Result<ExitCode, String> {
    let (worse, unresolved) = outcome?;
    Ok(if worse > 0 || (strict && unresolved > 0) {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    })
}

fn dispatch(started: Instant, argv: &[String]) -> Result<ExitCode, String> {
    let Some((cmd, rest)) = argv.split_first() else {
        return Err("missing subcommand".to_string());
    };
    let args = parse(rest)?;
    match cmd.as_str() {
        "run" => {
            let opts = Opts {
                workload: workload(&args)?,
                seed: args.seed,
                seconds: args.seconds,
                trace: args.trace,
                quick: args.quick,
                out_dir: args.out,
                started,
            };
            let outcome = match opts.workload.kind {
                Kind::InProcess { .. } => inproc::run(&opts),
                Kind::Serve => serve::run(&opts),
            };
            report::emit(&opts, &outcome).map_err(|e| format!("cannot write the run record: {e}"))?;
            Ok(if outcome.correct() {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            })
        }
        "suite" => Ok(if diff::suite(&suite_opts(&args))? {
            ExitCode::SUCCESS
        } else {
            ExitCode::FAILURE
        }),
        "diff" => match args.files.as_slice() {
            [a, b] => compared(diff::diff(a, b, &args.spec), false),
            _ => Err("diff takes exactly two summary files".to_string()),
        },
        "aa" => compared(diff::aa(&suite_opts(&args), &args.spec), true),
        "schedule" => {
            let wl = workload(&args)?;
            println!("{:016x}", schedule::digest(&wl, args.seed, wl.min_cycles));
            Ok(ExitCode::SUCCESS)
        }
        "help" | "--help" | "-h" => {
            print!("{USAGE}");
            Ok(ExitCode::SUCCESS)
        }
        other => Err(format!("unknown subcommand {other:?}")),
    }
}

fn main() -> ExitCode {
    let started = Instant::now();
    let argv: Vec<String> = std::env::args().skip(1).collect();
    dispatch(started, &argv).unwrap_or_else(|e| {
        eprintln!("error: {e}\n\n{USAGE}");
        ExitCode::from(2)
    })
}
