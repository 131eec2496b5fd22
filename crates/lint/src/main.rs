//! `dbep-lint` CLI: `check [--json]` fails the build on any violation;
//! `list --rule <name>` prints a rule's full tracked inventory; `lines
//! <path>...` counts code lines per crate.

use std::path::PathBuf;
use std::process::ExitCode;

const USAGE: &str = "\
dbep-lint — in-tree safety analyzer for the db-engine-paradigms workspace

USAGE:
    dbep-lint check [--json] [--root <dir>]
    dbep-lint list --rule <name> [--root <dir>]
    dbep-lint lines <path>...

RULES:
    unsafe        every `unsafe` carries a // SAFETY: justification
    atomics       every `Ordering::Relaxed` in the concurrency layer
                  carries a // ORDERING: justification
    simd-parity   SIMD kernels have scalar twins (and vice versa), and
                  every SimdPolicy dispatcher appears in a property test
    registry      every REGISTRY plan declares stages(), has a naive
                  oracle, and is swept by the equivalence suite
    metrics       every metric registered with a literal name is
                  snake_case and carries a non-empty help string
    arch          no retired construct of the engines' shared shape
                  (per-engine query body, second driver, per-plan byte
                  constant, ...) is back; `list --rule arch` prints
                  each guard's scope, patterns and match count

`check` exits 0 on a clean tree, 1 on findings. Without --root, the
workspace root is located by walking up from the current directory.

`lines` counts the lines of the .rs files under each path (a file or a
directory) whose code is non-blank once comments and string contents
are removed, outside #[cfg(test)] items; it prints one total per crate
and a grand total.
";

struct Args {
    cmd: String,
    json: bool,
    rule: Option<String>,
    root: Option<PathBuf>,
    paths: Vec<PathBuf>,
}

fn parse_args() -> Result<Args, String> {
    let mut argv = std::env::args().skip(1);
    let cmd = argv.next().ok_or_else(|| "missing subcommand".to_string())?;
    let mut args = Args {
        cmd,
        json: false,
        rule: None,
        root: None,
        paths: Vec::new(),
    };
    while let Some(a) = argv.next() {
        match a.as_str() {
            "--json" => args.json = true,
            "--rule" => args.rule = Some(argv.next().ok_or("--rule needs a value")?),
            "--root" => args.root = Some(PathBuf::from(argv.next().ok_or("--root needs a value")?)),
            path if args.cmd == "lines" && !path.starts_with("--") => args.paths.push(PathBuf::from(path)),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}\n\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if args.cmd == "lines" {
        return lines(&args.paths);
    }
    let root = match args.root.clone().or_else(|| {
        let cwd = std::env::current_dir().ok()?;
        dbep_lint::find_root(&cwd)
    }) {
        Some(r) => r,
        None => {
            eprintln!("error: workspace root not found (pass --root)");
            return ExitCode::from(2);
        }
    };
    match args.cmd.as_str() {
        "check" => {
            let report = match dbep_lint::run_check(&root) {
                Ok(r) => r,
                Err(e) => {
                    eprintln!("error: {e}");
                    return ExitCode::from(2);
                }
            };
            if args.json {
                print!(
                    "{}",
                    dbep_lint::json::report(
                        &root.display().to_string(),
                        report.files_scanned,
                        &report.findings
                    )
                );
            } else {
                for f in &report.findings {
                    println!("{}:{}: [{}] {}", f.path, f.line, f.rule, f.message);
                }
                println!(
                    "dbep-lint: {} finding(s) across {} file(s)",
                    report.findings.len(),
                    report.files_scanned
                );
            }
            if report.is_clean() {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        "list" => {
            let rule = match args.rule.as_deref() {
                Some(r) if dbep_lint::RULES.contains(&r) => r,
                Some(r) => {
                    eprintln!(
                        "error: unknown rule {r:?} (expected one of {})",
                        dbep_lint::RULES.join(", ")
                    );
                    return ExitCode::from(2);
                }
                None => {
                    eprintln!("error: list requires --rule <name>\n\n{USAGE}");
                    return ExitCode::from(2);
                }
            };
            match dbep_lint::run_list(&root, rule) {
                Ok(lines) => {
                    for l in lines {
                        println!("{l}");
                    }
                    ExitCode::SUCCESS
                }
                Err(e) => {
                    eprintln!("error: {e}");
                    ExitCode::from(2)
                }
            }
        }
        "--help" | "-h" | "help" => {
            print!("{USAGE}");
            ExitCode::SUCCESS
        }
        other => {
            eprintln!("error: unknown subcommand {other:?}\n\n{USAGE}");
            ExitCode::from(2)
        }
    }
}

fn lines(paths: &[PathBuf]) -> ExitCode {
    if paths.is_empty() {
        eprintln!("error: lines requires at least one <path>\n\n{USAGE}");
        return ExitCode::from(2);
    }
    let totals = match dbep_lint::run_lines(paths) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    let width = totals.keys().map(String::len).max().unwrap_or(0).max(5);
    for (group, n) in &totals {
        println!("{group:<width$}  {n:>6}");
    }
    println!("{:<width$}  {:>6}", "total", totals.values().sum::<usize>());
    ExitCode::SUCCESS
}
