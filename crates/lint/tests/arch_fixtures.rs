//! Fixture tests for the `arch` rule: every guard fires on a line of
//! the code it was written to retire (quoted from the tree the guard
//! landed against), and stays silent on the same text in a comment or
//! a string literal.

use dbep_lint::arch::GUARDS;
use dbep_lint::rules::RULE_ARCH;
use dbep_lint::{check_sources, Finding};

/// (guard, file, a line the guard was written against).
const FIRES: &[(&str, &str, &str)] = &[
    (
        "encoded-twin",
        "crates/queries/src/ssb/q1_1.rs",
        "fn typer_encoded(",
    ),
    (
        "whole-query-body",
        "crates/queries/src/ssb/q4_1.rs",
        "pub fn typer(db: &Database, cfg: &ExecCfg, p: &SsbQ41Params) -> QueryResult {",
    ),
    ("stage-module", "crates/vectorized/src/lib.rs", "pub mod stage;"),
    (
        "hand-wired-plan",
        "crates/queries/src/tpch/q3.rs",
        "Scan::new(db.table(\"customer\"), &[\"c_custkey\", \"c_mktsegment\"])",
    ),
    (
        "tuples-scanned",
        "crates/queries/src/tpch/q9.rs",
        "    fn tuples_scanned(&self, db: &Database) -> usize {",
    ),
    (
        "worker-build",
        "crates/volcano/src/ops.rs",
        "    pub fn new(mut build: BoxOp<'_>, build_keys: Vec<Expr>, probe: BoxOp<'a>) -> Self {",
    ),
    (
        "typer-pipeline",
        "crates/compiled/src/lib.rs",
        "pub mod pipeline;",
    ),
    (
        "second-driver",
        "crates/volcano/src/ops.rs",
        "    pub fn morsel_driven(mut self, morsels: &'a Morsels) -> Self {",
    ),
    (
        "volcano-tables",
        "crates/volcano/src/ops.rs",
        "    table: HashMap<Vec<Val>, Vec<Row>>,",
    ),
    (
        "preagg-bound",
        "crates/queries/src/ssb/q4_1.rs",
        "const PREAGG_GROUPS: usize = 1 << 12;",
    ),
    (
        "unbounded-shard",
        "crates/volcano/src/ops.rs",
        "        let mut groups = GroupByShard::new(usize::MAX);",
    ),
    (
        "scalar-miss-fold",
        "crates/queries/src/ssb/q4_1.rs",
        "                for &j in &st.gb.miss_sel {",
    ),
    (
        "stage-paradigm-match",
        "crates/queries/src/tpch/q3.rs",
        "    match engine {",
    ),
    (
        "stage-paradigm-match",
        "crates/queries/src/tpch/q3.rs",
        "        Engine::Typer => cfg.build_ht(",
    ),
    (
        "bits-constant",
        "crates/queries/src/tpch/q3.rs",
        "const LI_BITS: usize = 8 * (4 + 8 + 8 + 4);",
    ),
    (
        "serial-build",
        "crates/queries/src/ssb/q4_1.rs",
        "    let ht_s = JoinHt::build(",
    ),
    (
        "serial-build",
        "crates/queries/src/ssb/q2_1.rs",
        "    let ht_d = JoinHt::build((0..d.len()).map(|i| (hf.hash(dk[i] as u64), (dk[i], dy[i]))));",
    ),
    (
        "format-twin",
        "crates/bench/src/bin/experiments.rs",
        "fn fig3_json(a: &Args) {",
    ),
    (
        "format-width",
        "crates/bench/src/bin/experiments.rs",
        "    println!(\"{name:<10} {:>10}\", \"query\", x);",
    ),
];

fn arch(findings: &[Finding]) -> Vec<&str> {
    findings
        .iter()
        .filter(|f| f.rule == RULE_ARCH)
        .map(|f| f.message.split(':').next().unwrap())
        .collect()
}

fn arch_of(path: &str, src: &str) -> Vec<String> {
    arch(&check_sources([(path, src)]).findings)
        .into_iter()
        .map(str::to_string)
        .collect()
}

#[test]
fn every_guard_has_a_fixture() {
    assert_eq!(GUARDS.len(), 17);
    for g in GUARDS {
        assert!(
            FIRES.iter().any(|(name, ..)| *name == g.name),
            "guard {} has no fixture",
            g.name
        );
    }
}

#[test]
fn every_guard_fires_on_the_code_it_retired() {
    for (name, path, line) in FIRES {
        let src = format!("// A file.\n{line}\n");
        let report = check_sources([(*path, src.as_str())]);
        assert_eq!(arch(&report.findings), vec![*name], "{path}: {line}");
        let f = report.findings.iter().find(|f| f.rule == RULE_ARCH).unwrap();
        assert_eq!((f.path.as_str(), f.line), (*path, 2));
    }
}

#[test]
fn no_guard_fires_on_its_text_in_a_comment_or_a_string() {
    for (name, path, line) in FIRES {
        let comment = format!("// {line}\n/* {line} */\n/// {line}\n");
        assert_eq!(arch_of(path, &comment), Vec::<String>::new(), "{name}: {comment}");
        if *name == "format-width" {
            continue; // its text lives in string literals
        }
        let string = format!(
            "let s = r#\"{line}\"#;\nlet t = \"{}\";\n",
            line.replace('"', "\\\"")
        );
        assert_eq!(arch_of(path, &string), Vec::<String>::new(), "{name}: {string}");
    }
}

#[test]
fn test_code_in_scope_is_not_exempt() {
    let src = "#[cfg(test)]\nmod tests {\n    use std::collections::HashMap;\n}\n";
    assert_eq!(arch_of("crates/volcano/src/ops.rs", src), vec!["volcano-tables"]);
    assert_eq!(arch_of("crates/volcano/tests/t.rs", src), Vec::<String>::new());
    // The crates-wide guard reaches integration tests too.
    let src = "mod exchange;\n";
    assert_eq!(arch_of("crates/volcano/tests/t.rs", src), vec!["second-driver"]);
}

#[test]
fn scopes_and_exemptions_hold() {
    let tuples = "    fn tuples_scanned(&self, db: &Database) -> usize {\n";
    // Q18 adds the second lineitem read its plan elides.
    assert!(arch_of("crates/queries/src/tpch/q18.rs", tuples).is_empty());
    assert_eq!(
        arch_of("crates/queries/src/ssb/q2_1.rs", tuples),
        vec!["tuples-scanned"]
    );
    // Outside its scope a guard is silent: the runtime owns the tables.
    let table = "    table: HashMap<Vec<Val>, Vec<Row>>,\n";
    assert!(arch_of("crates/runtime/src/join_ht.rs", table).is_empty());
}

#[test]
fn one_finding_per_matching_line() {
    let src = "Engine::Typer => unreachable!(), Engine::Tectorwise => tw::chunks(r, n),\n";
    assert_eq!(
        arch_of("crates/queries/src/tpch/q3.rs", src),
        vec!["stage-paradigm-match"]
    );
}

#[test]
fn arch_list_prints_one_line_per_guard() {
    let files = dbep_lint::scan_sources([("crates/volcano/src/ops.rs", "use std::collections::HashSet;\n")]);
    let lines = dbep_lint::rules::list(&files, RULE_ARCH);
    assert_eq!(lines.len(), 17);
    let tables = lines.iter().find(|l| l.starts_with("volcano-tables ")).unwrap();
    assert!(tables.ends_with(": 1 line(s)"), "{tables}");
}
