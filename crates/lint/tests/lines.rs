//! `dbep-lint lines`: exact counts on fixtures, and the tree's
//! `crates/obs/src/ring.rs` counted whole.

use dbep_lint::lex::lex;
use std::path::{Path, PathBuf};
use std::process::Command;

fn count(src: &str) -> usize {
    lex("crates/x/src/lib.rs", src).code_lines().count()
}

fn root() -> PathBuf {
    dbep_lint::find_root(Path::new(env!("CARGO_MANIFEST_DIR"))).expect("workspace root")
}

#[test]
fn a_test_only_item_mid_file_hides_only_itself() {
    // The `ring.rs` shape: a gated `thread_local!` and a gated
    // statement, then more non-test items.
    let src = "mod test_pause {\n    #[cfg(test)]\n    thread_local! {\n        \
               pub(super) static HOOK: Cell<u8> = const { Cell::new(0) };\n    }\n\n    \
               pub(super) fn between_words() {\n        #[cfg(test)]\n        \
               HOOK.with(|h| {\n            h.set(1)\n        });\n    }\n}\n\n\
               pub struct QueryTrace {\n    id: u64,\n}\n";
    assert_eq!(count(src), 7);
}

#[test]
fn items_after_a_test_module_count() {
    let src = "fn a() {}\n#[cfg(test)]\nmod tests {\n    #[test]\n    fn t() {}\n}\n\
               fn b() {\n    a();\n}\n";
    assert_eq!(count(src), 4);
}

#[test]
fn comments_do_not_count() {
    let src = "//! Crate doc.\n/// Item doc.\nfn f() { // trailing\n    /* block\n       \
               still block */\n    let x = 1; /* inline */\n}\n/** doc block */\n";
    assert_eq!(count(src), 3);
}

#[test]
fn lines_inside_a_multi_line_string_do_not_count() {
    let src = "const S: &str = \"one\ntwo\n\nthree\";\nfn g() {}\n";
    // The opening and closing lines carry code; `two` and the blank
    // line are all literal.
    assert_eq!(count(src), 3);
}

#[test]
fn ring_rs_is_counted_whole() {
    let path = root().join("crates/obs/src/ring.rs");
    let src = std::fs::read_to_string(&path).expect("read ring.rs");
    let scan = lex("crates/obs/src/ring.rs", &src);
    let first_test = src.lines().position(|l| l.contains("#[cfg(test)]")).unwrap() + 1;
    let query_trace = src
        .lines()
        .position(|l| l.starts_with("impl<'a> QueryTrace<'a>"))
        .expect("QueryTrace impl")
        + 1;
    assert!(
        query_trace > first_test,
        "QueryTrace sits after the first #[cfg(test)]"
    );
    let counted: Vec<usize> = scan.code_lines().collect();
    assert!(counted.contains(&query_trace), "line {query_trace} not counted");
    assert!(!counted.contains(&first_test));
    // The crate's total is the sum over its files, under one key.
    let totals = dbep_lint::run_lines(&[root().join("crates/obs/src")]).expect("count");
    assert_eq!(totals.keys().collect::<Vec<_>>(), vec!["crates/obs"]);
    assert!(totals["crates/obs"] > counted.len());
}

#[test]
fn cli_prints_a_total_per_crate_and_a_grand_total() {
    let out = Command::new(env!("CARGO_BIN_EXE_dbep-lint"))
        .arg("lines")
        .arg(root().join("crates/obs/src"))
        .arg(root().join("crates/lint/src/lex.rs"))
        .output()
        .expect("run dbep-lint");
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    let rows: Vec<Vec<&str>> = stdout.lines().map(|l| l.split_whitespace().collect()).collect();
    let keys: Vec<&str> = rows.iter().map(|r| r[0]).collect();
    assert_eq!(keys, vec!["crates/lint", "crates/obs", "total"], "{stdout}");
    let n: Vec<usize> = rows.iter().map(|r| r[1].parse().unwrap()).collect();
    assert_eq!(n[0] + n[1], n[2]);
    let none = Command::new(env!("CARGO_BIN_EXE_dbep-lint"))
        .arg("lines")
        .output()
        .unwrap();
    assert_eq!(none.status.code(), Some(2));
}
