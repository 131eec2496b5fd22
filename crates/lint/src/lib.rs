//! `dbep-lint` — the in-tree safety analyzer.
//!
//! The workspace's correctness story has three legs: property tests
//! (fast paths ≡ naive models), sanitizers/Miri in CI (dynamic), and
//! this crate (static). It enforces the repo-specific conventions that
//! `rustc`/clippy cannot see — see [`rules`] for the six checks and
//! DESIGN.md §"Safety invariants & static analysis" for the comment
//! contracts they pin down.
//!
//! The library API takes `(path, contents)` pairs so the fixture tests
//! can feed synthetic trees; the binary walks the workspace.

pub mod arch;
pub mod json;
pub mod lex;
pub mod rules;

pub use rules::{Finding, RULES};

use std::collections::{BTreeMap, BTreeSet};
use std::io;
use std::path::{Path, PathBuf};

/// A check run's result.
#[derive(Debug)]
pub struct Report {
    pub findings: Vec<Finding>,
    pub files_scanned: usize,
}

impl Report {
    pub fn is_clean(&self) -> bool {
        self.findings.is_empty()
    }
}

/// Lex a set of in-memory sources (workspace-relative paths).
pub fn scan_sources<'a>(sources: impl IntoIterator<Item = (&'a str, &'a str)>) -> Vec<lex::FileScan> {
    sources
        .into_iter()
        .map(|(path, src)| lex::lex(path, src))
        .collect()
}

/// Run every rule over in-memory sources.
pub fn check_sources<'a>(sources: impl IntoIterator<Item = (&'a str, &'a str)>) -> Report {
    let files = scan_sources(sources);
    Report {
        findings: rules::check(&files),
        files_scanned: files.len(),
    }
}

/// Collect the workspace's `.rs` sources under `root`, skipping build
/// output, VCS metadata, and the analyzer's own test fixtures.
pub fn collect_files(root: &Path) -> io::Result<Vec<PathBuf>> {
    const SKIP_DIRS: &[&str] = &["target", ".git", "fixtures"];
    fn walk(dir: &Path, out: &mut Vec<PathBuf>) -> io::Result<()> {
        let mut entries: Vec<PathBuf> = std::fs::read_dir(dir)?
            .map(|e| e.map(|e| e.path()))
            .collect::<io::Result<_>>()?;
        entries.sort();
        for path in entries {
            let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
            if path.is_dir() {
                if !SKIP_DIRS.contains(&name) && !name.starts_with('.') {
                    walk(&path, out)?;
                }
            } else if name.ends_with(".rs") {
                out.push(path);
            }
        }
        Ok(())
    }
    let mut out = Vec::new();
    walk(root, &mut out)?;
    Ok(out)
}

fn relative(root: &Path, path: &Path) -> String {
    path.strip_prefix(root)
        .unwrap_or(path)
        .components()
        .map(|c| c.as_os_str().to_string_lossy())
        .collect::<Vec<_>>()
        .join("/")
}

/// Lex every workspace source under `root`.
pub fn scan_tree(root: &Path) -> io::Result<Vec<lex::FileScan>> {
    let mut files = Vec::new();
    for path in collect_files(root)? {
        let src = std::fs::read_to_string(&path)?;
        files.push(lex::lex(&relative(root, &path), &src));
    }
    Ok(files)
}

/// `dbep-lint check` over the tree at `root`.
pub fn run_check(root: &Path) -> io::Result<Report> {
    let files = scan_tree(root)?;
    Ok(Report {
        findings: rules::check(&files),
        files_scanned: files.len(),
    })
}

/// `dbep-lint list --rule <rule>` over the tree at `root`.
pub fn run_list(root: &Path, rule: &str) -> io::Result<Vec<String>> {
    let files = scan_tree(root)?;
    Ok(rules::list(&files, rule))
}

/// `dbep-lint lines <path>...`: the code lines
/// ([`lex::FileScan::code_lines`]) of the `.rs` files under `paths`,
/// summed per crate (`crates/<name>`) or top-level directory
/// (`benchmark`, `tests`, …) of the workspace they sit in.
pub fn run_lines(paths: &[PathBuf]) -> io::Result<BTreeMap<String, usize>> {
    let mut files = BTreeSet::new();
    for path in paths {
        let path = std::fs::canonicalize(path)?;
        if path.is_dir() {
            files.extend(collect_files(&path)?);
        } else {
            files.insert(path);
        }
    }
    let mut out = BTreeMap::new();
    for file in files {
        let rel = match find_root(&file) {
            Some(root) => relative(&root, &file),
            None => file.display().to_string(),
        };
        let parts: Vec<&str> = rel.split('/').collect();
        let group = match parts.as_slice() {
            ["crates", name, _, ..] => format!("crates/{name}"),
            [dir, _, ..] => dir.to_string(),
            _ => rel.clone(),
        };
        let scan = lex::lex(&rel, &std::fs::read_to_string(&file)?);
        *out.entry(group).or_insert(0) += scan.code_lines().count();
    }
    Ok(out)
}

/// Find the workspace root: ascend from `start` to the first directory
/// holding both `Cargo.toml` and `crates/`.
pub fn find_root(start: &Path) -> Option<PathBuf> {
    let mut dir = start.to_path_buf();
    loop {
        if dir.join("Cargo.toml").is_file() && dir.join("crates").is_dir() {
            return Some(dir);
        }
        if !dir.pop() {
            return None;
        }
    }
}
