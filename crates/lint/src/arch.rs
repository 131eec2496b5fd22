//! The `arch` rule: the shape the paper's comparison rests on — one
//! physical plan, one body per stage and paradigm, one driver, one set
//! of hash tables — as a table of forbidden patterns, one [`Guard`]
//! per retired construct.
//!
//! A pattern is matched against each line's **code** channel, so text
//! in comments and string literals never matches. Its syntax needs no
//! regex engine:
//!
//! - every character is literal, except:
//! - `*` matches an identifier fragment (`[A-Za-z0-9_]*`, maybe empty);
//! - `$` matches the end of the line (trailing whitespace allowed);
//! - a leading `"` matches the rest against the contents of the line's
//!   string literals instead of its code (format specs live there);
//! - a pattern that starts (ends) with an identifier character only
//!   matches at a word boundary there. A leading (trailing) `*` lifts
//!   that boundary, as a grep without `\b` has none.
//!
//! Test code is included: a guard forbids the construct everywhere in
//! its scope. A finding is one matching line, as `grep -n` counts.

use crate::lex::{is_ident, prev_is_ident, FileScan};
use crate::rules::{Finding, RULE_ARCH};

/// One forbidden construct.
pub struct Guard {
    pub name: &'static str,
    /// Path prefixes the guard covers (a directory ends with `/`); an
    /// entry `!<file name>` exempts that file.
    pub scope: &'static [&'static str],
    /// Any one of them matching flags the line.
    pub patterns: &'static [&'static str],
    /// Why the construct is gone, and what replaced it.
    pub message: &'static str,
}

const QUERIES: &[&str] = &["crates/queries/src/"];
const PLANS: &[&str] = &["crates/queries/src/tpch/", "crates/queries/src/ssb/"];
const VOLCANO: &[&str] = &["crates/volcano/src/"];
const EXPERIMENTS: &[&str] = &["crates/bench/src/bin/experiments.rs"];

pub const GUARDS: &[Guard] = &[
    // One body per plan and engine.
    Guard {
        name: "encoded-twin",
        scope: QUERIES,
        patterns: &["fn *_encoded*"],
        message: "storage format is a column reader (RowScan / Col), not a forked function",
    },
    Guard {
        name: "whole-query-body",
        scope: QUERIES,
        patterns: &["fn typer", "fn tectorwise", "*heuristic_pure*", "-> Option<QueryResult>"],
        message: "a plan is its list of stages (QueryPlan::run_stages); pure engines are uniform assignments",
    },
    Guard {
        name: "stage-module",
        scope: &["crates/compiled/src/", "crates/vectorized/src/"],
        patterns: &["mod stage"],
        message: "the one build helper is ExecCfg::build_ht, on map_scan",
    },
    // A Volcano plan is a value.
    Guard {
        name: "hand-wired-plan",
        scope: &[
            "crates/queries/src/tpch/",
            "crates/queries/src/ssb/",
            "crates/queries/src/oltp.rs",
        ],
        patterns: &["*Scan::new*", "*exchange::union*", "*Morsels*", "*ops::collect*"],
        message: "a query's Volcano plan is a dbep_volcano::Plan value; Plan::run opens, paces, partitions and merges it",
    },
    Guard {
        // Q18 adds the second lineitem read its SQL makes and its plan elides.
        name: "tuples-scanned",
        scope: &["crates/queries/src/tpch/", "crates/queries/src/ssb/", "!q18.rs"],
        patterns: &["fn tuples_scanned*"],
        message: "tuples_scanned is derived from QueryPlan::volcano_plan, not written per plan",
    },
    Guard {
        name: "worker-build",
        scope: VOLCANO,
        patterns: &["*build: BoxOp*"],
        message: "a Volcano join probes the one table Plan::run built before the probe pipeline opened; no worker builds its own",
    },
    Guard {
        name: "typer-pipeline",
        scope: &["crates/compiled/src/"],
        patterns: &["mod pipeline"],
        message: "Typer's arms are the hand-written fused loops over map_scan/RowScan",
    },
    Guard {
        name: "second-driver",
        scope: &["crates/"],
        patterns: &["mod exchange", "*morsel_driven*", "fn map_parts", "fn map_workers"],
        message: "every Volcano pipeline is one ExecCtx::map_slots over its morsels; there is no second parallel driver",
    },
    Guard {
        name: "volcano-tables",
        scope: VOLCANO,
        patterns: &["*HashMap*", "*HashSet*", "*BuildHasherDefault*", "*ValMap*", "*take_largest*"],
        message: "Volcano builds and probes the runtime's tables: JoinHt for its joins, GroupByShard + merge_partitions for its aggregates",
    },
    // One pre-aggregation bound.
    Guard {
        name: "preagg-bound",
        scope: QUERIES,
        patterns: &["const PREAGG_GROUPS*"],
        message: "every group-by uses the runtime's one bound, agg_ht::PREAGG_GROUPS (GroupByShard::new)",
    },
    Guard {
        name: "unbounded-shard",
        scope: VOLCANO,
        patterns: &["*GroupByShard::new(usize::MAX)"],
        message: "Volcano's pre-aggregation flushes when full, like Typer's and Tectorwise's",
    },
    // A Tectorwise group-by gives every tuple its group first.
    Guard {
        name: "scalar-miss-fold",
        scope: QUERIES,
        patterns: &["*miss_sel*", "*group_sel*", "*find_groups("],
        message: "resolve a vector's groups with tw::grouping::find_or_insert_groups, then run one agg_update primitive per aggregate over all tuples",
    },
    // A stage is one driver call with a Typer and a Tectorwise body.
    Guard {
        name: "stage-paradigm-match",
        scope: PLANS,
        patterns: &[
            "match engine*",
            "*Engine::Typer =>",
            "*Engine::Tectorwise =>",
            "*unreachable!(",
            "*tw::chunks(",
        ],
        message: "pass the stage's engine and its two morsel bodies to ExecCfg::{fold, build, group_by}; ExecCfg::bodies is the one place that picks a body and cuts a morsel into vectors",
    },
    // A scan is charged what storage holds.
    Guard {
        name: "bits-constant",
        scope: PLANS,
        patterns: &["const *_BITS*"],
        message: "charge a stage's raw slices with Table::flat_bits of the columns it reads, its column readers with RowScan::bits / Col::bits",
    },
    Guard {
        name: "serial-build",
        scope: PLANS,
        patterns: &["*JoinHt::build((0..", "*JoinHt::build($"],
        message: "build a hash table over a table's rows on the paced driver: ExecCfg::build_ht (one body), ExecCfg::build (two bodies) or ssb::build_dim",
    },
    // One renderer per output format.
    Guard {
        name: "format-twin",
        scope: EXPERIMENTS,
        patterns: &["fn *_json", "fn *_text"],
        message: "each subcommand returns one dbep_bench::report::Report; main renders it as text or JSON",
    },
    Guard {
        name: "format-width",
        scope: EXPERIMENTS,
        patterns: &["\"{*:<", "\"{*:>", "\"{*:^"],
        message: "column alignment belongs to Report::to_text, not to per-subcommand width specs",
    },
];

impl Guard {
    pub fn covers(&self, path: &str) -> bool {
        let name = path.rsplit('/').next().unwrap_or(path);
        self.scope.iter().any(|s| path.starts_with(s))
            && !self.scope.iter().any(|s| s.strip_prefix('!') == Some(name))
    }

    /// 1-based numbers of the lines of `scan` the guard flags.
    pub fn lines(&self, scan: &FileScan) -> Vec<usize> {
        if !self.covers(&scan.path) {
            return Vec::new();
        }
        let hit = |line: &crate::lex::Line| {
            self.patterns.iter().any(|p| match p.strip_prefix('"') {
                Some(p) => line.literals.iter().any(|l| find(p, l)),
                None => find(p, &line.code),
            })
        };
        (0..scan.lines.len())
            .filter(|&i| hit(&scan.lines[i]))
            .map(|i| i + 1)
            .collect()
    }
}

/// Does `pat` match anywhere in `text`?
pub fn find(pat: &str, text: &str) -> bool {
    let left = pat.starts_with(is_ident);
    (0..=text.len())
        .filter(|&i| text.is_char_boundary(i) && !(left && prev_is_ident(&text[..i])))
        .any(|i| match_at(pat, &text[i..], pat.ends_with(is_ident)))
}

/// Does `p` match a prefix of `t`? `right` asks for a word boundary
/// where the match ends.
fn match_at(p: &str, t: &str, right: bool) -> bool {
    let mut rest = p.chars();
    match rest.next() {
        None => !(right && t.starts_with(is_ident)),
        Some('*') => {
            let run = t.find(|c| !is_ident(c)).unwrap_or(t.len());
            (0..=run).rev().any(|k| match_at(rest.as_str(), &t[k..], right))
        }
        Some('$') => t.trim().is_empty(),
        Some(c) => t.starts_with(c) && match_at(rest.as_str(), &t[c.len_utf8()..], right),
    }
}

/// The rule's findings over a set of lexed files.
pub fn check(files: &[FileScan]) -> Vec<Finding> {
    let mut out = Vec::new();
    for guard in GUARDS {
        for scan in files {
            for line in guard.lines(scan) {
                out.push(Finding {
                    rule: RULE_ARCH,
                    path: scan.path.clone(),
                    line,
                    message: format!("{}: {}", guard.name, guard.message),
                });
            }
        }
    }
    out
}

/// `list --rule arch`: one line per guard with its current match count.
pub fn list(files: &[FileScan]) -> Vec<String> {
    GUARDS
        .iter()
        .map(|g| {
            let n: usize = files.iter().map(|f| g.lines(f).len()).sum();
            format!(
                "{} [{}] `{}`: {n} line(s)",
                g.name,
                g.scope.join(" "),
                g.patterns.join("` | `")
            )
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::find;

    #[test]
    fn literal_and_word_boundaries() {
        assert!(find("mod stage", "mod stage {"));
        assert!(!find("mod stage", "mod stages {"));
        assert!(!find("fn typer", "fn typers()"));
        assert!(find("fn typer", "pub fn typer("));
        assert!(!find("mod exchange", "submod exchange"));
    }

    #[test]
    fn star_is_an_identifier_fragment() {
        assert!(find("fn *_encoded*", "fn q6_encoded("));
        assert!(find("fn *_encoded*", "fn q6_encoded_v2("));
        assert!(find("fn *_encoded*", "fn a_encoded_b_encoded("));
        assert!(!find("fn *_encoded*", "fn q6_encode("));
        assert!(find("const *_BITS*", "const LI_BITS: u64 = 96;"));
        assert!(!find("const *_BITS*", "const LI: u64 = BITS;"));
        assert!(find("*HashMap*", "use std::collections::HashMap;"));
        assert!(find("*HashMap*", "type M = FxHashMapLike;"));
        assert!(find("match engine*", "match engines[0] {"));
    }

    #[test]
    fn dollar_is_the_end_of_the_line() {
        assert!(find("*JoinHt::build($", "    let ht = JoinHt::build(  "));
        assert!(!find("*JoinHt::build($", "JoinHt::build(rows)"));
        assert!(find("*JoinHt::build((0..", "JoinHt::build((0..n).map(f))"));
    }
}
