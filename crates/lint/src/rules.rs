//! The six repo-specific invariants, as checks over lexed sources.
//!
//! Every rule reports `file:line`-addressable [`Finding`]s; a clean tree
//! produces none. The rules are conventions this codebase already
//! follows — the analyzer's job is to keep them from eroding:
//!
//! 1. **unsafe** — every `unsafe` outside test code carries a
//!    `// SAFETY:` (or `/// # Safety` doc) justification on the same
//!    statement or the contiguous comment block above it.
//! 2. **atomics** — every `Ordering::Relaxed` in the concurrency layer
//!    (scheduler, join/counter runtime, plan cache, bandwidth throttle)
//!    carries a `// ORDERING:` justification the same way.
//! 3. **simd-parity** — every SIMD kernel stem in `dbep-vectorized`
//!    has a `_scalar` twin and vice versa, and every `SimdPolicy`
//!    dispatcher is exercised by at least one test under a `tests/`
//!    directory.
//! 4. **registry** — every `REGISTRY` plan declares `stages()`, has a
//!    naive oracle in the queries test support module, and is swept by
//!    the engine-equivalence suite.
//! 5. **metrics** — every metric registered with a literal name
//!    (`register_counter`/`register_gauge`/`register_histogram`, or a
//!    local closure forwarding to one) uses a snake_case name and a
//!    non-empty help string, so every exposition endpoint stays
//!    Prometheus-compatible and self-describing.
//! 6. **arch** — no retired construct of the engines' shared shape
//!    (a per-engine query body, a second driver, a per-plan byte
//!    constant, …) comes back; see [`crate::arch`].

use crate::lex::{has_word, is_ident, word_positions, words, FileScan};
use std::collections::BTreeMap;

/// One rule violation at a source location.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    pub rule: &'static str,
    pub path: String,
    /// 1-based line number.
    pub line: usize,
    pub message: String,
}

pub const RULE_UNSAFE: &str = "unsafe";
pub const RULE_ATOMICS: &str = "atomics";
pub const RULE_SIMD: &str = "simd-parity";
pub const RULE_REGISTRY: &str = "registry";
pub const RULE_METRICS: &str = "metrics";
pub const RULE_ARCH: &str = "arch";
pub const RULES: &[&str] = &[
    RULE_UNSAFE,
    RULE_ATOMICS,
    RULE_SIMD,
    RULE_REGISTRY,
    RULE_METRICS,
    RULE_ARCH,
];

/// Files whose `Ordering::Relaxed` uses must carry `// ORDERING:`.
/// The whole scheduler plus every other file that does lock-free or
/// lock-adjacent atomics in the serving path.
const ATOMICS_SCOPE: &[&str] = &[
    "crates/scheduler/src/",
    "crates/runtime/src/counters.rs",
    "crates/runtime/src/join_ht.rs",
    "crates/core/src/plan_cache.rs",
    "crates/storage/src/throttle.rs",
    "crates/obs/src/",
    "crates/net/src/",
];

const VECTORIZED_SRC: &str = "crates/vectorized/src/";
const REGISTRY_FILE: &str = "crates/queries/src/lib.rs";
const ORACLE_FILE: &str = "crates/queries/tests/common/mod.rs";
const EQUIVALENCE_FILE: &str = "tests/engine_equivalence.rs";

/// `true` for paths that are test code in their entirety (integration
/// test dirs, benches) — exempt from the audit rules, but *included*
/// in the property-test corpus for the parity rule.
pub fn is_test_path(path: &str) -> bool {
    path.split('/').any(|c| c == "tests" || c == "benches")
}

// ---------------------------------------------------------------------
// Justification walk (shared by the unsafe and atomics rules).
// ---------------------------------------------------------------------

/// First line of the statement containing line `idx`: walk up while the
/// previous line neither closes a statement (`;`/`{`/`}`) nor is blank,
/// comment-only, or an attribute — those belong to an earlier item.
fn stmt_start(scan: &FileScan, idx: usize) -> usize {
    let mut s = idx;
    while s > 0 {
        let prev = scan.lines[s - 1].code.trim();
        if prev.is_empty() || prev.starts_with("#[") || prev.starts_with("#!") {
            break;
        }
        match prev.chars().next_back() {
            Some(';') | Some('{') | Some('}') => break,
            _ => s -= 1,
        }
    }
    s
}

fn comment_has_key(comment: &str, keys: &[&str]) -> bool {
    keys.iter().any(|k| comment.contains(k))
}

/// Is the construct at line `idx` justified? A justification is a
/// comment containing one of `keys`, either on a line of the same
/// statement or in the contiguous comment block directly above it.
/// The walk skips attribute lines, and *chains* through preceding
/// statements that contain the same `trigger` word — one comment may
/// cover a run of sibling sites (e.g. an `unsafe impl Send`/`Sync`
/// pair, or consecutive relaxed counter bumps).
fn justified(scan: &FileScan, idx: usize, trigger: &str, keys: &[&str]) -> bool {
    let start = stmt_start(scan, idx);
    for j in start..=idx {
        if comment_has_key(&scan.lines[j].comment, keys) {
            return true;
        }
    }
    let mut j = start;
    loop {
        if j == 0 {
            return false;
        }
        j -= 1;
        let line = &scan.lines[j];
        let code = line.code.trim();
        if code.is_empty() {
            if line.comment.trim().is_empty() {
                return false; // blank line: the block above is unrelated
            }
            if comment_has_key(&line.comment, keys) {
                return true;
            }
            continue; // comment-only line, keep scanning the block
        }
        if code.starts_with("#[") || code.starts_with("#!") {
            continue; // attributes sit between a doc comment and its item
        }
        if has_word(&line.code, trigger) {
            if comment_has_key(&line.comment, keys) {
                return true;
            }
            j = stmt_start(scan, j); // chain through the covered sibling
            continue;
        }
        return false;
    }
}

/// A site the justification rules track, for `list` mode.
#[derive(Debug)]
pub struct Site {
    pub path: String,
    pub line: usize,
    pub justified: bool,
}

fn audit_sites(scan: &FileScan, trigger: &str, keys: &[&str], skip_use: bool) -> Vec<Site> {
    let mut out = Vec::new();
    for (i, line) in scan.lines.iter().enumerate() {
        if scan.in_test[i] || !has_word(&line.code, trigger) {
            continue;
        }
        if skip_use && line.code.trim().starts_with("use ") {
            continue; // importing `Ordering::Relaxed` is not a use site
        }
        out.push(Site {
            path: scan.path.clone(),
            line: i + 1,
            justified: justified(scan, i, trigger, keys),
        });
    }
    out
}

const SAFETY_KEYS: &[&str] = &["SAFETY:", "# Safety"];
const ORDERING_KEYS: &[&str] = &["ORDERING:"];

pub fn unsafe_sites(scan: &FileScan) -> Vec<Site> {
    audit_sites(scan, "unsafe", SAFETY_KEYS, false)
}

pub fn relaxed_sites(scan: &FileScan) -> Vec<Site> {
    audit_sites(scan, "Relaxed", ORDERING_KEYS, true)
}

fn in_atomics_scope(path: &str) -> bool {
    ATOMICS_SCOPE.iter().any(|p| path.starts_with(p))
}

// ---------------------------------------------------------------------
// SIMD parity symbol table.
// ---------------------------------------------------------------------

const SIMD_SUFFIXES: &[&str] = &["_avx512", "_avx2", "_autovec"];
const SIMD_MODS: &[&str] = &["avx512", "avx2", "autovec"];

/// Where a symbol was first seen.
type SiteMap = BTreeMap<String, (String, usize)>;

/// Naming-convention symbol table over `crates/vectorized/src`.
#[derive(Debug, Default)]
pub struct SimdTable {
    /// Kernel stems with a SIMD implementation (`<stem>_avx512` names
    /// or `avx512::<stem>` ladder-module members).
    pub simd: SiteMap,
    /// Kernel stems with a `<stem>_scalar` twin.
    pub scalar: SiteMap,
    /// Public `SimdPolicy`-laddered entry points: `dispatch_*!`-generated
    /// fns plus `pub fn`s taking a `SimdPolicy`.
    pub dispatchers: SiteMap,
}

fn record(map: &mut SiteMap, name: &str, path: &str, line: usize) {
    map.entry(name.to_string())
        .or_insert_with(|| (path.to_string(), line));
}

/// Identifier starting at byte `pos` of `code`, if any.
fn ident_at(code: &str, pos: usize) -> Option<&str> {
    let rest = &code[pos..];
    let end = rest.find(|c: char| !is_ident(c)).unwrap_or(rest.len());
    let id = &rest[..end];
    (!id.is_empty() && !id.starts_with(|c: char| c.is_ascii_digit())).then_some(id)
}

pub fn collect_simd(scan: &FileScan, table: &mut SimdTable) {
    let mut sig_wants_policy: Option<String> = None; // fn name, sig still open
    for (i, line) in scan.lines.iter().enumerate() {
        if scan.in_test[i] {
            continue;
        }
        let code = &line.code;
        let lineno = i + 1;
        // Suffixed kernels and scalar twins, wherever they are mentioned
        // (definitions and call sites both witness the convention).
        for w in words(code) {
            for suf in SIMD_SUFFIXES {
                if let Some(stem) = w.strip_suffix(suf) {
                    if !stem.is_empty() {
                        record(&mut table.simd, stem, &scan.path, lineno);
                    }
                }
            }
            if let Some(stem) = w.strip_suffix("_scalar") {
                if !stem.is_empty() {
                    record(&mut table.scalar, stem, &scan.path, lineno);
                }
            }
        }
        // Ladder-module members: `avx512::name(...)`.
        for m in SIMD_MODS {
            let pat = format!("{m}::");
            for pos in word_positions(code, m) {
                if code[pos..].starts_with(&pat) {
                    if let Some(id) = ident_at(code, pos + pat.len()) {
                        record(&mut table.simd, id, &scan.path, lineno);
                    }
                }
            }
        }
        // `dispatch_*!(name, ...)` macro-generated public dispatchers.
        for w in words(code) {
            if !w.starts_with("dispatch_") {
                continue;
            }
            for pos in word_positions(code, w) {
                let after = pos + w.len();
                let rest = code[after..].trim_start();
                if let Some(args) = rest.strip_prefix("!(") {
                    if let Some(id) = ident_at(args, 0) {
                        record(&mut table.dispatchers, id, &scan.path, lineno);
                    }
                }
            }
        }
        // `pub fn name(... SimdPolicy ...)` dispatchers, with multi-line
        // signatures: remember the name until the body brace.
        if let Some(pos) = code.find("pub fn ") {
            if let Some(name) = ident_at(code, pos + "pub fn ".len()) {
                sig_wants_policy = Some(name.to_string());
            }
        }
        if let Some(name) = sig_wants_policy.clone() {
            if has_word(code, "SimdPolicy") {
                record(&mut table.dispatchers, &name, &scan.path, lineno);
                sig_wants_policy = None;
            } else if code.contains('{') || code.contains(';') {
                sig_wants_policy = None; // signature closed without a policy
            }
        }
    }
}

// ---------------------------------------------------------------------
// Metric registration hygiene.
// ---------------------------------------------------------------------

/// `register_*` functions the metrics rule tracks, with the metric kind
/// each registers.
const REGISTER_FNS: &[(&str, &str)] = &[
    ("register_counter", "counter"),
    ("register_gauge", "gauge"),
    ("register_histogram", "histogram"),
];

/// One metric registration call site with at least one literal
/// argument. `name`/`help` are the first/second string literals inside
/// the call's parentheses (dynamic arguments leave them `None`).
#[derive(Debug)]
pub struct MetricSite {
    pub path: String,
    pub line: usize,
    pub kind: &'static str,
    pub name: Option<String>,
    pub help: Option<String>,
}

/// Lowercase-snake-case: `[a-z][a-z0-9_]*`.
fn is_snake_case(name: &str) -> bool {
    name.starts_with(|c: char| c.is_ascii_lowercase())
        && name
            .chars()
            .all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '_')
}

/// String literals inside the call whose argument list opens at or
/// after byte `pos` of line `i`, in order, spanning up to a dozen
/// lines. Literal *positions* come from counting quote pairs in the
/// blanked code channel; *contents* come from the literals channel.
fn call_literals(scan: &FileScan, i: usize, pos: usize) -> Vec<String> {
    let mut out = Vec::new();
    let mut depth = 0i32;
    let mut opened = false;
    for (j, line) in scan.lines.iter().enumerate().skip(i).take(12) {
        let start = if j == i { pos } else { 0 };
        let mut lit_idx = line.code[..start].matches('"').count() / 2;
        let mut in_quote = false;
        for c in line.code[start..].chars() {
            match c {
                '"' => {
                    if in_quote {
                        in_quote = false;
                        if opened && depth > 0 {
                            if let Some(l) = line.literals.get(lit_idx) {
                                out.push(l.clone());
                            }
                        }
                        lit_idx += 1;
                    } else {
                        in_quote = true;
                    }
                }
                '(' => {
                    depth += 1;
                    opened = true;
                }
                ')' => {
                    depth -= 1;
                    if opened && depth == 0 {
                        return out;
                    }
                }
                _ => {}
            }
        }
    }
    out
}

/// Does the call whose argument list opens at or after byte `pos` of
/// line `i` pass a string literal as its *first* argument? Dynamic
/// first arguments mean a forwarder (`register_counter(name, help)`),
/// which is not itself a registration site.
fn first_arg_is_literal(scan: &FileScan, i: usize, pos: usize) -> bool {
    let mut seen_paren = false;
    for (j, line) in scan.lines.iter().enumerate().skip(i).take(12) {
        let start = if j == i { pos } else { 0 };
        for c in line.code[start..].chars() {
            if !seen_paren {
                if c == '(' {
                    seen_paren = true;
                } else if !c.is_whitespace() {
                    return false;
                }
            } else if !c.is_whitespace() {
                return c == '"';
            }
        }
    }
    false
}

/// Metric registration sites in one file: direct `register_*` calls
/// plus calls through local closure wrappers of the form
/// `let c = |name, help| registry.register_counter(name, help);`.
pub fn metric_sites(scan: &FileScan) -> Vec<MetricSite> {
    // Pass 1: wrapper closures that forward to a register fn.
    let mut wrappers: Vec<(String, &'static str)> = Vec::new();
    for (i, line) in scan.lines.iter().enumerate() {
        if scan.in_test[i] {
            continue;
        }
        let trimmed = line.code.trim_start();
        let Some(rest) = trimmed.strip_prefix("let ") else {
            continue;
        };
        if !trimmed.contains('|') {
            continue;
        }
        for &(f, kind) in REGISTER_FNS {
            if has_word(&line.code, f) {
                if let Some(id) = ident_at(rest, 0) {
                    wrappers.push((id.to_string(), kind));
                }
            }
        }
    }
    // Pass 2: call sites of register fns and wrappers.
    let mut out = Vec::new();
    for (i, line) in scan.lines.iter().enumerate() {
        if scan.in_test[i] {
            continue;
        }
        let code = &line.code;
        let mut calls: Vec<(usize, &'static str)> = Vec::new();
        for &(f, kind) in REGISTER_FNS {
            for pos in word_positions(code, f) {
                if code[pos + f.len()..].trim_start().starts_with('(') {
                    calls.push((pos + f.len(), kind));
                }
            }
        }
        for (w, kind) in &wrappers {
            for pos in word_positions(code, w) {
                if code[pos + w.len()..].starts_with('(') {
                    calls.push((pos + w.len(), kind));
                }
            }
        }
        calls.sort_unstable_by_key(|&(pos, _)| pos);
        for (pos, kind) in calls {
            if !first_arg_is_literal(scan, i, pos) {
                continue; // dynamic name: a forwarder, not a registration
            }
            let lits = call_literals(scan, i, pos);
            if lits.is_empty() {
                continue;
            }
            out.push(MetricSite {
                path: scan.path.clone(),
                line: i + 1,
                kind,
                name: lits.first().cloned(),
                help: lits.get(1).cloned(),
            });
        }
    }
    out
}

// ---------------------------------------------------------------------
// Registry coverage.
// ---------------------------------------------------------------------

/// One `REGISTRY` entry: `&tpch::q1::Q1` → (`tpch`, `q1`, `Q1`).
#[derive(Debug)]
pub struct RegistryEntry {
    pub ns: String,
    pub module: String,
    pub konst: String,
    pub line: usize,
}

impl RegistryEntry {
    /// `crates/queries/src/<ns>/<module>.rs`.
    pub fn plan_file(&self) -> String {
        format!("crates/queries/src/{}/{}.rs", self.ns, self.module)
    }

    /// Oracle fn name in the queries test support module: TPC-H `q1` →
    /// `q1`; SSB `q1_1` → `ssb1_1`.
    pub fn oracle_fn(&self) -> String {
        if self.ns == "ssb" {
            format!("ssb{}", self.module.trim_start_matches('q'))
        } else {
            self.module.clone()
        }
    }
}

pub fn parse_registry(scan: &FileScan) -> Vec<RegistryEntry> {
    let mut out = Vec::new();
    let mut inside = false;
    for (i, line) in scan.lines.iter().enumerate() {
        let code = line.code.trim();
        if code.contains("static REGISTRY") {
            inside = true;
        }
        if inside {
            if let Some(entry) = code.strip_prefix('&') {
                let parts: Vec<&str> = entry
                    .trim_end_matches(',')
                    .trim_end_matches(']')
                    .split("::")
                    .collect();
                if parts.len() == 3 {
                    out.push(RegistryEntry {
                        ns: parts[0].to_string(),
                        module: parts[1].to_string(),
                        konst: parts[2].to_string(),
                        line: i + 1,
                    });
                }
            }
            if code.contains("];") {
                break;
            }
        }
    }
    out
}

/// Length of `pub const ALL: [QueryId; N]` if declared in this file.
fn query_id_all_len(scan: &FileScan) -> Option<usize> {
    for line in &scan.lines {
        if let Some(rest) = line.code.trim().strip_prefix("pub const ALL: [QueryId; ") {
            let digits: String = rest.chars().take_while(|c| c.is_ascii_digit()).collect();
            return digits.parse().ok();
        }
    }
    None
}

// ---------------------------------------------------------------------
// The analyzer proper.
// ---------------------------------------------------------------------

/// Run all rules over a set of lexed files (paths workspace-relative).
pub fn check(files: &[FileScan]) -> Vec<Finding> {
    let mut findings = Vec::new();
    let by_path: BTreeMap<&str, &FileScan> = files.iter().map(|f| (f.path.as_str(), f)).collect();

    // Rule 1/2: justification audits.
    for scan in files {
        if is_test_path(&scan.path) {
            continue;
        }
        for site in unsafe_sites(scan) {
            if !site.justified {
                findings.push(Finding {
                    rule: RULE_UNSAFE,
                    path: site.path,
                    line: site.line,
                    message: "`unsafe` without a `// SAFETY:` justification".to_string(),
                });
            }
        }
        if in_atomics_scope(&scan.path) {
            for site in relaxed_sites(scan) {
                if !site.justified {
                    findings.push(Finding {
                        rule: RULE_ATOMICS,
                        path: site.path,
                        line: site.line,
                        message: "`Ordering::Relaxed` without a `// ORDERING:` justification".to_string(),
                    });
                }
            }
        }
    }

    // Rule 3: SIMD parity + property-test coverage.
    let table = simd_table(files);
    if !table.simd.is_empty() || !table.scalar.is_empty() {
        let corpus = test_corpus_words(files);
        for (stem, (path, line)) in &table.simd {
            if !table.scalar.contains_key(stem) {
                findings.push(Finding {
                    rule: RULE_SIMD,
                    path: path.clone(),
                    line: *line,
                    message: format!("SIMD kernel `{stem}` has no scalar twin `{stem}_scalar`"),
                });
            }
        }
        for (stem, (path, line)) in &table.scalar {
            if !table.simd.contains_key(stem) {
                findings.push(Finding {
                    rule: RULE_SIMD,
                    path: path.clone(),
                    line: *line,
                    message: format!(
                        "`{stem}_scalar` has no SIMD counterpart (ladder member or `{stem}_avx512`)"
                    ),
                });
            }
        }
        for (name, (path, line)) in &table.dispatchers {
            if !corpus.contains_key(name.as_str()) {
                findings.push(Finding {
                    rule: RULE_SIMD,
                    path: path.clone(),
                    line: *line,
                    message: format!(
                        "dispatcher `{name}` is not exercised by any test under a tests/ directory"
                    ),
                });
            }
        }
    }

    // Rule 4: registry coverage.
    if let Some(reg) = by_path.get(REGISTRY_FILE) {
        let entries = parse_registry(reg);
        if entries.is_empty() {
            findings.push(Finding {
                rule: RULE_REGISTRY,
                path: REGISTRY_FILE.to_string(),
                line: 1,
                message: "could not parse any REGISTRY entries".to_string(),
            });
        }
        let oracle = by_path.get(ORACLE_FILE);
        let equiv = by_path.get(EQUIVALENCE_FILE);
        let equiv_sweeps_all = equiv.is_some_and(|f| f.lines.iter().any(|l| l.code.contains("QueryId::ALL")));
        for e in &entries {
            match by_path.get(e.plan_file().as_str()) {
                None => findings.push(Finding {
                    rule: RULE_REGISTRY,
                    path: REGISTRY_FILE.to_string(),
                    line: e.line,
                    message: format!("plan file {} not found for `{}`", e.plan_file(), e.konst),
                }),
                Some(plan) => {
                    if !plan.lines.iter().any(|l| l.code.contains("fn stages")) {
                        findings.push(Finding {
                            rule: RULE_REGISTRY,
                            path: e.plan_file(),
                            line: 1,
                            message: format!("plan `{}` does not declare `stages()`", e.konst),
                        });
                    }
                }
            }
            let oracle_fn = e.oracle_fn();
            let has_oracle = oracle.is_some_and(|f| {
                f.lines
                    .iter()
                    .any(|l| l.code.contains(&format!("fn {oracle_fn}(")))
            });
            if !has_oracle {
                findings.push(Finding {
                    rule: RULE_REGISTRY,
                    path: ORACLE_FILE.to_string(),
                    line: 1,
                    message: format!(
                        "no naive oracle `fn {oracle_fn}` for registry entry `{}`",
                        e.konst
                    ),
                });
            }
            let in_equiv = equiv_sweeps_all
                || equiv.is_some_and(|f| f.lines.iter().any(|l| has_word(&l.code, &e.konst)));
            if !in_equiv {
                findings.push(Finding {
                    rule: RULE_REGISTRY,
                    path: EQUIVALENCE_FILE.to_string(),
                    line: 1,
                    message: format!(
                        "registry entry `{}` is not swept by the equivalence suite",
                        e.konst
                    ),
                });
            }
        }
        // The `QueryId::ALL` sweep only covers everything if its length
        // tracks the registry — catch a plan added to one but not the other.
        if equiv_sweeps_all {
            if let Some(n) = query_id_all_len(reg) {
                if n != entries.len() {
                    findings.push(Finding {
                        rule: RULE_REGISTRY,
                        path: REGISTRY_FILE.to_string(),
                        line: 1,
                        message: format!(
                            "QueryId::ALL has {n} entries but REGISTRY has {} — the equivalence sweep is not exhaustive",
                            entries.len()
                        ),
                    });
                }
            }
        }
    }

    // Rule 5: metric registration hygiene.
    for scan in files {
        if is_test_path(&scan.path) {
            continue;
        }
        for site in metric_sites(scan) {
            let Some(name) = &site.name else { continue };
            if !is_snake_case(name) {
                findings.push(Finding {
                    rule: RULE_METRICS,
                    path: site.path.clone(),
                    line: site.line,
                    message: format!("{} `{name}` is not snake_case", site.kind),
                });
            }
            if site.help.as_ref().is_none_or(|h| h.trim().is_empty()) {
                findings.push(Finding {
                    rule: RULE_METRICS,
                    path: site.path.clone(),
                    line: site.line,
                    message: format!("{} `{name}` has no help string", site.kind),
                });
            }
        }
    }

    // Rule 6: the architecture guards.
    findings.extend(crate::arch::check(files));

    findings.sort_by(|a, b| (a.path.as_str(), a.line, a.rule).cmp(&(b.path.as_str(), b.line, b.rule)));
    findings
}

pub fn simd_table(files: &[FileScan]) -> SimdTable {
    let mut table = SimdTable::default();
    for scan in files {
        if scan.path.starts_with(VECTORIZED_SRC) && !is_test_path(&scan.path) {
            collect_simd(scan, &mut table);
        }
    }
    table
}

/// Words appearing in test-corpus files (any `tests/` or `benches/`
/// directory), mapped to the first file each was seen in.
fn test_corpus_words(files: &[FileScan]) -> BTreeMap<String, String> {
    let mut out = BTreeMap::new();
    for scan in files {
        if !is_test_path(&scan.path) {
            continue;
        }
        for line in &scan.lines {
            for w in words(&line.code) {
                out.entry(w.to_string()).or_insert_with(|| scan.path.clone());
            }
        }
    }
    out
}

/// Inventory lines for `list --rule <name>` — the full set of sites or
/// symbols a rule tracks, with per-item status.
pub fn list(files: &[FileScan], rule: &str) -> Vec<String> {
    let mut out = Vec::new();
    match rule {
        RULE_UNSAFE | RULE_ATOMICS => {
            for scan in files {
                if is_test_path(&scan.path) {
                    continue;
                }
                if rule == RULE_ATOMICS && !in_atomics_scope(&scan.path) {
                    continue;
                }
                let sites = if rule == RULE_UNSAFE {
                    unsafe_sites(scan)
                } else {
                    relaxed_sites(scan)
                };
                for s in sites {
                    let status = if s.justified { "ok" } else { "MISSING" };
                    out.push(format!("{}:{}: {status}", s.path, s.line));
                }
            }
        }
        RULE_SIMD => {
            let table = simd_table(files);
            let corpus = test_corpus_words(files);
            let mut stems: Vec<&String> = table.simd.keys().chain(table.scalar.keys()).collect();
            stems.sort();
            stems.dedup();
            for stem in stems {
                out.push(format!(
                    "stem {stem}: simd={} scalar={}",
                    table.simd.contains_key(stem),
                    table.scalar.contains_key(stem)
                ));
            }
            for (name, (path, line)) in &table.dispatchers {
                match corpus.get(name.as_str()) {
                    Some(file) => out.push(format!("dispatcher {name} ({path}:{line}): tested in {file}")),
                    None => out.push(format!("dispatcher {name} ({path}:{line}): UNTESTED")),
                }
            }
        }
        RULE_REGISTRY => {
            let by_path: BTreeMap<&str, &FileScan> = files.iter().map(|f| (f.path.as_str(), f)).collect();
            if let Some(reg) = by_path.get(REGISTRY_FILE) {
                for e in parse_registry(reg) {
                    out.push(format!(
                        "{}::{}::{} (oracle fn {}, plan {})",
                        e.ns,
                        e.module,
                        e.konst,
                        e.oracle_fn(),
                        e.plan_file()
                    ));
                }
            }
        }
        RULE_METRICS => {
            for scan in files {
                if is_test_path(&scan.path) {
                    continue;
                }
                for s in metric_sites(scan) {
                    let name = s.name.as_deref().unwrap_or("?");
                    let ok = s.name.as_deref().is_some_and(is_snake_case)
                        && s.help.as_ref().is_some_and(|h| !h.trim().is_empty());
                    let status = if ok { "ok" } else { "BAD" };
                    out.push(format!("{}:{}: {} {name}: {status}", s.path, s.line, s.kind));
                }
            }
        }
        RULE_ARCH => out = crate::arch::list(files),
        _ => {}
    }
    out
}
