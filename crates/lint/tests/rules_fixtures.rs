//! Fixture tests: each rule against small synthetic trees — one clean
//! and one seeded-violation variant per rule, plus the false-positive
//! guards (string literals, `#[cfg(test)]` code, macro bodies, test
//! paths). These are the CI proof that `dbep-lint check` actually fails
//! on a violation.

use dbep_lint::check_sources;
use dbep_lint::rules::{RULE_ATOMICS, RULE_METRICS, RULE_REGISTRY, RULE_SIMD, RULE_UNSAFE};

fn rules_of(findings: &[dbep_lint::Finding]) -> Vec<&'static str> {
    findings.iter().map(|f| f.rule).collect()
}

// -----------------------------------------------------------------
// Rule: unsafe
// -----------------------------------------------------------------

#[test]
fn unjustified_unsafe_is_flagged_with_location() {
    let src = "pub fn f(xs: &[i32]) -> i32 {\n    unsafe { *xs.get_unchecked(0) }\n}\n";
    let report = check_sources([("crates/x/src/lib.rs", src)]);
    assert_eq!(rules_of(&report.findings), vec![RULE_UNSAFE]);
    assert_eq!(report.findings[0].line, 2);
    assert_eq!(report.findings[0].path, "crates/x/src/lib.rs");
}

#[test]
fn safety_comment_justifies_unsafe() {
    let src = "pub fn f(xs: &[i32]) -> i32 {\n    \
               // SAFETY: caller guarantees xs is non-empty.\n    \
               unsafe { *xs.get_unchecked(0) }\n}\n";
    assert!(check_sources([("crates/x/src/lib.rs", src)]).is_clean());
}

#[test]
fn safety_doc_section_justifies_unsafe_fn() {
    let src = "/// Reads the first element.\n///\n/// # Safety\n/// `xs` must be non-empty.\n\
               pub unsafe fn first(xs: &[i32]) -> i32 {\n    *xs.get_unchecked(0)\n}\n";
    assert!(check_sources([("crates/x/src/lib.rs", src)]).is_clean());
}

#[test]
fn one_safety_comment_covers_sibling_unsafe_impls() {
    let src = "pub struct P(*const u8);\n\
               // SAFETY: P is an opaque token, never dereferenced.\n\
               unsafe impl Send for P {}\nunsafe impl Sync for P {}\n";
    assert!(check_sources([("crates/x/src/lib.rs", src)]).is_clean());
}

#[test]
fn unsafe_in_string_literal_is_not_flagged() {
    let src = "pub fn msg() -> &'static str {\n    \"this code is unsafe to ship\"\n}\n";
    assert!(check_sources([("crates/x/src/lib.rs", src)]).is_clean());
}

#[test]
fn unsafe_under_cfg_test_is_exempt() {
    let src = "pub fn f() {}\n\n#[cfg(test)]\nmod tests {\n    #[test]\n    fn t() {\n        \
               let x = [1i32];\n        assert_eq!(unsafe { *x.as_ptr() }, 1);\n    }\n}\n";
    assert!(check_sources([("crates/x/src/lib.rs", src)]).is_clean());
}

#[test]
fn cfg_test_item_without_a_block_does_not_hide_the_next_one() {
    let src = "#[cfg(test)]\nuse std::fmt;\n\npub fn f(p: *const u8) -> u8 {\n    unsafe { *p }\n}\n";
    let report = check_sources([("crates/x/src/lib.rs", src)]);
    assert_eq!(rules_of(&report.findings), vec![RULE_UNSAFE]);
    assert_eq!(report.findings[0].line, 5);
}

#[test]
fn unsafe_in_test_paths_is_exempt() {
    let src = "fn main() { unsafe { std::hint::unreachable_unchecked() } }\n";
    assert!(check_sources([("crates/x/tests/it.rs", src)]).is_clean());
    assert!(check_sources([("crates/x/benches/b.rs", src)]).is_clean());
}

// -----------------------------------------------------------------
// Rule: atomics
// -----------------------------------------------------------------

const RELAXED_BAD: &str = "use std::sync::atomic::{AtomicU64, Ordering};\n\
    pub fn bump(c: &AtomicU64) {\n    c.fetch_add(1, Ordering::Relaxed);\n}\n";

#[test]
fn unjustified_relaxed_in_scope_is_flagged() {
    let report = check_sources([("crates/scheduler/src/pool.rs", RELAXED_BAD)]);
    assert_eq!(rules_of(&report.findings), vec![RULE_ATOMICS]);
    assert_eq!(report.findings[0].line, 3);
}

#[test]
fn ordering_comment_justifies_relaxed() {
    let src = "use std::sync::atomic::{AtomicU64, Ordering};\n\
               pub fn bump(c: &AtomicU64) {\n    \
               // ORDERING: Relaxed — monotonic stats counter.\n    \
               c.fetch_add(1, Ordering::Relaxed);\n}\n";
    assert!(check_sources([("crates/scheduler/src/pool.rs", src)]).is_clean());
}

#[test]
fn relaxed_outside_scope_is_not_checked() {
    assert!(check_sources([("crates/volcano/src/lib.rs", RELAXED_BAD)]).is_clean());
}

#[test]
fn relaxed_in_use_line_is_not_a_site() {
    let src = "use std::sync::atomic::Ordering::Relaxed;\npub fn f() {}\n";
    assert!(check_sources([("crates/scheduler/src/pool.rs", src)]).is_clean());
}

#[test]
fn one_ordering_comment_covers_a_run_of_relaxed_lines() {
    let src = "use std::sync::atomic::{AtomicU64, Ordering};\n\
               pub struct S { a: AtomicU64, b: AtomicU64 }\n\
               pub fn snap(s: &S) -> (u64, u64) {\n    \
               // ORDERING: Relaxed — independent stats counters.\n    \
               let a = s.a.load(Ordering::Relaxed);\n    \
               let b = s.b.load(Ordering::Relaxed);\n    (a, b)\n}\n";
    assert!(check_sources([("crates/scheduler/src/pool.rs", src)]).is_clean());
}

// -----------------------------------------------------------------
// Rule: simd-parity
// -----------------------------------------------------------------

/// A matched kernel pair that arms the rule without tripping it.
const PAIRED: &str = "fn base_scalar() {}\nfn base_avx512() {}\n";

#[test]
fn simd_kernel_without_scalar_twin_is_flagged() {
    let src = "pub fn lone_avx512(xs: &[i64]) -> i64 {\n    xs[0]\n}\n";
    let report = check_sources([("crates/vectorized/src/k.rs", src)]);
    assert_eq!(rules_of(&report.findings), vec![RULE_SIMD]);
    assert!(report.findings[0].message.contains("lone"));
}

#[test]
fn scalar_without_simd_counterpart_is_flagged() {
    let src = "pub fn only_scalar(xs: &[i64]) -> i64 {\n    xs[0]\n}\n";
    let report = check_sources([("crates/vectorized/src/k.rs", src)]);
    assert_eq!(rules_of(&report.findings), vec![RULE_SIMD]);
}

#[test]
fn ladder_module_member_counts_as_simd_side() {
    // The `avx512::base()` dispatch-arm call is what witnesses the
    // ladder membership.
    let src = "mod avx512 {\n    pub fn base() {}\n}\nfn base_scalar() {}\n\
               fn call() {\n    avx512::base()\n}\n";
    assert!(check_sources([("crates/vectorized/src/k.rs", src)]).is_clean());
}

#[test]
fn untested_dispatcher_is_flagged_and_test_mention_clears_it() {
    let src = "use crate::SimdPolicy;\n\
               pub fn kern(xs: &[i64], policy: SimdPolicy) -> i64 {\n    xs[0]\n}\n";
    let fixture = [
        ("crates/vectorized/src/k.rs", PAIRED),
        ("crates/vectorized/src/d.rs", src),
    ];
    let report = check_sources(fixture);
    assert_eq!(rules_of(&report.findings), vec![RULE_SIMD]);
    assert!(report.findings[0].message.contains("kern"));

    let test = "#[test]\nfn sweeps() { kern(&[1], SimdPolicy::Scalar); }\n";
    let covered = [
        ("crates/vectorized/src/k.rs", PAIRED),
        ("crates/vectorized/src/d.rs", src),
        ("crates/vectorized/tests/cov.rs", test),
    ];
    assert!(check_sources(covered).is_clean());
}

#[test]
fn macro_generated_dispatchers_are_tracked_by_invocation() {
    // The macro_rules body ($name) must not register; the invocation's
    // first identifier must.
    let src = "macro_rules! dispatch_dense {\n    ($name:ident) => {\n        \
               pub fn $name(policy: SimdPolicy) {}\n    };\n}\n\
               dispatch_dense!(sel_x);\n";
    let fixture = [
        ("crates/vectorized/src/k.rs", PAIRED),
        ("crates/vectorized/src/m.rs", src),
    ];
    let report = check_sources(fixture);
    assert_eq!(rules_of(&report.findings), vec![RULE_SIMD]);
    assert!(
        report.findings[0].message.contains("sel_x"),
        "{:?}",
        report.findings[0]
    );
}

#[test]
fn simd_names_outside_vectorized_are_ignored() {
    let src = "pub fn helper_avx512() {}\n";
    assert!(check_sources([("crates/runtime/src/x.rs", src)]).is_clean());
}

// -----------------------------------------------------------------
// Rule: registry
// -----------------------------------------------------------------

const REGISTRY_OK: &str = "pub const ALL: [QueryId; 1] = [QueryId::Q1];\n\
    static REGISTRY: [&dyn QueryPlan; 1] = [\n    &tpch::q1::Q1,\n];\n";
const PLAN_OK: &str = "pub struct Plan;\nimpl Plan {\n    fn stages(&self) -> usize { 2 }\n}\n";
const ORACLE_OK: &str = "pub fn q1(db: &Database) -> QueryResult { todo!() }\n";
const EQUIV_OK: &str = "fn sweep() { for q in QueryId::ALL {} }\n";

fn registry_fixture() -> Vec<(&'static str, &'static str)> {
    vec![
        ("crates/queries/src/lib.rs", REGISTRY_OK),
        ("crates/queries/src/tpch/q1.rs", PLAN_OK),
        ("crates/queries/tests/common/mod.rs", ORACLE_OK),
        ("tests/engine_equivalence.rs", EQUIV_OK),
    ]
}

#[test]
fn complete_registry_is_clean() {
    assert!(check_sources(registry_fixture()).is_clean());
}

#[test]
fn plan_without_stages_is_flagged() {
    let mut fx = registry_fixture();
    fx[1].1 = "pub struct Plan;\n";
    let report = check_sources(fx);
    assert_eq!(rules_of(&report.findings), vec![RULE_REGISTRY]);
    assert!(report.findings[0].message.contains("stages"));
}

#[test]
fn missing_plan_file_is_flagged() {
    let mut fx = registry_fixture();
    fx.remove(1);
    let report = check_sources(fx);
    assert_eq!(rules_of(&report.findings), vec![RULE_REGISTRY]);
    assert!(report.findings[0].message.contains("not found"));
}

#[test]
fn missing_oracle_is_flagged() {
    let mut fx = registry_fixture();
    fx[2].1 = "pub fn other() {}\n";
    let report = check_sources(fx);
    assert_eq!(rules_of(&report.findings), vec![RULE_REGISTRY]);
    assert!(report.findings[0].message.contains("fn q1"));
}

#[test]
fn equivalence_sweep_length_mismatch_is_flagged() {
    let mut fx = registry_fixture();
    // Registry grows to two entries but QueryId::ALL still has one.
    fx[0].1 = "pub const ALL: [QueryId; 1] = [QueryId::Q1];\n\
               static REGISTRY: [&dyn QueryPlan; 2] = [\n    &tpch::q1::Q1,\n    &tpch::q6::Q6,\n];\n";
    fx.push(("crates/queries/src/tpch/q6.rs", PLAN_OK));
    fx.push((
        "crates/queries/tests/common/q6_oracle.rs",
        "pub fn q6(db: &Database) {}\n",
    ));
    let report = check_sources(fx);
    // q6's oracle lives in the wrong file on purpose: expect the oracle
    // finding and the ALL-length mismatch.
    let rules = rules_of(&report.findings);
    assert!(rules.iter().all(|r| *r == RULE_REGISTRY), "{rules:?}");
    assert!(report.findings.iter().any(|f| f
        .message
        .contains("QueryId::ALL has 1 entries but REGISTRY has 2")));
}

// -----------------------------------------------------------------
// Rule: metrics
// -----------------------------------------------------------------

#[test]
fn well_formed_metric_registration_is_clean() {
    let src = "pub fn wire(r: &Registry) {\n    \
               let c = r.register_counter(\"queries_started\", \"Query runs begun.\");\n    \
               let h = r.register_histogram(\"latency_ns\", \"Per-run latency.\");\n}\n";
    assert!(check_sources([("crates/x/src/lib.rs", src)]).is_clean());
}

#[test]
fn non_snake_case_metric_name_is_flagged() {
    let src = "pub fn wire(r: &Registry) {\n    \
               let c = r.register_counter(\"QueriesStarted\", \"Query runs begun.\");\n}\n";
    let report = check_sources([("crates/x/src/lib.rs", src)]);
    assert_eq!(rules_of(&report.findings), vec![RULE_METRICS]);
    assert_eq!(report.findings[0].line, 2);
    assert!(report.findings[0].message.contains("snake_case"));
}

#[test]
fn missing_or_empty_help_is_flagged() {
    let empty = "pub fn wire(r: &Registry) {\n    \
                 let g = r.register_gauge(\"queue_depth\", \"\");\n}\n";
    let report = check_sources([("crates/x/src/lib.rs", empty)]);
    assert_eq!(rules_of(&report.findings), vec![RULE_METRICS]);
    assert!(report.findings[0].message.contains("help"));
}

#[test]
fn multi_line_registration_arguments_are_parsed() {
    let src = "pub fn wire(r: &Registry) {\n    \
               let c = r.register_counter(\n        \
               \"bytes_scanned_total\",\n        \
               \"Column-payload bytes scanned.\",\n    );\n}\n";
    assert!(check_sources([("crates/x/src/lib.rs", src)]).is_clean());
    let bad = "pub fn wire(r: &Registry) {\n    \
               let c = r.register_counter(\n        \
               \"Bytes-Scanned\",\n        \
               \"Column-payload bytes scanned.\",\n    );\n}\n";
    let report = check_sources([("crates/x/src/lib.rs", bad)]);
    assert_eq!(rules_of(&report.findings), vec![RULE_METRICS]);
}

#[test]
fn closure_wrapper_call_sites_are_checked() {
    // The EngineMetrics idiom: a local closure forwards to register_*;
    // the literal call sites through it are the registrations.
    let src = "pub fn wire(registry: &Registry) {\n    \
               let c = |name, help| registry.register_counter(name, help);\n    \
               let ok = c(\"queries_completed\", \"Runs finished.\");\n    \
               let bad = c(\"Queries-Failed\", \"Runs failed.\");\n}\n";
    let report = check_sources([("crates/x/src/lib.rs", src)]);
    assert_eq!(rules_of(&report.findings), vec![RULE_METRICS]);
    assert_eq!(report.findings[0].line, 4);
    assert!(report.findings[0].message.contains("Queries-Failed"));
}

#[test]
fn dynamic_metric_names_and_test_code_are_exempt() {
    // A pure forwarder (no literals) is not a registration site, and
    // test code may register whatever it likes.
    let fwd = "pub fn reg(r: &Registry, name: &str) -> Arc<Counter> {\n    \
               r.register_counter(name, \"dynamic help\")\n}\n";
    assert!(check_sources([("crates/x/src/lib.rs", fwd)]).is_clean());
    let test_src = "#[cfg(test)]\nmod tests {\n    #[test]\n    fn t() {\n        \
                    let r = Registry::new();\n        \
                    r.register_counter(\"Whatever-Goes\", \"\");\n    }\n}\n";
    assert!(check_sources([("crates/x/src/lib.rs", test_src)]).is_clean());
    let bench = "fn main() { r.register_counter(\"Not-Snake\", \"\"); }\n";
    assert!(check_sources([("crates/x/benches/b.rs", bench)]).is_clean());
}

#[test]
fn ssb_oracle_naming_is_mapped() {
    let fx = vec![
        (
            "crates/queries/src/lib.rs",
            "pub const ALL: [QueryId; 1] = [QueryId::Ssb11];\n\
             static REGISTRY: [&dyn QueryPlan; 1] = [\n    &ssb::q1_1::Q11,\n];\n",
        ),
        ("crates/queries/src/ssb/q1_1.rs", PLAN_OK),
        (
            "crates/queries/tests/common/mod.rs",
            "pub fn ssb1_1(db: &Database) {}\n",
        ),
        ("tests/engine_equivalence.rs", EQUIV_OK),
    ];
    assert!(check_sources(fx).is_clean());
}
