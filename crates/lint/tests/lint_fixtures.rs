//! Fixture tests for the lint engine: every rule gets a positive tree
//! (seeded violations that must fail), plus negative / suppressed /
//! string-and-comment snippets that must stay quiet. The positive trees
//! are also driven through the real `netpack-lint` binary to pin the
//! exit-code contract `scripts/check.sh` relies on.

use netpack_lint::{analyze_source, Finding};
use std::path::PathBuf;
use std::process::Command;

fn fixture_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures")
}

fn findings(virtual_path: &str, source: &str) -> Vec<Finding> {
    analyze_source(virtual_path, source).findings
}

fn rule_lines(fs: &[Finding], rule: &str) -> Vec<usize> {
    fs.iter()
        .filter(|f| f.rule == rule)
        .map(|f| f.line)
        .collect()
}

// ---------------------------------------------------------------- positives

#[test]
fn d1_positive_flags_every_iteration_form() {
    let src = include_str!("fixtures/tree_d1/crates/flowsim/src/lib.rs");
    let fs = findings("crates/flowsim/src/lib.rs", src);
    assert_eq!(rule_lines(&fs, "D1"), vec![6, 9, 12], "{fs:#?}");
    assert_eq!(fs.len(), 3, "no other rule should fire: {fs:#?}");
}

#[test]
fn d1_ignores_non_target_crates() {
    let src = include_str!("fixtures/tree_d1/crates/flowsim/src/lib.rs");
    let fs = findings("crates/cli/src/lib.rs", src);
    assert!(rule_lines(&fs, "D1").is_empty(), "{fs:#?}");
}

#[test]
fn d2_positive_flags_instant_and_system_time() {
    let src = include_str!("fixtures/tree_d2/crates/core/src/lib.rs");
    let fs = findings("crates/core/src/lib.rs", src);
    assert_eq!(rule_lines(&fs, "D2"), vec![3, 8], "{fs:#?}");
}

#[test]
fn d2_exempts_metrics_perf() {
    let src = include_str!("fixtures/tree_d2/crates/core/src/lib.rs");
    let fs = findings("crates/metrics/src/perf.rs", src);
    assert!(rule_lines(&fs, "D2").is_empty(), "{fs:#?}");
}

#[test]
fn d3_positive_flags_all_three_entropy_sources() {
    let src = include_str!("fixtures/tree_d3/crates/workload/src/lib.rs");
    let fs = findings("crates/workload/src/lib.rs", src);
    assert_eq!(rule_lines(&fs, "D3"), vec![3, 4, 5], "{fs:#?}");
}

#[test]
fn n1_positive_flags_closure_and_batch_accumulation() {
    let src = include_str!("fixtures/tree_n1/crates/packetsim/src/lib.rs");
    let fs = findings("crates/packetsim/src/lib.rs", src);
    assert_eq!(rule_lines(&fs, "N1"), vec![6, 7, 14], "{fs:#?}");
}

#[test]
fn e1_positive_flags_unwrap_expect_panic() {
    let src = include_str!("fixtures/tree_e1/crates/topology/src/lib.rs");
    let fs = findings("crates/topology/src/lib.rs", src);
    assert_eq!(rule_lines(&fs, "E1"), vec![3, 4, 6], "{fs:#?}");
}

#[test]
fn e1_ignores_driver_crates() {
    let src = include_str!("fixtures/tree_e1/crates/topology/src/lib.rs");
    let fs = findings("crates/bench/src/lib.rs", src);
    assert!(rule_lines(&fs, "E1").is_empty(), "{fs:#?}");
}

#[test]
fn c1_positive_flags_refcell_and_outer_mut_borrow() {
    let src = include_str!("fixtures/tree_c1/crates/metrics/src/lib.rs");
    let fs = findings("crates/metrics/src/lib.rs", src);
    assert_eq!(rule_lines(&fs, "C1"), vec![9, 10], "{fs:#?}");
    assert_eq!(fs.len(), 2, "no other rule should fire: {fs:#?}");
}

#[test]
fn findings_are_attributed_to_their_enclosing_fn() {
    let src = include_str!("fixtures/tree_c1/crates/metrics/src/lib.rs");
    let fs = findings("crates/metrics/src/lib.rs", src);
    assert!(
        fs.iter().all(|f| f.func.as_deref() == Some("sweep")),
        "scope attribution must name the fn: {fs:#?}"
    );
}

#[test]
fn c2_positive_flags_static_mut_and_relaxed() {
    let src = include_str!("fixtures/tree_c2/crates/service/src/lib.rs");
    let fs = findings("crates/service/src/lib.rs", src);
    assert_eq!(rule_lines(&fs, "C2"), vec![5, 8], "{fs:#?}");
}

#[test]
fn m1_positive_flags_unregistered_read() {
    let src = include_str!("fixtures/tree_m1/crates/cli/src/lib.rs");
    let fs = findings("crates/cli/src/lib.rs", src);
    assert_eq!(rule_lines(&fs, "M1"), vec![4], "{fs:#?}");
    assert!(
        fs[0].message.contains("not in the mode-gate registry"),
        "{fs:#?}"
    );
}

#[test]
fn m1_positive_flags_library_reads_even_of_registered_names() {
    let src = include_str!("fixtures/tree_m1_library/crates/flowsim/src/lib.rs");
    let fs = findings("crates/flowsim/src/lib.rs", src);
    assert_eq!(rule_lines(&fs, "M1"), vec![4], "{fs:#?}");
    assert!(
        fs[0].message.contains("library crates read no environment"),
        "{fs:#?}"
    );
    // What is sanctioned in a binary is a finding in any library crate.
    let src = include_str!("fixtures/snippets/m1_negative.rs");
    for krate in netpack_lint::E1_CRATES {
        let fs = findings(&format!("crates/{krate}/src/fix.rs"), src);
        assert_eq!(rule_lines(&fs, "M1"), vec![5], "{krate}: {fs:#?}");
    }
}

#[test]
fn m1_exempts_the_lint_crate_itself() {
    let src = include_str!("fixtures/tree_m1/crates/cli/src/lib.rs");
    let fs = findings("crates/lint/src/registry.rs", src);
    assert!(rule_lines(&fs, "M1").is_empty(), "{fs:#?}");
}

#[test]
fn p1_positive_flags_stale_pragma() {
    let src = include_str!("fixtures/tree_p1/crates/workload/src/lib.rs");
    let fs = findings("crates/workload/src/lib.rs", src);
    assert_eq!(rule_lines(&fs, "P1"), vec![4], "{fs:#?}");
}

#[test]
fn p1_cannot_be_suppressed() {
    // An allow(P1) pragma suppresses nothing, so it is itself stale.
    let src = "pub fn f() -> u32 {\n    // netpack-lint: allow(P1): trying to silence the silencer\n    1\n}\n";
    let fs = findings("crates/workload/src/fix.rs", src);
    assert_eq!(rule_lines(&fs, "P1"), vec![2], "{fs:#?}");
}

// ---------------------------------------------------------------- negatives

#[test]
fn negatives_stay_quiet() {
    for (path, src) in [
        (
            "crates/flowsim/src/fix.rs",
            include_str!("fixtures/snippets/d1_negative.rs"),
        ),
        (
            "crates/core/src/fix.rs",
            include_str!("fixtures/snippets/d2_negative.rs"),
        ),
        (
            "crates/workload/src/fix.rs",
            include_str!("fixtures/snippets/d3_negative.rs"),
        ),
        (
            "crates/packetsim/src/fix.rs",
            include_str!("fixtures/snippets/n1_negative.rs"),
        ),
        (
            "crates/topology/src/fix.rs",
            include_str!("fixtures/snippets/e1_negative.rs"),
        ),
        (
            "crates/metrics/src/fix.rs",
            include_str!("fixtures/snippets/c1_negative.rs"),
        ),
        (
            "crates/bench/src/fix.rs",
            include_str!("fixtures/snippets/m1_negative.rs"),
        ),
    ] {
        let fs = findings(path, src);
        assert!(fs.is_empty(), "{path} should be clean: {fs:#?}");
    }
}

// ------------------------------------------------------------- suppressions

#[test]
fn pragmas_suppress_with_reason() {
    for (path, src) in [
        (
            "crates/flowsim/src/fix.rs",
            include_str!("fixtures/snippets/d1_suppressed.rs"),
        ),
        (
            "crates/core/src/fix.rs",
            include_str!("fixtures/snippets/d2_suppressed.rs"),
        ),
        (
            "crates/workload/src/fix.rs",
            include_str!("fixtures/snippets/d3_suppressed.rs"),
        ),
        (
            "crates/packetsim/src/fix.rs",
            include_str!("fixtures/snippets/n1_suppressed.rs"),
        ),
        (
            "crates/topology/src/fix.rs",
            include_str!("fixtures/snippets/e1_suppressed.rs"),
        ),
        (
            "crates/service/src/fix.rs",
            include_str!("fixtures/snippets/c2_suppressed.rs"),
        ),
    ] {
        let report = analyze_source(path, src);
        assert!(
            report.findings.is_empty(),
            "{path}: pragma should silence the finding: {:#?}",
            report.findings
        );
        assert_eq!(report.suppressed, 1, "{path}: exactly one suppression");
    }
}

#[test]
fn pragma_without_reason_is_its_own_finding() {
    let src =
        "pub fn f() -> u32 {\n    [1u32].first().copied().unwrap() // netpack-lint: allow(E1)\n}\n";
    let report = analyze_source("crates/topology/src/fix.rs", src);
    let rules: Vec<&str> = report.findings.iter().map(|f| f.rule).collect();
    assert!(rules.contains(&"pragma"), "{:#?}", report.findings);
    assert!(rules.contains(&"E1"), "malformed pragma must not suppress");
}

// ------------------------------------------------- string/comment immunity

#[test]
fn literals_and_comments_never_fire() {
    for (path, src) in [
        (
            "crates/flowsim/src/fix.rs",
            include_str!("fixtures/snippets/d1_strings.rs"),
        ),
        (
            "crates/core/src/fix.rs",
            include_str!("fixtures/snippets/d2_strings.rs"),
        ),
        (
            "crates/workload/src/fix.rs",
            include_str!("fixtures/snippets/d3_strings.rs"),
        ),
        (
            "crates/packetsim/src/fix.rs",
            include_str!("fixtures/snippets/n1_strings.rs"),
        ),
        (
            "crates/topology/src/fix.rs",
            include_str!("fixtures/snippets/e1_strings.rs"),
        ),
    ] {
        let fs = findings(path, src);
        assert!(fs.is_empty(), "{path} literal text fired a rule: {fs:#?}");
    }
}

// ----------------------------------------------------- binary exit contract

fn run_binary_on(tree: &str) -> (Option<i32>, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_netpack-lint"))
        .arg("--root")
        .arg(fixture_dir().join(tree))
        .output()
        .expect("spawn netpack-lint");
    (
        out.status.code(),
        String::from_utf8_lossy(&out.stdout).into_owned(),
    )
}

#[test]
fn binary_exits_nonzero_on_each_seeded_rule() {
    for (tree, rule) in [
        ("tree_d1", "[D1]"),
        ("tree_d2", "[D2]"),
        ("tree_d3", "[D3]"),
        ("tree_n1", "[N1]"),
        ("tree_e1", "[E1]"),
        ("tree_c1", "[C1]"),
        ("tree_c2", "[C2]"),
        ("tree_m1", "[M1]"),
        ("tree_m1_library", "[M1]"),
        ("tree_p1", "[P1]"),
    ] {
        let (code, stdout) = run_binary_on(tree);
        assert_eq!(code, Some(1), "{tree} must fail: {stdout}");
        assert!(stdout.contains(rule), "{tree} must report {rule}: {stdout}");
    }
}

#[test]
fn binary_exits_zero_on_clean_tree() {
    let (code, stdout) = run_binary_on("tree_clean");
    assert_eq!(code, Some(0), "clean tree must pass: {stdout}");
    assert!(stdout.contains("clean"), "{stdout}");
}

fn run_binary(args: &[&str]) -> (Option<i32>, String, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_netpack-lint"))
        .args(args)
        .output()
        .expect("spawn netpack-lint");
    (
        out.status.code(),
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

#[test]
fn json_format_keeps_the_exit_contract_and_emits_findings() {
    let root = fixture_dir().join("tree_c1");
    let (code, stdout, _) = run_binary(&["--root", root.to_str().unwrap(), "--format=json"]);
    assert_eq!(
        code,
        Some(1),
        "seeded tree must still fail in json: {stdout}"
    );
    assert!(stdout.contains("\"rule\": \"C1\""), "{stdout}");
    assert!(stdout.contains("\"func\": \"sweep\""), "{stdout}");
    assert!(stdout.trim_start().starts_with('{') && stdout.trim_end().ends_with('}'));

    let root = fixture_dir().join("tree_clean");
    let (code, stdout, _) = run_binary(&["--root", root.to_str().unwrap(), "--format=json"]);
    assert_eq!(code, Some(0), "clean tree must pass in json: {stdout}");
    assert!(stdout.contains("\"findings\": []"), "{stdout}");
}

#[test]
fn explain_prints_rationale_and_rejects_unknown_rules() {
    for rule in netpack_lint::RULES {
        let (code, stdout, _) = run_binary(&["--explain", rule]);
        assert_eq!(code, Some(0), "--explain {rule} must succeed");
        assert!(stdout.contains(rule), "--explain {rule}: {stdout}");
    }
    let (code, stdout, _) = run_binary(&["--explain", "M1"]);
    assert_eq!(code, Some(0));
    assert!(
        stdout.contains("NETPACK_THREADS"),
        "M1 lists the registry: {stdout}"
    );
    let (code, _, stderr) = run_binary(&["--explain", "Z9"]);
    assert_eq!(code, Some(2), "unknown rule must exit 2: {stderr}");
}
