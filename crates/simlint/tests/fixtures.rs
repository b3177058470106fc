//! Fixture-driven tests for every rule: a positive hit, the
//! `#[cfg(test)]` exemption, and the `// simlint: allow(...)`
//! suppression, each exercised against a real `.rs` snippet under
//! `tests/fixtures/` (those files are lexed, never compiled, and the
//! workspace walk skips `fixtures/` directories). A final test lints
//! the actual workspace and asserts it is clean, so reintroducing any
//! fixture-style violation into shipped code fails `cargo test` too.

use std::path::Path;

use simlint::scope::{FileClass, FileKind};
use simlint::{all_rules, lint_source, lint_workspace};

fn lib(krate: &str) -> FileClass {
    FileClass {
        crate_name: krate.to_string(),
        kind: FileKind::Lib,
    }
}

/// Lints fixture text and strips findings down to `(line, rule)`.
fn findings(name: &str, src: &str, class: &FileClass) -> Vec<(u32, &'static str)> {
    lint_source(name, src, class, &all_rules())
        .into_iter()
        .map(|f| (f.line, f.rule))
        .collect()
}

#[test]
fn no_wall_clock_fixture() {
    let src = include_str!("fixtures/no_wall_clock.rs");
    assert_eq!(
        findings("no_wall_clock.rs", src, &lib("simkit")),
        [(5, "no-wall-clock")],
        "only the unallowed, non-test Instant::now() should fire"
    );
}

#[test]
fn no_unordered_iteration_fixture() {
    let src = include_str!("fixtures/no_unordered_iteration.rs");
    assert_eq!(
        findings("no_unordered_iteration.rs", src, &lib("intradisk")),
        [(3, "no-unordered-iteration")],
        "HashMap fires; the standalone-allowed HashSet and the test-module use do not"
    );
}

#[test]
fn no_ambient_rng_fixture() {
    let src = include_str!("fixtures/no_ambient_rng.rs");
    assert_eq!(
        findings("no_ambient_rng.rs", src, &lib("workload")),
        [(4, "no-ambient-rng")],
        "thread_rng fires; allowed RandomState and test-only SmallRng do not"
    );
}

#[test]
fn no_panic_in_lib_fixture() {
    let src = include_str!("fixtures/no_panic_in_lib.rs");
    assert_eq!(
        findings("no_panic_in_lib.rs", src, &lib("array")),
        [(4, "no-panic-in-lib"), (8, "no-panic-in-lib")],
        "unwrap and panic! fire; allowed expect, unwrap_or, and test code do not"
    );
}

#[test]
fn no_panic_rule_is_lib_only() {
    // The same violating source is fine in a binary (CLIs may panic)
    // and in a crate outside the core set.
    let src = include_str!("fixtures/no_panic_in_lib.rs");
    let bin = FileClass {
        crate_name: "array".to_string(),
        kind: FileKind::Bin,
    };
    assert!(findings("no_panic_in_lib.rs", src, &bin).is_empty());
    assert!(findings("no_panic_in_lib.rs", src, &lib("testkit")).is_empty());
}

#[test]
fn no_float_eq_fixture() {
    let src = include_str!("fixtures/no_float_eq.rs");
    assert_eq!(
        findings("no_float_eq.rs", src, &lib("simkit")),
        [(4, "no-float-eq")],
        "the bare float == fires; the allowed != and the tolerance compare do not"
    );
}

#[test]
fn no_thread_in_sim_fixture() {
    let src = include_str!("fixtures/no_thread_in_sim.rs");
    assert_eq!(
        findings("no_thread_in_sim.rs", src, &lib("experiments")),
        [(5, "no-thread-in-sim")],
        "thread::spawn fires; the allowed scope, a local named thread, and test code do not"
    );
}

#[test]
fn unit_suffix_fixture() {
    let src = include_str!("fixtures/unit_suffix.rs");
    assert_eq!(
        findings("unit_suffix.rs", src, &lib("diskmodel")),
        [(4, "unit-suffix-consistency")],
        "ms+sectors fires; allowed ms-us, lba+sectors offset math, and ms+ms do not"
    );
}

#[test]
fn no_alloc_in_hot_path_fixture() {
    let src = include_str!("fixtures/no_alloc_in_hot_path.rs");
    assert_eq!(
        findings("no_alloc_in_hot_path.rs", src, &lib("simkit")),
        [
            (8, "no-alloc-in-hot-path"),
            (9, "no-alloc-in-hot-path"),
            (14, "no-alloc-in-hot-path"),
        ],
        "the hot root's Vec::new and push fire, the transitive format! fires; \
         the cold fn, the allowed with_capacity, and test code do not"
    );
}

#[test]
fn unbounded_sim_state_fixture() {
    let src = include_str!("fixtures/unbounded_sim_state.rs");
    assert_eq!(
        findings("unbounded_sim_state.rs", src, &lib("simkit")),
        [(7, "unbounded-sim-state")],
        "the grow-only field fires; the draining queue, the allow-listed \
         sample buffer, and test-only state do not"
    );
}

#[test]
fn unchecked_slot_id_fixture() {
    let src = include_str!("fixtures/unchecked_slot_id.rs");
    assert_eq!(
        findings("unchecked_slot_id.rs", src, &lib("simkit")),
        [(12, "unchecked-slot-id"), (17, "unchecked-slot-id")],
        "the direct unwrap and the unwrap through a binding fire; map, \
         ok_or+?, match, the allow-listed unwrap, and test code do not"
    );
}

#[test]
fn exhaustive_event_match_fixture() {
    let src = include_str!("fixtures/exhaustive_event_match.rs");
    assert_eq!(
        findings("exhaustive_event_match.rs", src, &lib("telemetry")),
        [(9, "exhaustive-event-match")],
        "the `_` arm over TraceEvent fires; the enumerated match, the \
         unwatched enum, the allow-listed arm, and test code do not"
    );
}

#[test]
fn clean_fixture_is_clean_everywhere() {
    let src = include_str!("fixtures/clean.rs");
    for krate in [
        "simkit",
        "diskmodel",
        "intradisk",
        "array",
        "workload",
        "experiments",
    ] {
        assert!(
            findings("clean.rs", src, &lib(krate)).is_empty(),
            "clean fixture fired in {krate}"
        );
    }
}

#[test]
fn every_fixture_violation_fires_without_its_allowances() {
    // Belt and braces: each violating fixture must produce at least one
    // finding under its target class, so the positive arms above cannot
    // silently rot into all-clean files.
    let cases: [(&str, &str, &str); 11] = [
        (
            "no_alloc_in_hot_path.rs",
            include_str!("fixtures/no_alloc_in_hot_path.rs"),
            "simkit",
        ),
        (
            "unbounded_sim_state.rs",
            include_str!("fixtures/unbounded_sim_state.rs"),
            "simkit",
        ),
        (
            "unchecked_slot_id.rs",
            include_str!("fixtures/unchecked_slot_id.rs"),
            "simkit",
        ),
        (
            "exhaustive_event_match.rs",
            include_str!("fixtures/exhaustive_event_match.rs"),
            "telemetry",
        ),
        (
            "no_wall_clock.rs",
            include_str!("fixtures/no_wall_clock.rs"),
            "simkit",
        ),
        (
            "no_unordered_iteration.rs",
            include_str!("fixtures/no_unordered_iteration.rs"),
            "intradisk",
        ),
        (
            "no_ambient_rng.rs",
            include_str!("fixtures/no_ambient_rng.rs"),
            "workload",
        ),
        (
            "no_panic_in_lib.rs",
            include_str!("fixtures/no_panic_in_lib.rs"),
            "array",
        ),
        (
            "no_float_eq.rs",
            include_str!("fixtures/no_float_eq.rs"),
            "simkit",
        ),
        (
            "no_thread_in_sim.rs",
            include_str!("fixtures/no_thread_in_sim.rs"),
            "experiments",
        ),
        (
            "unit_suffix.rs",
            include_str!("fixtures/unit_suffix.rs"),
            "diskmodel",
        ),
    ];
    for (name, src, krate) in cases {
        assert!(
            !findings(name, src, &lib(krate)).is_empty(),
            "{name} produced no findings at all"
        );
    }
}

#[test]
fn workspace_lints_clean() {
    // The gate scripts/verify.sh enforces, enforced a second time as a
    // plain test: the shipped tree has no non-allowlisted finding.
    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("workspace root above crates/simlint");
    let report = lint_workspace(root, &all_rules()).expect("workspace is readable");
    assert!(
        report.findings.is_empty(),
        "workspace has simlint findings:\n{}",
        report
            .findings
            .iter()
            .map(ToString::to_string)
            .collect::<Vec<_>>()
            .join("\n")
    );
    assert!(
        report.files_scanned > 50,
        "workspace walk found only {} files — wrong root?",
        report.files_scanned
    );
}
