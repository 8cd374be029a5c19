//! End-to-end exit-code contract of the `gca-analyze` CI gate: every
//! layer must exit zero when clean and non-zero when its (hidden)
//! `--seed-fault` plants a violation — a gate that cannot fail is not a
//! gate.

use std::path::Path;
use std::process::{Command, Output};

fn analyze(args: &[&str]) -> Output {
    // The workspace root (two levels above this crate) carries the real
    // lint.toml the --lint layer needs.
    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .canonicalize()
        .expect("workspace root");
    Command::new(env!("CARGO_BIN_EXE_gca-analyze"))
        .args(args)
        .current_dir(root)
        .output()
        .expect("spawn gca-analyze")
}

fn assert_clean(args: &[&str]) {
    let out = analyze(args);
    assert!(
        out.status.success(),
        "expected exit 0 for {args:?}\nstdout: {}\nstderr: {}",
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr),
    );
}

fn assert_fails(args: &[&str], needle: &str) {
    let out = analyze(args);
    assert!(
        !out.status.success(),
        "expected non-zero exit for {args:?}\nstdout: {}",
        String::from_utf8_lossy(&out.stdout),
    );
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("FAILED") && stderr.contains(needle),
        "stderr should pinpoint the {needle:?} failure, got: {stderr}"
    );
}

#[test]
fn isa_layer_exit_codes() {
    assert_clean(&["--isa", "8"]);
    assert_fails(&["--isa", "8", "--seed-fault", "isa"], "diverged");
}

#[test]
fn schedule_layer_exit_codes() {
    assert_clean(&["--schedule", "8"]);
    assert_fails(&["--schedule", "8", "--seed-fault", "schedule"], "table1");
}

#[test]
fn symbolic_layer_exit_codes() {
    assert_clean(&["--symbolic"]);
    assert_fails(&["--symbolic", "--seed-fault", "symbolic"], "coefficient");
}

#[test]
fn modelcheck_layer_exit_codes() {
    // max-n 4 keeps the debug-mode test quick; CI runs the full n = 6
    // sweep in release mode.
    assert_clean(&["--modelcheck", "--modelcheck-max-n", "4"]);
    assert_fails(
        &["--modelcheck", "--modelcheck-max-n", "2", "--seed-fault", "modelcheck"],
        "generations",
    );
}

#[test]
fn removed_lanes_layer_is_rejected() {
    // The lane and occupancy provers went with the SWAR plane bodies.
    assert_fails(&["--lanes"], "invalid size");
    assert_fails(&["--symbolic", "--seed-fault", "lanes"], "unknown --seed-fault layer");
}

#[test]
fn removed_partition_layer_is_rejected() {
    // The partition prover went with the row-split sweep it proved.
    assert_fails(&["--partition"], "invalid size");
    assert_fails(&["--symbolic", "--seed-fault", "partition"], "unknown --seed-fault layer");
}

#[test]
fn invariants_layer_exit_codes() {
    assert_clean(&["--invariants"]);
    assert_fails(
        &["--invariants", "--seed-fault", "invariants"],
        "seeded contract faults detected",
    );
}

#[test]
fn invariants_seeded_run_reports_every_class() {
    let out = analyze(&["--invariants", "--seed-fault", "invariants"]);
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    for class in [
        "contract-step",
        "label-range",
        "forest-canonicity",
        "partition-refinement",
        "depth-halving",
    ] {
        assert!(
            stderr.contains(&format!("seeded {class}: detected")),
            "stderr should show {class} caught, got: {stderr}"
        );
    }
}

#[test]
fn lint_layer_exit_codes() {
    assert_clean(&["--lint"]);
    assert_fails(&["--lint", "--seed-fault", "lint"], "no-unwrap");
}

#[test]
fn unknown_inputs_exit_nonzero() {
    let out = analyze(&["--seed-fault", "no-such-layer"]);
    assert!(!out.status.success());
    let out = analyze(&["not-a-number"]);
    assert!(!out.status.success());
}
