//! End-to-end tests of the `gca-cc` binary: spawn the real executable and
//! check its output, exit codes and file handling.

use std::io::Write;
use std::process::{Command, Stdio};

fn gca_cc() -> Command {
    Command::new(env!("CARGO_BIN_EXE_gca-cc"))
}

#[test]
fn generated_workload_summary() {
    let out = gca_cc()
        .args(["ring:8", "--machine", "gca"])
        .output()
        .expect("spawn");
    assert!(out.status.success());
    let text = String::from_utf8(out.stdout).unwrap();
    assert!(text.contains("graph: 8 nodes, 8 edges"), "{text}");
    assert!(text.contains("components: 1"), "{text}");
    assert!(text.contains("synchronous steps: 52"), "{text}"); // 1 + 3(9+8)
}

#[test]
fn all_machines_accept_the_same_input() {
    for machine in ["gca", "ncells", "lowcong", "twohand", "closure", "emu", "pram", "seq"] {
        let out = gca_cc()
            .args(["gnp:12:400:3", "--machine", machine, "--verify"])
            .output()
            .expect("spawn");
        assert!(
            out.status.success(),
            "machine {machine}: {}",
            String::from_utf8_lossy(&out.stderr)
        );
    }
}

#[test]
fn json_output_parses() {
    let out = gca_cc()
        .args(["star:6", "--json", "--labels"])
        .output()
        .expect("spawn");
    assert!(out.status.success());
    let v: serde_json::Value = serde_json::from_slice(&out.stdout).expect("valid JSON");
    assert_eq!(v["components"], 1);
    assert_eq!(v["nodes"], 6);
    assert_eq!(v["labels"], serde_json::json!([0, 0, 0, 0, 0, 0]));
}

#[test]
fn fused_sweep_is_the_default_exec_path() {
    // No flags: the engine line names the fast path, and its labels and
    // Table 1 metrics equal the generic reference's.
    let run = |extra: &[&str]| {
        let mut args = vec!["gnp:40:150:2", "--json", "--labels", "--metrics"];
        args.extend_from_slice(extra);
        let out = gca_cc().args(&args).output().expect("spawn");
        assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
        serde_json::from_slice::<serde_json::Value>(&out.stdout).expect("valid JSON")
    };
    let default = run(&[]);
    let engine = default["engine"].as_str().unwrap_or_default();
    assert!(engine.contains("exec=fused"), "{engine}");
    let generic = run(&["--exec", "generic"]);
    for key in ["labels", "steps", "max_congestion", "metrics"] {
        assert_eq!(default[key], generic[key], "{key}");
    }
}

#[test]
fn fused_par_is_an_alias_of_fused() {
    // The whole report, engine line included, is the fused path's; only
    // the wall time may differ.
    let run = |exec: &[&str]| {
        let mut args = vec!["forest:96:6:3", "--json", "--metrics", "--labels"];
        args.extend_from_slice(exec);
        let out = gca_cc().args(&args).output().expect("spawn");
        assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
        let mut v: serde_json::Value = serde_json::from_slice(&out.stdout).expect("valid JSON");
        v["wall_ms"] = serde_json::Value::Null;
        v
    };
    let fused = run(&["--exec", "fused"]);
    assert_eq!(run(&["--exec", "fused-par", "--workers", "2"]), fused);
    assert_eq!(fused["engine"], "convergence=fixed exec=fused");
    // `--workers` is still checked, and only accepted with `fused-par`.
    for bad in [
        &["--workers", "2"][..],
        &["--exec", "fused", "--workers", "2"][..],
        &["--exec", "fused-par", "--workers", "x"][..],
    ] {
        let out = gca_cc().arg("ring:5").args(bad).output().expect("spawn");
        assert_eq!(out.status.code(), Some(1), "{bad:?}");
    }
}

#[test]
fn oversized_inputs_exit_1_naming_the_size() {
    // Generator specs are checked before generating and edge-list headers
    // while parsing: a matrix that cannot be held is an error, not a panic
    // or an aborted allocation. The first count overflows the matrix's
    // word count, the second asks for 2·10¹⁸ bytes.
    for n in ["18446744073709551615", "4000000000"] {
        let generated = gca_cc().arg(format!("empty:{n}")).output().expect("spawn");
        let mut child = gca_cc()
            .arg("-")
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::piped())
            .spawn()
            .expect("spawn");
        child
            .stdin
            .take()
            .unwrap()
            .write_all(format!("n {n}\n0 1\n").as_bytes())
            .unwrap();
        let parsed = child.wait_with_output().expect("wait");
        for (input, out) in [("generator", generated), ("edge list", parsed)] {
            let err = String::from_utf8_lossy(&out.stderr);
            assert_eq!(out.status.code(), Some(1), "{input} n = {n}: {err}");
            assert!(err.contains(&format!("{n} nodes is too large")), "{input}: {err}");
        }
    }
}

#[test]
fn reads_edge_list_from_stdin() {
    let mut child = gca_cc()
        .args(["-", "--labels"])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .spawn()
        .expect("spawn");
    child
        .stdin
        .as_mut()
        .unwrap()
        .write_all(b"n 4\n0 1\n2 3\n")
        .unwrap();
    let out = child.wait_with_output().unwrap();
    assert!(out.status.success());
    let text = String::from_utf8(out.stdout).unwrap();
    assert!(text.contains("components: 2"), "{text}");
    assert!(text.contains("  1 0"), "{text}");
    assert!(text.contains("  3 2"), "{text}");
}

#[test]
fn reads_edge_list_from_file() {
    let dir = std::env::temp_dir().join("gca_cli_e2e");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("graph.txt");
    std::fs::write(&path, "# test\nn 5\n0 4\n1 2\n").unwrap();
    let out = gca_cc()
        .args([path.to_str().unwrap(), "--machine", "pram"])
        .output()
        .expect("spawn");
    assert!(out.status.success());
    let text = String::from_utf8(out.stdout).unwrap();
    assert!(text.contains("components: 3"), "{text}");
}

#[test]
fn bad_arguments_fail_with_usage() {
    let out = gca_cc().args(["--bogus"]).output().expect("spawn");
    assert!(!out.status.success());
    let err = String::from_utf8(out.stderr).unwrap();
    assert!(err.contains("USAGE"), "{err}");
}

#[test]
fn missing_file_fails_cleanly() {
    let out = gca_cc()
        .args(["/definitely/not/a/file.txt"])
        .output()
        .expect("spawn");
    assert!(!out.status.success());
    let err = String::from_utf8(out.stderr).unwrap();
    assert!(err.contains("error:"), "{err}");
}

#[test]
fn malformed_edge_list_fails_cleanly() {
    let mut child = gca_cc()
        .args(["-"])
        .stdin(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn");
    child
        .stdin
        .as_mut()
        .unwrap()
        .write_all(b"not an edge list\n")
        .unwrap();
    let out = child.wait_with_output().unwrap();
    assert!(!out.status.success());
}

// Exit-code contract of the fault-injection/recovery flags:
//   0 — clean or recovered (with a report on stdout)
//   3 — recovery exhausted (every failure was detected; the policy's
//       budget ran out)
//   4 — undetected divergence (the fault escaped every detector and the
//       labels are wrong)
// `bitflip@27.5.0` lands mid-second-iteration on path:24 (23 generations
// per iteration, so generation 27 is iteration 2's filter window) — a
// site the invariant checker detects under --validate: an armed fault plan
// hands the fused path's generations to the engine it judges.

#[test]
fn recovered_fault_exits_zero_with_report() {
    let out = gca_cc()
        .args([
            "path:24", "--exec", "fused", "--validate", "--inject", "bitflip@27.5.0",
            "--recover", "retry:3", "--checkpoint-every", "2",
        ])
        .output()
        .expect("spawn");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8(out.stdout).unwrap();
    assert!(text.contains("recovered: 1 fault(s) detected"), "{text}");
    assert!(text.contains("invariant-checker"), "{text}");
    assert!(text.contains("fault containment: labels match"), "{text}");
    assert!(text.contains("components: 1"), "{text}");
}

#[test]
fn exhausted_recovery_exits_three() {
    let out = gca_cc()
        .args([
            "path:24", "--exec", "fused", "--validate", "--inject", "bitflip@27.5.0",
            "--recover", "fail",
        ])
        .output()
        .expect("spawn");
    assert_eq!(out.status.code(), Some(3), "{}", String::from_utf8_lossy(&out.stdout));
    let text = String::from_utf8(out.stdout).unwrap();
    assert!(text.contains("recovery exhausted"), "{text}");
}

#[test]
fn undetected_divergence_exits_four() {
    // Without the sanitizer, a label-cell flip on the last committed
    // generation (115 = total 116 minus init; cell 24 = row 1, column 0)
    // reaches the output unseen; only the exit cross-check catches it.
    let out = gca_cc()
        .args(["path:24", "--exec", "fused", "--inject", "bitflip@115.24.0"])
        .output()
        .expect("spawn");
    assert_eq!(out.status.code(), Some(4), "{}", String::from_utf8_lossy(&out.stdout));
    let text = String::from_utf8(out.stdout).unwrap();
    assert!(text.contains("DIVERGED"), "{text}");
}

#[test]
fn validate_turns_the_divergence_into_a_recovery() {
    // The other direction of the exit-4 test: the same fault with the
    // sanitizer on is detected, repaired, and exits 0.
    let out = gca_cc()
        .args([
            "path:24", "--exec", "fused", "--validate", "--inject", "bitflip@115.24.0",
            "--recover", "retry:3",
        ])
        .output()
        .expect("spawn");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stdout)
    );
    let text = String::from_utf8(out.stdout).unwrap();
    assert!(text.contains("recovered"), "{text}");
}

#[test]
fn json_recovery_report_parses() {
    let out = gca_cc()
        .args([
            "path:24", "--json", "--exec", "fused", "--validate", "--inject",
            "bitflip@27.5.0", "--recover", "degrade",
        ])
        .output()
        .expect("spawn");
    assert!(out.status.success());
    let v: serde_json::Value = serde_json::from_slice(&out.stdout).expect("valid JSON");
    assert_eq!(v["recovery"]["outcome"], "recovered");
    assert_eq!(v["recovery"]["attempts"][0]["detector"], "invariant-checker");
    assert_eq!(v["diverged"], false);
}

#[test]
fn bad_fault_spec_fails_with_usage() {
    // `stale-occ`, `dup-row` and `hist-merge` named kernel surfaces the
    // vector sweep no longer has; they are unknown classes like any other.
    for spec in ["meltdown@1", "stale-occ@2.1", "dup-row", "hist-merge:seed=3"] {
        let out = gca_cc()
            .args(["path:8", "--inject", spec])
            .output()
            .expect("spawn");
        assert_eq!(out.status.code(), Some(1), "{spec}");
        let err = String::from_utf8(out.stderr).unwrap();
        assert!(err.contains("fault class: bitflip | torn | drop"), "{err}");
    }
}

#[test]
fn unreachable_fault_site_fails_before_the_run() {
    // path:3 runs 29 generations over a 12-cell field: generation
    // 99999999 and cell 99999 are past the run, generation 0 is the
    // init generation, which a fault never hits, and bit 99 is outside
    // the 32-bit data word.
    for args in [
        &["path:3", "--inject", "bitflip@99999999"][..],
        &["path:3", "--inject", "bitflip@5.99999"][..],
        &["path:3", "--inject", "bitflip@0", "--validate", "--recover", "retry:2"][..],
        &["path:3", "--inject", "bitflip@5.3.99", "--validate"][..],
    ] {
        let out = gca_cc().args(args).output().expect("spawn");
        assert_eq!(out.status.code(), Some(1), "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?}");
        let err = String::from_utf8(out.stderr).unwrap();
        assert!(err.starts_with("error: fault ") && err.contains("never fire"), "{err}");
    }
}

#[test]
fn gca_only_options_fail_on_other_machines() {
    // A check the machine would not run is refused, not skipped.
    for (machine, opt) in [("seq", "--invariants"), ("pram", "--validate")] {
        let out = gca_cc()
            .args(["path:8", "--machine", machine, opt])
            .output()
            .expect("spawn");
        assert_eq!(out.status.code(), Some(1), "{machine} {opt}");
        assert!(out.stdout.is_empty(), "{machine} {opt}");
        let err = String::from_utf8(out.stderr).unwrap();
        assert!(
            err.starts_with(&format!("error: {opt} requires --machine gca")),
            "{err}"
        );
    }
}

#[test]
fn help_prints_usage_and_succeeds() {
    let out = gca_cc().args(["--help"]).output().expect("spawn");
    assert!(out.status.success());
    let text = String::from_utf8(out.stdout).unwrap();
    assert!(text.contains("USAGE"));
    assert!(text.contains("--machine"));
}
