//! Regression-corpus replay through the differential fuzzing oracle.
//!
//! `tests/fuzz_corpus/` holds hand-built near-miss pairs — set containments
//! that bags refute, multiplicity asymmetries, the paper's running examples.
//! Each is replayed end to end through the `diophantus fuzz --replay`
//! process: the MPI decider's verdict is cross-checked against brute-force
//! bag enumeration, certificate replay and the set-containment necessary
//! condition, and any disagreement fails the run with exit code 1.

use std::process::Command;

const BIN: &str = env!("CARGO_BIN_EXE_diophantus");

fn corpus_dir() -> String {
    format!("{}/tests/fuzz_corpus", env!("CARGO_MANIFEST_DIR"))
}

/// Runs the binary and returns (exit code, stdout, stderr).
fn run(args: &[&str]) -> (i32, String, String) {
    let out = Command::new(BIN).args(args).output().expect("the diophantus binary must spawn");
    (
        out.status.code().expect("the binary must exit with a code"),
        String::from_utf8(out.stdout).expect("stdout must be UTF-8"),
        String::from_utf8(out.stderr).expect("stderr must be UTF-8"),
    )
}

#[test]
fn corpus_replay_is_clean() {
    let dir = corpus_dir();
    let (code, stdout, stderr) = run(&["fuzz", "--replay", &dir]);
    assert_eq!(code, 0, "corpus replay must find no disagreement:\n{stdout}\n{stderr}");
    // 3 files × 2 pairs, every pair decided (no fragment errors), and the
    // hand-computed verdict split: only the m ≤ m² direction and the
    // Section 2 acceptance pair are bag-contained.
    assert!(stdout.contains("6 case(s), 2 contained, 4 not contained, 0 error(s)"), "{stdout}");
    assert!(stdout.contains("0 disagreement(s)"), "{stdout}");
}

#[test]
fn corpus_replay_report_is_stable_across_jobs() {
    let dir = corpus_dir();
    let (code, reference, _) = run(&["fuzz", "--replay", &dir, "--json"]);
    assert_eq!(code, 0);
    // Replayed cases carry file-derived labels in sorted file order.
    for label in [
        "near_miss_conjuncts.dl:pair1",
        "near_miss_conjuncts.dl:pair2",
        "near_miss_multiplicity.dl:pair1",
        "near_miss_multiplicity.dl:pair2",
        "paper_pairs.dl:pair1",
        "paper_pairs.dl:pair2",
    ] {
        assert!(reference.contains(label), "missing {label} in {reference}");
    }
    let conjuncts = reference.find("near_miss_conjuncts.dl:pair1").unwrap();
    let paper = reference.find("paper_pairs.dl:pair1").unwrap();
    assert!(conjuncts < paper, "corpus files must replay in sorted name order");
    for jobs in ["2", "4"] {
        let (code, out, _) = run(&["fuzz", "--replay", dir.as_str(), "--json", "--jobs", jobs]);
        assert_eq!(code, 0, "--jobs {jobs}");
        assert_eq!(out, reference, "replay report diverged under --jobs {jobs}");
    }
}

#[test]
fn corpus_report_certificates_survive_independent_verification() {
    // Pipe the replay's JSON report back through `diophantus verify`: every
    // recorded counterexample must reproduce its multiplicities under the
    // independent Equation-2 evaluator.
    use std::io::Write;
    let dir = corpus_dir();
    let (code, report, _) = run(&["fuzz", "--replay", &dir, "--json"]);
    assert_eq!(code, 0);
    let mut child = Command::new(BIN)
        .arg("verify")
        .stdin(std::process::Stdio::piped())
        .stdout(std::process::Stdio::piped())
        .stderr(std::process::Stdio::piped())
        .spawn()
        .expect("the diophantus binary must spawn");
    child.stdin.take().expect("stdin was piped").write_all(report.as_bytes()).unwrap();
    let out = child.wait_with_output().expect("verify must exit");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "verify failed:\n{stdout}");
    assert!(stdout.contains("4 counterexample(s) verified"), "{stdout}");
    assert!(stdout.contains("0 failure(s)"), "{stdout}");
}

#[test]
fn injected_bug_is_caught_and_minimised_on_the_corpus() {
    // The acceptance gate for the oracle itself: corrupt the decider and the
    // corpus replay must fail, producing a small shrunk reproducer.
    let dir = corpus_dir();
    let (code, stdout, stderr) = run(&["fuzz", "--replay", &dir, "--inject", "flip-verdict"]);
    assert_eq!(code, 1, "an injected bug must fail the replay:\n{stdout}");
    assert!(stderr.contains("disagreement(s) found"), "{stderr}");
    assert!(stdout.contains("minimized containee:"), "{stdout}");
}
