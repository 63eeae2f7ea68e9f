//! End-to-end tests of `diophantus fuzz`, pinning the golden report.
//!
//! `tests/golden/fuzz.json` was produced by
//!
//! ```text
//! diophantus fuzz --seed 7 --cases 12 --samples 8 --json
//! ```
//!
//! and the current binary must reproduce it **byte-identically** — under
//! every `--jobs` value, since the report deliberately records only
//! seed-determined data. Any divergence means either the decider's verdicts
//! changed (a real regression) or the report stopped being thread-invariant
//! (a broken correctness claim).

use std::process::Command;

const BIN: &str = env!("CARGO_BIN_EXE_diophantus");

fn run(args: &[&str]) -> (i32, String, String) {
    let out = Command::new(BIN).args(args).output().expect("the diophantus binary must spawn");
    (
        out.status.code().expect("the binary must exit with a code"),
        String::from_utf8(out.stdout).expect("stdout must be UTF-8"),
        String::from_utf8(out.stderr).expect("stderr must be UTF-8"),
    )
}

fn golden() -> String {
    let path = format!("{}/tests/golden/fuzz.json", env!("CARGO_MANIFEST_DIR"));
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("cannot read {path}: {e}"))
}

const GOLDEN_ARGS: [&str; 8] = ["fuzz", "--seed", "7", "--cases", "12", "--samples", "8", "--json"];

#[test]
fn fuzz_report_matches_the_golden_fixture_byte_for_byte() {
    let (code, stdout, stderr) = run(&GOLDEN_ARGS);
    assert_eq!(code, 0, "the golden run must be disagreement-free: {stderr}");
    assert_eq!(stdout, golden(), "fuzz --json diverged from tests/golden/fuzz.json");
}

#[test]
fn fuzz_report_is_thread_invariant() {
    let reference = golden();
    for jobs in ["2", "4"] {
        let mut args = GOLDEN_ARGS.to_vec();
        args.extend_from_slice(&["--jobs", jobs]);
        let (code, stdout, _) = run(&args);
        assert_eq!(code, 0, "--jobs {jobs}");
        assert_eq!(stdout, reference, "fuzz report diverged under --jobs {jobs}");
    }
}

#[test]
fn golden_report_verifies_and_tampering_is_caught() {
    // The pinned report's certificates re-check under the independent
    // evaluator via `diophantus verify` (file argument, as a user would).
    let path = format!("{}/tests/golden/fuzz.json", env!("CARGO_MANIFEST_DIR"));
    let (code, stdout, _) = run(&["verify", &path]);
    assert_eq!(code, 0, "{stdout}");
    assert!(stdout.contains("0 failure(s)"), "{stdout}");
}

#[test]
fn injected_decider_bugs_are_caught_and_minimised() {
    // Acceptance gate: a deliberately corrupted decider must be caught, and
    // the disagreement shrunk to a reproducer of at most 4 atoms per side.
    for bug in ["flip-verdict", "tamper-certificate"] {
        let args = ["fuzz", "--seed", "7", "--cases", "12", "--samples", "8", "--inject", bug];
        let (code, stdout, stderr) = run(&args);
        assert_eq!(code, 1, "--inject {bug} must exit 1:\n{stdout}\n{stderr}");
        assert!(stderr.contains("disagreement(s) found"), "{bug}: {stderr}");
        let minimized: Vec<&str> = stdout
            .lines()
            .filter(|l| {
                l.trim_start().starts_with("minimized containee:")
                    || l.trim_start().starts_with("minimized containing:")
            })
            .collect();
        assert!(!minimized.is_empty(), "{bug}: no minimized reproducer in {stdout}");
        for line in minimized {
            let body = line.split("<-").nth(1).unwrap_or_else(|| panic!("{bug}: {line}"));
            let atoms = body.split("),").count();
            assert!(atoms <= 4, "{bug}: reproducer not minimal ({atoms} atoms): {line}");
        }
    }
}

#[test]
fn fuzz_exit_code_contract() {
    // 0 on a clean run, 1 on disagreements (tested above), 2 on usage errors.
    let (code, _, stderr) = run(&["fuzz", "--cases", "oops"]);
    assert_eq!(code, 2, "{stderr}");
    let (code, _, stderr) = run(&["fuzz", "--inject", "nonsense"]);
    assert_eq!(code, 2, "{stderr}");
    let (code, _, stderr) = run(&["fuzz", "--replay", "/nonexistent-corpus"]);
    assert_eq!(code, 1, "a missing corpus is an input failure: {stderr}");
}
