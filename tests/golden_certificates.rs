//! Golden-certificate differential suite for the hybrid numeric tower.
//!
//! The fixtures under `tests/golden/` were produced by the **pre-refactor**
//! tree (big-only `Natural`/`Integer`/`Rational`, dense LP rows) running
//!
//! ```text
//! diophantus gen <kind> --count 3 --seed 2019 | diophantus decide --json
//! diophantus gen <kind> --count 3 --seed 2019 | diophantus batch --jobs 2 --json
//! diophantus gen path --count 3 --seed 2019 | diophantus equiv --json
//! ```
//!
//! for every `WorkloadKind` suite (`equiv` only where the reverse direction
//! is decidable, i.e. the containing query is also projection-free). The
//! current binary must reproduce each file **byte-identically**: verdicts,
//! counterexample bags, multiplicities and probe orders are all observable
//! in the JSON, so any representation-dependent divergence of the hybrid
//! small-int fast paths or the sparse LP rows shows up as a diff here.

use std::io::Write;
use std::process::{Command, Stdio};

const BIN: &str = env!("CARGO_BIN_EXE_diophantus");

/// Runs the binary, asserting success, and returns stdout.
fn stdout_of(args: &[&str], stdin: &str) -> String {
    let mut child = Command::new(BIN)
        .args(args)
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("the diophantus binary must spawn");
    child
        .stdin
        .take()
        .expect("stdin was piped")
        .write_all(stdin.as_bytes())
        .expect("writing to the child's stdin");
    let out = child.wait_with_output().expect("the diophantus binary must exit");
    assert!(
        out.status.success(),
        "diophantus {args:?} failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout).expect("stdout must be UTF-8")
}

fn golden(name: &str) -> String {
    let path = format!("{}/tests/golden/{name}", env!("CARGO_MANIFEST_DIR"));
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("cannot read {path}: {e}"))
}

fn workload(kind: &str) -> String {
    stdout_of(&["gen", kind, "--count", "3", "--seed", "2019"], "")
}

const KINDS: [&str; 6] = ["spec", "inflated", "contained", "path", "expmap", "threecol"];

#[test]
fn decide_certificates_match_the_pre_refactor_tree() {
    for kind in KINDS {
        let out = stdout_of(&["decide", "--json"], &workload(kind));
        assert_eq!(
            out,
            golden(&format!("{kind}.decide.json")),
            "{kind}: decide --json diverged from the pre-refactor golden output"
        );
    }
}

#[test]
fn batch_certificates_match_the_pre_refactor_tree_for_all_job_counts() {
    for kind in KINDS {
        let expected = golden(&format!("{kind}.batch.jsonl"));
        for jobs in ["1", "2", "4"] {
            let out = stdout_of(&["batch", "--jobs", jobs, "--json"], &workload(kind));
            assert_eq!(
                out, expected,
                "{kind}: batch --jobs {jobs} --json diverged from the pre-refactor golden output"
            );
        }
    }
}

#[test]
fn equiv_certificates_match_the_pre_refactor_tree() {
    // Only the path family has projection-free queries on both sides, so
    // only it can be decided in both directions.
    let out = stdout_of(&["equiv", "--json"], &workload("path"));
    assert_eq!(
        out,
        golden("path.equiv.json"),
        "path: equiv --json diverged from the pre-refactor golden output"
    );
}

/// The set-semantics witnesses are the first containment mapping the search
/// finds, so these files pin the search order: recorded with
///
/// ```text
/// diophantus gen <kind> --count 3 --seed 2019 | diophantus decide --set --json
/// diophantus gen <kind> --count 3 --seed 2019 | diophantus decide --bag-set --json
/// diophantus gen <kind> --count 3 --seed 2019 | diophantus equiv --set --json
/// ```
///
/// by the tree whose set containment still materialised every mapping
/// through the `Substitution`-cloning search.
#[test]
fn set_witnesses_match_the_recorded_search_order() {
    for kind in KINDS {
        let pairs = workload(kind);
        for (args, file) in [
            (["decide", "--set", "--json"], "set"),
            (["decide", "--bag-set", "--json"], "bag-set"),
            (["equiv", "--set", "--json"], "set-equiv"),
        ] {
            assert_eq!(
                stdout_of(&args, &pairs),
                golden(&format!("{kind}.{file}.json")),
                "{kind}: {args:?} diverged from the recorded golden output"
            );
        }
    }
}

#[test]
fn golden_certificates_still_verify() {
    // The recorded counterexamples must pass the independent Equation-2
    // re-checker of the *current* binary (arith changes could in principle
    // break evaluation while leaving certificates identical).
    for kind in KINDS {
        let verdicts = golden(&format!("{kind}.decide.json"));
        let out = stdout_of(&["verify"], &verdicts);
        assert!(out.contains("0 failure(s)"), "{kind}: {out}");
    }
}
