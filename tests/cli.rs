//! End-to-end tests of the `diophantus` binary, driven through
//! `std::process::Command` exactly as a user would drive it.
//!
//! The `--json` tests parse the CLI's output with a minimal JSON reader (the
//! workspace has no serde) and re-verify the reported counterexample bag with
//! the independent Equation-2 evaluator (`bag_answer_multiplicity`), closing
//! the loop: the binary's machine-readable verdicts are checked against the
//! library, not against the binary's own bookkeeping.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::process::{Command, Output, Stdio};

use diophantus::{bag_answer_multiplicity, parse_program, parse_query, BagInstance, Term};

const BIN: &str = env!("CARGO_BIN_EXE_diophantus");
const ACCEPTANCE: &str = "q(x) <- R^2(x, x). p(x) <- R(x, y), R(y, x).";

/// Runs the binary with the given arguments and stdin, returning the output.
fn run(args: &[&str], stdin: &str) -> Output {
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
    child.wait_with_output().expect("the diophantus binary must exit")
}

fn stdout_of(args: &[&str], stdin: &str) -> String {
    let out = run(args, stdin);
    assert!(
        out.status.success(),
        "diophantus {args:?} failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout).expect("stdout must be UTF-8")
}

// ---------------------------------------------------------------------------
// A minimal JSON reader, sufficient for the CLI's output.
// ---------------------------------------------------------------------------

#[derive(Clone, PartialEq, Debug)]
enum Json {
    Null,
    Bool(bool),
    Number(f64),
    String(String),
    Array(Vec<Json>),
    Object(BTreeMap<String, Json>),
}

impl Json {
    fn parse(text: &str) -> Json {
        let mut p = JsonParser { bytes: text.as_bytes(), pos: 0 };
        let value = p.value();
        p.skip_ws();
        assert_eq!(p.pos, p.bytes.len(), "trailing garbage after JSON value in: {text}");
        value
    }

    fn get(&self, key: &str) -> &Json {
        match self {
            Json::Object(map) => map.get(key).unwrap_or_else(|| panic!("missing key {key}")),
            other => panic!("expected an object with key {key}, got {other:?}"),
        }
    }

    fn as_str(&self) -> &str {
        match self {
            Json::String(s) => s,
            other => panic!("expected a string, got {other:?}"),
        }
    }

    fn as_array(&self) -> &[Json] {
        match self {
            Json::Array(items) => items,
            other => panic!("expected an array, got {other:?}"),
        }
    }

    fn as_f64(&self) -> f64 {
        match self {
            Json::Number(n) => *n,
            other => panic!("expected a number, got {other:?}"),
        }
    }
}

struct JsonParser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl JsonParser<'_> {
    fn skip_ws(&mut self) {
        while matches!(self.bytes.get(self.pos), Some(b) if b.is_ascii_whitespace()) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8) {
        self.skip_ws();
        assert_eq!(self.bytes.get(self.pos), Some(&b), "expected '{}' at {}", b as char, self.pos);
        self.pos += 1;
    }

    fn eat(&mut self, b: u8) -> bool {
        self.skip_ws();
        if self.bytes.get(self.pos) == Some(&b) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn literal(&mut self, text: &str) {
        assert!(
            self.bytes[self.pos..].starts_with(text.as_bytes()),
            "expected literal {text} at {}",
            self.pos
        );
        self.pos += text.len();
    }

    fn value(&mut self) -> Json {
        self.skip_ws();
        match self.bytes.get(self.pos) {
            Some(b'{') => {
                self.pos += 1;
                let mut map = BTreeMap::new();
                if !self.eat(b'}') {
                    loop {
                        self.skip_ws();
                        let key = match self.value() {
                            Json::String(s) => s,
                            other => panic!("object keys must be strings, got {other:?}"),
                        };
                        self.expect(b':');
                        map.insert(key, self.value());
                        if !self.eat(b',') {
                            break;
                        }
                    }
                    self.expect(b'}');
                }
                Json::Object(map)
            }
            Some(b'[') => {
                self.pos += 1;
                let mut items = Vec::new();
                if !self.eat(b']') {
                    loop {
                        items.push(self.value());
                        if !self.eat(b',') {
                            break;
                        }
                    }
                    self.expect(b']');
                }
                Json::Array(items)
            }
            Some(b'"') => {
                self.pos += 1;
                let mut out = String::new();
                loop {
                    match self.bytes[self.pos] {
                        b'"' => {
                            self.pos += 1;
                            break;
                        }
                        b'\\' => {
                            self.pos += 1;
                            match self.bytes[self.pos] {
                                b'"' => out.push('"'),
                                b'\\' => out.push('\\'),
                                b'/' => out.push('/'),
                                b'n' => out.push('\n'),
                                b't' => out.push('\t'),
                                b'r' => out.push('\r'),
                                b'u' => {
                                    let hex = std::str::from_utf8(
                                        &self.bytes[self.pos + 1..self.pos + 5],
                                    )
                                    .expect("4 hex digits");
                                    let code = u32::from_str_radix(hex, 16).expect("hex escape");
                                    out.push(char::from_u32(code).expect("valid scalar"));
                                    self.pos += 4;
                                }
                                other => panic!("unsupported escape \\{}", other as char),
                            }
                            self.pos += 1;
                        }
                        _ => {
                            // Consume one UTF-8 character.
                            let rest = std::str::from_utf8(&self.bytes[self.pos..])
                                .expect("valid UTF-8 tail");
                            let ch = rest.chars().next().expect("non-empty tail");
                            out.push(ch);
                            self.pos += ch.len_utf8();
                        }
                    }
                }
                Json::String(out)
            }
            Some(b't') => {
                self.literal("true");
                Json::Bool(true)
            }
            Some(b'f') => {
                self.literal("false");
                Json::Bool(false)
            }
            Some(b'n') => {
                self.literal("null");
                Json::Null
            }
            Some(_) => {
                let start = self.pos;
                while matches!(
                    self.bytes.get(self.pos),
                    Some(b) if b.is_ascii_digit() || matches!(b, b'-' | b'+' | b'.' | b'e' | b'E')
                ) {
                    self.pos += 1;
                }
                let text = std::str::from_utf8(&self.bytes[start..self.pos]).expect("ASCII");
                Json::Number(text.parse().unwrap_or_else(|_| panic!("bad number '{text}'")))
            }
            None => panic!("unexpected end of JSON input"),
        }
    }
}

/// Reconstructs a [`Term`] from its datalog notation, by parsing a synthetic
/// single-term query head.
fn term_from_text(text: &str) -> Term {
    let q = parse_query(&format!("w({text}) <- true."))
        .unwrap_or_else(|e| panic!("term '{text}' must parse: {e}"));
    q.head()[0].clone()
}

/// Reconstructs an [`diophantus::cq::Atom`] from its datalog notation, by
/// parsing a synthetic Boolean query body.
fn atom_from_text(text: &str) -> diophantus::cq::Atom {
    let q = parse_query(&format!("w() <- {text}."))
        .unwrap_or_else(|e| panic!("atom '{text}' must parse: {e}"));
    let atom = q.body_atoms().next().expect("one atom").clone();
    atom
}

// ---------------------------------------------------------------------------
// decide
// ---------------------------------------------------------------------------

#[test]
fn acceptance_pair_prints_a_verdict() {
    let out = stdout_of(&["decide", "--bag"], ACCEPTANCE);
    assert!(out.contains("q ⊑b p: contained"), "{out}");
}

#[test]
fn counterexample_bags_are_independently_confirmed() {
    // A failing pair: dropping a conjunct is set- but not bag-containment.
    let input = "q(x) <- R(x, x), S(x). p(x) <- R(x, x).";
    let out = stdout_of(&["decide", "--json"], input);
    let doc = Json::parse(&out);
    let pairs = doc.get("pairs").as_array();
    assert_eq!(pairs.len(), 1);
    let result = pairs[0].get("result");
    assert_eq!(result.get("verdict").as_str(), "not_contained");

    // Rebuild the witness from the machine-readable output alone.
    let ce = result.get("counterexample");
    let probe: Vec<Term> =
        ce.get("probe").as_array().iter().map(|t| term_from_text(t.as_str())).collect();
    let bag = BagInstance::from_u64_multiplicities(ce.get("bag").as_array().iter().map(|entry| {
        let atom = atom_from_text(entry.get("atom").as_str());
        let mult: u64 = entry.get("multiplicity").as_str().parse().expect("small multiplicity");
        (atom, mult)
    }));
    let containee = parse_query(pairs[0].get("containee").as_str()).unwrap();
    let containing = parse_query(pairs[0].get("containing").as_str()).unwrap();

    // The independent Equation-2 evaluator must agree with the reported
    // multiplicities, and they must genuinely violate containment.
    let lhs = bag_answer_multiplicity(&containee, &bag, &probe);
    let rhs = bag_answer_multiplicity(&containing, &bag, &probe);
    assert_eq!(lhs.to_string(), ce.get("containee_multiplicity").as_str());
    assert_eq!(rhs.to_string(), ce.get("containing_multiplicity").as_str());
    assert!(lhs > rhs, "the reported bag must violate containment ({lhs} vs {rhs})");
}

#[test]
fn json_output_parses_for_every_subcommand() {
    for (args, stdin) in [
        (vec!["decide", "--json"], ACCEPTANCE),
        (vec!["equiv", "--json"], "q(x) <- R(x, x). q(x) <- R(x, x)."),
        (vec!["gen", "--json", "--count", "2", "--seed", "9"], ""),
        (vec!["bench", "--json", "--repeat", "1"], ACCEPTANCE),
    ] {
        let out = stdout_of(&args, stdin);
        let doc = Json::parse(&out);
        assert!(
            matches!(doc.get("pairs"), Json::Array(items) if !items.is_empty()),
            "{args:?} must report at least one pair"
        );
    }
}

#[test]
fn malformed_input_yields_a_line_column_diagnostic_and_nonzero_exit() {
    let out = run(&["decide"], "q(x) <- R(x, x).\npp(x <- R(x, x).");
    assert!(!out.status.success());
    assert_eq!(out.status.code(), Some(1));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("<stdin>:2:6"), "diagnostic must name line 2, column 6: {stderr}");
    assert!(stderr.contains("expected"), "diagnostic must describe the problem: {stderr}");
}

#[test]
fn odd_count_input_files_are_rejected_per_source() {
    // An odd-count file would silently shift every later pair by one query,
    // so each source must pair up on its own, with the file named.
    let dir = std::env::temp_dir().join("dioph-cli-test-odd");
    std::fs::create_dir_all(&dir).unwrap();
    let odd = dir.join("odd.dl");
    let even = dir.join("even.dl");
    std::fs::write(&odd, "a(x) <- R(x, x). b(x) <- R(x, x). c(x) <- R(x, x).").unwrap();
    std::fs::write(&even, "d(x) <- R(x, x). e(x) <- R(x, x). f(x) <- R(x, x).").unwrap();
    let out = run(&["decide", odd.to_str().unwrap(), even.to_str().unwrap()], "");
    assert_eq!(out.status.code(), Some(1));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("odd.dl") && stderr.contains("even number"), "{stderr}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn usage_errors_exit_with_2() {
    let out = run(&["frobnicate"], "");
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown command"));
    // The LP kernel is not selectable: stale scripts that still pass the
    // removed engine/route flags fail loudly.
    for stale in [&["decide", "--lp-route", "bareiss"][..], &["decide", "--engine", "fm"][..]] {
        let out = run(stale, "");
        assert_eq!(out.status.code(), Some(2), "{stale:?}");
        assert!(String::from_utf8_lossy(&out.stderr).contains("unknown option"), "{stale:?}");
    }
}

// ---------------------------------------------------------------------------
// gen
// ---------------------------------------------------------------------------

#[test]
fn gen_seed_42_is_byte_for_byte_reproducible() {
    let a = run(&["gen", "--seed", "42"], "");
    let b = run(&["gen", "--seed", "42"], "");
    assert!(a.status.success());
    assert_eq!(a.stdout, b.stdout, "gen --seed 42 must be byte-for-byte reproducible");
    let c = run(&["gen", "--seed", "43"], "");
    assert_ne!(a.stdout, c.stdout, "a different seed must change the workload");
}

#[test]
fn closed_stdout_is_a_clean_exit_not_a_panic() {
    // `diophantus gen … | head` closes the binary's stdout early; that must
    // end the process with exit code 0, not a broken-pipe panic (exit 101).
    let mut child = Command::new(BIN)
        .args(["gen", "--count", "2000", "--seed", "1"])
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("the diophantus binary must spawn");
    drop(child.stdout.take()); // close the read end before the output fits
    let out = child.wait_with_output().expect("the diophantus binary must exit");
    assert_eq!(out.status.code(), Some(0), "stderr: {}", String::from_utf8_lossy(&out.stderr));
}

#[test]
fn gen_output_round_trips_through_decide() {
    let workload = stdout_of(&["gen", "spec", "--count", "2", "--seed", "7"], "");
    let verdicts = stdout_of(&["decide"], &workload);
    let lines: Vec<&str> = verdicts.lines().collect();
    assert_eq!(lines.len(), 2, "{verdicts}");
    assert!(
        lines.iter().all(|l| l.contains("contained") && !l.contains("not contained")),
        "specialisation pairs are contained by construction: {verdicts}"
    );
}

// ---------------------------------------------------------------------------
// batch and verify
// ---------------------------------------------------------------------------

#[test]
fn gen_pipes_into_batch_with_json_lines_identical_across_job_counts() {
    // The CI smoke path: `diophantus gen … | diophantus batch --jobs 2 --json`.
    let workload = stdout_of(&["gen", "spec", "--count", "4", "--seed", "3"], "");
    let parallel = stdout_of(&["batch", "--jobs", "2", "--json"], &workload);
    assert_eq!(parallel.lines().count(), 4, "{parallel}");
    for (i, line) in parallel.lines().enumerate() {
        let doc = Json::parse(line);
        assert_eq!(doc.get("id"), &Json::Number((i + 1) as f64), "{line}");
        assert_eq!(
            doc.get("result").get("verdict").as_str(),
            "contained",
            "specialisation pairs are contained by construction: {line}"
        );
    }
    let sequential = stdout_of(&["batch", "--jobs", "1", "--json"], &workload);
    assert_eq!(parallel, sequential, "batch output must be byte-identical across job counts");
}

#[test]
fn skewed_batch_stream_is_identical_across_jobs() {
    // One giant all-probes pair (256 probe tuples) leading a crowd of small
    // pairs, with a broken pair wedged in the middle: the unified scheduler
    // interleaves the giant's probe chunks with the small pairs, and
    // per-pair failures cancel only their own units — the emitted stream
    // (verdicts, error line, order) must stay byte-identical for every
    // worker count.
    let giant = stdout_of(&["gen", "path", "--count", "1", "--size", "3", "--seed", "11"], "");
    let small = stdout_of(&["gen", "expmap", "--count", "5", "--size", "4", "--seed", "11"], "");
    let input = format!("{giant}broken(x <- oops. pbroken(x) <- R(x, x).\n{small}");
    let reference =
        run(&["batch", "--keep-going", "--algorithm", "all-probes", "--jobs", "1"], &input);
    assert_eq!(reference.status.code(), Some(1), "the broken pair must surface in the exit code");
    let reference_stdout = String::from_utf8_lossy(&reference.stdout).into_owned();
    assert!(reference_stdout.contains("[2] parse error:"), "{reference_stdout}");
    assert_eq!(reference_stdout.lines().count(), 7, "{reference_stdout}");
    for jobs in ["2", "4"] {
        let out =
            run(&["batch", "--keep-going", "--algorithm", "all-probes", "--jobs", jobs], &input);
        assert_eq!(out.status.code(), Some(1), "--jobs {jobs}");
        assert_eq!(
            String::from_utf8_lossy(&out.stdout),
            reference_stdout,
            "skewed batch stream diverged at --jobs {jobs}"
        );
    }
}

#[test]
fn batch_keep_going_reports_failures_without_stopping_the_stream() {
    let input = "q1(x) <- R(x, x). p1(x) <- R(x, x).\n\
                 broken(x <- oops. p2(x) <- R(x, x).\n\
                 q3(x) <- R(x, x). p3(x) <- R(x, x).\n";
    let out = run(&["batch", "--keep-going"], input);
    assert_eq!(out.status.code(), Some(1), "failures must surface in the exit code");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("[1] q1 ⊑b p1: contained"), "{stdout}");
    assert!(stdout.contains("[2] parse error:"), "{stdout}");
    assert!(stdout.contains("[3] q3 ⊑b p3: contained"), "{stdout}");
    assert!(String::from_utf8_lossy(&out.stderr).contains("1 of 3"), "stderr summarises");

    // Without --keep-going the same input stops at the broken pair.
    let out = run(&["batch"], input);
    assert_eq!(out.status.code(), Some(1));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(!stdout.contains("[3]"), "the stream must stop: {stdout}");
}

#[test]
fn batch_reports_invalid_utf8_input_as_a_read_failure_not_clean_eof() {
    // A valid pair, a stray invalid-UTF-8 line, then another pair: the
    // stream must fail loudly (exit 1, a `read` diagnostic) instead of
    // printing one verdict and exiting 0 as if the input ended there.
    let dir = std::env::temp_dir().join("dioph-cli-test-bad-utf8");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("bad.dl");
    let mut bytes = b"q1(x) <- R(x, x). p1(x) <- R(x, x).\n".to_vec();
    bytes.extend_from_slice(&[0xFF, 0xFE, b'\n']);
    bytes.extend_from_slice(b"q2(x) <- R(x, x), S(x). p2(x) <- R(x, x).\n");
    std::fs::write(&path, bytes).unwrap();

    let out = run(&["batch", path.to_str().unwrap()], "");
    assert_eq!(out.status.code(), Some(1));
    assert!(String::from_utf8_lossy(&out.stderr).contains("read error"), "{out:?}");

    let out = run(&["batch", "--keep-going", path.to_str().unwrap()], "");
    assert_eq!(out.status.code(), Some(1));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("[1] q1 ⊑b p1: contained"), "{stdout}");
    assert!(stdout.contains("read error"), "{stdout}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn verify_recheck_of_a_json_counterexample_file_round_trips() {
    let dir = std::env::temp_dir().join("dioph-cli-test-verify");
    std::fs::create_dir_all(&dir).unwrap();
    let certificate = dir.join("certificate.json");

    let failing = "q(x) <- R(x, x), S(x). p(x) <- R(x, x).";
    let json = stdout_of(&["decide", "--json"], failing);
    std::fs::write(&certificate, &json).unwrap();
    let out = stdout_of(&["verify", certificate.to_str().unwrap()], "");
    assert!(out.contains("counterexample verified"), "{out}");
    assert!(out.contains("0 failure(s)"), "{out}");

    // A tampered certificate must be caught by the independent evaluator.
    let tampered =
        json.replace("\"containing_multiplicity\":\"1\"", "\"containing_multiplicity\":\"7\"");
    assert_ne!(json, tampered);
    std::fs::write(&certificate, &tampered).unwrap();
    let out = run(&["verify", certificate.to_str().unwrap()], "");
    assert_eq!(out.status.code(), Some(1));
    assert!(String::from_utf8_lossy(&out.stdout).contains("VERIFICATION FAILED"));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn verify_rechecks_batch_json_lines_from_a_pipe() {
    let batch = stdout_of(
        &["batch", "--json", "--jobs", "2"],
        "q(x) <- R(x, x), S(x). p(x) <- R(x, x).\nq2(x) <- R(x, x). p2(x) <- R(x, x).\n",
    );
    let out = stdout_of(&["verify"], &batch);
    assert!(out.contains("[1] q ⋢b p: counterexample verified"), "{out}");
    assert!(out.contains("[2] q2 ⊑b p2: contained"), "{out}");
    assert!(out.contains("1 counterexample(s) verified"), "{out}");
}

// ---------------------------------------------------------------------------
// bench and equiv
// ---------------------------------------------------------------------------

#[test]
fn bench_times_a_workload_file() {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("examples/workloads/section3.dl");
    let out = stdout_of(&["bench", "--repeat", "2", path.to_str().unwrap()], "");
    assert!(out.contains("not contained"), "{out}");
    assert!(out.contains("min") && out.contains("mean") && out.contains("max"), "{out}");
    assert!(out.contains("total: 1 pair(s) × 2 run(s)"), "{out}");
}

#[test]
fn equiv_reports_the_broken_direction() {
    let input = "q1(x1, x2) <- P^3(x2, x2), R^2(x1, x2).\n\
                 q2(x1, x2) <- P^3(x2, x2), R^3(x1, x2).";
    let out = stdout_of(&["equiv"], input);
    assert!(out.contains("NOT equivalent"), "{out}");
    assert!(out.contains("forward  (q1 ⊑b q2): contained"), "{out}");
    assert!(out.contains("backward (q2 ⊑b q1): not contained"), "{out}");
}

// ---------------------------------------------------------------------------
// The .dl fixture files under examples/workloads/
// ---------------------------------------------------------------------------

#[test]
fn workload_files_reproduce_the_paper_fixtures() {
    use diophantus::cq::paper_examples as pe;
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("examples/workloads");

    let section2 = parse_program(&std::fs::read_to_string(dir.join("section2.dl")).unwrap())
        .expect("section2.dl must parse");
    assert_eq!(
        section2,
        vec![
            pe::section2_query_q1(),
            pe::section2_query_q2(),
            pe::section2_query_q2(),
            pe::section2_query_q1(),
            pe::section2_query_q1(),
            pe::section2_query_q3(),
            pe::section2_query_q2(),
            pe::section2_query_q3(),
        ]
    );

    let section3 = parse_program(&std::fs::read_to_string(dir.join("section3.dl")).unwrap())
        .expect("section3.dl must parse");
    assert_eq!(section3, vec![pe::section3_query_q1(), pe::section3_query_q2()]);

    let probe = parse_program(&std::fs::read_to_string(dir.join("probe_example.dl")).unwrap())
        .expect("probe_example.dl must parse");
    assert_eq!(probe, vec![pe::section3_probe_example(), pe::section3_probe_example()]);
}

/// Runs the binary with `DIOPH_LP_BUDGET` set (the linalg testing override
/// that shrinks the simplex iteration budget), returning the full output.
fn run_with_lp_budget(args: &[&str], stdin: &str, budget: &str) -> Output {
    let mut child = Command::new(BIN)
        .args(args)
        .env("DIOPH_LP_BUDGET", budget)
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
    child.wait_with_output().expect("the diophantus binary must exit")
}

#[test]
fn lp_iteration_budget_blowout_is_a_per_pair_error_not_a_poisoned_pool() {
    // Regression for the simplex budget assert: a blown budget used to
    // panic the worker thread holding the pair and take the whole engine
    // pool down with it. Under a 1-iteration budget every LP-reaching pair
    // must now fail with a structured decide error, and --keep-going must
    // stream past every one of them.
    // Both pairs are not-contained: their MPI systems are feasible, so the
    // simplex must genuinely pivot (at least one pivot plus the optimality
    // pass), which a 1-iteration budget cannot cover.
    let input = "q1(x) <- R(x, x), S1(x). p1(x) <- R(x, x).\n\
                 q2(x) <- R(x, x), S2(x). p2(x) <- R(x, x).\n";
    let out = run_with_lp_budget(&["batch", "--keep-going", "--jobs", "2", "--json"], input, "1");
    assert_eq!(out.status.code(), Some(1), "failures must still exit non-zero");
    let stdout = String::from_utf8(out.stdout).unwrap();
    let lines: Vec<&str> = stdout.lines().collect();
    assert_eq!(lines.len(), 2, "both pairs must be answered: {stdout}");
    for line in &lines {
        assert!(line.contains("\"error\":{\"stage\":\"decide\""), "{line}");
        assert!(line.contains("iteration budget"), "{line}");
    }

    // decide (no --keep-going) surfaces the same failure as a diagnostic.
    let out = run_with_lp_budget(&["decide"], "q(x) <- R(x, x), S(x). p(x) <- R(x, x).", "1");
    assert_eq!(out.status.code(), Some(1));
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert!(stderr.contains("iteration budget"), "{stderr}");

    // Sanity: the same stream under the default budget succeeds.
    let out = stdout_of(&["batch"], input);
    assert_eq!(out.lines().count(), 2, "{out}");
    assert!(!out.contains("error"), "{out}");
}

#[test]
fn workload_files_decide_with_the_paper_verdicts() {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("examples/workloads");
    let out = stdout_of(&["decide", dir.join("section2.dl").to_str().unwrap()], "");
    let lines: Vec<&str> = out.lines().collect();
    assert_eq!(lines.len(), 4, "{out}");
    assert!(lines[0].contains("q1 ⊑b q2: contained"), "{out}");
    assert!(lines[1].contains("q2 ⊑b q1: not contained"), "{out}");
    assert!(lines[2].contains("q1 ⊑b q3: contained"), "{out}");
    assert!(lines[3].contains("q2 ⊑b q3: contained"), "{out}");

    let out = stdout_of(&["decide", dir.join("section3.dl").to_str().unwrap()], "");
    assert!(out.contains("q1 ⊑b q2: not contained"), "{out}");

    let probe = dir.join("probe_example.dl");
    let out = stdout_of(&["decide", "--algorithm", "all-probes", probe.to_str().unwrap()], "");
    assert!(out.contains("contained (checked 16 probe tuple(s))"), "{out}");
}

// ---------------------------------------------------------------------------
// check: the static analysis subcommand
// ---------------------------------------------------------------------------

#[test]
fn check_clean_input_exits_zero_with_fragment_labels() {
    let out = run(&["check"], ACCEPTANCE);
    assert_eq!(out.status.code(), Some(0), "{}", String::from_utf8_lossy(&out.stderr));
    let text = String::from_utf8(out.stdout).unwrap();
    assert!(text.contains("pair 1 (q ⊑b p): paper-decidable"), "{text}");

    // The committed example workloads are lint-clean at --deny warnings.
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("examples/workloads");
    for file in ["section2.dl", "section3.dl", "probe_example.dl"] {
        let path = dir.join(file);
        let out = run(&["check", "--deny", "warnings", path.to_str().unwrap()], "");
        assert_eq!(out.status.code(), Some(0), "{file} must lint clean");
    }
}

#[test]
fn check_warnings_exit_one_and_deny_promotes_to_two() {
    let dup = "q(x) <- R(x, x), R(x, x).\np(x) <- R(x, x).";
    let out = run(&["check"], dup);
    assert_eq!(out.status.code(), Some(1));
    let text = String::from_utf8(out.stdout).unwrap();
    assert!(text.contains("<stdin>:1:18: warning[D013] duplicate-atom"), "{text}");

    let out = run(&["check", "--deny", "warnings"], dup);
    assert_eq!(out.status.code(), Some(2), "--deny warnings promotes the exit code");
    let text = String::from_utf8(out.stdout).unwrap();
    assert!(text.contains("error[D013]"), "{text}");

    let out = run(&["check", "--allow", "D013"], dup);
    assert_eq!(out.status.code(), Some(0), "--allow silences the lint");
}

#[test]
fn check_json_matches_the_golden_fixture_byte_for_byte() {
    // The fixture input is piped through stdin so the reported file name
    // (`<stdin>`) — and therefore every byte of the output — is independent
    // of where the checkout lives.
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let input = std::fs::read_to_string(root.join("tests/golden/check.dl")).unwrap();
    let expected = std::fs::read_to_string(root.join("tests/golden/check.json")).unwrap();
    let out = run(&["check", "--json"], &input);
    assert_eq!(out.status.code(), Some(2), "the fixture holds two error-level lints");
    assert_eq!(String::from_utf8(out.stdout).unwrap(), expected, "check --json output drifted");
}

#[test]
fn check_json_reports_every_generated_suite_clean() {
    // `gen | check --deny warnings --json` is the CI smoke: every generator
    // must emit lint-clean programs (cost notes are allowed — they do not
    // affect the exit code).
    for kind in ["spec", "inflated", "contained", "path", "expmap", "threecol"] {
        let workload = stdout_of(&["gen", kind, "--count", "3", "--seed", "2019"], "");
        let out = run(&["check", "--deny", "warnings", "--json"], &workload);
        assert_eq!(out.status.code(), Some(0), "gen {kind} must lint clean");
        let doc = Json::parse(&String::from_utf8(out.stdout).unwrap());
        let summary = doc.get("summary");
        assert_eq!(summary.get("errors").as_f64(), 0.0, "{kind}");
        assert_eq!(summary.get("warnings").as_f64(), 0.0, "{kind}");
        // Every generated pair is inside the paper fragment.
        for file in doc.get("files").as_array() {
            for pair in file.get("pairs").as_array() {
                assert_eq!(pair.get("fragment").as_str(), "paper-decidable", "{kind}");
            }
        }
    }
}

#[test]
fn decide_on_bad_file_input_names_file_line_and_column() {
    let dir = std::env::temp_dir().join(format!("dioph-check-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("projection.dl");
    std::fs::write(&path, "q(x) <- R(x, y).\np(x) <- R(x, x).\n").unwrap();
    let out = run(&["decide", path.to_str().unwrap()], "");
    assert_eq!(out.status.code(), Some(1));
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert!(
        stderr.contains(&format!("{}:1:14: error[D002]", path.display())),
        "decide must name the file, line and column of the offending variable: {stderr}"
    );
    assert!(stderr.contains("projection-free"), "{stderr}");
    std::fs::remove_dir_all(&dir).unwrap();
}
