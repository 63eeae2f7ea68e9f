//! Process-level pins for the observability contract (`--metrics`,
//! `--trace-out`).
//!
//! The in-process CLI tests in `src/cli.rs` share one metrics registry
//! across the whole parallel test binary, so they can only check output
//! *structure*. The contract itself — deterministic counters byte-identical
//! across `--jobs`, output byte-identical with metrics off,
//! trace files loadable as Chrome trace-event JSON — is about one command in
//! one process, so every test here spawns the real binary per command line.

use std::io::Write;
use std::process::{Command, Stdio};

use diophantus::jsonv::Json;
use proptest::prelude::*;

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

/// The `"counters":{...}` substring of a `--metrics` document — the block
/// the determinism contract is about. The deterministic counters hold no
/// nested objects, so the first closing brace ends the block.
fn counters_block(output: &str) -> &str {
    let start = output.find("\"counters\":{").expect("output must carry a counters block");
    let end = output[start..].find('}').expect("counters block must close") + start + 1;
    &output[start..end]
}

fn workload(kind: &str, count: &str, seed: &str) -> String {
    stdout_of(&["gen", kind, "--count", count, "--seed", seed], "")
}

#[test]
fn deterministic_counters_are_jobs_invariant() {
    let input = workload("inflated", "4", "2019");
    for command in ["decide", "batch"] {
        let mut blocks: Vec<(String, String)> = Vec::new();
        for jobs in ["1", "2", "4"] {
            let out = stdout_of(&[command, "--json", "--metrics", "--jobs", jobs], &input);
            blocks.push((format!("--jobs {jobs}"), counters_block(&out).to_string()));
        }
        let (ref base_config, ref base) = blocks[0];
        for (config, block) in &blocks {
            assert_eq!(
                block, base,
                "{command}: deterministic counters diverged between {base_config} and {config}"
            );
        }
    }
}

#[test]
fn skewed_batch_streams_are_jobs_invariant() {
    // One giant all-probes pair (a 256-probe path self-containment) buried
    // amid small pairs: the workload where the unified scheduler's unit
    // claiming matters most. Both the per-job verdict lines and the
    // deterministic counters block must be byte-identical for every worker
    // count, no matter how the giant's probe chunks interleave with the
    // small pairs.
    let giant = stdout_of(&["gen", "path", "--count", "1", "--size", "3", "--seed", "7"], "");
    let small = stdout_of(&["gen", "expmap", "--count", "6", "--size", "4", "--seed", "7"], "");
    let input = format!("{giant}{small}");
    let mut outputs: Vec<(String, String, String)> = Vec::new();
    for jobs in ["1", "2", "4"] {
        let args = ["batch", "--algorithm", "all-probes", "--json", "--metrics", "--jobs", jobs];
        let out = stdout_of(&args, &input);
        let trailer = out.rfind("{\"metrics\":").expect("batch emits a metrics trailer");
        outputs.push((
            format!("--jobs {jobs}"),
            out[..trailer].to_string(),
            counters_block(&out[trailer..]).to_string(),
        ));
    }
    let (ref base_config, ref base_verdicts, ref base_counters) = outputs[0];
    for (config, verdicts, counters) in &outputs {
        assert_eq!(
            verdicts, base_verdicts,
            "skewed batch verdicts diverged between {base_config} and {config}"
        );
        assert_eq!(
            counters, base_counters,
            "skewed batch deterministic counters diverged between {base_config} and {config}"
        );
    }
}

#[test]
fn units_claimed_counts_every_probe_of_the_pair() {
    // The process-global `engine.units_claimed` counter is wired to the
    // scheduler's claims: one command per process, so nothing else feeds it.
    let q = "q(x1, x2) <- R(x1, x2), R('c1', x2), R^3(x1, 'c2').";
    let input = format!("{q} {}", q.replacen("q(", "p(", 1));
    let out = stdout_of(
        &["decide", "--algorithm", "all-probes", "--jobs", "4", "--json", "--metrics"],
        &input,
    );
    let doc = Json::parse(out.trim_end()).expect("decide --json is one JSON document");
    let number = |value: Option<&Json>| match value {
        Some(Json::Number(n)) => *n,
        other => panic!("expected a number, got {other:?}: {out}"),
    };
    let pairs = doc.get("pairs").and_then(Json::as_array).expect("pairs array");
    let result = pairs[0].get("result").expect("result");
    assert_eq!(result.get("verdict").and_then(Json::as_str), Some("contained"), "{out}");
    let probes = number(result.get("probes_checked"));
    assert_eq!(probes, 16.0, "{out}");
    let volatile = doc.get("metrics").and_then(|m| m.get("volatile")).expect("volatile block");
    assert_eq!(number(volatile.get("engine.units_claimed")), probes, "{out}");
}

#[test]
fn metrics_off_leaves_every_output_byte_identical() {
    // `--metrics` must be purely additive: stripping the appended member
    // reproduces the flag-free output byte for byte (the golden suite pins
    // the flag-free output itself).
    let input = workload("spec", "3", "2019");
    for args in [&["decide", "--json"][..], &["equiv", "--json"][..]] {
        let input = if args[0] == "equiv" { workload("path", "2", "7") } else { input.clone() };
        let plain = stdout_of(args, &input);
        let with = {
            let mut args = args.to_vec();
            args.push("--metrics");
            stdout_of(&args, &input)
        };
        let idx = with.find(",\"metrics\":").expect("--metrics must add the member");
        let stripped = format!("{}}}\n", &with[..idx]);
        assert_eq!(stripped, plain, "{args:?}: --metrics changed bytes outside its member");
    }
    // batch appends one whole trailer line instead.
    let plain = stdout_of(&["batch", "--json", "--jobs", "2"], &input);
    let with = stdout_of(&["batch", "--json", "--jobs", "2", "--metrics"], &input);
    let trailer = with.lines().last().expect("batch emits output");
    assert!(trailer.starts_with("{\"metrics\":"), "last line must be the metrics trailer");
    let stripped = &with[..with.len() - trailer.len() - 1];
    assert_eq!(stripped, plain, "batch --metrics changed the per-job lines");
}

#[test]
fn trace_out_is_loadable_chrome_trace_json() {
    let dir = std::env::temp_dir().join(format!("dioph-metrics-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.join("decide.trace.json");
    let path_str = path.to_str().expect("temp path is UTF-8");
    // A self-containment pair with a 16-tuple probe space, fanned across two
    // workers so the trace gets real worker tracks.
    let input = "q(x1, x2) <- R(x1, x2), R('c1', x2), R^3(x1, 'c2').\n\
                 p(x1, x2) <- R(x1, x2), R('c1', x2), R^3(x1, 'c2').";
    stdout_of(
        &["decide", "--algorithm", "all-probes", "--jobs", "2", "--trace-out", path_str],
        input,
    );
    let text = std::fs::read_to_string(&path).expect("trace file must exist");
    let doc = Json::parse(text.trim_end()).expect("trace must be one valid JSON object");
    let events = doc.get("traceEvents").and_then(Json::as_array).expect("traceEvents array");
    assert!(!events.is_empty(), "{text}");
    let mut names = Vec::new();
    let mut spans = 0usize;
    for event in events {
        match event.get("ph").and_then(Json::as_str) {
            Some("M") => {
                assert_eq!(event.get("name").and_then(Json::as_str), Some("thread_name"));
                let label = event
                    .get("args")
                    .and_then(|a| a.get("name"))
                    .and_then(Json::as_str)
                    .expect("thread_name carries args.name");
                names.push(label.to_string());
            }
            Some("X") => {
                spans += 1;
                assert!(event.get("tid").is_some() && event.get("pid").is_some(), "{text}");
                assert!(event.get("ts").is_some() && event.get("dur").is_some(), "{text}");
            }
            other => panic!("unexpected event phase {other:?}: {text}"),
        }
    }
    assert!(spans > 0, "the trace must carry phase spans: {text}");
    assert!(names.iter().any(|n| n == "main"), "{names:?}");
    assert!(
        names.iter().any(|n| n.starts_with("probe-worker-")),
        "worker tracks must be named: {names:?}"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn verify_round_trips_metrics_from_every_producer() {
    let input = workload("spec", "3", "2019");
    let decide = stdout_of(&["decide", "--json", "--metrics", "--jobs", "2"], &input);
    let batch = stdout_of(&["batch", "--json", "--metrics", "--jobs", "2"], &input);
    let bench = stdout_of(&["bench", "--json", "--metrics", "--repeat", "2"], &input);
    let fuzz = stdout_of(&["fuzz", "--json", "--metrics", "--cases", "3"], "");
    let equiv = stdout_of(&["equiv", "--json", "--metrics"], &workload("path", "2", "7"));
    for (producer, document) in
        [("decide", decide), ("batch", batch), ("bench", bench), ("fuzz", fuzz), ("equiv", equiv)]
    {
        let out = stdout_of(&["verify"], &document);
        assert!(out.contains("[metrics] metrics block verified"), "{producer}: {out}");
        assert!(out.contains("1 metrics block(s)"), "{producer}: {out}");
        assert!(out.contains("0 failure(s)"), "{producer}: {out}");
    }
}

proptest! {
    // Each case spawns several real processes; a handful of cases already
    // sweeps kinds × seeds well beyond the pinned workload above.
    #![proptest_config(ProptestConfig::with_cases(4))]

    #[test]
    fn deterministic_counters_are_invariant_on_random_workloads(
        kind_index in 0usize..4,
        seed in 0u32..10_000,
    ) {
        let kind = ["spec", "inflated", "contained", "path"][kind_index];
        let input = workload(kind, "2", &seed.to_string());
        let mut blocks = Vec::new();
        for jobs in ["1", "4"] {
            let out = stdout_of(&["decide", "--json", "--metrics", "--jobs", jobs], &input);
            blocks.push(counters_block(&out).to_string());
        }
        prop_assert_eq!(&blocks[0], &blocks[1], "kind {} seed {}", kind, seed);
    }
}
