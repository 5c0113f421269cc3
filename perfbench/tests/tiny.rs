//! The benchmark's own tests. They run the real binary on the tiny input
//! size, so every workload's checks and its self-test are exercised in
//! seconds.

use std::process::Command;

const WORKLOADS: [&str; 4] = ["one_click", "auto_ensemble", "ask_knowledge", "serve_mixed"];

/// Runs the benchmark on tiny inputs; returns its exit status and the
/// last line of its standard output.
fn run(args: &[&str]) -> (bool, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_easytime-perfbench"))
        .args(["--size", "tiny", "--seconds", "0.5"])
        .args(args)
        .output()
        .expect("the benchmark binary starts");
    let stdout = String::from_utf8_lossy(&out.stdout);
    (
        out.status.success(),
        stdout.lines().last().unwrap_or_default().to_string(),
    )
}

/// Metric names of one section of the repository's `BENCHMARK.json`.
fn declared(section: &str) -> Vec<String> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json is readable");
    let start = text
        .find(&format!("\"{section}\""))
        .expect("section is present");
    let body = &text[start..];
    let body = &body[..body.find(']').expect("section is a list")];
    body.split("\"name\": \"")
        .skip(1)
        .map(|s| s[..s.find('"').expect("quoted")].to_string())
        .collect()
}

fn reported(line: &str) -> Vec<String> {
    let metrics = &line[line.find("\"metrics\": {").expect("metrics object") + 12..];
    metrics
        .split("}, ")
        .filter_map(|e| e.split('"').nth(1).map(str::to_string))
        .collect()
}

#[test]
fn every_workload_passes_its_checks() {
    let mut names = declared("end_to_end");
    names.sort();
    for w in WORKLOADS {
        let (ok, line) = run(&["--workload", w, "--seed", "3", "--trace", "0"]);
        assert!(ok, "{w}: {line}");
        assert!(line.starts_with("{\"correct\": true,"), "{w}: {line}");
        assert!(line.contains("\"failed\": 0,"), "{w}: {line}");
        assert_eq!(
            reported(&line),
            names,
            "{w} reports every end-to-end metric"
        );
    }
}

#[test]
fn injected_faults_fail_every_workload() {
    for w in WORKLOADS {
        let (ok, line) = run(&["--inject", w]);
        assert!(!ok, "{w}: a perturbed output must fail the run");
        assert!(line.starts_with("{\"correct\": false,"), "{w}: {line}");
        assert!(!line.contains("\"failed\": 0,"), "{w}: {line}");
    }
}

#[test]
fn traced_run_reports_every_per_layer_metric() {
    let mut names = declared("per_layer");
    names.sort();
    let (ok, line) = run(&["--workload", "ask_knowledge", "--trace", "1"]);
    assert!(ok, "{line}");
    assert_eq!(reported(&line), names);
    assert!(
        !line.contains("null"),
        "every per-layer metric has a value: {line}"
    );
}
