//! End-to-end and per-layer benchmark of the four EasyTime journeys.
//!
//! ```sh
//! # one workload, as the benchmark contract runs it (last stdout line = JSON)
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload one_click --seed 1 --seconds 10 --trace 0
//! # every workload, each in its own process, with a summary table
//! cargo run --release --manifest-path perfbench/Cargo.toml -- --workload all
//! # steadiness: 10 runs of one workload (seeds 1..=10), quartiles per metric
//! cargo run --release --manifest-path perfbench/Cargo.toml -- --steady 10 --workload one_click
//! # self-test: perturb one output before its check; must exit nonzero
//! cargo run --release --manifest-path perfbench/Cargo.toml -- --inject ask_knowledge
//! ```
//!
//! See README.md for the workloads, metrics and reference figures.

mod ask_knowledge;
mod auto_ensemble;
mod inputs;
mod one_click;
mod oracle;
mod report;
mod serve_mixed;

use inputs::Scale;
use report::{closed_loop, end_to_end, Metrics, Outcome};
use std::collections::BTreeMap;
use std::process::{Command, ExitCode};

pub const WORKLOADS: [&str; 4] = ["one_click", "auto_ensemble", "ask_knowledge", "serve_mixed"];

/// What one workload process is asked to do.
#[derive(Debug, Clone)]
pub struct Ctx {
    pub seed: u64,
    pub seconds: f64,
    pub scale: Scale,
    /// Perturb one output before it is checked (the self-test).
    pub inject: bool,
    /// The traced run: per-layer metrics instead of end-to-end ones.
    pub trace: bool,
}

/// Result of checking a run's outputs against the oracles.
#[derive(Debug, Default)]
pub struct Checked {
    /// Operations that errored, were refused, or returned a wrong output.
    pub failed: u64,
    /// Operations whose output disagreed with its oracle.
    pub mismatched: u64,
}

/// A workload driven as a closed loop by one caller.
pub trait ClosedWorkload {
    type Out;
    /// Operations per round; runs attempt whole rounds only.
    fn round(&self) -> usize;
    /// Quantile reported as `latency_tail_ms` (see README for the counts).
    fn tail_q(&self) -> f64;
    fn op(&mut self, i: usize) -> Self::Out;
    /// Checks every output; `inject` perturbs the first one beforehand.
    fn check(&mut self, outs: &mut [Self::Out], inject: bool) -> Checked;
}

/// Untraced: the five end-to-end metrics. Traced: the first half of the
/// time untraced, the second half with the program's tracing on; their
/// throughput ratio is the tracing overhead, and the per-layer probes of
/// every module follow.
pub fn run_closed<W: ClosedWorkload>(ctx: &Ctx, mut w: W, setup_s: f64) -> Outcome {
    let round = w.round();
    if !ctx.trace {
        let mut timed = closed_loop(ctx.seconds, round, |i| w.op(i));
        let metrics = end_to_end(setup_s, timed.throughput(), &timed.latencies_ms, w.tail_q());
        let checked = w.check(&mut timed.outputs, ctx.inject);
        return outcome(timed.outputs.len(), checked, metrics);
    }
    // Both halves start from the first operation, so they time the same mix.
    let plain = closed_loop(ctx.seconds / 2.0, round, |i| w.op(i));
    easytime_obs::set_enabled(true);
    let traced = closed_loop(ctx.seconds / 2.0, round, |i| w.op(i));
    easytime_obs::set_enabled(false);
    drop(easytime_obs::drain());
    let ratio = traced.throughput() / plain.throughput();
    let mut outs = plain.outputs;
    outs.extend(traced.outputs);
    let checked = w.check(&mut outs, ctx.inject);
    outcome(outs.len(), checked, traced_metrics(ctx, ratio))
}

pub fn outcome(attempted: usize, checked: Checked, metrics: Metrics) -> Outcome {
    Outcome {
        correct: checked.mismatched == 0,
        attempted: attempted as u64,
        failed: checked.failed,
        metrics,
    }
}

/// Per-layer metrics of every module plus this workload's tracing overhead.
pub fn traced_metrics(ctx: &Ctx, traced_throughput_ratio: f64) -> Metrics {
    let mut m = Metrics::default();
    m.set(
        "obs.traced_throughput_ratio",
        traced_throughput_ratio,
        "ratio",
    );
    one_click::probe(ctx, &mut m);
    auto_ensemble::probe(ctx, &mut m);
    ask_knowledge::probe(ctx, &mut m);
    serve_mixed::probe(ctx, &mut m);
    m
}

fn run_workload(name: &str, ctx: &Ctx) -> Outcome {
    match name {
        "one_click" => one_click::run(ctx),
        "auto_ensemble" => auto_ensemble::run(ctx),
        "ask_knowledge" => ask_knowledge::run(ctx),
        "serve_mixed" => serve_mixed::run(ctx),
        other => unreachable!("workload {other} was validated"),
    }
}

#[derive(Debug)]
struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    tiny: bool,
    inject: Option<String>,
    steady: Option<usize>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: "all".into(),
        seed: 1,
        seconds: 20.0,
        trace: false,
        tiny: false,
        inject: None,
        steady: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?,
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
            }
            "--trace" => args.trace = value()? == "1",
            "--size" => args.tiny = value()? == "tiny",
            "--inject" => args.inject = Some(value()?),
            "--steady" => {
                args.steady = Some(value()?.parse().map_err(|e| format!("--steady: {e}"))?);
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if let Some(w) = &args.inject {
        if args.workload == "all" {
            args.workload = w.clone();
        }
    }
    for w in [Some(&args.workload), args.inject.as_ref()]
        .into_iter()
        .flatten()
    {
        if w != "all" && !WORKLOADS.contains(&w.as_str()) {
            return Err(format!(
                "unknown workload {w}; expected one of {WORKLOADS:?} or all"
            ));
        }
    }
    if !(args.seconds > 0.0 && args.seconds <= 120.0) {
        return Err("--seconds must be in (0, 120]".into());
    }
    Ok(args)
}

/// Runs one workload in a child process and parses its last stdout line.
fn child(args: &Args, workload: &str, seed: u64) -> Result<(Outcome, bool), String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", workload, "--seed", &seed.to_string()])
        .args([
            "--seconds",
            &args.seconds.to_string(),
            "--trace",
            if args.trace { "1" } else { "0" },
        ])
        .args(["--size", if args.tiny { "tiny" } else { "paper" }]);
    if let Some(w) = &args.inject {
        cmd.args(["--inject", w]);
    }
    let out = cmd.output().map_err(|e| format!("{workload}: {e}"))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    let line = stdout.lines().last().unwrap_or_default();
    parse_outcome(line)
        .map(|o| (o, out.status.success()))
        .ok_or_else(|| {
            format!(
                "{workload}: no result line; stderr:\n{}",
                String::from_utf8_lossy(&out.stderr)
            )
        })
}

/// Reads back the JSON line [`Outcome::to_json`] writes.
fn parse_outcome(line: &str) -> Option<Outcome> {
    let field = |key: &str| -> Option<&str> {
        let start = line.find(&format!("\"{key}\": "))? + key.len() + 4;
        let rest = &line[start..];
        Some(&rest[..rest.find([',', '}'])?])
    };
    let mut metrics = Metrics::default();
    let body = &line[line.find("\"metrics\": {")? + 12..];
    for entry in body.split("}, ").filter(|e| e.contains("\"value\"")) {
        let name = entry.split('"').nth(1)?;
        let value = entry
            .split("\"value\": ")
            .nth(1)?
            .split(',')
            .next()?
            .parse()
            .unwrap_or(f64::NAN);
        let unit = entry.split("\"unit\": \"").nth(1)?.split('"').next()?;
        metrics.set(name, value, unit);
    }
    Some(Outcome {
        correct: field("correct")? == "true",
        attempted: field("attempted")?.parse().ok()?,
        failed: field("failed")?.parse().ok()?,
        metrics,
    })
}

/// `--workload all`: each workload in its own process, then a summary.
fn run_all(args: &Args) -> ExitCode {
    let mut ok = true;
    for w in WORKLOADS {
        match child(args, w, args.seed) {
            Ok((o, success)) => {
                ok &= success && o.correct && o.failed == 0;
                println!(
                    "{w}: correct={} attempted={} failed={}",
                    o.correct, o.attempted, o.failed
                );
                for (name, (value, unit)) in o.metrics.iter() {
                    println!("  {name:<34} {value:>14.4} {unit}");
                }
            }
            Err(e) => {
                ok = false;
                println!("{w}: {e}");
            }
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// `--steady N`: N runs of one workload with seeds 1..=N; prints each
/// metric's median, quartiles and spread (IQR ÷ median).
fn run_steady(args: &Args, runs: usize) -> ExitCode {
    let mut values: BTreeMap<String, (Vec<f64>, String)> = BTreeMap::new();
    let mut fail_shares = Vec::new();
    for seed in 1..=runs as u64 {
        match child(args, &args.workload, seed) {
            Ok((o, success)) if success && o.correct => {
                fail_shares.push(o.failed as f64 / o.attempted as f64);
                let line: Vec<String> = o
                    .metrics
                    .iter()
                    .map(|(n, (v, _))| format!("{n}={v:.4}"))
                    .collect();
                println!("seed {seed}: {}", line.join(" "));
                for (name, (v, unit)) in o.metrics.iter() {
                    values
                        .entry(name.clone())
                        .or_insert((Vec::new(), unit.clone()))
                        .0
                        .push(*v);
                }
            }
            Ok((o, _)) => {
                println!(
                    "seed {seed}: incorrect run ({} of {} failed)",
                    o.failed, o.attempted
                );
                return ExitCode::FAILURE;
            }
            Err(e) => {
                println!("seed {seed}: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    println!(
        "{} × {runs} runs; failed shares {fail_shares:?}",
        args.workload
    );
    println!(
        "{:<34} {:>12} {:>12} {:>12} {:>8}",
        "metric", "q1", "median", "q3", "spread"
    );
    for (name, (v, unit)) in &values {
        let (q1, q2, q3) = quartiles(v);
        println!(
            "{name:<34} {q1:>12.4} {q2:>12.4} {q3:>12.4} {:>7.2}%  {unit}",
            100.0 * (q3 - q1) / q2
        );
    }
    ExitCode::SUCCESS
}

/// Quartiles as Python's `statistics.quantiles(values, n=4)` computes them
/// (the "exclusive" method).
fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n < 2 {
        let x = v.first().copied().unwrap_or(f64::NAN);
        return (x, x, x);
    }
    let q = |i: usize| {
        let m = (n + 1) * i;
        let (j, delta) = ((m / 4).clamp(1, n - 1), (m % 4) as f64);
        v[j - 1] + (v[j] - v[j - 1]) * delta / 4.0
    };
    (q(1), q(2), q(3))
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    if let Some(runs) = args.steady {
        return run_steady(&args, runs);
    }
    if args.workload == "all" {
        return run_all(&args);
    }
    let mut scale = if args.tiny { Scale::TINY } else { Scale::PAPER };
    if args.trace {
        // The traced run reports no set-up time, so one set-up suffices.
        scale.setups = [1; 4];
    }
    let ctx = Ctx {
        seed: args.seed,
        seconds: args.seconds,
        scale,
        inject: args.inject.as_deref() == Some(args.workload.as_str()),
        trace: args.trace,
    };
    let outcome = run_workload(&args.workload, &ctx);
    eprintln!(
        "{}: attempted {} failed {} correct {}",
        args.workload, outcome.attempted, outcome.failed, outcome.correct
    );
    println!("{}", outcome.to_json());
    if outcome.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
