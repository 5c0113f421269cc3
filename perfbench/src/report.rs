//! Metric collection, summary statistics and the one-line JSON result.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// Named metrics with their units, printed in name order.
#[derive(Debug, Default)]
pub struct Metrics(BTreeMap<String, (f64, String)>);

impl Metrics {
    pub fn set(&mut self, name: impl Into<String>, value: f64, unit: &str) {
        self.0.insert(name.into(), (value, unit.to_string()));
    }

    pub fn iter(&self) -> impl Iterator<Item = (&String, &(f64, String))> {
        self.0.iter()
    }
}

/// The result of one workload run: the last line the benchmark prints.
#[derive(Debug)]
pub struct Outcome {
    /// False when any checked output disagreed with its oracle.
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Metrics,
}

impl Outcome {
    pub fn to_json(&self) -> String {
        let mut s = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct, self.attempted, self.failed
        );
        for (i, (name, (value, unit))) in self.metrics.iter().enumerate() {
            if i > 0 {
                s.push_str(", ");
            }
            let value = if value.is_finite() {
                format!("{value}")
            } else {
                "null".to_string()
            };
            let _ = write!(
                s,
                "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
            );
        }
        s.push_str("}}");
        s
    }
}

/// Nearest-rank quantile of an unsorted sample (NaN when empty).
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// The process's own peak resident set (VmHWM), in MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// Runs `build` `times` times, keeping the last product; returns it with
/// the median set-up time in seconds. Repeating the set-up is what makes
/// `setup_s` steady: a single sub-second set-up swings by 10–20%.
pub fn repeated_setup<S>(times: usize, mut build: impl FnMut() -> S) -> (S, f64) {
    let mut secs = Vec::with_capacity(times);
    let mut last = None;
    for _ in 0..times.max(1) {
        drop(last.take());
        let started = Instant::now();
        last = Some(build());
        secs.push(started.elapsed().as_secs_f64());
    }
    (last.expect("at least one set-up ran"), median(&secs))
}

/// Operations of a closed loop, with each one's latency.
#[derive(Debug)]
pub struct Timed<O> {
    pub outputs: Vec<O>,
    pub latencies_ms: Vec<f64>,
    pub elapsed_s: f64,
}

impl<O> Timed<O> {
    pub fn throughput(&self) -> f64 {
        self.outputs.len() as f64 / self.elapsed_s
    }
}

/// Closed loop with one caller: starts whole rounds of `round` operations
/// until `seconds` have passed, so every run attempts the same mix. `op`
/// receives the global operation index.
pub fn closed_loop<O>(seconds: f64, round: usize, mut op: impl FnMut(usize) -> O) -> Timed<O> {
    let mut outputs = Vec::new();
    let mut latencies_ms = Vec::new();
    let started = Instant::now();
    while started.elapsed().as_secs_f64() < seconds {
        for _ in 0..round {
            let t = Instant::now();
            let out = op(outputs.len());
            latencies_ms.push(t.elapsed().as_secs_f64() * 1e3);
            outputs.push(out);
        }
    }
    Timed {
        outputs,
        latencies_ms,
        elapsed_s: started.elapsed().as_secs_f64(),
    }
}

/// The five end-to-end metrics every workload reports.
pub fn end_to_end(setup_s: f64, throughput: f64, latencies_ms: &[f64], tail_q: f64) -> Metrics {
    let mut m = Metrics::default();
    m.set("setup_s", setup_s, "s");
    m.set("throughput_per_s", throughput, "1/s");
    m.set("latency_p50_ms", median(latencies_ms), "ms");
    m.set("latency_tail_ms", quantile(latencies_ms, tail_q), "ms");
    m.set("peak_rss_mb", peak_rss_mb(), "MB");
    m
}

/// Wall-clock seconds of `f`, with its result.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let started = Instant::now();
    let out = f();
    (out, started.elapsed().as_secs_f64())
}
