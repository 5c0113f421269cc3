//! Correctness oracles: every output the benchmark checks is compared here
//! against a value the benchmark computes itself.

use crate::inputs::{Expect, Filter, Kb};
use easytime_data::scaler::ScalerKind;
use easytime_data::{Scaler, TimeSeries};
use easytime_db::knowledge::{DatasetRow, ResultRow};
use easytime_db::{QueryResult, Value};
use easytime_models::ModelSpec;
use std::collections::{BTreeMap, HashMap};

/// Relative tolerance of every floating-point comparison.
pub const TOL: f64 = 1e-9;

/// `a` and `b` agree within [`TOL`], relative to the larger magnitude (and
/// absolute below 1).
pub fn close(a: f64, b: f64) -> bool {
    (a - b).abs() <= TOL * a.abs().max(b.abs()).max(1.0)
}

pub fn all_close(a: &[f64], b: &[f64]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| close(*x, *y))
}

// --- one_click ---------------------------------------------------------

/// Rolling evaluation windows `(origin, len)` of a series of `n` points:
/// the test part starts after `floor(n · (train + val))` points, windows
/// advance by `stride`, and a short last window is kept.
pub fn rolling_windows(
    n: usize,
    train_val: f64,
    horizon: usize,
    stride: usize,
) -> Vec<(usize, usize)> {
    let mut out = Vec::new();
    let mut origin = (n as f64 * train_val).floor() as usize;
    while origin < n {
        out.push((origin, horizon.min(n - origin)));
        origin += stride;
    }
    out
}

/// Closed-form forecasts of the methods whose scores the benchmark
/// recomputes from raw values.
pub fn closed_form(method: &str, train: &[f64], horizon: usize) -> Option<Vec<f64>> {
    let n = train.len();
    let last = *train.last()?;
    match method {
        "naive" => Some(vec![last; horizon]),
        "mean" => Some(vec![train.iter().sum::<f64>() / n as f64; horizon]),
        "drift" => {
            let slope = (last - train[0]) / (n - 1) as f64;
            Some((1..=horizon).map(|h| last + slope * h as f64).collect())
        }
        _ => None,
    }
}

/// MAE and RMSE of a closed-form method, averaged over the windows.
pub fn closed_form_scores(
    method: &str,
    values: &[f64],
    windows: &[(usize, usize)],
) -> Option<(f64, f64)> {
    let (mut mae, mut rmse) = (0.0, 0.0);
    for &(origin, len) in windows {
        let forecast = closed_form(method, &values[..origin], len)?;
        let actual = &values[origin..origin + len];
        let errors = actual.iter().zip(&forecast).map(|(a, p)| a - p);
        mae += errors.clone().map(f64::abs).sum::<f64>() / len as f64;
        rmse += (errors.map(|e| e * e).sum::<f64>() / len as f64).sqrt();
    }
    let k = windows.len() as f64;
    Some((mae / k, rmse / k))
}

// --- auto_ensemble and serve_mixed -------------------------------------

/// Fits `method` on the whole series and forecasts `horizon` steps.
pub fn fit_forecast(method: &ModelSpec, series: &TimeSeries, horizon: usize) -> Option<Vec<f64>> {
    let mut model = method.build().ok()?;
    model.fit(series).ok()?;
    model.forecast(horizon).ok()
}

/// The ensemble's forecast is Σ wᵢ·fᵢ, where `member_forecast` yields
/// each fᵢ refitted by the benchmark on the full series; weights are
/// non-negative and sum to 1; the members are among `top`.
pub fn ensemble_ok(
    top: &[String],
    members: &[(String, f64)],
    forecast: &[f64],
    mut member_forecast: impl FnMut(&str) -> Option<Vec<f64>>,
) -> bool {
    let weights_ok = members.iter().all(|(_, w)| *w >= 0.0)
        && close(members.iter().map(|(_, w)| w).sum::<f64>(), 1.0);
    if !weights_ok || members.is_empty() || members.iter().any(|(m, _)| !top.contains(m)) {
        return false;
    }
    let mut expected = vec![0.0; forecast.len()];
    for (name, w) in members {
        let Some(f) = member_forecast(name) else {
            return false;
        };
        if f.len() != expected.len() {
            return false;
        }
        for (e, v) in expected.iter_mut().zip(f) {
            *e += w * v;
        }
    }
    forecast.iter().all(|v| v.is_finite()) && all_close(forecast, &expected)
}

/// A cold fit as the serving engine defines it: z-score the full history
/// (streamed statistics, as the engine seeds them), fit, forecast, inverse.
pub fn cold_forecast(series: &TimeSeries, method: &ModelSpec, horizon: usize) -> Option<Vec<f64>> {
    let raw = series.values();
    let mut scaler = Scaler::new(ScalerKind::ZScore);
    if !scaler.extend(raw).ok()? {
        scaler.fit(raw).ok()?;
    }
    let (shift, scale) = scaler.fitted_params()?;
    let scaled = series.with_values(scaler.transform(raw).ok()?).ok()?;
    let forecast = fit_forecast(method, &scaled, horizon)?;
    Some(forecast.into_iter().map(|f| f * scale + shift).collect())
}

// --- Q&A ---------------------------------------------------------------

/// One expected cell of an answer table.
#[derive(Debug, Clone, PartialEq)]
pub enum Cell {
    Text(String),
    Int(i64),
    Float(f64),
}

fn dataset_admits(f: &Filter, d: &DatasetRow) -> bool {
    let strong = match f.strong {
        None => true,
        Some("seasonality") => d.seasonality >= 0.6,
        Some("trend") => d.trend >= 0.6,
        Some(other) => panic!("no oracle for characteristic {other}"),
    };
    strong
        && f.domain.map_or(true, |dom| d.domain == dom)
        && f.multivariate.map_or(true, |mv| (d.channels > 1) == mv)
}

fn metric_of(r: &ResultRow, metric: &str) -> Option<f64> {
    match metric {
        "mae" => r.mae,
        "mse" => r.mse,
        "rmse" => r.rmse,
        "smape" => r.smape,
        "mase" => r.mase,
        "r2" => r.r2,
        other => panic!("no oracle for metric {other}"),
    }
}

/// Result rows that satisfy the filter, with the dataset they belong to.
pub fn matching_results<'a>(kb: &'a Kb, f: &Filter) -> Vec<&'a ResultRow> {
    let by_id: HashMap<&str, &DatasetRow> =
        kb.datasets.iter().map(|d| (d.id.as_str(), d)).collect();
    kb.results
        .iter()
        .filter(|r| f.horizon.map_or(true, |h| h.admits(r.horizon)))
        .filter(|r| {
            by_id
                .get(r.dataset_id.as_str())
                .is_some_and(|d| dataset_admits(f, d))
        })
        .collect()
}

/// `(method, mean metric, runs)` rows ordered by ascending mean.
fn ranking(rows: &[&ResultRow], metric: &str, keep: impl Fn(&str) -> bool) -> Vec<Vec<Cell>> {
    let mut groups: BTreeMap<&str, (f64, i64)> = BTreeMap::new();
    for r in rows.iter().filter(|r| keep(&r.method)) {
        let g = groups.entry(r.method.as_str()).or_insert((0.0, 0));
        if let Some(v) = metric_of(r, metric) {
            g.0 += v;
        }
        g.1 += 1;
    }
    let mut out: Vec<(&str, f64, i64)> = groups
        .into_iter()
        .map(|(m, (sum, n))| (m, sum / n as f64, n))
        .collect();
    out.sort_by(|a, b| a.1.total_cmp(&b.1));
    out.into_iter()
        .map(|(m, mean, n)| vec![Cell::Text(m.to_string()), Cell::Float(mean), Cell::Int(n)])
        .collect()
}

/// The answer table a question must produce, computed by plain iteration
/// over the benchmark's own rows.
pub fn expected_table(kb: &Kb, expect: &Expect) -> Vec<Vec<Cell>> {
    match *expect {
        Expect::Top {
            metric,
            n,
            ref filter,
        } => {
            let mut rows = ranking(&matching_results(kb, filter), metric, |_| true);
            rows.truncate(n);
            rows
        }
        Expect::Compare {
            metric,
            a,
            b,
            ref filter,
        } => ranking(&matching_results(kb, filter), metric, |m| m == a || m == b),
        Expect::CountDatasets { ref filter } => {
            vec![vec![Cell::Int(
                kb.datasets
                    .iter()
                    .filter(|d| dataset_admits(filter, d))
                    .count() as i64,
            )]]
        }
        Expect::MethodInfo { name } => kb
            .methods
            .iter()
            .filter(|m| m.name == name)
            .map(|m| {
                vec![
                    Cell::Text(m.name.clone()),
                    Cell::Text(m.family.clone()),
                    Cell::Text(m.description.clone()),
                ]
            })
            .collect(),
    }
}

/// Same method order, floats within [`TOL`], exact counts and text.
pub fn table_matches(actual: &QueryResult, expected: &[Vec<Cell>]) -> bool {
    actual.rows.len() == expected.len()
        && actual.rows.iter().zip(expected).all(|(row, exp)| {
            row.len() == exp.len()
                && row.iter().zip(exp).all(|(v, c)| match (v, c) {
                    (Value::Text(a), Cell::Text(b)) => a == b,
                    (Value::Int(a), Cell::Int(b)) => a == b,
                    (Value::Float(a), Cell::Float(b)) => close(*a, *b),
                    _ => false,
                })
        })
}
