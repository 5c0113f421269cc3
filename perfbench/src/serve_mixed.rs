//! `serve_mixed`: one generator thread offers a fixed-rate, bursty request
//! mix to `ServeEngine::start` with one worker and the default queue bound,
//! deadline and 64-entry model cache.

use crate::auto_ensemble::{pretrain, HORIZON};
use crate::inputs::{build_kb, kb_rows, Kb, ROTATION};
use crate::oracle::{self, Cell};
use crate::report::{end_to_end, median, quantile, repeated_setup, timed, Metrics, Outcome};
use crate::{outcome, traced_metrics, Checked, Ctx};
use easytime_automl::Recommender;
use easytime_bench::fast_zoo;
use easytime_data::synthetic::{build_corpus, CorpusConfig};
use easytime_data::{Dataset, TimeSeries};
use easytime_eval::{EvalConfig, MetricRegistry, Strategy};
use easytime_models::ModelSpec;
use easytime_serve::{
    Request, Response, ServeConfig, ServeContext, ServeEngine, ServeError, ServeStats, Ticket,
};
use std::collections::VecDeque;
use std::time::{Duration, Instant};

/// Offered load, requests per second: about half of what one worker
/// sustains on this mix in a closed loop (see README).
const RATE: f64 = 200.0;
/// Requests per burst and bursts per round; a round is the unit every run
/// attempts whole.
const BURST: usize = 10;
const BURSTS_PER_ROUND: usize = 4;
const ROUND: usize = BURST * BURSTS_PER_ROUND;
/// Hot tenants, each visited once per round: with the 16 cold, pinned
/// and evaluated keys a round also touches, 40 keys fit the 64-entry cache.
const HOT: usize = 24;
/// Length of a hot tenant's series at its first visit.
const HOT_BASE: usize = 240;
const HOT_SEED: u64 = 0x4077;
/// Distinct series behind the cold, pinned and evaluated requests: enough
/// that the share of cold tenants whose recommended method is slow varies
/// little between seeds.
const POOL: usize = 400;
const TOP_K: usize = 3;
/// Questions a served `Ask` draws from: the rotation minus its follow-ups,
/// since every served question opens a fresh session.
const ASK_SLOTS: [usize; 10] = [0, 1, 2, 3, 5, 6, 7, 9, 10, 11];

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    Warm,
    Cold,
    Pinned,
    Evaluate,
    Ask,
}

const KINDS: [(Kind, &str); 5] = [
    (Kind::Warm, "warm"),
    (Kind::Cold, "cold"),
    (Kind::Pinned, "pinned"),
    (Kind::Evaluate, "evaluate"),
    (Kind::Ask, "ask"),
];

/// The kinds of one burst, in submission order: 6 warm, 2 cold, 1 pinned
/// and one evaluate (even bursts) or ask (odd bursts). Warm requests go
/// first, so a cold request that fits a slow model delays only the few
/// requests behind it and p50 stays inside the warm class.
fn burst_kinds(burst: usize) -> [Kind; BURST] {
    use Kind::*;
    let other = if burst % 2 == 0 { Evaluate } else { Ask };
    [
        Warm, Warm, Warm, Warm, Warm, Warm, Cold, Cold, Pinned, other,
    ]
}

/// Everything a request needs to be built and its reply checked.
struct Sent {
    kind: Kind,
    /// Hot-tenant index, or the running number of the cold/pinned/... request.
    key: usize,
    series: Option<TimeSeries>,
    method: Option<ModelSpec>,
    slot: usize,
    due: Instant,
    sent: Instant,
    submit_us: f64,
    latency_ms: f64,
    result: Option<Result<Response, ServeError>>,
}

/// Inputs and engine of one serve_mixed run.
struct Serve {
    engine: ServeEngine,
    recommender: Recommender,
    kb: Kb,
    hot: Vec<TimeSeries>,
    /// Revealed length of each hot tenant's series.
    hot_len: Vec<usize>,
    /// Method each hot tenant was served at its first visit.
    sticky: Vec<String>,
    pool: Vec<TimeSeries>,
    counter: usize,
    warm_visits: usize,
    /// Seed for how many points each hot visit appends.
    seed: u64,
}

/// The hot tenants' series. The cohort is fixed, like the pretrained
/// recommender: which methods these 24 tenants stick to decides how many
/// warm hits refit a slow model (finding (f) in the README), and a cohort
/// drawn per `--seed` made p50 a draw of that count. `--seed` varies how
/// the series grow and every cold, pinned, evaluated and asked request.
fn hot_corpus(length: usize) -> Vec<TimeSeries> {
    let corpus = build_corpus(&CorpusConfig {
        per_domain: HOT.div_ceil(10),
        length,
        multivariate_per_domain: 0,
        seed: HOT_SEED,
        ..CorpusConfig::default()
    })
    .expect("corpus config is valid");
    corpus
        .iter()
        .take(HOT)
        .map(Dataset::primary_series)
        .collect()
}

fn pool(seed: u64) -> Vec<TimeSeries> {
    build_corpus(&CorpusConfig {
        per_domain: POOL / 10,
        length: 288,
        multivariate_per_domain: 0,
        seed: seed ^ 0xc01d,
        ..CorpusConfig::default()
    })
    .expect("corpus config is valid")
    .iter()
    .map(Dataset::primary_series)
    .collect()
}

/// Rounds a run of `seconds` offers, and so the growth hot series need.
fn rounds(seconds: f64) -> usize {
    ((seconds * RATE) / ROUND as f64).ceil().max(1.0) as usize
}

fn eval_config(registry: &MetricRegistry) -> easytime_eval::ValidatedEvalConfig {
    EvalConfig::builder()
        .method(ModelSpec::Naive)
        .strategy(Strategy::Rolling {
            horizon: HORIZON,
            stride: HORIZON,
            max_windows: None,
        })
        .metrics(["mae", "rmse"])
        .threads(1)
        .build(registry)
        .expect("eval config is valid")
}

impl Serve {
    /// Pretraining, knowledge base, engine start, and one untimed visit of
    /// every hot tenant so the timed phase starts with a warm cache.
    fn setup(ctx: &Ctx, planned_rounds: usize) -> Serve {
        let (recommender, _) = pretrain(ctx);
        let kb = kb_rows(ctx.seed ^ 0x5e7e, ctx.scale.serve_datasets);
        let registry = MetricRegistry::standard();
        let context = ServeContext::new(
            recommender.clone(),
            registry.clone(),
            build_kb(&kb).0,
            eval_config(&registry),
        );
        let config = ServeConfig::builder()
            .workers(1)
            .build()
            .expect("serve config is valid");
        let engine = ServeEngine::start(context, config);
        let hot = hot_corpus(HOT_BASE + 3 * (planned_rounds + 2));
        let mut serve = Serve {
            engine,
            recommender,
            kb,
            hot,
            hot_len: vec![HOT_BASE; HOT],
            sticky: Vec::new(),
            pool: pool(ctx.seed),
            counter: 0,
            warm_visits: 0,
            seed: ctx.seed,
        };
        for t in 0..HOT {
            let series = serve.hot[t].slice(0, HOT_BASE).expect("base fits");
            let reply = serve.engine.call(Request::RecommendAndForecast {
                series,
                top_k: TOP_K,
                horizon: HORIZON,
                method: None,
            });
            let chosen = match reply {
                Ok(Response::RecommendAndForecast { chosen, .. }) => chosen,
                other => panic!("hot tenant {t} warm-up failed: {other:?}"),
            };
            serve.sticky.push(chosen);
        }
        serve
    }

    fn pool_series(&self, prefix: &str, j: usize) -> TimeSeries {
        let base = &self.pool[j % self.pool.len()];
        let shift = 0.25 * j as f64;
        TimeSeries::new(
            format!("{prefix}_{j}"),
            base.values().iter().map(|v| v + shift).collect(),
            base.frequency(),
        )
        .expect("shifted pool series is valid")
    }

    /// Builds the next request of `kind` and its record.
    fn next(&mut self, kind: Kind, due: Instant) -> (Request, Sent) {
        let j = self.counter;
        self.counter += 1;
        let mut sent = Sent {
            kind,
            key: j,
            series: None,
            method: None,
            slot: 0,
            due,
            sent: due,
            submit_us: 0.0,
            latency_ms: 0.0,
            result: None,
        };
        let request = match kind {
            Kind::Warm => {
                let t = self.warm_visits % HOT;
                self.warm_visits += 1;
                let grow = 1
                    + (easytime_rng::SplitMix64::new(self.seed ^ j as u64).next_u64() % 3) as usize;
                self.hot_len[t] = (self.hot_len[t] + grow).min(self.hot[t].len());
                let series = self.hot[t]
                    .slice(0, self.hot_len[t])
                    .expect("revealed prefix fits");
                sent.key = t;
                sent.series = Some(series.clone());
                Request::RecommendAndForecast {
                    series,
                    top_k: TOP_K,
                    horizon: HORIZON,
                    method: None,
                }
            }
            Kind::Cold => {
                let series = self.pool_series("cold", j);
                sent.series = Some(series.clone());
                Request::RecommendAndForecast {
                    series,
                    top_k: TOP_K,
                    horizon: HORIZON,
                    method: None,
                }
            }
            Kind::Pinned => {
                let series = self.pool_series("pin", j);
                let zoo = fast_zoo();
                let method = zoo[j % zoo.len()].clone();
                sent.series = Some(series.clone());
                sent.method = Some(method.clone());
                Request::RecommendAndForecast {
                    series,
                    top_k: TOP_K,
                    horizon: HORIZON,
                    method: Some(method),
                }
            }
            Kind::Evaluate => {
                let series = self.pool_series("eval", j);
                let method = if j % 2 == 0 {
                    ModelSpec::Theta(None)
                } else {
                    ModelSpec::Ses(None)
                };
                Request::Evaluate { series, method }
            }
            Kind::Ask => {
                sent.slot = ASK_SLOTS[j % ASK_SLOTS.len()];
                Request::Ask {
                    question: ROTATION[sent.slot].text.to_string(),
                }
            }
        };
        (request, sent)
    }

    /// Offers `rounds` whole rounds on the fixed schedule; every reply is
    /// timed from its request's due time. Returns the records and the
    /// seconds from the first due time to the last reply.
    fn drive(&mut self, rounds: usize) -> (Vec<Sent>, f64) {
        let interval = Duration::from_secs_f64(BURST as f64 / RATE);
        let start = Instant::now() + Duration::from_millis(1);
        let mut done: Vec<Sent> = Vec::with_capacity(rounds * ROUND);
        let mut pending: VecDeque<(Sent, Ticket)> = VecDeque::new();
        for burst in 0..rounds * BURSTS_PER_ROUND {
            let due = start + interval * burst as u32;
            // Spin rather than sleep: a sleeping generator wakes late by a
            // varying amount on a shared host, which moved p50 by ±20%.
            while Instant::now() < due {
                poll(&mut pending, &mut done);
                std::hint::spin_loop();
            }
            for kind in burst_kinds(burst) {
                let (request, mut sent) = self.next(kind, due);
                sent.sent = Instant::now();
                let (ticket, secs) = timed(|| self.engine.submit(request));
                sent.submit_us = secs * 1e6;
                match ticket {
                    Ok(t) => pending.push_back((sent, t)),
                    Err(e) => {
                        sent.latency_ms = sent.due.elapsed().as_secs_f64() * 1e3;
                        sent.result = Some(Err(e));
                        done.push(sent);
                    }
                }
            }
        }
        let give_up = Instant::now() + Duration::from_secs(30);
        while !pending.is_empty() && Instant::now() < give_up {
            poll(&mut pending, &mut done);
            std::hint::spin_loop();
        }
        done.extend(pending.into_iter().map(|(s, _)| s));
        let span = start.elapsed().as_secs_f64();
        (done, span)
    }

    fn check(&self, done: &mut [Sent], inject: bool) -> Checked {
        if inject {
            if let Some(Ok(Response::RecommendAndForecast { forecast, .. })) = done
                .iter_mut()
                .find_map(|s| s.result.as_mut().filter(|r| r.is_ok()))
            {
                forecast[0] += 1.0;
            }
        }
        let mut expected: Vec<Option<Vec<Vec<Cell>>>> = vec![None; ROTATION.len()];
        let mut checked = Checked::default();
        for s in done.iter() {
            match &s.result {
                None | Some(Err(_)) => checked.failed += 1,
                Some(Ok(response)) => {
                    if !self.reply_ok(s, response, &mut expected) {
                        checked.failed += 1;
                        checked.mismatched += 1;
                    }
                }
            }
        }
        checked
    }

    fn reply_ok(
        &self,
        s: &Sent,
        response: &Response,
        expected: &mut [Option<Vec<Vec<Cell>>>],
    ) -> bool {
        match (s.kind, response) {
            (Kind::Evaluate, Response::Evaluate { record }) => record.is_ok() && record.windows > 0,
            (Kind::Ask, Response::Ask { response }) => {
                let table = expected[s.slot].get_or_insert_with(|| {
                    oracle::expected_table(&self.kb, &ROTATION[s.slot].expect)
                });
                oracle::table_matches(&response.table, table)
            }
            (
                _,
                Response::RecommendAndForecast {
                    chosen,
                    forecast,
                    cache_hit,
                    ..
                },
            ) => {
                let Some(series) = &s.series else {
                    return false;
                };
                // A hit keeps the method its tenant got at the first visit;
                // anything else is a fresh recommendation.
                let right_method = match s.kind {
                    Kind::Pinned => s.method.as_ref().is_some_and(|m| *chosen == m.name()),
                    Kind::Warm if *cache_hit => *chosen == self.sticky[s.key],
                    _ => self
                        .recommender
                        .recommend(series)
                        .first()
                        .is_some_and(|r| r.method == *chosen),
                };
                // Warm ≡ cold: whatever path served it, the forecast equals
                // a cold fit of the chosen method on the full history.
                right_method
                    && ModelSpec::parse(chosen)
                        .ok()
                        .and_then(|spec| oracle::cold_forecast(series, &spec, HORIZON))
                        .is_some_and(|cold| oracle::all_close(forecast, &cold))
            }
            _ => false,
        }
    }
}

/// Collects every reply that has arrived.
fn poll(pending: &mut VecDeque<(Sent, Ticket)>, done: &mut Vec<Sent>) {
    let mut i = 0;
    while i < pending.len() {
        if let Some(result) = pending[i].1.try_wait() {
            let (mut sent, _) = pending.remove(i).expect("index is in range");
            sent.latency_ms = sent.due.elapsed().as_secs_f64() * 1e3;
            sent.result = Some(result);
            done.push(sent);
        } else {
            i += 1;
        }
    }
}

fn completed(done: &[Sent]) -> usize {
    done.iter()
        .filter(|s| matches!(s.result, Some(Ok(_))))
        .count()
}

pub fn run(ctx: &Ctx) -> Outcome {
    let planned = rounds(ctx.seconds);
    if ctx.trace {
        let half = rounds(ctx.seconds / 2.0);
        let mut serve = Serve::setup(ctx, 2 * half);
        let (mut done, plain_s) = serve.drive(half);
        easytime_obs::set_enabled(true);
        let (traced, traced_s) = serve.drive(half);
        easytime_obs::set_enabled(false);
        drop(easytime_obs::drain());
        let ratio = (completed(&traced) as f64 / traced_s) / (completed(&done) as f64 / plain_s);
        done.extend(traced);
        let checked = serve.check(&mut done, ctx.inject);
        return outcome(done.len(), checked, traced_metrics(ctx, ratio));
    }
    let (mut serve, setup_s) = repeated_setup(ctx.scale.setups[3], || Serve::setup(ctx, planned));
    let (mut done, span_s) = serve.drive(planned);
    let latencies: Vec<f64> = done.iter().map(|s| s.latency_ms).collect();
    let metrics = end_to_end(setup_s, completed(&done) as f64 / span_s, &latencies, 0.99);
    let checked = serve.check(&mut done, ctx.inject);
    outcome(done.len(), checked, metrics)
}

/// Per-layer metrics: serve, models and the batched recommendation.
pub fn probe(ctx: &Ctx, m: &mut Metrics) {
    let seconds = (ctx.seconds / 2.0).min(3.0);
    let mut serve = Serve::setup(ctx, rounds(seconds));
    let before = serve.engine.stats();
    let (done, _) = serve.drive(rounds(seconds));
    let after = serve.engine.stats();
    let delta = |f: fn(&ServeStats) -> u64| (f(&after) - f(&before)) as f64;
    m.set(
        "serve.submit_us",
        median(&done.iter().map(|s| s.submit_us).collect::<Vec<_>>()),
        "us",
    );
    for (kind, name) in KINDS {
        let lat: Vec<f64> = done
            .iter()
            .filter(|s| s.kind == kind)
            .map(|s| s.latency_ms)
            .collect();
        m.set(format!("serve.latency_p50_ms.{name}"), median(&lat), "ms");
    }
    m.set(
        "serve.batch_size_mean",
        delta(|s| s.batched_requests) / delta(|s| s.batches).max(1.0),
        "requests",
    );
    let (hits, misses) = (delta(|s| s.cache_hits), delta(|s| s.cache_misses));
    m.set(
        "serve.cache_hit_ratio",
        hits / (hits + misses).max(1.0),
        "ratio",
    );
    m.set("serve.cold_fits", misses, "count");
    m.set("serve.evictions", delta(|s| s.evictions), "count");
    let late: Vec<f64> = done
        .iter()
        .map(|s| s.sent.saturating_duration_since(s.due).as_secs_f64() * 1e3)
        .collect();
    m.set("serve.generator_late_ms", quantile(&late, 0.99), "ms");

    let (db, _) = build_kb(&serve.kb);
    let snapshot_ms: Vec<f64> = (0..5)
        .map(|_| {
            timed(|| easytime_qa::QaSession::new(db.clone()).expect("the knowledge base opens")).1
                * 1e3
        })
        .collect();
    m.set("serve.ask_snapshot_ms", median(&snapshot_ms), "ms");

    // One hot visit's update, replayed outside the engine: fit the sticky
    // method on the z-scored prefix, then absorb the next 2 points.
    let mut update_us = Vec::new();
    for (t, series) in serve.hot.iter().enumerate() {
        let Ok(spec) = ModelSpec::parse(&serve.sticky[t]) else {
            continue;
        };
        let v = &series.values()[..HOT_BASE + 2];
        let (prefix, appended) = v.split_at(HOT_BASE);
        let n = prefix.len() as f64;
        let mean = prefix.iter().sum::<f64>() / n;
        let std = (prefix.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n)
            .sqrt()
            .max(1e-12);
        let scale = |xs: &[f64]| series.with_values(xs.iter().map(|x| (x - mean) / std).collect());
        let (Ok(train), Ok(carrier), Ok(mut model)) =
            (scale(prefix), scale(appended), spec.build())
        else {
            continue;
        };
        if model.fit(&train).is_ok() {
            update_us.push(timed(|| model.update(&carrier)).1 * 1e6);
        }
    }
    m.set("models.warm_update_us", median(&update_us), "us");

    // Batches of the two cold recommendations each burst carries.
    let per_series_us: Vec<f64> = (0..20)
        .map(|b| {
            let batch = [
                serve.pool_series("cold", 2 * b),
                serve.pool_series("cold", 2 * b + 1),
            ];
            let refs: Vec<&TimeSeries> = batch.iter().collect();
            timed(|| serve.recommender.recommend_batch(&refs)).1 * 1e6 / refs.len() as f64
        })
        .collect();
    m.set("automl.recommend_batch_us", median(&per_series_us), "us");
}
