//! `auto_ensemble`: pretrain once, then for each held-out series
//! recommend → `AutoEnsemble::fit` (k = 3, learned weights) → forecast(24).

use crate::report::{median, repeated_setup, timed, Metrics, Outcome};
use crate::{oracle, run_closed, Checked, ClosedWorkload, Ctx};
use easytime_automl::ensemble::WeightMode;
use easytime_automl::{AutoEnsemble, PerfMatrix, Recommender, RecommenderConfig};
use easytime_bench::fast_zoo;
use easytime_data::synthetic::{build_corpus, CorpusConfig};
use easytime_data::{Dataset, TimeSeries};
use easytime_eval::Strategy;
use easytime_models::ModelSpec;
use easytime_repr::Embedder;
use easytime_rng::StdRng;
use std::collections::HashMap;

pub const HORIZON: usize = 24;
const K: usize = 3;
const VAL_RATIO: f64 = 0.2;
const PRETRAIN_SEED: u64 = 7;

pub fn recommender_config() -> RecommenderConfig {
    RecommenderConfig {
        methods: fast_zoo(),
        strategy: Strategy::Fixed { horizon: HORIZON },
        threads: 2,
        ..RecommenderConfig::default()
    }
}

/// The pretraining corpus: 10 domains × `pretrain_per_domain` series. Its
/// seed is fixed, like a model shipped pretrained: which methods the
/// recommender favours decides how many operations fit a slow member, and
/// with a corpus drawn per `--seed` that share alone moved throughput by
/// ±25% between seeds. `--seed` varies the series the workloads serve.
pub fn pretrain_corpus(ctx: &Ctx) -> Vec<Dataset> {
    build_corpus(&CorpusConfig {
        per_domain: ctx.scale.pretrain_per_domain,
        length: ctx.scale.pretrain_length,
        multivariate_per_domain: 0,
        seed: PRETRAIN_SEED,
        ..CorpusConfig::default()
    })
    .expect("corpus config is valid")
}

pub fn pretrain(ctx: &Ctx) -> (Recommender, PerfMatrix) {
    Recommender::pretrain(&pretrain_corpus(ctx), &recommender_config())
        .expect("pretraining succeeds")
}

/// Held-out series drawn from another seed, longer than the corpus, in a
/// seeded order: a run that ends part-way through a pass has still served
/// every domain.
fn heldout(ctx: &Ctx) -> Vec<TimeSeries> {
    let mut series: Vec<TimeSeries> = build_corpus(&CorpusConfig {
        per_domain: ctx.scale.heldout_per_domain,
        length: ctx.scale.heldout_length,
        multivariate_per_domain: 0,
        seed: ctx.seed ^ 0x5eed_0a0e,
        ..CorpusConfig::default()
    })
    .expect("corpus config is valid")
    .iter()
    .map(Dataset::primary_series)
    .collect();
    StdRng::seed_from_u64(ctx.seed ^ 0x0a0e).shuffle(&mut series);
    series
}

struct Ensemble {
    recommender: Recommender,
    heldout: Vec<TimeSeries>,
    /// Oracle member forecasts per (series, method): every round repeats
    /// the same series, so each member is refitted once.
    member_forecasts: HashMap<(usize, String), Option<Vec<f64>>>,
}

struct Out {
    series: usize,
    top: Vec<String>,
    scores_sum: f64,
    fitted: Option<Fitted>,
}

struct Fitted {
    members: Vec<(String, f64)>,
    forecast: Vec<f64>,
}

impl ClosedWorkload for Ensemble {
    type Out = Out;

    /// Ops walk the held-out list in order; a run covers one to two
    /// passes. Its 1,440 series make the share of ops that fit a slow
    /// member (about a quarter) vary little between seeds.
    fn round(&self) -> usize {
        1
    }

    fn tail_q(&self) -> f64 {
        0.99
    }

    fn op(&mut self, i: usize) -> Out {
        let idx = i % self.heldout.len();
        let series = &self.heldout[idx];
        let ranking = self.recommender.recommend(series);
        let fitted =
            AutoEnsemble::fit(&self.recommender, series, K, VAL_RATIO, WeightMode::Learned)
                .and_then(|e| {
                    let members = e
                        .members()
                        .into_iter()
                        .map(|(m, w)| (m.to_string(), w))
                        .collect();
                    Ok(Fitted {
                        members,
                        forecast: e.forecast(HORIZON)?,
                    })
                })
                .ok();
        Out {
            series: idx,
            top: ranking.iter().take(K).map(|r| r.method.clone()).collect(),
            scores_sum: ranking.iter().map(|r| r.score).sum(),
            fitted,
        }
    }

    fn check(&mut self, outs: &mut [Out], inject: bool) -> Checked {
        if inject {
            if let Some(f) = outs[0].fitted.as_mut() {
                f.forecast[0] += 1.0;
            }
        }
        let mut checked = Checked::default();
        for out in outs.iter() {
            let Some(Fitted { members, forecast }) = &out.fitted else {
                checked.failed += 1;
                continue;
            };
            let series = &self.heldout[out.series];
            let cache = &mut self.member_forecasts;
            let ok = forecast.len() == HORIZON
                && oracle::close(out.scores_sum, 1.0)
                && oracle::ensemble_ok(&out.top, members, forecast, |name| {
                    cache
                        .entry((out.series, name.to_string()))
                        .or_insert_with(|| {
                            let spec = ModelSpec::parse(name).ok()?;
                            oracle::fit_forecast(&spec, series, HORIZON)
                        })
                        .clone()
                });
            if !ok {
                checked.failed += 1;
                checked.mismatched += 1;
            }
        }
        checked
    }
}

pub fn run(ctx: &Ctx) -> Outcome {
    let ((recommender, heldout), setup_s) =
        repeated_setup(ctx.scale.setups[1], || (pretrain(ctx).0, heldout(ctx)));
    let w = Ensemble {
        recommender,
        heldout,
        member_forecasts: HashMap::new(),
    };
    run_closed(ctx, w, setup_s)
}

/// Per-layer metrics: repr, automl and models, timed from outside.
pub fn probe(ctx: &Ctx, m: &mut Metrics) {
    let config = recommender_config();
    let corpus = pretrain_corpus(ctx);
    let series: Vec<TimeSeries> = corpus.iter().map(Dataset::primary_series).collect();
    let (recommender, matrix) = pretrain(ctx);
    let mut embed_fit = Vec::new();
    let mut train = Vec::new();
    for _ in 0..3 {
        let mut embedder = Embedder::new(config.embedder);
        embed_fit.push(timed(|| embedder.fit(&series)).1);
        train.push(
            timed(|| {
                Recommender::pretrain_from_matrix(&series, &matrix, &config).expect("valid matrix")
            })
            .1,
        );
    }
    let embed_fit_s = median(&embed_fit);
    m.set("repr.embed_fit_s", embed_fit_s, "s");
    m.set(
        "automl.classifier_train_s",
        median(&train) - embed_fit_s,
        "s",
    );

    let mut embedder = Embedder::new(config.embedder);
    embedder.fit(&series);
    let heldout = heldout(ctx);
    let (mut embed, mut rec, mut fit, mut learn, mut fc, mut member) = (
        Vec::new(),
        Vec::new(),
        Vec::new(),
        Vec::new(),
        Vec::new(),
        Vec::new(),
    );
    let (mut kept, mut candidates) = (0usize, 0usize);
    // Every tenth held-out series keeps the probe to a few seconds.
    for s in heldout.iter().step_by(10) {
        embed.push(timed(|| embedder.embed(s)).1 * 1e6);
        let (ranking, secs) = timed(|| recommender.recommend(s));
        rec.push(secs * 1e6);
        let top: Vec<String> = ranking.iter().take(K).map(|r| r.method.clone()).collect();
        let fit_with = |mode| AutoEnsemble::fit_with_members(&top, s, VAL_RATIO, mode);
        let (ens, learned_s) = timed(|| fit_with(WeightMode::Learned));
        let (_, uniform_s) = timed(|| fit_with(WeightMode::Uniform));
        let Ok(ens) = ens else { continue };
        fit.push(learned_s * 1e3);
        learn.push((learned_s - uniform_s) * 1e3);
        fc.push(timed(|| ens.forecast(HORIZON)).1 * 1e6);
        kept += ens.members().len();
        candidates += top.len();
        // The members' own fit + forecast on the training part.
        let val = (s.len() as f64 * VAL_RATIO).round() as usize;
        let part = s.slice(0, s.len() - val).expect("validation split fits");
        let member_s: f64 = ens
            .members()
            .iter()
            .filter_map(|(name, _)| ModelSpec::parse(name).ok())
            .map(|spec| timed(|| oracle::fit_forecast(&spec, &part, val)).1)
            .sum();
        member.push(member_s * 1e3);
    }
    m.set("repr.embed_us", median(&embed), "us");
    m.set("automl.recommend_us", median(&rec), "us");
    m.set("automl.ensemble_fit_ms", median(&fit), "ms");
    m.set("automl.weight_learn_ms", median(&learn), "ms");
    m.set("automl.forecast_us", median(&fc), "us");
    m.set(
        "automl.member_keep_ratio",
        kept as f64 / candidates.max(1) as f64,
        "ratio",
    );
    m.set("models.member_fit_ms", median(&member), "ms");
}
