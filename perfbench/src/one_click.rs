//! `one_click`: one caller runs `EasyTime::one_click` on the next 4-dataset
//! selection of a paper-scale registry (10 domains × 807 series).

use crate::report::{median, repeated_setup, timed, Metrics, Outcome};
use crate::{oracle, run_closed, Checked, ClosedWorkload, Ctx};
use easytime::{
    DatasetSelection, EasyTime, EvalConfig, EvalRecord, FileConfig, MetricRegistry, SplitSpec,
    Strategy,
};
use easytime_bench::fast_zoo;
use easytime_data::scaler::ScalerKind;
use easytime_data::synthetic::{build_corpus, CorpusConfig};
use easytime_data::Dataset;
use easytime_eval::{evaluate, evaluate_corpus, RefitPolicy};
use easytime_rng::StdRng;

const SELECTION: usize = 4;
const HORIZON: usize = 24;
/// Methods whose scores the oracle recomputes in closed form.
const CLOSED_FORM: [&str; 3] = ["naive", "mean", "drift"];

fn corpus_config(ctx: &Ctx) -> CorpusConfig {
    CorpusConfig {
        per_domain: ctx.scale.registry_per_domain,
        length: ctx.scale.registry_length,
        multivariate_per_domain: 0,
        seed: ctx.seed,
        ..CorpusConfig::default()
    }
}

fn eval_config() -> EvalConfig {
    EvalConfig {
        methods: fast_zoo(),
        strategy: Strategy::Rolling {
            horizon: HORIZON,
            stride: HORIZON,
            max_windows: None,
        },
        split: SplitSpec::default(),
        scaler: ScalerKind::ZScore,
        metrics: ["mae", "rmse", "smape", "mase"].map(String::from).to_vec(),
        threads: 2,
        refit: RefitPolicy::Always,
    }
}

fn register(corpus: Vec<Dataset>) -> EasyTime {
    let platform = EasyTime::new();
    for d in corpus {
        platform
            .add_dataset(d)
            .expect("generated datasets register");
    }
    platform
}

/// Consecutive 4-id selections of a seeded permutation of the registry.
fn selections(platform: &EasyTime, seed: u64) -> Vec<Vec<String>> {
    let mut ids = platform.registry().ids();
    StdRng::seed_from_u64(seed ^ 0x0c11c).shuffle(&mut ids);
    ids.chunks_exact(SELECTION)
        .map(<[String]>::to_vec)
        .collect()
}

struct OneClick {
    platform: EasyTime,
    selections: Vec<Vec<String>>,
    config: EvalConfig,
}

struct Out {
    selection: usize,
    records: Option<Vec<EvalRecord>>,
}

impl ClosedWorkload for OneClick {
    type Out = Out;

    fn round(&self) -> usize {
        1
    }

    fn tail_q(&self) -> f64 {
        0.90
    }

    fn op(&mut self, i: usize) -> Out {
        let selection = i % self.selections.len();
        let config = FileConfig {
            eval: self.config.clone(),
            datasets: DatasetSelection::Ids(self.selections[selection].clone()),
        };
        Out {
            selection,
            records: self.platform.one_click(&config).ok(),
        }
    }

    fn check(&mut self, outs: &mut [Out], inject: bool) -> Checked {
        if inject {
            if let Some(r) = outs[0]
                .records
                .iter_mut()
                .flatten()
                .find(|r| r.method == "naive")
            {
                *r.scores.entry("mae".into()).or_default() += 1.0;
            }
        }
        let methods = self.config.methods.len();
        let mut checked = Checked::default();
        let mut returned = 0;
        for out in outs.iter() {
            let Some(records) = &out.records else {
                checked.failed += 1;
                continue;
            };
            returned += records.len();
            let ids = &self.selections[out.selection];
            let ok =
                records.len() == ids.len() * methods && records.iter().all(|r| self.record_ok(r));
            if !ok {
                checked.failed += 1;
                checked.mismatched += 1;
            }
        }
        // `results` grows by exactly the records returned.
        let count = self
            .platform
            .query_knowledge("SELECT COUNT(*) AS n FROM results")
            .ok()
            .and_then(|r| r.rows.first().and_then(|row| row[0].as_f64()));
        if count != Some(returned as f64) {
            checked.failed = outs.len() as u64;
            checked.mismatched = outs.len() as u64;
        }
        checked
    }
}

impl OneClick {
    fn record_ok(&self, r: &EvalRecord) -> bool {
        let Ok(dataset) = self.platform.registry().get(&r.dataset_id) else {
            return false;
        };
        let series = dataset.primary_series();
        let split = SplitSpec::default();
        let windows = oracle::rolling_windows(
            series.len(),
            split.train_ratio + split.val_ratio,
            HORIZON,
            HORIZON,
        );
        let mut ok = r.is_ok()
            && r.scores.len() == self.config.metrics.len()
            && r.scores.values().all(|v| v.is_finite())
            && r.windows == windows.len();
        if CLOSED_FORM.contains(&r.method.as_str()) {
            ok &= oracle::closed_form_scores(&r.method, series.values(), &windows).is_some_and(
                |(mae, rmse)| {
                    oracle::close(r.score("mae"), mae) && oracle::close(r.score("rmse"), rmse)
                },
            );
        }
        ok
    }
}

pub fn run(ctx: &Ctx) -> Outcome {
    let (platform, setup_s) = repeated_setup(ctx.scale.setups[0], || {
        register(build_corpus(&corpus_config(ctx)).expect("corpus config is valid"))
    });
    let selections = selections(&platform, ctx.seed);
    run_closed(
        ctx,
        OneClick {
            platform,
            selections,
            config: eval_config(),
        },
        setup_s,
    )
}

/// Per-layer metrics: data, core and eval, timed from outside.
pub fn probe(ctx: &Ctx, m: &mut Metrics) {
    let (corpus, build_s) =
        timed(|| build_corpus(&corpus_config(ctx)).expect("corpus config is valid"));
    m.set("data.corpus_build_s", build_s, "s");
    let (platform, register_s) = timed(|| register(corpus));
    m.set("core.register_s", register_s, "s");
    let snapshot_ms: Vec<f64> = (0..5)
        .map(|_| timed(|| platform.registry().all()).1 * 1e3)
        .collect();
    m.set("data.registry_snapshot_ms", median(&snapshot_ms), "ms");

    let registry = MetricRegistry::standard();
    let config = eval_config()
        .into_validated(&registry)
        .expect("eval config is valid");
    let (mut corpus_ms, mut windows_per_s, mut record_ms) = (Vec::new(), Vec::new(), Vec::new());
    let mut method_ms: Vec<Vec<f64>> = vec![Vec::new(); config.methods.len()];
    for ids in selections(&platform, ctx.seed).iter().take(3) {
        let datasets: Vec<Dataset> = ids
            .iter()
            .map(|id| platform.registry().get(id).expect("selected ids exist"))
            .collect();
        let (records, secs) =
            timed(|| evaluate_corpus(&datasets, &config, &registry).expect("validated config"));
        corpus_ms.push(secs * 1e3);
        windows_per_s.push(records.iter().map(|r| r.windows).sum::<usize>() as f64 / secs);
        let mut kb = platform.knowledge_snapshot();
        record_ms.push(
            timed(|| {
                for r in &records {
                    easytime::knowledge::record_result(&mut kb, r).expect("records fit the schema");
                }
            })
            .1 * 1e3,
        );
        for (spec, samples) in config.methods.iter().zip(&mut method_ms) {
            let total: f64 = datasets
                .iter()
                .map(|d| {
                    let series = d.primary_series();
                    timed(|| evaluate(&d.meta.id, &series, spec, &config, &registry)).1
                })
                .sum();
            samples.push(total * 1e3);
        }
    }
    m.set("eval.corpus_ms", median(&corpus_ms), "ms");
    m.set("eval.windows_per_s", median(&windows_per_s), "1/s");
    m.set("core.record_results_ms", median(&record_ms), "ms");
    for (spec, samples) in config.methods.iter().zip(&method_ms) {
        m.set(
            format!("eval.method_ms.{}", spec.name()),
            median(samples),
            "ms",
        );
    }
}
