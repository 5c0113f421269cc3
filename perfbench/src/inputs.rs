//! Seeded inputs: sizes, the knowledge-base rows, and the question rotation.
//!
//! Every input derives from the `--seed` argument; the program under test
//! only ever sees the generated values.

use easytime_data::Domain;
use easytime_db::knowledge::{
    create_knowledge_schema, insert_dataset, insert_method, insert_result, DatasetRow, MethodRow,
    ResultRow,
};
use easytime_db::Database;
use easytime_models::zoo::standard_zoo;
use easytime_rng::StdRng;
use std::time::Instant;

/// Input sizes. `paper` is what the benchmark measures; `tiny` keeps the
/// same shapes at a size the benchmark's own tests run in seconds.
#[derive(Debug, Clone, Copy)]
pub struct Scale {
    /// one_click registry: series per domain and their length.
    pub registry_per_domain: usize,
    pub registry_length: usize,
    /// auto_ensemble / serve_mixed pretraining corpus.
    pub pretrain_per_domain: usize,
    pub pretrain_length: usize,
    /// auto_ensemble held-out series per domain and their length.
    pub heldout_per_domain: usize,
    pub heldout_length: usize,
    /// ask_knowledge and serve_mixed knowledge bases (datasets).
    pub ask_datasets: usize,
    pub serve_datasets: usize,
    /// Set-ups per run for each workload (their median is `setup_s`).
    pub setups: [usize; 4],
}

impl Scale {
    pub const PAPER: Scale = Scale {
        registry_per_domain: 807,
        registry_length: 400,
        pretrain_per_domain: 6,
        pretrain_length: 280,
        heldout_per_domain: 144,
        heldout_length: 304,
        ask_datasets: 807,
        serve_datasets: 80,
        setups: [3, 7, 9, 7],
    };

    pub const TINY: Scale = Scale {
        registry_per_domain: 3,
        registry_length: 400,
        pretrain_per_domain: 2,
        pretrain_length: 200,
        heldout_per_domain: 1,
        heldout_length: 224,
        ask_datasets: 40,
        serve_datasets: 20,
        setups: [1, 1, 1, 1],
    };
}

/// Forecast horizons of the knowledge base's result rows.
pub const HORIZONS: [i64; 4] = [24, 48, 96, 192];

/// The benchmark's own copy of every knowledge-base row.
#[derive(Debug, Clone)]
pub struct Kb {
    pub datasets: Vec<DatasetRow>,
    pub methods: Vec<MethodRow>,
    pub results: Vec<ResultRow>,
}

/// Seeded knowledge-base rows: `n_datasets` datasets × the 25-method
/// roster × [`HORIZONS`]. Method quality and dataset difficulty are drawn
/// once, so rankings are stable and every answer has a clear order.
pub fn kb_rows(seed: u64, n_datasets: usize) -> Kb {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x4b42_0000_0000_0001);
    let methods: Vec<MethodRow> = standard_zoo()
        .into_iter()
        .map(|e| MethodRow {
            name: e.spec.name(),
            family: e.spec.family().name().to_string(),
            description: e.description.to_string(),
        })
        .collect();
    let quality: Vec<(f64, f64)> = methods
        .iter()
        .map(|_| (0.6 + 0.8 * rng.gen_f64(), 0.2 + 20.0 * rng.gen_f64()))
        .collect();
    let mut datasets = Vec::with_capacity(n_datasets);
    let mut results = Vec::with_capacity(n_datasets * methods.len() * HORIZONS.len());
    for i in 0..n_datasets {
        let domain = Domain::ALL[i % Domain::ALL.len()].name();
        let length = 400 + rng.gen_range(0..1600) as i64;
        let row = DatasetRow {
            id: format!("{domain}_{i:05}"),
            domain: domain.to_string(),
            length,
            frequency: "daily".into(),
            channels: if rng.gen_bool(0.2) {
                2 + rng.gen_range(0..6) as i64
            } else {
                1
            },
            seasonality: rng.gen_f64(),
            trend: rng.gen_f64(),
            transition: rng.gen_f64(),
            shifting: rng.gen_f64(),
            stationarity: rng.gen_f64(),
            correlation: rng.gen_f64(),
            period: [0, 7, 12, 24][rng.gen_range(0..4)],
        };
        let difficulty = 0.5 + 1.5 * rng.gen_f64();
        for (m, &(q, runtime)) in methods.iter().zip(&quality) {
            for &h in &HORIZONS {
                let mae = difficulty
                    * q
                    * (1.0 + 0.15 * (h as f64 / 24.0).log2())
                    * (0.8 + 0.4 * rng.gen_f64());
                let mse = mae * mae * (1.1 + 0.3 * rng.gen_f64());
                results.push(ResultRow {
                    dataset_id: row.id.clone(),
                    method: m.name.clone(),
                    strategy: "rolling".into(),
                    horizon: h,
                    mae: Some(mae),
                    mse: Some(mse),
                    rmse: Some(mse.sqrt()),
                    smape: Some(200.0 * mae / (mae + 6.0 * difficulty)),
                    mase: Some(mae / difficulty),
                    r2: Some(1.0 - mae / (4.0 * difficulty)),
                    runtime_ms: runtime * (0.5 + rng.gen_f64()),
                    windows: (length / 5 / h).max(1),
                });
            }
        }
        datasets.push(row);
    }
    Kb {
        datasets,
        methods,
        results,
    }
}

/// Builds the knowledge base through `easytime_db::knowledge`'s insert
/// functions. Returns it with the seconds spent inserting result rows.
pub fn build_kb(kb: &Kb) -> (Database, f64) {
    let mut db = Database::new();
    create_knowledge_schema(&mut db).expect("a fresh database accepts the schema");
    for m in &kb.methods {
        insert_method(&mut db, m).expect("method rows fit the schema");
    }
    for d in &kb.datasets {
        insert_dataset(&mut db, d).expect("dataset rows fit the schema");
    }
    let started = Instant::now();
    for r in &kb.results {
        insert_result(&mut db, r).expect("result rows fit the schema");
    }
    (db, started.elapsed().as_secs_f64())
}

/// A horizon predicate on result rows.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Horizon {
    AtMost(i64),
    AtLeast(i64),
}

impl Horizon {
    pub fn admits(self, h: i64) -> bool {
        match self {
            Horizon::AtMost(x) => h <= x,
            Horizon::AtLeast(x) => h >= x,
        }
    }
}

/// Row filters a question implies, in the benchmark's own terms.
#[derive(Debug, Clone, Copy, Default)]
pub struct Filter {
    pub horizon: Option<Horizon>,
    pub domain: Option<&'static str>,
    /// A characteristic that must be strong (≥ 0.6).
    pub strong: Option<&'static str>,
    pub multivariate: Option<bool>,
}

/// What a question asks, independently of how the program parses it.
#[derive(Debug, Clone, Copy)]
pub enum Expect {
    /// `n` methods ranked by the mean of `metric` (ascending), with run counts.
    Top {
        metric: &'static str,
        n: usize,
        filter: Filter,
    },
    /// Two methods ranked by the mean of `metric`, with run counts.
    Compare {
        metric: &'static str,
        a: &'static str,
        b: &'static str,
        filter: Filter,
    },
    /// Number of datasets matching the filter.
    CountDatasets { filter: Filter },
    /// The method's name, family and description.
    MethodInfo { name: &'static str },
}

#[derive(Debug, Clone, Copy)]
pub struct Question {
    pub text: &'static str,
    pub expect: Expect,
}

const fn filter() -> Filter {
    Filter {
        horizon: None,
        domain: None,
        strong: None,
        multivariate: None,
    }
}

/// The ask_knowledge rotation (E4 templates), asked in order within one
/// session; each follow-up inherits the short-term slots of the question
/// before it. Latency classes per round: 3 lookups and counts (< 1 ms),
/// 1 comparison, 4 short-term rankings, 2 long-term rankings and 2
/// characteristic rankings (slowest). Sorted, p50 falls in the middle of
/// the short-term class and p90 inside the slowest class (see README).
pub const ROTATION: [Question; 12] = [
    Question {
        text: "What are the top 5 methods by MAE for long-term forecasting on web datasets?",
        expect: top(
            "mae",
            5,
            Filter {
                horizon: Some(Horizon::AtLeast(96)),
                domain: Some("web"),
                ..filter()
            },
        ),
    },
    Question {
        text: "How many multivariate datasets are there?",
        expect: Expect::CountDatasets {
            filter: Filter {
                multivariate: Some(true),
                ..filter()
            },
        },
    },
    Question {
        text: "Which 3 methods are best by sMAPE on datasets with strong seasonality?",
        expect: top(
            "smape",
            3,
            Filter {
                strong: Some("seasonality"),
                ..filter()
            },
        ),
    },
    Question {
        text: "Best method for short-term forecasting by RMSE?",
        expect: top("rmse", 1, SHORT_TERM),
    },
    Question {
        text: "what about mase?",
        expect: top("mase", 1, SHORT_TERM),
    },
    Question {
        text: "Tell me about holt winters",
        expect: Expect::MethodInfo {
            name: "holt_winters",
        },
    },
    Question {
        text: "Top 5 methods by RMSE for long-term forecasting on traffic datasets",
        expect: top(
            "rmse",
            5,
            Filter {
                horizon: Some(Horizon::AtLeast(96)),
                domain: Some("traffic"),
                ..filter()
            },
        ),
    },
    Question {
        text: "Best method for short-term forecasting by sMAPE?",
        expect: top("smape", 1, SHORT_TERM),
    },
    Question {
        text: "what about mae?",
        expect: top("mae", 1, SHORT_TERM),
    },
    Question {
        text: "How many datasets have strong trends?",
        expect: Expect::CountDatasets {
            filter: Filter {
                strong: Some("trend"),
                ..filter()
            },
        },
    },
    Question {
        text: "Is theta better than naive by MAE on traffic data?",
        expect: Expect::Compare {
            metric: "mae",
            a: "theta",
            b: "naive",
            filter: Filter {
                domain: Some("traffic"),
                ..filter()
            },
        },
    },
    Question {
        text: "Which 3 methods are best by RMSE on datasets with strong trends?",
        expect: top(
            "rmse",
            3,
            Filter {
                strong: Some("trend"),
                ..filter()
            },
        ),
    },
];

/// The short-term questions' filter: its plan seeks `ix_results_horizon`
/// for `horizon <= 24`.
const SHORT_TERM: Filter = Filter {
    horizon: Some(Horizon::AtMost(24)),
    ..filter()
};

const fn top(metric: &'static str, n: usize, filter: Filter) -> Expect {
    Expect::Top { metric, n, filter }
}
