//! `ask_knowledge`: one `QaSession` asks the E4 question rotation over a
//! seeded knowledge base at a tenth of the paper's scale.

use crate::inputs::{build_kb, kb_rows, Expect, Horizon, Kb, Question, ROTATION};
use crate::oracle::{self, Cell};
use crate::report::{median, repeated_setup, timed, Metrics, Outcome};
use crate::{run_closed, Checked, ClosedWorkload, Ctx};
use easytime_db::QueryResult;
use easytime_qa::nl2sql::{generate_sql, parse_question};
use easytime_qa::QaSession;

struct Ask {
    kb: Kb,
    session: QaSession,
    /// Oracle tables per rotation slot, computed on first use.
    expected: Vec<Option<Vec<Vec<Cell>>>>,
}

struct Out {
    slot: usize,
    table: Option<QueryResult>,
}

impl ClosedWorkload for Ask {
    type Out = Out;

    fn round(&self) -> usize {
        ROTATION.len()
    }

    fn tail_q(&self) -> f64 {
        0.90
    }

    fn op(&mut self, i: usize) -> Out {
        let slot = i % ROTATION.len();
        Out {
            slot,
            table: self.session.ask(ROTATION[slot].text).ok().map(|r| r.table),
        }
    }

    fn check(&mut self, outs: &mut [Out], inject: bool) -> Checked {
        if inject {
            if let Some(t) = outs[0].table.as_mut() {
                let row = t.rows[0].clone();
                t.rows.push(row);
            }
        }
        let mut checked = Checked::default();
        for out in outs.iter() {
            let Some(table) = &out.table else {
                checked.failed += 1;
                continue;
            };
            let kb = &self.kb;
            let expected = self.expected[out.slot]
                .get_or_insert_with(|| oracle::expected_table(kb, &ROTATION[out.slot].expect));
            if !oracle::table_matches(table, expected) {
                checked.failed += 1;
                checked.mismatched += 1;
            }
        }
        checked
    }
}

pub fn run(ctx: &Ctx) -> Outcome {
    let ((kb, session), setup_s) = repeated_setup(ctx.scale.setups[2], || {
        let kb = kb_rows(ctx.seed, ctx.scale.ask_datasets);
        let session = QaSession::new(build_kb(&kb).0).expect("the knowledge base opens");
        (kb, session)
    });
    run_closed(
        ctx,
        Ask {
            kb,
            session,
            expected: vec![None; ROTATION.len()],
        },
        setup_s,
    )
}

/// Rows the driving access of `explain` must produce, counted from the
/// benchmark's rows; `None` for accesses the oracle does not model.
fn driving_matches(kb: &Kb, q: &Question, explain: &str) -> Option<f64> {
    let access = explain
        .lines()
        .find(|l| l.trim_start().starts_with("access "))?;
    let (horizon, methods) = match q.expect {
        Expect::Top { filter, .. } => (filter.horizon, None),
        Expect::Compare { a, b, filter, .. } => (filter.horizon, Some([a, b])),
        _ => return None,
    };
    let n = if access.contains("seq-scan") {
        kb.results.len()
    } else if access.contains("ix_results_horizon") {
        kb.results
            .iter()
            .filter(|r| horizon.map_or(true, |h: Horizon| h.admits(r.horizon)))
            .count()
    } else if access.contains("ix_results_method") {
        kb.results
            .iter()
            .filter(|r| methods.is_some_and(|m| m.contains(&r.method.as_str())))
            .count()
    } else {
        return None;
    };
    Some(n as f64)
}

/// The `rows~` estimate of the driving access.
fn estimated_rows(explain: &str) -> Option<f64> {
    let access = explain
        .lines()
        .find(|l| l.trim_start().starts_with("access "))?;
    access
        .split("rows~")
        .nth(1)?
        .split_whitespace()
        .next()?
        .parse()
        .ok()
}

/// Per-layer metrics: db and qa, timed from outside.
pub fn probe(ctx: &Ctx, m: &mut Metrics) {
    let kb = kb_rows(ctx.seed, ctx.scale.ask_datasets);
    let (db, insert_s) = build_kb(&kb);
    m.set(
        "db.insert_us",
        insert_s * 1e6 / kb.results.len() as f64,
        "us",
    );
    let session_ms: Vec<f64> = (0..3)
        .map(|_| {
            let copy = db.clone();
            timed(|| QaSession::new(copy).expect("the knowledge base opens")).1 * 1e3
        })
        .collect();
    m.set("qa.session_new_ms", median(&session_ms), "ms");

    // One pass over the rotation in a session, so follow-ups resolve as in
    // the workload; each step is timed by its best of a few calls. The
    // answer step (ask − parse − nl2sql − query) is a few microseconds, so
    // it is taken as the median of 200 paired differences, on the questions
    // whose query takes under 1 ms; next to a 50 ms query, timing noise is
    // larger than the step itself.
    let mut session = QaSession::new(db.clone()).expect("the knowledge base opens");
    let (mut parse, mut nl2sql, mut explain, mut query, mut answer) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let (mut est_errors, mut sqls) = (Vec::new(), Vec::new());
    for q in &ROTATION {
        let best = |f: &mut dyn FnMut() -> f64, n: usize| {
            (0..n).map(|_| f()).fold(f64::INFINITY, f64::min)
        };
        let parse_s = best(
            &mut || timed(|| parse_question(q.text, session.lexicon())).1,
            3,
        );
        let (response, first_ask_s) = timed(|| session.ask(q.text));
        let Ok(response) = response else { continue };
        let nl2sql_s = best(&mut || timed(|| generate_sql(&response.intent)).1, 3);
        let explain_s = best(&mut || timed(|| db.explain(&response.sql)).1, 3);
        let reps = if first_ask_s < 2e-3 { 5 } else { 2 };
        let query_s = best(&mut || timed(|| db.query_with_plan(&response.sql)).1, reps);
        parse.push(parse_s * 1e6);
        nl2sql.push(nl2sql_s * 1e6);
        explain.push(explain_s * 1e6);
        query.push(query_s * 1e3);
        if query_s < 1e-3 {
            let diffs: Vec<f64> = (0..200)
                .map(|_| {
                    let ask_s = timed(|| session.ask(q.text)).1;
                    let parts_s = timed(|| parse_question(q.text, session.lexicon())).1
                        + timed(|| generate_sql(&response.intent)).1
                        + timed(|| db.query_with_plan(&response.sql)).1;
                    (ask_s - parts_s) * 1e6
                })
                .collect();
            answer.push(median(&diffs));
        }
        if let Ok(plan) = db.explain(&response.sql) {
            if let (Some(est), Some(truth)) =
                (estimated_rows(&plan), driving_matches(&kb, q, &plan))
            {
                est_errors.push((est / truth.max(1.0)).log10().abs());
            }
        }
        sqls.push(response.sql);
    }
    m.set("qa.parse_us", median(&parse), "us");
    m.set("qa.nl2sql_us", median(&nl2sql), "us");
    m.set("qa.answer_us", median(&answer), "us");
    m.set("db.explain_us", median(&explain), "us");
    m.set("db.query_ms", median(&query), "ms");
    m.set(
        "db.est_rows_log10_error",
        est_errors.iter().sum::<f64>() / est_errors.len().max(1) as f64,
        "log10",
    );

    // The executor's own counters, read under tracing.
    drop(easytime_obs::drain());
    easytime_obs::set_enabled(true);
    for sql in &sqls {
        let _ = db.query_with_plan(sql);
    }
    easytime_obs::set_enabled(false);
    let counters = easytime_obs::drain().counters;
    let count = |k: &str| counters.get(k).copied().unwrap_or(0) as f64;
    m.set(
        "db.rows_scanned_per_returned",
        count("db.rows_scanned") / count("db.rows_returned").max(1.0),
        "ratio",
    );
}
