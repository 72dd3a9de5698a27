//! Rule-engine micro-benchmarks. Every case but the parse runs the
//! production engine (alpha indexes and a persistent agenda) and
//! `rules::reference::ReferenceEngine` (a full conflict-set rebuild
//! before every firing) on the same rules and facts, interleaved:
//!
//! * `match_fire_64`, `two_pattern_join_32` — one rule over 64 facts,
//!   and a two-pattern join over 32 parent/child pairs;
//! * `incremental_1000` — twenty banded rules over 1 000 facts, what the
//!   indexed agenda buys over rematching;
//! * `load_balance_request` — the rule half of one `cold_diagnose`
//!   request on a fixed imbalanced trial of 100 events × 16 threads:
//!   the analysis's facts, an engine over the shared load-balance
//!   rulebase (the reference parses its own copy once), assertion, the
//!   run, compiler feedback and the rendered report. The analysis
//!   itself is computed once, outside the timing;
//! * `parse_locality_rulebase` — the rule-language parser alone.
//!
//! Before any case runs, each pair's firings must equal the
//! reference's, and the request's rendered reports must be identical.
//! The harness and its modes are in `bench::measure`; this bench writes
//! `BENCH_rules.json`.

use bench::measure::{Bench, CountingAlloc};
use perfdmf::{Measurement, Trial, TrialBuilder};
use perfexplorer::loadbalance::{self, LoadBalanceAnalysis};
use perfexplorer::recommend::{compiler_feedback, render_report_degraded};
use perfexplorer::rulebase::{engine_with, LOAD_BALANCE_RULES};
use rules::reference::{ReferenceEngine, StringFact};
use rules::{drl, Comparator, Engine, Fact, Pattern, Rule, RunReport};
use serde_json::Value;
use std::hint::black_box;

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

const THREADS: usize = 16;
/// Outer loops of the request trial; all but the last have an inner
/// loop, so the trial has `1 + LOOPS + (LOOPS - 1)` = 100 events.
const LOOPS: usize = 50;

fn threshold_rule() -> Rule {
    Rule::builder("threshold")
        .when(
            Pattern::new("MeanEventFact")
                .constrain("severity", Comparator::Gt, 0.5)
                .bind("e", "eventName"),
        )
        .then(|_| {})
}

fn threshold_facts(n: usize) -> Vec<Fact> {
    (0..n)
        .map(|i| {
            Fact::new("MeanEventFact")
                .with("severity", (i % 100) as f64 / 100.0)
                .with("eventName", format!("e{i}"))
        })
        .collect()
}

fn join_rule() -> Rule {
    Rule::builder("join")
        .when(Pattern::new("Parent").bind("name", "name"))
        .when(Pattern::new("Child").constrain_var("parent", Comparator::Eq, "name"))
        .then(|_| {})
}

fn join_facts(n: usize) -> Vec<Fact> {
    (0..n)
        .flat_map(|i| {
            [
                Fact::new("Parent").with("name", format!("p{i}")),
                Fact::new("Child")
                    .with("parent", format!("p{}", i % 4))
                    .with("i", i),
            ]
        })
        .collect()
}

/// Twenty single-pattern rules with distinct severity bands and
/// distinct saliences — every band fires on its slice of the facts, and
/// the distinct priorities defeat the reference engine's equal-salience
/// rule pruning so it pays the full rebuild cost it would in general.
fn banded_rules() -> Vec<Rule> {
    (0..20)
        .map(|j| {
            let lo = j as f64 * 0.05;
            Rule::builder(format!("band{j}"))
                .salience(j)
                .when(
                    Pattern::new("MeanEventFact")
                        .constrain("severity", Comparator::Gt, lo)
                        .constrain("severity", Comparator::Le, lo + 0.011)
                        .bind("e", "eventName"),
                )
                .then(|_| {})
        })
        .collect()
}

/// Runs `rules` over `facts` on a fresh production engine.
fn run_engine(rules: Vec<Rule>, facts: Vec<Fact>) -> RunReport {
    let mut engine = Engine::new();
    engine.add_rules(rules).unwrap();
    for f in facts {
        engine.assert_fact(f);
    }
    engine.run().unwrap()
}

/// Runs `rules` over `facts` on a fresh reference engine.
fn run_reference(rules: Vec<Rule>, facts: &[Fact]) -> RunReport {
    let mut engine = ReferenceEngine::new();
    engine.add_rules(rules).unwrap();
    for f in facts {
        engine.assert_fact(StringFact::from(f));
    }
    engine.run().unwrap()
}

/// The request trial: `main`, then `LOOPS` outer loops each holding an
/// inner loop (the last holds none). Loops 0 and 1 carry most of the
/// runtime, and their inner loop's per-thread time is the mirror image
/// of the outer loop's barrier wait — the paper's nested imbalance.
/// The other loops are small and near-balanced.
fn request_trial() -> Trial {
    let mut b = TrialBuilder::with_flat_threads("request", THREADS);
    let time = b.metric("TIME");
    let main = b.event("main");
    let mut loops = Vec::new();
    for i in 0..LOOPS {
        let outer = b.event(&format!("main => loop{i:02}"));
        let inner = (i + 1 < LOOPS).then(|| b.event(&format!("main => loop{i:02} => body")));
        loops.push((i, outer, inner));
    }
    for t in 0..THREADS {
        let mut main_total = 2.0;
        for &(i, outer, inner) in &loops {
            let (span, busy) = if i < 2 {
                (120.0, 20.0 + 6.0 * t as f64)
            } else {
                let jitter = |k: usize| 0.01 * ((t * k + i) % 5) as f64;
                (3.0 + jitter(7), 2.0 + jitter(3))
            };
            let busy = if inner.is_some() { busy } else { 0.0 };
            b.set(
                outer,
                time,
                t,
                Measurement {
                    inclusive: span,
                    exclusive: span - busy,
                    calls: 1.0,
                    subcalls: inner.is_some() as u8 as f64,
                },
            );
            if let Some(inner) = inner {
                b.set(inner, time, t, Measurement::leaf(busy));
            }
            main_total += span;
        }
        b.set(
            main,
            time,
            t,
            Measurement {
                inclusive: main_total,
                exclusive: 2.0,
                calls: 1.0,
                subcalls: LOOPS as f64,
            },
        );
    }
    b.build()
}

fn request_analysis() -> LoadBalanceAnalysis {
    loadbalance::analyze(&request_trial(), "TIME").expect("request trial analyzes")
}

/// The production engine's run of one load-balance request.
fn request_report(analysis: &LoadBalanceAnalysis) -> RunReport {
    let mut engine = engine_with(LOAD_BALANCE_RULES).expect("shipped rulebase");
    for fact in analysis.facts() {
        engine.assert_fact(fact);
    }
    engine.run().expect("the rulebase settles")
}

/// The rest of a request after the run: compiler feedback and the
/// rendered report.
fn finish_request(report: &RunReport) -> String {
    let mut cost_model = openuh::cost::CostModel::default();
    black_box(compiler_feedback(report, &mut cost_model));
    render_report_degraded(report, &[])
}

fn check_firings(case: &str, engine: &RunReport, reference: &RunReport) {
    assert!(!engine.firings.is_empty(), "{case}: nothing fired");
    assert_eq!(
        engine.firings, reference.firings,
        "{case}: firings differ from the reference"
    );
    println!("engine/{case}: {} firings agree", engine.firings.len());
}

fn main() {
    let mut b = Bench::from_env("engine", "BENCH_rules.json");
    let threshold = threshold_facts(64);
    let joined = join_facts(32);
    let banded = threshold_facts(1000);
    let analysis = request_analysis();
    let lb_rules = drl::parse(LOAD_BALANCE_RULES).unwrap();
    let reference_request = || finish_request(&run_reference(lb_rules.clone(), &analysis.facts()));

    let report = request_report(&analysis);
    let reference = run_reference(lb_rules.clone(), &analysis.facts());
    assert!(report.fired("Load imbalance in nested loops"));
    assert_eq!(report, reference, "load_balance_request: reports differ");
    assert_eq!(
        finish_request(&report),
        reference_request(),
        "load_balance_request: renders differ"
    );
    check_firings("load_balance_request", &report, &reference);
    check_firings(
        "match_fire_64",
        &run_engine(vec![threshold_rule()], threshold.clone()),
        &run_reference(vec![threshold_rule()], &threshold),
    );
    check_firings(
        "two_pattern_join_32",
        &run_engine(vec![join_rule()], joined.clone()),
        &run_reference(vec![join_rule()], &joined),
    );
    check_firings(
        "incremental_1000",
        &run_engine(banded_rules(), banded.clone()),
        &run_reference(banded_rules(), &banded),
    );
    let locality = perfexplorer::rulebase::LOCALITY_RULES;
    assert_eq!(
        drl::parse(locality).unwrap().len(),
        4,
        "parse_locality_rulebase"
    );

    b.note(
        "request_shape",
        Value::Str(format!(
            "{} events x {THREADS} threads: {} facts, {} firings",
            1 + LOOPS + (LOOPS - 1),
            analysis.facts().len(),
            report.firings.len()
        )),
    );
    b.pair(
        "load_balance_request",
        ("engine", || finish_request(&request_report(&analysis))),
        ("reference", reference_request),
    );
    b.pair(
        "match_fire_64",
        ("engine", || {
            run_engine(vec![threshold_rule()], threshold.clone())
        }),
        ("reference", || {
            run_reference(vec![threshold_rule()], &threshold)
        }),
    );
    b.pair(
        "two_pattern_join_32",
        ("engine", || run_engine(vec![join_rule()], joined.clone())),
        ("reference", || run_reference(vec![join_rule()], &joined)),
    );
    b.pair(
        "incremental_1000",
        ("engine", || run_engine(banded_rules(), banded.clone())),
        ("reference", || run_reference(banded_rules(), &banded)),
    );
    b.case("parse_locality_rulebase", || drl::parse(locality).unwrap());
    b.finish();
}
