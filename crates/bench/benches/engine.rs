//! Benchmarks for the inference engine: matching throughput vs
//! working-memory size, join cost, rule-language parsing, the
//! incremental-vs-rematch ablation, and one whole load-balance request.
//!
//! * `engine/incremental_vs_rematch` drives the production engine (alpha
//!   indexes + persistent agenda) and `rules::reference::ReferenceEngine`
//!   (full conflict-set rebuild before every firing) through the same
//!   rulebase and fact load, quantifying what the indexed agenda buys.
//! * `engine/load_balance_request` is the rule half of one
//!   `cold_diagnose` request on a fixed imbalanced trial of 100 events ×
//!   16 threads: the analysis's facts, an engine over the shared
//!   load-balance rulebase, assertion, the run, compiler feedback and
//!   the rendered report. The analysis itself is computed once, outside
//!   the timing.
//!
//! Besides the normal Criterion harness, `-- --test` runs every case
//! once, unmeasured, asserting that its firings equal the reference
//! engine's on the same facts (the CI smoke). `BENCH_JSON=<path>`
//! switches the binary to a self-timed mode: it writes this build's
//! medians into the `BENCH_rules.json` summary at `<path>` under the
//! section `BENCH_LABEL` names (`change` by default), keeping the other
//! section already in the file. The `parent` section comes from running
//! this file against the parent commit with `BENCH_LABEL=parent`, where
//! facts reach the reference engine unconverted (`to_reference` is the
//! identity there).

use criterion::{criterion_group, BenchmarkId, Criterion};
use perfdmf::{Measurement, Trial, TrialBuilder};
use perfexplorer::loadbalance::{self, LoadBalanceAnalysis};
use perfexplorer::recommend::{compiler_feedback, render_report_degraded};
use perfexplorer::rulebase::{engine_with, LOAD_BALANCE_RULES};
use rules::reference::{ReferenceEngine, StringFact};
use rules::{drl, Comparator, Engine, Fact, FiringRecord, Pattern, Rule};
use serde_json::Value;
use std::hint::black_box;
use std::time::Instant;

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
fn run_engine(rules: Vec<Rule>, facts: Vec<Fact>) -> rules::RunReport {
    let mut engine = Engine::new();
    engine.add_rules(rules).unwrap();
    for f in facts {
        engine.assert_fact(f);
    }
    engine.run().unwrap()
}

/// The reference engine's form of a fact.
fn to_reference(fact: &Fact) -> StringFact {
    StringFact::from(fact)
}

/// Runs `rules` over `facts` on a fresh reference engine.
fn run_reference(rules: Vec<Rule>, facts: &[Fact]) -> rules::RunReport {
    let mut engine = ReferenceEngine::new();
    engine.add_rules(rules).unwrap();
    for f in facts {
        engine.assert_fact(to_reference(f));
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

/// The rule half of one load-balance request; returns the rendered
/// report.
fn load_balance_request(analysis: &LoadBalanceAnalysis) -> String {
    let facts = analysis.facts();
    let mut engine = engine_with(LOAD_BALANCE_RULES).expect("shipped rulebase");
    for fact in facts {
        engine.assert_fact(fact);
    }
    let report = engine.run().expect("the rulebase settles");
    let mut cost_model = openuh::cost::CostModel::default();
    black_box(compiler_feedback(&report, &mut cost_model));
    render_report_degraded(&report, &[])
}

fn bench_match_fire(c: &mut Criterion) {
    let mut group = c.benchmark_group("engine/match_fire");
    for &n in &[16usize, 64, 256] {
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |bench, &n| {
            bench.iter(|| black_box(run_engine(vec![threshold_rule()], threshold_facts(n))))
        });
    }
    group.finish();
}

fn bench_join(c: &mut Criterion) {
    let mut group = c.benchmark_group("engine/two_pattern_join");
    for &n in &[8usize, 32] {
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |bench, &n| {
            bench.iter(|| black_box(run_engine(vec![join_rule()], join_facts(n))))
        });
    }
    group.finish();
}

fn bench_incremental_vs_rematch(c: &mut Criterion) {
    let mut group = c.benchmark_group("engine/incremental_vs_rematch");
    for &n in &[100usize, 1000] {
        let facts = threshold_facts(n);
        group.bench_with_input(BenchmarkId::new("incremental", n), &n, |bench, _| {
            bench.iter(|| black_box(run_engine(banded_rules(), facts.clone())))
        });
        group.bench_with_input(BenchmarkId::new("rematch", n), &n, |bench, _| {
            bench.iter(|| black_box(run_reference(banded_rules(), &facts)))
        });
    }
    group.finish();
}

fn bench_parse(c: &mut Criterion) {
    let source = perfexplorer::rulebase::LOCALITY_RULES;
    c.bench_function("engine/parse_locality_rulebase", |bench| {
        bench.iter(|| drl::parse(black_box(source)).unwrap())
    });
}

fn bench_load_balance_request(c: &mut Criterion) {
    let analysis = request_analysis();
    c.bench_function("engine/load_balance_request", |bench| {
        bench.iter(|| load_balance_request(black_box(&analysis)))
    });
}

criterion_group!(
    benches,
    bench_match_fire,
    bench_join,
    bench_incremental_vs_rematch,
    bench_parse,
    bench_load_balance_request
);

// ---------------------------------------------------------------------
// Smoke and BENCH_JSON self-timed modes
// ---------------------------------------------------------------------

fn check_firings(case: &str, engine: &[FiringRecord], reference: &[FiringRecord]) {
    assert!(!engine.is_empty(), "{case}: nothing fired");
    assert_eq!(
        engine, reference,
        "{case}: firings differ from the reference"
    );
    println!("engine/smoke/{case}: ok ({} firings)", engine.len());
}

/// Every case once, unmeasured: its firings must equal the reference
/// engine's on the same facts (the CI smoke, `-- --test`).
fn smoke() {
    let facts = threshold_facts(64);
    check_firings(
        "match_fire",
        &run_engine(vec![threshold_rule()], facts.clone()).firings,
        &run_reference(vec![threshold_rule()], &facts).firings,
    );
    let facts = join_facts(32);
    check_firings(
        "two_pattern_join",
        &run_engine(vec![join_rule()], facts.clone()).firings,
        &run_reference(vec![join_rule()], &facts).firings,
    );
    let facts = threshold_facts(100);
    check_firings(
        "incremental_vs_rematch",
        &run_engine(banded_rules(), facts.clone()).firings,
        &run_reference(banded_rules(), &facts).firings,
    );

    let parsed = drl::parse(perfexplorer::rulebase::LOCALITY_RULES).unwrap();
    assert_eq!(parsed.len(), 4, "parse_locality_rulebase");
    println!("engine/smoke/parse_locality_rulebase: ok");

    let analysis = request_analysis();
    let mut engine = engine_with(LOAD_BALANCE_RULES).unwrap();
    for fact in analysis.facts() {
        engine.assert_fact(fact);
    }
    let report = engine.run().unwrap();
    let reference = run_reference(drl::parse(LOAD_BALANCE_RULES).unwrap(), &analysis.facts());
    assert!(report.fired("Load imbalance in nested loops"));
    assert_eq!(report, reference, "load_balance_request: reports differ");
    assert_eq!(
        load_balance_request(&analysis),
        render_report_degraded(&reference, &[]),
        "load_balance_request: renders differ"
    );
    check_firings("load_balance_request", &report.firings, &reference.firings);
}

/// Median microseconds per call of `f` over `rounds` rounds of `batch`
/// calls, after one warm-up round.
fn median_us(rounds: usize, batch: usize, f: &dyn Fn()) -> f64 {
    let time = || {
        let t = Instant::now();
        for _ in 0..batch {
            f();
        }
        t.elapsed().as_nanos() as f64 / batch as f64 / 1e3
    };
    time();
    let mut samples: Vec<f64> = (0..rounds).map(|_| time()).collect();
    samples.sort_by(f64::total_cmp);
    samples[samples.len() / 2]
}

fn round2(x: f64) -> Value {
    Value::Float((x * 100.0).round() / 100.0)
}

fn obj(pairs: Vec<(&str, Value)>) -> Value {
    Value::Object(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
}

/// Case names and medians of this build.
fn measure() -> Vec<(&'static str, f64)> {
    let analysis = request_analysis();
    let threshold = threshold_facts(64);
    let joined = join_facts(32);
    let banded = threshold_facts(1000);
    vec![
        (
            "load_balance_request_us",
            median_us(21, 200, &|| {
                black_box(load_balance_request(&analysis));
            }),
        ),
        (
            "match_fire_64_us",
            median_us(21, 200, &|| {
                black_box(run_engine(vec![threshold_rule()], threshold.clone()));
            }),
        ),
        (
            "two_pattern_join_32_us",
            median_us(21, 100, &|| {
                black_box(run_engine(vec![join_rule()], joined.clone()));
            }),
        ),
        (
            "incremental_1000_us",
            median_us(11, 5, &|| {
                black_box(run_engine(banded_rules(), banded.clone()));
            }),
        ),
    ]
}

fn emit_json(out: &str) {
    let label = std::env::var("BENCH_LABEL").unwrap_or_else(|_| "change".into());
    assert!(
        label == "parent" || label == "change",
        "BENCH_LABEL must be parent or change, not {label:?}"
    );
    let ours = measure();
    for (case, us) in &ours {
        eprintln!("engine: {label:<7} {case:<26} {us:>10.2}");
    }
    // Keep the other build's section from an earlier run.
    let previous: Option<Value> = std::fs::read_to_string(out)
        .ok()
        .and_then(|text| serde_json::from_str_value(&text).ok());
    let section = |name: &str| -> Option<Vec<(String, f64)>> {
        if name == label {
            return Some(ours.iter().map(|(k, v)| (k.to_string(), *v)).collect());
        }
        let pairs = previous.as_ref()?.get(name)?.as_object()?;
        pairs
            .iter()
            .map(|(k, v)| match v {
                Value::Float(f) => Some((k.clone(), *f)),
                Value::Int(i) => Some((k.clone(), *i as f64)),
                _ => None,
            })
            .collect()
    };
    let (parent, change) = (section("parent"), section("change"));
    let as_obj = |s: &[(String, f64)]| {
        Value::Object(s.iter().map(|(k, v)| (k.clone(), round2(*v))).collect())
    };

    let analysis = request_analysis();
    let firings = {
        let mut engine = engine_with(LOAD_BALANCE_RULES).unwrap();
        for fact in analysis.facts() {
            engine.assert_fact(fact);
        }
        engine.run().unwrap().firings.len()
    };
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut doc = vec![
        (
            "_generated_by",
            Value::Str(
                "BENCH_JSON=<path> [BENCH_LABEL=parent|change] cargo bench -p bench --bench engine"
                    .into(),
            ),
        ),
        (
            "_note",
            Value::Str(
                "Medians of 21 rounds (11 for incremental_1000) of repeated calls, in \
                 microseconds per call; parent and change are separate runs of the same \
                 bench file, one build each."
                    .into(),
            ),
        ),
        ("cores", Value::Int(cores as i64)),
        (
            "request_shape",
            Value::Str(format!(
                "{} events x {THREADS} threads: {} facts, {firings} firings",
                1 + LOOPS + (LOOPS - 1),
                analysis.facts().len()
            )),
        ),
    ];
    if let Some(p) = &parent {
        doc.push(("parent", as_obj(p)));
    }
    if let Some(c) = &change {
        doc.push(("change", as_obj(c)));
    }
    if let (Some(p), Some(c)) = (&parent, &change) {
        let speedup = p
            .iter()
            .filter_map(|(k, pv)| {
                let cv = c.iter().find(|(ck, _)| ck == k)?.1;
                Some((k.trim_end_matches("_us").to_string(), round2(pv / cv)))
            })
            .collect();
        doc.push(("speedup", Value::Object(speedup)));
    }
    std::fs::write(
        out,
        serde_json::to_string_pretty(&obj(doc)).expect("render") + "\n",
    )
    .expect("write BENCH_JSON");
    eprintln!("engine: wrote {out}");
}

fn main() {
    if let Ok(path) = std::env::var("BENCH_JSON") {
        emit_json(&path);
        return;
    }
    if std::env::args().any(|a| a == "--test") {
        smoke();
        return;
    }
    benches();
}
