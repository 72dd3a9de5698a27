//! `scripted_study`: one client runs study scripts against in-memory
//! experiments — mostly `RunSweep` requests from a small fixed set of
//! sources (script-cache hits after each source's first use), plus a
//! seeded share of `RunScript` requests whose source varies, so they
//! compile every time.

use crate::harness::{Work, Workload, SERVICE_WORK};
use crate::synth;
use crate::trace::Tracer;
use crate::util;
use perfdmf::{Repository, Trial};
use perfexplorer::result::TrialResult;
use perfexplorer::scripting::{PerfExplorerScript, Value};
use rand::prelude::*;
use service::{
    AnalysisService, Outcome, Request, ServiceConfig, ServiceMetrics, ShardedRepository,
};
use std::collections::HashMap;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

const APP: &str = "study";
const EXPERIMENTS: usize = 4;
const TRIALS_PER_EXPERIMENT: usize = 8;
const SHARDS: usize = 8;
const SCRIPT_CACHE: usize = 32;
const REQUESTS: usize = 2000;
/// Share of requests that are one-off `RunScript` calls. An assumption,
/// not measured traffic: small enough that sweeps are mostly
/// script-cache hits, large enough (200 a pass) that compiles reach p99.
const ONE_OFF_SHARE: f64 = 0.1;
const WARMUP_SCRIPTS: usize = 8;
const METRIC: &str = "TIME";
/// Passes per second of `--seconds` (see `Workload::passes_per_second`).
const PASSES_PER_SECOND: f64 = 2.25;

/// The fixed study scripts; `{APP}` and `{EXP}` name the experiment.
/// Each uses a user function, a loop, and `par_foreach_trial`.
const SCRIPTS: [&str; 3] = [
    // Scaled elapsed time, summed over the experiment.
    r#"fn scaled(x, k) { return x * k; }
let r = par_foreach_trial t in list_trials("{APP}", "{EXP}") {
    let trial = load_trial("{APP}", "{EXP}", t);
    scaled(elapsed(trial, "TIME"), 2)
};
let total = 0;
for o in r { total = total + o["value"]; }
total"#,
    // Mean exclusive time per event, by a counted loop.
    r#"fn mean_of(trial, evs) {
    let s = 0;
    let i = 0;
    while i < len(evs) { s = s + mean_exclusive(trial, evs[i], "TIME"); i = i + 1; }
    return s / len(evs);
}
let r = par_foreach_trial t in list_trials("{APP}", "{EXP}") {
    let trial = load_trial("{APP}", "{EXP}", t);
    mean_of(trial, trial_events(trial))
};
let total = 0;
for o in r { total = total + o["value"]; }
total"#,
    // Events holding more than 5% of the run.
    r#"fn share(trial, e, total) { return mean_exclusive(trial, e, "TIME") / total; }
let r = par_foreach_trial t in list_trials("{APP}", "{EXP}") {
    let trial = load_trial("{APP}", "{EXP}", t);
    let total = elapsed(trial, "TIME");
    let hot = 0;
    for e in trial_events(trial) { if share(trial, e, total) > 0.05 { hot = hot + 1; } }
    hot
};
let total = 0;
for o in r { total = total + o["value"]; }
total"#,
];

fn mean_exclusive(trial: &Trial, event: &str) -> f64 {
    let values = TrialResult::new(trial)
        .exclusive(event, METRIC)
        .expect("event of the trial");
    values.iter().sum::<f64>() / values.len().max(1) as f64
}

fn elapsed(trial: &Trial) -> f64 {
    TrialResult::new(trial)
        .elapsed(METRIC)
        .expect("trial has main")
}

/// What script `script` computes for one trial, in the script's own
/// order of floating-point operations.
fn body_value(script: usize, trial: &Trial) -> f64 {
    let events = trial.profile.events();
    match script {
        0 => elapsed(trial) * 2.0,
        1 => {
            let mut s = 0.0;
            for e in events {
                s += mean_exclusive(trial, &e.name);
            }
            s / events.len() as f64
        }
        _ => {
            let total = elapsed(trial);
            events
                .iter()
                .filter(|e| mean_exclusive(trial, &e.name) / total > 0.05)
                .count() as f64
        }
    }
}

fn rendered(v: f64) -> String {
    Value::Num(v).to_string()
}

enum Call {
    Sweep {
        script: usize,
        experiment: usize,
    },
    OneOff {
        experiment: usize,
        source: String,
        expected: String,
    },
}

pub struct Study {
    workers: usize,
    repo: Repository,
    /// `sources[script][experiment]`.
    sources: Vec<Vec<String>>,
    /// Expected sweep values, `expected[script][experiment]`.
    expected: Vec<Vec<String>>,
    calls: Vec<Call>,
    warmup: Vec<(usize, String)>,
}

fn experiment_name(e: usize) -> String {
    format!("exp{e}")
}

/// A one-off script looping `n` times; the seed draws its trial and
/// its multiplier, so every source differs.
fn one_off(rng: &mut StdRng, repo: &Repository, experiment: usize, n: usize) -> (String, String) {
    let trial_index = rng.random_range(0..TRIALS_PER_EXPERIMENT);
    let k = rng.random_range(1..=1000usize);
    let exp = experiment_name(experiment);
    let name = format!("t{trial_index}");
    let source = format!(
        "let trial = load_trial(\"{APP}\", \"{exp}\", \"{name}\");\n\
         let s = 0;\nlet i = 0;\n\
         while i < {n} {{ s = s + i * {k}; i = i + 1; }}\n\
         s + elapsed(trial, \"TIME\")"
    );
    let mut s = 0.0;
    for i in 0..n {
        s += (i * k) as f64;
    }
    let trial = repo.trial(APP, &exp, &name).expect("generated trial");
    (source, rendered(s + elapsed(trial)))
}

impl Study {
    pub fn new(seed: u64, workers: usize) -> Study {
        let mut shapes = util::rng(seed, 21);
        let mut repo = Repository::new();
        for e in 0..EXPERIMENTS {
            for t in 0..TRIALS_PER_EXPERIMENT {
                let events = 12 + (t * 37) % 37;
                let trial =
                    synth::trial(&mut shapes, &format!("t{t}"), events, synth::imbalanced(t));
                repo.upsert_trial(APP, &experiment_name(e), trial);
            }
        }
        let sources: Vec<Vec<String>> = SCRIPTS
            .iter()
            .map(|s| {
                (0..EXPERIMENTS)
                    .map(|e| {
                        s.replace("{APP}", APP)
                            .replace("{EXP}", &experiment_name(e))
                    })
                    .collect()
            })
            .collect();
        assert!(
            SCRIPTS.len() * EXPERIMENTS <= SCRIPT_CACHE,
            "fixed sources never evict"
        );
        let expected = (0..SCRIPTS.len())
            .map(|script| {
                (0..EXPERIMENTS)
                    .map(|e| {
                        let exp = repo
                            .experiment(APP, &experiment_name(e))
                            .expect("generated");
                        let mut total = 0.0;
                        for trial in exp.trials() {
                            total += body_value(script, trial);
                        }
                        rendered(total)
                    })
                    .collect()
            })
            .collect();

        // The mix is fixed: exactly ONE_OFF_SHARE one-offs with loop
        // counts evenly spread over 200..2000, and the sweeps cycling
        // through every script and experiment. The seed shuffles the
        // order and draws each one-off's trial and multiplier.
        let mut rng = util::rng(seed, 22);
        let one_offs = (REQUESTS as f64 * ONE_OFF_SHARE) as usize;
        let mut slots: Vec<Option<usize>> =
            (0..REQUESTS).map(|i| (i < one_offs).then_some(i)).collect();
        util::shuffle(&mut rng, &mut slots);
        let mut sweeps = 0;
        let calls = slots
            .into_iter()
            .map(|slot| match slot {
                Some(i) => {
                    let experiment = i % EXPERIMENTS;
                    let n = 200 + i * 1800 / one_offs;
                    let (source, expected) = one_off(&mut rng, &repo, experiment, n);
                    Call::OneOff {
                        experiment,
                        source,
                        expected,
                    }
                }
                None => {
                    sweeps += 1;
                    Call::Sweep {
                        script: sweeps % SCRIPTS.len(),
                        experiment: (sweeps / SCRIPTS.len()) % EXPERIMENTS,
                    }
                }
            })
            .collect();
        let mut warm_rng = util::rng(seed, 23);
        let warmup = (0..WARMUP_SCRIPTS)
            .map(|i| {
                let experiment = i % EXPERIMENTS;
                (experiment, one_off(&mut warm_rng, &repo, experiment, 500).0)
            })
            .collect();
        Study {
            workers,
            repo,
            sources,
            expected,
            calls,
            warmup,
        }
    }

    fn request(&self, call: &Call) -> Request {
        match call {
            Call::Sweep { script, experiment } => Request::RunSweep {
                app: APP.into(),
                experiment: experiment_name(*experiment),
                source: self.sources[*script][*experiment].clone(),
            },
            Call::OneOff {
                experiment, source, ..
            } => script_request(*experiment, source),
        }
    }
}

fn script_request(experiment: usize, source: &str) -> Request {
    Request::RunScript {
        app: APP.into(),
        experiment: experiment_name(experiment),
        source: source.to_string(),
    }
}

impl Workload for Study {
    fn clients(&self) -> usize {
        1
    }

    fn passes_per_second(&self) -> f64 {
        PASSES_PER_SECOND
    }

    fn start(&self, _dir: &Path) -> AnalysisService {
        let svc = AnalysisService::start_with_repository(
            ServiceConfig {
                shards: SHARDS,
                workers: self.workers,
                script_cache_capacity: SCRIPT_CACHE,
                ..ServiceConfig::default()
            },
            self.repo.clone(),
        );
        // Warm-up with one-off scripts only, so the compiled-script
        // cache starts the timed phase empty.
        let client = svc.client();
        for (experiment, source) in &self.warmup {
            let reply = client
                .call(script_request(*experiment, source))
                .expect("service alive");
            assert!(
                reply.is_clean(),
                "warm-up request failed: {:?}",
                reply.outcome
            );
        }
        svc
    }

    fn requests(&self) -> Vec<Vec<Request>> {
        vec![self.calls.iter().map(|c| self.request(c)).collect()]
    }

    fn check(&self, _client: usize, index: usize, outcome: &Outcome) -> bool {
        match (&self.calls[index], outcome) {
            (
                Call::Sweep { script, experiment },
                Outcome::SweepDone {
                    value: Some(value),
                    failed_bodies: 0,
                    ..
                },
            ) => *value == self.expected[*script][*experiment],
            (
                Call::OneOff { expected, .. },
                Outcome::ScriptDone {
                    value: Some(value), ..
                },
            ) => value == expected,
            _ => false,
        }
    }

    fn replay(&self, _dir: &Path, tracer: &mut Tracer) -> (Work, Duration) {
        let store = ShardedRepository::from_repository(
            self.repo.clone(),
            SHARDS,
            ServiceConfig::default().cache_capacity,
            Arc::new(ServiceMetrics::default()),
        );
        let snapshot = |t: &mut Tracer, experiment: usize| {
            let snap = t.span("service.snapshot_experiment", |_| {
                store.snapshot_experiment(APP, &experiment_name(experiment))
            });
            let snap = snap.expect("snapshot of a generated experiment");
            t.span("script.session", |_| PerfExplorerScript::new(snap))
        };
        let one_off = |t: &mut Tracer, experiment: usize, source: &str| -> String {
            let mut session = snapshot(t, experiment);
            let program = t
                .span("script.compile", |_| session.compile(source))
                .expect("compile a generated script");
            let value = t
                .span("script.run", |_| session.run_compiled(&program))
                .expect("run a generated script");
            value.to_string()
        };
        let mut quiet = Tracer::new(false);
        for (experiment, source) in &self.warmup {
            one_off(&mut quiet, *experiment, source);
        }

        let mut compiled = HashMap::new();
        let mut work: Work = SERVICE_WORK.iter().map(|&k| (k, 0)).collect();
        let start = Instant::now();
        for (index, call) in self.calls.iter().enumerate() {
            let value = tracer.request(|t| match call {
                Call::Sweep { script, experiment } => {
                    let source = &self.sources[*script][*experiment];
                    let mut session = snapshot(t, *experiment);
                    let bodies = Arc::new(AtomicU64::new(0));
                    let counter = Arc::clone(&bodies);
                    session.set_sweep_observer(Arc::new(move |n, _| {
                        counter.fetch_add(n as u64, Ordering::Relaxed);
                    }));
                    let program = match compiled.get(source) {
                        Some(program) => {
                            *work.get_mut("script_cache_hits").expect("key") += 1;
                            Arc::clone(program)
                        }
                        None => {
                            *work.get_mut("script_cache_misses").expect("key") += 1;
                            let program = t
                                .span("script.compile", |_| session.compile_portable(source))
                                .expect("compile a study script");
                            let program = Arc::new(program);
                            compiled.insert(source.clone(), Arc::clone(&program));
                            program
                        }
                    };
                    let run = t.span("script.run", |_| session.run_portable_supervised(&program));
                    let n = bodies.load(Ordering::Relaxed);
                    *work.get_mut("sweep_bodies").expect("key") += n;
                    run.value.map(|v| v.to_string())
                }
                Call::OneOff {
                    experiment, source, ..
                } => Some(one_off(t, *experiment, source)),
            });
            let ok = match (call, value) {
                (Call::Sweep { script, experiment }, Some(v)) => {
                    v == self.expected[*script][*experiment]
                }
                (Call::OneOff { expected, .. }, Some(v)) => v == *expected,
                _ => false,
            };
            assert!(ok, "replayed request {index} computed a different value");
        }
        let wall = start.elapsed();
        work.insert("requests", self.calls.len() as u64);
        (work, wall)
    }
}
