//! Script-VM microbenchmarks: tree-walking reference vs the register
//! VM, plus `par_foreach_trial` sweep scaling.
//!
//! Program shapes:
//!
//! * `fib_15` — recursion-heavy; exercises call frames.
//! * `loop_sum_10k` — arithmetic-heavy loop; exercises the counted-loop
//!   superinstruction and in-place numeric stores.
//! * `call_heavy` — a tight loop through a three-argument user
//!   function; exercises argument passing and register windows.
//! * `sweep_64` — one `par_foreach_trial` over 64 items, each body a
//!   compute loop, run inline (no executor installed — the sequential
//!   path) and on the rayon pool (the executor the analysis layer and
//!   service install). The same script runs in both modes, so the pair
//!   isolates sweep scheduling; with N workers, near-linear speedup
//!   over ≥64 trials is the expected outcome.
//! * `repo_sweep_64` — end to end: the same sweep shape through
//!   [`PerfExplorerScript`] over a real 64-trial repository
//!   (`list_trials` + `load_trial` + `elapsed` per body).
//! * `study_events` — one body of the service benchmark's second study
//!   script: a host-built list of 12 event names, passed to `len()` and
//!   indexed in a counted loop, each name handed with a string constant
//!   and a trial handle to a host function. It measures what passing
//!   script values around costs, in time and in allocations.
//!
//! The differential proptests in `crates/script/tests/differential.rs`
//! pin the VM to the reference's values/output/steps, so these pairs
//! measure dispatch cost only. Before any case runs, each program's
//! register-VM value must equal the reference's (on the interpreter the
//! case then reuses), both sweep modes must agree, and the repository
//! sweep must visit all 64 trials. The register side runs a precompiled
//! program; the reference side parses and runs the source. The harness
//! and its modes are in `bench::measure`; this bench writes
//! `BENCH_script.json`.

use bench::measure::{Bench, CountingAlloc};
use perfdmf::{Measurement, Repository, TrialBuilder};
use perfexplorer::scripting::PerfExplorerScript;
use rayon::prelude::*;
use script::{Interpreter, Value};
use serde_json::Value as Json;
use std::sync::Arc;

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

const FIB: &str = "fn fib(n) { if n < 2 { return n; } return fib(n-1) + fib(n-2); } fib(15)";
const LOOP: &str = "let t = 0; let i = 0; while i < 10000 { t = t + i; i = i + 1; } t";
const CALLS: &str = "fn acc(t, i, step) { return t + i * step; } \
                     let t = 0; let i = 0; \
                     while i < 3000 { t = acc(t, i, 2); i = i + 1; } t";
/// 64 bodies, each a compute loop — heavy enough that scheduling
/// overhead is a small fraction of a body.
const SWEEP: &str = "let r = par_foreach_trial t in range(64) { \
                       let s = 0; let j = 0; \
                       while j < 4000 { s = s + j * (t + 1); j = j + 1; } s \
                     }; len(r)";
/// The end-to-end shape: every body opens its trial and reads it.
const REPO_SWEEP: &str = r#"
    let r = par_foreach_trial t in list_trials("bench", "sweep") {
        let trial = load_trial("bench", "sweep", t);
        elapsed(trial, "TIME")
    };
    len(r)
"#;

/// The body of the service benchmark's second study script: the host
/// builds the event list, the script passes it to `len()` and indexes
/// it on every iteration.
const STUDY: &str = r#"
fn mean_of(trial, evs) {
    let s = 0;
    let i = 0;
    while i < len(evs) { s = s + mean_exclusive(trial, evs[i], "TIME"); i = i + 1; }
    return s / len(evs);
}
let trial = load_trial(3);
mean_of(trial, trial_events(trial))
"#;

/// The event names `trial_events` returns (12, as in the service
/// benchmark's study trials).
const EVENTS: [&str; 12] = [
    "main",
    "main => solve",
    "main => solve => sweep",
    "main => phase0",
    "main => phase0 => kernel1",
    "main => phase0 => kernel2",
    "main => phase0 => kernel3",
    "main => phase0 => kernel4",
    "main => phase0 => kernel5",
    "main => phase0 => kernel6",
    "main => phase0 => kernel7",
    "main => phase0 => kernel8",
];

type Host = fn(&mut Vec<Value>) -> Result<Value, String>;

/// The host functions [`STUDY`] calls, for either engine.
fn study_hosts() -> [(&'static str, Host); 3] {
    [
        ("load_trial", |args| {
            let id = args.first().and_then(Value::as_num).ok_or("trial id")?;
            Ok(Value::Handle {
                tag: "trial",
                id: id as u64,
            })
        }),
        ("trial_events", |_| {
            Ok(EVENTS
                .iter()
                .map(|&e| Value::from(e))
                .collect::<Vec<Value>>()
                .into())
        }),
        ("mean_exclusive", |args| {
            match (args[0].as_handle(), args[1].as_str(), args[2].as_str()) {
                (Some(("trial", id)), Some(event), Some("TIME")) => {
                    Ok(Value::Num((event.len() as u64 * id) as f64))
                }
                _ => Err("mean_exclusive(trial, event, \"TIME\")".into()),
            }
        }),
    ]
}

fn study_vm() -> Interpreter {
    let mut interp = vm(false);
    for (name, f) in study_hosts() {
        interp.register(name, f);
    }
    interp
}

const PROGRAMS: [(&str, &str); 3] = [
    ("fib_15", FIB),
    ("loop_sum_10k", LOOP),
    ("call_heavy", CALLS),
];

/// A fresh VM interpreter; `parallel` installs the rayon executor the
/// analysis layer uses, absent means sweeps run inline on one thread.
fn vm(parallel: bool) -> Interpreter {
    let mut interp = Interpreter::new();
    if parallel {
        interp.set_parallel_executor(Arc::new(|runner: &script::ParRunner, items: Vec<Value>| {
            items
                .into_par_iter()
                .map(|item| {
                    let mut host =
                        |name: &str, _: &mut Vec<Value>| Err(format!("unknown function {name:?}"));
                    runner.run_one(item, &mut host)
                })
                .collect()
        }));
    }
    interp
}

/// A repository with 64 four-thread trials under `bench/sweep`.
fn sweep_repo() -> Repository {
    let mut repo = Repository::new();
    for i in 0..64 {
        let mut b = TrialBuilder::with_flat_threads(format!("trial-{i:02}"), 4);
        let m = b.metric("TIME");
        let e = b.event("main");
        for th in 0..4 {
            b.set(
                e,
                m,
                th,
                Measurement::leaf(1.0 + (i * 4 + th) as f64 * 0.25),
            );
        }
        repo.add_trial("bench", "sweep", b.build()).unwrap();
    }
    repo
}

/// `interp` with `src` compiled, after one run whose value must equal
/// the reference engine's `expected`.
fn warmed(mut interp: Interpreter, src: &str, expected: &Value) -> (Interpreter, script::Compiled) {
    let program = interp.compile(src).unwrap();
    assert_eq!(&interp.run_compiled(&program).unwrap(), expected, "{src}");
    (interp, program)
}

fn main() {
    let mut b =
        Bench::from_env("script_vm", "BENCH_script.json").ungated(&["sweep_64", "repo_sweep_64"]);
    b.note("workers", Json::Int(rayon::concurrency_budget() as i64));
    b.note("study_events", Json::Int(EVENTS.len() as i64));
    for (name, src) in PROGRAMS {
        let expected = script::reference::Interpreter::new().run(src).unwrap();
        let (mut interp, program) = warmed(vm(false), src, &expected);
        b.pair(
            name,
            ("register", || interp.run_compiled(&program).unwrap()),
            ("reference", || {
                script::reference::Interpreter::new().run(src).unwrap()
            }),
        );
    }

    let mut reference = script::reference::Interpreter::new();
    for (name, f) in study_hosts() {
        reference.register(name, f);
    }
    let expected = reference.run(STUDY).unwrap();
    let (mut interp, program) = warmed(study_vm(), STUDY, &expected);
    b.case("study_events", || interp.run_compiled(&program).unwrap());

    let expected = vm(false).run(SWEEP).unwrap();
    let (mut inline, inline_program) = warmed(vm(false), SWEEP, &expected);
    let (mut parallel, parallel_program) = warmed(vm(true), SWEEP, &expected);
    b.pair(
        "sweep_64",
        ("parallel", || {
            parallel.run_compiled(&parallel_program).unwrap()
        }),
        ("inline", || inline.run_compiled(&inline_program).unwrap()),
    );

    let mut session = PerfExplorerScript::new(sweep_repo());
    let program = session.compile(REPO_SWEEP).unwrap();
    assert_eq!(session.run_compiled(&program).unwrap(), Value::Num(64.0));
    b.case("repo_sweep_64", || session.run_compiled(&program).unwrap());
    b.finish();
}
