//! Benchmarks for the scripting layer outside the VM's own pairs (those
//! are in `script_vm`): parsing alone; the Figure-1-style analysis
//! workflow end to end on a fresh session, which must diagnose the
//! static schedule before any case runs; and `study_sweep`, one study
//! sweep request the way the service serves it (a precompiled program
//! over an 8-trial experiment of 12 events × 16 threads, with a sweep
//! observer installed) on a session kept and reset per request against
//! one built per request. Both sides must compute the same value first.
//! The harness and its modes are in `bench::measure`; this bench writes
//! `BENCH_scripting.json`.

use apps::msa::{self, MsaConfig};
use bench::measure::{Bench, CountingAlloc};
use perfdmf::{Measurement, Repository, TrialBuilder};
use perfexplorer::scripting::PerfExplorerScript;
use script::Value;
use simulator::openmp::Schedule;
use std::hint::black_box;
use std::sync::Arc;

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

const PARSE: &str = "let xs = range(100); let t = 0; for x in xs { t = t + x * 2; } t";

const FIGURE1: &str = r#"
    load_rules("load_balance");
    let trial = load_trial("msap", "scheduling", "8_static");
    assert_balance_facts(trial, "TIME");
    let report = process_rules();
    report["diagnoses"]
"#;

/// The service benchmark's second study script: a user function, a
/// counted loop over a host-built list, and a sweep over every trial.
const STUDY: &str = r#"fn mean_of(trial, evs) {
    let s = 0;
    let i = 0;
    while i < len(evs) { s = s + mean_exclusive(trial, evs[i], "TIME"); i = i + 1; }
    return s / len(evs);
}
let r = par_foreach_trial t in list_trials("study", "exp") {
    let trial = load_trial("study", "exp", t);
    mean_of(trial, trial_events(trial))
};
let total = 0;
for o in r { total = total + o["value"]; }
total"#;

/// Eight trials of 12 events × 16 threads under `study/exp`.
fn study_repo() -> Repository {
    let mut repo = Repository::new();
    for t in 0..8 {
        let mut b = TrialBuilder::with_flat_threads(format!("t{t}"), 16);
        let time = b.metric("TIME");
        let mut events = vec![b.event("main")];
        events.extend((1..12).map(|e| b.event(&format!("main => e{e}"))));
        for (e, &event) in events.iter().enumerate() {
            for th in 0..16 {
                let v = 1.0 + (t * 7 + e * 3 + th) as f64 % 11.0;
                b.set(event, time, th, Measurement::leaf(v));
            }
        }
        repo.add_trial("study", "exp", b.build()).unwrap();
    }
    repo
}

/// A session as a service worker builds it: with a sweep observer.
fn observed(repo: Repository) -> PerfExplorerScript {
    let mut session = PerfExplorerScript::new(repo);
    session.set_sweep_observer(Arc::new(|bodies, failed| {
        black_box((bodies, failed));
    }));
    session
}

fn main() {
    let mut b = Bench::from_env("scripting", "BENCH_scripting.json");
    b.case("parse_only", || {
        script::parser::parse(black_box(PARSE)).unwrap()
    });

    let mut repo = Repository::new();
    let mut config = MsaConfig::paper_400(8, Schedule::Static);
    config.sequences = 64;
    repo.add_trial("msap", "scheduling", msa::run(&config))
        .unwrap();
    let diagnoses = PerfExplorerScript::new(repo.clone()).run(FIGURE1).unwrap();
    assert!(
        matches!(diagnoses, Value::Num(n) if n > 0.0),
        "the static schedule is diagnosed: {diagnoses:?}"
    );
    b.case("figure1_workflow", || {
        PerfExplorerScript::new(repo.clone()).run(FIGURE1).unwrap()
    });

    let repo = study_repo();
    let mut kept = observed(Repository::new());
    let program = kept.compile(STUDY).unwrap();
    let run =
        |session: &mut PerfExplorerScript| session.run_compiled_supervised(&program).value.unwrap();
    let mut reset = || {
        kept.reset(repo.clone());
        let value = run(&mut kept);
        kept.release();
        value
    };
    let fresh = || run(&mut observed(repo.clone()));
    let expected = fresh();
    assert!(matches!(expected, Value::Num(n) if n > 0.0), "{expected:?}");
    assert_eq!(reset(), expected);
    b.pair("study_sweep", ("reset", reset), ("fresh", fresh));
    b.finish();
}
