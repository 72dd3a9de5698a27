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
//! measure dispatch cost only. Besides the Criterion harness
//! (which honours `--test` for the CI smoke), `BENCH_JSON=<path>`
//! switches to a self-timed single-pass mode that writes the
//! machine-readable `BENCH_script.json` summary. This binary installs
//! the counting allocator of `bench::measure`, so the summary also
//! reports allocations per run of each register-VM program.

use bench::measure::{count_allocs, Allocs, CountingAlloc};
use criterion::{criterion_group, Criterion};
use perfdmf::{Measurement, Repository, TrialBuilder};
use perfexplorer::scripting::PerfExplorerScript;
use rayon::prelude::*;
use script::{Interpreter, Value};
use serde_json::Value as Json;
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

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

fn bench_engines(c: &mut Criterion) {
    let mut g = c.benchmark_group("script_vm");
    for (name, src) in PROGRAMS {
        g.bench_function(&format!("reference/{name}"), |b| {
            b.iter(|| {
                let mut interp = script::reference::Interpreter::new();
                black_box(interp.run(src).unwrap())
            })
        });
        g.bench_function(&format!("register/{name}"), |b| {
            let mut interp = vm(false);
            let program = interp.compile(src).unwrap();
            b.iter(|| black_box(interp.run_compiled(&program).unwrap()))
        });
    }
    g.bench_function("register/study_events", |b| {
        let mut interp = study_vm();
        let program = interp.compile(STUDY).unwrap();
        b.iter(|| black_box(interp.run_compiled(&program).unwrap()))
    });
    g.finish();
}

fn bench_sweep(c: &mut Criterion) {
    let mut g = c.benchmark_group("script_vm");
    for (label, parallel) in [("sweep_64/inline", false), ("sweep_64/parallel", true)] {
        g.bench_function(label, |b| {
            let mut interp = vm(parallel);
            let program = interp.compile(SWEEP).unwrap();
            b.iter(|| black_box(interp.run_compiled(&program).unwrap()))
        });
    }
    g.bench_function("repo_sweep_64/parallel", |b| {
        let mut session = PerfExplorerScript::new(sweep_repo());
        let program = session.compile(REPO_SWEEP).unwrap();
        b.iter(|| black_box(session.run_compiled(&program).unwrap()))
    });
    g.finish();
}

criterion_group!(benches, bench_engines, bench_sweep);

// ---------------------------------------------------------------------
// BENCH_JSON single-pass mode
// ---------------------------------------------------------------------

/// Median wall time of `iters` runs of `f`, in nanoseconds, after
/// `warmup` unmeasured runs.
fn median_nanos(warmup: usize, iters: usize, mut f: impl FnMut()) -> f64 {
    for _ in 0..warmup {
        f();
    }
    let mut samples: Vec<f64> = (0..iters)
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed().as_nanos() as f64
        })
        .collect();
    samples.sort_by(|a, b| a.total_cmp(b));
    samples[samples.len() / 2]
}

/// Median time and the allocations of one run of a precompiled
/// program on `interp`.
fn measure_register(mut interp: Interpreter, src: &str) -> (f64, Allocs) {
    let program = interp.compile(src).unwrap();
    let ns = median_nanos(3, 15, || {
        black_box(interp.run_compiled(&program).unwrap());
    });
    let (_, allocs) = count_allocs(|| black_box(interp.run_compiled(&program).unwrap()));
    (ns, allocs)
}

fn measure_reference(src: &str) -> f64 {
    median_nanos(2, 9, || {
        let mut interp = script::reference::Interpreter::new();
        black_box(interp.run(src).unwrap());
    })
}

fn measure_sweep(parallel: bool) -> f64 {
    let mut interp = vm(parallel);
    let program = interp.compile(SWEEP).unwrap();
    median_nanos(2, 9, || {
        black_box(interp.run_compiled(&program).unwrap());
    })
}

/// Builds an object [`Json`] from `(key, value)` pairs.
fn obj(pairs: Vec<(&str, Json)>) -> Json {
    Json::Object(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
}

/// Rounds to one decimal place for the JSON summary.
fn round1(x: f64) -> Json {
    Json::Float((x * 10.0).round() / 10.0)
}

fn emit_json(path: &str) {
    let mut programs = Vec::new();
    for (name, src) in PROGRAMS {
        let reference = measure_reference(src);
        let (register, allocs) = measure_register(vm(false), src);
        eprintln!(
            "script_vm: {name:<14} reference {reference:>12.0} ns  \
             register {register:>10.0} ns  register/reference {:.2}x  {} allocs",
            reference / register,
            allocs.count
        );
        programs.push(obj(vec![
            ("program", Json::Str(name.into())),
            ("reference_ns", round1(reference)),
            ("register_ns", round1(register)),
            ("register_vs_reference", round1(reference / register)),
            ("allocs_per_op", Json::Int(allocs.count as i64)),
        ]));
    }
    let (study_ns, study_allocs) = measure_register(study_vm(), STUDY);
    eprintln!(
        "script_vm: study_events   register {study_ns:>10.0} ns  {} allocs  {} bytes",
        study_allocs.count, study_allocs.bytes
    );
    let inline = measure_sweep(false);
    let parallel = measure_sweep(true);
    eprintln!(
        "script_vm: sweep_64       inline {inline:>13.0} ns  parallel {parallel:>12.0} ns  \
         speedup {:.2}x over {} workers",
        inline / parallel,
        rayon::concurrency_budget()
    );
    let doc = obj(vec![
        (
            "_generated_by",
            Json::Str("BENCH_JSON=<path> cargo bench -p bench --bench script_vm".into()),
        ),
        (
            "_note",
            Json::Str(
                "Medians of self-timed single-pass runs on precompiled programs; \
                 allocs_per_op and bytes_per_op count one warm run under the counting \
                 allocator. The differential suite pins the register VM to the \
                 reference's semantics."
                    .into(),
            ),
        ),
        ("engines", Json::Array(programs)),
        (
            "study_events",
            obj(vec![
                ("events", Json::Int(EVENTS.len() as i64)),
                ("register_ns", round1(study_ns)),
                ("allocs_per_op", Json::Int(study_allocs.count as i64)),
                ("bytes_per_op", Json::Int(study_allocs.bytes as i64)),
            ]),
        ),
        (
            "sweep_64",
            obj(vec![
                ("bodies", Json::Int(64)),
                ("workers", Json::Int(rayon::concurrency_budget() as i64)),
                ("inline_ns", round1(inline)),
                ("parallel_ns", round1(parallel)),
                ("speedup", round1(inline / parallel)),
            ]),
        ),
    ]);
    std::fs::write(
        path,
        serde_json::to_string_pretty(&doc).expect("render") + "\n",
    )
    .expect("write BENCH_JSON");
    eprintln!("script_vm: wrote {path}");
}

/// One run of each engine per program, asserting value agreement — the
/// CI smoke mode (`-- --test`).
fn smoke() {
    for (name, src) in PROGRAMS {
        let mut reference = script::reference::Interpreter::new();
        let expected = reference.run(src).unwrap();
        let got = vm(false).run(src).unwrap();
        assert_eq!(got, expected, "{name} diverged from the reference");
        println!("script_vm/smoke/{name}: ok");
    }
    let mut reference = script::reference::Interpreter::new();
    for (name, f) in study_hosts() {
        reference.register(name, f);
    }
    let expected = reference.run(STUDY).unwrap();
    assert_eq!(
        study_vm().run(STUDY).unwrap(),
        expected,
        "study_events diverged"
    );
    println!("script_vm/smoke/study_events: ok");
    let inline = vm(false).run(SWEEP).unwrap();
    let parallel = vm(true).run(SWEEP).unwrap();
    assert_eq!(inline, parallel, "sweep outcomes diverged across modes");
    let mut session = PerfExplorerScript::new(sweep_repo());
    assert_eq!(session.run(REPO_SWEEP).unwrap(), Value::Num(64.0));
    println!("script_vm/smoke/sweep_64: ok");
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
