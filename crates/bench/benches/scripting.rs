//! Criterion benchmarks for the scripting layer: raw interpreter speed
//! and the Figure-1-style analysis workflow end to end.

use apps::msa::{self, MsaConfig};
use criterion::{criterion_group, criterion_main, Criterion};
use perfdmf::Repository;
use perfexplorer::scripting::PerfExplorerScript;
use script::Interpreter;
use simulator::openmp::Schedule;
use std::hint::black_box;

fn bench_interpreter(c: &mut Criterion) {
    c.bench_function("script/fib_15", |bench| {
        bench.iter(|| {
            let mut interp = Interpreter::new();
            black_box(
                interp
                    .run("fn fib(n) { if n < 2 { return n; } return fib(n-1) + fib(n-2); } fib(15)")
                    .unwrap(),
            )
        })
    });
    c.bench_function("script/loop_sum_10k", |bench| {
        bench.iter(|| {
            let mut interp = Interpreter::new();
            black_box(
                interp
                    .run("let t = 0; let i = 0; while i < 10000 { t = t + i; i = i + 1; } t")
                    .unwrap(),
            )
        })
    });
    c.bench_function("script/parse_only", |bench| {
        let src = "let xs = range(100); let t = 0; for x in xs { t = t + x * 2; } t";
        bench.iter(|| black_box(script::parser::parse(src).unwrap()))
    });
    // Precompiled variant: the compile-once / run-many path of
    // `compile` + `run_compiled`, which includes replaying the
    // program's name-table snapshot (only a check on the interpreter
    // that compiled it).
    c.bench_function("script/fib_15_precompiled", |bench| {
        let mut interp = Interpreter::new();
        let program = interp
            .compile("fn fib(n) { if n < 2 { return n; } return fib(n-1) + fib(n-2); } fib(15)")
            .unwrap();
        bench.iter(|| black_box(interp.run_compiled(&program).unwrap()))
    });
}

/// Ablation: the tree-walking reference interpreter on the same
/// programs, to measure the bytecode VM's speedup.
fn bench_reference(c: &mut Criterion) {
    c.bench_function("script_reference/fib_15", |bench| {
        bench.iter(|| {
            let mut interp = script::reference::Interpreter::new();
            black_box(
                interp
                    .run("fn fib(n) { if n < 2 { return n; } return fib(n-1) + fib(n-2); } fib(15)")
                    .unwrap(),
            )
        })
    });
    c.bench_function("script_reference/loop_sum_10k", |bench| {
        bench.iter(|| {
            let mut interp = script::reference::Interpreter::new();
            black_box(
                interp
                    .run("let t = 0; let i = 0; while i < 10000 { t = t + i; i = i + 1; } t")
                    .unwrap(),
            )
        })
    });
}

fn bench_workflow_script(c: &mut Criterion) {
    let mut repo = Repository::new();
    let mut config = MsaConfig::paper_400(8, Schedule::Static);
    config.sequences = 64;
    repo.add_trial("msap", "scheduling", msa::run(&config))
        .unwrap();

    c.bench_function("script/figure1_workflow", |bench| {
        bench.iter(|| {
            let mut session = PerfExplorerScript::new(repo.clone());
            black_box(
                session
                    .run(
                        r#"
                        load_rules("load_balance");
                        let trial = load_trial("msap", "scheduling", "8_static");
                        assert_balance_facts(trial, "TIME");
                        let report = process_rules();
                        report["diagnoses"]
                        "#,
                    )
                    .unwrap(),
            )
        })
    });
}

criterion_group!(
    benches,
    bench_interpreter,
    bench_reference,
    bench_workflow_script
);
criterion_main!(benches);
