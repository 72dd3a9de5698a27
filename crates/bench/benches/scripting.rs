//! Benchmarks for the scripting layer outside the VM's own pairs (those
//! are in `script_vm`): parsing alone, and the Figure-1-style analysis
//! workflow end to end on a fresh session, which must diagnose the
//! static schedule before any case runs. The harness and its modes are
//! in `bench::measure`; this bench writes `BENCH_scripting.json`.

use apps::msa::{self, MsaConfig};
use bench::measure::{Bench, CountingAlloc};
use perfdmf::Repository;
use perfexplorer::scripting::PerfExplorerScript;
use script::Value;
use simulator::openmp::Schedule;
use std::hint::black_box;

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
    b.finish();
}
