//! Golden reports of the three case-study workflows.
//!
//! Rule firing order depends on salience, rule order and fact recency,
//! so any change to the rule engine or to the fact producers can move a
//! line of a rendered report without failing a shape check. Each
//! fixture under `tests/golden/` pins, for one workflow under one
//! policy (strict or supervised), the rendered report, the firing
//! sequence (rule name and matched fact handles) and the diagnoses as
//! JSON. The inputs are the ones `tests/case_study_*.rs` build. The
//! fixtures are checked in and compared byte for byte; nothing
//! regenerates them.

use apps::genidlest::{self, CodeVersion, GenIdlestConfig, Paradigm, Problem};
use apps::msa::{self, MsaConfig};
use apps::power_study::{run_all, PowerStudyConfig};
use perfdmf::Trial;
use perfexplorer::supervise::SupervisorConfig;
use perfexplorer::workflow::{
    analyze_load_balance, analyze_load_balance_supervised, analyze_locality,
    analyze_locality_supervised, analyze_power, analyze_power_supervised, CaseStudyReport,
};
use simulator::machine::MachineConfig;
use simulator::openmp::Schedule;

/// The §III-A input: MSA, 128 sequences, 16 threads, static schedule.
fn msa_trial() -> Trial {
    let mut config = MsaConfig::paper_400(16, Schedule::Static);
    config.sequences = 128;
    msa::run(&config)
}

/// The §III-B input: unoptimized OpenMP GenIDLEST at 1, 4 and 16 procs.
fn genidlest_series() -> Vec<(usize, Trial)> {
    [1usize, 4, 16]
        .iter()
        .map(|&p| {
            let mut c = GenIdlestConfig::new(
                Problem::Rib90,
                Paradigm::OpenMp,
                CodeVersion::Unoptimized,
                p,
            );
            c.timesteps = 2;
            (p, genidlest::run(&c))
        })
        .collect()
}

/// The §III-C input: the four optimisation levels, 16 ranks.
fn power_trials() -> Vec<Trial> {
    let config = PowerStudyConfig {
        ranks: 16,
        timesteps: 2,
        machine: MachineConfig::altix300(),
    };
    run_all(&config).into_iter().map(|(_, t)| t).collect()
}

/// The fixture text of one workflow run.
fn golden_text(result: &CaseStudyReport) -> String {
    let mut out = String::from("== rendered ==\n");
    out.push_str(&result.rendered);
    out.push_str("\n== firings ==\n");
    for firing in &result.report.firings {
        let handles: Vec<String> = firing.matched.iter().map(|h| h.0.to_string()).collect();
        out.push_str(&format!("{} [{}]\n", firing.rule, handles.join(", ")));
    }
    out.push_str("== diagnoses ==\n");
    out.push_str(&serde_json::to_string_pretty(&result.report.diagnoses).expect("diagnoses"));
    out.push('\n');
    out
}

fn check(fixture: &str, expected: &str, result: &CaseStudyReport) {
    let actual = golden_text(result);
    assert!(
        actual == expected,
        "{fixture} drifted from its golden file.\n--- expected\n{expected}\n--- actual\n{actual}"
    );
}

#[test]
fn load_balance_reports_match_golden() {
    let trial = msa_trial();
    let strict = analyze_load_balance(&trial, "TIME").unwrap();
    check(
        "load_balance_strict",
        include_str!("golden/load_balance_strict.txt"),
        &strict,
    );
    let supervised = analyze_load_balance_supervised(&trial, "TIME", &SupervisorConfig::default());
    check(
        "load_balance_supervised",
        include_str!("golden/load_balance_supervised.txt"),
        &supervised,
    );
}

#[test]
fn locality_reports_match_golden() {
    let machine = MachineConfig::altix300();
    let series = genidlest_series();
    let refs: Vec<(usize, &Trial)> = series.iter().map(|(p, t)| (*p, t)).collect();
    let strict = analyze_locality(&refs, &machine).unwrap();
    check(
        "locality_strict",
        include_str!("golden/locality_strict.txt"),
        &strict,
    );
    let supervised = analyze_locality_supervised(&refs, &machine, &SupervisorConfig::default());
    check(
        "locality_supervised",
        include_str!("golden/locality_supervised.txt"),
        &supervised,
    );
}

#[test]
fn power_reports_match_golden() {
    let machine = MachineConfig::altix300();
    let trials = power_trials();
    let refs: Vec<&Trial> = trials.iter().collect();
    let (_, strict) = analyze_power(&refs, &machine).unwrap();
    check(
        "power_strict",
        include_str!("golden/power_strict.txt"),
        &strict,
    );
    let (_, supervised) = analyze_power_supervised(&refs, &machine, &SupervisorConfig::default());
    check(
        "power_supervised",
        include_str!("golden/power_supervised.txt"),
        &supervised,
    );
}
