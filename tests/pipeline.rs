//! Cross-crate pipeline tests: profile formats in and out of the
//! repository, instrumentation plans over the application IR, and the
//! compiler feedback path.

use apps::genidlest::{self, CodeVersion, GenIdlestConfig, Paradigm, Problem};
use apps::power_study::genidlest_program;
use openuh::cost::ParallelModel;
use openuh::instrument::{InstrumentKinds, SelectiveInstrumenter};
use perfdmf::formats::{csv, gprof, tau};
use perfdmf::{Repository, ThreadId};
use perfexplorer::derive::{derive_metric, DeriveOp};
use perfexplorer::TrialResult;

fn sample_trial() -> perfdmf::Trial {
    let mut c = GenIdlestConfig::new(Problem::Rib45, Paradigm::Mpi, CodeVersion::Optimized, 4);
    c.timesteps = 1;
    genidlest::run(&c)
}

#[test]
fn simulated_trial_survives_tau_text_roundtrip() {
    let trial = sample_trial();
    let p = &trial.profile;
    let time = p.metric_id("TIME").unwrap();

    // Export every thread as a TAU profile file, reassemble, compare.
    let mut files: Vec<(ThreadId, String)> = Vec::new();
    for (t, tid) in p.threads().iter().enumerate() {
        let rows: Vec<(String, perfdmf::Measurement)> = p
            .events()
            .iter()
            .map(|e| {
                let id = p.event_id(&e.name).unwrap();
                (e.name.to_string(), *p.get(id, time, t).unwrap())
            })
            .collect();
        files.push((*tid, tau::write_thread_profile("TIME", &rows)));
    }
    let refs: Vec<(ThreadId, &str)> = files.iter().map(|(t, s)| (*t, s.as_str())).collect();
    let back = tau::assemble_trial(&trial.name, &refs).unwrap();

    assert_eq!(back.profile.thread_count(), p.thread_count());
    for e in p.events() {
        let a = p.event_id(&e.name).unwrap();
        let b = back.profile.event_id(&e.name).expect("event survives");
        let bt = back.profile.metric_id("TIME").unwrap();
        for t in 0..p.thread_count() {
            let va = p.get(a, time, t).unwrap();
            let vb = back.profile.get(b, bt, t).unwrap();
            assert!((va.inclusive - vb.inclusive).abs() < 1e-9);
            assert!((va.exclusive - vb.exclusive).abs() < 1e-9);
        }
    }
}

#[test]
fn csv_export_reimports_with_all_counters() {
    let trial = sample_trial();
    let text = csv::write_trial(&trial);
    let back = csv::parse_trial(&trial.name, &text).unwrap();
    assert_eq!(trial.profile, back.profile);
}

#[test]
fn foreign_gprof_profile_joins_the_repository_and_analyses() {
    let gprof_text = "\
  %   cumulative   self              self     total
 time   seconds   seconds    calls  ms/call  ms/call  name
 60.00      6.00     6.00      100    60.00    80.00  main
 40.00     10.00     4.00     1000     4.00     4.00  kernel
";
    let trial = gprof::parse_flat_profile("legacy", gprof_text).unwrap();
    let mut repo = Repository::new();
    repo.add_trial("legacy_app", "import", trial).unwrap();
    let t = repo.trial("legacy_app", "import", "legacy").unwrap();
    let r = TrialResult::new(t);
    assert_eq!(r.exclusive("kernel", "TIME").unwrap(), vec![4.0]);
    assert_eq!(r.elapsed("TIME").unwrap(), 8.0);
}

#[test]
fn derived_metrics_written_back_to_repository_persist() {
    let mut repo = Repository::new();
    repo.add_trial("Fluid Dynamic", "rib 45", sample_trial())
        .unwrap();
    {
        let trial = repo
            .trial_mut("Fluid Dynamic", "rib 45", "mpi_optimized_4")
            .unwrap();
        derive_metric(trial, "BACK_END_BUBBLE_ALL", DeriveOp::Divide, "CPU_CYCLES").unwrap();
    }
    let json = repo.to_json().unwrap();
    let restored = Repository::from_json(&json).unwrap();
    let t = restored
        .trial("Fluid Dynamic", "rib 45", "mpi_optimized_4")
        .unwrap();
    assert!(t
        .profile
        .metric_id("(BACK_END_BUBBLE_ALL / CPU_CYCLES)")
        .is_some());
}

#[test]
fn instrumentation_plan_covers_the_solver_kernels() {
    let program = genidlest_program(16);
    let inst = SelectiveInstrumenter::default();
    let plan = inst.plan(&program);
    // All five kernels carry enough work to deserve probes.
    for name in ["bicgstab", "diff_coeff", "matxvec", "pc", "pc_jac_glb"] {
        let id = program.find(name).unwrap();
        assert!(plan.is_probed(id), "{name} not probed");
    }
    // Procedure-only mode keeps just main.
    let proc_only = SelectiveInstrumenter {
        kinds: InstrumentKinds::procedures_only(),
        ..Default::default()
    };
    let plan2 = proc_only.plan(&program);
    assert_eq!(plan2.probed.len(), 1);
}

#[test]
fn parallel_model_picks_the_outer_loop_for_the_solver() {
    let pm = ParallelModel::default();
    // Parallelising across blocks (outer) vs within a block (inner,
    // re-entering per block).
    let work = 5e9;
    let candidates = vec![
        ("across blocks".to_string(), work, 1.0, 0),
        ("within block".to_string(), work, 32.0 * 20.0, 1),
    ];
    assert_eq!(pm.choose_level(&candidates, 16), Some(0));
}

#[test]
fn metadata_travels_with_trials_for_rule_context() {
    let trial = sample_trial();
    assert_eq!(trial.metadata.get_str("paradigm"), Some("mpi"));
    assert_eq!(trial.metadata.get_str("problem"), Some("rib 45"));
    assert_eq!(trial.metadata.get_num("procs"), Some(4.0));
    // The machine name is the performance context rules can justify
    // conclusions with.
    assert_eq!(trial.metadata.get_str("machine"), Some("SGI Altix 300"));
}

#[test]
fn every_simulated_trial_is_internally_consistent() {
    // The measurement substrate must never produce profiles the
    // invariant walk would touch: finite, nonnegative, exclusive ≤
    // inclusive, children within parents. The walk runs on a clone, so
    // this is the report without the repair.
    use apps::msa::{self, MsaConfig};
    use apps::power_study::{run_all, PowerStudyConfig};
    use perfdmf::sanitize_trial;
    use simulator::openmp::Schedule;

    let report = |trial: &perfdmf::Trial| sanitize_trial(&mut trial.clone());

    let mut msa_config = MsaConfig::paper_400(8, Schedule::Static);
    msa_config.sequences = 64;
    let msa_trial = msa::run(&msa_config);
    let quality = report(&msa_trial);
    assert!(quality.is_clean(), "MSA trial: {}", quality.summary());

    let quality = report(&sample_trial());
    assert!(quality.is_clean(), "GenIDLEST: {}", quality.summary());

    let power = run_all(&PowerStudyConfig {
        ranks: 2,
        timesteps: 1,
        machine: simulator::machine::MachineConfig::altix300(),
    });
    for (level, trial) in power {
        let quality = report(&trial);
        assert!(quality.is_clean(), "{level}: {}", quality.summary());
    }
}

#[test]
fn frequency_feedback_from_simulated_profile() {
    // The mapping-identifier path: leaf event names in the profile match
    // the compiler's region names, so measured call counts correct the
    // IR's static estimates.
    use openuh::frequency::{apply, FrequencyConfig, FrequencyProfile};

    let trial = sample_trial();
    let profile = FrequencyProfile::from_trial(&trial);
    assert!(profile.count("matxvec").is_some());

    let mut program = genidlest_program(4);
    let decisions = apply(&mut program, &profile, &FrequencyConfig::default());
    // The solver kernels run many times per step: estimates corrected.
    assert!(
        decisions.iter().any(|d| matches!(
            d,
            openuh::frequency::FrequencyDecision::CorrectedEstimate { name, .. }
                if name == "matxvec"
        )),
        "decisions: {decisions:?}"
    );
    let m = program.find("matxvec").unwrap();
    let measured = profile.count("matxvec").unwrap();
    assert_eq!(program.region(m).attrs.invocations, measured);
}

#[test]
fn shipped_rule_file_parses_and_fires() {
    // The paper's Figure 1 loads knowledge from a rule file
    // ("openuh/OpenUHRules.drl"); ours ships as the four rulebase texts,
    // loaded here as a script's `load_rules_source` loads one.
    let mut parsed = Vec::new();
    for source in perfexplorer::rulebase::all_rulebases() {
        parsed.extend(rules::drl::parse(source).expect("rule text parses"));
    }
    assert!(parsed.len() >= 4);

    let mut engine = rules::Engine::new();
    engine.add_rules(parsed).unwrap();
    engine.assert_fact(
        rules::Fact::new("MeanEventFact")
            .with("metric", "(BACK_END_BUBBLE_ALL / CPU_CYCLES)")
            .with("higherLower", "higher")
            .with("severity", 0.31)
            .with("eventName", "matxvec")
            .with("mainValue", 0.2)
            .with("eventValue", 0.6)
            .with("factType", "Compared to Main"),
    );
    let report = engine.run().unwrap();
    assert!(report.fired("Stalls per Cycle"));
    assert_eq!(report.diagnoses_in("stalls").len(), 1);
}
