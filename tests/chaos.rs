//! End-to-end chaos tests: faultsim-corrupted inputs must degrade
//! gracefully — never panic, never abort the pipeline — and clean
//! inputs must be untouched by the supervision machinery
//! (byte-identical reports).

use apps::msa::{self, MsaConfig};
use apps::power_study::{self, PowerStudyConfig};
use faultsim::{Fault, FaultPlan};
use perfdmf::formats::csv;
use perfdmf::{sanitize_trial, Repository, Trial};
use perfexplorer::workflow::{
    analyze_load_balance, analyze_load_balance_supervised, analyze_locality_supervised,
    analyze_power_supervised,
};
use perfexplorer::SupervisorConfig;
use proptest::prelude::*;
use simulator::machine::MachineConfig;
use simulator::openmp::Schedule;

fn small_msa() -> Trial {
    let mut config = MsaConfig::paper_400(4, Schedule::Static);
    config.sequences = 24;
    msa::run(&config)
}

fn power_trials() -> Vec<Trial> {
    let config = PowerStudyConfig {
        ranks: 2,
        timesteps: 1,
        machine: MachineConfig::altix300(),
    };
    power_study::run_all(&config)
        .into_iter()
        .map(|(_, t)| t)
        .collect()
}

/// Runs every supervised workflow over the given trials. The calls
/// themselves are the assertion: a panic fails the test.
fn run_all_workflows(trials: &[Trial]) {
    let machine = MachineConfig::altix300();
    let config = SupervisorConfig::default();
    let _ = analyze_load_balance_supervised(&trials[0], "TIME", &config);
    let series: Vec<(usize, &Trial)> = trials.iter().enumerate().collect();
    let _ = analyze_locality_supervised(&series, &machine, &config);
    let refs: Vec<&Trial> = trials.iter().collect();
    let _ = analyze_power_supervised(&refs, &machine, &config);
}

/// A fixed seed matrix over smaller trials than the chaos harness's:
/// failures reproduce exactly from the seed. The harness's own rows,
/// with its strict/lossy, sanitize, journal, memo and crash-recovery
/// contracts, run in `crates/faultsim/tests/ci_matrix.rs`.
const SEED_MATRIX: [u64; 8] = [0, 1, 2, 3, 5, 8, 13, 21];

#[test]
fn chaos_seed_matrix_never_panics_any_workflow() {
    for &seed in &SEED_MATRIX {
        let plan = FaultPlan::new(seed).with_all(&Fault::PROFILE_FAULTS);
        let mut trials = vec![small_msa()];
        trials.extend(power_trials());
        let mut total_applied = 0;
        for trial in &mut trials {
            total_applied += plan.apply_to_trial(trial).len();
            sanitize_trial(trial);
        }
        assert!(total_applied > 0, "seed {seed} applied nothing");
        run_all_workflows(&trials);
    }
}

#[test]
fn chaos_seed_matrix_unsanitized_still_never_panics() {
    // Even *without* the sanitization pass, the supervised workflows
    // must contain the damage (stages degrade; nothing unwinds).
    for &seed in &SEED_MATRIX {
        let plan = FaultPlan::new(seed).with_all(&Fault::PROFILE_FAULTS);
        let mut trials = vec![small_msa()];
        trials.extend(power_trials());
        for trial in &mut trials {
            plan.apply_to_trial(trial);
        }
        run_all_workflows(&trials);
    }
}

#[test]
fn chaos_seed_matrix_binary_faults_never_panic_readers() {
    for &seed in &SEED_MATRIX {
        let plan = FaultPlan::new(seed).with_all(&Fault::BINARY_FAULTS);
        let mut repo = Repository::new();
        repo.add_trial("chaos", "msa", small_msa()).unwrap();
        let (corrupt, applied) = plan.apply_to_bytes(&repo.to_pdb1());
        assert!(!applied.is_empty(), "seed {seed} applied nothing");

        // Strict read, salvage and the mmap path: reject or degrade,
        // never panic.
        let _ = Repository::from_pdb1(&corrupt);
        let _ = perfdmf::pdb1::salvage(&corrupt);
        if let Ok(mapped) = perfdmf::MappedRepository::from_bytes(&corrupt) {
            for view in mapped.views().flatten() {
                let _ = view.to_trial();
            }
        }
    }
}

#[test]
fn clean_inputs_produce_byte_identical_reports_through_supervision() {
    // The differential guarantee, end to end: sanitization touches
    // nothing, and the supervised workflow renders the exact bytes the
    // strict workflow renders.
    let mut trial = small_msa();
    let quality = sanitize_trial(&mut trial);
    assert!(quality.is_clean(), "clean trial was modified: {quality:?}");

    let strict = analyze_load_balance(&trial, "TIME").unwrap();
    let supervised = analyze_load_balance_supervised(&trial, "TIME", &SupervisorConfig::default());
    assert!(supervised.is_complete());
    assert_eq!(strict.rendered, supervised.rendered);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Any subset of profile faults under any seed: corrupted trials
    /// never panic any supervised workflow.
    #[test]
    fn corrupted_profiles_never_panic_workflows(
        seed in 0u64..10_000,
        mask in 1u32..(1 << 9),
        sanitize_first in 0u32..2,
    ) {
        let faults: Vec<Fault> = Fault::PROFILE_FAULTS
            .iter()
            .enumerate()
            .filter(|(i, _)| mask & (1 << i) != 0)
            .map(|(_, &f)| f)
            .collect();
        let plan = FaultPlan::new(seed).with_all(&faults);
        let mut trials = vec![small_msa()];
        trials.extend(power_trials());
        for trial in &mut trials {
            plan.apply_to_trial(trial);
            if sanitize_first == 1 {
                sanitize_trial(trial);
            }
        }
        run_all_workflows(&trials);
    }

    /// Any subset of text faults under any seed: the lossy parsers and
    /// the salvage path never panic.
    #[test]
    fn corrupted_text_never_panics_lossy_parsers(
        seed in 0u64..10_000,
        mask in 1u32..(1 << 4),
    ) {
        let faults: Vec<Fault> = Fault::TEXT_FAULTS
            .iter()
            .enumerate()
            .filter(|(i, _)| mask & (1 << i) != 0)
            .map(|(_, &f)| f)
            .collect();
        let plan = FaultPlan::new(seed).with_all(&faults);
        let trial = small_msa();
        let (corrupt, _) = plan.apply_to_text(&csv::write_trial(&trial));
        let _ = csv::parse_trial_lossy("p", &corrupt);
        let mut repo = Repository::new();
        repo.add_trial("p", "e", trial).unwrap();
        let (corrupt_json, _) = plan.apply_to_text(&repo.to_json().unwrap());
        let _ = Repository::salvage_json(&corrupt_json);
    }

    /// Any subset of binary faults under any seed: the strict PDB1
    /// reader, the salvage path and the mmap path never panic.
    #[test]
    fn corrupted_pdb1_never_panics_readers(
        seed in 0u64..10_000,
        mask in 1u32..(1 << 4),
    ) {
        let faults: Vec<Fault> = Fault::BINARY_FAULTS
            .iter()
            .enumerate()
            .filter(|(i, _)| mask & (1 << i) != 0)
            .map(|(_, &f)| f)
            .collect();
        let plan = FaultPlan::new(seed).with_all(&faults);
        let mut repo = Repository::new();
        repo.add_trial("p", "e", small_msa()).unwrap();
        let (corrupt, _) = plan.apply_to_bytes(&repo.to_pdb1());
        let _ = Repository::from_pdb1(&corrupt);
        let _ = Repository::salvage_bytes(&corrupt);
        if let Ok(mapped) = perfdmf::MappedRepository::from_bytes(&corrupt) {
            for view in mapped.views().flatten() {
                let _ = view.to_trial();
            }
        }
    }
}
