//! The paper's three case studies as canned, reusable workflows.
//!
//! Each workflow is the Rust equivalent of one of the paper's analysis
//! scripts: load a trial (or series), derive metrics, build facts, run
//! the relevant rulebase, and return the diagnoses plus the compiler
//! feedback they imply.
//!
//! Each workflow is one pipeline over a `Policy`: strict fails fast,
//! supervised records a failing stage and carries on. The public entry
//! points only pick the policy, so the two modes cannot drift apart.

use crate::metrics::{
    derive_inefficiency, memory_analysis, memory_facts, stall_decomposition, stall_facts,
};
use crate::powerenergy::{power_facts, relative_table, trial_power, RelativeRow};
use crate::recommend::{compiler_feedback, render_report_degraded};
use crate::rulebase::{
    engine_with_all, LOAD_BALANCE_RULES, LOCALITY_RULES, POWER_RULES, STALL_RULES,
};
use crate::scalability::{per_event_total, scaling_facts};
use crate::supervise::{
    run_engine_budgeted, DegradeCause, DegradedStage, Supervisor, SupervisorConfig,
};
use crate::{facts::MeanEventFact, loadbalance, Result};
use openuh::cost::CostModel;
use openuh::feedback::FeedbackPlan;
use perfdmf::{EventId, Profile, Trial};
use simulator::machine::MachineConfig;

/// Outcome of one case-study workflow.
#[derive(Debug)]
pub struct CaseStudyReport {
    /// The rule engine's run report (firings, prints, diagnoses).
    pub report: rules::RunReport,
    /// Human-readable rendering.
    pub rendered: String,
    /// Compiler feedback derived from the diagnoses.
    pub feedback: FeedbackPlan,
    /// The cost model after feedback weighting.
    pub cost_model: CostModel,
    /// Stages that degraded; only a supervised run records any (a strict
    /// run returns the first failure instead). When non-empty, the report
    /// is partial: the listed stages' conclusions are missing or suspect.
    pub degraded: Vec<DegradedStage>,
}

impl CaseStudyReport {
    /// Whether every stage ran to completion.
    pub fn is_complete(&self) -> bool {
        self.degraded.is_empty()
    }
}

/// Metrics the locality derivation chain reads (`derive_inefficiency`
/// sources plus the severity metric `compare_all_events` weighs by).
const DERIVATION_METRICS: [&str; 4] = ["BACK_END_BUBBLE_ALL", "CPU_CYCLES", "FP_OPS", "TIME"];

/// Builds the derivation scratch trial for [`analyze_locality`]: same
/// events and threads as `target`, but only the columns in
/// [`DERIVATION_METRICS`] (those present — a missing source metric must
/// surface as the same `MissingMetric` error the derivation would have
/// raised on a full copy). Everything not derived keeps reading
/// `target` directly, so the deep clone of every counter column is
/// avoided.
fn derivation_scratch(target: &Trial) -> Result<Trial> {
    let src = &target.profile;
    let wanted: Vec<perfdmf::MetricId> = DERIVATION_METRICS
        .iter()
        .filter_map(|name| src.metric_id(name))
        .collect();
    let mut profile =
        Profile::with_capacity(src.threads().to_vec(), src.event_count(), wanted.len());
    // Metrics first: `add_event` is then amortised O(1) per block while
    // `add_metric` would rebuild the arena per event.
    //
    // A healthy profile interns unique metric/event names, but a
    // corrupted one (stale index entries pointing at renamed rows) can
    // present duplicates here — that must surface as a typed error,
    // not a panic, so the supervised workflows can degrade.
    for &m in &wanted {
        profile.add_metric(src.metric(m).clone()).map_err(|_| {
            crate::AnalysisError::Invalid(format!(
                "duplicate metric name {:?} in source trial {:?}",
                src.metric(m).name,
                target.name
            ))
        })?;
    }
    for event in src.events() {
        profile.add_event(event.clone()).map_err(|_| {
            crate::AnalysisError::Invalid(format!(
                "duplicate event name {:?} in source trial {:?}",
                event.name, target.name
            ))
        })?;
    }
    for ei in 0..src.event_count() {
        let e = EventId(ei as u32);
        for (out, &m) in wanted.iter().enumerate() {
            profile
                .column_mut(e, perfdmf::MetricId(out as u32))
                .copy_from_slice(src.column(e, m));
        }
    }
    Ok(Trial {
        name: target.name.clone(),
        profile,
        metadata: target.metadata.clone(),
    })
}

/// How a pipeline treats a failing stage.
pub(crate) enum Policy {
    /// Fail fast: the first stage error is the workflow's error. No
    /// panic isolation, and the engine keeps its default cycle limit.
    Strict,
    /// Degrade: each stage runs under the supervisor, a failure is
    /// recorded, and the pipeline carries on with what survived.
    Supervised(Supervisor),
}

impl Policy {
    /// Runs one named stage; `Ok(None)` means it degraded.
    fn stage<T>(&mut self, name: &str, f: impl FnOnce() -> Result<T>) -> Result<Option<T>> {
        match self {
            Policy::Strict => f().map(Some),
            Policy::Supervised(sup) => Ok(sup.run_stage(name, f)),
        }
    }

    /// Builds the engine; supervised, with the firing budget as limit.
    fn rulebase(&mut self, sources: &[&str]) -> Result<Option<rules::Engine>> {
        match self {
            Policy::Strict => engine_with_all(sources).map(Some),
            Policy::Supervised(sup) => {
                let limit = sup.config().rule_firing_budget;
                Ok(sup.run_stage("rulebase", || {
                    Ok(engine_with_all(sources)?.with_cycle_limit(limit))
                }))
            }
        }
    }

    /// Runs the engine; supervised, a spent budget keeps the partial run.
    fn run(&mut self, engine: &mut rules::Engine) -> Result<rules::RunReport> {
        match self {
            Policy::Strict => Ok(engine.run()?),
            Policy::Supervised(sup) => {
                let (report, over_budget) = run_engine_budgeted(engine, "rule engine");
                over_budget.into_iter().for_each(|entry| sup.note(entry));
                Ok(report)
            }
        }
    }

    /// Records that `stage` could not run because `dependency` degraded.
    fn skip(&mut self, stage: &str, dependency: &str) {
        if let Policy::Supervised(sup) = self {
            sup.skip_stage(stage, dependency);
        }
    }

    /// Renders the report plus any degraded-stages section.
    fn finish(self, report: rules::RunReport) -> CaseStudyReport {
        let degraded = match self {
            Policy::Strict => Vec::new(),
            Policy::Supervised(sup) => sup.into_degraded(),
        };
        let mut cost_model = CostModel::default();
        let feedback = compiler_feedback(&report, &mut cost_model);
        CaseStudyReport {
            rendered: render_report_degraded(&report, &degraded),
            feedback,
            cost_model,
            report,
            degraded,
        }
    }
}

/// Runs `pipeline` under a fresh supervisor, which records every
/// stage failure instead of returning it.
fn supervised<T>(config: &SupervisorConfig, pipeline: impl FnOnce(Policy) -> Result<T>) -> T {
    let policy = Policy::Supervised(Supervisor::new(config.clone()));
    pipeline(policy).unwrap_or_else(|e| unreachable!("supervised pipeline failed: {e}"))
}

/// The §III-A pipeline over the balance facts `facts` computes.
pub(crate) fn load_balance(
    mut policy: Policy,
    facts: impl FnOnce() -> Result<Vec<rules::Fact>>,
) -> Result<CaseStudyReport> {
    const FACTS: &str = "load-balance facts";
    let facts = policy.stage(FACTS, facts)?;
    let Some(mut engine) = policy.rulebase(&[LOAD_BALANCE_RULES])? else {
        return Ok(policy.finish(rules::RunReport::default()));
    };
    if facts.is_none() {
        policy.skip("fact assertion", FACTS);
    }
    for fact in facts.into_iter().flatten() {
        engine.assert_fact(fact);
    }
    let report = policy.run(&mut engine)?;
    Ok(policy.finish(report))
}

/// The §III-B pipeline; see [`analyze_locality`].
fn locality(
    mut policy: Policy,
    series: &[(usize, &Trial)],
    machine: &MachineConfig,
) -> Result<CaseStudyReport> {
    let Some((_, target)) = series.last() else {
        // Recorded as-is: routing it through `stage` would prefix the
        // `AnalysisError` display text.
        const EMPTY: &str = "empty trial series";
        return match policy {
            Policy::Strict => Err(crate::AnalysisError::Invalid(EMPTY.into())),
            Policy::Supervised(mut sup) => {
                sup.note(DegradedStage {
                    stage: "input".into(),
                    cause: DegradeCause::Failed(EMPTY.into()),
                });
                Ok(Policy::Supervised(sup).finish(rules::RunReport::default()))
            }
        };
    };
    // Derived metrics happen on a private scratch trial, as a script
    // would write its derivations back to its own analysis result. The
    // scratch copies only the columns the derivation chain touches;
    // every fact pass that reads measured counters stays on `target`.
    const DERIVATION: &str = "derivation";
    const STALL_RATES: &str = "stall-rate facts";
    let scratch = policy.stage(DERIVATION, || {
        let mut scratch = derivation_scratch(target)?;
        derive_inefficiency(&mut scratch)?;
        Ok(scratch)
    })?;
    let Some(mut engine) = policy.rulebase(&[STALL_RULES, LOCALITY_RULES, LOAD_BALANCE_RULES])?
    else {
        return Ok(policy.finish(rules::RunReport::default()));
    };

    // Performance context: rules join on metadata to justify conclusions.
    let mut facts = vec![crate::facts::context_fact(target)];
    // Pass 1: stall/cycle rate of every event vs main (needs the
    // derived ratio, so it reads the scratch).
    match &scratch {
        Some(scratch) => facts.extend(
            policy
                .stage(STALL_RATES, || {
                    let ratio = "(BACK_END_BUBBLE_ALL / CPU_CYCLES)";
                    MeanEventFact::compare_all_events(scratch, ratio, "TIME")
                })?
                .unwrap_or_default(),
        ),
        None => policy.skip(STALL_RATES, DERIVATION),
    }
    // Passes 2-5 read measured counters only, so each degrades alone.
    // Balance facts supply the runtime-fraction condition.
    let passes: [(&str, &dyn Fn() -> Result<_>); 4] = [
        ("stall decomposition facts", &|| {
            Ok(stall_facts(&stall_decomposition(target, machine)?))
        }),
        ("memory facts", &|| {
            Ok(memory_facts(&memory_analysis(target, machine)?))
        }),
        ("scaling facts", &|| {
            let events = target.profile.events().iter();
            let totals = events.filter_map(|e| per_event_total(series, "TIME", &e.name).ok());
            Ok(scaling_facts(&totals.collect::<Vec<_>>()))
        }),
        ("balance facts", &|| {
            loadbalance::analyze(target, "TIME").map(|a| a.facts())
        }),
    ];
    for (name, pass) in passes {
        facts.extend(policy.stage(name, pass)?.unwrap_or_default());
    }
    for fact in facts {
        engine.assert_fact(fact);
    }
    let report = policy.run(&mut engine)?;
    Ok(policy.finish(report))
}

/// The §III-C pipeline; see [`analyze_power`].
fn power(
    mut policy: Policy,
    trials: &[&Trial],
    machine: &MachineConfig,
) -> Result<(Vec<RelativeRow>, CaseStudyReport)> {
    let mut readings = Vec::with_capacity(trials.len());
    for trial in trials {
        readings.extend(policy.stage(&format!("power model ({})", trial.name), || {
            trial_power(trial, machine)
        })?);
    }
    let table = policy
        .stage("relative table", || relative_table(&readings))?
        .unwrap_or_default();
    let Some(mut engine) = policy.rulebase(&[POWER_RULES])? else {
        return Ok((table, policy.finish(rules::RunReport::default())));
    };
    for fact in power_facts(&table) {
        engine.assert_fact(fact);
    }
    let report = policy.run(&mut engine)?;
    Ok((table, policy.finish(report)))
}

/// §III-A: the load-balance workflow over one trial.
///
/// Computes per-event balance facts and nested correlations over
/// `metric` (usually `TIME`) and runs the load-balance rulebase.
pub fn analyze_load_balance(trial: &Trial, metric: &str) -> Result<CaseStudyReport> {
    load_balance(Policy::Strict, || {
        loadbalance::analyze(trial, metric).map(|a| a.facts())
    })
}

/// §III-B: the locality workflow over a scaling series.
///
/// The last (largest) trial is analysed in depth — inefficiency metric,
/// compare-to-main facts, stall decomposition, memory analysis — and
/// per-event scaling facts are derived from the whole series, then the
/// stall + locality rulebases run together.
pub fn analyze_locality(
    series: &[(usize, &Trial)],
    machine: &MachineConfig,
) -> Result<CaseStudyReport> {
    locality(Policy::Strict, series, machine)
}

/// §III-C: the power workflow over an optimisation-level series (first
/// trial is the baseline).
///
/// Returns the Table-I-style relative rows alongside the diagnoses.
pub fn analyze_power(
    trials: &[&Trial],
    machine: &MachineConfig,
) -> Result<(Vec<RelativeRow>, CaseStudyReport)> {
    power(Policy::Strict, trials, machine)
}

/// Supervised variant of [`analyze_load_balance`]: never returns an
/// error. Each stage runs under a [`Supervisor`]; a failing or
/// panicking stage is recorded in the report's `degraded` list and the
/// remaining stages carry on with whatever facts survived. On clean
/// input the result is byte-identical to the strict workflow's.
pub fn analyze_load_balance_supervised(
    trial: &Trial,
    metric: &str,
    config: &SupervisorConfig,
) -> CaseStudyReport {
    supervised(config, |policy| {
        load_balance(policy, || {
            loadbalance::analyze(trial, metric).map(|a| a.facts())
        })
    })
}

/// Supervised variant of [`analyze_locality`]: never returns an error.
/// The five fact passes degrade independently — a corrupt counter that
/// breaks the stall decomposition still leaves the scaling and balance
/// facts (and the diagnoses they support) in the report.
pub fn analyze_locality_supervised(
    series: &[(usize, &Trial)],
    machine: &MachineConfig,
    config: &SupervisorConfig,
) -> CaseStudyReport {
    supervised(config, |policy| locality(policy, series, machine))
}

/// Supervised variant of [`analyze_power`]: never returns an error.
/// Trials whose power model cannot be evaluated are dropped from the
/// table (each with a degradation record); the comparison proceeds
/// over the survivors.
pub fn analyze_power_supervised(
    trials: &[&Trial],
    machine: &MachineConfig,
    config: &SupervisorConfig,
) -> (Vec<RelativeRow>, CaseStudyReport) {
    supervised(config, |policy| power(policy, trials, machine))
}

#[cfg(test)]
mod tests {
    use super::*;
    use apps::genidlest::{self, CodeVersion, GenIdlestConfig, Paradigm, Problem};
    use apps::msa::{self, MsaConfig};
    use apps::power_study::{self, PowerStudyConfig};
    use simulator::openmp::Schedule;

    /// GenIDLEST 90-rib runs, one per entry of `procs`.
    fn genidlest_runs(
        paradigm: Paradigm,
        version: CodeVersion,
        procs: &[usize],
        timesteps: usize,
    ) -> Vec<(usize, Trial)> {
        let run = |p| {
            let mut c = GenIdlestConfig::new(Problem::Rib90, paradigm, version, p);
            c.timesteps = timesteps;
            (p, genidlest::run(&c))
        };
        procs.iter().map(|&p| run(p)).collect()
    }

    /// One timestep of unoptimized GenIDLEST OpenMP on `procs` threads.
    fn genidlest_openmp(procs: usize) -> Trial {
        let mut runs = genidlest_runs(Paradigm::OpenMp, CodeVersion::Unoptimized, &[procs], 1);
        runs.remove(0).1
    }

    /// MSA on 8 threads, cut to 96 sequences to keep the tests fast.
    fn msa_trial(schedule: Schedule) -> Trial {
        let mut config = MsaConfig::paper_400(8, schedule);
        config.sequences = 96;
        msa::run(&config)
    }

    /// The power study's four optimisation levels on four ranks.
    fn power_runs() -> Vec<Trial> {
        let config = PowerStudyConfig {
            ranks: 4,
            timesteps: 1,
            machine: MachineConfig::altix300(),
        };
        power_study::run_all(&config)
            .into_iter()
            .map(|(_, t)| t)
            .collect()
    }

    /// A trial with none of the power-model metrics.
    fn empty_trial(name: &str) -> Trial {
        let threads = vec![perfdmf::ThreadId::flat(0)];
        Trial::new(name, Profile::with_capacity(threads, 0, 0))
    }

    #[test]
    fn msa_static_schedule_triggers_load_imbalance_diagnosis() {
        let trial = msa_trial(Schedule::Static);
        let result = analyze_load_balance(&trial, "TIME").unwrap();
        let diags = result.report.diagnoses_in("load-imbalance");
        assert!(!diags.is_empty(), "report: {}", result.rendered);
        assert!(result.report.fired("Load imbalance in nested loops"));
        // The recommendation names the fix the paper applied.
        assert!(diags.iter().any(|d| d
            .recommendation
            .as_deref()
            .unwrap_or("")
            .contains("dynamic")));
        // Feedback raises the parallel model's weight.
        assert!(result.cost_model.parallel_weight > 1.0);
    }

    #[test]
    fn msa_dynamic_schedule_is_clean() {
        let trial = msa_trial(Schedule::Dynamic(1));
        let result = analyze_load_balance(&trial, "TIME").unwrap();
        assert!(
            result.report.diagnoses_in("load-imbalance").is_empty(),
            "unexpected: {}",
            result.rendered
        );
    }

    #[test]
    fn genidlest_unoptimized_openmp_triggers_locality_chain() {
        let machine = MachineConfig::altix300();
        let trials = genidlest_runs(Paradigm::OpenMp, CodeVersion::Unoptimized, &[1, 4, 16], 2);
        let series: Vec<(usize, &Trial)> = trials.iter().map(|(p, t)| (*p, t)).collect();
        let result = analyze_locality(&series, &machine).unwrap();
        assert!(
            !result.report.diagnoses_in("memory-locality").is_empty(),
            "report: {}",
            result.rendered
        );
        assert!(
            !result.report.diagnoses_in("serial-bottleneck").is_empty(),
            "report: {}",
            result.rendered
        );
        // Feedback: cache model weight raised, locality suggestions made.
        assert!(result.cost_model.cache_weight > 1.0);
        assert!(result
            .feedback
            .suggestions
            .iter()
            .any(|s| s.action.contains("first-touch")));
    }

    #[test]
    fn analyze_locality_leaves_source_trials_unmodified() {
        let machine = MachineConfig::altix300();
        let trials = genidlest_runs(Paradigm::OpenMp, CodeVersion::Unoptimized, &[1, 4], 1);
        let before = trials.clone();
        let series: Vec<(usize, &Trial)> = trials.iter().map(|(p, t)| (*p, t)).collect();
        analyze_locality(&series, &machine).unwrap();
        // The derivation works on a scratch copy; no trial in the
        // series grows derived metrics or changes a measurement.
        assert_eq!(trials, before);
        assert!(trials
            .last()
            .unwrap()
            .1
            .profile
            .metric_id("INEFFICIENCY")
            .is_none());
    }

    #[test]
    fn genidlest_mpi_is_mostly_clean() {
        let machine = MachineConfig::altix300();
        let trials = genidlest_runs(Paradigm::Mpi, CodeVersion::Optimized, &[1, 16], 2);
        let series: Vec<(usize, &Trial)> = trials.iter().map(|(p, t)| (*p, t)).collect();
        let result = analyze_locality(&series, &machine).unwrap();
        assert!(
            result.report.diagnoses_in("memory-locality").is_empty(),
            "MPI should have no locality problem: {}",
            result.rendered
        );
    }

    #[test]
    fn duplicate_metric_names_error_instead_of_panicking() {
        // Regression: a corrupted profile whose interned index is stale
        // (two metrics now sharing a name) used to panic
        // `derivation_scratch` via `expect("source metrics are
        // unique")`. It must surface as a typed error instead.
        let machine = MachineConfig::altix300();
        let mut trial = genidlest_openmp(4);
        let fp = trial.profile.metric_id("FP_OPS").unwrap();
        trial.profile.corrupt_metric_name(fp, "TIME");

        let series: Vec<(usize, &Trial)> = vec![(4, &trial)];
        let err = analyze_locality(&series, &machine).unwrap_err();
        assert!(
            matches!(&err, crate::AnalysisError::Invalid(msg) if msg.contains("duplicate metric")),
            "got {err:?}"
        );

        // The supervised variant degrades the derivation stage and
        // still produces a report.
        let report = analyze_locality_supervised(&series, &machine, &SupervisorConfig::default());
        assert!(!report.is_complete());
        assert!(report.degraded.iter().any(|d| d.stage == "derivation"));
        assert!(report
            .degraded
            .iter()
            .any(|d| d.stage == "stall-rate facts"));
        assert!(report.rendered.contains("degraded stages"));
    }

    #[test]
    fn supervised_clean_reports_are_byte_identical() {
        let config = SupervisorConfig::default();

        // Load balance.
        let mut msa_config = MsaConfig::paper_400(8, Schedule::Static);
        msa_config.sequences = 96;
        let trial = msa::run(&msa_config);
        let strict = analyze_load_balance(&trial, "TIME").unwrap();
        let supervised = analyze_load_balance_supervised(&trial, "TIME", &config);
        assert!(supervised.is_complete());
        assert_eq!(strict.rendered, supervised.rendered);
        assert_eq!(
            strict.report.diagnoses.len(),
            supervised.report.diagnoses.len()
        );

        // Locality.
        let machine = MachineConfig::altix300();
        let trials: Vec<(usize, Trial)> = [1usize, 4]
            .iter()
            .map(|&p| {
                let mut c = GenIdlestConfig::new(
                    Problem::Rib90,
                    Paradigm::OpenMp,
                    CodeVersion::Unoptimized,
                    p,
                );
                c.timesteps = 1;
                (p, genidlest::run(&c))
            })
            .collect();
        let series: Vec<(usize, &Trial)> = trials.iter().map(|(p, t)| (*p, t)).collect();
        let strict = analyze_locality(&series, &machine).unwrap();
        let supervised = analyze_locality_supervised(&series, &machine, &config);
        assert!(supervised.is_complete());
        assert_eq!(strict.rendered, supervised.rendered);

        // Power.
        let power_config = PowerStudyConfig {
            ranks: 4,
            timesteps: 1,
            machine: machine.clone(),
        };
        let runs = power_study::run_all(&power_config);
        let power_trials: Vec<&Trial> = runs.iter().map(|(_, t)| t).collect();
        let (strict_table, strict) = analyze_power(&power_trials, &machine).unwrap();
        let (sup_table, supervised) = analyze_power_supervised(&power_trials, &machine, &config);
        assert!(supervised.is_complete());
        assert_eq!(strict.rendered, supervised.rendered);
        assert_eq!(strict_table.len(), sup_table.len());
    }

    #[test]
    fn supervised_power_drops_bad_trials_and_continues() {
        let machine = MachineConfig::altix300();
        let runs = power_runs();
        let broken = empty_trial("broken");
        let mut trials: Vec<&Trial> = runs.iter().collect();
        trials.insert(1, &broken);
        let (table, report) =
            analyze_power_supervised(&trials, &machine, &SupervisorConfig::default());
        // Survivors still produce the full table and the choice rules.
        assert_eq!(table.len(), 4);
        assert!(!report.is_complete());
        assert!(report
            .degraded
            .iter()
            .any(|d| d.stage.contains("power model (broken)")));
        assert!(report.report.fired("Low energy choice"));
    }

    #[test]
    fn supervised_locality_of_empty_series_degrades() {
        let machine = MachineConfig::altix300();
        let report = analyze_locality_supervised(&[], &machine, &SupervisorConfig::default());
        assert!(!report.is_complete());
        assert!(report.rendered.contains("degraded stages"));
        assert!(report.report.diagnoses.is_empty());
    }

    #[test]
    fn nan_counter_does_not_trip_strict_locality() {
        // Regression: strict mode compared the target against a clone
        // taken before derivation, and `Trial` equality compares `f64`s,
        // so one NaN counter made that debug assertion panic.
        let machine = MachineConfig::altix300();
        let mut trial = genidlest_openmp(4);
        let fp = trial.profile.metric_id("FP_OPS").unwrap();
        trial.profile.get_mut(EventId(0), fp, 0).unwrap().exclusive = f64::NAN;
        let series = [(4, &trial)];
        let strict = analyze_locality(&series, &machine).unwrap();
        let supervised =
            analyze_locality_supervised(&series, &machine, &SupervisorConfig::default());
        assert!(supervised.is_complete(), "{:?}", supervised.degraded);
        assert_eq!(strict.rendered, supervised.rendered);
    }

    #[test]
    fn strict_error_is_the_supervised_failure_record() {
        let machine = MachineConfig::altix300();
        let config = SupervisorConfig::default();
        let trial = msa_trial(Schedule::Static);
        let mut duplicate = genidlest_openmp(4);
        let fp = duplicate.profile.metric_id("FP_OPS").unwrap();
        duplicate.profile.corrupt_metric_name(fp, "TIME");
        let series = [(4, &duplicate)];
        let (runs, empty) = (power_runs(), empty_trial("empty"));
        let mut power: Vec<&Trial> = runs.iter().collect();
        power.insert(1, &empty);

        let cases = [
            (
                "load-balance facts",
                analyze_load_balance(&trial, "NOPE"),
                analyze_load_balance_supervised(&trial, "NOPE", &config),
            ),
            (
                "derivation",
                analyze_locality(&series, &machine),
                analyze_locality_supervised(&series, &machine, &config),
            ),
            (
                "power model (empty)",
                analyze_power(&power, &machine).map(|(_, report)| report),
                analyze_power_supervised(&power, &machine, &config).1,
            ),
        ];
        for (stage, strict, supervised) in cases {
            let failed = DegradeCause::Failed(strict.expect_err(stage).to_string());
            assert!(
                supervised
                    .degraded
                    .iter()
                    .any(|d| d.stage == stage && d.cause == failed),
                "{stage}: {:?}",
                supervised.degraded
            );
        }
    }

    #[test]
    fn power_workflow_recommends_levels_like_the_paper() {
        let machine = MachineConfig::altix300();
        let runs = power_runs();
        let trials: Vec<&Trial> = runs.iter().collect();
        let (table, result) = analyze_power(&trials, &machine).unwrap();
        assert_eq!(table.len(), 4);
        assert!((table[0].time - 1.0).abs() < 1e-9);
        // Time falls monotonically.
        assert!(table[3].time < table[1].time);
        // The three choice rules fired.
        assert!(result.report.fired("Low power choice"));
        assert!(result.report.fired("Low energy choice"));
        assert!(result.report.fired("Balanced power and energy choice"));
        // Low energy must be O2 or O3 (aggressive optimisation).
        let energy = &result.report.diagnoses_in("energy")[0];
        assert!(
            energy.message.contains("O3") || energy.message.contains("O2"),
            "{}",
            energy.message
        );
    }
}
