//! Workflow stage supervision: panic isolation, budgets, degradation.
//!
//! The paper's value proposition is *unattended* analysis — the expert's
//! knowledge runs without the expert present. That only holds if one
//! corrupt trial cannot take the whole pipeline down. Each §III
//! workflow is one stage pipeline run under one of two policies:
//! strict fails fast on the first stage error, supervised hands every
//! stage (fact derivation, metric chain, rule engine run) to a
//! [`Supervisor`] that
//!
//! * catches panics ([`std::panic::catch_unwind`]) and converts them
//!   into a [`DegradedStage`] record instead of unwinding the caller,
//! * converts stage errors into the same record, so one failed fact
//!   pass degrades the report instead of aborting it,
//! * checks a per-stage wall-clock budget *post hoc* (stages are never
//!   pre-empted — a stage that overruns completes, keeps its result,
//!   and is flagged),
//! * skips the stages reached after the run's deadline, and
//! * carries the rule-firing budget handed to the engine's cycle limit,
//!   so a runaway rulebase surfaces as a partial report plus a
//!   [`DegradeCause::RuleLimit`] entry.
//!
//! A supervised workflow never returns `Err` for data problems: it
//! returns a [`crate::workflow::CaseStudyReport`] whose `degraded` list
//! says exactly which conclusions are missing and why. On clean inputs
//! the list is empty and the report is byte-identical to the strict
//! workflow's. The supervised script runners share the same isolation
//! body.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};

/// Budgets applied to every supervised stage.
#[derive(Debug, Clone)]
pub struct SupervisorConfig {
    /// Wall-clock budget per stage. Checked after the stage returns
    /// (no pre-emption): an overrunning stage keeps its result but is
    /// recorded as degraded.
    pub stage_wall_budget: Duration,
    /// Rule-firing budget for engine stages, applied as the engine's
    /// cycle limit. Matches the engine's own default so clean runs
    /// behave identically.
    pub rule_firing_budget: usize,
    /// Whole-run deadline, measured from [`Supervisor::new`]. Once it
    /// passes, remaining stages are *skipped* (recorded as
    /// [`DegradeCause::DeadlineExceeded`]) instead of started, so a
    /// request past its deadline yields a typed partial report rather
    /// than a worker stuck in further work nobody is waiting for.
    /// `None` (the default) disables the deadline.
    pub deadline: Option<Duration>,
}

impl Default for SupervisorConfig {
    fn default() -> Self {
        SupervisorConfig {
            stage_wall_budget: Duration::from_secs(30),
            rule_firing_budget: 100_000,
            deadline: None,
        }
    }
}

/// Why a stage's contribution is missing (or suspect) in the report.
#[derive(Debug, Clone, PartialEq)]
pub enum DegradeCause {
    /// The stage panicked; the payload is the panic message.
    Panicked(String),
    /// The stage returned an error.
    Failed(String),
    /// The stage completed but exceeded its wall-clock budget. Its
    /// result was kept.
    BudgetExceeded {
        /// How long the stage actually took.
        elapsed: Duration,
        /// The configured budget it exceeded.
        budget: Duration,
    },
    /// The rule engine hit its firing budget; the report holds the
    /// partial run up to that point.
    RuleLimit {
        /// The firing budget that was exhausted.
        limit: usize,
    },
    /// The stage was skipped because a stage it depends on degraded.
    SkippedUpstream {
        /// Name of the upstream stage that made this one unrunnable.
        dependency: String,
    },
    /// The run's deadline passed before this stage could start; the
    /// stage was skipped and the report holds whatever completed first.
    DeadlineExceeded {
        /// Time already spent in the run when the stage was reached.
        elapsed: Duration,
        /// The deadline that had passed.
        deadline: Duration,
    },
}

/// One degraded stage: which stage, and why.
#[derive(Debug, Clone, PartialEq)]
pub struct DegradedStage {
    /// Stage name, e.g. `"stall-rate facts"`.
    pub stage: String,
    /// Why the stage degraded.
    pub cause: DegradeCause,
}

impl std::fmt::Display for DegradedStage {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match &self.cause {
            DegradeCause::Panicked(msg) => write!(f, "{}: panicked: {}", self.stage, msg),
            DegradeCause::Failed(msg) => write!(f, "{}: failed: {}", self.stage, msg),
            DegradeCause::BudgetExceeded { elapsed, budget } => write!(
                f,
                "{}: exceeded wall budget ({:?} > {:?}; result kept)",
                self.stage, elapsed, budget
            ),
            DegradeCause::RuleLimit { limit } => write!(
                f,
                "{}: rule-firing budget of {} exhausted (partial report)",
                self.stage, limit
            ),
            DegradeCause::SkippedUpstream { dependency } => {
                write!(f, "{}: skipped ({} degraded)", self.stage, dependency)
            }
            DegradeCause::DeadlineExceeded { elapsed, deadline } => write!(
                f,
                "{}: skipped, deadline exceeded ({:?} elapsed > {:?} deadline; partial report)",
                self.stage, elapsed, deadline
            ),
        }
    }
}

/// Extracts a human-readable message from a panic payload.
pub fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Runs `f` under panic isolation: its value, or the [`DegradedStage`]
/// recording `stage`'s error (its display text, unprefixed) or panic.
pub(crate) fn isolate<T, E: std::fmt::Display>(
    stage: &str,
    f: impl FnOnce() -> Result<T, E>,
) -> Result<T, DegradedStage> {
    let cause = match catch_unwind(AssertUnwindSafe(f)) {
        Ok(Ok(v)) => return Ok(v),
        Ok(Err(e)) => DegradeCause::Failed(e.to_string()),
        Err(payload) => DegradeCause::Panicked(panic_message(payload)),
    };
    let stage = stage.to_string();
    Err(DegradedStage { stage, cause })
}

/// Runs workflow stages under panic isolation and budgets, collecting
/// the degradation record.
#[derive(Debug)]
pub struct Supervisor {
    config: SupervisorConfig,
    degraded: Vec<DegradedStage>,
    /// When the run started; the deadline is measured from here.
    started: Instant,
}

impl Supervisor {
    /// A supervisor with the given budgets. The deadline clock starts
    /// now.
    pub fn new(config: SupervisorConfig) -> Self {
        Supervisor {
            config,
            degraded: Vec::new(),
            started: Instant::now(),
        }
    }

    /// The configured budgets.
    pub fn config(&self) -> &SupervisorConfig {
        &self.config
    }

    /// Runs one stage. Returns its value on success; on panic, error,
    /// or budget overrun the outcome is recorded in the degradation
    /// list (an overrunning stage still returns its value). A stage
    /// reached after the run deadline is skipped entirely — the typed
    /// [`DegradeCause::DeadlineExceeded`] entry marks the report as a
    /// deadline-partial.
    pub fn run_stage<T>(&mut self, stage: &str, f: impl FnOnce() -> crate::Result<T>) -> Option<T> {
        let elapsed = self.started.elapsed();
        if let Some(deadline) = self.config.deadline.filter(|&d| elapsed > d) {
            self.record(stage, DegradeCause::DeadlineExceeded { elapsed, deadline });
            return None;
        }
        let start = Instant::now();
        let value = isolate(stage, f).map_err(|e| self.degraded.push(e)).ok()?;
        let (elapsed, budget) = (start.elapsed(), self.config.stage_wall_budget);
        if elapsed > budget {
            self.record(stage, DegradeCause::BudgetExceeded { elapsed, budget });
        }
        Some(value)
    }

    /// Records that `stage` was skipped because `dependency` degraded.
    pub fn skip_stage(&mut self, stage: &str, dependency: &str) {
        let dependency = dependency.to_string();
        self.record(stage, DegradeCause::SkippedUpstream { dependency });
    }

    fn record(&mut self, stage: &str, cause: DegradeCause) {
        let stage = stage.to_string();
        self.degraded.push(DegradedStage { stage, cause });
    }

    /// Records an externally observed degradation (e.g. a rule-limit
    /// recovery performed inside a stage).
    pub fn note(&mut self, stage: DegradedStage) {
        self.degraded.push(stage);
    }

    /// The degradation record so far.
    pub fn degraded(&self) -> &[DegradedStage] {
        &self.degraded
    }

    /// Consumes the supervisor, yielding the degradation record.
    pub fn into_degraded(self) -> Vec<DegradedStage> {
        self.degraded
    }
}

/// Runs a rule engine to completion under the firing budget. A run
/// that stops part-way — the budget is spent, or a rule action fails —
/// keeps what it fired before the stop. Returns the report plus the
/// degradation entry to record, if any.
pub(crate) fn run_engine_budgeted(
    engine: &mut rules::Engine,
    stage: &str,
) -> (rules::RunReport, Option<DegradedStage>) {
    let e = match engine.run() {
        Ok(report) => return (report, None),
        Err(e) => e,
    };
    let cause = match &e {
        rules::RuleError::CycleLimit { limit, .. } => DegradeCause::RuleLimit { limit: *limit },
        other => DegradeCause::Failed(other.to_string()),
    };
    let report = e.into_partial_report().unwrap_or_default();
    let stage = stage.to_string();
    (report, Some(DegradedStage { stage, cause }))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::AnalysisError;

    #[test]
    fn successful_stage_returns_value_and_stays_clean() {
        let mut sup = Supervisor::new(SupervisorConfig::default());
        let v = sup.run_stage("ok", || Ok(41 + 1));
        assert_eq!(v, Some(42));
        assert!(sup.degraded().is_empty());
    }

    #[test]
    fn failing_stage_records_error() {
        let mut sup = Supervisor::new(SupervisorConfig::default());
        let v: Option<()> =
            sup.run_stage("boom", || Err(AnalysisError::Invalid("bad input".into())));
        assert!(v.is_none());
        assert_eq!(sup.degraded().len(), 1);
        assert_eq!(sup.degraded()[0].stage, "boom");
        assert!(matches!(sup.degraded()[0].cause, DegradeCause::Failed(_)));
        assert!(sup.degraded()[0].to_string().contains("bad input"));
    }

    #[test]
    fn panicking_stage_is_isolated() {
        let mut sup = Supervisor::new(SupervisorConfig::default());
        let v: Option<()> = sup.run_stage("panics", || panic!("index out of bounds: simulated"));
        assert!(v.is_none());
        assert!(matches!(
            &sup.degraded()[0].cause,
            DegradeCause::Panicked(msg) if msg.contains("simulated")
        ));
        // The supervisor itself survives and can run further stages.
        assert_eq!(sup.run_stage("after", || Ok(1)), Some(1));
        assert_eq!(sup.degraded().len(), 1);
    }

    #[test]
    fn budget_overrun_keeps_value_but_is_recorded() {
        let mut sup = Supervisor::new(SupervisorConfig {
            stage_wall_budget: Duration::from_nanos(1),
            ..SupervisorConfig::default()
        });
        let v = sup.run_stage("slow", || {
            std::thread::sleep(Duration::from_millis(2));
            Ok(7)
        });
        assert_eq!(v, Some(7));
        assert!(matches!(
            sup.degraded()[0].cause,
            DegradeCause::BudgetExceeded { .. }
        ));
        assert!(sup.degraded()[0].to_string().contains("result kept"));
    }

    #[test]
    fn expired_deadline_skips_stage_with_typed_cause() {
        let mut sup = Supervisor::new(SupervisorConfig {
            deadline: Some(Duration::from_nanos(1)),
            ..SupervisorConfig::default()
        });
        std::thread::sleep(Duration::from_millis(2));
        let ran = std::cell::Cell::new(false);
        let v = sup.run_stage("late", || {
            ran.set(true);
            Ok(7)
        });
        assert_eq!(v, None, "stage past the deadline must not run");
        assert!(!ran.get(), "closure never invoked");
        assert!(matches!(
            sup.degraded()[0].cause,
            DegradeCause::DeadlineExceeded { .. }
        ));
        assert!(sup.degraded()[0].to_string().contains("deadline exceeded"));
    }

    #[test]
    fn unexpired_deadline_leaves_stages_untouched() {
        let mut sup = Supervisor::new(SupervisorConfig {
            deadline: Some(Duration::from_secs(3600)),
            ..SupervisorConfig::default()
        });
        assert_eq!(sup.run_stage("fine", || Ok(1)), Some(1));
        assert!(sup.degraded().is_empty());
    }

    #[test]
    fn no_deadline_means_no_skipping() {
        let mut sup = Supervisor::new(SupervisorConfig::default());
        assert_eq!(sup.run_stage("fine", || Ok(2)), Some(2));
        assert!(sup.degraded().is_empty());
    }

    #[test]
    fn skip_stage_records_dependency() {
        let mut sup = Supervisor::new(SupervisorConfig::default());
        sup.skip_stage("stall-rate facts", "derivation");
        let entry = &sup.degraded()[0];
        assert!(matches!(
            &entry.cause,
            DegradeCause::SkippedUpstream { dependency } if dependency == "derivation"
        ));
        assert!(entry.to_string().contains("skipped"));
    }

    #[test]
    fn rule_limit_recovery_keeps_partial_report() {
        // A rule that re-asserts a fresh fact each firing never
        // reaches quiescence; the budget must cut it off and keep the
        // partial run.
        let mut engine = rules::Engine::new().with_cycle_limit(10);
        engine
            .add_rule(
                rules::Rule::builder("runaway")
                    .when(rules::Pattern::new("Seed").bind("n", "n"))
                    .then(|ctx| {
                        let n = ctx.var("n").and_then(rules::Value::as_num).unwrap_or(0.0);
                        ctx.assert_fact(rules::Fact::new("Seed").with("n", n + 1.0));
                    }),
            )
            .unwrap();
        engine.assert_fact(rules::Fact::new("Seed").with("n", 0.0));
        let (report, degraded) = run_engine_budgeted(&mut engine, "rule engine");
        let entry = degraded.expect("runaway must trip the budget");
        assert!(matches!(entry.cause, DegradeCause::RuleLimit { limit: 10 }));
        assert!(!report.firings.is_empty(), "partial report kept");
    }

    #[test]
    fn failing_rule_action_keeps_earlier_conclusions() {
        // The salience-10 rule prints and diagnoses; the second rule's
        // action reads a variable its LHS never binds. The run stops at
        // the second rule, but the first rule's conclusions survive.
        let src = r#"
rule "first" salience 10
when
    Seed( n : n )
then
    print("seed " + n);
    diagnose("cat", "seen " + n);
end

rule "broken"
when
    Seed( n : n )
then
    print("never " + missing);
end
"#;
        let mut engine = rules::Engine::new();
        engine.add_rules(rules::drl::parse(src).unwrap()).unwrap();
        engine.assert_fact(rules::Fact::new("Seed").with("n", 1.0));
        let (report, degraded) = run_engine_budgeted(&mut engine, "rule engine");
        let entry = degraded.expect("the failing action is recorded");
        assert!(
            matches!(&entry.cause, DegradeCause::Failed(msg) if msg.contains("$missing")),
            "{entry}"
        );
        assert_eq!(report.printed, vec!["seed 1"]);
        assert_eq!(report.diagnoses.len(), 1);
        assert_eq!(report.diagnoses[0].message, "seen 1");
        let fired: Vec<&str> = report.firings.iter().map(|f| f.rule.as_str()).collect();
        assert_eq!(fired, ["first"]);
    }
}
