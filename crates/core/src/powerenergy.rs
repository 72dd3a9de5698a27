//! Power and energy analysis (§III-C) and Table I generation.
//!
//! Applies the counter-based power model (paper Eq. 1–2) to trials,
//! aggregates across processors, and produces the relative-difference
//! table the paper reports for O0–O3.

use crate::result::TrialResult;
use crate::{AnalysisError, Result};
use perfdmf::Trial;
use rules::{Fact, FactType, Value};
use serde::{Deserialize, Serialize};
use simulator::machine::MachineConfig;
use simulator::power::PowerModel;
use simulator::{Counter, CounterSet};

/// Power/energy reading of one trial.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TrialPower {
    /// Trial name (e.g. the optimisation level).
    pub trial: String,
    /// Elapsed seconds.
    pub seconds: f64,
    /// Instructions completed (sum over processors).
    pub instructions_completed: f64,
    /// Instructions issued (sum over processors).
    pub instructions_issued: f64,
    /// Completed IPC (mean per processor).
    pub ipc_completed: f64,
    /// Issued IPC (mean per processor).
    pub ipc_issued: f64,
    /// Total watts across processors.
    pub watts: f64,
    /// Total joules across processors.
    pub joules: f64,
    /// FLOP per joule.
    pub flop_per_joule: f64,
}

/// Reads a trial's `main` counters on one thread.
fn thread_counters(trial: &Trial, thread: usize) -> Result<CounterSet> {
    let r = TrialResult::new(trial);
    let main = r.event(perfdmf::MAIN_EVENT)?;
    let mut set = CounterSet::new();
    for counter in Counter::all() {
        if let Some(m) = trial.profile.metric_id(counter.metric_name()) {
            if let Some(cell) = trial.profile.get(main, m, thread) {
                set.set(*counter, cell.inclusive);
            }
        }
    }
    Ok(set)
}

/// Computes the power/energy reading of a trial using the machine's
/// Itanium 2 power model.
pub fn trial_power(trial: &Trial, machine: &MachineConfig) -> Result<TrialPower> {
    let r = TrialResult::new(trial);
    let seconds = r.elapsed("TIME")?;
    let model = PowerModel::itanium2(machine);
    let threads = trial.profile.thread_count();
    if threads == 0 {
        return Err(AnalysisError::Invalid("trial has no threads".into()));
    }
    let mut readings = Vec::with_capacity(threads);
    let mut inst_completed = 0.0;
    let mut inst_issued = 0.0;
    let mut fp_ops = 0.0;
    let mut cycles = 0.0;
    for t in 0..threads {
        let counters = thread_counters(trial, t)?;
        inst_completed += counters.get(Counter::InstCompleted);
        inst_issued += counters.get(Counter::InstIssued);
        fp_ops += counters.get(Counter::FpOps);
        cycles += counters.get(Counter::CpuCycles);
        readings.push(model.reading(&counters, machine));
    }
    let total = PowerModel::aggregate(&readings);
    Ok(TrialPower {
        trial: trial.name.clone(),
        seconds,
        instructions_completed: inst_completed,
        instructions_issued: inst_issued,
        ipc_completed: if cycles > 0.0 {
            inst_completed / cycles
        } else {
            0.0
        },
        ipc_issued: if cycles > 0.0 {
            inst_issued / cycles
        } else {
            0.0
        },
        watts: total.watts,
        joules: total.joules,
        flop_per_joule: if total.joules > 0.0 {
            fp_ops / total.joules
        } else {
            0.0
        },
    })
}

/// One row of the Table I analogue, relative to the first (baseline)
/// trial.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RelativeRow {
    /// Trial (level) name.
    pub trial: String,
    /// Relative elapsed time.
    pub time: f64,
    /// Relative instructions completed.
    pub instructions_completed: f64,
    /// Relative instructions issued.
    pub instructions_issued: f64,
    /// Relative completed IPC.
    pub ipc_completed: f64,
    /// Relative issued IPC.
    pub ipc_issued: f64,
    /// Relative watts.
    pub watts: f64,
    /// Relative joules.
    pub joules: f64,
    /// Relative FLOP/joule.
    pub flop_per_joule: f64,
}

/// Builds the relative table over a series of trials; the first element
/// is the baseline (the paper's O0).
pub fn relative_table(readings: &[TrialPower]) -> Result<Vec<RelativeRow>> {
    let base = readings
        .first()
        .ok_or_else(|| AnalysisError::Invalid("empty power series".into()))?;
    let rel = |v: f64, b: f64| if b != 0.0 { v / b } else { 0.0 };
    Ok(readings
        .iter()
        .map(|r| RelativeRow {
            trial: r.trial.clone(),
            time: rel(r.seconds, base.seconds),
            instructions_completed: rel(r.instructions_completed, base.instructions_completed),
            instructions_issued: rel(r.instructions_issued, base.instructions_issued),
            ipc_completed: rel(r.ipc_completed, base.ipc_completed),
            ipc_issued: rel(r.ipc_issued, base.ipc_issued),
            watts: rel(r.watts, base.watts),
            joules: rel(r.joules, base.joules),
            flop_per_joule: rel(r.flop_per_joule, base.flop_per_joule),
        })
        .collect())
}

/// Schema of the per-trial power fact.
pub(crate) static POWER_FACT: FactType = FactType::new(
    "PowerFact",
    &[
        "trial",
        "relTime",
        "relWatts",
        "relJoules",
        "relFlopPerJoule",
        "isMinPower",
        "isMinEnergy",
        "isBalanced",
    ],
);

/// Facts for the power rulebase: one per trial with relative values and
/// selection flags. `isMinPower` / `isMinEnergy` mark the rows with the
/// lowest relative watts / joules; `isBalanced` marks the row minimising
/// their product — the workflow-level comparisons whose outcome the
/// paper summarises as "O0 … for low power, O3 … for low energy, and O2
/// for both".
pub fn power_facts(rows: &[RelativeRow]) -> Vec<Fact> {
    let min_by = |f: fn(&RelativeRow) -> f64| -> Option<usize> {
        rows.iter()
            .enumerate()
            .min_by(|(_, a), (_, b)| f(a).partial_cmp(&f(b)).unwrap_or(std::cmp::Ordering::Equal))
            .map(|(i, _)| i)
    };
    let min_power = min_by(|r| r.watts);
    let min_energy = min_by(|r| r.joules);
    let balanced = min_by(|r| r.watts * r.joules);
    rows.iter()
        .enumerate()
        .map(|(i, r)| {
            POWER_FACT.fact([
                Value::from(r.trial.as_str()),
                Value::Num(r.time),
                Value::Num(r.watts),
                Value::Num(r.joules),
                Value::Num(r.flop_per_joule),
                Value::Bool(Some(i) == min_power),
                Value::Bool(Some(i) == min_energy),
                Value::Bool(Some(i) == balanced),
            ])
        })
        .collect()
}

/// Renders the relative table in the paper's row order.
pub fn render_table(rows: &[RelativeRow]) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "{:<34}{}\n",
        "Metric",
        rows.iter()
            .map(|r| format!("{:>9}", r.trial))
            .collect::<String>()
    ));
    type RowAccessor = fn(&RelativeRow) -> f64;
    let metric_rows: [(&str, RowAccessor); 8] = [
        ("Time", |r| r.time),
        ("Instructions Completed", |r| r.instructions_completed),
        ("Instructions Issued", |r| r.instructions_issued),
        ("Instructions Completed Per Cycle", |r| r.ipc_completed),
        ("Instructions Issued Per Cycle", |r| r.ipc_issued),
        ("Watts", |r| r.watts),
        ("Joules", |r| r.joules),
        ("FLOP/Joule", |r| r.flop_per_joule),
    ];
    for (name, f) in metric_rows {
        out.push_str(&format!(
            "{:<34}{}\n",
            name,
            rows.iter()
                .map(|r| format!("{:>9.3}", f(r)))
                .collect::<String>()
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use perfdmf::{Measurement, TrialBuilder};

    fn trial(name: &str, seconds: f64, inst: f64, cycles: f64, fp: f64) -> Trial {
        let mut b = TrialBuilder::with_ranks(name, 2);
        let metrics = [
            ("TIME", seconds),
            ("CPU_CYCLES", cycles),
            ("INST_COMPLETED", inst),
            ("INST_ISSUED", inst * 1.3),
            ("FP_OPS", fp),
        ];
        let main = b.event("main");
        for (metric, v) in metrics {
            let m = b.metric(metric);
            for t in 0..2 {
                b.set(
                    main,
                    m,
                    t,
                    Measurement {
                        inclusive: v,
                        exclusive: v,
                        calls: 1.0,
                        subcalls: 0.0,
                    },
                );
            }
        }
        b.build()
    }

    fn machine() -> MachineConfig {
        MachineConfig::altix300()
    }

    #[test]
    fn trial_power_aggregates_processors() {
        let t = trial("O0", 2.0, 4e9, 2.6e9, 1e9);
        let p = trial_power(&t, &machine()).unwrap();
        assert_eq!(p.seconds, 2.0);
        assert_eq!(p.instructions_completed, 8e9); // 2 ranks
        assert!((p.ipc_completed - 4e9 / 2.6e9).abs() < 1e-9);
        assert!(p.watts > 2.0 * machine().idle_watts);
        assert!(p.joules > 0.0);
        assert!(p.flop_per_joule > 0.0);
    }

    #[test]
    fn relative_table_baseline_is_one() {
        let m = machine();
        let r0 = trial_power(&trial("O0", 4.0, 8e9, 5.2e9, 1e9), &m).unwrap();
        let r2 = trial_power(&trial("O2", 0.3, 0.5e9, 0.4e9, 1e9), &m).unwrap();
        let table = relative_table(&[r0, r2]).unwrap();
        let base = &table[0];
        assert!((base.time - 1.0).abs() < 1e-12);
        assert!((base.joules - 1.0).abs() < 1e-12);
        let o2 = &table[1];
        assert!(o2.time < 0.1);
        assert!(o2.joules < o2.watts, "energy falls much faster than power");
        assert!(o2.flop_per_joule > 1.0);
    }

    #[test]
    fn faster_run_same_instructions_uses_less_energy_more_power() {
        let m = machine();
        let slow = trial_power(&trial("slow", 4.0, 4e9, 5.2e9, 1e9), &m).unwrap();
        let fast = trial_power(&trial("fast", 2.0, 4e9, 2.6e9, 1e9), &m).unwrap();
        assert!(fast.watts > slow.watts);
        assert!(fast.joules < slow.joules);
    }

    #[test]
    fn empty_series_is_error() {
        assert!(relative_table(&[]).is_err());
    }

    #[test]
    fn render_contains_paper_metric_names() {
        let m = machine();
        let r0 = trial_power(&trial("O0", 4.0, 8e9, 5.2e9, 1e9), &m).unwrap();
        let table = relative_table(&[r0]).unwrap();
        let text = render_table(&table);
        for label in [
            "Time",
            "Instructions Completed",
            "Instructions Issued Per Cycle",
            "Watts",
            "Joules",
            "FLOP/Joule",
        ] {
            assert!(text.contains(label), "missing {label}");
        }
        assert!(text.contains("O0"));
    }

    #[test]
    fn power_facts_fields() {
        let m = machine();
        let r0 = trial_power(&trial("O0", 4.0, 8e9, 5.2e9, 1e9), &m).unwrap();
        let facts = power_facts(&relative_table(&[r0]).unwrap());
        assert_eq!(facts[0].get_str("trial"), Some("O0"));
        assert_eq!(facts[0].get_num("relTime"), Some(1.0));
    }
}
