//! Speedup and relative-efficiency analysis across trial series.
//!
//! Figures 4(b), 5(a) and 5(b) are all scaling studies: a series of
//! trials at increasing processor counts, reduced to speedup or
//! efficiency — whole-program or per-event.

use crate::result::TrialResult;
use crate::{AnalysisError, Result};
use perfdmf::Trial;
use serde::{Deserialize, Serialize};

/// One point of a scaling series.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ScalePoint {
    /// Processor (thread/rank) count.
    pub procs: usize,
    /// Elapsed metric value at this count.
    pub value: f64,
    /// Speedup vs the series baseline.
    pub speedup: f64,
    /// Relative efficiency `speedup / (procs / base_procs)`.
    pub efficiency: f64,
}

/// A whole scaling series.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ScalingSeries {
    /// What the series measures (event name or `"main"`).
    pub subject: String,
    /// The points, in ascending processor count.
    pub points: Vec<ScalePoint>,
}

impl ScalingSeries {
    /// Efficiency at the largest processor count.
    pub fn final_efficiency(&self) -> f64 {
        self.points.last().map(|p| p.efficiency).unwrap_or(0.0)
    }

    /// Speedup at the largest processor count.
    pub fn final_speedup(&self) -> f64 {
        self.points.last().map(|p| p.speedup).unwrap_or(0.0)
    }
}

fn build_series(subject: &str, mut raw: Vec<(usize, f64)>) -> Result<ScalingSeries> {
    if raw.is_empty() {
        return Err(AnalysisError::Invalid(format!(
            "empty scaling series for {subject:?}"
        )));
    }
    raw.sort_by_key(|(p, _)| *p);
    let (base_procs, base_value) = raw[0];
    if base_value <= 0.0 {
        return Err(AnalysisError::Invalid(format!(
            "baseline value for {subject:?} is not positive"
        )));
    }
    let points = raw
        .into_iter()
        .map(|(procs, value)| {
            let speedup = if value > 0.0 { base_value / value } else { 0.0 };
            let ideal = procs as f64 / base_procs as f64;
            ScalePoint {
                procs,
                value,
                speedup,
                efficiency: if ideal > 0.0 { speedup / ideal } else { 0.0 },
            }
        })
        .collect();
    Ok(ScalingSeries {
        subject: subject.to_string(),
        points,
    })
}

/// Whole-program scaling: elapsed = max inclusive `main` per trial;
/// trials are `(procs, trial)` pairs.
pub fn whole_program(trials: &[(usize, &Trial)], metric: &str) -> Result<ScalingSeries> {
    let raw = trials
        .iter()
        .map(|(p, t)| Ok((*p, TrialResult::new(t).elapsed(metric)?)))
        .collect::<Result<Vec<_>>>()?;
    build_series("main", raw)
}

/// Per-event scaling of one event's mean exclusive value across threads.
pub fn per_event(trials: &[(usize, &Trial)], metric: &str, event: &str) -> Result<ScalingSeries> {
    let raw = trials
        .iter()
        .map(|(p, t)| {
            let r = TrialResult::new(t);
            let values = r.exclusive(event, metric)?;
            let mean = values.iter().sum::<f64>() / values.len().max(1) as f64;
            Ok((*p, mean))
        })
        .collect::<Result<Vec<_>>>()?;
    build_series(event, raw)
}

/// Per-event *speedup* the way Figure 5(a) plots it: the event's
/// critical-path (max-across-threads) **inclusive** time per trial, so a
/// procedure is credited with its children (`exchange_var` includes its
/// serial `mpi_send_recv_ko` child).
pub fn per_event_total(
    trials: &[(usize, &Trial)],
    metric: &str,
    event: &str,
) -> Result<ScalingSeries> {
    let raw = trials
        .iter()
        .map(|(p, t)| {
            let r = TrialResult::new(t);
            let values = r.inclusive(event, metric)?;
            // Max across threads = the event's critical-path time.
            let worst = values.iter().copied().fold(0.0, f64::max);
            Ok((*p, worst))
        })
        .collect::<Result<Vec<_>>>()?;
    build_series(event, raw)
}

/// Schema of the per-series scaling fact.
pub(crate) static SCALING_FACT: rules::FactType = rules::FactType::new(
    "ScalingFact",
    &["eventName", "finalSpeedup", "finalEfficiency", "maxProcs"],
);

/// Facts for scaling rules: one `ScalingFact` per series.
pub fn scaling_facts(series: &[ScalingSeries]) -> Vec<rules::Fact> {
    series
        .iter()
        .map(|s| {
            SCALING_FACT.fact([
                rules::Value::from(s.subject.as_str()),
                rules::Value::Num(s.final_speedup()),
                rules::Value::Num(s.final_efficiency()),
                rules::Value::from(s.points.last().map(|p| p.procs).unwrap_or(0)),
            ])
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use perfdmf::{Measurement, TrialBuilder};

    fn trial(procs: usize, main_time: f64, kernel_time: f64) -> Trial {
        let mut b = TrialBuilder::with_flat_threads(format!("{procs}"), procs);
        let time = b.metric("TIME");
        let main = b.event("main");
        let k = b.event("main => k");
        for t in 0..procs {
            b.set(
                main,
                time,
                t,
                Measurement {
                    inclusive: main_time,
                    exclusive: main_time - kernel_time,
                    calls: 1.0,
                    subcalls: 1.0,
                },
            );
            b.set(k, time, t, Measurement::leaf(kernel_time));
        }
        b.build()
    }

    #[test]
    fn perfect_scaling_is_efficiency_one() {
        let t1 = trial(1, 16.0, 8.0);
        let t4 = trial(4, 4.0, 2.0);
        let t16 = trial(16, 1.0, 0.5);
        let series = whole_program(&[(1, &t1), (4, &t4), (16, &t16)], "TIME").unwrap();
        assert_eq!(series.points.len(), 3);
        assert!((series.points[2].speedup - 16.0).abs() < 1e-9);
        assert!((series.final_efficiency() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn flat_series_has_speedup_one() {
        let t1 = trial(1, 10.0, 5.0);
        let t8 = trial(8, 10.0, 5.0);
        let series = whole_program(&[(1, &t1), (8, &t8)], "TIME").unwrap();
        assert!((series.final_speedup() - 1.0).abs() < 1e-9);
        assert!((series.final_efficiency() - 0.125).abs() < 1e-9);
    }

    #[test]
    fn unsorted_input_is_sorted_by_procs() {
        let t1 = trial(1, 8.0, 4.0);
        let t2 = trial(2, 4.0, 2.0);
        let series = whole_program(&[(2, &t2), (1, &t1)], "TIME").unwrap();
        assert_eq!(series.points[0].procs, 1);
        assert_eq!(series.points[1].procs, 2);
    }

    #[test]
    fn per_event_uses_event_values() {
        let t1 = trial(1, 10.0, 8.0);
        let t4 = trial(4, 10.0, 2.0); // kernel scales, main does not
        let ev = per_event(&[(1, &t1), (4, &t4)], "TIME", "main => k").unwrap();
        assert!((ev.final_speedup() - 4.0).abs() < 1e-9);
        let whole = whole_program(&[(1, &t1), (4, &t4)], "TIME").unwrap();
        assert!((whole.final_speedup() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn per_event_total_uses_critical_path() {
        // Imbalanced at 2 threads: one thread does all kernel work.
        let mut b = TrialBuilder::with_flat_threads("2", 2);
        let time = b.metric("TIME");
        let main = b.event("main");
        let k = b.event("main => k");
        b.set(
            main,
            time,
            0,
            Measurement {
                inclusive: 8.0,
                exclusive: 0.0,
                calls: 1.0,
                subcalls: 1.0,
            },
        );
        b.set(
            main,
            time,
            1,
            Measurement {
                inclusive: 8.0,
                exclusive: 8.0,
                calls: 1.0,
                subcalls: 0.0,
            },
        );
        b.set(k, time, 0, Measurement::leaf(8.0));
        b.set(k, time, 1, Measurement::leaf(0.0));
        let t2 = b.build();
        let t1 = trial(1, 8.0, 8.0);
        let series = per_event_total(&[(1, &t1), (2, &t2)], "TIME", "main => k").unwrap();
        // Critical path unchanged: no speedup despite mean halving.
        assert!((series.final_speedup() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn errors_for_empty_and_nonpositive_baseline() {
        assert!(matches!(
            whole_program(&[], "TIME"),
            Err(AnalysisError::Invalid(_))
        ));
        let z = trial(1, 0.0, 0.0);
        assert!(whole_program(&[(1, &z)], "TIME").is_err());
    }

    #[test]
    fn scaling_facts_expose_summary_fields() {
        let t1 = trial(1, 8.0, 4.0);
        let t8 = trial(8, 1.0, 0.5);
        let s = whole_program(&[(1, &t1), (8, &t8)], "TIME").unwrap();
        let facts = scaling_facts(&[s]);
        assert_eq!(facts.len(), 1);
        assert_eq!(facts[0].get_str("eventName"), Some("main"));
        assert_eq!(facts[0].get_num("maxProcs"), Some(8.0));
        assert!((facts[0].get_num("finalSpeedup").unwrap() - 8.0).abs() < 1e-9);
    }
}
