//! Cross-trial comparison.
//!
//! PerfExplorer's multi-experiment role (and CUBE's Performance Algebra,
//! cited in the paper's related work) is comparing trials: optimised vs
//! unoptimised, MPI vs OpenMP, this week vs last week. This module
//! computes per-event deltas over the profile algebra and emits facts a
//! regression rulebase can interpret.

use crate::result::TrialResult;
use crate::{AnalysisError, Result};
use perfdmf::{EventId, Trial, MAIN_EVENT};
use rayon::prelude::*;
use rules::{Fact, FactType, Value};
use serde::{Deserialize, Serialize};

/// One event's change between two trials.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EventDelta {
    /// Event name.
    pub event: String,
    /// Mean exclusive value in the baseline trial.
    pub baseline: f64,
    /// Mean exclusive value in the candidate trial.
    pub candidate: f64,
    /// `candidate / baseline` (∞-safe: huge when baseline is 0).
    pub ratio: f64,
    /// Share of the baseline total this event accounted for.
    pub baseline_share: f64,
}

/// Comparison of two trials over one metric.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TrialComparison {
    /// Metric compared.
    pub metric: String,
    /// Whole-program ratio `candidate / baseline` (elapsed).
    pub total_ratio: f64,
    /// Per-event deltas, sorted by |impact| (share × |1 − ratio|),
    /// largest first.
    pub deltas: Vec<EventDelta>,
}

/// Schema of the whole-trial comparison fact.
pub(crate) static COMPARISON_SUMMARY: FactType =
    FactType::new("ComparisonSummary", &["metric", "totalRatio"]);

/// Schema of the per-event comparison fact.
pub(crate) static EVENT_DELTA: FactType =
    FactType::new("EventDelta", &["eventName", "ratio", "baselineShare"]);

impl TrialComparison {
    /// Events that got at least `threshold`× slower.
    pub fn regressions(&self, threshold: f64) -> Vec<&EventDelta> {
        self.deltas
            .iter()
            .filter(|d| d.ratio >= threshold)
            .collect()
    }

    /// Events that got at least `1/threshold`× faster.
    pub fn improvements(&self, threshold: f64) -> Vec<&EventDelta> {
        self.deltas
            .iter()
            .filter(|d| d.ratio > 0.0 && d.ratio <= 1.0 / threshold)
            .collect()
    }

    /// Facts for rule-based interpretation.
    pub fn facts(&self) -> Vec<Fact> {
        let mut out = vec![COMPARISON_SUMMARY.fact([
            Value::from(self.metric.as_str()),
            Value::Num(self.total_ratio),
        ])];
        for d in &self.deltas {
            out.push(EVENT_DELTA.fact([
                Value::from(d.event.as_str()),
                Value::Num(d.ratio),
                Value::Num(d.baseline_share),
            ]));
        }
        out
    }
}

/// Compares `candidate` against `baseline` on the shared events of
/// `metric` (thread means). Thread counts may differ — means make the
/// comparison meaningful across scales, which is how the paper compares
/// a 16-thread OpenMP run with a 16-rank MPI run.
pub fn compare(baseline: &Trial, candidate: &Trial, metric: &str) -> Result<TrialComparison> {
    let bp = &baseline.profile;
    let cp = &candidate.profile;
    if bp.thread_count() == 0 || cp.thread_count() == 0 {
        return Err(AnalysisError::Invalid("profile has no threads".into()));
    }
    let bm = bp
        .metric_id(metric)
        .ok_or_else(|| AnalysisError::MissingMetric(metric.to_string()))?;
    let cm = cp
        .metric_id(metric)
        .ok_or_else(|| AnalysisError::MissingMetric(metric.to_string()))?;

    let total_base = TrialResult::new(baseline).elapsed(metric)?;
    let total_cand = TrialResult::new(candidate).elapsed(metric)?;
    if total_base <= 0.0 {
        return Err(AnalysisError::Invalid("baseline elapsed is zero".into()));
    }

    // Each baseline event resolves its candidate partner through the
    // interned lookup and takes its thread mean straight off each
    // profile's contiguous column view — no aggregated intermediate
    // profiles. Events are independent, so the sweep fans out over
    // rayon.
    let bn = bp.thread_count() as f64;
    let cn = cp.thread_count() as f64;
    let mut deltas: Vec<EventDelta> = (0..bp.event_count())
        .into_par_iter()
        .map(move |ei| {
            let be = EventId(ei as u32);
            let event = bp.event(be);
            if &*event.name == MAIN_EVENT {
                return None;
            }
            let ce = cp.event_id(&event.name)?;
            let b = bp.column(be, bm).iter().map(|m| m.exclusive).sum::<f64>() / bn;
            let c = cp.column(ce, cm).iter().map(|m| m.exclusive).sum::<f64>() / cn;
            if b == 0.0 && c == 0.0 {
                return None;
            }
            let ratio = if b > 0.0 { c / b } else { f64::INFINITY };
            Some(EventDelta {
                event: event.name.to_string(),
                baseline: b,
                candidate: c,
                ratio,
                baseline_share: (b / total_base).clamp(0.0, 1.0),
            })
        })
        .collect::<Vec<_>>()
        .into_iter()
        .flatten()
        .collect();
    deltas.sort_by(|a, b| {
        let impact = |d: &EventDelta| {
            let r = if d.ratio.is_finite() { d.ratio } else { 1e9 };
            d.baseline_share * (r - 1.0).abs()
        };
        impact(b)
            .partial_cmp(&impact(a))
            .unwrap_or(std::cmp::Ordering::Equal)
    });

    Ok(TrialComparison {
        metric: metric.to_string(),
        total_ratio: total_cand / total_base,
        deltas,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use apps::genidlest::{self, CodeVersion, GenIdlestConfig, Paradigm, Problem};
    use perfdmf::{Measurement, TrialBuilder};

    fn synthetic(name: &str, main_s: f64, k1: f64, k2: f64) -> Trial {
        let mut b = TrialBuilder::with_flat_threads(name, 2);
        let time = b.metric("TIME");
        let main = b.event("main");
        let e1 = b.event("main => k1");
        let e2 = b.event("main => k2");
        for t in 0..2 {
            b.set(
                main,
                time,
                t,
                Measurement {
                    inclusive: main_s,
                    exclusive: main_s - k1 - k2,
                    calls: 1.0,
                    subcalls: 2.0,
                },
            );
            b.set(e1, time, t, Measurement::leaf(k1));
            b.set(e2, time, t, Measurement::leaf(k2));
        }
        b.build()
    }

    #[test]
    fn detects_regressions_and_improvements() {
        let before = synthetic("before", 10.0, 4.0, 4.0);
        let after = synthetic("after", 9.0, 8.0, 0.5); // k1 2x slower, k2 8x faster
        let cmp = compare(&before, &after, "TIME").unwrap();
        assert!((cmp.total_ratio - 0.9).abs() < 1e-9);
        let regressions = cmp.regressions(1.5);
        assert_eq!(regressions.len(), 1);
        assert_eq!(regressions[0].event, "main => k1");
        assert_eq!(regressions[0].ratio, 2.0);
        let improvements = cmp.improvements(1.5);
        assert_eq!(improvements.len(), 1);
        assert_eq!(improvements[0].event, "main => k2");
    }

    #[test]
    fn deltas_sorted_by_impact() {
        let before = synthetic("before", 100.0, 50.0, 1.0);
        // k1 (50% share) slows 1.2x; k2 (1% share) slows 5x.
        let after = synthetic("after", 100.0, 60.0, 5.0);
        let cmp = compare(&before, &after, "TIME").unwrap();
        // impact k1 = 0.5 * 0.2 = 0.1; k2 = 0.01 * 4 = 0.04.
        assert_eq!(cmp.deltas[0].event, "main => k1");
    }

    #[test]
    fn optimized_genidlest_improves_exchange_most() {
        let mk = |version| {
            let mut c = GenIdlestConfig::new(Problem::Rib90, Paradigm::OpenMp, version, 16);
            c.timesteps = 2;
            genidlest::run(&c)
        };
        let unopt = mk(CodeVersion::Unoptimized);
        let opt = mk(CodeVersion::Optimized);
        let cmp = compare(&unopt, &opt, "TIME").unwrap();
        assert!(
            cmp.total_ratio < 0.2,
            "optimisation ratio {}",
            cmp.total_ratio
        );
        // Everything improved; nothing regressed.
        assert!(cmp.regressions(1.2).is_empty());
        assert!(!cmp.improvements(2.0).is_empty());
        // exchange_var is among the improved events.
        assert!(cmp
            .improvements(2.0)
            .iter()
            .any(|d| d.event.contains("exchange_var")));
    }

    #[test]
    fn events_missing_from_candidate_are_skipped() {
        let before = synthetic("before", 10.0, 4.0, 4.0);
        let mut b = TrialBuilder::with_flat_threads("after", 2);
        let time = b.metric("TIME");
        let main = b.event("main");
        let e1 = b.event("main => k1");
        for t in 0..2 {
            b.set(
                main,
                time,
                t,
                Measurement {
                    inclusive: 5.0,
                    exclusive: 1.0,
                    calls: 1.0,
                    subcalls: 1.0,
                },
            );
            b.set(e1, time, t, Measurement::leaf(4.0));
        }
        let after = b.build();
        let cmp = compare(&before, &after, "TIME").unwrap();
        assert_eq!(cmp.deltas.len(), 1);
        assert_eq!(cmp.deltas[0].event, "main => k1");
    }

    #[test]
    fn facts_and_errors() {
        let before = synthetic("b", 10.0, 4.0, 4.0);
        let after = synthetic("a", 10.0, 4.0, 4.0);
        let cmp = compare(&before, &after, "TIME").unwrap();
        let facts = cmp.facts();
        assert_eq!(facts[0].fact_type(), "ComparisonSummary");
        assert_eq!(facts.len(), 3);
        assert!(compare(&before, &after, "NOPE").is_err());
    }
}
