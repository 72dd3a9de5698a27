//! Derived metrics.
//!
//! PerfExplorer's `DeriveMetricOperation` builds new metrics from
//! measured ones — the paper's Figure 1 derives the stall-per-cycle
//! inefficiency metric with `DIVIDE`. Derived metric names follow the
//! same parenthesised convention, e.g.
//! `(BACK_END_BUBBLE_ALL / CPU_CYCLES)`, so rules can match on them.

use crate::{AnalysisError, Result};
use perfdmf::{EventId, Measurement, Metric, Trial};
use rayon::prelude::*;

/// The arithmetic applied cell-wise to two metrics.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DeriveOp {
    /// `a + b`
    Add,
    /// `a - b`
    Subtract,
    /// `a * b`
    Multiply,
    /// `a / b` (0 when the denominator is 0).
    Divide,
}

impl DeriveOp {
    fn symbol(&self) -> &'static str {
        match self {
            DeriveOp::Add => "+",
            DeriveOp::Subtract => "-",
            DeriveOp::Multiply => "*",
            DeriveOp::Divide => "/",
        }
    }

    fn apply(&self, a: f64, b: f64) -> f64 {
        match self {
            DeriveOp::Add => a + b,
            DeriveOp::Subtract => a - b,
            DeriveOp::Multiply => a * b,
            DeriveOp::Divide => {
                if b == 0.0 {
                    0.0
                } else {
                    a / b
                }
            }
        }
    }
}

/// The derived metric's conventional name.
pub fn derived_name(lhs: &str, op: DeriveOp, rhs: &str) -> String {
    format!("({} {} {})", lhs, op.symbol(), rhs)
}

/// Adds `({lhs} {op} {rhs})` to the trial, computed cell-wise over every
/// event and thread (inclusive with inclusive, exclusive with
/// exclusive). Returns the new metric's name. Re-deriving an existing
/// metric is a no-op returning the same name.
pub fn derive_metric(trial: &mut Trial, lhs: &str, op: DeriveOp, rhs: &str) -> Result<String> {
    let name = derived_name(lhs, op, rhs);
    if trial.profile.metric_id(&name).is_some() {
        return Ok(name);
    }
    let ml = trial
        .profile
        .metric_id(lhs)
        .ok_or_else(|| AnalysisError::MissingMetric(lhs.to_string()))?;
    let mr = trial
        .profile
        .metric_id(rhs)
        .ok_or_else(|| AnalysisError::MissingMetric(rhs.to_string()))?;
    let out = trial.profile.add_metric(Metric::derived(&name))?;
    // Compute each event's derived column in parallel over the two
    // source columns, then write the results through column_mut.
    let p = &trial.profile;
    let derived: Vec<Vec<Measurement>> = (0..p.event_count())
        .into_par_iter()
        .map(|ei| {
            let e = EventId(ei as u32);
            p.column(e, ml)
                .iter()
                .zip(p.column(e, mr))
                .map(|(a, b)| Measurement {
                    inclusive: op.apply(a.inclusive, b.inclusive),
                    exclusive: op.apply(a.exclusive, b.exclusive),
                    calls: a.calls,
                    subcalls: a.subcalls,
                })
                .collect()
        })
        .collect();
    for (ei, cells) in derived.into_iter().enumerate() {
        trial
            .profile
            .column_mut(EventId(ei as u32), out)
            .copy_from_slice(&cells);
    }
    Ok(name)
}

/// Adds a scaled copy of a metric: `name = metric * factor`.
pub fn scale_metric(trial: &mut Trial, metric: &str, factor: f64, name: &str) -> Result<String> {
    if trial.profile.metric_id(name).is_some() {
        return Ok(name.to_string());
    }
    let m = trial
        .profile
        .metric_id(metric)
        .ok_or_else(|| AnalysisError::MissingMetric(metric.to_string()))?;
    let out = trial.profile.add_metric(Metric::derived(name))?;
    let p = &trial.profile;
    let scaled: Vec<Vec<Measurement>> = (0..p.event_count())
        .into_par_iter()
        .map(|ei| {
            p.column(EventId(ei as u32), m)
                .iter()
                .map(|a| Measurement {
                    inclusive: a.inclusive * factor,
                    exclusive: a.exclusive * factor,
                    calls: a.calls,
                    subcalls: a.subcalls,
                })
                .collect()
        })
        .collect();
    for (ei, cells) in scaled.into_iter().enumerate() {
        trial
            .profile
            .column_mut(EventId(ei as u32), out)
            .copy_from_slice(&cells);
    }
    Ok(name.to_string())
}

#[cfg(test)]
mod tests {
    use super::*;
    use perfdmf::TrialBuilder;

    fn trial() -> Trial {
        let mut b = TrialBuilder::with_flat_threads("t", 2);
        let stalls = b.metric("BACK_END_BUBBLE_ALL");
        let cycles = b.metric("CPU_CYCLES");
        let e = b.event("main");
        b.set(e, stalls, 0, Measurement::leaf(30.0));
        b.set(e, stalls, 1, Measurement::leaf(10.0));
        b.set(e, cycles, 0, Measurement::leaf(100.0));
        b.set(e, cycles, 1, Measurement::leaf(100.0));
        b.build()
    }

    #[test]
    fn divide_matches_paper_naming_and_values() {
        let mut t = trial();
        let name = derive_metric(
            &mut t,
            "BACK_END_BUBBLE_ALL",
            DeriveOp::Divide,
            "CPU_CYCLES",
        )
        .unwrap();
        assert_eq!(name, "(BACK_END_BUBBLE_ALL / CPU_CYCLES)");
        let m = t.profile.metric_id(&name).unwrap();
        assert!(t.profile.metric(m).derived);
        let e = t.profile.event_id("main").unwrap();
        assert_eq!(t.profile.get(e, m, 0).unwrap().exclusive, 0.3);
        assert_eq!(t.profile.get(e, m, 1).unwrap().exclusive, 0.1);
    }

    #[test]
    fn all_operations() {
        let mut t = trial();
        for (op, expected) in [
            (DeriveOp::Add, 130.0),
            (DeriveOp::Subtract, -70.0),
            (DeriveOp::Multiply, 3000.0),
        ] {
            let name = derive_metric(&mut t, "BACK_END_BUBBLE_ALL", op, "CPU_CYCLES").unwrap();
            let m = t.profile.metric_id(&name).unwrap();
            let e = t.profile.event_id("main").unwrap();
            assert_eq!(t.profile.get(e, m, 0).unwrap().exclusive, expected);
        }
    }

    #[test]
    fn divide_by_zero_yields_zero() {
        let mut b = TrialBuilder::with_flat_threads("t", 1);
        let a = b.metric("A");
        let z = b.metric("Z");
        let e = b.event("main");
        b.set(e, a, 0, Measurement::leaf(5.0));
        b.set(e, z, 0, Measurement::leaf(0.0));
        let mut t = b.build();
        let name = derive_metric(&mut t, "A", DeriveOp::Divide, "Z").unwrap();
        let m = t.profile.metric_id(&name).unwrap();
        let e = t.profile.event_id("main").unwrap();
        assert_eq!(t.profile.get(e, m, 0).unwrap().exclusive, 0.0);
    }

    #[test]
    fn missing_metric_is_error_and_rederive_is_noop() {
        let mut t = trial();
        assert!(matches!(
            derive_metric(&mut t, "NOPE", DeriveOp::Add, "CPU_CYCLES"),
            Err(AnalysisError::MissingMetric(_))
        ));
        let n1 = derive_metric(
            &mut t,
            "BACK_END_BUBBLE_ALL",
            DeriveOp::Divide,
            "CPU_CYCLES",
        )
        .unwrap();
        let count = t.profile.metrics().len();
        let n2 = derive_metric(
            &mut t,
            "BACK_END_BUBBLE_ALL",
            DeriveOp::Divide,
            "CPU_CYCLES",
        )
        .unwrap();
        assert_eq!(n1, n2);
        assert_eq!(t.profile.metrics().len(), count);
    }

    #[test]
    fn scale_metric_multiplies() {
        let mut t = trial();
        scale_metric(&mut t, "CPU_CYCLES", 2.0, "DOUBLE_CYCLES").unwrap();
        let m = t.profile.metric_id("DOUBLE_CYCLES").unwrap();
        let e = t.profile.event_id("main").unwrap();
        assert_eq!(t.profile.get(e, m, 0).unwrap().exclusive, 200.0);
        // Re-scaling is a no-op.
        let before = t.profile.metrics().len();
        scale_metric(&mut t, "CPU_CYCLES", 3.0, "DOUBLE_CYCLES").unwrap();
        assert_eq!(t.profile.metrics().len(), before);
    }
}
