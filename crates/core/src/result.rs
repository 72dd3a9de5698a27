//! Trial result views.
//!
//! The paper's scripts operate on result objects
//! (`TrialResult`, `TrialMeanResult`) rather than raw storage; these
//! types provide that API over [`perfdmf::Trial`].

use crate::{AnalysisError, Result};
use perfdmf::algebra::{aggregate_threads, Aggregation};
use perfdmf::{EventId, Measurement, MetricId, Profile, Trial};

/// A full per-thread view of a trial.
#[derive(Debug, Clone)]
pub struct TrialResult<'a> {
    trial: &'a Trial,
}

impl<'a> TrialResult<'a> {
    /// Wraps a trial.
    pub fn new(trial: &'a Trial) -> Self {
        TrialResult { trial }
    }

    /// The underlying trial.
    pub fn trial(&self) -> &Trial {
        self.trial
    }

    /// The profile.
    pub fn profile(&self) -> &Profile {
        &self.trial.profile
    }

    /// Event names, in profile order.
    pub fn event_names(&self) -> Vec<String> {
        self.profile()
            .events()
            .iter()
            .map(|e| e.name.to_string())
            .collect()
    }

    /// Metric names, in profile order.
    pub fn metric_names(&self) -> Vec<String> {
        self.profile()
            .metrics()
            .iter()
            .map(|m| m.name.clone())
            .collect()
    }

    /// Metric id or a typed error.
    pub fn metric(&self, name: &str) -> Result<MetricId> {
        self.profile()
            .metric_id(name)
            .ok_or_else(|| AnalysisError::MissingMetric(name.to_string()))
    }

    /// Event id or a typed error.
    pub fn event(&self, name: &str) -> Result<EventId> {
        self.profile()
            .event_id(name)
            .ok_or_else(|| AnalysisError::MissingEvent(name.to_string()))
    }

    /// The cells of an event/metric across threads, borrowed from the
    /// profile.
    pub fn column(&self, event: &str, metric: &str) -> Result<&'a [Measurement]> {
        let e = self.event(event)?;
        let m = self.metric(metric)?;
        Ok(self.trial.profile.column(e, m))
    }

    /// Exclusive values of an event/metric across threads.
    pub fn exclusive(&self, event: &str, metric: &str) -> Result<Vec<f64>> {
        let e = self.event(event)?;
        let m = self.metric(metric)?;
        Ok(self.profile().exclusive_across_threads(e, m))
    }

    /// Inclusive values of an event/metric across threads.
    pub fn inclusive(&self, event: &str, metric: &str) -> Result<Vec<f64>> {
        let e = self.event(event)?;
        let m = self.metric(metric)?;
        Ok(self.profile().inclusive_across_threads(e, m))
    }

    /// Whole-program elapsed value: max inclusive of `main`.
    pub fn elapsed(&self, metric: &str) -> Result<f64> {
        let e = self.event(perfdmf::MAIN_EVENT)?;
        let m = self.metric(metric)?;
        Ok(self.profile().max_inclusive(e, m))
    }
}

/// A thread-averaged view of a trial (the paper's `TrialMeanResult`).
#[derive(Debug, Clone)]
pub struct TrialMeanResult {
    /// Trial name.
    pub name: String,
    /// Single-thread profile holding thread means.
    pub profile: Profile,
}

impl TrialMeanResult {
    /// Averages a trial across threads.
    pub fn of(trial: &Trial) -> Result<Self> {
        let profile = aggregate_threads(&trial.profile, Aggregation::Mean)?;
        Ok(TrialMeanResult {
            name: trial.name.clone(),
            profile,
        })
    }

    /// Mean exclusive value of an event/metric.
    pub fn exclusive(&self, event: &str, metric: &str) -> Result<f64> {
        let e = self
            .profile
            .event_id(event)
            .ok_or_else(|| AnalysisError::MissingEvent(event.to_string()))?;
        let m = self
            .profile
            .metric_id(metric)
            .ok_or_else(|| AnalysisError::MissingMetric(metric.to_string()))?;
        Ok(self
            .profile
            .get(e, m, 0)
            .map(|c| c.exclusive)
            .unwrap_or(0.0))
    }

    /// Mean inclusive value of an event/metric.
    pub fn inclusive(&self, event: &str, metric: &str) -> Result<f64> {
        let e = self
            .profile
            .event_id(event)
            .ok_or_else(|| AnalysisError::MissingEvent(event.to_string()))?;
        let m = self
            .profile
            .metric_id(metric)
            .ok_or_else(|| AnalysisError::MissingMetric(metric.to_string()))?;
        Ok(self
            .profile
            .get(e, m, 0)
            .map(|c| c.inclusive)
            .unwrap_or(0.0))
    }

    /// Event names.
    pub fn event_names(&self) -> Vec<String> {
        self.profile
            .events()
            .iter()
            .map(|e| e.name.to_string())
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use perfdmf::{Measurement, TrialBuilder};

    fn trial() -> Trial {
        let mut b = TrialBuilder::with_flat_threads("t", 2);
        let time = b.metric("TIME");
        let main = b.event("main");
        let inner = b.event("main => k");
        b.set(
            main,
            time,
            0,
            Measurement {
                inclusive: 10.0,
                exclusive: 4.0,
                calls: 1.0,
                subcalls: 1.0,
            },
        );
        b.set(
            main,
            time,
            1,
            Measurement {
                inclusive: 12.0,
                exclusive: 6.0,
                calls: 1.0,
                subcalls: 1.0,
            },
        );
        b.set(inner, time, 0, Measurement::leaf(6.0));
        b.set(inner, time, 1, Measurement::leaf(6.0));
        b.build()
    }

    #[test]
    fn trial_result_accessors() {
        let t = trial();
        let r = TrialResult::new(&t);
        assert_eq!(r.event_names(), vec!["main", "main => k"]);
        assert_eq!(r.metric_names(), vec!["TIME"]);
        assert_eq!(r.exclusive("main", "TIME").unwrap(), vec![4.0, 6.0]);
        assert_eq!(r.inclusive("main", "TIME").unwrap(), vec![10.0, 12.0]);
        assert_eq!(r.elapsed("TIME").unwrap(), 12.0);
    }

    #[test]
    fn typed_errors_for_missing_names() {
        let t = trial();
        let r = TrialResult::new(&t);
        assert!(matches!(
            r.exclusive("main", "NOPE"),
            Err(AnalysisError::MissingMetric(_))
        ));
        assert!(matches!(
            r.exclusive("nope", "TIME"),
            Err(AnalysisError::MissingEvent(_))
        ));
    }

    #[test]
    fn mean_result_averages_threads() {
        let t = trial();
        let m = TrialMeanResult::of(&t).unwrap();
        assert_eq!(m.exclusive("main", "TIME").unwrap(), 5.0);
        assert_eq!(m.inclusive("main", "TIME").unwrap(), 11.0);
        assert_eq!(m.name, "t");
        assert_eq!(m.event_names().len(), 2);
        assert!(m.exclusive("nope", "TIME").is_err());
        assert!(m.inclusive("main", "NOPE").is_err());
    }
}
