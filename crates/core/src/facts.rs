//! Turning profile observations into inference-engine facts.
//!
//! The paper's Figure 1 script ends with
//! `MeanEventFact.compareEventToMain(...)` for every event, then runs
//! the rules. [`MeanEventFact`] is that bridge: it compares an event's
//! thread-mean value against `main` and asserts a fact carrying the
//! metric, the direction, the severity (the event's share of total
//! runtime) and both values.

use crate::result::TrialMeanResult;
use crate::{AnalysisError, Result};
use perfdmf::{Trial, MAIN_EVENT};
use rayon::prelude::*;
use rules::{Fact, FactType, Value};

/// Direction of a comparison, stored in the `higherLower` field.
pub const HIGHER: &str = "higher";
/// See [`HIGHER`].
pub const LOWER: &str = "lower";

/// Schema of the `MeanEventFact`, the fact type the paper's rules match.
pub(crate) static MEAN_EVENT_FACT: FactType = FactType::new(
    "MeanEventFact",
    &[
        "metric",
        "eventName",
        "mainValue",
        "eventValue",
        "higherLower",
        "severity",
        "factType",
    ],
);

/// Builder of `MeanEventFact`s, the fact type the paper's rules match.
pub struct MeanEventFact;

impl MeanEventFact {
    /// Compares one event's mean exclusive value of `metric` against the
    /// whole program (`main`'s mean inclusive value) and builds the
    /// fact. `severity` is the event's share of total runtime measured
    /// by `severity_metric` (usually `TIME` or `CPU_CYCLES`).
    pub fn compare_event_to_main(
        trial: &Trial,
        metric: &str,
        severity_metric: &str,
        event: &str,
    ) -> Result<Fact> {
        let mean = TrialMeanResult::of(trial)?;
        Self::compare_to_main_in(&mean, metric, severity_metric, event)
    }

    /// [`Self::compare_event_to_main`] over an already-computed mean
    /// result, so batch callers aggregate the trial once, not per event.
    pub fn compare_to_main_in(
        mean: &TrialMeanResult,
        metric: &str,
        severity_metric: &str,
        event: &str,
    ) -> Result<Fact> {
        let event_value = mean.exclusive(event, metric)?;
        let main_value = mean.inclusive(MAIN_EVENT, metric)?;

        let total_runtime = mean.inclusive(MAIN_EVENT, severity_metric)?;
        let event_runtime = mean.exclusive(event, severity_metric)?;
        let severity = if total_runtime > 0.0 {
            (event_runtime / total_runtime).clamp(0.0, 1.0)
        } else {
            0.0
        };

        let higher_lower = if event_value > main_value {
            HIGHER
        } else {
            LOWER
        };
        Ok(MEAN_EVENT_FACT.fact([
            Value::from(metric),
            Value::from(event),
            Value::Num(main_value),
            Value::Num(event_value),
            Value::from(higher_lower),
            Value::Num(severity),
            Value::from("Compared to Main"),
        ]))
    }

    /// Builds comparison facts for every event in the trial except
    /// `main` itself.
    pub fn compare_all_events(
        trial: &Trial,
        metric: &str,
        severity_metric: &str,
    ) -> Result<Vec<Fact>> {
        let mean = TrialMeanResult::of(trial)?;
        if mean.profile.event_id(MAIN_EVENT).is_none() {
            return Err(AnalysisError::MissingEvent(MAIN_EVENT.to_string()));
        }
        // One aggregation for the whole batch; per-event fact
        // construction is independent and fans out over rayon.
        let mean_ref = &mean;
        let names: Vec<String> = mean
            .event_names()
            .into_iter()
            .filter(|name| name.as_str() != MAIN_EVENT)
            .collect();
        names
            .into_par_iter()
            .map(move |name| Self::compare_to_main_in(mean_ref, metric, severity_metric, &name))
            .collect::<Vec<_>>()
            .into_iter()
            .collect()
    }
}

/// Builds a `TrialContext` fact from a trial's metadata — the paper's
/// "performance context": "rules can be constructed which include the
/// metadata to justify conclusions about the performance data". String,
/// numeric and boolean fields are carried verbatim.
pub fn context_fact(trial: &Trial) -> Fact {
    let mut fact = Fact::new("TrialContext").with("trialName", trial.name.as_str());
    for (key, value) in trial.metadata.iter() {
        match value {
            perfdmf::MetaValue::Str(s) => fact.set(key, s.as_str()),
            perfdmf::MetaValue::Num(n) => fact.set(key, *n),
            perfdmf::MetaValue::Bool(b) => fact.set(key, *b),
        }
    }
    fact
}

#[cfg(test)]
mod tests {
    use super::*;
    use perfdmf::{Measurement, TrialBuilder};

    fn trial() -> Trial {
        let mut b = TrialBuilder::with_flat_threads("t", 2);
        let ratio = b.metric("(BACK_END_BUBBLE_ALL / CPU_CYCLES)");
        let time = b.metric("TIME");
        let main = b.event("main");
        let hot = b.event("main => hot");
        let cold = b.event("main => cold");
        for t in 0..2 {
            b.set(
                main,
                ratio,
                t,
                Measurement {
                    inclusive: 0.2,
                    exclusive: 0.05,
                    calls: 1.0,
                    subcalls: 2.0,
                },
            );
            b.set(hot, ratio, t, Measurement::leaf(0.6));
            b.set(cold, ratio, t, Measurement::leaf(0.1));
            b.set(
                main,
                time,
                t,
                Measurement {
                    inclusive: 100.0,
                    exclusive: 10.0,
                    calls: 1.0,
                    subcalls: 2.0,
                },
            );
            b.set(hot, time, t, Measurement::leaf(50.0));
            b.set(cold, time, t, Measurement::leaf(40.0));
        }
        b.build()
    }

    #[test]
    fn fact_fields_match_paper_schema() {
        let t = trial();
        let f = MeanEventFact::compare_event_to_main(
            &t,
            "(BACK_END_BUBBLE_ALL / CPU_CYCLES)",
            "TIME",
            "main => hot",
        )
        .unwrap();
        assert_eq!(f.fact_type(), "MeanEventFact");
        assert_eq!(
            f.get_str("metric"),
            Some("(BACK_END_BUBBLE_ALL / CPU_CYCLES)")
        );
        assert_eq!(f.get_str("eventName"), Some("main => hot"));
        assert_eq!(f.get_str("higherLower"), Some(HIGHER));
        assert_eq!(f.get_num("eventValue"), Some(0.6));
        assert_eq!(f.get_num("mainValue"), Some(0.2));
        assert_eq!(f.get_num("severity"), Some(0.5)); // 50 of 100 seconds
        assert_eq!(f.get_str("factType"), Some("Compared to Main"));
    }

    #[test]
    fn lower_direction() {
        let t = trial();
        let f = MeanEventFact::compare_event_to_main(
            &t,
            "(BACK_END_BUBBLE_ALL / CPU_CYCLES)",
            "TIME",
            "main => cold",
        )
        .unwrap();
        assert_eq!(f.get_str("higherLower"), Some(LOWER));
        assert_eq!(f.get_num("severity"), Some(0.4));
    }

    #[test]
    fn compare_all_skips_main() {
        let t = trial();
        let facts =
            MeanEventFact::compare_all_events(&t, "(BACK_END_BUBBLE_ALL / CPU_CYCLES)", "TIME")
                .unwrap();
        assert_eq!(facts.len(), 2);
        assert!(facts.iter().all(|f| f.get_str("eventName") != Some("main")));
    }

    #[test]
    fn missing_names_are_errors() {
        let t = trial();
        assert!(MeanEventFact::compare_event_to_main(&t, "NOPE", "TIME", "main => hot").is_err());
        assert!(MeanEventFact::compare_event_to_main(
            &t,
            "(BACK_END_BUBBLE_ALL / CPU_CYCLES)",
            "TIME",
            "nope"
        )
        .is_err());
    }

    #[test]
    fn context_fact_carries_metadata() {
        let mut t = trial();
        t.metadata.set("machine", "SGI Altix 300");
        t.metadata.set("procs", 16usize);
        t.metadata.set("optimized", false);
        let f = context_fact(&t);
        assert_eq!(f.fact_type(), "TrialContext");
        assert_eq!(f.get_str("trialName"), Some("t"));
        assert_eq!(f.get_str("machine"), Some("SGI Altix 300"));
        assert_eq!(f.get_num("procs"), Some(16.0));
        assert_eq!(f.get_bool("optimized"), Some(false));
    }

    #[test]
    fn fires_paper_figure_two_rule() {
        // End-to-end: the Figure 2 rule fires on the hot event only.
        let src = r#"
rule "Stalls per Cycle"
when
    f : MeanEventFact( metric == "(BACK_END_BUBBLE_ALL / CPU_CYCLES)",
                       higherLower == "higher",
                       severity > 0.10,
                       e : eventName, a : mainValue, v : eventValue,
                       factType == "Compared to Main" )
then
    print("Event " + e + " has a higher than average stall / cycle rate");
    diagnose("stalls", "Event " + e + " stalls often", v);
end
"#;
        let t = trial();
        let mut engine = rules::Engine::new();
        engine.add_rules(rules::drl::parse(src).unwrap()).unwrap();
        for f in MeanEventFact::compare_all_events(&t, "(BACK_END_BUBBLE_ALL / CPU_CYCLES)", "TIME")
            .unwrap()
        {
            engine.assert_fact(f);
        }
        let report = engine.run().unwrap();
        assert_eq!(report.firings.len(), 1);
        assert!(report.printed[0].contains("main => hot"));
        assert_eq!(report.diagnoses[0].severity, Some(0.6));
    }
}
