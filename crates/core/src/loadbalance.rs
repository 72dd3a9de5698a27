//! Load-balance analysis (§III-A).
//!
//! "The load imbalance detection rule is activated when the following
//! facts are true. First, two loops have a high standard deviation to
//! mean ratio (> 0.25) … Second, the loops occupy more than 5% of the
//! total runtime … Third, the events are nested … Fourth, on a
//! per-thread basis, the times in the events are highly negatively
//! correlated."
//!
//! [`analyze`] computes exactly those observations and asserts one
//! `RegionBalance` fact per event plus one `NestedCorrelation` fact per
//! nested pair, ready for the load-imbalance rulebase.

use crate::result::TrialResult;
use crate::{AnalysisError, Result};
use perfdmf::model::CALLPATH_SEPARATOR;
use perfdmf::{EventId, Trial, MAIN_EVENT};
use rules::{Fact, FactType, Value};
use serde::{Deserialize, Serialize};
use statistics::{pearson, DenseMatrix, MatrixView, Welford};
use std::collections::HashMap;
use std::sync::Arc;

/// Per-event balance observation.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BalanceObservation {
    /// Event name.
    pub event: String,
    /// stddev / mean of exclusive time across threads.
    pub stddev_mean_ratio: f64,
    /// Event's share of total runtime, `[0, 1]`.
    pub runtime_fraction: f64,
    /// Mean exclusive time.
    pub mean: f64,
}

/// A nested event pair with its per-thread time correlation.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct NestedCorrelation {
    /// Outer (ancestor) event.
    pub outer: String,
    /// Inner (descendant) event.
    pub inner: String,
    /// Pearson correlation of per-thread exclusive times.
    pub correlation: f64,
}

/// Schema of the per-event balance fact.
pub(crate) static REGION_BALANCE: FactType = FactType::new(
    "RegionBalance",
    &["eventName", "stddevMeanRatio", "runtimeFraction", "mean"],
);

/// Schema of the nested-pair correlation fact.
pub(crate) static NESTED_CORRELATION: FactType =
    FactType::new("NestedCorrelation", &["outer", "inner", "correlation"]);

/// The full analysis output.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct LoadBalanceAnalysis {
    /// Per-event observations.
    pub observations: Vec<BalanceObservation>,
    /// Nested pairs with correlations.
    pub nested: Vec<NestedCorrelation>,
}

impl LoadBalanceAnalysis {
    /// Converts the analysis into facts for the rule engine.
    ///
    /// Facts are asserted in event-name order, not arena order. The
    /// engine fires equal-salience activations in assertion order, so
    /// asserting in arena order would make the rendered report depend
    /// on the order chunks happened to intern events — a crash
    /// recovery that replays its journal and then takes late
    /// redeliveries interns events in a different order than the
    /// uninterrupted run, and must still render byte-identically.
    pub fn facts(&self) -> Vec<Fact> {
        let mut observations: Vec<&BalanceObservation> = self.observations.iter().collect();
        observations.sort_by(|a, b| a.event.cmp(&b.event));
        let mut nested: Vec<&NestedCorrelation> = self.nested.iter().collect();
        nested.sort_by(|a, b| (&a.outer, &a.inner).cmp(&(&b.outer, &b.inner)));

        // One shared name per observed event, so a name costs one
        // allocation however many facts carry it. The pairs come in
        // `(outer, inner)` name order and an inner's name extends its
        // outer's, so two forward cursors over the sorted names find
        // both; a name they do not find is copied, so the order decides
        // how many names are shared, never what the facts say. (A
        // binary search per name made this call about 1.8 times slower.)
        let names: Vec<Arc<str>> = observations
            .iter()
            .map(|o| Arc::from(o.event.as_str()))
            .collect();
        let mut out = Vec::with_capacity(observations.len() + nested.len());
        for (o, name) in observations.iter().zip(&names) {
            out.push(region_fact(
                Arc::clone(name),
                o.stddev_mean_ratio,
                o.runtime_fraction,
                o.mean,
            ));
        }
        let (mut outer_at, mut inner_at) = (0, 0);
        for (i, n) in nested.iter().enumerate() {
            let new_outer = i == 0 || nested[i - 1].outer != n.outer;
            outer_at = seek(&names, outer_at, &n.outer);
            if new_outer {
                inner_at = outer_at;
            }
            inner_at = seek(&names, inner_at, &n.inner);
            out.push(nested_fact(
                shared(&names, outer_at, &n.outer),
                shared(&names, inner_at, &n.inner),
                n.correlation,
            ));
        }
        out
    }
}

/// The first position from `from` on whose name is not below `name`.
fn seek(names: &[Arc<str>], mut from: usize, name: &str) -> usize {
    while from < names.len() && &*names[from] < name {
        from += 1;
    }
    from
}

/// `names[at]` if it is `name`, else a fresh copy.
fn shared(names: &[Arc<str>], at: usize, name: &str) -> Value {
    match names.get(at) {
        Some(n) if &**n == name => Value::from(Arc::clone(n)),
        _ => Value::from(name),
    }
}

/// An observation's figures without its event name: what the
/// incremental state keeps per row, naming it only when it asserts a
/// fact.
#[derive(Debug, Clone, Copy)]
pub(crate) struct RowBalance {
    pub(crate) stddev_mean_ratio: f64,
    pub(crate) runtime_fraction: f64,
    pub(crate) mean: f64,
}

impl RowBalance {
    /// The observation of the event named `event`.
    pub(crate) fn observation(&self, event: String) -> BalanceObservation {
        BalanceObservation {
            event,
            stddev_mean_ratio: self.stddev_mean_ratio,
            runtime_fraction: self.runtime_fraction,
            mean: self.mean,
        }
    }
}

/// The `RegionBalance` fact for one event's observation.
pub(crate) fn region_fact(
    event: impl Into<Value>,
    stddev_mean_ratio: f64,
    runtime_fraction: f64,
    mean: f64,
) -> Fact {
    REGION_BALANCE.fact([
        event.into(),
        Value::Num(stddev_mean_ratio),
        Value::Num(runtime_fraction),
        Value::Num(mean),
    ])
}

/// The `NestedCorrelation` fact for one nested pair.
pub(crate) fn nested_fact(
    outer: impl Into<Value>,
    inner: impl Into<Value>,
    correlation: f64,
) -> Fact {
    NESTED_CORRELATION.fact([outer.into(), inner.into(), Value::Num(correlation)])
}

/// Runs the load-balance analysis on a trial over `metric` (usually
/// `TIME`).
pub fn analyze(trial: &Trial, metric: &str) -> Result<LoadBalanceAnalysis> {
    let r = TrialResult::new(trial);
    let total = r.elapsed(metric)?;
    let profile = &trial.profile;
    let m = profile
        .metric_id(metric)
        .ok_or_else(|| AnalysisError::MissingMetric(metric.to_string()))?;

    // One gather: an events × threads matrix of exclusive times. Every
    // pass below (summaries, nested-pair correlations) reads contiguous
    // row slices out of it instead of re-collecting a Vec per event per
    // pair.
    let mut excl = DenseMatrix::zeros(profile.event_count(), profile.thread_count());
    for ei in 0..profile.event_count() {
        for (dst, c) in excl
            .row_mut(ei)
            .iter_mut()
            .zip(profile.column(EventId(ei as u32), m))
        {
            *dst = c.exclusive;
        }
    }

    analyze_matrix(profile.events(), excl.view(), total)
}

/// The analysis core: per-event balance summaries plus the
/// nested-pair correlations, over a row-major `events × threads`
/// exclusive-time matrix.
fn analyze_matrix(
    events: &[perfdmf::Event],
    excl: MatrixView<'_>,
    total: f64,
) -> Result<LoadBalanceAnalysis> {
    if excl.rows() != events.len() {
        return Err(AnalysisError::Invalid(format!(
            "exclusive-time matrix has {} rows for {} events",
            excl.rows(),
            events.len()
        )));
    }

    let observations = events
        .iter()
        .enumerate()
        .filter_map(|(ei, event)| {
            row_balance(&event.name, excl.row(ei), total).map(|b| b.observation(event.name.clone()))
        })
        .collect();

    let nested = nested_pairs(events)
        .into_iter()
        .filter_map(|(oi, ii)| {
            pearson(excl.row(oi), excl.row(ii))
                .ok()
                .map(|c| NestedCorrelation {
                    outer: events[oi].name.clone(),
                    inner: events[ii].name.clone(),
                    correlation: c,
                })
        })
        .collect();

    Ok(LoadBalanceAnalysis {
        observations,
        nested,
    })
}

/// Every `(outer, inner)` index pair where `outer` is a callpath
/// ancestor of `inner` ([`perfdmf::Event::is_ancestor_of`]) and is not
/// [`MAIN_EVENT`], sorted by `(outer, inner)`.
///
/// One `name → indices` map answers each inner event with one
/// [`ancestor_prefixes`] pass over its name instead of a scan of every
/// other event.
fn nested_pairs(events: &[perfdmf::Event]) -> Vec<(usize, usize)> {
    let mut by_name: HashMap<&str, Vec<usize>> = HashMap::with_capacity(events.len());
    for (i, e) in events.iter().enumerate() {
        if e.name != MAIN_EVENT {
            by_name.entry(e.name.as_str()).or_default().push(i);
        }
    }
    let mut pairs = Vec::new();
    for (ii, inner) in events.iter().enumerate() {
        for prefix in ancestor_prefixes(&inner.name) {
            if let Some(outers) = by_name.get(prefix) {
                pairs.extend(outers.iter().map(|&oi| (oi, ii)));
            }
        }
    }
    pairs.sort_unstable();
    pairs
}

/// The names of `name`'s callpath ancestors, shortest first: every
/// prefix that ends where a [`CALLPATH_SEPARATOR`] begins. Every byte
/// offset is tried because separators can overlap (`" => => "` has
/// ancestors `""` and `" =>"`). [`nested_pairs`] and the incremental
/// path both pair events through it, so they agree on what "nested"
/// means by construction.
pub(crate) fn ancestor_prefixes(name: &str) -> impl Iterator<Item = &str> {
    let sep = CALLPATH_SEPARATOR.as_bytes();
    // The separator starts with an ASCII byte, so `end` is a char
    // boundary whenever it matches.
    (0..name.len())
        .filter(move |&end| name.as_bytes()[end..].starts_with(sep))
        .map(move |end| &name[..end])
}

/// The runtime-fraction expression: an event's mean over the total
/// runtime, clamped to `[0, 1]`.
pub(crate) fn fraction(mean: f64, total: f64) -> f64 {
    if total > 0.0 {
        (mean / total).clamp(0.0, 1.0)
    } else {
        0.0
    }
}

/// The per-row observation kernel: `None` for [`MAIN_EVENT`] and
/// all-zero rows, otherwise the row's stddev/mean ratio, runtime
/// fraction and mean. [`analyze_matrix`] and the incremental path both
/// call it, so a recomputed dirty row is bitwise identical to a batch
/// recompute by construction. `event` is the row's event name.
///
/// The moments come from the [`Welford`] pass [`Summary::of`] makes,
/// without the median sort this analysis never reads.
///
/// [`Summary::of`]: statistics::Summary::of
pub(crate) fn row_balance(event: &str, values: &[f64], total: f64) -> Option<RowBalance> {
    // Also skips an empty row, the one input `Summary::of` rejects.
    if event == MAIN_EVENT || values.iter().all(|&v| v == 0.0) {
        return None;
    }
    let mut moments = Welford::new();
    for &v in values {
        moments.push(v);
    }
    let (mean, stddev) = (moments.mean(), moments.stddev());
    Some(RowBalance {
        stddev_mean_ratio: if mean != 0.0 { stddev / mean } else { 0.0 },
        runtime_fraction: fraction(mean, total),
        mean,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use perfdmf::{Event, Measurement, TrialBuilder};
    use proptest::prelude::*;

    /// An imbalanced nested-loop trial: threads with more inner work
    /// wait less in the outer loop.
    fn imbalanced_trial() -> Trial {
        let mut b = TrialBuilder::with_flat_threads("t", 4);
        let time = b.metric("TIME");
        let main = b.event("main");
        let outer = b.event("main => outer");
        let inner = b.event("main => outer => inner");
        let inner_times = [10.0, 20.0, 30.0, 60.0];
        let total = 62.0;
        for (t, &busy) in inner_times.iter().enumerate() {
            let wait = total - busy;
            b.set(
                main,
                time,
                t,
                Measurement {
                    inclusive: total + 2.0,
                    exclusive: 2.0,
                    calls: 1.0,
                    subcalls: 1.0,
                },
            );
            b.set(
                outer,
                time,
                t,
                Measurement {
                    inclusive: total,
                    exclusive: wait,
                    calls: 1.0,
                    subcalls: 1.0,
                },
            );
            b.set(inner, time, t, Measurement::leaf(busy));
        }
        b.build()
    }

    #[test]
    fn detects_high_ratio_and_negative_correlation() {
        let analysis = analyze(&imbalanced_trial(), "TIME").unwrap();
        let inner = analysis
            .observations
            .iter()
            .find(|o| o.event == "main => outer => inner")
            .unwrap();
        assert!(
            inner.stddev_mean_ratio > 0.25,
            "ratio = {}",
            inner.stddev_mean_ratio
        );
        assert!(inner.runtime_fraction > 0.05);

        let pair = analysis
            .nested
            .iter()
            .find(|n| n.outer == "main => outer" && n.inner == "main => outer => inner")
            .unwrap();
        assert!(
            pair.correlation < -0.99,
            "correlation = {}",
            pair.correlation
        );
    }

    #[test]
    fn balanced_trial_has_low_ratios() {
        let mut b = TrialBuilder::with_flat_threads("t", 4);
        let time = b.metric("TIME");
        let main = b.event("main");
        let k = b.event("main => k");
        for t in 0..4 {
            b.set(
                main,
                time,
                t,
                Measurement {
                    inclusive: 10.0,
                    exclusive: 0.0,
                    calls: 1.0,
                    subcalls: 1.0,
                },
            );
            b.set(k, time, t, Measurement::leaf(10.0));
        }
        let analysis = analyze(&b.build(), "TIME").unwrap();
        assert!(analysis.observations[0].stddev_mean_ratio < 1e-9);
    }

    #[test]
    fn main_is_not_an_observation_and_nested_skips_main_as_outer() {
        let analysis = analyze(&imbalanced_trial(), "TIME").unwrap();
        assert!(analysis.observations.iter().all(|o| o.event != "main"));
        assert!(analysis.nested.iter().all(|n| n.outer != "main"));
        // outer=>inner pair exists exactly once.
        assert_eq!(
            analysis
                .nested
                .iter()
                .filter(|n| n.inner == "main => outer => inner")
                .count(),
            1
        );
    }

    #[test]
    fn facts_carry_all_fields() {
        let analysis = analyze(&imbalanced_trial(), "TIME").unwrap();
        let facts = analysis.facts();
        let balance = facts
            .iter()
            .find(|f| {
                f.fact_type() == "RegionBalance"
                    && f.get_str("eventName") == Some("main => outer => inner")
            })
            .unwrap();
        assert!(balance.get_num("stddevMeanRatio").unwrap() > 0.25);
        assert!(balance.get_num("runtimeFraction").unwrap() > 0.05);
        let corr = facts
            .iter()
            .find(|f| f.fact_type() == "NestedCorrelation")
            .unwrap();
        assert!(corr.get_num("correlation").unwrap() < 0.0);
        assert_eq!(corr.get_str("outer"), Some("main => outer"));
    }

    #[test]
    fn missing_metric_is_error() {
        assert!(analyze(&imbalanced_trial(), "NOPE").is_err());
    }

    #[test]
    fn zero_valued_events_are_skipped() {
        let mut b = TrialBuilder::with_flat_threads("t", 2);
        let time = b.metric("TIME");
        let main = b.event("main");
        let ghost = b.event("main => ghost");
        for t in 0..2 {
            b.set(
                main,
                time,
                t,
                Measurement {
                    inclusive: 5.0,
                    exclusive: 5.0,
                    calls: 1.0,
                    subcalls: 0.0,
                },
            );
            b.set(ghost, time, t, Measurement::default());
        }
        let analysis = analyze(&b.build(), "TIME").unwrap();
        assert!(analysis
            .observations
            .iter()
            .all(|o| o.event != "main => ghost"));
    }

    /// The reference analysis: per-row observations from a full
    /// [`statistics::Summary`], nested pairs from an O(E²)
    /// `is_ancestor_of` sweep over every `(outer, inner)` pair in index
    /// order.
    fn reference_matrix(
        events: &[Event],
        excl: MatrixView<'_>,
        total: f64,
    ) -> Result<LoadBalanceAnalysis> {
        let mut observations = Vec::new();
        for (ei, event) in events.iter().enumerate() {
            let values = excl.row(ei);
            if event.name == MAIN_EVENT || values.iter().all(|&v| v == 0.0) {
                continue;
            }
            let summary = statistics::Summary::of(values)?;
            observations.push(BalanceObservation {
                event: event.name.clone(),
                stddev_mean_ratio: if summary.mean != 0.0 {
                    summary.stddev / summary.mean
                } else {
                    0.0
                },
                runtime_fraction: if total > 0.0 {
                    (summary.mean / total).clamp(0.0, 1.0)
                } else {
                    0.0
                },
                mean: summary.mean,
            });
        }
        let mut nested = Vec::new();
        for (oi, outer) in events.iter().enumerate() {
            if outer.name == MAIN_EVENT {
                continue;
            }
            for (ii, inner) in events.iter().enumerate() {
                if outer.is_ancestor_of(inner) {
                    if let Ok(c) = pearson(excl.row(oi), excl.row(ii)) {
                        nested.push(NestedCorrelation {
                            outer: outer.name.clone(),
                            inner: inner.name.clone(),
                            correlation: c,
                        });
                    }
                }
            }
        }
        Ok(LoadBalanceAnalysis {
            observations,
            nested,
        })
    }

    /// The trial's `events × threads` exclusive-time matrix.
    fn exclusive_matrix(trial: &Trial) -> DenseMatrix {
        let p = &trial.profile;
        let m = p.metric_id("TIME").unwrap();
        let mut excl = DenseMatrix::zeros(p.event_count(), p.thread_count());
        for ei in 0..p.event_count() {
            for (dst, c) in excl
                .row_mut(ei)
                .iter_mut()
                .zip(p.column(EventId(ei as u32), m))
            {
                *dst = c.exclusive;
            }
        }
        excl
    }

    /// `f64::to_bits` equality on every field, names and order included.
    fn bitwise_eq(a: &LoadBalanceAnalysis, b: &LoadBalanceAnalysis) -> bool {
        let obs = |o: &BalanceObservation| {
            (
                o.event.clone(),
                o.stddev_mean_ratio.to_bits(),
                o.runtime_fraction.to_bits(),
                o.mean.to_bits(),
            )
        };
        let pair =
            |n: &NestedCorrelation| (n.outer.clone(), n.inner.clone(), n.correlation.to_bits());
        a.observations
            .iter()
            .map(obs)
            .eq(b.observations.iter().map(obs))
            && a.nested.iter().map(pair).eq(b.nested.iter().map(pair))
    }

    fn same(got: &Result<LoadBalanceAnalysis>, want: &Result<LoadBalanceAnalysis>) -> bool {
        match (got, want) {
            (Ok(g), Ok(w)) => bitwise_eq(g, w),
            (Err(g), Err(w)) => g.to_string() == w.to_string(),
            _ => false,
        }
    }

    /// Callpath components; `a` next to `ab` catches a prefix match that
    /// ignores the separator.
    const LABELS: &[&str] = &["a", "ab", "b", "solve", "x y", "=>"];

    /// Names that stress the prefix scan: empty, bare and overlapping
    /// separators, and a separator at either end.
    const ADVERSARIAL: &[&str] = &[
        "",
        " => ",
        " =>",
        " => => ",
        " => => x",
        "main => a",
        "main => ab",
        "main =>",
        "main => a => ",
        "main => => a",
    ];

    /// Builds a trial from a random callpath tree plus adversarial names,
    /// interned in a random order (so children often precede parents).
    fn callpath_trial(
        tree: &[(usize, usize)],
        adversarial: &[usize],
        order: &[u64],
        threads: usize,
        cells: &[(u32, f64)],
    ) -> Trial {
        let mut names = vec!["main".to_string()];
        for &(parent, label) in tree {
            let parent = &names[parent % names.len()];
            names.push(format!("{parent}{CALLPATH_SEPARATOR}{}", LABELS[label]));
        }
        names.extend(adversarial.iter().map(|&i| ADVERSARIAL[i].to_string()));
        names.sort();
        names.dedup();
        let mut keyed: Vec<(u64, String)> = order.iter().copied().zip(names).collect();
        keyed.sort();

        let mut b = TrialBuilder::with_flat_threads("t", threads);
        let time = b.metric("TIME");
        let mut cells = cells.iter().cycle();
        for (_, name) in &keyed {
            let e = b.event(name);
            // One row in five is all zero; the rest mix zeros and NaN in.
            let zero_row = cells.next().unwrap().0 < 20;
            for t in 0..threads {
                let &(kind, v) = cells.next().unwrap();
                let v = match kind {
                    _ if zero_row => 0.0,
                    0..=14 => 0.0,
                    15..=16 => f64::NAN,
                    _ => v,
                };
                let inclusive = if name == MAIN_EVENT { 100.0 + v } else { v };
                b.set(
                    e,
                    time,
                    t,
                    Measurement {
                        inclusive,
                        exclusive: v,
                        calls: 1.0,
                        subcalls: 0.0,
                    },
                );
            }
        }
        b.build()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        #[test]
        fn nested_pairs_match_the_quadratic_reference(
            tree in prop::collection::vec((0usize..64, 0usize..LABELS.len()), 0..24),
            adversarial in prop::collection::vec(0usize..ADVERSARIAL.len(), 0..8),
            order in prop::collection::vec(0u64..1_000_000, 40),
            threads in 1usize..6,
            cells in prop::collection::vec((0u32..100, -2.0f64..10.0), 64),
            dups in prop::collection::vec(0usize..40, 0..4),
        ) {
            let trial = callpath_trial(&tree, &adversarial, &order, threads, &cells);
            let excl = exclusive_matrix(&trial);
            let events = trial.profile.events();
            let total = TrialResult::new(&trial).elapsed("TIME").unwrap();
            let want = reference_matrix(events, excl.view(), total);

            let owned = analyze(&trial, "TIME");
            prop_assert!(same(&owned, &want), "owned {owned:?}\nreference {want:?}");

            let mut repo = perfdmf::Repository::new();
            repo.add_trial("app", "exp", trial.clone()).unwrap();
            let mapped = perfdmf::MappedRepository::from_bytes(&repo.to_pdb1()).unwrap();
            let cold = mapped.view("app", "exp", "t").unwrap().to_trial().unwrap();
            let via_pdb1 = analyze(&cold, "TIME");
            prop_assert!(same(&via_pdb1, &want), "mapped {via_pdb1:?}\nreference {want:?}");

            // `analyze_matrix` takes any event slice: repeated names must
            // pair exactly as the sweep pairs them.
            let mut events = events.to_vec();
            let mut rows = excl.to_nested();
            for &d in &dups {
                let d = d % events.len();
                events.push(events[d].clone());
                rows.push(rows[d].clone());
            }
            let excl = DenseMatrix::from_rows(&rows).unwrap();
            let got = analyze_matrix(&events, excl.view(), total);
            let want = reference_matrix(&events, excl.view(), total);
            prop_assert!(same(&got, &want), "duplicated {got:?}\nreference {want:?}");
        }
    }

    #[test]
    fn overlapping_separators_yield_every_ancestor() {
        let events: Vec<Event> = ["", " =>", " => => ", "main => a", "main => ab", "main"]
            .into_iter()
            .map(Event::new)
            .collect();
        let pairs: Vec<(&str, &str)> = nested_pairs(&events)
            .into_iter()
            .map(|(o, i)| (events[o].name.as_str(), events[i].name.as_str()))
            .collect();
        assert_eq!(pairs, [("", " => => "), (" =>", " => => ")]);
    }
}
