//! Incremental analysis state: O(Δ) load-balance refresh over streamed
//! chunks.
//!
//! A batch [`crate::loadbalance::analyze`] rescans the whole
//! `events × threads` exclusive-time matrix and recomputes every
//! nested-pair correlation on every request. When a trial grows by
//! streamed [`perfdmf::ChunkBatch`]es, only the touched rows can
//! change, so [`AnalysisState`] keeps per-event state and refreshes
//! exactly those rows — `O(touched events × threads + affected pairs)`
//! per chunk.
//!
//! ## Equality contract
//!
//! The incremental path does **not** maintain results with running
//! float arithmetic (which re-associates additions and drifts from the
//! batch kernels). Instead it recomputes each *dirty row* with the very
//! kernels the batch path calls (`loadbalance::row_observation`,
//! `loadbalance::fraction`, [`pearson`]), while untouched rows keep
//! their previous — bitwise identical — values.
//! [`AnalysisState::analysis`] is therefore bitwise equal to a fresh
//! [`crate::loadbalance::analyze`] after every chunk, NaN cells
//! included; the differential tests in
//! `tests/streaming_differential.rs` pin this with `f64::to_bits`
//! comparisons. The [`RunningPlane`] accumulators ride along as the
//! O(1) monitor substrate (mean/stddev/extrema without touching the
//! kernels) and are held to numeric, not bitwise, agreement.
//!
//! ## Diagnoses
//!
//! Two consumers with different freshness needs share the state:
//!
//! * [`AnalysisState::report`] builds a fresh rule engine over the
//!   maintained facts — byte-identical output to
//!   [`crate::workflow::analyze_load_balance`] on the same trial.
//! * A persistent engine receives every fact change as retract/assert
//!   pairs as updates arrive; [`AnalysisState::poll_diagnoses`] runs it
//!   and — thanks to refraction — reports only firings *new* since the
//!   previous poll, without rebuilding the agenda.

use crate::cluster::{cluster_threads_warm, ThreadClustering, WarmClusterState};
use crate::loadbalance::{
    fraction, row_observation, BalanceObservation, LoadBalanceAnalysis, NestedCorrelation,
};
use crate::result::TrialResult;
use crate::rulebase::{engine_with, LOAD_BALANCE_RULES};
use crate::workflow::{load_balance, CaseStudyReport, Policy};
use crate::{AnalysisError, Result};
use perfdmf::{AppliedChunk, Event, EventId, MetricId, Profile, Trial, MAIN_EVENT};
use rules::{Fact, FactHandle};
use statistics::{pearson, RunningPlane};
use std::collections::BTreeSet;

/// Bitwise float equality: the incremental path's change detector.
/// (`==` would treat `-0.0 == 0.0` and `NaN != NaN`, causing missed and
/// spurious fact churn respectively.)
fn feq(a: f64, b: f64) -> bool {
    a.to_bits() == b.to_bits()
}

fn obs_eq(a: &BalanceObservation, b: &BalanceObservation) -> bool {
    a.event == b.event
        && feq(a.stddev_mean_ratio, b.stddev_mean_ratio)
        && feq(a.runtime_fraction, b.runtime_fraction)
        && feq(a.mean, b.mean)
}

fn balance_fact(o: &BalanceObservation) -> Fact {
    Fact::new("RegionBalance")
        .with("eventName", o.event.as_str())
        .with("stddevMeanRatio", o.stddev_mean_ratio)
        .with("runtimeFraction", o.runtime_fraction)
        .with("mean", o.mean)
}

fn pair_fact(outer: &str, inner: &str, correlation: f64) -> Fact {
    Fact::new("NestedCorrelation")
        .with("outer", outer)
        .with("inner", inner)
        .with("correlation", correlation)
}

/// One maintained nested pair under its outer event: the inner event's
/// index, the current correlation (None while [`pearson`] rejects the
/// rows — too few threads or zero variance), and the fact handle live
/// in the persistent engine.
#[derive(Debug)]
struct NestedPair {
    inner: usize,
    correlation: Option<f64>,
    handle: Option<FactHandle>,
}

/// What one [`AnalysisState::update`] call actually did — the
/// observability hook the O(Δ) claim is tested against.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct UpdateStats {
    /// Event rows recomputed with the batch kernels.
    pub dirty_events: usize,
    /// Nested-pair correlations recomputed.
    pub recomputed_pairs: usize,
    /// Whether the total runtime changed (forcing an O(E) fraction
    /// refresh from the stored means).
    pub total_changed: bool,
}

/// Incrementally maintained load-balance analysis over one growing
/// trial (see the module docs for the equality contract).
pub struct AnalysisState {
    metric: String,
    total: f64,
    events: Vec<Event>,
    /// Per-event exclusive-time rows, mirroring the profile.
    excl: Vec<Vec<f64>>,
    /// Per-event O(1) running moments (monitor substrate).
    planes: Vec<RunningPlane>,
    observations: Vec<Option<BalanceObservation>>,
    balance_handles: Vec<Option<FactHandle>>,
    /// Pairs indexed by outer event, inner indices ascending — the
    /// batch sweep's emission order.
    nested: Vec<Vec<NestedPair>>,
    /// Reverse index: for each event, the outers it appears under.
    inner_of: Vec<Vec<usize>>,
    /// Persistent engine fed retract/assert pairs on every change.
    live: rules::Engine,
    /// Threads touched since the last clustering (warm-start deltas).
    touched_threads: BTreeSet<usize>,
    cluster_state: Option<WarmClusterState>,
}

impl AnalysisState {
    /// Builds the state from a trial's current contents — one batch
    /// pass, after which [`AnalysisState::update`] keeps it current in
    /// O(Δ) per chunk.
    pub fn new(trial: &Trial, metric: &str) -> Result<Self> {
        let m = trial
            .profile
            .metric_id(metric)
            .ok_or_else(|| AnalysisError::MissingMetric(metric.to_string()))?;
        let total = TrialResult::new(trial).elapsed(metric)?;
        let mut state = AnalysisState {
            metric: metric.to_string(),
            total,
            events: Vec::new(),
            excl: Vec::new(),
            planes: Vec::new(),
            observations: Vec::new(),
            balance_handles: Vec::new(),
            nested: Vec::new(),
            inner_of: Vec::new(),
            live: engine_with(LOAD_BALANCE_RULES)?,
            touched_threads: BTreeSet::new(),
            cluster_state: None,
        };
        state.sync_events(&trial.profile, m);
        Ok(state)
    }

    /// The metric this state analyses.
    pub fn metric(&self) -> &str {
        &self.metric
    }

    /// Current total runtime (max inclusive of `main`).
    pub fn total(&self) -> f64 {
        self.total
    }

    /// Absorbs one applied chunk: recomputes exactly the rows the chunk
    /// touched (plus an O(E) runtime-fraction refresh when the total
    /// runtime moved) and feeds every fact change to the persistent
    /// engine as a retract/assert pair.
    pub fn update(&mut self, trial: &Trial, chunk: &AppliedChunk) -> Result<UpdateStats> {
        let profile = &trial.profile;
        let m = profile
            .metric_id(&self.metric)
            .ok_or_else(|| AnalysisError::MissingMetric(self.metric.clone()))?;
        let synced_from = self.events.len();
        self.sync_events(profile, m);

        // Total runtime: any chunk can move main's inclusive column, so
        // re-read it (O(threads)) and refresh the stored fractions from
        // the stored means when it changed. `(mean / total).clamp(..)`
        // is the batch expression over a bitwise-identical mean, so the
        // refreshed fractions match a full recompute bit for bit.
        let new_total = TrialResult::new(trial).elapsed(&self.metric)?;
        let total_changed = !feq(new_total, self.total);
        if total_changed {
            self.total = new_total;
            for ei in 0..self.events.len() {
                if let Some(o) = self.observations[ei].clone() {
                    let f = fraction(o.mean, self.total);
                    if !feq(f, o.runtime_fraction) {
                        let mut refreshed = o;
                        refreshed.runtime_fraction = f;
                        self.set_observation(ei, Some(refreshed));
                    }
                }
            }
        }

        let mut dirty: BTreeSet<usize> = BTreeSet::new();
        for tc in &chunk.touched {
            if tc.metric != m {
                continue;
            }
            let ei = tc.event.0 as usize;
            if ei >= self.events.len() {
                return Err(AnalysisError::Invalid(format!(
                    "chunk touches event {} beyond the trial's {} events",
                    ei,
                    self.events.len()
                )));
            }
            for &t in &tc.threads {
                self.touched_threads.insert(t as usize);
            }
            // Rows synced above were read from the post-chunk profile
            // already.
            if ei < synced_from {
                dirty.insert(ei);
            }
        }

        let mut recomputed_pairs = 0;
        for &ei in &dirty {
            recomputed_pairs += self.refresh_row(profile, m, ei);
        }
        Ok(UpdateStats {
            dirty_events: dirty.len(),
            recomputed_pairs,
            total_changed,
        })
    }

    /// The maintained analysis — bitwise equal to
    /// [`crate::loadbalance::analyze`] on the trial's current contents.
    pub fn analysis(&self) -> LoadBalanceAnalysis {
        LoadBalanceAnalysis {
            observations: self.observations.iter().flatten().cloned().collect(),
            nested: self
                .nested
                .iter()
                .enumerate()
                .flat_map(|(oi, pairs)| {
                    pairs.iter().filter_map(move |p| {
                        p.correlation.map(|c| NestedCorrelation {
                            outer: self.events[oi].name.clone(),
                            inner: self.events[p.inner].name.clone(),
                            correlation: c,
                        })
                    })
                })
                .collect(),
        }
    }

    /// Full report from the maintained facts: a fresh rule engine over
    /// [`AnalysisState::analysis`], byte-identical to
    /// [`crate::workflow::analyze_load_balance`] on the same trial.
    pub fn report(&self) -> Result<CaseStudyReport> {
        load_balance(Policy::Strict, || Ok(self.analysis().facts()))
    }

    /// Runs the persistent engine over whatever facts changed since the
    /// last poll. Refraction means the returned report carries only
    /// *new* firings — the monitor-style "what just happened" view.
    pub fn poll_diagnoses(&mut self) -> Result<rules::RunReport> {
        Ok(self.live.run()?)
    }

    /// Warm-started thread clustering: refines the previous centroids
    /// with the threads touched since the last call (falling back to a
    /// cold scan per [`cluster_threads_warm`]'s policy) and re-arms the
    /// delta tracking.
    pub fn cluster(&mut self, trial: &Trial, max_k: usize) -> Result<ThreadClustering> {
        let deltas: Vec<usize> = self.touched_threads.iter().copied().collect();
        let out = cluster_threads_warm(
            trial,
            &self.metric,
            max_k,
            self.cluster_state.as_ref(),
            &deltas,
        )?;
        self.cluster_state = out.state;
        self.touched_threads.clear();
        Ok(out.clustering)
    }

    /// O(1) running moments of one event's exclusive row (monitor
    /// substrate; numeric, not bitwise, agreement with the kernels).
    pub fn running_plane(&mut self, event: &str) -> Option<&mut RunningPlane> {
        let ei = self.events.iter().position(|e| e.name == event)?;
        Some(&mut self.planes[ei])
    }

    /// Grows the state to cover events interned since the last sync.
    /// New events are read whole from the profile (their rows were just
    /// created, so this IS the delta) and paired against every existing
    /// event in both directions — chunks may intern a descendant before
    /// its ancestor, so a *new* event can become the outer of an
    /// existing inner.
    fn sync_events(&mut self, profile: &Profile, m: MetricId) {
        while self.events.len() < profile.event_count() {
            let ei = self.events.len();
            let event = profile.event(EventId(ei as u32)).clone();
            let row: Vec<f64> = profile
                .column(EventId(ei as u32), m)
                .iter()
                .map(|c| c.exclusive)
                .collect();
            self.planes.push(RunningPlane::from_values(&row));
            self.excl.push(row);
            self.events.push(event);
            self.nested.push(Vec::new());
            self.inner_of.push(Vec::new());
            self.observations.push(None);
            self.balance_handles.push(None);

            let obs = row_observation(&self.events[ei], &self.excl[ei], self.total);
            self.set_observation(ei, obs);

            // Existing outers gaining this event as inner. The new
            // index is the largest, so appending keeps each outer's
            // inner list ascending — the batch emission order.
            for oi in 0..ei {
                if self.events[oi].name != MAIN_EVENT
                    && self.events[oi].is_ancestor_of(&self.events[ei])
                {
                    let corr = pearson(&self.excl[oi], &self.excl[ei]).ok();
                    self.nested[oi].push(NestedPair {
                        inner: ei,
                        correlation: None,
                        handle: None,
                    });
                    let pi = self.nested[oi].len() - 1;
                    self.inner_of[ei].push(oi);
                    self.set_pair(oi, pi, corr);
                }
            }
            // This event as outer over every existing event, ascending.
            if self.events[ei].name != MAIN_EVENT {
                for ii in 0..ei {
                    if self.events[ei].is_ancestor_of(&self.events[ii]) {
                        let corr = pearson(&self.excl[ei], &self.excl[ii]).ok();
                        self.nested[ei].push(NestedPair {
                            inner: ii,
                            correlation: None,
                            handle: None,
                        });
                        let pi = self.nested[ei].len() - 1;
                        self.inner_of[ii].push(ei);
                        self.set_pair(ei, pi, corr);
                    }
                }
            }
        }
    }

    /// Recomputes one dirty row with the batch kernels: refresh the
    /// mirrored values (feeding the running plane cell by cell), the
    /// observation, and every pair the row participates in. Returns the
    /// number of pairs recomputed.
    fn refresh_row(&mut self, profile: &Profile, m: MetricId, ei: usize) -> usize {
        let row: Vec<f64> = profile
            .column(EventId(ei as u32), m)
            .iter()
            .map(|c| c.exclusive)
            .collect();
        for (t, &v) in row.iter().enumerate() {
            if !feq(self.excl[ei][t], v) {
                self.planes[ei].update(t, v);
            }
        }
        self.excl[ei] = row;

        let obs = row_observation(&self.events[ei], &self.excl[ei], self.total);
        self.set_observation(ei, obs);

        let mut recomputed = 0;
        for pi in 0..self.nested[ei].len() {
            let inner = self.nested[ei][pi].inner;
            let corr = pearson(&self.excl[ei], &self.excl[inner]).ok();
            self.set_pair(ei, pi, corr);
            recomputed += 1;
        }
        let outers = self.inner_of[ei].clone();
        for oi in outers {
            let pi = self.nested[oi]
                .iter()
                .position(|p| p.inner == ei)
                .expect("inner_of entry without matching pair");
            let corr = pearson(&self.excl[oi], &self.excl[ei]).ok();
            self.set_pair(oi, pi, corr);
            recomputed += 1;
        }
        recomputed
    }

    /// Installs a (possibly unchanged) observation, mirroring any
    /// change into the persistent engine as a retract/assert pair.
    fn set_observation(&mut self, ei: usize, new: Option<BalanceObservation>) {
        let changed = match (&self.observations[ei], &new) {
            (None, None) => false,
            (Some(a), Some(b)) => !obs_eq(a, b),
            _ => true,
        };
        if !changed {
            return;
        }
        if let Some(handle) = self.balance_handles[ei].take() {
            self.live.retract(handle);
        }
        if let Some(o) = &new {
            self.balance_handles[ei] = Some(self.live.assert_fact(balance_fact(o)));
        }
        self.observations[ei] = new;
    }

    /// Installs a (possibly unchanged) pair correlation, mirroring any
    /// change into the persistent engine as a retract/assert pair.
    fn set_pair(&mut self, oi: usize, pi: usize, new: Option<f64>) {
        let changed = match (self.nested[oi][pi].correlation, new) {
            (None, None) => false,
            (Some(a), Some(b)) => !feq(a, b),
            _ => true,
        };
        if !changed {
            return;
        }
        if let Some(handle) = self.nested[oi][pi].handle.take() {
            self.live.retract(handle);
        }
        if let Some(c) = new {
            let fact = pair_fact(
                &self.events[oi].name,
                &self.events[self.nested[oi][pi].inner].name,
                c,
            );
            self.nested[oi][pi].handle = Some(self.live.assert_fact(fact));
        }
        self.nested[oi][pi].correlation = new;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::loadbalance;
    use crate::workflow::analyze_load_balance;
    use perfdmf::{ChunkBatch, ColumnDelta, Measurement, StreamingTrial};

    fn chunk(seq: u64, threads: u32, deltas: Vec<ColumnDelta>) -> ChunkBatch {
        ChunkBatch {
            seq,
            threads,
            deltas,
        }
    }

    fn delta(metric: &str, event: &str, cells: Vec<(u32, f64)>) -> ColumnDelta {
        ColumnDelta {
            metric: metric.into(),
            event: event.into(),
            event_kind: None,
            cells: cells
                .into_iter()
                .map(|(t, v)| {
                    (
                        t,
                        Measurement {
                            inclusive: v,
                            exclusive: v,
                            calls: 1.0,
                            subcalls: 0.0,
                        },
                    )
                })
                .collect(),
        }
    }

    fn assert_bitwise_equal(a: &LoadBalanceAnalysis, b: &LoadBalanceAnalysis) {
        assert_eq!(a.observations.len(), b.observations.len());
        for (x, y) in a.observations.iter().zip(&b.observations) {
            assert_eq!(x.event, y.event);
            assert!(feq(x.stddev_mean_ratio, y.stddev_mean_ratio));
            assert!(feq(x.runtime_fraction, y.runtime_fraction));
            assert!(feq(x.mean, y.mean));
        }
        assert_eq!(a.nested.len(), b.nested.len());
        for (x, y) in a.nested.iter().zip(&b.nested) {
            assert_eq!((&x.outer, &x.inner), (&y.outer, &y.inner));
            assert!(feq(x.correlation, y.correlation));
        }
    }

    #[test]
    fn updates_track_batch_recompute_bitwise() {
        let first = chunk(
            0,
            4,
            vec![
                delta(
                    "TIME",
                    "main",
                    vec![(0, 10.0), (1, 10.0), (2, 10.0), (3, 10.0)],
                ),
                delta(
                    "TIME",
                    "main => outer",
                    vec![(0, 5.0), (1, 4.0), (2, 3.0), (3, 1.0)],
                ),
            ],
        );
        let (mut st, applied) = StreamingTrial::from_batch("t", &first).unwrap();
        let mut state = AnalysisState::new(st.trial(), "TIME").unwrap();
        assert_eq!(applied.seq, 0);

        let updates = [
            chunk(
                1,
                4,
                vec![delta(
                    "TIME",
                    "main => outer => inner",
                    vec![(0, 1.0), (1, 2.0), (2, 3.0), (3, 5.0)],
                )],
            ),
            chunk(2, 4, vec![delta("TIME", "main", vec![(2, 4.0)])]),
            chunk(
                3,
                4,
                vec![delta("TIME", "main => outer", vec![(1, 2.5), (3, 0.5)])],
            ),
        ];
        for c in &updates {
            let applied = st.apply_chunk(c).unwrap();
            state.update(st.trial(), &applied).unwrap();
            let batch = loadbalance::analyze(st.trial(), "TIME").unwrap();
            assert_bitwise_equal(&state.analysis(), &batch);
        }
    }

    #[test]
    fn report_is_byte_identical_to_the_strict_workflow() {
        let first = chunk(
            0,
            4,
            vec![
                delta(
                    "TIME",
                    "main",
                    vec![(0, 62.0), (1, 62.0), (2, 62.0), (3, 62.0)],
                ),
                delta(
                    "TIME",
                    "main => outer",
                    vec![(0, 52.0), (1, 42.0), (2, 32.0), (3, 2.0)],
                ),
                delta(
                    "TIME",
                    "main => outer => inner",
                    vec![(0, 10.0), (1, 20.0), (2, 30.0), (3, 60.0)],
                ),
            ],
        );
        let (mut st, applied) = StreamingTrial::from_batch("t", &first).unwrap();
        let mut state = AnalysisState::new(st.trial(), "TIME").unwrap();
        let _ = applied;

        let more = chunk(
            1,
            4,
            vec![delta("TIME", "main => outer => inner", vec![(3, 5.0)])],
        );
        let applied = st.apply_chunk(&more).unwrap();
        state.update(st.trial(), &applied).unwrap();

        let strict = analyze_load_balance(st.trial(), "TIME").unwrap();
        let incremental = state.report().unwrap();
        assert_eq!(strict.rendered, incremental.rendered);
        assert_eq!(
            strict.report.diagnoses.len(),
            incremental.report.diagnoses.len()
        );
    }

    #[test]
    fn update_is_o_delta_not_o_n() {
        // 32 events; a chunk touching one leaf must recompute one row
        // and only that row's pairs.
        let mut deltas = vec![delta("TIME", "main", vec![(0, 100.0), (1, 100.0)])];
        for i in 0..31 {
            deltas.push(delta(
                "TIME",
                &format!("main => e{i}"),
                vec![(0, 1.0 + i as f64), (1, 2.0)],
            ));
        }
        let (mut st, _) = StreamingTrial::from_batch("t", &chunk(0, 2, deltas)).unwrap();
        let mut state = AnalysisState::new(st.trial(), "TIME").unwrap();

        let applied = st
            .apply_chunk(&chunk(
                1,
                2,
                vec![delta("TIME", "main => e7", vec![(0, 9.0)])],
            ))
            .unwrap();
        let stats = state.update(st.trial(), &applied).unwrap();
        assert_eq!(stats.dirty_events, 1);
        assert!(!stats.total_changed);
        // e7 has no nested pairs (flat siblings), so none recomputed.
        assert_eq!(stats.recomputed_pairs, 0);
        let batch = loadbalance::analyze(st.trial(), "TIME").unwrap();
        assert_bitwise_equal(&state.analysis(), &batch);
    }

    #[test]
    fn poll_diagnoses_reports_only_new_firings() {
        // Balanced start: no diagnosis. A chunk that skews the inner
        // loop must surface the imbalance on the next poll, and a
        // further no-op poll must stay quiet.
        let first = chunk(
            0,
            4,
            vec![
                delta(
                    "TIME",
                    "main",
                    vec![(0, 62.0), (1, 62.0), (2, 62.0), (3, 62.0)],
                ),
                delta(
                    "TIME",
                    "main => outer",
                    vec![(0, 30.0), (1, 30.0), (2, 30.0), (3, 30.0)],
                ),
                delta(
                    "TIME",
                    "main => outer => inner",
                    vec![(0, 30.0), (1, 30.0), (2, 30.0), (3, 30.0)],
                ),
            ],
        );
        let (mut st, _) = StreamingTrial::from_batch("t", &first).unwrap();
        let mut state = AnalysisState::new(st.trial(), "TIME").unwrap();
        let quiet = state.poll_diagnoses().unwrap();
        assert!(quiet.diagnoses.is_empty(), "balanced trial diagnosed");

        // Skew: drain outer wait on threads doing more inner work.
        let skew = chunk(
            1,
            4,
            vec![
                delta(
                    "TIME",
                    "main => outer",
                    vec![(0, 22.0), (1, 12.0), (2, 2.0), (3, -28.0)],
                ),
                delta(
                    "TIME",
                    "main => outer => inner",
                    vec![(0, -20.0), (1, -10.0), (2, 0.0), (3, 30.0)],
                ),
            ],
        );
        let applied = st.apply_chunk(&skew).unwrap();
        state.update(st.trial(), &applied).unwrap();
        let loud = state.poll_diagnoses().unwrap();
        assert!(
            !loud.diagnoses.is_empty(),
            "skewed trial produced no new diagnosis"
        );
        let again = state.poll_diagnoses().unwrap();
        assert!(again.diagnoses.is_empty(), "refraction failed: re-fired");
    }

    #[test]
    fn new_ancestor_after_descendant_still_pairs() {
        // The descendant is interned first; when the ancestor arrives
        // later it must still become the pair's outer.
        let first = chunk(
            0,
            4,
            vec![
                delta(
                    "TIME",
                    "main",
                    vec![(0, 50.0), (1, 50.0), (2, 50.0), (3, 50.0)],
                ),
                delta(
                    "TIME",
                    "main => a => b",
                    vec![(0, 1.0), (1, 2.0), (2, 3.0), (3, 4.0)],
                ),
            ],
        );
        let (mut st, _) = StreamingTrial::from_batch("t", &first).unwrap();
        let mut state = AnalysisState::new(st.trial(), "TIME").unwrap();

        let applied = st
            .apply_chunk(&chunk(
                1,
                4,
                vec![delta(
                    "TIME",
                    "main => a",
                    vec![(0, 4.0), (1, 3.0), (2, 2.0), (3, 1.0)],
                )],
            ))
            .unwrap();
        state.update(st.trial(), &applied).unwrap();
        let batch = loadbalance::analyze(st.trial(), "TIME").unwrap();
        assert_bitwise_equal(&state.analysis(), &batch);
        assert!(batch
            .nested
            .iter()
            .any(|n| n.outer == "main => a" && n.inner == "main => a => b"));
    }

    #[test]
    fn nan_cells_propagate_identically() {
        let first = chunk(
            0,
            4,
            vec![
                delta(
                    "TIME",
                    "main",
                    vec![(0, 10.0), (1, 10.0), (2, 10.0), (3, 10.0)],
                ),
                delta(
                    "TIME",
                    "main => k",
                    vec![(0, 1.0), (1, 2.0), (2, 3.0), (3, 4.0)],
                ),
            ],
        );
        let (mut st, _) = StreamingTrial::from_batch("t", &first).unwrap();
        let mut state = AnalysisState::new(st.trial(), "TIME").unwrap();

        let poison = chunk(1, 4, vec![delta("TIME", "main => k", vec![(2, f64::NAN)])]);
        let applied = st.apply_chunk(&poison).unwrap();
        state.update(st.trial(), &applied).unwrap();
        let batch = loadbalance::analyze(st.trial(), "TIME").unwrap();
        assert_bitwise_equal(&state.analysis(), &batch);
        let obs = state
            .analysis()
            .observations
            .iter()
            .find(|o| o.event == "main => k")
            .cloned()
            .unwrap();
        assert!(obs.mean.is_nan());
        assert!(state.running_plane("main => k").unwrap().poisoned());
    }
}
