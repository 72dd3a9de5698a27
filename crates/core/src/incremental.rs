//! Incremental analysis state: O(Δ) load-balance refresh over streamed
//! chunks.
//!
//! A batch [`crate::loadbalance::analyze`] rescans the whole
//! `events × threads` exclusive-time matrix and recomputes every
//! nested-pair correlation on every request. When a trial grows by
//! streamed [`perfdmf::ChunkBatch`]es, only the touched rows can
//! change, so [`AnalysisState`] keeps per-event state and refreshes
//! exactly those rows — `O(touched events × threads + affected pairs)`
//! per chunk. The state is what a request reads and nothing more: the
//! per-event exclusive rows, the balance observations and the nested
//! pairs.
//!
//! ## Equality contract
//!
//! The incremental path does **not** maintain results with running
//! float arithmetic (which re-associates additions and drifts from the
//! batch kernels). Instead it recomputes each *dirty row* with the very
//! kernels the batch path calls (`loadbalance::row_balance`,
//! `loadbalance::fraction`, [`pearson`]), and pairs events through the
//! batch path's `loadbalance::ancestor_prefixes`, while untouched rows
//! keep their previous — bitwise identical — values.
//! [`AnalysisState::analysis`] is therefore bitwise equal to a fresh
//! [`crate::loadbalance::analyze`] after every chunk, NaN cells
//! included; the differential tests in
//! `tests/streaming_differential.rs` pin this with `f64::to_bits`
//! comparisons.
//!
//! ## Diagnosis
//!
//! The state holds no rule engine. [`AnalysisState::report`] runs the
//! load-balance workflow's rule stage once over the maintained facts,
//! as the paper's pipeline does for a finished trial, so its output is
//! byte-identical to [`crate::workflow::analyze_load_balance`] on the
//! same trial.
//!
//! The facts come straight from the state ([`AnalysisState::facts`]).
//! Each event's name is kept once, as an `Arc<str>` taken when the
//! event is interned, and the state keeps its events in name order and
//! each outer event's pairs in inner-name order. So a report emits the
//! batch path's name-sorted fact sequence by walking those orders and
//! sharing the names: it copies no name and sorts nothing.

use crate::loadbalance::{
    ancestor_prefixes, fraction, nested_fact, region_fact, row_balance, LoadBalanceAnalysis,
    NestedCorrelation, RowBalance,
};
use crate::result::TrialResult;
use crate::workflow::{load_balance, CaseStudyReport, Policy};
use crate::{AnalysisError, Result};
use perfdmf::{AppliedChunk, EventId, MetricId, Profile, Trial, MAIN_EVENT};
use rules::Fact;
use statistics::pearson;
use std::collections::{BTreeSet, HashMap};
use std::sync::Arc;

/// Bitwise float equality: detects a moved total runtime. (`==` would
/// treat `-0.0 == 0.0` and `NaN != NaN`, missing and inventing changes
/// respectively.)
fn feq(a: f64, b: f64) -> bool {
    a.to_bits() == b.to_bits()
}

/// One maintained nested pair under its outer event: the inner event's
/// index and the current correlation (None while [`pearson`] rejects
/// the rows — too few threads or zero variance).
#[derive(Debug)]
struct NestedPair {
    inner: usize,
    correlation: Option<f64>,
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
///
/// # Examples
///
/// Stream chunks into a trial, keep the state current after each one,
/// and render the diagnosis on demand:
///
/// ```
/// use perfdmf::{ChunkBatch, ColumnDelta, Measurement, StreamingTrial};
/// use perfexplorer::{workflow, AnalysisState};
///
/// // One chunk setting `event`'s TIME on threads 0 and 1.
/// fn chunk(seq: u64, event: &str, times: [f64; 2]) -> ChunkBatch {
///     let cells = (0..2).map(|t| (t, Measurement::leaf(times[t as usize])));
///     ChunkBatch {
///         seq,
///         threads: 2,
///         deltas: vec![ColumnDelta {
///             metric: "TIME".into(),
///             event: event.into(),
///             event_kind: None,
///             cells: cells.collect(),
///         }],
///     }
/// }
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let first_chunk = chunk(0, "main", [40.0, 40.0]);
/// let chunk_feed = [
///     chunk(1, "main => solve", [30.0, 6.0]),
///     chunk(2, "main => solve => sweep", [4.0, 30.0]),
/// ];
///
/// let (mut stream, _) = StreamingTrial::from_batch("live-run", &first_chunk)?;
/// let mut state = AnalysisState::new(stream.trial(), "TIME")?;
/// for chunk in &chunk_feed {
///     let applied = stream.apply_chunk(chunk)?; // O(cells touched)
///     state.update(stream.trial(), &applied)?; // O(Δ)
/// }
/// let report = state.report()?; // byte-identical to the batch workflow
/// let batch = workflow::analyze_load_balance(stream.trial(), "TIME")?;
/// assert_eq!(report.rendered, batch.rendered);
/// assert!(!report.report.diagnoses.is_empty()); // the loops are imbalanced
/// # Ok(())
/// # }
/// ```
pub struct AnalysisState {
    metric: String,
    total: f64,
    /// Event names by event index, each shared with every fact that
    /// names the event.
    names: Vec<Arc<str>>,
    /// Event indices in name order, ties by index: the order
    /// `RegionBalance` facts are asserted in, and the outer order of
    /// `NestedCorrelation` facts.
    by_name_order: Vec<usize>,
    /// Whether two outer (non-main) events share a name, which only a
    /// corrupted profile has ([`perfdmf::Profile::corrupt_event_name`]).
    duplicate_names: bool,
    /// Per-event exclusive-time rows, mirroring the profile.
    excl: Vec<Vec<f64>>,
    balance: Vec<Option<RowBalance>>,
    /// Pairs indexed by outer event, in inner-name order (ties by
    /// index): the inner order of `NestedCorrelation` facts.
    nested: Vec<Vec<NestedPair>>,
    /// Reverse index: for each event, the outers it appears under.
    inner_of: Vec<Vec<usize>>,
    /// Non-main events by name: the outers a new event's ancestor
    /// prefixes look up.
    by_name: HashMap<Arc<str>, Vec<usize>>,
    /// Every event by each of its ancestor prefixes, ascending: the
    /// inners an ancestor interned after its descendants adopts.
    by_prefix: HashMap<String, Vec<usize>>,
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
            names: Vec::new(),
            by_name_order: Vec::new(),
            duplicate_names: false,
            excl: Vec::new(),
            balance: Vec::new(),
            nested: Vec::new(),
            inner_of: Vec::new(),
            by_name: HashMap::new(),
            by_prefix: HashMap::new(),
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
    /// touched, plus an O(E) runtime-fraction refresh when the total
    /// runtime moved.
    pub fn update(&mut self, trial: &Trial, chunk: &AppliedChunk) -> Result<UpdateStats> {
        let profile = &trial.profile;
        let m = profile
            .metric_id(&self.metric)
            .ok_or_else(|| AnalysisError::MissingMetric(self.metric.clone()))?;
        let synced_from = self.names.len();
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
            for o in self.balance.iter_mut().flatten() {
                o.runtime_fraction = fraction(o.mean, new_total);
            }
        }

        let mut dirty: BTreeSet<usize> = BTreeSet::new();
        for tc in &chunk.touched {
            if tc.metric != m {
                continue;
            }
            let ei = tc.event.0 as usize;
            if ei >= self.names.len() {
                return Err(AnalysisError::Invalid(format!(
                    "chunk touches event {} beyond the trial's {} events",
                    ei,
                    self.names.len()
                )));
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
        let observations = self
            .balance
            .iter()
            .zip(&self.names)
            .filter_map(|(b, name)| b.map(|b| b.observation(name.to_string())))
            .collect();
        let mut nested = Vec::new();
        for (oi, pairs) in self.nested.iter().enumerate() {
            // The batch sweep emits each outer's inners by index.
            let mut by_index: Vec<&NestedPair> = pairs.iter().collect();
            by_index.sort_unstable_by_key(|p| p.inner);
            nested.extend(by_index.into_iter().filter_map(|p| {
                p.correlation.map(|c| NestedCorrelation {
                    outer: self.names[oi].to_string(),
                    inner: self.names[p.inner].to_string(),
                    correlation: c,
                })
            }));
        }
        LoadBalanceAnalysis {
            observations,
            nested,
        }
    }

    /// The maintained analysis as rule-engine facts: the very sequence
    /// `self.analysis().facts()` returns (`RegionBalance` facts in name
    /// order, then `NestedCorrelation` facts in `(outer, inner)` name
    /// order), built by walking the kept name orders with shared names.
    pub fn facts(&self) -> Vec<Fact> {
        if self.duplicate_names {
            // The batch sort interleaves the pairs of equally named
            // outers by inner name, which the per-outer lists do not;
            // equal region or inner names tie by index on both paths.
            return self.analysis().facts();
        }
        let regions = self.balance.iter().flatten().count();
        let pairs = self
            .nested
            .iter()
            .flatten()
            .filter(|p| p.correlation.is_some())
            .count();
        let mut out = Vec::with_capacity(regions + pairs);
        for &ei in &self.by_name_order {
            if let Some(b) = &self.balance[ei] {
                out.push(region_fact(
                    self.names[ei].clone(),
                    b.stddev_mean_ratio,
                    b.runtime_fraction,
                    b.mean,
                ));
            }
        }
        for &oi in &self.by_name_order {
            for p in &self.nested[oi] {
                if let Some(c) = p.correlation {
                    out.push(nested_fact(
                        self.names[oi].clone(),
                        self.names[p.inner].clone(),
                        c,
                    ));
                }
            }
        }
        out
    }

    /// Full report from the maintained facts: a fresh rule engine over
    /// [`AnalysisState::facts`], byte-identical to
    /// [`crate::workflow::analyze_load_balance`] on the same trial.
    pub fn report(&self) -> Result<CaseStudyReport> {
        load_balance(Policy::Strict, || Ok(self.facts()))
    }

    /// Grows the state to cover events interned since the last sync.
    /// New events are read whole from the profile (their rows were just
    /// created, so this IS the delta) and paired in both directions
    /// through name lookups — chunks may intern a descendant before its
    /// ancestor, so a *new* event can become the outer of existing
    /// inners. The new events and pairs are appended, then the name
    /// orders they joined are sorted once: a stable sort over a sorted
    /// run plus a short new tail costs about one pass.
    fn sync_events(&mut self, profile: &Profile, m: MetricId) {
        let first = self.names.len();
        while self.names.len() < profile.event_count() {
            let ei = self.names.len();
            let name: Arc<str> = profile.event(EventId(ei as u32)).name.as_str().into();
            let row: Vec<f64> = profile
                .column(EventId(ei as u32), m)
                .iter()
                .map(|c| c.exclusive)
                .collect();
            self.balance.push(row_balance(&name, &row, self.total));
            self.excl.push(row);
            self.nested.push(Vec::new());
            self.inner_of.push(Vec::new());
            self.by_name_order.push(ei);
            self.names.push(name.clone());

            // This event as outer over the existing events that named
            // it as an ancestor.
            if &*name != MAIN_EVENT {
                let inners = self.by_prefix.get(&*name).cloned().unwrap_or_default();
                for ii in inners {
                    self.add_pair(ei, ii);
                }
                let outers = self.by_name.entry(name.clone()).or_default();
                self.duplicate_names |= !outers.is_empty();
                outers.push(ei);
            }
            // Existing outers gaining this event as inner.
            for prefix in ancestor_prefixes(&name) {
                if let Some(outers) = self.by_name.get(prefix).cloned() {
                    for oi in outers {
                        self.add_pair(oi, ei);
                    }
                }
                self.by_prefix
                    .entry(prefix.to_string())
                    .or_default()
                    .push(ei);
            }
        }
        let added = first..self.names.len();
        if added.is_empty() {
            return;
        }
        let names = &self.names;
        self.by_name_order
            .sort_by(|&a, &b| (&names[a], a).cmp(&(&names[b], b)));
        // Every new pair has a new outer or a new inner.
        let mut grown: Vec<usize> = added
            .clone()
            .chain(added.flat_map(|ei| self.inner_of[ei].iter().copied()))
            .collect();
        grown.sort_unstable();
        grown.dedup();
        for oi in grown {
            self.nested[oi]
                .sort_by(|p, q| (&names[p.inner], p.inner).cmp(&(&names[q.inner], q.inner)));
        }
    }

    /// Records `outer → inner` as a nested pair with its correlation
    /// over the current rows; [`AnalysisState::sync_events`] puts it in
    /// its place in the outer's inner-name order.
    fn add_pair(&mut self, oi: usize, ii: usize) {
        let correlation = pearson(&self.excl[oi], &self.excl[ii]).ok();
        self.nested[oi].push(NestedPair {
            inner: ii,
            correlation,
        });
        self.inner_of[ii].push(oi);
    }

    /// Recomputes one dirty row with the batch kernels: refresh the
    /// mirrored values, the observation, and every pair the row
    /// participates in. Returns the number of pairs recomputed.
    fn refresh_row(&mut self, profile: &Profile, m: MetricId, ei: usize) -> usize {
        self.excl[ei] = profile
            .column(EventId(ei as u32), m)
            .iter()
            .map(|c| c.exclusive)
            .collect();
        self.balance[ei] = row_balance(&self.names[ei], &self.excl[ei], self.total);

        let mut recomputed = 0;
        for pi in 0..self.nested[ei].len() {
            let inner = self.nested[ei][pi].inner;
            self.nested[ei][pi].correlation = pearson(&self.excl[ei], &self.excl[inner]).ok();
            recomputed += 1;
        }
        for &oi in &self.inner_of[ei] {
            let pair = self.nested[oi]
                .iter_mut()
                .find(|p| p.inner == ei)
                .expect("inner_of entry without matching pair");
            pair.correlation = pearson(&self.excl[oi], &self.excl[ei]).ok();
            recomputed += 1;
        }
        recomputed
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
    fn facts_match_the_batch_order_under_duplicate_names() {
        // Only a corrupted profile repeats a name. Two outers named
        // `main => a` then share inners, and the batch sort interleaves
        // their pairs by inner name.
        let mut b = perfdmf::TrialBuilder::with_flat_threads("dup", 4);
        let m = b.metric("TIME");
        for (name, row) in [
            ("main", [100.0; 4]),
            ("main => a", [1.0, 3.0, 2.0, 4.0]),
            ("main => q", [4.0, 1.0, 3.0, 2.0]),
            ("main => a => z", [2.0, 4.0, 1.0, 3.0]),
            ("main => a => y", [3.0, 2.0, 4.0, 1.0]),
        ] {
            let e = b.event(name);
            for (t, &v) in row.iter().enumerate() {
                b.set(e, m, t, Measurement::leaf(v));
            }
        }
        let mut trial = b.build();
        trial
            .profile
            .corrupt_event_name(perfdmf::EventId(2), "main => a");
        let state = AnalysisState::new(&trial, "TIME").unwrap();
        let batch = loadbalance::analyze(&trial, "TIME").unwrap();
        assert_bitwise_equal(&state.analysis(), &batch);
        assert_eq!(batch.nested.len(), 4);
        assert_eq!(state.facts(), batch.facts());
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
    }
}
