//! Streaming (delta) trial construction.
//!
//! The batch path loads a whole profile, then analyses it. A live
//! monitor cannot wait for the run to finish: the simulator's profiling
//! layer flushes *column deltas* mid-execution and the analysis side
//! folds them into a growing trial as they arrive. This module is the
//! receiving half of that pipeline:
//!
//! * [`ColumnDelta`] — additive measurements for one `(metric, event)`
//!   column, sparse over threads.
//! * [`ChunkBatch`] — a flush unit: a sequence number plus the deltas
//!   accumulated since the previous flush.
//! * [`StreamingTrial`] — folds batches into a columnar [`Trial`]
//!   in place. Metric/event names are interned once through the
//!   profile's O(1) index tables; new events append a block at the end
//!   of the arena ([`Profile::add_event`] is amortised O(1)), so a
//!   chunk costs O(cells in the chunk), not O(events × threads).
//!
//! Robustness contract (the chaos stage leans on it): deltas are
//! *additive*, so batches commute — out-of-order delivery converges to
//! the same profile up to floating-point reassociation. Replayed
//! batches are detected by their sequence number and skipped. Cells
//! addressing threads outside the trial's thread axis are dropped and
//! counted, never applied and never fatal.

use crate::model::{Event, Measurement, Metric, Profile, ThreadId, Trial};
use crate::{DmfError, EventId, MetricId, Result};
use serde::{Deserialize, Serialize};
use std::collections::HashSet;

/// The most threads a chunk may declare for a new stream. A stream
/// allocates its thread axis up front, so a larger declared count is
/// rejected before any allocation.
pub const MAX_STREAM_THREADS: u32 = 1 << 20;

/// Additive measurements for one `(metric, event)` column. Cells are
/// sparse: `(thread index, measurement delta)` pairs, added into the
/// trial's existing cells on application.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ColumnDelta {
    /// Metric name (interned on first sight).
    pub metric: String,
    /// Full event (callpath) name, interned on first sight.
    pub event: String,
    /// Region-kind tag for a first-sight event (`None` keeps the
    /// default kind).
    #[serde(default)]
    pub event_kind: Option<String>,
    /// Sparse per-thread deltas, added to the current cell values.
    pub cells: Vec<(u32, Measurement)>,
}

/// One flush unit from a producer: everything measured since the
/// previous flush, tagged with a monotone sequence number for replay
/// suppression.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ChunkBatch {
    /// Producer-assigned sequence number, unique per trial stream.
    pub seq: u64,
    /// Thread-axis size of the producing run. A [`StreamingTrial`]
    /// created from a batch uses it to size the thread axis; existing
    /// trials ignore it.
    pub threads: u32,
    /// The deltas, in the producer's first-touch column order.
    pub deltas: Vec<ColumnDelta>,
}

/// One applied column: the resolved ids plus which threads changed.
/// Downstream incremental analyses use this as their dirty set.
#[derive(Debug, Clone, PartialEq)]
pub struct TouchedColumn {
    /// Resolved metric id in the target trial.
    pub metric: MetricId,
    /// Resolved event id in the target trial.
    pub event: EventId,
    /// Thread indices whose cells changed, in delta order (deduplicated).
    pub threads: Vec<u32>,
}

/// Application record of one [`ChunkBatch`]: what changed, what was
/// new, and what had to be dropped.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct AppliedChunk {
    /// The batch's sequence number.
    pub seq: u64,
    /// The batch was a replay of an already-applied sequence number and
    /// was skipped entirely.
    pub duplicate: bool,
    /// Every column the batch changed, with resolved ids.
    pub touched: Vec<TouchedColumn>,
    /// Events interned by this batch (appended arena blocks).
    pub new_events: Vec<EventId>,
    /// Metrics interned by this batch (arena rebuilds — producers
    /// should announce their metric set in the first batch).
    pub new_metrics: Vec<MetricId>,
    /// Cells addressing threads outside the trial's thread axis,
    /// dropped instead of applied.
    pub dropped_cells: usize,
}

impl AppliedChunk {
    /// Total cells applied across all touched columns.
    pub fn applied_cells(&self) -> usize {
        self.touched.iter().map(|t| t.threads.len()).sum()
    }
}

/// A trial under construction from a delta stream.
///
/// Wraps an ordinary [`Trial`] so every batch lands directly in the
/// columnar arena; [`StreamingTrial::trial`] exposes the current state
/// to batch analyses at any point, and [`StreamingTrial::finish`]
/// releases it.
#[derive(Debug, Clone)]
pub struct StreamingTrial {
    trial: Trial,
    /// Sequence numbers already applied (replay suppression).
    seen: HashSet<u64>,
}

impl StreamingTrial {
    /// Starts an empty streamed trial over `n` flat threads.
    pub fn new(name: impl Into<String>, threads: usize) -> Self {
        StreamingTrial {
            trial: Trial::new(
                name,
                Profile::new((0..threads as u32).map(ThreadId::flat).collect()),
            ),
            seen: HashSet::new(),
        }
    }

    /// Adopts an existing trial as the stream target (e.g. the overlay
    /// copy a service shard already holds). Subsequent batches append
    /// to it; previously applied sequence numbers are unknown, so
    /// replay suppression restarts.
    pub fn from_trial(trial: Trial) -> Self {
        StreamingTrial {
            trial,
            seen: HashSet::new(),
        }
    }

    /// Starts an empty streamed trial sized for `batch`'s thread axis,
    /// without applying it. Fails with [`DmfError::TooLarge`] when the
    /// batch declares more than [`MAX_STREAM_THREADS`] threads.
    pub fn for_batch(name: impl Into<String>, batch: &ChunkBatch) -> Result<Self> {
        if batch.threads > MAX_STREAM_THREADS {
            return Err(DmfError::TooLarge {
                what: "stream threads",
                declared: batch.threads.into(),
                max: MAX_STREAM_THREADS.into(),
            });
        }
        Ok(StreamingTrial::new(name, batch.threads as usize))
    }

    /// Starts a streamed trial sized for `batch`'s thread axis, then
    /// applies it. The usual bootstrap when the first thing a consumer
    /// sees *is* a batch.
    pub fn from_batch(name: impl Into<String>, batch: &ChunkBatch) -> Result<(Self, AppliedChunk)> {
        let mut s = StreamingTrial::for_batch(name, batch)?;
        let applied = s.apply_chunk(batch)?;
        Ok((s, applied))
    }

    /// The current state of the streamed trial.
    pub fn trial(&self) -> &Trial {
        &self.trial
    }

    /// Number of distinct batches applied so far.
    pub fn batches_applied(&self) -> usize {
        self.seen.len()
    }

    /// Whether a batch with this sequence number was already applied
    /// (applying it again would be a suppressed duplicate). Lets a
    /// journaling caller skip re-logging redelivered chunks.
    pub fn contains_seq(&self, seq: u64) -> bool {
        self.seen.contains(&seq)
    }

    /// Sets a metadata field on the trial.
    pub fn meta(&mut self, key: &str, value: impl Into<crate::MetaValue>) {
        self.trial.metadata.set(key, value);
    }

    /// Releases the assembled trial.
    pub fn finish(self) -> Trial {
        self.trial
    }

    /// Folds one batch into the trial.
    ///
    /// Additive and replay-safe: cells are `+=`'d into the arena,
    /// an already-seen `seq` returns `duplicate: true` without touching
    /// anything, and out-of-range thread indices are counted in
    /// `dropped_cells` rather than failing the batch. The only hard
    /// error is a profile whose interned index is corrupt (duplicate
    /// names), which [`Profile::add_metric`]/[`Profile::add_event`]
    /// surface as [`DmfError::Duplicate`] — that cannot happen for
    /// profiles this type built itself.
    pub fn apply_chunk(&mut self, batch: &ChunkBatch) -> Result<AppliedChunk> {
        let mut applied = AppliedChunk {
            seq: batch.seq,
            ..AppliedChunk::default()
        };
        if self.seen.contains(&batch.seq) {
            applied.duplicate = true;
            return Ok(applied);
        }
        let profile = &mut self.trial.profile;
        let n_threads = profile.thread_count() as u32;
        for delta in &batch.deltas {
            let metric = match profile.metric_id(&delta.metric) {
                Some(id) => id,
                None => {
                    let id = profile.add_metric(Metric::measured(&delta.metric))?;
                    applied.new_metrics.push(id);
                    id
                }
            };
            let event = match profile.event_id(&delta.event) {
                Some(id) => id,
                None => {
                    let ev = match &delta.event_kind {
                        Some(kind) => Event::with_kind(&delta.event, kind),
                        None => Event::new(&delta.event),
                    };
                    let id = profile.add_event(ev)?;
                    applied.new_events.push(id);
                    id
                }
            };
            let mut touched = TouchedColumn {
                metric,
                event,
                threads: Vec::with_capacity(delta.cells.len()),
            };
            for &(thread, m) in &delta.cells {
                if thread >= n_threads {
                    applied.dropped_cells += 1;
                    continue;
                }
                let cell = profile
                    .get_mut(event, metric, thread as usize)
                    .ok_or_else(|| DmfError::NotFound {
                        kind: "profile cell",
                        name: format!("event {event:?} metric {metric:?} thread {thread}"),
                    })?;
                cell.inclusive += m.inclusive;
                cell.exclusive += m.exclusive;
                cell.calls += m.calls;
                cell.subcalls += m.subcalls;
                if !touched.threads.contains(&thread) {
                    touched.threads.push(thread);
                }
            }
            if !touched.threads.is_empty() || !delta.cells.is_empty() {
                applied.touched.push(touched);
            }
        }
        self.seen.insert(batch.seq);
        Ok(applied)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn delta(metric: &str, event: &str, cells: &[(u32, f64)]) -> ColumnDelta {
        ColumnDelta {
            metric: metric.into(),
            event: event.into(),
            event_kind: None,
            cells: cells
                .iter()
                .map(|&(t, v)| (t, Measurement::leaf(v)))
                .collect(),
        }
    }

    fn batch(seq: u64, threads: u32, deltas: Vec<ColumnDelta>) -> ChunkBatch {
        ChunkBatch {
            seq,
            threads,
            deltas,
        }
    }

    #[test]
    fn chunks_accumulate_into_cells() {
        let mut s = StreamingTrial::new("t", 2);
        let a = s
            .apply_chunk(&batch(
                0,
                2,
                vec![delta("TIME", "main", &[(0, 1.0), (1, 2.0)])],
            ))
            .unwrap();
        assert_eq!(a.new_metrics.len(), 1);
        assert_eq!(a.new_events.len(), 1);
        assert_eq!(a.applied_cells(), 2);
        s.apply_chunk(&batch(1, 2, vec![delta("TIME", "main", &[(0, 3.0)])]))
            .unwrap();
        let p = &s.trial().profile;
        let m = p.metric_id("TIME").unwrap();
        let e = p.event_id("main").unwrap();
        assert_eq!(p.get(e, m, 0).unwrap().inclusive, 4.0);
        assert_eq!(p.get(e, m, 0).unwrap().calls, 2.0);
        assert_eq!(p.get(e, m, 1).unwrap().inclusive, 2.0);
    }

    #[test]
    fn duplicate_seq_is_skipped() {
        let mut s = StreamingTrial::new("t", 1);
        let b = batch(7, 1, vec![delta("TIME", "main", &[(0, 1.0)])]);
        assert!(!s.apply_chunk(&b).unwrap().duplicate);
        let replay = s.apply_chunk(&b).unwrap();
        assert!(replay.duplicate);
        assert!(replay.touched.is_empty());
        let p = &s.trial().profile;
        let m = p.metric_id("TIME").unwrap();
        let e = p.event_id("main").unwrap();
        assert_eq!(p.get(e, m, 0).unwrap().inclusive, 1.0);
        assert_eq!(s.batches_applied(), 1);
    }

    #[test]
    fn out_of_order_batches_commute() {
        let b1 = batch(1, 1, vec![delta("TIME", "main", &[(0, 1.0)])]);
        let b2 = batch(2, 1, vec![delta("TIME", "main => k", &[(0, 5.0)])]);
        let mut fwd = StreamingTrial::new("t", 1);
        fwd.apply_chunk(&b1).unwrap();
        fwd.apply_chunk(&b2).unwrap();
        let mut rev = StreamingTrial::new("t", 1);
        rev.apply_chunk(&b2).unwrap();
        rev.apply_chunk(&b1).unwrap();
        // Same cell values; interning order differs with arrival order.
        for (p, q) in [(&fwd, &rev), (&rev, &fwd)] {
            let pp = &p.trial().profile;
            let qp = &q.trial().profile;
            for name in ["main", "main => k"] {
                let (pe, pm) = (pp.event_id(name).unwrap(), pp.metric_id("TIME").unwrap());
                let (qe, qm) = (qp.event_id(name).unwrap(), qp.metric_id("TIME").unwrap());
                assert_eq!(pp.get(pe, pm, 0), qp.get(qe, qm, 0));
            }
        }
    }

    #[test]
    fn out_of_range_threads_are_dropped_not_fatal() {
        let mut s = StreamingTrial::new("t", 2);
        let a = s
            .apply_chunk(&batch(
                0,
                2,
                vec![delta("TIME", "main", &[(0, 1.0), (9, 5.0), (1, 2.0)])],
            ))
            .unwrap();
        assert_eq!(a.dropped_cells, 1);
        assert_eq!(a.applied_cells(), 2);
        let p = &s.trial().profile;
        let m = p.metric_id("TIME").unwrap();
        let e = p.event_id("main").unwrap();
        assert_eq!(p.get(e, m, 1).unwrap().inclusive, 2.0);
    }

    #[test]
    fn event_kind_applies_on_first_sight() {
        let mut s = StreamingTrial::new("t", 1);
        let mut d = delta("TIME", "main => loop", &[(0, 1.0)]);
        d.event_kind = Some("loop".into());
        s.apply_chunk(&batch(0, 1, vec![d])).unwrap();
        let p = &s.trial().profile;
        let e = p.event_id("main => loop").unwrap();
        assert_eq!(p.event(e).kind.as_deref(), Some("loop"));
    }

    #[test]
    fn from_batch_sizes_threads_from_the_batch() {
        let b = batch(0, 4, vec![delta("TIME", "main", &[(3, 1.0)])]);
        let (s, a) = StreamingTrial::from_batch("t", &b).unwrap();
        assert_eq!(s.trial().profile.thread_count(), 4);
        assert_eq!(a.applied_cells(), 1);
        assert_eq!(a.dropped_cells, 0);
    }

    #[test]
    fn from_batch_rejects_a_thread_axis_over_the_limit() {
        let b = batch(0, MAX_STREAM_THREADS + 1, vec![]);
        assert!(matches!(
            StreamingTrial::from_batch("t", &b),
            Err(DmfError::TooLarge { declared, max, .. })
                if declared == u64::from(MAX_STREAM_THREADS) + 1 && max == u64::from(MAX_STREAM_THREADS)
        ));
    }

    #[test]
    fn batch_serde_round_trips() {
        let b = batch(
            3,
            2,
            vec![
                delta("TIME", "main", &[(0, 1.5), (1, 2.5)]),
                ColumnDelta {
                    metric: "FP_OPS".into(),
                    event: "main => k".into(),
                    event_kind: Some("loop".into()),
                    cells: vec![(1, Measurement::leaf(7.0))],
                },
            ],
        );
        let json = serde_json::to_string(&b).unwrap();
        let back: ChunkBatch = serde_json::from_str(&json).unwrap();
        assert_eq!(b, back);
        // Truncated documents fail to parse instead of panicking.
        assert!(serde_json::from_str::<ChunkBatch>(&json[..json.len() / 2]).is_err());
    }

    #[test]
    fn chunk_batch_round_trips_at_u64_max() {
        let b = batch(u64::MAX, 1, vec![delta("TIME", "main", &[(0, 1.0)])]);
        let json = serde_json::to_string(&b).unwrap();
        assert!(
            json.starts_with(r#"{"seq":18446744073709551615,"#),
            "{json}"
        );
        assert_eq!(serde_json::from_str::<ChunkBatch>(&json).unwrap(), b);
    }

    #[test]
    fn streamed_trial_matches_builder_built_trial() {
        use crate::TrialBuilder;
        let mut b = TrialBuilder::with_flat_threads("t", 2);
        let time = b.metric("TIME");
        let main = b.event("main");
        let inner = b.event("main => k");
        b.set(main, time, 0, Measurement::leaf(3.0));
        b.set(main, time, 1, Measurement::leaf(4.0));
        b.set(inner, time, 0, Measurement::leaf(1.0));
        let built = b.build();

        let mut s = StreamingTrial::new("t", 2);
        s.apply_chunk(&batch(
            0,
            2,
            vec![
                delta("TIME", "main", &[(0, 3.0), (1, 4.0)]),
                delta("TIME", "main => k", &[(0, 1.0)]),
            ],
        ))
        .unwrap();
        assert_eq!(s.finish().profile, built.profile);
    }
}
