//! TAU-like profile recording for simulated executions.
//!
//! [`Recorder`] gives the simulated applications the same measurement
//! interface TAU's instrumentation gives real ones: per-thread region
//! enter/exit on a virtual clock, callpath naming (`main => loop`), and
//! hardware-counter attribution. On [`Recorder::finish`] it produces a
//! [`perfdmf::Trial`] ready for the repository and the analysis layer.

use crate::counters::CounterSet;
use perfdmf::model::CALLPATH_SEPARATOR;
use perfdmf::{ChunkBatch, ColumnDelta, EventId, Measurement, MetricId, Trial, TrialBuilder};
use std::collections::BTreeMap;

/// Per-thread recording state.
#[derive(Debug, Default)]
struct ThreadState {
    /// Virtual clock in seconds.
    clock: f64,
    /// Stack of open regions: (full path, entry time, child time).
    stack: Vec<(String, f64, f64)>,
}

/// Records region timings and counters for simulated threads.
#[derive(Debug)]
pub struct Recorder {
    builder: TrialBuilder,
    time_metric: MetricId,
    threads: Vec<ThreadState>,
    /// Flush journal: measurements accumulated since the last
    /// [`Recorder::flush`], keyed by `(event, metric)` id so drain
    /// order follows interning (first-touch) order, then by thread.
    journal: BTreeMap<(u32, u32), BTreeMap<u32, Measurement>>,
    /// Sequence number of the next flushed batch.
    next_seq: u64,
}

impl Recorder {
    /// Starts recording a trial over `n` flat threads.
    pub fn new(trial_name: &str, threads: usize) -> Self {
        let mut builder = TrialBuilder::with_flat_threads(trial_name, threads);
        let time_metric = builder.metric("TIME");
        Recorder {
            builder,
            time_metric,
            threads: (0..threads).map(|_| ThreadState::default()).collect(),
            journal: BTreeMap::new(),
            next_seq: 0,
        }
    }

    /// Starts recording a trial over `n` MPI ranks.
    pub fn new_ranks(trial_name: &str, ranks: usize) -> Self {
        let mut builder = TrialBuilder::with_ranks(trial_name, ranks);
        let time_metric = builder.metric("TIME");
        Recorder {
            builder,
            time_metric,
            threads: (0..ranks).map(|_| ThreadState::default()).collect(),
            journal: BTreeMap::new(),
            next_seq: 0,
        }
    }

    /// Accumulates a measurement into both the trial under construction
    /// and the flush journal.
    fn charge(&mut self, event: EventId, metric: MetricId, thread: usize, m: Measurement) {
        self.builder.accumulate(event, metric, thread, m);
        let cell = self
            .journal
            .entry((event.0, metric.0))
            .or_default()
            .entry(thread as u32)
            .or_default();
        cell.inclusive += m.inclusive;
        cell.exclusive += m.exclusive;
        cell.calls += m.calls;
        cell.subcalls += m.subcalls;
    }

    /// Drains everything measured since the previous flush into a
    /// [`ChunkBatch`] for a streaming consumer
    /// ([`perfdmf::StreamingTrial::apply_chunk`]). Column order follows
    /// interning order, so a consumer that applies batches in sequence
    /// interns the same metric/event order the builder did. Flushing
    /// with an empty journal yields an empty batch (still consuming a
    /// sequence number).
    pub fn flush(&mut self) -> ChunkBatch {
        let profile = self.builder.profile();
        let deltas = std::mem::take(&mut self.journal)
            .into_iter()
            .map(|((event, metric), cells)| {
                let ev = profile.event(EventId(event));
                ColumnDelta {
                    metric: profile.metric(MetricId(metric)).name.clone(),
                    event: ev.name.to_string(),
                    event_kind: ev.kind.clone(),
                    cells: cells.into_iter().collect(),
                }
            })
            .collect();
        let seq = self.next_seq;
        self.next_seq += 1;
        ChunkBatch {
            seq,
            threads: self.threads.len() as u32,
            deltas,
        }
    }

    /// Number of threads being recorded.
    pub fn thread_count(&self) -> usize {
        self.threads.len()
    }

    /// Current virtual time of a thread.
    pub fn clock(&self, thread: usize) -> f64 {
        self.threads[thread].clock
    }

    /// Enters a region on a thread. Regions nest; the recorded event name
    /// is the full callpath.
    pub fn enter(&mut self, thread: usize, region: &str) {
        let state = &mut self.threads[thread];
        let path = match state.stack.last() {
            Some((parent, _, _)) => format!("{parent}{CALLPATH_SEPARATOR}{region}"),
            None => region.to_string(),
        };
        let now = state.clock;
        state.stack.push((path, now, 0.0));
    }

    /// Advances a thread's clock by `dt` seconds of work inside the
    /// current region.
    pub fn advance(&mut self, thread: usize, dt: f64) {
        self.threads[thread].clock += dt;
    }

    /// Exits the current region on a thread, recording its inclusive and
    /// exclusive time. Returns the full path of the exited region.
    ///
    /// # Panics
    /// Panics if the thread has no open region — that is a bug in the
    /// simulated application, equivalent to mismatched TAU timers.
    pub fn exit(&mut self, thread: usize) -> String {
        let state = &mut self.threads[thread];
        let (path, entry, child_time) = state
            .stack
            .pop()
            .expect("Recorder::exit without matching enter");
        let now = state.clock;
        let inclusive = now - entry;
        let exclusive = inclusive - child_time;
        // Charge this region's inclusive time to the parent's child time.
        if let Some((_, _, parent_child)) = state.stack.last_mut() {
            *parent_child += inclusive;
        }
        let event = self.builder.event(&path);
        self.charge(
            event,
            self.time_metric,
            thread,
            Measurement {
                inclusive,
                exclusive,
                calls: 1.0,
                subcalls: 0.0,
            },
        );
        path
    }

    /// Attributes a counter set to an event path on a thread. Counter
    /// values land in the event's exclusive and inclusive columns (the
    /// convention TAU uses for leaf attribution).
    pub fn record_counters(&mut self, thread: usize, event_path: &str, counters: &CounterSet) {
        let event = self.builder.event(event_path);
        for (counter, value) in counters.iter() {
            let metric = self.builder.metric(counter.metric_name());
            self.charge(
                event,
                metric,
                thread,
                Measurement {
                    inclusive: value,
                    exclusive: value,
                    calls: 0.0,
                    subcalls: 0.0,
                },
            );
        }
    }

    /// Adds counter values to an *ancestor*'s inclusive column only —
    /// used when rolling leaf counters up a callpath.
    pub fn roll_up_counters(&mut self, thread: usize, event_path: &str, counters: &CounterSet) {
        let event = self.builder.event(event_path);
        for (counter, value) in counters.iter() {
            let metric = self.builder.metric(counter.metric_name());
            self.charge(
                event,
                metric,
                thread,
                Measurement {
                    inclusive: value,
                    exclusive: 0.0,
                    calls: 0.0,
                    subcalls: 0.0,
                },
            );
        }
    }

    /// Sets a trial metadata field.
    pub fn meta(&mut self, key: &str, value: impl Into<perfdmf::MetaValue>) {
        self.builder.meta(key, value);
    }

    /// Finishes recording. Open regions are an error in the simulated
    /// app; they are closed at the current clock to keep the profile
    /// well-formed, mirroring TAU's behaviour at program exit.
    pub fn finish(mut self) -> Trial {
        for t in 0..self.threads.len() {
            while !self.threads[t].stack.is_empty() {
                self.exit(t);
            }
        }
        self.builder.build()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::counters::Counter;

    #[test]
    fn nested_regions_produce_callpaths_with_correct_times() {
        let mut r = Recorder::new("t", 1);
        r.enter(0, "main");
        r.advance(0, 1.0);
        r.enter(0, "loop");
        r.advance(0, 3.0);
        r.exit(0);
        r.advance(0, 0.5);
        r.exit(0);
        let trial = r.finish();
        let p = &trial.profile;
        let time = p.metric_id("TIME").unwrap();
        let main = p.event_id("main").unwrap();
        let inner = p.event_id("main => loop").unwrap();
        let m_main = p.get(main, time, 0).unwrap();
        let m_inner = p.get(inner, time, 0).unwrap();
        assert!((m_main.inclusive - 4.5).abs() < 1e-12);
        assert!((m_main.exclusive - 1.5).abs() < 1e-12);
        assert!((m_inner.inclusive - 3.0).abs() < 1e-12);
        assert!((m_inner.exclusive - 3.0).abs() < 1e-12);
        assert_eq!(m_main.calls, 1.0);
    }

    #[test]
    fn repeated_entries_accumulate_calls() {
        let mut r = Recorder::new("t", 1);
        r.enter(0, "main");
        for _ in 0..3 {
            r.enter(0, "f");
            r.advance(0, 1.0);
            r.exit(0);
        }
        r.exit(0);
        let trial = r.finish();
        let p = &trial.profile;
        let time = p.metric_id("TIME").unwrap();
        let f = p.event_id("main => f").unwrap();
        let m = p.get(f, time, 0).unwrap();
        assert_eq!(m.calls, 3.0);
        assert!((m.inclusive - 3.0).abs() < 1e-12);
    }

    #[test]
    fn per_thread_clocks_are_independent() {
        let mut r = Recorder::new("t", 2);
        r.enter(0, "main");
        r.enter(1, "main");
        r.advance(0, 1.0);
        r.advance(1, 9.0);
        r.exit(0);
        r.exit(1);
        let trial = r.finish();
        let p = &trial.profile;
        let time = p.metric_id("TIME").unwrap();
        let main = p.event_id("main").unwrap();
        assert_eq!(p.get(main, time, 0).unwrap().inclusive, 1.0);
        assert_eq!(p.get(main, time, 1).unwrap().inclusive, 9.0);
    }

    #[test]
    fn counters_become_metrics() {
        let mut r = Recorder::new("t", 1);
        r.enter(0, "main");
        r.advance(0, 1.0);
        let mut c = CounterSet::new();
        c.add(Counter::FpOps, 1000.0);
        c.add(Counter::L3Misses, 5.0);
        r.record_counters(0, "main", &c);
        r.exit(0);
        let trial = r.finish();
        let p = &trial.profile;
        let fp = p.metric_id("FP_OPS").unwrap();
        let main = p.event_id("main").unwrap();
        assert_eq!(p.get(main, fp, 0).unwrap().exclusive, 1000.0);
        let l3 = p.metric_id("L3_MISSES").unwrap();
        assert_eq!(p.get(main, l3, 0).unwrap().exclusive, 5.0);
    }

    #[test]
    fn roll_up_touches_inclusive_only() {
        let mut r = Recorder::new("t", 1);
        r.enter(0, "main");
        r.exit(0);
        let mut c = CounterSet::new();
        c.add(Counter::FpOps, 10.0);
        r.roll_up_counters(0, "main", &c);
        let trial = r.finish();
        let p = &trial.profile;
        let fp = p.metric_id("FP_OPS").unwrap();
        let main = p.event_id("main").unwrap();
        let m = p.get(main, fp, 0).unwrap();
        assert_eq!(m.inclusive, 10.0);
        assert_eq!(m.exclusive, 0.0);
    }

    #[test]
    fn finish_closes_dangling_regions() {
        let mut r = Recorder::new("t", 1);
        r.enter(0, "main");
        r.enter(0, "leaked");
        r.advance(0, 2.0);
        let trial = r.finish();
        let p = &trial.profile;
        assert!(p.event_id("main").is_some());
        assert!(p.event_id("main => leaked").is_some());
    }

    #[test]
    fn flush_batches_rebuild_the_finished_profile() {
        // Run the same workload through two recorders: one flushed
        // mid-execution into a StreamingTrial, one finished whole.
        let drive = |r: &mut Recorder, flushed: Option<&mut Vec<perfdmf::ChunkBatch>>| {
            r.enter(0, "main");
            r.enter(1, "main");
            r.advance(0, 1.0);
            r.advance(1, 2.0);
            r.enter(0, "loop");
            r.advance(0, 3.0);
            r.exit(0);
            let mut sink = flushed;
            if let Some(out) = sink.as_mut() {
                out.push(r.flush());
            }
            let mut c = CounterSet::new();
            c.add(Counter::FpOps, 500.0);
            r.record_counters(1, "main", &c);
            r.advance(0, 0.25);
            r.advance(1, 0.75);
            r.exit(0);
            r.exit(1);
            if let Some(out) = sink.as_mut() {
                out.push(r.flush());
            }
        };

        let mut batched = Recorder::new("t", 2);
        drive(&mut batched, None);
        let reference = batched.finish();

        let mut live = Recorder::new("t", 2);
        let mut batches = Vec::new();
        drive(&mut live, Some(&mut batches));
        assert_eq!(batches.len(), 2);
        assert_eq!(batches[0].seq, 0);
        assert_eq!(batches[1].seq, 1);

        let (mut st, _) = perfdmf::StreamingTrial::from_batch("t", &batches[0]).unwrap();
        st.apply_chunk(&batches[1]).unwrap();
        let streamed = st.finish();

        let rp = &reference.profile;
        let sp = &streamed.profile;
        assert_eq!(rp.metrics().len(), sp.metrics().len());
        assert_eq!(rp.events().len(), sp.events().len());
        for (i, m) in rp.metrics().iter().enumerate() {
            assert_eq!(m.name, sp.metrics()[i].name);
        }
        for (i, e) in rp.events().iter().enumerate() {
            assert_eq!(e.name, sp.events()[i].name);
        }
        for e in 0..rp.events().len() {
            for m in 0..rp.metrics().len() {
                for t in 0..2 {
                    let a = rp
                        .get(perfdmf::EventId(e as u32), perfdmf::MetricId(m as u32), t)
                        .unwrap();
                    let b = sp
                        .get(perfdmf::EventId(e as u32), perfdmf::MetricId(m as u32), t)
                        .unwrap();
                    assert!(
                        (a.inclusive - b.inclusive).abs() <= 1e-12 * a.inclusive.abs().max(1.0),
                        "inclusive mismatch at event {e} metric {m} thread {t}"
                    );
                    assert!(
                        (a.exclusive - b.exclusive).abs() <= 1e-12 * a.exclusive.abs().max(1.0)
                    );
                    assert_eq!(a.calls, b.calls);
                }
            }
        }

        // Only the last region flushed after finish-equivalent exits; the
        // journal is drained, so a third flush is empty but sequenced.
        let mut live2 = Recorder::new("t", 1);
        live2.enter(0, "main");
        live2.exit(0);
        let b0 = live2.flush();
        assert_eq!(b0.seq, 0);
        assert!(!b0.deltas.is_empty());
        let b1 = live2.flush();
        assert_eq!(b1.seq, 1);
        assert!(b1.deltas.is_empty());
    }

    #[test]
    fn metadata_flows_to_trial() {
        let mut r = Recorder::new_ranks("t", 4);
        r.meta("paradigm", "mpi");
        r.meta("ranks", 4usize);
        let trial = r.finish();
        assert_eq!(trial.metadata.get_str("paradigm"), Some("mpi"));
        assert_eq!(trial.metadata.get_num("ranks"), Some(4.0));
        assert_eq!(trial.profile.threads()[3].node, 3);
    }
}
