//! Streaming-analysis microbenchmarks: O(Δ) update vs batch recompute.
//!
//! Measures the cost of keeping a load-balance diagnosis current while a
//! trial streams in, at 64 / 1 000 / 10 000 interned events:
//!
//! Each size `E` is one pair, `events_{E}`:
//!
//! * `update` — apply one [`ChunkBatch`] touching a single event to a
//!   [`StreamingTrial`] and fold it into a live
//!   [`AnalysisState`](perfexplorer::AnalysisState) with
//!   `AnalysisState::update` (dirty-row recompute with the batch
//!   kernels).
//! * `recompute` — apply the same chunk shape and rerun the batch
//!   `loadbalance::analyze` over the whole trial, the pre-streaming
//!   serving path.
//!
//! The differential proptests in
//! `crates/core/tests/streaming_differential.rs` pin both sides to
//! bitwise-identical analyses, so these pairs measure maintenance cost
//! only. Before any case runs, the first update of each size must dirty
//! exactly the one event its chunk touched.
//!
//! One more pair, `report_64`, times the diagnosis itself on a nested
//! 64-event trial: `incremental` is `AnalysisState::report` (facts
//! asserted straight from the state), `batch` is
//! `workflow::analyze_load_balance` on the same trial. Both must render
//! byte-identical reports before it runs. The harness and its modes
//! are in `bench::measure`; this bench writes `BENCH_streaming.json`.

use bench::measure::{Bench, CountingAlloc};
use perfdmf::{ChunkBatch, ColumnDelta, Measurement, StreamingTrial};
use perfexplorer::{loadbalance, workflow, AnalysisState};
use serde_json::Value;

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Event counts; the middle size is the ISSUE's acceptance point.
const SIZES: [usize; 3] = [64, 1_000, 10_000];
/// Threads per trial — wide enough that per-row summaries do real work.
const THREADS: usize = 32;
/// Metric under analysis.
const METRIC: &str = "TIME";

/// Deterministic per-(event, thread, round) sample in [0, 1).
fn jitter(event: usize, thread: usize, round: u64) -> f64 {
    let mut s = 0x9e37_79b9_7f4a_7c15u64
        ^ ((event as u64) << 32)
        ^ ((thread as u64) << 16)
        ^ round.wrapping_mul(0x517c_c1b7_2722_0a95);
    s ^= s << 13;
    s ^= s >> 7;
    s ^= s << 17;
    (s >> 11) as f64 / (1u64 << 53) as f64
}

/// Callpath name for event `i`: `main` plus flat children of `main`.
fn event_name(i: usize) -> String {
    if i == 0 {
        perfdmf::MAIN_EVENT.to_string()
    } else {
        format!("main => region_{i:05}")
    }
}

/// Callpath name for event `i` of the report trial: `main`, eight
/// phases under it and kernels under the phases, so the trial has
/// nested pairs as well as regions.
fn nested_name(i: usize) -> String {
    match i {
        0 => perfdmf::MAIN_EVENT.to_string(),
        1..=8 => format!("main => phase{i}"),
        _ => format!("main => phase{} => kernel{i}", 1 + i % 8),
    }
}

/// Full column for event `i`, named `name`: mildly imbalanced
/// exclusive values, plus a large inclusive total on `main` so runtime
/// fractions are sane.
fn column(i: usize, name: String, events: usize, round: u64) -> ColumnDelta {
    ColumnDelta {
        metric: METRIC.to_string(),
        event: name,
        event_kind: None,
        cells: (0..THREADS)
            .map(|t| {
                let base = 40.0 + (i % 7) as f64 * 12.0;
                let skew = 1.0 + (t % 5) as f64 * 0.07;
                let value = base * skew + jitter(i, t, round) * 6.0;
                let m = if i == 0 {
                    Measurement {
                        inclusive: value * events as f64,
                        exclusive: value,
                        calls: 1.0,
                        subcalls: events as f64,
                    }
                } else {
                    Measurement::leaf(value)
                };
                (t as u32, m)
            })
            .collect(),
    }
}

/// A fully-populated stream of `events` events named by `name`,
/// delivered as one batch.
fn seeded_stream(events: usize, name: fn(usize) -> String) -> StreamingTrial {
    let batch = ChunkBatch {
        seq: 0,
        threads: THREADS as u32,
        deltas: (0..events).map(|i| column(i, name(i), events, 0)).collect(),
    };
    let (stream, _) =
        StreamingTrial::from_batch(format!("stream-{events}"), &batch).expect("seed batch applies");
    stream
}

/// The per-iteration delta: one non-main event's column refreshed.
fn delta_chunk(events: usize, seq: u64) -> ChunkBatch {
    let target = 1 + (seq as usize % (events - 1));
    ChunkBatch {
        seq,
        threads: THREADS as u32,
        deltas: vec![column(target, event_name(target), events, seq)],
    }
}

fn main() {
    let mut b = Bench::from_env("streaming_analysis", "BENCH_streaming.json");
    b.note("metric", Value::Str(METRIC.into()));
    b.note("threads", Value::Int(THREADS as i64));
    b.note(
        "delta_shape",
        Value::Str("one event column x 32 threads per chunk".into()),
    );
    for events in SIZES {
        let mut stream = seeded_stream(events, event_name);
        let mut state = AnalysisState::new(stream.trial(), METRIC).expect("seeded stream analyzes");
        let applied = stream
            .apply_chunk(&delta_chunk(events, 1))
            .expect("chunk applies");
        let stats = state
            .update(stream.trial(), &applied)
            .expect("update succeeds");
        assert_eq!(stats.dirty_events, 1, "one-column delta dirties one row");
        let mut update_seq = 1u64;

        let mut batch = seeded_stream(events, event_name);
        let mut recompute_seq = 0u64;
        b.pair(
            &format!("events_{events}"),
            ("update", || {
                update_seq += 1;
                let applied = stream
                    .apply_chunk(&delta_chunk(events, update_seq))
                    .expect("chunk applies");
                state
                    .update(stream.trial(), &applied)
                    .expect("update succeeds")
            }),
            ("recompute", || {
                recompute_seq += 1;
                batch
                    .apply_chunk(&delta_chunk(events, recompute_seq))
                    .expect("chunk applies");
                loadbalance::analyze(batch.trial(), METRIC).expect("analyze succeeds")
            }),
        );
    }

    let stream = seeded_stream(64, nested_name);
    let state = AnalysisState::new(stream.trial(), METRIC).expect("report trial analyzes");
    let incremental = state.report().expect("incremental report");
    let batch = workflow::analyze_load_balance(stream.trial(), METRIC).expect("batch report");
    assert_eq!(
        incremental.rendered, batch.rendered,
        "incremental and batch reports must render byte-identically"
    );
    b.pair(
        "report_64",
        ("incremental", || {
            state.report().expect("incremental report")
        }),
        ("batch", || {
            workflow::analyze_load_balance(stream.trial(), METRIC).expect("batch report")
        }),
    );
    b.finish();
}
