//! Streaming-analysis microbenchmarks: O(Δ) update vs batch recompute.
//!
//! Measures the cost of keeping a load-balance diagnosis current while a
//! trial streams in, at 64 / 1 000 / 10 000 interned events:
//!
//! * `update/{E}` — apply one [`ChunkBatch`] touching a single event to a
//!   [`StreamingTrial`] and fold it into a live
//!   [`AnalysisState`](perfexplorer::AnalysisState) with
//!   `AnalysisState::update` (dirty-row recompute with the batch
//!   kernels).
//! * `recompute/{E}` — apply the same chunk shape and rerun the batch
//!   `loadbalance::analyze` over the whole trial, the pre-streaming
//!   serving path.
//!
//! The differential proptests in
//! `crates/core/tests/streaming_differential.rs` pin both sides to
//! bitwise-identical analyses, so these pairs measure maintenance cost
//! only. The speedup at 1 000 events is recorded in EXPERIMENTS.md and
//! `BENCH_streaming.json`.
//!
//! Besides the normal Criterion harness (which honours `--test` for the
//! CI single-pass smoke), setting `BENCH_JSON=<path>` switches the
//! binary to a self-timed single-pass mode that writes the
//! machine-readable `BENCH_streaming.json` summary, folding in headline
//! numbers from the `repo_open` and `statistics_kernels` suites so one
//! artifact carries the repo's performance story.

use criterion::{criterion_group, Criterion};
use perfdmf::{ChunkBatch, ColumnDelta, Measurement, StreamingTrial};
use perfexplorer::{loadbalance, AnalysisState};
use serde_json::Value;
use statistics::cluster::KMeansConfig;
use statistics::{kmeans_flat, matrix::DenseMatrix, reference};
use std::hint::black_box;
use std::time::Instant;

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

/// Full column for event `i`: mildly imbalanced exclusive values, plus
/// a large inclusive total on `main` so runtime fractions are sane.
fn column(i: usize, events: usize, round: u64) -> ColumnDelta {
    ColumnDelta {
        metric: METRIC.to_string(),
        event: event_name(i),
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

/// A fully-populated stream of `events` events, delivered as one batch.
fn seeded_stream(events: usize) -> StreamingTrial {
    let batch = ChunkBatch {
        seq: 0,
        threads: THREADS as u32,
        deltas: (0..events).map(|i| column(i, events, 0)).collect(),
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
        deltas: vec![column(target, events, seq)],
    }
}

fn bench_streaming(c: &mut Criterion) {
    let mut g = c.benchmark_group("streaming_analysis");
    for events in SIZES {
        let mut stream = seeded_stream(events);
        let mut state = AnalysisState::new(stream.trial(), METRIC).expect("seeded stream analyzes");
        let mut seq = 0u64;
        g.bench_function(&format!("update/{events}"), |b| {
            b.iter(|| {
                seq += 1;
                let chunk = delta_chunk(events, seq);
                let applied = stream.apply_chunk(&chunk).expect("chunk applies");
                black_box(
                    state
                        .update(stream.trial(), &applied)
                        .expect("update succeeds"),
                );
            })
        });
        let mut stream = seeded_stream(events);
        let mut seq = 0u64;
        g.bench_function(&format!("recompute/{events}"), |b| {
            b.iter(|| {
                seq += 1;
                let chunk = delta_chunk(events, seq);
                stream.apply_chunk(&chunk).expect("chunk applies");
                black_box(loadbalance::analyze(stream.trial(), METRIC).expect("analyze succeeds"));
            })
        });
    }
    g.finish();
}

criterion_group!(benches, bench_streaming);

// ---------------------------------------------------------------------
// BENCH_JSON single-pass mode
// ---------------------------------------------------------------------

/// Median wall time of `iters` runs of `f`, in nanoseconds, after
/// `warmup` unmeasured runs.
fn median_nanos(warmup: usize, iters: usize, mut f: impl FnMut()) -> f64 {
    for _ in 0..warmup {
        f();
    }
    let mut samples: Vec<f64> = (0..iters)
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed().as_nanos() as f64
        })
        .collect();
    samples.sort_by(|a, b| a.total_cmp(b));
    samples[samples.len() / 2]
}

/// One `update`-vs-`recompute` pair measured by hand.
fn measure_pair(events: usize) -> (f64, f64) {
    let iters = if events >= 10_000 { 12 } else { 30 };
    let mut stream = seeded_stream(events);
    let mut state = AnalysisState::new(stream.trial(), METRIC).expect("seeded stream analyzes");
    let mut seq = 0u64;
    let update = median_nanos(3, iters, || {
        seq += 1;
        let applied = stream
            .apply_chunk(&delta_chunk(events, seq))
            .expect("chunk applies");
        black_box(
            state
                .update(stream.trial(), &applied)
                .expect("update succeeds"),
        );
    });
    let mut stream = seeded_stream(events);
    let mut seq = 0u64;
    let recompute = median_nanos(3, iters, || {
        seq += 1;
        stream
            .apply_chunk(&delta_chunk(events, seq))
            .expect("chunk applies");
        black_box(loadbalance::analyze(stream.trial(), METRIC).expect("analyze succeeds"));
    });
    (update, recompute)
}

/// Headline `statistics_kernels` pair at the 1024x32 acceptance shape.
fn measure_kmeans() -> (f64, f64) {
    let (n, d) = (1024usize, 32usize);
    let points: Vec<Vec<f64>> = (0..n)
        .map(|i| {
            (0..d)
                .map(|j| (i % 4) as f64 * 10.0 + jitter(i, j, 7))
                .collect()
        })
        .collect();
    let flat = DenseMatrix::from_rows(&points).unwrap();
    let cfg = KMeansConfig {
        k: 8,
        max_iterations: 50,
        ..Default::default()
    };
    let reference = median_nanos(1, 5, || {
        black_box(reference::kmeans(black_box(&points), black_box(&cfg)).unwrap());
    });
    let flat_ns = median_nanos(1, 5, || {
        black_box(kmeans_flat(black_box(flat.view()), black_box(&cfg)).unwrap());
    });
    (reference, flat_ns)
}

/// Headline `repo_open` pair: eager JSON parse vs zero-copy PDB1 open
/// of the same repository.
fn measure_repo_open() -> (f64, f64, usize) {
    let mut repo = perfdmf::Repository::new();
    let trials = 256usize;
    for i in 0..trials {
        let stream = seeded_stream(64);
        let mut trial = stream.trial().clone();
        trial.name = format!("trial-{i:04}");
        repo.add_trial("bench", "streaming", trial).expect("insert");
    }
    let json = repo.to_json().expect("serialize json");
    let bytes = repo.to_pdb1();
    let json_ns = median_nanos(1, 5, || {
        black_box(perfdmf::Repository::from_json(black_box(&json)).expect("parse"));
    });
    let mmap_ns = median_nanos(1, 5, || {
        black_box(perfdmf::MappedRepository::from_bytes(black_box(&bytes)).expect("open"));
    });
    (json_ns, mmap_ns, trials)
}

/// Builds an object [`Value`] from `(key, value)` pairs.
fn obj(pairs: Vec<(&str, Value)>) -> Value {
    Value::Object(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
}

/// Rounds to one decimal place for the JSON summary.
fn round1(x: f64) -> Value {
    Value::Float((x * 10.0).round() / 10.0)
}

fn emit_json(path: &str) {
    let mut sizes = Vec::new();
    for events in SIZES {
        let (update, recompute) = measure_pair(events);
        let speedup = recompute / update;
        eprintln!(
            "streaming_analysis: {events:>6} events  update {update:>12.0} ns  \
             recompute {recompute:>14.0} ns  speedup {speedup:.1}x"
        );
        sizes.push(obj(vec![
            ("events", Value::Int(events as i64)),
            ("threads", Value::Int(THREADS as i64)),
            ("update_ns", round1(update)),
            ("recompute_ns", round1(recompute)),
            ("speedup", round1(speedup)),
        ]));
    }
    let (kref, kflat) = measure_kmeans();
    let (json_ns, mmap_ns, trials) = measure_repo_open();
    let doc = obj(vec![
        (
            "_generated_by",
            Value::Str("BENCH_JSON=<path> cargo bench -p bench --bench streaming_analysis".into()),
        ),
        (
            "_note",
            Value::Str(
                "Medians of self-timed single-pass runs; see EXPERIMENTS.md for the \
                 full Criterion suites these headline numbers summarize."
                    .into(),
            ),
        ),
        (
            "streaming_analysis",
            obj(vec![
                ("metric", Value::Str(METRIC.into())),
                (
                    "delta_shape",
                    Value::Str("one event column x 32 threads per chunk".into()),
                ),
                ("sizes", Value::Array(sizes)),
            ]),
        ),
        (
            "statistics_kernels",
            obj(vec![
                ("shape", Value::Str("1024x32, k=8".into())),
                ("kmeans_reference_ns", round1(kref)),
                ("kmeans_flat_ns", round1(kflat)),
                ("speedup", round1(kref / kflat)),
            ]),
        ),
        (
            "repo_open",
            obj(vec![
                ("trials", Value::Int(trials as i64)),
                ("json_parse_ns", round1(json_ns)),
                ("pdb1_mmap_open_ns", round1(mmap_ns)),
                ("speedup", round1(json_ns / mmap_ns)),
            ]),
        ),
    ]);
    std::fs::write(
        path,
        serde_json::to_string_pretty(&doc).expect("render") + "\n",
    )
    .expect("write BENCH_JSON");
    eprintln!("streaming_analysis: wrote {path}");
}

/// One unmeasured update + recompute round per size: the CI smoke mode
/// (`-- --test`), proving the harness runs end to end without paying
/// for full sampling.
fn smoke() {
    for events in SIZES {
        let mut stream = seeded_stream(events);
        let mut state = AnalysisState::new(stream.trial(), METRIC).expect("seeded stream analyzes");
        let applied = stream
            .apply_chunk(&delta_chunk(events, 1))
            .expect("chunk applies");
        let stats = state
            .update(stream.trial(), &applied)
            .expect("update succeeds");
        assert_eq!(stats.dirty_events, 1, "one-column delta dirties one row");
        black_box(loadbalance::analyze(stream.trial(), METRIC).expect("analyze succeeds"));
        println!("streaming_analysis/smoke/{events}: ok");
    }
}

fn main() {
    if let Ok(path) = std::env::var("BENCH_JSON") {
        emit_json(&path);
        return;
    }
    if std::env::args().any(|a| a == "--test") {
        smoke();
        return;
    }
    benches();
}
