//! JSON codec benchmarks: the one-pass `serde_json` path against the
//! two-pass `serde::reference` oracle (text → `Value` tree → type, and
//! type → `Value` tree → text) on the documents the system moves.
//!
//! * `chunk_decode` — one streamed `ChunkBatch` shaped like the
//!   service's live-ingest chunks (9 column deltas × 16 threads), the
//!   per-request decode of every `IngestChunk`;
//! * `trial_decode` / `trial_serialize` — one uploaded `Trial`
//!   (32 events × 2 metrics × 16 threads plus metadata), the decode of
//!   every `Ingest` and the encode of every JSON repository save.
//!
//! Before any case runs, both paths must decode equal values and
//! encode byte-identical text. The harness and its modes are in
//! `bench::measure`; this bench writes `BENCH_json.json`.

use bench::measure::{Bench, CountingAlloc};
use perfdmf::{ChunkBatch, ColumnDelta, Measurement, Trial, TrialBuilder};
use serde_json::Value;
use std::hint::black_box;

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

const CHUNK_DELTAS: usize = 9;
const THREADS: usize = 16;
const TRIAL_EVENTS: usize = 32;
const TRIAL_METRICS: usize = 2;

/// A deterministic, irregular float (full-precision digits, like
/// measured times).
fn value(i: usize) -> f64 {
    ((i * 7919) % 1009) as f64 / 97.0 + 0.001 * i as f64
}

fn measurement(v: f64) -> Measurement {
    Measurement {
        inclusive: v,
        exclusive: v * 0.75,
        calls: 1.0,
        subcalls: 0.0,
    }
}

fn chunk() -> ChunkBatch {
    ChunkBatch {
        seq: 41,
        threads: THREADS as u32,
        deltas: (0..CHUNK_DELTAS)
            .map(|d| ColumnDelta {
                metric: "TIME".into(),
                event: match d {
                    0 => "main".to_string(),
                    1 => "main => solve".to_string(),
                    2 => "main => solve => sweep".to_string(),
                    _ => format!("main => region_{d:02}"),
                },
                event_kind: None,
                cells: (0..THREADS)
                    .map(|t| (t as u32, measurement(value(d * THREADS + t))))
                    .collect(),
            })
            .collect(),
    }
}

fn trial() -> Trial {
    let mut b = TrialBuilder::with_flat_threads("16_dynamic", THREADS);
    let metrics: Vec<_> = (0..TRIAL_METRICS)
        .map(|m| b.metric(["TIME", "PAPI_FP_OPS"][m]))
        .collect();
    for e in 0..TRIAL_EVENTS {
        let event = if e == 0 {
            b.event("main")
        } else {
            b.event(&format!("main => loop_{e:02}"))
        };
        for (mi, &m) in metrics.iter().enumerate() {
            for t in 0..THREADS {
                b.set(event, m, t, measurement(value((e * 3 + mi) * THREADS + t)));
            }
        }
    }
    b.meta("schedule", "dynamic");
    b.meta("threads", THREADS as f64);
    b.meta("machine", "altix");
    b.build()
}

/// Both paths agree on every case: equal decoded values, byte-equal
/// encodings.
fn check_agreement() {
    let chunk_text = serde_json::to_string(&chunk()).unwrap();
    assert_eq!(chunk_text, serde::reference::to_string(&chunk()));
    assert_eq!(
        serde_json::from_str::<ChunkBatch>(&chunk_text).unwrap(),
        serde::reference::from_str::<ChunkBatch>(&chunk_text).unwrap()
    );
    let trial = trial();
    let trial_text = serde_json::to_string(&trial).unwrap();
    assert_eq!(trial_text, serde::reference::to_string(&trial));
    assert_eq!(
        serde_json::to_string_pretty(&trial).unwrap(),
        serde::reference::to_string_pretty(&trial)
    );
    let one_pass = serde_json::from_str::<Trial>(&trial_text).unwrap();
    assert_eq!(
        one_pass,
        serde::reference::from_str::<Trial>(&trial_text).unwrap()
    );
    assert_eq!(one_pass, trial);
}

fn main() {
    let mut b = Bench::from_env("json", "BENCH_json.json");
    check_agreement();
    let chunk_text = serde_json::to_string(&chunk()).expect("encode chunk");
    let trial = trial();
    let trial_text = serde_json::to_string(&trial).expect("encode trial");
    b.note(
        "chunk_shape",
        Value::Str(format!(
            "{CHUNK_DELTAS} deltas x {THREADS} threads, {} bytes",
            chunk_text.len()
        )),
    );
    b.note(
        "trial_shape",
        Value::Str(format!(
            "{TRIAL_EVENTS} events x {TRIAL_METRICS} metrics x {THREADS} threads, {} bytes",
            trial_text.len()
        )),
    );
    b.pair(
        "chunk_decode",
        ("one_pass", || {
            serde_json::from_str::<ChunkBatch>(black_box(&chunk_text)).unwrap()
        }),
        ("reference", || {
            serde::reference::from_str::<ChunkBatch>(black_box(&chunk_text)).unwrap()
        }),
    );
    b.pair(
        "trial_decode",
        ("one_pass", || {
            serde_json::from_str::<Trial>(black_box(&trial_text)).unwrap()
        }),
        ("reference", || {
            serde::reference::from_str::<Trial>(black_box(&trial_text)).unwrap()
        }),
    );
    b.pair(
        "trial_serialize",
        ("one_pass", || {
            serde_json::to_string(black_box(&trial)).unwrap()
        }),
        ("reference", || {
            serde::reference::to_string(black_box(&trial))
        }),
    );
    b.finish();
}
