//! JSON codec benchmarks: the one-pass `serde_json` path against the
//! two-pass `serde::reference` oracle (text → `Value` tree → type, and
//! type → `Value` tree → text) on the documents the system moves.
//!
//! * `chunk_decode` — one streamed `ChunkBatch` shaped like perfbench's
//!   `live_ingest` chunks (11 column deltas × 16 threads: `main`, a
//!   solve/sweep pair of seconds, eight filler regions of milliseconds,
//!   every time a random full-precision float, calls and subcalls small
//!   integral ones), the per-request decode of every `IngestChunk`;
//! * `float_tokens` — that chunk's float tokens, each read by the
//!   one-pass reader against `str::parse::<f64>`, the number oracle;
//! * `trial_decode` / `trial_serialize` — one uploaded `Trial`
//!   (32 events × 2 metrics × 16 threads plus metadata), the decode of
//!   every `Ingest` and the encode of every JSON repository save.
//!
//! Before any case runs, both paths must decode equal values and
//! encode byte-identical text, and the reader must read every float
//! token to `str::parse`'s bits. The harness and its modes are in
//! `bench::measure`; this bench writes `BENCH_json.json`.

use bench::measure::{Bench, CountingAlloc};
use perfdmf::{ChunkBatch, ColumnDelta, Measurement, Trial, TrialBuilder};
use rand::prelude::*;
use serde_json::Value;
use std::hint::black_box;

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

const FILLERS: usize = 8;
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

fn delta(event: String, cells: impl Iterator<Item = Measurement>) -> ColumnDelta {
    ColumnDelta {
        metric: "TIME".into(),
        event,
        event_kind: None,
        cells: cells.enumerate().map(|(t, m)| (t as u32, m)).collect(),
    }
}

/// One live-shaped chunk: per thread, an imbalanced sweep and the wait
/// that evens it out (seconds), eight filler regions (milliseconds),
/// and `main` around them, as a profiler's flush of one solve step.
fn chunk() -> ChunkBatch {
    let mut rng = StdRng::seed_from_u64(41);
    let base = rng.random_range(2.0..4.0);
    let sweep: Vec<f64> = (0..THREADS)
        .map(|_| base * (1.0 + 0.6 * rng.random_range(-1.0..1.0)))
        .collect();
    let wait: Vec<f64> = sweep
        .iter()
        .map(|s| base * 1.6 - s + rng.random_range(0.0..0.05 * base))
        .collect();
    let fillers: Vec<Vec<f64>> = (0..FILLERS)
        .map(|_| {
            let mean = rng.random_range(0.001..0.03);
            (0..THREADS)
                .map(|_| mean * rng.random_range(0.5..1.5))
                .collect()
        })
        .collect();
    let busy: Vec<f64> = (0..THREADS)
        .map(|t| sweep[t] + wait[t] + fillers.iter().map(|f| f[t]).sum::<f64>())
        .collect();
    let main = busy.iter().map(|b| {
        let inclusive = b + rng.random_range(0.1..0.2);
        Measurement {
            exclusive: inclusive - b,
            ..Measurement::leaf(inclusive)
        }
    });
    let mut deltas = vec![
        delta("main".into(), main),
        delta(
            "main => solve".into(),
            wait.into_iter().map(Measurement::leaf),
        ),
        delta(
            "main => solve => sweep".into(),
            sweep.into_iter().map(Measurement::leaf),
        ),
    ];
    for (k, f) in fillers.into_iter().enumerate() {
        deltas.push(delta(
            format!("main => region_{k:02}"),
            f.into_iter().map(Measurement::leaf),
        ));
    }
    ChunkBatch {
        seq: 41,
        threads: THREADS as u32,
        deltas,
    }
}

/// The float tokens of a chunk, as its text writes them.
fn float_tokens(chunk: &ChunkBatch) -> Vec<String> {
    chunk
        .deltas
        .iter()
        .flat_map(|d| &d.cells)
        .flat_map(|(_, m)| [m.inclusive, m.exclusive, m.calls, m.subcalls])
        .map(|f| serde_json::to_string(&f).unwrap())
        .collect()
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
/// encodings, and `str::parse`'s bits for every float token.
fn check_agreement() {
    for token in float_tokens(&chunk()) {
        let read = serde::Reader::new(&token).f64().unwrap();
        assert_eq!(read.to_bits(), token.parse::<f64>().unwrap().to_bits());
    }
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
    let chunk = chunk();
    let chunk_text = serde_json::to_string(&chunk).expect("encode chunk");
    let tokens = float_tokens(&chunk);
    let trial = trial();
    let trial_text = serde_json::to_string(&trial).expect("encode trial");
    b.note(
        "chunk_shape",
        Value::Str(format!(
            "{} deltas x {THREADS} threads, {} float tokens, {} bytes",
            chunk.deltas.len(),
            tokens.len(),
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
        "float_tokens",
        ("reader", || {
            tokens.iter().fold(0u64, |acc, t| {
                acc ^ serde::Reader::new(black_box(t)).f64().unwrap().to_bits()
            })
        }),
        ("str_parse", || {
            tokens.iter().fold(0u64, |acc, t| {
                acc ^ black_box(t).parse::<f64>().unwrap().to_bits()
            })
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
