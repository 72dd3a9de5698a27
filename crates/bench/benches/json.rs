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
//! Besides the normal Criterion harness, `-- --test` runs every case
//! once, unmeasured, asserting that both paths decode equal values and
//! encode byte-identical text (the CI smoke), and `BENCH_JSON=<path>`
//! switches the binary to a self-timed mode that writes the
//! machine-readable `BENCH_json.json` summary.

use criterion::{criterion_group, Criterion};
use perfdmf::{ChunkBatch, ColumnDelta, Measurement, Trial, TrialBuilder};
use serde_json::Value;
use std::hint::black_box;
use std::time::Instant;

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

/// One benchmark case: a name and its one-pass and reference runs,
/// each returning something to keep alive.
struct Case {
    name: &'static str,
    one_pass: Box<dyn Fn()>,
    reference: Box<dyn Fn()>,
}

fn cases() -> Vec<Case> {
    let chunk_text = serde_json::to_string(&chunk()).expect("encode chunk");
    let trial_value = trial();
    let trial_text = serde_json::to_string(&trial_value).expect("encode trial");
    let (c1, c2) = (chunk_text.clone(), chunk_text);
    let (t1, t2) = (trial_text.clone(), trial_text);
    let (v1, v2) = (trial_value.clone(), trial_value);
    vec![
        Case {
            name: "chunk_decode",
            one_pass: Box::new(move || {
                black_box(serde_json::from_str::<ChunkBatch>(black_box(&c1)).unwrap());
            }),
            reference: Box::new(move || {
                black_box(serde::reference::from_str::<ChunkBatch>(black_box(&c2)).unwrap());
            }),
        },
        Case {
            name: "trial_decode",
            one_pass: Box::new(move || {
                black_box(serde_json::from_str::<Trial>(black_box(&t1)).unwrap());
            }),
            reference: Box::new(move || {
                black_box(serde::reference::from_str::<Trial>(black_box(&t2)).unwrap());
            }),
        },
        Case {
            name: "trial_serialize",
            one_pass: Box::new(move || {
                black_box(serde_json::to_string(black_box(&v1)).unwrap());
            }),
            reference: Box::new(move || {
                black_box(serde::reference::to_string(black_box(&v2)));
            }),
        },
    ]
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

fn bench_json(c: &mut Criterion) {
    check_agreement();
    let mut group = c.benchmark_group("json");
    for case in cases() {
        group.bench_function(&format!("{}/one_pass", case.name), |b| {
            b.iter(|| (case.one_pass)())
        });
        group.bench_function(&format!("{}/reference", case.name), |b| {
            b.iter(|| (case.reference)())
        });
    }
    group.finish();
}

criterion_group!(benches, bench_json);

// ---------------------------------------------------------------------
// BENCH_JSON self-timed mode
// ---------------------------------------------------------------------

/// Median microseconds per call of each of `a` and `b`, over `rounds`
/// interleaved rounds of `batch` calls (after one warm-up round), so
/// both paths see the same machine state.
fn interleaved_us(a: &dyn Fn(), b: &dyn Fn(), rounds: usize, batch: usize) -> (f64, f64) {
    let time = |f: &dyn Fn()| {
        let t = Instant::now();
        for _ in 0..batch {
            f();
        }
        t.elapsed().as_nanos() as f64 / batch as f64 / 1e3
    };
    time(a);
    time(b);
    let (mut sa, mut sb): (Vec<f64>, Vec<f64>) = (0..rounds).map(|_| (time(a), time(b))).unzip();
    let median = |s: &mut Vec<f64>| {
        s.sort_by(f64::total_cmp);
        s[s.len() / 2]
    };
    (median(&mut sa), median(&mut sb))
}

fn round2(x: f64) -> Value {
    Value::Float((x * 100.0).round() / 100.0)
}

fn obj(pairs: Vec<(&str, Value)>) -> Value {
    Value::Object(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
}

fn emit_json(out: &str) {
    check_agreement();
    let mut rows = Vec::new();
    for case in cases() {
        let (one_pass, reference) = interleaved_us(&*case.one_pass, &*case.reference, 21, 200);
        eprintln!(
            "json: {:<16} one-pass {one_pass:>8.2} us  reference {reference:>8.2} us  ({:.2}x)",
            case.name,
            reference / one_pass
        );
        rows.push((
            case.name,
            obj(vec![
                ("one_pass_us", round2(one_pass)),
                ("reference_us", round2(reference)),
                ("speedup", round2(reference / one_pass)),
            ]),
        ));
    }
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let doc = obj(vec![
        (
            "_generated_by",
            Value::Str("BENCH_JSON=<path> cargo bench -p bench --bench json".into()),
        ),
        (
            "_note",
            Value::Str(
                "Medians of 21 interleaved rounds of 200 calls per path; one-pass is \
                 serde_json, reference is serde::reference (through a Value tree)."
                    .into(),
            ),
        ),
        ("cores", Value::Int(cores as i64)),
        (
            "chunk_shape",
            Value::Str(format!(
                "{CHUNK_DELTAS} deltas x {THREADS} threads, {} bytes",
                serde_json::to_string(&chunk()).unwrap().len()
            )),
        ),
        (
            "trial_shape",
            Value::Str(format!(
                "{TRIAL_EVENTS} events x {TRIAL_METRICS} metrics x {THREADS} threads, {} bytes",
                serde_json::to_string(&trial()).unwrap().len()
            )),
        ),
        ("cases", obj(rows)),
    ]);
    std::fs::write(
        out,
        serde_json::to_string_pretty(&doc).expect("render") + "\n",
    )
    .expect("write BENCH_JSON");
    eprintln!("json: wrote {out}");
}

/// Every case once, unmeasured, plus the agreement check: the CI smoke
/// mode (`-- --test`).
fn smoke() {
    check_agreement();
    for case in cases() {
        (case.one_pass)();
        (case.reference)();
        println!("json/smoke/{}: ok", case.name);
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
