//! Write-ahead journal benchmarks: per-record append cost under each
//! fsync policy, and replay throughput for crash recovery.
//!
//! Append cost is what every acknowledged streaming chunk pays before
//! its ack (DESIGN.md §3.12) — the fsync policy is the knob that trades
//! durability against that tax, so the three policies are measured side
//! by side on an identical record. Replay throughput bounds restart
//! time after a crash: a journal of N records is read, checksum-checked
//! and decoded end to end, which is exactly the startup path
//! `ShardedRepository::attach_wal` takes.
//!
//! Besides the normal Criterion harness, `-- --test` runs one
//! unmeasured append per policy plus one replay (the CI smoke), and
//! setting `BENCH_JSON=<path>` switches the binary to a self-timed
//! single-pass mode that writes the machine-readable `BENCH_wal.json`
//! summary.

use criterion::{criterion_group, BenchmarkId, Criterion, Throughput};
use perfdmf::wal::{replay_path, Journal};
use perfdmf::{ChunkBatch, ColumnDelta, FsyncPolicy, Measurement, WalRecord};
use serde_json::Value;
use std::hint::black_box;
use std::path::{Path, PathBuf};
use std::time::Instant;

const THREADS: u32 = 8;
const COLUMNS: usize = 4;
const POLICIES: [(&str, FsyncPolicy); 3] = [
    ("never", FsyncPolicy::Never),
    ("every64", FsyncPolicy::EveryN(64)),
    ("always", FsyncPolicy::Always),
];
const REPLAY_SIZES: [u64; 2] = [1_000, 10_000];

/// One realistic journal record: a chunk refreshing `COLUMNS` columns
/// of an 8-thread trial — one small streamed flush, as a client that
/// interleaves chunk ingest with analysis sends it.
fn chunk_record(seq: u64) -> WalRecord {
    WalRecord::Chunk {
        app: "bench".into(),
        experiment: "exp".into(),
        trial: "stream".into(),
        batch: ChunkBatch {
            seq,
            threads: THREADS,
            deltas: (0..COLUMNS)
                .map(|c| ColumnDelta {
                    metric: "TIME".into(),
                    event: format!("main => e{c}"),
                    event_kind: None,
                    cells: (0..THREADS)
                        .map(|t| (t, Measurement::leaf(seq as f64 + c as f64 + t as f64)))
                        .collect(),
                })
                .collect(),
        },
    }
}

fn bench_dir() -> PathBuf {
    let dir = std::env::temp_dir().join(format!("pwal-bench-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create bench dir");
    dir
}

fn bench_append(c: &mut Criterion) {
    let dir = bench_dir();
    let record = chunk_record(0);
    let mut group = c.benchmark_group("wal_append");
    group.throughput(Throughput::Elements(1));
    for (name, policy) in POLICIES {
        let path = dir.join(format!("append-{name}.wal"));
        std::fs::remove_file(&path).ok();
        let (mut journal, _) = Journal::open(&path, policy).expect("open journal");
        group.bench_function(name, |b| {
            b.iter(|| journal.append(black_box(&record)).expect("append"))
        });
        std::fs::remove_file(&path).ok();
    }
    group.finish();
    std::fs::remove_dir_all(&dir).ok();
}

/// Writes a journal of `records` chunk records at `path`.
fn write_journal(path: &Path, records: u64) {
    std::fs::remove_file(path).ok();
    let (mut journal, _) = Journal::open(path, FsyncPolicy::Never).expect("open journal");
    for seq in 0..records {
        journal.append(&chunk_record(seq)).expect("append");
    }
    journal.sync().expect("sync");
}

/// Replays `path`, asserting it holds exactly `records` intact records.
fn replay_checked(path: &Path, records: u64) -> perfdmf::wal::WalReplay {
    let replay = replay_path(path).expect("replay");
    assert_eq!(replay.records.len() as u64, records);
    assert_eq!(replay.torn_bytes, 0);
    replay
}

fn bench_replay(c: &mut Criterion) {
    let dir = bench_dir();
    let mut group = c.benchmark_group("wal_replay");
    for records in REPLAY_SIZES {
        let path = dir.join(format!("replay-{records}.wal"));
        write_journal(&path, records);
        group.throughput(Throughput::Elements(records));
        group.bench_with_input(BenchmarkId::from_parameter(records), &path, |b, path| {
            b.iter(|| replay_checked(black_box(path), records))
        });
        std::fs::remove_file(&path).ok();
    }
    group.finish();
    std::fs::remove_dir_all(&dir).ok();
}

criterion_group!(benches, bench_append, bench_replay);

// ---------------------------------------------------------------------
// BENCH_JSON single-pass mode
// ---------------------------------------------------------------------

/// Median of `rounds` samples of `f`'s wall time in nanoseconds, after
/// one unmeasured warm-up run.
fn median_nanos(rounds: usize, mut f: impl FnMut()) -> f64 {
    f();
    let mut samples: Vec<f64> = (0..rounds)
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed().as_nanos() as f64
        })
        .collect();
    samples.sort_by(|a, b| a.total_cmp(b));
    samples[samples.len() / 2]
}

/// Median per-record append time under `policy`, in microseconds.
fn measure_append(dir: &Path, name: &str, policy: FsyncPolicy) -> f64 {
    // An fsync per record costs milliseconds; keep that batch short.
    let batch = if matches!(policy, FsyncPolicy::Always) {
        64
    } else {
        1_024
    };
    let path = dir.join(format!("pass-append-{name}.wal"));
    std::fs::remove_file(&path).ok();
    let (mut journal, _) = Journal::open(&path, policy).expect("open journal");
    let record = chunk_record(0);
    let nanos = median_nanos(7, || {
        for _ in 0..batch {
            journal.append(black_box(&record)).expect("append");
        }
    });
    drop(journal);
    std::fs::remove_file(&path).ok();
    nanos / batch as f64 / 1e3
}

/// Rounds to one decimal place for the JSON summary.
fn round1(x: f64) -> Value {
    Value::Float((x * 10.0).round() / 10.0)
}

fn obj(pairs: Vec<(&str, Value)>) -> Value {
    Value::Object(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
}

fn emit_json(out: &str) {
    let dir = bench_dir();
    let mut append = Vec::new();
    for (name, policy) in POLICIES {
        let us = measure_append(&dir, name, policy);
        eprintln!("wal: append {name:<8} {us:>9.2} us/record");
        append.push((name, round1(us)));
    }

    // Bytes per record: one record's frame, read off a one-record file.
    let probe = dir.join("pass-probe.wal");
    write_journal(&probe, 1);
    let header = perfdmf::wal::WAL_HEADER_LEN as u64;
    let record_bytes = std::fs::metadata(&probe).expect("stat probe").len() - header;
    std::fs::remove_file(&probe).ok();
    eprintln!("wal: {record_bytes} bytes per record");

    let mut replay = Vec::new();
    for records in REPLAY_SIZES {
        let path = dir.join(format!("pass-replay-{records}.wal"));
        write_journal(&path, records);
        let nanos = median_nanos(5, || {
            black_box(replay_checked(&path, records));
        });
        std::fs::remove_file(&path).ok();
        let per_sec = records as f64 / (nanos / 1e9);
        eprintln!("wal: replay {records:>6} records {per_sec:>12.0} records/s");
        replay.push(obj(vec![
            ("records", Value::Int(records as i64)),
            ("records_per_s", Value::Float(per_sec.round())),
        ]));
    }
    std::fs::remove_dir_all(&dir).ok();

    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let doc = obj(vec![
        (
            "_generated_by",
            Value::Str("BENCH_JSON=<path> cargo bench -p bench --bench wal".into()),
        ),
        (
            "_note",
            Value::Str(
                "Medians of self-timed single-pass runs on the temp-dir filesystem; \
                 fsync-bound figures depend on the storage device."
                    .into(),
            ),
        ),
        ("cores", Value::Int(cores as i64)),
        (
            "record_shape",
            Value::Str(format!(
                "{COLUMNS} columns x {THREADS} threads per chunk record"
            )),
        ),
        ("record_bytes", Value::Int(record_bytes as i64)),
        ("append_us_per_record", obj(append)),
        ("replay", Value::Array(replay)),
    ]);
    std::fs::write(
        out,
        serde_json::to_string_pretty(&doc).expect("render") + "\n",
    )
    .expect("write BENCH_JSON");
    eprintln!("wal: wrote {out}");
}

/// One unmeasured append per policy and one replay of a small journal:
/// the CI smoke mode (`-- --test`).
fn smoke() {
    let dir = bench_dir();
    for (name, policy) in POLICIES {
        let path = dir.join(format!("smoke-{name}.wal"));
        std::fs::remove_file(&path).ok();
        let (mut journal, _) = Journal::open(&path, policy).expect("open journal");
        journal.append(&chunk_record(0)).expect("append");
        drop(journal);
        let replay = replay_checked(&path, 1);
        assert_eq!(
            replay.records[0],
            chunk_record(0),
            "{name}: record round-trips"
        );
        println!("wal/smoke/append/{name}: ok");
    }
    let path = dir.join("smoke-replay.wal");
    write_journal(&path, REPLAY_SIZES[0]);
    replay_checked(&path, REPLAY_SIZES[0]);
    println!("wal/smoke/replay/{}: ok", REPLAY_SIZES[0]);
    std::fs::remove_dir_all(&dir).ok();
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
