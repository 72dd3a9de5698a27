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
//! Every journal an append case wrote is replayed afterwards, and each
//! of its records must read back equal to the one appended. The harness
//! and its modes are in `bench::measure`; this bench writes
//! `BENCH_wal.json`.

use bench::measure::{Bench, CountingAlloc};
use perfdmf::wal::{replay_path, Journal};
use perfdmf::{ChunkBatch, ColumnDelta, FsyncPolicy, Measurement, WalRecord};
use serde_json::Value;
use std::path::{Path, PathBuf};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

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

fn main() {
    let mut b = Bench::from_env("wal", "BENCH_wal.json");
    let dir = bench_dir();
    let record = chunk_record(0);

    // Bytes per record: one record's frame, read off a one-record file.
    let probe = dir.join("probe.wal");
    write_journal(&probe, 1);
    let header = perfdmf::wal::WAL_HEADER_LEN as u64;
    let record_bytes = std::fs::metadata(&probe).expect("stat probe").len() - header;
    b.note(
        "record_shape",
        Value::Str(format!(
            "{COLUMNS} columns x {THREADS} threads per chunk record"
        )),
    );
    b.note("record_bytes", Value::Int(record_bytes as i64));

    for (name, policy) in POLICIES {
        let path = dir.join(format!("append-{name}.wal"));
        std::fs::remove_file(&path).ok();
        let (mut journal, _) = Journal::open(&path, policy).expect("open journal");
        // The first append sizes the journal's frame buffer.
        journal.append(&record).expect("append");
        let mut appended = 1u64;
        b.case(&format!("append/{name}"), || {
            appended += 1;
            journal.append(&record).expect("append")
        });
        drop(journal);
        let replay = replay_checked(&path, appended);
        assert!(
            replay.records.iter().all(|r| *r == record),
            "{name}: records round-trip"
        );
        std::fs::remove_file(&path).ok();
    }
    for records in REPLAY_SIZES {
        let path = dir.join(format!("replay-{records}.wal"));
        write_journal(&path, records);
        b.case(&format!("replay/{records}"), || {
            replay_checked(&path, records)
        });
        std::fs::remove_file(&path).ok();
    }
    std::fs::remove_dir_all(&dir).ok();
    b.finish();
}
