//! Repository open-path benchmarks: JSON parse-open vs PDB1 strict
//! decode vs PDB1 mmap-open, at 100 / 1 000 / 10 000 trials.
//!
//! The mmap numbers are the PDB1 design's headline: an open should cost
//! a header read and a manifest parse, not a full parse + re-intern +
//! re-layout pass over every measurement. Each trial here is a small
//! but realistic shape (6 events × 2 metrics × 8 threads), so the JSON
//! cost scales with total cell count while the mmap cost scales with
//! the manifest alone.
//!
//! Besides the normal Criterion harness, `-- --test` runs every case
//! once at 100 trials, unmeasured, and asserts that each path yields
//! the owned repository's data (the CI smoke).

use criterion::{criterion_group, BenchmarkId, Criterion, Throughput};
use perfdmf::{MappedRepository, Measurement, Repository, Trial, TrialBuilder};
use std::hint::black_box;
use std::path::{Path, PathBuf};

const EVENTS: usize = 6;
const METRICS: usize = 2;
const THREADS: usize = 8;
const SIZES: [usize; 3] = [100, 1_000, 10_000];

fn repo_with_trials(n: usize) -> Repository {
    let mut repo = Repository::new();
    for i in 0..n {
        let mut b = TrialBuilder::with_flat_threads(format!("t{i}"), THREADS);
        let metrics: Vec<_> = (0..METRICS).map(|m| b.metric(&format!("M{m}"))).collect();
        let events: Vec<_> = (0..EVENTS)
            .map(|e| {
                if e == 0 {
                    b.event("main")
                } else {
                    b.event(&format!("main => e{e}"))
                }
            })
            .collect();
        for (mi, &m) in metrics.iter().enumerate() {
            for (ei, &e) in events.iter().enumerate() {
                for t in 0..THREADS {
                    let v = (i * 31 + mi * 17 + ei * 7 + t) as f64 + 1.0;
                    b.set(
                        e,
                        m,
                        t,
                        Measurement {
                            inclusive: v,
                            exclusive: v * 0.5,
                            calls: 1.0,
                            subcalls: 0.0,
                        },
                    );
                }
            }
        }
        // Spread trials over a few experiments like a real sweep.
        repo.add_trial("bench", &format!("exp{}", i % 8), b.build())
            .unwrap();
    }
    repo
}

/// Writes the repository's PDB1 bytes to a scratch file and returns
/// its path.
fn write_pdb(repo: &Repository, trials: usize) -> PathBuf {
    let dir = std::env::temp_dir().join("perfknow_repo_open_bench");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join(format!("open_{trials}.pdb"));
    std::fs::write(&path, repo.to_pdb1()).unwrap();
    path
}

/// Open the mapped store and materialize one trial: what a service
/// cache miss pays.
fn first_trial(path: &Path) -> Trial {
    let mapped = MappedRepository::open(path).unwrap();
    mapped
        .view("bench", "exp0", "t0")
        .and_then(|v| v.to_trial())
        .unwrap()
}

fn bench_repo_open(c: &mut Criterion) {
    for trials in SIZES {
        let repo = repo_with_trials(trials);
        let json = repo.to_json().unwrap();
        let pdb1 = repo.to_pdb1();
        let pdb_path = write_pdb(&repo, trials);

        let mut g = c.benchmark_group("repo_open");
        g.throughput(Throughput::Elements(trials as u64));
        g.bench_with_input(BenchmarkId::new("json_parse", trials), &json, |b, json| {
            b.iter(|| Repository::from_json(black_box(json)).unwrap())
        });
        g.bench_with_input(
            BenchmarkId::new("pdb1_strict", trials),
            &pdb1,
            |b, bytes| b.iter(|| Repository::from_pdb1(black_box(bytes)).unwrap()),
        );
        g.bench_with_input(
            BenchmarkId::new("pdb1_mmap", trials),
            &pdb_path,
            |b, path| b.iter(|| MappedRepository::open(black_box(path)).unwrap()),
        );
        // Open + one trial materialized, the realistic "query one trial
        // out of a big store" pattern.
        g.bench_with_input(
            BenchmarkId::new("pdb1_mmap_first_trial", trials),
            &pdb_path,
            |b, path| b.iter(|| first_trial(black_box(path))),
        );
        g.finish();

        std::fs::remove_file(&pdb_path).ok();
    }
}

/// Every case once at the smallest size, unmeasured, each checked
/// against the owned repository: the CI smoke mode (`-- --test`).
fn smoke() {
    let trials = SIZES[0];
    let repo = repo_with_trials(trials);
    let pdb_path = write_pdb(&repo, trials);

    let json = repo.to_json().unwrap();
    assert_eq!(Repository::from_json(&json).unwrap(), repo, "json_parse");
    assert_eq!(
        Repository::from_pdb1(&repo.to_pdb1()).unwrap(),
        repo,
        "pdb1_strict"
    );
    let mapped = MappedRepository::open(&pdb_path).unwrap();
    assert_eq!(mapped.trial_count(), trials, "pdb1_mmap");
    let owned = repo.trial("bench", "exp0", "t0").unwrap();
    assert_eq!(&first_trial(&pdb_path), owned, "pdb1_mmap_first_trial");
    println!("repo_open/smoke/{trials}: ok");

    std::fs::remove_file(&pdb_path).ok();
}

criterion_group!(benches, bench_repo_open);

fn main() {
    if std::env::args().any(|a| a == "--test") {
        smoke();
        return;
    }
    benches();
}
