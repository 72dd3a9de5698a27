//! Resilience tests: load shedding under saturation, request
//! deadlines, WAL crash recovery, LRU churn under cache pressure, and
//! per-shard circuit breakers.

use perfdmf::{ChunkBatch, ColumnDelta, Measurement, Repository, Trial, TrialBuilder};
use service::{shard_of, AnalysisService, BreakerConfig, Outcome, Request, ServiceConfig};
use std::time::Duration;

fn trial(name: &str, threads: usize) -> Trial {
    let mut b = TrialBuilder::with_flat_threads(name, threads);
    let t = b.metric("TIME");
    let e = b.event("main");
    for th in 0..threads {
        b.set(e, t, th, Measurement::leaf(1.0 + th as f64));
    }
    b.build()
}

fn trial_json(name: &str, threads: usize) -> String {
    serde_json::to_string(&trial(name, threads)).unwrap()
}

/// A deterministic stream of `n` chunks over one "main" column; the
/// applied sum differs per chunk so replay or loss would change the
/// report.
fn stream_chunks(n: u64, threads: u32) -> Vec<ChunkBatch> {
    (0..n)
        .map(|seq| ChunkBatch {
            seq,
            threads,
            deltas: vec![ColumnDelta {
                metric: "TIME".into(),
                event: "main".into(),
                event_kind: None,
                cells: (0..threads)
                    .map(|th| (th, Measurement::leaf(0.25 + seq as f64 + th as f64)))
                    .collect(),
            }],
        })
        .collect()
}

fn ingest_chunk(client: &service::ServiceClient, trial: &str, batch: &ChunkBatch) -> Outcome {
    client
        .call(Request::IngestChunk {
            app: "app".into(),
            experiment: "exp".into(),
            trial: trial.into(),
            chunk: serde_json::to_string(batch).unwrap(),
        })
        .unwrap()
        .outcome
}

fn analyze(client: &service::ServiceClient, app: &str, trial: &str) -> service::Response {
    client
        .call(Request::AnalyzeBalance {
            app: app.into(),
            experiment: "exp".into(),
            trial: trial.into(),
            metric: "TIME".into(),
        })
        .unwrap()
}

/// Polls until `ready` holds, for at most ten seconds.
fn wait_until(ready: impl Fn() -> bool) {
    let start = std::time::Instant::now();
    while !ready() {
        assert!(start.elapsed() < Duration::from_secs(10), "timed out");
        std::thread::sleep(Duration::from_millis(1));
    }
}

/// Saturating a one-slot service with a one-caller waiting line sheds
/// with the typed `Overloaded` outcome — calls neither block nor queue
/// without bound — and nothing admitted is lost.
#[test]
fn saturation_sheds_with_typed_overloaded() {
    let svc = AnalysisService::start(ServiceConfig {
        workers: 1,
        shards: 2,
        queue_capacity: 1,
        ..ServiceConfig::default()
    });
    let client = svc.client();
    client
        .call(Request::Ingest {
            app: "app".into(),
            experiment: "exp".into(),
            document: trial_json("t", 4),
        })
        .unwrap();

    // Occupy the single slot with a long-running script (well under
    // the engine's 50M step limit, but tens to hundreds of milliseconds
    // of work) on thread A, then fill the one waiting place behind it
    // with thread B.
    std::thread::scope(|scope| {
        let slow = scope.spawn(|| {
            client.call(Request::RunScript {
                app: "app".into(),
                experiment: "exp".into(),
                source: "let i = 0; while i < 4000000 { i = i + 1; } i".into(),
            })
        });
        wait_until(|| svc.stats().scripts == 1);
        let queued = scope.spawn(|| {
            client.call(Request::AnalyzeBalance {
                app: "app".into(),
                experiment: "exp".into(),
                trial: "t".into(),
                metric: "TIME".into(),
            })
        });
        wait_until(|| svc.stats().queue_depth == 1);

        // The slot is busy and the waiting line is full: further calls
        // come back shed, immediately and typed.
        let mut shed = 0;
        for _ in 0..4 {
            let resp = analyze(&client, "app", "t");
            match resp.outcome {
                Outcome::Overloaded { capacity } => {
                    assert_eq!(capacity, 1);
                    shed += 1;
                }
                other => panic!("expected Overloaded, got {other:?}"),
            }
        }
        assert_eq!(shed, 4);

        // Nothing admitted was lost: the slow script and the queued
        // analysis both complete cleanly once the slot frees up.
        let slow = slow.join().unwrap().unwrap();
        assert!(slow.is_clean(), "{slow:?}");
        let queued = queued.join().unwrap().unwrap();
        assert!(queued.is_clean(), "{queued:?}");
    });

    let stats = svc.stats();
    assert_eq!(stats.shed, 4, "every Overloaded response is counted");
    assert_eq!(stats.requests, 3, "ingest + script + queued analysis");
    assert_eq!(stats.queue_depth, 0, "gauge returns to zero after drain");
    assert_eq!(stats.queue_peak, 1, "a shed attempt is not queue depth");
    assert_eq!(stats.panics_isolated, 0);
    svc.shutdown();
}

/// A deadline that has already passed is answered with the typed
/// outcome without doing work; a generous one serves normally.
#[test]
fn expired_deadline_yields_typed_outcome() {
    let svc = AnalysisService::start(ServiceConfig {
        workers: 1,
        shards: 2,
        ..ServiceConfig::default()
    });
    let client = svc.client();
    client
        .call(Request::Ingest {
            app: "app".into(),
            experiment: "exp".into(),
            document: trial_json("t", 8),
        })
        .unwrap();

    let request = Request::AnalyzeBalance {
        app: "app".into(),
        experiment: "exp".into(),
        trial: "t".into(),
        metric: "TIME".into(),
    };
    let resp = client
        .call_with_deadline(request.clone(), Some(Duration::ZERO))
        .unwrap();
    assert!(
        matches!(resp.outcome, Outcome::DeadlineExceeded { partial: None }),
        "zero deadline expires in the queue: {resp:?}"
    );
    assert!(!resp.is_clean());

    // The same request with room to run is served clean and
    // byte-identical to the strict workflow.
    let resp = client
        .call_with_deadline(request, Some(Duration::from_secs(30)))
        .unwrap();
    assert!(resp.is_clean(), "{resp:?}");
    let rendered = match resp.outcome {
        Outcome::Report { rendered, .. } => rendered,
        other => panic!("expected report, got {other:?}"),
    };
    let strict = perfexplorer::workflow::analyze_load_balance(&trial("t", 8), "TIME")
        .unwrap()
        .rendered;
    assert_eq!(rendered, strict);

    let stats = svc.stats();
    assert_eq!(stats.deadlines_exceeded, 1);
    assert_eq!(stats.rejected, 0, "a missed deadline is not a rejection");
    svc.shutdown();
}

/// Kill the service mid-stream, restart over the same WAL directory:
/// every acked chunk is replayed, redelivery dedups, the stream stays
/// live, and the recovered report is byte-identical.
#[test]
fn wal_restart_replays_acked_chunks_byte_identical() {
    let dir = std::env::temp_dir().join(format!("svc-resilience-wal-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    let config = ServiceConfig {
        workers: 2,
        shards: 2,
        wal_dir: Some(dir.clone()),
        wal_fsync: perfdmf::FsyncPolicy::Never,
        ..ServiceConfig::default()
    };
    let chunks = stream_chunks(6, 4);

    // First life: stream and ack six chunks, keep the report.
    let svc = AnalysisService::start(config.clone());
    let client = svc.client();
    for batch in &chunks {
        match ingest_chunk(&client, "stream", batch) {
            Outcome::ChunkIngested { duplicate, .. } => assert!(!duplicate),
            other => panic!("expected chunk ack, got {other:?}"),
        }
    }
    let reference = match analyze(&client, "app", "stream").outcome {
        Outcome::Report { rendered, .. } => rendered,
        other => panic!("expected report, got {other:?}"),
    };
    assert_eq!(svc.stats().wal_appends, 6, "one journal record per ack");
    svc.shutdown();

    // Second life: a fresh process over the same WAL directory rebuilds
    // the stream from the journal alone.
    let svc = AnalysisService::start(config);
    let client = svc.client();
    let stats = svc.stats();
    assert_eq!(stats.wal_replayed_chunks, 6, "every acked chunk replayed");

    // Redelivery of every acked chunk is suppressed as a duplicate.
    for batch in &chunks {
        match ingest_chunk(&client, "stream", batch) {
            Outcome::ChunkIngested { duplicate, seq, .. } => {
                assert!(duplicate, "replayed seq {seq} must dedup");
            }
            other => panic!("expected chunk ack, got {other:?}"),
        }
    }
    let recovered = match analyze(&client, "app", "stream").outcome {
        Outcome::Report { rendered, .. } => rendered,
        other => panic!("expected report, got {other:?}"),
    };
    assert_eq!(
        recovered, reference,
        "recovered stream must render byte-identically"
    );

    // The recovered stream is live, not sealed: a fresh chunk applies.
    let fresh = &stream_chunks(7, 4)[6];
    match ingest_chunk(&client, "stream", fresh) {
        Outcome::ChunkIngested {
            duplicate,
            applied_cells,
            ..
        } => {
            assert!(!duplicate);
            assert_eq!(applied_cells, 4);
        }
        other => panic!("expected chunk ack, got {other:?}"),
    }
    assert_eq!(svc.stats().panics_isolated, 0);
    svc.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}

/// Every cell of a trial as raw bits, in event × metric × thread order.
fn cell_bits(t: &Trial) -> Vec<[u64; 4]> {
    let p = &t.profile;
    let mut out = Vec::new();
    for e in 0..p.events().len() {
        for m in 0..p.metrics().len() {
            for th in 0..p.thread_count() {
                let c = p
                    .get(perfdmf::EventId(e as u32), perfdmf::MetricId(m as u32), th)
                    .unwrap();
                out.push([c.inclusive, c.exclusive, c.calls, c.subcalls].map(f64::to_bits));
            }
        }
    }
    out
}

/// `1e999` on the JSON wire decodes to an infinity the live stream
/// applies; a restart over the same WAL must rebuild the very same
/// bits (not a `null` read back as NaN) and render the same report.
#[test]
fn wal_restart_preserves_non_finite_cells_bit_exactly() {
    let dir = std::env::temp_dir().join(format!("svc-resilience-inf-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    let config = ServiceConfig {
        workers: 1,
        shards: 2,
        wal_dir: Some(dir.clone()),
        wal_fsync: perfdmf::FsyncPolicy::Never,
        ..ServiceConfig::default()
    };
    // Sentinels in the serialized chunk are swapped for out-of-range
    // literals, which is what a client's JSON encoder may send.
    let documents: Vec<String> = stream_chunks(4, 4)
        .into_iter()
        .map(|mut batch| {
            let seq = batch.seq as usize;
            batch.deltas[0].cells[seq % 4].1.inclusive = 123456.5;
            batch.deltas[0].cells[(seq + 1) % 4].1.exclusive = -654321.5;
            serde_json::to_string(&batch)
                .unwrap()
                .replace("123456.5", "1e999")
                .replace("-654321.5", "-1e999")
        })
        .collect();
    let send = |client: &service::ServiceClient, chunk: &String| {
        client
            .call(Request::IngestChunk {
                app: "app".into(),
                experiment: "exp".into(),
                trial: "nonfinite".into(),
                chunk: chunk.clone(),
            })
            .unwrap()
            .outcome
    };

    let svc = AnalysisService::start(config.clone());
    let client = svc.client();
    for doc in &documents {
        let outcome = send(&client, doc);
        assert!(
            matches!(
                outcome,
                Outcome::ChunkIngested {
                    duplicate: false,
                    ..
                }
            ),
            "{outcome:?}"
        );
    }
    let live = svc.store().get_trial("app", "exp", "nonfinite").unwrap();
    let live_bits = cell_bits(&live);
    assert!(
        live_bits
            .iter()
            .flatten()
            .any(|&b| f64::from_bits(b) == f64::INFINITY),
        "the wire's 1e999 reached the live stream as +inf"
    );
    let live_report = format!("{:?}", analyze(&client, "app", "nonfinite").outcome);
    svc.shutdown();

    let svc = AnalysisService::start(config);
    let client = svc.client();
    assert_eq!(svc.stats().wal_replayed_chunks, 4);
    let recovered = svc.store().get_trial("app", "exp", "nonfinite").unwrap();
    assert_eq!(cell_bits(&recovered), live_bits, "recovered cells differ");
    let recovered_report = format!("{:?}", analyze(&client, "app", "nonfinite").outcome);
    assert_eq!(recovered_report, live_report);
    svc.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}

/// A journal left by the v1 (JSON) format is refused with a typed
/// error: the service does not start, and it does not replay the
/// unreadable journal into an empty state.
#[test]
fn v1_journal_refuses_service_open() {
    let dir = std::env::temp_dir().join(format!("svc-resilience-v1-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let wal_dir = dir.join("wal");
    std::fs::create_dir_all(&wal_dir).unwrap();
    let repo_path = dir.join("repo.json");
    Repository::new().save(&repo_path).unwrap();

    let payload = br#"{"Retire":{"app":"app","experiment":"exp","trial":"t"}}"#;
    let mut image = perfdmf::wal::WAL_MAGIC.to_vec();
    image.extend_from_slice(&1u32.to_le_bytes());
    image.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    image.extend_from_slice(&perfdmf::pdb1::crc32(payload).to_le_bytes());
    image.extend_from_slice(payload);
    let journal = wal_dir.join("shard-0.wal");
    std::fs::write(&journal, &image).unwrap();

    let config = ServiceConfig {
        workers: 1,
        shards: 2,
        wal_dir: Some(wal_dir),
        ..ServiceConfig::default()
    };
    let err = match AnalysisService::open(config, &repo_path) {
        Ok(_) => panic!("a v1 journal must not open"),
        Err(e) => e,
    };
    assert!(
        err.to_string().contains("unsupported journal version 1"),
        "{err}"
    );
    assert_eq!(std::fs::read(&journal).unwrap(), image, "journal untouched");
    std::fs::remove_dir_all(&dir).ok();
}

/// A chunk that opens a stream with more threads than
/// `MAX_STREAM_THREADS` is rejected before the stream allocates its
/// thread axis; the service keeps serving and opens no stream for it.
#[test]
fn oversized_chunk_thread_axis_is_rejected() {
    let svc = AnalysisService::start(ServiceConfig {
        workers: 1,
        shards: 2,
        ..ServiceConfig::default()
    });
    let client = svc.client();
    let batch = ChunkBatch {
        seq: 0,
        threads: perfdmf::MAX_STREAM_THREADS + 1,
        deltas: Vec::new(),
    };
    let outcome = ingest_chunk(&client, "huge", &batch);
    match &outcome {
        Outcome::Rejected { error } => assert!(error.contains("stream threads"), "{error}"),
        other => panic!("oversized thread axis accepted: {other:?}"),
    }
    let accepted = stream_chunks(1, 4);
    assert!(matches!(
        ingest_chunk(&client, "huge", &accepted[0]),
        Outcome::ChunkIngested { .. }
    ));
}

/// Concurrent analyses over a cold store much larger than the LRU:
/// every eviction victim is reloaded byte-identically, under churn.
#[test]
fn cache_churn_reloads_evicted_trials_byte_identical() {
    let trials = 6usize;
    let mut repo = Repository::new();
    for i in 0..trials {
        repo.add_trial("app", "exp", trial(&format!("t{i}"), 3 + i))
            .unwrap();
    }
    let dir = std::env::temp_dir().join(format!("svc-resilience-churn-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("repo.pdb1");
    repo.save_as(&path, perfdmf::Format::Pdb1).unwrap();

    let svc = AnalysisService::open(
        ServiceConfig {
            workers: 3,
            shards: 1,
            cache_capacity: 2,
            ..ServiceConfig::default()
        },
        &path,
    )
    .unwrap();

    let strict: Vec<String> = (0..trials)
        .map(|i| {
            perfexplorer::workflow::analyze_load_balance(&trial(&format!("t{i}"), 3 + i), "TIME")
                .unwrap()
                .rendered
        })
        .collect();

    // Three concurrent passes over all six trials against a two-entry
    // cache. Each pass starts two trials further on, so the three
    // first requests alone name three distinct trials: whatever the
    // interleaving, one of them is evicted before every pass has read
    // it, and is reloaded. (Passes in one order could run in lockstep
    // and share every load.)
    std::thread::scope(|scope| {
        for pass in 0..3 {
            let client = svc.client();
            let strict = &strict;
            scope.spawn(move || {
                for k in 0..trials {
                    let i = (k + 2 * pass) % trials;
                    let expect = &strict[i];
                    let resp = analyze(&client, "app", &format!("t{i}"));
                    assert!(resp.is_clean(), "churned analysis degraded: {resp:?}");
                    match resp.outcome {
                        Outcome::Report { rendered, .. } => assert_eq!(
                            &rendered, expect,
                            "t{i} must reload byte-identically after eviction"
                        ),
                        other => panic!("expected report, got {other:?}"),
                    }
                }
            });
        }
    });

    let stats = svc.stats();
    assert!(
        stats.cache_misses > trials as u64,
        "misses ({}) must exceed the trial count: at least one trial \
         was evicted and rematerialized",
        stats.cache_misses
    );
    assert!(svc.store().cached_trials() <= 2, "LRU capacity is a cap");
    assert_eq!(stats.degraded_responses, 0);
    assert_eq!(stats.panics_isolated, 0);
    svc.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}

/// End-to-end breaker lifecycle against real storage corruption: a
/// shard whose cold store fails its page checksum trips open after
/// repeated failures, fails fast without touching the mapped file,
/// leaves the sibling shard serving, and re-closes via a half-open
/// probe.
#[test]
fn breaker_opens_on_corrupt_shard_and_recovers_via_probe() {
    // "zz-bad" sorts last among applications, so its single trial owns
    // the final column page in the PDB1 file — the byte we flip below.
    // The healthy tenant must land on the other of the two shards.
    let bad_app = "zz-bad";
    let shards = 2;
    let good_app = (0..26)
        .map(|c| format!("aa-good-{}", (b'a' + c) as char))
        .find(|app| shard_of(app, "exp", shards) != shard_of(bad_app, "exp", shards))
        .expect("some candidate lands on the other shard");

    let mut repo = Repository::new();
    repo.add_trial(&good_app, "exp", trial("ok", 4)).unwrap();
    repo.add_trial(bad_app, "exp", trial("doomed", 4)).unwrap();
    let dir = std::env::temp_dir().join(format!("svc-resilience-breaker-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("repo.pdb1");
    repo.save_as(&path, perfdmf::Format::Pdb1).unwrap();

    // Rot the last byte: the file still opens (page checksums are
    // lazy), but materializing "doomed" fails its page CRC.
    let mut bytes = std::fs::read(&path).unwrap();
    let last = bytes.len() - 1;
    bytes[last] ^= 0xff;
    std::fs::write(&path, &bytes).unwrap();

    let svc = AnalysisService::open(
        ServiceConfig {
            workers: 1,
            shards,
            breaker: BreakerConfig {
                failure_threshold: 3,
                open_cooldown: Duration::from_millis(100),
                half_open_probes: 1,
            },
            ..ServiceConfig::default()
        },
        &path,
    )
    .unwrap();
    let client = svc.client();
    let bad_shard = svc.store().shard_index(bad_app, "exp");

    // The healthy shard serves normally.
    let resp = analyze(&client, &good_app, "ok");
    assert!(resp.is_clean(), "{resp:?}");

    // Three consecutive storage failures open the bad shard's breaker.
    for _ in 0..3 {
        let resp = analyze(&client, bad_app, "doomed");
        assert!(
            matches!(resp.outcome, Outcome::Rejected { .. }),
            "corrupt page surfaces as a rejection: {resp:?}"
        );
    }
    let stats = svc.stats();
    assert_eq!(stats.breaker_trips, 1);
    assert_eq!(stats.breakers_open, 1);

    // While open, requests fail fast with the typed outcome and never
    // touch the shard: the cache counters do not move.
    let before = (stats.cache_hits, stats.cache_misses);
    let resp = analyze(&client, bad_app, "doomed");
    match resp.outcome {
        Outcome::BreakerOpen { shard } => assert_eq!(shard, bad_shard),
        other => panic!("expected BreakerOpen, got {other:?}"),
    }
    let stats = svc.stats();
    assert_eq!(
        (stats.cache_hits, stats.cache_misses),
        before,
        "an open breaker must not touch the mapped store"
    );
    assert_eq!(stats.breaker_fast_fails, 1);

    // The sibling shard is unaffected throughout.
    let resp = analyze(&client, &good_app, "ok");
    assert!(resp.is_clean(), "{resp:?}");

    // After the cooldown one probe is admitted; a clean upload to the
    // shard's overlay succeeds and closes the breaker again.
    std::thread::sleep(Duration::from_millis(120));
    let resp = client
        .call(Request::Ingest {
            app: bad_app.into(),
            experiment: "exp".into(),
            document: trial_json("fresh", 4),
        })
        .unwrap();
    assert!(resp.is_clean(), "probe ingest must succeed: {resp:?}");
    let stats = svc.stats();
    assert_eq!(stats.breaker_probes, 1);
    assert_eq!(stats.breakers_open, 0, "successful probe re-closes");

    // The recovered shard serves again (from the overlay, which is
    // intact — only the cold page was rotten).
    let resp = analyze(&client, bad_app, "fresh");
    assert!(resp.is_clean(), "{resp:?}");
    assert_eq!(svc.stats().breaker_trips, 1, "no re-trip after recovery");
    svc.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}

/// A stream whose stored trial fails its page checksum is refused as a
/// storage fault, which the shard's breaker counts: it must not start
/// from the chunk as if no trial were stored there.
#[test]
fn a_stream_over_a_corrupt_cold_trial_is_refused() {
    // As in the breaker test: "zz-bad" owns the final column page.
    let mut repo = Repository::new();
    repo.add_trial("zz-bad", "exp", trial("doomed", 4)).unwrap();
    let dir = std::env::temp_dir().join(format!("svc-resilience-rot-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("repo.pdb1");
    repo.save_as(&path, perfdmf::Format::Pdb1).unwrap();
    let mut bytes = std::fs::read(&path).unwrap();
    let last = bytes.len() - 1;
    bytes[last] ^= 0xff;
    std::fs::write(&path, &bytes).unwrap();

    let svc = AnalysisService::open(
        ServiceConfig {
            workers: 1,
            shards: 2,
            breaker: BreakerConfig {
                failure_threshold: 2,
                open_cooldown: Duration::from_secs(60),
                half_open_probes: 1,
            },
            ..ServiceConfig::default()
        },
        &path,
    )
    .unwrap();
    let client = svc.client();
    let chunk = serde_json::to_string(&stream_chunks(1, 4)[0]).unwrap();
    let ingest = |trial: &str| {
        client
            .call(Request::IngestChunk {
                app: "zz-bad".into(),
                experiment: "exp".into(),
                trial: trial.into(),
                chunk: chunk.clone(),
            })
            .unwrap()
    };

    // A path with no stored trial still starts from its first chunk.
    let resp = ingest("fresh");
    assert!(resp.is_clean(), "{resp:?}");

    for _ in 0..2 {
        let resp = ingest("doomed");
        match &resp.outcome {
            Outcome::Rejected { error } => assert!(error.contains("checksum"), "{error}"),
            other => panic!("expected a checksum rejection, got {other:?}"),
        }
    }
    let stats = svc.stats();
    assert_eq!(
        stats.breaker_trips, 1,
        "both refusals count as storage faults"
    );
    let resp = analyze(&client, "zz-bad", "fresh");
    assert!(
        matches!(resp.outcome, Outcome::BreakerOpen { .. }),
        "{resp:?}"
    );
    svc.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}

/// A cold trial that a stream or an overlay upsert shadows is never
/// decoded for a script's experiment snapshot: a corrupt page under a
/// re-uploaded trial must not reject every script over its experiment
/// (nor count against the shard's breaker).
#[test]
fn scripts_skip_a_shadowed_corrupt_cold_trial() {
    // As in the breaker test: "zz-bad" owns the final column page.
    let mut repo = Repository::new();
    repo.add_trial("zz-bad", "exp", trial("doomed", 4)).unwrap();
    let dir = std::env::temp_dir().join(format!("svc-resilience-shadow-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("repo.pdb1");
    repo.save_as(&path, perfdmf::Format::Pdb1).unwrap();
    let mut bytes = std::fs::read(&path).unwrap();
    let last = bytes.len() - 1;
    bytes[last] ^= 0xff;
    std::fs::write(&path, &bytes).unwrap();

    let svc = AnalysisService::open(
        ServiceConfig {
            workers: 1,
            shards: 2,
            ..ServiceConfig::default()
        },
        &path,
    )
    .unwrap();
    let client = svc.client();
    let script = || {
        client
            .call(Request::RunScript {
                app: "zz-bad".into(),
                experiment: "exp".into(),
                source: r#"load_trial("zz-bad", "exp", "doomed"); print("read");"#.into(),
            })
            .unwrap()
    };

    // Unshadowed, the rotten page rejects the snapshot.
    let resp = script();
    match &resp.outcome {
        Outcome::Rejected { error } => assert!(error.contains("checksum"), "{error}"),
        other => panic!("expected a checksum rejection, got {other:?}"),
    }

    // A re-upload puts an overlay copy over it.
    let resp = client
        .call(Request::Ingest {
            app: "zz-bad".into(),
            experiment: "exp".into(),
            document: trial_json("doomed", 4),
        })
        .unwrap();
    assert!(resp.is_clean(), "{resp:?}");
    let resp = script();
    assert!(resp.is_clean(), "overlay shadows the cold trial: {resp:?}");
    match &resp.outcome {
        Outcome::ScriptDone { printed, .. } => assert_eq!(printed, &vec!["read".to_string()]),
        other => panic!("expected script outcome, got {other:?}"),
    }

    // A stream at the same path bootstraps from the overlay copy and
    // shadows the cold trial in turn.
    let chunk = &stream_chunks(1, 4)[0];
    let resp = client
        .call(Request::IngestChunk {
            app: "zz-bad".into(),
            experiment: "exp".into(),
            trial: "doomed".into(),
            chunk: serde_json::to_string(chunk).unwrap(),
        })
        .unwrap();
    assert!(resp.is_clean(), "{resp:?}");
    let resp = script();
    assert!(resp.is_clean(), "stream shadows the cold trial: {resp:?}");
    assert_eq!(svc.stats().breaker_trips, 0);
    svc.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}
