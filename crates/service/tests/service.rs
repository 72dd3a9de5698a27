//! End-to-end service tests: isolation, equivalence with the strict
//! workflows, and cold-store behaviour.

use perfdmf::{ChunkBatch, ColumnDelta, Measurement, Repository, Trial, TrialBuilder};
use service::{AnalysisService, Outcome, Request, Response, ServiceConfig};

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

fn small_service(workers: usize) -> AnalysisService {
    AnalysisService::start(ServiceConfig {
        workers,
        shards: 4,
        ..ServiceConfig::default()
    })
}

#[test]
fn service_report_is_byte_identical_to_strict_workflow() {
    let svc = small_service(2);
    let client = svc.client();
    client
        .call(Request::Ingest {
            app: "app".into(),
            experiment: "exp".into(),
            document: trial_json("t", 8),
        })
        .unwrap();
    let resp = client
        .call(Request::AnalyzeBalance {
            app: "app".into(),
            experiment: "exp".into(),
            trial: "t".into(),
            metric: "TIME".into(),
        })
        .unwrap();
    assert!(resp.is_clean());
    let rendered = match resp.outcome {
        Outcome::Report { rendered, .. } => rendered,
        other => panic!("expected report, got {other:?}"),
    };
    let strict = perfexplorer::workflow::analyze_load_balance(&trial("t", 8), "TIME")
        .unwrap()
        .rendered;
    assert_eq!(
        rendered, strict,
        "service must match the strict workflow byte for byte"
    );
    svc.shutdown();
}

/// The acceptance criterion: a corrupt upload degrades only its own
/// request. Sibling requests on the SAME shard — same (app, experiment)
/// — must come back clean and byte-identical to strict.
#[test]
fn corrupt_upload_degrades_only_its_own_request() {
    let svc = small_service(2);
    let client = svc.client();

    // Clean sibling and corrupt upload share one tenant, hence one
    // shard.
    let clean = client
        .call(Request::Ingest {
            app: "shared".into(),
            experiment: "exp".into(),
            document: trial_json("clean", 4),
        })
        .unwrap();
    assert!(clean.is_clean());

    let json = trial_json("broken", 4);
    let corrupt = client
        .call(Request::Ingest {
            app: "shared".into(),
            experiment: "exp".into(),
            document: json[..json.len() / 2].to_string(),
        })
        .unwrap();
    assert!(!corrupt.is_clean(), "corrupt upload must be flagged");
    assert!(matches!(corrupt.outcome, Outcome::Rejected { .. }));

    // The sibling's analysis is untouched: clean response, identical to
    // the strict single-tenant run.
    let resp = client
        .call(Request::AnalyzeBalance {
            app: "shared".into(),
            experiment: "exp".into(),
            trial: "clean".into(),
            metric: "TIME".into(),
        })
        .unwrap();
    assert!(
        resp.is_clean(),
        "sibling must not inherit degradation: {resp:?}"
    );
    let rendered = match resp.outcome {
        Outcome::Report { rendered, .. } => rendered,
        other => panic!("expected report, got {other:?}"),
    };
    let strict = perfexplorer::workflow::analyze_load_balance(&trial("clean", 4), "TIME")
        .unwrap()
        .rendered;
    assert_eq!(rendered, strict);

    let stats = svc.stats();
    assert_eq!(stats.rejected, 1);
    assert_eq!(stats.degraded_responses, 1);
    assert_eq!(stats.panics_isolated, 0);
    svc.shutdown();
}

/// A request nested a megabyte deep is a typed rejection, and the
/// service keeps answering: the JSON readers stop at 128 levels of
/// nesting instead of recursing until a worker's stack overflows, which
/// would abort the whole process.
#[test]
fn deeply_nested_requests_are_rejected_not_fatal() {
    let svc = small_service(2);
    let client = svc.client();
    let bomb = "[".repeat(1 << 20);
    let chunks = [
        format!(r#"{{"seq":0,"threads":1,"deltas":{bomb}"#),
        format!(r#"{{"seq":0,"threads":1,"deltas":[],"pad":{bomb}"#),
    ];
    for chunk in chunks {
        let resp = client
            .call(Request::IngestChunk {
                app: "deep".into(),
                experiment: "exp".into(),
                trial: "t".into(),
                chunk,
            })
            .unwrap();
        assert!(matches!(resp.outcome, Outcome::Rejected { .. }), "{resp:?}");
    }
    let documents = [
        format!(r#"{{"name":"t","profile":{bomb}"#),
        format!(r#"{{"name":"t","pad":{bomb}"#),
    ];
    for document in documents {
        let resp = client
            .call(Request::Ingest {
                app: "deep".into(),
                experiment: "exp".into(),
                document,
            })
            .unwrap();
        assert!(matches!(resp.outcome, Outcome::Rejected { .. }), "{resp:?}");
    }
    let resp = client
        .call(Request::Ingest {
            app: "deep".into(),
            experiment: "exp".into(),
            document: trial_json("after", 4),
        })
        .unwrap();
    assert!(resp.is_clean(), "{resp:?}");
    let stats = svc.stats();
    assert_eq!(stats.rejected, 4);
    assert_eq!(stats.panics_isolated, 0);
    svc.shutdown();
}

/// Per-thread TIME of each event in an imbalanced trial, `main` first
/// so that the first streamed chunk already carries the total-runtime
/// row.
fn imbalanced_columns(threads: usize) -> Vec<(&'static str, Vec<f64>)> {
    vec![
        ("main", (0..threads).map(|th| 10.0 + th as f64).collect()),
        (
            "compute",
            (0..threads).map(|th| 2.0 * (th + 1) as f64).collect(),
        ),
        (
            "barrier",
            (0..threads).map(|th| (threads - th) as f64).collect(),
        ),
    ]
}

fn imbalanced_trial(name: &str, threads: usize) -> Trial {
    let mut b = TrialBuilder::with_flat_threads(name, threads);
    let t = b.metric("TIME");
    for (event, cells) in imbalanced_columns(threads) {
        let e = b.event(event);
        for (th, &v) in cells.iter().enumerate() {
            b.set(e, t, th, Measurement::leaf(v));
        }
    }
    b.build()
}

/// The same trial as [`imbalanced_trial`], one event column per chunk
/// document, each cell sent exactly once.
fn imbalanced_chunks(threads: usize) -> Vec<String> {
    imbalanced_columns(threads)
        .into_iter()
        .enumerate()
        .map(|(seq, (event, cells))| {
            let batch = ChunkBatch {
                seq: seq as u64,
                threads: threads as u32,
                deltas: vec![ColumnDelta {
                    metric: "TIME".into(),
                    event: event.into(),
                    event_kind: None,
                    cells: cells
                        .iter()
                        .enumerate()
                        .map(|(th, &v)| (th as u32, Measurement::leaf(v)))
                        .collect(),
                }],
            };
            serde_json::to_string(&batch).unwrap()
        })
        .collect()
}

/// The rendered report of a response that must be clean.
fn clean_report(resp: Response) -> String {
    assert!(resp.is_clean(), "{resp:?}");
    match resp.outcome {
        Outcome::Report { rendered, .. } => rendered,
        other => panic!("expected report, got {other:?}"),
    }
}

/// A concurrent burst that mixes corrupt uploads and streamed trials
/// among clean clients. Tenants are `id % 5`, so every corrupt upload
/// and every stream shares its shard with clean whole-trial clients.
#[test]
fn many_concurrent_clients_all_get_clean_responses() {
    const CLIENTS: usize = 32;
    /// Clients `0..CORRUPT` upload truncated JSON.
    const CORRUPT: usize = 4;
    /// Clients `CORRUPT..CORRUPT + STREAMED` stream their trial as
    /// chunks, analyzing after each one, next to a whole-upload twin.
    const STREAMED: usize = 4;
    let svc = small_service(4);
    let chunks = imbalanced_chunks(4);
    let strict = perfexplorer::workflow::analyze_load_balance(&imbalanced_trial("s", 4), "TIME")
        .unwrap()
        .rendered;
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|id| {
                let client = svc.client();
                let (chunks, strict) = (&chunks, &strict);
                scope.spawn(move || {
                    let app = format!("tenant{}", id % 5);
                    let ingest = |document: String| {
                        client
                            .call(Request::Ingest {
                                app: app.clone(),
                                experiment: "exp".into(),
                                document,
                            })
                            .unwrap()
                    };
                    let analyze = |trial: &str| {
                        client
                            .call(Request::AnalyzeBalance {
                                app: app.clone(),
                                experiment: "exp".into(),
                                trial: trial.into(),
                                metric: "TIME".into(),
                            })
                            .unwrap()
                    };
                    let name = format!("t{id}");
                    if id < CORRUPT {
                        let json = trial_json(&name, 4);
                        let resp = ingest(json[..json.len() / 2].to_string());
                        assert!(
                            matches!(resp.outcome, Outcome::Rejected { .. }),
                            "client {id}: corrupt upload not rejected: {resp:?}"
                        );
                    } else if id < CORRUPT + STREAMED {
                        let twin = format!("{name}-batch");
                        let document = serde_json::to_string(&imbalanced_trial(&twin, 4)).unwrap();
                        assert!(ingest(document).is_clean());
                        let batch = clean_report(analyze(&twin));
                        let mut streamed = None;
                        for chunk in chunks {
                            let resp = client
                                .call(Request::IngestChunk {
                                    app: app.clone(),
                                    experiment: "exp".into(),
                                    trial: name.clone(),
                                    chunk: chunk.clone(),
                                })
                                .unwrap();
                            assert!(resp.is_clean(), "client {id}: {resp:?}");
                            streamed = Some(clean_report(analyze(&name)));
                        }
                        assert_eq!(
                            streamed.as_ref(),
                            Some(&batch),
                            "client {id}: streamed report differs from its full upload"
                        );
                        assert_eq!(&batch, strict, "client {id}: differs from strict");
                    } else {
                        assert!(ingest(trial_json(&name, 4)).is_clean());
                        clean_report(analyze(&name));
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
    });

    // After the burst, a clean trial that shared its shard with corrupt
    // uploads still renders byte-identical to the strict workflow.
    let last = CLIENTS - 1;
    let post_burst = clean_report(
        svc.client()
            .call(Request::AnalyzeBalance {
                app: format!("tenant{}", last % 5),
                experiment: "exp".into(),
                trial: format!("t{last}"),
                metric: "TIME".into(),
            })
            .unwrap(),
    );
    let strict_last =
        perfexplorer::workflow::analyze_load_balance(&trial(&format!("t{last}"), 4), "TIME")
            .unwrap()
            .rendered;
    assert_eq!(post_burst, strict_last);

    let stats = svc.stats();
    let clean = CLIENTS - CORRUPT - STREAMED;
    let per_stream = 2 + 2 * chunks.len();
    assert_eq!(
        stats.requests as usize,
        CORRUPT + STREAMED * per_stream + clean * 2 + 1
    );
    assert_eq!(
        stats.rejected as usize, CORRUPT,
        "exactly the corrupt uploads"
    );
    assert_eq!(
        stats.degraded_responses as usize, CORRUPT,
        "only the corrupt uploads degrade"
    );
    assert_eq!(stats.panics_isolated, 0);
    assert!(stats.queue_peak <= ServiceConfig::default().queue_capacity as u64);
    svc.shutdown();
}

#[test]
fn cold_pdb1_store_serves_analyses_through_the_cache() {
    let mut repo = Repository::new();
    repo.add_trial("app", "exp", trial("cold0", 4)).unwrap();
    repo.add_trial("app", "exp", trial("cold1", 4)).unwrap();
    let dir = std::env::temp_dir().join(format!("svc-cold-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("repo.pdb1");
    repo.save_as(&path, perfdmf::Format::Pdb1).unwrap();

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
    for _ in 0..2 {
        let resp = client
            .call(Request::AnalyzeBalance {
                app: "app".into(),
                experiment: "exp".into(),
                trial: "cold0".into(),
                metric: "TIME".into(),
            })
            .unwrap();
        assert!(resp.is_clean(), "{resp:?}");
    }
    let stats = svc.stats();
    assert_eq!(
        (stats.cache_misses, stats.cache_hits),
        (1, 1),
        "first analysis materializes, second hits the shard cache"
    );
    // Uploads overlay the cold store without touching the file.
    client
        .call(Request::Ingest {
            app: "app".into(),
            experiment: "exp".into(),
            document: trial_json("hot", 4),
        })
        .unwrap();
    assert_eq!(svc.store().trial_count(), 3);
    svc.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn scripts_see_a_consistent_experiment_snapshot() {
    let mut repo = Repository::new();
    for i in 0..3 {
        repo.add_trial("app", "exp", trial(&format!("t{i}"), 4))
            .unwrap();
    }
    let svc = AnalysisService::start_with_repository(
        ServiceConfig {
            workers: 2,
            shards: 4,
            ..ServiceConfig::default()
        },
        repo,
    );
    let resp = svc
        .client()
        .call(Request::RunScript {
            app: "app".into(),
            experiment: "exp".into(),
            source: r#"
                load_trial("app", "exp", "t0");
                load_trial("app", "exp", "t1");
                load_trial("app", "exp", "t2");
                print("all three trials visible");
            "#
            .into(),
        })
        .unwrap();
    assert!(resp.is_clean(), "{resp:?}");
    match &resp.outcome {
        Outcome::ScriptDone { printed, .. } => {
            assert_eq!(printed, &vec!["all three trials visible".to_string()])
        }
        other => panic!("expected script outcome, got {other:?}"),
    }
    svc.shutdown();
}

/// One source sent as `RunScript` (compiled, run, nothing kept) and as
/// `RunSweep` (compiled into the shared script cache, then replayed on
/// another request's session) must print and return the same.
#[test]
fn run_script_and_cached_sweep_agree_on_one_source() {
    let mut repo = Repository::new();
    for i in 0..3 {
        repo.add_trial("app", "exp", trial(&format!("t{i}"), 4 + i))
            .unwrap();
    }
    let svc = AnalysisService::start_with_repository(
        ServiceConfig {
            workers: 2,
            shards: 4,
            ..ServiceConfig::default()
        },
        repo,
    );
    let client = svc.client();
    let source = r#"
        fn mean_of(name) {
            let t = load_trial("app", "exp", name);
            return mean_exclusive(t, "main", "TIME");
        }
        let total = 0;
        for name in list_trials("app", "exp") {
            let m = mean_of(name);
            print(name + " " + str(m));
            total = total + m;
        }
        total
    "#;
    let once = client
        .call(Request::RunScript {
            app: "app".into(),
            experiment: "exp".into(),
            source: source.into(),
        })
        .unwrap();
    assert!(once.is_clean(), "{once:?}");
    let (value, printed) = match once.outcome {
        Outcome::ScriptDone { value, printed } => (value, printed),
        other => panic!("expected script outcome, got {other:?}"),
    };
    assert_eq!(value.as_deref(), Some("9"));
    assert_eq!(printed, vec!["t0 2.5", "t1 3", "t2 3.5"]);
    for expect_cached in [false, true] {
        let sweep = client
            .call(Request::RunSweep {
                app: "app".into(),
                experiment: "exp".into(),
                source: source.into(),
            })
            .unwrap();
        assert!(sweep.is_clean(), "{sweep:?}");
        match sweep.outcome {
            Outcome::SweepDone {
                value: v,
                printed: p,
                bodies,
                cached,
                ..
            } => {
                assert_eq!(v, value);
                assert_eq!(p, printed);
                assert_eq!(bodies, 0);
                assert_eq!(cached, expect_cached);
            }
            other => panic!("expected sweep outcome, got {other:?}"),
        }
    }
    let stats = svc.stats();
    assert_eq!((stats.script_cache_misses, stats.script_cache_hits), (1, 1));
    svc.shutdown();
}

fn analyze_request(trial: &str, metric: &str) -> Request {
    Request::AnalyzeBalance {
        app: "app".into(),
        experiment: "exp".into(),
        trial: trial.into(),
        metric: metric.into(),
    }
}

/// The rendered report and diagnosis count of a clean response.
fn clean_report_and_diagnoses(resp: Response) -> (String, usize) {
    assert!(resp.is_clean(), "{resp:?}");
    match resp.outcome {
        Outcome::Report {
            rendered,
            diagnoses,
        } => (rendered, diagnoses),
        other => panic!("expected report, got {other:?}"),
    }
}

#[test]
fn repeat_analysis_is_served_from_the_report_memo() {
    let svc = small_service(2);
    let client = svc.client();
    let document = serde_json::to_string(&imbalanced_trial("t", 8)).unwrap();
    let ingested = client
        .call(Request::Ingest {
            app: "app".into(),
            experiment: "exp".into(),
            document,
        })
        .unwrap();
    assert!(ingested.is_clean(), "{ingested:?}");

    let first = clean_report_and_diagnoses(client.call(analyze_request("t", "TIME")).unwrap());
    assert_eq!(svc.stats().report_memo_hits, 0);
    let second = clean_report_and_diagnoses(client.call(analyze_request("t", "TIME")).unwrap());
    assert_eq!(first, second, "a memoized report must be byte-identical");
    assert!(first.1 > 0, "the skewed trial yields diagnoses");
    let strict =
        perfexplorer::workflow::analyze_load_balance(&imbalanced_trial("t", 8), "TIME").unwrap();
    assert_eq!(
        first,
        (strict.rendered, strict.report.diagnoses.len()),
        "the memo must hold what the workflow computes"
    );
    let stats = svc.stats();
    assert_eq!(stats.report_memo_hits, 1);
    assert_eq!(stats.analyses, 2);
    svc.shutdown();
}

#[test]
fn an_upsert_at_the_same_path_is_not_answered_from_the_memo() {
    let svc = small_service(1);
    let client = svc.client();
    let upload = |trial: &Trial| {
        let resp = client
            .call(Request::Ingest {
                app: "app".into(),
                experiment: "exp".into(),
                document: serde_json::to_string(trial).unwrap(),
            })
            .unwrap();
        assert!(resp.is_clean(), "{resp:?}");
    };
    let skewed = imbalanced_trial("t", 8);
    let balanced = trial("t", 8);
    upload(&skewed);
    let before = clean_report(client.call(analyze_request("t", "TIME")).unwrap());

    // Same (app, experiment, trial, metric), different trial: a memo
    // keyed by path alone would serve the skewed trial's report.
    upload(&balanced);
    let after = clean_report(client.call(analyze_request("t", "TIME")).unwrap());
    let strict = perfexplorer::workflow::analyze_load_balance(&balanced, "TIME").unwrap();
    assert_eq!(after, strict.rendered, "answered from the replaced trial");
    assert_ne!(after, before);
    assert_eq!(svc.stats().report_memo_hits, 0);

    // The new trial's report is memoized in turn.
    let again = clean_report(client.call(analyze_request("t", "TIME")).unwrap());
    assert_eq!(again, after);
    assert_eq!(svc.stats().report_memo_hits, 1);
    svc.shutdown();
}

#[test]
fn an_evicted_and_rematerialized_trial_is_recomputed() {
    let mut repo = Repository::new();
    repo.add_trial("app", "exp", imbalanced_trial("a", 6))
        .unwrap();
    repo.add_trial("app", "exp", trial("b", 6)).unwrap();
    let dir = std::env::temp_dir().join(format!("svc-memo-evict-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("repo.pdb1");
    repo.save_as(&path, perfdmf::Format::Pdb1).unwrap();
    let svc = AnalysisService::open(
        ServiceConfig {
            workers: 1,
            shards: 1,
            cache_capacity: 1,
            ..ServiceConfig::default()
        },
        &path,
    )
    .unwrap();
    let client = svc.client();
    let stats = || {
        let s = svc.stats();
        (s.cache_misses, s.cache_hits, s.report_memo_hits)
    };

    let first = clean_report_and_diagnoses(client.call(analyze_request("a", "TIME")).unwrap());
    assert_eq!(stats(), (1, 0, 0));
    // Materializing `b` evicts `a` from the one-slot cache. The analysis
    // degrades (no such metric), so it leaves the memo's entry for `a`
    // in place: only identity can tell that entry is stale now.
    let degraded = client.call(analyze_request("b", "NOPE")).unwrap();
    assert!(!degraded.degraded.is_empty(), "{degraded:?}");
    assert_eq!(stats(), (2, 0, 0));

    // `a` is materialized again into a new `Arc`: recomputed, not
    // served from the entry built over the evicted one.
    let again = clean_report_and_diagnoses(client.call(analyze_request("a", "TIME")).unwrap());
    assert_eq!(again, first, "recomputation must be byte-identical");
    assert_eq!(
        stats(),
        (3, 0, 0),
        "a memo miss counts like a plain analysis"
    );

    // Now the cache and the memo hold the same `Arc`.
    let third = clean_report_and_diagnoses(client.call(analyze_request("a", "TIME")).unwrap());
    assert_eq!(third, first);
    assert_eq!(stats(), (3, 1, 1));
    svc.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn degraded_reports_are_never_memoized() {
    let svc = small_service(1);
    let client = svc.client();
    client
        .call(Request::Ingest {
            app: "app".into(),
            experiment: "exp".into(),
            document: trial_json("t", 4),
        })
        .unwrap();
    for _ in 0..2 {
        let resp = client.call(analyze_request("t", "NOPE")).unwrap();
        assert!(
            matches!(resp.outcome, Outcome::Report { .. }) && !resp.degraded.is_empty(),
            "a trial lacking the metric degrades: {resp:?}"
        );
    }
    let stats = svc.stats();
    assert_eq!(stats.report_memo_hits, 0);
    assert_eq!(stats.degraded_responses, 2);
    svc.shutdown();
}

#[test]
fn concurrent_clients_on_one_trial_get_identical_bytes() {
    const CLIENTS: usize = 32;
    let svc = small_service(4);
    let document = serde_json::to_string(&imbalanced_trial("t", 8)).unwrap();
    let ingested = svc
        .client()
        .call(Request::Ingest {
            app: "app".into(),
            experiment: "exp".into(),
            document,
        })
        .unwrap();
    assert!(ingested.is_clean(), "{ingested:?}");
    let barrier = std::sync::Barrier::new(CLIENTS);
    let reports: Vec<(String, usize)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|_| {
                let client = svc.client();
                let barrier = &barrier;
                scope.spawn(move || {
                    barrier.wait();
                    clean_report_and_diagnoses(client.call(analyze_request("t", "TIME")).unwrap())
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    let strict =
        perfexplorer::workflow::analyze_load_balance(&imbalanced_trial("t", 8), "TIME").unwrap();
    let expected = (strict.rendered, strict.report.diagnoses.len());
    for report in &reports {
        assert_eq!(report, &expected);
    }
    let stats = svc.stats();
    assert_eq!(stats.analyses, CLIENTS as u64);
    assert!(
        stats.report_memo_hits < CLIENTS as u64,
        "the first analysis computes"
    );
    assert_eq!(stats.panics_isolated, 0);
    svc.shutdown();
}

#[test]
fn a_stream_at_a_memoized_path_takes_precedence_over_the_memo() {
    let svc = small_service(1);
    let client = svc.client();
    let stored = imbalanced_trial("t", 8);
    let ingested = client
        .call(Request::Ingest {
            app: "app".into(),
            experiment: "exp".into(),
            document: serde_json::to_string(&stored).unwrap(),
        })
        .unwrap();
    assert!(ingested.is_clean(), "{ingested:?}");
    let memoized = clean_report(client.call(analyze_request("t", "TIME")).unwrap());
    assert_eq!(
        clean_report(client.call(analyze_request("t", "TIME")).unwrap()),
        memoized
    );
    assert_eq!(svc.stats().report_memo_hits, 1);

    // One chunk evens out `compute`: the stream it opens, seeded from the
    // stored trial, must answer the next analysis, not the memo entry.
    let batch = ChunkBatch {
        seq: 0,
        threads: 8,
        deltas: vec![ColumnDelta {
            metric: "TIME".into(),
            event: "compute".into(),
            event_kind: None,
            cells: (0..8).map(|th| (th, Measurement::leaf(9.0))).collect(),
        }],
    };
    let applied = client
        .call(Request::IngestChunk {
            app: "app".into(),
            experiment: "exp".into(),
            trial: "t".into(),
            chunk: serde_json::to_string(&batch).unwrap(),
        })
        .unwrap();
    assert!(applied.is_clean(), "{applied:?}");
    let before = svc.stats();

    let streamed = clean_report(client.call(analyze_request("t", "TIME")).unwrap());
    let mut combined = perfdmf::StreamingTrial::from_trial(stored);
    combined.apply_chunk(&batch).unwrap();
    let strict = perfexplorer::workflow::analyze_load_balance(combined.trial(), "TIME").unwrap();
    assert_eq!(
        streamed, strict.rendered,
        "the report must reflect the chunk"
    );
    assert_ne!(streamed, memoized);
    let after = svc.stats();
    assert_eq!(after.incremental_analyses, before.incremental_analyses + 1);
    assert_eq!(after.report_memo_hits, 1);
    svc.shutdown();
}
