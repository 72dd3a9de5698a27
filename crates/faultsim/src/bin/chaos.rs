//! Chaos harness: drive the whole pipeline through seeded corruption.
//!
//! For every seed in the matrix this binary
//!
//! 1. builds clean trials from the simulated applications,
//! 2. corrupts them in-memory with every profile-domain fault,
//!    sanitizes them twice, and runs all supervised case-study
//!    workflows,
//! 3. corrupts each serialized text form (csv / tau / gprof) with every
//!    text-domain fault and runs the strict and lossy parsers on the
//!    same bytes,
//! 4. corrupts the repository JSON and runs the salvage path, and the
//!    PDB1 container and runs its strict reader and salvage,
//! 5. corrupts a binary write-ahead journal image (bit flips, cuts,
//!    oversized frame lengths, count overruns behind a valid checksum)
//!    and requires replay to keep exactly the intact record prefix,
//!
//! all under `catch_unwind`. Any panic that escapes a supervised entry
//! point is a bug: it is reported per seed and turns into a non-zero
//! exit code, which is what the CI `chaos` job gates on. So is a broken
//! strict/lossy contract in step 3 or 4: each reader is one walk under
//! two policies, so its strict entry point must succeed exactly when the
//! lossy one reports nothing, both must then read the same value, and a
//! strict failure's message must be the cause of the first diagnostic.
//! So is a second sanitize pass in step 2 that repairs or quarantines
//! anything, or whose flags differ from the first pass's: the invariant
//! walk must leave a profile it never needs to touch again. So is, in
//! the analysis-service stage, a repeated load-balance request whose
//! reply differs from the first, or a report that is not the trial
//! re-uploaded at the same path: the service's report memo must never
//! serve a stale or different report.
//!
//! The `crash-restart` stage is the service-lifecycle side of the same
//! story: for every seed it streams chunks into a WAL-backed service
//! under a seeded unreliable delivery plan (reordered, duplicated,
//! dropped-then-retried, stalled), kills the service at a chosen
//! [`KillPoint`] in a chunk's `append -> apply -> ack` lifecycle
//! (simulating mid-append deaths by leaving a torn frame at the journal
//! tail), restarts it over the same journal directory, redelivers
//! everything, and gates on three invariants: the replayed chunk count
//! is exactly the journaled set, no acknowledged chunk is lost, and the
//! recovered report is byte-identical to an uninterrupted run.
//!
//! ```text
//! chaos [--stage all|corruption|crash-restart] [--seeds N] [--base-seed B]
//!       [--kill-point before-append|mid-append|after-append|after-apply]
//!       [--fsync always|never] [--verbose]
//! ```

use std::panic::{catch_unwind, AssertUnwindSafe};

use apps::msa::{self, MsaConfig};
use apps::power_study::{self, PowerStudyConfig};
use faultsim::{policy_contract, DeliveryOp, DeliveryPlan, Fault, FaultPlan, KillPoint};
use perfdmf::formats::{csv, gprof, tau};
use perfdmf::wal::{FsyncPolicy, Journal, WalRecord};
use perfdmf::{sanitize_trial, ChunkBatch, Repository, Trial};
use perfexplorer::workflow::{
    analyze_load_balance_supervised, analyze_locality_supervised, analyze_power_supervised,
};
use perfexplorer::SupervisorConfig;
use simulator::machine::MachineConfig;
use simulator::openmp::Schedule;

#[derive(Clone, Copy, PartialEq, Eq)]
enum Stage {
    All,
    Corruption,
    CrashRestart,
}

struct Args {
    stage: Stage,
    seeds: u64,
    base_seed: u64,
    kill_points: Vec<KillPoint>,
    fsync: FsyncPolicy,
    verbose: bool,
}

fn parse_args() -> Args {
    let mut args = Args {
        stage: Stage::All,
        seeds: 8,
        base_seed: 0,
        kill_points: KillPoint::MATRIX.to_vec(),
        fsync: FsyncPolicy::Always,
        verbose: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--stage" => {
                args.stage = match it.next().as_deref() {
                    Some("all") => Stage::All,
                    Some("corruption") => Stage::Corruption,
                    Some("crash-restart") => Stage::CrashRestart,
                    _ => usage("--stage needs all|corruption|crash-restart"),
                };
            }
            "--seeds" => {
                args.seeds = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| usage("--seeds needs a number"));
            }
            "--base-seed" => {
                args.base_seed = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| usage("--base-seed needs a number"));
            }
            "--kill-point" => {
                args.kill_points = match it.next().as_deref() {
                    Some("all") => KillPoint::MATRIX.to_vec(),
                    Some(s) => vec![KillPoint::parse(s).unwrap_or_else(|| {
                        usage(
                            "--kill-point needs before-append|mid-append|after-append|after-apply",
                        )
                    })],
                    None => usage("--kill-point needs a value"),
                };
            }
            "--fsync" => {
                args.fsync = match it.next().as_deref() {
                    Some("always") => FsyncPolicy::Always,
                    Some("never") => FsyncPolicy::Never,
                    _ => usage("--fsync needs always|never"),
                };
            }
            "--verbose" => args.verbose = true,
            "--help" | "-h" => usage(""),
            other => usage(&format!("unknown flag {other:?}")),
        }
    }
    args
}

fn usage(err: &str) -> ! {
    if !err.is_empty() {
        eprintln!("error: {err}");
    }
    eprintln!(
        "usage: chaos [--stage all|corruption|crash-restart] [--seeds N] [--base-seed B]\n\
         \x20            [--kill-point KP|all] [--fsync always|never] [--verbose]"
    );
    std::process::exit(if err.is_empty() { 0 } else { 2 });
}

/// Outcome of one seed's run.
#[derive(Default)]
struct SeedOutcome {
    faults_applied: usize,
    stages_degraded: usize,
    diagnostics: usize,
    repairs: usize,
    quarantined: usize,
    flagged: usize,
    salvage_dropped: usize,
    panics: Vec<String>,
    /// Broken strict/lossy or sanitize-idempotence contracts, one line
    /// each.
    violations: Vec<String>,
}

/// Splits a trial into one [`ChunkBatch`] per event, every metric's
/// column in full — the flush shape the simulator's profiling layer
/// produces. Chunk `i` carries event `i`; the chunk carrying
/// [`perfdmf::MAIN_EVENT`] bootstraps the stream.
fn chunk_trial(trial: &Trial) -> Vec<ChunkBatch> {
    use perfdmf::{ColumnDelta, EventId, MetricId};
    let profile = &trial.profile;
    let threads = profile.thread_count();
    profile
        .events()
        .iter()
        .enumerate()
        .map(|(ei, event)| ChunkBatch {
            seq: ei as u64,
            threads: threads as u32,
            deltas: profile
                .metrics()
                .iter()
                .enumerate()
                .map(|(mi, metric)| ColumnDelta {
                    metric: metric.name.clone(),
                    event: event.name.to_string(),
                    event_kind: event.kind.clone(),
                    cells: (0..threads)
                        .map(|t| {
                            (
                                t as u32,
                                *profile
                                    .get(EventId(ei as u32), MetricId(mi as u32), t)
                                    .expect("in-range cell"),
                            )
                        })
                        .collect(),
                })
                .collect(),
        })
        .collect()
}

fn clean_trials() -> Vec<Trial> {
    let mut msa_config = MsaConfig::paper_400(8, Schedule::Static);
    msa_config.sequences = 48;
    let mut out = vec![msa::run(&msa_config)];
    let power = PowerStudyConfig {
        ranks: 4,
        timesteps: 1,
        machine: MachineConfig::altix300(),
    };
    out.extend(power_study::run_all(&power).into_iter().map(|(_, t)| t));
    out
}

/// Runs `f` under panic isolation; a panic is recorded against `what`.
fn guarded(outcome: &mut SeedOutcome, what: &str, f: impl FnOnce(&mut SeedOutcome)) {
    match catch_unwind(AssertUnwindSafe(|| {
        let mut scratch = SeedOutcome::default();
        f(&mut scratch);
        scratch
    })) {
        Ok(scratch) => {
            outcome.faults_applied += scratch.faults_applied;
            outcome.stages_degraded += scratch.stages_degraded;
            outcome.diagnostics += scratch.diagnostics;
            outcome.repairs += scratch.repairs;
            outcome.quarantined += scratch.quarantined;
            outcome.flagged += scratch.flagged;
            outcome.salvage_dropped += scratch.salvage_dropped;
            outcome.panics.extend(scratch.panics);
            outcome.violations.extend(scratch.violations);
        }
        Err(payload) => {
            let msg = payload
                .downcast_ref::<&str>()
                .map(|s| s.to_string())
                .or_else(|| payload.downcast_ref::<String>().cloned())
                .unwrap_or_else(|| "non-string panic".into());
            outcome.panics.push(format!("{what}: {msg}"));
        }
    }
}

fn run_seed(seed: u64, verbose: bool) -> SeedOutcome {
    let machine = MachineConfig::altix300();
    let supervisor = SupervisorConfig::default();
    let mut outcome = SeedOutcome::default();

    // --- profile-domain: corrupt, sanitize, analyze ---
    let mut trials = clean_trials();
    let plan = FaultPlan::new(seed).with_all(&Fault::PROFILE_FAULTS);
    for trial in &mut trials {
        let applied = plan.apply_to_trial(trial);
        outcome.faults_applied += applied.len();
        if verbose {
            for a in &applied {
                eprintln!("seed {seed}: [{}] {}", a.fault, a.detail);
            }
        }
        let report = sanitize_trial(trial);
        outcome.repairs += report.repairs.len();
        outcome.quarantined += report.quarantined.len();
        outcome.flagged += report.flagged.len();
        // The walk is a fixed point: a sanitized trial needs no repair or
        // quarantine, and its flags stand unchanged.
        let again = sanitize_trial(trial);
        if !again.repairs.is_empty()
            || !again.quarantined.is_empty()
            || again.flagged != report.flagged
        {
            outcome.violations.push(format!(
                "sanitize {}: second pass reported {} (first pass flagged {})",
                trial.name,
                again.summary(),
                report.flagged.len()
            ));
        }
    }

    guarded(&mut outcome, "load-balance workflow", |o| {
        let r = analyze_load_balance_supervised(&trials[0], "TIME", &supervisor);
        o.stages_degraded += r.degraded.len();
    });
    guarded(&mut outcome, "locality workflow", |o| {
        let series: Vec<(usize, &Trial)> = trials.iter().enumerate().collect();
        let r = analyze_locality_supervised(&series, &machine, &supervisor);
        o.stages_degraded += r.degraded.len();
    });
    guarded(&mut outcome, "power workflow", |o| {
        let refs: Vec<&Trial> = trials.iter().skip(1).collect();
        let (_, r) = analyze_power_supervised(&refs, &machine, &supervisor);
        o.stages_degraded += r.degraded.len();
    });

    // --- text-domain: corrupt serialized forms, strict- and lossy-parse ---
    let text_plan = FaultPlan::new(seed ^ 0x5eed).with_all(&Fault::TEXT_FAULTS);

    guarded(&mut outcome, "csv lossy parse", |o| {
        let clean = clean_trials();
        let (corrupt, applied) = text_plan.apply_to_text(&csv::write_trial(&clean[0]));
        o.faults_applied += applied.len();
        let parsed = csv::parse_trial_lossy("chaos-csv", &corrupt);
        o.diagnostics += parsed.diagnostics.len();
        o.violations.extend(policy_contract(
            "csv",
            csv::parse_trial("chaos-csv", &corrupt),
            parsed.trial,
            &parsed.diagnostics,
        ));
    });
    guarded(&mut outcome, "tau lossy parse", |o| {
        let tau_text = "3 templated_functions_MULTI_TIME\n\
             # Name Calls Subrs Excl Incl ProfileCalls\n\
             \"main\" 1 2 400 1000 0\n\
             \"main => compute\" 10 0 500 500 0\n\
             \"main => exchange\" 10 0 100 100 0\n";
        let (corrupt, applied) = text_plan.apply_to_text(tau_text);
        o.faults_applied += applied.len();
        let (parsed, diags) = tau::parse_thread_profile_lossy(&corrupt);
        o.diagnostics += diags.len();
        o.violations.extend(policy_contract(
            "tau",
            tau::parse_thread_profile(&corrupt),
            parsed,
            &diags,
        ));
    });
    guarded(&mut outcome, "gprof lossy parse", |o| {
        let gprof_text = "  %   cumulative   self              self     total\n \
             time   seconds   seconds    calls  ms/call  ms/call  name\n \
             90.01      9.00     9.00      100    90.00    95.00  compute\n  \
             9.99      9.99     0.99        1   990.00  9990.00  main\n";
        let (corrupt, applied) = text_plan.apply_to_text(gprof_text);
        o.faults_applied += applied.len();
        let parsed = gprof::parse_flat_profile_lossy("chaos-gprof", &corrupt);
        o.diagnostics += parsed.diagnostics.len();
        o.violations.extend(policy_contract(
            "gprof",
            gprof::parse_flat_profile("chaos-gprof", &corrupt),
            parsed.trial,
            &parsed.diagnostics,
        ));
    });

    // --- binary-domain: corrupt PDB1 bytes, strict + salvage + mmap ---
    guarded(&mut outcome, "pdb1 salvage", |o| {
        let mut repo = Repository::new();
        for (i, t) in clean_trials().into_iter().enumerate() {
            repo.add_trial("chaos", if i == 0 { "msa" } else { "power" }, t)
                .expect("clean trials insert");
        }
        let bytes = repo.to_pdb1();
        let binary_plan = FaultPlan::new(seed ^ 0xb1a5).with_all(&Fault::BINARY_FAULTS);
        let (corrupt, applied) = binary_plan.apply_to_bytes(&bytes);
        o.faults_applied += applied.len();
        if verbose {
            for a in &applied {
                eprintln!("seed {seed}: [{}] {}", a.fault, a.detail);
            }
        }
        // The strict reader must reject or load — never panic — and
        // salvage must degrade to a partial report with diagnostics.
        // Where salvage cannot navigate the file at all, strict must
        // refuse it too.
        let strict = Repository::from_pdb1(&corrupt);
        match perfdmf::pdb1::salvage(&corrupt) {
            Ok((partial, dropped)) => {
                o.salvage_dropped += dropped.len();
                o.violations
                    .extend(policy_contract("pdb1", strict, Some(partial), &dropped));
            }
            Err(e) if strict.is_ok() => o
                .violations
                .push(format!("pdb1: strict loaded what salvage refused ({e})")),
            Err(_) => {}
        }
        // The mmap path shares the strict parser plus lazy page
        // checks; every surviving view must materialize cleanly.
        if let Ok(mapped) = perfdmf::MappedRepository::from_bytes(&corrupt) {
            for view in mapped.views().flatten() {
                let _ = view.to_trial();
            }
        }
    });

    // --- journal-domain: corrupt binary WAL frames, replay ---
    guarded(&mut outcome, "journal replay", |o| {
        use perfdmf::wal::{replay_bytes, FRAME_HEADER_LEN, WAL_HEADER_LEN};
        use rand::{Rng, SeedableRng, StdRng};

        let clean = &clean_trials()[0];
        let records: Vec<WalRecord> = chunk_trial(clean)
            .into_iter()
            .map(|batch| WalRecord::Chunk {
                app: "chaos".into(),
                experiment: "journal".into(),
                trial: clean.name.clone(),
                batch,
            })
            .collect();
        let path =
            std::env::temp_dir().join(format!("chaos-journal-{}-{seed}.wal", std::process::id()));
        let _ = std::fs::remove_file(&path);
        let (mut journal, _) = Journal::open(&path, FsyncPolicy::Never).expect("open journal");
        for r in &records {
            journal.append(r).expect("append");
        }
        drop(journal);
        let image = std::fs::read(&path).expect("read journal");
        let _ = std::fs::remove_file(&path);
        let u32_at =
            |b: &[u8], at: usize| u32::from_le_bytes([b[at], b[at + 1], b[at + 2], b[at + 3]]);
        let mut frames = Vec::new();
        let mut at = WAL_HEADER_LEN;
        while at < image.len() {
            frames.push(at);
            at += FRAME_HEADER_LEN + u32_at(&image, at) as usize;
        }
        assert_eq!(frames.len(), records.len(), "one frame per record");

        // Every corruption lands in frame `victim`; replay must keep
        // exactly the frames before it and name why it stopped.
        let mut rng = StdRng::seed_from_u64(seed ^ 0x3a11);
        for kind in ["bit flip", "cut", "length u32::MAX", "inflated delta count"] {
            let victim = rng.random_range(0..frames.len());
            let start = frames[victim];
            let end = frames.get(victim + 1).copied().unwrap_or(image.len());
            let mut corrupt = image.clone();
            match kind {
                "bit flip" => {
                    let byte = rng.random_range(start..end);
                    corrupt[byte] ^= 1 << rng.random_range(0..8u32);
                }
                "cut" => corrupt.truncate(rng.random_range(start + 1..end)),
                "length u32::MAX" => {
                    corrupt[start..start + 4].copy_from_slice(&u32::MAX.to_le_bytes())
                }
                _ => {
                    // The delta count follows the tag, the three path
                    // strings, seq and threads; re-checksum so only the
                    // decoder can catch the overrun.
                    let (app, experiment, trial) = records[victim].path();
                    let payload = start + FRAME_HEADER_LEN;
                    let count_at =
                        payload + 1 + 12 + app.len() + experiment.len() + trial.len() + 12;
                    let count = u32_at(&corrupt, count_at) + rng.random_range(1..1000u32);
                    corrupt[count_at..count_at + 4].copy_from_slice(&count.to_le_bytes());
                    let crc = perfdmf::pdb1::crc32(&corrupt[payload..end]);
                    corrupt[start + 4..payload].copy_from_slice(&crc.to_le_bytes());
                }
            }
            o.faults_applied += 1;
            let replay = replay_bytes(&corrupt).expect("a journal header survives");
            if verbose {
                eprintln!(
                    "seed {seed}: [journal {kind}] frame {victim}: {} records kept, {:?}",
                    replay.records.len(),
                    replay.torn_reason
                );
            }
            assert!(
                replay.torn_reason.is_some(),
                "{kind}: corruption went unnoticed"
            );
            assert_eq!(
                replay.records[..],
                records[..victim],
                "{kind}: not the strict prefix"
            );
        }
    });

    // --- service-domain: corrupt uploads through the worker pool ---
    guarded(&mut outcome, "analysis service", |o| {
        use service::{AnalysisService, Outcome, Request, ServiceConfig};
        let svc = AnalysisService::start(ServiceConfig {
            workers: 2,
            shards: 4,
            ..ServiceConfig::default()
        });
        let client = svc.client();
        let clean = &clean_trials()[0];
        let document = serde_json::to_string(clean).expect("clean trial serializes");

        // A corrupted upload into the same tenant as a clean sibling
        // must degrade alone. Corrupt goes first: if the fault left the
        // JSON parseable under the same trial name, the clean upload
        // below wins the upsert and the analyzed trial is pristine.
        let (corrupt_doc, applied) = text_plan.apply_to_text(&document);
        o.faults_applied += applied.len();
        let corrupt_resp = client
            .call(Request::Ingest {
                app: "chaos".into(),
                experiment: "svc".into(),
                document: corrupt_doc,
            })
            .expect("service alive");
        // A text fault may leave the JSON parseable; only count real
        // degradations.
        o.stages_degraded += corrupt_resp.degraded.len();
        let clean_resp = client
            .call(Request::Ingest {
                app: "chaos".into(),
                experiment: "svc".into(),
                document,
            })
            .expect("service alive");
        assert!(clean_resp.is_clean(), "clean upload must stay clean");

        // The clean sibling analyzes clean after the corrupt upload.
        // Each analysis is sent twice: the repeat is answered from the
        // shard's report memo and must equal the first reply byte for
        // byte. Between the rounds a different trial is re-uploaded at
        // the same path, and its report must be the new trial's, never
        // the one memoized for the trial it replaced.
        let analyze = || {
            let analysis = client
                .call(Request::AnalyzeBalance {
                    app: "chaos".into(),
                    experiment: "svc".into(),
                    trial: clean.name.clone(),
                    metric: "TIME".into(),
                })
                .expect("service alive");
            assert!(
                analysis.is_clean(),
                "sibling analysis degraded by a corrupt upload: {:?}",
                analysis.degraded
            );
            match analysis.outcome {
                Outcome::Report { rendered, .. } => rendered,
                other => panic!("expected a report, got {other:?}"),
            }
        };
        let mut reuploaded = msa::run(&{
            let mut config = MsaConfig::paper_400(8, Schedule::Dynamic(1));
            config.sequences = 48;
            config
        });
        reuploaded.name = clean.name.clone();
        for (round, trial) in [clean, &reuploaded].into_iter().enumerate() {
            if round > 0 {
                let document = serde_json::to_string(trial).expect("trial serializes");
                let resp = client
                    .call(Request::Ingest {
                        app: "chaos".into(),
                        experiment: "svc".into(),
                        document,
                    })
                    .expect("service alive");
                assert!(resp.is_clean(), "re-upload must stay clean");
            }
            let expected = analyze_load_balance_supervised(trial, "TIME", &supervisor).rendered;
            let first = analyze();
            let second = analyze();
            if first != expected {
                o.violations.push(format!(
                    "service round {round}: the report is not the uploaded trial's"
                ));
            }
            if second != first {
                o.violations.push(format!(
                    "service round {round}: a repeat analysis differs from the first"
                ));
            }
        }
        let stats = svc.stats();
        assert_eq!(stats.panics_isolated, 0, "panic escaped a service handler");
        if stats.report_memo_hits != 2 {
            o.violations.push(format!(
                "service: {} of 2 repeat analyses came from the report memo",
                stats.report_memo_hits
            ));
        }
        svc.shutdown();
    });

    // --- streaming-domain: torn, replayed, out-of-order chunk streams ---
    guarded(&mut outcome, "streaming chunks", |o| {
        use service::{AnalysisService, Outcome, Request, ServiceConfig};

        let clean = &clean_trials()[0];
        let profile = &clean.profile;
        let chunks = chunk_trial(clean);

        let svc = AnalysisService::start(ServiceConfig {
            workers: 2,
            shards: 2,
            ..ServiceConfig::default()
        });
        let client = svc.client();
        let send = |chunk_doc: String| {
            client
                .call(Request::IngestChunk {
                    app: "chaos".into(),
                    experiment: "stream".into(),
                    trial: clean.name.clone(),
                    chunk: chunk_doc,
                })
                .expect("service alive")
        };

        // Bootstrap cleanly (the chunk carrying `main` first), then
        // deliver the rest out of order, each preceded by a corrupted
        // (often truncated) copy and followed by a verbatim replay,
        // analyzing after every delivery. Every response must be a
        // report or a clean rejection — never a panic.
        let main_idx = profile
            .events()
            .iter()
            .position(|e| &*e.name == perfdmf::MAIN_EVENT)
            .expect("clean trial has main");
        let mut order: Vec<usize> = (0..chunks.len()).filter(|&i| i != main_idx).collect();
        // Seeded shuffle: deterministic out-of-order delivery.
        let mut s = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15).max(1);
        for i in (1..order.len()).rev() {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            order.swap(i, (s % (i as u64 + 1)) as usize);
        }
        let first = serde_json::to_string(&chunks[main_idx]).expect("chunk serializes");
        assert!(send(first.clone()).is_clean(), "clean bootstrap chunk");
        for &i in &order {
            let doc = serde_json::to_string(&chunks[i]).expect("chunk serializes");
            let (corrupt_doc, applied) = text_plan.apply_to_text(&doc);
            o.faults_applied += applied.len();
            let r = send(corrupt_doc);
            o.stages_degraded += r.degraded.len();
            let r = send(doc.clone());
            o.stages_degraded += r.degraded.len();
            // Replay: must dedup by sequence number, not double-apply.
            let r = send(doc);
            o.stages_degraded += r.degraded.len();

            let analysis = client
                .call(Request::AnalyzeBalance {
                    app: "chaos".into(),
                    experiment: "stream".into(),
                    trial: clean.name.clone(),
                    metric: "TIME".into(),
                })
                .expect("service alive");
            assert!(
                matches!(
                    analysis.outcome,
                    Outcome::Report { .. } | Outcome::Rejected { .. }
                ),
                "mid-stream analysis must report or reject, got {:?}",
                analysis.outcome
            );
        }
        // With every clean chunk delivered the partial report is whole.
        let final_analysis = client
            .call(Request::AnalyzeBalance {
                app: "chaos".into(),
                experiment: "stream".into(),
                trial: clean.name.clone(),
                metric: "TIME".into(),
            })
            .expect("service alive");
        assert!(
            matches!(final_analysis.outcome, Outcome::Report { .. }),
            "fully-streamed trial must analyze: {:?}",
            final_analysis.outcome
        );
        let stats = svc.stats();
        assert_eq!(stats.panics_isolated, 0, "panic escaped a chunk handler");
        svc.shutdown();
    });

    // --- repository salvage ---
    guarded(&mut outcome, "repository salvage", |o| {
        let mut repo = Repository::new();
        for (i, t) in clean_trials().into_iter().enumerate() {
            repo.add_trial("chaos", if i == 0 { "msa" } else { "power" }, t)
                .expect("clean trials insert");
        }
        let json = repo.to_json().expect("clean repo serializes");
        let (corrupt, applied) = text_plan.apply_to_text(&json);
        o.faults_applied += applied.len();
        // Strict and salvage are one walk: they keep the same contract
        // as the PDB1 pair, and salvage refuses only non-JSON text.
        let strict = Repository::from_json(&corrupt);
        match Repository::salvage_json(&corrupt) {
            Ok((partial, dropped)) => {
                o.salvage_dropped += dropped.len();
                o.violations
                    .extend(policy_contract("json", strict, Some(partial), &dropped));
            }
            Err(e) if strict.is_ok() => o
                .violations
                .push(format!("json: strict loaded what salvage refused ({e})")),
            Err(_) => {}
        }
    });

    // --- script-sweep: corrupt trials under par_foreach_trial ---
    guarded(&mut outcome, "script sweep", |o| {
        use perfexplorer::scripting::{PerfExplorerScript, Value};
        use std::sync::atomic::{AtomicU64, Ordering};
        use std::sync::Arc;

        // Corrupted trials enter the repository *unsanitized*; the
        // sweep must still visit every body, containing any failure
        // (including a panic) to the body that hit it.
        let mut corrupted = clean_trials();
        let plan = FaultPlan::new(seed ^ 0x5c12).with_all(&Fault::PROFILE_FAULTS);
        let mut repo = Repository::new();
        for trial in &mut corrupted {
            o.faults_applied += plan.apply_to_trial(trial).len();
        }
        for trial in corrupted {
            // A fault may rename trials into collision; upserts and
            // rejections at the door are both acceptable — the sweep
            // covers whatever got in.
            let _ = repo.add_trial("chaos", "sweep", trial);
        }
        let mut pristine = clean_trials().remove(0);
        pristine.name = "pristine-sibling".to_string();
        repo.add_trial("chaos", "sweep", pristine)
            .expect("clean sibling inserts");

        let mut session = PerfExplorerScript::new(repo);
        let bodies = Arc::new(AtomicU64::new(0));
        let failed = Arc::new(AtomicU64::new(0));
        {
            let bodies = Arc::clone(&bodies);
            let failed = Arc::clone(&failed);
            session.set_sweep_observer(Arc::new(move |n, nf| {
                bodies.fetch_add(n as u64, Ordering::Relaxed);
                failed.fetch_add(nf as u64, Ordering::Relaxed);
            }));
        }
        let run = session.run_supervised(
            r#"
            let r = par_foreach_trial t in list_trials("chaos", "sweep") {
                let trial = load_trial("chaos", "sweep", t);
                elapsed(trial, "TIME")
            };
            let ok = 0;
            let i = 0;
            while i < len(r) {
                if r[i]["ok"] { ok = ok + 1; }
                i = i + 1;
            }
            ok
            "#,
        );
        o.stages_degraded += run.degraded.len();
        let total = bodies.load(Ordering::Relaxed);
        let bad = failed.load(Ordering::Relaxed);
        // The sweep itself must finish — corrupt bodies degrade alone,
        // and the pristine sibling's body must have succeeded in the
        // same pool.
        let oks = match run.value {
            Some(Value::Num(n)) => n,
            other => panic!("sweep did not complete: {other:?} / {:?}", run.degraded),
        };
        assert!(oks >= 1.0, "pristine body failed alongside corrupt ones");
        assert!(total >= 1 && bad < total, "bodies {total}, failed {bad}");
    });

    outcome
}

// ---------------------------------------------------------------------------
// crash-restart stage: kill -> restart -> replay -> verify
// ---------------------------------------------------------------------------

/// Result of one seeded kill-restart cycle.
struct CrashOutcome {
    /// Chunks acknowledged before the kill.
    acked: usize,
    /// Chunks the restarted service replayed from the journal.
    replayed: u64,
    /// Durable chunks correctly deduplicated on redelivery.
    duplicates: usize,
    /// Acknowledged chunks the recovery lost — must be zero.
    lost_acks: usize,
    /// The recovered report matched the uninterrupted run byte for
    /// byte.
    identical: bool,
    /// Everything that went wrong, human-readable.
    failures: Vec<String>,
}

/// Finds the journal file carrying the tenant's records (the service
/// shards journals per shard; every chunk of one tenant lands in one).
fn busiest_journal(dir: &std::path::Path) -> Option<std::path::PathBuf> {
    let mut best: Option<(usize, std::path::PathBuf)> = None;
    for entry in std::fs::read_dir(dir).ok()?.flatten() {
        let path = entry.path();
        if path.extension().is_some_and(|e| e == "wal") {
            let count = perfdmf::wal::replay_path(&path)
                .map(|r| r.records.len())
                .unwrap_or(0);
            if best.as_ref().is_none_or(|(c, _)| count > *c) {
                best = Some((count, path));
            }
        }
    }
    best.map(|(_, p)| p)
}

/// One kill-restart cycle: stream chunks under an unreliable delivery
/// plan into a WAL-backed service, kill it at `kill`, restart over the
/// same journal directory, redeliver everything, and verify the three
/// recovery invariants (exact replay count, zero lost acks, report
/// byte-identical to an uninterrupted run).
fn run_crash_restart(
    seed: u64,
    kill: KillPoint,
    fsync: FsyncPolicy,
    verbose: bool,
) -> CrashOutcome {
    use rand::{Rng, SeedableRng, StdRng};
    use service::{AnalysisService, Outcome, Request, ServiceClient, ServiceConfig};

    let mut out = CrashOutcome {
        acked: 0,
        replayed: 0,
        duplicates: 0,
        lost_acks: 0,
        identical: false,
        failures: Vec::new(),
    };

    let clean = &clean_trials()[0];
    let chunks = chunk_trial(clean);
    let n = chunks.len();
    let main_idx = clean
        .profile
        .events()
        .iter()
        .position(|e| &*e.name == perfdmf::MAIN_EVENT)
        .expect("clean trial has main");
    let trial_name = clean.name.clone();

    let config = |wal_dir: Option<std::path::PathBuf>| ServiceConfig {
        workers: 2,
        shards: 2,
        wal_dir,
        wal_fsync: fsync,
        ..ServiceConfig::default()
    };
    let send = |client: &ServiceClient, batch: &ChunkBatch| {
        client
            .call(Request::IngestChunk {
                app: "chaos".into(),
                experiment: "crash".into(),
                trial: trial_name.clone(),
                chunk: serde_json::to_string(batch).expect("chunk serializes"),
            })
            .expect("service alive")
    };
    let analyze = |client: &ServiceClient| {
        client
            .call(Request::AnalyzeBalance {
                app: "chaos".into(),
                experiment: "crash".into(),
                trial: trial_name.clone(),
                metric: "TIME".into(),
            })
            .expect("service alive")
    };

    // Reference: the same stream delivered in order, never interrupted,
    // no journal. Recovery must reproduce this report byte for byte.
    let reference = {
        let svc = AnalysisService::start(config(None));
        let client = svc.client();
        for chunk in std::iter::once(main_idx).chain((0..n).filter(|&i| i != main_idx)) {
            assert!(
                send(&client, &chunks[chunk]).is_clean(),
                "reference delivery of chunk {chunk} failed"
            );
        }
        let resp = analyze(&client);
        let rendered = match resp.outcome {
            Outcome::Report { rendered, .. } => rendered,
            other => panic!("reference analysis failed: {other:?}"),
        };
        svc.shutdown();
        rendered
    };

    // Where the kill lands: after `kill_nth` acknowledged first
    // deliveries — always at least the bootstrap chunk acked, always at
    // least one chunk still pending.
    let plan = DeliveryPlan::generate(seed, n, Some(main_idx));
    let delivers = plan.deliveries().len();
    let mut rng = StdRng::seed_from_u64(seed ^ 0x6b11);
    let kill_nth = 1 + rng.random_range(0..delivers as u64 - 1) as usize;

    let wal_dir = std::env::temp_dir().join(format!(
        "chaos-crash-{}-{}-{}",
        std::process::id(),
        seed,
        kill
    ));
    let _ = std::fs::remove_dir_all(&wal_dir);

    let mut acked = vec![false; n];
    let mut victim = None;
    {
        let svc = AnalysisService::start(config(Some(wal_dir.clone())));
        let client = svc.client();
        let mut nth = 0usize;
        'ops: for op in plan.ops() {
            match *op {
                DeliveryOp::Deliver { chunk } => {
                    if nth == kill_nth {
                        victim = Some(chunk);
                        if kill == KillPoint::AfterApply {
                            let r = send(&client, &chunks[chunk]);
                            if !r.is_clean() {
                                out.failures
                                    .push(format!("victim delivery failed: {:?}", r.outcome));
                            }
                            acked[chunk] = true;
                        }
                        break 'ops;
                    }
                    let r = send(&client, &chunks[chunk]);
                    match r.outcome {
                        Outcome::ChunkIngested { duplicate, .. } => {
                            if duplicate {
                                out.failures
                                    .push(format!("first delivery of {chunk} flagged duplicate"));
                            }
                            acked[chunk] = true;
                        }
                        other => out
                            .failures
                            .push(format!("delivery of chunk {chunk} failed: {other:?}")),
                    }
                    nth += 1;
                }
                DeliveryOp::Redeliver { chunk } => {
                    if acked[chunk] {
                        let r = send(&client, &chunks[chunk]);
                        if !matches!(
                            r.outcome,
                            Outcome::ChunkIngested {
                                duplicate: true,
                                ..
                            }
                        ) {
                            out.failures.push(format!(
                                "pre-crash redelivery of {chunk} not deduped: {:?}",
                                r.outcome
                            ));
                        }
                    }
                }
                DeliveryOp::Stall { millis } => {
                    std::thread::sleep(std::time::Duration::from_millis(millis))
                }
            }
        }
        if svc.stats().panics_isolated != 0 {
            out.failures.push("panic escaped pre-crash service".into());
        }
        // The kill: the pre-crash process goes away and only the
        // journal directory survives; the restarted service below
        // rebuilds from the WAL alone.
        svc.shutdown();
    }
    out.acked = acked.iter().filter(|&&a| a).count();
    let victim_chunk = victim.expect("kill lands before the plan is exhausted");

    // Kill points that die inside the append leave their mark directly
    // in the journal file, exactly as the dying process would have.
    if matches!(kill, KillPoint::MidAppend | KillPoint::AfterAppend) {
        let record = WalRecord::Chunk {
            app: "chaos".into(),
            experiment: "crash".into(),
            trial: trial_name.clone(),
            batch: chunks[victim_chunk].clone(),
        };
        match busiest_journal(&wal_dir) {
            Some(path) => match Journal::open(&path, FsyncPolicy::Always) {
                Ok((mut journal, _)) => {
                    let result = match kill {
                        KillPoint::MidAppend => {
                            let keep = 1 + (seed as usize % 40);
                            journal.append_torn(&record, keep).map(|torn| {
                                if verbose {
                                    eprintln!(
                                        "seed {seed} {kill}: tore frame at {keep}/{torn} bytes"
                                    );
                                }
                            })
                        }
                        _ => journal.append(&record),
                    };
                    if let Err(e) = result {
                        out.failures.push(format!("post-mortem append failed: {e}"));
                    }
                }
                Err(e) => out
                    .failures
                    .push(format!("post-mortem journal open failed: {e}")),
            },
            None => out.failures.push("no journal file written".into()),
        }
    }

    // Restart over the same journal directory. Replay must resurrect
    // exactly the durable set: every acked chunk, plus the victim when
    // its append landed before the crash, and nothing from a torn tail.
    let expected_replayed = out.acked as u64 + u64::from(kill == KillPoint::AfterAppend);
    let svc = AnalysisService::start(config(Some(wal_dir.clone())));
    out.replayed = svc.stats().wal_replayed_chunks;
    if out.replayed != expected_replayed {
        out.failures.push(format!(
            "replayed {} chunks, expected {expected_replayed}",
            out.replayed
        ));
    }
    let client = svc.client();
    // Redeliver the full stream (a recovering client replays its send
    // window): durable chunks must dedup — an ack is a durability
    // promise — and never-delivered ones must apply fresh.
    for chunk in std::iter::once(main_idx).chain((0..n).filter(|&i| i != main_idx)) {
        let durable = acked[chunk] || (kill == KillPoint::AfterAppend && chunk == victim_chunk);
        let r = send(&client, &chunks[chunk]);
        match r.outcome {
            Outcome::ChunkIngested { duplicate, .. } => {
                if durable && !duplicate {
                    out.lost_acks += 1;
                    out.failures
                        .push(format!("acked chunk {chunk} was lost across the crash"));
                } else if duplicate {
                    out.duplicates += 1;
                    if !durable {
                        out.failures
                            .push(format!("unacked chunk {chunk} claims duplicate"));
                    }
                }
            }
            other => out.failures.push(format!(
                "recovery delivery of chunk {chunk} failed: {other:?}"
            )),
        }
    }
    let resp = analyze(&client);
    match resp.outcome {
        Outcome::Report { rendered, .. } => {
            out.identical = rendered == reference;
            if !out.identical {
                out.failures
                    .push("recovered report differs from uninterrupted run".into());
            }
        }
        other => out
            .failures
            .push(format!("recovered analysis failed: {other:?}")),
    }
    if svc.stats().panics_isolated != 0 {
        out.failures.push("panic escaped recovered service".into());
    }
    svc.shutdown();
    let _ = std::fs::remove_dir_all(&wal_dir);
    out
}

fn run_corruption_stage(args: &Args) -> bool {
    println!(
        "chaos: {} seed(s) starting at {}",
        args.seeds, args.base_seed
    );
    println!(
        "seed     faults  degraded  diags  repairs  quarantined  flagged  dropped  panics  violations"
    );

    let mut total_panics = 0usize;
    let mut total_violations = 0usize;
    for i in 0..args.seeds {
        let seed = args.base_seed + i;
        let o = run_seed(seed, args.verbose);
        println!(
            "{:<8} {:<7} {:<9} {:<6} {:<8} {:<12} {:<8} {:<8} {:<7} {}",
            seed,
            o.faults_applied,
            o.stages_degraded,
            o.diagnostics,
            o.repairs,
            o.quarantined,
            o.flagged,
            o.salvage_dropped,
            o.panics.len(),
            o.violations.len()
        );
        for p in &o.panics {
            eprintln!("seed {seed}: PANIC ESCAPED: {p}");
        }
        for v in &o.violations {
            eprintln!("seed {seed}: CONTRACT BROKEN: {v}");
        }
        total_panics += o.panics.len();
        total_violations += o.violations.len();
    }

    if total_panics > 0 || total_violations > 0 {
        eprintln!(
            "chaos: {total_panics} panic(s) escaped supervised entry points, \
             {total_violations} contract violation(s)"
        );
        return true;
    }
    println!("chaos: no panics escaped, every strict/lossy and sanitize contract held");
    false
}

fn run_crash_restart_stage(args: &Args) -> bool {
    println!(
        "crash-restart: {} seed(s) x {} kill point(s), fsync {:?}",
        args.seeds,
        args.kill_points.len(),
        args.fsync
    );
    println!("seed     kill-point     acked  replayed  dups  lost  identical  failures");

    let mut failed = false;
    for i in 0..args.seeds {
        let seed = args.base_seed + i;
        for &kp in &args.kill_points {
            match catch_unwind(AssertUnwindSafe(|| {
                run_crash_restart(seed, kp, args.fsync, args.verbose)
            })) {
                Ok(o) => {
                    println!(
                        "{:<8} {:<14} {:<6} {:<9} {:<5} {:<5} {:<10} {}",
                        seed,
                        kp.to_string(),
                        o.acked,
                        o.replayed,
                        o.duplicates,
                        o.lost_acks,
                        o.identical,
                        o.failures.len()
                    );
                    for f in &o.failures {
                        eprintln!("seed {seed} {kp}: FAILED: {f}");
                    }
                    if !o.failures.is_empty() || !o.identical || o.lost_acks > 0 {
                        failed = true;
                    }
                }
                Err(payload) => {
                    let msg = payload
                        .downcast_ref::<&str>()
                        .map(|s| s.to_string())
                        .or_else(|| payload.downcast_ref::<String>().cloned())
                        .unwrap_or_else(|| "non-string panic".into());
                    eprintln!("seed {seed} {kp}: PANIC ESCAPED: {msg}");
                    failed = true;
                }
            }
        }
    }
    if !failed {
        println!("crash-restart: every recovery byte-identical, no acked chunk lost");
    }
    failed
}

fn main() {
    let args = parse_args();
    let mut failed = false;
    if matches!(args.stage, Stage::All | Stage::Corruption) {
        failed |= run_corruption_stage(&args);
    }
    if matches!(args.stage, Stage::All | Stage::CrashRestart) {
        failed |= run_crash_restart_stage(&args);
    }
    if failed {
        std::process::exit(1);
    }
}
