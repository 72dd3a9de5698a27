//! The chaos harness: seeded fault stages over the whole pipeline.
//!
//! [`run_seed`] drives one seed through every corruption stage, and
//! [`crash_restart`] runs one kill-restart cycle. Each
//! stage corrupts the clean [`Fixture`] with a seeded plan, feeds it to
//! one part of the pipeline under panic isolation, and adds what it did
//! to a [`Report`]. Stages never print: the `chaos` binary prints their
//! tables, and the `ci_matrix` test fails on the first [`Violation`].
//!
//! A violation is a panic that escaped a supervised entry point, or a
//! broken contract:
//!
//! * each profile reader is one walk under two policies, so its strict
//!   entry point succeeds exactly when the lossy one (or salvage)
//!   reports nothing, both then read the same value, and a strict
//!   failure's message is the cause of the first diagnostic
//!   ([`policy_contract`]);
//! * sanitizing a corrupted trial a second time repairs or quarantines
//!   nothing and flags the same parents: the invariant walk must leave a
//!   profile it never needs to touch again;
//! * journal replay keeps exactly the records before a corrupted frame;
//! * the service's report memo never serves a stale or different report;
//! * after a crash, replay resurrects exactly the journaled chunks, no
//!   acknowledged chunk is lost, and the recovered report is
//!   byte-identical to an uninterrupted run.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use apps::msa::{self, MsaConfig};
use apps::power_study::{self, PowerStudyConfig};
use perfdmf::formats::{csv, gprof, tau, Diagnostic};
use perfdmf::wal::{FsyncPolicy, Journal, WalRecord};
use perfdmf::{sanitize_trial, ChunkBatch, Repository, Trial};
use perfexplorer::supervise::panic_message;
use perfexplorer::workflow::{
    analyze_load_balance_supervised, analyze_locality_supervised, analyze_power_supervised,
};
use perfexplorer::SupervisorConfig;
use rand::{Rng, SeedableRng, StdRng};
use service::{AnalysisService, Outcome, Request, Response, ServiceClient, ServiceConfig};
use simulator::machine::MachineConfig;
use simulator::openmp::Schedule;

use crate::{policy_contract, AppliedFault, DeliveryOp, DeliveryPlan, Fault, FaultPlan, KillPoint};

/// The clean inputs every stage corrupts. No stage depends on the seed
/// here, so one fixture serves every seed.
pub struct Fixture {
    /// The MSA trial (8 threads, 48 sequences), then the power study's
    /// trials.
    trials: Vec<Trial>,
    /// A dynamic-schedule MSA trial under the first trial's name, which
    /// the service stage re-uploads at the same path.
    reupload: Trial,
    /// The trials in one repository (`chaos/msa`, `chaos/power`).
    repository: Repository,
    /// The MSA trial split into one chunk per event ([`chunk_trial`]).
    chunks: Vec<ChunkBatch>,
    /// Each chunk as the JSON document a client sends.
    chunk_docs: Vec<String>,
    /// The index of the chunk carrying [`perfdmf::MAIN_EVENT`], which
    /// bootstraps a stream.
    main_chunk: usize,
}

impl Default for Fixture {
    /// Simulates the clean trials and derives the rest from them.
    fn default() -> Fixture {
        let msa_trial = |schedule| {
            let mut config = MsaConfig::paper_400(8, schedule);
            config.sequences = 48;
            msa::run(&config)
        };
        let mut trials = vec![msa_trial(Schedule::Static)];
        let power = PowerStudyConfig {
            ranks: 4,
            timesteps: 1,
            machine: MachineConfig::altix300(),
        };
        trials.extend(power_study::run_all(&power).into_iter().map(|(_, t)| t));
        let mut reupload = msa_trial(Schedule::Dynamic(1));
        reupload.name = trials[0].name.clone();
        let mut repository = Repository::new();
        for (i, t) in trials.iter().enumerate() {
            repository
                .add_trial("chaos", if i == 0 { "msa" } else { "power" }, t.clone())
                .expect("clean trials insert");
        }
        let chunks = chunk_trial(&trials[0]);
        let chunk_docs = chunks
            .iter()
            .map(|c| serde_json::to_string(c).expect("chunk serializes"))
            .collect();
        let main_chunk = trials[0]
            .profile
            .events()
            .iter()
            .position(|e| &*e.name == perfdmf::MAIN_EVENT)
            .expect("clean trial has main");
        Fixture {
            trials,
            reupload,
            repository,
            chunks,
            chunk_docs,
            main_chunk,
        }
    }
}

/// Splits a trial into one [`ChunkBatch`] per event, every metric's
/// column in full — the flush shape the simulator's profiling layer
/// produces. Chunk `i` carries event `i`.
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

/// What kind of fault the harness found.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ViolationKind {
    /// A panic escaped a supervised entry point.
    Panic,
    /// A contract of the stage did not hold.
    Contract,
}

/// One fault the harness found.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// The stage that found it (`"journal replay"`; a crash-restart
    /// cycle's kill point).
    pub stage: &'static str,
    /// The seed that reproduces it.
    pub seed: u64,
    /// An escaped panic or a broken contract.
    pub kind: ViolationKind,
    /// What went wrong.
    pub message: String,
}

impl std::fmt::Display for Violation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let kind = match self.kind {
            ViolationKind::Panic => "PANIC ESCAPED",
            ViolationKind::Contract => "CONTRACT BROKEN",
        };
        write!(
            f,
            "seed {} {}: {kind}: {}",
            self.seed, self.stage, self.message
        )
    }
}

/// What one seed's stages did and found. [`run_seed`] fills the
/// corruption counters, [`crash_restart`] the recovery ones.
#[derive(Debug, Default)]
pub struct Report {
    /// The seed every stage's plan derives from.
    pub seed: u64,
    /// Corruptions applied.
    pub faults_applied: usize,
    /// Supervised stages that degraded.
    pub stages_degraded: usize,
    /// Lossy-parser diagnostics.
    pub diagnostics: usize,
    /// Sanitize repairs (first pass).
    pub repairs: usize,
    /// Sanitize quarantines (first pass).
    pub quarantined: usize,
    /// Sanitize children-above-parent flags (first pass).
    pub flagged: usize,
    /// Records PDB1 or JSON salvage dropped.
    pub salvage_dropped: usize,
    /// Chunks acknowledged before the kill.
    pub acked: usize,
    /// Chunks the restarted service replayed from its journal.
    pub replayed: u64,
    /// Redelivered chunks the restarted service deduplicated.
    pub duplicates: usize,
    /// Acknowledged chunks the recovery lost.
    pub lost_acks: usize,
    /// The recovered report matched the uninterrupted run byte for byte.
    pub identical: bool,
    /// Each corruption applied, one line each, in order.
    pub log: Vec<String>,
    /// Every violation found, in order.
    pub violations: Vec<Violation>,
    stage: &'static str,
}

impl Report {
    fn new(seed: u64) -> Report {
        Report {
            seed,
            ..Report::default()
        }
    }

    /// How many violations of `kind` the stages found.
    pub fn count(&self, kind: ViolationKind) -> usize {
        self.violations.iter().filter(|v| v.kind == kind).count()
    }

    /// Runs `f` as `stage` under panic isolation; a panic becomes a
    /// violation.
    fn guard(&mut self, stage: &'static str, f: impl FnOnce(&mut Report)) {
        let outer = std::mem::replace(&mut self.stage, stage);
        if let Err(payload) = catch_unwind(AssertUnwindSafe(|| f(self))) {
            self.push(ViolationKind::Panic, panic_message(payload));
        }
        self.stage = outer;
    }

    fn push(&mut self, kind: ViolationKind, message: String) {
        self.violations.push(Violation {
            stage: self.stage,
            seed: self.seed,
            kind,
            message,
        });
    }

    fn broken(&mut self, message: impl Into<String>) {
        self.push(ViolationKind::Contract, message.into());
    }

    fn contract(&mut self, violation: Option<String>) {
        if let Some(message) = violation {
            self.broken(message);
        }
    }

    fn applied(&mut self, applied: Vec<AppliedFault>) {
        self.faults_applied += applied.len();
        self.log.extend(
            applied
                .iter()
                .map(|a| format!("[{}] {}", a.fault, a.detail)),
        );
    }

    /// `text` under the seed's text-fault plan.
    fn corrupt_text(&mut self, text: &str) -> String {
        let plan = FaultPlan::new(self.seed ^ 0x5eed).with_all(&Fault::TEXT_FAULTS);
        let (corrupt, applied) = plan.apply_to_text(text);
        self.applied(applied);
        corrupt
    }

    /// A strict repository reader against its salvage on the same
    /// input: the [`policy_contract`], and where salvage cannot navigate
    /// the input at all, strict must refuse it too.
    fn salvage_contract(
        &mut self,
        reader: &str,
        strict: perfdmf::Result<Repository>,
        salvage: perfdmf::Result<(Repository, Vec<Diagnostic>)>,
    ) {
        match salvage {
            Ok((partial, dropped)) => {
                self.salvage_dropped += dropped.len();
                self.contract(policy_contract(reader, strict, Some(partial), &dropped));
            }
            Err(e) if strict.is_ok() => self.broken(format!(
                "{reader}: strict loaded what salvage refused ({e})"
            )),
            Err(_) => {}
        }
    }
}

/// One corruption stage: corrupts the fixture with plans derived from
/// the report's seed and records into it.
type StageFn = fn(&Fixture, &mut Report);

/// Every corruption stage, named, in the order [`run_seed`] runs them.
const STAGES: [(&str, StageFn); 10] = [
    ("profile faults", profile_stage),
    ("csv lossy parse", csv_stage),
    ("tau lossy parse", tau_stage),
    ("gprof lossy parse", gprof_stage),
    ("pdb1 salvage", pdb1_stage),
    ("journal replay", journal_stage),
    ("analysis service", service_stage),
    ("streaming chunks", streaming_stage),
    ("repository salvage", json_stage),
    ("script sweep", script_sweep_stage),
];

/// Runs every corruption stage for one seed, each under panic
/// isolation: profile faults with sanitize and the supervised
/// workflows, the csv, tau and gprof readers, PDB1 strict, salvage and
/// mmap, journal replay, the analysis service and its report memo,
/// streaming chunks, repository salvage and a script sweep.
pub fn run_seed(seed: u64, fixture: &Fixture) -> Report {
    let mut report = Report::new(seed);
    for (stage, run) in STAGES {
        report.guard(stage, |r| run(fixture, r));
    }
    report
}

/// Corrupts every clean trial with all profile faults, sanitizes each
/// twice, and runs the three supervised workflows over the result.
fn profile_stage(fx: &Fixture, r: &mut Report) {
    let machine = MachineConfig::altix300();
    let supervisor = SupervisorConfig::default();
    let mut trials = fx.trials.clone();
    let plan = FaultPlan::new(r.seed).with_all(&Fault::PROFILE_FAULTS);
    for trial in &mut trials {
        r.applied(plan.apply_to_trial(trial));
        let first = sanitize_trial(trial);
        r.repairs += first.repairs.len();
        r.quarantined += first.quarantined.len();
        r.flagged += first.flagged.len();
        // The walk is a fixed point: a sanitized trial needs no repair or
        // quarantine, and its flags stand unchanged.
        let again = sanitize_trial(trial);
        if !again.repairs.is_empty()
            || !again.quarantined.is_empty()
            || again.flagged != first.flagged
        {
            r.broken(format!(
                "sanitize {}: second pass reported {} (first pass flagged {})",
                trial.name,
                again.summary(),
                first.flagged.len()
            ));
        }
    }
    r.guard("load-balance workflow", |r| {
        let report = analyze_load_balance_supervised(&trials[0], "TIME", &supervisor);
        r.stages_degraded += report.degraded.len();
    });
    r.guard("locality workflow", |r| {
        let series: Vec<(usize, &Trial)> = trials.iter().enumerate().collect();
        let report = analyze_locality_supervised(&series, &machine, &supervisor);
        r.stages_degraded += report.degraded.len();
    });
    r.guard("power workflow", |r| {
        let refs: Vec<&Trial> = trials.iter().skip(1).collect();
        let (_, report) = analyze_power_supervised(&refs, &machine, &supervisor);
        r.stages_degraded += report.degraded.len();
    });
}

/// The CSV writer's output under text faults, strict and lossy.
fn csv_stage(fx: &Fixture, r: &mut Report) {
    let corrupt = r.corrupt_text(&csv::write_trial(&fx.trials[0]));
    let parsed = csv::parse_trial_lossy("chaos-csv", &corrupt);
    r.diagnostics += parsed.diagnostics.len();
    let strict = csv::parse_trial("chaos-csv", &corrupt);
    r.contract(policy_contract(
        "csv",
        strict,
        parsed.trial,
        &parsed.diagnostics,
    ));
}

/// A TAU thread profile under text faults, strict and lossy.
fn tau_stage(_: &Fixture, r: &mut Report) {
    let corrupt = r.corrupt_text(
        "3 templated_functions_MULTI_TIME\n\
         # Name Calls Subrs Excl Incl ProfileCalls\n\
         \"main\" 1 2 400 1000 0\n\
         \"main => compute\" 10 0 500 500 0\n\
         \"main => exchange\" 10 0 100 100 0\n",
    );
    let (parsed, diags) = tau::parse_thread_profile_lossy(&corrupt);
    r.diagnostics += diags.len();
    let strict = tau::parse_thread_profile(&corrupt);
    r.contract(policy_contract("tau", strict, parsed, &diags));
}

/// A gprof flat profile under text faults, strict and lossy.
fn gprof_stage(_: &Fixture, r: &mut Report) {
    let corrupt = r.corrupt_text(
        "  %   cumulative   self              self     total\n \
         time   seconds   seconds    calls  ms/call  ms/call  name\n \
         90.01      9.00     9.00      100    90.00    95.00  compute\n  \
         9.99      9.99     0.99        1   990.00  9990.00  main\n",
    );
    let parsed = gprof::parse_flat_profile_lossy("chaos-gprof", &corrupt);
    r.diagnostics += parsed.diagnostics.len();
    let strict = gprof::parse_flat_profile("chaos-gprof", &corrupt);
    r.contract(policy_contract(
        "gprof",
        strict,
        parsed.trial,
        &parsed.diagnostics,
    ));
}

/// The repository's PDB1 bytes under binary faults: the strict reader
/// against salvage, then every view the mmap path still opens.
fn pdb1_stage(fx: &Fixture, r: &mut Report) {
    let plan = FaultPlan::new(r.seed ^ 0xb1a5).with_all(&Fault::BINARY_FAULTS);
    let (corrupt, applied) = plan.apply_to_bytes(&fx.repository.to_pdb1());
    r.applied(applied);
    let strict = Repository::from_pdb1(&corrupt);
    r.salvage_contract("pdb1", strict, perfdmf::pdb1::salvage(&corrupt));
    // The mmap path shares the strict parser plus lazy page checks;
    // every surviving view must materialize without a panic.
    if let Ok(mapped) = perfdmf::MappedRepository::from_bytes(&corrupt) {
        for view in mapped.views().flatten() {
            let _ = view.to_trial();
        }
    }
}

/// The repository's JSON under text faults: the strict reader against
/// salvage, which refuses only non-JSON text.
fn json_stage(fx: &Fixture, r: &mut Report) {
    let json = fx.repository.to_json().expect("clean repo serializes");
    let corrupt = r.corrupt_text(&json);
    let strict = Repository::from_json(&corrupt);
    r.salvage_contract("json", strict, Repository::salvage_json(&corrupt));
}

/// A path under the temp directory that no other live call is given,
/// with nothing at it: a file or directory an earlier process with the
/// same pid left there (say, a panicked crash cycle's WAL) is removed,
/// so no stage opens a stale journal.
fn scratch_path(what: &str) -> PathBuf {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    let n = NEXT.fetch_add(1, Ordering::Relaxed);
    let path = std::env::temp_dir().join(format!("chaos-{what}-{}-{n}", std::process::id()));
    let _ = std::fs::remove_file(&path);
    let _ = std::fs::remove_dir_all(&path);
    path
}

/// A binary journal of the MSA trial's chunks, corrupted four ways in
/// one seeded frame each: replay must keep exactly the frames before it
/// and name why it stopped.
fn journal_stage(fx: &Fixture, r: &mut Report) {
    use perfdmf::wal::{replay_bytes, FRAME_HEADER_LEN, WAL_HEADER_LEN};

    let records: Vec<WalRecord> = fx
        .chunks
        .iter()
        .cloned()
        .map(|batch| WalRecord::Chunk {
            app: "chaos".into(),
            experiment: "journal".into(),
            trial: fx.trials[0].name.clone(),
            batch,
        })
        .collect();
    let path = scratch_path("journal");
    let (mut journal, _) = Journal::open(&path, FsyncPolicy::Never).expect("open journal");
    for record in &records {
        journal.append(record).expect("append");
    }
    drop(journal);
    let image = std::fs::read(&path).expect("read journal");
    let _ = std::fs::remove_file(&path);
    let u32_at = |b: &[u8], at: usize| u32::from_le_bytes([b[at], b[at + 1], b[at + 2], b[at + 3]]);
    let mut frames = Vec::new();
    let mut at = WAL_HEADER_LEN;
    while at < image.len() {
        frames.push(at);
        at += FRAME_HEADER_LEN + u32_at(&image, at) as usize;
    }
    assert_eq!(frames.len(), records.len(), "one frame per record");

    let mut rng = StdRng::seed_from_u64(r.seed ^ 0x3a11);
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
            "length u32::MAX" => corrupt[start..start + 4].copy_from_slice(&u32::MAX.to_le_bytes()),
            _ => {
                // The delta count follows the tag, the three path
                // strings, seq and threads; re-checksum so only the
                // decoder can catch the overrun.
                let (app, experiment, trial) = records[victim].path();
                let payload = start + FRAME_HEADER_LEN;
                let count_at = payload + 1 + 12 + app.len() + experiment.len() + trial.len() + 12;
                let count = u32_at(&corrupt, count_at) + rng.random_range(1..1000u32);
                corrupt[count_at..count_at + 4].copy_from_slice(&count.to_le_bytes());
                let crc = perfdmf::pdb1::crc32(&corrupt[payload..end]);
                corrupt[start + 4..payload].copy_from_slice(&crc.to_le_bytes());
            }
        }
        r.faults_applied += 1;
        let replay = replay_bytes(&corrupt).expect("a journal header survives");
        let kept = replay.records.len();
        r.log.push(format!(
            "[journal {kind}] frame {victim}: {kept} records kept, {:?}",
            replay.torn_reason
        ));
        if replay.torn_reason.is_none() {
            r.broken(format!("{kind}: corruption went unnoticed"));
        }
        if replay.records[..] != records[..victim] {
            r.broken(format!(
                "{kind}: kept {kept} records, not the {victim} before frame {victim}"
            ));
        }
    }
}

/// One in-process service under test, with every request addressed to
/// app `chaos` and one experiment.
struct Service {
    service: AnalysisService,
    client: ServiceClient,
    experiment: &'static str,
}

impl Service {
    /// Two request slots over `shards` shards; journaled to `wal` when given.
    fn start(experiment: &'static str, shards: usize, wal: Option<(PathBuf, FsyncPolicy)>) -> Self {
        let mut config = ServiceConfig {
            workers: 2,
            shards,
            ..ServiceConfig::default()
        };
        if let Some((dir, fsync)) = wal {
            config.wal_dir = Some(dir);
            config.wal_fsync = fsync;
        }
        let service = AnalysisService::start(config);
        let client = service.client();
        Service {
            service,
            client,
            experiment,
        }
    }

    fn call(&self, request: Request) -> Response {
        self.client.call(request).expect("service alive")
    }

    fn ingest(&self, document: String) -> Response {
        let experiment = self.experiment.into();
        self.call(Request::Ingest {
            app: "chaos".into(),
            experiment,
            document,
        })
    }

    fn chunk(&self, trial: &str, chunk: String) -> Response {
        let (experiment, trial) = (self.experiment.into(), trial.into());
        self.call(Request::IngestChunk {
            app: "chaos".into(),
            experiment,
            trial,
            chunk,
        })
    }

    fn analyze(&self, trial: &str) -> Response {
        let (experiment, trial) = (self.experiment.into(), trial.into());
        self.call(Request::AnalyzeBalance {
            app: "chaos".into(),
            experiment,
            trial,
            metric: "TIME".into(),
        })
    }

    /// The rendered text of a clean load-balance report.
    fn report(&self, trial: &str) -> String {
        let response = self.analyze(trial);
        match response.outcome {
            Outcome::Report { rendered, .. } if response.degraded.is_empty() => rendered,
            other => panic!(
                "expected a clean report, got {other:?} {:?}",
                response.degraded
            ),
        }
    }

    fn panics_isolated(&self) -> u64 {
        self.service.stats().panics_isolated
    }
}

/// A corrupted upload beside a clean one in the same experiment; then
/// the clean trial's analysis twice, a different trial re-uploaded at
/// its path, and that analysis twice. Each repeat is answered from the
/// shard's report memo and must equal the first reply byte for byte;
/// each report must be the stored trial's, never one memoized for the
/// trial it replaced.
fn service_stage(fx: &Fixture, r: &mut Report) {
    let svc = Service::start("svc", 4, None);
    let clean = &fx.trials[0];
    let document = serde_json::to_string(clean).expect("clean trial serializes");
    // Corrupt goes first: if the fault left the JSON parseable under the
    // same trial name, the clean upload below wins the upsert and the
    // analyzed trial is pristine. Only real degradations count.
    let corrupt = r.corrupt_text(&document);
    r.stages_degraded += svc.ingest(corrupt).degraded.len();
    for (round, trial) in [clean, &fx.reupload].into_iter().enumerate() {
        let document = serde_json::to_string(trial).expect("trial serializes");
        if !svc.ingest(document).is_clean() {
            r.broken(format!("service round {round}: a clean upload degraded"));
        }
        let expected = analyze_load_balance_supervised(trial, "TIME", &SupervisorConfig::default());
        let first = svc.report(&clean.name);
        if first != expected.rendered {
            r.broken(format!(
                "service round {round}: the report is not the uploaded trial's"
            ));
        }
        if svc.report(&clean.name) != first {
            r.broken(format!(
                "service round {round}: a repeat analysis differs from the first"
            ));
        }
    }
    let stats = svc.service.stats();
    if stats.panics_isolated != 0 {
        r.broken("service: a handler panicked");
    }
    if stats.report_memo_hits != 2 {
        let hits = stats.report_memo_hits;
        r.broken(format!(
            "service: {hits} of 2 repeat analyses came from the report memo"
        ));
    }
}

/// The MSA trial streamed as chunks: the `main` chunk cleanly, then the
/// rest in a seeded order, each as a corrupted (often truncated) copy,
/// the clean chunk and a verbatim replay that must dedup by sequence
/// number, with an analysis after each. Every analysis must report or
/// refuse, and the whole stream must report.
fn streaming_stage(fx: &Fixture, r: &mut Report) {
    let svc = Service::start("stream", 2, None);
    let name = &fx.trials[0].name;
    let mut order: Vec<usize> = (0..fx.chunks.len())
        .filter(|&i| i != fx.main_chunk)
        .collect();
    let mut s = r.seed.wrapping_mul(0x9e37_79b9_7f4a_7c15).max(1);
    for i in (1..order.len()).rev() {
        s ^= s << 13;
        s ^= s >> 7;
        s ^= s << 17;
        order.swap(i, (s % (i as u64 + 1)) as usize);
    }
    assert!(
        svc.chunk(name, fx.chunk_docs[fx.main_chunk].clone())
            .is_clean(),
        "clean bootstrap chunk"
    );
    for i in order {
        let doc = &fx.chunk_docs[i];
        let corrupt = r.corrupt_text(doc);
        for chunk in [corrupt, doc.clone(), doc.clone()] {
            r.stages_degraded += svc.chunk(name, chunk).degraded.len();
        }
        let outcome = svc.analyze(name).outcome;
        if !matches!(outcome, Outcome::Report { .. } | Outcome::Rejected { .. }) {
            r.broken(format!(
                "mid-stream analysis neither reported nor refused: {outcome:?}"
            ));
        }
    }
    let outcome = svc.analyze(name).outcome;
    if !matches!(outcome, Outcome::Report { .. }) {
        r.broken(format!("fully-streamed trial must analyze: {outcome:?}"));
    }
    if svc.panics_isolated() != 0 {
        r.broken("streaming: a chunk handler panicked");
    }
}

/// Trials corrupted with profile faults enter a repository unsanitized
/// beside a pristine sibling; a `par_foreach_trial` sweep must visit
/// every body and contain each failure (a panic included) to the body
/// that hit it, so the sweep completes and the sibling's body succeeds.
fn script_sweep_stage(fx: &Fixture, r: &mut Report) {
    use perfexplorer::scripting::{PerfExplorerScript, Value};

    let plan = FaultPlan::new(r.seed ^ 0x5c12).with_all(&Fault::PROFILE_FAULTS);
    let mut repo = Repository::new();
    for mut trial in fx.trials.iter().cloned() {
        r.faults_applied += plan.apply_to_trial(&mut trial).len();
        // A fault may rename trials into collision; upserts and
        // rejections at the door are both acceptable.
        let _ = repo.add_trial("chaos", "sweep", trial);
    }
    let mut pristine = fx.trials[0].clone();
    pristine.name = "pristine-sibling".to_string();
    repo.add_trial("chaos", "sweep", pristine)
        .expect("clean sibling inserts");

    let mut session = PerfExplorerScript::new(repo);
    let counts = Arc::new([AtomicU64::new(0), AtomicU64::new(0)]);
    let observed = Arc::clone(&counts);
    session.set_sweep_observer(Arc::new(move |n, failed| {
        observed[0].fetch_add(n as u64, Ordering::Relaxed);
        observed[1].fetch_add(failed as u64, Ordering::Relaxed);
    }));
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
    r.stages_degraded += run.degraded.len();
    let [total, bad] = [0, 1].map(|i| counts[i].load(Ordering::Relaxed));
    match run.value {
        Some(Value::Num(oks)) if oks >= 1.0 => {}
        Some(Value::Num(_)) => r.broken("sweep: the pristine body failed alongside corrupt ones"),
        other => r.broken(format!(
            "sweep did not complete: {other:?} / {:?}",
            run.degraded
        )),
    }
    if total == 0 || bad >= total {
        r.broken(format!("sweep: {bad} of {total} bodies failed"));
    }
}

/// Finds the journal file carrying the tenant's records (the service
/// shards journals per shard; every chunk of one tenant lands in one).
fn busiest_journal(dir: &std::path::Path) -> Option<PathBuf> {
    let mut best: Option<(usize, PathBuf)> = None;
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

/// One kill-restart cycle: stream the MSA trial's chunks under a seeded
/// [`DeliveryPlan`] into a WAL-backed service, kill it at `kill`,
/// restart over the same journal directory, redeliver everything, and
/// check the recovery invariants: the replayed chunk count is exactly
/// the journaled set, no acknowledged chunk is lost, and the recovered
/// report is byte-identical to an uninterrupted run.
pub fn crash_restart(seed: u64, kill: KillPoint, fsync: FsyncPolicy, fx: &Fixture) -> Report {
    let mut report = Report::new(seed);
    report.guard(kill.name(), |r| crash_cycle(kill, fsync, fx, r));
    report
}

fn crash_cycle(kill: KillPoint, fsync: FsyncPolicy, fx: &Fixture, r: &mut Report) {
    let name = &fx.trials[0].name;
    let n = fx.chunks.len();
    let in_order = || std::iter::once(fx.main_chunk).chain((0..n).filter(|&i| i != fx.main_chunk));
    let send = |svc: &Service, chunk: usize| svc.chunk(name, fx.chunk_docs[chunk].clone());

    // Reference: the same stream delivered in order, never interrupted,
    // no journal.
    let reference = {
        let svc = Service::start("crash", 2, None);
        for chunk in in_order() {
            assert!(
                send(&svc, chunk).is_clean(),
                "reference delivery of chunk {chunk} failed"
            );
        }
        svc.report(name)
    };

    // Where the kill lands: after `kill_nth` acknowledged first
    // deliveries — always at least the bootstrap chunk acked, always at
    // least one chunk still pending.
    let plan = DeliveryPlan::generate(r.seed, n, Some(fx.main_chunk));
    let delivers = plan.deliveries().len();
    let mut rng = StdRng::seed_from_u64(r.seed ^ 0x6b11);
    let kill_nth = 1 + rng.random_range(0..delivers as u64 - 1) as usize;

    let wal_dir = scratch_path("crash");
    let mut acked = vec![false; n];
    let mut victim = None;
    let svc = Service::start("crash", 2, Some((wal_dir.clone(), fsync)));
    let mut nth = 0usize;
    for op in plan.ops() {
        match *op {
            DeliveryOp::Deliver { chunk } if nth == kill_nth => {
                victim = Some(chunk);
                if kill == KillPoint::AfterApply {
                    let response = send(&svc, chunk);
                    if !response.is_clean() {
                        r.broken(format!("victim delivery failed: {:?}", response.outcome));
                    }
                    acked[chunk] = true;
                }
                break;
            }
            DeliveryOp::Deliver { chunk } => {
                match send(&svc, chunk).outcome {
                    Outcome::ChunkIngested { duplicate, .. } => {
                        if duplicate {
                            r.broken(format!("first delivery of {chunk} flagged duplicate"));
                        }
                        acked[chunk] = true;
                    }
                    other => r.broken(format!("delivery of chunk {chunk} failed: {other:?}")),
                }
                nth += 1;
            }
            DeliveryOp::Redeliver { chunk } if acked[chunk] => {
                let outcome = send(&svc, chunk).outcome;
                if !matches!(
                    outcome,
                    Outcome::ChunkIngested {
                        duplicate: true,
                        ..
                    }
                ) {
                    r.broken(format!(
                        "pre-crash redelivery of {chunk} not deduped: {outcome:?}"
                    ));
                }
            }
            DeliveryOp::Redeliver { .. } => {}
            DeliveryOp::Stall { millis } => {
                std::thread::sleep(std::time::Duration::from_millis(millis))
            }
        }
    }
    if svc.panics_isolated() != 0 {
        r.broken("panic escaped pre-crash service");
    }
    // The kill: the pre-crash process goes away and only the journal
    // directory survives; the restarted service rebuilds from it alone.
    drop(svc);
    r.acked = acked.iter().filter(|&&a| a).count();
    let victim = victim.expect("kill lands before the plan is exhausted");

    // Kill points that die inside the append leave their mark directly
    // in the journal file, exactly as the dying process would have.
    if matches!(kill, KillPoint::MidAppend | KillPoint::AfterAppend) {
        let record = WalRecord::Chunk {
            app: "chaos".into(),
            experiment: "crash".into(),
            trial: name.clone(),
            batch: fx.chunks[victim].clone(),
        };
        let result = busiest_journal(&wal_dir)
            .ok_or_else(|| "no journal file written".to_string())
            .and_then(|path| Journal::open(&path, FsyncPolicy::Always).map_err(|e| e.to_string()))
            .and_then(|(mut journal, _)| {
                match kill {
                    KillPoint::MidAppend => {
                        let keep = 1 + (r.seed as usize % 40);
                        let torn = journal.append_torn(&record, keep);
                        torn.map(|torn| r.log.push(format!("tore frame at {keep}/{torn} bytes")))
                    }
                    _ => journal.append(&record),
                }
                .map_err(|e| e.to_string())
            });
        if let Err(e) = result {
            r.broken(format!("post-mortem append failed: {e}"));
        }
    }

    // Restart over the same journal directory. Replay must resurrect
    // exactly the durable set: every acked chunk, plus the victim when
    // its append landed before the crash, and nothing from a torn tail.
    let svc = Service::start("crash", 2, Some((wal_dir.clone(), fsync)));
    let expected = r.acked as u64 + u64::from(kill == KillPoint::AfterAppend);
    r.replayed = svc.service.stats().wal_replayed_chunks;
    if r.replayed != expected {
        r.broken(format!(
            "replayed {} chunks, expected {expected}",
            r.replayed
        ));
    }
    // Redeliver the full stream (a recovering client replays its send
    // window): durable chunks must dedup — an ack is a durability
    // promise — and never-delivered ones must apply fresh.
    for chunk in in_order() {
        let durable = acked[chunk] || (kill == KillPoint::AfterAppend && chunk == victim);
        match send(&svc, chunk).outcome {
            Outcome::ChunkIngested { duplicate, .. } => {
                if durable && !duplicate {
                    r.lost_acks += 1;
                    r.broken(format!("acked chunk {chunk} was lost across the crash"));
                } else if duplicate {
                    r.duplicates += 1;
                    if !durable {
                        r.broken(format!("unacked chunk {chunk} claims duplicate"));
                    }
                }
            }
            other => r.broken(format!(
                "recovery delivery of chunk {chunk} failed: {other:?}"
            )),
        }
    }
    match svc.analyze(name).outcome {
        Outcome::Report { rendered, .. } => {
            r.identical = rendered == reference;
            if !r.identical {
                r.broken("recovered report differs from uninterrupted run");
            }
        }
        other => r.broken(format!("recovered analysis failed: {other:?}")),
    }
    if svc.panics_isolated() != 0 {
        r.broken("panic escaped recovered service");
    }
    drop(svc);
    let _ = std::fs::remove_dir_all(&wal_dir);
}
