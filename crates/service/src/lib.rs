//! Multi-tenant analysis service.
//!
//! The paper's workflows run as batch jobs; this crate packages them as
//! a long-lived service many clients share. Requests (profile uploads,
//! workflow analyses, scripted studies) flow through one bounded queue
//! into a fixed worker pool. Trials live in a [`ShardedRepository`]
//! partitioned by tenant path, so ingests for different tenants
//! contend on different locks; cold trials come from the zero-copy
//! PDB1 store through a per-shard LRU.
//!
//! Isolation boundary: every request runs under the PR 5 supervision
//! discipline. Workflow and script stages run supervised (panics and
//! errors become [`DegradedStage`] records on that response only), and
//! the worker loop itself wraps handlers in `catch_unwind` as a last
//! line of defense — a poisoned request can never take down a worker
//! or leak into a sibling request's response.
//!
//! Lifecycle resilience (DESIGN.md §3.12): the worker queue is
//! *bounded* — a full queue sheds the request with a typed
//! [`Outcome::Overloaded`] instead of growing without limit; each
//! request may carry a *deadline* that is checked at dequeue and
//! propagated into the supervisor's wall budget
//! ([`Outcome::DeadlineExceeded`]); admission keeps one *circuit
//! breaker* per shard that opens after repeated storage-internal
//! failures ([`Outcome::BreakerOpen`], recovering via half-open
//! probes); and
//! streamed chunk ingestion can be backed by per-shard *write-ahead
//! journals* so a crash-restart cycle loses no acknowledged chunk.

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod breaker;
pub mod metrics;
pub mod shard;

pub use breaker::{Admission, BreakerConfig, BreakerState, CircuitBreaker};
pub use metrics::{ServiceMetrics, StatsSnapshot};
pub use shard::{shard_of, BalanceReport, ReportRefusal, ShardedRepository};

use parking_lot::Mutex;
use perfdmf::wal::FsyncPolicy;
use perfdmf::{DmfError, Repository, Trial};
use perfexplorer::scripting::PerfExplorerScript;
use perfexplorer::supervise::{DegradeCause, DegradedStage};
use perfexplorer::SupervisorConfig;
use shard::Lru;
use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, PoisonError};
use std::time::{Duration, Instant};

/// Service tuning knobs.
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// Repository shard count.
    pub shards: usize,
    /// Worker-pool size.
    pub workers: usize,
    /// Cold-trial LRU capacity per shard.
    pub cache_capacity: usize,
    /// Capacity of the shared compiled-sweep-script LRU (entries).
    pub script_cache_capacity: usize,
    /// Budgets for supervised workflow/script stages.
    pub supervisor: SupervisorConfig,
    /// Worker-queue capacity. Submissions beyond it are shed with
    /// [`Outcome::Overloaded`] rather than queued without bound. The
    /// default (1024) comfortably covers a `perfknow serve --burst 1000`
    /// run of one-in-flight clients.
    pub queue_capacity: usize,
    /// Per-shard circuit-breaker tuning.
    pub breaker: BreakerConfig,
    /// Directory for per-shard write-ahead journals. `None` (default)
    /// disables journaling; with a directory set, startup replays any
    /// existing journals before serving.
    pub wal_dir: Option<PathBuf>,
    /// Fsync policy for journal appends. [`FsyncPolicy::Never`] is the
    /// fast path for tests and the CI smoke lane (still safe against
    /// process kills — the write precedes the ack).
    pub wal_fsync: FsyncPolicy,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            shards: 8,
            workers: std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(4),
            cache_capacity: 64,
            script_cache_capacity: 32,
            supervisor: SupervisorConfig::default(),
            queue_capacity: 1024,
            breaker: BreakerConfig::default(),
            wal_dir: None,
            wal_fsync: FsyncPolicy::Always,
        }
    }
}

/// What a client asks the service to do.
#[derive(Debug, Clone)]
pub enum Request {
    /// Upload one trial, serialized as JSON, into `(app, experiment)`.
    Ingest {
        /// Tenant application.
        app: String,
        /// Tenant experiment.
        experiment: String,
        /// JSON document of a [`Trial`].
        document: String,
    },
    /// Append one streamed chunk ([`perfdmf::ChunkBatch`] as JSON) to a
    /// trial under construction, creating the stream on first contact.
    IngestChunk {
        /// Tenant application.
        app: String,
        /// Tenant experiment.
        experiment: String,
        /// Trial name the stream builds.
        trial: String,
        /// JSON document of a [`perfdmf::ChunkBatch`].
        chunk: String,
    },
    /// Run the §III-A load-balance workflow on one stored trial.
    AnalyzeBalance {
        /// Tenant application.
        app: String,
        /// Tenant experiment.
        experiment: String,
        /// Trial name.
        trial: String,
        /// Metric to analyze, e.g. `"TIME"`.
        metric: String,
    },
    /// Run a PerfExplorer script against a snapshot of one experiment.
    RunScript {
        /// Tenant application.
        app: String,
        /// Tenant experiment.
        experiment: String,
        /// Script source.
        source: String,
    },
    /// Run a parallel trial sweep: a script (typically built around
    /// `par_foreach_trial`) against a snapshot of one experiment, its
    /// bodies fanned out over the process's worker budget. Compilation
    /// is served from a cache shared by every worker, keyed by the
    /// script's source text.
    RunSweep {
        /// Tenant application.
        app: String,
        /// Tenant experiment.
        experiment: String,
        /// Script source.
        source: String,
    },
}

impl Request {
    /// The `(app, experiment)` tenant path this request addresses —
    /// every request kind names one, which is what routes it to a
    /// shard (and that shard's circuit breaker).
    pub fn tenant(&self) -> (&str, &str) {
        match self {
            Request::Ingest {
                app, experiment, ..
            }
            | Request::IngestChunk {
                app, experiment, ..
            }
            | Request::AnalyzeBalance {
                app, experiment, ..
            }
            | Request::RunScript {
                app, experiment, ..
            }
            | Request::RunSweep {
                app, experiment, ..
            } => (app, experiment),
        }
    }
}

/// What came back.
#[derive(Debug, Clone)]
pub enum Outcome {
    /// Upload accepted; the stored trial's name.
    Ingested {
        /// Name of the trial as parsed from the document.
        trial: String,
    },
    /// Chunk applied to a streamed trial.
    ChunkIngested {
        /// Trial the chunk was applied to.
        trial: String,
        /// The chunk's sequence number.
        seq: u64,
        /// The chunk was a replay and was skipped.
        duplicate: bool,
        /// Cells applied into the columnar arena.
        applied_cells: usize,
        /// Cells addressing threads beyond the trial's axis, dropped.
        dropped_cells: usize,
    },
    /// Workflow finished; the rendered report.
    Report {
        /// Human-readable case-study report.
        rendered: String,
        /// Structured diagnosis count.
        diagnoses: usize,
    },
    /// Script finished (possibly partially).
    ScriptDone {
        /// The script's final value, rendered, when it completed.
        value: Option<String>,
        /// Script print output.
        printed: Vec<String>,
    },
    /// Sweep script finished (possibly partially). A failing sweep
    /// body does not fail the request — it surfaces in the script's
    /// outcome list and in `failed_bodies`.
    SweepDone {
        /// The script's final value, rendered, when it completed.
        value: Option<String>,
        /// Script print output (bodies' prints stitched in trial order).
        printed: Vec<String>,
        /// Sweep bodies executed across the request.
        bodies: u64,
        /// Bodies that finished with an error outcome.
        failed_bodies: u64,
        /// The compiled script came from the shared cache.
        cached: bool,
    },
    /// The request could not be served at all.
    Rejected {
        /// Why.
        error: String,
    },
    /// The worker queue was full; the request was shed at admission
    /// without reaching a worker. Retry with backoff.
    Overloaded {
        /// The queue capacity that was exhausted.
        capacity: usize,
    },
    /// The home shard's circuit breaker is open; the request failed
    /// fast without touching the shard's storage. Retry after the
    /// breaker's cooldown.
    BreakerOpen {
        /// Index of the shard whose breaker is open.
        shard: usize,
    },
    /// The request's deadline passed before the work completed. Stages
    /// that finished in time are in the partial report.
    DeadlineExceeded {
        /// Partial rendered report, when the report stage still ran.
        partial: Option<String>,
    },
}

/// One served request: outcome, degradation record, and latency.
#[derive(Debug, Clone)]
pub struct Response {
    /// The result payload.
    pub outcome: Outcome,
    /// Supervised stages that degraded while serving this request —
    /// empty on a clean response.
    pub degraded: Vec<DegradedStage>,
    /// Queue wait plus handling time, as the client experiences it.
    pub latency: Duration,
}

impl Response {
    /// Clean means: no degraded stages and none of the non-served
    /// outcomes (rejected, shed, breaker-open, deadline-exceeded).
    pub fn is_clean(&self) -> bool {
        self.degraded.is_empty()
            && !matches!(
                self.outcome,
                Outcome::Rejected { .. }
                    | Outcome::Overloaded { .. }
                    | Outcome::BreakerOpen { .. }
                    | Outcome::DeadlineExceeded { .. }
            )
    }
}

struct Job {
    request: Request,
    submitted: Instant,
    /// Deadline relative to `submitted`; queue wait counts against it.
    deadline: Option<Duration>,
    reply: std::sync::mpsc::Sender<Response>,
}

/// LRU of compiled sweep scripts shared by every worker, keyed by the
/// script's source text. The common fleet pattern — one study script
/// swept over many experiments or re-run as data streams in — compiles
/// once service-wide; each worker replays the compiled program on the
/// one script session it keeps, reset for every request (a reset
/// session's tables equal a freshly registered one's, so a program
/// compiled on any worker replays on all). It is the only compile
/// cache: a one-off `RunScript` compiles on the worker's session, runs
/// and keeps nothing.
type ScriptCache = Lru<String, Arc<script::Compiled>>;

/// The bounded worker queue. Clients push without blocking, so a full
/// queue sheds; idle workers sleep on one condition variable, and a
/// push wakes exactly one of them. Closing it lets the workers drain
/// what is queued and exit, and refuses every later push. It is not
/// std's `sync_channel`: workers sharing that one receiver behind a
/// mutex wake a second worker for every job (DESIGN.md §3.12).
struct WorkQueue {
    state: Mutex<QueueState>,
    ready: Condvar,
    capacity: usize,
}

struct QueueState {
    jobs: VecDeque<Job>,
    closed: bool,
}

/// What [`WorkQueue::try_push`] did with a job.
enum Push {
    Queued,
    /// The queue is at capacity; the job comes back to be shed.
    Full(Job),
    Closed,
}

impl WorkQueue {
    fn new(capacity: usize) -> Self {
        WorkQueue {
            state: Mutex::new(QueueState {
                jobs: VecDeque::new(),
                closed: false,
            }),
            ready: Condvar::new(),
            capacity,
        }
    }

    fn try_push(&self, job: Job) -> Push {
        let mut state = self.state.lock();
        if state.closed {
            return Push::Closed;
        }
        if state.jobs.len() >= self.capacity {
            return Push::Full(job);
        }
        state.jobs.push_back(job);
        drop(state);
        self.ready.notify_one();
        Push::Queued
    }

    /// The next job, sleeping while the queue is empty; `None` once it
    /// is closed and drained.
    fn pop(&self) -> Option<Job> {
        let mut state = self.state.lock();
        loop {
            if let Some(job) = state.jobs.pop_front() {
                return Some(job);
            }
            if state.closed {
                return None;
            }
            state = self
                .ready
                .wait(state)
                .unwrap_or_else(PoisonError::into_inner);
        }
    }

    fn close(&self) {
        self.state.lock().closed = true;
        self.ready.notify_all();
    }
}

/// A clonable handle for submitting requests.
#[derive(Clone)]
pub struct ServiceClient {
    queue: Arc<WorkQueue>,
    metrics: Arc<ServiceMetrics>,
}

impl ServiceClient {
    /// Submits a request; the returned receiver yields the response.
    /// Errors only if the service has shut down.
    pub fn submit(&self, request: Request) -> Result<std::sync::mpsc::Receiver<Response>, String> {
        self.submit_with_deadline(request, None)
    }

    /// Submits a request with an optional deadline (measured from
    /// now; queue wait counts against it). Admission control applies:
    /// if the worker queue is full, the request is *shed* — the
    /// receiver immediately yields [`Outcome::Overloaded`] instead of
    /// the submission queuing without bound.
    pub fn submit_with_deadline(
        &self,
        request: Request,
        deadline: Option<Duration>,
    ) -> Result<std::sync::mpsc::Receiver<Response>, String> {
        let (tx, rx) = std::sync::mpsc::channel();
        let job = Job {
            request,
            submitted: Instant::now(),
            deadline,
            reply: tx,
        };
        // Gauge up BEFORE the push: the worker's decrement at dequeue
        // must never land before this increment, or the gauge drifts
        // (dec saturates at zero, the late inc sticks forever). The
        // peak is folded only once the job is admitted and is clamped
        // to the capacity: the gauge also counts concurrent attempts
        // that are about to be shed, and a shed attempt is not depth.
        let depth = ServiceMetrics::gauge_inc(&self.metrics.queue_depth);
        let capacity = self.queue.capacity;
        match self.queue.try_push(job) {
            Push::Queued => {
                ServiceMetrics::fold_peak(&self.metrics.queue_peak, depth.min(capacity as u64))
            }
            Push::Full(job) => {
                ServiceMetrics::gauge_dec(&self.metrics.queue_depth);
                ServiceMetrics::bump(&self.metrics.shed);
                let _ = job.reply.send(Response {
                    outcome: Outcome::Overloaded { capacity },
                    degraded: Vec::new(),
                    latency: job.submitted.elapsed(),
                });
            }
            Push::Closed => {
                ServiceMetrics::gauge_dec(&self.metrics.queue_depth);
                return Err("service is shut down".to_string());
            }
        }
        Ok(rx)
    }

    /// Submits and blocks for the response.
    pub fn call(&self, request: Request) -> Result<Response, String> {
        self.call_with_deadline(request, None)
    }

    /// Submits with a deadline and blocks for the response.
    pub fn call_with_deadline(
        &self,
        request: Request,
        deadline: Option<Duration>,
    ) -> Result<Response, String> {
        self.submit_with_deadline(request, deadline)?
            .recv()
            .map_err(|_| "service dropped the request".to_string())
    }
}

/// The running service: worker pool, sharded store, metrics.
pub struct AnalysisService {
    queue: Arc<WorkQueue>,
    workers: Vec<std::thread::JoinHandle<()>>,
    store: Arc<ShardedRepository>,
    metrics: Arc<ServiceMetrics>,
}

impl AnalysisService {
    /// Starts a service over an empty store. With `wal_dir` set in the
    /// config, any journals a previous (crashed) process left there are
    /// replayed before serving — see [`ShardedRepository::attach_wal`].
    ///
    /// # Panics
    /// When the configured WAL directory cannot be opened or replayed:
    /// a service that cannot guarantee its configured durability must
    /// not start.
    pub fn start(config: ServiceConfig) -> Self {
        let metrics = Arc::new(ServiceMetrics::default());
        let store = ShardedRepository::new(config.shards, config.cache_capacity, metrics.clone());
        match Self::finish(config, store, metrics) {
            Ok(svc) => svc,
            Err(e) => panic!("service start: WAL attach failed: {e}"),
        }
    }

    /// Starts a service pre-seeded from an in-memory repository.
    ///
    /// # Panics
    /// As [`AnalysisService::start`], when WAL attach fails.
    pub fn start_with_repository(config: ServiceConfig, repo: Repository) -> Self {
        let metrics = Arc::new(ServiceMetrics::default());
        let store = ShardedRepository::from_repository(
            repo,
            config.shards,
            config.cache_capacity,
            metrics.clone(),
        );
        match Self::finish(config, store, metrics) {
            Ok(svc) => svc,
            Err(e) => panic!("service start: WAL attach failed: {e}"),
        }
    }

    /// Starts a service over a repository file (PDB1 becomes the cold
    /// mapped store; JSON loads into the shard overlays).
    pub fn open(config: ServiceConfig, path: &Path) -> perfdmf::Result<Self> {
        let metrics = Arc::new(ServiceMetrics::default());
        let store =
            ShardedRepository::open(path, config.shards, config.cache_capacity, metrics.clone())?;
        Self::finish(config, store, metrics)
    }

    /// Attaches the WAL (replaying any crash leftovers) and spins up
    /// the worker pool, with one circuit breaker per shard.
    fn finish(
        config: ServiceConfig,
        mut store: ShardedRepository,
        metrics: Arc<ServiceMetrics>,
    ) -> perfdmf::Result<Self> {
        if let Some(dir) = &config.wal_dir {
            store.attach_wal(dir, config.wal_fsync)?;
        }
        let store = Arc::new(store);
        let queue = Arc::new(WorkQueue::new(config.queue_capacity.max(1)));
        let scripts = Arc::new(Mutex::new(ScriptCache::new(
            config.script_cache_capacity.max(1),
        )));
        let breakers: Arc<[CircuitBreaker]> = (0..config.shards)
            .map(|_| CircuitBreaker::new(config.breaker.clone()))
            .collect();
        let workers = (0..config.workers.max(1))
            .map(|i| {
                let queue = queue.clone();
                let store = store.clone();
                let metrics = metrics.clone();
                let supervisor = config.supervisor.clone();
                let scripts = scripts.clone();
                let breakers = breakers.clone();
                std::thread::Builder::new()
                    .name(format!("svc-worker-{i}"))
                    .spawn(move || {
                        worker_loop(queue, store, metrics, supervisor, scripts, breakers)
                    })
                    .unwrap_or_else(|e| panic!("spawn service worker: {e}"))
            })
            .collect();
        Ok(AnalysisService {
            queue,
            workers,
            store,
            metrics,
        })
    }

    /// A new client handle.
    pub fn client(&self) -> ServiceClient {
        ServiceClient {
            queue: self.queue.clone(),
            metrics: self.metrics.clone(),
        }
    }

    /// The stats endpoint: a snapshot of every counter.
    pub fn stats(&self) -> StatsSnapshot {
        self.metrics.snapshot()
    }

    /// Direct access to the sharded store (tests, CLI persistence).
    pub fn store(&self) -> &ShardedRepository {
        &self.store
    }

    /// Closes the queue, lets the workers drain the jobs already queued,
    /// and joins them. Outstanding [`ServiceClient`] handles error on
    /// their next submit.
    pub fn shutdown(mut self) {
        self.stop_workers();
    }

    fn stop_workers(&mut self) {
        self.queue.close();
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
    }
}

impl Drop for AnalysisService {
    fn drop(&mut self) {
        self.stop_workers();
    }
}

fn worker_loop(
    queue: Arc<WorkQueue>,
    store: Arc<ShardedRepository>,
    metrics: Arc<ServiceMetrics>,
    supervisor: SupervisorConfig,
    scripts: Arc<Mutex<ScriptCache>>,
    breakers: Arc<[CircuitBreaker]>,
) {
    // Built by the worker's first script request, kept across requests.
    let mut session = None;
    while let Some(job) = queue.pop() {
        ServiceMetrics::gauge_dec(&metrics.queue_depth);
        let (outcome, degraded) = serve_job(
            &store,
            &metrics,
            &supervisor,
            &scripts,
            &breakers,
            &mut session,
            &job,
        );
        ServiceMetrics::bump(&metrics.requests);
        if !degraded.is_empty() {
            ServiceMetrics::bump(&metrics.degraded_responses);
        }
        if matches!(outcome, Outcome::Rejected { .. }) {
            ServiceMetrics::bump(&metrics.rejected);
        }
        if matches!(outcome, Outcome::DeadlineExceeded { .. }) {
            ServiceMetrics::bump(&metrics.deadlines_exceeded);
        }
        let response = Response {
            outcome,
            degraded,
            latency: job.submitted.elapsed(),
        };
        // A client that gave up on the reply is not an error.
        let _ = job.reply.send(response);
        // Off the reply's path: drop what the request left in the
        // session before waiting for the next job.
        if let Some(worker) = &mut session {
            worker.script.release();
        }
    }
}

/// Serves one dequeued job: deadline pre-check, breaker gate, handler
/// under `catch_unwind`, breaker bookkeeping, deadline conversion. A
/// handler that panics takes the worker's script session with it.
fn serve_job(
    store: &Arc<ShardedRepository>,
    metrics: &Arc<ServiceMetrics>,
    supervisor: &SupervisorConfig,
    scripts: &Arc<Mutex<ScriptCache>>,
    breakers: &[CircuitBreaker],
    session: &mut Option<WorkerSession>,
    job: &Job,
) -> (Outcome, Vec<DegradedStage>) {
    // A job whose deadline passed while it sat in the queue is answered
    // without doing (or charging the shard for) any work.
    let waited = job.submitted.elapsed();
    if let Some(deadline) = job.deadline {
        if waited > deadline {
            return (
                Outcome::DeadlineExceeded { partial: None },
                vec![DegradedStage {
                    stage: "queue wait".to_string(),
                    cause: DegradeCause::DeadlineExceeded {
                        elapsed: waited,
                        deadline,
                    },
                }],
            );
        }
    }

    // Breaker gate: an open breaker answers without touching the shard.
    let (app, experiment) = job.request.tenant();
    let shard_idx = store.shard_index(app, experiment);
    let breaker = &breakers[shard_idx];
    match breaker.admit() {
        Admission::Allowed => {}
        Admission::Probe => ServiceMetrics::bump(&metrics.breaker_probes),
        Admission::FastFail => {
            ServiceMetrics::bump(&metrics.breaker_fast_fails);
            return (
                Outcome::BreakerOpen { shard: shard_idx },
                vec![DegradedStage {
                    stage: "shard admission".to_string(),
                    cause: DegradeCause::Failed(format!(
                        "shard {shard_idx} circuit breaker is open"
                    )),
                }],
            );
        }
    }

    // Propagate what remains of the deadline into the supervisor's
    // wall budget, so supervised stages stop starting once it passes.
    let supervisor = match job.deadline {
        Some(deadline) => {
            let mut cfg = supervisor.clone();
            cfg.deadline = Some(deadline.saturating_sub(waited));
            cfg
        }
        None => supervisor.clone(),
    };

    let handle_start = Instant::now();
    let result = catch_unwind(AssertUnwindSafe(|| {
        handle(store, metrics, &supervisor, scripts, session, &job.request)
    }));
    ServiceMetrics::add_nanos(&metrics.busy_nanos, handle_start.elapsed());
    let (outcome, degraded, storage_fault) = match result {
        Ok(served) => served,
        Err(payload) => {
            // Supervised stages already catch panics; reaching here
            // means the handler itself blew up. Isolate it to this
            // request and keep the worker alive, on a fresh session.
            *session = None;
            ServiceMetrics::bump(&metrics.panics_isolated);
            let msg = perfexplorer::supervise::panic_message(payload);
            (
                Outcome::Rejected {
                    error: format!("internal panic (isolated): {msg}"),
                },
                vec![DegradedStage {
                    stage: "request handler".to_string(),
                    cause: DegradeCause::Panicked(msg),
                }],
                true,
            )
        }
    };

    // Feed the breaker. Only storage-internal faults count as failures;
    // client mistakes (unknown trials, bad uploads) must never open a
    // healthy shard's breaker.
    if storage_fault {
        match breaker.record_failure() {
            breaker::Trip::Opened => {
                ServiceMetrics::bump(&metrics.breaker_trips);
                ServiceMetrics::bump(&metrics.breakers_open);
            }
            // A re-opened breaker never closed; the gauge already
            // counts it.
            breaker::Trip::Reopened => ServiceMetrics::bump(&metrics.breaker_trips),
            breaker::Trip::None => {}
        }
    } else if breaker.record_success() {
        ServiceMetrics::gauge_dec(&metrics.breakers_open);
    }

    // A supervised stage skipped for the deadline converts the whole
    // response into the typed deadline outcome, keeping whatever
    // partial report completed in time.
    let deadline_hit = degraded
        .iter()
        .any(|d| matches!(d.cause, DegradeCause::DeadlineExceeded { .. }));
    if deadline_hit {
        let partial = match outcome {
            Outcome::Report { rendered, .. } => Some(rendered),
            _ => None,
        };
        return (Outcome::DeadlineExceeded { partial }, degraded);
    }
    (outcome, degraded)
}

/// Whether a repository error points at the store itself (corrupt
/// pages, I/O failures, undecodable stored documents) rather than the
/// client's request (unknown paths, incompatible uploads). Only
/// storage faults feed the shard's circuit breaker.
fn is_storage_fault(e: &DmfError) -> bool {
    matches!(
        e,
        DmfError::Parse { .. } | DmfError::Io(_) | DmfError::Json(_)
    )
}

/// A rejected request: the client-facing `error`, the failed stage with
/// its `cause`, and whether the failure feeds the shard's breaker.
fn rejected(
    stage: &str,
    error: String,
    cause: String,
    storage_fault: bool,
) -> (Outcome, Vec<DegradedStage>, bool) {
    (
        Outcome::Rejected { error },
        vec![DegradedStage {
            stage: stage.to_string(),
            cause: DegradeCause::Failed(cause),
        }],
        storage_fault,
    )
}

fn handle(
    store: &ShardedRepository,
    metrics: &Arc<ServiceMetrics>,
    supervisor: &SupervisorConfig,
    scripts: &Mutex<ScriptCache>,
    session: &mut Option<WorkerSession>,
    request: &Request,
) -> (Outcome, Vec<DegradedStage>, bool) {
    match request {
        Request::Ingest {
            app,
            experiment,
            document,
        } => {
            ServiceMetrics::bump(&metrics.ingests);
            match serde_json::from_str::<Trial>(document) {
                Ok(trial) => {
                    let name = trial.name.clone();
                    store.ingest(app, experiment, trial);
                    (Outcome::Ingested { trial: name }, Vec::new(), false)
                }
                Err(e) => rejected(
                    "parse upload",
                    format!("unparseable upload: {e}"),
                    e.to_string(),
                    false,
                ),
            }
        }
        Request::IngestChunk {
            app,
            experiment,
            trial,
            chunk,
        } => {
            ServiceMetrics::bump(&metrics.chunk_ingests);
            let batch = match serde_json::from_str::<perfdmf::ChunkBatch>(chunk) {
                Ok(batch) => batch,
                Err(e) => {
                    return rejected(
                        "parse chunk",
                        format!("unparseable chunk: {e}"),
                        e.to_string(),
                        false,
                    )
                }
            };
            match store.ingest_chunk(app, experiment, trial, &batch) {
                Ok(applied) => (
                    Outcome::ChunkIngested {
                        trial: trial.clone(),
                        seq: applied.seq,
                        duplicate: applied.duplicate,
                        applied_cells: applied.applied_cells(),
                        dropped_cells: applied.dropped_cells,
                    },
                    Vec::new(),
                    false,
                ),
                // A failed journal append (I/O) is a storage fault; an
                // incompatible batch is the client's.
                Err(e) => rejected(
                    "apply chunk",
                    format!("chunk not applied: {e}"),
                    e.to_string(),
                    is_storage_fault(&e),
                ),
            }
        }
        Request::AnalyzeBalance {
            app,
            experiment,
            trial,
            metric,
        } => {
            ServiceMetrics::bump(&metrics.analyses);
            match store.balance_report(app, experiment, trial, metric, supervisor) {
                Ok(report) => (
                    Outcome::Report {
                        rendered: report.rendered,
                        diagnoses: report.diagnoses,
                    },
                    report.degraded,
                    false,
                ),
                Err(refusal) => rejected(
                    refusal.stage,
                    refusal.error.clone(),
                    refusal.error,
                    refusal.storage_fault,
                ),
            }
        }
        Request::RunScript {
            app,
            experiment,
            source,
        } => {
            ServiceMetrics::bump(&metrics.scripts);
            run_script(session, store, metrics, None, app, experiment, source)
        }
        Request::RunSweep {
            app,
            experiment,
            source,
        } => {
            ServiceMetrics::bump(&metrics.sweeps);
            run_script(
                session,
                store,
                metrics,
                Some(scripts),
                app,
                experiment,
                source,
            )
        }
    }
}

/// The most names a worker's script session may hold when a request
/// ends and still be kept. A request that interned more (a generated
/// script with thousands of identifiers) drops the session, and the
/// capacity its tables grew to goes with it, so what a worker keeps
/// does not grow with the requests it has served.
const SESSION_NAMES_KEPT: usize = 1024;

/// Sweep bodies run, and bodies failed, in the request being served.
#[derive(Default)]
struct SweepCounts {
    bodies: AtomicU64,
    failed: AtomicU64,
}

/// A worker's script session, kept from one script request to the
/// next: one registered interpreter, with the service's sweep observer
/// installed, reset onto each request's snapshot and released after its
/// reply, so between requests it holds nothing of them.
struct WorkerSession {
    script: PerfExplorerScript,
    counts: Arc<SweepCounts>,
}

impl WorkerSession {
    fn new(snapshot: Repository, metrics: &Arc<ServiceMetrics>) -> Self {
        let mut script = PerfExplorerScript::new(snapshot);
        let counts = Arc::new(SweepCounts::default());
        let metrics = Arc::clone(metrics);
        let request = Arc::clone(&counts);
        script.set_sweep_observer(Arc::new(move |n, nf| {
            request.bodies.fetch_add(n as u64, Ordering::Relaxed);
            request.failed.fetch_add(nf as u64, Ordering::Relaxed);
            metrics.sweep_bodies.fetch_add(n as u64, Ordering::Relaxed);
            metrics
                .sweep_failures
                .fetch_add(nf as u64, Ordering::Relaxed);
        }));
        WorkerSession { script, counts }
    }
}

/// Serves a script request on the worker's session: `RunScript` when
/// `cache` is `None` (compiled for this request only, nothing kept) and
/// `RunSweep` otherwise (the compiled program comes from, or goes into,
/// the cache every worker shares). Either way the session is reset onto
/// the experiment's snapshot first. It is dropped when the run panicked
/// or left more than [`SESSION_NAMES_KEPT`] names, and the next request
/// builds a fresh one; otherwise `worker_loop` releases it once the
/// reply is sent.
fn run_script(
    session: &mut Option<WorkerSession>,
    store: &ShardedRepository,
    metrics: &Arc<ServiceMetrics>,
    cache: Option<&Mutex<ScriptCache>>,
    app: &str,
    experiment: &str,
    source: &str,
) -> (Outcome, Vec<DegradedStage>, bool) {
    let snapshot = match store.snapshot_experiment(app, experiment) {
        Ok(snapshot) => snapshot,
        Err(e) => {
            return rejected(
                "experiment snapshot",
                e.to_string(),
                e.to_string(),
                is_storage_fault(&e),
            )
        }
    };
    let worker = match session.take() {
        Some(mut worker) => {
            worker.script.reset(snapshot);
            session.insert(worker)
        }
        None => session.insert(WorkerSession::new(snapshot, metrics)),
    };
    worker.counts.bodies.store(0, Ordering::Relaxed);
    worker.counts.failed.store(0, Ordering::Relaxed);
    let served = serve_script(worker, metrics, cache, source);
    let panicked = served
        .1
        .iter()
        .any(|d| matches!(d.cause, DegradeCause::Panicked(_)));
    if panicked || worker.script.interned() > SESSION_NAMES_KEPT {
        *session = None;
    }
    served
}

/// [`run_script`]'s work on a session already reset.
fn serve_script(
    worker: &mut WorkerSession,
    metrics: &ServiceMetrics,
    cache: Option<&Mutex<ScriptCache>>,
    source: &str,
) -> (Outcome, Vec<DegradedStage>, bool) {
    let Some(cache) = cache else {
        let run = worker.script.run_supervised(source);
        return (
            Outcome::ScriptDone {
                value: run.value.map(|v| v.to_string()),
                printed: run.printed,
            },
            run.degraded,
            false,
        );
    };
    let cached = cache.lock().get(source);
    let hit = cached.is_some();
    let program = match cached {
        Some(program) => {
            ServiceMetrics::bump(&metrics.script_cache_hits);
            program
        }
        None => {
            ServiceMetrics::bump(&metrics.script_cache_misses);
            match worker.script.compile(source) {
                Ok(program) => {
                    let program = Arc::new(program);
                    cache
                        .lock()
                        .insert(source.to_string(), Arc::clone(&program));
                    program
                }
                Err(e) => {
                    return rejected("compile sweep script", e.to_string(), e.to_string(), false)
                }
            }
        }
    };
    let run = worker.script.run_compiled_supervised(&program);
    (
        Outcome::SweepDone {
            value: run.value.map(|v| v.to_string()),
            printed: run.printed,
            bodies: worker.counts.bodies.load(Ordering::Relaxed),
            failed_bodies: worker.counts.failed.load(Ordering::Relaxed),
            cached: hit,
        },
        run.degraded,
        false,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use perfdmf::{Measurement, TrialBuilder};

    fn trial(name: &str) -> Trial {
        let mut b = TrialBuilder::with_flat_threads(name, 4);
        let t = b.metric("TIME");
        let e = b.event("main");
        for th in 0..4 {
            b.set(e, t, th, Measurement::leaf(1.0 + th as f64));
        }
        b.build()
    }

    fn trial_json(name: &str) -> String {
        serde_json::to_string(&trial(name)).unwrap()
    }

    #[test]
    fn ingest_then_analyze_round_trips() {
        let svc = AnalysisService::start(ServiceConfig {
            workers: 2,
            ..ServiceConfig::default()
        });
        let client = svc.client();
        let r = client
            .call(Request::Ingest {
                app: "lu".into(),
                experiment: "strong".into(),
                document: trial_json("t1"),
            })
            .unwrap();
        assert!(r.is_clean(), "{:?}", r);
        let r = client
            .call(Request::AnalyzeBalance {
                app: "lu".into(),
                experiment: "strong".into(),
                trial: "t1".into(),
                metric: "TIME".into(),
            })
            .unwrap();
        assert!(r.is_clean(), "{:?}", r);
        match &r.outcome {
            Outcome::Report { rendered, .. } => assert!(!rendered.is_empty()),
            other => panic!("expected report, got {other:?}"),
        }
        let stats = svc.stats();
        assert_eq!(stats.requests, 2);
        assert_eq!(stats.ingests, 1);
        assert_eq!(stats.analyses, 1);
        assert_eq!(stats.degraded_responses, 0);
        svc.shutdown();
    }

    #[test]
    fn corrupt_upload_is_rejected_and_counted() {
        let svc = AnalysisService::start(ServiceConfig {
            workers: 1,
            ..ServiceConfig::default()
        });
        let client = svc.client();
        let r = client
            .call(Request::Ingest {
                app: "lu".into(),
                experiment: "strong".into(),
                document: "{not json".into(),
            })
            .unwrap();
        assert!(!r.is_clean());
        assert!(matches!(r.outcome, Outcome::Rejected { .. }));
        let stats = svc.stats();
        assert_eq!(stats.rejected, 1);
        assert_eq!(stats.degraded_responses, 1);
        assert_eq!(stats.panics_isolated, 0);
        svc.shutdown();
    }

    #[test]
    fn unknown_trial_rejects_cleanly() {
        let svc = AnalysisService::start(ServiceConfig {
            workers: 1,
            ..ServiceConfig::default()
        });
        let r = svc
            .client()
            .call(Request::AnalyzeBalance {
                app: "nope".into(),
                experiment: "nope".into(),
                trial: "nope".into(),
                metric: "TIME".into(),
            })
            .unwrap();
        assert!(matches!(r.outcome, Outcome::Rejected { .. }));
        svc.shutdown();
    }

    fn chunk_json(seq: u64, cells: &[(&str, &[(u32, f64)])]) -> String {
        let deltas: Vec<perfdmf::ColumnDelta> = cells
            .iter()
            .map(|(event, cells)| perfdmf::ColumnDelta {
                metric: "TIME".into(),
                event: event.to_string(),
                event_kind: None,
                cells: cells
                    .iter()
                    .map(|&(t, v)| {
                        (
                            t,
                            Measurement {
                                inclusive: v,
                                exclusive: v,
                                calls: 1.0,
                                subcalls: 0.0,
                            },
                        )
                    })
                    .collect(),
            })
            .collect();
        serde_json::to_string(&perfdmf::ChunkBatch {
            seq,
            threads: 4,
            deltas,
        })
        .unwrap()
    }

    fn ingest_chunk(client: &ServiceClient, trial: &str, chunk: String) -> Response {
        client
            .call(Request::IngestChunk {
                app: "lu".into(),
                experiment: "strong".into(),
                trial: trial.into(),
                chunk,
            })
            .unwrap()
    }

    fn analyze(client: &ServiceClient, trial: &str) -> Response {
        client
            .call(Request::AnalyzeBalance {
                app: "lu".into(),
                experiment: "strong".into(),
                trial: trial.into(),
                metric: "TIME".into(),
            })
            .unwrap()
    }

    #[test]
    fn chunk_stream_analyzes_incrementally_and_matches_batch() {
        let svc = AnalysisService::start(ServiceConfig {
            workers: 2,
            ..ServiceConfig::default()
        });
        let client = svc.client();

        let c0 = chunk_json(
            0,
            &[
                ("main", &[(0, 50.0), (1, 50.0), (2, 50.0), (3, 50.0)]),
                ("main => work", &[(0, 40.0), (1, 30.0), (2, 20.0), (3, 2.0)]),
            ],
        );
        let r = ingest_chunk(&client, "live", c0.clone());
        assert!(r.is_clean(), "{r:?}");
        match &r.outcome {
            Outcome::ChunkIngested {
                seq,
                duplicate,
                applied_cells,
                ..
            } => {
                assert_eq!((*seq, *duplicate), (0, false));
                assert_eq!(*applied_cells, 8);
            }
            other => panic!("expected chunk outcome, got {other:?}"),
        }
        let r = analyze(&client, "live");
        assert!(r.is_clean(), "{r:?}");

        // Second chunk, then analyze again: the state must be updated
        // in place, not rebuilt.
        let c1 = chunk_json(1, &[("main => work", &[(3, 35.0)])]);
        assert!(ingest_chunk(&client, "live", c1).is_clean());
        let r = analyze(&client, "live");
        let rendered = match r.outcome {
            Outcome::Report { rendered, .. } => rendered,
            other => panic!("expected report, got {other:?}"),
        };

        // Byte-identical to the strict batch workflow over the same
        // stream contents.
        let b0: perfdmf::ChunkBatch = serde_json::from_str(&c0).unwrap();
        let (mut st, _) = perfdmf::StreamingTrial::from_batch("live", &b0).unwrap();
        let b1: perfdmf::ChunkBatch =
            serde_json::from_str(&chunk_json(1, &[("main => work", &[(3, 35.0)])])).unwrap();
        st.apply_chunk(&b1).unwrap();
        let strict = perfexplorer::workflow::analyze_load_balance(st.trial(), "TIME").unwrap();
        assert_eq!(rendered, strict.rendered);

        let stats = svc.stats();
        assert_eq!(stats.chunk_ingests, 2);
        assert_eq!(stats.incremental_analyses, 2);
        assert_eq!(stats.state_rebuilds, 1, "second analysis reused the state");
        assert_eq!(stats.state_invalidations, 0);
        svc.shutdown();
    }

    /// The stages a rejected response names.
    fn rejected_stages(r: &Response) -> Vec<&str> {
        assert!(matches!(r.outcome, Outcome::Rejected { .. }), "{r:?}");
        r.degraded.iter().map(|d| d.stage.as_str()).collect()
    }

    #[test]
    fn refused_analyses_name_the_stage_that_failed() {
        let svc = AnalysisService::start(ServiceConfig {
            workers: 1,
            ..ServiceConfig::default()
        });
        let client = svc.client();
        let unknown = analyze(&client, "nope");
        assert_eq!(rejected_stages(&unknown), ["trial lookup"]);
        let missing = perfdmf::DmfError::NotFound {
            kind: "trial",
            name: "lu/strong/nope".into(),
        };
        assert!(
            matches!(&unknown.outcome, Outcome::Rejected { error } if *error == missing.to_string()),
            "{unknown:?}"
        );

        let c0 = chunk_json(0, &[("main", &[(0, 5.0), (1, 5.0), (2, 5.0), (3, 5.0)])]);
        assert!(ingest_chunk(&client, "live", c0).is_clean());
        let r = client
            .call(Request::AnalyzeBalance {
                app: "lu".into(),
                experiment: "strong".into(),
                trial: "live".into(),
                metric: "PAPI_FP_OPS".into(),
            })
            .unwrap();
        assert_eq!(rejected_stages(&r), ["incremental analysis"]);
        let stats = svc.stats();
        assert_eq!((stats.rejected, stats.incremental_analyses), (2, 0));
        svc.shutdown();
    }

    #[test]
    fn full_upsert_invalidates_cached_streaming_state() {
        // Regression: a full-trial ingest at a streamed path must
        // invalidate the shard's cached AnalysisState — the next
        // analysis reflects the uploaded trial, never the stale stream.
        let svc = AnalysisService::start(ServiceConfig {
            workers: 1,
            ..ServiceConfig::default()
        });
        let client = svc.client();

        // Stream a heavily imbalanced trial and warm the cache.
        let skewed = chunk_json(
            0,
            &[
                ("main", &[(0, 90.0), (1, 90.0), (2, 90.0), (3, 90.0)]),
                ("main => work", &[(0, 80.0), (1, 40.0), (2, 10.0), (3, 1.0)]),
            ],
        );
        assert!(ingest_chunk(&client, "t1", skewed).is_clean());
        let stale = match analyze(&client, "t1").outcome {
            Outcome::Report { rendered, .. } => rendered,
            other => panic!("expected report, got {other:?}"),
        };

        // Full upsert of a balanced trial at the same path.
        let balanced = trial("t1");
        let r = client
            .call(Request::Ingest {
                app: "lu".into(),
                experiment: "strong".into(),
                document: serde_json::to_string(&balanced).unwrap(),
            })
            .unwrap();
        assert!(r.is_clean(), "{r:?}");

        let fresh = match analyze(&client, "t1").outcome {
            Outcome::Report { rendered, .. } => rendered,
            other => panic!("expected report, got {other:?}"),
        };
        let strict = perfexplorer::workflow::analyze_load_balance(&balanced, "TIME").unwrap();
        assert_eq!(
            fresh, strict.rendered,
            "post-upsert analysis must reflect the uploaded trial"
        );
        assert_ne!(fresh, stale, "stale streamed diagnosis was served");

        let stats = svc.stats();
        assert_eq!(stats.state_invalidations, 1);
        svc.shutdown();
    }

    #[test]
    fn corrupt_chunk_is_rejected_and_isolated() {
        let svc = AnalysisService::start(ServiceConfig {
            workers: 1,
            ..ServiceConfig::default()
        });
        let client = svc.client();
        let good = chunk_json(0, &[("main", &[(0, 1.0), (1, 2.0), (2, 3.0), (3, 4.0)])]);
        let r = ingest_chunk(&client, "live", good[..good.len() / 2].to_string());
        assert!(matches!(r.outcome, Outcome::Rejected { .. }));
        // The stream was never created; a good chunk still works.
        let r = ingest_chunk(&client, "live", good);
        assert!(r.is_clean(), "{r:?}");
        let stats = svc.stats();
        assert_eq!(stats.panics_isolated, 0);
        assert_eq!(stats.rejected, 1);
        svc.shutdown();
    }

    const SWEEP_SOURCE: &str = r#"
        let r = par_foreach_trial t in list_trials("app", "exp") {
            let trial = load_trial("app", "exp", t);
            elapsed(trial, "TIME")
        };
        len(r)
    "#;

    #[test]
    fn sweep_requests_share_the_compiled_script_cache() {
        let mut repo = Repository::new();
        for name in ["t1", "t2", "t3"] {
            repo.add_trial("app", "exp", trial(name)).unwrap();
        }
        let svc = AnalysisService::start_with_repository(
            ServiceConfig {
                workers: 2,
                ..ServiceConfig::default()
            },
            repo,
        );
        let client = svc.client();
        let sweep = || {
            client
                .call(Request::RunSweep {
                    app: "app".into(),
                    experiment: "exp".into(),
                    source: SWEEP_SOURCE.into(),
                })
                .unwrap()
        };
        for expect_cached in [false, true] {
            let r = sweep();
            assert!(r.is_clean(), "{r:?}");
            match &r.outcome {
                Outcome::SweepDone {
                    value,
                    bodies,
                    failed_bodies,
                    cached,
                    ..
                } => {
                    assert_eq!(value.as_deref(), Some("3"));
                    assert_eq!((*bodies, *failed_bodies), (3, 0));
                    assert_eq!(*cached, expect_cached, "{r:?}");
                }
                other => panic!("expected sweep outcome, got {other:?}"),
            }
        }
        let stats = svc.stats();
        assert_eq!(stats.sweeps, 2);
        assert_eq!(stats.sweep_bodies, 6);
        assert_eq!(stats.sweep_failures, 0);
        assert_eq!(stats.script_cache_misses, 1);
        assert_eq!(stats.script_cache_hits, 1);
        let rendered = stats.render();
        assert!(rendered.contains("sweeps"), "{rendered}");
        svc.shutdown();
    }

    #[test]
    fn sweep_corrupt_body_fails_alone() {
        let mut repo = Repository::new();
        repo.add_trial("app", "exp", trial("t1")).unwrap();
        let svc = AnalysisService::start_with_repository(
            ServiceConfig {
                workers: 1,
                ..ServiceConfig::default()
            },
            repo,
        );
        let r = svc
            .client()
            .call(Request::RunSweep {
                app: "app".into(),
                experiment: "exp".into(),
                source: r#"
                    let r = par_foreach_trial t in ["missing", "t1"] {
                        let trial = load_trial("app", "exp", t);
                        elapsed(trial, "TIME")
                    };
                    str(r[0]["ok"]) + "," + str(r[1]["ok"])
                "#
                .into(),
            })
            .unwrap();
        // The sweep completes: the bad trial's failure is contained in
        // its own body outcome.
        assert!(r.is_clean(), "{r:?}");
        match &r.outcome {
            Outcome::SweepDone {
                value,
                bodies,
                failed_bodies,
                ..
            } => {
                assert_eq!(value.as_deref(), Some("false,true"));
                assert_eq!((*bodies, *failed_bodies), (2, 1));
            }
            other => panic!("expected sweep outcome, got {other:?}"),
        }
        let stats = svc.stats();
        assert_eq!(stats.sweep_failures, 1);
        assert_eq!(stats.degraded_responses, 0);
        svc.shutdown();
    }

    #[test]
    fn sweep_with_bad_script_is_rejected() {
        let svc = AnalysisService::start_with_repository(
            ServiceConfig {
                workers: 1,
                ..ServiceConfig::default()
            },
            {
                let mut repo = Repository::new();
                repo.add_trial("app", "exp", trial("t1")).unwrap();
                repo
            },
        );
        let r = svc
            .client()
            .call(Request::RunSweep {
                app: "app".into(),
                experiment: "exp".into(),
                source: "let = nope(".into(),
            })
            .unwrap();
        assert!(matches!(r.outcome, Outcome::Rejected { .. }), "{r:?}");
        assert_eq!(svc.stats().script_cache_misses, 1);
        svc.shutdown();
    }

    #[test]
    fn script_runs_against_experiment_snapshot() {
        let mut repo = Repository::new();
        repo.add_trial("app", "exp", trial("t1")).unwrap();
        let svc = AnalysisService::start_with_repository(
            ServiceConfig {
                workers: 1,
                ..ServiceConfig::default()
            },
            repo,
        );
        let r = svc
            .client()
            .call(Request::RunScript {
                app: "app".into(),
                experiment: "exp".into(),
                source: "print(\"hello from script\");".into(),
            })
            .unwrap();
        assert!(r.is_clean(), "{:?}", r);
        match &r.outcome {
            Outcome::ScriptDone { printed, .. } => {
                assert_eq!(printed, &vec!["hello from script".to_string()])
            }
            other => panic!("expected script outcome, got {other:?}"),
        }
        svc.shutdown();
    }

    // --- one script session per worker ---

    fn three_trial_service(workers: usize) -> AnalysisService {
        let mut repo = Repository::new();
        for name in ["t1", "t2", "t3"] {
            repo.add_trial("app", "exp", trial(name)).unwrap();
        }
        AnalysisService::start_with_repository(
            ServiceConfig {
                workers,
                ..ServiceConfig::default()
            },
            repo,
        )
    }

    fn script(source: &str) -> Request {
        Request::RunScript {
            app: "app".into(),
            experiment: "exp".into(),
            source: source.into(),
        }
    }

    fn sweep(source: &str) -> Request {
        Request::RunSweep {
            app: "app".into(),
            experiment: "exp".into(),
            source: source.into(),
        }
    }

    /// Everything of a reply but its latency and whether the sweep's
    /// program came from the cache.
    fn reply_text(r: &Response) -> String {
        let outcome = match &r.outcome {
            Outcome::SweepDone {
                value,
                printed,
                bodies,
                failed_bodies,
                ..
            } => format!("sweep {value:?} {printed:?} {bodies} {failed_bodies}"),
            other => format!("{other:?}"),
        };
        format!("{outcome} {:?}", r.degraded)
    }

    /// The reply a worker's first script request gets.
    fn fresh_reply(request: Request) -> String {
        let svc = three_trial_service(1);
        let r = svc.client().call(request).unwrap();
        svc.shutdown();
        reply_text(&r)
    }

    fn analyze_missing() -> Request {
        Request::AnalyzeBalance {
            app: "app".into(),
            experiment: "exp".into(),
            trial: "missing".into(),
            metric: "TIME".into(),
        }
    }

    const RULE: &str =
        r#"load_rules_source("rule \"t\" when F( x > 1, v : x ) then print(\"got \" + v); end");"#;

    #[test]
    fn a_one_off_script_sweep_counts_its_bodies() {
        let svc = three_trial_service(1);
        let before = svc.stats().sweep_bodies;
        let r = svc.client().call(script(SWEEP_SOURCE)).unwrap();
        assert!(r.is_clean(), "{r:?}");
        assert!(
            matches!(&r.outcome, Outcome::ScriptDone { value: Some(v), .. } if v == "3"),
            "{r:?}"
        );
        let stats = svc.stats();
        assert_eq!(stats.sweep_bodies, before + 3);
        assert_eq!(stats.sweep_failures, 0);
        assert_eq!(stats.scripts, 1);
        assert_eq!((stats.script_cache_hits, stats.script_cache_misses), (0, 0));
        svc.shutdown();
    }

    #[test]
    fn a_reused_session_answers_like_a_fresh_one() {
        let pollute = format!(
            r#"
            let leftover = 1;
            fn load_trial(a, b, c) {{ return 42; }}
            fn helper() {{ return 7; }}
            let t = list_trials("app", "exp");
            {RULE}
            assert_fact("F", {{ x: 2 }});
            print("polluting");
            process_rules()["printed"]
            "#
        );
        let probes = [
            "leftover".to_string(),
            "helper()".to_string(),
            r#"load_trial("app", "exp", "t1")"#.to_string(),
            r#"print("probe"); 1"#.to_string(),
            format!(r#"{RULE} process_rules()["printed"]"#),
            SWEEP_SOURCE.to_string(),
        ];
        let svc = three_trial_service(1);
        let client = svc.client();
        for probe in probes {
            let polluted = client.call(script(&pollute)).unwrap();
            assert!(polluted.is_clean(), "{polluted:?}");
            let reused = client.call(script(&probe)).unwrap();
            assert_eq!(reply_text(&reused), fresh_reply(script(&probe)), "{probe}");
            let reused = client.call(sweep(&probe)).unwrap();
            assert_eq!(reply_text(&reused), fresh_reply(sweep(&probe)), "{probe}");
        }
        svc.shutdown();
    }

    #[test]
    fn interleaved_one_offs_and_a_cached_sweep_match_fresh_sessions() {
        let expected_sweep = fresh_reply(sweep(SWEEP_SOURCE));
        let svc = three_trial_service(2);
        let client = svc.client();
        let mut pending = Vec::new();
        for i in 0..24 {
            let one_off =
                format!("let name_{i} = {i}; fn f_{i}(x) {{ return x + name_{i}; }} f_{i}(1)");
            pending.push((
                client.submit(script(&one_off)).unwrap(),
                fresh_reply(script(&one_off)),
            ));
            pending.push((
                client.submit(sweep(SWEEP_SOURCE)).unwrap(),
                expected_sweep.clone(),
            ));
        }
        for (rx, expected) in pending {
            let reply = reply_text(&rx.recv().unwrap());
            assert!(!reply.contains("different interpreter"), "{reply}");
            assert_eq!(reply, expected);
        }
        let stats = svc.stats();
        assert_eq!(stats.sweep_bodies, 24 * 3);
        assert_eq!(stats.script_cache_hits + stats.script_cache_misses, 24);
        svc.shutdown();
    }

    /// A kept session whose sweep observer panics: no script input
    /// panics a run (`range` is bounded), so the observer stands in
    /// for a panic inside the script stage.
    fn panicking_session(metrics: &Arc<ServiceMetrics>) -> Option<WorkerSession> {
        let mut worker = WorkerSession::new(Repository::new(), metrics);
        worker
            .script
            .set_sweep_observer(Arc::new(|_, _| panic!("sweep observer")));
        Some(worker)
    }

    #[test]
    fn the_request_after_a_panic_is_clean() {
        // Each request goes through `serve_job`, as in `worker_loop`,
        // on one session: the panic comes from a kept session, which a
        // request through the client cannot bring about.
        let svc = three_trial_service(1);
        let config = ServiceConfig::default();
        let scripts = Arc::new(Mutex::new(ScriptCache::new(config.script_cache_capacity)));
        let breakers: Vec<CircuitBreaker> = (0..config.shards)
            .map(|_| CircuitBreaker::new(config.breaker.clone()))
            .collect();
        let serve = |session: &mut Option<WorkerSession>, request: Request| {
            let job = Job {
                request,
                submitted: Instant::now(),
                deadline: None,
                reply: std::sync::mpsc::channel().0,
            };
            let (outcome, degraded) = serve_job(
                &svc.store,
                &svc.metrics,
                &config.supervisor,
                &scripts,
                &breakers,
                session,
                &job,
            );
            Response {
                outcome,
                degraded,
                latency: Duration::ZERO,
            }
        };
        // The panicking sweep compiles its program into the cache first.
        let cached = format!("let x = 1; {SWEEP_SOURCE}");
        let mut session = panicking_session(&svc.metrics);
        let panicking = serve(&mut session, sweep(&cached));
        assert!(
            panicking
                .degraded
                .iter()
                .any(|d| matches!(d.cause, DegradeCause::Panicked(_))),
            "{panicking:?}"
        );
        assert!(session.is_none(), "a panicked run drops its session");
        for probe in ["x", r#"print("after"); len(list_trials("app", "exp"))"#] {
            let r = serve(&mut session, script(probe));
            assert_eq!(reply_text(&r), fresh_reply(script(probe)), "{probe}");
        }
        // The program compiled on the dropped session replays cleanly on
        // the fresh one, and a program compiled after the panic runs too.
        for source in [cached.as_str(), SWEEP_SOURCE] {
            let r = serve(&mut session, sweep(source));
            assert!(r.is_clean(), "{r:?}");
            assert!(
                matches!(r.outcome, Outcome::SweepDone { cached: hit, .. } if hit == (source == cached)),
                "{r:?}"
            );
            assert_eq!(reply_text(&r), fresh_reply(sweep(source)), "{source}");
        }
        svc.shutdown();
    }

    #[test]
    fn a_finished_request_leaves_nothing_pinned_in_the_session() {
        let svc = three_trial_service(1);
        let stored = svc.store().get_trial("app", "exp", "t1").unwrap();
        let before = Arc::strong_count(&stored);
        let client = svc.client();
        // The worker releases its session after sending a reply and
        // before taking its next job, so the reply to a request after
        // the script marks the script's end.
        let next = || {
            let r = client.call(analyze_missing()).unwrap();
            assert!(matches!(r.outcome, Outcome::Rejected { .. }), "{r:?}");
        };
        let source = r#"
            let t = load_trial("app", "exp", "t1");
            load_rules("load_balance");
            assert_balance_facts(t, "TIME");
            process_rules();
            [t, trial_events(t)]
        "#;
        for request in [script(source), sweep(source), sweep(SWEEP_SOURCE)] {
            let r = client.call(request).unwrap();
            assert!(r.is_clean(), "{r:?}");
            next();
            assert_eq!(Arc::strong_count(&stored), before);
        }
        svc.shutdown();
    }

    #[test]
    fn a_session_is_dropped_after_a_panic_or_a_flood_of_names() {
        let svc = three_trial_service(1);
        let (store, metrics) = (svc.store(), &svc.metrics);
        let mut session = None;
        let run = |session: &mut Option<WorkerSession>, source: &str| {
            run_script(session, store, metrics, None, "app", "exp", source)
        };
        run(&mut session, "1");
        assert!(session.is_some(), "a clean run keeps its session");
        let mut session = panicking_session(metrics);
        run(&mut session, SWEEP_SOURCE);
        assert!(session.is_none(), "a panicked run drops it");
        let many: String = (0..SESSION_NAMES_KEPT)
            .map(|i| format!("let g{i} = {i};"))
            .collect();
        run(&mut session, &many);
        assert!(session.is_none(), "{} names drop it", SESSION_NAMES_KEPT);
        run(&mut session, "let a = 1;");
        assert!(session.is_some());
        svc.shutdown();
    }

    #[test]
    fn a_closed_queue_drains_its_jobs_then_refuses() {
        let queue = WorkQueue::new(2);
        let job = || Job {
            request: Request::AnalyzeBalance {
                app: "lu".into(),
                experiment: "strong".into(),
                trial: "t1".into(),
                metric: "TIME".into(),
            },
            submitted: Instant::now(),
            deadline: None,
            reply: std::sync::mpsc::channel().0,
        };
        assert!(matches!(queue.try_push(job()), Push::Queued));
        assert!(matches!(queue.try_push(job()), Push::Queued));
        assert!(matches!(queue.try_push(job()), Push::Full(_)));
        queue.close();
        assert!(matches!(queue.try_push(job()), Push::Closed));
        assert!(queue.pop().is_some());
        assert!(queue.pop().is_some());
        assert!(queue.pop().is_none(), "closed and drained");
    }

    #[test]
    fn requests_after_shutdown_error_instead_of_hanging() {
        let svc = AnalysisService::start(ServiceConfig {
            workers: 2,
            ..ServiceConfig::default()
        });
        let client = svc.client();
        svc.shutdown();
        let analyze = || Request::AnalyzeBalance {
            app: "lu".into(),
            experiment: "strong".into(),
            trial: "t1".into(),
            metric: "TIME".into(),
        };
        assert_eq!(
            client.submit(analyze()).err().as_deref(),
            Some("service is shut down")
        );
        assert_eq!(
            client.call(analyze()).err().as_deref(),
            Some("service is shut down")
        );
    }
}
