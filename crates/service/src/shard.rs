//! Sharded trial storage.
//!
//! Trials are partitioned across N shards by an FNV-1a hash of their
//! `(application, experiment)` path, so concurrent ingests for
//! different tenants land on different locks. Each shard is a
//! [`Repository`] overlay (mutable, RwLock-guarded) plus an LRU cache
//! of materialized cold trials. Cold trials live in an optional shared
//! [`MappedRepository`] — the mapped PDB1 store — and are materialized
//! on first access, then cached per shard.
//!
//! The cache holds *only* cold trials. Overlay trials are served
//! straight from the overlay, so an upsert can never be shadowed by a
//! stale cached copy: the overlay is always consulted first.
//!
//! ## Report memo
//!
//! Each shard also remembers the clean load-balance reports it served
//! for stored trials, keyed by `(app, experiment, trial, metric)`. An
//! entry holds a [`Weak`] to the very `Arc<Trial>` the report was
//! computed from and answers only a request whose lookup hands it that
//! same `Arc` back. [`ShardedRepository::balance_report`] is the one
//! place that picks a report's source: a stream's incremental state,
//! then this memo, then a fresh analysis it memoizes. An upsert at
//! the path, or an eviction followed by a fresh materialization, yields
//! a new `Arc`, so the entry misses; there is nothing to invalidate.
//! Identity implies unchanged content: `Arc::make_mut` moves the data
//! away from any `Weak`, and `Arc::get_mut` refuses while one exists.
//! The `Weak` pins only the `Arc`'s allocation, never the trial itself,
//! so the memo keeps no evicted trial alive, and no later `Arc` can
//! reuse the address it compares against.
//!
//! ## Resilience
//!
//! Each shard can additionally carry a write-ahead [`Journal`] for its
//! streamed trials (attached by [`ShardedRepository::attach_wal`]): a
//! chunk is journaled *before* it is applied, so an acknowledged chunk
//! is always recoverable, and [`attach_wal`] on a fresh store replays
//! the journals to rebuild every in-flight stream a crash lost. The
//! shards' circuit breakers belong to the service's admission, which
//! indexes them by [`ShardedRepository::shard_index`].
//!
//! [`attach_wal`]: ShardedRepository::attach_wal

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

use crate::metrics::ServiceMetrics;
use parking_lot::{Mutex, RwLock};
use perfdmf::wal::{FsyncPolicy, Journal, RecordRef, WalRecord};
use perfdmf::{AppliedChunk, ChunkBatch, MappedRepository, Repository, StreamingTrial, Trial};
use perfexplorer::workflow::analyze_load_balance_supervised;
use perfexplorer::{AnalysisState, DegradedStage, SupervisorConfig};
use std::borrow::Borrow;
use std::collections::HashMap;
use std::path::Path;
use std::sync::{Arc, Weak};
use std::time::Instant;

/// FNV-1a over the tenant path. Stable across runs (no RandomState), so
/// shard assignment is reproducible in tests and logs.
pub fn shard_of(app: &str, experiment: &str, shards: usize) -> usize {
    debug_assert!(shards > 0);
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for byte in app.bytes().chain([0u8]).chain(experiment.bytes()) {
        hash ^= byte as u64;
        hash = hash.wrapping_mul(0x1_0000_01b3);
    }
    (hash % shards as u64) as usize
}

/// Every `(app, experiment, trial)` path in a plain repository.
fn paths_of(repo: &Repository) -> Vec<(String, String, String)> {
    let mut paths = Vec::new();
    for app in repo.application_names() {
        let Ok(application) = repo.application(app) else {
            continue;
        };
        for exp_name in application.experiment_names() {
            let Ok(exp) = repo.experiment(app, exp_name) else {
                continue;
            };
            for trial_name in exp.trial_names() {
                paths.push((
                    app.to_string(),
                    exp_name.to_string(),
                    trial_name.to_string(),
                ));
            }
        }
    }
    paths
}

/// A bounded LRU map: the shard caches of cold trials (keyed by full
/// trial path) and of reports, and the service's compiled-script cache
/// (keyed by source text). Callers clamp the capacity; zero caches
/// nothing.
pub(crate) struct Lru<K, V> {
    capacity: usize,
    /// Most recently used last. Linear scan is fine: capacities are
    /// small (tens of entries) and entries are fat.
    entries: Vec<(K, V)>,
}

impl<K: PartialEq, V: Clone> Lru<K, V> {
    pub(crate) fn new(capacity: usize) -> Self {
        Lru {
            capacity,
            entries: Vec::new(),
        }
    }

    /// The cached value, refreshed to most recently used.
    pub(crate) fn get<Q>(&mut self, key: &Q) -> Option<V>
    where
        K: Borrow<Q>,
        Q: PartialEq + ?Sized,
    {
        self.find(|k| k.borrow() == key).cloned()
    }

    /// The value under the first key `matches` accepts, refreshed to
    /// most recently used. Lets a caller match a composite key against
    /// borrowed parts without building an owned key.
    fn find(&mut self, matches: impl Fn(&K) -> bool) -> Option<&V> {
        let pos = self.entries.iter().position(|(k, _)| matches(k))?;
        let entry = self.entries.remove(pos);
        self.entries.push(entry);
        self.entries.last().map(|(_, v)| v)
    }

    /// Inserts or replaces `key` as most recently used, evicting the
    /// least recently used entry when full.
    pub(crate) fn insert(&mut self, key: K, value: V) {
        if self.capacity == 0 {
            return;
        }
        if let Some(pos) = self.entries.iter().position(|(k, _)| *k == key) {
            self.entries.remove(pos);
        } else if self.entries.len() >= self.capacity {
            self.entries.remove(0);
        }
        self.entries.push((key, value));
    }

    fn len(&self) -> usize {
        self.entries.len()
    }
}

/// A load-balance report as [`ShardedRepository::balance_report`]
/// serves it, from whichever source answered.
#[derive(Debug)]
pub struct BalanceReport {
    /// The rendered report.
    pub rendered: String,
    /// Its structured diagnosis count.
    pub diagnoses: usize,
    /// Workflow stages that degraded while computing it; always empty
    /// for a streamed or memoized report.
    pub degraded: Vec<DegradedStage>,
}

/// Why [`ShardedRepository::balance_report`] served no report.
#[derive(Debug)]
pub struct ReportRefusal {
    /// The stage that failed: `"incremental analysis"` (a streamed
    /// trial's state could not be built or rendered, e.g. no chunk
    /// carries the metric) or `"trial lookup"`.
    pub stage: &'static str,
    /// The error, as the client is told it.
    pub error: String,
    /// Whether the error points at the store itself, so that it feeds
    /// the shard's circuit breaker. A corrupt cold page failing lazy
    /// checksum verification is the canonical case.
    pub storage_fault: bool,
}

/// One in-flight streamed trial: the growing [`StreamingTrial`] plus
/// the incremental analysis state warmed over it. The state is lazy —
/// built on the first analysis request (which names the metric) and
/// kept current by [`ShardedRepository::ingest_chunk`] thereafter.
struct StreamEntry {
    stream: StreamingTrial,
    state: Option<AnalysisState>,
}

/// A clean load-balance report kept beside the stored trial it was
/// computed from (see the module docs, "Report memo").
#[derive(Clone)]
struct MemoEntry {
    trial: Weak<Trial>,
    rendered: String,
    diagnoses: usize,
}

/// `(app, experiment, trial, metric)`.
type ReportKey = (String, String, String, String);

/// One shard: a mutable overlay, a cache of cold materializations, the
/// report memo, and the streamed trials currently being built chunk by
/// chunk.
struct Shard {
    overlay: RwLock<Repository>,
    cache: Mutex<Lru<(String, String, String), Arc<Trial>>>,
    /// Clean reports of stored trials, bounded like `cache`.
    reports: Mutex<Lru<ReportKey, MemoEntry>>,
    /// Streamed trials keyed by full trial path. Consulted before the
    /// overlay, so analyses observe every applied chunk; a full-trial
    /// upsert at the same path deletes the entry (the overlay shadow
    /// rule), discarding any cached incremental state with it.
    streams: Mutex<HashMap<(String, String, String), StreamEntry>>,
    /// Write-ahead journal for this shard's streams; `None` until
    /// [`ShardedRepository::attach_wal`].
    journal: Option<Mutex<Journal>>,
}

/// Trials partitioned by `(app, experiment)` hash across N shards,
/// optionally backed by a read-only mapped PDB1 store for cold data.
pub struct ShardedRepository {
    shards: Vec<Shard>,
    cold: Option<Arc<MappedRepository>>,
    metrics: Arc<ServiceMetrics>,
}

impl ShardedRepository {
    /// An empty sharded store with no cold backing.
    pub fn new(shards: usize, cache_capacity: usize, metrics: Arc<ServiceMetrics>) -> Self {
        assert!(shards > 0, "shard count must be positive");
        ShardedRepository {
            shards: (0..shards)
                .map(|_| Shard {
                    overlay: RwLock::new(Repository::new()),
                    cache: Mutex::new(Lru::new(cache_capacity)),
                    reports: Mutex::new(Lru::new(cache_capacity)),
                    streams: Mutex::new(HashMap::new()),
                    journal: None,
                })
                .collect(),
            cold: None,
            metrics,
        }
    }

    /// Opens a repository file as the service store. PDB1 files become
    /// the shared cold mapped store (materialized per trial on demand);
    /// JSON files are loaded eagerly and distributed into the shard
    /// overlays.
    pub fn open(
        path: &Path,
        shards: usize,
        cache_capacity: usize,
        metrics: Arc<ServiceMetrics>,
    ) -> perfdmf::Result<Self> {
        let mut sharded = ShardedRepository::new(shards, cache_capacity, metrics);
        match perfdmf::Format::detect(path)? {
            perfdmf::Format::Pdb1 => {
                sharded.cold = Some(Arc::new(MappedRepository::open(path)?));
            }
            perfdmf::Format::Json => {
                sharded.absorb(Repository::load(path)?);
            }
        }
        Ok(sharded)
    }

    /// Distributes an in-memory repository into the shard overlays.
    pub fn from_repository(
        repo: Repository,
        shards: usize,
        cache_capacity: usize,
        metrics: Arc<ServiceMetrics>,
    ) -> Self {
        let mut sharded = ShardedRepository::new(shards, cache_capacity, metrics);
        sharded.absorb(repo);
        sharded
    }

    fn absorb(&mut self, repo: Repository) {
        for (app, exp_name, trial_name) in paths_of(&repo) {
            let shard = self.shard(&app, &exp_name);
            let Ok(trial) = repo.shared_trial(&app, &exp_name, &trial_name) else {
                continue;
            };
            shard
                .overlay
                .write()
                .upsert_shared(&app, &exp_name, Arc::clone(trial));
        }
    }

    /// The shard index serving this tenant path.
    pub fn shard_index(&self, app: &str, experiment: &str) -> usize {
        shard_of(app, experiment, self.shards.len())
    }

    /// The shard serving this tenant path.
    fn shard(&self, app: &str, experiment: &str) -> &Shard {
        &self.shards[self.shard_index(app, experiment)]
    }

    /// Attaches per-shard write-ahead journals under `dir`
    /// (`shard-<i>.wal`), replaying any existing journals first: every
    /// live stream a previous process acknowledged chunks into is
    /// rebuilt — bootstrapped from stored data exactly as
    /// [`ShardedRepository::ingest_chunk`] would, then fed its journaled
    /// chunks in order — so the first analysis after a crash sees the
    /// same bytes an uninterrupted run would have produced. Torn tails
    /// (a crash mid-append) are truncated; the discarded chunk was
    /// never acknowledged.
    pub fn attach_wal(&mut self, dir: &Path, policy: FsyncPolicy) -> perfdmf::Result<()> {
        std::fs::create_dir_all(dir)?;
        let start = Instant::now();
        let mut recovered = Vec::new();
        for (i, shard) in self.shards.iter_mut().enumerate() {
            let (journal, replay) = Journal::open(&dir.join(format!("shard-{i}.wal")), policy)?;
            shard.journal = Some(Mutex::new(journal));
            for (key, batches) in replay.live_streams() {
                let owned: Vec<ChunkBatch> = batches.into_iter().cloned().collect();
                recovered.push((key, owned));
            }
        }
        let mut replayed = 0u64;
        for ((app, experiment, trial), batches) in recovered {
            let shard = self.shard(&app, &experiment);
            for batch in batches {
                // A journaled chunk that no longer applies (e.g. the
                // bootstrap trial changed shape under it) degrades that
                // chunk alone, exactly as live ingestion would have.
                if self
                    .apply_to_stream(shard, &app, &experiment, &trial, &batch)
                    .is_ok()
                {
                    replayed += 1;
                }
            }
        }
        self.metrics
            .wal_replayed_chunks
            .fetch_add(replayed, std::sync::atomic::Ordering::Relaxed);
        ServiceMetrics::add_nanos(&self.metrics.wal_replay_nanos, start.elapsed());
        Ok(())
    }

    /// Inserts or replaces a trial in its home shard's overlay.
    /// Lock-wait time feeds the service `lock_wait` metric.
    ///
    /// An upsert shadows any in-flight stream at the same path: the
    /// stream entry — and the incremental analysis state cached on it —
    /// is deleted, so no later analysis can be served from state built
    /// over the replaced data.
    pub fn ingest(&self, app: &str, experiment: &str, trial: Trial) {
        let shard = self.shard(app, experiment);
        let key = (app.to_string(), experiment.to_string(), trial.name.clone());
        {
            let start = Instant::now();
            let mut overlay = shard.overlay.write();
            ServiceMetrics::add_nanos(&self.metrics.lock_wait_nanos, start.elapsed());
            overlay.upsert_trial(app, experiment, trial);
        }
        if shard.streams.lock().remove(&key).is_some() {
            ServiceMetrics::bump(&self.metrics.state_invalidations);
            // Tombstone the retired stream so a replay after restart
            // does not resurrect chunks the upsert just shadowed.
            // Best-effort: if the tombstone cannot be written the
            // upserted trial itself is in the (unjournaled) overlay, so
            // restart behavior is unchanged either way.
            if let Some(journal) = &shard.journal {
                let _ = journal.lock().append(&WalRecord::Retire {
                    app: key.0,
                    experiment: key.1,
                    trial: key.2,
                });
            }
        }
    }

    /// Fetches a trial: in-flight streams first (freshest — every
    /// applied chunk is visible), then the overlay, then the shard's
    /// LRU cache of cold materializations, then the mapped store.
    pub fn get_trial(
        &self,
        app: &str,
        experiment: &str,
        trial: &str,
    ) -> perfdmf::Result<Arc<Trial>> {
        let shard = self.shard(app, experiment);
        let key = (app.to_string(), experiment.to_string(), trial.to_string());
        if let Some(entry) = shard.streams.lock().get(&key) {
            return Ok(Arc::new(entry.stream.trial().clone()));
        }
        self.get_stored(shard, &key)
    }

    /// The load-balance report of `metric` for one trial, from the one
    /// source that may answer it:
    ///
    /// 1. a trial under streaming construction is served from its
    ///    cached [`AnalysisState`] (the O(Δ) path), built on the first
    ///    request or a metric change;
    /// 2. otherwise the stored trial is fetched exactly as
    ///    [`ShardedRepository::get_trial`] fetches it (so cold-cache
    ///    hits and misses count the same), and the report memo answers
    ///    if it holds a clean report computed from that very
    ///    `Arc<Trial>`;
    /// 3. otherwise the supervised workflow runs, and a clean report is
    ///    memoized.
    ///
    /// Every source renders bytes identical to the batch workflow on
    /// the same data. The memo and stream counters are bumped here.
    pub fn balance_report(
        &self,
        app: &str,
        experiment: &str,
        trial: &str,
        metric: &str,
        supervisor: &SupervisorConfig,
    ) -> Result<BalanceReport, ReportRefusal> {
        let shard = self.shard(app, experiment);
        let key = (app.to_string(), experiment.to_string(), trial.to_string());
        // The state lives in the stream entry, so a streamed report is
        // built under the `streams` lock; the stored path below runs
        // the workflow with no shard lock held.
        if let Some(entry) = shard.streams.lock().get_mut(&key) {
            return self
                .streamed_report(entry, metric)
                .map_err(|e| ReportRefusal {
                    stage: "incremental analysis",
                    error: e.to_string(),
                    storage_fault: false,
                });
        }
        let found = self.get_stored(shard, &key).map_err(|e| ReportRefusal {
            stage: "trial lookup",
            error: e.to_string(),
            storage_fault: crate::is_storage_fault(&e),
        })?;
        let memoized = shard
            .reports
            .lock()
            .find(|(a, e, t, m)| a == app && e == experiment && t == trial && m == metric)
            .filter(|entry| Weak::ptr_eq(&entry.trial, &Arc::downgrade(&found)))
            .map(|entry| BalanceReport {
                rendered: entry.rendered.clone(),
                diagnoses: entry.diagnoses,
                degraded: Vec::new(),
            });
        if let Some(report) = memoized {
            ServiceMetrics::bump(&self.metrics.report_memo_hits);
            return Ok(report);
        }
        let report = analyze_load_balance_supervised(&found, metric, supervisor);
        let diagnoses = report.report.diagnoses.len();
        // A degraded report is not memoized: its next request runs the
        // workflow again.
        if report.degraded.is_empty() {
            let (app, experiment, trial) = key;
            shard.reports.lock().insert(
                (app, experiment, trial, metric.to_string()),
                MemoEntry {
                    trial: Arc::downgrade(&found),
                    rendered: report.rendered.clone(),
                    diagnoses,
                },
            );
        }
        Ok(BalanceReport {
            rendered: report.rendered,
            diagnoses,
            degraded: report.degraded,
        })
    }

    /// A streamed trial's report from its incremental state, (re)built
    /// first when missing (never built, or dropped by a failed update)
    /// or kept for another metric.
    fn streamed_report(
        &self,
        entry: &mut StreamEntry,
        metric: &str,
    ) -> perfexplorer::Result<BalanceReport> {
        let mut rebuilt = false;
        let state = match &mut entry.state {
            Some(state) if state.metric() == metric => state,
            slot => {
                rebuilt = true;
                slot.insert(AnalysisState::new(entry.stream.trial(), metric)?)
            }
        };
        let report = state.report()?;
        ServiceMetrics::bump(&self.metrics.incremental_analyses);
        if rebuilt {
            ServiceMetrics::bump(&self.metrics.state_rebuilds);
        }
        Ok(BalanceReport {
            rendered: report.rendered,
            diagnoses: report.report.diagnoses.len(),
            degraded: Vec::new(),
        })
    }

    /// The non-streaming lookup path: overlay, cold cache, mapped
    /// store. Factored out so chunk ingestion (which already holds the
    /// shard's streams lock) can bootstrap from stored data without
    /// re-entering [`ShardedRepository::get_trial`].
    fn get_stored(
        &self,
        shard: &Shard,
        key: &(String, String, String),
    ) -> perfdmf::Result<Arc<Trial>> {
        let (app, experiment, trial) = (key.0.as_str(), key.1.as_str(), key.2.as_str());
        let found = {
            let start = Instant::now();
            let overlay = shard.overlay.read();
            ServiceMetrics::add_nanos(&self.metrics.lock_wait_nanos, start.elapsed());
            overlay.shared_trial(app, experiment, trial).ok().cloned()
        };
        if let Some(t) = found {
            return Ok(t);
        }

        if let Some(cached) = shard.cache.lock().get(key) {
            ServiceMetrics::bump(&self.metrics.cache_hits);
            return Ok(cached);
        }

        let cold = self
            .cold
            .as_ref()
            .ok_or_else(|| perfdmf::DmfError::NotFound {
                kind: "trial",
                name: format!("{app}/{experiment}/{trial}"),
            })?;
        let materialized = Arc::new(cold.view(app, experiment, trial)?.to_trial()?);
        ServiceMetrics::bump(&self.metrics.cache_misses);
        shard.cache.lock().insert(key.clone(), materialized.clone());
        Ok(materialized)
    }

    /// Applies one chunk to the trial's stream, creating the stream on
    /// first contact — seeded from the stored trial of the same path if
    /// one exists, empty otherwise; a stored trial that cannot be read
    /// refuses the chunk with its storage error. If an incremental analysis state is
    /// cached for the stream it is updated in place (the O(Δ) path); an
    /// update failure drops the state so the next analysis rebuilds it
    /// from scratch rather than serving from a half-updated cache.
    /// When a journal is attached, the chunk is appended to it *before*
    /// it is applied (and before the caller can acknowledge it), so a
    /// crash at any instant leaves every acknowledged chunk
    /// recoverable; redelivered duplicates are detected up front and
    /// not re-journaled.
    pub fn ingest_chunk(
        &self,
        app: &str,
        experiment: &str,
        trial: &str,
        batch: &ChunkBatch,
    ) -> perfdmf::Result<AppliedChunk> {
        let shard = self.shard(app, experiment);
        self.apply_to_stream(shard, app, experiment, trial, batch)
    }

    /// The shared chunk path: bootstrap the stream if needed, journal
    /// novel chunks, apply, keep any warmed incremental state current.
    fn apply_to_stream(
        &self,
        shard: &Shard,
        app: &str,
        experiment: &str,
        trial: &str,
        batch: &ChunkBatch,
    ) -> perfdmf::Result<AppliedChunk> {
        let key = (app.to_string(), experiment.to_string(), trial.to_string());
        let mut streams = shard.streams.lock();
        let entry = match streams.entry(key.clone()) {
            std::collections::hash_map::Entry::Occupied(e) => e.into_mut(),
            std::collections::hash_map::Entry::Vacant(v) => {
                // Only a missing trial starts the stream from the chunk:
                // a stored trial that cannot be read (a rotten page) is
                // a storage fault, not an empty trial.
                let stream = match self.get_stored(shard, &key) {
                    Ok(stored) => StreamingTrial::from_trial((*stored).clone()),
                    Err(perfdmf::DmfError::NotFound { .. }) => {
                        StreamingTrial::for_batch(trial, batch)?
                    }
                    Err(e) => return Err(e),
                };
                v.insert(StreamEntry {
                    stream,
                    state: None,
                })
            }
        };
        if let Some(journal) = &shard.journal {
            if !entry.stream.contains_seq(batch.seq) {
                let start = Instant::now();
                journal.lock().append(RecordRef::Chunk {
                    app,
                    experiment,
                    trial,
                    batch,
                })?;
                ServiceMetrics::bump(&self.metrics.wal_appends);
                ServiceMetrics::add_nanos(&self.metrics.wal_append_nanos, start.elapsed());
            }
        }
        let applied = entry.stream.apply_chunk(batch)?;
        if let Some(state) = entry.state.as_mut() {
            if state.update(entry.stream.trial(), &applied).is_err() {
                entry.state = None;
            }
        }
        Ok(applied)
    }

    /// Builds a standalone repository holding every trial of one
    /// experiment — streamed trials shadow overlay ones, which shadow
    /// cold ones of the same name. A shadowed cold trial is never
    /// decoded, so a corrupt page under a re-uploaded trial cannot fail
    /// the snapshot. The scripting layer runs against this snapshot, so
    /// a long script never holds a shard lock. Overlay trials are
    /// shared, not copied: the snapshot takes a reference to each, and
    /// a later upsert into the overlay replaces the overlay's reference
    /// without touching the snapshot's.
    pub fn snapshot_experiment(&self, app: &str, experiment: &str) -> perfdmf::Result<Repository> {
        let shard = self.shard(app, experiment);
        let mut snapshot = Repository::new();
        let overlaid = {
            let start = Instant::now();
            let overlay = shard.overlay.read();
            ServiceMetrics::add_nanos(&self.metrics.lock_wait_nanos, start.elapsed());
            overlay
                .experiment(app, experiment)
                .map(|exp| exp.shared_trials().cloned().collect::<Vec<_>>())
                .unwrap_or_default()
        };
        for trial in overlaid {
            snapshot.upsert_shared(app, experiment, trial);
        }
        for ((a, e, _), entry) in shard.streams.lock().iter() {
            if a == app && e == experiment {
                snapshot.upsert_trial(app, experiment, entry.stream.trial().clone());
            }
        }
        if let Some(cold) = &self.cold {
            for (a, e, t) in cold.trial_paths() {
                if a == app && e == experiment && snapshot.trial(a, e, t).is_err() {
                    let materialized = cold.view(a, e, t)?.to_trial()?;
                    snapshot.upsert_trial(a, e, materialized);
                }
            }
        }
        if snapshot.trial_count() == 0 {
            return Err(perfdmf::DmfError::NotFound {
                kind: "experiment",
                name: format!("{app}/{experiment}"),
            });
        }
        Ok(snapshot)
    }

    /// Total trials across overlays and the cold store. Cold trials
    /// shadowed by an overlay upsert of the same path are counted once.
    pub fn trial_count(&self) -> usize {
        self.trial_paths().len()
    }

    /// Every `(app, experiment, trial)` path, sorted, overlay and cold
    /// merged.
    pub fn trial_paths(&self) -> Vec<(String, String, String)> {
        let mut paths: std::collections::BTreeSet<(String, String, String)> =
            std::collections::BTreeSet::new();
        if let Some(cold) = &self.cold {
            for (a, e, t) in cold.trial_paths() {
                paths.insert((a.to_string(), e.to_string(), t.to_string()));
            }
        }
        for shard in &self.shards {
            paths.extend(paths_of(&shard.overlay.read()));
            paths.extend(shard.streams.lock().keys().cloned());
        }
        paths.into_iter().collect()
    }

    /// Cached cold-trial count across all shards (diagnostics).
    pub fn cached_trials(&self) -> usize {
        self.shards.iter().map(|s| s.cache.lock().len()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use perfdmf::{Measurement, TrialBuilder};

    fn trial(name: &str) -> Trial {
        let mut b = TrialBuilder::with_flat_threads(name, 2);
        let t = b.metric("TIME");
        let e = b.event("main");
        b.set(e, t, 0, Measurement::leaf(3.0));
        b.set(e, t, 1, Measurement::leaf(1.0));
        b.build()
    }

    fn metrics() -> Arc<ServiceMetrics> {
        Arc::new(ServiceMetrics::default())
    }

    #[test]
    fn shard_of_is_stable_and_in_range() {
        for shards in [1, 2, 8, 13] {
            for i in 0..50 {
                let s = shard_of(&format!("app{i}"), "exp", shards);
                assert!(s < shards);
                assert_eq!(s, shard_of(&format!("app{i}"), "exp", shards));
            }
        }
        // Different experiments spread across shards rather than piling
        // onto one.
        let hit: std::collections::BTreeSet<usize> = (0..64)
            .map(|i| shard_of("app", &format!("exp{i}"), 8))
            .collect();
        assert!(hit.len() > 1, "hash must actually distribute");
    }

    #[test]
    fn ingest_then_get_round_trips() {
        let sharded = ShardedRepository::new(4, 8, metrics());
        sharded.ingest("lu", "strong", trial("t1"));
        sharded.ingest("lu", "weak", trial("t2"));
        let t = sharded.get_trial("lu", "strong", "t1").unwrap();
        assert_eq!(t.name, "t1");
        assert_eq!(sharded.trial_count(), 2);
        assert!(sharded.get_trial("lu", "strong", "missing").is_err());
    }

    #[test]
    fn cold_store_serves_through_the_cache() {
        let mut repo = Repository::new();
        repo.add_trial("app", "exp", trial("t0")).unwrap();
        repo.add_trial("app", "exp", trial("t1")).unwrap();
        let bytes = repo.to_pdb1();

        let m = metrics();
        let mut sharded = ShardedRepository::new(2, 8, m.clone());
        sharded.cold = Some(Arc::new(MappedRepository::from_bytes(&bytes).unwrap()));

        // First access materializes (miss), second hits the cache.
        let a = sharded.get_trial("app", "exp", "t0").unwrap();
        let b = sharded.get_trial("app", "exp", "t0").unwrap();
        assert!(Arc::ptr_eq(&a, &b));
        let s = m.snapshot();
        assert_eq!((s.cache_misses, s.cache_hits), (1, 1));
        assert_eq!(sharded.trial_count(), 2);
        assert_eq!(sharded.cached_trials(), 1);
    }

    #[test]
    fn overlay_shadows_cold_and_cache() {
        let mut repo = Repository::new();
        repo.add_trial("app", "exp", trial("t0")).unwrap();
        let bytes = repo.to_pdb1();

        let mut sharded = ShardedRepository::new(2, 8, metrics());
        sharded.cold = Some(Arc::new(MappedRepository::from_bytes(&bytes).unwrap()));

        // Warm the cache with the cold version, then upsert a fresher
        // trial at the same path: reads must see the overlay version.
        sharded.get_trial("app", "exp", "t0").unwrap();
        let mut fresh = trial("t0");
        fresh.metadata.set("fresh", "yes");
        sharded.ingest("app", "exp", fresh);
        let got = sharded.get_trial("app", "exp", "t0").unwrap();
        assert_eq!(got.metadata.get_str("fresh"), Some("yes"));
        assert_eq!(sharded.trial_count(), 1, "overlay shadows, not duplicates");
    }

    #[test]
    fn snapshot_merges_cold_and_overlay() {
        let mut repo = Repository::new();
        repo.add_trial("app", "exp", trial("cold")).unwrap();
        let bytes = repo.to_pdb1();
        let mut sharded = ShardedRepository::new(2, 8, metrics());
        sharded.cold = Some(Arc::new(MappedRepository::from_bytes(&bytes).unwrap()));
        sharded.ingest("app", "exp", trial("hot"));

        let snap = sharded.snapshot_experiment("app", "exp").unwrap();
        let names: Vec<&str> = snap
            .experiment("app", "exp")
            .unwrap()
            .trial_names()
            .collect();
        assert_eq!(names, vec!["cold", "hot"]);
        assert!(sharded.snapshot_experiment("app", "nope").is_err());
    }

    #[test]
    fn snapshot_shares_overlay_trials_and_keeps_them_on_upsert() {
        let sharded = ShardedRepository::new(2, 8, metrics());
        sharded.ingest("app", "exp", trial("t0"));
        sharded.ingest("app", "exp", trial("t1"));
        let snap = sharded.snapshot_experiment("app", "exp").unwrap();
        let overlay = |name: &str| {
            let shard = &sharded.shards[shard_of("app", "exp", sharded.shards.len())];
            let overlay = shard.overlay.read();
            Arc::clone(overlay.shared_trial("app", "exp", name).unwrap())
        };
        for name in ["t0", "t1"] {
            let shared = snap.shared_trial("app", "exp", name).unwrap();
            assert!(Arc::ptr_eq(shared, &overlay(name)), "{name} was copied");
        }

        // An upsert replaces the overlay's reference; the snapshot keeps
        // the trial it was taken with.
        let mut fresh = trial("t0");
        fresh.metadata.set("fresh", "yes");
        sharded.ingest("app", "exp", fresh);
        let kept = snap.trial("app", "exp", "t0").unwrap();
        assert_eq!(kept.metadata.get_str("fresh"), None);
        assert_eq!(overlay("t0").metadata.get_str("fresh"), Some("yes"));
    }

    #[test]
    fn a_sweep_body_derivation_copies_only_its_own_view() {
        use perfexplorer::scripting::{PerfExplorerScript, Value};
        let sharded = ShardedRepository::new(2, 8, metrics());
        sharded.ingest("app", "exp", trial("t0"));
        let snap = sharded.snapshot_experiment("app", "exp").unwrap();
        let mut session = PerfExplorerScript::new(snap.clone());
        // Every body loads the same trial; one derives a metric on it.
        let value = session
            .run(
                r#"let r = par_foreach_trial role in ["derive", "read", "read", "read"] {
                    let trial = load_trial("app", "exp", "t0");
                    if role == "derive" { derive_metric(trial, "TIME", "add", "TIME"); }
                    len(trial_metrics(trial))
                };
                let counts = [];
                for o in r { counts = counts + [o["value"]]; }
                counts"#,
            )
            .unwrap();
        let counts = [2.0, 1.0, 1.0, 1.0].map(Value::Num).to_vec();
        assert_eq!(value, Value::from(counts), "siblings must see the original");

        let overlay = {
            let shard = &sharded.shards[shard_of("app", "exp", sharded.shards.len())];
            let overlay = shard.overlay.read();
            Arc::clone(overlay.shared_trial("app", "exp", "t0").unwrap())
        };
        let snapped = snap.shared_trial("app", "exp", "t0").unwrap();
        assert_eq!(snapped.profile.metrics().len(), 1, "snapshot mutated");
        assert_eq!(overlay.profile.metrics().len(), 1, "overlay mutated");
        assert!(Arc::ptr_eq(snapped, &overlay));
    }

    #[test]
    fn lru_cache_evicts_oldest() {
        let mut cache = Lru::new(2);
        let key = |s: &str| ("a".to_string(), "e".to_string(), s.to_string());
        cache.insert(key("1"), Arc::new(trial("1")));
        cache.insert(key("2"), Arc::new(trial("2")));
        cache.get(&key("1")); // refresh 1; 2 is now LRU
        cache.insert(key("3"), Arc::new(trial("3")));
        assert!(cache.get(&key("2")).is_none(), "2 was evicted");
        assert!(cache.get(&key("1")).is_some());
        assert!(cache.get(&key("3")).is_some());
        assert_eq!(cache.len(), 2);
    }
}
