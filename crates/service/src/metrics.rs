//! Lightweight service metrics: lock-free counters every request and
//! shard updates in place, snapshotted on demand by the `stats`
//! endpoint. Counters only — no histograms, no background thread — so
//! the hot path pays a handful of relaxed atomic adds per request.

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// Monotonic counters for one service instance.
#[derive(Debug, Default)]
pub struct ServiceMetrics {
    /// Requests completed (every kind, clean or not).
    pub requests: AtomicU64,
    /// Profile uploads accepted into a shard.
    pub ingests: AtomicU64,
    /// Analysis workflow requests served.
    pub analyses: AtomicU64,
    /// Scripting requests served.
    pub scripts: AtomicU64,
    /// Parallel trial-sweep requests served.
    pub sweeps: AtomicU64,
    /// Sweep bodies executed across all sweeps.
    pub sweep_bodies: AtomicU64,
    /// Sweep bodies that finished with an error outcome (the sweep
    /// itself still completes; failures degrade per body).
    pub sweep_failures: AtomicU64,
    /// Sweep scripts served from the shared compiled-script cache.
    pub script_cache_hits: AtomicU64,
    /// Sweep scripts compiled because the cache had no entry.
    pub script_cache_misses: AtomicU64,
    /// Chunk-ingest requests applied to a streaming trial.
    pub chunk_ingests: AtomicU64,
    /// Analyses served from a cached incremental [`AnalysisState`]
    /// (the O(Δ) path) instead of a batch rescan.
    ///
    /// [`AnalysisState`]: perfexplorer::AnalysisState
    pub incremental_analyses: AtomicU64,
    /// Incremental states built (first analysis of a stream, or after
    /// an invalidation/metric change).
    pub state_rebuilds: AtomicU64,
    /// Cached incremental states invalidated by a full-trial upsert
    /// shadowing the stream.
    pub state_invalidations: AtomicU64,
    /// Responses carrying at least one degraded stage.
    pub degraded_responses: AtomicU64,
    /// Requests rejected outright (unparseable upload, unknown trial).
    pub rejected: AtomicU64,
    /// Panics caught at the request slot's boundary — outside any
    /// supervised stage. Always zero unless a handler itself is buggy;
    /// the CI smoke job asserts on it.
    pub panics_isolated: AtomicU64,
    /// Cold-trial cache hits (trial served from the shard LRU).
    pub cache_hits: AtomicU64,
    /// Cold-trial cache misses (trial materialized from the mapped
    /// store).
    pub cache_misses: AtomicU64,
    /// Stored-trial analyses answered from a shard's report memo: the
    /// same `Arc<Trial>` was analyzed clean before, so facts, rules and
    /// rendering were skipped.
    pub report_memo_hits: AtomicU64,
    /// Total time spent waiting to acquire shard locks, in nanoseconds.
    pub lock_wait_nanos: AtomicU64,
    /// Total time spent inside request handlers, in nanoseconds.
    pub busy_nanos: AtomicU64,
    /// Callers currently waiting for a request slot (gauge: incremented
    /// when a caller starts waiting, decremented when it stops).
    pub queue_depth: AtomicU64,
    /// Most callers that have waited for a slot at once: the gauge as
    /// each waiter raised it, at most the queue capacity (shed attempts
    /// never wait, so they are not depth).
    pub queue_peak: AtomicU64,
    /// Requests shed at admission because every slot was taken and the
    /// waiting line was full ([`crate::Outcome::Overloaded`]).
    pub shed: AtomicU64,
    /// Requests that hit their deadline — skipped stages or answered
    /// without work ([`crate::Outcome::DeadlineExceeded`]).
    pub deadlines_exceeded: AtomicU64,
    /// Circuit breakers tripped open (per transition, not per shard).
    pub breaker_trips: AtomicU64,
    /// Requests failed fast by an open breaker without touching the
    /// shard ([`crate::Outcome::BreakerOpen`]).
    pub breaker_fast_fails: AtomicU64,
    /// Requests admitted as half-open probes.
    pub breaker_probes: AtomicU64,
    /// Breakers currently open or half-open (gauge).
    pub breakers_open: AtomicU64,
    /// Chunk records appended to a shard write-ahead journal.
    pub wal_appends: AtomicU64,
    /// Total time spent appending (and fsyncing) journal records.
    pub wal_append_nanos: AtomicU64,
    /// Chunk records replayed out of journals at startup.
    pub wal_replayed_chunks: AtomicU64,
    /// Total time spent replaying journals at startup.
    pub wal_replay_nanos: AtomicU64,
}

impl ServiceMetrics {
    /// Bumps a counter by one.
    pub fn bump(counter: &AtomicU64) {
        counter.fetch_add(1, Ordering::Relaxed);
    }

    /// Accumulates a duration into a nanosecond counter.
    pub fn add_nanos(counter: &AtomicU64, d: Duration) {
        counter.fetch_add(d.as_nanos() as u64, Ordering::Relaxed);
    }

    /// Increments a gauge, returning its new value.
    pub fn gauge_inc(gauge: &AtomicU64) -> u64 {
        gauge.fetch_add(1, Ordering::Relaxed) + 1
    }

    /// Folds an observed depth into a high-water mark.
    pub fn fold_peak(peak: &AtomicU64, depth: u64) {
        peak.fetch_max(depth, Ordering::Relaxed);
    }

    /// Decrements a gauge, saturating at zero (pairing it with an
    /// increment is the caller's responsibility).
    pub fn gauge_dec(gauge: &AtomicU64) {
        let _ = gauge.fetch_update(Ordering::Relaxed, Ordering::Relaxed, |v| {
            Some(v.saturating_sub(1))
        });
    }

    /// A point-in-time copy of every counter.
    pub fn snapshot(&self) -> StatsSnapshot {
        StatsSnapshot {
            requests: self.requests.load(Ordering::Relaxed),
            ingests: self.ingests.load(Ordering::Relaxed),
            analyses: self.analyses.load(Ordering::Relaxed),
            scripts: self.scripts.load(Ordering::Relaxed),
            sweeps: self.sweeps.load(Ordering::Relaxed),
            sweep_bodies: self.sweep_bodies.load(Ordering::Relaxed),
            sweep_failures: self.sweep_failures.load(Ordering::Relaxed),
            script_cache_hits: self.script_cache_hits.load(Ordering::Relaxed),
            script_cache_misses: self.script_cache_misses.load(Ordering::Relaxed),
            chunk_ingests: self.chunk_ingests.load(Ordering::Relaxed),
            incremental_analyses: self.incremental_analyses.load(Ordering::Relaxed),
            state_rebuilds: self.state_rebuilds.load(Ordering::Relaxed),
            state_invalidations: self.state_invalidations.load(Ordering::Relaxed),
            degraded_responses: self.degraded_responses.load(Ordering::Relaxed),
            rejected: self.rejected.load(Ordering::Relaxed),
            panics_isolated: self.panics_isolated.load(Ordering::Relaxed),
            cache_hits: self.cache_hits.load(Ordering::Relaxed),
            cache_misses: self.cache_misses.load(Ordering::Relaxed),
            report_memo_hits: self.report_memo_hits.load(Ordering::Relaxed),
            lock_wait: Duration::from_nanos(self.lock_wait_nanos.load(Ordering::Relaxed)),
            busy: Duration::from_nanos(self.busy_nanos.load(Ordering::Relaxed)),
            queue_depth: self.queue_depth.load(Ordering::Relaxed),
            queue_peak: self.queue_peak.load(Ordering::Relaxed),
            shed: self.shed.load(Ordering::Relaxed),
            deadlines_exceeded: self.deadlines_exceeded.load(Ordering::Relaxed),
            breaker_trips: self.breaker_trips.load(Ordering::Relaxed),
            breaker_fast_fails: self.breaker_fast_fails.load(Ordering::Relaxed),
            breaker_probes: self.breaker_probes.load(Ordering::Relaxed),
            breakers_open: self.breakers_open.load(Ordering::Relaxed),
            wal_appends: self.wal_appends.load(Ordering::Relaxed),
            wal_append: Duration::from_nanos(self.wal_append_nanos.load(Ordering::Relaxed)),
            wal_replayed_chunks: self.wal_replayed_chunks.load(Ordering::Relaxed),
            wal_replay: Duration::from_nanos(self.wal_replay_nanos.load(Ordering::Relaxed)),
        }
    }
}

/// A point-in-time reading of the service counters — what the `stats`
/// endpoint returns.
#[derive(Debug, Clone, PartialEq)]
pub struct StatsSnapshot {
    /// Requests completed.
    pub requests: u64,
    /// Uploads accepted.
    pub ingests: u64,
    /// Analyses served.
    pub analyses: u64,
    /// Scripts served.
    pub scripts: u64,
    /// Sweep requests served.
    pub sweeps: u64,
    /// Sweep bodies executed.
    pub sweep_bodies: u64,
    /// Sweep bodies with error outcomes.
    pub sweep_failures: u64,
    /// Compiled-script cache hits.
    pub script_cache_hits: u64,
    /// Compiled-script cache misses.
    pub script_cache_misses: u64,
    /// Chunk ingests applied.
    pub chunk_ingests: u64,
    /// Analyses served from cached incremental state.
    pub incremental_analyses: u64,
    /// Incremental states built from scratch.
    pub state_rebuilds: u64,
    /// Incremental states invalidated by full upserts.
    pub state_invalidations: u64,
    /// Responses with degraded stages.
    pub degraded_responses: u64,
    /// Requests rejected outright.
    pub rejected: u64,
    /// Panics caught at the request slot's boundary.
    pub panics_isolated: u64,
    /// Cold-cache hits.
    pub cache_hits: u64,
    /// Cold-cache misses.
    pub cache_misses: u64,
    /// Analyses answered from a report memo.
    pub report_memo_hits: u64,
    /// Cumulative shard lock wait.
    pub lock_wait: Duration,
    /// Cumulative handler time.
    pub busy: Duration,
    /// Callers waiting for a request slot right now.
    pub queue_depth: u64,
    /// Most callers that have waited for a slot at once.
    pub queue_peak: u64,
    /// Requests shed at admission (waiting line full).
    pub shed: u64,
    /// Requests that hit their deadline.
    pub deadlines_exceeded: u64,
    /// Circuit-breaker trips.
    pub breaker_trips: u64,
    /// Requests failed fast by an open breaker.
    pub breaker_fast_fails: u64,
    /// Half-open probe requests admitted.
    pub breaker_probes: u64,
    /// Breakers open or half-open right now.
    pub breakers_open: u64,
    /// WAL records appended.
    pub wal_appends: u64,
    /// Cumulative WAL append (incl. fsync) time.
    pub wal_append: Duration,
    /// WAL chunk records replayed at startup.
    pub wal_replayed_chunks: u64,
    /// Cumulative WAL replay time.
    pub wal_replay: Duration,
}

impl StatsSnapshot {
    /// Cache hit rate over cold loads, in [0, 1]; 1.0 when there were
    /// no cold loads at all.
    pub fn cache_hit_rate(&self) -> f64 {
        let total = self.cache_hits + self.cache_misses;
        if total == 0 {
            1.0
        } else {
            self.cache_hits as f64 / total as f64
        }
    }

    /// The stats table as the `stats` subcommand prints it.
    pub fn render(&self) -> String {
        format!(
            "requests            {}\n\
             \x20 ingests           {}\n\
             \x20 analyses          {}\n\
             \x20 scripts           {}\n\
             \x20 chunk ingests     {}\n\
             \x20 sweeps            {} (bodies {}, failed bodies {})\n\
             script cache        {}/{} hit/miss\n\
             incremental analyses {} (rebuilds {}, invalidations {})\n\
             degraded responses  {}\n\
             rejected            {}\n\
             panics isolated     {}\n\
             shed (overloaded)   {} (queue depth {}, peak {})\n\
             deadlines exceeded  {}\n\
             breaker             {} trips, {} fast-fails, {} probes, {} open\n\
             wal                 {} appends ({:?}), {} replayed ({:?})\n\
             cache hits/misses   {}/{} ({:.1}% hit)\n\
             report memo hits    {}\n\
             lock wait           {:?}\n\
             handler time        {:?}\n",
            self.requests,
            self.ingests,
            self.analyses,
            self.scripts,
            self.chunk_ingests,
            self.sweeps,
            self.sweep_bodies,
            self.sweep_failures,
            self.script_cache_hits,
            self.script_cache_misses,
            self.incremental_analyses,
            self.state_rebuilds,
            self.state_invalidations,
            self.degraded_responses,
            self.rejected,
            self.panics_isolated,
            self.shed,
            self.queue_depth,
            self.queue_peak,
            self.deadlines_exceeded,
            self.breaker_trips,
            self.breaker_fast_fails,
            self.breaker_probes,
            self.breakers_open,
            self.wal_appends,
            self.wal_append,
            self.wal_replayed_chunks,
            self.wal_replay,
            self.cache_hits,
            self.cache_misses,
            self.cache_hit_rate() * 100.0,
            self.report_memo_hits,
            self.lock_wait,
            self.busy,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_reads_counters() {
        let m = ServiceMetrics::default();
        ServiceMetrics::bump(&m.requests);
        ServiceMetrics::bump(&m.requests);
        ServiceMetrics::bump(&m.cache_hits);
        ServiceMetrics::bump(&m.report_memo_hits);
        ServiceMetrics::add_nanos(&m.lock_wait_nanos, Duration::from_micros(5));
        let s = m.snapshot();
        assert_eq!(s.requests, 2);
        assert_eq!(s.cache_hits, 1);
        assert_eq!(s.report_memo_hits, 1);
        assert!(s.render().contains("report memo hits    1\n"));
        assert_eq!(s.lock_wait, Duration::from_micros(5));
        assert_eq!(s.cache_hit_rate(), 1.0);
        assert!(s.render().contains("requests            2"));
    }

    #[test]
    fn gauges_track_depth_and_peak() {
        let m = ServiceMetrics::default();
        let first = ServiceMetrics::gauge_inc(&m.queue_depth);
        let second = ServiceMetrics::gauge_inc(&m.queue_depth);
        assert_eq!((first, second), (1, 2));
        ServiceMetrics::gauge_dec(&m.queue_depth);
        ServiceMetrics::fold_peak(&m.queue_peak, second);
        ServiceMetrics::fold_peak(&m.queue_peak, 1);
        let s = m.snapshot();
        assert_eq!((s.queue_depth, s.queue_peak), (1, 2));
        // Saturates rather than underflowing.
        ServiceMetrics::gauge_dec(&m.queue_depth);
        ServiceMetrics::gauge_dec(&m.queue_depth);
        assert_eq!(m.snapshot().queue_depth, 0);
        assert!(m.snapshot().render().contains("shed (overloaded)"));
    }

    #[test]
    fn hit_rate_handles_all_cases() {
        let m = ServiceMetrics::default();
        assert_eq!(m.snapshot().cache_hit_rate(), 1.0);
        ServiceMetrics::bump(&m.cache_misses);
        assert_eq!(m.snapshot().cache_hit_rate(), 0.0);
        ServiceMetrics::bump(&m.cache_hits);
        assert_eq!(m.snapshot().cache_hit_rate(), 0.5);
    }
}
