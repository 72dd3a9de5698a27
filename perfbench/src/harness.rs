//! The closed-loop pass runner shared by every workload.
//!
//! A run is a sequence of identical passes. Each pass starts a fresh
//! service (open or attach, plus one warm-up pass: the set-up time),
//! then every client sends its pre-built requests one at a time,
//! waiting for each reply (the timed phase). A fresh service per pass
//! makes every pass do exactly the same work, so the work counts of one
//! pass must repeat in every other pass and in every run with the same
//! seed. The number of passes follows from `--seconds` and a fixed
//! per-workload rate, never from how fast the passes go, so every
//! commit is measured over the same amount of work.

use crate::trace::Tracer;
use crate::util::{median, ms, peak_rss_mb, percentile, process_cpu, reset_peak_rss};
use service::{AnalysisService, Outcome, Request, Response, StatsSnapshot};
use std::collections::BTreeMap;
use std::path::Path;
use std::sync::Barrier;
use std::time::{Duration, Instant};

/// Work counts by name. Every count is fixed by the seed.
pub type Work = BTreeMap<&'static str, u64>;

/// Counts the service reports and the traced replay must reproduce.
pub const SERVICE_WORK: [&str; 10] = [
    "requests",
    "cache_hits",
    "cache_misses",
    "incremental_analyses",
    "state_rebuilds",
    "wal_appends",
    "script_cache_hits",
    "script_cache_misses",
    "sweep_bodies",
    "diagnoses",
];

/// One benchmark workload: a service configuration, its seeded
/// requests, the oracle for their replies, and the traced replay of
/// the same requests through the layers' public functions.
pub trait Workload: Sync {
    fn clients(&self) -> usize;

    /// Passes per second of `--seconds`: a constant, calibrated once so
    /// that a run takes about `--seconds` on a two-core machine.
    fn passes_per_second(&self) -> f64;

    /// Starts the service in `dir` and runs its warm-up pass.
    fn start(&self, dir: &Path) -> AnalysisService;

    /// The timed requests, one list per client, in sending order.
    fn requests(&self) -> Vec<Vec<Request>>;

    /// Whether the reply to `client`'s `index`-th request is correct.
    fn check(&self, client: usize, index: usize, outcome: &Outcome) -> bool;

    /// Replays the warm-up and then the timed requests one at a time,
    /// calling the layers' public functions in the handler's order, with
    /// one root span per timed request. Returns the work done by the
    /// timed requests and their wall time.
    fn replay(&self, dir: &Path, tracer: &mut Tracer) -> (Work, Duration);
}

struct Pass {
    setup: Duration,
    cpu: Duration,
    /// Wall time of the timed phase: from releasing the clients until
    /// the last one has its last reply.
    wall: Duration,
    /// Submit-to-response times in request order, client after client.
    latencies_ms: Vec<f64>,
    failed: u64,
    work: Work,
    stats: StatsSnapshot,
}

fn work_of(before: &StatsSnapshot, after: &StatsSnapshot, diagnoses: u64) -> Work {
    let d = |a: u64, b: u64| b - a;
    Work::from([
        ("requests", d(before.requests, after.requests)),
        ("cache_hits", d(before.cache_hits, after.cache_hits)),
        ("cache_misses", d(before.cache_misses, after.cache_misses)),
        (
            "incremental_analyses",
            d(before.incremental_analyses, after.incremental_analyses),
        ),
        (
            "state_rebuilds",
            d(before.state_rebuilds, after.state_rebuilds),
        ),
        ("wal_appends", d(before.wal_appends, after.wal_appends)),
        (
            "script_cache_hits",
            d(before.script_cache_hits, after.script_cache_hits),
        ),
        (
            "script_cache_misses",
            d(before.script_cache_misses, after.script_cache_misses),
        ),
        ("sweep_bodies", d(before.sweep_bodies, after.sweep_bodies)),
        ("diagnoses", diagnoses),
    ])
}

/// Subtracts the warm-up's share of the cumulative timing counters.
fn timed_stats(before: &StatsSnapshot, after: &StatsSnapshot) -> StatsSnapshot {
    let mut s = after.clone();
    s.busy = after.busy.saturating_sub(before.busy);
    s.lock_wait = after.lock_wait.saturating_sub(before.lock_wait);
    s.wal_append = after.wal_append.saturating_sub(before.wal_append);
    s.wal_appends = after.wal_appends - before.wal_appends;
    s
}

fn run_pass(w: &dyn Workload, dir: &Path) -> Pass {
    let requests = w.requests();
    // Each pass starts from an empty directory: a journal left by the
    // previous pass would be replayed into this one.
    let pass_dir = dir.join("pass");
    let _ = std::fs::remove_dir_all(&pass_dir);
    std::fs::create_dir_all(&pass_dir).expect("create the pass directory");
    let setup_start = Instant::now();
    let svc = w.start(&pass_dir);
    let setup = setup_start.elapsed();

    let before = svc.stats();
    let barrier = Barrier::new(requests.len() + 1);
    let (replies, cpu, wall) = std::thread::scope(|scope| {
        let handles: Vec<_> = requests
            .into_iter()
            .map(|list| {
                let client = svc.client();
                let barrier = &barrier;
                scope.spawn(move || {
                    let mut replies = Vec::with_capacity(list.len());
                    barrier.wait();
                    for request in list {
                        let sent = Instant::now();
                        let reply = client.call(request);
                        replies.push((sent.elapsed(), reply));
                    }
                    replies
                })
            })
            .collect();
        let cpu0 = process_cpu();
        barrier.wait();
        let released = Instant::now();
        let replies: Vec<Vec<(Duration, Result<Response, String>)>> = handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect();
        let wall = released.elapsed();
        (replies, process_cpu().saturating_sub(cpu0), wall)
    });
    let after = svc.stats();
    svc.shutdown();
    let _ = std::fs::remove_dir_all(&pass_dir);

    let mut latencies_ms = Vec::new();
    let mut failed = 0;
    let mut diagnoses = 0;
    for (client, list) in replies.iter().enumerate() {
        for (index, (latency, reply)) in list.iter().enumerate() {
            latencies_ms.push(ms(*latency));
            let ok = match reply {
                Ok(resp) => resp.is_clean() && w.check(client, index, &resp.outcome),
                Err(_) => false,
            };
            if let Ok(Response {
                outcome: Outcome::Report { diagnoses: n, .. },
                ..
            }) = reply
            {
                diagnoses += *n as u64;
            }
            if !ok {
                failed += 1;
            }
        }
    }
    Pass {
        setup,
        cpu,
        wall,
        latencies_ms,
        failed,
        work: work_of(&before, &after, diagnoses),
        stats: timed_stats(&before, &after),
    }
}

/// What one benchmark run reports.
pub struct RunOutput {
    pub attempted: u64,
    pub failed: u64,
    /// Every pass's work counts equal the first pass's, and (traced) the
    /// replay reproduced them.
    pub counts_repeat: bool,
    pub work: Work,
    /// Trace-only counts of one traced replay (empty untraced).
    pub trace_work: Work,
    pub metrics: Vec<(&'static str, f64, &'static str)>,
    pub passes: usize,
    pub samples_per_pass: usize,
}

/// Fewest passes a run makes, whatever `--seconds` says, so every
/// figure is chosen from several passes.
const MIN_PASSES: usize = 3;

/// How many passes `seconds` buys for `w`: fixed by the arguments alone.
fn pass_count(w: &dyn Workload, seconds: f64) -> usize {
    ((seconds * w.passes_per_second()).round() as usize).max(MIN_PASSES)
}

fn service_passes(w: &dyn Workload, dir: &Path, count: usize) -> Vec<Pass> {
    (0..count).map(|_| run_pass(w, dir)).collect()
}

fn percentile_of(latencies_ms: &[f64], p: f64) -> f64 {
    let mut v = latencies_ms.to_vec();
    v.sort_by(f64::total_cmp);
    percentile(&v, p)
}

/// Share of passes a wall-clock figure comes from.
const QUIET_SHARE: f64 = 0.1;

/// The figure the quietest `QUIET_SHARE` of passes reach: the low
/// quantile of a time, the high quantile of a rate. The pass count is
/// fixed by the arguments, so this is one estimator on every commit.
fn quiet(passes: &[Pass], f: impl Fn(&Pass) -> f64, higher_is_better: bool) -> f64 {
    let mut v: Vec<f64> = passes.iter().map(f).collect();
    v.sort_by(f64::total_cmp);
    if higher_is_better {
        v.reverse();
    }
    percentile(&v, QUIET_SHARE)
}

fn counts_repeat(passes: &[Pass]) -> bool {
    for p in passes {
        if p.work != passes[0].work {
            eprintln!(
                "perfbench: pass work {:?} != first pass {:?}",
                p.work, passes[0].work
            );
            return false;
        }
    }
    true
}

/// End-to-end metrics from the passes of one run.
///
/// Each wall-clock figure is taken per pass, and the run reports the
/// figure its quietest tenth of passes reach: other tenants on shared
/// cores slow stretches of a run by a third or more, and the quiet
/// passes vary least from run to run. Throughput is a pass's requests
/// over its timed wall time; the latency percentiles are of a pass's
/// submit-to-response times, so on `live_ingest` they include the
/// clients' queueing and lock contention. CPU time per op is summed
/// over every timed phase, set-up is a start's time, and peak RSS
/// covers the passes only: its high water mark is reset once the
/// inputs are built.
pub fn run_untraced(w: &dyn Workload, dir: &Path, seconds: f64) -> RunOutput {
    let rss_reset = reset_peak_rss();
    let passes = service_passes(w, dir, pass_count(w, seconds));
    let ops: u64 = passes.iter().map(|p| p.latencies_ms.len() as u64).sum();
    let cpu: f64 = passes.iter().map(|p| ms(p.cpu)).sum();
    if !rss_reset {
        eprintln!("perfbench: could not reset the peak RSS; it includes input generation");
    }
    let metrics = vec![
        (
            "throughput_rps",
            quiet(
                &passes,
                |p| p.latencies_ms.len() as f64 / p.wall.as_secs_f64(),
                true,
            ),
            "1/s",
        ),
        (
            "latency_p50_ms",
            quiet(&passes, |p| percentile_of(&p.latencies_ms, 0.50), false),
            "ms",
        ),
        (
            "latency_p99_ms",
            quiet(&passes, |p| percentile_of(&p.latencies_ms, 0.99), false),
            "ms",
        ),
        ("cpu_ms_per_op", cpu / ops as f64, "ms"),
        (
            "setup_s",
            quiet(&passes, |p| p.setup.as_secs_f64(), false),
            "s",
        ),
        ("peak_rss_mb", peak_rss_mb(), "MB"),
    ];
    RunOutput {
        attempted: ops,
        failed: passes.iter().map(|p| p.failed).sum(),
        counts_repeat: counts_repeat(&passes),
        work: passes[0].work.clone(),
        trace_work: Work::new(),
        metrics,
        passes: passes.len(),
        samples_per_pass: passes[0].latencies_ms.len(),
    }
}

/// Span name behind each per-layer timing metric.
pub const SPAN_METRICS: [(&str, &str); 19] = [
    ("perfdmf.mapped.to_trial_us", "perfdmf.mapped.to_trial"),
    ("core.loadbalance.analyze_us", "core.loadbalance.analyze"),
    ("rules.engine_build_us", "rules.engine_build"),
    ("rules.assert_us", "rules.assert"),
    ("rules.run_us", "rules.run"),
    ("core.recommend.render_us", "core.recommend.render"),
    (
        "core.workflow.supervised_self_us",
        "core.workflow.supervised",
    ),
    ("perfdmf.json.chunk_decode_us", "perfdmf.json.chunk_decode"),
    ("perfdmf.wal.append_us", "perfdmf.wal.append"),
    (
        "perfdmf.streaming.apply_chunk_us",
        "perfdmf.streaming.apply_chunk",
    ),
    ("core.incremental.build_us", "core.incremental.build"),
    ("core.incremental.update_us", "core.incremental.update"),
    ("core.incremental.report_us", "core.incremental.report"),
    (
        "service.snapshot_experiment_us",
        "service.snapshot_experiment",
    ),
    ("script.session_us", "script.session"),
    ("script.compile_us", "script.compile"),
    ("script.run_us", "script.run"),
    ("service.cache_lookup_us", "service.cache_lookup"),
    ("trace.request_self_us", crate::trace::ROOT),
];

/// Counts a traced replay reports, by metric name and replay key.
pub const TRACE_COUNTS: [(&str, &str); 3] = [
    ("core.loadbalance.facts", "facts"),
    ("rules.firings", "firings"),
    ("script.sweep_bodies", "sweep_bodies"),
];

/// Service counters of one timed pass, by metric name and work key.
pub const SERVICE_COUNTS: [(&str, &str); 3] = [
    ("service.state_rebuilds", "state_rebuilds"),
    ("service.incremental_analyses", "incremental_analyses"),
    ("service.wal_appends", "wal_appends"),
];

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// Per-layer metrics: half of `--seconds` worth of service passes for
/// the `service.*` counters, then half as many pairs of untraced and
/// traced replays (a pair runs single-threaded, about twice a pass).
pub fn run_traced(w: &dyn Workload, dir: &Path, seconds: f64, spans_out: &Path) -> RunOutput {
    let count = pass_count(w, seconds / 2.0);
    let passes = service_passes(w, dir, count);
    let mut repeat = counts_repeat(&passes);

    // Alternate untraced and traced replays so drift on the machine
    // lands on both sides of the overhead comparison.
    let mut plain_ms = Vec::new();
    let mut traced_ms = Vec::new();
    let mut self_sum_ms = Vec::new();
    let mut self_us: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    let mut trace_work = Work::new();
    let mut last = None;
    for _ in 0..(count / 2).max(1) {
        let mut plain = Tracer::new(false);
        let (work, wall) = w.replay(dir, &mut plain);
        let ops = work["requests"] as f64;
        plain_ms.push(ms(wall) / ops);
        repeat &= SERVICE_WORK.iter().all(|k| work[k] == passes[0].work[k]);

        let mut tracer = Tracer::new(true);
        let (work, wall) = w.replay(dir, &mut tracer);
        traced_ms.push(ms(wall) / ops);
        self_sum_ms.push(tracer.root_ms() / ops);
        for (name, times) in tracer.self_times_us() {
            self_us.entry(name).or_default().extend(times);
        }
        repeat &= trace_work.is_empty() || trace_work == work;
        trace_work = work;
        last = Some(tracer);
    }
    if let Some(tracer) = last {
        if let Err(e) = tracer.write_tsv(spans_out) {
            eprintln!(
                "perfbench: could not write spans to {}: {e}",
                spans_out.display()
            );
        }
    }

    let per_pass = |f: &dyn Fn(&Pass) -> f64| median(&passes.iter().map(f).collect::<Vec<_>>());
    let ops_of = |p: &Pass| p.latencies_ms.len() as f64;
    let mut metrics = vec![
        (
            "service.handler_ms_per_op",
            per_pass(&|p| ms(p.stats.busy) / ops_of(p)),
            "ms",
        ),
        (
            "service.queue_wait_ms_per_op",
            per_pass(&|p| (p.latencies_ms.iter().sum::<f64>() - ms(p.stats.busy)) / ops_of(p)),
            "ms",
        ),
        (
            "service.lock_wait_ms",
            per_pass(&|p| ms(p.stats.lock_wait)),
            "ms",
        ),
        (
            "service.cache_hit_ratio",
            ratio(passes[0].work["cache_hits"], cache_lookups(&passes[0].work)),
            "ratio",
        ),
        (
            "service.cache_lookups",
            cache_lookups(&passes[0].work) as f64,
            "count",
        ),
        (
            "service.script_cache_hit_ratio",
            ratio(
                passes[0].work["script_cache_hits"],
                script_lookups(&passes[0].work),
            ),
            "ratio",
        ),
        (
            "service.script_cache_lookups",
            script_lookups(&passes[0].work) as f64,
            "count",
        ),
        (
            "service.wal_append_us_per_record",
            per_pass(&|p| ratio(p.stats.wal_append.as_nanos() as u64, p.stats.wal_appends) / 1e3),
            "us",
        ),
    ];
    for (metric, key) in SERVICE_COUNTS {
        metrics.push((metric, passes[0].work[key] as f64, "count"));
    }
    for (metric, key) in TRACE_COUNTS {
        metrics.push((
            metric,
            trace_work.get(key).copied().unwrap_or(0) as f64,
            "count",
        ));
    }
    metrics.push((
        "perfdmf.wal.record_bytes",
        ratio(
            trace_work.get("wal_bytes").copied().unwrap_or(0),
            trace_work.get("wal_appends").copied().unwrap_or(0),
        ),
        "bytes",
    ));
    for (metric, span) in SPAN_METRICS {
        let value = self_us.get(span).map(|v| median(v)).unwrap_or(0.0);
        metrics.push((metric, value, "us"));
    }
    let plain = median(&plain_ms);
    metrics.push(("trace.self_sum_ms_per_op", median(&self_sum_ms), "ms"));
    metrics.push(("trace.replay_ms_per_op", plain, "ms"));
    metrics.push((
        "trace.overhead_pct",
        100.0 * (median(&traced_ms) - plain) / plain,
        "%",
    ));

    let ops: u64 = passes.iter().map(|p| p.latencies_ms.len() as u64).sum();
    RunOutput {
        attempted: ops,
        failed: passes.iter().map(|p| p.failed).sum(),
        counts_repeat: repeat,
        work: passes[0].work.clone(),
        trace_work,
        metrics,
        passes: passes.len(),
        samples_per_pass: passes[0].latencies_ms.len(),
    }
}

fn cache_lookups(work: &Work) -> u64 {
    work["cache_hits"] + work["cache_misses"]
}

fn script_lookups(work: &Work) -> u64 {
    work["script_cache_hits"] + work["script_cache_misses"]
}
