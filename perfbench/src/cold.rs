//! `cold_diagnose`: one client asks for load-balance diagnoses of
//! trials in a PDB1 store, picked with a Zipf skew over a working set
//! five times the total LRU capacity. With one client, each request's
//! cache hit or miss follows from the seed alone.

use crate::harness::{Work, Workload, SERVICE_WORK};
use crate::synth;
use crate::trace::Tracer;
use crate::util::{self, Zipf};
use perfdmf::{MappedRepository, Repository, Trial};
use perfexplorer::recommend::{compiler_feedback, render_report_degraded};
use perfexplorer::rulebase::{engine_with, LOAD_BALANCE_RULES};
use perfexplorer::{loadbalance, Supervisor, SupervisorConfig};
use rand::prelude::*;
use service::{shard_of, AnalysisService, Outcome, Request, ServiceConfig};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

const APP: &str = "cold";
const EXPERIMENTS: usize = 40;
const SHARDS: usize = 8;
const CACHE_CAPACITY: usize = 4;
/// Working set: five times `SHARDS * CACHE_CAPACITY`.
const TRIALS: usize = 160;
/// An assumption, not measured traffic: the exponent that puts about
/// 17% of requests on misses, well clear of both 1% and 50%, so p50
/// falls among hits and p99 among misses.
const ZIPF_EXPONENT: f64 = 1.4;
const REQUESTS: usize = 1200;
/// Requests whose reports are compared byte for byte with the strict
/// workflow.
const ORACLE_SAMPLE: usize = 64;
const MIN_EVENTS: f64 = 4.0;
const MAX_EVENTS: f64 = 320.0;
const METRIC: &str = "TIME";
/// Passes per second of `--seconds` (see `Workload::passes_per_second`).
const PASSES_PER_SECOND: f64 = 2.0;

struct Entry {
    experiment: String,
    name: String,
}

pub struct Cold {
    workers: usize,
    store: PathBuf,
    trials: Vec<Entry>,
    warmup: Vec<usize>,
    picks: Vec<usize>,
    /// Expected rendered report, by sampled request index.
    expected: BTreeMap<usize, String>,
}

/// Experiment names for each shard, `EXPERIMENTS / SHARDS` per shard.
fn experiments_by_shard() -> Vec<Vec<String>> {
    let mut by_shard = vec![Vec::new(); SHARDS];
    let per_shard = EXPERIMENTS / SHARDS;
    for k in 0.. {
        let name = format!("exp{k}");
        let shard = shard_of(APP, &name, SHARDS);
        if by_shard[shard].len() < per_shard {
            by_shard[shard].push(name);
        }
        if by_shard.iter().all(|names| names.len() == per_shard) {
            break;
        }
    }
    by_shard
}

/// Event count of the trial at popularity rank `rank`: golden-ratio
/// steps through the log-size range, so every band of ranks holds the
/// whole size mix.
fn events_at(rank: usize) -> usize {
    let u = (0.5 + rank as f64 * 0.618_033_988_749_895).fract();
    (MIN_EVENTS.ln() + u * (MAX_EVENTS.ln() - MIN_EVENTS.ln()))
        .exp()
        .round() as usize
}

impl Cold {
    /// Trial `i` is the one at popularity rank `i`. Its size and home
    /// shard are fixed by the rank, the same for every seed; the seed
    /// draws the trials' contents, the request sequence and the warm-up
    /// order. So a seed changes which requests run, not the mix of
    /// sizes and shards a run averages over.
    pub fn new(seed: u64, workers: usize, dir: &Path) -> Cold {
        let mut shapes = util::rng(seed, 1);
        let by_shard = experiments_by_shard();
        let trials: Vec<Entry> = (0..TRIALS)
            .map(|i| {
                let homes = &by_shard[i % SHARDS];
                Entry {
                    experiment: homes[(i / SHARDS) % homes.len()].clone(),
                    name: format!("t{i}"),
                }
            })
            .collect();
        // The trials themselves live only in the store; the service and
        // the replay read them back from it.
        let mut repo = Repository::new();
        for (i, e) in trials.iter().enumerate() {
            let trial = synth::trial(&mut shapes, &e.name, events_at(i), synth::imbalanced(i));
            repo.upsert_trial(APP, &e.experiment, trial);
        }
        let store = dir.join("cold.pdb1");
        std::fs::write(&store, repo.to_pdb1()).expect("write the PDB1 store");

        let mut picks_rng = util::rng(seed, 2);
        let mut warmup: Vec<usize> = (0..TRIALS).collect();
        util::shuffle(&mut picks_rng, &mut warmup);
        let zipf = Zipf::new(TRIALS, ZIPF_EXPONENT);
        let picks: Vec<usize> = (0..REQUESTS).map(|_| zipf.sample(&mut picks_rng)).collect();

        let mut oracle_rng = util::rng(seed, 3);
        let mut expected = BTreeMap::new();
        while expected.len() < ORACLE_SAMPLE {
            let index = oracle_rng.random_range(0..REQUESTS);
            let e = &trials[picks[index]];
            let trial = repo
                .trial(APP, &e.experiment, &e.name)
                .expect("generated trial");
            let strict = perfexplorer::workflow::analyze_load_balance(trial, METRIC)
                .expect("strict workflow on a generated trial");
            expected.insert(index, strict.rendered);
        }
        Cold {
            workers,
            store,
            trials,
            warmup,
            picks,
            expected,
        }
    }

    fn request(&self, i: usize) -> Request {
        let e = &self.trials[i];
        Request::AnalyzeBalance {
            app: APP.into(),
            experiment: e.experiment.clone(),
            trial: e.name.clone(),
            metric: METRIC.into(),
        }
    }
}

/// The shard LRUs as the service keeps them: per shard, most recently
/// used last, evicting the front when full.
struct LruMirror {
    shards: Vec<Vec<(usize, Arc<Trial>)>>,
}

impl LruMirror {
    fn get(&mut self, shard: usize, trial: usize) -> Option<Arc<Trial>> {
        let lru = &mut self.shards[shard];
        let pos = lru.iter().position(|(k, _)| *k == trial)?;
        let entry = lru.remove(pos);
        let found = Arc::clone(&entry.1);
        lru.push(entry);
        Some(found)
    }

    fn insert(&mut self, shard: usize, trial: usize, value: Arc<Trial>) {
        let lru = &mut self.shards[shard];
        if lru.len() >= CACHE_CAPACITY {
            lru.remove(0);
        }
        lru.push((trial, value));
    }
}

/// `analyze_load_balance_supervised`, stage by stage, each layer call
/// in its own span.
fn supervised_workflow(t: &mut Tracer, trial: &Trial, work: &mut Work) -> (String, usize) {
    t.span("core.workflow.supervised", |t| {
        let config = SupervisorConfig::default();
        let mut sup = Supervisor::new(config.clone());
        let facts = sup.run_stage("load-balance facts", || {
            t.span("core.loadbalance.analyze", |_| {
                loadbalance::analyze(trial, METRIC).map(|a| a.facts())
            })
        });
        let engine = sup.run_stage("rulebase", || {
            t.span("rules.engine_build", |_| engine_with(LOAD_BALANCE_RULES))
                .map(|e| e.with_cycle_limit(config.rule_firing_budget))
        });
        let mut engine = engine.expect("rulebase builds");
        let facts = facts.expect("facts of a generated trial");
        *work.entry("facts").or_default() += facts.len() as u64;
        t.span("rules.assert", |_| {
            for fact in facts {
                engine.assert_fact(fact);
            }
        });
        let report = t
            .span("rules.run", |_| engine.run())
            .expect("rule run within budget");
        *work.entry("firings").or_default() += report.firings.len() as u64;
        let degraded = sup.into_degraded();
        let rendered = t.span("core.recommend.render", |_| {
            let mut cost_model = openuh::cost::CostModel::default();
            let _feedback = compiler_feedback(&report, &mut cost_model);
            render_report_degraded(&report, &degraded)
        });
        (rendered, report.diagnoses.len())
    })
}

impl Workload for Cold {
    fn clients(&self) -> usize {
        1
    }

    fn passes_per_second(&self) -> f64 {
        PASSES_PER_SECOND
    }

    fn start(&self, _dir: &Path) -> AnalysisService {
        let config = ServiceConfig {
            shards: SHARDS,
            workers: self.workers,
            cache_capacity: CACHE_CAPACITY,
            ..ServiceConfig::default()
        };
        let svc = AnalysisService::open(config, &self.store).expect("open the PDB1 store");
        // Warm-up: every trial once, so first-touch page faults of the
        // mapping land in set-up.
        let client = svc.client();
        for &i in &self.warmup {
            let reply = client.call(self.request(i)).expect("service alive");
            assert!(
                reply.is_clean(),
                "warm-up request failed: {:?}",
                reply.outcome
            );
        }
        svc
    }

    fn requests(&self) -> Vec<Vec<Request>> {
        vec![self.picks.iter().map(|&i| self.request(i)).collect()]
    }

    fn check(&self, _client: usize, index: usize, outcome: &Outcome) -> bool {
        match (outcome, self.expected.get(&index)) {
            (Outcome::Report { rendered, .. }, Some(expected)) => rendered == expected,
            (Outcome::Report { .. }, None) => true,
            _ => false,
        }
    }

    fn replay(&self, _dir: &Path, tracer: &mut Tracer) -> (Work, Duration) {
        let cold = MappedRepository::open(&self.store).expect("open the PDB1 store");
        let mut lru = LruMirror {
            shards: vec![Vec::new(); SHARDS],
        };
        let mut lookup = |t: &mut Tracer, i: usize, work: &mut Work| -> Arc<Trial> {
            let e = &self.trials[i];
            let shard = shard_of(APP, &e.experiment, SHARDS);
            if let Some(hit) = t.span("service.cache_lookup", |_| lru.get(shard, i)) {
                *work.entry("cache_hits").or_default() += 1;
                return hit;
            }
            let trial = t.span("perfdmf.mapped.to_trial", |_| {
                cold.view(APP, &e.experiment, &e.name)
                    .and_then(|v| v.to_trial())
                    .expect("materialize a stored trial")
            });
            *work.entry("cache_misses").or_default() += 1;
            let trial = Arc::new(trial);
            lru.insert(shard, i, Arc::clone(&trial));
            trial
        };
        let mut quiet = Tracer::new(false);
        let mut warm_work = Work::new();
        for &i in &self.warmup {
            let trial = lookup(&mut quiet, i, &mut warm_work);
            supervised_workflow(&mut quiet, &trial, &mut warm_work);
        }

        let mut work: Work = SERVICE_WORK.iter().map(|&k| (k, 0)).collect();
        let start = Instant::now();
        for (index, &i) in self.picks.iter().enumerate() {
            tracer.request(|t| {
                let trial = lookup(t, i, &mut work);
                let (rendered, diagnoses) = supervised_workflow(t, &trial, &mut work);
                *work.entry("diagnoses").or_default() += diagnoses as u64;
                if let Some(expected) = self.expected.get(&index) {
                    assert_eq!(&rendered, expected, "replayed report differs from strict");
                }
            });
        }
        let wall = start.elapsed();
        work.insert("requests", self.picks.len() as u64);
        (work, wall)
    }
}
