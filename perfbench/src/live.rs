//! `live_ingest`: `nproc` clients stream JSON chunk batches into trials
//! they own, asking for an incremental diagnosis after every chunk. Tenants are shared between clients, so shard locks are
//! contended, but each trial has one owner, so its chunk order — and
//! with it every count — is fixed by the seed.

use crate::harness::{Work, Workload, SERVICE_WORK};
use crate::synth::{self, THREADS};
use crate::trace::Tracer;
use crate::util;
use perfdmf::wal::{FsyncPolicy, Journal, WalRecord};
use perfdmf::{ChunkBatch, ColumnDelta, Measurement, StreamingTrial};
use perfexplorer::AnalysisState;
use rand::prelude::*;
use service::{shard_of, AnalysisService, Outcome, Request, ServiceConfig};
use std::collections::HashMap;
use std::path::Path;
use std::time::{Duration, Instant};

const SHARDS: usize = 8;
const TENANTS: usize = 4;
const EXPERIMENT: &str = "stream";
/// Trials in the timed phase, dealt round-robin to the clients: the
/// total work does not depend on the client count. Trial and chunk
/// counts are assumptions, not measured traffic: enough chunks per
/// trial that incremental updates outnumber state builds 40 to 1, few
/// enough trials that a pass stays under half a second on two cores.
const TRIALS: usize = 20;
const CHUNKS: usize = 40;
/// An analysis follows every `ANALYZE_EVERY` chunks of a trial; every
/// chunk, as the service's own streaming load generator
/// (`loadgen --streaming`) does.
const ANALYZE_EVERY: usize = 1;
const WARM_TRIALS: usize = 2;
const WARM_CHUNKS: usize = 8;
const METRIC: &str = "TIME";
/// Passes per second of `--seconds` (see `Workload::passes_per_second`).
const PASSES_PER_SECOND: f64 = 2.5;

struct Stream {
    app: String,
    name: String,
    chunks: Vec<String>,
    /// Strict batch report of the reassembled trial.
    expected: String,
}

fn measurement(v: f64) -> Measurement {
    Measurement {
        inclusive: v,
        exclusive: v,
        calls: 1.0,
        subcalls: 0.0,
    }
}

fn delta(event: &str, values: &[f64]) -> ColumnDelta {
    ColumnDelta {
        metric: METRIC.into(),
        event: event.into(),
        event_kind: None,
        cells: values
            .iter()
            .enumerate()
            .map(|(t, &v)| (t as u32, measurement(v)))
            .collect(),
    }
}

/// The chunk batches a profiler flushes for one run: every flush adds
/// time to the `solve`/`sweep` pair and to a few padding regions, some
/// already seen and some new, plus the matching `main` time.
fn batches(rng: &mut StdRng, j: usize, chunks: usize) -> Vec<ChunkBatch> {
    // Sizes and the imbalanced share follow the trial index, so the
    // seed changes the contents, not the size mix.
    let fillers = 32 + (j * 29) % 64;
    let imbalance = synth::Imbalance::draw(rng, synth::imbalanced(j));
    let mut seen = 0;
    (0..chunks)
        .map(|seq| {
            let mut busy = [0.0; THREADS];
            let base = rng.random_range(2.0..4.0);
            let (sweep, wait): (Vec<f64>, Vec<f64>) =
                imbalance.split(rng, base).into_iter().unzip();
            let mut deltas = vec![
                delta("main => solve", &wait),
                delta("main => solve => sweep", &sweep),
            ];
            for t in 0..THREADS {
                busy[t] += sweep[t] + wait[t];
            }
            let fresh = (fillers - seen).min(rng.random_range(1..=4));
            let revisits = if seen > 0 { rng.random_range(1..=4) } else { 0 };
            let mut touched: Vec<usize> = (seen..seen + fresh).collect();
            touched.extend((0..revisits).map(|_| rng.random_range(0..seen.max(1))));
            seen += fresh;
            for k in touched {
                let mean = rng.random_range(0.001..0.03);
                let values: Vec<f64> = (0..THREADS)
                    .map(|_| mean * rng.random_range(0.5..1.5))
                    .collect();
                for (b, v) in busy.iter_mut().zip(&values) {
                    *b += v;
                }
                deltas.push(delta(&synth::filler_name(k, fillers), &values));
            }
            let main: Vec<f64> = busy
                .iter()
                .map(|b| b + rng.random_range(0.1..0.2))
                .collect();
            let mut main_delta = delta("main", &main);
            for (cell, own) in main_delta.cells.iter_mut().zip(&main) {
                cell.1.exclusive = own - busy[cell.0 as usize];
            }
            deltas.insert(0, main_delta);
            ChunkBatch {
                seq: seq as u64,
                threads: THREADS as u32,
                deltas,
            }
        })
        .collect()
}

fn stream(rng: &mut StdRng, j: usize, app: String, name: String, chunks: usize) -> Stream {
    let batches = batches(rng, j, chunks);
    let mut assembled = StreamingTrial::new(name.clone(), THREADS);
    for b in &batches {
        assembled.apply_chunk(b).expect("apply a generated chunk");
    }
    let expected = perfexplorer::workflow::analyze_load_balance(assembled.trial(), METRIC)
        .expect("strict workflow on a reassembled trial")
        .rendered;
    Stream {
        app,
        name,
        chunks: batches
            .iter()
            .map(|b| serde_json::to_string(b).expect("serialize a chunk"))
            .collect(),
        expected,
    }
}

/// What the reply to one request must be.
#[derive(Clone, Copy)]
enum Expect {
    Chunk,
    Report,
    FinalReport(usize),
}

pub struct Live {
    clients: usize,
    workers: usize,
    streams: Vec<Stream>,
    warm: Vec<Stream>,
    /// Per client: (stream, chunk or analysis, expected reply) in order.
    plan: Vec<Vec<(usize, Option<usize>, Expect)>>,
}

impl Live {
    pub fn new(seed: u64, clients: usize, workers: usize) -> Live {
        let mut rng = util::rng(seed, 11);
        let streams: Vec<Stream> = (0..TRIALS)
            .map(|j| {
                // Neighbouring trials share a tenant but not an owner.
                let app = format!("live{}", (j / 2) % TENANTS);
                stream(&mut rng, j, app, format!("run{j}"), CHUNKS)
            })
            .collect();
        let mut warm_rng = util::rng(seed, 12);
        let warm = (0..WARM_TRIALS)
            .map(|j| {
                stream(
                    &mut warm_rng,
                    j,
                    "warmup".into(),
                    format!("warm{j}"),
                    WARM_CHUNKS,
                )
            })
            .collect();
        let plan = (0..clients)
            .map(|c| {
                let owned: Vec<usize> = (c..TRIALS).step_by(clients).collect();
                let mut ops = Vec::new();
                for step in 0..CHUNKS {
                    for &j in &owned {
                        ops.push((j, Some(step), Expect::Chunk));
                        if (step + 1) % ANALYZE_EVERY == 0 {
                            let expect = if step + 1 == CHUNKS {
                                Expect::FinalReport(j)
                            } else {
                                Expect::Report
                            };
                            ops.push((j, None, expect));
                        }
                    }
                }
                ops
            })
            .collect();
        Live {
            clients,
            workers,
            streams,
            warm,
            plan,
        }
    }
}

fn request(s: &Stream, chunk: Option<usize>) -> Request {
    match chunk {
        Some(i) => Request::IngestChunk {
            app: s.app.clone(),
            experiment: EXPERIMENT.into(),
            trial: s.name.clone(),
            chunk: s.chunks[i].clone(),
        },
        None => Request::AnalyzeBalance {
            app: s.app.clone(),
            experiment: EXPERIMENT.into(),
            trial: s.name.clone(),
            metric: METRIC.into(),
        },
    }
}

fn warm_requests(warm: &[Stream]) -> Vec<Request> {
    warm.iter()
        .flat_map(|s| {
            (0..s.chunks.len())
                .map(Some)
                .chain([None])
                .map(move |c| request(s, c))
        })
        .collect()
}

/// The handler path for streamed trials: in-flight streams with their
/// incremental state, and one journal per shard.
struct Mirror {
    journals: Vec<Journal>,
    streams: HashMap<(String, String), (StreamingTrial, Option<AnalysisState>)>,
}

impl Mirror {
    fn serve(&mut self, t: &mut Tracer, request: Request, work: &mut Work) -> Option<String> {
        match request {
            Request::IngestChunk {
                app,
                experiment,
                trial,
                chunk,
            } => {
                let batch: ChunkBatch = t
                    .span("perfdmf.json.chunk_decode", |_| {
                        serde_json::from_str(&chunk)
                    })
                    .expect("decode a generated chunk");
                let shard = shard_of(&app, &experiment, SHARDS);
                let (stream, state) = self
                    .streams
                    .entry((app.clone(), trial.clone()))
                    .or_insert_with(|| (StreamingTrial::new(&trial, batch.threads as usize), None));
                if !stream.contains_seq(batch.seq) {
                    let record = WalRecord::Chunk {
                        app,
                        experiment,
                        trial,
                        batch: batch.clone(),
                    };
                    let journal = &mut self.journals[shard];
                    t.span("perfdmf.wal.append", |_| journal.append(&record))
                        .expect("journal append");
                    *work.entry("wal_appends").or_default() += 1;
                }
                let applied = t
                    .span("perfdmf.streaming.apply_chunk", |_| {
                        stream.apply_chunk(&batch)
                    })
                    .expect("apply a generated chunk");
                if let Some(s) = state.as_mut() {
                    let updated = t.span("core.incremental.update", |_| {
                        s.update(stream.trial(), &applied)
                    });
                    if updated.is_err() {
                        *state = None;
                    }
                }
                None
            }
            Request::AnalyzeBalance { app, trial, .. } => {
                let (stream, state) = self
                    .streams
                    .get_mut(&(app, trial))
                    .expect("analysis follows the stream's first chunk");
                if state.is_none() {
                    let built = t.span("core.incremental.build", |_| {
                        AnalysisState::new(stream.trial(), METRIC)
                    });
                    *state = Some(built.expect("build the incremental state"));
                    *work.entry("state_rebuilds").or_default() += 1;
                }
                let s = state.as_ref().expect("state was just ensured");
                let report = t
                    .span("core.incremental.report", |_| s.report())
                    .expect("incremental report");
                *work.entry("incremental_analyses").or_default() += 1;
                *work.entry("diagnoses").or_default() += report.report.diagnoses.len() as u64;
                Some(report.rendered)
            }
            other => unreachable!("live_ingest sends no {other:?}"),
        }
    }
}

fn journal_bytes(dir: &Path) -> u64 {
    (0..SHARDS)
        .filter_map(|i| std::fs::metadata(dir.join(format!("shard-{i}.wal"))).ok())
        .map(|m| m.len())
        .sum()
}

impl Workload for Live {
    fn clients(&self) -> usize {
        self.clients
    }

    fn passes_per_second(&self) -> f64 {
        PASSES_PER_SECOND
    }

    fn start(&self, dir: &Path) -> AnalysisService {
        let svc = AnalysisService::start(ServiceConfig {
            shards: SHARDS,
            workers: self.workers,
            wal_dir: Some(dir.join("wal")),
            wal_fsync: FsyncPolicy::Never,
            ..ServiceConfig::default()
        });
        let client = svc.client();
        for request in warm_requests(&self.warm) {
            let reply = client.call(request).expect("service alive");
            assert!(
                reply.is_clean(),
                "warm-up request failed: {:?}",
                reply.outcome
            );
        }
        svc
    }

    fn requests(&self) -> Vec<Vec<Request>> {
        self.plan
            .iter()
            .map(|ops| {
                ops.iter()
                    .map(|&(j, chunk, _)| request(&self.streams[j], chunk))
                    .collect()
            })
            .collect()
    }

    fn check(&self, client: usize, index: usize, outcome: &Outcome) -> bool {
        match (self.plan[client][index].2, outcome) {
            (Expect::Chunk, Outcome::ChunkIngested { duplicate, .. }) => !duplicate,
            (Expect::Report, Outcome::Report { .. }) => true,
            (Expect::FinalReport(j), Outcome::Report { rendered, .. }) => {
                *rendered == self.streams[j].expected
            }
            _ => false,
        }
    }

    fn replay(&self, dir: &Path, tracer: &mut Tracer) -> (Work, Duration) {
        let wal = dir.join("replay-wal");
        let _ = std::fs::remove_dir_all(&wal);
        std::fs::create_dir_all(&wal).expect("create the replay journal directory");
        let mut mirror = Mirror {
            journals: (0..SHARDS)
                .map(|i| {
                    Journal::open(&wal.join(format!("shard-{i}.wal")), FsyncPolicy::Never)
                        .expect("open a replay journal")
                        .0
                })
                .collect(),
            streams: HashMap::new(),
        };
        let mut quiet = Tracer::new(false);
        let mut warm_work = Work::new();
        for request in warm_requests(&self.warm) {
            mirror.serve(&mut quiet, request, &mut warm_work);
        }

        // One request at a time, the clients' lists interleaved in turn.
        let mut lists: Vec<_> = self
            .requests()
            .into_iter()
            .zip(&self.plan)
            .map(|(requests, plan)| requests.into_iter().zip(plan.iter()).peekable())
            .collect();
        let mut work: Work = SERVICE_WORK.iter().map(|&k| (k, 0)).collect();
        let bytes_before = journal_bytes(&wal);
        let mut requests = 0;
        let start = Instant::now();
        while lists.iter_mut().any(|l| l.peek().is_some()) {
            for list in &mut lists {
                let Some((request, &(_, _, expect))) = list.next() else {
                    continue;
                };
                requests += 1;
                let rendered = tracer.request(|t| mirror.serve(t, request, &mut work));
                if let (Expect::FinalReport(j), Some(rendered)) = (expect, rendered) {
                    assert_eq!(
                        rendered, self.streams[j].expected,
                        "replayed report differs from batch"
                    );
                }
            }
        }
        let wall = start.elapsed();
        work.insert("requests", requests);
        work.insert("wal_bytes", journal_bytes(&wal) - bytes_before);
        drop(mirror);
        let _ = std::fs::remove_dir_all(&wal);
        (work, wall)
    }
}
