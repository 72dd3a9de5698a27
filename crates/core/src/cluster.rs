//! Thread-behaviour clustering.
//!
//! PerfExplorer's original data-mining repertoire clusters threads by
//! their per-event time vectors to reveal distinct behavioural classes
//! (e.g. master vs workers, or node-0 threads vs remote threads). This
//! module reimplements that operation: build one vector per thread over
//! the significant events, k-means it with silhouette-guided `k`
//! selection, and emit facts describing the groups.

use crate::{AnalysisError, Result};
use perfdmf::{EventId, Trial, MAIN_EVENT};
use rayon::prelude::*;
use rules::{Fact, FactType, Value};
use serde::{Deserialize, Serialize};
use statistics::cluster::{kmeans_flat, silhouette_flat, FlatKMeans, KMeansConfig};
use statistics::matrix::{sq_dist, DenseMatrix, MatrixView};

/// Silhouette floor below which a clustering collapses to one group.
const MIN_SILHOUETTE: f64 = 0.25;

/// One discovered thread group.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ThreadGroup {
    /// Threads (flat indices) in the group.
    pub threads: Vec<usize>,
    /// Centroid over the event dimensions.
    pub centroid: Vec<f64>,
}

/// Result of clustering a trial's threads.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ThreadClustering {
    /// Events used as dimensions, in centroid order.
    pub events: Vec<String>,
    /// Chosen cluster count.
    pub k: usize,
    /// Mean silhouette of the chosen clustering (0 when `k == 1`).
    pub silhouette: f64,
    /// The groups, largest first.
    pub groups: Vec<ThreadGroup>,
}

/// Schema of the clustering summary fact.
pub(crate) static THREAD_CLUSTER_SUMMARY: FactType =
    FactType::new("ThreadClusterSummary", &["clusters", "silhouette"]);

/// Schema of the per-group cluster fact.
pub(crate) static THREAD_CLUSTER_FACT: FactType =
    FactType::new("ThreadClusterFact", &["cluster", "size", "dominantEvent"]);

impl ThreadClustering {
    /// Facts for rule-based interpretation: one `ThreadClusterFact` per
    /// group with its size and dominant event, plus a summary fact.
    pub fn facts(&self) -> Vec<Fact> {
        let mut out =
            vec![THREAD_CLUSTER_SUMMARY.fact([Value::from(self.k), Value::Num(self.silhouette)])];
        for (i, g) in self.groups.iter().enumerate() {
            let dominant = g
                .centroid
                .iter()
                .enumerate()
                .max_by(|a, b| a.1.partial_cmp(b.1).unwrap_or(std::cmp::Ordering::Equal))
                .map(|(j, _)| self.events[j].clone())
                .unwrap_or_default();
            out.push(THREAD_CLUSTER_FACT.fact([
                Value::from(i),
                Value::from(g.threads.len()),
                Value::from(dominant),
            ]));
        }
        out
    }
}

/// Clusters a trial's threads by their per-event exclusive times of
/// `metric`, trying `k = 2 ..= max_k` and keeping the best silhouette;
/// falls back to a single group when nothing separates well
/// (silhouette < 0.25) or there are too few threads.
pub fn cluster_threads(trial: &Trial, metric: &str, max_k: usize) -> Result<ThreadClustering> {
    let (events, columns, threads) = gather_feature_columns(trial, metric)?;
    cluster_columns(events, &columns, threads, max_k)
}

/// Extracts the clustering dimensions from an owned trial: every
/// non-main event with any nonzero exclusive value of `metric`, as one
/// per-thread column each. Each column is an independent read of one
/// contiguous arena column, so extraction fans out over rayon.
fn gather_feature_columns(
    trial: &Trial,
    metric: &str,
) -> Result<(Vec<String>, Vec<Vec<f64>>, usize)> {
    let profile = &trial.profile;
    let threads = profile.thread_count();
    if threads == 0 {
        return Err(AnalysisError::Invalid("trial has no threads".into()));
    }
    let m = profile
        .metric_id(metric)
        .ok_or_else(|| AnalysisError::MissingMetric(metric.to_string()))?;
    let extracted: Vec<Option<(String, Vec<f64>)>> = (0..profile.event_count())
        .into_par_iter()
        .map(|ei| {
            let e = profile.event(EventId(ei as u32));
            if &*e.name == MAIN_EVENT {
                return None;
            }
            let v: Vec<f64> = profile
                .column(EventId(ei as u32), m)
                .iter()
                .map(|c| c.exclusive)
                .collect();
            v.iter().any(|&x| x != 0.0).then(|| (e.name.to_string(), v))
        })
        .collect();
    let mut events = Vec::new();
    let mut columns: Vec<Vec<f64>> = Vec::new();
    for (name, v) in extracted.into_iter().flatten() {
        events.push(name);
        columns.push(v);
    }
    Ok((events, columns, threads))
}

/// The clustering core over per-event feature columns (one column of
/// `threads` exclusive times per event).
fn cluster_columns(
    events: Vec<String>,
    columns: &[Vec<f64>],
    threads: usize,
    max_k: usize,
) -> Result<ThreadClustering> {
    if events.is_empty() {
        return Err(AnalysisError::Invalid(
            "no nonzero events to cluster on".into(),
        ));
    }
    // One flat threads × events point matrix, normalised by the global
    // maximum so distances are relative to the trial's dominant cost.
    // Per-dimension normalisation would amplify negligible jitter on
    // cheap events into spurious clusters (silhouette is
    // scale-invariant, so "tiny but consistent" looks like structure).
    let global_max = columns
        .iter()
        .flat_map(|c| c.iter().copied())
        .fold(0.0, f64::max)
        .max(1e-300);
    let mut points = DenseMatrix::zeros(threads, events.len());
    for (j, col) in columns.iter().enumerate() {
        for (t, &v) in col.iter().enumerate() {
            points.row_mut(t)[j] = v / global_max;
        }
    }
    let view = points.view();

    if threads < 4 || max_k < 2 {
        return Ok(single_group(events, view));
    }

    // Absolute spread guard: if no pair of threads differs by a
    // meaningful fraction of the dominant cost, there is one behaviour
    // class regardless of what a scale-invariant silhouette would say.
    // One pair past the threshold proves structure, so stop there
    // instead of scanning all O(n²) pairs.
    const SPREAD: f64 = 0.05;
    let mut has_spread = false;
    'pairs: for a in 0..threads {
        for b in (a + 1)..threads {
            if sq_dist(view.row(a), view.row(b)) >= SPREAD * SPREAD {
                has_spread = true;
                break 'pairs;
            }
        }
    }
    if !has_spread {
        return Ok(single_group(events, view));
    }

    // (silhouette, k, flat clustering). Each candidate k is an
    // independent kmeans + silhouette run over the shared view,
    // evaluated in parallel; centroids stay in one matrix per candidate
    // instead of k cloned Vecs.
    type Candidate = (f64, usize, FlatKMeans);
    let candidates: Vec<Option<Candidate>> = (2..=max_k.min(threads - 1))
        .into_par_iter()
        .map(move |k| {
            let cfg = KMeansConfig {
                k,
                ..Default::default()
            };
            let res = kmeans_flat(view, &cfg).ok()?;
            let s = silhouette_flat(view, &res.assignments).ok()?;
            Some((s, k, res))
        })
        .collect();
    let mut best: Option<Candidate> = None;
    for cand in candidates.into_iter().flatten() {
        if best.as_ref().is_none_or(|(bs, ..)| cand.0 > *bs) {
            best = Some(cand);
        }
    }

    match best {
        Some((s, _, res)) if s >= MIN_SILHOUETTE => Ok(clustering_from(events, s, &res)),
        _ => Ok(single_group(events, view)),
    }
}

/// The single-group fallback clustering: every thread together, the
/// centroid at the per-dimension mean.
fn single_group(events: Vec<String>, points: MatrixView<'_>) -> ThreadClustering {
    let centroid = (0..points.cols())
        .map(|j| (0..points.rows()).map(|t| points.get(t, j)).sum::<f64>() / points.rows() as f64)
        .collect();
    ThreadClustering {
        events,
        k: 1,
        silhouette: 0.0,
        groups: vec![ThreadGroup {
            threads: (0..points.rows()).collect(),
            centroid,
        }],
    }
}

/// Builds the public clustering shape from a flat k-means result:
/// non-empty groups, largest first.
fn clustering_from(events: Vec<String>, silhouette: f64, res: &FlatKMeans) -> ThreadClustering {
    let k = res.centroids.rows();
    let mut groups: Vec<ThreadGroup> = (0..k)
        .map(|c| ThreadGroup {
            threads: res
                .assignments
                .iter()
                .enumerate()
                .filter(|(_, &a)| a == c)
                .map(|(t, _)| t)
                .collect(),
            centroid: res.centroids.row(c).to_vec(),
        })
        .filter(|g| !g.threads.is_empty())
        .collect();
    groups.sort_by_key(|g| std::cmp::Reverse(g.threads.len()));
    ThreadClustering {
        events,
        k: groups.len(),
        silhouette,
        groups,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use apps::genidlest::{self, CodeVersion, GenIdlestConfig, Paradigm, Problem};
    use apps::msa::{self, MsaConfig};
    use perfdmf::{Measurement, TrialBuilder};
    use simulator::openmp::Schedule;

    #[test]
    fn separates_node0_threads_in_unoptimized_genidlest() {
        // Threads on node 0 run local; everyone else pays remote
        // latency — clustering must find exactly that split.
        let mut c = GenIdlestConfig::new(
            Problem::Rib90,
            Paradigm::OpenMp,
            CodeVersion::Unoptimized,
            16,
        );
        c.timesteps = 2;
        let trial = genidlest::run(&c);
        let clustering = cluster_threads(&trial, "TIME", 4).unwrap();
        assert!(clustering.k >= 2, "expected distinct behaviour classes");
        assert!(clustering.silhouette > 0.5);
        // Thread 0 — the master that runs the serialised exchange — is
        // its own behaviour class.
        assert!(
            clustering.groups.iter().any(|g| g.threads == vec![0]),
            "thread 0 not isolated: {:?}",
            clustering
                .groups
                .iter()
                .map(|g| &g.threads)
                .collect::<Vec<_>>()
        );
    }

    #[test]
    fn msa_static_schedule_shows_structure_dynamic_does_not() {
        // Static scheduling creates load classes (early threads carry
        // heavy rows); dynamic,1 flattens them away.
        // Plenty of iterations per thread, so dynamic,1 really smooths
        // the distribution (64 iterations on 16 threads would leave
        // residual chunk-granularity classes).
        let run = |schedule| {
            let mut config = MsaConfig::paper_400(8, schedule);
            config.sequences = 128;
            msa::run(&config)
        };
        let stat = cluster_threads(&run(Schedule::Static), "TIME", 4).unwrap();
        let dynamic = cluster_threads(&run(Schedule::Dynamic(1)), "TIME", 4).unwrap();
        assert!(stat.k >= 2, "static run should show behaviour classes");
        // The dynamic run's only structure is the master thread's serial
        // stages: thread 0 alone, every worker together.
        assert!(dynamic.k <= 2, "dynamic,1 run split too finely");
        if dynamic.k == 2 {
            assert!(
                dynamic.groups.iter().any(|g| g.threads == vec![0]),
                "only the master may stand apart: {:?}",
                dynamic
                    .groups
                    .iter()
                    .map(|g| &g.threads)
                    .collect::<Vec<_>>()
            );
        }
    }

    #[test]
    fn symmetric_trial_is_one_group() {
        let mut b = TrialBuilder::with_flat_threads("sym", 8);
        let time = b.metric("TIME");
        let main = b.event("main");
        let k = b.event("main => k");
        for t in 0..8 {
            b.set(
                main,
                time,
                t,
                Measurement {
                    inclusive: 2.0,
                    exclusive: 1.0,
                    calls: 1.0,
                    subcalls: 1.0,
                },
            );
            // Tiny jitter, far below any meaningful split.
            b.set(k, time, t, Measurement::leaf(1.0 + 1e-6 * t as f64));
        }
        let clustering = cluster_threads(&b.build(), "TIME", 4).unwrap();
        assert_eq!(clustering.k, 1, "symmetric threads must not split");
        assert_eq!(clustering.groups[0].threads.len(), 8);
    }

    #[test]
    fn facts_describe_groups() {
        let mut c = GenIdlestConfig::new(
            Problem::Rib90,
            Paradigm::OpenMp,
            CodeVersion::Unoptimized,
            16,
        );
        c.timesteps = 1;
        let trial = genidlest::run(&c);
        let clustering = cluster_threads(&trial, "TIME", 4).unwrap();
        let facts = clustering.facts();
        assert_eq!(facts[0].fact_type(), "ThreadClusterSummary");
        assert_eq!(facts[0].get_num("clusters"), Some(clustering.k as f64));
        assert_eq!(facts.len(), clustering.k + 1);
        assert!(facts[1].get_str("dominantEvent").is_some());
    }

    #[test]
    fn degenerate_inputs() {
        // All-zero events: error.
        let mut b = TrialBuilder::with_flat_threads("z", 4);
        let time = b.metric("TIME");
        let main = b.event("main");
        let k = b.event("main => k");
        for t in 0..4 {
            b.set(main, time, t, Measurement::leaf(1.0));
            b.set(k, time, t, Measurement::default());
        }
        assert!(cluster_threads(&b.build(), "TIME", 4).is_err());

        // Too few threads: single group, no panic.
        let mut b = TrialBuilder::with_flat_threads("s", 2);
        let time = b.metric("TIME");
        let main = b.event("main");
        let k = b.event("main => k");
        for t in 0..2 {
            b.set(main, time, t, Measurement::leaf(1.0));
            b.set(k, time, t, Measurement::leaf((t + 1) as f64));
        }
        let c = cluster_threads(&b.build(), "TIME", 4).unwrap();
        assert_eq!(c.k, 1);
    }

    #[test]
    fn missing_metric_is_error() {
        let mut config = MsaConfig::paper_400(4, Schedule::Static);
        config.sequences = 32;
        let trial = msa::run(&config);
        assert!(cluster_threads(&trial, "NOPE", 4).is_err());
    }
}
