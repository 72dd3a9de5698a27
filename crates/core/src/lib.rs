//! PerfExplorer-style automated performance analysis and knowledge
//! engineering.
//!
//! This crate is the paper's primary contribution: a data-mining and
//! inference layer over parallel profiles that captures performance
//! expertise as reusable scripts and rules.
//!
//! * [`result`] — trial views (`TrialResult`, `TrialMeanResult`)
//!   mirroring the objects the paper's Jython scripts manipulate.
//! * [`derive`](mod@derive) — `DeriveMetricOperation`: building derived metrics such
//!   as `(BACK_END_BUBBLE_ALL / CPU_CYCLES)` from measured ones.
//! * [`facts`] — turning profile observations into inference-engine
//!   facts (`MeanEventFact::compare_event_to_main`, distribution facts).
//! * [`loadbalance`] — the §III-A analysis: stddev/mean ratios,
//!   callpath nesting, per-thread inner/outer correlation.
//! * [`metrics`] — the §III-B metric chain: the inefficiency formula,
//!   Jarp-style total-stall decomposition, the memory-stall model and
//!   the remote-access ratio.
//! * [`scalability`] — speedup and relative-efficiency series across
//!   trial sets, whole-program and per-event.
//! * [`powerenergy`] — the §III-C power/energy metrics over the paper's
//!   Eq. (1)–(2) power model, including Table I generation.
//! * [`rulebase`] — the shipped knowledge bases (load imbalance, stall
//!   decomposition, memory locality, power/energy) in the textual rule
//!   language, plus loaders.
//! * [`recommend`] — rendering diagnoses into user recommendations and
//!   compiler feedback (via `openuh::feedback`).
//! * [`workflow`] — the three case studies, one stage pipeline each, run
//!   under a strict (fail-fast) or supervised (degrading) policy.
//! * [`supervise`] — the stage supervisor behind the supervised policy
//!   and script runners: panic isolation, wall/firing budgets,
//!   deadlines, degradation records.
//! * [`scripting`] — the whole API exposed to the embedded scripting
//!   language, so workflows can be written as scripts (paper Fig. 1).
//! * [`cluster`] — thread-behaviour clustering (PerfExplorer's k-means
//!   data mining over per-thread event vectors).
//! * [`compare`] — CUBE-style cross-trial comparison with regression/
//!   improvement detection.
//! * [`assertions`] — Vetter/Worley-style performance assertions over
//!   trials.

#![warn(missing_docs)]

pub mod assertions;
pub mod charts;
pub mod cluster;
pub mod compare;
pub mod derive;
pub mod error;
pub mod facts;
pub mod incremental;
pub mod loadbalance;
pub mod metrics;
pub mod powerenergy;
pub mod recommend;
pub mod result;
pub mod rulebase;
pub mod scalability;
pub mod scripting;
pub mod supervise;
pub mod workflow;

pub use cluster::{cluster_threads, ThreadClustering};
pub use derive::{derive_metric, DeriveOp};
pub use error::AnalysisError;
pub use facts::MeanEventFact;
pub use incremental::{AnalysisState, UpdateStats};
pub use loadbalance::LoadBalanceAnalysis;
pub use result::{TrialMeanResult, TrialResult};
pub use supervise::{DegradeCause, DegradedStage, Supervisor, SupervisorConfig};

/// Convenience result alias.
pub type Result<T> = std::result::Result<T, AnalysisError>;
