//! Parallel performance profile data management.
//!
//! This crate reimplements the role PerfDMF plays in the paper's pipeline:
//! a data management framework that stores parallel performance profiles
//! from many experiments and makes them queryable by the analysis layer.
//!
//! The data model follows the TAU/PerfDMF hierarchy:
//!
//! ```text
//! Application ─▶ Experiment ─▶ Trial ─▶ (metric × event × thread) ─▶ Measurement
//! ```
//!
//! * an **application** is a program under study (e.g. `"Fluid Dynamic"`),
//! * an **experiment** groups trials of one configuration family
//!   (e.g. `"rib 45"`),
//! * a **trial** is one run, storing measurements for every *metric*
//!   (e.g. `CPU_CYCLES`), *event* (an instrumented code region, possibly a
//!   callpath like `main => outer_loop => inner_loop`) and *thread*
//!   (node/context/thread triple),
//! * **metadata** records the performance context — machine, schedule,
//!   problem size — that inference rules use to justify conclusions.
//!
//! Besides the in-memory store and JSON persistence, the crate provides
//! readers for several on-disk profile formats ([`formats`]) and a
//! CUBE-style profile [`algebra`] (difference / merge / aggregation),
//! mirroring PerfDMF's support for "nearly a dozen performance profile
//! formats" and PerfExplorer's cross-experiment operations.

#![warn(missing_docs)]

pub mod algebra;
pub mod error;
pub mod formats;
pub mod mapped;
pub mod metadata;
pub mod model;
pub mod pdb1;
pub mod quality;
pub mod repo;
pub mod streaming;
pub mod wal;

pub use error::DmfError;
pub use mapped::{MappedRepository, TrialView};
pub use metadata::{MetaValue, Metadata};
pub use model::{
    Event, EventId, Measurement, Metric, MetricId, Profile, ThreadId, Trial, TrialBuilder,
    MAIN_EVENT,
};
pub use quality::{sanitize_trial, DataQuality};
pub use repo::{Format, RecoveredRepository, Repository};
pub use streaming::{AppliedChunk, ChunkBatch, ColumnDelta, StreamingTrial, TouchedColumn};
pub use wal::{FsyncPolicy, Journal, WalRecord, WalReplay};

/// Convenience result alias.
pub type Result<T> = std::result::Result<T, DmfError>;
