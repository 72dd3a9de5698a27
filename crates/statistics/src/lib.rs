//! Numerical analysis kernels used throughout the performance data mining
//! pipeline.
//!
//! This crate is the "math substrate" of the workspace: descriptive
//! statistics, Pearson correlation and k-means clustering with its
//! silhouette score, over plain `&[f64]` slices and the flat row-major
//! [`DenseMatrix`] / [`MatrixView`] layout, so they compose with any
//! data layout the profile store produces.
//!
//! The routines here correspond to the statistical and data-mining
//! operations PerfExplorer applies to parallel profiles: per-event
//! mean/standard-deviation summaries across threads, inter-event
//! correlation (used by the load-imbalance rule's negative-correlation
//! condition), and clustering of thread behaviour. Clustering has one
//! safe kernel, bit-identical to the nested oracle in [`mod@reference`] on
//! every host.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod cluster;
pub mod correlation;
pub mod descriptive;
pub mod error;
pub mod matrix;
pub mod reference;

pub use cluster::{kmeans_flat, silhouette_flat, FlatKMeans, KMeansConfig};
pub use correlation::pearson;
pub use descriptive::{Summary, Welford};
pub use error::StatError;
pub use matrix::{sq_dist, DenseMatrix, MatrixView};

/// Convenience result alias for statistics routines.
pub type Result<T> = std::result::Result<T, StatError>;
