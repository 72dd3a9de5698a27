//! Numerical analysis kernels used throughout the performance data mining
//! pipeline.
//!
//! This crate is the "math substrate" of the workspace: descriptive
//! statistics, correlation, regression, clustering, principal component
//! analysis and histograms. All routines operate on plain `&[f64]` slices
//! so they compose with any data layout the profile store produces.
//!
//! The routines here correspond to the statistical and data-mining
//! operations PerfExplorer applies to parallel profiles: per-event
//! mean/standard-deviation summaries across threads, inter-event
//! correlation (used by the load-imbalance rule's negative-correlation
//! condition), clustering of thread behaviour, and dimensionality
//! reduction for multi-metric views.

#![warn(missing_docs)]

pub mod cluster;
pub mod correlation;
pub mod descriptive;
pub mod error;
pub mod histogram;
pub mod matrix;
pub mod pca;
pub mod reference;
pub mod regression;

pub use cluster::{
    kmeans, kmeans_flat, silhouette, silhouette_flat, FlatKMeans, KMeansConfig, KMeansResult,
};
pub use correlation::{
    covariance, covariance_matrix, covariance_matrix_flat, pearson, ranks, spearman,
};
pub use descriptive::{Summary, Welford};
pub use error::StatError;
pub use histogram::Histogram;
pub use matrix::{dot, sq_dist, sq_norm, DenseMatrix, MatrixView};
pub use pca::{jacobi_eigen_flat, principal_components, principal_components_flat, Pca};
pub use regression::{polyfit, OlsFit};

/// Convenience result alias for statistics routines.
pub type Result<T> = std::result::Result<T, StatError>;
