//! The paper's case-study applications, modelled end to end.
//!
//! * [`align`] — a real Smith–Waterman local alignment implementation
//!   (the ClustalW distance-matrix kernel), used both to do actual work
//!   in the examples and to derive the per-pair iteration costs the
//!   scheduling study needs.
//! * [`msa`] — the multiple-sequence-alignment case study (§III-A):
//!   the distance-matrix stage parallelised with simulated OpenMP under
//!   configurable schedules, producing TAU-like trials.
//! * [`genidlest`] — the GenIDLEST case study (§III-B): a multiblock
//!   structured-grid solver model with the paper's kernels (`bicgstab`,
//!   `diff_coeff`, `matxvec`, `pc`, `pc_jac_glb`, `exchange_var`,
//!   `mpi_send_recv_ko`), MPI and OpenMP paradigms, and the
//!   unoptimised/optimised variants whose difference the locality rules
//!   diagnose.
//! * [`power_study`] — the power-modeling case study (§III-C): GenIDLEST
//!   at O0–O3 on 16 MPI ranks, emitting the counters the power model
//!   (paper Eq. 1–2) consumes.
//! * [`sweep`] — a parallel driver, on the rayon pool, for the
//!   parametric studies the paper motivates (grids of configurations
//!   filling a repository).

#![warn(missing_docs)]

pub mod align;
pub mod genidlest;
pub mod msa;
pub mod power_study;
pub mod sweep;

pub use genidlest::{CodeVersion, GenIdlestConfig, Paradigm, Problem};
pub use msa::MsaConfig;
pub use power_study::PowerStudyConfig;
