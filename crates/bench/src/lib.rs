//! Shared helpers for the figure/table regeneration binaries.
//!
//! Each binary in `src/bin/` regenerates one artifact of the paper's
//! evaluation section:
//!
//! | binary   | paper artifact |
//! |----------|----------------|
//! | `fig4a`  | Fig. 4(a): per-thread load imbalance, inner/outer loop |
//! | `fig4b`  | Fig. 4(b): relative efficiency per schedule |
//! | `fig5a`  | Fig. 5(a): speedup per event, unoptimised OpenMP |
//! | `fig5b`  | Fig. 5(b): whole-app speedup, three variants |
//! | `table1` | Table I: relative power/energy metrics at O0–O3 |
//!
//! The binaries print the measured series next to the paper's reported
//! shape so EXPERIMENTS.md can be regenerated by running them.
//! [`measure`] is the harness every micro-benchmark in `benches/` runs
//! on, and holds the counting allocator they and the allocation tests
//! install.

pub mod measure;

use apps::genidlest::{self, CodeVersion, GenIdlestConfig, Paradigm, Problem};
use apps::msa::{self, MsaConfig};
use perfdmf::Trial;
use simulator::openmp::Schedule;

/// Renders a simple ASCII horizontal bar (re-exported from the analysis
/// layer's chart helpers so every binary draws identically).
pub use perfexplorer::charts::bar;

/// Formats a header line for a figure binary.
pub fn banner(id: &str, title: &str) -> String {
    format!(
        "================================================================\n\
         {id}: {title}\n\
         ================================================================"
    )
}

/// Runs the MSA workload for a schedule/thread combination (paper-sized
/// by default; smaller via `sequences`).
pub fn msa_trial(sequences: usize, threads: usize, schedule: Schedule) -> Trial {
    let mut config = MsaConfig::paper_400(threads, schedule);
    config.sequences = sequences;
    msa::run(&config)
}

/// Runs a GenIDLEST 90rib configuration with standard time steps.
pub fn genidlest_trial(paradigm: Paradigm, version: CodeVersion, procs: usize) -> Trial {
    let mut c = GenIdlestConfig::new(Problem::Rib90, paradigm, version, procs);
    c.timesteps = 5;
    genidlest::run(&c)
}

/// Runs a GenIDLEST 45rib configuration.
pub fn genidlest_trial_45(paradigm: Paradigm, version: CodeVersion, procs: usize) -> Trial {
    let mut c = GenIdlestConfig::new(Problem::Rib45, paradigm, version, procs);
    c.timesteps = 5;
    genidlest::run(&c)
}

/// The thread counts Figure 4(b) sweeps.
pub const FIG4B_THREADS: &[usize] = &[1, 2, 4, 8, 16];

/// The processor counts Figure 5 sweeps for 90rib.
pub const FIG5_PROCS: &[usize] = &[1, 2, 4, 8, 16, 32];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bar_scales_and_clamps() {
        assert_eq!(bar(5.0, 10.0, 10), "#####");
        assert_eq!(bar(20.0, 10.0, 10), "##########");
        assert_eq!(bar(1.0, 0.0, 10), "");
    }

    #[test]
    fn banner_mentions_id() {
        assert!(banner("FIG4A", "x").contains("FIG4A"));
    }

    #[test]
    fn helpers_produce_trials() {
        let t = msa_trial(32, 2, Schedule::Static);
        assert_eq!(t.profile.thread_count(), 2);
        let g = genidlest_trial(Paradigm::Mpi, CodeVersion::Optimized, 2);
        assert_eq!(g.profile.thread_count(), 2);
    }
}
