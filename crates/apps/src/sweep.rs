//! Parallel parameter-sweep driver.
//!
//! The paper's motivation is "parametric studies … requiring large
//! amounts of data to be collected": entire grids of (schedule × thread
//! count × problem) configurations. This driver maps such a grid over
//! the rayon pool, so the figure harness and the CLI can fill a
//! repository in parallel wall-clock time. The simulations themselves
//! are deterministic and the map keeps job order, so the sweep's
//! *results* are identical at any pool size.

use crate::genidlest::{self, GenIdlestConfig};
use crate::msa::{self, MsaConfig};
use perfdmf::Trial;
use rayon::prelude::*;

/// A unit of sweep work: any simulation producing a trial.
pub enum SweepJob {
    /// One MSA configuration.
    Msa(MsaConfig),
    /// One GenIDLEST configuration.
    GenIdlest(GenIdlestConfig),
}

impl SweepJob {
    fn run(&self) -> Trial {
        match self {
            SweepJob::Msa(c) => msa::run(c),
            SweepJob::GenIdlest(c) => genidlest::run(c),
        }
    }
}

/// Runs every job on the rayon pool and returns the trials in job
/// order.
pub fn run_sweep(jobs: &[SweepJob]) -> Vec<Trial> {
    jobs.par_iter().map(SweepJob::run).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::genidlest::{CodeVersion, Paradigm, Problem};
    use simulator::openmp::Schedule;

    fn msa_job(threads: usize) -> SweepJob {
        let mut c = MsaConfig::paper_400(threads, Schedule::Dynamic(1));
        c.sequences = 48;
        SweepJob::Msa(c)
    }

    #[test]
    fn parallel_sweep_matches_sequential_results() {
        let jobs = vec![
            msa_job(1),
            msa_job(2),
            msa_job(4),
            SweepJob::GenIdlest({
                let mut c =
                    GenIdlestConfig::new(Problem::Rib45, Paradigm::Mpi, CodeVersion::Optimized, 4);
                c.timesteps = 1;
                c
            }),
        ];
        let swept = run_sweep(&jobs);
        assert_eq!(swept.len(), jobs.len());
        for (job, trial) in jobs.iter().zip(&swept) {
            let alone = job.run();
            assert_eq!(trial.name, alone.name, "job order kept");
            assert_eq!(
                trial.profile, alone.profile,
                "same trial as the job run alone"
            );
        }
    }

    #[test]
    fn results_keep_job_order() {
        let trials = run_sweep(&[msa_job(4), msa_job(1), msa_job(2)]);
        let names: Vec<&str> = trials.iter().map(|t| t.name.as_str()).collect();
        assert_eq!(names, vec!["4_dynamic,1", "1_dynamic,1", "2_dynamic,1"]);
    }

    #[test]
    fn degenerate_inputs() {
        assert!(run_sweep(&[]).is_empty());
        let one = run_sweep(&[msa_job(2)]);
        assert_eq!(one.len(), 1);
        assert_eq!(one[0].profile, msa_job(2).run().profile);
    }
}
