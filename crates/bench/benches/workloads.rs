//! Benchmarks for the workload substrates: the real Smith–Waterman
//! kernel, the OpenMP schedule simulator (including the per-chunk
//! accounting ablation), the two simulated applications, and the
//! end-to-end trial → facts → rules → diagnosis pipeline. The harness
//! and its modes are in `bench::measure`; this bench writes
//! `BENCH_workloads.json`.
//!
//! The MSA runs align sequence pairs on the rayon pool, so their
//! allocation counts depend on the pool's thread count and are not
//! gated.

use apps::align::{generate_sequences, smith_waterman, Scoring};
use apps::genidlest::{self, CodeVersion, GenIdlestConfig, Paradigm, Problem};
use apps::msa::{self, MsaConfig};
use bench::measure::{Bench, CountingAlloc};
use simulator::openmp::{parallel_for, OpenMpConfig, Schedule};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

fn main() {
    let mut b = Bench::from_env("workloads", "BENCH_workloads.json")
        .ungated(&["msa_run_64seq_8thr", "msa_diagnose_end_to_end"]);
    let seqs = generate_sequences(2, 200, 200, 7);
    let scoring = Scoring::default();
    b.case("smith_waterman_200x200", || {
        smith_waterman(&seqs[0], &seqs[1], &scoring)
    });

    let costs: Vec<f64> = (0..4096)
        .map(|i| ((4096 - i) * (4096 - i)) as f64)
        .collect();
    let cfg = OpenMpConfig::default();
    // Ablation: per-iteration (chunk 1) vs chunked accounting.
    for (label, schedule) in [
        ("dynamic_1", Schedule::Dynamic(1)),
        ("dynamic_64", Schedule::Dynamic(64)),
        ("static", Schedule::Static),
        ("guided", Schedule::Guided(1)),
    ] {
        b.case(&format!("openmp_sim_4096/{label}"), || {
            parallel_for(&costs, schedule, 16, &cfg)
        });
    }

    let mut msa_config = MsaConfig::paper_400(8, Schedule::Dynamic(1));
    msa_config.sequences = 64;
    b.case("msa_run_64seq_8thr", || msa::run(&msa_config));
    let mut genidlest_config = GenIdlestConfig::new(
        Problem::Rib90,
        Paradigm::OpenMp,
        CodeVersion::Unoptimized,
        16,
    );
    genidlest_config.timesteps = 2;
    b.case("genidlest_run_16proc", || genidlest::run(&genidlest_config));

    let mut config = MsaConfig::paper_400(8, Schedule::Static);
    config.sequences = 64;
    b.case("msa_diagnose_end_to_end", || {
        let trial = msa::run(&config);
        perfexplorer::workflow::analyze_load_balance(&trial, "TIME").unwrap()
    });
    b.finish();
}
