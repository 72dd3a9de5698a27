//! The chaos harness's seed matrix, run by `cargo test`: every row the
//! `chaos` binary was run with in CI (`--base-seed B --seeds 16`, which
//! runs both stages with fsync `always`, and the `--fsync never`
//! crash-restart smoke rows), through the same library stages,
//! so Tier-1 gates the fault contracts (strict/lossy readers, sanitize
//! fixed point, journal torn-tail replay, the report memo, crash
//! recovery) at every change. A failure names the first violation's
//! stage, seed and message; reproduce it with
//! `cargo run -p faultsim --bin chaos -- --base-seed <seed> --seeds 1`
//! (add `--stage crash-restart --kill-point <point> --fsync <policy>`
//! for one crash-restart cycle).

use faultsim::harness::{crash_restart, run_seed, Fixture, Report};
use faultsim::KillPoint;
use perfdmf::wal::FsyncPolicy;

/// Base seeds of the corruption rows, 16 seeds each; the same seeds run
/// a crash-restart cycle at every kill point with fsync `Always`. 45477 (0xb1a5) is
/// the binary-path row: the PDB1 stage corrupts with `seed ^ 0xb1a5`,
/// so this row lands it on the low corruption seeds that the PDB1
/// golden fixtures in `tests/pdb1_roundtrip.rs` pin.
const CORRUPTION_ROWS: [u64; 4] = [0, 1000, 424242, 45477];

/// Base seeds of the `FsyncPolicy::Never` crash-restart rows, 3 seeds ×
/// every kill point each. `Never` loses nothing to a process kill (the
/// write precedes the ack), so the invariants are the same as under
/// `Always`; the mid-append kill point covers torn-tail truncation.
const CRASH_ROWS: [u64; 3] = [0, 1000, 424242];

fn assert_held(report: &Report) {
    if let Some(violation) = report.violations.first() {
        panic!("{violation}");
    }
}

#[test]
fn corruption_rows_hold_every_contract() {
    let fixture = Fixture::default();
    for seed in CORRUPTION_ROWS.into_iter().flat_map(|base| base..base + 16) {
        let report = run_seed(seed, &fixture);
        assert_held(&report);
        assert!(report.faults_applied > 0, "seed {seed} applied nothing");
    }
}

fn assert_recovers(seeds: impl Iterator<Item = u64>, fsync: FsyncPolicy, fixture: &Fixture) {
    for seed in seeds {
        for kill in KillPoint::MATRIX {
            let report = crash_restart(seed, kill, fsync, fixture);
            assert_held(&report);
            assert!(report.identical && report.acked > 0, "seed {seed} {kill}");
        }
    }
}

#[test]
fn crash_restart_rows_recover_exactly() {
    let seeds = CRASH_ROWS.into_iter().flat_map(|base| base..base + 3);
    assert_recovers(seeds, FsyncPolicy::Never, &Fixture::default());
}

#[test]
fn corruption_row_seeds_recover_exactly_under_fsync_always() {
    let seeds = CORRUPTION_ROWS.into_iter().flat_map(|base| base..base + 16);
    assert_recovers(seeds, FsyncPolicy::Always, &Fixture::default());
}
