//! Chaos harness CLI: runs `faultsim::harness` over a seed range and
//! prints one table row per seed.
//!
//! The `corruption` stage runs [`faultsim::harness::run_seed`] for
//! each seed, and the `crash-restart` stage one kill-restart cycle per
//! seed and [`KillPoint`]. Every violation is printed to stderr, and
//! any violation makes the exit code non-zero.
//!
//! ```text
//! chaos [--stage all|corruption|crash-restart] [--seeds N] [--base-seed B]
//!       [--kill-point before-append|mid-append|after-append|after-apply]
//!       [--fsync always|never] [--verbose]
//! ```

use faultsim::harness::{crash_restart, run_seed, Fixture, Report, ViolationKind};
use faultsim::KillPoint;
use perfdmf::wal::FsyncPolicy;

#[derive(Clone, Copy, PartialEq, Eq)]
enum Stage {
    All,
    Corruption,
    CrashRestart,
}

struct Args {
    stage: Stage,
    seeds: u64,
    base_seed: u64,
    kill_points: Vec<KillPoint>,
    fsync: FsyncPolicy,
    verbose: bool,
}

fn parse_args() -> Args {
    let mut args = Args {
        stage: Stage::All,
        seeds: 8,
        base_seed: 0,
        kill_points: KillPoint::MATRIX.to_vec(),
        fsync: FsyncPolicy::Always,
        verbose: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--stage" => {
                args.stage = match it.next().as_deref() {
                    Some("all") => Stage::All,
                    Some("corruption") => Stage::Corruption,
                    Some("crash-restart") => Stage::CrashRestart,
                    _ => usage("--stage needs all|corruption|crash-restart"),
                };
            }
            "--seeds" => {
                args.seeds = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| usage("--seeds needs a number"));
            }
            "--base-seed" => {
                args.base_seed = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| usage("--base-seed needs a number"));
            }
            "--kill-point" => {
                args.kill_points = match it.next().as_deref() {
                    Some("all") => KillPoint::MATRIX.to_vec(),
                    Some(s) => vec![KillPoint::parse(s).unwrap_or_else(|| {
                        usage(
                            "--kill-point needs before-append|mid-append|after-append|after-apply",
                        )
                    })],
                    None => usage("--kill-point needs a value"),
                };
            }
            "--fsync" => {
                args.fsync = match it.next().as_deref() {
                    Some("always") => FsyncPolicy::Always,
                    Some("never") => FsyncPolicy::Never,
                    _ => usage("--fsync needs always|never"),
                };
            }
            "--verbose" => args.verbose = true,
            "--help" | "-h" => usage(""),
            other => usage(&format!("unknown flag {other:?}")),
        }
    }
    args
}

fn usage(err: &str) -> ! {
    if !err.is_empty() {
        eprintln!("error: {err}");
    }
    eprintln!(
        "usage: chaos [--stage all|corruption|crash-restart] [--seeds N] [--base-seed B]\n\
         \x20            [--kill-point KP|all] [--fsync always|never] [--verbose]"
    );
    std::process::exit(if err.is_empty() { 0 } else { 2 });
}

/// Prints a report's corruption log (under `--verbose`) and its
/// violations to stderr.
fn explain(report: &Report, prefix: &str, verbose: bool) {
    if verbose {
        for line in &report.log {
            eprintln!("{prefix}: {line}");
        }
    }
    for violation in &report.violations {
        eprintln!("{violation}");
    }
}

/// The corruption table; returns whether any seed found a violation.
fn print_corruption(args: &Args, fixture: &Fixture) -> bool {
    println!(
        "chaos: {} seed(s) starting at {}",
        args.seeds, args.base_seed
    );
    println!(
        "seed     faults  degraded  diags  repairs  quarantined  flagged  dropped  panics  violations"
    );
    let (mut panics, mut broken) = (0, 0);
    for seed in args.base_seed..args.base_seed + args.seeds {
        let r = run_seed(seed, fixture);
        let (p, b) = (
            r.count(ViolationKind::Panic),
            r.count(ViolationKind::Contract),
        );
        println!(
            "{:<8} {:<7} {:<9} {:<6} {:<8} {:<12} {:<8} {:<8} {:<7} {}",
            seed,
            r.faults_applied,
            r.stages_degraded,
            r.diagnostics,
            r.repairs,
            r.quarantined,
            r.flagged,
            r.salvage_dropped,
            p,
            b
        );
        explain(&r, &format!("seed {seed}"), args.verbose);
        panics += p;
        broken += b;
    }
    if panics > 0 || broken > 0 {
        eprintln!(
            "chaos: {panics} panic(s) escaped supervised entry points, \
             {broken} contract violation(s)"
        );
        return true;
    }
    println!("chaos: no panics escaped, every strict/lossy and sanitize contract held");
    false
}

/// The crash-restart table; returns whether any cycle found a violation.
fn print_crash_restart(args: &Args, fixture: &Fixture) -> bool {
    println!(
        "crash-restart: {} seed(s) x {} kill point(s), fsync {:?}",
        args.seeds,
        args.kill_points.len(),
        args.fsync
    );
    println!("seed     kill-point     acked  replayed  dups  lost  identical  failures");
    let mut failed = false;
    for seed in args.base_seed..args.base_seed + args.seeds {
        for &kill in &args.kill_points {
            let r = crash_restart(seed, kill, args.fsync, fixture);
            println!(
                "{:<8} {:<14} {:<6} {:<9} {:<5} {:<5} {:<10} {}",
                seed,
                kill.name(),
                r.acked,
                r.replayed,
                r.duplicates,
                r.lost_acks,
                r.identical,
                r.violations.len()
            );
            explain(&r, &format!("seed {seed} {kill}"), args.verbose);
            failed |= !r.violations.is_empty();
        }
    }
    if !failed {
        println!("crash-restart: every recovery byte-identical, no acked chunk lost");
    }
    failed
}

fn main() {
    let args = parse_args();
    let fixture = Fixture::default();
    let mut failed = false;
    if matches!(args.stage, Stage::All | Stage::Corruption) {
        failed |= print_corruption(&args, &fixture);
    }
    if matches!(args.stage, Stage::All | Stage::CrashRestart) {
        failed |= print_crash_restart(&args, &fixture);
    }
    if failed {
        std::process::exit(1);
    }
}
