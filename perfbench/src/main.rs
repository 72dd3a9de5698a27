//! Service benchmark: seeded closed-loop workloads against an
//! in-process `AnalysisService`, and a traced replay of the same
//! requests through each layer's public functions.
//!
//! ```text
//! perfbench --workload <cold_diagnose|live_ingest|scripted_study>
//!           --seed <n> --seconds <s> --trace <0|1>
//! perfbench --self-test
//! ```
//!
//! The last line of standard output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`. With `--trace 0` the
//! metrics are the end-to-end ones; with `--trace 1` the per-layer ones.
//! Lines before it state every metric by name and unit, the run's
//! environment, and the work counts, which repeat exactly for a seed.

mod cold;
mod harness;
mod live;
mod study;
mod synth;
mod trace;
mod util;

use harness::{RunOutput, Workload};
use std::path::{Path, PathBuf};
use std::process::ExitCode;

const WORKLOADS: [&str; 3] = ["cold_diagnose", "live_ingest", "scripted_study"];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    self_test: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        self_test: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--self-test" {
            args.self_test = true;
            continue;
        }
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = || format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => args.seconds = value.parse().map_err(|_| bad())?,
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value:?}")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !args.self_test && !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {WORKLOADS:?}, not {:?}",
            args.workload
        ));
    }
    if args.seconds.is_nan() || args.seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    Ok(args)
}

/// Service workers, and the rayon shim's budget, both equal the
/// machine's core count; they are set here rather than left to each
/// library's default so the run records what it used.
fn nproc() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

fn workload(name: &str, seed: u64, nproc: usize, dir: &Path) -> Box<dyn Workload> {
    match name {
        "cold_diagnose" => Box::new(cold::Cold::new(seed, nproc, dir)),
        "live_ingest" => Box::new(live::Live::new(seed, nproc, nproc)),
        "scripted_study" => Box::new(study::Study::new(seed, nproc)),
        other => unreachable!("unknown workload {other}"),
    }
}

fn run(name: &str, seed: u64, seconds: f64, trace: bool) -> (RunOutput, usize) {
    let n = nproc();
    let dir = util::WorkDir::create(name).expect("create the work directory");
    let w = workload(name, seed, n, dir.path());
    let out = if trace {
        let spans = PathBuf::from(".perfbench").join(format!("spans-{name}-seed{seed}.tsv"));
        harness::run_traced(w.as_ref(), dir.path(), seconds, &spans)
    } else {
        harness::run_untraced(w.as_ref(), dir.path(), seconds)
    };
    (out, w.clients())
}

fn json_work(work: &harness::Work) -> String {
    let fields: Vec<String> = work.iter().map(|(k, v)| format!("\"{k}\": {v}")).collect();
    format!("{{{}}}", fields.join(", "))
}

fn report(args: &Args, out: &RunOutput, clients: usize) {
    for (name, value, unit) in &out.metrics {
        println!("{name:<36} {value:>14.4} {unit}");
    }
    println!(
        "perfbench-env {{\"workload\": \"{}\", \"seed\": {}, \"nproc\": {}, \"service_workers\": {}, \
         \"rayon_budget\": {}, \"clients\": {}, \"passes\": {}, \"latency_samples_per_pass\": {}, \
         \"commit\": \"{}\"}}",
        args.workload,
        args.seed,
        nproc(),
        nproc(),
        rayon::concurrency_budget(),
        clients,
        out.passes,
        out.samples_per_pass,
        util::commit()
    );
    println!("perfbench-work {}", json_work(&out.work));
    if !out.trace_work.is_empty() {
        println!("perfbench-trace-work {}", json_work(&out.trace_work));
    }
    let metrics: Vec<String> = out
        .metrics
        .iter()
        .map(|(name, value, unit)| {
            format!("\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.failed == 0 && out.counts_repeat,
        out.attempted,
        out.failed,
        metrics.join(", ")
    );
}

/// `(name, unit)` of every metric listed under `section` in
/// `BENCHMARK.json`.
fn declared_metrics(section: &str) -> Result<Vec<(String, String)>, String> {
    let text = std::fs::read_to_string("BENCHMARK.json")
        .map_err(|e| format!("read BENCHMARK.json: {e}"))?;
    let doc =
        serde_json::from_str_value(&text).map_err(|e| format!("parse BENCHMARK.json: {e}"))?;
    let list = doc
        .get(section)
        .and_then(|v| v.as_array())
        .ok_or(format!("BENCHMARK.json has no {section} list"))?;
    Ok(list
        .iter()
        .map(|m| {
            let field = |k: &str| m.get(k).and_then(|v| v.as_str()).unwrap_or("").to_string();
            (field("name"), field("unit"))
        })
        .collect())
}

/// Runs every workload briefly, twice untraced and twice traced, with
/// one seed: the work counts and oracle results must repeat, and every
/// metric `BENCHMARK.json` declares must be emitted with its unit.
fn self_test() -> Result<(), String> {
    const SEED: u64 = 7;
    const SECONDS: f64 = 1.0;
    for (section, trace) in [("end_to_end", false), ("per_layer", true)] {
        let declared = declared_metrics(section)?;
        for name in WORKLOADS {
            let (a, _) = run(name, SEED, SECONDS, trace);
            let (b, _) = run(name, SEED, SECONDS, trace);
            for out in [&a, &b] {
                if out.failed != 0 || !out.counts_repeat {
                    return Err(format!(
                        "{name} (trace {trace}): {} failed ops, counts repeat: {}",
                        out.failed, out.counts_repeat
                    ));
                }
            }
            if a.work != b.work || a.trace_work != b.trace_work {
                return Err(format!(
                    "{name} (trace {trace}): work differs between runs:\n{}\n{}",
                    json_work(&a.work),
                    json_work(&b.work)
                ));
            }
            let emitted: Vec<(String, String)> = a
                .metrics
                .iter()
                .map(|(n, _, u)| (n.to_string(), u.to_string()))
                .collect();
            if emitted != declared {
                return Err(format!(
                    "{name} (trace {trace}) emits {emitted:?}, BENCHMARK.json declares {declared:?}"
                ));
            }
            println!("self-test {name} trace={trace}: ok {}", json_work(&a.work));
        }
    }
    Ok(())
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    // The shim reads its budget once, on first use.
    std::env::set_var("RAYON_NUM_THREADS", nproc().to_string());
    if args.self_test {
        return match self_test() {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("perfbench self-test FAILED: {e}");
                ExitCode::FAILURE
            }
        };
    }
    let (out, clients) = run(&args.workload, args.seed, args.seconds, args.trace);
    if !out.counts_repeat {
        eprintln!("perfbench: work counts differ between passes, or the replay did other work");
        return ExitCode::FAILURE;
    }
    report(&args, &out, clients);
    ExitCode::SUCCESS
}
