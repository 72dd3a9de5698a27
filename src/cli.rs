//! Command-line interface: simulate workloads, manage the repository,
//! run analyses and scripts.
//!
//! ```text
//! perfknow simulate msa --threads 16 --schedule dynamic,1 --repo repo.json
//! perfknow simulate genidlest --paradigm openmp --version unoptimized --procs 16 --repo repo.json
//! perfknow simulate power --ranks 16 --repo repo.json
//! perfknow list --repo repo.json
//! perfknow analyze balance --repo repo.json --app msap --experiment scheduling --trial 16_static
//! perfknow analyze power --repo repo.json --app "Fluid Dynamic" --experiment "opt levels"
//! perfknow script analysis.pxs --repo repo.json
//! perfknow export --repo repo.json --app msap --experiment scheduling --trial 16_static
//! ```

use apps::genidlest::{CodeVersion, GenIdlestConfig, Paradigm, Problem};
use apps::msa::MsaConfig;
use apps::power_study::PowerStudyConfig;
use perfdmf::formats::csv;
use perfdmf::{Format, Repository};
use perfexplorer::scripting::PerfExplorerScript;
use perfexplorer::workflow;
use simulator::machine::MachineConfig;
use simulator::openmp::Schedule;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

/// A CLI error: message plus suggested exit code.
#[derive(Debug)]
pub struct CliError {
    /// Explanation printed to stderr.
    pub message: String,
}

impl std::fmt::Display for CliError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.message)
    }
}

impl std::error::Error for CliError {}

fn err(message: impl Into<String>) -> CliError {
    CliError {
        message: message.into(),
    }
}

/// Parsed command-line options: positional words and `--key value` flags.
#[derive(Debug, Default, PartialEq)]
pub struct Options {
    /// Positional arguments in order.
    pub positional: Vec<String>,
    /// Flag values by name (without the `--`).
    pub flags: BTreeMap<String, String>,
}

/// Parses an argument vector (without the program name).
pub fn parse_args(args: &[String]) -> Result<Options, CliError> {
    let mut out = Options::default();
    let mut i = 0;
    while i < args.len() {
        let a = &args[i];
        if let Some(name) = a.strip_prefix("--") {
            let value = args
                .get(i + 1)
                .ok_or_else(|| err(format!("flag --{name} needs a value")))?;
            if value.starts_with("--") {
                return Err(err(format!("flag --{name} needs a value")));
            }
            out.flags.insert(name.to_string(), value.clone());
            i += 2;
        } else {
            out.positional.push(a.clone());
            i += 1;
        }
    }
    Ok(out)
}

impl Options {
    /// Required flag.
    pub fn need(&self, name: &str) -> Result<&str, CliError> {
        self.flags
            .get(name)
            .map(String::as_str)
            .ok_or_else(|| err(format!("missing required flag --{name}")))
    }

    /// Optional flag with default.
    pub fn get_or<'a>(&'a self, name: &str, default: &'a str) -> &'a str {
        self.flags.get(name).map(String::as_str).unwrap_or(default)
    }

    /// Optional numeric flag with default.
    pub fn num_or(&self, name: &str, default: usize) -> Result<usize, CliError> {
        match self.flags.get(name) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| err(format!("flag --{name} expects a number, got {v:?}"))),
        }
    }
}

/// Parses a schedule spec: `static`, `static,N`, `dynamic,N`, `guided,N`.
pub fn parse_schedule(spec: &str) -> Result<Schedule, CliError> {
    let (kind, chunk) = match spec.split_once(',') {
        Some((k, c)) => {
            let chunk: usize = c
                .parse()
                .map_err(|_| err(format!("bad chunk size in schedule {spec:?}")))?;
            (k, Some(chunk))
        }
        None => (spec, None),
    };
    match (kind, chunk) {
        ("static", None) => Ok(Schedule::Static),
        ("static", Some(c)) => Ok(Schedule::StaticChunk(c)),
        ("dynamic", Some(c)) => Ok(Schedule::Dynamic(c)),
        ("dynamic", None) => Ok(Schedule::Dynamic(1)),
        ("guided", Some(c)) => Ok(Schedule::Guided(c)),
        ("guided", None) => Ok(Schedule::Guided(1)),
        _ => Err(err(format!(
            "unknown schedule {spec:?} (static | static,N | dynamic,N | guided,N)"
        ))),
    }
}

fn load_or_new(path: &Path) -> Result<Repository, CliError> {
    if path.exists() {
        Repository::load(path).map_err(|e| err(format!("cannot load {path:?}: {e}")))
    } else {
        Ok(Repository::new())
    }
}

/// Saves preserving the on-disk format: a repository loaded from a
/// PDB1 file stays PDB1; new files default to JSON.
fn save(repo: &Repository, path: &Path) -> Result<(), CliError> {
    let format = if path.exists() {
        Format::detect(path).unwrap_or(Format::Json)
    } else {
        Format::Json
    };
    repo.save_as(path, format)
        .map_err(|e| err(format!("cannot save {path:?}: {e}")))
}

/// Runs the CLI; returns the text to print on success.
pub fn run(args: &[String]) -> Result<String, CliError> {
    let opts = parse_args(args)?;
    let command = opts
        .positional
        .first()
        .map(String::as_str)
        .unwrap_or("help");
    match command {
        "help" => Ok(usage()),
        "simulate" => simulate(&opts),
        "sweep" => sweep(&opts),
        "list" => list(&opts),
        "analyze" => analyze(&opts),
        "script" => script(&opts),
        "export" => export(&opts),
        "repo" => repo_cmd(&opts),
        "serve" => serve(&opts),
        other => Err(err(format!("unknown command {other:?}\n\n{}", usage()))),
    }
}

/// The usage text.
pub fn usage() -> String {
    "perfknow — automated parallel performance analysis\n\
     \n\
     USAGE:\n\
     \x20 perfknow simulate msa       --threads N [--schedule S] [--sequences N] --repo FILE\n\
     \x20 perfknow simulate genidlest --paradigm mpi|openmp --version optimized|unoptimized\n\
     \x20                             --procs N [--problem rib45|rib90] --repo FILE\n\
     \x20 perfknow simulate power     [--ranks N] --repo FILE\n\
     \x20 perfknow sweep              --repo FILE [--workers N] [--timesteps N]\n\
     \x20 perfknow list               --repo FILE\n\
     \x20 perfknow analyze balance    --repo FILE --app A --experiment E --trial T\n\
     \x20 perfknow analyze locality   --repo FILE --app A --experiment E\n\
     \x20 perfknow analyze power      --repo FILE --app A --experiment E\n\
     \x20 perfknow analyze cluster    --repo FILE --app A --experiment E --trial T\n\
     \x20 perfknow analyze compare    --repo FILE --app A --experiment E\n\
     \x20                             --baseline T1 --candidate T2\n\
     \x20 perfknow script FILE        --repo FILE\n\
     \x20 perfknow export             --repo FILE --app A --experiment E --trial T\n\
     \x20 perfknow repo convert       --in FILE --out FILE [--to json|pdb1]\n\
     \x20 perfknow repo inspect FILE\n\
     \x20 perfknow serve              [--repo FILE] [--shards N] [--workers N] [--burst N]\n"
        .to_string()
}

fn simulate(opts: &Options) -> Result<String, CliError> {
    let what = opts
        .positional
        .get(1)
        .map(String::as_str)
        .ok_or_else(|| err("simulate needs a workload: msa | genidlest | power"))?;
    let repo_path = PathBuf::from(opts.need("repo")?);
    let mut repo = load_or_new(&repo_path)?;
    let summary = match what {
        "msa" => {
            let threads = opts.num_or("threads", 16)?;
            let schedule = parse_schedule(opts.get_or("schedule", "static"))?;
            let mut config = MsaConfig::paper_400(threads, schedule);
            config.sequences = opts.num_or("sequences", 400)?;
            let trial = apps::msa::run(&config);
            let name = trial.name.clone();
            repo.upsert_trial("msap", "scheduling", trial);
            format!("recorded msap/scheduling/{name}")
        }
        "genidlest" => {
            let paradigm = match opts.need("paradigm")? {
                "mpi" => Paradigm::Mpi,
                "openmp" => Paradigm::OpenMp,
                other => return Err(err(format!("unknown paradigm {other:?}"))),
            };
            let version = match opts.need("version")? {
                "optimized" => CodeVersion::Optimized,
                "unoptimized" => CodeVersion::Unoptimized,
                other => return Err(err(format!("unknown version {other:?}"))),
            };
            let problem = match opts.get_or("problem", "rib90") {
                "rib45" => Problem::Rib45,
                "rib90" => Problem::Rib90,
                other => return Err(err(format!("unknown problem {other:?}"))),
            };
            let procs = opts.num_or("procs", 16)?;
            let mut config = GenIdlestConfig::new(problem, paradigm, version, procs);
            config.timesteps = opts.num_or("timesteps", 5)?;
            let trial = apps::genidlest::run(&config);
            let name = trial.name.clone();
            repo.upsert_trial("Fluid Dynamic", problem.experiment_name(), trial);
            format!(
                "recorded Fluid Dynamic/{}/{name}",
                problem.experiment_name()
            )
        }
        "power" => {
            let config = PowerStudyConfig {
                ranks: opts.num_or("ranks", 16)?,
                timesteps: opts.num_or("timesteps", 5)?,
                machine: MachineConfig::altix300(),
            };
            let runs = apps::power_study::run_all(&config);
            let mut names = Vec::new();
            for (_, trial) in runs {
                names.push(trial.name.clone());
                repo.upsert_trial("Fluid Dynamic", "opt levels", trial);
            }
            format!("recorded Fluid Dynamic/opt levels/{{{}}}", names.join(", "))
        }
        other => return Err(err(format!("unknown workload {other:?}"))),
    };
    save(&repo, &repo_path)?;
    Ok(format!("{summary}\nsaved {}", repo_path.display()))
}

/// Runs the full paper evaluation grid in parallel and stores every
/// trial: MSA across schedules and thread counts, GenIDLEST across
/// paradigms, versions and processor counts.
fn sweep(opts: &Options) -> Result<String, CliError> {
    use apps::sweep::{run_sweep, SweepJob};
    let repo_path = PathBuf::from(opts.need("repo")?);
    let mut repo = load_or_new(&repo_path)?;
    let workers = opts.num_or("workers", 4)?;
    let timesteps = opts.num_or("timesteps", 5)?;
    let sequences = opts.num_or("sequences", 400)?;

    let mut jobs = Vec::new();
    for schedule in [
        Schedule::Static,
        Schedule::Dynamic(1),
        Schedule::Dynamic(16),
        Schedule::Dynamic(64),
    ] {
        for threads in [1usize, 2, 4, 8, 16] {
            let mut c = MsaConfig::paper_400(threads, schedule);
            c.sequences = sequences;
            jobs.push(SweepJob::Msa(c));
        }
    }
    let msa_jobs = jobs.len();
    for paradigm in [Paradigm::Mpi, Paradigm::OpenMp] {
        for version in [CodeVersion::Unoptimized, CodeVersion::Optimized] {
            for procs in [1usize, 2, 4, 8, 16, 32] {
                let mut c = GenIdlestConfig::new(Problem::Rib90, paradigm, version, procs);
                c.timesteps = timesteps;
                jobs.push(SweepJob::GenIdlest(c));
            }
        }
    }
    let total = jobs.len();
    let trials = run_sweep(jobs, workers);
    for (i, trial) in trials.into_iter().enumerate() {
        if i < msa_jobs {
            repo.upsert_trial("msap", "scheduling", trial);
        } else {
            repo.upsert_trial("Fluid Dynamic", "rib 90", trial);
        }
    }
    save(&repo, &repo_path)?;
    Ok(format!(
        "swept {total} configurations on {workers} workers
saved {}
",
        repo_path.display()
    ))
}

fn list(opts: &Options) -> Result<String, CliError> {
    let repo = load_or_new(&PathBuf::from(opts.need("repo")?))?;
    let mut out = String::new();
    for app in repo.application_names().collect::<Vec<_>>() {
        out.push_str(&format!("{app}\n"));
        let application = repo.application(app).map_err(|e| err(e.to_string()))?;
        for exp in application.experiment_names().collect::<Vec<_>>() {
            out.push_str(&format!("  {exp}\n"));
            let experiment = repo.experiment(app, exp).map_err(|e| err(e.to_string()))?;
            for trial in experiment.trials() {
                out.push_str(&format!(
                    "    {} ({} threads, {} events, {} metrics)\n",
                    trial.name,
                    trial.profile.thread_count(),
                    trial.profile.events().len(),
                    trial.profile.metrics().len(),
                ));
            }
        }
    }
    if out.is_empty() {
        out.push_str("(empty repository)\n");
    }
    Ok(out)
}

fn analyze(opts: &Options) -> Result<String, CliError> {
    let kind = opts
        .positional
        .get(1)
        .map(String::as_str)
        .ok_or_else(|| err("analyze needs a kind: balance | locality | power"))?;
    let repo = load_or_new(&PathBuf::from(opts.need("repo")?))?;
    let app = opts.need("app")?;
    let experiment = opts.need("experiment")?;
    let machine = MachineConfig::altix300();
    match kind {
        "balance" => {
            let trial = repo
                .trial(app, experiment, opts.need("trial")?)
                .map_err(|e| err(e.to_string()))?;
            let result =
                workflow::analyze_load_balance(trial, "TIME").map_err(|e| err(e.to_string()))?;
            Ok(result.rendered)
        }
        "locality" => {
            let trials = repo
                .trials_sorted_by(app, experiment, "procs")
                .map_err(|e| err(e.to_string()))?;
            let series: Vec<(usize, &perfdmf::Trial)> = trials
                .iter()
                .map(|t| (t.metadata.get_num("procs").unwrap_or(0.0) as usize, *t))
                .collect();
            if series.is_empty() {
                return Err(err("no trials in the experiment"));
            }
            let result =
                workflow::analyze_locality(&series, &machine).map_err(|e| err(e.to_string()))?;
            Ok(result.rendered)
        }
        "cluster" => {
            let trial = repo
                .trial(app, experiment, opts.need("trial")?)
                .map_err(|e| err(e.to_string()))?;
            let clustering = perfexplorer::cluster::cluster_threads(trial, "TIME", 4)
                .map_err(|e| err(e.to_string()))?;
            let mut out = format!(
                "{} behaviour class(es), silhouette {:.3}\n",
                clustering.k, clustering.silhouette
            );
            for (i, g) in clustering.groups.iter().enumerate() {
                out.push_str(&format!("  class {i}: threads {:?}\n", g.threads));
            }
            Ok(out)
        }
        "compare" => {
            let baseline = repo
                .trial(app, experiment, opts.need("baseline")?)
                .map_err(|e| err(e.to_string()))?;
            let candidate = repo
                .trial(app, experiment, opts.need("candidate")?)
                .map_err(|e| err(e.to_string()))?;
            let cmp = perfexplorer::compare::compare(baseline, candidate, "TIME")
                .map_err(|e| err(e.to_string()))?;
            let mut out = format!("total ratio: {:.3}\n", cmp.total_ratio);
            for d in cmp.deltas.iter().take(10) {
                out.push_str(&format!(
                    "  {:<40} {:>8.3}x (share {:>5.1}%)\n",
                    d.event,
                    d.ratio,
                    d.baseline_share * 100.0
                ));
            }
            Ok(out)
        }
        "power" => {
            let experiment_ref = repo
                .experiment(app, experiment)
                .map_err(|e| err(e.to_string()))?;
            let trials: Vec<&perfdmf::Trial> = experiment_ref.trials().collect();
            if trials.is_empty() {
                return Err(err("no trials in the experiment"));
            }
            let (table, result) =
                workflow::analyze_power(&trials, &machine).map_err(|e| err(e.to_string()))?;
            Ok(format!(
                "{}\n{}",
                perfexplorer::powerenergy::render_table(&table),
                result.rendered
            ))
        }
        other => Err(err(format!("unknown analysis {other:?}"))),
    }
}

fn script(opts: &Options) -> Result<String, CliError> {
    let path = opts
        .positional
        .get(1)
        .ok_or_else(|| err("script needs a file path"))?;
    let source =
        std::fs::read_to_string(path).map_err(|e| err(format!("cannot read {path:?}: {e}")))?;
    let repo = load_or_new(&PathBuf::from(opts.need("repo")?))?;
    let mut session = PerfExplorerScript::new(repo);
    let value = session
        .run(&source)
        .map_err(|e| err(format!("script failed: {e}")))?;
    let mut out = String::new();
    for line in session.output() {
        out.push_str(&line);
        out.push('\n');
    }
    out.push_str(&format!("=> {value}\n"));
    if let Some(report) = session.last_report() {
        out.push_str(&perfexplorer::recommend::render_report(&report));
    }
    Ok(out)
}

fn repo_cmd(opts: &Options) -> Result<String, CliError> {
    let action = opts
        .positional
        .get(1)
        .map(String::as_str)
        .ok_or_else(|| err("repo needs an action: convert | inspect"))?;
    match action {
        "convert" => {
            let input = PathBuf::from(opts.need("in")?);
            let output = PathBuf::from(opts.need("out")?);
            let from =
                Format::detect(&input).map_err(|e| err(format!("cannot read {input:?}: {e}")))?;
            let to = match opts.flags.get("to") {
                Some(name) => Format::from_name(name)
                    .ok_or_else(|| err(format!("unknown format {name:?} (json | pdb1)")))?,
                // Default: the other one — converting a file to its own
                // format would just be a copy.
                None => match from {
                    Format::Json => Format::Pdb1,
                    Format::Pdb1 => Format::Json,
                },
            };
            let repo =
                Repository::load(&input).map_err(|e| err(format!("cannot load {input:?}: {e}")))?;
            repo.save_as(&output, to)
                .map_err(|e| err(format!("cannot save {output:?}: {e}")))?;
            Ok(format!(
                "converted {} ({from}) -> {} ({to}), {} trial(s)\n",
                input.display(),
                output.display(),
                repo.trial_count()
            ))
        }
        "inspect" => {
            let path = opts
                .positional
                .get(2)
                .map(PathBuf::from)
                .ok_or_else(|| err("repo inspect needs a file path"))?;
            let bytes =
                std::fs::read(&path).map_err(|e| err(format!("cannot read {path:?}: {e}")))?;
            match Format::detect_bytes(&bytes) {
                Format::Pdb1 => {
                    let r = perfdmf::pdb1::inspect(&bytes)
                        .map_err(|e| err(format!("cannot inspect {path:?}: {e}")))?;
                    let mut out = format!(
                        "PDB1 v{}, {} bytes ({} declared)\nstrings: {}\nsections:\n",
                        r.version, r.actual_len, r.declared_len, r.strings
                    );
                    for s in &r.sections {
                        out.push_str(&format!(
                            "  {:<14} off {:<10} len {:<10} crc {:#010x} {}\n",
                            s.name,
                            s.offset,
                            s.len,
                            s.crc_stored,
                            match s.crc_ok {
                                Some(true) => "ok",
                                Some(false) => "MISMATCH",
                                None => "OUT OF BOUNDS",
                            }
                        ));
                    }
                    out.push_str(&format!(
                        "trials: {} (pages ok {}, bad {})\n",
                        r.trials, r.pages_ok, r.pages_bad
                    ));
                    Ok(out)
                }
                Format::Json => {
                    let repo = Repository::from_bytes(&bytes)
                        .map_err(|e| err(format!("cannot parse {path:?}: {e}")))?;
                    Ok(format!(
                        "JSON repository, {} bytes\ntrials: {}\n",
                        bytes.len(),
                        repo.trial_count()
                    ))
                }
            }
        }
        other => Err(err(format!("unknown repo action {other:?}"))),
    }
}

/// Boots the multi-tenant analysis service, drives it with a burst of
/// concurrent ingest+analyze clients, and reports latency percentiles
/// plus the service stats table.
fn serve(opts: &Options) -> Result<String, CliError> {
    use service::{AnalysisService, Request, ServiceConfig};
    use std::time::{Duration, Instant};

    let config = ServiceConfig {
        shards: opts.num_or("shards", 8)?,
        workers: opts.num_or(
            "workers",
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(4),
        )?,
        ..ServiceConfig::default()
    };
    if config.shards == 0 {
        return Err(err("--shards must be at least 1"));
    }
    let burst = opts.num_or("burst", 64)?;
    let (svc, seeded) = match opts.flags.get("repo") {
        Some(path) if Path::new(path).exists() => {
            let svc = AnalysisService::open(config.clone(), Path::new(path))
                .map_err(|e| err(format!("cannot open {path:?}: {e}")))?;
            (svc, true)
        }
        _ => (AnalysisService::start(config.clone()), false),
    };

    // Burst clients upload a small MSA trial each and analyze it back.
    let mut msa = MsaConfig::paper_400(4, Schedule::Static);
    msa.sequences = 24;
    let template = apps::msa::run(&msa);
    let start = Instant::now();
    let mut latencies: Vec<Duration> = std::thread::scope(|scope| {
        (0..burst)
            .map(|id| {
                let client = svc.client();
                let template = &template;
                scope.spawn(move || {
                    let mut upload = template.clone();
                    upload.name = format!("burst-{id}");
                    let document = serde_json::to_string(&upload).expect("serialize upload");
                    let app = format!("tenant{}", id % 16);
                    let ingest = client
                        .call(Request::Ingest {
                            app: app.clone(),
                            experiment: "burst".into(),
                            document,
                        })
                        .expect("service alive");
                    let analyze = client
                        .call(Request::AnalyzeBalance {
                            app,
                            experiment: "burst".into(),
                            trial: format!("burst-{id}"),
                            metric: "TIME".into(),
                        })
                        .expect("service alive");
                    vec![ingest.latency, analyze.latency]
                })
            })
            .collect::<Vec<_>>()
            .into_iter()
            .flat_map(|h| h.join().expect("burst client"))
            .collect()
    });
    let wall = start.elapsed();
    latencies.sort();
    let pct = |p: f64| -> Duration {
        if latencies.is_empty() {
            return Duration::ZERO;
        }
        latencies[((latencies.len() as f64 - 1.0) * p).round() as usize]
    };

    let stats = svc.stats();
    let trials = svc.store().trial_count();
    svc.shutdown();
    Ok(format!(
        "service: {} shards, {} workers{}\n\
         burst: {} clients, {} requests in {:?} ({:.0} req/s)\n\
         latency: p50 {:?}  p99 {:?}  max {:?}\n\
         store: {} trial(s)\n\
         \n{}",
        config.shards,
        config.workers,
        if seeded { ", seeded from --repo" } else { "" },
        burst,
        latencies.len(),
        wall,
        latencies.len() as f64 / wall.as_secs_f64(),
        pct(0.50),
        pct(0.99),
        pct(1.0),
        trials,
        stats.render()
    ))
}

fn export(opts: &Options) -> Result<String, CliError> {
    let repo = load_or_new(&PathBuf::from(opts.need("repo")?))?;
    let trial = repo
        .trial(
            opts.need("app")?,
            opts.need("experiment")?,
            opts.need("trial")?,
        )
        .map_err(|e| err(e.to_string()))?;
    Ok(csv::write_trial(trial))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(words: &[&str]) -> Vec<String> {
        words.iter().map(|s| s.to_string()).collect()
    }

    fn tmp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join("perfknow_cli_tests");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name)
    }

    #[test]
    fn parse_args_splits_flags_and_positionals() {
        let o = parse_args(&args(&[
            "analyze", "balance", "--repo", "r.json", "--app", "x",
        ]))
        .unwrap();
        assert_eq!(o.positional, vec!["analyze", "balance"]);
        assert_eq!(o.need("repo").unwrap(), "r.json");
        assert_eq!(o.need("app").unwrap(), "x");
        assert!(o.need("missing").is_err());
        assert_eq!(o.get_or("missing", "d"), "d");
    }

    #[test]
    fn parse_args_rejects_dangling_flag() {
        assert!(parse_args(&args(&["list", "--repo"])).is_err());
        assert!(parse_args(&args(&["list", "--repo", "--app"])).is_err());
    }

    #[test]
    fn num_or_parses_and_rejects() {
        let o = parse_args(&args(&["x", "--threads", "16"])).unwrap();
        assert_eq!(o.num_or("threads", 4).unwrap(), 16);
        assert_eq!(o.num_or("other", 4).unwrap(), 4);
        let bad = parse_args(&args(&["x", "--threads", "many"])).unwrap();
        assert!(bad.num_or("threads", 4).is_err());
    }

    #[test]
    fn schedule_parsing() {
        assert_eq!(parse_schedule("static").unwrap(), Schedule::Static);
        assert_eq!(
            parse_schedule("static,8").unwrap(),
            Schedule::StaticChunk(8)
        );
        assert_eq!(parse_schedule("dynamic,4").unwrap(), Schedule::Dynamic(4));
        assert_eq!(parse_schedule("dynamic").unwrap(), Schedule::Dynamic(1));
        assert_eq!(parse_schedule("guided,2").unwrap(), Schedule::Guided(2));
        assert!(parse_schedule("fancy").is_err());
        assert!(parse_schedule("dynamic,x").is_err());
    }

    #[test]
    fn unknown_command_shows_usage() {
        let e = run(&args(&["frobnicate"])).unwrap_err();
        assert!(e.message.contains("USAGE"));
        let help = run(&args(&["help"])).unwrap();
        assert!(help.contains("simulate"));
    }

    #[test]
    fn simulate_list_analyze_roundtrip() {
        let repo_path = tmp("roundtrip.json");
        std::fs::remove_file(&repo_path).ok();
        let repo_str = repo_path.to_str().unwrap();

        let out = run(&args(&[
            "simulate",
            "msa",
            "--threads",
            "8",
            "--schedule",
            "static",
            "--sequences",
            "64",
            "--repo",
            repo_str,
        ]))
        .unwrap();
        assert!(out.contains("recorded msap/scheduling/8_static"));

        let listing = run(&args(&["list", "--repo", repo_str])).unwrap();
        assert!(listing.contains("msap"));
        assert!(listing.contains("8_static"));

        let analysis = run(&args(&[
            "analyze",
            "balance",
            "--repo",
            repo_str,
            "--app",
            "msap",
            "--experiment",
            "scheduling",
            "--trial",
            "8_static",
        ]))
        .unwrap();
        assert!(analysis.contains("load-imbalance"), "{analysis}");

        let csv_text = run(&args(&[
            "export",
            "--repo",
            repo_str,
            "--app",
            "msap",
            "--experiment",
            "scheduling",
            "--trial",
            "8_static",
        ]))
        .unwrap();
        assert!(csv_text.starts_with("event,metric,"));
        std::fs::remove_file(&repo_path).ok();
    }

    #[test]
    fn script_command_runs_file() {
        let repo_path = tmp("script.json");
        std::fs::remove_file(&repo_path).ok();
        let repo_str = repo_path.to_str().unwrap();
        run(&args(&[
            "simulate",
            "msa",
            "--threads",
            "4",
            "--schedule",
            "dynamic,1",
            "--sequences",
            "48",
            "--repo",
            repo_str,
        ]))
        .unwrap();

        let script_path = tmp("a.pxs");
        std::fs::write(
            &script_path,
            "let t = load_trial(\"msap\", \"scheduling\", \"4_dynamic,1\");\n\
             print(\"elapsed \" + elapsed(t, \"TIME\"));\n\
             len(trial_events(t))",
        )
        .unwrap();
        let out = run(&args(&[
            "script",
            script_path.to_str().unwrap(),
            "--repo",
            repo_str,
        ]))
        .unwrap();
        assert!(out.contains("elapsed "));
        assert!(out.contains("=> 5"));
        std::fs::remove_file(&repo_path).ok();
        std::fs::remove_file(&script_path).ok();
    }

    #[test]
    fn repo_convert_and_inspect() {
        let json_path = tmp("convert.json");
        let pdb_path = tmp("convert.pdb");
        let back_path = tmp("convert_back.json");
        for p in [&json_path, &pdb_path, &back_path] {
            std::fs::remove_file(p).ok();
        }
        run(&args(&[
            "simulate",
            "msa",
            "--threads",
            "4",
            "--sequences",
            "32",
            "--repo",
            json_path.to_str().unwrap(),
        ]))
        .unwrap();

        // JSON -> PDB1 (default target is the other format).
        let out = run(&args(&[
            "repo",
            "convert",
            "--in",
            json_path.to_str().unwrap(),
            "--out",
            pdb_path.to_str().unwrap(),
        ]))
        .unwrap();
        assert!(out.contains("(json) ->"), "{out}");
        assert!(out.contains("(pdb1)"), "{out}");

        // Inspect the binary file.
        let report = run(&args(&["repo", "inspect", pdb_path.to_str().unwrap()])).unwrap();
        assert!(report.contains("PDB1 v1"), "{report}");
        assert!(report.contains("column pages"), "{report}");
        assert!(report.contains("trials: 1 (pages ok 1, bad 0)"), "{report}");

        // PDB1 -> JSON round trip preserves the repository.
        run(&args(&[
            "repo",
            "convert",
            "--in",
            pdb_path.to_str().unwrap(),
            "--out",
            back_path.to_str().unwrap(),
            "--to",
            "json",
        ]))
        .unwrap();
        let a = Repository::load(&json_path).unwrap();
        let b = Repository::load(&back_path).unwrap();
        assert_eq!(a, b);

        // The analysis commands work straight off the binary file.
        let analysis = run(&args(&[
            "analyze",
            "balance",
            "--repo",
            pdb_path.to_str().unwrap(),
            "--app",
            "msap",
            "--experiment",
            "scheduling",
            "--trial",
            "4_static",
        ]))
        .unwrap();
        assert!(analysis.contains("load-imbalance"), "{analysis}");

        // simulate into an existing PDB1 repo keeps it binary.
        run(&args(&[
            "simulate",
            "msa",
            "--threads",
            "2",
            "--sequences",
            "32",
            "--repo",
            pdb_path.to_str().unwrap(),
        ]))
        .unwrap();
        assert_eq!(Format::detect(&pdb_path).unwrap(), Format::Pdb1);
        assert_eq!(Repository::load(&pdb_path).unwrap().trial_count(), 2);

        for p in [&json_path, &pdb_path, &back_path] {
            std::fs::remove_file(p).ok();
        }
        std::fs::remove_file(tmp("convert.pdb.bak")).ok();
        std::fs::remove_file(tmp("convert.json.bak")).ok();
        std::fs::remove_file(tmp("convert_back.json.bak")).ok();
    }

    #[test]
    fn serve_command_reports_latency_and_stats() {
        let out = run(&args(&[
            "serve",
            "--burst",
            "8",
            "--workers",
            "2",
            "--shards",
            "4",
        ]))
        .unwrap();
        assert!(out.contains("service: 4 shards, 2 workers"), "{out}");
        assert!(out.contains("latency: p50"), "{out}");
        assert!(out.contains("requests            16"), "{out}");
        assert!(out.contains("panics isolated     0"), "{out}");
        assert!(out.contains("store: 8 trial(s)"), "{out}");
    }

    #[test]
    fn serve_command_rejects_zero_shards() {
        let e = run(&args(&["serve", "--shards", "0", "--burst", "1"])).unwrap_err();
        assert!(e.message.contains("--shards"), "{e}");
    }

    #[test]
    fn serve_command_seeds_from_a_repo_file() {
        let repo_path = tmp("serve_seed.json");
        std::fs::remove_file(&repo_path).ok();
        let repo_str = repo_path.to_str().unwrap();
        run(&args(&[
            "simulate",
            "msa",
            "--threads",
            "4",
            "--sequences",
            "32",
            "--repo",
            repo_str,
        ]))
        .unwrap();
        let out = run(&args(&[
            "serve",
            "--repo",
            repo_str,
            "--burst",
            "4",
            "--workers",
            "1",
        ]))
        .unwrap();
        assert!(out.contains("seeded from --repo"), "{out}");
        // 1 seeded trial + 4 burst uploads.
        assert!(out.contains("store: 5 trial(s)"), "{out}");
        std::fs::remove_file(&repo_path).ok();
    }

    #[test]
    fn missing_trial_is_a_clean_error() {
        let repo_path = tmp("missing.json");
        std::fs::remove_file(&repo_path).ok();
        let e = run(&args(&[
            "analyze",
            "balance",
            "--repo",
            repo_path.to_str().unwrap(),
            "--app",
            "a",
            "--experiment",
            "b",
            "--trial",
            "c",
        ]))
        .unwrap_err();
        assert!(e.message.contains("not found"));
    }
}

#[cfg(test)]
mod sweep_tests {
    use super::*;

    #[test]
    fn sweep_fills_the_repository_in_parallel() {
        let dir = std::env::temp_dir().join("perfknow_cli_tests");
        std::fs::create_dir_all(&dir).unwrap();
        let repo_path = dir.join("sweep.json");
        std::fs::remove_file(&repo_path).ok();
        let args: Vec<String> = [
            "sweep",
            "--repo",
            repo_path.to_str().unwrap(),
            "--workers",
            "4",
            "--timesteps",
            "1",
            "--sequences",
            "32",
        ]
        .iter()
        .map(|s| s.to_string())
        .collect();
        let out = run(&args).unwrap();
        assert!(out.contains("swept 44 configurations"), "{out}");
        let repo = Repository::load(&repo_path).unwrap();
        assert_eq!(repo.trial_count(), 44);
        // Spot-check both families landed.
        assert!(repo.trial("msap", "scheduling", "16_dynamic,1").is_ok());
        assert!(repo
            .trial("Fluid Dynamic", "rib 90", "openmp_unoptimized_16")
            .is_ok());
        std::fs::remove_file(&repo_path).ok();
    }
}

#[cfg(test)]
mod analyze_extra_tests {
    use super::*;

    #[test]
    fn cluster_and_compare_commands() {
        let dir = std::env::temp_dir().join("perfknow_cli_tests");
        std::fs::create_dir_all(&dir).unwrap();
        let repo_path = dir.join("extra.json");
        std::fs::remove_file(&repo_path).ok();
        let repo_str = repo_path.to_str().unwrap().to_string();
        let args =
            |words: &[&str]| -> Vec<String> { words.iter().map(|s| s.to_string()).collect() };
        for version in ["unoptimized", "optimized"] {
            run(&args(&[
                "simulate",
                "genidlest",
                "--paradigm",
                "openmp",
                "--version",
                version,
                "--procs",
                "8",
                "--timesteps",
                "1",
                "--repo",
                &repo_str,
            ]))
            .unwrap();
        }

        let clustered = run(&args(&[
            "analyze",
            "cluster",
            "--repo",
            &repo_str,
            "--app",
            "Fluid Dynamic",
            "--experiment",
            "rib 90",
            "--trial",
            "openmp_unoptimized_8",
        ]))
        .unwrap();
        assert!(clustered.contains("behaviour class"), "{clustered}");

        let compared = run(&args(&[
            "analyze",
            "compare",
            "--repo",
            &repo_str,
            "--app",
            "Fluid Dynamic",
            "--experiment",
            "rib 90",
            "--baseline",
            "openmp_unoptimized_8",
            "--candidate",
            "openmp_optimized_8",
        ]))
        .unwrap();
        assert!(compared.contains("total ratio"), "{compared}");
        assert!(compared.contains("exchange_var"), "{compared}");
        std::fs::remove_file(&repo_path).ok();
    }
}
