//! The analysis API exposed to the embedded scripting language.
//!
//! The paper's Figure 1 drives PerfExplorer from a Jython script:
//! load rules, load a trial, derive a metric, compare events to main,
//! process the rules. [`PerfExplorerScript`] provides the same workflow
//! over the [`script`] interpreter:
//!
//! ```
//! use perfdmf::Repository;
//! use perfexplorer::scripting::PerfExplorerScript;
//! # use apps::msa::{self, MsaConfig};
//! # use simulator::openmp::Schedule;
//! # let mut repo = Repository::new();
//! # let mut config = MsaConfig::paper_400(4, Schedule::Static);
//! # config.sequences = 48;
//! # repo.add_trial("msap", "scheduling", msa::run(&config)).unwrap();
//! let mut session = PerfExplorerScript::new(repo);
//! let out = session
//!     .run(r#"
//!         load_rules("load_balance");
//!         let trial = load_trial("msap", "scheduling", "4_static");
//!         assert_balance_facts(trial, "TIME");
//!         let report = process_rules();
//!         report["diagnoses"]
//!     "#)
//!     .unwrap();
//! # let _ = out;
//! ```
//!
//! # Parallel trial sweeps
//!
//! `par_foreach_trial` fans a script block out over a list, one body
//! per item, on the process's worker budget. Each body runs against a
//! **fresh session** (its own trial handles, rule engine, and report)
//! over the same shared repository, so bodies are order-independent
//! and a failing or panicking body degrades alone — its outcome map
//! records the error while its siblings complete:
//!
//! ```text
//! let names = list_trials("msap", "scheduling");
//! let results = par_foreach_trial t in names {
//!     let trial = load_trial("msap", "scheduling", t);
//!     elapsed(trial, "TIME")
//! };
//! ```
//!
//! Because the bodies cannot see each other, facts asserted inside a
//! sweep body land in the body's private engine: aggregate inside the
//! body (e.g. return the report's diagnosis count) rather than relying
//! on session-level state.
//!
//! # One session, many requests
//!
//! Building a session registers every host function on a new
//! interpreter. A host that runs unrelated scripts one after another
//! (the service keeps one session per request slot) builds it once and
//! calls [`PerfExplorerScript::reset`] with each request's repository: the
//! interpreter returns to its freshly registered tables, and trials,
//! rule engine and last report are dropped.
//! [`PerfExplorerScript::release`] does the same with an empty
//! repository, so a kept session holds nothing of the last request.

use crate::derive::{derive_metric, DeriveOp};
use crate::facts::MeanEventFact;
use crate::metrics::{
    derive_inefficiency, memory_analysis, memory_facts, stall_decomposition, stall_facts,
};
use crate::result::TrialResult;
use crate::rulebase;
use crate::supervise::isolate;
use crate::{loadbalance, Result};
use parking_lot::Mutex;
use perfdmf::{Repository, Trial};
use rayon::prelude::*;
use rules::{Engine, Fact, RunReport};
use script::Interpreter;
pub use script::Value;
use simulator::machine::MachineConfig;
use std::collections::BTreeMap;
use std::sync::{Arc, OnceLock};

/// Every host function, in registration order. The order is part of
/// the compiled-script contract: a `script::Compiled` replays onto
/// interpreters whose name tables were built by registering these in
/// exactly this order, so new hosts are appended at the end.
const HOST_NAMES: &[&str] = &[
    "load_trial",
    "trial_events",
    "trial_metrics",
    "mean_exclusive",
    "mean_inclusive",
    "elapsed",
    "derive_metric",
    "derive_inefficiency",
    "compare_event_to_main",
    "compare_all_events",
    "assert_balance_facts",
    "assert_stall_facts",
    "assert_memory_facts",
    "assert_fact",
    "assert_context_fact",
    "assert_scaling_facts",
    "cluster_threads",
    "compare_trials",
    "load_rules",
    "load_rules_source",
    "process_rules",
    "list_trials",
];

/// Shared session state behind the host functions.
struct SessionState {
    /// The repository is shared (read-only from scripts) so sweep
    /// bodies on other threads can open their own sessions over it.
    repo: Arc<Repository>,
    /// Loaded trials; handles index into this list. A loaded trial
    /// shares the repository's copy until a derivation writes to it,
    /// which copies it first (`Arc::make_mut`), so scripts never mutate
    /// the repository or a sibling sweep body's view.
    trials: Vec<Arc<Trial>>,
    /// Built by the first host call that asserts facts, adds rules or
    /// runs them: most sweep bodies only read trials and never need one.
    engine: Option<Engine>,
    /// Shared with the session's sweep bodies.
    machine: Arc<MachineConfig>,
    last_report: Option<RunReport>,
}

impl SessionState {
    fn fresh(repo: Arc<Repository>, machine: Arc<MachineConfig>) -> Self {
        SessionState {
            repo,
            trials: Vec::new(),
            engine: None,
            machine,
            last_report: None,
        }
    }

    /// The session's rule engine, built on first use.
    fn engine(&mut self) -> &mut Engine {
        self.engine.get_or_insert_with(Engine::new)
    }
}

/// The repository a session's sweep executor opens body sessions
/// over: the session's own, swapped in by [`PerfExplorerScript::reset`].
type SweepRepo = Arc<Mutex<Arc<Repository>>>;

/// The repository a released session holds: empty, and one for the
/// whole process.
fn empty_repository() -> Arc<Repository> {
    static EMPTY: OnceLock<Arc<Repository>> = OnceLock::new();
    Arc::clone(EMPTY.get_or_init(|| Arc::new(Repository::new())))
}

/// A scripting session bound to a repository.
pub struct PerfExplorerScript {
    interp: Interpreter,
    state: Arc<Mutex<SessionState>>,
    sweep_repo: SweepRepo,
}

// A session moves between threads: the service keeps one per request
// slot and runs it on whichever caller holds the slot.
const _: fn() = || {
    fn assert_send<T: Send>() {}
    assert_send::<PerfExplorerScript>();
};

/// Outcome of [`PerfExplorerScript::run_supervised`]: the script's
/// value when it completed, plus whatever partial results the session
/// accumulated before a failure.
#[derive(Debug)]
pub struct SupervisedScript {
    /// The script's final value, when it ran to completion.
    pub value: Option<Value>,
    /// The report of the last completed `process_rules()` call, even
    /// if the script failed afterwards.
    pub report: Option<RunReport>,
    /// Everything the script printed before finishing or failing.
    pub printed: Vec<String>,
    /// Why the run is partial; empty on a clean run.
    pub degraded: Vec<crate::supervise::DegradedStage>,
}

impl SupervisedScript {
    /// Whether the script ran to completion.
    pub fn is_complete(&self) -> bool {
        self.degraded.is_empty()
    }
}

fn host_err(msg: impl Into<String>) -> String {
    msg.into()
}

fn trial_handle(id: usize) -> Value {
    Value::Handle {
        tag: "trial",
        id: id as u64,
    }
}

fn expect_trial(args: &[Value], i: usize) -> std::result::Result<usize, String> {
    match args.get(i).and_then(Value::as_handle) {
        Some(("trial", id)) => Ok(id as usize),
        _ => Err(host_err(format!("argument {i} must be a trial handle"))),
    }
}

fn expect_str(args: &[Value], i: usize) -> std::result::Result<&str, String> {
    args.get(i)
        .and_then(Value::as_str)
        .ok_or_else(|| host_err(format!("argument {i} must be a string")))
}

impl PerfExplorerScript {
    /// Creates a session over a repository, on the Altix 300 machine
    /// model.
    pub fn new(repo: Repository) -> Self {
        Self::with_machine(repo, MachineConfig::altix300())
    }

    /// Creates a session with an explicit machine model.
    pub fn with_machine(repo: Repository, machine: MachineConfig) -> Self {
        Self::with_shared(Arc::new(repo), machine)
    }

    /// Creates a session over an already-shared repository — what a
    /// multi-tenant service uses so its sessions (and their sweep
    /// bodies) read one copy of the data.
    pub fn with_shared(repo: Arc<Repository>, machine: MachineConfig) -> Self {
        let machine = Arc::new(machine);
        let state = Arc::new(Mutex::new(SessionState::fresh(
            Arc::clone(&repo),
            Arc::clone(&machine),
        )));
        let sweep_repo = Arc::new(Mutex::new(repo));
        let mut interp = Interpreter::new();
        Self::register_all(&mut interp, &state);
        interp.mark();
        interp.set_parallel_executor(sweep_executor(Arc::clone(&sweep_repo), machine));
        PerfExplorerScript {
            interp,
            state,
            sweep_repo,
        }
    }

    /// Rebinds the session to `repo` in the state of a newly built one:
    /// the interpreter is reset to its registered tables (names,
    /// globals and user functions of earlier scripts are gone; see
    /// [`Interpreter::reset`]), and loaded trials, the rule engine and
    /// the last report are dropped. The machine model and any sweep
    /// observer stay. A program compiled on any session replays here.
    pub fn reset(&mut self, repo: impl Into<Arc<Repository>>) {
        let repo = repo.into();
        self.interp.reset();
        {
            let mut st = self.state.lock();
            st.trials.clear();
            st.engine = None;
            st.last_report = None;
            st.repo = Arc::clone(&repo);
        }
        *self.sweep_repo.lock() = repo;
    }

    /// Resets the session onto an empty repository, so that between
    /// requests it pins no snapshot, trial, engine or script value.
    pub fn release(&mut self) {
        self.reset(empty_repository());
    }

    /// How many names the session's interpreter holds: its hosts' plus
    /// those of every script compiled on it since the last reset.
    pub fn interned(&self) -> usize {
        self.interp.interned()
    }

    /// Runs a script, returning its final value. Nothing of the
    /// compilation is kept: a workflow run many times compiles once
    /// with [`PerfExplorerScript::compile`].
    pub fn run(&mut self, source: &str) -> Result<Value> {
        Ok(self.interp.run(source)?)
    }

    /// Compiles a workflow script once for repeated execution, here or
    /// on any other session (every [`PerfExplorerScript`] registers the
    /// same host functions): the service layer compiles once and runs
    /// the program in every request slot.
    pub fn compile(&mut self, source: &str) -> Result<script::Compiled> {
        Ok(self.interp.compile(source)?)
    }

    /// The same as [`PerfExplorerScript::compile`]. The name stays
    /// because the service benchmark in `perfbench/` calls it and is
    /// built unchanged against this crate.
    pub fn compile_portable(&mut self, source: &str) -> Result<script::Compiled> {
        self.compile(source)
    }

    /// Runs a script previously compiled with
    /// [`PerfExplorerScript::compile`] on this or any other session.
    pub fn run_compiled(&mut self, program: &script::Compiled) -> Result<Value> {
        Ok(self.interp.run_compiled(program)?)
    }

    /// [`PerfExplorerScript::run_compiled`] under the same panic
    /// isolation as [`PerfExplorerScript::run_supervised`].
    pub fn run_compiled_supervised(&mut self, program: &script::Compiled) -> SupervisedScript {
        self.supervise(|interp| interp.run_compiled(program))
    }

    /// The same as [`PerfExplorerScript::run_compiled_supervised`]. The
    /// name stays because the service benchmark in `perfbench/` calls
    /// it and is built unchanged against this crate.
    pub fn run_portable_supervised(&mut self, program: &script::Compiled) -> SupervisedScript {
        self.run_compiled_supervised(program)
    }

    /// Observes every completed `par_foreach_trial` sweep on this
    /// session: the callback receives `(bodies, failed_bodies)` after
    /// the sweep's outcomes are collected. The service layer hangs its
    /// sweep counters here.
    pub fn set_sweep_observer(&mut self, observer: Arc<dyn Fn(usize, usize) + Send + Sync>) {
        let machine = Arc::clone(&self.state.lock().machine);
        let exec = sweep_executor(Arc::clone(&self.sweep_repo), machine);
        self.interp
            .set_parallel_executor(Arc::new(move |runner, items| {
                let outcomes = exec(runner, items);
                let failed = outcomes.iter().filter(|o| o.result.is_err()).count();
                observer(outcomes.len(), failed);
                outcomes
            }));
    }

    /// Takes the script's printed output.
    pub fn output(&mut self) -> Vec<String> {
        self.interp.take_output()
    }

    /// The report of the most recent `process_rules()` call.
    pub fn last_report(&self) -> Option<RunReport> {
        self.state.lock().last_report.clone()
    }

    /// Runs a workflow script under panic isolation: a script error or
    /// a panic inside a host function becomes a [`crate::supervise::DegradedStage`]
    /// record instead of unwinding the caller. The outcome carries
    /// whatever the session produced before the failure — the last
    /// `process_rules()` report and the printed output — so an
    /// unattended pipeline can salvage partial conclusions.
    ///
    /// After a panic the session's interpreter state may be
    /// inconsistent, and a reset does not repair it; callers that
    /// continue should start a fresh session.
    pub fn run_supervised(&mut self, source: &str) -> SupervisedScript {
        self.supervise(|interp| interp.run(source))
    }

    /// The body both supervised runners share: one isolated `"script"`
    /// stage, then whatever partial results the session holds.
    fn supervise(
        &mut self,
        run: impl FnOnce(&mut Interpreter) -> std::result::Result<Value, script::ScriptError>,
    ) -> SupervisedScript {
        let (value, degraded) = match isolate("script", || run(&mut self.interp)) {
            Ok(v) => (Some(v), Vec::new()),
            Err(entry) => (None, vec![entry]),
        };
        SupervisedScript {
            value,
            report: self.last_report(),
            printed: self.output(),
            degraded,
        }
    }

    fn register_all(interp: &mut Interpreter, state: &Arc<Mutex<SessionState>>) {
        for &name in HOST_NAMES {
            let s = state.clone();
            interp.register(name, move |args| call_host(&s, name, args));
        }
    }
}

/// Builds the executor that runs `par_foreach_trial` bodies on the
/// process's worker budget. Each body gets a fresh session over the
/// session's current repository; a panicking body is caught and
/// recorded as that body's error outcome, so one corrupt trial cannot
/// take down its siblings or the pool.
fn sweep_executor(repo: SweepRepo, machine: Arc<MachineConfig>) -> Arc<script::ParallelExecutor> {
    Arc::new(move |runner: &script::ParRunner, items: Vec<Value>| {
        let repo = &Arc::clone(&repo.lock());
        let machine = &machine;
        items
            .into_par_iter()
            .map(|item| {
                use std::panic::{catch_unwind, AssertUnwindSafe};
                let state = Mutex::new(SessionState::fresh(Arc::clone(repo), Arc::clone(machine)));
                let mut host = |name: &str, args: &mut Vec<Value>| call_host(&state, name, args);
                catch_unwind(AssertUnwindSafe(|| runner.run_one(item, &mut host))).unwrap_or_else(
                    |payload| script::BodyOutcome {
                        result: Err(script::ScriptError::runtime(
                            0,
                            format!(
                                "panic in sweep body: {}",
                                crate::supervise::panic_message(payload)
                            ),
                        )),
                        output: Vec::new(),
                        steps: 0,
                    },
                )
            })
            .collect()
    })
}

/// Executes one host function against a session. This single dispatch
/// backs both the interpreter's registered closures and the sweep
/// executor's per-thread sessions, so the two paths cannot drift.
fn call_host(
    state: &Mutex<SessionState>,
    name: &str,
    args: &mut [Value],
) -> std::result::Result<Value, String> {
    // No host function runs a script, so the state is only ever held by
    // the call in progress; a host call that re-entered the session
    // would find it taken and fails as a script error instead of
    // deadlocking.
    let Some(mut st) = state.try_lock() else {
        return Err(host_err(format!(
            "{name}: the session is busy in another host call"
        )));
    };
    match name {
        // --- data access ---
        "load_trial" => {
            let app = expect_str(args, 0)?;
            let exp = expect_str(args, 1)?;
            let trial = expect_str(args, 2)?;
            let t = Arc::clone(
                st.repo
                    .shared_trial(app, exp, trial)
                    .map_err(|e| host_err(e.to_string()))?,
            );
            st.trials.push(t);
            Ok(trial_handle(st.trials.len() - 1))
        }
        "list_trials" => {
            let app = expect_str(args, 0)?;
            let exp = expect_str(args, 1)?;
            let experiment = st
                .repo
                .experiment(app, exp)
                .map_err(|e| host_err(e.to_string()))?;
            Ok(Value::List(Arc::new(
                experiment.trial_names().map(Value::from).collect(),
            )))
        }
        "trial_events" => {
            let id = expect_trial(args, 0)?;
            let trial = st.trials.get(id).ok_or_else(|| host_err("stale handle"))?;
            Ok(Value::List(Arc::new(
                trial
                    .profile
                    .events()
                    .iter()
                    .map(|e| Value::Str(Arc::clone(&e.name)))
                    .collect(),
            )))
        }
        "trial_metrics" => {
            let id = expect_trial(args, 0)?;
            let trial = st.trials.get(id).ok_or_else(|| host_err("stale handle"))?;
            Ok(Value::List(Arc::new(
                trial
                    .profile
                    .metrics()
                    .iter()
                    .map(|m| Value::from(m.name.as_str()))
                    .collect(),
            )))
        }
        "mean_exclusive" | "mean_inclusive" => {
            let id = expect_trial(args, 0)?;
            let event = expect_str(args, 1)?;
            let metric = expect_str(args, 2)?;
            let trial = st.trials.get(id).ok_or_else(|| host_err("stale handle"))?;
            let column = TrialResult::new(trial)
                .column(event, metric)
                .map_err(|e| host_err(e.to_string()))?;
            // Summed in thread order, so the mean is bit-identical to
            // summing `TrialResult::exclusive`'s (or `inclusive`'s) vector.
            let sum: f64 = if name == "mean_exclusive" {
                column.iter().map(|c| c.exclusive).sum()
            } else {
                column.iter().map(|c| c.inclusive).sum()
            };
            Ok(Value::Num(sum / column.len().max(1) as f64))
        }
        "elapsed" => {
            let id = expect_trial(args, 0)?;
            let metric = expect_str(args, 1)?;
            let trial = st.trials.get(id).ok_or_else(|| host_err("stale handle"))?;
            TrialResult::new(trial)
                .elapsed(metric)
                .map(Value::Num)
                .map_err(|e| host_err(e.to_string()))
        }
        // --- derived metrics ---
        "derive_metric" => {
            let id = expect_trial(args, 0)?;
            let lhs = expect_str(args, 1)?;
            let op = match expect_str(args, 2)? {
                "add" => DeriveOp::Add,
                "subtract" => DeriveOp::Subtract,
                "multiply" => DeriveOp::Multiply,
                "divide" => DeriveOp::Divide,
                other => return Err(host_err(format!("unknown operation {other:?}"))),
            };
            let rhs = expect_str(args, 3)?;
            let trial = st
                .trials
                .get_mut(id)
                .map(Arc::make_mut)
                .ok_or_else(|| host_err("stale handle"))?;
            derive_metric(trial, lhs, op, rhs)
                .map(Value::from)
                .map_err(|e| host_err(e.to_string()))
        }
        "derive_inefficiency" => {
            let id = expect_trial(args, 0)?;
            let trial = st
                .trials
                .get_mut(id)
                .map(Arc::make_mut)
                .ok_or_else(|| host_err("stale handle"))?;
            derive_inefficiency(trial)
                .map(Value::from)
                .map_err(|e| host_err(e.to_string()))
        }
        // --- facts ---
        "compare_event_to_main" => {
            let id = expect_trial(args, 0)?;
            let metric = expect_str(args, 1)?;
            let severity = expect_str(args, 2)?;
            let event = expect_str(args, 3)?;
            let trial = st.trials.get(id).ok_or_else(|| host_err("stale handle"))?;
            let fact = MeanEventFact::compare_event_to_main(trial, metric, severity, event)
                .map_err(|e| host_err(e.to_string()))?;
            st.engine().assert_fact(fact);
            Ok(Value::Null)
        }
        "compare_all_events" => {
            let id = expect_trial(args, 0)?;
            let metric = expect_str(args, 1)?;
            let severity = expect_str(args, 2)?;
            let trial = st.trials.get(id).ok_or_else(|| host_err("stale handle"))?;
            let facts = MeanEventFact::compare_all_events(trial, metric, severity)
                .map_err(|e| host_err(e.to_string()))?;
            let n = facts.len();
            for f in facts {
                st.engine().assert_fact(f);
            }
            Ok(Value::Num(n as f64))
        }
        "assert_balance_facts" => {
            let id = expect_trial(args, 0)?;
            let metric = expect_str(args, 1)?;
            let trial = st.trials.get(id).ok_or_else(|| host_err("stale handle"))?;
            let analysis =
                loadbalance::analyze(trial, metric).map_err(|e| host_err(e.to_string()))?;
            let facts = analysis.facts();
            let n = facts.len();
            for f in facts {
                st.engine().assert_fact(f);
            }
            Ok(Value::Num(n as f64))
        }
        "assert_stall_facts" => {
            let id = expect_trial(args, 0)?;
            let machine = Arc::clone(&st.machine);
            let trial = st.trials.get(id).ok_or_else(|| host_err("stale handle"))?;
            let facts = stall_facts(
                &stall_decomposition(trial, &machine).map_err(|e| host_err(e.to_string()))?,
            );
            let n = facts.len();
            for f in facts {
                st.engine().assert_fact(f);
            }
            Ok(Value::Num(n as f64))
        }
        "assert_memory_facts" => {
            let id = expect_trial(args, 0)?;
            let machine = Arc::clone(&st.machine);
            let trial = st.trials.get(id).ok_or_else(|| host_err("stale handle"))?;
            let facts = memory_facts(
                &memory_analysis(trial, &machine).map_err(|e| host_err(e.to_string()))?,
            );
            let n = facts.len();
            for f in facts {
                st.engine().assert_fact(f);
            }
            Ok(Value::Num(n as f64))
        }
        "assert_fact" => {
            // assert_fact(type, { field: value, ... })
            let fact_type = expect_str(args, 0)?;
            let map = args
                .get(1)
                .and_then(Value::as_map)
                .ok_or_else(|| host_err("argument 1 must be a map"))?;
            let mut fact = Fact::new(fact_type);
            for (k, v) in map {
                match v {
                    Value::Num(n) => fact.set(k, *n),
                    Value::Str(sv) => fact.set(k, &**sv),
                    Value::Bool(b) => fact.set(k, *b),
                    other => {
                        return Err(host_err(format!(
                            "field {k:?} has unsupported type {}",
                            other.type_name()
                        )))
                    }
                }
            }
            st.engine().assert_fact(fact);
            Ok(Value::Null)
        }
        "assert_context_fact" => {
            let id = expect_trial(args, 0)?;
            let trial = st.trials.get(id).ok_or_else(|| host_err("stale handle"))?;
            let fact = crate::facts::context_fact(trial);
            st.engine().assert_fact(fact);
            Ok(Value::Null)
        }
        "assert_scaling_facts" => {
            // assert_scaling_facts([[procs, trial], ...], metric)
            let series_arg = args
                .first()
                .and_then(Value::as_list)
                .ok_or_else(|| host_err("argument 0 must be a list of [procs, trial] pairs"))?;
            let metric = expect_str(args, 1)?;
            let mut pairs: Vec<(usize, usize)> = Vec::new();
            for item in series_arg {
                let pair = item
                    .as_list()
                    .ok_or_else(|| host_err("each series item must be [procs, trial]"))?;
                let procs = pair
                    .first()
                    .and_then(Value::as_num)
                    .ok_or_else(|| host_err("procs must be a number"))?
                    as usize;
                let handle = match pair.get(1).and_then(Value::as_handle) {
                    Some(("trial", id)) => id as usize,
                    _ => return Err(host_err("second element must be a trial handle")),
                };
                pairs.push((procs, handle));
            }
            let trials: Vec<(usize, Arc<Trial>)> = pairs
                .iter()
                .map(|(p, h)| {
                    st.trials
                        .get(*h)
                        .cloned()
                        .map(|t| (*p, t))
                        .ok_or_else(|| host_err("stale handle"))
                })
                .collect::<std::result::Result<_, String>>()?;
            let refs: Vec<(usize, &Trial)> = trials.iter().map(|(p, t)| (*p, &**t)).collect();
            let (_, target) = refs
                .last()
                .ok_or_else(|| host_err("series must not be empty"))?;
            let mut count = 0.0;
            let mut series = Vec::new();
            for event in target.profile.events() {
                if let Ok(s) = crate::scalability::per_event_total(&refs, metric, &event.name) {
                    series.push(s);
                }
            }
            for fact in crate::scalability::scaling_facts(&series) {
                st.engine().assert_fact(fact);
                count += 1.0;
            }
            Ok(Value::Num(count))
        }
        "cluster_threads" => {
            let id = expect_trial(args, 0)?;
            let metric = expect_str(args, 1)?;
            let trial = st.trials.get(id).ok_or_else(|| host_err("stale handle"))?;
            let clustering = crate::cluster::cluster_threads(trial, metric, 4)
                .map_err(|e| host_err(e.to_string()))?;
            let mut out = BTreeMap::new();
            out.insert("clusters".to_string(), Value::Num(clustering.k as f64));
            out.insert("silhouette".to_string(), Value::Num(clustering.silhouette));
            out.insert(
                "groups".to_string(),
                Value::List(Arc::new(
                    clustering
                        .groups
                        .iter()
                        .map(|g| {
                            Value::List(Arc::new(
                                g.threads.iter().map(|&t| Value::Num(t as f64)).collect(),
                            ))
                        })
                        .collect(),
                )),
            );
            let facts = clustering.facts();
            for f in facts {
                st.engine().assert_fact(f);
            }
            Ok(Value::from(out))
        }
        "compare_trials" => {
            let base = expect_trial(args, 0)?;
            let cand = expect_trial(args, 1)?;
            let metric = expect_str(args, 2)?;
            let baseline = st
                .trials
                .get(base)
                .cloned()
                .ok_or_else(|| host_err("stale handle"))?;
            let candidate = st
                .trials
                .get(cand)
                .cloned()
                .ok_or_else(|| host_err("stale handle"))?;
            let cmp = crate::compare::compare(&baseline, &candidate, metric)
                .map_err(|e| host_err(e.to_string()))?;
            let mut out = BTreeMap::new();
            out.insert("totalRatio".to_string(), Value::Num(cmp.total_ratio));
            out.insert(
                "regressions".to_string(),
                Value::List(Arc::new(
                    cmp.regressions(1.25)
                        .iter()
                        .map(|d| Value::from(d.event.as_str()))
                        .collect(),
                )),
            );
            out.insert(
                "improvements".to_string(),
                Value::List(Arc::new(
                    cmp.improvements(1.25)
                        .iter()
                        .map(|d| Value::from(d.event.as_str()))
                        .collect(),
                )),
            );
            for f in cmp.facts() {
                st.engine().assert_fact(f);
            }
            Ok(Value::from(out))
        }
        // --- rules ---
        "load_rules" => {
            let which = expect_str(args, 0)?;
            let source = match which {
                "load_balance" => rulebase::LOAD_BALANCE_RULES,
                "stalls" => rulebase::STALL_RULES,
                "locality" => rulebase::LOCALITY_RULES,
                "power" => rulebase::POWER_RULES,
                other => return Err(host_err(format!("unknown rulebase {other:?}"))),
            };
            let compiled = rulebase::compiled(&[source]).map_err(|e| host_err(e.to_string()))?;
            let n = compiled.len();
            st.engine()
                .add_rules(compiled.rules().to_vec())
                .map_err(|e| host_err(e.to_string()))?;
            Ok(Value::Num(n as f64))
        }
        "load_rules_source" => {
            let source = expect_str(args, 0)?;
            let parsed = rules::drl::parse(source).map_err(|e| host_err(e.to_string()))?;
            let n = parsed.len();
            st.engine()
                .add_rules(parsed)
                .map_err(|e| host_err(e.to_string()))?;
            Ok(Value::Num(n as f64))
        }
        "process_rules" => {
            let report = st.engine().run().map_err(|e| host_err(e.to_string()))?;
            let mut out = BTreeMap::new();
            out.insert(
                "diagnoses".to_string(),
                Value::Num(report.diagnoses.len() as f64),
            );
            out.insert(
                "firings".to_string(),
                Value::Num(report.firings.len() as f64),
            );
            out.insert(
                "printed".to_string(),
                Value::List(Arc::new(
                    report
                        .printed
                        .iter()
                        .map(|l| Value::from(l.as_str()))
                        .collect(),
                )),
            );
            out.insert(
                "recommendations".to_string(),
                Value::List(Arc::new(
                    report
                        .diagnoses
                        .iter()
                        .filter_map(|d| d.recommendation.as_deref())
                        .map(Value::from)
                        .collect(),
                )),
            );
            st.last_report = Some(report);
            Ok(Value::from(out))
        }
        other => Err(host_err(format!("unregistered host function {other:?}"))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use apps::msa::{self, MsaConfig};
    use simulator::openmp::Schedule;

    fn repo_with_msa() -> Repository {
        let mut repo = Repository::new();
        for schedule in [Schedule::Static, Schedule::Dynamic(1)] {
            let mut config = MsaConfig::paper_400(8, schedule);
            config.sequences = 96;
            repo.add_trial("msap", "scheduling", msa::run(&config))
                .unwrap();
        }
        repo
    }

    #[test]
    fn figure_one_style_script_end_to_end() {
        let mut session = PerfExplorerScript::new(repo_with_msa());
        let out = session
            .run(
                r#"
                load_rules("load_balance");
                let trial = load_trial("msap", "scheduling", "8_static");
                let n = assert_balance_facts(trial, "TIME");
                print("asserted " + n + " facts");
                let report = process_rules();
                report["diagnoses"]
                "#,
            )
            .unwrap();
        let diagnoses = out.as_num().unwrap();
        assert!(diagnoses >= 1.0, "expected imbalance diagnoses");
        let report = session.last_report().unwrap();
        assert!(report.fired("Load imbalance in nested loops"));
        assert!(session.output()[0].starts_with("asserted "));
    }

    #[test]
    fn supervised_clean_script_matches_plain_run() {
        let source = r#"
            load_rules("load_balance");
            let trial = load_trial("msap", "scheduling", "8_static");
            assert_balance_facts(trial, "TIME");
            let report = process_rules();
            report["diagnoses"]
        "#;
        let mut plain = PerfExplorerScript::new(repo_with_msa());
        let expected = plain.run(source).unwrap();
        let mut session = PerfExplorerScript::new(repo_with_msa());
        let out = session.run_supervised(source);
        assert!(out.is_complete());
        assert_eq!(out.value.unwrap().as_num(), expected.as_num());
        assert!(out.report.unwrap().fired("Load imbalance in nested loops"));
    }

    #[test]
    fn supervised_script_failure_keeps_partial_results() {
        let mut session = PerfExplorerScript::new(repo_with_msa());
        let out = session.run_supervised(
            r#"
            load_rules("load_balance");
            let trial = load_trial("msap", "scheduling", "8_static");
            assert_balance_facts(trial, "TIME");
            let report = process_rules();
            print("rules done");
            load_trial("msap", "scheduling", "no_such_trial");
            "#,
        );
        assert!(!out.is_complete());
        assert!(out.value.is_none());
        // Everything up to the failure survives.
        assert!(out.report.unwrap().fired("Load imbalance in nested loops"));
        assert_eq!(out.printed, vec!["rules done".to_string()]);
        assert_eq!(out.degraded.len(), 1);
        assert_eq!(out.degraded[0].stage, "script");
    }

    #[test]
    fn derive_and_inspect_from_script() {
        let mut session = PerfExplorerScript::new(repo_with_msa());
        let out = session
            .run(
                r#"
                let t = load_trial("msap", "scheduling", "8_dynamic,1");
                let name = derive_metric(t, "BACK_END_BUBBLE_ALL", "divide", "CPU_CYCLES");
                let metrics = trial_metrics(t);
                has(metrics, name)
                "#,
            )
            .unwrap();
        assert_eq!(out, Value::Bool(true));
    }

    #[test]
    fn scripted_custom_rule_and_fact() {
        let mut session = PerfExplorerScript::new(Repository::new());
        let out = session
            .run(
                r#"
                load_rules_source("rule \"t\" when F( x > 1, v : x ) then print(\"got \" + v); end");
                assert_fact("F", { x: 2 });
                assert_fact("F", { x: 0 });
                let r = process_rules();
                r["printed"]
                "#,
            )
            .unwrap();
        assert_eq!(out, Value::from(vec![Value::Str("got 2".into())]));
    }

    #[test]
    fn cluster_and_compare_from_script() {
        let mut repo = repo_with_msa();
        // Also add an unoptimized GenIDLEST pair for comparison.
        use apps::genidlest::{self, CodeVersion, GenIdlestConfig, Paradigm, Problem};
        for version in [CodeVersion::Unoptimized, CodeVersion::Optimized] {
            let mut c = GenIdlestConfig::new(Problem::Rib90, Paradigm::OpenMp, version, 8);
            c.timesteps = 1;
            repo.add_trial("Fluid Dynamic", "rib 90", genidlest::run(&c))
                .unwrap();
        }
        let mut session = PerfExplorerScript::new(repo);
        let out = session
            .run(
                r#"
                let unopt = load_trial("Fluid Dynamic", "rib 90", "openmp_unoptimized_8");
                let opt = load_trial("Fluid Dynamic", "rib 90", "openmp_optimized_8");
                let clustering = cluster_threads(unopt, "TIME");
                let cmp = compare_trials(unopt, opt, "TIME");
                [clustering["clusters"] >= 2, cmp["totalRatio"] < 0.5,
                 len(cmp["improvements"]) > 0]
                "#,
            )
            .unwrap();
        assert_eq!(out, Value::from(vec![Value::Bool(true); 3]));
    }

    #[test]
    fn errors_surface_with_context() {
        let mut session = PerfExplorerScript::new(Repository::new());
        let err = session.run("load_trial(\"a\", \"b\", \"c\")").unwrap_err();
        let text = err.to_string();
        assert!(text.contains("load_trial"), "{text}");
        assert!(text.contains("not found"), "{text}");

        let err2 = session.run("load_rules(\"nope\")").unwrap_err();
        assert!(err2.to_string().contains("unknown rulebase"));

        let err3 = session.run("elapsed(5, \"TIME\")").unwrap_err();
        assert!(err3.to_string().contains("trial handle"));
    }

    #[test]
    fn loading_a_rulebase_twice_is_a_duplicate_rule_error() {
        let mut session = PerfExplorerScript::new(Repository::new());
        session.run("load_rules(\"load_balance\")").unwrap();
        let err = session.run("load_rules(\"load_balance\")").unwrap_err();
        assert!(err.to_string().contains("duplicate rule name"), "{err}");
    }

    #[test]
    fn trial_accessors_from_script() {
        let mut session = PerfExplorerScript::new(repo_with_msa());
        let out = session
            .run(
                r#"
                let t = load_trial("msap", "scheduling", "8_static");
                let events = trial_events(t);
                let e = elapsed(t, "TIME");
                let m = mean_exclusive(t, "main => distance_matrix => sw_align", "TIME");
                [len(events) >= 5, e > 0, m > 0]
                "#,
            )
            .unwrap();
        assert_eq!(out, Value::from(vec![Value::Bool(true); 3]));
    }

    // --- parallel trial sweeps ---

    const SWEEP_SOURCE: &str = r#"
        let names = list_trials("msap", "scheduling");
        let results = par_foreach_trial t in names {
            let trial = load_trial("msap", "scheduling", t);
            let n = assert_balance_facts(trial, "TIME");
            process_rules();
            [t, elapsed(trial, "TIME"), n]
        };
        results
    "#;

    #[test]
    fn list_trials_enumerates_experiment() {
        let mut session = PerfExplorerScript::new(repo_with_msa());
        let out = session.run(r#"list_trials("msap", "scheduling")"#).unwrap();
        let names: Vec<&str> = out
            .as_list()
            .unwrap()
            .iter()
            .filter_map(Value::as_str)
            .collect();
        assert_eq!(names, vec!["8_dynamic,1", "8_static"]);
        let err = session.run(r#"list_trials("nope", "x")"#).unwrap_err();
        assert!(err.to_string().contains("not found"), "{err}");
    }

    #[test]
    fn sweep_runs_every_trial_and_matches_sequential() {
        // The parallel sweep must produce exactly what running the body
        // by hand per trial produces, in trial order.
        let mut session = PerfExplorerScript::new(repo_with_msa());
        let out = session.run(SWEEP_SOURCE).unwrap();
        let outcomes = out.as_list().unwrap().to_vec();
        assert_eq!(outcomes.len(), 2);

        let mut sequential = PerfExplorerScript::new(repo_with_msa());
        for (i, name) in ["8_dynamic,1", "8_static"].iter().enumerate() {
            let m = outcomes[i].as_map().unwrap();
            assert_eq!(m.get("ok"), Some(&Value::Bool(true)), "outcome {i}: {m:?}");
            let body = m.get("value").unwrap().as_list().unwrap();
            assert_eq!(body[0].as_str(), Some(*name));
            // A fresh sequential session computes the same elapsed time.
            let expected = sequential
                .run(&format!(
                    r#"let t = load_trial("msap", "scheduling", "{name}"); elapsed(t, "TIME")"#
                ))
                .unwrap();
            assert_eq!(body[1], expected);
            assert!(body[2].as_num().unwrap() >= 1.0);
        }
    }

    #[test]
    fn sweep_bodies_cannot_write_session_state() {
        let mut session = PerfExplorerScript::new(repo_with_msa());
        let err_outcome = session
            .run(
                r#"
                let g = 0;
                let r = par_foreach_trial t in list_trials("msap", "scheduling") { g = 1; };
                r[0]
                "#,
            )
            .unwrap();
        let m = err_outcome.as_map().unwrap();
        assert_eq!(m.get("ok"), Some(&Value::Bool(false)));
        assert!(
            m.get("error")
                .unwrap()
                .as_str()
                .unwrap()
                .contains("cannot assign to global"),
            "{m:?}"
        );
    }

    #[test]
    fn sweep_failing_body_degrades_alone() {
        // The first body targets a missing trial and fails; the other
        // body completes with its value.
        let mut session = PerfExplorerScript::new(repo_with_msa());
        let out = session
            .run(
                r#"
                let r = par_foreach_trial t in ["no_such_trial", "8_static"] {
                    let trial = load_trial("msap", "scheduling", t);
                    elapsed(trial, "TIME")
                };
                r
                "#,
            )
            .unwrap();
        let outcomes = out.as_list().unwrap();
        let bad = outcomes[0].as_map().unwrap();
        assert_eq!(bad.get("ok"), Some(&Value::Bool(false)));
        assert!(
            bad.get("error")
                .unwrap()
                .as_str()
                .unwrap()
                .contains("not found"),
            "{bad:?}"
        );
        let good = outcomes[1].as_map().unwrap();
        assert_eq!(good.get("ok"), Some(&Value::Bool(true)));
        assert!(good.get("value").unwrap().as_num().unwrap() > 0.0);
    }

    #[test]
    fn sweep_output_is_stitched_in_trial_order() {
        let mut session = PerfExplorerScript::new(repo_with_msa());
        session
            .run(
                r#"
                par_foreach_trial t in list_trials("msap", "scheduling") {
                    print("saw " + t);
                };
                "#,
            )
            .unwrap();
        assert_eq!(
            session.output(),
            vec!["saw 8_dynamic,1".to_string(), "saw 8_static".to_string()]
        );
    }

    #[test]
    fn compiled_supervised_run_matches_the_source_run() {
        let mut session = PerfExplorerScript::new(repo_with_msa());
        let program = session.compile(SWEEP_SOURCE).unwrap();
        let compiled = session.run_compiled_supervised(&program);
        let direct = PerfExplorerScript::new(repo_with_msa()).run_supervised(SWEEP_SOURCE);
        assert!(compiled.is_complete());
        assert_eq!(compiled.value, direct.value);

        let failing = session.compile(r#"load_trial("msap", "scheduling", "nope")"#);
        let out = session.run_compiled_supervised(&failing.unwrap());
        assert!(out.value.is_none());
        assert_eq!(out.degraded.len(), 1);
        assert_eq!(out.degraded[0].stage, "script");
    }

    // --- one session, many requests ---

    const RULE: &str =
        r#"load_rules_source("rule \"t\" when F( x > 1, v : x ) then print(\"got \" + v); end");"#;

    #[test]
    fn a_reset_session_sees_nothing_of_the_previous_script() {
        let mut session = PerfExplorerScript::new(repo_with_msa());
        session
            .run(r#"load_trial("msap", "scheduling", "8_static");"#)
            .unwrap();
        let first = session.run_supervised(&format!(
            r#"
            let leftover = 1;
            fn load_trial(a, b, c) {{ return 42; }}
            fn helper() {{ return 7; }}
            let t = list_trials("msap", "scheduling");
            {RULE}
            assert_fact("F", {{ x: 2 }});
            print("first");
            process_rules()["printed"]
            "#
        ));
        assert!(first.is_complete(), "{:?}", first.degraded);
        assert_eq!(first.printed, vec!["first".to_string()]);
        assert!(first.report.is_some());
        session.run("print(\"unread\");").unwrap();

        let fresh = |s: &mut PerfExplorerScript| s.reset(repo_with_msa());
        fresh(&mut session);
        assert!(session.output().is_empty());
        assert!(session.last_report().is_none());
        let err = session.run("leftover").unwrap_err();
        assert!(err.to_string().contains("undefined variable"), "{err}");
        fresh(&mut session);
        let err = session.run("helper()").unwrap_err();
        assert!(err.to_string().contains("unknown function"), "{err}");
        // The host comes back from under the shadowing script function,
        // and the trial list starts over at handle 0.
        fresh(&mut session);
        let handle = session
            .run(r#"load_trial("msap", "scheduling", "8_static")"#)
            .unwrap();
        assert_eq!(handle.as_handle(), Some(("trial", 0)));
        // A new engine: the rule loads again and last request's fact is
        // gone.
        fresh(&mut session);
        let printed = session
            .run(&format!(r#"{RULE} process_rules()["printed"]"#))
            .unwrap();
        assert_eq!(printed, Value::from(Vec::<Value>::new()));
    }

    #[test]
    fn a_released_session_holds_nothing_of_the_request() {
        let repo = repo_with_msa();
        let trial = Arc::clone(repo.shared_trial("msap", "scheduling", "8_static").unwrap());
        let before = Arc::strong_count(&trial);
        let mut session = PerfExplorerScript::new(Repository::new());
        session.reset(repo.clone());
        let out = session
            .run(&format!(
                r#"
                let t = load_trial("msap", "scheduling", "8_static");
                let kept = [t, trial_events(t)];
                assert_balance_facts(t, "TIME");
                load_rules("load_balance");
                process_rules();
                {SWEEP_SOURCE}
                "#
            ))
            .unwrap();
        assert_eq!(out.as_list().unwrap().len(), 2);
        assert!(Arc::strong_count(&trial) > before);
        session.release();
        assert_eq!(Arc::strong_count(&trial), before);
        assert!(session.last_report().is_none());
    }

    #[test]
    fn sweep_bodies_read_the_repository_of_the_latest_reset() {
        let mut session = PerfExplorerScript::new(Repository::new());
        let err = session.run(SWEEP_SOURCE).unwrap_err();
        assert!(err.to_string().contains("not found"), "{err}");
        session.reset(repo_with_msa());
        let out = session.run(SWEEP_SOURCE).unwrap();
        for outcome in out.as_list().unwrap().iter() {
            let m = outcome.as_map().unwrap();
            assert_eq!(m.get("ok"), Some(&Value::Bool(true)), "{m:?}");
        }
    }

    #[test]
    fn portable_scripts_run_on_sibling_sessions() {
        let repo = Arc::new(repo_with_msa());
        let machine = MachineConfig::altix300();
        let mut a = PerfExplorerScript::with_shared(Arc::clone(&repo), machine.clone());
        let mut b = PerfExplorerScript::with_shared(repo, machine);
        let compiled = a.compile(SWEEP_SOURCE).unwrap();
        let out_a = a.run_compiled(&compiled).unwrap();
        let out_b = b.run_compiled(&compiled).unwrap();
        assert_eq!(out_a, out_b);
        assert_eq!(out_a.as_list().unwrap().len(), 2);
    }
}
