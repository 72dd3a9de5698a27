//! The script interpreter: compile-and-execute pipeline over the
//! register VM, with a host-function registry and compilation caching.
//!
//! [`Interpreter::run`] lexes/parses/compiles on first sight of a
//! source string and caches the compiled program (keyed by the source
//! text itself, bounded by an LRU eviction policy), so driver
//! loops that re-run the same script (as PerfExplorer workflows do per
//! trial) pay for compilation once. [`Interpreter::compile`] exposes
//! the cached unit as a [`Compiled`] handle for callers that want to
//! manage reuse explicitly, and [`Interpreter::compile_portable`]
//! produces a [`PortableScript`] that can be replayed on other
//! identically-initialized interpreters (the service layer shares one
//! compile cache across its worker pool this way).
//!
//! Scripts compile to register bytecode (`rcompile.rs`) and run on the
//! register VM (`rvm.rs`). The original tree-walking implementation
//! lives on in [`crate::reference`] as the executable specification;
//! differential tests pin the VM against it.

use crate::parser::parse;
use crate::rcompile::{rcompile, RProto};
use crate::rvm::{FnTable, Globals, ParallelExecutor};
use crate::value::{Interner, Symbol, Value};
use crate::{Result, ScriptError};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Signature of a host function: positional arguments in (as a
/// mutable, interpreter-owned buffer the host may consume or inspect in
/// place — its contents after the call are discarded), value out. Host
/// errors are plain strings; the interpreter attaches the call site.
pub type HostFn = Box<dyn FnMut(&mut Vec<Value>) -> std::result::Result<Value, String>>;

/// Source of unique interpreter ids, used to pair [`Compiled`] programs
/// with the interpreter whose symbol/slot tables they bake in.
static NEXT_INTERP_ID: AtomicU64 = AtomicU64::new(1);

/// Keep at most this many compiled programs in the per-interpreter
/// cache; beyond it, the least-recently-used entry is evicted.
const CACHE_CAP: usize = 128;

/// A compiled script, reusable across [`Interpreter::run_compiled`]
/// calls on the interpreter that produced it.
///
/// The bytecode bakes in global-slot and function-table indices of its
/// interpreter, so a `Compiled` is only executable there; running it on
/// a different interpreter is caught and reported as a runtime error.
/// For a handle that *can* travel between interpreters, see
/// [`PortableScript`].
#[derive(Clone)]
pub struct Compiled {
    main: Arc<RProto>,
    owner: u64,
}

/// A compiled program plus a snapshot of the name/slot tables it was
/// compiled against, replayable on any interpreter whose tables are a
/// prefix-compatible match (in practice: interpreters initialized by
/// the same registration sequence, as the service's per-worker sessions
/// are).
///
/// Unlike [`Compiled`], a `PortableScript` is `Send + Sync` and carries
/// no owner id: [`Interpreter::run_portable`] instead *replays* the
/// snapshot constructively — interning each recorded name and asserting
/// it lands on the recorded index — so a fresh identically-registered
/// interpreter extends its tables to match, while a divergent one is
/// rejected with the same error a foreign [`Compiled`] gets.
#[derive(Clone)]
pub struct PortableScript {
    main: Arc<RProto>,
    /// Every interned name, in symbol order, at compile time.
    names: Arc<Vec<String>>,
    /// Symbol index of each global slot, in slot order.
    global_syms: Arc<Vec<usize>>,
    /// Symbol index of each function-table entry, in id order.
    fn_syms: Arc<Vec<usize>>,
}

/// Compilation-cache counters, exposed for cache-behavior tests and
/// service metrics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Runs served from the cache without recompiling.
    pub hits: u64,
    /// Compilations caused by a source not (or no longer) cached.
    pub misses: u64,
    /// Entries discarded to stay within the cache bound.
    pub evictions: u64,
    /// Entries currently cached.
    pub entries: usize,
}

/// One cached compilation: the program plus its last-use stamp.
struct CacheEntry {
    main: Arc<RProto>,
    stamp: u64,
}

/// Wraps one sweep-body outcome as the map `par_foreach_trial` yields
/// per item: `{ok: true, value}` on success, `{ok: false, error, line}`
/// on failure. Shared by the VM's inline and parallel sweep paths and by
/// the reference, so a corrupt trial degrades to an identical record
/// everywhere.
pub(crate) fn sweep_outcome_value(result: Result<Value>) -> Value {
    let mut m = std::collections::BTreeMap::new();
    match result {
        Ok(v) => {
            m.insert("ok".to_string(), Value::Bool(true));
            m.insert("value".to_string(), v);
        }
        Err(e) => {
            m.insert("ok".to_string(), Value::Bool(false));
            m.insert("error".to_string(), Value::Str(e.message));
            m.insert("line".to_string(), Value::Num(e.line as f64));
        }
    }
    Value::Map(m)
}

/// The script interpreter.
///
/// An interpreter owns global state across [`Interpreter::run`] calls, so
/// a host can define bindings once and evaluate several scripts against
/// them (as PerfExplorer does with its session objects).
pub struct Interpreter {
    pub(crate) interner: Interner,
    pub(crate) globals: Globals,
    pub(crate) fns: FnTable,
    pub(crate) output: Vec<String>,
    pub(crate) steps: u64,
    pub(crate) step_limit: u64,
    /// Maximum user-function call depth before "call depth limit
    /// exceeded" (guards unbounded recursion, which the step budget
    /// alone would let exhaust the native stack first).
    pub(crate) call_depth_limit: usize,
    /// Register file of all live frames, reused across runs.
    pub(crate) regs: Vec<Value>,
    /// Open `for` iterators: (items, next index).
    pub(crate) iters: Vec<(Vec<Value>, usize)>,
    /// Reusable host-call argument buffer.
    pub(crate) argbuf: Vec<Value>,
    /// When set, `par_foreach_trial` sweeps hand their bodies to this
    /// executor instead of running them inline.
    pub(crate) par_exec: Option<Arc<ParallelExecutor>>,
    /// Compiled programs keyed by their full source text, so two
    /// different sources can never share an entry.
    cache: HashMap<Box<str>, CacheEntry>,
    cache_tick: u64,
    cache_hits: u64,
    cache_misses: u64,
    cache_evictions: u64,
    id: u64,
}

impl Default for Interpreter {
    fn default() -> Self {
        Interpreter::new()
    }
}

impl Interpreter {
    /// Creates an interpreter with the default step budget.
    pub fn new() -> Self {
        Interpreter {
            interner: Interner::new(),
            globals: Globals::default(),
            fns: FnTable::default(),
            output: Vec::new(),
            steps: 0,
            step_limit: 50_000_000,
            call_depth_limit: 1000,
            regs: Vec::new(),
            iters: Vec::new(),
            argbuf: Vec::new(),
            par_exec: None,
            cache: HashMap::new(),
            cache_tick: 0,
            cache_hits: 0,
            cache_misses: 0,
            cache_evictions: 0,
            id: NEXT_INTERP_ID.fetch_add(1, Ordering::Relaxed),
        }
    }

    /// Overrides the execution step budget (each statement and expression
    /// node costs one step). Guards runaway `while` loops.
    pub fn with_step_limit(mut self, limit: u64) -> Self {
        self.step_limit = limit;
        self
    }

    /// Overrides the user-function call depth limit (default 1000).
    pub fn with_call_depth_limit(mut self, limit: usize) -> Self {
        self.call_depth_limit = limit;
        self
    }

    /// Installs the executor that `par_foreach_trial` sweeps dispatch
    /// their bodies through (e.g. a thread pool). Bodies still observe
    /// sequential semantics: outcomes and output come back in item
    /// order and bodies cannot write shared state.
    pub fn set_parallel_executor(&mut self, exec: Arc<ParallelExecutor>) {
        self.par_exec = Some(exec);
    }

    /// Registers a host function callable from scripts.
    pub fn register(
        &mut self,
        name: &str,
        f: impl FnMut(&mut Vec<Value>) -> std::result::Result<Value, String> + 'static,
    ) {
        let sym = self.interner.intern(name);
        let id = self.fns.ensure(sym);
        self.fns.entries[id as usize].host = Some(Box::new(f));
    }

    /// Defines a global variable visible to scripts.
    pub fn set_global(&mut self, name: &str, value: Value) {
        let sym = self.interner.intern(name);
        let g = self.globals.ensure(sym);
        self.globals.slots[g as usize] = Some(value);
    }

    /// Reads a global variable after a run.
    pub fn get_global(&self, name: &str) -> Option<&Value> {
        let sym = self.interner.lookup(name)?;
        let g = self.globals.lookup(sym)?;
        self.globals.slots[g as usize].as_ref()
    }

    /// Takes the accumulated `print` output.
    pub fn take_output(&mut self) -> Vec<String> {
        std::mem::take(&mut self.output)
    }

    /// Steps consumed by the most recent run.
    pub fn steps(&self) -> u64 {
        self.steps
    }

    /// Compilation-cache counters (hits/misses/evictions/entries).
    pub fn cache_stats(&self) -> CacheStats {
        CacheStats {
            hits: self.cache_hits,
            misses: self.cache_misses,
            evictions: self.cache_evictions,
            entries: self.cache.len(),
        }
    }

    /// Compiles a script to reusable bytecode without executing it.
    ///
    /// Compilation interns names into this interpreter's persistent
    /// tables, so the handle stays valid across later `register` /
    /// `set_global` / `run` calls on the same interpreter.
    pub fn compile(&mut self, src: &str) -> Result<Compiled> {
        let main = self.compile_cached(src)?;
        Ok(Compiled {
            main,
            owner: self.id,
        })
    }

    /// Executes a previously compiled script, returning the value of its
    /// final expression statement (or [`Value::Null`]).
    pub fn run_compiled(&mut self, program: &Compiled) -> Result<Value> {
        if program.owner != self.id {
            return Err(ScriptError::runtime(
                0,
                "compiled script belongs to a different interpreter",
            ));
        }
        self.run_unit(&program.main)
    }

    /// Parses, compiles (with caching), and executes a script, returning
    /// the value of its final expression statement (or [`Value::Null`]).
    pub fn run(&mut self, src: &str) -> Result<Value> {
        let main = self.compile_cached(src)?;
        self.run_unit(&main)
    }

    /// Compiles a script into a handle that can run on *other*
    /// identically-initialized interpreters. Used by the service layer
    /// to share one compilation across its worker pool. Bypasses the
    /// run cache: callers that want reuse cache the handle themselves.
    pub fn compile_portable(&mut self, src: &str) -> Result<PortableScript> {
        let program = parse(src)?;
        let main = rcompile(
            &program,
            &mut self.interner,
            &mut self.globals,
            &mut self.fns,
        );
        let names = (0..self.interner.len())
            .map(|i| self.interner.resolve(Symbol::from_index(i)).to_string())
            .collect();
        let global_syms = self.globals.names.iter().map(|s| s.index()).collect();
        let fn_syms = self.fns.entries.iter().map(|e| e.name.index()).collect();
        Ok(PortableScript {
            main,
            names: Arc::new(names),
            global_syms: Arc::new(global_syms),
            fn_syms: Arc::new(fn_syms),
        })
    }

    /// Executes a [`PortableScript`], first replaying its name-table
    /// snapshot into this interpreter (see the type docs). Errors with
    /// "compiled script belongs to a different interpreter" when the
    /// tables cannot be made to match.
    pub fn run_portable(&mut self, program: &PortableScript) -> Result<Value> {
        let mismatch =
            || ScriptError::runtime(0, "compiled script belongs to a different interpreter");
        for (i, name) in program.names.iter().enumerate() {
            if self.interner.intern(name).index() != i {
                return Err(mismatch());
            }
        }
        for (slot, &sym) in program.global_syms.iter().enumerate() {
            if self.globals.ensure(Symbol::from_index(sym)) != slot as u32 {
                return Err(mismatch());
            }
        }
        for (id, &sym) in program.fn_syms.iter().enumerate() {
            if self.fns.ensure(Symbol::from_index(sym)) != id as u32 {
                return Err(mismatch());
            }
        }
        self.run_unit(&program.main)
    }

    fn run_unit(&mut self, main: &Arc<RProto>) -> Result<Value> {
        self.steps = 0;
        self.execute_register(main)
    }

    fn compile_cached(&mut self, src: &str) -> Result<Arc<RProto>> {
        self.cache_tick += 1;
        let tick = self.cache_tick;
        if let Some(entry) = self.cache.get_mut(src) {
            entry.stamp = tick;
            self.cache_hits += 1;
            return Ok(Arc::clone(&entry.main));
        }
        self.cache_misses += 1;
        let program = parse(src)?;
        let main = rcompile(
            &program,
            &mut self.interner,
            &mut self.globals,
            &mut self.fns,
        );
        if self.cache.len() >= CACHE_CAP {
            if let Some(oldest) = self
                .cache
                .iter()
                .min_by_key(|(_, e)| e.stamp)
                .map(|(k, _)| k.clone())
            {
                self.cache.remove(&oldest);
                self.cache_evictions += 1;
            }
        }
        self.cache.insert(
            src.into(),
            CacheEntry {
                main: Arc::clone(&main),
                stamp: tick,
            },
        );
        Ok(main)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn eval(src: &str) -> Value {
        Interpreter::new().run(src).unwrap()
    }

    fn eval_err(src: &str) -> ScriptError {
        Interpreter::new().run(src).unwrap_err()
    }

    #[test]
    fn arithmetic_and_precedence() {
        assert_eq!(eval("1 + 2 * 3"), Value::Num(7.0));
        assert_eq!(eval("(1 + 2) * 3"), Value::Num(9.0));
        assert_eq!(eval("10 % 3"), Value::Num(1.0));
        assert_eq!(eval("-2 * 3"), Value::Num(-6.0));
        assert_eq!(eval("7 / 2"), Value::Num(3.5));
    }

    #[test]
    fn string_concat_and_comparison() {
        assert_eq!(eval("\"a\" + 1"), Value::Str("a1".into()));
        assert_eq!(eval("1 + \"a\""), Value::Str("1a".into()));
        assert_eq!(eval("\"ab\" < \"ac\""), Value::Bool(true));
        assert_eq!(eval("\"x\" == \"x\""), Value::Bool(true));
    }

    #[test]
    fn let_assign_and_scoping() {
        assert_eq!(eval("let x = 1; x = x + 1; x"), Value::Num(2.0));
        // Block scope shadows then disappears.
        assert_eq!(
            eval("let x = 1; if true { let x = 99; } x"),
            Value::Num(1.0)
        );
        // Assignment inside a block reaches outward.
        assert_eq!(eval("let x = 1; if true { x = 5; } x"), Value::Num(5.0));
    }

    #[test]
    fn while_loop_with_break_continue() {
        let src = "\
let total = 0;
let i = 0;
while true {
    i = i + 1;
    if i > 10 { break; }
    if i % 2 == 0 { continue; }
    total = total + i;
}
total";
        assert_eq!(eval(src), Value::Num(25.0)); // 1+3+5+7+9
    }

    #[test]
    fn for_loop_over_list_and_map() {
        assert_eq!(
            eval("let t = 0; for x in [1, 2, 3] { t = t + x; } t"),
            Value::Num(6.0)
        );
        assert_eq!(
            eval("let ks = \"\"; for k in { b: 1, a: 2 } { ks = ks + k; } ks"),
            Value::Str("ab".into()) // map iteration is key-ordered
        );
    }

    #[test]
    fn functions_recursion_and_return() {
        let src = "\
fn fib(n) {
    if n < 2 { return n; }
    return fib(n - 1) + fib(n - 2);
}
fib(10)";
        assert_eq!(eval(src), Value::Num(55.0));
    }

    #[test]
    fn functions_see_globals_but_have_own_scope() {
        let src = "\
let g = 10;
fn f(x) { return x + g; }
let r = f(5);
r";
        assert_eq!(eval(src), Value::Num(15.0));
        // Parameters do not leak.
        assert!(matches!(
            eval_err("fn f(x) { return x; } f(1); x"),
            ScriptError { .. }
        ));
    }

    #[test]
    fn lists_maps_indexing() {
        assert_eq!(eval("[10, 20, 30][1]"), Value::Num(20.0));
        assert_eq!(eval("{ a: 5 }[\"a\"]"), Value::Num(5.0));
        assert_eq!(
            eval("let a = [1, 2]; a[0] = 9; a[0] + a[1]"),
            Value::Num(11.0)
        );
        assert_eq!(
            eval("let m = { x: 1 }; m[\"y\"] = 2; m[\"x\"] + m[\"y\"]"),
            Value::Num(3.0)
        );
        assert_eq!(eval("\"abc\"[1]"), Value::Str("b".into()));
    }

    #[test]
    fn builtins() {
        assert_eq!(eval("len([1, 2, 3])"), Value::Num(3.0));
        assert_eq!(eval("len(\"abc\")"), Value::Num(3.0));
        assert_eq!(eval("str(1.5)"), Value::Str("1.5".into()));
        assert_eq!(eval("num(\" 42 \")"), Value::Num(42.0));
        assert_eq!(eval("sum(range(5))"), Value::Num(10.0));
        assert_eq!(eval("len(range(2, 6))"), Value::Num(4.0));
        assert_eq!(eval("max([3, 9, 1])"), Value::Num(9.0));
        assert_eq!(eval("min(3, 9)"), Value::Num(3.0));
        assert_eq!(eval("abs(0 - 5)"), Value::Num(5.0));
        assert_eq!(eval("sqrt(16)"), Value::Num(4.0));
        assert_eq!(eval("pow(2, 10)"), Value::Num(1024.0));
        assert_eq!(eval("join([1, 2], \"-\")"), Value::Str("1-2".into()));
        assert_eq!(
            eval("split(\"a,b\", \",\")"),
            Value::List(vec![Value::Str("a".into()), Value::Str("b".into())])
        );
        assert_eq!(eval("contains(\"hay\", \"a\")"), Value::Bool(true));
        assert_eq!(eval("sort([3, 1, 2])[0]"), Value::Num(1.0));
        assert_eq!(eval("type({})"), Value::Str("map".into()));
        assert_eq!(eval("has({ a: 1 }, \"a\")"), Value::Bool(true));
        assert_eq!(eval("has([1, 2], 2)"), Value::Bool(true));
        assert_eq!(eval("get({ a: 1 }, \"b\", 7)"), Value::Num(7.0));
        assert_eq!(eval("len(push([1], 2))"), Value::Num(2.0));
    }

    #[test]
    fn print_accumulates_output() {
        let mut interp = Interpreter::new();
        interp.run("print(\"a\", 1); print([2]);").unwrap();
        assert_eq!(interp.take_output(), vec!["a 1", "[2]"]);
        assert!(interp.take_output().is_empty());
    }

    #[test]
    fn host_functions_and_handles() {
        let mut interp = Interpreter::new();
        interp.register("make_trial", |_args| {
            Ok(Value::Handle {
                tag: "trial".into(),
                id: 7,
            })
        });
        interp.register("trial_id", |args| {
            match args.first().and_then(Value::as_handle) {
                Some(("trial", id)) => Ok(Value::Num(id as f64)),
                _ => Err("expected a trial handle".into()),
            }
        });
        let out = interp.run("let t = make_trial(); trial_id(t)").unwrap();
        assert_eq!(out, Value::Num(7.0));
        // Wrong handle type surfaces the host's message with call context.
        let err = interp.run("trial_id(42)").unwrap_err();
        assert!(err.message.contains("trial_id"));
        assert!(err.message.contains("expected a trial handle"));
    }

    #[test]
    fn globals_persist_across_runs() {
        let mut interp = Interpreter::new();
        interp.run("let counter = 1;").unwrap();
        let v = interp.run("counter = counter + 1; counter").unwrap();
        assert_eq!(v, Value::Num(2.0));
        assert_eq!(interp.get_global("counter"), Some(&Value::Num(2.0)));
        interp.set_global("injected", Value::from("hi"));
        assert_eq!(interp.run("injected").unwrap(), Value::Str("hi".into()));
    }

    #[test]
    fn runtime_errors() {
        assert!(eval_err("missing").message.contains("undefined variable"));
        assert!(eval_err("1 / 0").message.contains("division by zero"));
        assert!(eval_err("5 % 0").message.contains("modulo by zero"));
        assert!(eval_err("[1][5]").message.contains("out of range"));
        assert!(eval_err("{ a: 1 }[\"b\"]")
            .message
            .contains("missing map key"));
        assert!(eval_err("x = 1;").message.contains("undefined variable"));
        assert!(eval_err("1 + null").message.contains("cannot apply"));
        assert!(eval_err("nothere()").message.contains("unknown function"));
        assert!(eval_err("fn f(a) { return a; } f(1, 2)")
            .message
            .contains("expects 1 arguments"));
        assert!(eval_err("break;").message.contains("outside loop"));
        assert!(eval_err("sqrt(0 - 1)").message.contains("negative"));
        assert!(eval_err("for x in 5 { }")
            .message
            .contains("cannot iterate"));
    }

    #[test]
    fn step_limit_guards_infinite_loops() {
        let mut interp = Interpreter::new().with_step_limit(10_000);
        let err = interp.run("while true { }").unwrap_err();
        assert!(err.message.contains("step limit"));
    }

    #[test]
    fn error_lines_are_reported() {
        let err = eval_err("let x = 1;\nlet y = 2;\nz");
        assert_eq!(err.line, 3);
    }

    #[test]
    fn short_circuit_evaluation() {
        // The RHS would error if evaluated.
        assert_eq!(eval("false && missing_var"), Value::Bool(false));
        assert_eq!(eval("true || missing_var"), Value::Bool(true));
        assert_eq!(eval("true && 1"), Value::Bool(true));
    }

    #[test]
    fn compiled_scripts_are_reusable() {
        let mut interp = Interpreter::new();
        interp.run("let n = 0;").unwrap();
        let program = interp.compile("n = n + 1; n").unwrap();
        assert_eq!(interp.run_compiled(&program).unwrap(), Value::Num(1.0));
        assert_eq!(interp.run_compiled(&program).unwrap(), Value::Num(2.0));
        // Functions registered after compilation are still reachable:
        // call sites resolve through the persistent function table.
        let call = interp.compile("late_fn(n)").unwrap();
        interp.register("late_fn", |args| {
            Ok(Value::Num(
                args.first().and_then(Value::as_num).unwrap_or(0.0) + 100.0,
            ))
        });
        assert_eq!(interp.run_compiled(&call).unwrap(), Value::Num(102.0));
    }

    #[test]
    fn compiled_scripts_are_interpreter_specific() {
        let mut a = Interpreter::new();
        let mut b = Interpreter::new();
        let program = a.compile("1 + 1").unwrap();
        assert_eq!(a.run_compiled(&program).unwrap(), Value::Num(2.0));
        let err = b.run_compiled(&program).unwrap_err();
        assert!(err.message.contains("different interpreter"));
    }

    #[test]
    fn repeated_runs_reuse_cached_compilation() {
        let mut interp = Interpreter::new();
        interp.run("let acc = 0;").unwrap();
        for _ in 0..3 {
            interp.run("acc = acc + 1;").unwrap();
        }
        assert_eq!(interp.get_global("acc"), Some(&Value::Num(3.0)));
        // One miss per distinct source, hits for the repeats.
        let stats = interp.cache_stats();
        assert_eq!(stats.entries, 2);
        assert_eq!(stats.misses, 2);
        assert_eq!(stats.hits, 2);
        assert_eq!(stats.evictions, 0);
    }

    #[test]
    fn cache_is_keyed_by_the_source_text() {
        let mut interp = Interpreter::new();
        // Identical text hits, whichever allocation it arrives in.
        let first = String::from("40 + 2");
        let again = ["40 + ", "2"].concat();
        assert_eq!(interp.run(&first).unwrap(), Value::Num(42.0));
        assert_eq!(interp.run(&again).unwrap(), Value::Num(42.0));
        assert_eq!(
            (interp.cache_stats().hits, interp.cache_stats().misses),
            (1, 1)
        );
        // Text that differs in one byte is a separate entry with its own
        // program, never the cached one.
        assert_eq!(interp.run("40 + 3").unwrap(), Value::Num(43.0));
        assert_eq!(interp.run("40 - 2").unwrap(), Value::Num(38.0));
        let stats = interp.cache_stats();
        assert_eq!((stats.hits, stats.misses, stats.entries), (1, 3, 3));
    }

    #[test]
    fn cache_evicts_least_recently_used() {
        let mut interp = Interpreter::new();
        // Fill the cache, then keep entry 0 warm while adding one more:
        // the eviction must pick a cold entry, not the warm one.
        let srcs: Vec<String> = (0..CACHE_CAP).map(|i| format!("{i} + 0")).collect();
        for s in &srcs {
            interp.run(s).unwrap();
        }
        interp.run(&srcs[0]).unwrap(); // refresh entry 0
        interp.run("123456789").unwrap(); // forces one eviction
        let stats = interp.cache_stats();
        assert_eq!(stats.evictions, 1);
        assert_eq!(stats.entries, CACHE_CAP);
        // Entry 0 survived (hit), so re-running it is another hit.
        let before = interp.cache_stats().hits;
        interp.run(&srcs[0]).unwrap();
        assert_eq!(interp.cache_stats().hits, before + 1);
    }

    #[test]
    fn step_exhaustion_is_clamped_to_limit_plus_one() {
        let mut interp = Interpreter::new().with_step_limit(100);
        let err = interp.run("while true { }").unwrap_err();
        assert!(err.message.contains("step limit"));
        assert_eq!(interp.steps(), 101);
    }

    #[test]
    fn call_depth_limit_stops_runaway_recursion() {
        let mut interp = Interpreter::new().with_call_depth_limit(64);
        let err = interp.run("fn f(n) { return f(n); } f(1)").unwrap_err();
        assert!(
            err.message.contains("call depth limit exceeded"),
            "{}",
            err.message
        );
    }

    #[test]
    fn portable_scripts_replay_on_identical_interpreters() {
        let mk = || {
            let mut i = Interpreter::new();
            i.register("twice", |args| {
                Ok(Value::Num(
                    args.first().and_then(Value::as_num).unwrap_or(0.0) * 2.0,
                ))
            });
            i.set_global("base", Value::Num(10.0));
            i
        };
        let mut a = mk();
        let program = a.compile_portable("twice(base) + 1").unwrap();
        assert_eq!(a.run_portable(&program).unwrap(), Value::Num(21.0));
        // A fresh interpreter with the same registration sequence
        // replays the snapshot and runs the same bytecode.
        let mut b = mk();
        assert_eq!(b.run_portable(&program).unwrap(), Value::Num(21.0));
        // A divergent interpreter (different name order) is rejected.
        let mut c = Interpreter::new();
        c.set_global("unrelated", Value::Null);
        let err = c.run_portable(&program).unwrap_err();
        assert!(err.message.contains("different interpreter"));
    }
}
