//! The script interpreter: compile-and-execute pipeline over the
//! register VM, with a host-function registry.
//!
//! [`Interpreter::run`] lexes, parses, compiles and executes a source
//! string; it keeps nothing of the compilation. A caller that runs one
//! script many times calls [`Interpreter::compile`] once and then
//! [`Interpreter::run_compiled`]: the resulting [`Compiled`] program
//! carries a snapshot of the name tables it was compiled against, so it
//! also runs on any other interpreter registered the same way (the
//! service layer shares one compiled program across its request slots
//! like this, and its script LRU is the only compile cache).
//!
//! Scripts compile to register bytecode (`rcompile.rs`) and run on the
//! register VM (`rvm.rs`). The original tree-walking implementation
//! lives on in [`crate::reference`] as the executable specification;
//! differential tests pin the VM against it.

use crate::parser::parse;
use crate::rcompile::{rcompile, RProto};
use crate::rvm::{Buffers, FnTable, Globals, ParallelExecutor};
use crate::value::{Interner, Symbol, Value};
use crate::{Result, ScriptError};
use std::sync::Arc;

/// Signature of a host function: positional arguments in (as a
/// mutable, interpreter-owned buffer the host may consume or inspect in
/// place — its contents after the call are discarded), value out. Host
/// errors are plain strings; the interpreter attaches the call site.
/// Host functions are `Send`, so an interpreter can move between
/// threads (the service hands its kept sessions from caller to caller).
pub type HostFn = Box<dyn FnMut(&mut Vec<Value>) -> std::result::Result<Value, String> + Send>;

/// A compiled script: shared bytecode plus a snapshot of the name,
/// global-slot and function tables it was compiled against.
///
/// The bytecode bakes in global-slot and function-table indices, so
/// [`Interpreter::run_compiled`] first *replays* the snapshot: each
/// recorded name, slot and function id must already sit at its
/// recorded index or be appended there. On the compiling interpreter
/// that is only a check; a fresh interpreter registered the same way,
/// or one [reset](Interpreter::reset) to the mark taken right after
/// that registration, extends its tables to match; one whose tables
/// diverge is rejected with "compiled script belongs to a different
/// interpreter".
///
/// A `Compiled` is `Send + Sync`, so one program can be shared (behind
/// an `Arc`) by every thread that runs it. Its names share the compiling
/// interner's strings, so a replay that appends them allocates none.
pub struct Compiled {
    main: Arc<RProto>,
    /// Every interned name, in symbol order, at compile time.
    names: Box<[Arc<str>]>,
    /// Symbol of each global slot, in slot order.
    global_syms: Box<[Symbol]>,
    /// Symbol of each function-table entry, in id order.
    fn_syms: Box<[Symbol]>,
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
            m.insert("error".to_string(), Value::from(e.message));
            m.insert("line".to_string(), Value::Num(e.line as f64));
        }
    }
    Value::Map(Arc::new(m.into()))
}

/// An interpreter's state at [`Interpreter::mark`]: its table lengths,
/// and the global values and user function bodies below them.
#[derive(Default)]
struct Mark {
    names: usize,
    /// One value per global slot (the slot count).
    globals: Vec<Option<Value>>,
    fns: usize,
    /// The entries that had a user body, by id (usually none).
    bodies: Vec<(usize, Arc<RProto>)>,
}

/// The script interpreter.
///
/// An interpreter owns global state across [`Interpreter::run`] calls, so
/// a host can define bindings once and evaluate several scripts against
/// them (as PerfExplorer does with its session objects). A host that
/// serves unrelated scripts on one interpreter marks it once its hosts
/// are registered ([`Interpreter::mark`]) and [resets](Interpreter::reset)
/// it between scripts, instead of building and registering a new one.
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
    /// Registers, iterators and host-call arguments, reused across runs.
    pub(crate) buffers: Buffers,
    /// When set, `par_foreach_trial` sweeps hand their bodies to this
    /// executor instead of running them inline.
    pub(crate) par_exec: Option<Arc<ParallelExecutor>>,
    /// What [`Interpreter::reset`] returns to.
    mark: Mark,
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
            buffers: Buffers::default(),
            par_exec: None,
            mark: Mark::default(),
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
        f: impl FnMut(&mut Vec<Value>) -> std::result::Result<Value, String> + Send + 'static,
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

    /// How many names the interpreter's tables hold: its hosts', its
    /// globals' and those of every script compiled on it since the
    /// last reset.
    pub fn interned(&self) -> usize {
        self.interner.len()
    }

    /// Records the current state as the one [`Interpreter::reset`]
    /// returns to: the name, global-slot and function tables as they
    /// stand, with their global values and user function bodies. Take
    /// it right after registering the hosts. An interpreter never
    /// marked resets to empty tables.
    pub fn mark(&mut self) {
        self.mark = Mark {
            names: self.interner.len(),
            globals: self.globals.slots.clone(),
            fns: self.fns.entries.len(),
            bodies: (self.fns.entries.iter().enumerate())
                .filter_map(|(id, e)| Some((id, Arc::clone(e.user.as_ref()?))))
                .collect(),
        };
    }

    /// Returns the interpreter to its state at [`Interpreter::mark`]:
    /// names, global slots and functions added since are forgotten,
    /// global values and user function bodies (including one that
    /// shadowed a host) are put back, and output, step count,
    /// registers, iterators and the argument buffer are cleared. The
    /// tables then equal those of a new interpreter registered the
    /// same way, so a [`Compiled`] program replays on it as on that
    /// one. The buffers keep their capacity (the register file up to a
    /// bound), which is what makes a reset cheaper than a rebuild.
    pub fn reset(&mut self) {
        let mark = &self.mark;
        self.interner.truncate(mark.names);
        self.globals.reset(&mark.globals);
        self.fns.reset(mark.fns, &mark.bodies);
        self.output.clear();
        self.steps = 0;
        self.buffers.clear();
    }

    /// Compiles a script to reusable bytecode without executing it.
    ///
    /// Compilation interns names into this interpreter's persistent
    /// tables, so the program stays valid across later `register` /
    /// `set_global` / `run` calls here, and on any interpreter whose
    /// tables match its snapshot (see [`Compiled`]).
    pub fn compile(&mut self, src: &str) -> Result<Compiled> {
        let main = self.compile_unit(src)?;
        Ok(Compiled {
            main,
            names: self.interner.names().into(),
            global_syms: self.globals.names.as_slice().into(),
            fn_syms: self.fns.entries.iter().map(|e| e.name).collect(),
        })
    }

    /// Executes a compiled script, returning the value of its final
    /// expression statement (or [`Value::Null`]). The program's table
    /// snapshot is replayed first; it errors with "compiled script
    /// belongs to a different interpreter" when the tables cannot be
    /// made to match.
    pub fn run_compiled(&mut self, program: &Compiled) -> Result<Value> {
        if !self.replay(program) {
            return Err(ScriptError::runtime(
                0,
                "compiled script belongs to a different interpreter",
            ));
        }
        self.run_unit(&program.main)
    }

    /// Parses, compiles, and executes a script, returning the value of
    /// its final expression statement (or [`Value::Null`]).
    pub fn run(&mut self, src: &str) -> Result<Value> {
        let main = self.compile_unit(src)?;
        self.run_unit(&main)
    }

    /// Makes this interpreter's tables agree with `program`'s snapshot:
    /// entries already at their recorded index are only compared,
    /// missing ones are appended in order. False on any divergence.
    fn replay(&mut self, program: &Compiled) -> bool {
        self.interner.replay(&program.names)
            && self.globals.replay(&program.global_syms)
            && self.fns.replay(&program.fn_syms)
    }

    fn compile_unit(&mut self, src: &str) -> Result<Arc<RProto>> {
        let program = parse(src)?;
        Ok(rcompile(
            &program,
            &mut self.interner,
            &mut self.globals,
            &mut self.fns,
        ))
    }

    fn run_unit(&mut self, main: &Arc<RProto>) -> Result<Value> {
        self.steps = 0;
        self.execute_register(main)
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
            Value::from(vec![Value::Str("a".into()), Value::Str("b".into())])
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
                tag: "trial",
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
        a.set_global("x", Value::Num(1.0));
        let program = a.compile("x + 1").unwrap();
        assert_eq!(a.run_compiled(&program).unwrap(), Value::Num(2.0));
        // An interpreter whose name tables diverged from `a`'s cannot
        // replay the program's snapshot, so it rejects the bytecode.
        let mut b = Interpreter::new();
        b.set_global("y", Value::Num(1.0));
        let err = b.run_compiled(&program).unwrap_err();
        assert!(err.message.contains("different interpreter"));
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
        let program = a.compile("twice(base) + 1").unwrap();
        assert_eq!(a.run_compiled(&program).unwrap(), Value::Num(21.0));
        // A fresh interpreter with the same registration sequence
        // replays the snapshot and runs the same bytecode.
        let mut b = mk();
        assert_eq!(b.run_compiled(&program).unwrap(), Value::Num(21.0));
        // A divergent interpreter (different name order) is rejected.
        let mut c = Interpreter::new();
        c.set_global("unrelated", Value::Null);
        let err = c.run_compiled(&program).unwrap_err();
        assert!(err.message.contains("different interpreter"));
    }

    /// An interpreter with one host, one global and one script
    /// function, marked.
    fn registered() -> Interpreter {
        let mut i = Interpreter::new();
        i.register("twice", |args| {
            Ok(Value::Num(
                args.first().and_then(Value::as_num).unwrap_or(0.0) * 2.0,
            ))
        });
        i.set_global("base", Value::Num(10.0));
        i.run("fn helper() { return 5; }").unwrap();
        i.mark();
        i
    }

    #[test]
    fn reset_returns_to_the_marked_state() {
        let mut interp = registered();
        let marked = interp.interned();
        let run = "let x = [1, 2]; base = 99; fn twice(n) { return 0; } \
                   fn helper() { return 6; } fn extra() { return 1; } \
                   print(\"hi\"); twice(x[0])";
        assert_eq!(interp.run(run).unwrap(), Value::Num(0.0));
        assert!(interp.interned() > marked);
        interp.reset();
        assert_eq!(interp.interned(), marked);
        assert!(interp.take_output().is_empty());
        assert_eq!(interp.steps(), 0);
        assert_eq!(interp.get_global("x"), None);
        // The marked global value and function body, and the shadowed
        // host, come back.
        assert_eq!(
            interp.run("twice(base) + helper()").unwrap(),
            Value::Num(25.0)
        );
        interp.reset();
        let err = interp.run("x").unwrap_err();
        assert!(
            err.message.contains("undefined variable"),
            "{}",
            err.message
        );
        interp.reset();
        let err = interp.run("extra()").unwrap_err();
        assert!(err.message.contains("unknown function"), "{}", err.message);
    }

    #[test]
    fn programs_replay_across_reset_interpreters() {
        let mut a = registered();
        let mut b = registered();
        // `b` interns names `a` never saw, then resets them away.
        b.run("let q = 1; let r = twice(q);").unwrap();
        b.reset();
        let program = a.compile("let y = twice(base); y + 1").unwrap();
        assert_eq!(a.run_compiled(&program).unwrap(), Value::Num(21.0));
        assert_eq!(b.run_compiled(&program).unwrap(), Value::Num(21.0));
        // And back: `a`, reset, runs what `b` compiled after a reset.
        b.reset();
        let back = b.compile("let z = base * 3; z").unwrap();
        a.reset();
        assert_eq!(a.run_compiled(&back).unwrap(), Value::Num(30.0));
        // Without a reset, `a`'s tables hold `z` where `program` has `y`.
        let err = a.run_compiled(&program).unwrap_err();
        assert!(err.message.contains("different interpreter"));
    }

    #[test]
    fn an_unmarked_interpreter_resets_to_empty_tables() {
        let mut interp = Interpreter::new();
        interp.register("h", |_| Ok(Value::Null));
        interp.run("let v = h();").unwrap();
        interp.reset();
        assert_eq!(interp.interned(), 0);
        assert!(interp
            .run("h()")
            .unwrap_err()
            .message
            .contains("unknown function"));
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
}
