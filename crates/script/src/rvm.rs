//! The register virtual machine.
//!
//! Executes [`RProto`] programs compiled by [`crate::rcompile`]. The
//! dispatch loop works exclusively with dense indices — registers are
//! frame-relative offsets into one shared register file, globals are
//! offsets into a persistent slot table, and calls go through a dense
//! function table — so steady-state execution performs no string
//! comparison, no per-block scope allocation, and no hashing.
//!
//! Each frame owns a contiguous register window
//! `regs[base .. base + proto.regs]`; calls open the callee's window
//! directly above the caller's (arguments are moved into its first
//! registers), and returns truncate it away. The dispatch loop is a
//! free function so `par_foreach_trial` bodies can recurse with a
//! swapped step counter, budget, and output buffer.
//!
//! Observable behaviour (result values, `print` output, error
//! line/phase/message, and step accounting) is pinned against the
//! tree-walker in [`crate::reference`] by the differential tests in
//! `tests/differential.rs`.
//!
//! The same loop also serves **snapshot mode**: [`ParRunner`] captures
//! an immutable, `Send + Sync` view of the interpreter (the sweep body,
//! user-function bodies, global slots, and the names needed for error
//! messages) so a [`ParallelExecutor`] can run sweep bodies on other
//! threads. Host calls in snapshot mode are routed through a
//! per-thread callback by function name; everything a body could
//! *write* is already rejected by the sweep-mode (`par`) checks, which
//! is what makes the snapshot sound. The two modes share one dispatch
//! source via the [`Env`] trait; the loop monomorphizes per mode so the
//! live copy reads and writes global slots by direct index with no
//! mode dispatch inside the hot loop.

use crate::builtins;
use crate::interp::{sweep_outcome_value, HostFn, Interpreter};
use crate::rcompile::{
    operand_parts, Arith, Cmp, ROp, RProto, OPERAND_CONST, OPERAND_GLOBAL, OPERAND_LOCAL,
};
use crate::value::{Interner, Symbol, Value};
use crate::{Result, ScriptError};
use std::cell::RefCell;
use std::collections::HashMap;
use std::sync::Arc;

/// Persistent global variable slots.
///
/// Slots are created (holding `None` = not-yet-defined) the first time
/// the compiler sees a name that doesn't resolve locally, and never
/// move afterwards, so slot indices baked into compiled bytecode stay
/// valid for the lifetime of the interpreter.
#[derive(Default)]
pub(crate) struct Globals {
    /// Slot values; `None` means referenced but never defined.
    pub slots: Vec<Option<Value>>,
    /// Symbol of each slot (for error messages).
    pub names: Vec<Symbol>,
    by_sym: HashMap<Symbol, u32>,
}

impl Globals {
    /// Returns the slot for `sym`, creating an undefined one if new.
    pub fn ensure(&mut self, sym: Symbol) -> u32 {
        if let Some(&g) = self.by_sym.get(&sym) {
            return g;
        }
        let g = self.slots.len() as u32;
        self.slots.push(None);
        self.names.push(sym);
        self.by_sym.insert(sym, g);
        g
    }

    /// Looks up the slot for `sym` without creating one.
    pub fn lookup(&self, sym: Symbol) -> Option<u32> {
        self.by_sym.get(&sym).copied()
    }

    /// Makes `syms` the first slots' symbols, in order (see
    /// [`Interner::replay`]). False if a symbol has another slot.
    pub fn replay(&mut self, syms: &[Symbol]) -> bool {
        syms.iter()
            .enumerate()
            .all(|(slot, &sym)| match self.names.get(slot) {
                Some(&have) => have == sym,
                None => self.ensure(sym) as usize == slot,
            })
    }

    /// Keeps the first `values.len()` slots, holding `values`, and
    /// drops the rest.
    pub fn reset(&mut self, values: &[Option<Value>]) {
        let len = values.len();
        for sym in self.names.drain(len.min(self.names.len())..) {
            self.by_sym.remove(&sym);
        }
        self.slots.truncate(len);
        self.slots.clone_from_slice(values);
    }
}

/// One callable: a user-defined function body, a host closure, or both
/// (user definitions shadow host functions, as in the tree-walker).
pub(crate) struct FnEntry {
    /// The function's name (for error messages).
    pub name: Symbol,
    /// Script-defined body, bound when its `fn` statement executes.
    pub user: Option<Arc<RProto>>,
    /// Host closure, bound by [`Interpreter::register`].
    pub host: Option<HostFn>,
}

/// Dense function table: call sites compile to an index into `entries`.
#[derive(Default)]
pub(crate) struct FnTable {
    /// All known callables, in id order.
    pub entries: Vec<FnEntry>,
    by_sym: HashMap<Symbol, u32>,
}

impl FnTable {
    /// Returns the function id for `sym`, creating an empty entry
    /// (which raises "unknown function" if called) if new.
    pub fn ensure(&mut self, sym: Symbol) -> u32 {
        if let Some(&id) = self.by_sym.get(&sym) {
            return id;
        }
        let id = self.entries.len() as u32;
        self.entries.push(FnEntry {
            name: sym,
            user: None,
            host: None,
        });
        self.by_sym.insert(sym, id);
        id
    }

    /// Makes `syms` the first entries' names, in order (see
    /// [`Interner::replay`]). False if a symbol has another id.
    pub fn replay(&mut self, syms: &[Symbol]) -> bool {
        syms.iter()
            .enumerate()
            .all(|(id, &sym)| match self.entries.get(id) {
                Some(have) => have.name == sym,
                None => self.ensure(sym) as usize == id,
            })
    }

    /// Keeps the first `len` entries, with their host closures as they
    /// are and `bodies` (by id) as their only user bodies, and drops
    /// the rest.
    pub fn reset(&mut self, len: usize, bodies: &[(usize, Arc<RProto>)]) {
        for entry in self.entries.drain(len.min(self.entries.len())..) {
            self.by_sym.remove(&entry.name);
        }
        for entry in &mut self.entries {
            entry.user = None;
        }
        for (id, body) in bodies {
            self.entries[*id].user = Some(Arc::clone(body));
        }
    }
}

fn type_err(line: usize, op: &str, l: &Value, r: &Value) -> ScriptError {
    ScriptError::runtime(
        line,
        format!(
            "cannot apply {op} to {} and {}",
            l.type_name(),
            r.type_name()
        ),
    )
}

/// `container[idx] = value`, replicating the tree-walker's checks
/// exactly (including its lack of a negative-index check on list
/// assignment: the cast saturates, so `a[-1] = v` writes `a[0]`). The
/// write goes through [`Arc::make_mut`]: in place when `container` is
/// the only holder of its list or map, on a fresh copy otherwise, so no
/// other variable sees it. The index is checked before any copy.
fn index_set(container: &mut Value, idx: Value, value: Value, line: usize) -> Result<()> {
    match (container, idx) {
        (Value::List(items), Value::Num(n)) => {
            let i = n as usize;
            if n.fract() != 0.0 || i >= items.len() {
                return Err(ScriptError::runtime(
                    line,
                    format!("list index {n} out of range (len {})", items.len()),
                ));
            }
            Arc::make_mut(items)[i] = value;
        }
        (Value::Map(m), Value::Str(k)) => {
            Arc::make_mut(m).insert(k.to_string(), value);
        }
        (c, i) => {
            return Err(ScriptError::runtime(
                line,
                format!("cannot index {} with {}", c.type_name(), i.type_name()),
            ))
        }
    }
    Ok(())
}

/// Signature of a sweep executor: given a snapshot runner and the trial
/// list, return one [`BodyOutcome`] per trial, in trial order. The
/// executor owns the threading strategy (and any per-thread host
/// dispatch); [`ParRunner::run_one`] does the actual execution.
pub type ParallelExecutor = dyn Fn(&ParRunner, Vec<Value>) -> Vec<BodyOutcome> + Send + Sync;

/// Signature of the per-thread host dispatcher used in snapshot mode:
/// function name and argument buffer in, value or error-message out.
pub type HostDispatch<'a> =
    dyn FnMut(&str, &mut Vec<Value>) -> std::result::Result<Value, String> + 'a;

/// What one sweep body produced: its result (or error), its captured
/// `print` output, and the steps it consumed against the sweep budget.
pub struct BodyOutcome {
    /// The body's value, or the error that stopped it.
    pub result: Result<Value>,
    /// `print` lines the body emitted, stitched back in trial order.
    pub output: Vec<String>,
    /// Steps the body consumed (folded back into the sweep total).
    pub steps: u64,
}

/// One function-table entry of a snapshot: enough to call user
/// functions directly and to route host calls by name.
struct SnapFn {
    name: Arc<str>,
    user: Option<Arc<RProto>>,
    has_host: bool,
}

/// The immutable tables a snapshot-mode dispatch reads.
struct SnapTables {
    globals: Arc<Vec<Option<Value>>>,
    global_names: Arc<Vec<Arc<str>>>,
    fns: Arc<Vec<SnapFn>>,
}

/// A `Send + Sync` snapshot of everything a sweep body needs from its
/// interpreter, handed to a [`ParallelExecutor`] so bodies can run on
/// other threads. Sweep-mode write bans guarantee bodies cannot
/// observe each other, so sharing the snapshot immutably is exact.
pub struct ParRunner {
    body: Arc<RProto>,
    tables: SnapTables,
    budget: u64,
    depth_limit: usize,
}

/// The register file a cleared [`Buffers`] keeps allocated: a run that
/// grew it past this (deep recursion) gives the rest back, so buffers
/// kept across runs stay bounded between them.
const RETAINED_REGS: usize = 4096;

/// The buffers a program or a sweep body runs in, reused across runs.
#[derive(Default)]
pub(crate) struct Buffers {
    /// Register file of all live frames.
    regs: Vec<Value>,
    /// Open `for` iterators: (shared items, next index).
    iters: Vec<(Arc<Vec<Value>>, usize)>,
    /// Host-call arguments.
    argbuf: Vec<Value>,
}

impl Buffers {
    /// Drops every value, keeping the capacity (the register file's up
    /// to [`RETAINED_REGS`]).
    pub(crate) fn clear(&mut self) {
        self.regs.clear();
        self.regs.shrink_to(RETAINED_REGS);
        self.iters.clear();
        self.argbuf.clear();
    }
}

thread_local! {
    /// One set of body buffers per thread, so the bodies a thread runs
    /// (a whole sweep, on the caller) reuse it instead of allocating
    /// their own. Emptied after each body; it keeps only capacity.
    static BODY_BUFFERS: RefCell<Buffers> = RefCell::default();
}

impl ParRunner {
    /// Runs the sweep body over one trial item. `host` dispatches host
    /// function calls by name (snapshot mode cannot carry the
    /// interpreter's closures across threads); it is only invoked for
    /// names that had a host registered at snapshot time.
    pub fn run_one(&self, item: Value, host: &mut HostDispatch<'_>) -> BodyOutcome {
        BODY_BUFFERS.with(|buffers| match buffers.try_borrow_mut() {
            Ok(mut buffers) => self.run_in(item, host, &mut buffers),
            // A host call that runs a body of its own on this thread.
            Err(_) => self.run_in(item, host, &mut Buffers::default()),
        })
    }

    fn run_in(&self, item: Value, host: &mut HostDispatch<'_>, buf: &mut Buffers) -> BodyOutcome {
        let mut output = Vec::new();
        let mut steps = 0u64;
        let mut env = SnapEnv {
            tables: &self.tables,
            host,
        };
        // A body that unwound out of its host call left its values.
        buf.clear();
        buf.regs.push(item);
        let result = rdispatch(
            &mut env,
            &mut output,
            &mut buf.regs,
            &mut buf.iters,
            &mut buf.argbuf,
            &mut steps,
            self.budget,
            self.depth_limit,
            true,
            &self.body,
            0,
        );
        buf.clear();
        BodyOutcome {
            result,
            output,
            steps,
        }
    }
}

/// The dispatch loop's view of the interpreter: live (the interpreter's
/// own mutable tables) or snapshot (a [`ParRunner`]'s immutable tables
/// plus a host-dispatch callback). The loop is generic over this trait
/// so each mode monomorphizes: a global access in live mode compiles to
/// a direct slot index with no mode branch on the hot path.
trait Env {
    fn global_get(&self, g: u32) -> Option<&Value>;
    fn global_name(&self, g: u32) -> &str;
    /// Sweep-mode bans run before every write, so snapshot mode never
    /// reaches the mutating methods.
    fn global_set(&mut self, g: u32, v: Value);
    /// Overwrites slot `g` in place when it currently holds a number —
    /// the no-clone, no-drop store the all-numeric hot path relies on.
    /// Returns false (write not performed) otherwise.
    fn global_num_set(&mut self, g: u32, x: f64) -> bool;
    fn global_container(&mut self, g: u32) -> &mut Value;
    fn fn_user(&self, fn_id: u32) -> Option<Arc<RProto>>;
    fn fn_name(&self, fn_id: u32) -> &str;
    fn fn_has_host(&self, fn_id: u32) -> bool;
    fn call_host(
        &mut self,
        fn_id: u32,
        args: &mut Vec<Value>,
    ) -> std::result::Result<Value, String>;
    fn define_fn(&mut self, fn_id: u32, proto: Arc<RProto>);
    fn par_executor(&self) -> Option<Arc<ParallelExecutor>>;
    /// Captures the snapshot a [`ParallelExecutor`] runs bodies from.
    fn make_runner(&self, body: Arc<RProto>, budget: u64, depth_limit: usize) -> ParRunner;
}

/// Executing inside the owning interpreter.
struct LiveEnv<'a> {
    interner: &'a Interner,
    globals: &'a mut Globals,
    fns: &'a mut FnTable,
    par_exec: Option<&'a Arc<ParallelExecutor>>,
}

impl Env for LiveEnv<'_> {
    #[inline(always)]
    fn global_get(&self, g: u32) -> Option<&Value> {
        self.globals.slots[g as usize].as_ref()
    }

    fn global_name(&self, g: u32) -> &str {
        self.interner.resolve(self.globals.names[g as usize])
    }

    #[inline(always)]
    fn global_set(&mut self, g: u32, v: Value) {
        self.globals.slots[g as usize] = Some(v);
    }

    #[inline(always)]
    fn global_num_set(&mut self, g: u32, x: f64) -> bool {
        if let Some(Value::Num(slot)) = &mut self.globals.slots[g as usize] {
            *slot = x;
            true
        } else {
            false
        }
    }

    fn global_container(&mut self, g: u32) -> &mut Value {
        self.globals.slots[g as usize]
            .as_mut()
            .expect("checked defined")
    }

    #[inline(always)]
    fn fn_user(&self, fn_id: u32) -> Option<Arc<RProto>> {
        self.fns.entries[fn_id as usize].user.clone()
    }

    fn fn_name(&self, fn_id: u32) -> &str {
        self.interner.resolve(self.fns.entries[fn_id as usize].name)
    }

    fn fn_has_host(&self, fn_id: u32) -> bool {
        self.fns.entries[fn_id as usize].host.is_some()
    }

    fn call_host(
        &mut self,
        fn_id: u32,
        args: &mut Vec<Value>,
    ) -> std::result::Result<Value, String> {
        let f = self.fns.entries[fn_id as usize]
            .host
            .as_mut()
            .expect("checked has_host");
        f(args)
    }

    fn define_fn(&mut self, fn_id: u32, proto: Arc<RProto>) {
        self.fns.entries[fn_id as usize].user = Some(proto);
    }

    fn par_executor(&self) -> Option<Arc<ParallelExecutor>> {
        self.par_exec.map(Arc::clone)
    }

    fn make_runner(&self, body: Arc<RProto>, budget: u64, depth_limit: usize) -> ParRunner {
        ParRunner {
            body,
            tables: SnapTables {
                globals: Arc::new(self.globals.slots.clone()),
                global_names: Arc::new(
                    self.globals
                        .names
                        .iter()
                        .map(|&s| self.interner.resolve_shared(s))
                        .collect(),
                ),
                fns: Arc::new(
                    self.fns
                        .entries
                        .iter()
                        .map(|e| SnapFn {
                            name: self.interner.resolve_shared(e.name),
                            user: e.user.clone(),
                            has_host: e.host.is_some(),
                        })
                        .collect(),
                ),
            },
            budget,
            depth_limit,
        }
    }
}

/// Executing a sweep body from a snapshot, possibly off-thread.
struct SnapEnv<'a, 'h> {
    tables: &'a SnapTables,
    host: &'a mut HostDispatch<'h>,
}

impl Env for SnapEnv<'_, '_> {
    #[inline(always)]
    fn global_get(&self, g: u32) -> Option<&Value> {
        self.tables.globals[g as usize].as_ref()
    }

    fn global_name(&self, g: u32) -> &str {
        &self.tables.global_names[g as usize]
    }

    fn global_set(&mut self, _g: u32, _v: Value) {
        unreachable!("sweep bodies cannot write globals")
    }

    /// Never performs the write: sweep mode runs with `par` set, which
    /// routes every global store to the ban before any write attempt.
    fn global_num_set(&mut self, _g: u32, _x: f64) -> bool {
        false
    }

    fn global_container(&mut self, _g: u32) -> &mut Value {
        unreachable!("sweep bodies cannot mutate globals")
    }

    #[inline(always)]
    fn fn_user(&self, fn_id: u32) -> Option<Arc<RProto>> {
        self.tables.fns[fn_id as usize].user.clone()
    }

    fn fn_name(&self, fn_id: u32) -> &str {
        &self.tables.fns[fn_id as usize].name
    }

    fn fn_has_host(&self, fn_id: u32) -> bool {
        self.tables.fns[fn_id as usize].has_host
    }

    fn call_host(
        &mut self,
        fn_id: u32,
        args: &mut Vec<Value>,
    ) -> std::result::Result<Value, String> {
        (self.host)(&self.tables.fns[fn_id as usize].name, args)
    }

    fn define_fn(&mut self, _fn_id: u32, _proto: Arc<RProto>) {
        unreachable!("sweep bodies cannot define functions")
    }

    /// Nested sweeps run inline (the dispatch passes `par = true`, so
    /// this is never consulted), but answering `None` keeps the
    /// contract honest either way.
    fn par_executor(&self) -> Option<Arc<ParallelExecutor>> {
        None
    }

    fn make_runner(&self, body: Arc<RProto>, budget: u64, depth_limit: usize) -> ParRunner {
        ParRunner {
            body,
            tables: SnapTables {
                globals: Arc::clone(&self.tables.globals),
                global_names: Arc::clone(&self.tables.global_names),
                fns: Arc::clone(&self.tables.fns),
            },
            budget,
            depth_limit,
        }
    }
}

/// An activation record: the caller's proto and cursor, plus where its
/// register window and result register live.
struct RFrame {
    proto: Arc<RProto>,
    ret_ip: usize,
    base: usize,
    /// Absolute register receiving the call's result.
    dst: usize,
    iter_base: usize,
    saved_last: Value,
}

impl Interpreter {
    /// Runs a register-compiled program to completion. `self.steps`
    /// must be reset by the caller; the buffers are cleared here so a
    /// previous erroring run can't leak.
    pub(crate) fn execute_register(&mut self, entry: &Arc<RProto>) -> Result<Value> {
        let Interpreter {
            interner,
            globals,
            fns,
            output,
            steps,
            step_limit,
            call_depth_limit,
            buffers:
                Buffers {
                    regs,
                    iters,
                    argbuf,
                },
            par_exec,
            ..
        } = self;
        let limit = *step_limit;
        regs.clear();
        iters.clear();
        let mut env = LiveEnv {
            interner,
            globals,
            fns,
            par_exec: par_exec.as_ref(),
        };
        rdispatch(
            &mut env,
            output,
            regs,
            iters,
            argbuf,
            steps,
            limit,
            *call_depth_limit,
            false,
            entry,
            0,
        )
    }
}

/// Charges an embedded or standalone step bump run, recovering the
/// exact line of the bump that crossed the limit (see the `rcompile`
/// module docs for the scheme).
#[inline(always)]
fn charge(steps: &mut u64, limit: u64, n: u32, meta: u32, step_lines: &[u32]) -> Result<()> {
    let next = steps.saturating_add(n as u64);
    if next > limit {
        return Err(charge_exceeded(steps, limit, meta, step_lines));
    }
    *steps = next;
    Ok(())
}

/// The exhausted-budget arm of [`charge`], outlined so the hot path
/// stays small enough to inline into every dispatch arm.
#[cold]
#[inline(never)]
fn charge_exceeded(steps: &mut u64, limit: u64, meta: u32, step_lines: &[u32]) -> ScriptError {
    // A sweep can fold body totals back in past the limit, in which
    // case the very first bump fails (k saturates to 0 and one more
    // step is charged, exactly like the reference's bump()).
    let k = limit.saturating_sub(*steps) as usize;
    let line = step_lines[meta as usize + k] as usize;
    *steps = steps.saturating_add(k as u64 + 1);
    ScriptError::runtime(line, "step limit exceeded")
}

/// Reads a packed operand. The global case is compiler-proven defined;
/// the error arm is defensive (it raises `LoadGlobal`'s error) rather
/// than a panic so no script input can abort the process.
#[inline(always)]
fn rread<'v, E: Env>(
    packed: u32,
    regs: &'v [Value],
    base: usize,
    env: &'v E,
    consts: &'v [Value],
    line: usize,
) -> Result<&'v Value> {
    let (tag, idx) = operand_parts(packed);
    match tag {
        OPERAND_GLOBAL => match env.global_get(idx) {
            Some(v) => Ok(v),
            None => Err(undefined_global(env, idx, line)),
        },
        OPERAND_CONST => Ok(&consts[idx as usize]),
        _ => Ok(&regs[base + idx as usize]),
    }
}

#[cold]
#[inline(never)]
fn undefined_global<E: Env>(env: &E, g: u32, line: usize) -> ScriptError {
    ScriptError::runtime(line, format!("undefined variable {:?}", env.global_name(g)))
}

/// Applies one arithmetic selector with the type rules of the
/// tree-walker's binary operators. The all-numeric case — the
/// overwhelming majority in analysis scripts — stays inline; everything
/// else (string/list concatenation, type errors) is outlined.
#[inline(always)]
fn arith_eval(op: Arith, l: &Value, r: &Value, line: usize) -> Result<Value> {
    if let (Value::Num(a), Value::Num(b)) = (l, r) {
        return match op {
            Arith::Add => Ok(Value::Num(a + b)),
            Arith::Sub => Ok(Value::Num(a - b)),
            Arith::Mul => Ok(Value::Num(a * b)),
            Arith::Div => {
                if *b == 0.0 {
                    Err(ScriptError::runtime(line, "division by zero"))
                } else {
                    Ok(Value::Num(a / b))
                }
            }
            _ => {
                if *b == 0.0 {
                    Err(ScriptError::runtime(line, "modulo by zero"))
                } else {
                    Ok(Value::Num(a % b))
                }
            }
        };
    }
    arith_eval_slow(op, l, r, line)
}

/// Non-numeric arithmetic: concatenation and the type-error paths.
#[cold]
#[inline(never)]
fn arith_eval_slow(op: Arith, l: &Value, r: &Value, line: usize) -> Result<Value> {
    match op {
        Arith::Add => match (l, r) {
            (Value::List(a), Value::List(b)) => {
                let mut out = a.to_vec();
                out.extend(b.iter().cloned());
                Ok(Value::List(Arc::new(out)))
            }
            (Value::Str(_), _) | (_, Value::Str(_)) => Ok(Value::from(format!("{l}{r}"))),
            _ => Err(type_err(line, "+", l, r)),
        },
        _ => {
            // `as_num` only succeeds for `Value::Num`, which the inline
            // fast path already handled for both sides at once.
            let sym = match op {
                Arith::Sub => "-",
                Arith::Mul => "*",
                Arith::Div => "/",
                _ => "%",
            };
            Err(type_err(line, sym, l, r))
        }
    }
}

/// Applies one comparison selector with the comparison ops' exact type
/// rules (those of the tree-walker). Numeric compares stay inline.
#[inline(always)]
fn cmp_eval(cmp: Cmp, l: &Value, r: &Value, line: usize) -> Result<bool> {
    if let (Value::Num(a), Value::Num(b)) = (l, r) {
        return match cmp {
            Cmp::Eq => Ok(a == b),
            Cmp::Ne => Ok(a != b),
            _ => match a.partial_cmp(b) {
                Some(ord) => {
                    use std::cmp::Ordering::*;
                    Ok(match cmp {
                        Cmp::Lt => ord == Less,
                        Cmp::Le => ord != Greater,
                        Cmp::Gt => ord == Greater,
                        _ => ord != Less,
                    })
                }
                // NaN operands: same type error the reference raises.
                None => Err(type_err(line, "comparison", l, r)),
            },
        };
    }
    cmp_eval_slow(cmp, l, r, line)
}

/// Non-numeric comparisons: equality on any type, ordering on strings.
#[cold]
#[inline(never)]
fn cmp_eval_slow(cmp: Cmp, l: &Value, r: &Value, line: usize) -> Result<bool> {
    Ok(match cmp {
        Cmp::Eq => l == r,
        Cmp::Ne => l != r,
        _ => {
            let ord = match (l, r) {
                (Value::Str(a), Value::Str(b)) => Some(a.cmp(b)),
                _ => None,
            };
            let Some(ord) = ord else {
                return Err(type_err(line, "comparison", l, r));
            };
            use std::cmp::Ordering::*;
            match cmp {
                Cmp::Lt => ord == Less,
                Cmp::Le => ord != Greater,
                Cmp::Gt => ord == Greater,
                _ => ord != Less,
            }
        }
    })
}

/// The branch-free arithmetic core of the all-numeric fast path: `None`
/// means "not handled here" (division/modulo by zero keep their exact
/// error construction in [`arith_eval`] on the general path).
#[inline(always)]
fn num_fast(op: Arith, a: f64, b: f64) -> Option<f64> {
    Some(match op {
        Arith::Add => a + b,
        Arith::Sub => a - b,
        Arith::Mul => a * b,
        Arith::Div if b != 0.0 => a / b,
        Arith::Rem if b != 0.0 => a % b,
        _ => return None,
    })
}

/// The general body of [`ROp::Bin`] (and of [`ROp::IncCmpJump`]'s
/// update half): read, apply the full arithmetic type rules, write the
/// packed destination with the sweep ban. Outlined so the all-numeric
/// fast path stays small; the charge has already been taken by the
/// caller. Operand reads are side-effect free, so the fast path's
/// probing reads before bailing here are unobservable.
#[inline(never)]
#[allow(clippy::too_many_arguments)]
fn bin_general<E: Env>(
    env: &mut E,
    regs: &mut [Value],
    base: usize,
    par: bool,
    consts: &[Value],
    op: Arith,
    dst: u32,
    lhs: u32,
    rhs: u32,
    line: usize,
) -> Result<()> {
    let v = {
        let l = rread(lhs, regs, base, env, consts, line)?;
        let r = rread(rhs, regs, base, env, consts, line)?;
        arith_eval(op, l, r, line)?
    };
    let (tag, idx) = operand_parts(dst);
    if tag == OPERAND_GLOBAL {
        if par {
            return Err(ScriptError::runtime(
                line,
                format!(
                    "cannot assign to global {:?} inside par_foreach_trial",
                    env.global_name(idx)
                ),
            ));
        }
        env.global_set(idx, v);
    } else {
        regs[base + idx as usize] = v;
    }
    Ok(())
}

/// The register-VM dispatch loop, shared by live and snapshot modes.
///
/// `base_start` is where this activation's register window begins (the
/// entry proto's parameters, if any, must already be in place there).
/// `par` is true inside a sweep body, where writes to globals and
/// function definitions — including from functions *called* by the
/// body — are rejected so bodies stay order-independent.
#[allow(clippy::too_many_arguments)]
fn rdispatch<E: Env>(
    env: &mut E,
    output: &mut Vec<String>,
    regs: &mut Vec<Value>,
    iters: &mut Vec<(Arc<Vec<Value>>, usize)>,
    argbuf: &mut Vec<Value>,
    steps: &mut u64,
    limit: u64,
    depth_limit: usize,
    par: bool,
    entry: &Arc<RProto>,
    base_start: usize,
) -> Result<Value> {
    let mut proto = Arc::clone(entry);
    let mut frames: Vec<RFrame> = Vec::new();
    let mut ip = 0usize;
    let mut base = base_start;
    let mut iter_base = iters.len();
    // The statement-value register: what a frame returns when it falls
    // off the end. Stores don't null it (the compiler proves where
    // nulling is observable and emits ClearLast only there).
    let mut last = Value::Null;
    regs.resize(base + proto.regs as usize, Value::Null);

    loop {
        let op = proto.code[ip];
        match op {
            ROp::Step { n, meta } => charge(steps, limit, n, meta, &proto.step_lines)?,
            ROp::LoadConst { dst, id } => {
                regs[base + dst as usize] = proto.consts[id as usize].clone()
            }
            ROp::Copy { dst, src } => regs[base + dst as usize] = regs[base + src as usize].clone(),
            ROp::LoadGlobal { dst, g } | ROp::LoadGlobalFast { dst, g } => {
                match env.global_get(g) {
                    Some(v) => {
                        let v = v.clone();
                        regs[base + dst as usize] = v;
                    }
                    None => {
                        return Err(ScriptError::runtime(
                            proto.lines[ip] as usize,
                            format!("undefined variable {:?}", env.global_name(g)),
                        ))
                    }
                }
            }
            ROp::StoreGlobal { g, src } | ROp::StoreGlobalFast { g, src } => {
                let line = proto.lines[ip] as usize;
                if matches!(op, ROp::StoreGlobal { .. }) && env.global_get(g).is_none() {
                    return Err(ScriptError::runtime(
                        line,
                        format!("assignment to undefined variable {:?}", env.global_name(g)),
                    ));
                }
                if par {
                    return Err(ScriptError::runtime(
                        line,
                        format!(
                            "cannot assign to global {:?} inside par_foreach_trial",
                            env.global_name(g)
                        ),
                    ));
                }
                let v = rread(src, regs, base, env, &proto.consts, line)?.clone();
                env.global_set(g, v);
            }
            ROp::DefineGlobal { g, src } => {
                let line = proto.lines[ip] as usize;
                if par {
                    // Unreachable from compiled sweep bodies (they are
                    // never `is_main`), but a called function must not
                    // smuggle a definition through either.
                    return Err(ScriptError::runtime(
                        line,
                        format!(
                            "cannot assign to global {:?} inside par_foreach_trial",
                            env.global_name(g)
                        ),
                    ));
                }
                let v = rread(src, regs, base, env, &proto.consts, line)?.clone();
                env.global_set(g, v);
            }
            ROp::Bin {
                op,
                dst,
                lhs,
                rhs,
                n,
                meta,
            } => {
                if n > 0 {
                    charge(steps, limit, n, meta, &proto.step_lines)?;
                }
                let line = proto.lines[ip] as usize;
                // All-numeric fast path: the result overwrites the
                // destination's f64 payload in place — no Value clone,
                // no drop of the old value, no 32-byte store.
                let x = {
                    let l = rread(lhs, regs, base, env, &proto.consts, line)?;
                    let r = rread(rhs, regs, base, env, &proto.consts, line)?;
                    match (l, r) {
                        (Value::Num(a), Value::Num(b)) => num_fast(op, *a, *b),
                        _ => None,
                    }
                };
                let (tag, idx) = operand_parts(dst);
                match x {
                    Some(x) if tag != OPERAND_GLOBAL => match &mut regs[base + idx as usize] {
                        Value::Num(slot) => *slot = x,
                        slot => *slot = Value::Num(x),
                    },
                    Some(x) if !par && env.global_num_set(idx, x) => {}
                    // Non-numeric operands, div/mod by zero, the sweep
                    // ban, or a non-numeric global slot: full type
                    // rules and error construction.
                    _ => bin_general(env, regs, base, par, &proto.consts, op, dst, lhs, rhs, line)?,
                }
            }
            ROp::CmpSet {
                cmp,
                dst,
                lhs,
                rhs,
                n,
                meta,
            } => {
                if n > 0 {
                    charge(steps, limit, n, meta, &proto.step_lines)?;
                }
                let line = proto.lines[ip] as usize;
                let b = {
                    let l = rread(lhs, regs, base, env, &proto.consts, line)?;
                    let r = rread(rhs, regs, base, env, &proto.consts, line)?;
                    cmp_eval(cmp, l, r, line)?
                };
                regs[base + dst as usize] = Value::Bool(b);
            }
            ROp::CmpJump {
                cmp,
                lhs,
                rhs,
                target,
                when,
                n,
                meta,
            } => {
                if n > 0 {
                    charge(steps, limit, n, meta, &proto.step_lines)?;
                }
                let line = proto.lines[ip] as usize;
                let b = {
                    let l = rread(lhs, regs, base, env, &proto.consts, line)?;
                    let r = rread(rhs, regs, base, env, &proto.consts, line)?;
                    cmp_eval(cmp, l, r, line)?
                };
                if b == when {
                    ip = target as usize;
                    continue;
                }
            }
            ROp::IncCmpJump {
                op,
                cmp,
                dst,
                step,
                bound,
                target,
                ns,
                meta,
            } => {
                // Byte-for-byte the shadowed Bin + CmpJump pair: charge,
                // update, store (with the sweep ban), charge, test,
                // branch — in that order, so step totals and error
                // lines are identical to the unfused sequence.
                let n1 = ns & 0xFFFF;
                if n1 > 0 {
                    charge(steps, limit, n1, meta, &proto.step_lines)?;
                }
                let line = proto.lines[ip] as usize;
                // All-numeric fast path: counter, step, and bound are
                // numbers, so the update overwrites the destination's
                // f64 payload in place and the freshly computed value
                // feeds the test — no clone, no drop, no reload. The
                // probing reads are side-effect free, so bailing to the
                // general path below repeats them unobserved.
                let (tag, idx) = operand_parts(dst);
                let fast: Option<(f64, f64)> = 'fast: {
                    let x = {
                        let l = rread(dst, regs, base, env, &proto.consts, line)?;
                        let r = rread(step, regs, base, env, &proto.consts, line)?;
                        let (Value::Num(a), Value::Num(b)) = (l, r) else {
                            break 'fast None;
                        };
                        match num_fast(op, *a, *b) {
                            Some(x) => x,
                            None => break 'fast None,
                        }
                    };
                    let bv = if bound == dst {
                        // Same storage: the bound reads the
                        // just-updated counter.
                        x
                    } else {
                        match rread(bound, regs, base, env, &proto.consts, line) {
                            Ok(Value::Num(b)) => *b,
                            _ => break 'fast None,
                        }
                    };
                    if tag != OPERAND_GLOBAL {
                        match &mut regs[base + idx as usize] {
                            Value::Num(slot) => *slot = x,
                            slot => *slot = Value::Num(x),
                        }
                    } else if par || !env.global_num_set(idx, x) {
                        break 'fast None;
                    }
                    Some((x, bv))
                };
                let Some((x, bv)) = fast else {
                    // General path: perform exactly the Bin half here,
                    // then fall into the live shadow CmpJump at the
                    // next slot for the charge, test, and branch.
                    bin_general(
                        env,
                        regs,
                        base,
                        par,
                        &proto.consts,
                        op,
                        dst,
                        dst,
                        step,
                        line,
                    )?;
                    ip += 1;
                    continue;
                };
                let n2 = ns >> 16;
                if n2 > 0 {
                    charge(steps, limit, n2, meta + n1, &proto.step_lines)?;
                }
                // The shadowed CmpJump still owns slot ip + 1, so its
                // line entry reports comparison errors (NaN ordering,
                // matching cmp_eval's numeric rules exactly).
                let line = proto.lines[ip + 1] as usize;
                let b = match cmp {
                    Cmp::Eq => x == bv,
                    Cmp::Ne => x != bv,
                    _ => match x.partial_cmp(&bv) {
                        Some(ord) => {
                            use std::cmp::Ordering::*;
                            match cmp {
                                Cmp::Lt => ord == Less,
                                Cmp::Le => ord != Greater,
                                Cmp::Gt => ord == Greater,
                                _ => ord != Less,
                            }
                        }
                        None => {
                            return Err(type_err(
                                line,
                                "comparison",
                                &Value::Num(x),
                                &Value::Num(bv),
                            ))
                        }
                    },
                };
                // A real branch, not a select: the back-edge is
                // overwhelmingly taken, and the next dispatch's
                // indirect jump can only be speculated past a
                // predictable branch.
                if b {
                    ip = target as usize;
                    continue;
                }
                ip += 2;
                continue;
            }
            ROp::JumpIfFalse { src, target } => {
                let line = proto.lines[ip] as usize;
                if !rread(src, regs, base, env, &proto.consts, line)?.truthy() {
                    ip = target as usize;
                    continue;
                }
            }
            ROp::JumpIfTrue { src, target } => {
                let line = proto.lines[ip] as usize;
                if rread(src, regs, base, env, &proto.consts, line)?.truthy() {
                    ip = target as usize;
                    continue;
                }
            }
            ROp::Jump { target } => {
                ip = target as usize;
                continue;
            }
            ROp::AndJump { dst, target } => {
                if !regs[base + dst as usize].truthy() {
                    regs[base + dst as usize] = Value::Bool(false);
                    ip = target as usize;
                    continue;
                }
            }
            ROp::OrJump { dst, target } => {
                if regs[base + dst as usize].truthy() {
                    regs[base + dst as usize] = Value::Bool(true);
                    ip = target as usize;
                    continue;
                }
            }
            ROp::Bool { dst, src } => {
                let line = proto.lines[ip] as usize;
                let b = rread(src, regs, base, env, &proto.consts, line)?.truthy();
                regs[base + dst as usize] = Value::Bool(b);
            }
            ROp::Not { dst, src } => {
                let line = proto.lines[ip] as usize;
                let b = rread(src, regs, base, env, &proto.consts, line)?.truthy();
                regs[base + dst as usize] = Value::Bool(!b);
            }
            ROp::Neg { dst, src } => {
                let line = proto.lines[ip] as usize;
                let v = rread(src, regs, base, env, &proto.consts, line)?;
                match v.as_num() {
                    Some(x) => regs[base + dst as usize] = Value::Num(-x),
                    None => {
                        return Err(ScriptError::runtime(
                            line,
                            format!("cannot negate a {}", v.type_name()),
                        ))
                    }
                }
            }
            ROp::MakeList { dst, base: b, n } => {
                let start = base + b as usize;
                let items: Vec<Value> = regs[start..start + n as usize]
                    .iter_mut()
                    .map(|v| std::mem::replace(v, Value::Null))
                    .collect();
                regs[base + dst as usize] = Value::List(Arc::new(items));
            }
            ROp::MakeMap { dst, base: b, n } => {
                let start = base + b as usize;
                let mut m = std::collections::BTreeMap::new();
                for i in 0..n as usize {
                    let k = std::mem::replace(&mut regs[start + 2 * i], Value::Null);
                    let v = std::mem::replace(&mut regs[start + 2 * i + 1], Value::Null);
                    // Keys are compiled as string constants.
                    if let Value::Str(k) = k {
                        m.insert(k.to_string(), v);
                    }
                }
                regs[base + dst as usize] = Value::Map(Arc::new(m));
            }
            ROp::Index { dst, base: b, idx } => {
                let line = proto.lines[ip] as usize;
                let v = {
                    let container = rread(b, regs, base, env, &proto.consts, line)?;
                    let index = rread(idx, regs, base, env, &proto.consts, line)?;
                    match (container, index) {
                        (Value::List(items), Value::Num(n)) => {
                            let i = *n as usize;
                            if n.fract() != 0.0 || *n < 0.0 || i >= items.len() {
                                return Err(ScriptError::runtime(
                                    line,
                                    format!("list index {n} out of range (len {})", items.len()),
                                ));
                            }
                            items[i].clone()
                        }
                        (Value::Map(m), Value::Str(k)) => match m.get(&**k) {
                            Some(v) => v.clone(),
                            None => {
                                return Err(ScriptError::runtime(
                                    line,
                                    format!("missing map key {k:?}"),
                                ))
                            }
                        },
                        (Value::Str(s), Value::Num(n)) => {
                            let i = *n as usize;
                            match s.chars().nth(i) {
                                Some(c) => Value::from(c.encode_utf8(&mut [0; 4]) as &str),
                                None => {
                                    return Err(ScriptError::runtime(
                                        line,
                                        format!("string index {n} out of range"),
                                    ))
                                }
                            }
                        }
                        (c, i) => {
                            return Err(ScriptError::runtime(
                                line,
                                format!("cannot index {} with {}", c.type_name(), i.type_name()),
                            ))
                        }
                    }
                };
                regs[base + dst as usize] = v;
            }
            ROp::IndexSetLocal { reg, idx, src } => {
                let line = proto.lines[ip] as usize;
                let index = rread(idx, regs, base, env, &proto.consts, line)?.clone();
                let value = rread(src, regs, base, env, &proto.consts, line)?.clone();
                index_set(&mut regs[base + reg as usize], index, value, line)?;
            }
            ROp::IndexSetGlobal { g, idx, src } => {
                let line = proto.lines[ip] as usize;
                if env.global_get(g).is_none() {
                    return Err(ScriptError::runtime(
                        line,
                        format!("undefined variable {:?}", env.global_name(g)),
                    ));
                }
                if par {
                    return Err(ScriptError::runtime(
                        line,
                        format!(
                            "cannot mutate global {:?} inside par_foreach_trial",
                            env.global_name(g)
                        ),
                    ));
                }
                let index = rread(idx, regs, base, env, &proto.consts, line)?.clone();
                let value = rread(src, regs, base, env, &proto.consts, line)?.clone();
                index_set(env.global_container(g), index, value, line)?;
            }
            ROp::CallBuiltin {
                builtin,
                dst,
                base: b,
                argc,
            } => {
                let line = proto.lines[ip] as usize;
                let start = base + b as usize;
                let v = builtins::call(builtin, &regs[start..start + argc as usize], output, line)?;
                regs[base + dst as usize] = v;
            }
            ROp::CallFn {
                fn_id,
                dst,
                base: b,
                argc,
            } => {
                let line = proto.lines[ip] as usize;
                if let Some(callee) = env.fn_user(fn_id) {
                    if callee.params != argc {
                        return Err(ScriptError::runtime(
                            line,
                            format!(
                                "{}() expects {} arguments, got {}",
                                env.fn_name(fn_id),
                                callee.params,
                                argc
                            ),
                        ));
                    }
                    if frames.len() >= depth_limit {
                        return Err(ScriptError::runtime(line, "call depth limit exceeded"));
                    }
                    // Open the callee's window right above ours and
                    // move the arguments into its parameter registers.
                    let new_base = regs.len();
                    regs.resize(new_base + callee.regs as usize, Value::Null);
                    for k in 0..argc as usize {
                        let v = std::mem::replace(&mut regs[base + b as usize + k], Value::Null);
                        regs[new_base + k] = v;
                    }
                    frames.push(RFrame {
                        proto: std::mem::replace(&mut proto, callee),
                        ret_ip: ip + 1,
                        base,
                        dst: base + dst as usize,
                        iter_base,
                        saved_last: std::mem::replace(&mut last, Value::Null),
                    });
                    base = new_base;
                    iter_base = iters.len();
                    ip = 0;
                    continue;
                }
                if env.fn_has_host(fn_id) {
                    argbuf.clear();
                    for k in 0..argc as usize {
                        argbuf.push(std::mem::replace(
                            &mut regs[base + b as usize + k],
                            Value::Null,
                        ));
                    }
                    let v = env.call_host(fn_id, argbuf).map_err(|msg| {
                        ScriptError::runtime(line, format!("{}(): {msg}", env.fn_name(fn_id)))
                    })?;
                    regs[base + dst as usize] = v;
                } else {
                    return Err(ScriptError::runtime(
                        line,
                        format!("unknown function {:?}", env.fn_name(fn_id)),
                    ));
                }
            }
            ROp::DefineFn { fn_id, def } => {
                if par {
                    return Err(ScriptError::runtime(
                        proto.lines[ip] as usize,
                        format!(
                            "cannot define function {:?} inside par_foreach_trial",
                            env.fn_name(fn_id)
                        ),
                    ));
                }
                env.define_fn(fn_id, Arc::clone(&proto.defs[def as usize]));
            }
            ROp::ForPrep { src } => {
                let line = proto.lines[ip] as usize;
                let iterable = rread(src, regs, base, env, &proto.consts, line)?;
                // A list is iterated in place, by index; a later write
                // to the variable copies it (see `index_set`), so the
                // loop still walks the values it started with.
                let items = match iterable {
                    Value::List(v) => Arc::clone(v),
                    Value::Map(m) => Arc::new(m.keys().map(|k| Value::from(k.as_str())).collect()),
                    other => {
                        return Err(ScriptError::runtime(
                            line,
                            format!("cannot iterate a {}", other.type_name()),
                        ))
                    }
                };
                iters.push((items, 0));
            }
            ROp::ForNext { slot, exit } => {
                let (items, idx) = iters.last_mut().expect("iterator");
                if *idx < items.len() {
                    let v = items[*idx].clone();
                    *idx += 1;
                    regs[base + slot as usize] = v;
                } else {
                    iters.pop();
                    ip = exit as usize;
                    continue;
                }
            }
            ROp::PopIter => {
                iters.pop();
            }
            ROp::ParForEach { dst, src, def } => {
                let line = proto.lines[ip] as usize;
                let iterable = rread(src, regs, base, env, &proto.consts, line)?.clone();
                let Value::List(items) = iterable else {
                    return Err(ScriptError::runtime(
                        line,
                        format!(
                            "par_foreach_trial expects a list, got a {}",
                            iterable.type_name()
                        ),
                    ));
                };
                let body_proto = Arc::clone(&proto.defs[def as usize]);
                // Each body runs with an independent step counter
                // bounded by what remains of the sweep's budget; the
                // per-body totals fold back in afterwards so
                // sequential and parallel execution account
                // identically.
                let entry_steps = *steps;
                let budget = limit - entry_steps;
                let mut results = Vec::with_capacity(items.len());
                let mut total: u64 = 0;
                let exec = if par { None } else { env.par_executor() };
                if let Some(exec) = exec {
                    let runner = env.make_runner(body_proto, budget, depth_limit);
                    let expected = items.len();
                    let outcomes = exec(&runner, items.to_vec());
                    for k in 0..expected {
                        match outcomes.get(k) {
                            Some(_) => {}
                            None => {
                                return Err(ScriptError::runtime(
                                    line,
                                    "sweep executor returned too few outcomes",
                                ))
                            }
                        }
                    }
                    for o in outcomes.into_iter().take(expected) {
                        total = total.saturating_add(o.steps);
                        output.extend(o.output);
                        results.push(sweep_outcome_value(o.result));
                    }
                } else {
                    let regs_mark = regs.len();
                    let iters_mark = iters.len();
                    for item in items.iter() {
                        let mut body_steps = 0u64;
                        let mut body_out = Vec::new();
                        regs.push(item.clone());
                        let r = rdispatch(
                            env,
                            &mut body_out,
                            regs,
                            iters,
                            argbuf,
                            &mut body_steps,
                            budget,
                            depth_limit,
                            true,
                            &body_proto,
                            regs_mark,
                        );
                        // A body error (or success) must not leak
                        // transient state into its siblings or caller.
                        regs.truncate(regs_mark);
                        iters.truncate(iters_mark);
                        total = total.saturating_add(body_steps);
                        output.append(&mut body_out);
                        results.push(sweep_outcome_value(r));
                    }
                }
                *steps = entry_steps.saturating_add(total);
                regs[base + dst as usize] = Value::List(Arc::new(results));
            }
            ROp::SetLast { src } => {
                let line = proto.lines[ip] as usize;
                last = rread(src, regs, base, env, &proto.consts, line)?.clone();
            }
            ROp::ClearLast => {
                last = Value::Null;
            }
            ROp::Return { src } => {
                let (tag, idx) = operand_parts(src);
                let v = if tag == OPERAND_LOCAL {
                    // The frame is about to unwind, so its registers
                    // can be vacated rather than cloned.
                    std::mem::replace(&mut regs[base + idx as usize], Value::Null)
                } else {
                    let line = proto.lines[ip] as usize;
                    rread(src, regs, base, env, &proto.consts, line)?.clone()
                };
                match frames.pop() {
                    Some(f) => {
                        iters.truncate(iter_base);
                        regs.truncate(base);
                        last = f.saved_last;
                        base = f.base;
                        iter_base = f.iter_base;
                        ip = f.ret_ip;
                        proto = f.proto;
                        regs[f.dst] = v;
                        continue;
                    }
                    None => return Ok(v),
                }
            }
            ROp::ReturnLast => {
                let v = std::mem::replace(&mut last, Value::Null);
                match frames.pop() {
                    Some(f) => {
                        iters.truncate(iter_base);
                        regs.truncate(base);
                        last = f.saved_last;
                        base = f.base;
                        iter_base = f.iter_base;
                        ip = f.ret_ip;
                        proto = f.proto;
                        regs[f.dst] = v;
                        continue;
                    }
                    None => return Ok(v),
                }
            }
            ROp::FailLoopFlow => {
                return Err(ScriptError::runtime(
                    proto.lines[ip] as usize,
                    "break/continue outside loop",
                ));
            }
            ROp::FailIndexBase => {
                return Err(ScriptError::runtime(
                    proto.lines[ip] as usize,
                    "index assignment requires a variable base",
                ));
            }
        }
        ip += 1;
    }
}
