//! The original tree-walking interpreter, kept as the executable
//! specification of the language.
//!
//! The production path is the bytecode VM behind
//! [`crate::Interpreter`]; this module preserves the seed
//! implementation byte-for-byte in observable behaviour (values,
//! printed output, error line/phase/message, and step accounting) so
//! differential tests can pin the VM against it. It follows the repo's
//! `rules::reference` / `statistics::reference` pattern: slow, obvious,
//! and the arbiter when the two disagree.

use crate::ast::*;
use crate::builtins::{self, Builtin};
use crate::interp::HostFn;
use crate::parser::parse;
use crate::value::Value;
use crate::{Result, ScriptError};
use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;

type Scope = BTreeMap<String, Value>;

enum Flow {
    Normal(Value),
    Return(Value),
    Break,
    Continue,
}

/// The tree-walking interpreter (reference semantics).
///
/// Same public surface as [`crate::Interpreter`], minus compilation
/// caching: every [`Interpreter::run`] re-parses and walks the AST.
pub struct Interpreter {
    host_fns: HashMap<String, HostFn>,
    user_fns: HashMap<String, FnDef>,
    /// Call frames; each frame is a stack of block scopes. Frame 0 /
    /// scope 0 is the global scope.
    frames: Vec<Vec<Scope>>,
    output: Vec<String>,
    steps: u64,
    step_limit: u64,
    call_depth_limit: usize,
    /// Frame index at which call depth counts from zero; sweep bodies
    /// reset it so each body gets a full, independent depth budget
    /// (mirroring the fresh frame stack a parallel worker would use).
    depth_base: usize,
    /// Positive while executing inside a `par_foreach_trial` body, where
    /// writes to globals (and function definitions) are rejected.
    par_depth: usize,
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
            host_fns: HashMap::new(),
            user_fns: HashMap::new(),
            frames: vec![vec![Scope::new()]],
            output: Vec::new(),
            steps: 0,
            step_limit: 50_000_000,
            call_depth_limit: 1000,
            depth_base: 0,
            par_depth: 0,
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

    /// Registers a host function callable from scripts.
    pub fn register(
        &mut self,
        name: &str,
        f: impl FnMut(&mut Vec<Value>) -> std::result::Result<Value, String> + Send + 'static,
    ) {
        self.host_fns.insert(name.to_string(), Box::new(f));
    }

    /// Defines a global variable visible to scripts.
    pub fn set_global(&mut self, name: &str, value: Value) {
        self.frames[0][0].insert(name.to_string(), value);
    }

    /// Reads a global variable after a run.
    pub fn get_global(&self, name: &str) -> Option<&Value> {
        self.frames[0][0].get(name)
    }

    /// Takes the accumulated `print` output.
    pub fn take_output(&mut self) -> Vec<String> {
        std::mem::take(&mut self.output)
    }

    /// Steps consumed by the most recent [`Interpreter::run`].
    pub fn steps(&self) -> u64 {
        self.steps
    }

    /// Parses and executes a script, returning the value of its final
    /// expression statement (or [`Value::Null`]).
    pub fn run(&mut self, src: &str) -> Result<Value> {
        let program = parse(src)?;
        // A previous run that aborted with an error may have left
        // call frames / block scopes pushed (error propagation skips
        // the pops). Only the global scope survives across runs.
        self.frames.truncate(1);
        self.frames[0].truncate(1);
        self.steps = 0;
        self.depth_base = 0;
        self.par_depth = 0;
        let mut last = Value::Null;
        for stmt in &program.statements {
            match self.exec(stmt)? {
                Flow::Normal(v) => last = v,
                Flow::Return(v) => return Ok(v),
                Flow::Break | Flow::Continue => {
                    return Err(ScriptError::runtime(
                        stmt.line,
                        "break/continue outside loop",
                    ))
                }
            }
        }
        Ok(last)
    }

    fn bump(&mut self, line: usize) -> Result<()> {
        self.steps += 1;
        if self.steps > self.step_limit {
            return Err(ScriptError::runtime(line, "step limit exceeded"));
        }
        Ok(())
    }

    fn lookup(&self, name: &str) -> Option<&Value> {
        let frame = self.frames.last().expect("at least global frame");
        for scope in frame.iter().rev() {
            if let Some(v) = scope.get(name) {
                return Some(v);
            }
        }
        // Fall back to globals (frame 0, scope 0) from inside functions.
        self.frames[0][0].get(name)
    }

    fn assign(&mut self, name: &str, value: Value, line: usize) -> Result<()> {
        let frame = self.frames.last_mut().expect("at least global frame");
        for scope in frame.iter_mut().rev() {
            if let Some(slot) = scope.get_mut(name) {
                *slot = value;
                return Ok(());
            }
        }
        if self.frames[0][0].contains_key(name) {
            if self.par_depth > 0 {
                return Err(ScriptError::runtime(
                    line,
                    format!("cannot assign to global {name:?} inside par_foreach_trial"),
                ));
            }
            *self.frames[0][0].get_mut(name).expect("checked") = value;
            return Ok(());
        }
        Err(ScriptError::runtime(
            line,
            format!("assignment to undefined variable {name:?}"),
        ))
    }

    /// True when `name` resolves within the current frame's block
    /// scopes (i.e. without falling back to the global scope).
    fn in_current_frame(&self, name: &str) -> bool {
        let frame = self.frames.last().expect("at least global frame");
        frame.iter().rev().any(|scope| scope.contains_key(name))
    }

    fn exec_block(&mut self, body: &[Stmt]) -> Result<Flow> {
        self.frames.last_mut().expect("frame").push(Scope::new());
        let mut flow = Flow::Normal(Value::Null);
        for stmt in body {
            match self.exec(stmt)? {
                Flow::Normal(v) => flow = Flow::Normal(v),
                other => {
                    flow = other;
                    break;
                }
            }
        }
        self.frames.last_mut().expect("frame").pop();
        Ok(flow)
    }

    fn exec(&mut self, stmt: &Stmt) -> Result<Flow> {
        self.bump(stmt.line)?;
        match &stmt.kind {
            StmtKind::Let(name, e) => {
                let v = self.eval(e)?;
                self.frames
                    .last_mut()
                    .expect("frame")
                    .last_mut()
                    .expect("scope")
                    .insert(name.clone(), v);
                Ok(Flow::Normal(Value::Null))
            }
            StmtKind::Assign(name, e) => {
                let v = self.eval(e)?;
                self.assign(name, v, stmt.line)?;
                Ok(Flow::Normal(Value::Null))
            }
            StmtKind::IndexAssign(base, index, e) => {
                let value = self.eval(e)?;
                let idx = self.eval(index)?;
                // Only direct variables support index assignment; nested
                // containers are updated by rebuilding in script code.
                let ExprKind::Var(name) = &base.kind else {
                    return Err(ScriptError::runtime(
                        stmt.line,
                        "index assignment requires a variable base",
                    ));
                };
                let mut container = self.lookup(name).cloned().ok_or_else(|| {
                    ScriptError::runtime(stmt.line, format!("undefined variable {name:?}"))
                })?;
                if self.par_depth > 0 && !self.in_current_frame(name) {
                    return Err(ScriptError::runtime(
                        stmt.line,
                        format!("cannot mutate global {name:?} inside par_foreach_trial"),
                    ));
                }
                match (&mut container, &idx) {
                    (Value::List(items), Value::Num(n)) => {
                        let i = *n as usize;
                        if n.fract() != 0.0 || i >= items.len() {
                            return Err(ScriptError::runtime(
                                stmt.line,
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
                            stmt.line,
                            format!("cannot index {} with {}", c.type_name(), i.type_name()),
                        ))
                    }
                }
                self.assign(name, container, stmt.line)?;
                Ok(Flow::Normal(Value::Null))
            }
            StmtKind::Expr(e) => Ok(Flow::Normal(self.eval(e)?)),
            StmtKind::If(cond, then_block, else_block) => {
                if self.eval(cond)?.truthy() {
                    self.exec_block(then_block)
                } else if let Some(eb) = else_block {
                    self.exec_block(eb)
                } else {
                    Ok(Flow::Normal(Value::Null))
                }
            }
            StmtKind::While(cond, body) => {
                while self.eval(cond)?.truthy() {
                    self.bump(stmt.line)?;
                    match self.exec_block(body)? {
                        Flow::Break => break,
                        Flow::Return(v) => return Ok(Flow::Return(v)),
                        Flow::Normal(_) | Flow::Continue => {}
                    }
                }
                Ok(Flow::Normal(Value::Null))
            }
            StmtKind::For(var, iter, body) => {
                let iterable = self.eval(iter)?;
                let items: Vec<Value> = match iterable {
                    Value::List(v) => v.to_vec(),
                    Value::Map(m) => m.keys().map(|k| Value::from(k.as_str())).collect(),
                    other => {
                        return Err(ScriptError::runtime(
                            stmt.line,
                            format!("cannot iterate a {}", other.type_name()),
                        ))
                    }
                };
                for item in items {
                    self.bump(stmt.line)?;
                    self.frames.last_mut().expect("frame").push(Scope::new());
                    self.frames
                        .last_mut()
                        .expect("frame")
                        .last_mut()
                        .expect("scope")
                        .insert(var.clone(), item);
                    let mut result = Flow::Normal(Value::Null);
                    for s in body {
                        match self.exec(s)? {
                            Flow::Normal(_) => {}
                            other => {
                                result = other;
                                break;
                            }
                        }
                    }
                    self.frames.last_mut().expect("frame").pop();
                    match result {
                        Flow::Break => return Ok(Flow::Normal(Value::Null)),
                        Flow::Return(v) => return Ok(Flow::Return(v)),
                        Flow::Normal(_) | Flow::Continue => {}
                    }
                }
                Ok(Flow::Normal(Value::Null))
            }
            StmtKind::FnDef(def) => {
                if self.par_depth > 0 {
                    return Err(ScriptError::runtime(
                        stmt.line,
                        format!(
                            "cannot define function {:?} inside par_foreach_trial",
                            def.name
                        ),
                    ));
                }
                self.user_fns.insert(def.name.clone(), def.clone());
                Ok(Flow::Normal(Value::Null))
            }
            StmtKind::Return(e) => {
                let v = match e {
                    Some(e) => self.eval(e)?,
                    None => Value::Null,
                };
                Ok(Flow::Return(v))
            }
            StmtKind::Break => Ok(Flow::Break),
            StmtKind::Continue => Ok(Flow::Continue),
        }
    }

    fn eval(&mut self, e: &Expr) -> Result<Value> {
        self.bump(e.line)?;
        match &e.kind {
            ExprKind::Null => Ok(Value::Null),
            ExprKind::Bool(b) => Ok(Value::Bool(*b)),
            ExprKind::Num(n) => Ok(Value::Num(*n)),
            ExprKind::Str(s) => Ok(Value::from(s.as_str())),
            ExprKind::Var(name) => self.lookup(name).cloned().ok_or_else(|| {
                ScriptError::runtime(e.line, format!("undefined variable {name:?}"))
            }),
            ExprKind::List(items) => {
                let mut out = Vec::with_capacity(items.len());
                for item in items {
                    out.push(self.eval(item)?);
                }
                Ok(Value::List(Arc::new(out.into())))
            }
            ExprKind::Map(pairs) => {
                let mut m = BTreeMap::new();
                for (k, v) in pairs {
                    m.insert(k.clone(), self.eval(v)?);
                }
                Ok(Value::Map(Arc::new(m.into())))
            }
            ExprKind::Unary(op, inner) => {
                let v = self.eval(inner)?;
                match op {
                    UnOp::Neg => v.as_num().map(|n| Value::Num(-n)).ok_or_else(|| {
                        ScriptError::runtime(e.line, format!("cannot negate a {}", v.type_name()))
                    }),
                    UnOp::Not => Ok(Value::Bool(!v.truthy())),
                }
            }
            ExprKind::Binary(op, lhs, rhs) => self.eval_binary(e.line, *op, lhs, rhs),
            ExprKind::Index(base, index) => {
                let b = self.eval(base)?;
                let i = self.eval(index)?;
                match (&b, &i) {
                    (Value::List(items), Value::Num(n)) => {
                        let idx = *n as usize;
                        if n.fract() != 0.0 || *n < 0.0 || idx >= items.len() {
                            Err(ScriptError::runtime(
                                e.line,
                                format!("list index {n} out of range (len {})", items.len()),
                            ))
                        } else {
                            Ok(items[idx].clone())
                        }
                    }
                    (Value::Map(m), Value::Str(k)) => m.get(&**k).cloned().ok_or_else(|| {
                        ScriptError::runtime(e.line, format!("missing map key {k:?}"))
                    }),
                    (Value::Str(s), Value::Num(n)) => {
                        let idx = *n as usize;
                        s.chars()
                            .nth(idx)
                            .map(|c| Value::from(c.to_string()))
                            .ok_or_else(|| {
                                ScriptError::runtime(
                                    e.line,
                                    format!("string index {n} out of range"),
                                )
                            })
                    }
                    (b, i) => Err(ScriptError::runtime(
                        e.line,
                        format!("cannot index {} with {}", b.type_name(), i.type_name()),
                    )),
                }
            }
            ExprKind::Call(name, args) => {
                // Short-circuit-free argument evaluation.
                let mut values = Vec::with_capacity(args.len());
                for a in args {
                    values.push(self.eval(a)?);
                }
                self.call(name, values, e.line)
            }
            ExprKind::ParForEach(var, iter, body) => {
                let iterable = self.eval(iter)?;
                let Value::List(items) = iterable else {
                    return Err(ScriptError::runtime(
                        e.line,
                        format!(
                            "par_foreach_trial expects a list, got a {}",
                            iterable.type_name()
                        ),
                    ));
                };
                // Each body runs with an independent step counter
                // bounded by what remains of the sweep's budget; the
                // totals are folded back in afterwards so the sweep as
                // a whole cannot exceed `limit + bodies` steps whether
                // the bodies ran sequentially or in parallel.
                let entry = self.steps;
                let budget = self.step_limit - entry;
                let mut results = Vec::with_capacity(items.len());
                let mut total: u64 = 0;
                for item in items.iter().cloned() {
                    let (result, body_steps, mut body_out) =
                        self.run_par_body(var, item, body, budget);
                    total = total.saturating_add(body_steps);
                    self.output.append(&mut body_out);
                    results.push(crate::interp::sweep_outcome_value(result));
                }
                self.steps = entry.saturating_add(total);
                Ok(Value::List(Arc::new(results.into())))
            }
        }
    }

    /// Runs one `par_foreach_trial` body in isolation: a fresh frame
    /// with only the loop variable bound, steps counted from zero
    /// against `budget`, output captured separately, and call depth
    /// restarting at zero. Returns the body result (fall-off value of
    /// the last statement, or an early `return`), the steps it
    /// consumed, and the lines it printed.
    fn run_par_body(
        &mut self,
        var: &str,
        item: Value,
        body: &[Stmt],
        budget: u64,
    ) -> (Result<Value>, u64, Vec<String>) {
        let saved_steps = self.steps;
        let saved_limit = self.step_limit;
        let saved_output = std::mem::take(&mut self.output);
        let saved_depth_base = self.depth_base;
        let frames_mark = self.frames.len();
        self.steps = 0;
        self.step_limit = budget;
        self.par_depth += 1;
        let mut scope = Scope::new();
        scope.insert(var.to_string(), item);
        self.frames.push(vec![scope]);
        self.depth_base = self.frames.len() - 1;
        let mut result = Ok(Value::Null);
        for stmt in body {
            match self.exec(stmt) {
                Ok(Flow::Normal(v)) => result = Ok(v),
                Ok(Flow::Return(v)) => {
                    result = Ok(v);
                    break;
                }
                Ok(Flow::Break) | Ok(Flow::Continue) => {
                    result = Err(ScriptError::runtime(
                        stmt.line,
                        "break/continue outside loop",
                    ));
                    break;
                }
                Err(e) => {
                    result = Err(e);
                    break;
                }
            }
        }
        self.frames.truncate(frames_mark);
        self.par_depth -= 1;
        self.depth_base = saved_depth_base;
        let body_steps = self.steps;
        let body_out = std::mem::take(&mut self.output);
        self.steps = saved_steps;
        self.step_limit = saved_limit;
        self.output = saved_output;
        (result, body_steps, body_out)
    }

    fn eval_binary(&mut self, line: usize, op: BinOp, lhs: &Expr, rhs: &Expr) -> Result<Value> {
        // Short-circuit logic first.
        if matches!(op, BinOp::And | BinOp::Or) {
            let l = self.eval(lhs)?;
            return match (op, l.truthy()) {
                (BinOp::And, false) => Ok(Value::Bool(false)),
                (BinOp::Or, true) => Ok(Value::Bool(true)),
                _ => Ok(Value::Bool(self.eval(rhs)?.truthy())),
            };
        }
        let l = self.eval(lhs)?;
        let r = self.eval(rhs)?;
        let type_err = |op: &str| {
            ScriptError::runtime(
                line,
                format!(
                    "cannot apply {op} to {} and {}",
                    l.type_name(),
                    r.type_name()
                ),
            )
        };
        match op {
            BinOp::Add => match (&l, &r) {
                (Value::Num(a), Value::Num(b)) => Ok(Value::Num(a + b)),
                (Value::List(a), Value::List(b)) => {
                    let mut out = a.to_vec();
                    out.extend(b.iter().cloned());
                    Ok(Value::List(Arc::new(out.into())))
                }
                (Value::Str(_), _) | (_, Value::Str(_)) => Ok(Value::from(format!("{l}{r}"))),
                _ => Err(type_err("+")),
            },
            BinOp::Sub | BinOp::Mul | BinOp::Div | BinOp::Rem => {
                let (Some(a), Some(b)) = (l.as_num(), r.as_num()) else {
                    return Err(type_err(match op {
                        BinOp::Sub => "-",
                        BinOp::Mul => "*",
                        BinOp::Div => "/",
                        _ => "%",
                    }));
                };
                match op {
                    BinOp::Sub => Ok(Value::Num(a - b)),
                    BinOp::Mul => Ok(Value::Num(a * b)),
                    BinOp::Div => {
                        if b == 0.0 {
                            Err(ScriptError::runtime(line, "division by zero"))
                        } else {
                            Ok(Value::Num(a / b))
                        }
                    }
                    _ => {
                        if b == 0.0 {
                            Err(ScriptError::runtime(line, "modulo by zero"))
                        } else {
                            Ok(Value::Num(a % b))
                        }
                    }
                }
            }
            BinOp::Eq => Ok(Value::Bool(l == r)),
            BinOp::Ne => Ok(Value::Bool(l != r)),
            BinOp::Lt | BinOp::Le | BinOp::Gt | BinOp::Ge => {
                let ord = match (&l, &r) {
                    (Value::Num(a), Value::Num(b)) => a.partial_cmp(b),
                    (Value::Str(a), Value::Str(b)) => Some(a.cmp(b)),
                    _ => None,
                }
                .ok_or_else(|| type_err("comparison"))?;
                use std::cmp::Ordering::*;
                Ok(Value::Bool(match op {
                    BinOp::Lt => ord == Less,
                    BinOp::Le => ord != Greater,
                    BinOp::Gt => ord == Greater,
                    _ => ord != Less,
                }))
            }
            BinOp::And | BinOp::Or => unreachable!("handled above"),
        }
    }

    fn call(&mut self, name: &str, mut args: Vec<Value>, line: usize) -> Result<Value> {
        // 1. builtins, 2. user functions, 3. host functions.
        if let Some(b) = Builtin::from_name(name) {
            return builtins::call(b, &args, &mut self.output, line);
        }
        if let Some(def) = self.user_fns.get(name).cloned() {
            if def.params.len() != args.len() {
                return Err(ScriptError::runtime(
                    line,
                    format!(
                        "{name}() expects {} arguments, got {}",
                        def.params.len(),
                        args.len()
                    ),
                ));
            }
            if self.frames.len() - 1 - self.depth_base >= self.call_depth_limit {
                return Err(ScriptError::runtime(line, "call depth limit exceeded"));
            }
            let mut scope = Scope::new();
            for (p, a) in def.params.iter().zip(args) {
                scope.insert(p.clone(), a);
            }
            self.frames.push(vec![scope]);
            let mut result = Value::Null;
            let mut flow_err = None;
            for stmt in &def.body {
                match self.exec(stmt) {
                    Ok(Flow::Normal(v)) => result = v,
                    Ok(Flow::Return(v)) => {
                        result = v;
                        break;
                    }
                    Ok(Flow::Break) | Ok(Flow::Continue) => {
                        flow_err = Some(ScriptError::runtime(
                            stmt.line,
                            "break/continue outside loop",
                        ));
                        break;
                    }
                    Err(e) => {
                        flow_err = Some(e);
                        break;
                    }
                }
            }
            self.frames.pop();
            return match flow_err {
                Some(e) => Err(e),
                None => Ok(result),
            };
        }
        if let Some(f) = self.host_fns.get_mut(name) {
            return f(&mut args)
                .map_err(|msg| ScriptError::runtime(line, format!("{name}(): {msg}")));
        }
        Err(ScriptError::runtime(
            line,
            format!("unknown function {name:?}"),
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // The reference interpreter's behaviour is pinned in depth by the
    // VM test suite in `interp.rs` and the differential proptests in
    // `tests/differential.rs`; these are smoke tests that it stays a
    // working standalone engine.

    #[test]
    fn reference_runs_programs() {
        let mut interp = Interpreter::new();
        let v = interp
            .run("fn fib(n) { if n < 2 { return n; } return fib(n-1) + fib(n-2); } fib(12)")
            .unwrap();
        assert_eq!(v, Value::Num(144.0));
        assert!(interp.steps() > 0);
    }

    #[test]
    fn reference_host_functions_use_shared_buffer_signature() {
        let mut interp = Interpreter::new();
        interp.register("pair_sum", |args: &mut Vec<Value>| {
            let a = args.first().and_then(Value::as_num).ok_or("num expected")?;
            let b = args.get(1).and_then(Value::as_num).ok_or("num expected")?;
            Ok(Value::Num(a + b))
        });
        assert_eq!(interp.run("pair_sum(2, 3)").unwrap(), Value::Num(5.0));
    }

    #[test]
    fn reference_reports_step_exhaustion() {
        let mut interp = Interpreter::new().with_step_limit(100);
        let err = interp.run("while true { }").unwrap_err();
        assert!(err.message.contains("step limit"));
        assert_eq!(interp.steps(), 101);
    }
}
