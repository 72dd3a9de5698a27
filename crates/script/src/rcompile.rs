//! AST → register bytecode compiler.
//!
//! A single pass over the AST that (a) interns every identifier, (b)
//! resolves each variable reference to either a frame-relative register
//! or a persistent global slot, (c) resolves each call to a dense
//! builtin/function id, (d) dedups literals (and folds constant
//! arithmetic) into a per-function constant pool, and (e) emits
//! three-address [`ROp`] instructions for the register VM in `rvm.rs`.
//! Every named local gets a register, expression temporaries are
//! registers above the named ones (block-scoped, so they recycle), and
//! instructions name their inputs and outputs directly as packed
//! operands: register, compiler-proven-defined global, or constant,
//! tagged in the top two bits of a `u32`.
//!
//! # Step accounting
//!
//! The reference tree-walker charges one step per statement and per
//! expression node, in pre-order, and one extra step per loop
//! iteration. The VM must exhaust a step budget after the *same* number
//! of steps with the *same* error line, so the compiler records every
//! would-be bump as a pending line and flushes consecutive runs into a
//! single charge of `n` steps, where `meta` indexes a side table
//! (`RProto::step_lines`) holding the line of each individual bump. The
//! VM can then charge `n` steps in one add and still recover the exact
//! line of the bump that crossed the limit. Merging is sound because no
//! observable effect (value, output, error) occurs between the bumps of
//! one run. Constant folding keeps parity for the same reason: folding
//! `1 + 2 * 3` to a pooled `7` still charges the five bumps the
//! tree-walker would have charged.
//!
//! Runs merge across *pure* ops too: an op that cannot fail and touches
//! only transient state (registers and the statement-value register,
//! all discarded when a run errors) may execute before the charge the
//! tree-walker would have made first. A step-limit abort between the
//! two orders is indistinguishable: same error, same line, same step
//! count, and no persistent state (globals, output, function bindings)
//! has diverged, because every fallible or persistent-effect op flushes
//! pending bumps before it executes.
//!
//! # Scope rules
//!
//! The tree-walker's scoping is dynamic in mechanism but lexical in
//! effect: a name resolves through the enclosing block scopes of the
//! current frame and then falls back to the global scope, and function
//! bodies execute in a fresh frame seeing only their parameters (plus
//! body-level `let`s, which share the parameter scope) and globals. The
//! compiler mirrors this with a compile-time scope stack: names bound
//! by `let` (in a block), parameters, and `for` variables become
//! registers with block-bounded lifetimes (reused after block exit);
//! everything else — including `let` at the top level of the program —
//! resolves to a named global slot that persists across runs of one
//! interpreter, which is what keeps compiled [`RProto`]s valid.
//!
//! # Encoding choices
//!
//! - **Embedded step charges.** The hot ops ([`ROp::Bin`],
//!   [`ROp::CmpSet`], [`ROp::CmpJump`]) carry their pending step bumps
//!   as an `{n, meta}` pair instead of a preceding [`ROp::Step`], so an
//!   arithmetic-heavy loop iteration is 3 dispatches instead of 7.
//!   Charge ordering is identical: the bumps are charged before the
//!   op's fallible work, exactly where a flushed `Step` would sit.
//! - **Rotated `while` loops.** The loop compiles as
//!   `Jump check; body: ...; check: cond-jump-if-true body`, so each
//!   iteration is the body plus one conditional branch (no separate
//!   back-edge `Jump`). The per-iteration bump lands at `body:` and the
//!   condition's bumps at `check:`, preserving the reference engine's
//!   charge order (cond, iteration, body).
//! - **Statically tracked statement-value register.** Stores null the
//!   tree-walker's statement value; a register assignment is just a
//!   write to the destination register, so the compiler emits an
//!   explicit [`ROp::ClearLast`] only where the nulling is observable —
//!   never inside a loop, whose every exit path clears it anyway.
//!
//! # Operand deferral
//!
//! A packed operand read happens at the consuming op, *after* any code
//! compiled for the other operand. Locals and constants are always safe
//! to defer: expressions cannot assign locals (assignment is a
//! statement, and callees get their own frame). A proven-defined global
//! is safe only when the other, later-evaluated operand is itself
//! simple — otherwise `g + f()` would read `g` after `f` possibly
//! assigned it — so a global left-hand side is deferred only when the
//! right-hand side is simple, and spilled to a temporary register
//! otherwise.

use crate::ast::*;
use crate::builtins::Builtin;
use crate::rvm::{FnTable, Globals};
use crate::value::{Interner, Symbol, Value};
use std::collections::{HashMap, HashSet};
use std::sync::Arc;

/// Comparison selector of [`ROp::CmpSet`], [`ROp::CmpJump`] and
/// [`ROp::IncCmpJump`].
#[derive(Debug, Clone, Copy)]
pub(crate) enum Cmp {
    /// `==`
    Eq,
    /// `!=`
    Ne,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
}

/// Arithmetic selector of [`ROp::Bin`] and [`ROp::IncCmpJump`].
#[derive(Debug, Clone, Copy)]
pub(crate) enum Arith {
    /// `+` (numeric add, list concat, or string concat)
    Add,
    /// `-`
    Sub,
    /// `*`
    Mul,
    /// `/` (errors on zero divisor)
    Div,
    /// `%` (errors on zero divisor)
    Rem,
}

/// Packed operand: tag in the top two bits ([`OPERAND_LOCAL`],
/// [`OPERAND_GLOBAL`] — always compiler-proven defined — or
/// [`OPERAND_CONST`]), index in the low 30.
pub(crate) const OPERAND_LOCAL: u32 = 0;
/// Tag: proven-defined global slot.
pub(crate) const OPERAND_GLOBAL: u32 = 1;
/// Tag: constant-pool index.
pub(crate) const OPERAND_CONST: u32 = 2;

/// Splits a packed operand into (tag, index).
#[inline]
pub(crate) fn operand_parts(packed: u32) -> (u32, u32) {
    (packed >> 30, packed & 0x3FFF_FFFF)
}

/// Packs an operand tag and index into one `u32`.
fn pack_operand(tag: u32, idx: u32) -> u32 {
    debug_assert!(idx < (1 << 30));
    (tag << 30) | idx
}

/// One register-VM instruction. Jump targets are absolute instruction
/// indices; `dst`/`slot`/`base` fields are frame-relative register
/// indices; `lhs`/`rhs`/`src`/`idx` fields are packed operands unless
/// noted. `{n, meta}` pairs are embedded step charges (see the module
/// docs); `n == 0` means no charge.
#[derive(Debug, Clone, Copy)]
pub(crate) enum ROp {
    /// Charge `n` execution steps; `meta` indexes `RProto::step_lines`
    /// at the line of the first of the `n` merged bumps.
    Step {
        /// Bumps merged into this charge.
        n: u32,
        /// Index of the first bump's line in `step_lines`.
        meta: u32,
    },
    /// `regs[dst] = consts[id]`.
    LoadConst {
        /// Destination register.
        dst: u32,
        /// Constant-pool index.
        id: u32,
    },
    /// `regs[dst] = regs[src]` (copy).
    Copy {
        /// Destination register.
        dst: u32,
        /// Source register.
        src: u32,
    },
    /// `regs[dst] = globals[g]`; error if still undefined.
    LoadGlobal {
        /// Destination register.
        dst: u32,
        /// Global slot.
        g: u32,
    },
    /// [`ROp::LoadGlobal`] for a compiler-proven-defined slot (pure).
    LoadGlobalFast {
        /// Destination register.
        dst: u32,
        /// Global slot.
        g: u32,
    },
    /// `globals[g] = src`; error if still undefined, or in a sweep.
    StoreGlobal {
        /// Global slot.
        g: u32,
        /// Packed source operand.
        src: u32,
    },
    /// [`ROp::StoreGlobal`] for a proven-defined slot (the undefined
    /// check is vestigial; the sweep ban still applies).
    StoreGlobalFast {
        /// Global slot.
        g: u32,
        /// Packed source operand.
        src: u32,
    },
    /// `globals[g] = src`, defining the slot (top-level `let`).
    DefineGlobal {
        /// Global slot.
        g: u32,
        /// Packed source operand.
        src: u32,
    },
    /// `dst = lhs op rhs` in one dispatch: charge `{n, meta}`, read the
    /// packed operands, apply the arithmetic, write the packed
    /// destination (register or proven-defined global).
    Bin {
        /// Which arithmetic.
        op: Arith,
        /// Packed destination (register or proven-defined global).
        dst: u32,
        /// Packed left operand.
        lhs: u32,
        /// Packed right operand.
        rhs: u32,
        /// Embedded step charge.
        n: u32,
        /// Charge line-table index.
        meta: u32,
    },
    /// `regs[dst] = lhs cmp rhs` (a bool), with an embedded charge.
    CmpSet {
        /// Which comparison.
        cmp: Cmp,
        /// Destination register.
        dst: u32,
        /// Packed left operand.
        lhs: u32,
        /// Packed right operand.
        rhs: u32,
        /// Embedded step charge.
        n: u32,
        /// Charge line-table index.
        meta: u32,
    },
    /// Charge `{n, meta}`, compare the packed operands, jump to
    /// `target` when the result equals `when`.
    CmpJump {
        /// Which comparison.
        cmp: Cmp,
        /// Packed left operand.
        lhs: u32,
        /// Packed right operand.
        rhs: u32,
        /// Branch target.
        target: u32,
        /// Jump when the comparison yields this value.
        when: bool,
        /// Embedded step charge.
        n: u32,
        /// Charge line-table index.
        meta: u32,
    },
    /// The counted-loop superinstruction (compare Lua's `FORLOOP`):
    /// `dst = dst op step`, then jump to `target` when `dst cmp bound`
    /// holds. Produced by [`fuse_counted_loops`] from a [`ROp::Bin`]
    /// whose destination is also its left operand, immediately followed
    /// by a [`ROp::CmpJump`] (with `when == true`) testing that same
    /// destination. The shadowed `CmpJump` stays at the next slot and
    /// remains live — loop entry and `continue` jump to it for the
    /// test-without-update path — so instruction indices, jump targets,
    /// and line tables are undisturbed, and it lends the fused op the
    /// comparison's error line.
    IncCmpJump {
        /// Which arithmetic for the update.
        op: Arith,
        /// Which comparison for the exit test.
        cmp: Cmp,
        /// Packed destination == left operand (register or proven
        /// global).
        dst: u32,
        /// Packed update operand.
        step: u32,
        /// Packed comparison bound.
        bound: u32,
        /// Branch target (taken when the comparison holds).
        target: u32,
        /// The `Bin` charge in the low 16 bits, the `CmpJump` charge in
        /// the high 16; each is charged at its original point.
        ns: u32,
        /// Line-table index of the first charge; the second charge's
        /// run starts at `meta + (ns & 0xFFFF)` (the fusion condition
        /// guarantees the runs are contiguous).
        meta: u32,
    },
    /// Jump to `target` when the packed operand is falsy.
    JumpIfFalse {
        /// Packed condition operand.
        src: u32,
        /// Branch target.
        target: u32,
    },
    /// Jump to `target` when the packed operand is truthy.
    JumpIfTrue {
        /// Packed condition operand.
        src: u32,
        /// Branch target.
        target: u32,
    },
    /// Unconditional jump.
    Jump {
        /// Branch target.
        target: u32,
    },
    /// `&&` left operand: if `regs[dst]` is falsy, `regs[dst] = false`
    /// and jump over the right operand; else fall into it.
    AndJump {
        /// Register holding the left operand / receiving the result.
        dst: u32,
        /// Branch target (past the right operand).
        target: u32,
    },
    /// `||` left operand: if `regs[dst]` is truthy, `regs[dst] = true`
    /// and jump over the right operand; else fall into it.
    OrJump {
        /// Register holding the left operand / receiving the result.
        dst: u32,
        /// Branch target (past the right operand).
        target: u32,
    },
    /// `regs[dst] = truthiness(src)` as a bool.
    Bool {
        /// Destination register.
        dst: u32,
        /// Packed source operand.
        src: u32,
    },
    /// `regs[dst] = !truthiness(src)`.
    Not {
        /// Destination register.
        dst: u32,
        /// Packed source operand.
        src: u32,
    },
    /// `regs[dst] = -src`; errors on non-numbers.
    Neg {
        /// Destination register.
        dst: u32,
        /// Packed source operand.
        src: u32,
    },
    /// `regs[dst] = [regs[base], …, regs[base + n - 1]]`.
    MakeList {
        /// Destination register.
        dst: u32,
        /// First element register.
        base: u32,
        /// Element count.
        n: u32,
    },
    /// `regs[dst] = {regs[base]: regs[base+1], …}` over `n` pairs
    /// (keys are compiled as string constants).
    MakeMap {
        /// Destination register.
        dst: u32,
        /// First key register.
        base: u32,
        /// Pair count.
        n: u32,
    },
    /// `regs[dst] = base[idx]` with the indexing type rules.
    Index {
        /// Destination register.
        dst: u32,
        /// Packed container operand.
        base: u32,
        /// Packed index operand.
        idx: u32,
    },
    /// `regs[reg][idx] = src` in place.
    IndexSetLocal {
        /// Register holding the container.
        reg: u32,
        /// Packed index operand.
        idx: u32,
        /// Packed value operand.
        src: u32,
    },
    /// `globals[g][idx] = src` in place; errors if undefined or in a
    /// sweep.
    IndexSetGlobal {
        /// Global slot holding the container.
        g: u32,
        /// Packed index operand.
        idx: u32,
        /// Packed value operand.
        src: u32,
    },
    /// `regs[dst] = builtin(regs[base..base+argc])`.
    CallBuiltin {
        /// Which builtin.
        builtin: Builtin,
        /// Destination register.
        dst: u32,
        /// First argument register.
        base: u32,
        /// Argument count.
        argc: u32,
    },
    /// `regs[dst] = fn_id(regs[base..base+argc])` — user function (new
    /// frame whose parameter registers are the arguments) or host call.
    CallFn {
        /// Dense function id in the interpreter's function table.
        fn_id: u32,
        /// Destination register.
        dst: u32,
        /// First argument register.
        base: u32,
        /// Argument count.
        argc: u32,
    },
    /// Bind `defs[def]` as the body of function `fn_id`.
    DefineFn {
        /// Dense function id to (re)bind.
        fn_id: u32,
        /// Index into `RProto::defs`.
        def: u32,
    },
    /// Open an iterator over the packed operand.
    ForPrep {
        /// Packed iterable operand.
        src: u32,
    },
    /// Advance the innermost iterator into register `slot`, or pop the
    /// iterator and jump to `exit` when exhausted.
    ForNext {
        /// Loop-variable register.
        slot: u32,
        /// Jump target once exhausted.
        exit: u32,
    },
    /// Discard the innermost iterator (`break` out of a `for`).
    PopIter,
    /// Run `defs[def]` once per item of the list operand (sweep bodies;
    /// independent step budgets, captured output, outcome maps), into
    /// `regs[dst]`. Hands the bodies to the interpreter's parallel
    /// executor when one is installed.
    ParForEach {
        /// Destination register for the outcome list.
        dst: u32,
        /// Packed trial-list operand.
        src: u32,
        /// Index into `RProto::defs` of the compiled body.
        def: u32,
    },
    /// Statement-value register = operand (expression statements).
    SetLast {
        /// Packed source operand.
        src: u32,
    },
    /// Null the statement-value register.
    ClearLast,
    /// Return the operand, unwinding one frame (or finishing the run).
    Return {
        /// Packed return-value operand.
        src: u32,
    },
    /// Return the statement-value register (fall-off-the-end).
    ReturnLast,
    /// `break`/`continue` outside any loop.
    FailLoopFlow,
    /// Index assignment whose base is not a plain variable.
    FailIndexBase,
}

/// A compiled function (or the program's top level) in register form.
#[derive(Debug)]
pub(crate) struct RProto {
    /// Number of parameters (registers `0..params`).
    pub params: u32,
    /// Total registers the frame's window needs.
    pub regs: u32,
    /// Instructions; always terminated by [`ROp::ReturnLast`].
    pub code: Box<[ROp]>,
    /// Source line of each instruction (for error reporting).
    pub lines: Box<[u32]>,
    /// Per-bump lines for merged step charges.
    pub step_lines: Box<[u32]>,
    /// Constant pool (deduplicated).
    pub consts: Box<[Value]>,
    /// Nested function and sweep-body protos.
    pub defs: Box<[Arc<RProto>]>,
}

/// Compiles a parsed program to register bytecode against an
/// interpreter's persistent interner / global-slot / function tables.
/// Infallible: all language errors are runtime errors by the reference
/// semantics, so the compiler lowers even statically-doomed code (e.g.
/// `break` outside a loop) to ops that raise the identical error when
/// reached.
pub(crate) fn rcompile(
    program: &Program,
    interner: &mut Interner,
    globals: &mut Globals,
    fns: &mut FnTable,
) -> Arc<RProto> {
    let mut shared = Shared {
        interner,
        globals,
        fns,
    };
    rcompile_proto(&mut shared, &[], &program.statements, true)
}

struct Shared<'a> {
    interner: &'a mut Interner,
    globals: &'a mut Globals,
    fns: &'a mut FnTable,
}

/// The loop peephole (see [`ROp::IncCmpJump`]): fuses the update, the
/// store, the exit test, and the back-branch of a counted loop into one
/// dispatch. Runs after all jump targets are patched. The shadowed
/// `CmpJump` is left in place and stays live: a rotated `while` enters
/// through a jump to its test, and `continue` lands there too — both
/// mean "test without update", which is exactly what the untouched
/// `CmpJump` still does (compare Lua's `FORPREP`/`FORLOOP` split). No
/// indices shift, so every jump stays valid. The charge runs must be
/// contiguous in `step_lines` and each fit in 16 bits, which the
/// compiler's append-only charge layout gives every adjacent pair in
/// practice.
fn fuse_counted_loops(code: &mut [ROp]) {
    let mut i = 0;
    while i + 1 < code.len() {
        if let (
            ROp::Bin {
                op,
                dst,
                lhs,
                rhs,
                n,
                meta,
            },
            ROp::CmpJump {
                cmp,
                lhs: clhs,
                rhs: bound,
                target,
                when: true,
                n: n2,
                meta: meta2,
            },
        ) = (code[i], code[i + 1])
        {
            let contiguous = n == 0 || n2 == 0 || meta2 == meta + n;
            if lhs == dst && clhs == dst && contiguous && n < 1 << 16 && n2 < 1 << 16 {
                code[i] = ROp::IncCmpJump {
                    op,
                    cmp,
                    dst,
                    step: rhs,
                    bound,
                    target,
                    ns: n | (n2 << 16),
                    meta: if n > 0 { meta } else { meta2 },
                };
                i += 2;
                continue;
            }
        }
        i += 1;
    }
}

/// Constant-pool dedup key (`f64` by bit pattern so NaN/−0.0 are kept
/// distinct exactly as written).
#[derive(PartialEq, Eq, Hash)]
enum ConstKey {
    Null,
    Bool(bool),
    Num(u64),
    Str(Arc<str>),
}

struct ScopeVar {
    sym: Symbol,
    slot: u32,
}

struct ScopeFrame {
    vars: Vec<ScopeVar>,
    base_slot: u32,
}

struct LoopCtx {
    /// Backward `continue` target when already known (`for` loops);
    /// `None` in rotated `while` loops, whose `continue` sites jump
    /// forward to the check label and are patched on loop exit.
    cont_target: Option<usize>,
    breaks: Vec<usize>,
    continues: Vec<usize>,
}

enum Resolved {
    Local(u32),
    Global(u32),
}

/// Placeholder jump target, patched once the label is bound.
const PATCH: u32 = u32::MAX;

struct RCompiler<'a, 'b> {
    sh: &'a mut Shared<'b>,
    code: Vec<ROp>,
    lines: Vec<u32>,
    step_lines: Vec<u32>,
    /// Lines of bumps not yet flushed into a `Step` op or embedded
    /// charge.
    pending: Vec<u32>,
    consts: Vec<Value>,
    const_map: HashMap<ConstKey, u32>,
    defs: Vec<Arc<RProto>>,
    scopes: Vec<ScopeFrame>,
    next_slot: u32,
    max_slots: u32,
    is_main: bool,
    loops: Vec<LoopCtx>,
    /// Line of the top-level statement currently being compiled; the
    /// tree-walker reports `break`/`continue`-outside-loop there.
    toplevel_line: u32,
    /// Global slots proven defined at this point: targets of earlier
    /// top-level `DefineGlobal`s of *this* program. Top-level
    /// statements run in order and globals are never undefined, so any
    /// later access in the program (including inside loops, `if`s and
    /// later statements — but not function bodies, which compile as
    /// separate protos) can skip the defined check.
    defined: HashSet<u32>,
    /// True when the statement-value register is statically known to be
    /// null (start of a proto, or straight-line code after a
    /// `ClearLast`); lets assignments skip their nulling op.
    last_clean: bool,
}

fn rcompile_proto(sh: &mut Shared, params: &[String], body: &[Stmt], is_main: bool) -> Arc<RProto> {
    let mut c = RCompiler {
        sh,
        code: Vec::new(),
        lines: Vec::new(),
        step_lines: Vec::new(),
        pending: Vec::new(),
        consts: Vec::new(),
        const_map: HashMap::new(),
        defs: Vec::new(),
        scopes: vec![ScopeFrame {
            vars: Vec::new(),
            base_slot: 0,
        }],
        next_slot: 0,
        max_slots: 0,
        is_main,
        loops: Vec::new(),
        toplevel_line: 0,
        defined: HashSet::new(),
        last_clean: true,
    };
    for p in params {
        c.define_local(p);
    }
    for s in body {
        c.stmt(s);
    }
    c.flush();
    c.code.push(ROp::ReturnLast);
    c.lines.push(0);
    fuse_counted_loops(&mut c.code);
    Arc::new(RProto {
        params: params.len() as u32,
        regs: c.max_slots,
        code: c.code.into_boxed_slice(),
        lines: c.lines.into_boxed_slice(),
        step_lines: c.step_lines.into_boxed_slice(),
        consts: c.consts.into_boxed_slice(),
        defs: c.defs.into_boxed_slice(),
    })
}

/// Folds a constant-only expression to its value, or `None` when the
/// expression could have effects, errors, or non-constant inputs.
/// Division/modulo fold only with a nonzero divisor so `1 / 0` still
/// raises its runtime error at the right line and step count.
fn fold(e: &Expr) -> Option<Value> {
    match &e.kind {
        ExprKind::Null => Some(Value::Null),
        ExprKind::Bool(b) => Some(Value::Bool(*b)),
        ExprKind::Num(n) => Some(Value::Num(*n)),
        ExprKind::Str(s) => Some(Value::from(s.as_str())),
        ExprKind::Unary(UnOp::Neg, inner) => match fold(inner)? {
            Value::Num(n) => Some(Value::Num(-n)),
            _ => None,
        },
        ExprKind::Unary(UnOp::Not, inner) => Some(Value::Bool(!fold(inner)?.truthy())),
        ExprKind::Binary(op, lhs, rhs) => {
            let (Value::Num(a), Value::Num(b)) = (fold(lhs)?, fold(rhs)?) else {
                return None;
            };
            match op {
                BinOp::Add => Some(Value::Num(a + b)),
                BinOp::Sub => Some(Value::Num(a - b)),
                BinOp::Mul => Some(Value::Num(a * b)),
                BinOp::Div if b != 0.0 => Some(Value::Num(a / b)),
                BinOp::Rem if b != 0.0 => Some(Value::Num(a % b)),
                _ => None,
            }
        }
        _ => None,
    }
}

impl RCompiler<'_, '_> {
    fn bump(&mut self, line: usize) {
        self.pending.push(line as u32);
    }

    fn flush(&mut self) {
        if self.pending.is_empty() {
            return;
        }
        let meta = self.step_lines.len() as u32;
        self.step_lines.extend_from_slice(&self.pending);
        let n = self.pending.len() as u32;
        self.lines.push(self.pending[0]);
        self.code.push(ROp::Step { n, meta });
        self.pending.clear();
    }

    /// Drains pending bumps into an embedded `{n, meta}` charge.
    fn take_charges(&mut self) -> (u32, u32) {
        if self.pending.is_empty() {
            return (0, 0);
        }
        let meta = self.step_lines.len() as u32;
        self.step_lines.extend_from_slice(&self.pending);
        let n = self.pending.len() as u32;
        self.pending.clear();
        (n, meta)
    }

    fn emit(&mut self, op: ROp, line: usize) {
        self.flush();
        self.code.push(op);
        self.lines.push(line as u32);
    }

    /// Emits a pure op (cannot fail, touches only transient state)
    /// without flushing pending bumps.
    fn emit_pure(&mut self, op: ROp, line: usize) {
        self.code.push(op);
        self.lines.push(line as u32);
    }

    fn emit_patch(&mut self, op: ROp, line: usize) -> usize {
        self.emit(op, line);
        self.code.len() - 1
    }

    /// Binds a label at the current position (flushing pending bumps so
    /// jumps to the label skip exactly the code before it). Control can
    /// merge here, so the statement-value register is no longer
    /// statically known.
    fn here(&mut self) -> usize {
        self.flush();
        self.last_clean = false;
        self.code.len()
    }

    fn patch(&mut self, at: usize, target: usize) {
        let t = target as u32;
        match &mut self.code[at] {
            ROp::Jump { target }
            | ROp::JumpIfFalse { target, .. }
            | ROp::JumpIfTrue { target, .. }
            | ROp::AndJump { target, .. }
            | ROp::OrJump { target, .. }
            | ROp::CmpJump { target, .. } => *target = t,
            ROp::ForNext { exit, .. } => *exit = t,
            other => unreachable!("patching non-jump op {other:?}"),
        }
    }

    fn const_id(&mut self, v: Value) -> u32 {
        let key = match &v {
            Value::Null => ConstKey::Null,
            Value::Bool(b) => ConstKey::Bool(*b),
            Value::Num(n) => ConstKey::Num(n.to_bits()),
            Value::Str(s) => ConstKey::Str(Arc::clone(s)),
            _ => {
                self.consts.push(v);
                return self.consts.len() as u32 - 1;
            }
        };
        if let Some(&id) = self.const_map.get(&key) {
            return id;
        }
        let id = self.consts.len() as u32;
        self.consts.push(v);
        self.const_map.insert(key, id);
        id
    }

    fn open_scope(&mut self) {
        self.scopes.push(ScopeFrame {
            vars: Vec::new(),
            base_slot: self.next_slot,
        });
    }

    fn close_scope(&mut self) {
        let frame = self.scopes.pop().expect("scope underflow");
        self.next_slot = frame.base_slot;
    }

    /// Claims the next register without binding a name (temporaries,
    /// and the `let` destination before its name becomes visible).
    fn alloc_reg(&mut self) -> u32 {
        let slot = self.next_slot;
        self.next_slot += 1;
        self.max_slots = self.max_slots.max(self.next_slot);
        slot
    }

    fn define_local(&mut self, name: &str) -> u32 {
        let slot = self.alloc_reg();
        let sym = self.sh.interner.intern(name);
        self.scopes
            .last_mut()
            .expect("at least one scope")
            .vars
            .push(ScopeVar { sym, slot });
        slot
    }

    /// Binds `name` to an already-claimed register (the `let` pattern:
    /// the initializer compiles with the name still invisible, so
    /// `let x = x + 1` reads the outer `x`).
    fn bind_local(&mut self, name: &str, slot: u32) {
        let sym = self.sh.interner.intern(name);
        self.scopes
            .last_mut()
            .expect("at least one scope")
            .vars
            .push(ScopeVar { sym, slot });
    }

    fn resolve(&mut self, name: &str) -> Resolved {
        let sym = self.sh.interner.intern(name);
        for scope in self.scopes.iter().rev() {
            for v in scope.vars.iter().rev() {
                if v.sym == sym {
                    return Resolved::Local(v.slot);
                }
            }
        }
        Resolved::Global(self.sh.globals.ensure(sym))
    }

    /// Emits `ClearLast` after an assignment-like statement when the
    /// nulling is observable: never needed inside a loop (every loop
    /// exit clears it) or when the register is already statically null.
    fn maybe_clear_last(&mut self, line: usize) {
        if self.loops.is_empty() && !self.last_clean {
            self.emit_pure(ROp::ClearLast, line);
            self.last_clean = true;
        }
    }

    /// Whether an expression is a deferrable operand: a constant fold,
    /// a local, or a proven-defined global — all pure, effect-free
    /// reads.
    fn is_simple(&mut self, e: &Expr) -> bool {
        if fold(e).is_some() {
            return true;
        }
        if let ExprKind::Var(name) = &e.kind {
            return match self.resolve(name) {
                Resolved::Local(_) => true,
                Resolved::Global(g) => self.defined.contains(&g),
            };
        }
        false
    }

    /// Compiles an expression to a packed operand, charging its bumps.
    /// Simple expressions defer to a direct packed read;
    /// `defer_global` gates the proven-global case per the module-doc
    /// deferral rule. Anything else lands in a fresh temporary
    /// register (scoped to the caller's watermark).
    fn operand(&mut self, e: &Expr, defer_global: bool) -> u32 {
        if let Some(v) = fold(e) {
            self.fold_steps(e);
            let id = self.const_id(v);
            return pack_operand(OPERAND_CONST, id);
        }
        if let ExprKind::Var(name) = &e.kind {
            match self.resolve(name) {
                Resolved::Local(slot) => {
                    self.bump(e.line);
                    return pack_operand(OPERAND_LOCAL, slot);
                }
                Resolved::Global(g) if defer_global && self.defined.contains(&g) => {
                    self.bump(e.line);
                    return pack_operand(OPERAND_GLOBAL, g);
                }
                _ => {}
            }
        }
        let t = self.alloc_reg();
        self.expr_into(e, t);
        pack_operand(OPERAND_LOCAL, t)
    }

    /// Charges the pre-order bumps of a folded constant subtree.
    fn fold_steps(&mut self, e: &Expr) {
        self.bump(e.line);
        match &e.kind {
            ExprKind::Unary(_, inner) => self.fold_steps(inner),
            ExprKind::Binary(_, lhs, rhs) => {
                self.fold_steps(lhs);
                self.fold_steps(rhs);
            }
            _ => {}
        }
    }

    /// Compiles an expression so its value ends up in register `dst`.
    /// Only the final op of each form writes `dst` (so `x = <expr>` can
    /// target `x` directly even when `<expr>` reads `x`), except
    /// `&&`/`||`, which stage their left operand in `dst` — assignment
    /// routes those through a temporary.
    fn expr_into(&mut self, e: &Expr, dst: u32) {
        if let Some(v) = fold(e) {
            self.fold_steps(e);
            let id = self.const_id(v);
            self.emit_pure(ROp::LoadConst { dst, id }, e.line);
            return;
        }
        self.bump(e.line);
        match &e.kind {
            // Literals are always folded above; kept for robustness.
            ExprKind::Null => {
                let id = self.const_id(Value::Null);
                self.emit_pure(ROp::LoadConst { dst, id }, e.line);
            }
            ExprKind::Bool(b) => {
                let id = self.const_id(Value::Bool(*b));
                self.emit_pure(ROp::LoadConst { dst, id }, e.line);
            }
            ExprKind::Num(n) => {
                let id = self.const_id(Value::Num(*n));
                self.emit_pure(ROp::LoadConst { dst, id }, e.line);
            }
            ExprKind::Str(s) => {
                let id = self.const_id(Value::from(s.as_str()));
                self.emit_pure(ROp::LoadConst { dst, id }, e.line);
            }
            ExprKind::Var(name) => match self.resolve(name) {
                Resolved::Local(slot) => {
                    if slot != dst {
                        self.emit_pure(ROp::Copy { dst, src: slot }, e.line);
                    }
                }
                Resolved::Global(g) if self.defined.contains(&g) => {
                    self.emit_pure(ROp::LoadGlobalFast { dst, g }, e.line)
                }
                Resolved::Global(g) => self.emit(ROp::LoadGlobal { dst, g }, e.line),
            },
            ExprKind::List(items) => {
                let mark = self.next_slot;
                let base = self.next_slot;
                for _ in items {
                    self.alloc_reg();
                }
                for (i, item) in items.iter().enumerate() {
                    self.expr_into(item, base + i as u32);
                }
                self.emit(
                    ROp::MakeList {
                        dst,
                        base,
                        n: items.len() as u32,
                    },
                    e.line,
                );
                self.next_slot = mark;
            }
            ExprKind::Map(pairs) => {
                let mark = self.next_slot;
                let base = self.next_slot;
                for _ in 0..2 * pairs.len() {
                    self.alloc_reg();
                }
                for (i, (k, v)) in pairs.iter().enumerate() {
                    let id = self.const_id(Value::from(k.as_str()));
                    self.emit_pure(
                        ROp::LoadConst {
                            dst: base + 2 * i as u32,
                            id,
                        },
                        e.line,
                    );
                    self.expr_into(v, base + 2 * i as u32 + 1);
                }
                self.emit(
                    ROp::MakeMap {
                        dst,
                        base,
                        n: pairs.len() as u32,
                    },
                    e.line,
                );
                self.next_slot = mark;
            }
            ExprKind::Unary(op, inner) => {
                let mark = self.next_slot;
                let src = self.operand(inner, true);
                match op {
                    UnOp::Neg => self.emit(ROp::Neg { dst, src }, e.line),
                    UnOp::Not => self.emit(ROp::Not { dst, src }, e.line),
                }
                self.next_slot = mark;
            }
            ExprKind::Binary(BinOp::And, lhs, rhs) => {
                self.expr_into(lhs, dst);
                let j = self.emit_patch(ROp::AndJump { dst, target: PATCH }, e.line);
                self.expr_into(rhs, dst);
                self.emit(
                    ROp::Bool {
                        dst,
                        src: pack_operand(OPERAND_LOCAL, dst),
                    },
                    e.line,
                );
                let end = self.here();
                self.patch(j, end);
            }
            ExprKind::Binary(BinOp::Or, lhs, rhs) => {
                self.expr_into(lhs, dst);
                let j = self.emit_patch(ROp::OrJump { dst, target: PATCH }, e.line);
                self.expr_into(rhs, dst);
                self.emit(
                    ROp::Bool {
                        dst,
                        src: pack_operand(OPERAND_LOCAL, dst),
                    },
                    e.line,
                );
                let end = self.here();
                self.patch(j, end);
            }
            ExprKind::Binary(op, lhs, rhs) => {
                let mark = self.next_slot;
                let defer_lhs_global = self.is_simple(rhs);
                let l = self.operand(lhs, defer_lhs_global);
                let r = self.operand(rhs, true);
                let (n, meta) = self.take_charges();
                let rop = match op {
                    BinOp::Add => Some(Arith::Add),
                    BinOp::Sub => Some(Arith::Sub),
                    BinOp::Mul => Some(Arith::Mul),
                    BinOp::Div => Some(Arith::Div),
                    BinOp::Rem => Some(Arith::Rem),
                    _ => None,
                };
                match rop {
                    Some(arith) => self.emit_pure(
                        ROp::Bin {
                            op: arith,
                            dst: pack_operand(OPERAND_LOCAL, dst),
                            lhs: l,
                            rhs: r,
                            n,
                            meta,
                        },
                        e.line,
                    ),
                    None => {
                        let cmp = match op {
                            BinOp::Eq => Cmp::Eq,
                            BinOp::Ne => Cmp::Ne,
                            BinOp::Lt => Cmp::Lt,
                            BinOp::Le => Cmp::Le,
                            BinOp::Gt => Cmp::Gt,
                            BinOp::Ge => Cmp::Ge,
                            _ => unreachable!("and/or handled above"),
                        };
                        self.emit_pure(
                            ROp::CmpSet {
                                cmp,
                                dst,
                                lhs: l,
                                rhs: r,
                                n,
                                meta,
                            },
                            e.line,
                        )
                    }
                }
                self.next_slot = mark;
            }
            ExprKind::Call(name, args) => {
                let mark = self.next_slot;
                let base = self.next_slot;
                for _ in args {
                    self.alloc_reg();
                }
                for (i, a) in args.iter().enumerate() {
                    self.expr_into(a, base + i as u32);
                }
                let argc = args.len() as u32;
                // Builtins shadow user and host functions by name, as
                // in the tree-walker's resolution order.
                let op = match Builtin::from_name(name) {
                    Some(builtin) => ROp::CallBuiltin {
                        builtin,
                        dst,
                        base,
                        argc,
                    },
                    None => {
                        let sym = self.sh.interner.intern(name);
                        let fn_id = self.sh.fns.ensure(sym);
                        ROp::CallFn {
                            fn_id,
                            dst,
                            base,
                            argc,
                        }
                    }
                };
                self.emit(op, e.line);
                self.next_slot = mark;
            }
            ExprKind::Index(base, index) => {
                let mark = self.next_slot;
                let defer_base_global = self.is_simple(index);
                let b = self.operand(base, defer_base_global);
                let i = self.operand(index, true);
                self.emit(
                    ROp::Index {
                        dst,
                        base: b,
                        idx: i,
                    },
                    e.line,
                );
                self.next_slot = mark;
            }
            ExprKind::ParForEach(var, iter, body) => {
                let mark = self.next_slot;
                let src = self.operand(iter, true);
                // The body compiles exactly like a one-parameter
                // function: its own proto, the loop variable as
                // register 0, `is_main` false so body-level `let`s stay
                // local. Global writes are rejected at runtime by the
                // VM's sweep-mode checks, which also cover functions
                // *called* from the body.
                let proto = rcompile_proto(self.sh, std::slice::from_ref(var), body, false);
                let d = self.defs.len() as u32;
                self.defs.push(proto);
                self.emit(ROp::ParForEach { dst, src, def: d }, e.line);
                self.next_slot = mark;
            }
        }
    }

    /// Compiles a condition and emits the branch taken when it
    /// evaluates to `when`, fusing a top-level comparison into a single
    /// [`ROp::CmpJump`]. Returns the branch's address for patching
    /// (the target passed here may be `PATCH`).
    fn cond_jump(&mut self, cond: &Expr, when: bool, target: u32, line: usize) -> usize {
        if fold(cond).is_none() {
            if let ExprKind::Binary(bop, l, r) = &cond.kind {
                let cmp = match bop {
                    BinOp::Eq => Some(Cmp::Eq),
                    BinOp::Ne => Some(Cmp::Ne),
                    BinOp::Lt => Some(Cmp::Lt),
                    BinOp::Le => Some(Cmp::Le),
                    BinOp::Gt => Some(Cmp::Gt),
                    BinOp::Ge => Some(Cmp::Ge),
                    _ => None,
                };
                if let Some(cmp) = cmp {
                    let mark = self.next_slot;
                    self.bump(cond.line);
                    let defer_lhs_global = self.is_simple(r);
                    let lhs = self.operand(l, defer_lhs_global);
                    let rhs = self.operand(r, true);
                    let (n, meta) = self.take_charges();
                    self.emit_pure(
                        ROp::CmpJump {
                            cmp,
                            lhs,
                            rhs,
                            target,
                            when,
                            n,
                            meta,
                        },
                        cond.line,
                    );
                    self.next_slot = mark;
                    return self.code.len() - 1;
                }
            }
        }
        let mark = self.next_slot;
        let src = self.operand(cond, true);
        let op = if when {
            ROp::JumpIfTrue { src, target }
        } else {
            ROp::JumpIfFalse { src, target }
        };
        let at = self.emit_patch(op, line);
        self.next_slot = mark;
        at
    }

    /// Compiles a `{ ... }` block: fresh scope, statements, and a
    /// `ClearLast` when empty (an empty block's value is `null`).
    fn block(&mut self, body: &[Stmt], line: usize) {
        if body.is_empty() {
            self.emit(ROp::ClearLast, line);
            self.last_clean = true;
            return;
        }
        self.open_scope();
        for s in body {
            self.stmt(s);
        }
        self.close_scope();
    }

    fn stmt(&mut self, s: &Stmt) {
        if self.scopes.len() == 1 {
            self.toplevel_line = s.line as u32;
        }
        self.bump(s.line);
        match &s.kind {
            StmtKind::Let(name, e) => {
                if self.is_main && self.scopes.len() == 1 {
                    // Top-level `let` defines (or redefines) a global.
                    let mark = self.next_slot;
                    let src = self.operand(e, true);
                    let sym = self.sh.interner.intern(name);
                    let g = self.sh.globals.ensure(sym);
                    self.emit(ROp::DefineGlobal { g, src }, s.line);
                    self.next_slot = mark;
                    self.defined.insert(g);
                } else {
                    // Claim the register first, bind the name after the
                    // initializer: `let x = x + 1` reads the outer `x`.
                    let slot = self.alloc_reg();
                    self.expr_into(e, slot);
                    self.bind_local(name, slot);
                }
                self.maybe_clear_last(s.line);
            }
            StmtKind::Assign(name, e) => {
                match self.resolve(name) {
                    Resolved::Local(slot) => {
                        if matches!(
                            e.kind,
                            ExprKind::Binary(BinOp::And, ..) | ExprKind::Binary(BinOp::Or, ..)
                        ) {
                            // `&&`/`||` stage their left operand in the
                            // destination, which would clobber `slot`
                            // before the right operand can read it.
                            let mark = self.next_slot;
                            let t = self.alloc_reg();
                            self.expr_into(e, t);
                            self.emit_pure(ROp::Copy { dst: slot, src: t }, s.line);
                            self.next_slot = mark;
                        } else {
                            self.expr_into(e, slot);
                        }
                    }
                    Resolved::Global(g) if self.defined.contains(&g) => {
                        if !self.fused_global_bin(g, e) {
                            let mark = self.next_slot;
                            let src = self.operand(e, true);
                            self.emit(ROp::StoreGlobalFast { g, src }, s.line);
                            self.next_slot = mark;
                        }
                    }
                    Resolved::Global(g) => {
                        let mark = self.next_slot;
                        let src = self.operand(e, true);
                        self.emit(ROp::StoreGlobal { g, src }, s.line);
                        self.next_slot = mark;
                    }
                }
                self.maybe_clear_last(s.line);
            }
            StmtKind::IndexAssign(base, index, e) => {
                // Value then index, matching the tree-walker's order,
                // so their errors (and bumps) precede the base check.
                let mark = self.next_slot;
                let defer_value_global = self.is_simple(index);
                let v = self.operand(e, defer_value_global);
                let i = self.operand(index, true);
                let op = match &base.kind {
                    ExprKind::Var(name) => match self.resolve(name) {
                        Resolved::Local(slot) => ROp::IndexSetLocal {
                            reg: slot,
                            idx: i,
                            src: v,
                        },
                        Resolved::Global(g) => ROp::IndexSetGlobal { g, idx: i, src: v },
                    },
                    _ => ROp::FailIndexBase,
                };
                self.emit(op, s.line);
                self.next_slot = mark;
                self.maybe_clear_last(s.line);
            }
            StmtKind::Expr(e) => {
                let mark = self.next_slot;
                let src = self.operand(e, true);
                self.emit_pure(ROp::SetLast { src }, s.line);
                self.next_slot = mark;
                self.last_clean = false;
            }
            StmtKind::If(cond, then_block, else_block) => {
                let jf = self.cond_jump(cond, false, PATCH, s.line);
                self.block(then_block, s.line);
                let jend = self.emit_patch(ROp::Jump { target: PATCH }, s.line);
                let l_else = self.here();
                self.patch(jf, l_else);
                match else_block {
                    Some(eb) => self.block(eb, s.line),
                    None => {
                        self.emit(ROp::ClearLast, s.line);
                        self.last_clean = true;
                    }
                }
                let l_end = self.here();
                self.patch(jend, l_end);
            }
            StmtKind::While(cond, body) => {
                // Rotated: jump to the check, body above it, one
                // conditional back-edge per iteration.
                let j_entry = self.emit_patch(ROp::Jump { target: PATCH }, s.line);
                let l_body = self.here();
                // The tree-walker charges one step per iteration after
                // the condition proves truthy.
                self.bump(s.line);
                self.loops.push(LoopCtx {
                    cont_target: None,
                    breaks: Vec::new(),
                    continues: Vec::new(),
                });
                self.open_scope();
                for st in body {
                    self.stmt(st);
                }
                self.close_scope();
                let l_check = self.here();
                self.patch(j_entry, l_check);
                let ctx_continues: Vec<usize> = {
                    let ctx = self.loops.last_mut().expect("loop ctx");
                    std::mem::take(&mut ctx.continues)
                };
                for c in ctx_continues {
                    self.patch(c, l_check);
                }
                self.cond_jump(cond, true, l_body as u32, s.line);
                let ctx = self.loops.pop().expect("loop ctx");
                let l_exit = self.here();
                for b in ctx.breaks {
                    self.patch(b, l_exit);
                }
                self.emit(ROp::ClearLast, s.line);
                self.last_clean = true;
            }
            StmtKind::For(var, iter, body) => {
                let mark = self.next_slot;
                let src = self.operand(iter, true);
                self.emit(ROp::ForPrep { src }, s.line);
                self.next_slot = mark;
                // The loop variable and the body share one
                // per-iteration scope, exactly like the tree-walker's.
                self.open_scope();
                let slot = self.define_local(var);
                let l_next = self.here();
                let fornext = self.emit_patch(ROp::ForNext { slot, exit: PATCH }, s.line);
                self.bump(s.line);
                self.loops.push(LoopCtx {
                    cont_target: Some(l_next),
                    breaks: Vec::new(),
                    continues: Vec::new(),
                });
                for st in body {
                    self.stmt(st);
                }
                self.emit(
                    ROp::Jump {
                        target: l_next as u32,
                    },
                    s.line,
                );
                self.close_scope();
                let ctx = self.loops.pop().expect("loop ctx");
                let l_brk = self.here();
                self.emit(ROp::PopIter, s.line);
                for b in ctx.breaks {
                    self.patch(b, l_brk);
                }
                let l_exit = self.here();
                self.patch(fornext, l_exit);
                self.emit(ROp::ClearLast, s.line);
                self.last_clean = true;
            }
            StmtKind::FnDef(def) => {
                let sym = self.sh.interner.intern(&def.name);
                let fn_id = self.sh.fns.ensure(sym);
                let proto = rcompile_proto(self.sh, &def.params, &def.body, false);
                let d = self.defs.len() as u32;
                self.defs.push(proto);
                self.emit(ROp::DefineFn { fn_id, def: d }, s.line);
                self.maybe_clear_last(s.line);
            }
            StmtKind::Return(e) => {
                let mark = self.next_slot;
                let src = match e {
                    Some(e) => self.operand(e, true),
                    None => {
                        let id = self.const_id(Value::Null);
                        pack_operand(OPERAND_CONST, id)
                    }
                };
                self.emit(ROp::Return { src }, s.line);
                self.next_slot = mark;
            }
            StmtKind::Break => match self.loops.last_mut() {
                Some(_) => {
                    let j = self.emit_patch(ROp::Jump { target: PATCH }, s.line);
                    self.loops.last_mut().expect("loop ctx").breaks.push(j);
                }
                None => {
                    let line = self.toplevel_line as usize;
                    self.emit(ROp::FailLoopFlow, line);
                }
            },
            StmtKind::Continue => match self.loops.last() {
                Some(ctx) => match ctx.cont_target {
                    Some(t) => {
                        self.emit(ROp::Jump { target: t as u32 }, s.line);
                    }
                    None => {
                        let j = self.emit_patch(ROp::Jump { target: PATCH }, s.line);
                        self.loops.last_mut().expect("loop ctx").continues.push(j);
                    }
                },
                None => {
                    let line = self.toplevel_line as usize;
                    self.emit(ROp::FailLoopFlow, line);
                }
            },
        }
    }

    /// Compiles `g = lhs op rhs` (proven-defined `g`) into a single
    /// [`ROp::Bin`] with a global destination when both operands are
    /// deferrable. Returns `false` (emitting nothing) otherwise.
    fn fused_global_bin(&mut self, g: u32, e: &Expr) -> bool {
        if fold(e).is_some() {
            return false;
        }
        let ExprKind::Binary(bop, l, r) = &e.kind else {
            return false;
        };
        let op = match bop {
            BinOp::Add => Arith::Add,
            BinOp::Sub => Arith::Sub,
            BinOp::Mul => Arith::Mul,
            BinOp::Div => Arith::Div,
            BinOp::Rem => Arith::Rem,
            _ => return false,
        };
        // Both operands must defer outright (no temp spills): the op
        // itself is the only code, so a spilled operand would evaluate
        // before the bump of `e` — breaking charge order.
        let both_simple = {
            let ls = self.is_simple(l);
            let rs = self.is_simple(r);
            ls && rs
        };
        if !both_simple {
            return false;
        }
        self.bump(e.line);
        let lhs = self.operand(l, true);
        let rhs = self.operand(r, true);
        let (n, meta) = self.take_charges();
        self.emit_pure(
            ROp::Bin {
                op,
                dst: pack_operand(OPERAND_GLOBAL, g),
                lhs,
                rhs,
                n,
                meta,
            },
            e.line,
        );
        true
    }
}
