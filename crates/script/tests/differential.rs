//! Differential tests: the register VM against the tree-walking
//! reference interpreter.
//!
//! `script::Interpreter` (the register VM) must be observably identical
//! to `script::reference::Interpreter` — same result values (compared
//! bitwise, so a `NaN` produced by both engines counts as agreement),
//! same printed output, same error line/phase/message, and same step
//! counts (including the exact step at which a budget is exhausted).
//! These tests generate random programs over the whole statement
//! surface (arithmetic, nested functions, recursion, loops with
//! `break`/`continue`, host calls, `par_foreach_trial` sweeps, runtime
//! errors) and assert the two engines agree; fixed cases pin the
//! known semantic corners.

use proptest::prelude::*;
use proptest::test_runner::{Rng, SeedableRng, StdRng, TestCaseError};
use script::{reference, Interpreter, Value};

/// Registers the same host functions on both engines: an identity
/// function, a summing function that rejects non-numbers, one that
/// always fails, and a handle constructor.
macro_rules! register_hosts {
    ($interp:expr) => {{
        $interp.register("h_id", |args: &mut Vec<Value>| {
            Ok(args.pop().unwrap_or(Value::Null))
        });
        $interp.register("h_add", |args: &mut Vec<Value>| {
            let mut total = 0.0;
            for a in args.iter() {
                total += a.as_num().ok_or("not a number")?;
            }
            Ok(Value::Num(total))
        });
        $interp.register("h_fail", |_args: &mut Vec<Value>| {
            Err::<Value, String>("boom".into())
        });
        $interp.register("h_mk", |args: &mut Vec<Value>| {
            let id = args.first().and_then(Value::as_num).unwrap_or(0.0);
            Ok(Value::Handle {
                tag: "t".into(),
                id: id.abs() as u64,
            })
        });
    }};
}

/// Result agreement: values bitwise (NaN == NaN, 0.0 != -0.0), errors
/// structurally.
fn results_match(a: &script::Result<Value>, b: &script::Result<Value>) -> bool {
    match (a, b) {
        (Ok(x), Ok(y)) => x.bitwise_eq(y),
        (Err(x), Err(y)) => x == y,
        _ => false,
    }
}

/// Runs `sources` in order on both engines (one persistent interpreter
/// per engine, so globals/functions survive across the runs) and
/// asserts every observable agrees after each run. The VM runs each
/// source twice over: once with `run`, and once compiled on one
/// interpreter and replayed with `run_compiled` on a second one
/// registered the same way (the path a shared compiled program takes
/// across a worker pool).
fn assert_engines_agree_depth(
    sources: &[&str],
    limit: u64,
    depth: usize,
) -> Result<(), TestCaseError> {
    let mut vm = Interpreter::new()
        .with_step_limit(limit)
        .with_call_depth_limit(depth);
    register_hosts!(vm);
    let mut compiler = Interpreter::new();
    register_hosts!(compiler);
    let mut replay = Interpreter::new()
        .with_step_limit(limit)
        .with_call_depth_limit(depth);
    register_hosts!(replay);
    let mut tree = reference::Interpreter::new()
        .with_step_limit(limit)
        .with_call_depth_limit(depth);
    register_hosts!(tree);
    for (i, src) in sources.iter().enumerate() {
        let tree_result = tree.run(src);
        let tree_out = tree.take_output();
        let vm_result = vm.run(src);
        prop_assert!(
            results_match(&vm_result, &tree_result),
            "result mismatch on run {i} (limit {limit}) of:\n{src}\n  vm:   {vm_result:?}\n  tree: {tree_result:?}"
        );
        let vm_out = vm.take_output();
        prop_assert!(
            vm_out == tree_out,
            "output mismatch on run {i} (limit {limit}) of:\n{src}\n  vm:   {vm_out:?}\n  tree: {tree_out:?}"
        );
        prop_assert!(
            vm.steps() == tree.steps(),
            "step-count mismatch on run {i} (limit {limit}) of:\n{src}\n  vm:   {}\n  tree: {}",
            vm.steps(),
            tree.steps()
        );
        let replay_result = compiler
            .compile(src)
            .and_then(|program| replay.run_compiled(&program));
        prop_assert!(
            results_match(&replay_result, &tree_result),
            "compiled-replay result mismatch on run {i} (limit {limit}) of:\n{src}\n  replay: {replay_result:?}\n  tree:   {tree_result:?}"
        );
        let replay_out = replay.take_output();
        prop_assert!(
            replay_out == tree_out,
            "compiled-replay output mismatch on run {i} (limit {limit}) of:\n{src}\n  replay: {replay_out:?}\n  tree:   {tree_out:?}"
        );
        prop_assert!(
            replay.steps() == tree.steps(),
            "compiled-replay step-count mismatch on run {i} (limit {limit}) of:\n{src}\n  replay: {}\n  tree:   {}",
            replay.steps(),
            tree.steps()
        );
    }
    Ok(())
}

fn assert_engines_agree(sources: &[&str], limit: u64) -> Result<(), TestCaseError> {
    // The depth limit stays small enough that the reference engine
    // (which recurses on the native stack) is safe under proptest.
    assert_engines_agree_depth(sources, limit, 64)
}

fn check(src: &str) {
    assert_engines_agree(&[src], 3_000).unwrap();
}

// ---------------------------------------------------------------------
// Random-program generation. The generator emits *source text* so all
// engines see the exact same program (and the same line numbers — each
// statement is rendered on its own line). Programs may be statically
// doomed (`break` outside a loop, undefined variables, bad operand
// types): error parity is part of the contract.
// ---------------------------------------------------------------------

const VARS: &[&str] = &["a", "b", "c", "d"];
const CALLEES: &[&str] = &[
    "len", "str", "num", "sum", "range", "push", "min", "max", "sort", "abs", "f", "g", "h_id",
    "h_add", "h_fail", "h_mk",
];
const BIN_OPS: &[&str] = &[
    "+", "-", "*", "/", "%", "==", "!=", "<", "<=", ">", ">=", "&&", "||",
];

fn pick<'x>(rng: &mut StdRng, options: &[&'x str]) -> &'x str {
    options[rng.random_range(0..options.len())]
}

fn gen_expr(rng: &mut StdRng, depth: u32) -> String {
    if depth == 0 || rng.random_range(0u32..100) < 35 {
        return match rng.random_range(0u32..8) {
            0 | 1 => rng.random_range(-100i64..100).to_string(),
            2 => format!(
                "{}.{}",
                rng.random_range(0i64..10),
                rng.random_range(1u32..10)
            ),
            3 => pick(rng, &["true", "false", "null"]).to_string(),
            4 => {
                let n = rng.random_range(0usize..4);
                let s: String = (0..n)
                    .map(|_| char::from(b'a' + rng.random_range(0u32..26) as u8))
                    .collect();
                format!("\"{s}\"")
            }
            _ => pick(rng, VARS).to_string(),
        };
    }
    match rng.random_range(0u32..10) {
        0..=3 => format!(
            "({} {} {})",
            gen_expr(rng, depth - 1),
            pick(rng, BIN_OPS),
            gen_expr(rng, depth - 1)
        ),
        4 => format!("(-{})", gen_expr(rng, depth - 1)),
        5 => format!("!{}", gen_expr(rng, depth - 1)),
        6 | 7 => {
            let name = pick(rng, CALLEES);
            let argc = rng.random_range(0usize..3);
            let args: Vec<String> = (0..argc).map(|_| gen_expr(rng, depth - 1)).collect();
            format!("{name}({})", args.join(", "))
        }
        8 => format!("{}[{}]", gen_expr(rng, depth - 1), gen_expr(rng, depth - 1)),
        _ => {
            if rng.random_range(0u32..2) == 0 {
                let n = rng.random_range(0usize..3);
                let items: Vec<String> = (0..n).map(|_| gen_expr(rng, depth - 1)).collect();
                format!("[{}]", items.join(", "))
            } else {
                format!(
                    "{{ {}: {} }}",
                    pick(rng, &["x", "y", "z"]),
                    gen_expr(rng, depth - 1)
                )
            }
        }
    }
}

fn gen_block(rng: &mut StdRng, depth: u32) -> String {
    let n = rng.random_range(1usize..4);
    let stmts: Vec<String> = (0..n).map(|_| gen_stmt(rng, depth)).collect();
    stmts.join("\n")
}

fn gen_stmt(rng: &mut StdRng, depth: u32) -> String {
    if depth > 0 && rng.random_range(0u32..100) < 40 {
        return match rng.random_range(0u32..7) {
            0 => format!(
                "if {} {{\n{}\n}}",
                gen_expr(rng, 2),
                gen_block(rng, depth - 1)
            ),
            1 => format!(
                "if {} {{\n{}\n}} else {{\n{}\n}}",
                gen_expr(rng, 2),
                gen_block(rng, depth - 1),
                gen_block(rng, depth - 1)
            ),
            2 => format!(
                "for {} in range({}) {{\n{}\n}}",
                pick(rng, VARS),
                rng.random_range(0u32..5),
                gen_block(rng, depth - 1)
            ),
            3 => format!(
                "for {} in {} {{\n{}\n}}",
                pick(rng, VARS),
                gen_expr(rng, 2),
                gen_block(rng, depth - 1)
            ),
            4 => format!(
                "while {} {{\n{}\n}}",
                gen_expr(rng, 2),
                gen_block(rng, depth - 1)
            ),
            5 => format!(
                "fn {}({}) {{\n{}\n}}",
                pick(rng, &["f", "g"]),
                pick(rng, VARS),
                gen_block(rng, depth - 1)
            ),
            // Sweeps: the body sees its trial variable and may touch
            // globals (reads are fine; writes must error identically).
            _ => format!(
                "let {} = par_foreach_trial {} in {} {{\n{}\n}};",
                pick(rng, VARS),
                pick(rng, VARS),
                gen_expr(rng, 2),
                gen_block(rng, depth - 1)
            ),
        };
    }
    match rng.random_range(0u32..10) {
        0 | 1 => format!("let {} = {};", pick(rng, VARS), gen_expr(rng, 3)),
        2 | 3 => format!("{} = {};", pick(rng, VARS), gen_expr(rng, 3)),
        4 => format!(
            "{}[{}] = {};",
            pick(rng, VARS),
            gen_expr(rng, 2),
            gen_expr(rng, 2)
        ),
        5 | 6 => format!("{};", gen_expr(rng, 3)),
        7 => format!("print({});", gen_expr(rng, 2)),
        8 => pick(rng, &["break;", "continue;"]).to_string(),
        _ => format!("return {};", gen_expr(rng, 2)),
    }
}

fn gen_program(rng: &mut StdRng) -> String {
    let n = rng.random_range(1usize..8);
    let stmts: Vec<String> = (0..n).map(|_| gen_stmt(rng, 2)).collect();
    stmts.join("\n")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    /// The core differential property: for arbitrary generated
    /// programs, the VM and the reference agree on result, output,
    /// and step count (including error cases).
    #[test]
    fn vms_match_reference(seed in 0u64..u64::MAX) {
        let mut rng = StdRng::seed_from_u64(seed);
        let src = gen_program(&mut rng);
        assert_engines_agree(&[src.as_str()], 3_000)?;
    }

    /// Persistent-state parity: programs run back-to-back on the same
    /// interpreter set, sharing globals and function definitions. The
    /// third run repeats the first source, exercising the VM's
    /// compilation cache against re-walking the tree.
    #[test]
    fn vms_match_reference_across_runs(seed in 0u64..u64::MAX) {
        let mut rng = StdRng::seed_from_u64(seed);
        let first = gen_program(&mut rng);
        let second = gen_program(&mut rng);
        assert_engines_agree(&[first.as_str(), second.as_str(), first.as_str()], 2_000)?;
    }

    /// Step-limit parity: with tight budgets, both engines exhaust the
    /// budget after the same number of steps and report the same error
    /// (line included). This covers the VM's merged step accounting.
    #[test]
    fn step_exhaustion_parity(seed in 0u64..u64::MAX, limit in 1u64..300) {
        let mut rng = StdRng::seed_from_u64(seed);
        let src = gen_program(&mut rng);
        assert_engines_agree(&[src.as_str()], limit)?;
    }

    /// A known-hot loop shape under a varying budget: the budget can
    /// run out at the condition, the per-iteration charge, or any
    /// statement in the body, and the engines must agree on where.
    #[test]
    fn loop_exhaustion_parity(limit in 1u64..200) {
        let src = "let t = 0;\nlet i = 0;\nwhile i < 50 {\n i = i + 1;\n if i % 3 == 0 { continue; }\n t = t + i;\n}\nt";
        assert_engines_agree(&[src], limit)?;
    }

    /// Sweep step budgets: each body draws on the remaining budget
    /// independently, so where the budget lands (before the sweep, mid
    /// body, after) must agree across engines, as must the outcome maps
    /// recording per-body exhaustion.
    #[test]
    fn sweep_exhaustion_parity(limit in 1u64..300) {
        let src = "let r = par_foreach_trial t in range(5) {\n let s = 0;\n for i in range(10) {\n  s = s + i * t;\n }\n s\n};\nlen(r)";
        assert_engines_agree(&[src], limit)?;
    }

    /// Call-depth parity at a limit small enough for the reference
    /// engine's native stack: both engines stop the same recursion at
    /// the same depth with the same error.
    #[test]
    fn depth_exhaustion_parity(depth in 1usize..48) {
        let src = "fn f(n) { if n < 1 { return 0; } return f(n - 1) + 1; } f(100)";
        assert_engines_agree_depth(&[src], 100_000, depth)?;
    }
}

// ---------------------------------------------------------------------
// Fixed differential cases for the semantic corners the generator may
// only rarely hit.
// ---------------------------------------------------------------------

#[test]
fn differential_recursion_and_function_values() {
    check("fn fib(n) { if n < 2 { return n; } return fib(n-1) + fib(n-2); } fib(12)");
    // Fall-off-the-end returns the last statement value.
    check("fn f(x) { x * 2; } f(21)");
    check("fn f(x) { let y = x; } f(1)");
    // Redefinition: the latest definition wins from then on.
    check("fn f(x) { return 1; } let a = f(0); fn f(x) { return 2; } a + f(0)");
}

#[test]
fn differential_loop_flow() {
    check("let t = 0;\nlet i = 0;\nwhile true {\n i = i + 1;\n if i > 10 { break; }\n if i % 2 == 0 { continue; }\n t = t + i;\n}\nt");
    check("let t = 0; for x in [1, 2, 3, 4] { if x == 3 { break; } t = t + x; } t");
    check("let ks = \"\"; for k in { b: 1, a: 2 } { ks = ks + k; } ks");
    // break/continue outside any loop: error at the enclosing
    // top-level statement.
    check("break;");
    check("let a = 1;\nif a { continue; }");
    check("fn f(x) { if x { break; } } f(1)");
    // Return from inside nested loops unwinds open iterators.
    check("fn f(x) { for i in [1, 2] { for j in [3, 4] { return i + j; } } } f(0)");
    // continue in a while loop still charges the iteration and
    // re-evaluates the condition (rotated-loop back edge).
    check("let i = 0;\nlet n = 0;\nwhile i < 6 {\n i = i + 1;\n if i % 2 == 0 { continue; }\n n = n + 10;\n}\nn");
}

#[test]
fn differential_indexing_quirks() {
    // List read: negative and fractional indices are range errors.
    check("[1, 2][-1]");
    check("[1, 2][0.5]");
    // List write: no negative check — the cast saturates to 0.
    check("let a = [1, 2]; a[-1] = 9; a[0]");
    check("let a = [1, 2]; a[0.5] = 9;");
    // String read: no fractional/negative check — the cast truncates.
    check("\"abc\"[1.5]");
    check("\"abc\"[-1]");
    check("\"abc\"[5]");
    // Index assignment needs a variable base; operands still evaluate
    // first (so their errors and steps come first).
    check("[1, 2][0] = 5;");
    check("[1, 2][0] = h_fail();");
    check("m[\"k\"] = 1;");
}

#[test]
fn differential_host_functions() {
    check("h_id(42)");
    check("h_add(1, 2, 3)");
    check("h_add(1, \"x\")");
    check("h_fail()");
    check("let h = h_mk(7); h_id(h)");
    check("print(h_mk(3));");
    // Arguments evaluate before the unknown-function error.
    check("nope(h_fail())");
    check("nope(1, 2)");
}

#[test]
fn differential_scope_rules() {
    check("let x = 1; { let x = 2; x = 3; } x");
    check("let x = 1; fn f(y) { return x + y; } f(10)");
    check("fn f(y) { x = y; } let x = 0; f(5); x");
    check("fn f(y) { x = y; } f(5);");
    check("let x = x;");
    check("let g = 10;\nfn f(x) { return x + g; }\nf(5);\nx");
    // Globals as deferred fused operands: the read must happen before
    // the other operand's call assigns the global.
    check("let g = 1;\nfn bump(x) { g = 99; return x; }\ng + bump(1)");
    check("let g = 1;\nfn bump(x) { g = 99; return x; }\nlet r = bump(1) + g;\nr");
    // Assignment whose right side reads the destination local.
    check("let x = 2; x = (x > 1) && x; x");
    check("let x = 0; x = x || \"v\"; x");
}

#[test]
fn differential_short_circuit_and_folding() {
    check("false && missing_var");
    check("true || missing_var");
    check("1 + 2 * 3 - (4 / 2)");
    check("1 / 0");
    check("5 % 0");
    check("-(1 + 2) + (3 * -4)");
    check("!0 && !\"\"");
}

#[test]
fn differential_step_exhaustion_fixed() {
    for limit in [1, 2, 3, 5, 10, 50, 100, 101, 102, 1000] {
        assert_engines_agree(&["while true { }"], limit).unwrap();
        assert_engines_agree(
            &["fn f(n) { if n < 1 { return 0; } return f(n - 1); } f(1000)"],
            limit,
        )
        .unwrap();
    }
}

// ---------------------------------------------------------------------
// Sweeps (par_foreach_trial) and call-depth limits.
// ---------------------------------------------------------------------

#[test]
fn differential_sweep_semantics() {
    // Outcome maps in trial order; bodies see globals and functions.
    check("let k = 10;\nfn f(x) { return x * k; }\nlet r = par_foreach_trial t in [1, 2, 3] { f(t) };\nr");
    // One failing body degrades alone; its siblings still complete.
    check("let r = par_foreach_trial t in [1, 0, 2] { 10 / t };\nlen(r)");
    check("let r = par_foreach_trial t in [1, 0, 2] { 10 / t };\nr[1]");
    // Sweep over a non-list is an error at the sweep's line.
    check("par_foreach_trial t in 42 { t }");
    check("par_foreach_trial t in \"abc\" { t }");
    // Bodies cannot write globals, define functions, or mutate global
    // containers — but local shadowing and reads are fine.
    check("let g = 1;\nlet r = par_foreach_trial t in [1] { g = t };\nr");
    check("let g = 1;\nlet r = par_foreach_trial t in [1] { let g = t; g + 1 };\nr");
    check("let g = [1, 2];\nlet r = par_foreach_trial t in [0] { g[0] = t };\nr");
    check("let r = par_foreach_trial t in [1] { fn f(x) { return x; } f(t) };\nr");
    // Writes from functions *called* by a body are banned too.
    check(
        "let g = 1;\nfn w(x) { g = x; return x; }\nlet r = par_foreach_trial t in [5] { w(t) };\nr",
    );
    // Undefined-variable errors beat the sweep-write ban.
    check("let r = par_foreach_trial t in [1] { zz = t };\nr");
    // print output from bodies is stitched in trial order.
    check("let r = par_foreach_trial t in [3, 1, 2] { print(str(t)); t };\nr");
    // Nested sweeps run inline.
    check("let r = par_foreach_trial t in [[1, 2], [3]] {\n par_foreach_trial u in t { u * 10 }\n};\nlen(r)");
    // A sweep body's host-call failure is contained in its outcome.
    check("let r = par_foreach_trial t in [1, 2] { h_fail() };\nr[0]");
    // The sweep's value is the statement value like any expression.
    check("par_foreach_trial t in [7] { t };");
}

#[test]
fn differential_sweep_budget_isolation() {
    // A runaway body exhausts only its own outcome; siblings proceed
    // with the same per-body budget. Both engines agree on the counts.
    let src =
        "let r = par_foreach_trial t in range(3) {\n if t == 1 { while true { } }\n t\n};\nlen(r)";
    for limit in [50, 100, 1000] {
        assert_engines_agree(&[src], limit).unwrap();
    }
}

#[test]
fn differential_depth_limit_fixed() {
    let rec = "fn f(n) { if n < 1 { return 0; } return f(n - 1) + 1; } f(60)";
    for depth in [1, 2, 30, 59, 60, 61] {
        assert_engines_agree_depth(&[rec], 100_000, depth).unwrap();
    }
    // Depth limits apply inside sweep bodies as well.
    let sweep = "fn f(n) { if n < 1 { return 0; } return f(n - 1) + 1; }\nlet r = par_foreach_trial t in [3, 50] { f(t) };\nr";
    for depth in [4, 10, 51] {
        assert_engines_agree_depth(&[sweep], 100_000, depth).unwrap();
    }
}

/// Recursion at the default call-depth limit. The VM's frames live on
/// the heap, but the reference recurses on the native stack, so it runs
/// on a thread with a stack large enough for 1000 frames.
#[test]
fn vm_matches_reference_on_deep_recursion_at_default_limit() {
    const UNDER: &str = "fn f(n) { if n < 1 { return 0; } return f(n - 1) + 1; } f(900)";
    // One past the default limit of 1000 frames.
    const OVER: &str = "fn f(n) { if n < 1 { return 0; } return f(n - 1) + 1; } f(1001)";
    let run_reference = || {
        let mut tree = reference::Interpreter::new().with_step_limit(1_000_000);
        [UNDER, OVER].map(|src| (tree.run(src), tree.steps()))
    };
    let [(tree_under, tree_under_steps), (tree_over, tree_over_steps)] =
        std::thread::Builder::new()
            .stack_size(256 << 20)
            .spawn(run_reference)
            .unwrap()
            .join()
            .unwrap();

    let mut vm = Interpreter::new().with_step_limit(1_000_000);
    let under = vm.run(UNDER).unwrap();
    assert!(under.bitwise_eq(&Value::Num(900.0)));
    assert!(under.bitwise_eq(&tree_under.unwrap()));
    assert_eq!(vm.steps(), tree_under_steps);

    let err = vm.run(OVER).unwrap_err();
    assert_eq!(err, tree_over.unwrap_err());
    assert_eq!(vm.steps(), tree_over_steps);
    assert!(
        err.to_string().contains("call depth limit exceeded"),
        "{err}"
    );
}

/// NaN never equals itself in the language (IEEE 754), while the
/// differential harness compares NaN results bitwise — both engines
/// producing NaN is agreement, not a mismatch.
#[test]
fn differential_nan_semantics() {
    check("let inf = 1e308 * 10; let nan = inf - inf; nan == nan");
    check("let inf = 1e308 * 10; let nan = inf - inf; nan != nan");
    check("let inf = 1e308 * 10; let nan = inf - inf; nan");
    check("let inf = 1e308 * 10; let nan = inf - inf; [nan, 1][0]");
}

// ---------------------------------------------------------------------
// Step budgets across calls and sweep bodies (fixed regressions for
// the budget-threading logic).
// ---------------------------------------------------------------------

#[test]
fn differential_step_budget_across_calls() {
    // Exhaustion inside a callee, at the call itself, and between
    // calls must agree (the charge lands on the same line).
    let src = "fn cost(n) {\n let s = 0;\n for i in range(n) {\n  s = s + i;\n }\n return s;\n}\ncost(5);\ncost(5);\ncost(5)";
    for limit in 1..200 {
        assert_engines_agree(&[src], limit).unwrap();
    }
}

#[test]
fn differential_step_budget_across_sweep_bodies() {
    // Each body draws its own copy of the remaining budget, so a limit
    // that stops one body mid-loop stops every body at the same point,
    // and the sweep's recorded total folds each body's count back in.
    let src = "let r = par_foreach_trial t in range(4) {\n let s = 0;\n for i in range(6) {\n  s = s + i;\n }\n s\n};\nr";
    for limit in 1..160 {
        assert_engines_agree(&[src], limit).unwrap();
    }
}
