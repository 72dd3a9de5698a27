//! Value semantics of shared lists and maps, as a table of literal
//! expectations.
//!
//! Lists and maps are shared between variables until one of them is
//! written (`x[i] = v` copies a shared container first). Every row
//! shares a container in one way — another local, a user-function
//! parameter, a global, a `par_foreach_trial` body, an open `for` loop
//! — then writes through the copy and returns both sides. The expected
//! result is spelled out, not taken from the other engine, so a sharing
//! bug present in the register VM and in `script::reference` alike
//! still fails here.

use script::{reference, Interpreter, ParRunner, Value};
use std::sync::Arc;

const CASES: &[(&str, &str, &str)] = &[
    (
        "list copied to another local",
        "let a = [1, 2, 3]; let b = a; b[0] = 9; [a, b]",
        "[[1, 2, 3], [9, 2, 3]]",
    ),
    (
        "map copied to another local",
        r#"let m = { x: 1 }; let n = m; n["x"] = 2; n["y"] = 3; [m, n]"#,
        "[{x: 1}, {x: 2, y: 3}]",
    ),
    (
        "list copied inside a function",
        "fn f() { let a = [1, 2]; let b = a; b[1] = 7; return [a, b]; } f()",
        "[[1, 2], [1, 7]]",
    ),
    (
        "list passed to a function that mutates its parameter",
        "fn f(p) { p[0] = 9; return p; } let a = [1, 2]; let r = f(a); [a, r]",
        "[[1, 2], [9, 2]]",
    ),
    (
        "map passed to a function that mutates its parameter",
        r#"fn f(p) { p["k"] = 0; return p; } let m = { k: 5 }; let r = f(m); [m, r]"#,
        "[{k: 5}, {k: 0}]",
    ),
    (
        "original mutated after passing it on",
        "fn keep(p) { return p; } let a = [1, 2]; let r = keep(a); a[0] = 9; [a, r]",
        "[[9, 2], [1, 2]]",
    ),
    (
        "list stored in a global, the global mutated",
        "let a = [1, 2]; let g = a; g[0] = 9; [a, g]",
        "[[1, 2], [9, 2]]",
    ),
    (
        "global copied into a function local and mutated",
        "let g = [1, 2]; fn f() { let l = g; l[0] = 9; return l; } let r = f(); [g, r]",
        "[[1, 2], [9, 2]]",
    ),
    (
        "list stored in a global by a function, the original mutated",
        "fn mk(p) { g = p; return null; } let g = null; let a = [1, 2]; mk(a); a[1] = 5; [a, g]",
        "[[1, 5], [1, 2]]",
    ),
    (
        "list captured by a par_foreach_trial body",
        r#"let a = [1, 2];
let r = par_foreach_trial t in [0, 1] { let l = a; l[t] = 9; l };
[a, r[0]["value"], r[1]["value"]]"#,
        "[[1, 2], [9, 2], [1, 9]]",
    ),
    (
        "sweep item mutated by its body",
        r#"let items = [[1, 2], [3, 4]];
let r = par_foreach_trial t in items { t[0] = 0; t };
[items, r[0]["value"], r[1]["value"]]"#,
        "[[[1, 2], [3, 4]], [0, 2], [0, 4]]",
    ),
    (
        "list mutated while a for loop walks it",
        "let a = [1, 2, 3]; let seen = []; for x in a { a[2] = 0; seen = push(seen, x); } [a, seen]",
        "[[1, 2, 0], [1, 2, 3]]",
    ),
    (
        "inner list taken out, mutated and stored back",
        "let a = [[1], [2]]; let b = a; let inner = b[0]; inner[0] = 5; b[0] = inner; [a, b]",
        "[[[1], [2]], [[5], [2]]]",
    ),
    (
        "push returns a new list",
        "let a = [1]; let b = push(a, 2); b[0] = 9; [a, b]",
        "[[1], [9, 2]]",
    ),
];

/// A register VM whose sweeps go through a [`ParRunner`] snapshot, the
/// path a host's thread pool takes, run here one body after another.
fn snapshot_vm() -> Interpreter {
    let mut interp = Interpreter::new();
    interp.set_parallel_executor(Arc::new(|runner: &ParRunner, items: Vec<Value>| {
        items
            .into_iter()
            .map(|item| {
                let mut host =
                    |name: &str, _: &mut Vec<Value>| Err(format!("unknown function {name:?}"));
                runner.run_one(item, &mut host)
            })
            .collect()
    }));
    interp
}

#[test]
fn writes_never_reach_a_shared_original() {
    for &(case, source, expected) in CASES {
        let engines: [(&str, script::Result<Value>); 3] = [
            ("register VM", Interpreter::new().run(source)),
            ("register VM, snapshot sweeps", snapshot_vm().run(source)),
            ("reference", reference::Interpreter::new().run(source)),
        ];
        for (engine, result) in engines {
            let got = result.unwrap_or_else(|e| panic!("{case} ({engine}): {e}"));
            assert_eq!(got.to_string(), expected, "{case} ({engine})");
        }
    }
}

#[test]
fn host_values_keep_value_semantics() {
    // A host-set global shared with a script local: writing the local
    // leaves the host's view unchanged, on both engines.
    let list = Value::from(vec!["a", "b"]);
    let source = r#"let l = base; l[0] = "z"; l"#;
    let mut vm = Interpreter::new();
    vm.set_global("base", list.clone());
    assert_eq!(vm.run(source).unwrap().to_string(), "[z, b]");
    assert_eq!(vm.get_global("base"), Some(&list));
    let mut tree = reference::Interpreter::new();
    tree.set_global("base", list.clone());
    assert_eq!(tree.run(source).unwrap().to_string(), "[z, b]");
    assert_eq!(tree.get_global("base"), Some(&list));
}

/// A list nested 200 000 deep frees without recursion: on a thread
/// with a service worker's 2 MiB stack, both engines run the script
/// and drop the interpreter holding it (and a copy shared with the
/// host) without overflowing the stack.
#[test]
fn deeply_nested_values_drop_on_a_small_stack() {
    const SOURCE: &str = "let x = []; for i in range(200000) { x = [x]; } 1";
    let run = || {
        let mut vm = Interpreter::new();
        assert_eq!(vm.run(SOURCE).unwrap(), Value::Num(1.0));
        drop(vm);
        let mut tree = reference::Interpreter::new();
        assert_eq!(tree.run(SOURCE).unwrap(), Value::Num(1.0));
        drop(tree);
        let mut vm = Interpreter::new();
        let deep = vm
            .run("let x = {}; for i in range(200000) { x = {k: [x]}; } x")
            .unwrap();
        let shared = deep.clone();
        drop(vm);
        drop(deep);
        drop(shared);
    };
    std::thread::Builder::new()
        .stack_size(2 << 20)
        .spawn(run)
        .unwrap()
        .join()
        .unwrap();
}
