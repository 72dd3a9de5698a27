//! Script values are shared, not copied: a loop over an n-element list
//! allocates the same for n = 8 as for n = 512.
//!
//! The loop has the shape of a study script: a user function receives a
//! trial handle and a list of event names, passes the list to `len()`
//! on every iteration, indexes it, and hands the element, a string
//! constant and the handle to a host function. None of that may
//! allocate per element. This file is its own test binary because the
//! counting allocator it installs counts every thread of the process.

use bench::measure::{count_allocs, CountingAlloc};
use script::{Interpreter, Value};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

const LOOP: &str = r#"
fn total(trial, evs) {
    let s = 0;
    let i = 0;
    while i < len(evs) { s = s + probe(trial, evs[i], "TIME"); i = i + 1; }
    return s;
}
total(trial, evs)
"#;

/// Allocations of one precompiled run of [`LOOP`] over `n` events,
/// after a warm-up run has sized the interpreter's buffers.
fn loop_allocs(n: usize) -> u64 {
    let mut interp = Interpreter::new();
    interp.register("probe", |args| {
        match (args[0].as_handle(), args[1].as_str(), args[2].as_str()) {
            (Some(("trial", 7)), Some(event), Some("TIME")) => Ok(Value::Num(event.len() as f64)),
            _ => Err("probe(trial, event, metric)".into()),
        }
    });
    let events: Vec<String> = (0..n).map(|i| format!("event {i:03}")).collect();
    let expected = events.iter().map(|e| e.len()).sum::<usize>() as f64;
    interp.set_global("evs", Value::from(events));
    interp.set_global(
        "trial",
        Value::Handle {
            tag: "trial",
            id: 7,
        },
    );
    let program = interp.compile(LOOP).unwrap();
    assert_eq!(interp.run_compiled(&program).unwrap(), Value::Num(expected));
    let (value, allocs) = count_allocs(|| interp.run_compiled(&program).unwrap());
    assert_eq!(value, Value::Num(expected));
    allocs.count
}

#[test]
fn list_loop_allocations_do_not_grow_with_the_list() {
    let small = loop_allocs(8);
    let large = loop_allocs(512);
    assert_eq!(
        small, large,
        "allocations per run: {small} over 8 events, {large} over 512"
    );
}
