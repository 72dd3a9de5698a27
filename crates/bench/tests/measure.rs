//! The bench harness: interleaved rounds, the `--test` mode, the
//! allocation gate and the written document. This file is its own test
//! binary because the counting allocator it installs counts every
//! thread of the process.

use bench::measure::{interleave, Bench, CountingAlloc, Mode, MAX_ROUNDS};
use serde_json::Value;
use std::cell::{Cell, RefCell};
use std::path::PathBuf;
use std::sync::{Mutex, MutexGuard, PoisonError};
use std::time::Duration;

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// The counters are process-wide: the tests take turns.
fn serial() -> MutexGuard<'static, ()> {
    static SERIAL: Mutex<()> = Mutex::new(());
    SERIAL.lock().unwrap_or_else(PoisonError::into_inner)
}

fn scratch(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("bench-measure-{}-{name}", std::process::id()))
}

#[test]
fn pair_sides_alternate_first_position_and_min_is_at_most_median() {
    let _serial = serial();
    let log = RefCell::new(Vec::new());
    // Each call outlasts a sample, so every batch is one call and the
    // log shows the order of the rounds.
    let mut a = || {
        std::thread::sleep(Duration::from_millis(1));
        log.borrow_mut().push('a');
    };
    let mut b = || {
        std::thread::sleep(Duration::from_millis(1));
        log.borrow_mut().push('b');
    };
    let (rounds, timings) = interleave(&mut [&mut a, &mut b]);
    assert_eq!(rounds, MAX_ROUNDS);
    let log = log.into_inner();
    // One calibration call per side, then the rounds.
    assert_eq!(&log[..2], &['a', 'b']);
    let firsts: Vec<char> = log[2..].chunks(2).map(|round| round[0]).collect();
    assert_eq!(firsts.len(), rounds);
    for (r, first) in firsts.iter().enumerate() {
        assert_eq!(*first, if r % 2 == 0 { 'a' } else { 'b' }, "round {r}");
    }
    for t in &timings {
        assert!(t.min_us >= 1000.0, "{t:?}");
        assert!(t.min_us <= t.median_us, "{t:?}");
    }
}

#[test]
fn test_mode_runs_each_case_exactly_once() {
    let _serial = serial();
    let (one, a, b) = (Cell::new(0), Cell::new(0), Cell::new(0));
    let mut bench = Bench::new("once", scratch("absent.json"), Mode::Test);
    bench.case("one", || one.set(one.get() + 1));
    bench.pair(
        "two",
        ("a", || a.set(a.get() + 1)),
        ("b", || b.set(b.get() + 1)),
    );
    bench.finish();
    assert_eq!((one.get(), a.get(), b.get()), (1, 1, 1));
}

/// Writes a document for cases `one` (a single side allocating `n`
/// vectors) and `two` (a pair), and returns it parsed.
fn written(n: usize) -> Value {
    let path = scratch(&format!("doc-{n}.json"));
    let mut bench = Bench::new("doc", &path, Mode::Write(path.clone()));
    bench.case("one", || (0..n).map(|i| vec![i]).collect::<Vec<_>>());
    bench.pair("two", ("fast", || 2u8), ("slow", || vec![0u8; 64]));
    bench.finish();
    let doc = serde_json::from_str_value(&std::fs::read_to_string(&path).unwrap()).unwrap();
    std::fs::remove_file(&path).ok();
    doc
}

#[test]
fn written_document_records_its_conditions_and_every_case() {
    let _serial = serial();
    let doc = written(3);
    assert!(matches!(doc.get("cores"), Some(Value::Int(n)) if *n >= 1));
    assert!(matches!(doc.get("commit"), Some(Value::Str(c)) if !c.is_empty()));
    assert!(matches!(doc.get("method"), Some(Value::Str(m)) if m.contains("interleaved")));
    assert!(doc.get("_generated_by").is_some());
    let cases = doc.get("cases").unwrap();
    let one = cases.get("one").unwrap();
    let two = cases.get("two").unwrap();
    for case in [one, two] {
        assert!(matches!(case.get("rounds"), Some(Value::Int(r)) if *r >= 5));
    }
    // One outer vector and three inner ones.
    assert_eq!(one.get("allocs_per_op"), Some(&Value::Int(4)));
    for side in [one, two.get("fast").unwrap(), two.get("slow").unwrap()] {
        for key in ["min_us", "median_us", "allocs_per_op", "bytes_per_op"] {
            assert!(side.get(key).is_some(), "{key}");
        }
    }
    assert_eq!(
        two.get("slow").unwrap().get("bytes_per_op"),
        Some(&Value::Int(64))
    );
    assert!(two.get("speedup").is_some());
}

#[test]
fn allocation_gate_fails_a_case_over_its_committed_count() {
    let _serial = serial();
    let path = scratch("gate.json");
    std::fs::write(
        &path,
        r#"{"cases": {"one": {"allocs_per_op": 1},
                      "two": {"a": {"allocs_per_op": 0}, "b": {"allocs_per_op": 0}}}}"#,
    )
    .unwrap();
    let run = |extra: bool| {
        let mut bench = Bench::new("gate", &path, Mode::Test);
        bench.case("one", || vec![1]);
        bench.pair("two", ("a", || extra.then(|| vec![1])), ("b", || ()));
    };
    run(false);
    let caught = std::panic::catch_unwind(|| run(true));
    std::fs::remove_file(&path).ok();
    let message = *caught
        .expect_err("an extra allocation passed the gate")
        .downcast::<String>()
        .unwrap();
    assert!(
        message.contains("gate/two a: 1 allocations per call, 0 committed"),
        "{message}"
    );
}
