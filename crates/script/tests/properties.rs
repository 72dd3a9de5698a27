//! Property-based tests for the scripting language.

use proptest::prelude::*;
use script::{reference, Interpreter, Value};

proptest! {
    /// Numeric literals round-trip through parse + eval.
    #[test]
    fn numeric_literal_roundtrip(n in -1e9f64..1e9) {
        let src = format!("{n:?}");
        let v = Interpreter::new().run(&src).unwrap();
        prop_assert_eq!(v, Value::Num(n));
    }

    /// Addition in the language agrees with Rust addition.
    #[test]
    fn addition_agrees_with_rust(a in -1e6f64..1e6, b in -1e6f64..1e6) {
        let src = format!("{a:?} + {b:?}");
        let v = Interpreter::new().run(&src).unwrap();
        prop_assert_eq!(v, Value::Num(a + b));
    }

    /// `sum(list)` equals the Rust sum of the same numbers.
    #[test]
    fn sum_builtin_agrees(xs in prop::collection::vec(-1e3f64..1e3, 0..32)) {
        let literal = format!(
            "[{}]",
            xs.iter().map(|x| format!("{x:?}")).collect::<Vec<_>>().join(", ")
        );
        let v = Interpreter::new().run(&format!("sum({literal})")).unwrap();
        let expected: f64 = xs.iter().sum();
        let got = v.as_num().unwrap();
        prop_assert!((got - expected).abs() < 1e-6);
    }

    /// A counting while-loop computes the expected total.
    #[test]
    fn while_loop_counts(n in 0usize..200) {
        let src = format!(
            "let t = 0; let i = 0; while i < {n} {{ t = t + i; i = i + 1; }} t"
        );
        let v = Interpreter::new().run(&src).unwrap();
        prop_assert_eq!(v, Value::Num((n * n.saturating_sub(1) / 2) as f64));
    }

    /// `sort` produces an ordered permutation.
    #[test]
    fn sort_builtin_orders(xs in prop::collection::vec(-1e3f64..1e3, 1..24)) {
        let literal = format!(
            "[{}]",
            xs.iter().map(|x| format!("{x:?}")).collect::<Vec<_>>().join(", ")
        );
        let v = Interpreter::new().run(&format!("sort({literal})")).unwrap();
        let sorted = v.as_list().unwrap();
        prop_assert_eq!(sorted.len(), xs.len());
        for w in sorted.windows(2) {
            prop_assert!(w[0].as_num().unwrap() <= w[1].as_num().unwrap());
        }
    }

    /// String literals with arbitrary safe characters round-trip.
    #[test]
    fn string_literal_roundtrip(s in "[a-zA-Z0-9 _.,-]*") {
        let v = Interpreter::new().run(&format!("\"{s}\"")).unwrap();
        prop_assert_eq!(v, Value::Str(s.into()));
    }

    /// `str(num(x))` is stable for integers.
    #[test]
    fn str_num_roundtrip_integers(n in -1_000_000i64..1_000_000) {
        let v = Interpreter::new()
            .run(&format!("num(str({n}))"))
            .unwrap();
        prop_assert_eq!(v, Value::Num(n as f64));
    }
}

/// `range` refuses a list longer than its bound, and a non-finite
/// argument, with the same typed error in both engines.
#[test]
fn range_is_bounded_in_both_engines() {
    let cases = [
        ("range(9000000000000000000)", "exceed the limit"),
        (
            "range(-9000000000000000000, 9000000000000000000)",
            "exceed the limit",
        ),
        ("range(pow(10, 400))", "must be finite"),
        ("range(0, pow(-1, 0.5))", "must be finite"),
    ];
    for (src, message) in cases {
        let vm = Interpreter::new().run(src);
        let tree = reference::Interpreter::new().run(src);
        let err = vm.clone().expect_err(src);
        assert!(err.to_string().contains(message), "{src}: {err}");
        assert_eq!(vm, tree, "{src}");
    }
    let longest = format!("len(range({}))", script::MAX_RANGE_LEN);
    let n = script::MAX_RANGE_LEN as f64;
    assert_eq!(Interpreter::new().run(&longest).unwrap(), Value::Num(n));
    assert_eq!(
        reference::Interpreter::new().run(&longest).unwrap(),
        Value::Num(n)
    );
}
