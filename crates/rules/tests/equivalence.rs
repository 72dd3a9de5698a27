//! Differential property tests: the incremental indexed engine must be
//! observationally equivalent to the naive rematch reference — same
//! firings, same order, same reports, same working memory — for random
//! rulebases and random assert/retract sequences.
//!
//! The engine matches typed facts through slot indices; the reference
//! matches string-keyed facts by field name. Every fact crosses to the
//! reference through `StringFact::from`, and every fact read back from
//! the engine is converted the same way before comparison. Facts of one
//! type name come in several layouts — a declared schema, the open
//! builder with the fields in another order, and layouts with a field
//! missing or an extra one — so a slot resolved for one layout and
//! applied to another shows up as a differing report.

use proptest::prelude::*;
use rules::reference::{ReferenceEngine, StringFact};
use rules::{
    Comparator, Engine, Fact, FactType, Pattern, RhsExpr, RhsStatement, Rule, Rulebase, Value,
};
use std::sync::Arc;

const TYPES: [&str; 3] = ["A", "B", "C"];
const CYCLE_LIMIT: usize = 80;

/// Declared layouts, one per type: `k` then `s`.
static DECLARED: [FactType; 3] = [
    FactType::new("A", &["k", "s"]),
    FactType::new("B", &["k", "s"]),
    FactType::new("C", &["k", "s"]),
];
/// Declared layouts with an extra leading field and `s` before `k`.
static WIDE: [FactType; 3] = [
    FactType::new("A", &["x", "s", "k"]),
    FactType::new("B", &["x", "s", "k"]),
    FactType::new("C", &["x", "s", "k"]),
];
/// Declared layouts without `k`.
static NARROW: [FactType; 3] = [
    FactType::new("A", &["s"]),
    FactType::new("B", &["s"]),
    FactType::new("C", &["s"]),
];
/// Number of fact layouts `fact` can build.
const SHAPES: u32 = 6;

/// Plan for one generated pattern over fields `k` (number) and `s`
/// (string).
#[derive(Debug, Clone)]
struct PatternPlan {
    ty: usize,
    /// Literal constraint on `k`: comparator selector and operand.
    lit: Option<(u32, i64)>,
    /// Bind the shared variable `v` to `k` (joins + unification).
    bind_v: bool,
    /// Constrain `k == v` against an earlier binding of `v`.
    join_v: bool,
    /// Bind the shared variable `t` to the string field `s`.
    bind_t: bool,
    /// Constrain `s == t` against an earlier binding of `t`.
    join_t: bool,
}

/// Plan for one generated rule.
#[derive(Debug, Clone)]
struct RulePlan {
    salience: i32,
    patterns: Vec<PatternPlan>,
    negated: Option<PatternPlan>,
    bind_fact: bool,
    retract_f: bool,
    assert_fact: Option<(usize, i64)>,
    diagnose: bool,
}

/// One step of the driver sequence.
#[derive(Debug, Clone)]
enum Op {
    Assert {
        ty: usize,
        k: i64,
        s: bool,
        shape: u32,
    },
    Retract(usize),
    Run,
}

/// The shim has no `any::<bool>()`; derive booleans from a range.
fn pbool() -> impl Strategy<Value = bool> {
    (0u32..2).prop_map(|b| b == 1)
}

fn pattern_plan() -> impl Strategy<Value = PatternPlan> {
    (
        0..TYPES.len(),
        // ~50% Some: comparator selector + operand for the `k` literal.
        (0u32..2, 0u32..3, 0i64..4).prop_map(|(some, cmp, v)| (some == 1).then_some((cmp, v))),
        (pbool(), pbool()),
        // ~25% each: bind or join the string variable.
        (0u32..4, 0u32..4),
    )
        .prop_map(|(ty, lit, (bind_v, join_v), (t, j))| PatternPlan {
            ty,
            lit,
            bind_v,
            join_v,
            bind_t: t == 0,
            join_t: j == 0,
        })
}

fn rule_plan() -> impl Strategy<Value = RulePlan> {
    // The shim's tuple strategies stop at six elements, so the seven
    // plan fields are grouped into two nested tuples.
    (
        (
            -3i32..4,
            proptest::collection::vec(pattern_plan(), 1..=3),
            // ~40% of rules carry a negated pattern.
            (0u32..10, pattern_plan()).prop_map(|(p, pp)| (p < 4).then_some(pp)),
        ),
        (
            pbool(),
            pbool(),
            // ~25% of rules assert a fresh fact from their RHS.
            (0u32..4, 0..TYPES.len(), 0i64..4).prop_map(|(p, ty, k)| (p == 0).then_some((ty, k))),
            pbool(),
        ),
    )
        .prop_map(
            |((salience, patterns, negated), (bind_fact, retract_f, assert_fact, diagnose))| {
                RulePlan {
                    salience,
                    patterns,
                    negated,
                    bind_fact,
                    retract_f,
                    assert_fact,
                    diagnose,
                }
            },
        )
}

fn op() -> impl Strategy<Value = Op> {
    // 4:2:1 assert/retract/run mix via a selector range (the shim's
    // `prop_oneof!` has no weighted form).
    (
        0u32..7,
        0..TYPES.len(),
        0i64..4,
        0u32..2,
        0usize..1_000_000,
        0..SHAPES,
    )
        .prop_map(|(sel, ty, k, s, j, shape)| match sel {
            0..=3 => Op::Assert {
                ty,
                k,
                s: s == 1,
                shape,
            },
            4..=5 => Op::Retract(j),
            _ => Op::Run,
        })
}

/// The constraint half of a plan: the `k` literal and the joins on `v`
/// and `t`, each only once an earlier pattern bound the variable.
fn constrain(mut p: Pattern, plan: &PatternPlan, binds_v: bool, binds_t: bool) -> Pattern {
    if let Some((cmp, val)) = plan.lit {
        let cmp = [Comparator::Eq, Comparator::Gt, Comparator::Le][cmp as usize];
        p = p.constrain("k", cmp, val as f64);
    }
    if plan.join_v && binds_v {
        p = p.constrain_var("k", Comparator::Eq, "v");
    }
    if plan.join_t && binds_t {
        p = p.constrain_var("s", Comparator::Eq, "t");
    }
    p
}

fn build_pattern(plan: &PatternPlan, pos: usize, binds_v: bool, binds_t: bool) -> Pattern {
    let mut p = constrain(Pattern::new(TYPES[plan.ty]), plan, binds_v, binds_t);
    if plan.bind_v {
        p = p.bind("v", "k");
    }
    if plan.bind_t {
        p = p.bind("t", "s");
    }
    p.bind(&format!("w{pos}"), "s")
}

fn build_rule(i: usize, plan: &RulePlan) -> Rule {
    let name = format!("r{i}");
    let mut builder = Rule::builder(name.clone()).salience(plan.salience);
    let (mut binds_v, mut binds_t) = (false, false);
    for (pos, pp) in plan.patterns.iter().enumerate() {
        let mut p = build_pattern(pp, pos, binds_v, binds_t);
        if pos == 0 && plan.bind_fact {
            p = p.bind_fact("f");
        }
        binds_v |= pp.bind_v;
        binds_t |= pp.bind_t;
        builder = builder.when(p);
    }
    if let Some(np) = &plan.negated {
        // Negated patterns contribute no bindings; reuse only the
        // constraint half of the plan.
        let p = constrain(Pattern::new(TYPES[np.ty]), np, binds_v, binds_t);
        builder = builder.when(p.negate());
    }

    // RHS references only variables the LHS is guaranteed to bind.
    let mut print = RhsExpr::Literal(Value::from(name.as_str()));
    for pos in 0..plan.patterns.len() {
        print = RhsExpr::Add(Box::new(print), Box::new(RhsExpr::Var(format!("w{pos}"))));
    }
    let mut stmts = vec![RhsStatement::Print(vec![print])];
    if plan.diagnose {
        stmts.push(RhsStatement::Diagnose {
            category: RhsExpr::Literal(Value::from("cat")),
            message: RhsExpr::Add(
                Box::new(RhsExpr::Literal(Value::from(name.as_str()))),
                Box::new(RhsExpr::Var("w0".to_string())),
            ),
            severity: Some(RhsExpr::Literal(Value::from(0.5))),
            recommendation: None,
        });
    }
    if let Some((ty, k)) = plan.assert_fact {
        // Alternate the field order of RHS-asserted facts too, and
        // carry a bound string into them when there is one.
        let s = if binds_t {
            RhsExpr::Var("t".to_string())
        } else {
            RhsExpr::Literal(Value::from("rhs"))
        };
        let k = ("k".to_string(), RhsExpr::Literal(Value::from(k as f64)));
        let s = ("s".to_string(), s);
        let fields = if i & 1 == 0 { vec![k, s] } else { vec![s, k] };
        stmts.push(RhsStatement::Assert {
            fact_type: TYPES[ty].to_string(),
            fields,
        });
    }
    if plan.retract_f && plan.bind_fact {
        stmts.push(RhsStatement::Retract("f".to_string()));
    }
    builder.then_interpreted(stmts)
}

/// One fact of type `ty` in layout `shape`: declared, open in either
/// field order, declared with an extra field, declared without `k`, or
/// open without `k`.
fn fact(ty: usize, k: i64, s: bool, shape: u32) -> Fact {
    let (k, s) = (
        Value::from(k as f64),
        Value::from(if s { "yes" } else { "no" }),
    );
    match shape {
        0 => DECLARED[ty].fact([k, s]),
        1 => Fact::new(TYPES[ty]).with("s", s).with("k", k),
        2 => WIDE[ty].fact([Value::from(true), s, k]),
        3 => NARROW[ty].fact([s]),
        4 => Fact::new(TYPES[ty])
            .with("k", k)
            .with("s", s)
            .with("x", 1.0),
        _ => Fact::new(TYPES[ty]).with("s", s),
    }
}

fn snapshot(engine: &Engine) -> Vec<(rules::FactHandle, StringFact)> {
    engine
        .facts()
        .map(|(h, f)| (h, StringFact::from(f)))
        .collect()
}

fn snapshot_ref(engine: &ReferenceEngine) -> Vec<(rules::FactHandle, StringFact)> {
    engine.facts().map(|(h, f)| (h, f.clone())).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// The full differential property: random rulebase, random driver
    /// sequence, identical observable behaviour at every step. The
    /// engine runs over a compiled rulebase shared with a second,
    /// untouched engine, as every request's engine shares the shipped
    /// rulebases.
    #[test]
    fn incremental_engine_equals_reference(
        plans in proptest::collection::vec(rule_plan(), 1..=4),
        ops in proptest::collection::vec(op(), 0..24),
    ) {
        let rules: Vec<Rule> = plans.iter().enumerate().map(|(i, p)| build_rule(i, p)).collect();
        let shared = Arc::new(Rulebase::compile(rules).unwrap());
        let mut inc = Engine::with_rulebase(Arc::clone(&shared)).with_cycle_limit(CYCLE_LIMIT);
        let bystander = Engine::with_rulebase(Arc::clone(&shared));
        let mut reference = ReferenceEngine::new().with_cycle_limit(CYCLE_LIMIT);
        for (i, plan) in plans.iter().enumerate() {
            reference.add_rule(build_rule(i, plan)).unwrap();
        }

        let mut handles = Vec::new();
        for op in ops.iter().chain([&Op::Run]) {
            match op {
                Op::Assert { ty, k, s, shape } => {
                    let f = fact(*ty, *k, *s, *shape);
                    let hr = reference.assert_fact(StringFact::from(&f));
                    let hi = inc.assert_fact(f);
                    prop_assert_eq!(hi, hr);
                    handles.push(hi);
                }
                Op::Retract(j) => {
                    if handles.is_empty() {
                        continue;
                    }
                    let h = handles[j % handles.len()];
                    let fi = inc.retract(h).map(|f| StringFact::from(&f));
                    let fr = reference.retract(h);
                    prop_assert_eq!(fi, fr);
                }
                Op::Run => {
                    let ri = inc.run();
                    let rr = reference.run();
                    prop_assert_eq!(&ri, &rr);
                }
            }
            prop_assert_eq!(inc.fact_count(), reference.fact_count());
        }

        prop_assert_eq!(snapshot(&inc), snapshot_ref(&reference));
        prop_assert_eq!(inc.refraction_len(), reference.refraction_len());
        prop_assert_eq!(bystander.fact_count(), 0);
    }

    /// Interleaving reset() keeps the engines aligned, including the
    /// monotonic handle counter. Rules are added one by one after the
    /// engine exists, so the incremental compile path is covered too.
    #[test]
    fn equivalence_survives_reset(
        plans in proptest::collection::vec(rule_plan(), 1..=3),
        ops_a in proptest::collection::vec(op(), 0..12),
        ops_b in proptest::collection::vec(op(), 0..12),
    ) {
        let mut inc = Engine::new().with_cycle_limit(CYCLE_LIMIT);
        let mut reference = ReferenceEngine::new().with_cycle_limit(CYCLE_LIMIT);
        for (i, plan) in plans.iter().enumerate() {
            inc.add_rule(build_rule(i, plan)).unwrap();
            reference.add_rule(build_rule(i, plan)).unwrap();
        }
        for phase in [&ops_a, &ops_b] {
            let mut handles = Vec::new();
            for op in phase.iter().chain([&Op::Run]) {
                match op {
                    Op::Assert { ty, k, s, shape } => {
                        let f = fact(*ty, *k, *s, *shape);
                        let hr = reference.assert_fact(StringFact::from(&f));
                        let hi = inc.assert_fact(f);
                        prop_assert_eq!(hi, hr);
                        handles.push(hi);
                    }
                    Op::Retract(j) => {
                        if handles.is_empty() {
                            continue;
                        }
                        let h = handles[j % handles.len()];
                        let fi = inc.retract(h).map(|f| StringFact::from(&f));
                        prop_assert_eq!(fi, reference.retract(h));
                    }
                    Op::Run => {
                        prop_assert_eq!(inc.run(), reference.run());
                    }
                }
            }
            inc.reset();
            reference.reset();
        }
        // Post-reset, fresh handles must not collide with pre-reset ones.
        let hi = inc.assert_fact(fact(0, 0, false, 0));
        let hr = reference.assert_fact(StringFact::from(&fact(0, 0, false, 0)));
        prop_assert_eq!(hi, hr);
    }

    /// Rules loaded after facts see the existing memory through the
    /// same layouts, on both engines.
    #[test]
    fn late_rules_equal_reference(
        plans in proptest::collection::vec(rule_plan(), 1..=3),
        ops in proptest::collection::vec(op(), 0..16),
    ) {
        let mut inc = Engine::new().with_cycle_limit(CYCLE_LIMIT);
        let mut reference = ReferenceEngine::new().with_cycle_limit(CYCLE_LIMIT);
        for op in &ops {
            if let Op::Assert { ty, k, s, shape } = op {
                let f = fact(*ty, *k, *s, *shape);
                reference.assert_fact(StringFact::from(&f));
                inc.assert_fact(f);
            }
        }
        for (i, plan) in plans.iter().enumerate() {
            inc.add_rule(build_rule(i, plan)).unwrap();
            reference.add_rule(build_rule(i, plan)).unwrap();
        }
        prop_assert_eq!(inc.run(), reference.run());
        prop_assert_eq!(snapshot(&inc), snapshot_ref(&reference));
    }
}
