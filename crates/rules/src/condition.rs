//! Rule left-hand sides: patterns, constraints and bindings.
//!
//! A [`Pattern`] is a description. The engine compiles it against a
//! rulebase (field references become slot indices, variables become
//! environment indices); the by-name matcher over string-keyed facts
//! is [`crate::reference`]'s.

use crate::value::Value;
use serde::{Deserialize, Serialize};

/// Comparison operators usable in constraints.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Comparator {
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
    /// Substring containment for strings (`contains`).
    Contains,
    /// String prefix test (`startsWith`).
    StartsWith,
}

impl Comparator {
    /// Applies the comparator. Cross-type comparisons are simply false —
    /// a fact with the wrong field type does not match, mirroring how a
    /// typed rule language would fail to bind.
    pub fn apply(&self, lhs: &Value, rhs: &Value) -> bool {
        use std::cmp::Ordering::*;
        match self {
            Comparator::Eq => lhs == rhs,
            Comparator::Ne => {
                // Same-type inequality only: Num(1) != Str("x") is not a
                // meaningful test and likely a rule bug; treat as no-match.
                std::mem::discriminant(lhs) == std::mem::discriminant(rhs) && lhs != rhs
            }
            Comparator::Lt => matches!(lhs.partial_cmp_same_type(rhs), Some(Less)),
            Comparator::Le => matches!(lhs.partial_cmp_same_type(rhs), Some(Less | Equal)),
            Comparator::Gt => matches!(lhs.partial_cmp_same_type(rhs), Some(Greater)),
            Comparator::Ge => matches!(lhs.partial_cmp_same_type(rhs), Some(Greater | Equal)),
            Comparator::Contains => match (lhs, rhs) {
                (Value::Str(a), Value::Str(b)) => a.contains(b.as_str()),
                _ => false,
            },
            Comparator::StartsWith => match (lhs, rhs) {
                (Value::Str(a), Value::Str(b)) => a.starts_with(b.as_str()),
                _ => false,
            },
        }
    }
}

/// Right-hand side of a constraint: a literal or a previously-bound
/// variable (enabling joins across patterns).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Operand {
    /// A literal value.
    Literal(Value),
    /// A variable bound by an earlier pattern (or earlier in this one).
    Binding(String),
}

/// One field constraint, `field <cmp> operand`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Constraint {
    /// Field of the candidate fact to test.
    pub field: String,
    /// Comparison operator.
    pub cmp: Comparator,
    /// Comparison operand.
    pub rhs: Operand,
}

/// A pattern over one fact type, with constraints and variable bindings.
///
/// `bindings` maps variable names to field names: when a fact matches,
/// each variable is bound to the fact's field value and becomes available
/// to later patterns (joins) and to the rule's action. The optional
/// `fact_binding` binds the matched fact itself, so actions can retract
/// it (`f : MeanEventFact(...)` … `retract(f)`).
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct Pattern {
    /// Fact type to match.
    pub fact_type: String,
    /// Field constraints, all of which must hold.
    pub constraints: Vec<Constraint>,
    /// `variable → field` bindings established on match.
    pub bindings: Vec<(String, String)>,
    /// Optional variable bound to the matched fact itself.
    pub fact_binding: Option<String>,
    /// Negated pattern (`not Type(...)`): the conjunction matches only
    /// when *no* fact satisfies this pattern under the current bindings.
    /// Negated patterns contribute no bindings and no matched fact.
    pub negated: bool,
}

impl Pattern {
    /// Creates an unconstrained pattern over a fact type.
    pub fn new(fact_type: impl Into<String>) -> Self {
        Pattern {
            fact_type: fact_type.into(),
            ..Default::default()
        }
    }

    /// Adds a literal constraint.
    pub fn constrain(mut self, field: &str, cmp: Comparator, value: impl Into<Value>) -> Self {
        self.constraints.push(Constraint {
            field: field.to_string(),
            cmp,
            rhs: Operand::Literal(value.into()),
        });
        self
    }

    /// Adds a constraint against a bound variable (a join).
    pub fn constrain_var(mut self, field: &str, cmp: Comparator, variable: &str) -> Self {
        self.constraints.push(Constraint {
            field: field.to_string(),
            cmp,
            rhs: Operand::Binding(variable.to_string()),
        });
        self
    }

    /// Binds `variable` to `field` of the matched fact.
    pub fn bind(mut self, variable: &str, field: &str) -> Self {
        self.bindings
            .push((variable.to_string(), field.to_string()));
        self
    }

    /// Binds the matched fact itself to `variable`.
    pub fn bind_fact(mut self, variable: &str) -> Self {
        self.fact_binding = Some(variable.to_string());
        self
    }

    /// Marks the pattern as negated (absence test).
    pub fn negate(mut self) -> Self {
        self.negated = true;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference::StringFact;
    use crate::Fact;
    use std::collections::BTreeMap;

    fn env() -> BTreeMap<String, Value> {
        BTreeMap::new()
    }

    /// The string-keyed form the by-name matcher reads.
    fn sf(fact: &Fact) -> StringFact {
        StringFact::from(fact)
    }

    #[test]
    fn comparators_on_numbers() {
        let one = Value::from(1.0);
        let two = Value::from(2.0);
        assert!(Comparator::Lt.apply(&one, &two));
        assert!(Comparator::Le.apply(&one, &one));
        assert!(Comparator::Gt.apply(&two, &one));
        assert!(Comparator::Ge.apply(&two, &two));
        assert!(Comparator::Eq.apply(&one, &one));
        assert!(Comparator::Ne.apply(&one, &two));
    }

    #[test]
    fn comparators_on_strings() {
        let a = Value::from("alpha");
        assert!(Comparator::Contains.apply(&a, &Value::from("lph")));
        assert!(Comparator::StartsWith.apply(&a, &Value::from("al")));
        assert!(!Comparator::StartsWith.apply(&a, &Value::from("ph")));
    }

    #[test]
    fn cross_type_comparisons_never_match() {
        let s = Value::from("1");
        let n = Value::from(1.0);
        assert!(!Comparator::Eq.apply(&s, &n));
        assert!(!Comparator::Ne.apply(&s, &n));
        assert!(!Comparator::Lt.apply(&s, &n));
        assert!(!Comparator::Contains.apply(&n, &s));
    }

    #[test]
    fn pattern_match_with_constraints_and_bindings() {
        let p = Pattern::new("MeanEventFact")
            .constrain("severity", Comparator::Gt, 0.1)
            .bind("e", "eventName");
        let f = Fact::new("MeanEventFact")
            .with("severity", 0.5)
            .with("eventName", "matxvec");
        let bound = p.matches(&sf(&f), &env()).unwrap();
        assert_eq!(bound.get("e"), Some(&Value::from("matxvec")));
    }

    #[test]
    fn pattern_rejects_wrong_type_or_failed_constraint() {
        let p = Pattern::new("A").constrain("x", Comparator::Gt, 1.0);
        let wrong_type = Fact::new("B").with("x", 5.0);
        assert!(p.matches(&sf(&wrong_type), &env()).is_none());
        let low = Fact::new("A").with("x", 0.5);
        assert!(p.matches(&sf(&low), &env()).is_none());
        let missing = Fact::new("A");
        assert!(p.matches(&sf(&missing), &env()).is_none());
    }

    #[test]
    fn join_constraint_uses_environment() {
        let p = Pattern::new("Child").constrain_var("parent", Comparator::Eq, "pname");
        let mut e = env();
        e.insert("pname".to_string(), Value::from("outer"));
        let ok = Fact::new("Child").with("parent", "outer");
        assert!(p.matches(&sf(&ok), &e).is_some());
        let no = Fact::new("Child").with("parent", "other");
        assert!(no.get("parent").is_some());
        assert!(p.matches(&sf(&no), &e).is_none());
        // Unbound join variable: no match (rather than panic).
        assert!(p.matches(&sf(&ok), &env()).is_none());
    }

    #[test]
    fn alpha_split_agrees_with_full_match() {
        // passes_alpha covers exactly the literal half of the pattern;
        // matches_given_alpha the join half. Their conjunction is matches.
        let p = Pattern::new("Child")
            .constrain("kind", Comparator::Eq, "inner")
            .constrain_var("parent", Comparator::Eq, "pname")
            .bind("n", "name");
        let mut e = env();
        e.insert("pname".to_string(), Value::from("outer"));
        let facts = [
            Fact::new("Child")
                .with("kind", "inner")
                .with("parent", "outer")
                .with("name", "x"),
            Fact::new("Child")
                .with("kind", "outer")
                .with("parent", "outer")
                .with("name", "x"),
            Fact::new("Child")
                .with("kind", "inner")
                .with("parent", "elsewhere")
                .with("name", "x"),
            Fact::new("Other").with("kind", "inner"),
        ];
        for f in &facts {
            let f = sf(f);
            let composed = if p.passes_alpha(&f) {
                p.matches_given_alpha(&f, &e)
            } else {
                None
            };
            assert_eq!(composed, p.matches(&f, &e), "disagreement on {f:?}");
        }
        assert!(
            p.passes_alpha(&sf(&facts[2])),
            "join failure is not an alpha failure"
        );
    }

    #[test]
    fn unification_of_repeated_variable() {
        let p = Pattern::new("A").bind("v", "x");
        let mut e = env();
        e.insert("v".to_string(), Value::from(3.0));
        let same = Fact::new("A").with("x", 3.0);
        assert!(p.matches(&sf(&same), &e).is_some());
        let diff = Fact::new("A").with("x", 4.0);
        assert!(p.matches(&sf(&diff), &e).is_none());
    }
}
