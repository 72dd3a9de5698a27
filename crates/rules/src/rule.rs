//! Rules: pattern conjunctions paired with actions.

use crate::condition::Pattern;
use crate::engine::Diagnosis;
use crate::fact::{Fact, FactHandle};
use crate::value::Value;
use std::collections::BTreeMap;
use std::fmt;
use std::sync::Arc;

/// An expression on a rule's right-hand side, evaluated against the
/// variables bound by the left-hand side.
#[derive(Debug, Clone, PartialEq)]
pub enum RhsExpr {
    /// A literal value.
    Literal(Value),
    /// A variable bound by the LHS.
    Var(String),
    /// `a + b`: string concatenation if either side is a string,
    /// numeric addition otherwise.
    Add(Box<RhsExpr>, Box<RhsExpr>),
}

impl RhsExpr {
    /// Evaluates the expression; `None` on an unbound variable.
    pub fn eval(&self, env: &BTreeMap<String, Value>) -> Option<Value> {
        match self {
            RhsExpr::Literal(v) => Some(v.clone()),
            RhsExpr::Var(name) => env.get(name).cloned(),
            RhsExpr::Add(a, b) => {
                let va = a.eval(env)?;
                let vb = b.eval(env)?;
                Some(match (&va, &vb) {
                    (Value::Num(x), Value::Num(y)) => Value::Num(x + y),
                    _ => Value::from(format!("{va}{vb}")),
                })
            }
        }
    }

    /// Names of the variables the expression references.
    pub fn variables(&self, out: &mut Vec<String>) {
        match self {
            RhsExpr::Literal(_) => {}
            RhsExpr::Var(v) => out.push(v.clone()),
            RhsExpr::Add(a, b) => {
                a.variables(out);
                b.variables(out);
            }
        }
    }
}

/// One interpreted right-hand-side statement.
#[derive(Debug, Clone, PartialEq)]
pub enum RhsStatement {
    /// Prints the concatenation of the expressions to the run report.
    Print(Vec<RhsExpr>),
    /// Asserts a new fact built from evaluated field expressions.
    Assert {
        /// Fact type to assert.
        fact_type: String,
        /// Field initialisers.
        fields: Vec<(String, RhsExpr)>,
    },
    /// Retracts the fact bound to the named fact-binding variable.
    Retract(String),
    /// Emits a [`Diagnosis`] — the engine's structured conclusion type.
    Diagnose {
        /// Diagnosis category (e.g. `"load-imbalance"`).
        category: RhsExpr,
        /// Human-readable explanation.
        message: RhsExpr,
        /// Optional severity in `[0, 1]`.
        severity: Option<RhsExpr>,
        /// Optional recommendation text.
        recommendation: Option<RhsExpr>,
    },
}

/// The action side of a rule.
#[derive(Clone)]
pub enum Action {
    /// A list of interpreted statements (the form the DRL parser builds).
    Interpreted(Vec<RhsStatement>),
    /// A native Rust callback.
    Native(Arc<dyn Fn(&mut RhsContext) + Send + Sync>),
}

impl fmt::Debug for Action {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Action::Interpreted(stmts) => f.debug_tuple("Interpreted").field(stmts).finish(),
            Action::Native(_) => f.write_str("Native(..)"),
        }
    }
}

/// Context handed to a firing rule's action.
///
/// Mutations are buffered as commands and applied by the engine after the
/// action returns, keeping working memory consistent during matching.
pub struct RhsContext<'a> {
    /// Variables bound by the LHS.
    pub env: &'a BTreeMap<String, Value>,
    /// The matched facts (handle + snapshot), in pattern order.
    pub matched: &'a [(FactHandle, Fact)],
    /// Name of the firing rule.
    pub rule_name: &'a str,
    pub(crate) printed: Vec<String>,
    pub(crate) asserts: Vec<Fact>,
    pub(crate) retracts: Vec<FactHandle>,
    pub(crate) diagnoses: Vec<Diagnosis>,
}

impl<'a> RhsContext<'a> {
    pub(crate) fn new(
        env: &'a BTreeMap<String, Value>,
        matched: &'a [(FactHandle, Fact)],
        rule_name: &'a str,
    ) -> Self {
        RhsContext {
            env,
            matched,
            rule_name,
            printed: Vec::new(),
            asserts: Vec::new(),
            retracts: Vec::new(),
            diagnoses: Vec::new(),
        }
    }

    /// Looks up a bound variable.
    pub fn var(&self, name: &str) -> Option<&Value> {
        self.env.get(name)
    }

    /// Emits a line of output.
    pub fn print(&mut self, message: impl Into<String>) {
        self.printed.push(message.into());
    }

    /// Schedules a fact assertion.
    pub fn assert_fact(&mut self, fact: Fact) {
        self.asserts.push(fact);
    }

    /// Schedules retraction of a matched fact.
    pub fn retract(&mut self, handle: FactHandle) {
        self.retracts.push(handle);
    }

    /// Emits a structured diagnosis. The LHS variable bindings are
    /// attached automatically when the diagnosis carries none.
    pub fn diagnose(&mut self, mut diagnosis: Diagnosis) {
        if diagnosis.bindings.is_empty() {
            diagnosis.bindings = self.env.clone();
        }
        self.diagnoses.push(diagnosis);
    }
}

/// A production rule.
#[derive(Debug, Clone)]
pub struct Rule {
    /// Rule name (unique within an engine).
    pub name: String,
    /// Conflict-resolution priority; higher fires first.
    pub salience: i32,
    /// LHS: all patterns must match with consistent bindings.
    pub patterns: Vec<Pattern>,
    /// RHS.
    pub action: Action,
}

impl Rule {
    /// Starts building a rule.
    pub fn builder(name: impl Into<String>) -> RuleBuilder {
        RuleBuilder {
            name: name.into(),
            salience: 0,
            patterns: Vec::new(),
        }
    }
}

/// Builder for programmatic rule construction.
#[derive(Debug, Clone)]
pub struct RuleBuilder {
    name: String,
    salience: i32,
    patterns: Vec<Pattern>,
}

impl RuleBuilder {
    /// Sets the salience (higher fires first; default 0).
    pub fn salience(mut self, salience: i32) -> Self {
        self.salience = salience;
        self
    }

    /// Adds an LHS pattern.
    pub fn when(mut self, pattern: Pattern) -> Self {
        self.patterns.push(pattern);
        self
    }

    /// Finishes with a native action.
    pub fn then(self, f: impl Fn(&mut RhsContext) + Send + Sync + 'static) -> Rule {
        Rule {
            name: self.name,
            salience: self.salience,
            patterns: self.patterns,
            action: Action::Native(Arc::new(f)),
        }
    }

    /// Finishes with interpreted statements.
    pub fn then_interpreted(self, statements: Vec<RhsStatement>) -> Rule {
        Rule {
            name: self.name,
            salience: self.salience,
            patterns: self.patterns,
            action: Action::Interpreted(statements),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn env_with(pairs: &[(&str, Value)]) -> BTreeMap<String, Value> {
        pairs
            .iter()
            .map(|(k, v)| (k.to_string(), v.clone()))
            .collect()
    }

    #[test]
    fn expr_eval_literals_and_vars() {
        let env = env_with(&[("x", Value::from(2.0))]);
        assert_eq!(
            RhsExpr::Literal(Value::from(1.0)).eval(&env),
            Some(Value::from(1.0))
        );
        assert_eq!(RhsExpr::Var("x".into()).eval(&env), Some(Value::from(2.0)));
        assert_eq!(RhsExpr::Var("missing".into()).eval(&env), None);
    }

    #[test]
    fn add_is_numeric_for_numbers() {
        let env = env_with(&[]);
        let e = RhsExpr::Add(
            Box::new(RhsExpr::Literal(Value::from(1.5))),
            Box::new(RhsExpr::Literal(Value::from(2.0))),
        );
        assert_eq!(e.eval(&env), Some(Value::from(3.5)));
    }

    #[test]
    fn add_concatenates_with_strings() {
        let env = env_with(&[("e", Value::from("matxvec"))]);
        let e = RhsExpr::Add(
            Box::new(RhsExpr::Literal(Value::from("Event "))),
            Box::new(RhsExpr::Var("e".into())),
        );
        assert_eq!(e.eval(&env), Some(Value::from("Event matxvec")));
        // Mixed: number formats through Display.
        let m = RhsExpr::Add(
            Box::new(RhsExpr::Literal(Value::from("n = "))),
            Box::new(RhsExpr::Literal(Value::from(16.0))),
        );
        assert_eq!(m.eval(&env), Some(Value::from("n = 16")));
    }

    #[test]
    fn variables_are_collected() {
        let e = RhsExpr::Add(
            Box::new(RhsExpr::Var("a".into())),
            Box::new(RhsExpr::Add(
                Box::new(RhsExpr::Var("b".into())),
                Box::new(RhsExpr::Literal(Value::from(1.0))),
            )),
        );
        let mut vars = Vec::new();
        e.variables(&mut vars);
        assert_eq!(vars, vec!["a", "b"]);
    }

    #[test]
    fn context_buffers_commands() {
        let env = env_with(&[]);
        let matched: Vec<(FactHandle, Fact)> = Vec::new();
        let mut ctx = RhsContext::new(&env, &matched, "r");
        ctx.print("hello");
        ctx.assert_fact(Fact::new("T"));
        ctx.retract(FactHandle(3));
        assert_eq!(ctx.printed, vec!["hello"]);
        assert_eq!(ctx.asserts.len(), 1);
        assert_eq!(ctx.retracts, vec![FactHandle(3)]);
    }

    #[test]
    fn builder_builds() {
        let r = Rule::builder("test")
            .salience(5)
            .when(Pattern::new("A"))
            .then(|_ctx| {});
        assert_eq!(r.name, "test");
        assert_eq!(r.salience, 5);
        assert_eq!(r.patterns.len(), 1);
        assert!(matches!(r.action, Action::Native(_)));
    }
}
