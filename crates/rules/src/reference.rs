//! The naive match–resolve–act engine kept as an executable
//! specification.
//!
//! [`ReferenceEngine`] re-derives every activation of every rule from
//! scratch after each firing by scanning all of working memory — the
//! pre-index behaviour of [`crate::Engine`]. Its facts are string-keyed
//! ([`StringFact`]: a type name plus a field-name → value map) and its
//! patterns match by field name, as the engine did before facts had
//! schemas. It exists for two reasons:
//!
//! * **differential testing** — the equivalence property tests drive
//!   both engines with identical rulebases and assert/retract sequences
//!   (converting each [`Fact`] with [`StringFact::from`] at the test
//!   boundary) and require identical firing order, reports and final
//!   memory;
//! * **ablation benchmarking** — `bench -p bench --bench engine`
//!   measures the incremental indexed agenda against this rematch loop.
//!
//! It is not intended for production use: its per-firing cost is
//! O(rules × |WM|^patterns).

use crate::condition::{Operand, Pattern};
use crate::engine::{execute_interpreted, FiringRecord, RunReport};
use crate::fact::{Fact, FactHandle};
use crate::rule::{Action, RhsContext, Rule};
use crate::value::Value;
use crate::{Result, RuleError};
use std::collections::{BTreeMap, BTreeSet};

/// One activation candidate: the matched fact tuple and its bindings.
type Activation = (Vec<FactHandle>, BTreeMap<String, Value>);

/// A string-keyed fact: a type name and a field-name → value map.
#[derive(Debug, Clone, PartialEq)]
pub struct StringFact {
    /// The fact type name used by pattern matching.
    pub fact_type: String,
    /// Named fields.
    pub fields: BTreeMap<String, Value>,
}

impl StringFact {
    /// Field lookup.
    pub fn get(&self, field: &str) -> Option<&Value> {
        self.fields.get(field)
    }
}

impl From<&Fact> for StringFact {
    fn from(fact: &Fact) -> Self {
        StringFact {
            fact_type: fact.fact_type().to_string(),
            fields: fact.to_map(),
        }
    }
}

impl From<&StringFact> for Fact {
    fn from(fact: &StringFact) -> Self {
        Fact::from_map(fact.fact_type.clone(), fact.fields.clone())
    }
}

/// By-name matching of a pattern against string-keyed facts.
impl Pattern {
    /// Tests the environment-independent part of the pattern: the fact
    /// type and every constraint whose operand is a literal. This is the
    /// "alpha" test — no later variable binding can change it.
    pub fn passes_alpha(&self, fact: &StringFact) -> bool {
        if fact.fact_type != self.fact_type {
            return false;
        }
        self.constraints.iter().all(|c| match &c.rhs {
            Operand::Literal(v) => fact.get(&c.field).is_some_and(|lhs| c.cmp.apply(lhs, v)),
            Operand::Binding(_) => true,
        })
    }

    /// Completes a match for a fact that already passed [`passes_alpha`]:
    /// checks the environment-dependent (join) constraints and extends
    /// the environment with this pattern's bindings.
    ///
    /// [`passes_alpha`]: Pattern::passes_alpha
    pub fn matches_given_alpha(
        &self,
        fact: &StringFact,
        env: &BTreeMap<String, Value>,
    ) -> Option<BTreeMap<String, Value>> {
        for c in &self.constraints {
            if let Operand::Binding(var) = &c.rhs {
                let lhs = fact.get(&c.field)?;
                let rhs = env.get(var)?;
                if !c.cmp.apply(lhs, rhs) {
                    return None;
                }
            }
        }
        let mut out = env.clone();
        for (var, field) in &self.bindings {
            let v = fact.get(field)?.clone();
            // A variable already bound must agree (unification).
            if let Some(existing) = out.get(var) {
                if existing != &v {
                    return None;
                }
            }
            out.insert(var.clone(), v);
        }
        Some(out)
    }

    /// Tests whether `fact` matches under the given environment of
    /// already-bound variables. On success returns the extended
    /// environment including this pattern's bindings.
    pub fn matches(
        &self,
        fact: &StringFact,
        env: &BTreeMap<String, Value>,
    ) -> Option<BTreeMap<String, Value>> {
        if !self.passes_alpha(fact) {
            return None;
        }
        self.matches_given_alpha(fact, env)
    }
}

/// A forward-chaining engine that rebuilds its conflict set from scratch
/// on every selection — the behavioural reference for [`crate::Engine`].
pub struct ReferenceEngine {
    rules: Vec<Rule>,
    wm: BTreeMap<FactHandle, StringFact>,
    next_handle: u64,
    fired: BTreeSet<(usize, Vec<FactHandle>)>,
    cycle_limit: usize,
}

impl Default for ReferenceEngine {
    fn default() -> Self {
        ReferenceEngine::new()
    }
}

impl ReferenceEngine {
    /// Creates an empty engine with the default cycle limit.
    pub fn new() -> Self {
        ReferenceEngine {
            rules: Vec::new(),
            wm: BTreeMap::new(),
            next_handle: 0,
            fired: BTreeSet::new(),
            cycle_limit: 100_000,
        }
    }

    /// Overrides the firing budget.
    pub fn with_cycle_limit(mut self, limit: usize) -> Self {
        self.cycle_limit = limit;
        self
    }

    /// Adds one rule; duplicate names are rejected.
    pub fn add_rule(&mut self, rule: Rule) -> Result<()> {
        if self.rules.iter().any(|r| r.name == rule.name) {
            return Err(RuleError::DuplicateRule(rule.name));
        }
        self.rules.push(rule);
        Ok(())
    }

    /// Adds many rules; stops at the first duplicate.
    pub fn add_rules(&mut self, rules: Vec<Rule>) -> Result<()> {
        for r in rules {
            self.add_rule(r)?;
        }
        Ok(())
    }

    /// Asserts a fact into working memory, returning its handle.
    pub fn assert_fact(&mut self, fact: StringFact) -> FactHandle {
        let h = FactHandle(self.next_handle);
        self.next_handle += 1;
        self.wm.insert(h, fact);
        h
    }

    /// Retracts a fact; returns it if it was present. Mirrors the
    /// production engine's refraction purge (handles are never reused,
    /// so entries naming the dead handle can never match again).
    pub fn retract(&mut self, handle: FactHandle) -> Option<StringFact> {
        let fact = self.wm.remove(&handle)?;
        self.fired.retain(|(_, hs)| !hs.contains(&handle));
        Some(fact)
    }

    /// Read access to working memory, in handle order.
    pub fn facts(&self) -> impl Iterator<Item = (FactHandle, &StringFact)> {
        self.wm.iter().map(|(h, f)| (*h, f))
    }

    /// Number of facts in working memory.
    pub fn fact_count(&self) -> usize {
        self.wm.len()
    }

    /// Number of rules loaded.
    pub fn rule_count(&self) -> usize {
        self.rules.len()
    }

    /// Number of refraction-memory entries currently retained.
    pub fn refraction_len(&self) -> usize {
        self.fired.len()
    }

    /// Clears facts and refraction memory, keeping the rules and the
    /// monotonic handle counter.
    pub fn reset(&mut self) {
        self.wm.clear();
        self.fired.clear();
    }

    /// Finds every activation of rule `idx` by scanning all of working
    /// memory for every pattern.
    fn activations_of(&self, idx: usize) -> Vec<Activation> {
        let rule = &self.rules[idx];
        let mut partial: Vec<Activation> = vec![(Vec::new(), BTreeMap::new())];
        for pattern in &rule.patterns {
            let mut next = Vec::new();
            for (handles, env) in &partial {
                if pattern.negated {
                    let blocked = self
                        .wm
                        .values()
                        .any(|fact| pattern.matches(fact, env).is_some());
                    if !blocked {
                        next.push((handles.clone(), env.clone()));
                    }
                    continue;
                }
                for (h, fact) in &self.wm {
                    if handles.contains(h) {
                        continue;
                    }
                    if let Some(new_env) = pattern.matches(fact, env) {
                        let mut hs = handles.clone();
                        hs.push(*h);
                        next.push((hs, new_env));
                    }
                }
            }
            partial = next;
            if partial.is_empty() {
                break;
            }
        }
        partial
    }

    /// Selects the next activation: highest salience, then rule
    /// definition order, then fact recency (newest tuple first).
    fn select(&self) -> Option<(usize, Vec<FactHandle>, BTreeMap<String, Value>)> {
        let mut best: Option<(i32, usize, Activation)> = None;
        for idx in 0..self.rules.len() {
            let salience = self.rules[idx].salience;
            if let Some((s, bidx, _)) = &best {
                if *s >= salience && *bidx < idx {
                    continue;
                }
            }
            for (handles, env) in self.activations_of(idx) {
                if self.fired.contains(&(idx, handles.clone())) {
                    continue;
                }
                let better = match &best {
                    None => true,
                    Some((s, bidx, (bh, _))) => {
                        salience > *s
                            || (salience == *s && idx < *bidx)
                            || (salience == *s && idx == *bidx && handles > *bh)
                    }
                };
                if better {
                    best = Some((salience, idx, (handles, env)));
                }
            }
        }
        best.map(|(_, idx, (h, e))| (idx, h, e))
    }

    /// Runs the match–resolve–act cycle to quiescence, rebuilding the
    /// conflict set before every firing. A run that stops part-way
    /// carries everything fired before the stop inside the error.
    pub fn run(&mut self) -> Result<RunReport> {
        let mut report = RunReport::default();
        while let Some((idx, handles, env)) = self.select() {
            if report.firings.len() >= self.cycle_limit {
                return Err(RuleError::CycleLimit {
                    limit: self.cycle_limit,
                    report: Box::new(report),
                });
            }
            self.fired.insert((idx, handles.clone()));

            let matched: Vec<(FactHandle, Fact)> = handles
                .iter()
                .map(|h| (*h, Fact::from(&self.wm[h])))
                .collect();
            let rule_name = self.rules[idx].name.clone();
            let mut ctx = RhsContext::new(&env, &matched, &rule_name);

            let fact_bindings: Vec<Option<String>> = self.rules[idx]
                .patterns
                .iter()
                .filter(|p| !p.negated)
                .map(|p| p.fact_binding.clone())
                .collect();
            match &self.rules[idx].action {
                Action::Native(f) => f(&mut ctx),
                Action::Interpreted(stmts) => {
                    let stmts = stmts.clone();
                    if let Err(e) =
                        execute_interpreted(&mut ctx, &stmts, &rule_name, &fact_bindings)
                    {
                        return Err(e.with_partial_report(report));
                    }
                }
            }

            let printed = std::mem::take(&mut ctx.printed);
            let diagnoses = std::mem::take(&mut ctx.diagnoses);
            let asserts = std::mem::take(&mut ctx.asserts);
            let retracts = std::mem::take(&mut ctx.retracts);
            drop(ctx);

            report.firings.push(FiringRecord {
                rule: rule_name,
                matched: handles,
                bindings: env,
            });
            report.printed.extend(printed);
            report.diagnoses.extend(diagnoses);

            for h in retracts {
                self.retract(h);
            }
            for f in asserts {
                self.assert_fact(StringFact::from(&f));
            }
            report.cycles += 1;
        }
        Ok(report)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::condition::{Comparator, Pattern};

    #[test]
    fn reference_engine_basic_behaviour() {
        let mut engine = ReferenceEngine::new();
        engine
            .add_rule(
                Rule::builder("severe")
                    .when(
                        Pattern::new("F")
                            .constrain("s", Comparator::Gt, 0.5)
                            .bind("e", "name"),
                    )
                    .then(|ctx| {
                        let e = ctx.var("e").unwrap().to_string();
                        ctx.print(format!("severe: {e}"));
                    }),
            )
            .unwrap();
        engine.assert_fact(StringFact::from(
            &Fact::new("F").with("s", 0.9).with("name", "a"),
        ));
        engine.assert_fact(StringFact::from(
            &Fact::new("F").with("s", 0.1).with("name", "b"),
        ));
        let report = engine.run().unwrap();
        assert_eq!(report.printed, vec!["severe: a"]);
        assert_eq!(engine.run().unwrap().firings.len(), 0, "refraction");
    }

    #[test]
    fn reference_handles_monotonic_and_purged() {
        let mut engine = ReferenceEngine::new();
        let a = engine.assert_fact(StringFact::from(&Fact::new("T")));
        engine.reset();
        let b = engine.assert_fact(StringFact::from(&Fact::new("T")));
        assert_ne!(a, b);
        engine
            .add_rule(Rule::builder("r").when(Pattern::new("T")).then(|_| {}))
            .unwrap();
        engine.run().unwrap();
        assert_eq!(engine.refraction_len(), 1);
        engine.retract(b);
        assert_eq!(engine.refraction_len(), 0);
    }
}
