//! Compiled rulebases: rules parsed once, shared by every engine.
//!
//! A [`Rulebase`] is the immutable half of a production system. It
//! holds the rules, and for each rule its patterns compiled to indices:
//!
//! * each distinct field name a pattern mentions gets a *field id*, and
//!   each variable a rule mentions gets a *variable id* (an index into
//!   the join environment);
//! * each distinct (fact type, literal constraints) signature gets one
//!   *alpha node*, shared by every pattern with that signature;
//! * a fact's field layout is resolved against the rulebase once per
//!   declared [`crate::FactType`]: field id → slot. Matching then reads
//!   `values[slot]`, never a field name.
//!
//! An [`crate::Engine`] is the per-request working memory over an
//! `Arc<Rulebase>`, so building an engine allocates its memories and
//! copies no rule.

use crate::condition::{Comparator, Operand, Pattern};
use crate::fact::Schema;
use crate::rule::Rule;
use crate::value::Value;
use crate::{Result, RuleError};
use std::sync::{Arc, RwLock};

/// One alpha node: the environment-independent test of every pattern
/// with this signature — the fact type plus its literal constraints.
#[derive(Clone)]
pub(crate) struct AlphaNode {
    /// Literal tests: field id, comparator, literal.
    pub(crate) tests: Vec<(usize, Comparator, Value)>,
    /// `(rule index, pattern position)` pairs reading this node.
    pub(crate) users: Vec<(usize, usize)>,
}

/// A pattern compiled against its rulebase.
#[derive(Clone)]
pub(crate) struct CompiledPattern {
    /// The alpha node holding this pattern's candidates.
    pub(crate) alpha: usize,
    pub(crate) negated: bool,
    /// Join constraints: field id, comparator, variable id.
    pub(crate) joins: Vec<(usize, Comparator, usize)>,
    /// Bindings, in declaration order: variable id, field id.
    pub(crate) binds: Vec<(usize, usize)>,
}

/// A rule's left-hand side compiled against its rulebase.
#[derive(Clone)]
pub(crate) struct CompiledRule {
    /// Variable names by variable id.
    pub(crate) vars: Vec<String>,
    pub(crate) patterns: Vec<CompiledPattern>,
    /// Fact-binding names of the positive patterns, in matched-fact
    /// order (negated patterns match no fact).
    pub(crate) fact_bindings: Vec<Option<String>>,
}

/// How one field layout reads against a rulebase.
pub(crate) struct Resolution {
    /// The alpha nodes testing facts of this type name.
    pub(crate) alphas: Vec<usize>,
    /// Field id → slot, `None` where the layout lacks the field.
    pub(crate) slots: Box<[Option<usize>]>,
}

impl Resolution {
    /// The value of field `field` in `values`, if the layout has it.
    #[inline]
    pub(crate) fn get<'v>(&self, values: &'v [Value], field: usize) -> Option<&'v Value> {
        self.slots[field].map(|slot| &values[slot])
    }
}

/// An immutable, compiled set of rules; see the module docs.
pub struct Rulebase {
    rules: Vec<Rule>,
    pub(crate) compiled: Vec<CompiledRule>,
    pub(crate) alphas: Vec<AlphaNode>,
    /// Fact type name of each alpha node.
    alpha_types: Vec<String>,
    /// Field names by field id.
    fields: Vec<String>,
    /// Resolutions of declared fact types, keyed by their identity.
    declared: RwLock<Vec<(usize, Arc<Resolution>)>>,
}

impl Default for Rulebase {
    fn default() -> Self {
        Rulebase {
            rules: Vec::new(),
            compiled: Vec::new(),
            alphas: Vec::new(),
            alpha_types: Vec::new(),
            fields: Vec::new(),
            declared: RwLock::new(Vec::new()),
        }
    }
}

impl Clone for Rulebase {
    /// Clones the rules and their compiled form; resolutions are
    /// recomputed on demand.
    fn clone(&self) -> Self {
        Rulebase {
            rules: self.rules.clone(),
            compiled: self.compiled.clone(),
            alphas: self.alphas.clone(),
            alpha_types: self.alpha_types.clone(),
            fields: self.fields.clone(),
            declared: RwLock::new(Vec::new()),
        }
    }
}

impl Rulebase {
    /// An empty rulebase.
    pub fn new() -> Self {
        Rulebase::default()
    }

    /// Compiles `rules`, in order; duplicate names are rejected.
    pub fn compile(rules: Vec<Rule>) -> Result<Rulebase> {
        let mut rulebase = Rulebase::new();
        for rule in rules {
            rulebase.add_rule(rule)?;
        }
        Ok(rulebase)
    }

    /// The rules, in definition order.
    pub fn rules(&self) -> &[Rule] {
        &self.rules
    }

    /// Number of rules.
    pub fn len(&self) -> usize {
        self.rules.len()
    }

    /// Whether the rulebase has no rules.
    pub fn is_empty(&self) -> bool {
        self.rules.is_empty()
    }

    /// Compiles one more rule. Duplicate names are rejected so a
    /// knowledge base cannot silently shadow itself.
    pub fn add_rule(&mut self, rule: Rule) -> Result<()> {
        if self.rules.iter().any(|r| r.name == rule.name) {
            return Err(RuleError::DuplicateRule(rule.name));
        }
        let idx = self.rules.len();
        let mut vars: Vec<String> = Vec::new();
        let mut patterns = Vec::with_capacity(rule.patterns.len());
        for (pos, p) in rule.patterns.iter().enumerate() {
            let alpha = self.alpha_for(p);
            self.alphas[alpha].users.push((idx, pos));
            let mut joins = Vec::new();
            for c in &p.constraints {
                if let Operand::Binding(var) = &c.rhs {
                    joins.push((self.field_id(&c.field), c.cmp, var_id(&mut vars, var)));
                }
            }
            let binds = p
                .bindings
                .iter()
                .map(|(var, field)| (var_id(&mut vars, var), self.field_id(field)))
                .collect();
            patterns.push(CompiledPattern {
                alpha,
                negated: p.negated,
                joins,
                binds,
            });
        }
        let fact_bindings = rule
            .patterns
            .iter()
            .filter(|p| !p.negated)
            .map(|p| p.fact_binding.clone())
            .collect();
        self.compiled.push(CompiledRule {
            vars,
            patterns,
            fact_bindings,
        });
        self.rules.push(rule);
        // New field ids change every layout's resolution.
        self.declared
            .get_mut()
            .unwrap_or_else(|e| e.into_inner())
            .clear();
        Ok(())
    }

    fn field_id(&mut self, field: &str) -> usize {
        match self.fields.iter().position(|f| f == field) {
            Some(id) => id,
            None => {
                self.fields.push(field.to_string());
                self.fields.len() - 1
            }
        }
    }

    /// Finds or creates the alpha node for a pattern's signature.
    fn alpha_for(&mut self, pattern: &Pattern) -> usize {
        let tests: Vec<(usize, Comparator, Value)> = pattern
            .constraints
            .iter()
            .filter_map(|c| match &c.rhs {
                Operand::Literal(v) => Some((self.field_id(&c.field), c.cmp, v.clone())),
                Operand::Binding(_) => None,
            })
            .collect();
        let found = (0..self.alphas.len())
            .find(|&a| self.alpha_types[a] == pattern.fact_type && self.alphas[a].tests == tests);
        if let Some(a) = found {
            return a;
        }
        self.alphas.push(AlphaNode {
            tests,
            users: Vec::new(),
        });
        self.alpha_types.push(pattern.fact_type.clone());
        self.alphas.len() - 1
    }

    /// Resolves a field layout: the alpha nodes of its type name and
    /// the slot of every field id.
    fn resolve_uncached(&self, schema: &Schema) -> Resolution {
        let name = schema.name();
        Resolution {
            alphas: (0..self.alphas.len())
                .filter(|&a| self.alpha_types[a] == name)
                .collect(),
            slots: self.fields.iter().map(|f| schema.slot(f)).collect(),
        }
    }

    /// The resolution of `schema`: computed once per declared fact type
    /// and shared; an open schema is resolved on every call.
    pub(crate) fn resolve(&self, schema: &Schema) -> Arc<Resolution> {
        let Some(key) = schema.declared_key() else {
            return Arc::new(self.resolve_uncached(schema));
        };
        let cached = |list: &[(usize, Arc<Resolution>)]| {
            list.iter()
                .find(|(k, _)| *k == key)
                .map(|(_, r)| Arc::clone(r))
        };
        if let Some(r) = cached(&self.declared.read().unwrap_or_else(|e| e.into_inner())) {
            return r;
        }
        let mut list = self.declared.write().unwrap_or_else(|e| e.into_inner());
        if let Some(r) = cached(&list) {
            return r;
        }
        let r = Arc::new(self.resolve_uncached(schema));
        list.push((key, Arc::clone(&r)));
        r
    }

    /// Whether a fact with this layout and values passes alpha node `a`.
    pub(crate) fn passes(&self, a: usize, res: &Resolution, values: &[Value]) -> bool {
        self.alphas[a]
            .tests
            .iter()
            .all(|(field, cmp, lit)| res.get(values, *field).is_some_and(|v| cmp.apply(v, lit)))
    }
}

/// The id of variable `var` in `vars`, adding it if new.
fn var_id(vars: &mut Vec<String>, var: &str) -> usize {
    match vars.iter().position(|v| v == var) {
        Some(id) => id,
        None => {
            vars.push(var.to_string());
            vars.len() - 1
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Fact, FactType};

    static EVENT: FactType = FactType::new("Event", &["name", "share"]);

    fn rulebase() -> Rulebase {
        Rulebase::compile(vec![
            Rule::builder("a")
                .when(
                    Pattern::new("Event")
                        .constrain("share", Comparator::Gt, 0.5)
                        .bind("n", "name"),
                )
                .then(|_| {}),
            Rule::builder("b")
                .when(Pattern::new("Event").constrain("share", Comparator::Gt, 0.5))
                .when(Pattern::new("Other").constrain_var("of", Comparator::Eq, "n"))
                .then(|_| {}),
        ])
        .unwrap()
    }

    #[test]
    fn equal_signatures_share_an_alpha_node() {
        let rb = rulebase();
        assert_eq!(rb.alphas.len(), 2);
        assert_eq!(rb.alphas[0].users, vec![(0, 0), (1, 0)]);
        assert_eq!(rb.compiled[1].vars, vec!["n"]);
    }

    #[test]
    fn declared_types_resolve_once_and_open_ones_by_name() {
        let rb = rulebase();
        let declared = EVENT.fact([Value::from("x"), Value::from(0.9)]);
        let first = rb.resolve(declared.schema());
        let again = rb.resolve(declared.schema());
        assert!(Arc::ptr_eq(&first, &again));
        assert_eq!(first.alphas, vec![0]);

        // An open fact with the fields in another order, one missing
        // and one extra, resolves to its own slots.
        let open = Fact::new("Event").with("extra", 1.0).with("share", 0.9);
        let res = rb.resolve(open.schema());
        assert_eq!(rb.fields, ["share", "name", "of"]);
        assert_eq!(res.get(open.values(), 0), Some(&Value::from(0.9)));
        assert_eq!(res.get(open.values(), 1), None);
        assert!(rb.passes(0, &res, open.values()));
    }

    #[test]
    fn duplicate_names_are_rejected() {
        let rule = || Rule::builder("r").when(Pattern::new("T")).then(|_| {});
        assert!(matches!(
            Rulebase::compile(vec![rule(), rule()]),
            Err(RuleError::DuplicateRule(_))
        ));
    }
}
