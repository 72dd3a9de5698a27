//! The inference engine: working memory, agenda, match–resolve–act loop.
//!
//! An [`Engine`] is per-request working memory over a shared, compiled
//! [`Rulebase`]: the rules, their patterns and the alpha-network shape
//! are compiled once and shared by `Arc`, and an engine owns only its
//! facts, alpha memories, conflict sets and agenda.
//!
//! Matching is incremental and indexed (a "Rete-lite"):
//!
//! * an **alpha layer** buckets working memory per distinct
//!   (fact type, literal constraints) pattern signature, so joins scan
//!   only candidate facts that already passed every constant test.
//!   Field references are slot indices resolved once per declared fact
//!   type, and a join environment is a slice indexed by variable whose
//!   entries borrow the matched facts' values — nothing is copied until
//!   a rule fires;
//! * the **conflict set** is maintained persistently: asserting or
//!   retracting a fact only (re)computes activations for rules whose
//!   patterns reference the affected alpha memories — rules over other
//!   fact types are untouched, and firing a rule whose action leaves
//!   working memory unchanged costs one ordered-set pop;
//! * **negated patterns** are tracked per rule: an assert into a
//!   negatively-referenced alpha memory can *deactivate* pending matches
//!   and a retract can *activate* them, so those rules are recomputed
//!   from their (small) alpha candidate sets.
//!
//! The naive quadratic matcher this replaces lives on as
//! [`crate::reference::ReferenceEngine`], used by differential tests and
//! the `bench_rules` ablation.

use crate::fact::{Fact, FactHandle};
use crate::rule::{Action, RhsContext, RhsStatement, Rule};
use crate::rulebase::{CompiledPattern, Resolution, Rulebase};
use crate::value::Value;
use crate::{Result, RuleError};
use serde::{Deserialize, Serialize};
use std::cmp::Reverse;
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

/// A structured conclusion emitted by a rule — the engine's primary
/// output for the analysis layer. Where the paper's rules print their
/// findings ("Event X has a higher than average stall / cycle rate"),
/// this engine additionally captures them as data so downstream
/// consumers (recommendation rendering, compiler feedback) need not
/// parse text.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Diagnosis {
    /// Category tag, e.g. `"load-imbalance"`, `"memory-locality"`.
    pub category: String,
    /// Human-readable explanation.
    pub message: String,
    /// Severity in `[0, 1]` when the rule quantified it.
    pub severity: Option<f64>,
    /// Suggested remedy, if the rule proposes one.
    pub recommendation: Option<String>,
    /// Name of the rule that fired.
    pub rule: String,
    /// Variable bindings at firing time, so consumers can recover which
    /// event/trial the diagnosis is about without parsing the message.
    #[serde(default)]
    pub bindings: BTreeMap<String, Value>,
}

/// Record of one rule firing, for explanation and audit.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FiringRecord {
    /// Rule that fired.
    pub rule: String,
    /// Handles of the matched facts, in pattern order.
    pub matched: Vec<FactHandle>,
    /// Variable environment at firing time.
    pub bindings: BTreeMap<String, Value>,
}

/// The output of an engine run.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct RunReport {
    /// Lines printed by rule actions, in firing order.
    pub printed: Vec<String>,
    /// Structured diagnoses, in firing order.
    pub diagnoses: Vec<Diagnosis>,
    /// One record per firing, in order.
    pub firings: Vec<FiringRecord>,
    /// Match–act cycles executed.
    pub cycles: usize,
}

impl RunReport {
    /// Diagnoses in one category.
    pub fn diagnoses_in(&self, category: &str) -> Vec<&Diagnosis> {
        self.diagnoses
            .iter()
            .filter(|d| d.category == category)
            .collect()
    }

    /// Whether any rule with the given name fired.
    pub fn fired(&self, rule: &str) -> bool {
        self.firings.iter().any(|f| f.rule == rule)
    }

    /// Merges another report produced by a later run on the same engine.
    pub fn absorb(&mut self, other: RunReport) {
        self.printed.extend(other.printed);
        self.diagnoses.extend(other.diagnoses);
        self.firings.extend(other.firings);
        self.cycles += other.cycles;
    }
}

/// Agenda ordering key: highest salience first, then rule definition
/// order, then fact recency (newest tuple first). A `BTreeSet` of these
/// keys iterates best-first.
type AgendaKey = (Reverse<i32>, usize, Reverse<Vec<FactHandle>>);

/// A fact in working memory and the index of its layout's resolution.
struct Stored {
    fact: Fact,
    res: usize,
}

/// A forward-chaining rule engine: working memory over a shared
/// compiled [`Rulebase`].
pub struct Engine {
    rulebase: Arc<Rulebase>,
    memory: Memory,
    /// Safety bound on total firings per `run`.
    cycle_limit: usize,
}

/// Everything an engine owns besides its rulebase.
struct Memory {
    /// Facts by handle, offset by `base`; retracted slots are `None`.
    facts: Vec<Option<Stored>>,
    base: u64,
    live: usize,
    next_handle: u64,
    /// Resolutions of the layouts asserted so far.
    resolutions: Vec<Arc<Resolution>>,
    /// Declared fact type key → index into `resolutions`.
    declared: Vec<(usize, usize)>,
    /// Per alpha node: handles of the facts passing it, ascending.
    alphas: Vec<Vec<FactHandle>>,
    /// Refraction memory: activations that already fired.
    fired: BTreeSet<(usize, Vec<FactHandle>)>,
    /// Per rule: matched-handle tuples of the unfired activations (the
    /// conflict set).
    conflict: Vec<BTreeSet<Vec<FactHandle>>>,
    /// Salience/recency-ordered view over every conflict set.
    agenda: BTreeSet<AgendaKey>,
}

impl Default for Engine {
    fn default() -> Self {
        Engine::new()
    }
}

impl Engine {
    /// Creates an engine with no rules and the default cycle limit.
    pub fn new() -> Self {
        Engine::with_rulebase(Arc::new(Rulebase::new()))
    }

    /// Creates an empty working memory over a compiled rulebase.
    pub fn with_rulebase(rulebase: Arc<Rulebase>) -> Self {
        let mut memory = Memory::new(&rulebase);
        memory.activate_on_empty(&rulebase);
        Engine {
            memory,
            rulebase,
            cycle_limit: 100_000,
        }
    }

    /// Overrides the firing budget (guards against rules that assert
    /// facts in an unbounded loop).
    pub fn with_cycle_limit(mut self, limit: usize) -> Self {
        self.cycle_limit = limit;
        self
    }

    /// Adds one rule. Duplicate names are rejected so a knowledge base
    /// cannot silently shadow itself. A rulebase shared with other
    /// engines is copied first, so they never see the rule.
    pub fn add_rule(&mut self, rule: Rule) -> Result<()> {
        let rulebase = Arc::make_mut(&mut self.rulebase);
        rulebase.add_rule(rule)?;
        self.memory.grow(rulebase);
        Ok(())
    }

    /// Adds many rules; stops at the first duplicate.
    pub fn add_rules(&mut self, rules: Vec<Rule>) -> Result<()> {
        for r in rules {
            self.add_rule(r)?;
        }
        Ok(())
    }

    /// Asserts a fact into working memory, returning its handle. The
    /// conflict set is updated incrementally: only rules whose patterns
    /// read an alpha memory that accepted the fact are reconsidered.
    pub fn assert_fact(&mut self, fact: Fact) -> FactHandle {
        self.memory.assert(&self.rulebase, fact)
    }

    /// Retracts a fact; returns it if it was present. Activations whose
    /// tuple contains the fact are dropped from the agenda; rules that
    /// test the fact's type negatively are recomputed (a retract can
    /// *activate* previously-blocked matches). Refraction entries naming
    /// the dead handle are purged — handles are never reused, so those
    /// tuples can never match again and would only leak memory.
    pub fn retract(&mut self, handle: FactHandle) -> Option<Fact> {
        self.memory.retract(&self.rulebase, handle)
    }

    /// Read access to working memory, in handle order.
    pub fn facts(&self) -> impl Iterator<Item = (FactHandle, &Fact)> {
        let base = self.memory.base;
        self.memory
            .facts
            .iter()
            .enumerate()
            .filter_map(move |(i, s)| s.as_ref().map(|s| (FactHandle(base + i as u64), &s.fact)))
    }

    /// Number of facts in working memory.
    pub fn fact_count(&self) -> usize {
        self.memory.live
    }

    /// Number of rules loaded.
    pub fn rule_count(&self) -> usize {
        self.rulebase.len()
    }

    /// Clears facts, the agenda and refraction memory, keeping the
    /// rules. The handle counter is *not* reset: handles held from
    /// before the reset stay dead forever instead of silently aliasing
    /// facts asserted afterwards.
    pub fn reset(&mut self) {
        let m = &mut self.memory;
        m.base = m.next_handle;
        m.facts.clear();
        m.live = 0;
        m.resolutions.clear();
        m.declared.clear();
        m.fired.clear();
        m.agenda.clear();
        m.alphas.iter_mut().for_each(Vec::clear);
        m.conflict.iter_mut().for_each(BTreeSet::clear);
        m.activate_on_empty(&self.rulebase);
    }

    /// Number of refraction-memory entries currently retained. Exposed
    /// so long-lived callers (parameter sweeps) can check that retracted
    /// facts do not pin refraction state forever.
    pub fn refraction_len(&self) -> usize {
        self.memory.fired.len()
    }

    /// Runs the match–resolve–act cycle to quiescence. A run that stops
    /// part-way — the cycle limit, or a rule action that fails — carries
    /// everything fired before the stop inside the error.
    pub fn run(&mut self) -> Result<RunReport> {
        self.memory.run(&self.rulebase, self.cycle_limit)
    }
}

impl Memory {
    fn new(rulebase: &Rulebase) -> Self {
        Memory {
            facts: Vec::new(),
            base: 0,
            live: 0,
            next_handle: 0,
            resolutions: Vec::new(),
            declared: Vec::new(),
            alphas: vec![Vec::new(); rulebase.alphas.len()],
            fired: BTreeSet::new(),
            conflict: vec![BTreeSet::new(); rulebase.compiled.len()],
            agenda: BTreeSet::new(),
        }
    }

    /// Computes the activations of the rules an empty memory satisfies:
    /// those whose every pattern is negated.
    fn activate_on_empty(&mut self, rulebase: &Rulebase) {
        for (idx, rule) in rulebase.compiled.iter().enumerate() {
            if rule.patterns.iter().all(|p| p.negated) {
                self.recompute_rule(rulebase, idx);
            }
        }
    }

    fn stored(&self, h: FactHandle) -> Option<&Stored> {
        let i = usize::try_from(h.0.checked_sub(self.base)?).ok()?;
        self.facts.get(i)?.as_ref()
    }

    /// The index of `fact`'s resolution: looked up once per declared
    /// type per engine, resolved afresh for an open schema.
    fn resolution(&mut self, rulebase: &Rulebase, fact: &Fact) -> usize {
        let key = fact.schema().declared_key();
        if let Some(&(_, r)) = key.and_then(|k| self.declared.iter().find(|(d, _)| *d == k)) {
            return r;
        }
        let r = self.resolutions.len();
        self.resolutions.push(rulebase.resolve(fact.schema()));
        if let Some(k) = key {
            self.declared.push((k, r));
        }
        r
    }

    /// Catches up with rules just added to `rulebase`: re-resolves every
    /// stored fact (field ids and alpha nodes only grow), fills the new
    /// alpha memories from working memory and computes the new rules'
    /// activations.
    fn grow(&mut self, rulebase: &Rulebase) {
        self.resolutions.clear();
        self.declared.clear();
        let mut facts = std::mem::take(&mut self.facts);
        for stored in facts.iter_mut().flatten() {
            stored.res = self.resolution(rulebase, &stored.fact);
        }
        self.facts = facts;
        for a in self.alphas.len()..rulebase.alphas.len() {
            let base = self.base;
            let handles = self
                .facts
                .iter()
                .enumerate()
                .filter_map(|(i, s)| {
                    let s = s.as_ref()?;
                    let res = &self.resolutions[s.res];
                    (res.alphas.contains(&a) && rulebase.passes(a, res, s.fact.values()))
                        .then_some(FactHandle(base + i as u64))
                })
                .collect();
            self.alphas.push(handles);
        }
        for idx in self.conflict.len()..rulebase.compiled.len() {
            self.conflict.push(BTreeSet::new());
            self.recompute_rule(rulebase, idx);
        }
    }

    fn assert(&mut self, rulebase: &Rulebase, fact: Fact) -> FactHandle {
        let h = FactHandle(self.next_handle);
        self.next_handle += 1;
        let res = self.resolution(rulebase, &fact);
        self.facts.push(Some(Stored { fact, res }));
        self.live += 1;

        // Full recompute for rules where the fact feeds a negated
        // pattern (it may *deactivate* pending matches); a cheap delta
        // join for purely positive uses (it can only add activations).
        let mut full: Vec<usize> = Vec::new();
        let mut deltas: Vec<(usize, usize)> = Vec::new();
        let resolution = &self.resolutions[res];
        let values = self
            .facts
            .last()
            .and_then(Option::as_ref)
            .map_or(&[][..], |s| s.fact.values());
        for &a in &resolution.alphas {
            if !rulebase.passes(a, resolution, values) {
                continue;
            }
            self.alphas[a].push(h);
            for &(r, pos) in &rulebase.alphas[a].users {
                if !rulebase.compiled[r].patterns[pos].negated {
                    deltas.push((r, pos));
                } else if !full.contains(&r) {
                    full.push(r);
                }
            }
        }
        for &r in &full {
            self.recompute_rule(rulebase, r);
        }
        for (r, pos) in deltas {
            if !full.contains(&r) {
                self.delta_add(rulebase, r, pos, h);
            }
        }
        h
    }

    fn retract(&mut self, rulebase: &Rulebase, handle: FactHandle) -> Option<Fact> {
        let i = usize::try_from(handle.0.checked_sub(self.base)?).ok()?;
        let stored = self.facts.get_mut(i)?.take()?;
        self.live -= 1;
        let mut full: Vec<usize> = Vec::new();
        let mut positive: Vec<usize> = Vec::new();
        for &a in &self.resolutions[stored.res].alphas {
            let memory = &mut self.alphas[a];
            let Ok(at) = memory.binary_search(&handle) else {
                continue;
            };
            memory.remove(at);
            for &(r, pos) in &rulebase.alphas[a].users {
                let list = if rulebase.compiled[r].patterns[pos].negated {
                    &mut full
                } else {
                    &mut positive
                };
                if !list.contains(&r) {
                    list.push(r);
                }
            }
        }
        self.fired.retain(|(_, hs)| !hs.contains(&handle));
        for &r in &full {
            self.recompute_rule(rulebase, r);
        }
        for &r in &positive {
            if !full.contains(&r) {
                self.remove_activations_containing(rulebase, r, handle);
            }
        }
        Some(stored.fact)
    }

    /// Tests fact `h` against a pattern that its alpha node already
    /// accepted, under the environment `env`: the join constraints
    /// first, then the bindings, written into `env` in place (a variable
    /// already bound must agree). On `false`, `env` may hold some of the
    /// pattern's bindings and must be discarded.
    fn extend<'a>(
        &'a self,
        pattern: &CompiledPattern,
        h: FactHandle,
        env: &mut [Option<&'a Value>],
    ) -> bool {
        let Some(stored) = self.stored(h) else {
            return false;
        };
        let res = &self.resolutions[stored.res];
        let values = stored.fact.values();
        for &(field, cmp, var) in &pattern.joins {
            match (res.get(values, field), env[var]) {
                (Some(lhs), Some(rhs)) if cmp.apply(lhs, rhs) => {}
                _ => return false,
            }
        }
        for &(var, field) in &pattern.binds {
            let Some(v) = res.get(values, field) else {
                return false;
            };
            if env[var].is_some_and(|existing| existing != v) {
                return false;
            }
            env[var] = Some(v);
        }
        true
    }

    /// The indexed join: every fact tuple matching rule `idx`'s pattern
    /// conjunction with consistent bindings, each pattern scanning only
    /// its alpha memory. With `pin = Some((pos, h))`, pattern `pos` is
    /// restricted to the single fact `h` — the delta join used when `h`
    /// was just asserted, producing exactly the activations that involve
    /// it at that position.
    ///
    /// Partial matches are rows of two flat buffers — matched handles
    /// (one column per positive pattern so far) and the environment (one
    /// column per rule variable, borrowing fact values) — so extending a
    /// match allocates nothing.
    fn join(
        &self,
        rulebase: &Rulebase,
        idx: usize,
        pin: Option<(usize, FactHandle)>,
    ) -> Vec<Vec<FactHandle>> {
        let rule = &rulebase.compiled[idx];
        let width = rule.vars.len();
        let (mut handles, mut envs): (Vec<FactHandle>, Vec<Option<&Value>>) =
            (Vec::new(), vec![None; width]);
        let (mut rows, mut depth) = (1, 0);
        let mut scratch = vec![None; width];
        for (pos, pattern) in rule.patterns.iter().enumerate() {
            let memory = &self.alphas[pattern.alpha];
            let (mut next_handles, mut next_envs) = (Vec::new(), Vec::new());
            let mut next_rows = 0;
            for row in 0..rows {
                let matched = &handles[row * depth..(row + 1) * depth];
                let env = &envs[row * width..(row + 1) * width];
                if pattern.negated {
                    // Absence test: keep the partial match only if no
                    // candidate satisfies the pattern under these
                    // bindings.
                    let blocked = memory.iter().any(|&h| {
                        scratch.copy_from_slice(env);
                        self.extend(pattern, h, &mut scratch)
                    });
                    if !blocked {
                        next_handles.extend_from_slice(matched);
                        next_envs.extend_from_slice(env);
                        next_rows += 1;
                    }
                    continue;
                }
                let pinned;
                let candidates: &[FactHandle] = match pin {
                    Some((p, h)) if p == pos => {
                        pinned = [h];
                        &pinned
                    }
                    _ => memory,
                };
                for &h in candidates {
                    // A fact participates at most once per activation: the
                    // paper's nested-loop rule matches two *different*
                    // events with the same pattern shape.
                    if matched.contains(&h) {
                        continue;
                    }
                    let start = next_envs.len();
                    next_envs.extend_from_slice(env);
                    if self.extend(pattern, h, &mut next_envs[start..]) {
                        next_handles.extend_from_slice(matched);
                        next_handles.push(h);
                        next_rows += 1;
                    } else {
                        next_envs.truncate(start);
                    }
                }
            }
            (handles, envs, rows) = (next_handles, next_envs, next_rows);
            if !pattern.negated {
                depth += 1;
            }
            if rows == 0 {
                return Vec::new();
            }
        }
        if depth == 0 {
            // Only negated patterns: one empty tuple, if nothing blocked.
            return vec![Vec::new(); rows];
        }
        handles.chunks(depth).map(<[_]>::to_vec).collect()
    }

    /// The variable environment of an activation, as the report records
    /// it: each positive pattern's bindings applied in order, read from
    /// the matched facts.
    fn bindings(
        &self,
        rulebase: &Rulebase,
        idx: usize,
        handles: &[FactHandle],
    ) -> BTreeMap<String, Value> {
        let rule = &rulebase.compiled[idx];
        let positive = rule.patterns.iter().filter(|p| !p.negated);
        let mut env = BTreeMap::new();
        for (pattern, &h) in positive.zip(handles) {
            let stored = self.stored(h).expect("matched fact present");
            let res = &self.resolutions[stored.res];
            for &(var, field) in &pattern.binds {
                let v = res.get(stored.fact.values(), field).expect("bound field");
                env.insert(rule.vars[var].clone(), v.clone());
            }
        }
        env
    }

    /// Rebuilds rule `idx`'s conflict set from scratch (still via the
    /// alpha indexes) and reconciles the agenda. Used when a change may
    /// both add and remove activations — negated patterns, rule loading.
    fn recompute_rule(&mut self, rulebase: &Rulebase, idx: usize) {
        let salience = rulebase.rules()[idx].salience;
        for handles in std::mem::take(&mut self.conflict[idx]) {
            self.agenda
                .remove(&(Reverse(salience), idx, Reverse(handles)));
        }
        for handles in self.join(rulebase, idx, None) {
            self.insert_activation(salience, idx, handles);
        }
    }

    /// Adds to rule `idx` every activation involving just-asserted fact
    /// `h` at pattern position `pos`. Purely additive — existing
    /// activations of a rule without negated patterns cannot be
    /// invalidated by an assert.
    fn delta_add(&mut self, rulebase: &Rulebase, idx: usize, pos: usize, h: FactHandle) {
        let salience = rulebase.rules()[idx].salience;
        for handles in self.join(rulebase, idx, Some((pos, h))) {
            self.insert_activation(salience, idx, handles);
        }
    }

    /// Inserts one activation into the conflict set and agenda unless it
    /// already fired (refraction).
    fn insert_activation(&mut self, salience: i32, idx: usize, handles: Vec<FactHandle>) {
        if self.fired.contains(&(idx, handles.clone())) {
            return;
        }
        self.agenda
            .insert((Reverse(salience), idx, Reverse(handles.clone())));
        self.conflict[idx].insert(handles);
    }

    /// Drops every pending activation of rule `idx` whose matched tuple
    /// contains `h` (used when `h` is retracted).
    fn remove_activations_containing(&mut self, rulebase: &Rulebase, idx: usize, h: FactHandle) {
        let salience = rulebase.rules()[idx].salience;
        let dead: Vec<Vec<FactHandle>> = self.conflict[idx]
            .iter()
            .filter(|hs| hs.contains(&h))
            .cloned()
            .collect();
        for hs in dead {
            self.conflict[idx].remove(&hs);
            self.agenda.remove(&(Reverse(salience), idx, Reverse(hs)));
        }
    }

    fn run(&mut self, rulebase: &Rulebase, cycle_limit: usize) -> Result<RunReport> {
        let mut report = RunReport::default();
        while !self.agenda.is_empty() {
            if report.firings.len() >= cycle_limit {
                return Err(RuleError::CycleLimit {
                    limit: cycle_limit,
                    report: Box::new(report),
                });
            }
            let (_, idx, Reverse(handles)) = self.agenda.pop_first().expect("agenda not empty");
            self.conflict[idx].remove(&handles);
            self.fired.insert((idx, handles.clone()));

            let env = self.bindings(rulebase, idx, &handles);
            let matched: Vec<(FactHandle, Fact)> = handles
                .iter()
                .map(|&h| {
                    (
                        h,
                        self.stored(h).expect("matched fact present").fact.clone(),
                    )
                })
                .collect();
            let rule = &rulebase.rules()[idx];
            let mut ctx = RhsContext::new(&env, &matched, &rule.name);
            match &rule.action {
                Action::Native(f) => f(&mut ctx),
                Action::Interpreted(stmts) => {
                    let fact_bindings = &rulebase.compiled[idx].fact_bindings;
                    if let Err(e) = execute_interpreted(&mut ctx, stmts, &rule.name, fact_bindings)
                    {
                        return Err(e.with_partial_report(report));
                    }
                }
            }
            let RhsContext {
                printed,
                diagnoses,
                asserts,
                retracts,
                ..
            } = ctx;

            report.firings.push(FiringRecord {
                rule: rule.name.clone(),
                matched: handles,
                bindings: env,
            });
            report.printed.extend(printed);
            report.diagnoses.extend(diagnoses);

            // Apply buffered commands through the incremental paths so
            // the agenda tracks every working-memory change.
            for h in retracts {
                self.retract(rulebase, h);
            }
            for f in asserts {
                self.assert(rulebase, f);
            }
            report.cycles += 1;
        }
        Ok(report)
    }
}

/// Executes interpreted RHS statements into the context. Shared with
/// [`crate::reference::ReferenceEngine`] so both engines interpret rule
/// actions identically. The context's buffered commands are applied by
/// the caller only if every statement succeeds.
pub(crate) fn execute_interpreted(
    ctx: &mut RhsContext,
    statements: &[RhsStatement],
    rule_name: &str,
    fact_bindings: &[Option<String>],
) -> Result<()> {
    let unbound = |variable: &str| RuleError::UnboundVariable {
        rule: rule_name.to_string(),
        variable: variable.to_string(),
        report: Box::default(),
    };
    let eval = |expr: &crate::rule::RhsExpr, ctx: &RhsContext| -> Result<Value> {
        expr.eval(ctx.env).ok_or_else(|| {
            let mut vars = Vec::new();
            expr.variables(&mut vars);
            let missing = vars
                .into_iter()
                .find(|v| !ctx.env.contains_key(v))
                .unwrap_or_default();
            unbound(&missing)
        })
    };
    for stmt in statements {
        match stmt {
            RhsStatement::Print(parts) => {
                let mut line = String::new();
                for p in parts {
                    line.push_str(&eval(p, ctx)?.to_string());
                }
                ctx.print(line);
            }
            RhsStatement::Assert { fact_type, fields } => {
                let mut fact = Fact::new(fact_type.clone());
                for (name, expr) in fields {
                    let v = eval(expr, ctx)?;
                    fact.set(name, v);
                }
                ctx.assert_fact(fact);
            }
            RhsStatement::Retract(var) => {
                // The variable names a fact binding: find the pattern
                // that bound it and retract the corresponding fact.
                let handle = fact_bindings
                    .iter()
                    .position(|name| name.as_deref() == Some(var.as_str()))
                    .and_then(|i| ctx.matched.get(i))
                    .map(|(h, _)| *h);
                match handle {
                    Some(h) => ctx.retract(h),
                    None => return Err(unbound(var)),
                }
            }
            RhsStatement::Diagnose {
                category,
                message,
                severity,
                recommendation,
            } => {
                let cat = eval(category, ctx)?.to_string();
                let msg = eval(message, ctx)?.to_string();
                let sev = match severity {
                    Some(e) => eval(e, ctx)?.as_num(),
                    None => None,
                };
                let rec = match recommendation {
                    Some(e) => Some(eval(e, ctx)?.to_string()),
                    None => None,
                };
                let rule = ctx.rule_name.to_string();
                // Attach the firing environment explicitly so the
                // documented contract — consumers can recover which
                // event/trial the diagnosis is about — holds for
                // interpreted rules exactly as for native actions.
                let bindings = ctx.env.clone();
                ctx.diagnose(Diagnosis {
                    category: cat,
                    message: msg,
                    severity: sev,
                    recommendation: rec,
                    rule,
                    bindings,
                });
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::condition::{Comparator, Pattern};
    use crate::rule::Rule;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;

    fn high_severity_rule() -> Rule {
        Rule::builder("high severity")
            .when(
                Pattern::new("MeanEventFact")
                    .constrain("severity", Comparator::Gt, 0.1)
                    .bind("e", "eventName")
                    .bind("s", "severity"),
            )
            .then(|ctx| {
                let e = ctx.var("e").unwrap().to_string();
                ctx.print(format!("severe: {e}"));
            })
    }

    #[test]
    fn single_rule_fires_per_matching_fact() {
        let mut engine = Engine::new();
        engine.add_rule(high_severity_rule()).unwrap();
        engine.assert_fact(
            Fact::new("MeanEventFact")
                .with("severity", 0.5)
                .with("eventName", "a"),
        );
        engine.assert_fact(
            Fact::new("MeanEventFact")
                .with("severity", 0.05)
                .with("eventName", "b"),
        );
        engine.assert_fact(
            Fact::new("MeanEventFact")
                .with("severity", 0.2)
                .with("eventName", "c"),
        );
        let report = engine.run().unwrap();
        assert_eq!(report.firings.len(), 2);
        assert!(report.printed.contains(&"severe: a".to_string()));
        assert!(report.printed.contains(&"severe: c".to_string()));
    }

    #[test]
    fn refraction_prevents_refiring_on_second_run() {
        let mut engine = Engine::new();
        engine.add_rule(high_severity_rule()).unwrap();
        engine.assert_fact(
            Fact::new("MeanEventFact")
                .with("severity", 0.5)
                .with("eventName", "a"),
        );
        let first = engine.run().unwrap();
        assert_eq!(first.firings.len(), 1);
        let second = engine.run().unwrap();
        assert_eq!(second.firings.len(), 0);
        // A new equal fact is a new activation.
        engine.assert_fact(
            Fact::new("MeanEventFact")
                .with("severity", 0.5)
                .with("eventName", "a"),
        );
        let third = engine.run().unwrap();
        assert_eq!(third.firings.len(), 1);
    }

    #[test]
    fn salience_orders_firing() {
        let order = Arc::new(parking());
        fn parking() -> std::sync::Mutex<Vec<&'static str>> {
            std::sync::Mutex::new(Vec::new())
        }
        let o1 = order.clone();
        let o2 = order.clone();
        let mut engine = Engine::new();
        engine
            .add_rule(
                Rule::builder("low")
                    .salience(1)
                    .when(Pattern::new("T"))
                    .then(move |_| o1.lock().unwrap().push("low")),
            )
            .unwrap();
        engine
            .add_rule(
                Rule::builder("high")
                    .salience(10)
                    .when(Pattern::new("T"))
                    .then(move |_| o2.lock().unwrap().push("high")),
            )
            .unwrap();
        engine.assert_fact(Fact::new("T"));
        engine.run().unwrap();
        assert_eq!(*order.lock().unwrap(), vec!["high", "low"]);
    }

    #[test]
    fn chaining_asserted_facts_trigger_other_rules() {
        let mut engine = Engine::new();
        engine
            .add_rule(
                Rule::builder("producer")
                    .when(Pattern::new("Input").bind("v", "value"))
                    .then(|ctx| {
                        let v = ctx.var("v").cloned().unwrap();
                        ctx.assert_fact(Fact::new("Derived").with("value", v));
                    }),
            )
            .unwrap();
        engine
            .add_rule(
                Rule::builder("consumer")
                    .when(Pattern::new("Derived").bind("v", "value"))
                    .then(|ctx| {
                        let v = ctx.var("v").unwrap().to_string();
                        ctx.print(format!("derived {v}"));
                    }),
            )
            .unwrap();
        engine.assert_fact(Fact::new("Input").with("value", 7.0));
        let report = engine.run().unwrap();
        assert!(report.fired("producer"));
        assert!(report.fired("consumer"));
        assert_eq!(report.printed, vec!["derived 7"]);
    }

    #[test]
    fn join_across_patterns_with_binding() {
        let mut engine = Engine::new();
        engine
            .add_rule(
                Rule::builder("nested imbalance")
                    .when(
                        Pattern::new("Region")
                            .constrain("imbalanced", Comparator::Eq, true)
                            .bind("outer", "name"),
                    )
                    .when(
                        Pattern::new("Region")
                            .constrain("imbalanced", Comparator::Eq, true)
                            .constrain_var("parent", Comparator::Eq, "outer")
                            .bind("inner", "name"),
                    )
                    .then(|ctx| {
                        let o = ctx.var("outer").unwrap().to_string();
                        let i = ctx.var("inner").unwrap().to_string();
                        ctx.print(format!("{i} nested in {o}"));
                    }),
            )
            .unwrap();
        engine.assert_fact(
            Fact::new("Region")
                .with("name", "outer_loop")
                .with("parent", "main")
                .with("imbalanced", true),
        );
        engine.assert_fact(
            Fact::new("Region")
                .with("name", "inner_loop")
                .with("parent", "outer_loop")
                .with("imbalanced", true),
        );
        engine.assert_fact(
            Fact::new("Region")
                .with("name", "unrelated")
                .with("parent", "main")
                .with("imbalanced", false),
        );
        let report = engine.run().unwrap();
        assert_eq!(report.printed, vec!["inner_loop nested in outer_loop"]);
    }

    #[test]
    fn retraction_removes_fact_from_memory() {
        let mut engine = Engine::new();
        let h = engine.assert_fact(Fact::new("T").with("x", 1.0));
        assert_eq!(engine.fact_count(), 1);
        let f = engine.retract(h).unwrap();
        assert_eq!(f.get_num("x"), Some(1.0));
        assert_eq!(engine.fact_count(), 0);
        assert!(engine.retract(h).is_none());
    }

    #[test]
    fn native_retract_during_firing() {
        let mut engine = Engine::new();
        engine
            .add_rule(
                Rule::builder("consume")
                    .when(Pattern::new("Token").bind_fact("t"))
                    .then(|ctx| {
                        let (h, _) = ctx.matched[0];
                        ctx.retract(h);
                    }),
            )
            .unwrap();
        engine.assert_fact(Fact::new("Token"));
        engine.run().unwrap();
        assert_eq!(engine.fact_count(), 0);
    }

    #[test]
    fn cycle_limit_stops_runaway_rules() {
        let mut engine = Engine::new().with_cycle_limit(25);
        engine
            .add_rule(
                Rule::builder("runaway")
                    .when(Pattern::new("Seed").bind("n", "n"))
                    .then(|ctx| {
                        // Asserts a fresh Seed each firing: never settles.
                        let n = ctx.var("n").and_then(Value::as_num).unwrap_or(0.0);
                        ctx.assert_fact(Fact::new("Seed").with("n", n + 1.0));
                    }),
            )
            .unwrap();
        engine.assert_fact(Fact::new("Seed").with("n", 0.0));
        match engine.run() {
            Err(RuleError::CycleLimit { limit, report }) => {
                assert_eq!(limit, 25);
                // The partial report survives the limit: every firing up
                // to the budget is recorded, not discarded.
                assert_eq!(report.firings.len(), 25);
                assert_eq!(report.cycles, 25);
            }
            other => panic!("expected cycle limit, got {other:?}"),
        }
    }

    #[test]
    fn cycle_limit_error_carries_diagnoses() {
        let mut engine = Engine::new().with_cycle_limit(10);
        engine
            .add_rule(
                Rule::builder("diagnosing runaway")
                    .when(Pattern::new("Seed").bind("n", "n"))
                    .then(|ctx| {
                        let n = ctx.var("n").and_then(Value::as_num).unwrap_or(0.0);
                        ctx.diagnose(Diagnosis {
                            category: "loop".into(),
                            message: format!("iteration {n}"),
                            severity: None,
                            recommendation: None,
                            rule: ctx.rule_name.to_string(),
                            bindings: BTreeMap::new(),
                        });
                        ctx.assert_fact(Fact::new("Seed").with("n", n + 1.0));
                    }),
            )
            .unwrap();
        engine.assert_fact(Fact::new("Seed").with("n", 0.0));
        let Err(RuleError::CycleLimit { report, .. }) = engine.run() else {
            panic!("expected cycle limit");
        };
        assert_eq!(report.diagnoses.len(), 10);
        assert_eq!(report.diagnoses[0].message, "iteration 0");
        assert_eq!(report.diagnoses[9].message, "iteration 9");
    }

    #[test]
    fn failing_action_error_carries_earlier_firings() {
        let src = r#"
rule "first" salience 10
when
    T( x : x )
then
    print("x = " + x);
    diagnose("cat", "first saw " + x);
end

rule "broken"
when
    T( x : x )
then
    print("before");
    print("y = " + y);
end
"#;
        let mut engine = Engine::new();
        engine.add_rules(crate::drl::parse(src).unwrap()).unwrap();
        engine.assert_fact(Fact::new("T").with("x", 2.0));
        let Err(RuleError::UnboundVariable {
            rule,
            variable,
            report,
        }) = engine.run()
        else {
            panic!("expected an unbound variable");
        };
        assert_eq!((rule.as_str(), variable.as_str()), ("broken", "y"));
        // The failing firing contributes nothing, not even the line it
        // printed before failing.
        assert_eq!(report.printed, vec!["x = 2"]);
        assert_eq!(report.diagnoses[0].message, "first saw 2");
        assert_eq!(report.firings.len(), 1);
        assert_eq!(report.cycles, 1);
    }

    #[test]
    fn handles_stay_monotonic_across_reset() {
        let mut engine = Engine::new();
        engine.add_rule(high_severity_rule()).unwrap();
        let stale = engine.assert_fact(
            Fact::new("MeanEventFact")
                .with("severity", 0.9)
                .with("eventName", "old"),
        );
        engine.reset();
        let fresh = engine.assert_fact(
            Fact::new("MeanEventFact")
                .with("severity", 0.9)
                .with("eventName", "new"),
        );
        assert_ne!(stale, fresh, "handle counter must not restart");
        // A stale handle held across reset is dead, not an alias: using
        // it must not retract the new fact.
        assert!(engine.retract(stale).is_none());
        assert_eq!(engine.fact_count(), 1);
        let report = engine.run().unwrap();
        assert_eq!(report.printed, vec!["severe: new"]);
    }

    #[test]
    fn retract_purges_refraction_entries() {
        let mut engine = Engine::new();
        engine.add_rule(high_severity_rule()).unwrap();
        // A long-lived engine cycling facts through working memory must
        // not accumulate refraction entries for dead handles.
        for i in 0..50 {
            let h = engine.assert_fact(
                Fact::new("MeanEventFact")
                    .with("severity", 0.9)
                    .with("eventName", format!("e{i}")),
            );
            let report = engine.run().unwrap();
            assert_eq!(report.firings.len(), 1);
            assert_eq!(engine.refraction_len(), 1);
            engine.retract(h);
            assert_eq!(engine.refraction_len(), 0, "stale entry kept after retract");
        }
    }

    #[test]
    fn interpreted_diagnose_carries_bindings() {
        let src = r#"
rule "hot"
when
    MeanEventFact( severity > 0.1, e : eventName, v : severity )
then
    diagnose("hotspot", "region " + e + " is hot", v);
end
"#;
        let mut engine = Engine::new();
        engine.add_rules(crate::drl::parse(src).unwrap()).unwrap();
        engine.assert_fact(
            Fact::new("MeanEventFact")
                .with("severity", 0.5)
                .with("eventName", "pc"),
        );
        let report = engine.run().unwrap();
        let d = &report.diagnoses[0];
        assert_eq!(d.bindings.get("e"), Some(&Value::from("pc")));
        assert_eq!(d.bindings.get("v"), Some(&Value::from(0.5)));
    }

    #[test]
    fn rules_added_after_facts_see_existing_memory() {
        // The alpha memories for a late-loaded rule must be populated
        // from facts asserted before the rule existed.
        let mut engine = Engine::new();
        engine.assert_fact(
            Fact::new("MeanEventFact")
                .with("severity", 0.7)
                .with("eventName", "early"),
        );
        engine.add_rule(high_severity_rule()).unwrap();
        let report = engine.run().unwrap();
        assert_eq!(report.printed, vec!["severe: early"]);
    }

    #[test]
    fn assert_deactivates_pending_negated_match() {
        // An assert into a negatively-referenced alpha memory must
        // remove the pending activation before it fires.
        let mut engine = Engine::new();
        engine
            .add_rule(
                Rule::builder("quiet")
                    .when(Pattern::new("Probe"))
                    .when(Pattern::new("Noise").negate())
                    .then(|ctx| ctx.print("quiet")),
            )
            .unwrap();
        engine.assert_fact(Fact::new("Probe"));
        // Pending activation exists now; asserting Noise deactivates it.
        engine.assert_fact(Fact::new("Noise"));
        let report = engine.run().unwrap();
        assert!(report.printed.is_empty());
    }

    #[test]
    fn rule_of_only_negated_patterns_fires_on_absence() {
        let rulebase = Arc::new(
            Rulebase::compile(vec![Rule::builder("quiet")
                .when(Pattern::new("Noise").negate())
                .then(|ctx| ctx.print("quiet"))])
            .unwrap(),
        );
        let mut engine = Engine::with_rulebase(Arc::clone(&rulebase));
        assert_eq!(engine.run().unwrap().printed, vec!["quiet"]);
        assert!(engine.run().unwrap().firings.is_empty(), "refraction");
        // A reset memory is empty again, and so are engines over the
        // compiled rulebase.
        engine.reset();
        assert_eq!(engine.run().unwrap().printed, vec!["quiet"]);
        let mut fresh = Engine::with_rulebase(rulebase);
        assert_eq!(fresh.run().unwrap().printed, vec!["quiet"]);
        engine.reset();
        engine.assert_fact(Fact::new("Noise"));
        assert!(engine.run().unwrap().firings.is_empty());
    }

    #[test]
    fn duplicate_rule_name_rejected() {
        let mut engine = Engine::new();
        engine.add_rule(high_severity_rule()).unwrap();
        assert!(matches!(
            engine.add_rule(high_severity_rule()),
            Err(RuleError::DuplicateRule(_))
        ));
    }

    #[test]
    fn reset_clears_memory_but_keeps_rules() {
        let mut engine = Engine::new();
        engine.add_rule(high_severity_rule()).unwrap();
        engine.assert_fact(
            Fact::new("MeanEventFact")
                .with("severity", 0.9)
                .with("eventName", "x"),
        );
        engine.run().unwrap();
        engine.reset();
        assert_eq!(engine.fact_count(), 0);
        assert_eq!(engine.rule_count(), 1);
        engine.assert_fact(
            Fact::new("MeanEventFact")
                .with("severity", 0.9)
                .with("eventName", "x"),
        );
        let report = engine.run().unwrap();
        assert_eq!(report.firings.len(), 1, "refraction memory was cleared");
    }

    #[test]
    fn firing_records_capture_bindings() {
        let mut engine = Engine::new();
        engine.add_rule(high_severity_rule()).unwrap();
        engine.assert_fact(
            Fact::new("MeanEventFact")
                .with("severity", 0.5)
                .with("eventName", "a"),
        );
        let report = engine.run().unwrap();
        let rec = &report.firings[0];
        assert_eq!(rec.rule, "high severity");
        assert_eq!(rec.bindings.get("e"), Some(&Value::from("a")));
        assert_eq!(rec.bindings.get("s"), Some(&Value::from(0.5)));
        assert_eq!(rec.matched.len(), 1);
    }

    #[test]
    fn same_fact_cannot_fill_two_patterns() {
        let count = Arc::new(AtomicUsize::new(0));
        let c = count.clone();
        let mut engine = Engine::new();
        engine
            .add_rule(
                Rule::builder("pair")
                    .when(Pattern::new("T"))
                    .when(Pattern::new("T"))
                    .then(move |_| {
                        c.fetch_add(1, Ordering::SeqCst);
                    }),
            )
            .unwrap();
        engine.assert_fact(Fact::new("T"));
        engine.run().unwrap();
        assert_eq!(count.load(Ordering::SeqCst), 0, "single fact, two patterns");
        engine.assert_fact(Fact::new("T"));
        engine.run().unwrap();
        // Two facts, ordered pairs (a,b) and (b,a).
        assert_eq!(count.load(Ordering::SeqCst), 2);
    }
}
