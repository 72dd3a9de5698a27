//! Parser for the textual rule language.
//!
//! The syntax is a Drools-flavoured subset sufficient for the paper's
//! knowledge bases (compare Figure 2 of the paper):
//!
//! ```text
//! rule "Stalls per Cycle"
//! salience 10
//! when
//!     f : MeanEventFact( metric == "(BACK_END_BUBBLE_ALL / CPU_CYCLES)",
//!                        severity > 0.10,
//!                        e : eventName, a : mainValue, v : eventValue )
//! then
//!     print("Event " + e + " has a higher than average stall / cycle rate");
//!     print("\tAverage stall / cycle: " + a);
//!     diagnose("stalls", "Event " + e + " stalls often", v);
//!     assert Followup( eventName : e );
//!     retract(f);
//! end
//! ```
//!
//! * A constraint is `field <op> literal` or `field <op> variable`.
//! * A lone `var : field` inside the parentheses binds a variable.
//! * `f : Type( ... )` binds the fact itself, enabling `retract(f)`.
//! * RHS statements: `print(expr)`, `assert Type(field : expr, ...)`,
//!   `retract(var)` and `diagnose(category, message [, severity [, recommendation]])`.
//! * Expressions are literals and variables joined with `+`.
//! * `//` line comments are allowed anywhere.

use crate::condition::{Comparator, Constraint, Operand, Pattern};
use crate::rule::{Action, RhsExpr, RhsStatement, Rule};
use crate::value::Value;
use crate::{Result, RuleError};
use std::borrow::Cow;

/// A token, borrowing its text from the source: only a string literal
/// with an escape owns a copy.
#[derive(Debug, Clone, PartialEq)]
enum Tok<'a> {
    Ident(&'a str),
    Str(Cow<'a, str>),
    Num(f64),
    Sym(&'static str),
}

struct Lexer<'a> {
    text: &'a str,
    src: &'a [u8],
    pos: usize,
    line: usize,
}

impl<'a> Lexer<'a> {
    fn new(src: &'a str) -> Self {
        Lexer {
            text: src,
            src: src.as_bytes(),
            pos: 0,
            line: 1,
        }
    }

    fn error(&self, message: impl Into<String>) -> RuleError {
        RuleError::Parse {
            line: self.line,
            message: message.into(),
        }
    }

    fn skip_ws(&mut self) {
        while self.pos < self.src.len() {
            let c = self.src[self.pos];
            if c == b'\n' {
                self.line += 1;
                self.pos += 1;
            } else if c.is_ascii_whitespace() {
                self.pos += 1;
            } else if c == b'/' && self.src.get(self.pos + 1) == Some(&b'/') {
                while self.pos < self.src.len() && self.src[self.pos] != b'\n' {
                    self.pos += 1;
                }
            } else {
                break;
            }
        }
    }

    /// Produces the next token, or `None` at end of input.
    fn next(&mut self) -> Result<Option<(Tok<'a>, usize)>> {
        self.skip_ws();
        if self.pos >= self.src.len() {
            return Ok(None);
        }
        let line = self.line;
        let c = self.src[self.pos];
        if c == b'"' {
            self.pos += 1;
            let start = self.pos;
            // The literal's bytes once it has an escape; until then it
            // is the source slice from `start`.
            let mut unescaped: Option<Vec<u8>> = None;
            loop {
                if self.pos >= self.src.len() {
                    return Err(self.error("unterminated string"));
                }
                let c = self.src[self.pos];
                self.pos += 1;
                match c {
                    b'"' => break,
                    b'\\' => {
                        let esc = *self
                            .src
                            .get(self.pos)
                            .ok_or_else(|| self.error("dangling escape"))?;
                        self.pos += 1;
                        let byte = match esc {
                            b'n' => b'\n',
                            b't' => b'\t',
                            b'"' => b'"',
                            b'\\' => b'\\',
                            other => {
                                return Err(
                                    self.error(format!("unknown escape \\{}", other as char))
                                )
                            }
                        };
                        let before = &self.src[start..self.pos - 2];
                        unescaped.get_or_insert_with(|| before.to_vec()).push(byte);
                    }
                    b'\n' => return Err(self.error("newline in string")),
                    other => {
                        if let Some(bytes) = unescaped.as_mut() {
                            bytes.push(other);
                        }
                    }
                }
            }
            let s = match unescaped {
                None => Cow::Borrowed(&self.text[start..self.pos - 1]),
                // Escapes are ASCII and every other byte is copied from
                // the source text, so the bytes stay UTF-8.
                Some(bytes) => Cow::Owned(String::from_utf8(bytes).expect("UTF-8 literal")),
            };
            return Ok(Some((Tok::Str(s), line)));
        }
        if c.is_ascii_digit()
            || (c == b'-' && self.src.get(self.pos + 1).is_some_and(u8::is_ascii_digit))
        {
            let start = self.pos;
            self.pos += 1;
            while self.pos < self.src.len()
                && (self.src[self.pos].is_ascii_digit()
                    || self.src[self.pos] == b'.'
                    || self.src[self.pos] == b'e'
                    || self.src[self.pos] == b'E'
                    || (matches!(self.src[self.pos], b'+' | b'-')
                        && matches!(self.src[self.pos - 1], b'e' | b'E')))
            {
                self.pos += 1;
            }
            let text = std::str::from_utf8(&self.src[start..self.pos]).expect("ascii");
            let n: f64 = text
                .parse()
                .map_err(|_| self.error(format!("bad number {text:?}")))?;
            return Ok(Some((Tok::Num(n), line)));
        }
        if c.is_ascii_alphabetic() || c == b'_' {
            let start = self.pos;
            while self.pos < self.src.len()
                && (self.src[self.pos].is_ascii_alphanumeric() || self.src[self.pos] == b'_')
            {
                self.pos += 1;
            }
            return Ok(Some((Tok::Ident(&self.text[start..self.pos]), line)));
        }
        // Symbols, longest first.
        for sym in [
            "==", "!=", "<=", ">=", "(", ")", ",", ":", ";", "+", "<", ">",
        ] {
            if self.src[self.pos..].starts_with(sym.as_bytes()) {
                self.pos += sym.len();
                return Ok(Some((Tok::Sym(sym), line)));
            }
        }
        Err(self.error(format!("unexpected character {:?}", c as char)))
    }
}

struct Parser<'a> {
    tokens: Vec<(Tok<'a>, usize)>,
    pos: usize,
}

impl<'a> Parser<'a> {
    fn error_at(&self, message: impl Into<String>) -> RuleError {
        let line = self
            .tokens
            .get(self.pos.min(self.tokens.len().saturating_sub(1)))
            .map(|(_, l)| *l)
            .unwrap_or(0);
        RuleError::Parse {
            line,
            message: message.into(),
        }
    }

    fn peek(&self) -> Option<&Tok<'a>> {
        self.tokens.get(self.pos).map(|(t, _)| t)
    }

    fn next(&mut self) -> Result<Tok<'a>> {
        let t = self
            .tokens
            .get(self.pos)
            .map(|(t, _)| t.clone())
            .ok_or_else(|| self.error_at("unexpected end of input"))?;
        self.pos += 1;
        Ok(t)
    }

    fn expect_sym(&mut self, sym: &str) -> Result<()> {
        match self.next()? {
            Tok::Sym(s) if s == sym => Ok(()),
            other => Err(self.error_at(format!("expected {sym:?}, found {other:?}"))),
        }
    }

    fn expect_ident(&mut self, word: &str) -> Result<()> {
        match self.next()? {
            Tok::Ident(s) if s == word => Ok(()),
            other => Err(self.error_at(format!("expected {word:?}, found {other:?}"))),
        }
    }

    fn ident(&mut self) -> Result<String> {
        match self.next()? {
            Tok::Ident(s) => Ok(s.to_string()),
            other => Err(self.error_at(format!("expected identifier, found {other:?}"))),
        }
    }

    fn at_sym(&self, sym: &str) -> bool {
        matches!(self.peek(), Some(Tok::Sym(s)) if *s == sym)
    }

    fn at_ident(&self, word: &str) -> bool {
        matches!(self.peek(), Some(Tok::Ident(s)) if *s == word)
    }

    /// `rule "Name" [salience N] when <patterns> then <stmts> end`
    fn rule(&mut self) -> Result<Rule> {
        self.expect_ident("rule")?;
        let name = match self.next()? {
            Tok::Str(s) => s.into_owned(),
            other => return Err(self.error_at(format!("expected rule name, found {other:?}"))),
        };
        let mut salience = 0i32;
        if self.at_ident("salience") {
            self.next()?;
            match self.next()? {
                Tok::Num(n) => salience = n as i32,
                other => {
                    return Err(self.error_at(format!("expected salience number, found {other:?}")))
                }
            }
        }
        self.expect_ident("when")?;
        let mut patterns = Vec::new();
        while !self.at_ident("then") {
            patterns.push(self.pattern()?);
        }
        self.expect_ident("then")?;
        let mut statements = Vec::new();
        while !self.at_ident("end") {
            statements.push(self.statement()?);
        }
        self.expect_ident("end")?;
        if patterns.is_empty() {
            return Err(self.error_at(format!("rule {name:?} has no patterns")));
        }
        Ok(Rule {
            name,
            salience,
            patterns,
            action: Action::Interpreted(statements),
        })
    }

    /// `[not] [binding :] Type ( item, item, ... )`
    fn pattern(&mut self) -> Result<Pattern> {
        let negated = self.at_ident("not");
        if negated {
            self.next()?;
        }
        let first = self.ident()?;
        let (fact_binding, fact_type) = if self.at_sym(":") {
            self.next()?;
            (Some(first), self.ident()?)
        } else {
            (None, first)
        };
        let mut pattern = Pattern::new(fact_type);
        pattern.fact_binding = fact_binding;
        self.expect_sym("(")?;
        if !self.at_sym(")") {
            loop {
                self.pattern_item(&mut pattern)?;
                if self.at_sym(",") {
                    self.next()?;
                } else {
                    break;
                }
            }
        }
        self.expect_sym(")")?;
        pattern.negated = negated;
        if negated && pattern.fact_binding.is_some() {
            return Err(self.error_at("a negated pattern cannot bind the fact"));
        }
        Ok(pattern)
    }

    /// Either `var : field` (binding) or `field <op> operand` (constraint).
    fn pattern_item(&mut self, pattern: &mut Pattern) -> Result<()> {
        let first = self.ident()?;
        if self.at_sym(":") {
            self.next()?;
            let field = self.ident()?;
            pattern.bindings.push((first, field));
            return Ok(());
        }
        let cmp = match self.next()? {
            Tok::Sym(s) => match s {
                "==" => Comparator::Eq,
                "!=" => Comparator::Ne,
                "<" => Comparator::Lt,
                "<=" => Comparator::Le,
                ">" => Comparator::Gt,
                ">=" => Comparator::Ge,
                other => return Err(self.error_at(format!("unknown comparator {other:?}"))),
            },
            Tok::Ident(w) => match w {
                "contains" => Comparator::Contains,
                "startsWith" => Comparator::StartsWith,
                other => return Err(self.error_at(format!("unknown comparator {other:?}"))),
            },
            other => return Err(self.error_at(format!("expected comparator, found {other:?}"))),
        };
        let rhs = match self.next()? {
            Tok::Str(s) => Operand::Literal(Value::from(&*s)),
            Tok::Num(n) => Operand::Literal(Value::Num(n)),
            Tok::Ident("true") => Operand::Literal(Value::Bool(true)),
            Tok::Ident("false") => Operand::Literal(Value::Bool(false)),
            Tok::Ident(var) => Operand::Binding(var.to_string()),
            other => return Err(self.error_at(format!("expected operand, found {other:?}"))),
        };
        pattern.constraints.push(Constraint {
            field: first,
            cmp,
            rhs,
        });
        Ok(())
    }

    /// `lit | var (+ lit | var)*`
    fn expr(&mut self) -> Result<RhsExpr> {
        let mut acc = self.expr_atom()?;
        while self.at_sym("+") {
            self.next()?;
            let rhs = self.expr_atom()?;
            acc = RhsExpr::Add(Box::new(acc), Box::new(rhs));
        }
        Ok(acc)
    }

    fn expr_atom(&mut self) -> Result<RhsExpr> {
        match self.next()? {
            Tok::Str(s) => Ok(RhsExpr::Literal(Value::from(&*s))),
            Tok::Num(n) => Ok(RhsExpr::Literal(Value::Num(n))),
            Tok::Ident("true") => Ok(RhsExpr::Literal(Value::Bool(true))),
            Tok::Ident("false") => Ok(RhsExpr::Literal(Value::Bool(false))),
            Tok::Ident(var) => Ok(RhsExpr::Var(var.to_string())),
            other => Err(self.error_at(format!("expected expression, found {other:?}"))),
        }
    }

    /// One RHS statement, semicolon-terminated.
    fn statement(&mut self) -> Result<RhsStatement> {
        let word = self.ident()?;
        let stmt = match word.as_str() {
            "print" => {
                self.expect_sym("(")?;
                let e = self.expr()?;
                self.expect_sym(")")?;
                RhsStatement::Print(vec![e])
            }
            "retract" => {
                self.expect_sym("(")?;
                let var = self.ident()?;
                self.expect_sym(")")?;
                RhsStatement::Retract(var)
            }
            "diagnose" => {
                self.expect_sym("(")?;
                let category = self.expr()?;
                self.expect_sym(",")?;
                let message = self.expr()?;
                let severity = if self.at_sym(",") {
                    self.next()?;
                    Some(self.expr()?)
                } else {
                    None
                };
                let recommendation = if self.at_sym(",") {
                    self.next()?;
                    Some(self.expr()?)
                } else {
                    None
                };
                self.expect_sym(")")?;
                RhsStatement::Diagnose {
                    category,
                    message,
                    severity,
                    recommendation,
                }
            }
            "assert" => {
                let fact_type = self.ident()?;
                self.expect_sym("(")?;
                let mut fields = Vec::new();
                if !self.at_sym(")") {
                    loop {
                        let name = self.ident()?;
                        self.expect_sym(":")?;
                        let e = self.expr()?;
                        fields.push((name, e));
                        if self.at_sym(",") {
                            self.next()?;
                        } else {
                            break;
                        }
                    }
                }
                self.expect_sym(")")?;
                RhsStatement::Assert { fact_type, fields }
            }
            other => {
                return Err(self.error_at(format!("unknown statement {other:?}")));
            }
        };
        self.expect_sym(";")?;
        Ok(stmt)
    }
}

/// Parses a rule file into its rules.
pub fn parse(source: &str) -> Result<Vec<Rule>> {
    let mut lexer = Lexer::new(source);
    let mut tokens = Vec::new();
    while let Some(tok) = lexer.next()? {
        tokens.push(tok);
    }
    let mut parser = Parser { tokens, pos: 0 };
    let mut rules = Vec::new();
    while parser.peek().is_some() {
        rules.push(parser.rule()?);
    }
    Ok(rules)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::Engine;
    use crate::fact::Fact;

    const STALLS_RULE: &str = r#"
// Derived from the paper's Figure 2.
rule "Stalls per Cycle"
when
    f : MeanEventFact( metric == "(BACK_END_BUBBLE_ALL / CPU_CYCLES)",
                       higherLower == "higher",
                       severity > 0.10,
                       e : eventName, a : mainValue, v : eventValue,
                       factType == "Compared to Main" )
then
    print("Event " + e + " has a higher than average stall / cycle rate");
    print("\tAverage stall / cycle: " + a);
    print("\tEvent stall / cycle: " + v);
    print("\tPercentage of total runtime: " + s_unused_placeholder_not_used);
end
"#;

    #[test]
    fn parses_paper_figure_two_shape() {
        // Trim the last print which references an unbound var on purpose
        // in the constant above; parse a corrected version here.
        let src = STALLS_RULE.replace(
            "print(\"\\tPercentage of total runtime: \" + s_unused_placeholder_not_used);",
            "",
        );
        let rules = parse(&src).unwrap();
        assert_eq!(rules.len(), 1);
        let r = &rules[0];
        assert_eq!(r.name, "Stalls per Cycle");
        assert_eq!(r.patterns.len(), 1);
        let p = &r.patterns[0];
        assert_eq!(p.fact_type, "MeanEventFact");
        assert_eq!(p.fact_binding.as_deref(), Some("f"));
        assert_eq!(p.constraints.len(), 4);
        assert_eq!(p.bindings.len(), 3);
    }

    #[test]
    fn unbound_rhs_variable_is_runtime_error() {
        let rules = parse(STALLS_RULE).unwrap();
        let mut engine = Engine::new();
        engine.add_rules(rules).unwrap();
        engine.assert_fact(
            Fact::new("MeanEventFact")
                .with("metric", "(BACK_END_BUBBLE_ALL / CPU_CYCLES)")
                .with("higherLower", "higher")
                .with("severity", 0.31)
                .with("eventName", "matxvec")
                .with("mainValue", 0.2)
                .with("eventValue", 0.6)
                .with("factType", "Compared to Main"),
        );
        assert!(matches!(
            engine.run(),
            Err(RuleError::UnboundVariable { .. })
        ));
    }

    #[test]
    fn end_to_end_fire_and_print() {
        let src = r#"
rule "hot"
when
    MeanEventFact( severity > 0.1, e : eventName, v : severity )
then
    print("hot: " + e + " at " + v);
    diagnose("hotspot", "region " + e + " is hot", v, "optimize " + e);
end
"#;
        let mut engine = Engine::new();
        engine.add_rules(parse(src).unwrap()).unwrap();
        engine.assert_fact(
            Fact::new("MeanEventFact")
                .with("severity", 0.5)
                .with("eventName", "pc_jac_glb"),
        );
        let report = engine.run().unwrap();
        assert_eq!(report.printed, vec!["hot: pc_jac_glb at 0.5"]);
        assert_eq!(report.diagnoses.len(), 1);
        let d = &report.diagnoses[0];
        assert_eq!(d.category, "hotspot");
        assert_eq!(d.severity, Some(0.5));
        assert_eq!(d.recommendation.as_deref(), Some("optimize pc_jac_glb"));
        assert_eq!(d.rule, "hot");
    }

    #[test]
    fn assert_and_retract_statements() {
        let src = r#"
rule "promote" salience 10
when
    t : Token( v : value )
then
    assert Promoted( value : v, doubled : v + v );
    retract(t);
end

rule "consume"
when
    Promoted( d : doubled )
then
    print("got " + d);
end
"#;
        let mut engine = Engine::new();
        engine.add_rules(parse(src).unwrap()).unwrap();
        engine.assert_fact(Fact::new("Token").with("value", 21.0));
        let report = engine.run().unwrap();
        assert_eq!(report.printed, vec!["got 42"]);
        // Token was retracted; only Promoted remains.
        assert_eq!(engine.fact_count(), 1);
        let remaining: Vec<_> = engine
            .facts()
            .map(|(_, f)| f.fact_type().to_string())
            .collect();
        assert_eq!(remaining, vec!["Promoted"]);
    }

    #[test]
    fn join_via_shared_variable() {
        let src = r#"
rule "parent child"
when
    Region( kind == "outer", name : n )
    Region( kind == "inner", parent == n, inner_name : m )
then
    print(m + " inside " + n);
end
"#;
        // NOTE: `name : n` binds var `name` to field `n`? No — syntax is
        // `var : field`, so `name : n` binds variable "name" to field "n".
        // Use the right orientation in this test.
        let src = src
            .replace("name : n", "n : name")
            .replace("inner_name : m", "m : name");
        let mut engine = Engine::new();
        engine.add_rules(parse(&src).unwrap()).unwrap();
        engine.assert_fact(Fact::new("Region").with("kind", "outer").with("name", "A"));
        engine.assert_fact(
            Fact::new("Region")
                .with("kind", "inner")
                .with("name", "B")
                .with("parent", "A"),
        );
        engine.assert_fact(
            Fact::new("Region")
                .with("kind", "inner")
                .with("name", "C")
                .with("parent", "X"),
        );
        let report = engine.run().unwrap();
        assert_eq!(report.printed, vec!["B inside A"]);
    }

    #[test]
    fn salience_is_parsed() {
        let rules = parse("rule \"r\" salience 42 when T( ) then end").unwrap();
        assert_eq!(rules[0].salience, 42);
        let neg = parse("rule \"r\" salience -3 when T( ) then end").unwrap();
        assert_eq!(neg[0].salience, -3);
    }

    #[test]
    fn comment_and_multiple_rules() {
        let src = r#"
// knowledge base
rule "a" when T( ) then end
rule "b" when T( ) then end
"#;
        let rules = parse(src).unwrap();
        assert_eq!(rules.len(), 2);
        assert_eq!(rules[0].name, "a");
        assert_eq!(rules[1].name, "b");
    }

    #[test]
    fn parse_errors_carry_line_numbers() {
        let src = "rule \"x\"\nwhen\n  T( field !!! 3 )\nthen\nend";
        match parse(src) {
            Err(RuleError::Parse { line, .. }) => assert!(line >= 2),
            other => panic!("expected parse error, got {other:?}"),
        }
    }

    #[test]
    fn rejects_empty_when() {
        assert!(parse("rule \"x\" when then end").is_err());
    }

    #[test]
    fn rejects_unterminated_string_and_bad_tokens() {
        assert!(parse("rule \"x").is_err());
        assert!(parse("rule \"x\" when T( a == @ ) then end").is_err());
        assert!(parse("rule \"x\" when T( ) then frobnicate(); end").is_err());
    }

    #[test]
    fn string_escapes() {
        let rules = parse("rule \"r\" when T( ) then print(\"a\\tb\\n\\\"q\\\"\"); end").unwrap();
        let mut engine = Engine::new();
        engine.add_rules(rules).unwrap();
        engine.assert_fact(Fact::new("T"));
        let report = engine.run().unwrap();
        assert_eq!(report.printed, vec!["a\tb\n\"q\""]);
    }

    #[test]
    fn string_literals_keep_their_utf8_text() {
        // A literal is borrowed from the source until its first escape
        // and copied byte for byte after it: neither path may split a
        // multi-byte character.
        let src = "rule \"r\" when T( name == \"café\" ) then print(\"é\\t→\" + \"ü\"); end";
        let mut engine = Engine::new();
        engine.add_rules(parse(src).unwrap()).unwrap();
        engine.assert_fact(Fact::new("T").with("name", "café"));
        let report = engine.run().unwrap();
        assert_eq!(report.printed, vec!["é\t→ü"]);
    }

    #[test]
    fn boolean_and_comparator_variants() {
        let src = r#"
rule "flags"
when
    F( enabled == true, count >= 2, name startsWith "pc_", tag contains "glb" )
then
    print("ok");
end
"#;
        let mut engine = Engine::new();
        engine.add_rules(parse(src).unwrap()).unwrap();
        engine.assert_fact(
            Fact::new("F")
                .with("enabled", true)
                .with("count", 2.0)
                .with("name", "pc_jac")
                .with("tag", "x_glb_y"),
        );
        let report = engine.run().unwrap();
        assert_eq!(report.printed, vec!["ok"]);
    }
}

/// Renders a value as DRL source.
fn value_to_drl(v: &Value) -> String {
    match v {
        Value::Str(s) => format!(
            "\"{}\"",
            s.replace('\\', "\\\\")
                .replace('"', "\\\"")
                .replace('\n', "\\n")
                .replace('\t', "\\t")
        ),
        Value::Num(n) => {
            if n.fract() == 0.0 && n.abs() < 1e15 {
                format!("{}", *n as i64)
            } else {
                format!("{n}")
            }
        }
        Value::Bool(b) => b.to_string(),
    }
}

fn expr_to_drl(e: &RhsExpr) -> String {
    match e {
        RhsExpr::Literal(v) => value_to_drl(v),
        RhsExpr::Var(name) => name.clone(),
        RhsExpr::Add(a, b) => format!("{} + {}", expr_to_drl(a), expr_to_drl(b)),
    }
}

fn comparator_to_drl(c: Comparator) -> &'static str {
    match c {
        Comparator::Eq => "==",
        Comparator::Ne => "!=",
        Comparator::Lt => "<",
        Comparator::Le => "<=",
        Comparator::Gt => ">",
        Comparator::Ge => ">=",
        Comparator::Contains => "contains",
        Comparator::StartsWith => "startsWith",
    }
}

/// Renders rules back to the textual language — the inverse of
/// [`parse`] for rules with interpreted actions. Native-action rules
/// cannot be rendered and produce an error.
pub fn to_drl(rules: &[Rule]) -> Result<String> {
    let mut out = String::new();
    for rule in rules {
        let Action::Interpreted(statements) = &rule.action else {
            return Err(RuleError::Parse {
                line: 0,
                message: format!("rule {:?} has a native action", rule.name),
            });
        };
        out.push_str(&format!("rule \"{}\"", rule.name));
        if rule.salience != 0 {
            out.push_str(&format!(" salience {}", rule.salience));
        }
        out.push_str("\nwhen\n");
        for p in &rule.patterns {
            out.push_str("    ");
            if p.negated {
                out.push_str("not ");
            }
            if let Some(b) = &p.fact_binding {
                out.push_str(&format!("{b} : "));
            }
            out.push_str(&p.fact_type);
            out.push_str("( ");
            let mut items: Vec<String> = Vec::new();
            for c in &p.constraints {
                let rhs = match &c.rhs {
                    Operand::Literal(v) => value_to_drl(v),
                    Operand::Binding(var) => var.clone(),
                };
                items.push(format!("{} {} {}", c.field, comparator_to_drl(c.cmp), rhs));
            }
            for (var, field) in &p.bindings {
                items.push(format!("{var} : {field}"));
            }
            out.push_str(&items.join(", "));
            out.push_str(" )\n");
        }
        out.push_str("then\n");
        for stmt in statements {
            out.push_str("    ");
            match stmt {
                RhsStatement::Print(parts) => {
                    let text = parts
                        .iter()
                        .map(expr_to_drl)
                        .collect::<Vec<_>>()
                        .join(" + ");
                    out.push_str(&format!("print({text});"));
                }
                RhsStatement::Retract(var) => out.push_str(&format!("retract({var});")),
                RhsStatement::Assert { fact_type, fields } => {
                    let inner = fields
                        .iter()
                        .map(|(n, e)| format!("{n} : {}", expr_to_drl(e)))
                        .collect::<Vec<_>>()
                        .join(", ");
                    out.push_str(&format!("assert {fact_type}( {inner} );"));
                }
                RhsStatement::Diagnose {
                    category,
                    message,
                    severity,
                    recommendation,
                } => {
                    let mut args = vec![expr_to_drl(category), expr_to_drl(message)];
                    if let Some(s) = severity {
                        args.push(expr_to_drl(s));
                    }
                    if let Some(r) = recommendation {
                        args.push(expr_to_drl(r));
                    }
                    out.push_str(&format!("diagnose({});", args.join(", ")));
                }
            }
            out.push('\n');
        }
        out.push_str("end\n\n");
    }
    Ok(out)
}

#[cfg(test)]
mod printer_tests {
    use super::*;

    /// Structural comparison ignoring action closures.
    fn assert_rules_equal(a: &[Rule], b: &[Rule]) {
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(b) {
            assert_eq!(x.name, y.name);
            assert_eq!(x.salience, y.salience);
            assert_eq!(x.patterns, y.patterns);
            match (&x.action, &y.action) {
                (Action::Interpreted(s1), Action::Interpreted(s2)) => assert_eq!(s1, s2),
                _ => panic!("expected interpreted actions"),
            }
        }
    }

    #[test]
    fn print_parse_roundtrip_on_complex_rule() {
        let src = r#"
rule "everything" salience -3
when
    f : A( x > 0.5, name == "weird \"quoted\"\n", tag contains "glb", v : value )
    not B( parent == v )
    C( flag == true, w : weight )
then
    print("got " + v + " and " + w);
    assert D( value : v, doubled : v + v );
    diagnose("cat", "msg " + v, 0.5, "fix it");
    retract(f);
end
"#;
        let parsed = parse(src).unwrap();
        let printed = to_drl(&parsed).unwrap();
        let reparsed = parse(&printed).unwrap_or_else(|e| panic!("reparse failed: {e}\n{printed}"));
        assert_rules_equal(&parsed, &reparsed);
    }

    #[test]
    fn shipped_style_rules_roundtrip() {
        // A rule shaped like the Figure 2 rule survives the roundtrip.
        let src = r#"
rule "Stalls per Cycle"
when
    MeanEventFact( metric == "(BACK_END_BUBBLE_ALL / CPU_CYCLES)",
                   higherLower == "higher", severity > 0.10,
                   e : eventName, v : eventValue )
then
    print("Event " + e + " has a higher than average stall / cycle rate");
    diagnose("stalls", "Event " + e + " stalls often", v);
end
"#;
        let parsed = parse(src).unwrap();
        let printed = to_drl(&parsed).unwrap();
        let reparsed = parse(&printed).unwrap();
        assert_rules_equal(&parsed, &reparsed);
    }

    #[test]
    fn native_rules_cannot_print() {
        let rule = crate::Rule::builder("n")
            .when(crate::Pattern::new("T"))
            .then(|_| {});
        assert!(to_drl(&[rule]).is_err());
    }
}
