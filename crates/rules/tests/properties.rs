//! Property-based tests for the rule engine.

use proptest::prelude::*;
use rules::{Comparator, Engine, Fact, Pattern, Rule};

proptest! {
    /// A threshold rule fires exactly once per fact above the threshold.
    #[test]
    fn threshold_rule_fires_once_per_match(
        severities in prop::collection::vec(0.0f64..1.0, 0..24),
        threshold in 0.1f64..0.9,
    ) {
        let mut engine = Engine::new();
        engine
            .add_rule(
                Rule::builder("threshold")
                    .when(Pattern::new("F").constrain("s", Comparator::Gt, threshold))
                    .then(|_| {}),
            )
            .unwrap();
        for &s in &severities {
            engine.assert_fact(Fact::new("F").with("s", s));
        }
        let report = engine.run().unwrap();
        let expected = severities.iter().filter(|&&s| s > threshold).count();
        prop_assert_eq!(report.firings.len(), expected);
        // Second run: refraction means nothing new fires.
        let again = engine.run().unwrap();
        prop_assert_eq!(again.firings.len(), 0);
    }

    /// Firing count never exceeds (facts choose patterns) activations.
    #[test]
    fn join_rule_activation_bound(
        n_a in 0usize..6,
        n_b in 0usize..6,
    ) {
        let mut engine = Engine::new();
        engine
            .add_rule(
                Rule::builder("pairs")
                    .when(Pattern::new("A"))
                    .when(Pattern::new("B"))
                    .then(|_| {}),
            )
            .unwrap();
        for i in 0..n_a {
            engine.assert_fact(Fact::new("A").with("i", i));
        }
        for i in 0..n_b {
            engine.assert_fact(Fact::new("B").with("i", i));
        }
        let report = engine.run().unwrap();
        prop_assert_eq!(report.firings.len(), n_a * n_b);
    }

    /// Retract-on-fire consumes each token exactly once regardless of
    /// assertion order.
    #[test]
    fn consuming_rule_leaves_empty_memory(n in 0usize..16) {
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
        for i in 0..n {
            engine.assert_fact(Fact::new("Token").with("i", i));
        }
        let report = engine.run().unwrap();
        prop_assert_eq!(report.firings.len(), n);
        prop_assert_eq!(engine.fact_count(), 0);
    }

    /// Salience strictly orders firings across rules.
    #[test]
    fn salience_order_is_respected(saliences in prop::collection::vec(-10i32..10, 1..6)) {
        use std::sync::{Arc, Mutex};
        let order: Arc<Mutex<Vec<i32>>> = Arc::new(Mutex::new(Vec::new()));
        let mut engine = Engine::new();
        for (i, &s) in saliences.iter().enumerate() {
            let o = order.clone();
            engine
                .add_rule(
                    Rule::builder(format!("r{i}"))
                        .salience(s)
                        .when(Pattern::new("T"))
                        .then(move |_| o.lock().unwrap().push(s)),
                )
                .unwrap();
        }
        engine.assert_fact(Fact::new("T"));
        engine.run().unwrap();
        let fired = order.lock().unwrap().clone();
        prop_assert_eq!(fired.len(), saliences.len());
        for w in fired.windows(2) {
            prop_assert!(w[0] >= w[1], "salience order violated: {:?}", fired);
        }
    }
}

mod negation {
    use rules::{drl, Comparator, Engine, Fact, Pattern, Rule};

    #[test]
    fn negated_pattern_blocks_when_fact_present() {
        let mut engine = Engine::new();
        engine
            .add_rule(
                Rule::builder("no errors")
                    .when(Pattern::new("Run").bind("id", "id"))
                    .when(
                        Pattern::new("Error")
                            .constrain_var("run", Comparator::Eq, "id")
                            .negate(),
                    )
                    .then(|ctx| {
                        let id = ctx.var("id").unwrap().to_string();
                        ctx.print(format!("run {id} clean"));
                    }),
            )
            .unwrap();
        engine.assert_fact(Fact::new("Run").with("id", "a"));
        engine.assert_fact(Fact::new("Run").with("id", "b"));
        engine.assert_fact(Fact::new("Error").with("run", "b"));
        let report = engine.run().unwrap();
        assert_eq!(report.printed, vec!["run a clean"]);
    }

    #[test]
    fn negation_reacts_to_retraction() {
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
        let noise = engine.assert_fact(Fact::new("Noise"));
        let first = engine.run().unwrap();
        assert!(first.printed.is_empty());
        engine.retract(noise);
        let second = engine.run().unwrap();
        assert_eq!(second.printed, vec!["quiet"]);
    }

    #[test]
    fn drl_not_syntax_parses_and_fires() {
        let src = r#"
rule "lonely"
when
    Event( e : name )
    not Partner( event == e )
then
    print(e + " has no partner");
end
"#;
        let mut engine = Engine::new();
        engine.add_rules(drl::parse(src).unwrap()).unwrap();
        engine.assert_fact(Fact::new("Event").with("name", "solo"));
        engine.assert_fact(Fact::new("Event").with("name", "paired"));
        engine.assert_fact(Fact::new("Partner").with("event", "paired"));
        let report = engine.run().unwrap();
        assert_eq!(report.printed, vec!["solo has no partner"]);
    }

    #[test]
    fn negated_fact_binding_is_a_parse_error() {
        let src = "rule \"x\" when not f : T( ) then end";
        assert!(drl::parse(src).is_err());
    }

    #[test]
    fn retract_in_rule_with_negation_targets_right_fact() {
        // Negated patterns occupy no matched-fact slot, so retract(f)
        // must hit the fact bound by the *positive* pattern.
        let src = r#"
rule "consume unmatched"
when
    f : Token( t : id )
    not Seen( id == t )
then
    retract(f);
    assert Seen( id : t );
end
"#;
        let mut engine = Engine::new();
        engine.add_rules(drl::parse(src).unwrap()).unwrap();
        engine.assert_fact(Fact::new("Token").with("id", "x"));
        engine.run().unwrap();
        let kinds: Vec<String> = engine
            .facts()
            .map(|(_, f)| f.fact_type().to_string())
            .collect();
        assert_eq!(kinds, vec!["Seen"]);
    }
}
