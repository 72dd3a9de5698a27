//! A forward-chaining production-rule engine.
//!
//! This crate plays the role JBoss Rules (Drools) plays in the paper: an
//! inference engine whose rules "interpret the performance results" and
//! from which "an expert system for explaining parallel performance data
//! can be constructed".
//!
//! The model is a classic production system:
//!
//! * **facts** ([`Fact`]) are typed records: a fact type declares its
//!   ordered field names once ([`FactType`]) and each fact carries one
//!   value per field — the analysis layer asserts facts like
//!   `MeanEventFact` with fields `metric`, `severity`, `eventName`, …;
//! * **rules** ([`Rule`]) pair a `when` part (a conjunction of
//!   [`Pattern`]s with field constraints and variable bindings, joined
//!   across patterns by binding consistency) with a `then` part (an
//!   [`Action`]: print, assert new facts, retract matched facts, or run
//!   native Rust);
//! * a **rulebase** ([`Rulebase`]) is a set of rules compiled once —
//!   field references become slot indices, variables become environment
//!   indices — and shared by `Arc` between engines;
//! * the **engine** ([`Engine`]) is per-request working memory over a
//!   rulebase. It runs the match–resolve–act cycle with
//!   salience-ordered conflict resolution and refraction (an activation
//!   fires at most once), and records a full firing trace for
//!   explanation.
//!
//! Rules can be built programmatically ([`RuleBuilder`]) or parsed from a
//! Drools-flavoured textual language ([`drl`]), so performance knowledge
//! can be captured in text that ships alongside an application, as the
//! paper's `openuh/OpenUHRules.drl` does. The shipped knowledge is the
//! four rulebase texts of `perfexplorer::rulebase`.
//!
//! ```
//! use rules::{Engine, Fact, drl};
//!
//! let source = r#"
//! rule "High stall rate"
//! when
//!     f : MeanEventFact( metric == "stall_per_cycle", severity > 0.10,
//!                        e : eventName, v : severity )
//! then
//!     diagnose("stalls", "Event " + e + " has a high stall rate");
//! end
//! "#;
//! let mut engine = Engine::new();
//! engine.add_rules(drl::parse(source).unwrap());
//! engine.assert_fact(
//!     Fact::new("MeanEventFact")
//!         .with("metric", "stall_per_cycle")
//!         .with("severity", 0.25)
//!         .with("eventName", "matxvec"),
//! );
//! let report = engine.run().unwrap();
//! assert_eq!(report.diagnoses.len(), 1);
//! ```

#![warn(missing_docs)]

pub mod condition;
pub mod drl;
pub mod engine;
pub mod error;
pub mod fact;
pub mod reference;
pub mod rule;
pub mod rulebase;
pub mod value;

pub use condition::{Comparator, Constraint, Operand, Pattern};
pub use engine::{Diagnosis, Engine, FiringRecord, RunReport};
pub use error::RuleError;
pub use fact::{Fact, FactHandle, FactType};
pub use rule::{Action, RhsContext, RhsExpr, RhsStatement, Rule, RuleBuilder};
pub use rulebase::Rulebase;
pub use value::Value;

/// Convenience result alias.
pub type Result<T> = std::result::Result<T, RuleError>;
