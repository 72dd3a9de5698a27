//! Error type for the rule engine and rule language.

use crate::engine::RunReport;
use std::fmt;

/// Errors produced by rule parsing and execution.
#[derive(Debug, Clone, PartialEq)]
pub enum RuleError {
    /// The textual rule source failed to parse.
    Parse {
        /// 1-based line where the problem was found.
        line: usize,
        /// Explanation.
        message: String,
    },
    /// A rule's RHS referenced a variable that its LHS never bound.
    UnboundVariable {
        /// Rule name.
        rule: String,
        /// Variable name.
        variable: String,
        /// Everything the run produced before the failing firing, which
        /// itself contributes nothing (its action's output and commands
        /// are discarded).
        report: Box<RunReport>,
    },
    /// The match–act cycle exceeded its iteration budget, indicating a
    /// rule set that asserts facts in an unbounded loop.
    CycleLimit {
        /// The configured limit.
        limit: usize,
        /// Everything the run produced before hitting the limit: printed
        /// lines, diagnoses and firing records are carried here rather
        /// than discarded, so callers can still inspect or render the
        /// partial analysis.
        report: Box<RunReport>,
    },
    /// A duplicate rule name was added to an engine.
    DuplicateRule(String),
}

impl fmt::Display for RuleError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RuleError::Parse { line, message } => {
                write!(f, "rule parse error at line {line}: {message}")
            }
            RuleError::UnboundVariable { rule, variable, .. } => {
                write!(f, "rule {rule:?} uses unbound variable ${variable}")
            }
            RuleError::CycleLimit { limit, report } => {
                write!(
                    f,
                    "inference did not settle within {limit} cycles ({} firings recorded)",
                    report.firings.len()
                )
            }
            RuleError::DuplicateRule(name) => write!(f, "duplicate rule name {name:?}"),
        }
    }
}

impl std::error::Error for RuleError {}

impl RuleError {
    /// Consumes the error, yielding the partial report of the run it
    /// stopped, if any.
    pub fn into_partial_report(self) -> Option<RunReport> {
        match self {
            RuleError::CycleLimit { report, .. } | RuleError::UnboundVariable { report, .. } => {
                Some(*report)
            }
            RuleError::Parse { .. } | RuleError::DuplicateRule(_) => None,
        }
    }

    /// Attaches the report of the run this error stopped.
    pub(crate) fn with_partial_report(mut self, partial: RunReport) -> Self {
        if let RuleError::CycleLimit { report, .. } | RuleError::UnboundVariable { report, .. } =
            &mut self
        {
            **report = partial;
        }
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn displays() {
        let e = RuleError::Parse {
            line: 3,
            message: "bad token".into(),
        };
        assert!(e.to_string().contains("line 3"));
        assert!(RuleError::CycleLimit {
            limit: 10,
            report: Box::default()
        }
        .to_string()
        .contains("10"));
        assert!(RuleError::DuplicateRule("r".into())
            .to_string()
            .contains("r"));
        let u = RuleError::UnboundVariable {
            rule: "r".into(),
            variable: "v".into(),
            report: Box::default(),
        };
        assert!(u.to_string().contains("$v"));
    }
}
