//! Frequency-based feedback optimisation.
//!
//! The paper: "The compiler currently supports feedback for branch,
//! loop, and control flow optimizations, and callsite counts to improve
//! inlining. All these optimizations are frequency-based and this work
//! is being done as an initial step towards providing feedback to the
//! internal cost-models of the compiler."
//!
//! This module implements that step: measured invocation counts from a
//! profile replace the compiler's static estimates, and the classic
//! frequency-driven decisions are derived — inlining of hot small
//! callsites, unroll-worthy hot loops, and branch-layout hints.

use crate::ir::{Program, RegionId, RegionKind};
use perfdmf::Trial;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// Measured execution frequencies, keyed by region name.
///
/// Built from a trial's `calls` column: the event's leaf name must match
/// the region name (the mapping identifier the compiler instrumentation
/// retains).
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct FrequencyProfile {
    counts: BTreeMap<String, f64>,
}

impl FrequencyProfile {
    /// Extracts per-region call counts from a trial (summed across
    /// threads, using the `TIME` metric's calls column — TAU stores the
    /// same call count on every metric).
    pub fn from_trial(trial: &Trial) -> Self {
        let mut counts = BTreeMap::new();
        let p = &trial.profile;
        let Some(metric) = p
            .metric_id("TIME")
            .or_else(|| p.metrics().first().and_then(|m| p.metric_id(&m.name)))
        else {
            return FrequencyProfile::default();
        };
        for event in p.events() {
            let id = p.event_id(&event.name).expect("iterating events");
            let calls: f64 = p.column(id, metric).iter().map(|m| m.calls).sum();
            // Leaf name is the compiler's mapping identifier.
            let leaf = event.leaf().to_string();
            *counts.entry(leaf).or_insert(0.0) += calls;
        }
        FrequencyProfile { counts }
    }

    /// Builds a profile from explicit counts (tests, external tools).
    pub fn from_counts(counts: impl IntoIterator<Item = (String, f64)>) -> Self {
        FrequencyProfile {
            counts: counts.into_iter().collect(),
        }
    }

    /// Measured count for a region name.
    pub fn count(&self, region: &str) -> Option<f64> {
        self.counts.get(region).copied()
    }

    /// Number of regions with measurements.
    pub fn len(&self) -> usize {
        self.counts.len()
    }

    /// Whether the profile is empty.
    pub fn is_empty(&self) -> bool {
        self.counts.is_empty()
    }
}

/// A frequency-driven optimisation decision.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum FrequencyDecision {
    /// Inline this callsite: hot and small enough.
    Inline {
        /// Callsite region name.
        callsite: String,
        /// Measured invocation count.
        count: f64,
    },
    /// Unroll / software-pipeline this loop: hot with a stable trip count.
    UnrollLoop {
        /// Loop region name.
        name: String,
        /// Measured invocation count.
        count: f64,
    },
    /// Lay out this branch for the hot path.
    BranchLayout {
        /// Branch region name.
        name: String,
        /// Fraction of parent executions that took this arm.
        taken_fraction: f64,
    },
    /// A static invocation estimate was corrected by measurement.
    CorrectedEstimate {
        /// Region name.
        name: String,
        /// The compiler's prior static estimate.
        was: f64,
        /// The measured count.
        now: f64,
    },
}

/// Thresholds for the frequency decisions.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FrequencyConfig {
    /// Minimum callsite count for inlining.
    pub inline_min_calls: f64,
    /// Maximum callee size (instructions) for inlining.
    pub inline_max_instructions: f64,
    /// Minimum loop invocation count for unrolling.
    pub unroll_min_calls: f64,
    /// Minimum taken fraction for branch layout.
    pub branch_min_fraction: f64,
}

impl Default for FrequencyConfig {
    fn default() -> Self {
        FrequencyConfig {
            inline_min_calls: 10_000.0,
            inline_max_instructions: 200.0,
            unroll_min_calls: 1_000.0,
            branch_min_fraction: 0.8,
        }
    }
}

/// Applies measured frequencies to a program: corrects each region's
/// `invocations` estimate in place and returns the decision list.
pub fn apply(
    program: &mut Program,
    profile: &FrequencyProfile,
    config: &FrequencyConfig,
) -> Vec<FrequencyDecision> {
    let mut decisions = Vec::new();
    let ids: Vec<RegionId> = program.all().collect();
    for id in ids {
        let (name, kind, static_estimate, instructions, parent) = {
            let r = program.region(id);
            (
                r.name.clone(),
                r.kind,
                r.attrs.invocations,
                r.attrs.instructions,
                r.parent,
            )
        };
        let Some(measured) = profile.count(&name) else {
            continue;
        };
        if (measured - static_estimate).abs() > static_estimate.max(1.0) * 0.01 {
            decisions.push(FrequencyDecision::CorrectedEstimate {
                name: name.clone(),
                was: static_estimate,
                now: measured,
            });
            program.region_mut(id).attrs.invocations = measured;
        }
        match kind {
            RegionKind::Callsite => {
                if measured >= config.inline_min_calls
                    && instructions <= config.inline_max_instructions
                {
                    decisions.push(FrequencyDecision::Inline {
                        callsite: name.clone(),
                        count: measured,
                    });
                }
            }
            RegionKind::Loop => {
                if measured >= config.unroll_min_calls {
                    decisions.push(FrequencyDecision::UnrollLoop {
                        name: name.clone(),
                        count: measured,
                    });
                }
            }
            RegionKind::Branch => {
                // Taken fraction relative to the parent's measured count.
                let parent_count = parent
                    .map(|p| program.region(p).attrs.invocations)
                    .unwrap_or(measured)
                    .max(1.0);
                let fraction = (measured / parent_count).clamp(0.0, 1.0);
                if fraction >= config.branch_min_fraction {
                    decisions.push(FrequencyDecision::BranchLayout {
                        name: name.clone(),
                        taken_fraction: fraction,
                    });
                }
            }
            RegionKind::Procedure => {}
        }
    }
    decisions
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ir::RegionAttrs;
    use perfdmf::{Measurement, TrialBuilder};

    fn program() -> Program {
        let mut p = Program::new();
        let main = p.add_procedure(
            "main",
            RegionAttrs {
                invocations: 1.0,
                ..Default::default()
            },
        );
        p.add_child(
            main,
            "hot_call",
            RegionKind::Callsite,
            RegionAttrs {
                instructions: 50.0,
                invocations: 100.0, // static guess, wrong
                ..Default::default()
            },
        );
        p.add_child(
            main,
            "big_call",
            RegionKind::Callsite,
            RegionAttrs {
                instructions: 5_000.0,
                invocations: 100.0,
                ..Default::default()
            },
        );
        p.add_child(
            main,
            "hot_loop",
            RegionKind::Loop,
            RegionAttrs {
                invocations: 10.0,
                ..Default::default()
            },
        );
        let b = p.add_child(
            main,
            "branch_arm",
            RegionKind::Branch,
            RegionAttrs {
                invocations: 1.0,
                ..Default::default()
            },
        );
        let _ = b;
        p
    }

    fn profile() -> FrequencyProfile {
        FrequencyProfile::from_counts([
            ("main".to_string(), 1.0),
            ("hot_call".to_string(), 50_000.0),
            ("big_call".to_string(), 50_000.0),
            ("hot_loop".to_string(), 2_000.0),
            ("branch_arm".to_string(), 0.9),
        ])
    }

    #[test]
    fn inlines_hot_small_callsites_only() {
        let mut p = program();
        let decisions = apply(&mut p, &profile(), &FrequencyConfig::default());
        assert!(decisions.iter().any(|d| matches!(
            d,
            FrequencyDecision::Inline { callsite, .. } if callsite == "hot_call"
        )));
        // The big callee is hot but too large.
        assert!(!decisions.iter().any(|d| matches!(
            d,
            FrequencyDecision::Inline { callsite, .. } if callsite == "big_call"
        )));
    }

    #[test]
    fn corrects_static_estimates_in_place() {
        let mut p = program();
        let decisions = apply(&mut p, &profile(), &FrequencyConfig::default());
        let hot = p.find("hot_call").unwrap();
        assert_eq!(p.region(hot).attrs.invocations, 50_000.0);
        assert!(decisions.iter().any(|d| matches!(
            d,
            FrequencyDecision::CorrectedEstimate { name, was, now }
                if name == "hot_call" && *was == 100.0 && *now == 50_000.0
        )));
    }

    #[test]
    fn unrolls_hot_loops() {
        let mut p = program();
        let decisions = apply(&mut p, &profile(), &FrequencyConfig::default());
        assert!(decisions.iter().any(|d| matches!(
            d,
            FrequencyDecision::UnrollLoop { name, count } if name == "hot_loop" && *count == 2_000.0
        )));
    }

    #[test]
    fn branch_layout_uses_parent_relative_fraction() {
        let mut p = program();
        let decisions = apply(&mut p, &profile(), &FrequencyConfig::default());
        let layout = decisions.iter().find_map(|d| match d {
            FrequencyDecision::BranchLayout {
                name,
                taken_fraction,
            } if name == "branch_arm" => Some(*taken_fraction),
            _ => None,
        });
        assert_eq!(layout, Some(0.9));
    }

    #[test]
    fn unmeasured_regions_are_untouched() {
        let mut p = program();
        let sparse = FrequencyProfile::from_counts([("hot_loop".to_string(), 5_000.0)]);
        apply(&mut p, &sparse, &FrequencyConfig::default());
        let hc = p.find("hot_call").unwrap();
        assert_eq!(
            p.region(hc).attrs.invocations,
            100.0,
            "unmeasured untouched"
        );
    }

    #[test]
    fn profile_from_trial_uses_calls_and_leaf_names() {
        let mut b = TrialBuilder::with_flat_threads("t", 2);
        let time = b.metric("TIME");
        let main = b.event("main");
        let call = b.event("main => hot_call");
        for t in 0..2 {
            b.set(
                main,
                time,
                t,
                Measurement {
                    inclusive: 1.0,
                    exclusive: 0.5,
                    calls: 1.0,
                    subcalls: 9.0,
                },
            );
            b.set(
                call,
                time,
                t,
                Measurement {
                    inclusive: 0.5,
                    exclusive: 0.5,
                    calls: 25_000.0,
                    subcalls: 0.0,
                },
            );
        }
        let profile = FrequencyProfile::from_trial(&b.build());
        assert_eq!(profile.count("hot_call"), Some(50_000.0)); // summed threads
        assert_eq!(profile.count("main"), Some(2.0));
        assert_eq!(profile.count("nope"), None);
        assert!(!profile.is_empty());
        assert_eq!(profile.len(), 2);
    }

    #[test]
    fn empty_trial_yields_empty_profile() {
        let b = TrialBuilder::with_flat_threads("t", 1);
        let profile = FrequencyProfile::from_trial(&b.build());
        assert!(profile.is_empty());
    }
}
