//! The shipped knowledge bases, in the textual rule language.
//!
//! These capture the expertise of the paper's three case studies as
//! reusable rule texts (the paper's `openuh/OpenUHRules.drl`):
//!
//! * [`LOAD_BALANCE_RULES`] — the four-condition load-imbalance rule of
//!   §III-A, plus a hotspot rule.
//! * [`STALL_RULES`] — the Figure 2 stalls-per-cycle rule and the
//!   Jarp-style "90% from L1D + FP" decomposition rule of §III-B.
//! * [`LOCALITY_RULES`] — the remote-memory/locality and
//!   serial-bottleneck rules that diagnosed GenIDLEST.
//! * [`POWER_RULES`] — the §III-C optimisation-level recommendations.

use crate::Result;
use rules::{drl, Engine, Rulebase};
use std::sync::{Arc, RwLock};

/// §III-A: load imbalance.
pub const LOAD_BALANCE_RULES: &str = r#"
// Load imbalance: two nested regions, both unbalanced across threads,
// both significant, with strongly anti-correlated per-thread times
// (threads finishing the inner loop early wait at the outer barrier).
rule "Load imbalance in nested loops" salience 10
when
    RegionBalance( stddevMeanRatio > 0.25, runtimeFraction > 0.05, o : eventName )
    RegionBalance( stddevMeanRatio > 0.25, runtimeFraction > 0.05,
                   i : eventName, s : runtimeFraction )
    NestedCorrelation( outer == o, inner == i, correlation < -0.5, c : correlation )
then
    print("Load imbalance: " + i + " is unevenly distributed across threads");
    print("\tnested in: " + o);
    print("\tper-thread correlation: " + c);
    diagnose("load-imbalance",
             "Nested loops " + o + " / " + i + " are load-imbalanced",
             s,
             "change the loop schedule: schedule(dynamic,1) balances uneven iteration costs");
end

// A single significant, unbalanced region (no nesting evidence).
rule "Unbalanced region"
when
    RegionBalance( stddevMeanRatio > 0.5, runtimeFraction > 0.10,
                   e : eventName, s : runtimeFraction, r : stddevMeanRatio )
then
    print("Region " + e + " is unbalanced (stddev/mean = " + r + ")");
    diagnose("load-imbalance",
             "Region " + e + " has uneven per-thread times",
             s,
             "distribute this region's work dynamically");
end
"#;

/// §III-B, first and second passes: inefficiency and stall sources.
pub const STALL_RULES: &str = r#"
// The paper's Figure 2 rule, verbatim in shape.
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
    diagnose("stalls", "Event " + e + " stalls more than the application average",
             v, "inspect " + e + " with hardware counters");
end

// Jarp-style decomposition: when >= 90% of stalls come from the L1D
// and FP paths, the other formula terms can be ignored.
rule "Stalls dominated by memory and FP"
when
    StallFact( l1dFpFraction >= 0.9, e : eventName, frac : l1dFpFraction )
then
    print("Event " + e + ": " + frac + " of stalls from L1D misses + FP stalls");
    diagnose("stalls", "Event " + e + " stalls are memory/FP dominated",
             frac, "run the memory analysis pass on " + e);
end
"#;

/// §III-B, third pass: memory locality and serial bottlenecks.
pub const LOCALITY_RULES: &str = r#"
// Remote-memory locality problem: the event's remote-access ratio is
// above the application mean and its memory stalls are significant.
rule "Poor data locality" salience 5
when
    MemoryFact( remoteVsMean > 0.0, remoteRatio > 0.3,
                e : eventName, r : remoteRatio )
then
    print("Event " + e + " has a high remote memory access ratio: " + r);
    diagnose("memory-locality",
             "Event " + e + " reads mostly remote memory",
             r,
             "parallelize data initialization so first-touch places pages locally; consider privatization");
end

// The exchange_var signature: lower local-to-remote ratio than average
// plus a *flat* scaling curve (speedup ~1: "confirms its sequential
// nature") on a significant event means a serialised section. Events
// that scale a little but badly are locality problems, caught below.
rule "Serial bottleneck"
when
    MemoryFact( localToRemoteVsMean < 0.0, e : eventName )
    ScalingFact( eventName == e, finalSpeedup < 1.15 )
    RegionBalance( eventName == e, runtimeFraction > 0.15, s : runtimeFraction )
then
    print("Event " + e + " is a serial bottleneck (" + s + " of runtime, not scaling)");
    diagnose("serial-bottleneck",
             "Event " + e + " serializes the application",
             s,
             "parallelize the boundary-copy loop across the team instead of the master thread");
end

// Performance-context rule: the first-touch explanation is only valid
// for OpenMP on a ccNUMA machine — the metadata justifies the
// conclusion, as the paper's context-aware rules do.
rule "First-touch policy exposure"
when
    TrialContext( paradigm == "openmp", machine contains "Altix", m : machine )
    MemoryFact( remoteVsMean > 0.0, remoteRatio > 0.5, e : eventName )
then
    print("Context: " + m + " uses first-touch placement; " + e +
          " reads pages homed by the initializing thread");
    diagnose("memory-locality",
             "First-touch placement on " + m + " put " + e + "'s pages on one node",
             0.5,
             "initialize data in parallel so each thread first-touches its own pages");
end

// An event that simply does not scale while the app does.
rule "Poor scaling event"
when
    ScalingFact( finalSpeedup < 2.0, maxProcs >= 8, e : eventName, sp : finalSpeedup )
    MemoryFact( eventName == e, remoteRatio > 0.5 )
then
    print("Event " + e + " scales poorly (speedup " + sp + ") with remote-heavy traffic");
    diagnose("memory-locality",
             "Event " + e + " does not scale due to remote accesses",
             0.5,
             "feed locality information back to the compiler cache model");
end
"#;

/// §III-C: power/energy recommendations.
pub const POWER_RULES: &str = r#"
rule "Low power choice"
when
    PowerFact( isMinPower == true, t : trial, w : relWatts )
then
    print("Lowest power dissipation: " + t + " (relative watts " + w + ")");
    diagnose("power", "Compile with " + t + " for lowest power",
             0.5, "enable " + t + " when power dissipation matters (cooling, reliability)");
end

rule "Low energy choice"
when
    PowerFact( isMinEnergy == true, t : trial, j : relJoules )
then
    print("Lowest energy consumption: " + t + " (relative joules " + j + ")");
    diagnose("energy", "Compile with " + t + " for lowest energy",
             0.5, "enable " + t + " when total energy matters (battery, cost)");
end

rule "Balanced power and energy choice"
when
    PowerFact( isBalanced == true, t : trial )
then
    print("Best power x energy balance: " + t);
    diagnose("power", "Compile with " + t + " for power and energy efficiency",
             0.5, "enable " + t + " as the default power-aware level");
end

rule "Energy efficiency improved"
when
    PowerFact( relFlopPerJoule > 2.0, t : trial, f : relFlopPerJoule )
then
    print("Trial " + t + " improves FLOP/Joule by " + f + "x over the baseline");
end
"#;

/// Builds an engine over one rulebase.
pub fn engine_with(source: &str) -> Result<Engine> {
    engine_with_all(&[source])
}

/// Builds one engine over several rulebases (rule names must be unique
/// across them). The engine is fresh working memory over a compiled
/// rulebase: a sequence of shipped rulebases is parsed and compiled
/// once per process and shared by every engine built over it.
pub fn engine_with_all(sources: &[&str]) -> Result<Engine> {
    Ok(Engine::with_rulebase(compiled(sources)?))
}

/// Every shipped rulebase.
pub fn all_rulebases() -> [&'static str; 4] {
    [LOAD_BALANCE_RULES, STALL_RULES, LOCALITY_RULES, POWER_RULES]
}

/// The compiled rulebase of `sources`, in order. A sequence of shipped
/// rulebases is parsed and compiled once per process and shared after
/// that; any other text is compiled on every call, so the memo holds
/// only sequences of the four shipped texts. An error is returned,
/// never memoized.
pub(crate) fn compiled(sources: &[&str]) -> Result<Arc<Rulebase>> {
    static COMPILED: RwLock<Vec<(Vec<usize>, Arc<Rulebase>)>> = RwLock::new(Vec::new());
    let shipped = all_rulebases();
    let key: Option<Vec<usize>> = sources
        .iter()
        .map(|s| {
            shipped
                .iter()
                .position(|t| std::ptr::eq(*t, *s))
                .or_else(|| shipped.iter().position(|t| t == s))
        })
        .collect();
    let compile = || -> Result<Rulebase> {
        let mut rules = Vec::new();
        for s in sources {
            rules.extend(drl::parse(s)?);
        }
        Ok(Rulebase::compile(rules)?)
    };
    let Some(key) = key else {
        return Ok(Arc::new(compile()?));
    };
    let find = |memo: &[(Vec<usize>, Arc<Rulebase>)]| {
        memo.iter()
            .find(|(k, _)| *k == key)
            .map(|(_, rb)| Arc::clone(rb))
    };
    if let Some(rb) = find(&COMPILED.read().unwrap_or_else(|e| e.into_inner())) {
        return Ok(rb);
    }
    let rb = Arc::new(compile()?);
    let mut memo = COMPILED.write().unwrap_or_else(|e| e.into_inner());
    Ok(find(&memo).unwrap_or_else(|| {
        memo.push((key, Arc::clone(&rb)));
        rb
    }))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_rulebases_parse() {
        for (i, src) in all_rulebases().iter().enumerate() {
            let rules = rules::drl::parse(src)
                .unwrap_or_else(|e| panic!("rulebase {i} failed to parse: {e}"));
            assert!(!rules.is_empty(), "rulebase {i} is empty");
        }
    }

    #[test]
    fn interpreted_diagnose_populates_bindings_from_rules_file() {
        // Regression: diagnoses produced by interpreted (.rules-file)
        // RHSes must carry the firing environment, not empty bindings.
        let mut engine = engine_with(STALL_RULES).unwrap();
        engine.assert_fact(
            rules::Fact::new("MeanEventFact")
                .with("metric", "(BACK_END_BUBBLE_ALL / CPU_CYCLES)")
                .with("higherLower", "higher")
                .with("severity", 0.42)
                .with("eventName", "matxvec")
                .with("mainValue", 0.08)
                .with("eventValue", 0.42)
                .with("factType", "Compared to Main"),
        );
        let report = engine.run().unwrap();
        let d = report
            .diagnoses
            .iter()
            .find(|d| d.rule == "Stalls per Cycle")
            .expect("stall rule fired");
        assert_eq!(
            d.bindings.get("e").map(|v| v.to_string()),
            Some("matxvec".into())
        );
        assert_eq!(
            d.bindings.get("v").map(|v| v.to_string()),
            Some("0.42".into())
        );
    }

    #[test]
    fn combined_engine_loads_every_rule() {
        let engine = engine_with_all(&all_rulebases()).unwrap();
        assert!(engine.rule_count() >= 9, "rules = {}", engine.rule_count());
    }

    #[test]
    fn rule_names_are_unique_across_rulebases() {
        // engine_with_all fails on duplicates, so success implies
        // uniqueness; double-check by parsing manually.
        let mut names = Vec::new();
        for src in all_rulebases() {
            for r in rules::drl::parse(src).unwrap() {
                assert!(!names.contains(&r.name), "duplicate rule {:?}", r.name);
                names.push(r.name);
            }
        }
    }

    #[test]
    fn shipped_rulebases_survive_print_parse_roundtrip() {
        for src in all_rulebases() {
            let parsed = rules::drl::parse(src).unwrap();
            let printed = rules::drl::to_drl(&parsed).unwrap();
            let reparsed = rules::drl::parse(&printed)
                .unwrap_or_else(|e| panic!("reparse failed: {e}\n{printed}"));
            assert_eq!(parsed.len(), reparsed.len());
            for (a, b) in parsed.iter().zip(&reparsed) {
                assert_eq!(a.name, b.name);
                assert_eq!(a.patterns, b.patterns);
                assert_eq!(a.salience, b.salience);
            }
        }
    }

    /// Two unbalanced nested regions with anti-correlated thread times.
    fn imbalance_facts() -> Vec<rules::Fact> {
        vec![
            rules::Fact::new("RegionBalance")
                .with("eventName", "outer")
                .with("stddevMeanRatio", 0.4)
                .with("runtimeFraction", 0.3)
                .with("mean", 1.0),
            rules::Fact::new("RegionBalance")
                .with("eventName", "inner")
                .with("stddevMeanRatio", 0.5)
                .with("runtimeFraction", 0.6)
                .with("mean", 2.0),
            rules::Fact::new("NestedCorrelation")
                .with("outer", "outer")
                .with("inner", "inner")
                .with("correlation", -0.95),
        ]
    }

    #[test]
    fn load_balance_rule_fires_on_synthetic_facts() {
        let mut engine = engine_with(LOAD_BALANCE_RULES).unwrap();
        for f in imbalance_facts() {
            engine.assert_fact(f);
        }
        let report = engine.run().unwrap();
        assert!(report.fired("Load imbalance in nested loops"));
        let d = report.diagnoses_in("load-imbalance");
        assert!(!d.is_empty());
        assert!(d[0].recommendation.as_ref().unwrap().contains("dynamic"));
    }

    #[test]
    fn engines_built_from_one_rulebase_are_independent() {
        // A zero cycle limit on one engine must not reach the next.
        let mut limited = engine_with(LOAD_BALANCE_RULES).unwrap().with_cycle_limit(0);
        for f in imbalance_facts() {
            limited.assert_fact(f);
        }
        assert!(matches!(
            limited.run(),
            Err(rules::RuleError::CycleLimit { limit: 0, .. })
        ));

        // Neither may its facts.
        let mut first = engine_with(LOAD_BALANCE_RULES).unwrap();
        assert_eq!(first.fact_count(), 0);
        for f in imbalance_facts() {
            first.assert_fact(f);
        }
        let report = first.run().unwrap();
        assert!(report.fired("Load imbalance in nested loops"));
        assert!(first.run().unwrap().firings.is_empty(), "refraction");

        // Nor its fired set: a third engine fires the same activations.
        let mut second = engine_with(LOAD_BALANCE_RULES).unwrap();
        assert_eq!(second.fact_count(), 0);
        for f in imbalance_facts() {
            second.assert_fact(f);
        }
        assert_eq!(second.run().unwrap().firings, report.firings);
    }

    #[test]
    fn power_rules_fire_once_per_choice() {
        let mut engine = engine_with(POWER_RULES).unwrap();
        for (name, w, j, f, min_p, min_e, bal) in [
            ("O0", 1.0, 1.0, 1.0, true, false, false),
            ("O2", 1.001, 0.071, 13.7, false, false, true),
            ("O3", 1.029, 0.050, 19.3, false, true, false),
        ] {
            engine.assert_fact(
                rules::Fact::new("PowerFact")
                    .with("trial", name)
                    .with("relTime", 1.0)
                    .with("relWatts", w)
                    .with("relJoules", j)
                    .with("relFlopPerJoule", f)
                    .with("isMinPower", min_p)
                    .with("isMinEnergy", min_e)
                    .with("isBalanced", bal),
            );
        }
        let report = engine.run().unwrap();
        assert!(report
            .printed
            .iter()
            .any(|l| l.contains("Lowest power") && l.contains("O0")));
        assert!(report
            .printed
            .iter()
            .any(|l| l.contains("Lowest energy") && l.contains("O3")));
        assert!(report
            .printed
            .iter()
            .any(|l| l.contains("balance") && l.contains("O2")));
    }
}
