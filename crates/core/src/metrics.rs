//! The §III-B metric chain: inefficiency, stall decomposition, memory
//! stalls and the remote-access ratio.
//!
//! The case study runs three scripted passes:
//!
//! 1. **Inefficiency** — `FP_OPS × (BACK_END_BUBBLE_ALL / CPU_CYCLES)`;
//!    "the regions with the highest inefficiency are the regions that
//!    the programmer and compiler should focus on optimizing".
//! 2. **Stall decomposition** (after Jarp) — attribute total stalls to
//!    L1D misses, FP stalls, branch mispredictions, etc.; if ≥ 90% come
//!    from L1D + FP the other terms are ignored.
//! 3. **Memory stalls** — weight each hierarchy level's misses by its
//!    latency (the paper's Memory Stalls formula) and compute the
//!    remote-to-L3 ratio that exposes first-touch placement problems.

use crate::derive::{derive_metric, DeriveOp};
use crate::result::TrialMeanResult;
use crate::Result;
use perfdmf::{Trial, MAIN_EVENT};
use rules::{Fact, FactType, Value};
use serde::{Deserialize, Serialize};
use simulator::machine::MachineConfig;

/// Name of the derived inefficiency metric.
pub const INEFFICIENCY: &str = "INEFFICIENCY";

/// Derives the paper's inefficiency metric on a trial:
/// `Inefficiency = FP_OPS * (BACK_END_BUBBLE_ALL / CPU_CYCLES)`.
///
/// Returns the metric name (always [`INEFFICIENCY`]).
pub fn derive_inefficiency(trial: &mut Trial) -> Result<String> {
    let ratio = derive_metric(trial, "BACK_END_BUBBLE_ALL", DeriveOp::Divide, "CPU_CYCLES")?;
    let product = derive_metric(trial, "FP_OPS", DeriveOp::Multiply, &ratio)?;
    // Give it the canonical short name via a scaled alias (×1).
    crate::derive::scale_metric(trial, &product, 1.0, INEFFICIENCY)?;
    Ok(INEFFICIENCY.to_string())
}

/// One event's stall decomposition.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StallBreakdown {
    /// Event name.
    pub event: String,
    /// Total stall cycles (`BACK_END_BUBBLE_ALL`).
    pub total_stalls: f64,
    /// Stall cycles attributed to L1D misses (data access path).
    pub l1d_stalls: f64,
    /// Stall cycles attributed to FP register feed.
    pub fp_stalls: f64,
    /// Stall cycles attributed to branch mispredictions.
    pub branch_stalls: f64,
    /// Everything else (front-end flushes, stack engine, dependencies).
    pub other_stalls: f64,
    /// Fraction of total stalls explained by L1D + FP.
    pub l1d_fp_fraction: f64,
}

/// Cycles a mispredicted branch costs on the model machine.
const BRANCH_MISS_PENALTY: f64 = 6.0;

/// Decomposes each event's stalls from its counters (thread means).
pub fn stall_decomposition(trial: &Trial, machine: &MachineConfig) -> Result<Vec<StallBreakdown>> {
    let mean = TrialMeanResult::of(trial)?;
    let mut out = Vec::new();
    for event in mean.event_names() {
        if event == MAIN_EVENT {
            continue;
        }
        let total = mean.exclusive(&event, "BACK_END_BUBBLE_ALL").unwrap_or(0.0);
        if total <= 0.0 {
            continue;
        }
        // L1D path: misses resolved at L2/L3/memory. The memory-stall
        // model below refines this; here a blended per-miss cost over
        // the observed miss mix.
        let l1d = mean.exclusive(&event, "L1D_MISSES").unwrap_or(0.0);
        let l2m = mean.exclusive(&event, "L2_MISSES").unwrap_or(0.0);
        let l3m = mean.exclusive(&event, "L3_MISSES").unwrap_or(0.0);
        let l1d_stalls = (l1d - l2m).max(0.0) * machine.l2.latency
            + (l2m - l3m).max(0.0) * machine.l3.latency
            + l3m * machine.local_memory_latency;
        let fp_stalls = mean.exclusive(&event, "FP_STALLS").unwrap_or(0.0);
        let branch = mean
            .exclusive(&event, "BRANCH_MISPREDICTIONS")
            .unwrap_or(0.0)
            * BRANCH_MISS_PENALTY;
        let explained = l1d_stalls + fp_stalls + branch;
        let other = (total - explained).max(0.0);
        // Attribution can over-explain when the blended latencies
        // overestimate; clamp fractions into [0, 1].
        let l1d_fp_fraction = ((l1d_stalls + fp_stalls) / total).clamp(0.0, 1.0);
        out.push(StallBreakdown {
            event,
            total_stalls: total,
            l1d_stalls,
            fp_stalls,
            branch_stalls: branch,
            other_stalls: other,
            l1d_fp_fraction,
        });
    }
    Ok(out)
}

/// One event's memory behaviour.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MemoryAnalysis {
    /// Event name.
    pub event: String,
    /// The paper's Memory Stalls formula evaluated from counters.
    pub memory_stalls: f64,
    /// L3 misses (thread mean).
    pub l3_misses: f64,
    /// Remote memory references (thread mean).
    pub remote_refs: f64,
    /// Local memory references (thread mean).
    pub local_refs: f64,
    /// `remote / L3 misses` — the paper's Remote Memory Accesses Ratio.
    pub remote_access_ratio: f64,
    /// `local / remote` references (∞-safe: `f64::INFINITY` when no
    /// remote references).
    pub local_to_remote: f64,
}

/// Evaluates the paper's Memory Stalls formula per event:
///
/// ```text
/// (L2 refs − L2 misses)·L2lat + (L2 misses − L3 misses)·L3lat
///  + (L3 misses − remote)·LocalLat + remote·RemoteLat + TLB·penalty
/// ```
///
/// using the machine's worst-case remote latency, as the paper does
/// ("the value for remote memory latency accesses is an estimation of
/// the worst-case scenario for a pair of nodes with the maximum number
/// of hops").
pub fn memory_analysis(trial: &Trial, machine: &MachineConfig) -> Result<Vec<MemoryAnalysis>> {
    let mean = TrialMeanResult::of(trial)?;
    let remote_latency =
        machine.local_memory_latency + machine.remote_hop_latency * machine.max_hops as f64;
    let mut out = Vec::new();
    for event in mean.event_names() {
        if event == MAIN_EVENT {
            continue;
        }
        let l2_refs = mean.exclusive(&event, "L2_REFERENCES").unwrap_or(0.0);
        let l2_misses = mean.exclusive(&event, "L2_MISSES").unwrap_or(0.0);
        let l3_misses = mean.exclusive(&event, "L3_MISSES").unwrap_or(0.0);
        let remote = mean.exclusive(&event, "REMOTE_MEMORY_REFS").unwrap_or(0.0);
        let local = mean.exclusive(&event, "LOCAL_MEMORY_REFS").unwrap_or(0.0);
        let tlb = mean.exclusive(&event, "TLB_MISSES").unwrap_or(0.0);
        if l2_refs + l3_misses + remote + local == 0.0 {
            continue;
        }
        let stalls = (l2_refs - l2_misses).max(0.0) * machine.l2.latency
            + (l2_misses - l3_misses).max(0.0) * machine.l3.latency
            + (l3_misses - remote).max(0.0) * machine.local_memory_latency
            + remote * remote_latency
            + tlb * machine.tlb_penalty;
        out.push(MemoryAnalysis {
            event,
            memory_stalls: stalls,
            l3_misses,
            remote_refs: remote,
            local_refs: local,
            remote_access_ratio: if l3_misses > 0.0 {
                remote / l3_misses
            } else {
                0.0
            },
            local_to_remote: if remote > 0.0 {
                local / remote
            } else {
                f64::INFINITY
            },
        })
    }
    Ok(out)
}

/// Schema of the stall-decomposition fact.
pub(crate) static STALL_FACT: FactType =
    FactType::new("StallFact", &["eventName", "totalStalls", "l1dFpFraction"]);

/// Schema of the memory-analysis fact.
pub(crate) static MEMORY_FACT: FactType = FactType::new(
    "MemoryFact",
    &[
        "eventName",
        "memoryStalls",
        "l3Misses",
        "remoteRatio",
        "meanRemoteRatio",
        "localToRemote",
        "remoteVsMean",
        "localToRemoteVsMean",
    ],
);

/// Facts for the stall rulebase: one `StallFact` per breakdown.
pub fn stall_facts(breakdowns: &[StallBreakdown]) -> Vec<Fact> {
    breakdowns
        .iter()
        .map(|b| {
            STALL_FACT.fact([
                Value::from(b.event.as_str()),
                Value::Num(b.total_stalls),
                Value::Num(b.l1d_fp_fraction),
            ])
        })
        .collect()
}

/// Facts for the locality rulebase: one `MemoryFact` per event, plus the
/// application-mean remote ratio for compare-to-average rules.
pub fn memory_facts(analyses: &[MemoryAnalysis]) -> Vec<Fact> {
    let mean_ratio = if analyses.is_empty() {
        0.0
    } else {
        analyses.iter().map(|a| a.remote_access_ratio).sum::<f64>() / analyses.len() as f64
    };
    let finite_l2r: Vec<f64> = analyses
        .iter()
        .map(|a| {
            if a.local_to_remote.is_finite() {
                a.local_to_remote
            } else {
                1e12
            }
        })
        .collect();
    let mean_l2r = if finite_l2r.is_empty() {
        0.0
    } else {
        finite_l2r.iter().sum::<f64>() / finite_l2r.len() as f64
    };
    analyses
        .iter()
        .zip(&finite_l2r)
        .map(|(a, &l2r)| {
            MEMORY_FACT.fact([
                Value::from(a.event.as_str()),
                Value::Num(a.memory_stalls),
                Value::Num(a.l3_misses),
                Value::Num(a.remote_access_ratio),
                Value::Num(mean_ratio),
                Value::Num(l2r),
                // Signed distances from the application means, so rules
                // can test "compared to the application on average"
                // without cross-field arithmetic.
                Value::Num(a.remote_access_ratio - mean_ratio),
                Value::Num(l2r - mean_l2r),
            ])
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use perfdmf::{Measurement, TrialBuilder};

    fn counter_trial() -> Trial {
        let mut b = TrialBuilder::with_flat_threads("t", 1);
        let metrics: Vec<(&str, f64)> = vec![
            ("TIME", 10.0),
            ("CPU_CYCLES", 1e9),
            ("BACK_END_BUBBLE_ALL", 4e8),
            ("FP_OPS", 2e8),
            ("FP_STALLS", 1e8),
            ("L1D_MISSES", 5e6),
            ("L2_REFERENCES", 5e6),
            ("L2_MISSES", 2e6),
            ("L3_MISSES", 1e6),
            ("TLB_MISSES", 1e5),
            ("REMOTE_MEMORY_REFS", 8e5),
            ("LOCAL_MEMORY_REFS", 2e5),
            ("BRANCH_MISPREDICTIONS", 1e5),
        ];
        let main = b.event("main");
        let hot = b.event("main => hot");
        for (name, v) in &metrics {
            let m = b.metric(name);
            b.set(
                main,
                m,
                0,
                Measurement {
                    inclusive: *v * 2.0,
                    exclusive: *v,
                    calls: 1.0,
                    subcalls: 1.0,
                },
            );
            b.set(hot, m, 0, Measurement::leaf(*v));
        }
        b.build()
    }

    #[test]
    fn inefficiency_matches_formula() {
        let mut t = counter_trial();
        let name = derive_inefficiency(&mut t).unwrap();
        assert_eq!(name, INEFFICIENCY);
        let m = t.profile.metric_id(INEFFICIENCY).unwrap();
        let e = t.profile.event_id("main => hot").unwrap();
        let v = t.profile.get(e, m, 0).unwrap().exclusive;
        // FP_OPS × (stalls / cycles) = 2e8 × 0.4
        assert!((v - 8e7).abs() < 1.0);
    }

    #[test]
    fn stall_decomposition_attributes_l1d_and_fp() {
        let t = counter_trial();
        let m = MachineConfig::altix300();
        let breakdowns = stall_decomposition(&t, &m).unwrap();
        let hot = breakdowns
            .iter()
            .find(|b| b.event == "main => hot")
            .unwrap();
        assert_eq!(hot.total_stalls, 4e8);
        assert_eq!(hot.fp_stalls, 1e8);
        // L1D: (5e6-2e6)*5 + (2e6-1e6)*14 + 1e6*180 = 2.09e8
        assert!((hot.l1d_stalls - 2.09e8).abs() < 1e3);
        assert!(
            hot.l1d_fp_fraction > 0.7,
            "fraction = {}",
            hot.l1d_fp_fraction
        );
        assert!((hot.branch_stalls - 6e5).abs() < 1.0);
        assert!(hot.other_stalls >= 0.0);
    }

    #[test]
    fn memory_analysis_computes_paper_formula() {
        let t = counter_trial();
        let m = MachineConfig::altix300();
        let analyses = memory_analysis(&t, &m).unwrap();
        let hot = analyses.iter().find(|a| a.event == "main => hot").unwrap();
        let remote_lat = m.local_memory_latency + m.remote_hop_latency * m.max_hops as f64;
        let expected = (5e6 - 2e6) * m.l2.latency
            + (2e6 - 1e6) * m.l3.latency
            + (1e6 - 8e5) * m.local_memory_latency
            + 8e5 * remote_lat
            + 1e5 * m.tlb_penalty;
        assert!((hot.memory_stalls - expected).abs() < 1.0);
        assert!((hot.remote_access_ratio - 0.8).abs() < 1e-12);
        assert!((hot.local_to_remote - 0.25).abs() < 1e-12);
    }

    #[test]
    fn facts_carry_expected_fields() {
        let t = counter_trial();
        let m = MachineConfig::altix300();
        let sf = stall_facts(&stall_decomposition(&t, &m).unwrap());
        assert!(!sf.is_empty());
        assert!(sf[0].get_num("l1dFpFraction").is_some());
        let mf = memory_facts(&memory_analysis(&t, &m).unwrap());
        assert!(!mf.is_empty());
        assert!(mf[0].get_num("remoteRatio").is_some());
        assert!(mf[0].get_num("meanRemoteRatio").is_some());
    }

    #[test]
    fn events_without_counters_are_skipped() {
        let mut b = TrialBuilder::with_flat_threads("t", 1);
        let time = b.metric("TIME");
        let cycles = b.metric("CPU_CYCLES");
        let stalls = b.metric("BACK_END_BUBBLE_ALL");
        let main = b.event("main");
        let quiet = b.event("main => quiet");
        b.set(main, time, 0, Measurement::leaf(1.0));
        b.set(main, cycles, 0, Measurement::leaf(1e6));
        b.set(main, stalls, 0, Measurement::leaf(1e5));
        b.set(quiet, time, 0, Measurement::leaf(0.5));
        let t = b.build();
        let m = MachineConfig::altix300();
        assert!(stall_decomposition(&t, &m).unwrap().is_empty());
        assert!(memory_analysis(&t, &m).unwrap().is_empty());
    }

    #[test]
    fn no_remote_refs_gives_infinite_local_ratio_fact_capped() {
        let mut b = TrialBuilder::with_flat_threads("t", 1);
        let l2r = b.metric("L2_REFERENCES");
        let local = b.metric("LOCAL_MEMORY_REFS");
        let main = b.event("main");
        let k = b.event("main => k");
        b.set(main, l2r, 0, Measurement::leaf(10.0));
        b.set(k, l2r, 0, Measurement::leaf(10.0));
        b.set(k, local, 0, Measurement::leaf(5.0));
        let t = b.build();
        let analyses = memory_analysis(&t, &MachineConfig::altix300()).unwrap();
        let k = analyses.iter().find(|a| a.event == "main => k").unwrap();
        assert!(k.local_to_remote.is_infinite());
        let facts = memory_facts(&analyses);
        let f = facts
            .iter()
            .find(|f| f.get_str("eventName") == Some("main => k"))
            .unwrap();
        assert_eq!(f.get_num("localToRemote"), Some(1e12));
    }
}
