//! Profile invariants: one walk that repairs, quarantines and flags.
//!
//! The rules fire on facts derived from profiles, so they trust that a
//! profile is consistent. [`sanitize_trial`] is the one definition of
//! "consistent": a single walk over the invariant table below. It
//! repairs every cell it can, quarantines whole metrics or events it
//! cannot, and flags what no repair can fix. Every action is recorded
//! in a typed [`DataQuality`] report, so a caller can say exactly what
//! it changed and what it threw away.
//!
//! | scope | invariant | on violation |
//! |---|---|---|
//! | axis | names are unique | later occurrences quarantined |
//! | axis | at most half the cells are non-finite | quarantined |
//! | cell | every field is finite | set to 0 |
//! | cell | every field is nonnegative | clamped to 0 |
//! | cell | `exclusive ≤ inclusive`, compared exactly | exclusive clamped to inclusive |
//! | `TIME` cell | a value implies calls | calls set to 1 |
//! | `TIME` parent | direct children's inclusive ≤ the parent's, within 1e-9 relative | flagged, data unchanged |
//!
//! The report reads as if the rules ran in that order: a quarantined
//! axis reports no cell repairs, and the parent rule sees repaired
//! values.
//! The calls and parent rules apply to `TIME` only: hardware counters
//! are conventionally attributed at leaves with zero calls and are not
//! rolled up through every intermediate callpath node.
//!
//! A report without a repair is the walk on a copy: sanitize a clone
//! and ask [`DataQuality::is_clean`]. So the report finds nothing
//! exactly when the repair changes nothing, and a second walk over a
//! sanitized profile repairs and quarantines nothing.
//!
//! The walk is an explicit call, not an ingest step: the `chaos`
//! harness and the tests run it. The CLI's imports, the service's
//! `Ingest` and `IngestChunk` requests and the analyses take profiles as
//! stored, so a caller that needs the guarantee must call it.

use crate::model::{EventId, Measurement, MetricId, Profile, Trial};
use std::collections::HashSet;

/// A metric or event whose fraction of non-finite cells exceeds this is
/// quarantined (dropped whole) instead of repaired cell by cell: a
/// column that is mostly garbage carries no signal, and zero-filling it
/// would fabricate one.
const MAX_BAD_FRACTION: f64 = 0.5;

/// Relative tolerance of the parent rule: trace perturbation and
/// rounding legitimately produce small overshoots.
const TOLERANCE: f64 = 1e-9;

/// One cell-level repair that was performed.
#[derive(Debug, Clone, PartialEq)]
pub enum RepairAction {
    /// A NaN or infinite field was replaced with zero.
    ReplacedNonFinite {
        /// Field name ("inclusive", "exclusive", "calls", "subcalls").
        field: &'static str,
        /// The offending value, stringified (`"NaN"`, `"inf"`, ...).
        was: String,
    },
    /// A negative field was clamped to zero.
    ClampedNegative {
        /// Field name.
        field: &'static str,
        /// The offending value.
        was: f64,
    },
    /// `exclusive > inclusive`; exclusive was clamped down.
    ClampedExclusive {
        /// The offending exclusive value.
        exclusive: f64,
        /// The inclusive value it was clamped to.
        inclusive: f64,
    },
    /// A `TIME` cell carried a value with zero calls; calls set to one.
    RestoredCalls {
        /// The inclusive value that was present.
        inclusive: f64,
    },
}

/// A repaired cell: where, and what was done.
#[derive(Debug, Clone, PartialEq)]
pub struct Repair {
    /// Event name.
    pub event: String,
    /// Metric name.
    pub metric: String,
    /// Thread index.
    pub thread: usize,
    /// The repair performed.
    pub action: RepairAction,
}

/// Why a metric or event was quarantined.
#[derive(Debug, Clone, PartialEq)]
pub enum QuarantineReason {
    /// Too many non-finite cells to repair credibly.
    MostlyNonFinite {
        /// Number of non-finite cells.
        bad_cells: usize,
        /// Total cells in the column set.
        total: usize,
    },
    /// The name duplicates an earlier metric/event — a corrupt or
    /// hand-edited store; the first occurrence wins.
    DuplicateName,
}

/// One quarantined (dropped) metric or event.
#[derive(Debug, Clone, PartialEq)]
pub struct Quarantine {
    /// `"metric"` or `"event"`.
    pub kind: &'static str,
    /// Name of the dropped entity.
    pub name: String,
    /// Why it was dropped.
    pub reason: QuarantineReason,
}

/// A report-only finding: on one thread, the direct children's
/// inclusive `TIME` adds up to more than their parent's. No repair can
/// fix this without inventing time, so the data is left as it is.
#[derive(Debug, Clone, PartialEq)]
pub struct Flag {
    /// The parent event.
    pub event: String,
    /// Thread index.
    pub thread: usize,
    /// Sum of the direct children's inclusive values.
    pub children_sum: f64,
    /// The parent's inclusive value.
    pub parent: f64,
}

/// The typed report of everything the sanitization pass did or found.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct DataQuality {
    /// Cell-level repairs, in scan order.
    pub repairs: Vec<Repair>,
    /// Whole metrics/events dropped.
    pub quarantined: Vec<Quarantine>,
    /// Report-only parent findings, in event then thread order.
    pub flagged: Vec<Flag>,
}

impl DataQuality {
    /// Whether the profile met every invariant: nothing repaired,
    /// quarantined or flagged.
    pub fn is_clean(&self) -> bool {
        self.repairs.is_empty() && self.quarantined.is_empty() && self.flagged.is_empty()
    }

    /// One-line-per-action human rendering, for report output.
    pub fn summary(&self) -> String {
        if self.is_clean() {
            return "data quality: clean".to_string();
        }
        let mut out = format!(
            "data quality: {} repair(s), {} quarantined",
            self.repairs.len(),
            self.quarantined.len()
        );
        if !self.flagged.is_empty() {
            out.push_str(&format!(", {} flagged", self.flagged.len()));
        }
        for q in &self.quarantined {
            let why = match &q.reason {
                QuarantineReason::MostlyNonFinite { bad_cells, total } => {
                    format!("{bad_cells}/{total} cells non-finite")
                }
                QuarantineReason::DuplicateName => "duplicate name".to_string(),
            };
            out.push_str(&format!("\n  quarantined {} {:?}: {}", q.kind, q.name, why));
        }
        for r in &self.repairs {
            let what = match &r.action {
                RepairAction::ReplacedNonFinite { field, was } => {
                    format!("{field} was {was}, set to 0")
                }
                RepairAction::ClampedNegative { field, was } => {
                    format!("{field} was {was}, clamped to 0")
                }
                RepairAction::ClampedExclusive {
                    exclusive,
                    inclusive,
                } => format!("exclusive {exclusive} clamped to inclusive {inclusive}"),
                RepairAction::RestoredCalls { inclusive } => {
                    format!("calls restored to 1 (inclusive {inclusive})")
                }
            };
            out.push_str(&format!(
                "\n  repaired {}[{}] thread {}: {}",
                r.metric, r.event, r.thread, what
            ));
        }
        for f in &self.flagged {
            out.push_str(&format!(
                "\n  flagged TIME[{}] thread {}: children inclusive {} exceeds parent {}",
                f.event, f.thread, f.children_sum, f.parent
            ));
        }
        out
    }
}

const FIELDS: [&str; 4] = ["inclusive", "exclusive", "calls", "subcalls"];

fn fields_mut(m: &mut Measurement) -> [&mut f64; 4] {
    [
        &mut m.inclusive,
        &mut m.exclusive,
        &mut m.calls,
        &mut m.subcalls,
    ]
}

/// Sanitizes a trial's profile in place; returns the report of every
/// repair, quarantine and flag. A consistent profile comes back
/// bit-identical with a clean report. Linear in the profile's cells.
pub fn sanitize_trial(trial: &mut Trial) -> DataQuality {
    let profile = &mut trial.profile;
    let mut quality = DataQuality::default();

    // Axis rule 1: duplicate names. The interned index cannot hold two
    // entries for one name, so duplicates are unreachable through the
    // normal lookup path — quarantine every occurrence after the first.
    let metric_names = profile.metrics().iter().map(|m| m.name.as_str());
    let mut keep_metrics = first_names("metric", metric_names, &mut quality.quarantined);
    let event_names = profile.events().iter().map(|e| &*e.name);
    let mut keep_events = first_names("event", event_names, &mut quality.quarantined);

    // Cell rules and axis rule 2, the non-finite census, share one pass
    // over the arena: a cell counts as non-finite if its repair zeroes a
    // non-finite field. Repairs are kept by column until the census has
    // decided which columns survive.
    let (nt, nm) = (profile.thread_count(), profile.metric_count());
    let is_time: Vec<bool> = profile.metrics().iter().map(|m| m.name == "TIME").collect();
    let mut bad = vec![0usize; profile.event_count() * nm];
    let mut repairs: Vec<(usize, usize, RepairAction)> = Vec::new();
    for (e, m, col) in profile.columns_mut() {
        let column = e.0 as usize * nm + m.0 as usize;
        for (thread, cell) in col.iter_mut().enumerate() {
            let mut repair = |action| repairs.push((column, thread, action));
            let mut non_finite = false;
            for (field, v) in FIELDS.into_iter().zip(fields_mut(cell)) {
                if !v.is_finite() {
                    non_finite = true;
                    repair(RepairAction::ReplacedNonFinite {
                        field,
                        was: v.to_string(),
                    });
                    *v = 0.0;
                } else if *v < 0.0 {
                    repair(RepairAction::ClampedNegative { field, was: *v });
                    *v = 0.0;
                }
            }
            bad[column] += usize::from(non_finite);
            if cell.exclusive > cell.inclusive {
                repair(RepairAction::ClampedExclusive {
                    exclusive: cell.exclusive,
                    inclusive: cell.inclusive,
                });
                cell.exclusive = cell.inclusive;
            }
            if is_time[m.0 as usize] && cell.calls == 0.0 && cell.inclusive != 0.0 {
                repair(RepairAction::RestoredCalls {
                    inclusive: cell.inclusive,
                });
                cell.calls = 1.0;
            }
        }
    }

    // Each surviving axis sums its columns' census; events are judged
    // over the metrics that survive.
    let total = keep_events.len() * nt;
    keep_metrics.retain(|&m| {
        let bad_cells = keep_events.iter().map(|&e| bad[e * nm + m]).sum();
        let name = &profile.metrics()[m].name;
        !mostly_bad("metric", name, bad_cells, total, &mut quality.quarantined)
    });
    let total = keep_metrics.len() * nt;
    keep_events.retain(|&e| {
        let bad_cells = keep_metrics.iter().map(|&m| bad[e * nm + m]).sum();
        let name = &profile.events()[e].name;
        !mostly_bad("event", name, bad_cells, total, &mut quality.quarantined)
    });
    let mut kept = vec![false; bad.len()];
    for &e in &keep_events {
        for &m in &keep_metrics {
            kept[e * nm + m] = true;
        }
    }
    let (metrics, events) = (profile.metrics(), profile.events());
    quality.repairs = repairs
        .into_iter()
        .filter(|&(column, ..)| kept[column])
        .map(|(column, thread, action)| Repair {
            event: events[column / nm].name.to_string(),
            metric: metrics[column % nm].name.clone(),
            thread,
            action,
        })
        .collect();
    if !quality.quarantined.is_empty() {
        *profile = retain_axes(profile, &keep_events, &keep_metrics);
    }

    // Parent rule, on the repaired values. One read of the TIME columns
    // fills two compact event-major buffers: each event's inclusive
    // value, and the sum of its direct children's, added in event order.
    let Some(time) = profile.metric_id("TIME") else {
        return quality;
    };
    let mut own = vec![0.0; profile.event_count() * nt];
    let mut sums = vec![0.0; own.len()];
    for (i, event) in profile.events().iter().enumerate() {
        let column = profile.column(EventId(i as u32), time);
        for (value, cell) in own[i * nt..][..nt].iter_mut().zip(column) {
            *value = cell.inclusive;
        }
        if let Some(pe) = event.parent_name().and_then(|p| profile.event_id(p)) {
            for (sum, cell) in sums[pe.0 as usize * nt..][..nt].iter_mut().zip(column) {
                *sum += cell.inclusive;
            }
        }
    }
    let per_event = own.chunks(nt.max(1)).zip(sums.chunks(nt.max(1)));
    for (event, (own, sums)) in profile.events().iter().zip(per_event) {
        for (thread, (&parent, &children_sum)) in own.iter().zip(sums).enumerate() {
            if children_sum > parent * (1.0 + TOLERANCE) + TOLERANCE {
                quality.flagged.push(Flag {
                    event: event.name.to_string(),
                    thread,
                    children_sum,
                    parent,
                });
            }
        }
    }
    quality
}

/// Indices of the first occurrence of each name; every later occurrence
/// is quarantined as a duplicate.
fn first_names<'a>(
    kind: &'static str,
    names: impl ExactSizeIterator<Item = &'a str>,
    quarantined: &mut Vec<Quarantine>,
) -> Vec<usize> {
    let mut seen = HashSet::with_capacity(names.len());
    let mut keep = Vec::new();
    for (i, name) in names.enumerate() {
        if seen.insert(name) {
            keep.push(i);
        } else {
            quarantined.push(Quarantine {
                kind,
                name: name.to_string(),
                reason: QuarantineReason::DuplicateName,
            });
        }
    }
    keep
}

/// Quarantines an axis whose non-finite share exceeds
/// [`MAX_BAD_FRACTION`]; returns whether it did.
fn mostly_bad(
    kind: &'static str,
    name: &str,
    bad_cells: usize,
    total: usize,
    quarantined: &mut Vec<Quarantine>,
) -> bool {
    let bad = bad_cells as f64 > MAX_BAD_FRACTION * total as f64;
    if bad {
        quarantined.push(Quarantine {
            kind,
            name: name.to_string(),
            reason: QuarantineReason::MostlyNonFinite { bad_cells, total },
        });
    }
    bad
}

/// Rebuilds a profile keeping only the given event/metric indices.
fn retain_axes(src: &Profile, keep_events: &[usize], keep_metrics: &[usize]) -> Profile {
    let mut data = Vec::with_capacity(keep_events.len() * keep_metrics.len() * src.thread_count());
    for &e in keep_events {
        for &m in keep_metrics {
            data.extend_from_slice(src.column(EventId(e as u32), MetricId(m as u32)));
        }
    }
    Profile::from_parts(
        keep_metrics
            .iter()
            .map(|&m| src.metrics()[m].clone())
            .collect(),
        keep_events
            .iter()
            .map(|&e| src.events()[e].clone())
            .collect(),
        src.threads().to_vec(),
        data,
    )
    .expect("kept axes have unique names and whole columns")
}
#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{Measurement, TrialBuilder};

    fn trial() -> Trial {
        let mut b = TrialBuilder::with_flat_threads("t", 2);
        let time = b.metric("TIME");
        let cyc = b.metric("CPU_CYCLES");
        let main = b.event("main");
        let k = b.event("main => k");
        for t in 0..2 {
            b.set(
                main,
                time,
                t,
                Measurement {
                    inclusive: 10.0,
                    exclusive: 4.0,
                    calls: 1.0,
                    subcalls: 1.0,
                },
            );
            b.set(k, time, t, Measurement::leaf(6.0));
            b.set(main, cyc, t, Measurement::leaf(1e6));
            b.set(k, cyc, t, Measurement::leaf(5e5));
        }
        b.build()
    }

    #[test]
    fn clean_profile_is_untouched() {
        let mut t = trial();
        let before = t.clone();
        let q = sanitize_trial(&mut t);
        assert!(q.is_clean());
        assert_eq!(t, before);
        assert_eq!(q.summary(), "data quality: clean");
    }

    #[test]
    fn nan_cell_is_repaired_and_reported() {
        let mut t = trial();
        let time = t.profile.metric_id("TIME").unwrap();
        let main = t.profile.event_id("main").unwrap();
        t.profile.column_mut(main, time)[1].exclusive = f64::NAN;
        let q = sanitize_trial(&mut t);
        assert_eq!(q.repairs.len(), 1);
        assert_eq!(
            q.repairs[0],
            Repair {
                event: "main".into(),
                metric: "TIME".into(),
                thread: 1,
                action: RepairAction::ReplacedNonFinite {
                    field: "exclusive",
                    was: "NaN".into(),
                },
            }
        );
        assert_eq!(t.profile.column(main, time)[1].exclusive, 0.0);
        assert!(q.summary().contains("repaired TIME[main] thread 1"));
    }

    fn repair(event: &str, metric: &str, thread: usize, action: RepairAction) -> Repair {
        Repair {
            event: event.into(),
            metric: metric.into(),
            thread,
            action,
        }
    }

    #[test]
    fn every_non_finite_value_in_every_field_is_repaired_and_reported() {
        let values = [
            (f64::NAN, "NaN"),
            (f64::INFINITY, "inf"),
            (f64::NEG_INFINITY, "-inf"),
        ];
        for ((value, was), metric) in values
            .into_iter()
            .flat_map(|v| [(v, "TIME"), (v, "CPU_CYCLES")])
        {
            for (i, field) in FIELDS.into_iter().enumerate() {
                let mut t = trial();
                let m = t.profile.metric_id(metric).unwrap();
                let k = t.profile.event_id("main => k").unwrap();
                *fields_mut(&mut t.profile.column_mut(k, m)[0])[i] = value;
                let q = sanitize_trial(&mut t);
                let action = RepairAction::ReplacedNonFinite {
                    field,
                    was: was.into(),
                };
                assert_eq!(q.repairs[0], repair("main => k", metric, 0, action));
                // Zeroed calls on a TIME cell that has a value are then restored.
                let repaired = if metric == "TIME" && field == "calls" {
                    1.0
                } else {
                    0.0
                };
                assert_eq!(*fields_mut(&mut t.profile.column_mut(k, m)[0])[i], repaired);
                assert!(q
                    .summary()
                    .contains(&format!("{field} was {was}, set to 0")));
            }
        }
    }

    #[test]
    fn negative_and_inverted_cells_are_clamped() {
        let mut t = trial();
        let time = t.profile.metric_id("TIME").unwrap();
        let k = t.profile.event_id("main => k").unwrap();
        t.profile.column_mut(k, time)[0] = Measurement {
            inclusive: 2.0,
            exclusive: 5.0,
            calls: -3.0,
            subcalls: 0.0,
        };
        let q = sanitize_trial(&mut t);
        let cell = t.profile.column(k, time)[0];
        assert_eq!(cell.calls, 1.0); // clamped to 0, then restored for TIME
        assert_eq!(cell.exclusive, 2.0);
        assert_eq!(
            q.repairs,
            vec![
                repair(
                    "main => k",
                    "TIME",
                    0,
                    RepairAction::ClampedNegative {
                        field: "calls",
                        was: -3.0
                    }
                ),
                repair(
                    "main => k",
                    "TIME",
                    0,
                    RepairAction::ClampedExclusive {
                        exclusive: 5.0,
                        inclusive: 2.0
                    }
                ),
                repair(
                    "main => k",
                    "TIME",
                    0,
                    RepairAction::RestoredCalls { inclusive: 2.0 }
                ),
            ]
        );
        assert!(q.flagged.is_empty());
    }

    /// A TIME-only callpath profile whose child runs several calls.
    fn time_only_trial() -> Trial {
        let mut b = TrialBuilder::with_flat_threads("t", 2);
        let time = b.metric("TIME");
        let main = b.event("main");
        let k = b.event("main => k");
        for t in 0..2 {
            b.set(
                main,
                time,
                t,
                Measurement {
                    inclusive: 10.0,
                    exclusive: 4.0,
                    calls: 1.0,
                    subcalls: 1.0,
                },
            );
            b.set(
                k,
                time,
                t,
                Measurement {
                    inclusive: 6.0,
                    exclusive: 6.0,
                    calls: 3.0,
                    subcalls: 0.0,
                },
            );
        }
        b.build()
    }

    #[test]
    fn clean_profile_passes() {
        let mut t = time_only_trial();
        let before = t.clone();
        let q = sanitize_trial(&mut t);
        assert!(q.is_clean());
        assert_eq!(t, before);
        assert_eq!(q.summary(), "data quality: clean");
    }

    #[test]
    fn negative_and_callless_values_are_repaired() {
        let mut t = time_only_trial();
        let time = t.profile.metric_id("TIME").unwrap();
        let main = t.profile.event_id("main").unwrap();
        let k = t.profile.event_id("main => k").unwrap();
        t.profile.column_mut(main, time)[0].exclusive = -1.0;
        t.profile.column_mut(k, time)[1] = Measurement {
            inclusive: 5.0,
            exclusive: 5.0,
            calls: 0.0,
            subcalls: 0.0,
        };
        let q = sanitize_trial(&mut t);
        assert_eq!(t.profile.column(main, time)[0].exclusive, 0.0);
        assert_eq!(t.profile.column(k, time)[1].calls, 1.0);
        assert_eq!(
            q.repairs,
            vec![
                repair(
                    "main",
                    "TIME",
                    0,
                    RepairAction::ClampedNegative {
                        field: "exclusive",
                        was: -1.0
                    }
                ),
                repair(
                    "main => k",
                    "TIME",
                    1,
                    RepairAction::RestoredCalls { inclusive: 5.0 }
                ),
            ]
        );
        assert!(q.quarantined.is_empty() && q.flagged.is_empty());
    }

    #[test]
    fn the_exclusive_rule_is_one_exact_comparison() {
        let mut t = trial();
        let time = t.profile.metric_id("TIME").unwrap();
        let main = t.profile.event_id("main").unwrap();
        t.profile.column_mut(main, time)[0].exclusive = 10.0;
        let before = t.clone();
        assert!(sanitize_trial(&mut t).is_clean());
        assert_eq!(t, before);
        assert_eq!(
            t.profile.column(main, time)[0].exclusive.to_bits(),
            10.0f64.to_bits()
        );

        let over = 10.0 * (1.0 + 1e-12);
        t.profile.column_mut(main, time)[0].exclusive = over;
        let q = sanitize_trial(&mut t);
        let action = RepairAction::ClampedExclusive {
            exclusive: over,
            inclusive: 10.0,
        };
        assert_eq!(q.repairs, vec![repair("main", "TIME", 0, action)]);
        assert_eq!(t.profile.column(main, time)[0].exclusive, 10.0);
    }

    #[test]
    fn children_above_parent_are_flagged_not_repaired() {
        let mut t = trial();
        let time = t.profile.metric_id("TIME").unwrap();
        let cyc = t.profile.metric_id("CPU_CYCLES").unwrap();
        let k = t.profile.event_id("main => k").unwrap();
        t.profile.column_mut(k, time)[1] = Measurement::leaf(50.0);
        // Counters are not rolled up through the callpath: never flagged.
        t.profile.column_mut(k, cyc)[0] = Measurement::leaf(5e6);
        let before = t.clone();
        let q = sanitize_trial(&mut t);
        assert_eq!(t, before);
        assert!(q.repairs.is_empty() && q.quarantined.is_empty());
        assert_eq!(
            q.flagged,
            vec![Flag {
                event: "main".into(),
                thread: 1,
                children_sum: 50.0,
                parent: 10.0,
            }]
        );
        assert!(!q.is_clean());
        assert_eq!(
            q.summary(),
            "data quality: 0 repair(s), 0 quarantined, 1 flagged\n  \
             flagged TIME[main] thread 1: children inclusive 50 exceeds parent 10"
        );
    }

    #[test]
    fn every_finding_is_reported_not_just_the_first() {
        let mut t = trial();
        let time = t.profile.metric_id("TIME").unwrap();
        let main = t.profile.event_id("main").unwrap();
        let k = t.profile.event_id("main => k").unwrap();
        t.profile.column_mut(main, time)[0] = Measurement {
            inclusive: 1.0,
            exclusive: 2.0,
            calls: 1.0,
            subcalls: 0.0,
        };
        t.profile.column_mut(k, time)[1] = Measurement::leaf(-3.0);
        let q = sanitize_trial(&mut t);
        let negative = |field| RepairAction::ClampedNegative { field, was: -3.0 };
        assert_eq!(
            q.repairs,
            vec![
                repair(
                    "main",
                    "TIME",
                    0,
                    RepairAction::ClampedExclusive {
                        exclusive: 2.0,
                        inclusive: 1.0
                    }
                ),
                repair("main => k", "TIME", 1, negative("inclusive")),
                repair("main => k", "TIME", 1, negative("exclusive")),
            ]
        );
        // The child's 6 on thread 0 now exceeds the repaired parent's 1.
        assert_eq!(
            q.flagged,
            vec![Flag {
                event: "main".into(),
                thread: 0,
                children_sum: 6.0,
                parent: 1.0,
            }]
        );
    }

    #[test]
    fn mostly_nan_metric_is_quarantined() {
        let mut t = trial();
        let cyc = t.profile.metric_id("CPU_CYCLES").unwrap();
        for ei in 0..t.profile.event_count() {
            let col = t.profile.column_mut(crate::EventId(ei as u32), cyc);
            for cell in col.iter_mut() {
                cell.inclusive = f64::NAN;
                cell.exclusive = f64::NAN;
            }
        }
        let q = sanitize_trial(&mut t);
        assert!(q.quarantined.iter().any(|qq| {
            qq.kind == "metric"
                && qq.name == "CPU_CYCLES"
                && matches!(qq.reason, QuarantineReason::MostlyNonFinite { .. })
        }));
        assert!(t.profile.metric_id("CPU_CYCLES").is_none());
        assert!(t.profile.metric_id("TIME").is_some());
        // TIME survives unrepaired.
        assert!(q.repairs.is_empty());
    }

    #[test]
    fn duplicate_metric_name_is_quarantined() {
        let mut t = trial();
        let cyc = t.profile.metric_id("CPU_CYCLES").unwrap();
        t.profile.corrupt_metric_name(cyc, "TIME");
        let q = sanitize_trial(&mut t);
        assert_eq!(
            q.quarantined,
            vec![Quarantine {
                kind: "metric",
                name: "TIME".into(),
                reason: QuarantineReason::DuplicateName,
            }]
        );
        assert_eq!(t.profile.metric_count(), 1);
        // The survivor is the original TIME column.
        let time = t.profile.metric_id("TIME").unwrap();
        let main = t.profile.event_id("main").unwrap();
        assert_eq!(t.profile.column(main, time)[0].inclusive, 10.0);
    }

    #[test]
    fn duplicate_event_name_is_quarantined() {
        let mut t = trial();
        let k = t.profile.event_id("main => k").unwrap();
        t.profile.corrupt_event_name(k, "main");
        let q = sanitize_trial(&mut t);
        assert!(q
            .quarantined
            .iter()
            .any(|qq| qq.kind == "event" && qq.reason == QuarantineReason::DuplicateName));
        assert_eq!(t.profile.event_count(), 1);
    }
}
