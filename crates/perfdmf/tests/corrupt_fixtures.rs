//! Golden tests over checked-in corrupt fixtures: each known corruption
//! shape must produce *exactly* the expected diagnostics and
//! `DataQuality` actions, so the degradation behaviour is pinned, not
//! merely "doesn't crash".

use perfdmf::formats::{csv, gprof, tau};
use perfdmf::quality::{Repair, RepairAction};
use perfdmf::sanitize_trial;

fn fixture(name: &str) -> String {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {path:?}: {e}"))
}

#[test]
fn truncated_tau_file_keeps_partial_profile_with_exact_diagnostics() {
    let text = fixture("corrupt_truncated.tau");
    // Strict parse fails outright.
    assert!(tau::parse_thread_profile(&text).is_err());

    let (parsed, diags) = tau::parse_thread_profile_lossy(&text);
    let p = parsed.expect("header is readable; partial profile expected");
    assert_eq!(p.metric, "TIME");
    assert_eq!(p.rows.len(), 1);
    assert_eq!(p.rows[0].0, "main");
    assert_eq!(p.rows[0].1.inclusive, 1000.0);

    assert_eq!(diags.len(), 2, "diagnostics: {diags:?}");
    assert_eq!(diags[0].format, "tau");
    assert_eq!(diags[0].line, Some(4));
    assert_eq!(
        diags[0].message,
        "row skipped: expected at least 4 numeric fields, found 3"
    );
    assert_eq!(diags[1].line, None);
    assert_eq!(
        diags[1].message,
        "header declared 3 functions, found 1 (keeping partial profile)"
    );
}

#[test]
fn nan_counter_csv_parses_then_sanitizes_with_exact_repairs() {
    let text = fixture("corrupt_nan.csv");
    // "NaN" parses as a float, so even the strict parser accepts the
    // row — the sanitization pass is what must catch it.
    let mut trial = csv::parse_trial("nan-fixture", &text).expect("NaN parses as f64");
    let report = sanitize_trial(&mut trial);

    assert!(report.quarantined.is_empty(), "report: {report:?}");
    assert_eq!(
        report.repairs,
        vec![
            Repair {
                event: "main".into(),
                metric: "TIME".into(),
                thread: 1,
                action: RepairAction::ReplacedNonFinite {
                    field: "inclusive",
                    was: "NaN".into(),
                },
            },
            // Zeroing the NaN inclusive leaves exclusive above it; the
            // pass must notice and clamp in the same sweep.
            Repair {
                event: "main".into(),
                metric: "TIME".into(),
                thread: 1,
                action: RepairAction::ClampedExclusive {
                    exclusive: 4.0,
                    inclusive: 0.0,
                },
            },
        ]
    );
    // The repaired cell is actually repaired.
    let m = trial.profile.metric_id("TIME").unwrap();
    let e = trial.profile.event_id("main").unwrap();
    let cell = trial.profile.get(e, m, 1).unwrap();
    assert_eq!(cell.inclusive, 0.0);
    assert_eq!(cell.exclusive, 0.0);
    // Summary names the actions for the human report.
    let summary = report.summary();
    assert!(summary.contains("2 repair(s)"), "{summary}");
    assert!(summary.contains("inclusive was NaN, set to 0"), "{summary}");
}

#[test]
fn missing_thread_column_csv_drops_exactly_that_row() {
    let text = fixture("corrupt_missing_thread.csv");
    assert!(csv::parse_trial("t", &text).is_err());

    let out = csv::parse_trial_lossy("missing-thread", &text);
    assert_eq!(out.rows_kept, 2);
    assert_eq!(out.rows_dropped, 1);
    assert_eq!(out.diagnostics.len(), 1);
    assert_eq!(out.diagnostics[0].format, "csv");
    assert_eq!(out.diagnostics[0].line, Some(3));
    assert_eq!(
        out.diagnostics[0].message,
        "row skipped: expected 9 fields, found 8"
    );
    let trial = out.trial.expect("two rows survive");
    // Only thread 0 supplied data; the half-row for main contributes
    // nothing.
    assert_eq!(trial.profile.thread_count(), 1);
    assert!(trial.profile.event_id("main").is_some());
    assert!(trial.profile.event_id("compute").is_some());
}

#[test]
fn garbled_gprof_row_is_skipped_with_exact_diagnostic() {
    let text = fixture("corrupt_row.gprof");
    assert!(gprof::parse_flat_profile("g", &text).is_err());

    let out = gprof::parse_flat_profile_lossy("gprof-fixture", &text);
    assert_eq!(out.rows_kept, 2);
    assert_eq!(out.rows_dropped, 1);
    assert_eq!(out.diagnostics.len(), 1);
    assert_eq!(out.diagnostics[0].line, Some(7));
    assert_eq!(
        out.diagnostics[0].message,
        "row skipped: bad self-seconds \"###\""
    );
    let trial = out.trial.expect("good rows survive");
    assert!(trial.profile.event_id("compute").is_some());
    assert!(trial.profile.event_id("main").is_some());
}
