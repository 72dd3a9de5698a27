//! Flat CSV interchange format.
//!
//! One row per `(event, metric, thread)` cell:
//!
//! ```text
//! event,metric,node,context,thread,inclusive,exclusive,calls,subcalls
//! main,TIME,0,0,0,10.5,4.5,1,2
//! ```
//!
//! Event names containing commas or quotes are double-quoted with `""`
//! escaping, per RFC 4180.

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

use super::{Ingest, LossyTrial, Policy};
use crate::model::{Measurement, ThreadId, Trial, TrialBuilder};
use crate::{DmfError, Result};
use std::collections::{BTreeSet, HashMap};

const HEADER: &str = "event,metric,node,context,thread,inclusive,exclusive,calls,subcalls";

fn parse_err(line: usize, message: impl Into<String>) -> DmfError {
    DmfError::Parse {
        format: "csv",
        line: Some(line),
        message: message.into(),
    }
}

fn quote(field: &str) -> String {
    if field.contains(',') || field.contains('"') || field.contains('\n') {
        format!("\"{}\"", field.replace('"', "\"\""))
    } else {
        field.to_string()
    }
}

/// Splits one CSV record, honouring RFC 4180 quoting.
fn split_record(line: &str, line_no: usize) -> Result<Vec<String>> {
    let mut fields = Vec::new();
    let mut cur = String::new();
    let mut chars = line.chars().peekable();
    let mut in_quotes = false;
    while let Some(c) = chars.next() {
        match c {
            '"' if in_quotes => {
                if chars.peek() == Some(&'"') {
                    cur.push('"');
                    chars.next();
                } else {
                    in_quotes = false;
                }
            }
            '"' if cur.is_empty() => in_quotes = true,
            '"' => return Err(parse_err(line_no, "quote inside unquoted field")),
            ',' if !in_quotes => {
                fields.push(std::mem::take(&mut cur));
            }
            _ => cur.push(c),
        }
    }
    if in_quotes {
        return Err(parse_err(line_no, "unterminated quoted field"));
    }
    fields.push(cur);
    Ok(fields)
}

/// Serialises a trial to CSV.
pub fn write_trial(trial: &Trial) -> String {
    use std::fmt::Write;

    let p = &trial.profile;
    // Quote each axis name once, not once per row.
    let event_names: Vec<String> = p.events().iter().map(|e| quote(&e.name)).collect();
    let metric_names: Vec<String> = p.metrics().iter().map(|m| quote(&m.name)).collect();
    let mut out = String::from(HEADER);
    out.push('\n');
    // columns() yields event-major, metric-inner order — the same row
    // order the nested loops produced.
    for (e, m, col) in p.columns() {
        let event = &event_names[e.0 as usize];
        let metric = &metric_names[m.0 as usize];
        for (tid, cell) in p.threads().iter().zip(col) {
            writeln!(
                out,
                "{},{},{},{},{},{},{},{},{}",
                event,
                metric,
                tid.node,
                tid.context,
                tid.thread,
                cell.inclusive,
                cell.exclusive,
                cell.calls,
                cell.subcalls
            )
            .unwrap_or(()); // writing to String cannot fail
        }
    }
    out
}

/// One parsed data row. Event/metric names are moved out of the field
/// vector rather than cloned per row.
struct Row {
    event: String,
    metric: String,
    tid: ThreadId,
    m: Measurement,
}

/// Parses one data record (header excluded).
fn parse_row(line: &str, line_no: usize) -> Result<Row> {
    let f = split_record(line, line_no)?;
    if f.len() != 9 {
        return Err(parse_err(
            line_no,
            format!("expected 9 fields, found {}", f.len()),
        ));
    }
    let int = |i: usize| -> Result<u32> {
        f[i].trim()
            .parse()
            .map_err(|_| parse_err(line_no, format!("bad integer {:?}", f[i])))
    };
    let num = |i: usize| -> Result<f64> {
        f[i].trim()
            .parse()
            .map_err(|_| parse_err(line_no, format!("bad number {:?}", f[i])))
    };
    let tid = ThreadId {
        node: int(2)?,
        context: int(3)?,
        thread: int(4)?,
    };
    let m = Measurement {
        inclusive: num(5)?,
        exclusive: num(6)?,
        calls: num(7)?,
        subcalls: num(8)?,
    };
    let mut f = f.into_iter();
    let (Some(event), Some(metric)) = (f.next(), f.next()) else {
        // Unreachable: the field count was checked above.
        return Err(parse_err(line_no, "missing event/metric fields"));
    };
    Ok(Row {
        event,
        metric,
        tid,
        m,
    })
}

/// Builds the trial from collected rows; thread ordering is the sorted
/// `BTreeSet` order, with each tid's index interned once so per-row
/// placement is an O(1) map hit, not a binary search.
fn build_trial(trial_name: &str, rows: Vec<Row>, thread_set: BTreeSet<ThreadId>) -> Trial {
    let threads: Vec<ThreadId> = thread_set.into_iter().collect();
    let thread_index: HashMap<ThreadId, usize> = threads
        .iter()
        .enumerate()
        .map(|(i, &tid)| (tid, i))
        .collect();
    let mut builder = TrialBuilder::with_threads(trial_name, threads);
    for row in rows {
        let e = builder.event(&row.event);
        let m = builder.metric(&row.metric);
        let ti = thread_index.get(&row.tid).copied().unwrap_or(0);
        builder.set(e, m, ti, row.m);
    }
    builder.build()
}

/// One walk over a CSV trial. A wrong header is a fault the lossy
/// policy steps over (the rows are still attempted); no usable row at
/// all ends the walk.
fn read_trial(trial_name: &str, text: &str, ingest: &mut Ingest) -> Result<Trial> {
    let mut lines = text.lines().enumerate();
    let (_, header) = lines.next().ok_or_else(|| parse_err(1, "empty input"))?;
    if header.trim() != HEADER {
        ingest.fault(parse_err(1, format!("unexpected header {header:?}")), |c| {
            format!("{c}; attempting rows anyway")
        })?;
    }

    let mut rows: Vec<Row> = Vec::new();
    let mut thread_set: BTreeSet<ThreadId> = BTreeSet::new();
    for (idx, line) in lines {
        if line.trim().is_empty() {
            continue;
        }
        match parse_row(line, idx + 1) {
            Ok(row) => {
                thread_set.insert(row.tid);
                rows.push(row);
                ingest.rows_kept += 1;
            }
            Err(e) => ingest.skip_row(e)?,
        }
    }
    if rows.is_empty() {
        let cause = if ingest.rows_dropped == 0 {
            "no data rows"
        } else {
            "no usable data rows"
        };
        return Err(parse_err(0, cause));
    }
    Ok(build_trial(trial_name, rows, thread_set))
}

/// Parses a trial from CSV produced by [`write_trial`] (or compatible),
/// strictly: the first malformed construct is an error.
pub fn parse_trial(trial_name: &str, text: &str) -> Result<Trial> {
    read_trial(trial_name, text, &mut Ingest::new("csv", Policy::Strict))
}

/// Parses as much of a CSV trial as possible: malformed rows are
/// skipped and reported as diagnostics instead of aborting the parse.
/// A wrong header is reported but the rows are still attempted.
pub fn parse_trial_lossy(trial_name: &str, text: &str) -> LossyTrial {
    Ingest::lossy_trial("csv", |ingest| read_trial(trial_name, text, ingest))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{Event, Metric, Profile};

    fn sample_trial() -> Trial {
        let mut p = Profile::new(vec![ThreadId::flat(0), ThreadId::flat(1)]);
        let m = p.add_metric(Metric::measured("TIME")).unwrap();
        let e = p.add_event(Event::new("main")).unwrap();
        let f = p.add_event(Event::new("weird, \"name\"")).unwrap();
        p.set(
            e,
            m,
            0,
            Measurement {
                inclusive: 10.0,
                exclusive: 4.0,
                calls: 1.0,
                subcalls: 2.0,
            },
        )
        .unwrap();
        p.set(
            e,
            m,
            1,
            Measurement {
                inclusive: 11.0,
                exclusive: 5.0,
                calls: 1.0,
                subcalls: 2.0,
            },
        )
        .unwrap();
        p.set(f, m, 0, Measurement::leaf(1.0)).unwrap();
        p.set(f, m, 1, Measurement::leaf(2.0)).unwrap();
        Trial::new("t", p)
    }

    #[test]
    fn roundtrip_preserves_profile() {
        let t = sample_trial();
        let csv = write_trial(&t);
        let back = parse_trial("t", &csv).unwrap();
        assert_eq!(t.profile, back.profile);
    }

    #[test]
    fn quoting_of_special_names() {
        let t = sample_trial();
        let csv = write_trial(&t);
        assert!(csv.contains("\"weird, \"\"name\"\"\""));
    }

    #[test]
    fn rejects_wrong_header() {
        assert!(parse_trial("t", "a,b,c\n1,2,3\n").is_err());
    }

    #[test]
    fn rejects_short_rows() {
        let text = format!("{HEADER}\nmain,TIME,0,0,0,1,1\n");
        assert!(parse_trial("t", &text).is_err());
    }

    #[test]
    fn rejects_bad_numbers() {
        let text = format!("{HEADER}\nmain,TIME,0,0,0,x,1,1,0\n");
        assert!(parse_trial("t", &text).is_err());
        let text2 = format!("{HEADER}\nmain,TIME,zero,0,0,1,1,1,0\n");
        assert!(parse_trial("t", &text2).is_err());
    }

    #[test]
    fn rejects_empty_and_header_only() {
        assert!(parse_trial("t", "").is_err());
        assert!(parse_trial("t", &format!("{HEADER}\n")).is_err());
    }

    #[test]
    fn rejects_unterminated_quote() {
        let text = format!("{HEADER}\n\"main,TIME,0,0,0,1,1,1,0\n");
        assert!(parse_trial("t", &text).is_err());
    }

    #[test]
    fn split_record_handles_escaped_quotes() {
        let f = split_record("\"a\"\"b\",c", 1).unwrap();
        assert_eq!(f, vec!["a\"b", "c"]);
    }

    #[test]
    fn lossy_parse_skips_bad_rows_and_reports_each() {
        let text = format!(
            "{HEADER}\n\
             main,TIME,0,0,0,1,1,1,0\n\
             main,TIME,0,0,zero,2,2,1,0\n\
             main,TIME,0,0,1,2,2\n\
             main,TIME,0,0,1,3,3,1,0\n"
        );
        let r = parse_trial_lossy("t", &text);
        let t = r.trial.expect("two good rows survive");
        assert_eq!(r.rows_kept, 2);
        assert_eq!(r.rows_dropped, 2);
        assert_eq!(r.diagnostics.len(), 2);
        assert_eq!(r.diagnostics[0].line, Some(3));
        assert!(r.diagnostics[0].message.contains("bad integer"));
        assert_eq!(r.diagnostics[1].line, Some(4));
        assert!(r.diagnostics[1].message.contains("expected 9 fields"));
        assert_eq!(t.profile.thread_count(), 2);
    }

    #[test]
    fn lossy_parse_tolerates_wrong_header() {
        let text = "not,a,header\nmain,TIME,0,0,0,1,1,1,0\n";
        let r = parse_trial_lossy("t", text);
        assert!(r.trial.is_some());
        assert!(r.diagnostics[0].message.contains("unexpected header"));
        assert_eq!(r.rows_kept, 1);
    }

    #[test]
    fn lossy_parse_of_garbage_returns_none_with_diagnostics() {
        let r = parse_trial_lossy("t", "");
        assert!(r.trial.is_none());
        assert!(!r.diagnostics.is_empty());
        let r = parse_trial_lossy("t", &format!("{HEADER}\nnot a row at all\n"));
        assert!(r.trial.is_none());
        assert!(r
            .diagnostics
            .iter()
            .any(|d| d.message.contains("no usable data rows")));
    }

    #[test]
    fn lossy_parse_of_clean_input_matches_strict() {
        let t = sample_trial();
        let csv = write_trial(&t);
        let strict = parse_trial("t", &csv).unwrap();
        let lossy = parse_trial_lossy("t", &csv);
        assert!(lossy.is_clean());
        assert_eq!(lossy.trial.unwrap().profile, strict.profile);
    }

    #[test]
    fn threads_are_sorted_regardless_of_row_order() {
        let text = format!("{HEADER}\nmain,TIME,0,0,1,2,2,1,0\nmain,TIME,0,0,0,1,1,1,0\n");
        let t = parse_trial("t", &text).unwrap();
        assert_eq!(t.profile.threads(), &[ThreadId::flat(0), ThreadId::flat(1)]);
        let m = t.profile.metric_id("TIME").unwrap();
        let e = t.profile.event_id("main").unwrap();
        assert_eq!(t.profile.get(e, m, 0).unwrap().inclusive, 1.0);
        assert_eq!(t.profile.get(e, m, 1).unwrap().inclusive, 2.0);
    }
}
