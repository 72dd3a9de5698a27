//! TAU text profile format.
//!
//! TAU writes one file per thread per metric, named `profile.N.C.T`.
//! The layout this reader accepts (a faithful subset of TAU's):
//!
//! ```text
//! 2 templated_functions_MULTI_TIME
//! # Name Calls Subrs Excl Incl ProfileCalls
//! "main" 1 1 400 1000 0
//! "main => loop" 1 0 600 600 0
//! ```
//!
//! The first line carries the function count and the metric name after
//! the `templated_functions_MULTI_` prefix; each data line is a quoted
//! event name followed by calls, subcalls, exclusive, inclusive and a
//! trailing (ignored) profile-call count.

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

use super::{Diagnostic, Ingest, LossyTrial, Policy};
use crate::model::{Measurement, ThreadId, Trial, TrialBuilder};
use crate::{DmfError, Result};
use std::collections::HashMap;

/// Parsed contents of a single `profile.N.C.T` file.
#[derive(Debug, Clone, PartialEq)]
pub struct TauThreadProfile {
    /// Metric the file measures (from the header line).
    pub metric: String,
    /// Event rows: `(name, measurement)`.
    pub rows: Vec<(String, Measurement)>,
}

fn parse_err(line: usize, message: impl Into<String>) -> DmfError {
    DmfError::Parse {
        format: "tau",
        line: Some(line),
        message: message.into(),
    }
}

/// Parses one function-table row: a quoted name, then numeric fields.
fn parse_data_row(trimmed: &str, line_no: usize) -> Result<(String, Measurement)> {
    if !trimmed.starts_with('"') {
        return Err(parse_err(line_no, "expected quoted event name"));
    }
    let close = trimmed[1..]
        .find('"')
        .ok_or_else(|| parse_err(line_no, "unterminated event name"))?;
    let name = trimmed[1..=close].to_string();
    let rest = &trimmed[close + 2..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    if fields.len() < 4 {
        return Err(parse_err(
            line_no,
            format!("expected at least 4 numeric fields, found {}", fields.len()),
        ));
    }
    let num = |i: usize| -> Result<f64> {
        fields[i]
            .parse::<f64>()
            .map_err(|_| parse_err(line_no, format!("bad numeric field {:?}", fields[i])))
    };
    Ok((
        name,
        Measurement {
            calls: num(0)?,
            subcalls: num(1)?,
            exclusive: num(2)?,
            inclusive: num(3)?,
        },
    ))
}

/// One walk over a TAU profile file. A malformed row is skipped and a
/// row count short of the header's declaration keeps the partial
/// profile; an unreadable header ends the walk, since there is no
/// metric to file rows under.
fn read_thread(text: &str, ingest: &mut Ingest) -> Result<TauThreadProfile> {
    let mut lines = text.lines().enumerate();
    let (_, header) = lines.next().ok_or_else(|| parse_err(1, "empty profile"))?;
    let mut parts = header.split_whitespace();
    let count: usize = parts
        .next()
        .ok_or_else(|| parse_err(1, "missing function count"))?
        .parse()
        .map_err(|_| parse_err(1, "function count is not a number"))?;
    let tag = parts
        .next()
        .ok_or_else(|| parse_err(1, "missing metric tag"))?;
    let metric = tag
        .strip_prefix("templated_functions_MULTI_")
        .ok_or_else(|| parse_err(1, format!("unexpected metric tag {tag:?}")))?
        .to_string();

    // The declared count is untrusted input: reserve no more rows than
    // the text has bytes.
    let mut rows = Vec::with_capacity(count.min(text.len()));
    for (idx, line) in lines {
        let line_no = idx + 1;
        let trimmed = line.trim();
        if trimmed.is_empty() || trimmed.starts_with('#') {
            continue;
        }
        if rows.len() == count {
            break; // aggregate/user-event sections follow the function table
        }
        match parse_data_row(trimmed, line_no) {
            Ok(row) => {
                rows.push(row);
                ingest.rows_kept += 1;
            }
            Err(e) => ingest.skip_row(e)?,
        }
    }
    if rows.len() != count {
        let cause = format!("header declared {count} functions, found {}", rows.len());
        ingest.fault(parse_err(0, cause), |c| {
            format!("{c} (keeping partial profile)")
        })?;
    }
    Ok(TauThreadProfile { metric, rows })
}

/// [`read_thread`] as one file of a trial: under the lossy policy an
/// unreadable header skips the file.
fn read_file(text: &str, ingest: &mut Ingest) -> Result<Option<TauThreadProfile>> {
    match read_thread(text, ingest) {
        Ok(parsed) => Ok(Some(parsed)),
        Err(cause) => {
            let header = text.lines().next().unwrap_or("");
            ingest.fault(cause, |c| {
                format!("unreadable header {header:?} ({c}); file skipped")
            })?;
            Ok(None)
        }
    }
}

/// Parses one TAU profile file.
pub fn parse_thread_profile(text: &str) -> Result<TauThreadProfile> {
    read_thread(text, &mut Ingest::new("tau", Policy::Strict))
}

/// Writes one thread's rows in TAU text form (the inverse of
/// [`parse_thread_profile`]).
pub fn write_thread_profile(metric: &str, rows: &[(String, Measurement)]) -> String {
    use std::fmt::Write;

    let mut out = format!("{} templated_functions_MULTI_{}\n", rows.len(), metric);
    out.push_str("# Name Calls Subrs Excl Incl ProfileCalls\n");
    for (name, m) in rows {
        writeln!(
            out,
            "\"{}\" {} {} {} {} 0",
            name, m.calls, m.subcalls, m.exclusive, m.inclusive
        )
        .unwrap_or(()); // writing to String cannot fail
    }
    out
}

/// Lossy variant of [`parse_thread_profile`]: malformed rows are
/// skipped with a diagnostic, and a row count short of the header's
/// declaration is reported rather than fatal. Returns `None` only when
/// the header itself is unreadable (there is no metric to file rows
/// under).
pub fn parse_thread_profile_lossy(text: &str) -> (Option<TauThreadProfile>, Vec<Diagnostic>) {
    let mut ingest = Ingest::new("tau", Policy::Lossy);
    let walked = read_file(text, &mut ingest);
    let parsed = ingest.finish(walked).flatten();
    (parsed, ingest.diagnostics)
}

/// Parses the `N.C.T` suffix of a `profile.N.C.T` filename.
pub fn parse_profile_filename(name: &str) -> Option<ThreadId> {
    let rest = name.strip_prefix("profile.")?;
    let mut it = rest.split('.');
    let node = it.next()?.parse().ok()?;
    let context = it.next()?.parse().ok()?;
    let thread = it.next()?.parse().ok()?;
    if it.next().is_some() {
        return None;
    }
    Some(ThreadId {
        node,
        context,
        thread,
    })
}

/// One walk over the files of a trial. Only threads whose file was
/// usable become part of the trial, so under the lossy policy a rank
/// that never flushed its file does not appear as a column of zeros.
fn read_trial(trial_name: &str, files: &[(ThreadId, &str)], ingest: &mut Ingest) -> Result<Trial> {
    let trial_err = |message: &str| DmfError::Parse {
        format: "tau",
        line: None,
        message: message.into(),
    };
    if files.is_empty() {
        return Err(trial_err("no profile files supplied"));
    }
    let mut parsed_files: Vec<(ThreadId, TauThreadProfile)> = Vec::with_capacity(files.len());
    for (i, (tid, text)) in files.iter().enumerate() {
        let first = ingest.diagnostics.len();
        let parsed = read_file(text, ingest)?;
        for d in &mut ingest.diagnostics[first..] {
            d.message = format!("file {i} (thread {tid:?}): {}", d.message);
        }
        parsed_files.extend(parsed.map(|p| (*tid, p)));
    }
    if parsed_files.is_empty() {
        return Err(trial_err("no usable profile files"));
    }

    let mut threads: Vec<ThreadId> = parsed_files.iter().map(|(t, _)| *t).collect();
    threads.sort();
    threads.dedup();
    // Intern each tid's index before the vector moves into the builder:
    // per-file placement becomes an O(1) map hit with no threads.clone().
    let thread_index: HashMap<ThreadId, usize> = threads
        .iter()
        .enumerate()
        .map(|(i, &tid)| (tid, i))
        .collect();
    let mut builder = TrialBuilder::with_threads(trial_name, threads);
    for (tid, parsed) in parsed_files {
        let metric = builder.metric(&parsed.metric);
        let ti = thread_index.get(&tid).copied().unwrap_or(0);
        for (name, m) in parsed.rows {
            let ev = builder.event(&name);
            builder.set(ev, metric, ti, m);
        }
    }
    Ok(builder.build())
}

/// Assembles a [`Trial`] from per-thread profile texts, e.g. the contents
/// of one TAU profile directory. Multiple metrics may be supplied by
/// including each thread once per metric.
pub fn assemble_trial(trial_name: &str, files: &[(ThreadId, &str)]) -> Result<Trial> {
    read_trial(trial_name, files, &mut Ingest::new("tau", Policy::Strict))
}

/// Lossy variant of [`assemble_trial`]: files that fail to parse are
/// skipped (with per-file diagnostics), partially readable files
/// contribute their good rows, and the trial covers whatever threads
/// supplied any data. Returns no trial only when every file was
/// unusable.
pub fn assemble_trial_lossy(trial_name: &str, files: &[(ThreadId, &str)]) -> LossyTrial {
    Ingest::lossy_trial("tau", |ingest| read_trial(trial_name, files, ingest))
}

#[cfg(test)]
mod tests {
    use super::*;

    const SAMPLE: &str = "\
2 templated_functions_MULTI_TIME
# Name Calls Subrs Excl Incl ProfileCalls
\"main\" 1 1 400 1000 0
\"main => loop\" 1 0 600 600 0
";

    #[test]
    fn parses_sample_profile() {
        let p = parse_thread_profile(SAMPLE).unwrap();
        assert_eq!(p.metric, "TIME");
        assert_eq!(p.rows.len(), 2);
        assert_eq!(p.rows[0].0, "main");
        assert_eq!(p.rows[0].1.inclusive, 1000.0);
        assert_eq!(p.rows[0].1.exclusive, 400.0);
        assert_eq!(p.rows[1].0, "main => loop");
    }

    #[test]
    fn roundtrip_write_parse() {
        let p = parse_thread_profile(SAMPLE).unwrap();
        let text = write_thread_profile(&p.metric, &p.rows);
        let again = parse_thread_profile(&text).unwrap();
        assert_eq!(p, again);
    }

    #[test]
    fn rejects_empty_input() {
        assert!(parse_thread_profile("").is_err());
    }

    #[test]
    fn rejects_bad_header() {
        assert!(parse_thread_profile("x templated_functions_MULTI_TIME\n").is_err());
        assert!(parse_thread_profile("2 wrong_tag\n").is_err());
        assert!(parse_thread_profile("2\n").is_err());
    }

    #[test]
    fn rejects_unquoted_name() {
        let bad = "1 templated_functions_MULTI_TIME\nmain 1 0 1 1 0\n";
        assert!(matches!(
            parse_thread_profile(bad),
            Err(DmfError::Parse { format: "tau", .. })
        ));
    }

    #[test]
    fn rejects_missing_fields() {
        let bad = "1 templated_functions_MULTI_TIME\n\"main\" 1 0\n";
        assert!(parse_thread_profile(bad).is_err());
    }

    #[test]
    fn rejects_count_mismatch() {
        let bad = "3 templated_functions_MULTI_TIME\n\"main\" 1 0 1 1 0\n";
        assert!(parse_thread_profile(bad).is_err());
    }

    #[test]
    fn huge_declared_count_is_an_error_not_an_allocation() {
        let text = "1000000000000000 templated_functions_MULTI_TIME\n\"main\" 1 0 1 1 0\n";
        let err = parse_thread_profile(text).unwrap_err();
        assert!(err.to_string().contains("found 1"), "{err}");
        let (parsed, diags) = parse_thread_profile_lossy(text);
        assert_eq!(parsed.unwrap().rows.len(), 1);
        assert!(diags[0].message.contains("keeping partial profile"));
    }

    #[test]
    fn rejects_non_numeric_field() {
        let bad = "1 templated_functions_MULTI_TIME\n\"main\" 1 z 1 1 0\n";
        assert!(parse_thread_profile(bad).is_err());
    }

    #[test]
    fn filename_parsing() {
        assert_eq!(
            parse_profile_filename("profile.3.0.7"),
            Some(ThreadId {
                node: 3,
                context: 0,
                thread: 7
            })
        );
        assert_eq!(parse_profile_filename("profile.3.0"), None);
        assert_eq!(parse_profile_filename("profile.3.0.7.9"), None);
        assert_eq!(parse_profile_filename("prof.1.2.3"), None);
        assert_eq!(parse_profile_filename("profile.a.b.c"), None);
    }

    #[test]
    fn assemble_trial_multiple_threads_and_metrics() {
        let t0_time = "1 templated_functions_MULTI_TIME\n\"main\" 1 0 10 10 0\n";
        let t1_time = "1 templated_functions_MULTI_TIME\n\"main\" 1 0 12 12 0\n";
        let t0_cyc = "1 templated_functions_MULTI_CPU_CYCLES\n\"main\" 1 0 1e6 1e6 0\n";
        let t1_cyc = "1 templated_functions_MULTI_CPU_CYCLES\n\"main\" 1 0 1.2e6 1.2e6 0\n";
        let trial = assemble_trial(
            "1_2",
            &[
                (ThreadId::flat(0), t0_time),
                (ThreadId::flat(1), t1_time),
                (ThreadId::flat(0), t0_cyc),
                (ThreadId::flat(1), t1_cyc),
            ],
        )
        .unwrap();
        assert_eq!(trial.profile.thread_count(), 2);
        assert_eq!(trial.profile.metrics().len(), 2);
        let cyc = trial.profile.metric_id("CPU_CYCLES").unwrap();
        let main = trial.profile.event_id("main").unwrap();
        assert_eq!(trial.profile.get(main, cyc, 1).unwrap().exclusive, 1.2e6);
    }

    #[test]
    fn assemble_trial_empty_is_error() {
        assert!(assemble_trial("x", &[]).is_err());
    }

    #[test]
    fn lossy_parse_skips_bad_rows_and_keeps_partial() {
        let text = "\
3 templated_functions_MULTI_TIME
# Name Calls Subrs Excl Incl ProfileCalls
\"main\" 1 1 400 1000 0
garbage row without quotes
\"main => loop\" 1 0 600 600 0
";
        let (parsed, diags) = parse_thread_profile_lossy(text);
        let p = parsed.unwrap();
        assert_eq!(p.metric, "TIME");
        assert_eq!(p.rows.len(), 2);
        // One skipped row plus the count-mismatch notice.
        assert_eq!(diags.len(), 2);
        assert!(diags[0].message.starts_with("row skipped"));
        assert_eq!(diags[0].line, Some(4));
        assert!(diags[1].message.contains("keeping partial profile"));
    }

    #[test]
    fn lossy_parse_unreadable_header_is_none() {
        let (parsed, diags) = parse_thread_profile_lossy("not a header\n\"main\" 1 0 1 1 0\n");
        assert!(parsed.is_none());
        assert_eq!(diags.len(), 1);
        assert!(diags[0].message.contains("unreadable header"));
    }

    #[test]
    fn lossy_parse_of_clean_input_matches_strict() {
        let strict = parse_thread_profile(SAMPLE).unwrap();
        let (lossy, diags) = parse_thread_profile_lossy(SAMPLE);
        assert_eq!(lossy.unwrap(), strict);
        assert!(diags.is_empty());
    }

    #[test]
    fn assemble_lossy_skips_unusable_files() {
        let good = "1 templated_functions_MULTI_TIME\n\"main\" 1 0 10 10 0\n";
        let bad = "truncated junk";
        let out = assemble_trial_lossy(
            "partial",
            &[(ThreadId::flat(0), good), (ThreadId::flat(1), bad)],
        );
        let trial = out.trial.unwrap();
        // The dead rank contributes no thread, so statistics are not
        // diluted by a column of zeros.
        assert_eq!(trial.profile.thread_count(), 1);
        assert_eq!(out.rows_kept, 1);
        assert!(out
            .diagnostics
            .iter()
            .any(|d| d.message.contains("unreadable header")));
    }

    #[test]
    fn assemble_lossy_all_bad_is_none() {
        let out = assemble_trial_lossy("none", &[(ThreadId::flat(0), "junk")]);
        assert!(out.trial.is_none());
        assert!(out
            .diagnostics
            .iter()
            .any(|d| d.message.contains("no usable profile files")));
    }

    #[test]
    fn assemble_lossy_clean_matches_strict() {
        let t0 = "1 templated_functions_MULTI_TIME\n\"main\" 1 0 10 10 0\n";
        let t1 = "1 templated_functions_MULTI_TIME\n\"main\" 1 0 12 12 0\n";
        let files = [(ThreadId::flat(0), t0), (ThreadId::flat(1), t1)];
        let strict = assemble_trial("t", &files).unwrap();
        let lossy = assemble_trial_lossy("t", &files);
        assert!(lossy.is_clean());
        assert_eq!(lossy.trial.unwrap(), strict);
    }
}
