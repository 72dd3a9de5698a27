//! gprof-style flat profile reader.
//!
//! Represents the family of single-threaded, external profile formats
//! PerfDMF can ingest. The accepted layout is gprof's classic flat
//! profile table:
//!
//! ```text
//! Flat profile:
//!
//! Each sample counts as 0.01 seconds.
//!   %   cumulative   self              self     total
//!  time   seconds   seconds    calls  ms/call  ms/call  name
//!  90.01      9.00     9.00      100    90.00    95.00  compute
//!   9.99      9.99     0.99        1   990.00  9990.00  main
//! ```
//!
//! Each row becomes an event in a single-thread trial with the `TIME`
//! metric: `self seconds` → exclusive, `calls × total ms/call` →
//! inclusive (when per-call figures are present, else exclusive).

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

use super::{Ingest, LossyTrial, Policy};
use crate::model::{Measurement, ThreadId, Trial, TrialBuilder};
use crate::{DmfError, Result};

fn parse_err(line: usize, message: impl Into<String>) -> DmfError {
    DmfError::Parse {
        format: "gprof",
        line: Some(line),
        message: message.into(),
    }
}

/// Parses one flat-profile table row into `(name, measurement)`.
fn parse_table_row(trimmed: &str, line_no: usize) -> Result<(String, Measurement)> {
    let fields: Vec<&str> = trimmed.split_whitespace().collect();
    if fields.len() < 3 {
        return Err(parse_err(line_no, "expected at least 3 columns"));
    }
    let self_seconds: f64 = fields[2]
        .parse()
        .map_err(|_| parse_err(line_no, format!("bad self-seconds {:?}", fields[2])))?;
    // Optional columns: calls, self ms/call, total ms/call. gprof
    // leaves them blank for functions it could not count.
    let (calls, total_ms_per_call, name_start) = if fields.len() >= 7 {
        let calls: f64 = fields[3]
            .parse()
            .map_err(|_| parse_err(line_no, format!("bad call count {:?}", fields[3])))?;
        let total: f64 = fields[5]
            .parse()
            .map_err(|_| parse_err(line_no, format!("bad total ms/call {:?}", fields[5])))?;
        (calls, Some(total), 6)
    } else {
        (0.0, None, 3)
    };
    let name = fields[name_start..].join(" ");
    if name.is_empty() {
        return Err(parse_err(line_no, "missing function name"));
    }
    let inclusive = match total_ms_per_call {
        Some(ms) => calls * ms / 1000.0,
        None => self_seconds,
    };
    Ok((
        name,
        Measurement {
            inclusive: inclusive.max(self_seconds),
            exclusive: self_seconds,
            calls: if calls > 0.0 { calls } else { 1.0 },
            subcalls: 0.0,
        },
    ))
}

/// One walk over a gprof flat profile: malformed table rows are
/// faults the lossy policy skips; a missing table, or one with no
/// usable row, ends the walk.
fn read_trial(trial_name: &str, text: &str, ingest: &mut Ingest) -> Result<Trial> {
    let mut builder = TrialBuilder::with_threads(trial_name, vec![ThreadId::flat(0)]);
    let metric = builder.metric("TIME");

    let mut in_table = false;
    for (idx, line) in text.lines().enumerate() {
        let line_no = idx + 1;
        let trimmed = line.trim();
        if !in_table {
            // The data table starts after the "time seconds ..." header.
            if trimmed.starts_with("time") && trimmed.contains("name") {
                in_table = true;
            }
            continue;
        }
        if trimmed.is_empty() {
            break; // flat profile table ends at the first blank line
        }
        match parse_table_row(trimmed, line_no) {
            Ok((name, m)) => {
                let ev = builder.event(&name);
                builder.set(ev, metric, 0, m);
                ingest.rows_kept += 1;
            }
            Err(e) => ingest.skip_row(e)?,
        }
    }
    if ingest.rows_kept == 0 {
        return Err(DmfError::Parse {
            format: "gprof",
            line: None,
            message: if in_table {
                "no usable rows in flat profile table".into()
            } else {
                "no flat profile table found".into()
            },
        });
    }
    Ok(builder.build())
}

/// Parses a gprof flat profile into a single-thread trial.
pub fn parse_flat_profile(trial_name: &str, text: &str) -> Result<Trial> {
    read_trial(trial_name, text, &mut Ingest::new("gprof", Policy::Strict))
}

/// Lossy variant of [`parse_flat_profile`]: malformed table rows are
/// skipped with a diagnostic instead of aborting the parse. Returns no
/// trial only when not a single row was usable (including when no table
/// header was found at all).
pub fn parse_flat_profile_lossy(trial_name: &str, text: &str) -> LossyTrial {
    Ingest::lossy_trial("gprof", |ingest| read_trial(trial_name, text, ingest))
}

#[cfg(test)]
mod tests {
    use super::*;

    const SAMPLE: &str = "\
Flat profile:

Each sample counts as 0.01 seconds.
  %   cumulative   self              self     total
 time   seconds   seconds    calls  ms/call  ms/call  name
 90.01      9.00     9.00      100    90.00    95.00  compute
  9.99      9.99     0.99        1   990.00  9990.00  main

            some other section
";

    #[test]
    fn parses_sample() {
        let t = parse_flat_profile("gprof", SAMPLE).unwrap();
        assert_eq!(t.profile.thread_count(), 1);
        let time = t.profile.metric_id("TIME").unwrap();
        let compute = t.profile.event_id("compute").unwrap();
        let c = t.profile.get(compute, time, 0).unwrap();
        assert_eq!(c.exclusive, 9.0);
        assert_eq!(c.calls, 100.0);
        assert!((c.inclusive - 9.5).abs() < 1e-9);
        let main = t.profile.event_id("main").unwrap();
        let m = t.profile.get(main, time, 0).unwrap();
        assert!((m.inclusive - 9.99).abs() < 1e-9);
    }

    #[test]
    fn handles_rows_without_call_counts() {
        let text = "\
  %   cumulative   self              self     total
 time   seconds   seconds    calls  ms/call  ms/call  name
 50.00      1.00     1.00  mcount (internal)
";
        let t = parse_flat_profile("g", text).unwrap();
        let time = t.profile.metric_id("TIME").unwrap();
        let e = t.profile.event_id("mcount (internal)").unwrap();
        let c = t.profile.get(e, time, 0).unwrap();
        assert_eq!(c.exclusive, 1.0);
        assert_eq!(c.inclusive, 1.0);
        assert_eq!(c.calls, 1.0);
    }

    #[test]
    fn no_table_is_error() {
        assert!(parse_flat_profile("g", "nothing here\n").is_err());
        assert!(parse_flat_profile("g", "").is_err());
    }

    #[test]
    fn empty_table_is_named_as_present() {
        let text = " time   seconds   seconds    calls  ms/call  ms/call  name\n\n";
        let err = parse_flat_profile("g", text).unwrap_err();
        assert_eq!(
            err.to_string(),
            "gprof parse error: no usable rows in flat profile table"
        );
        let out = parse_flat_profile_lossy("g", text);
        assert_eq!(
            out.diagnostics[0].message,
            "no usable rows in flat profile table"
        );
    }

    #[test]
    fn bad_numbers_are_errors() {
        let text = "\
 time   seconds   seconds    calls  ms/call  ms/call  name
 50.00      1.00     abc      100     1.0      1.0    f
";
        assert!(parse_flat_profile("g", text).is_err());
    }

    #[test]
    fn table_ends_at_blank_line() {
        let t = parse_flat_profile("g", SAMPLE).unwrap();
        // "some other section" must not have been parsed as an event.
        assert_eq!(t.profile.events().len(), 2);
    }

    #[test]
    fn lossy_parse_skips_bad_rows() {
        let text = "\
 time   seconds   seconds    calls  ms/call  ms/call  name
 50.00      1.00     abc      100     1.0      1.0    broken
 50.00      1.00     1.00      100     1.0      1.0    good
";
        let out = parse_flat_profile_lossy("g", text);
        let t = out.trial.unwrap();
        assert!(t.profile.event_id("good").is_some());
        assert!(t.profile.event_id("broken").is_none());
        assert_eq!(out.rows_kept, 1);
        assert_eq!(out.rows_dropped, 1);
        assert_eq!(out.diagnostics.len(), 1);
        assert!(out.diagnostics[0].message.contains("bad self-seconds"));
        assert_eq!(out.diagnostics[0].line, Some(2));
    }

    #[test]
    fn lossy_parse_without_table_is_none() {
        let out = parse_flat_profile_lossy("g", "nothing here\n");
        assert!(out.trial.is_none());
        assert!(out.diagnostics[0]
            .message
            .contains("no flat profile table found"));
    }

    #[test]
    fn lossy_parse_of_clean_input_matches_strict() {
        let strict = parse_flat_profile("g", SAMPLE).unwrap();
        let out = parse_flat_profile_lossy("g", SAMPLE);
        assert!(out.is_clean());
        assert_eq!(out.trial.unwrap(), strict);
        assert_eq!(out.rows_kept, 2);
    }
}
