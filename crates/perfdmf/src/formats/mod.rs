//! On-disk profile format readers and writers.
//!
//! PerfDMF "includes support for nearly a dozen performance profile
//! formats". This module provides the formats the workspace needs:
//!
//! * [`tau`] — the TAU text profile format (`profile.N.C.T` files, one
//!   per thread per metric), the paper's primary measurement source;
//! * [`csv`] — a flat tabular interchange format, convenient for
//!   spreadsheet export and for the benchmark harness;
//! * [`gprof`] — a gprof-style flat profile reader, representing the
//!   class of single-threaded external formats PerfDMF ingests.
//!
//! All readers produce the same in-memory [`crate::Trial`] model, so the
//! analysis layer is format-agnostic.
//!
//! Every format has two entry points over one walk of its input: a
//! *strict* parser that fails on the first malformed construct (the
//! right behaviour for data the caller just wrote), and a *lossy*
//! variant (`*_lossy`) that keeps every parseable row, skips the rest,
//! and reports each skip as a [`Diagnostic`] — the right behaviour for
//! an unattended pipeline ingesting profile collections it does not
//! control. The walk reports each fault to an `Ingest`, whose
//! `Policy` decides between the two, so both entry points accept
//! exactly the same inputs: the strict parser succeeds exactly when the
//! lossy one reports nothing, and the strict error's message is the
//! cause the first diagnostic records. The parser modules deny
//! `unwrap`/`expect` outside tests, so malformed input can only surface
//! as a typed [`crate::DmfError`] or a diagnostic.

pub mod csv;
pub mod gprof;
pub mod tau;

use crate::{DmfError, Result, Trial};

/// One recoverable problem a lossy parse stepped over.
#[derive(Debug, Clone, PartialEq)]
pub struct Diagnostic {
    /// Format that produced the diagnostic ("csv", "tau", "gprof").
    pub format: &'static str,
    /// 1-based line number, when attributable to one line.
    pub line: Option<usize>,
    /// What was wrong and what the parser did about it.
    pub message: String,
}

impl std::fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self.line {
            Some(n) => write!(f, "{} line {}: {}", self.format, n, self.message),
            None => write!(f, "{}: {}", self.format, self.message),
        }
    }
}

/// Outcome of a lossy parse: a partial trial (when anything at all was
/// usable) plus the full diagnostic record.
#[derive(Debug, Clone, PartialEq)]
pub struct LossyTrial {
    /// The assembled trial, or `None` when nothing was usable.
    pub trial: Option<Trial>,
    /// Every problem stepped over, in input order.
    pub diagnostics: Vec<Diagnostic>,
    /// Data rows that made it into the trial.
    pub rows_kept: usize,
    /// Data rows dropped by diagnostics.
    pub rows_dropped: usize,
}

impl LossyTrial {
    /// Whether the parse was lossless.
    pub fn is_clean(&self) -> bool {
        self.diagnostics.is_empty()
    }
}

/// What a reader does at a fault in its input.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Policy {
    /// The first fault fails the read with its typed [`DmfError`].
    Strict,
    /// Each fault becomes a [`Diagnostic`], and the reader takes its
    /// recovery: skip the row, keep the partial profile, skip the file,
    /// or clamp to the file end.
    Lossy,
}

/// The fault sink of one read: every reader is a single walk that
/// reports each fault here and lets the [`Policy`] decide whether the
/// walk ends or steps over it.
pub(crate) struct Ingest {
    format: &'static str,
    policy: Policy,
    /// Every fault stepped over, in input order (empty under `Strict`).
    pub(crate) diagnostics: Vec<Diagnostic>,
    /// Data rows the walk kept.
    pub(crate) rows_kept: usize,
    /// Data rows the walk skipped through [`Ingest::skip_row`].
    pub(crate) rows_dropped: usize,
}

impl Ingest {
    pub(crate) fn new(format: &'static str, policy: Policy) -> Self {
        Ingest {
            format,
            policy,
            diagnostics: Vec::new(),
            rows_kept: 0,
            rows_dropped: 0,
        }
    }

    /// Whether no fault has been stepped over yet (always true under
    /// `Strict`, whose first fault ends the walk).
    pub(crate) fn is_clean(&self) -> bool {
        self.diagnostics.is_empty()
    }

    /// Reports `cause`. Under `Strict` it is the read's error; under
    /// `Lossy` it is recorded as a diagnostic whose text `recovery`
    /// builds around the cause's message, and the walk goes on.
    pub(crate) fn fault(
        &mut self,
        cause: DmfError,
        recovery: impl FnOnce(&str) -> String,
    ) -> Result<()> {
        match self.policy {
            Policy::Strict => Err(cause),
            Policy::Lossy => {
                self.record(cause, recovery);
                Ok(())
            }
        }
    }

    fn record(&mut self, cause: DmfError, recovery: impl FnOnce(&str) -> String) {
        let (line, message) = match cause {
            // Line 0 marks a whole-input fault in the strict error text;
            // a diagnostic says so with no line at all.
            DmfError::Parse { line, message, .. } => (line.filter(|&n| n != 0), message),
            other => (None, other.to_string()),
        };
        self.diagnostics.push(Diagnostic {
            format: self.format,
            line,
            message: recovery(&message),
        });
    }

    /// Reports a malformed data row; under `Lossy` the row is skipped
    /// and counted in `rows_dropped`.
    pub(crate) fn skip_row(&mut self, cause: DmfError) -> Result<()> {
        self.fault(cause, |c| format!("row skipped: {c}"))?;
        self.rows_dropped += 1;
        Ok(())
    }

    /// Ends a lossy walk: a fault the walk could not step over (it
    /// returned `Err`) is recorded verbatim as the last diagnostic, and
    /// no value comes back.
    pub(crate) fn finish<T>(&mut self, walk: Result<T>) -> Option<T> {
        walk.map_err(|cause| self.record(cause, str::to_owned)).ok()
    }

    /// Runs a trial-producing walk under `Lossy`.
    pub(crate) fn lossy_trial(
        format: &'static str,
        walk: impl FnOnce(&mut Ingest) -> Result<Trial>,
    ) -> LossyTrial {
        let mut ingest = Ingest::new(format, Policy::Lossy);
        let walked = walk(&mut ingest);
        LossyTrial {
            trial: ingest.finish(walked),
            diagnostics: ingest.diagnostics,
            rows_kept: ingest.rows_kept,
            rows_dropped: ingest.rows_dropped,
        }
    }
}
