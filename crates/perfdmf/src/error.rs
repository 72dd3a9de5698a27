//! Error type for profile data management.

use std::fmt;

/// Errors produced by the profile store, formats and algebra.
#[derive(Debug)]
pub enum DmfError {
    /// Lookup failed: the named entity does not exist.
    NotFound {
        /// Kind of entity: "application", "experiment", "trial", ...
        kind: &'static str,
        /// Name that was looked up.
        name: String,
    },
    /// An entity with this name already exists.
    Duplicate {
        /// Kind of entity.
        kind: &'static str,
        /// Conflicting name.
        name: String,
    },
    /// A profile file or text stream failed to parse.
    Parse {
        /// Format being parsed ("tau", "csv", "mpip", "json").
        format: &'static str,
        /// Line number (1-based) where the problem was found, if known.
        line: Option<usize>,
        /// Explanation.
        message: String,
    },
    /// Two trials/profiles are structurally incompatible for an
    /// algebra operation (different metrics, events or thread counts).
    Incompatible(String),
    /// A declared size exceeds what the receiver accepts; nothing was
    /// allocated for it.
    TooLarge {
        /// What was declared ("stream threads", ...).
        what: &'static str,
        /// The declared size.
        declared: u64,
        /// The largest accepted size.
        max: u64,
    },
    /// Underlying I/O failure.
    Io(std::io::Error),
    /// JSON (de)serialisation failure.
    Json(serde_json::Error),
}

impl fmt::Display for DmfError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DmfError::NotFound { kind, name } => write!(f, "{kind} not found: {name:?}"),
            DmfError::Duplicate { kind, name } => write!(f, "duplicate {kind}: {name:?}"),
            DmfError::Parse {
                format,
                line,
                message,
            } => match line {
                Some(n) => write!(f, "{format} parse error at line {n}: {message}"),
                None => write!(f, "{format} parse error: {message}"),
            },
            DmfError::Incompatible(msg) => write!(f, "incompatible profiles: {msg}"),
            DmfError::TooLarge {
                what,
                declared,
                max,
            } => write!(f, "{what}: {declared} declared, at most {max} accepted"),
            DmfError::Io(e) => write!(f, "io error: {e}"),
            DmfError::Json(e) => write!(f, "json error: {e}"),
        }
    }
}

impl std::error::Error for DmfError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            DmfError::Io(e) => Some(e),
            DmfError::Json(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for DmfError {
    fn from(e: std::io::Error) -> Self {
        DmfError::Io(e)
    }
}

impl From<serde_json::Error> for DmfError {
    fn from(e: serde_json::Error) -> Self {
        DmfError::Json(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_not_found() {
        let e = DmfError::NotFound {
            kind: "trial",
            name: "1_8".into(),
        };
        assert_eq!(e.to_string(), "trial not found: \"1_8\"");
    }

    #[test]
    fn display_parse_with_line() {
        let e = DmfError::Parse {
            format: "tau",
            line: Some(7),
            message: "bad field count".into(),
        };
        assert!(e.to_string().contains("line 7"));
        assert!(e.to_string().contains("tau"));
    }

    #[test]
    fn io_error_chains_source() {
        let e = DmfError::from(std::io::Error::other("boom"));
        assert!(std::error::Error::source(&e).is_some());
    }
}
