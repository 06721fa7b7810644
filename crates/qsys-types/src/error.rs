//! Error handling.

use crate::ids::RelId;
use std::fmt;

/// Result alias used across the workspace.
pub type QsysResult<T> = Result<T, QsysError>;

/// Errors surfaced by the Q System reproduction.
///
/// The system is a middleware layer: what it refuses is input it cannot
/// plan (an unknown relation, a keyword that matches nothing) and a
/// configuration that fails validation. Source-level fetch failures (transient errors,
/// outages, timeouts — injected by `qsys-source`'s deterministic fault
/// layer) are a separate channel: they are handled by the executor's
/// retry/breaker loop and surface as per-query *degradation*, never as a
/// `QsysError`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum QsysError {
    /// A query references a relation the catalog does not know.
    UnknownRelation(RelId),
    /// A keyword query matched nothing in the catalog.
    NoMatches(String),
    /// The engine was built from a configuration that fails validation,
    /// so it refuses every submission; carries the first error, naming
    /// the field at fault.
    InvalidConfig(String),
}

impl fmt::Display for QsysError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            QsysError::UnknownRelation(r) => write!(f, "unknown relation {r}"),
            QsysError::NoMatches(kw) => write!(f, "keyword query '{kw}' matched no relations"),
            QsysError::InvalidConfig(why) => f.write_str(why),
        }
    }
}

impl std::error::Error for QsysError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        let e = QsysError::UnknownRelation(RelId::new(3));
        assert_eq!(e.to_string(), "unknown relation R3");
    }

    #[test]
    fn is_std_error() {
        fn takes_err(_: &dyn std::error::Error) {}
        takes_err(&QsysError::NoMatches("protein".into()));
    }
}
