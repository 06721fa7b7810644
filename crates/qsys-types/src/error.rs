//! Error handling.

use crate::ids::{CqId, RelId, SourceId};
use std::fmt;

/// Result alias used across the workspace.
pub type QsysResult<T> = Result<T, QsysError>;

/// Errors surfaced by the Q System reproduction.
///
/// The system is a middleware layer: most "errors" in the paper's setting
/// are resource or planning failures rather than I/O failures, so this enum
/// is deliberately small. Source-level fetch failures (transient errors,
/// outages, timeouts — injected by `qsys-source`'s deterministic fault
/// layer) are a separate channel: they are handled by the executor's
/// retry/breaker loop and surface as per-query *degradation*, never as a
/// `QsysError`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum QsysError {
    /// A query references a relation the catalog does not know.
    UnknownRelation(RelId),
    /// A plan references a source that was never registered.
    UnknownSource(SourceId),
    /// A conjunctive query id was not found (e.g., already pruned).
    UnknownQuery(CqId),
    /// The optimizer could not produce a valid input assignment
    /// (Definition 1 of the paper); carries a human-readable reason.
    PlanningFailed(String),
    /// A plan-graph modification was structurally invalid (e.g., grafting
    /// onto a node that does not exist).
    InvalidPlanEdit(String),
    /// The state manager's memory budget cannot fit even the pinned state.
    MemoryBudgetExceeded {
        /// Bytes needed by pinned state.
        required: usize,
        /// Configured budget in bytes.
        budget: usize,
    },
    /// A keyword query matched nothing in the catalog.
    NoMatches(String),
    /// The engine was built from a configuration that fails validation,
    /// so it refuses every submission; carries the first error, naming
    /// the field at fault.
    InvalidConfig(String),
    /// An internal invariant did not hold (the structured replacement for
    /// panicking on engine drive paths — see the `panic-path` lint). The
    /// string is a breadcrumb of what was violated and where.
    Internal(String),
}

impl fmt::Display for QsysError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            QsysError::UnknownRelation(r) => write!(f, "unknown relation {r}"),
            QsysError::UnknownSource(s) => write!(f, "unknown source {s}"),
            QsysError::UnknownQuery(c) => write!(f, "unknown conjunctive query {c}"),
            QsysError::PlanningFailed(why) => write!(f, "planning failed: {why}"),
            QsysError::InvalidPlanEdit(why) => write!(f, "invalid plan edit: {why}"),
            QsysError::MemoryBudgetExceeded { required, budget } => write!(
                f,
                "memory budget exceeded: pinned state needs {required} bytes, budget is {budget}"
            ),
            QsysError::NoMatches(kw) => write!(f, "keyword query '{kw}' matched no relations"),
            QsysError::InvalidConfig(why) => f.write_str(why),
            QsysError::Internal(why) => write!(f, "internal invariant violated: {why}"),
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
        let e = QsysError::MemoryBudgetExceeded {
            required: 100,
            budget: 10,
        };
        assert!(e.to_string().contains("100"));
        assert!(e.to_string().contains("10"));
    }

    #[test]
    fn is_std_error() {
        fn takes_err(_: &dyn std::error::Error) {}
        takes_err(&QsysError::NoMatches("protein".into()));
    }
}
