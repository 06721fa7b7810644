//! Core data types shared by every crate in the Q System reproduction.
//!
//! This crate is the bottom of the dependency stack. It defines:
//!
//! - strongly-typed identifiers ([`ids`]),
//! - attribute values and rows ([`value`], [`tuple`]),
//! - the predicates queries carry: equality [`Selection`]s and equi-join
//!   [`JoinCond`]s,
//! - the ordered score wrapper ([`score`]),
//! - the fast hasher under the executor's per-tuple maps ([`hash`]),
//! - the simulated wide-area clock and time accounting ([`clock`]),
//! - deterministic random distributions (Zipf, Poisson) used by both the
//!   source simulator and the workload generators ([`dist`]),
//! - the common error type ([`error`]).
//!
//! Everything here is deliberately free of query-processing logic; it exists
//! so that the catalog, source, query, execution, and optimizer crates can
//! exchange data without depending on each other.

pub mod clock;
pub mod dist;
pub mod error;
pub mod hash;
pub mod ids;
mod predicate;
pub mod score;
pub mod tuple;
pub mod value;

pub use clock::{CostProfile, SimClock, TimeBreakdown, TimeCategory};
pub use error::{QsysError, QsysResult};
pub use hash::FxHashMap;
pub use ids::{AtomId, CqId, Epoch, RelId, SourceId, UqId, UserId};
pub use predicate::{JoinCond, Selection};
pub use score::Score;
pub use tuple::{BaseTuple, Tuple};
pub use value::Value;
