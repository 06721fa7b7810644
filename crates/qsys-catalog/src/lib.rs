//! Schema graph, statistics, and keyword match index.
//!
//! This crate models Figure 1 of the paper: a set of relations drawn from
//! multiple (possibly remote) databases, bridged by foreign keys, hyperlinks,
//! and record-linking tables. The candidate-network generator walks this
//! graph to turn keyword queries into conjunctive queries; the optimizer
//! reads its statistics to cost plans; and the source simulator materializes
//! data that conforms to it.

pub mod graph;
pub mod index;
pub mod stats;

pub use graph::{Catalog, CatalogBuilder, EdgeId, EdgeKind, Relation};
pub use index::{KeywordIndex, KeywordMatch, MatchKind};
pub use stats::{ColumnStats, RelationStats};
