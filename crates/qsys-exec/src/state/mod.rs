//! The query state (QS) manager (Sections 3 and 6 of the paper).
//!
//! The QS manager owns one live [`QueryPlanGraph`] (one per ATC) across
//! query batches. Its jobs:
//!
//! - **Grafting** (Section 6.2): instantiate an optimizer [`PlanSpec`] onto
//!   the running graph, merging new segments with matching existing
//!   operators and tapping existing outputs for new consumers.
//! - **State recovery** (Algorithm 2, *RecoverState*): when a new
//!   conjunctive query reuses streams that have already been read, build a
//!   recovery query `CQ^e` over the pre-epoch partitions of the hash-table
//!   state, so the missed results are recomputed *in score order* without
//!   re-reading the network and without duplicates.
//! - **Termination** (Section 6.3): unlink completed queries from the
//!   graph while *retaining* their state for reuse — operator state, and
//!   each complete top-k as a retained answer an identical re-pose
//!   publishes instead of running (`manager` module docs).
//! - **Eviction**: LRU (size as tie-breaker) removal of unpinned, detached
//!   state under a memory budget — the policy the paper found to work best;
//!   retained answers go first.

mod evict;
mod manager;
mod recover;

#[cfg(test)]
mod lifecycle_tests;

pub use evict::{EvictionPolicy, EvictionStats};
pub use manager::{GraftOutcome, QsManager};
