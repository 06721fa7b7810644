//! The multi-query optimizer (Section 5 of the paper).
//!
//! Two-stage plan generation for a batch of conjunctive queries:
//!
//! 1. **Cost-based push-down** — enumerate candidate subexpressions that
//!    could be evaluated at the remote sources (pruned by the Section 5.1.1
//!    heuristics), then run **Algorithm 1 (BestPlan)**: a memoized,
//!    Volcano-style top-down search for the input assignment `(I, 𝕀)`
//!    minimizing estimated cost. Section 5.1.2's AND-OR memo has no
//!    structure of its own here: equivalent subexpressions are one
//!    hash-consed `SigId`, the queries sharing one are a `CqSet` bitmask in
//!    the candidate pool, and BestPlan memoizes on a `u64` mask of the
//!    candidates still open.
//! 2. **Heuristic factorization** — factor the middleware portion of the
//!    plan into shared components (Section 5.2), deferring join ordering
//!    inside each component to the m-join's runtime adaptivity.
//!
//! The optimizer also implements the Section 6.1 machinery for dynamic
//! operation: reuse-aware cost adjustment (via a [`ReuseOracle`] answered
//! by the QS manager) and hierarchical user-query clustering. When that
//! oracle reports every query of a batch resident whole, the batch searches
//! no push-down. Every other batch derives its search inputs afresh: the
//! optimizer keeps nothing of its own across batches.

pub mod bestplan;
pub mod cluster;
pub mod cost;
pub mod heuristics;
pub mod plan;
pub mod retired;

pub use bestplan::OptStats;
pub use cluster::{cluster_user_queries, ClusterConfig};
pub use cost::{NoReuse, ReuseOracle};
pub use heuristics::{Candidate, HeuristicConfig};
pub use plan::{CqPlan, Optimizer, OptimizerConfig, PlanSpec, PredSpec, SpecNode, SpecNodeKind};
pub use retired::{AdaptiveConfig, ShardConfig};
