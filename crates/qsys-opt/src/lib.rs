//! The multi-query optimizer (Section 5 of the paper).
//!
//! Two-stage plan generation for a batch of conjunctive queries:
//!
//! 1. **Cost-based push-down** — for each user query of the batch,
//!    enumerate candidate subexpressions that could be evaluated at the
//!    remote sources (pruned by the Section 5.1.1 heuristics), then run
//!    **Algorithm 1 (BestPlan)**: a memoized, Volcano-style top-down search
//!    for the input assignment `(I, 𝕀)` minimizing estimated cost. The
//!    paper searches the whole batch jointly; here each user query is
//!    searched alone, because under this cost model the joint objective
//!    chose push-downs that read more tuples than the queries' own plans. Section 5.1.2's AND-OR memo has no
//!    structure of its own here: equivalent subexpressions are one
//!    hash-consed `SigId`, the queries sharing one are a one-word `CqSet` in
//!    the candidate pool, and BestPlan memoizes on a `u64` mask of the
//!    candidates still open.
//! 2. **Heuristic factorization** — merge the user queries' assignments
//!    and factor the middleware portion of the plan into shared components
//!    (Section 5.2), deferring join ordering inside each component to the
//!    m-join's runtime adaptivity. A stream or component several user
//!    queries chose is one node here, and graft shares it with live state:
//!    batch sharing pays through shared state, not a joint search.
//!
//! The optimizer also implements the Section 6.1 machinery for dynamic
//! operation: reuse-aware cost adjustment (via a [`ReuseOracle`] answered
//! by the QS manager) and hierarchical user-query clustering. When that
//! oracle reports every query of a user query resident whole, that user
//! query searches no push-down and explores its one default state;
//! [`Optimizer::all_resident`] states that result in closed form for a
//! batch the engine answers from retained answers without planning it.
//! Every batch derives its search inputs afresh: the optimizer keeps
//! nothing of its own across batches.

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
pub use plan::{CqPlan, Optimizer, OptimizerConfig, PlanSpec, SpecNode, SpecNodeKind};
pub use retired::{AdaptiveConfig, ShardConfig};
