//! Pipelined execution: operators, the query plan graph, and the ATC.
//!
//! This crate is the heart of the paper's contribution (Section 4): a fully
//! pipelined, adaptive top-k execution scheme answering **multiple** queries
//! simultaneously over a **graph-structured** (not tree-structured) query
//! plan. The operator vocabulary is:
//!
//! - **stream leaf** — reads a remote subquery (or replays retained
//!   tuples) and keeps what it delivers in its stored module;
//! - **m-join** (STeM eddy [24, 34]) — an m-way pipelined hash join whose
//!   probe sequence adapts to monitored selectivities at runtime;
//! - **rank-merge** — merges the conjunctive queries of one user query into
//!   its top-k answers, Threshold-Algorithm style [7].
//!
//! The paper's **split** operator, which feeds one subexpression's output
//! to several downstream consumers, is not a node here: a producer's
//! consumer edges are the fan-out (as `qsys_opt::plan` plans it).
//!
//! The **ATC** ("air traffic controller") coordinates everything: it looks
//! across all rank-merge operators' thresholds, picks which source to read
//! next, and routes the resulting tuples through the graph until the top-k
//! answers of every user query are known.
//!
//! ## Threading model
//!
//! Everything in this crate is `Send` and nothing is `Sync`: the unit of
//! parallelism is the engine **lane** (one plan graph + ATC + source
//! registry + clock), and each lane is driven by exactly one thread at a
//! time. The paper's ATC-CL configuration runs one lane per query cluster,
//! so independent clusters execute on real threads without coordinating —
//! there is no cross-lane shared mutable state at all.
//!
//! Within a lane, operators still share state freely (that sharing is the
//! paper's whole point), but through lane-owned storage instead of
//! thread-pinning `Rc`s: every m-join hash table and probe cache lives in
//! the [`QueryPlanGraph`]'s [`AccessModuleArena`] and is named by a dense
//! `Copy` [`ModuleId`] — recovery joins and shared probe caches are just
//! two inputs holding the same id. Module state sits behind per-slot
//! `RefCell`s (cheap, single-threaded interior mutability), the virtual
//! clock uses relaxed atomics so its handles can move with the lane, and
//! the lane's signature interner is behind an uncontended `RwLock`. The
//! invariant to preserve when extending the executor: state may be shared
//! *within* a lane through the arena, never *across* lanes.
//!
//! ## Failure semantics
//!
//! When a fault schedule is configured (see `qsys_source::fault`), the
//! lane fetches through a [`SourceGovernor`] (`govern`): bounded retries
//! with exponential backoff and deterministic jitter, a per-fetch timeout,
//! and a per-relation circuit breaker — all charged to the virtual clock.
//! A fetch that gives up quarantines only its stream leaf: the leaf's
//! bound collapses to zero, so the rank-merge threshold machinery drains
//! the surviving streams and completes the affected user queries with
//! whatever is provable (recorded per-UQ as
//! [`missing_rels`](stats::UqStats::missing_rels)), while every query not reading
//! the failed relation is untouched. With no faults configured the
//! governor is a pass-through and execution is byte-identical to the
//! fault-free build.
//!
//! The state manager that grafts plans onto the graph, recovers missed
//! results, unlinks finished queries and evicts retained state is [`state`].

pub mod access;
pub mod atc;
pub(crate) mod govern;
pub mod graph;
pub mod mjoin;
pub mod node;
pub mod rank_merge;
pub mod state;
pub mod stats;

#[cfg(test)]
mod bound_table_tests;

pub use access::{AccessModule, AccessModuleArena, ModuleId, StoredModule};
pub use atc::{Atc, SchedulingPolicy};
pub use govern::{FaultStats, RetryPolicy, SourceGovernor};
pub use graph::{QueryPlanGraph, StreamRead};
pub use mjoin::{MJoin, MJoinInput};
pub use node::{Node, NodeId, NodeKind, StreamBacking};
pub use rank_merge::{CqRegistration, RankMerge};
pub use stats::{ExecStats, ExecWork};
