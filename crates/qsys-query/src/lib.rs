//! Conjunctive queries, subexpression algebra, scoring models, and
//! candidate-network generation.
//!
//! This crate covers the front half of the paper's pipeline (Sections 2–3):
//! a keyword query `KQ_j` is converted into a **user query** `UQ_j` — a
//! union of **conjunctive queries** `CQ_i` (candidate networks), each paired
//! with a monotonic score function `C_i` with a computable upper bound
//! `U(C_i)`. The back half (execution and optimization) consumes these
//! types.
//!
//! It also hosts the system-wide sharing vocabulary: canonical
//! subexpression signatures (`subexpr`) and their hash-consed interning
//! ([`intern`]). Every sharing decision downstream — the candidate pool,
//! BestPlan's memo, the reuse oracle, plan factorization, the QS manager's
//! pin/evict index, and the live plan graph's signature index — is keyed on
//! dense [`SigId`]s from one per-lane [`SigInterner`], so "are these two
//! subexpressions the same?" is a `u32` compare and ids stay stable across
//! query batches (the paper's sharing *across time*, Sections 5–6). See
//! the [`intern`] module docs for the design.

pub mod candidate;
pub mod cq;
pub mod cqset;
pub mod intern;
pub mod score;
pub(crate) mod subexpr;

pub use candidate::{CandidateConfig, CandidateGenerator, NetworkMemo};
pub use cq::{ConjunctiveQuery, CqAtom, CqJoin, UserQuery};
pub use cqset::{CqIdx, CqSet, CqTable};
pub use intern::{shared_interner, SharedInterner, SigCell, SigId, SigInterner};
pub use score::{ScoreFn, ScoreModel};
pub use subexpr::{enumerate_subexprs, SubExprSig};
