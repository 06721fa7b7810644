//! # qsys — Sharing Work in Keyword Search over Databases
//!
//! A from-scratch Rust reproduction of the Q System's shared top-k query
//! processing middleware (Jacob & Ives, SIGMOD 2011), grown into a
//! **multi-user search service**: keyword queries arrive continuously,
//! are converted into ranked sets of conjunctive queries (candidate
//! networks), admitted into arrival windows, multi-query-optimized with
//! cost-based subexpression push-down, and executed by a fully pipelined
//! plan graph of split / m-join / rank-merge operators under a novel
//! coordinator, the **ATC**. Plan state persists between queries: later
//! queries graft onto the running graph and recover already-read stream
//! prefixes from the hash-table state instead of re-reading the network.
//!
//! ## Serving queries: the `Engine` / `Session` API
//!
//! The primary interface is a long-lived [`Engine`] serving per-user
//! [`Session`]s. Submission is *admission*, not execution: each submitted
//! query gets a [`QueryTicket`] immediately, batches form as arrivals
//! accumulate, and the engine advances when you [`step`](Engine::step) it
//! (or drain it with [`run_until_idle`](Engine::run_until_idle)).
//!
//! ```
//! use qsys::prelude::*;
//! use qsys_workload::gus::{self, GusConfig};
//!
//! // A synthetic bioinformatics federation (358 relations).
//! let mut cfg = GusConfig::small(42);
//! cfg.min_rows = 200;
//! cfg.max_rows = 400;
//! let workload = gus::generate(&cfg);
//! let mut engine = Engine::for_workload(
//!     &workload,
//!     EngineConfig { k: 5, batch_size: 2, ..EngineConfig::default() },
//! );
//!
//! // Two biologists pose overlapping queries; admission batches them.
//! let t1 = engine.session(UserId::new(0)).submit("protein gene", 0).unwrap();
//! let t2 = engine.session(UserId::new(1)).submit("gene membrane", 1_000).unwrap();
//! assert_eq!(t1.poll(), TicketStatus::Queued);
//!
//! // The window sealed at batch_size = 2; one step executes the batch.
//! engine.step();
//! assert_eq!(t1.poll(), TicketStatus::Completed);
//! let answers = t1.take_results().unwrap();
//! assert!(answers.len() <= 5);
//! // Per-query accounting rides along on the ticket.
//! let report = t2.report().unwrap();
//! assert_eq!(report.user, UserId::new(1));
//! ```
//!
//! That is the one way in. For scripted experiments [`run_workload`] is the
//! same thing over a whole [`qsys_workload::Workload`]: a fresh engine,
//! [`Engine::submit_script`], [`Engine::run_until_idle`],
//! [`Engine::report`].
//!
//! ## Crate map
//!
//! | layer | crate |
//! |-------|-------|
//! | values, tuples, virtual clock | `qsys-types` |
//! | schema graph, keyword index | `qsys-catalog` |
//! | simulated remote DBMSs | `qsys-source` |
//! | CQs, scoring, candidate networks, sharing vocabulary (`SigInterner` ids, one-word `CqSet` query sets) | `qsys-query` |
//! | operators, plan graph, ATC | `qsys-exec` |
//! | multi-query optimizer (arena-indexed BestPlan behind a `u64` mask memo, clustering) | `qsys-opt` |
//! | state manager (graft/recover/evict, policy via `EngineConfig::eviction`) | `qsys-exec` (`qsys_exec::state`) |
//! | invariant verifier + repo lint (see [`Engine::verify`]) | `qsys-verify` |
//! | workload generators | `qsys-workload` |
//!
//! Two dense-index layers keep the optimizer's hot path allocation-free:
//! subexpression identity is a hash-consed [`query::SigId`] (one interner
//! per engine lane, stable across batches), and within one search — one
//! user query's conjunctive queries, at most `candidate.max_cqs` ≤ 64 of
//! them — every "which queries use this input?" set is a one-word
//! [`query::CqSet`] bitmask over that search's [`query::CqTable`]. The
//! BestPlan search runs entirely on those indices — candidates in an
//! arena, the memo keyed by a `u64` mask of committed candidates and
//! holding costs, never plans — with sharing decisions pinned bit-for-bit
//! by the goldens in `tests/interner_invariants.rs`.
//!
//! The optimizer keeps nothing of its own across batches: each batch
//! derives its search inputs afresh against the state resident at that
//! moment (Section 6.1), and only the lane's interner and plan graph
//! persist. `EngineConfig::warm_opt` is retired and read by nothing.
//!
//! Execution is organized into `Send` **lanes** (plan graph + ATC + source
//! registry + clock + admission window), an implementation detail behind
//! the engine's admission boundary: a sealed batch runs through one
//! pipeline, the lane's `run_batch` (admit → plan → execute → publish →
//! retire, Figure 3 left to right). ATC-CL runs one lane per query cluster
//! on worker threads capped by [`EngineConfig::lane_threads`], with
//! results bit-identical to a sequential run
//! (`tests/parallel_identity.rs`, `tests/session_api.rs`). See the
//! `qsys-exec` crate docs for the threading model.

pub mod engine;
pub mod report;
pub mod session;

pub use engine::{ConfigError, EngineConfig, SharingMode};
pub use qsys_opt::ShardConfig;
pub use report::{
    generate_user_queries, run_workload, FaultSummary, LaneSummary, OptEvent, QueryOutcome,
    RunReport, UqReport,
};
pub use session::{Engine, ProviderFactory, QueryTicket, Session, TicketStatus};

/// One-stop imports for serving queries: the engine facade, its
/// configuration vocabulary, the reporting types, and the id newtypes the
/// API speaks in.
pub mod prelude {
    pub use crate::engine::{ConfigError, EngineConfig, SharingMode};
    pub use crate::report::{
        run_workload, FaultSummary, LaneSummary, OptEvent, QueryOutcome, RunReport, UqReport,
    };
    pub use crate::session::{Engine, ProviderFactory, QueryTicket, Session, TicketStatus};
    pub use qsys_types::{Score, Tuple, UqId, UserId};
    pub use qsys_verify::{VerifyReport, Violation, ViolationClass};
}

// Re-export the subsystem crates under one roof.
pub use qsys_catalog as catalog;
pub use qsys_exec as exec;
pub use qsys_exec::state;
pub use qsys_opt as opt;
pub use qsys_query as query;
pub use qsys_source as source;
pub use qsys_types as types;
pub use qsys_verify as verify;
