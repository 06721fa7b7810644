//! Simulated remote DBMS substrate.
//!
//! The paper's middleware runs over "remote (and possibly local) database
//! instances" reached over a wide-area network (Sections 1–3), with two
//! access styles:
//!
//! - **streaming sources**: SQL DBMSs that return a subquery's results in
//!   nonincreasing score order, one tuple per network round;
//! - **random access sources**: sources probed with specific join-key values
//!   (a two-way semijoin per Roussopoulos & Kang [25]).
//!
//! The original evaluation used MySQL over JDBC with *simulated* Poisson
//! (mean 2 ms) delays per tuple read and per probe. We reproduce the same
//! cost model against in-process tables and a virtual clock: every stream
//! read and probe charges simulated time, drawn from the same Poisson
//! distribution, to a shared [`SimClock`].
//!
//! The module also implements **select-project-join push-down**
//! ([`pushdown`]): the optimizer may decide to evaluate a subexpression "at
//! the source" (Section 5.1); the result is exposed as just another
//! score-ordered stream.

//! **Failure semantics** ([`fault`]): a deterministic, seeded
//! [`FaultInjector`] can schedule transient errors, slow rounds, and hard
//! outages per relation over simulated time; every fetch
//! ([`Sources::try_read`]/[`Sources::try_probe`], one network round each)
//! then returns [`SourceError`] instead of panicking. With no injector
//! installed every fetch is infallible and byte-identical to the
//! fault-free build.

pub mod fault;
pub mod pushdown;
mod registry;
pub mod stream;
pub mod table;

pub use fault::{FaultInjector, FaultSpec, SourceError, Verdict};
pub use pushdown::{JoinCond, SpjSpec};
pub use registry::{Sources, TableProvider};
pub use stream::SourceStream;
pub use table::Table;
