//! Workload generators reproducing Section 7's experimental setup.
//!
//! - [`gus`]: the synthetic workload over a 358-relation Genomics Unified
//!   Schema-like graph, with Zipfian scores, join keys, and score-function
//!   coefficients, and 15 two-keyword user queries drawn from a Zipf
//!   distribution over biological terms.
//! - [`pfam`]: the "real data" substitute — a faithful miniature of the
//!   Pfam + InterPro integrated protein-family databases with a cross-
//!   database mapping table, text-similarity scores, and a publication-year
//!   score attribute.
//!
//! Both produce a [`Workload`]: catalog + keyword index + shared lazy table
//! store + the query script. Chaos experiments pair a workload with a
//! fault schedule, a `qsys_source::FaultSpec` value.

pub mod gus;
pub mod pfam;
pub mod tables;

pub use gus::GusConfig;
pub use pfam::PfamConfig;

use qsys_catalog::{Catalog, EdgeId, KeywordIndex};
use qsys_types::UserId;
use std::collections::HashMap;
use tables::SharedTables;

/// One scripted keyword query.
#[derive(Clone, Debug)]
pub struct WorkloadQuery {
    /// The keyword search text (phrases quoted).
    pub keywords: String,
    /// The posing user.
    pub user: UserId,
    /// Per-user learned edge-cost overrides (Q System scoring).
    pub edge_costs: Option<HashMap<EdgeId, f64>>,
    /// Virtual arrival time (µs); queries arrive up to 6 s apart (§7).
    pub arrival_us: u64,
}

/// A complete, self-describing workload.
pub struct Workload {
    /// The schema graph.
    pub catalog: Catalog,
    /// Keyword → relation matches.
    pub index: KeywordIndex,
    /// Lazily-materialized shared table store.
    pub tables: SharedTables,
    /// The query script, in arrival order.
    pub queries: Vec<WorkloadQuery>,
    /// Human-readable name ("gus", "pfam").
    pub name: &'static str,
}
