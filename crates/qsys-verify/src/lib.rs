//! Whole-system invariant verifier for the Q System reproduction.
//!
//! The layers of sharing machinery — the hash-consed signature arena, the
//! refcounted access-module arena, the plan graph the QS manager grafts
//! into — each maintain structural invariants that the answer-identity
//! goldens only check *indirectly*: a golden catches that something broke,
//! never what or where. This crate is the direct check: a pure, read-only
//! pass over the system's own data structures that reports every violated
//! invariant as a structured [`Violation`] with a breadcrumb path to the
//! offending slot.
//!
//! The QS manager keeps no copy of graph state (a query's rank-merge, a
//! node's LRU stamp and size are read off the graph), so the graph check
//! covers them; the manager check adds its probe-cache registrations.
//!
//! Nothing here mutates anything, takes locks beyond the lane's own
//! reader guards, or changes a decision: the verifier is a diagnostic
//! layer the engine calls at phase boundaries (post-cluster, post-graft)
//! when `debug_assertions` are on or `EngineConfig::verify` is set, and
//! that `reproduce verify` runs over whole workloads.
//!
//! The companion `qsys-lint` binary (same crate) is the *source* half of
//! the analysis: a self-contained text lint enforcing repo rules (no
//! environment reads outside `EngineConfig`, no panics on engine drive
//! paths, …) without network access or compiler plugins.

use qsys_exec::access::ModuleId;
use qsys_exec::state::QsManager;
use qsys_exec::{NodeId, NodeKind, QueryPlanGraph};
use qsys_query::{SigInterner, SubExprSig};
use std::collections::{BTreeMap, HashMap};
use std::fmt;

/// The invariant class a [`Violation`] breaks, so a detector can assert it
/// flagged *the planted defect* and not a coincidental neighbour. The
/// mutation harness (`tests/verify_invariants.rs`) plants `RefcountSkew`,
/// `GraphMalformed` and `IdOutOfRange`, and this crate's unit tests plant
/// `MalformedSig`; `QuarantineLeak` is checked after every verified graft
/// but has no planted case.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum ViolationClass {
    /// A signature is not in canonical form (atoms unsorted, joins
    /// unoriented/unsorted) or appears twice in the arena.
    MalformedSig,
    /// An id references past the end of the arena it indexes.
    IdOutOfRange,
    /// A module slot's refcount differs from its graph residency plus
    /// external probe-cache registrations.
    RefcountSkew,
    /// Plan-graph structure broken: asymmetric edges, dead endpoints,
    /// duplicated or out-of-range m-join input indices.
    GraphMalformed,
    /// A freshly grafted rank-merge sits above a quarantined stream leaf,
    /// which the reuse oracle promises never to hand out.
    QuarantineLeak,
}

impl fmt::Display for ViolationClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{self:?}")
    }
}

/// One violated invariant: the class, a breadcrumb path into the
/// structure (`lane[1]/graph/node[3]`), and what was found there.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Violation {
    /// Which invariant class broke.
    pub class: ViolationClass,
    /// Breadcrumb path to the offending slot, outermost container first.
    pub path: String,
    /// What the verifier found there.
    pub detail: String,
}

impl Violation {
    fn new(class: ViolationClass, path: impl Into<String>, detail: impl Into<String>) -> Violation {
        Violation {
            class,
            path: path.into(),
            detail: detail.into(),
        }
    }
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{}] {}: {}", self.class, self.path, self.detail)
    }
}

/// The result of one verification pass: every violation found, in
/// discovery order (outer structures before the ones nested in them).
#[derive(Clone, Debug, Default, PartialEq)]
pub struct VerifyReport {
    /// Everything found; empty means the structure is well-formed.
    pub violations: Vec<Violation>,
}

impl VerifyReport {
    /// Whether no invariant was violated.
    pub fn is_clean(&self) -> bool {
        self.violations.is_empty()
    }

    /// The distinct classes violated, in first-seen order.
    pub fn classes(&self) -> Vec<ViolationClass> {
        let mut seen = Vec::new();
        for v in &self.violations {
            if !seen.contains(&v.class) {
                seen.push(v.class);
            }
        }
        seen
    }

    /// Panic with the full report when it is not clean — the phase-hook
    /// behaviour: a structural invariant broken mid-run means later
    /// answers cannot be trusted, so fail loudly at the boundary that
    /// broke it (the engine's lane poisoning turns the panic into a
    /// per-lane failure, never a silent wrong answer).
    pub fn assert_clean(&self, phase: &str) {
        assert!(
            self.is_clean(),
            "invariant verification failed at {phase}:\n{self}"
        );
    }
}

impl fmt::Display for VerifyReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.violations.is_empty() {
            return write!(f, "verified: no violations");
        }
        writeln!(f, "{} violation(s):", self.violations.len())?;
        for v in &self.violations {
            writeln!(f, "  {v}")?;
        }
        Ok(())
    }
}

impl From<Vec<Violation>> for VerifyReport {
    fn from(violations: Vec<Violation>) -> VerifyReport {
        VerifyReport { violations }
    }
}

// ---------------------------------------------------------------------------
// Signature-interner invariants.
// ---------------------------------------------------------------------------

/// Check an exported interner arena: every signature in canonical form
/// and present exactly once (the hash-consing contract ids rest on).
fn verify_interner_entries(entries: &[SubExprSig], path: &str) -> Vec<Violation> {
    let mut out = Vec::new();
    let mut seen: HashMap<&SubExprSig, usize> = HashMap::with_capacity(entries.len());
    for (index, sig) in entries.iter().enumerate() {
        let at = format!("{path}/sig[{index}]");
        if !sig.atoms.is_sorted() {
            out.push(Violation::new(
                ViolationClass::MalformedSig,
                &at,
                format!("atoms not in canonical order: {sig:?}"),
            ));
        }
        let oriented = sig.joins.iter().all(|j| *j == j.normalized());
        if !(oriented && sig.joins.windows(2).all(|w| w[0] < w[1])) {
            out.push(Violation::new(
                ViolationClass::MalformedSig,
                &at,
                "joins not oriented left≤right and strictly sorted",
            ));
        }
        if let Some(first) = seen.insert(sig, index) {
            out.push(Violation::new(
                ViolationClass::MalformedSig,
                &at,
                format!("duplicate of sig[{first}]: {sig:?}"),
            ));
        }
    }
    out
}

/// Check a live interner's arena: every signature in canonical form and
/// present exactly once.
pub fn verify_interner(interner: &SigInterner, path: &str) -> Vec<Violation> {
    verify_interner_entries(&interner.export_entries(), path)
}

// ---------------------------------------------------------------------------
// Plan-graph invariants.
// ---------------------------------------------------------------------------

/// Check plan-graph well-formedness: edge symmetry between producers and
/// consumers, live endpoints, m-join input-index sanity, a truthful reuse
/// index, the executor's resident caches (every bound-table slot equal to
/// its leaf's effective bound, zero elsewhere; the rank-merge list equal to
/// the ascending arena scan), the arena contract — every live module
/// slot's refcount equal to its graph residency (stream leaves and m-join
/// inputs naming it) plus the caller-supplied external registrations (the
/// QS manager's shared probe-cache table holds one reference per entry) —
/// and the sharing contract of stored modules (`qsys_exec::access`): every
/// storing input a stream leaf feeds names that leaf's module, a module
/// several storing inputs name (or a leaf's module) is fed to all of them
/// by one producer (the leaf), and each of their cursors equals the
/// module's length, as it must between routing passes.
pub fn verify_graph(
    graph: &QueryPlanGraph,
    external_module_refs: &[ModuleId],
    path: &str,
) -> Vec<Violation> {
    let mut out = Vec::new();
    let mut residency: HashMap<ModuleId, u32> = HashMap::new();
    let mut storing: BTreeMap<ModuleId, Vec<(NodeId, usize)>> = BTreeMap::new();
    let mut leaf_modules: HashMap<ModuleId, NodeId> = HashMap::new();
    let mut rank_merges: Vec<NodeId> = Vec::new();
    for id in graph.node_ids() {
        let node = graph.node(id);
        let at = format!("{path}/node[{id}]");
        // The bound table is written in place at read/quarantine/removal;
        // a slot that disagrees with its leaf means some mutation bypassed
        // those paths and the thresholds are being computed from a stale
        // bound.
        let (want, leaf_module) = match &node.kind {
            NodeKind::Stream(leaf) => (leaf.effective_bound(), Some(leaf.module)),
            _ => (0.0, None),
        };
        if matches!(node.kind, NodeKind::RankMerge(_)) {
            rank_merges.push(id);
        }
        let cached = graph.bound_table().get(id.index()).copied();
        if cached.map(f64::to_bits) != Some(want.to_bits()) {
            out.push(Violation::new(
                ViolationClass::GraphMalformed,
                &at,
                format!("bound table holds {cached:?}, the node's bound is {want}"),
            ));
        }
        // Consumer edges point at live nodes that acknowledge us.
        for (consumer, input_idx) in &node.children {
            match graph.try_node(*consumer) {
                None => out.push(Violation::new(
                    ViolationClass::GraphMalformed,
                    &at,
                    format!("consumer edge to dead node {consumer}"),
                )),
                Some(c) => {
                    if !c.parents.contains(&id) {
                        out.push(Violation::new(
                            ViolationClass::GraphMalformed,
                            &at,
                            format!("consumer {consumer} does not list {id} as producer"),
                        ));
                    }
                    if let NodeKind::MJoin(mj) = &c.kind {
                        match (mj.inputs().get(*input_idx), leaf_module) {
                            (None, _) => out.push(Violation::new(
                                ViolationClass::GraphMalformed,
                                &at,
                                format!(
                                    "edge into {consumer} input {input_idx}, but the m-join \
                                     has only {} inputs",
                                    mj.inputs().len()
                                ),
                            )),
                            (Some(input), Some(module))
                                if input.store_arrivals && input.module != module =>
                            {
                                out.push(Violation::new(
                                    ViolationClass::GraphMalformed,
                                    &at,
                                    format!(
                                        "{consumer} input {input_idx} stores into {:?}, not \
                                         this leaf's module {module:?}",
                                        input.module
                                    ),
                                ))
                            }
                            _ => {}
                        }
                    }
                }
            }
        }
        // Producer edges point at live nodes that acknowledge us.
        for producer in &node.parents {
            match graph.try_node(*producer) {
                None => out.push(Violation::new(
                    ViolationClass::GraphMalformed,
                    &at,
                    format!("producer edge to dead node {producer}"),
                )),
                Some(p) => {
                    if !p.children.iter().any(|(c, _)| *c == id) {
                        out.push(Violation::new(
                            ViolationClass::GraphMalformed,
                            &at,
                            format!("producer {producer} does not list {id} as consumer"),
                        ));
                    }
                }
            }
        }
        // Module residency: a stream leaf and every m-join input name a
        // live slot.
        if let Some(module) = leaf_module {
            if graph.modules().ref_count(module).is_none() {
                out.push(Violation::new(
                    ViolationClass::RefcountSkew,
                    &at,
                    format!("stream leaf names freed module slot {module:?}"),
                ));
            } else {
                *residency.entry(module).or_insert(0) += 1;
                leaf_modules.insert(module, id);
            }
        }
        if let NodeKind::MJoin(mj) = &node.kind {
            for (i, input) in mj.inputs().iter().enumerate() {
                if input.module.is_detached() {
                    continue;
                }
                if graph.modules().ref_count(input.module).is_none() {
                    out.push(Violation::new(
                        ViolationClass::RefcountSkew,
                        format!("{at}/input[{i}]"),
                        format!("names freed module slot {:?}", input.module),
                    ));
                } else {
                    *residency.entry(input.module).or_insert(0) += 1;
                    if input.store_arrivals {
                        storing.entry(input.module).or_default().push((id, i));
                    }
                }
            }
        }
    }
    for (module, inputs) in &storing {
        let owner = leaf_modules.get(module).copied();
        if inputs.len() > 1 || owner.is_some() {
            out.extend(verify_shared_module(graph, *module, owner, inputs, path));
        }
    }
    for id in external_module_refs {
        if graph.modules().ref_count(*id).is_none() {
            out.push(Violation::new(
                ViolationClass::RefcountSkew,
                format!("{path}/probe_modules"),
                format!("external registration names freed module slot {id:?}"),
            ));
        } else {
            *residency.entry(*id).or_insert(0) += 1;
        }
    }
    for slot in graph.modules().live_ids() {
        let refs = graph.modules().ref_count(slot).unwrap_or(0);
        let resident = residency.get(&slot).copied().unwrap_or(0);
        if refs != resident {
            out.push(Violation::new(
                ViolationClass::RefcountSkew,
                format!("{path}/module[{slot:?}]"),
                format!("slot holds {refs} refs but {resident} are accounted for"),
            ));
        }
    }
    // `node_ids` walks the arena in id order, so the scan is ascending.
    if graph.rank_merge_ids() != rank_merges {
        out.push(Violation::new(
            ViolationClass::GraphMalformed,
            format!("{path}/rank_merges"),
            format!(
                "resident list {:?} != arena scan {rank_merges:?}",
                graph.rank_merge_ids()
            ),
        ));
    }
    // The reuse index must be truthful: live target carrying that sig.
    for (sig, node_id) in graph.sig_entries() {
        match graph.try_node(node_id) {
            None => out.push(Violation::new(
                ViolationClass::GraphMalformed,
                format!("{path}/sig_index[{sig:?}]"),
                format!("points at dead node {node_id}"),
            )),
            Some(node) if node.sig != Some(sig) => out.push(Violation::new(
                ViolationClass::GraphMalformed,
                format!("{path}/sig_index[{sig:?}]"),
                format!("points at {node_id}, which carries {:?}", node.sig),
            )),
            Some(_) => {}
        }
    }
    out
}

/// The sharing contract of one stored module that the storing `inputs`
/// (m-join node, input index) all name: each input has exactly one
/// producer, the same one — the stream leaf `owner`, when the module is a
/// leaf's — and has seen every entry of the module.
fn verify_shared_module(
    graph: &QueryPlanGraph,
    module: ModuleId,
    owner: Option<NodeId>,
    inputs: &[(NodeId, usize)],
    path: &str,
) -> Vec<Violation> {
    let mut out = Vec::new();
    let at = format!("{path}/module[{module:?}]");
    let Some(len) = graph
        .modules()
        .module(module)
        .and_then(|m| m.borrow().as_stored().map(|s| s.len()))
    else {
        return out; // a probe cache: arrivals are never stored in one
    };
    let mut feeding = owner;
    for &(node, input) in inputs {
        let consumer = graph.node(node);
        let producers: Vec<NodeId> = consumer
            .parents
            .iter()
            .copied()
            .filter(|p| {
                graph
                    .try_node(*p)
                    .is_some_and(|p| p.children.contains(&(node, input)))
            })
            .collect();
        match (producers.as_slice(), feeding) {
            ([p], None) => feeding = Some(*p),
            ([p], Some(f)) if *p == f => {}
            _ => out.push(Violation::new(
                ViolationClass::GraphMalformed,
                &at,
                format!(
                    "{node} input {input} is fed by {producers:?}, but the module's other \
                     storing inputs by {feeding:?}: a shared module holds one producer's output"
                ),
            )),
        }
        if let NodeKind::MJoin(mj) = &consumer.kind {
            let cursor = mj.cursor(input);
            if cursor != len {
                out.push(Violation::new(
                    ViolationClass::GraphMalformed,
                    &at,
                    format!("{node} input {input} has seen {cursor} of its {len} entries"),
                ));
            }
        }
    }
    out
}

/// Check the QS manager around its graph: sig ids on live nodes must be in
/// interner range, and module refcounts must balance including the
/// manager's own probe-cache registrations.
pub fn verify_manager(manager: &QsManager, path: &str) -> Vec<Violation> {
    let external: Vec<ModuleId> = manager.probe_module_entries().map(|(_, m)| m).collect();
    let mut out = verify_graph(manager.graph(), &external, path);
    let interner_cell = manager.shared_interner();
    let interner = interner_cell.borrow();
    for id in manager.graph().node_ids() {
        if let Some(sig) = manager.graph().node(id).sig {
            if sig.index() >= interner.len() {
                out.push(Violation::new(
                    ViolationClass::IdOutOfRange,
                    format!("{path}/node[{id}]"),
                    format!(
                        "carries {sig:?}, past the interner's {} entries",
                        interner.len()
                    ),
                ));
            }
        }
    }
    out
}

/// Check that no *freshly grafted* query sits above a quarantined stream
/// leaf. Valid only at graft boundaries — before execution has had a
/// chance to quarantine anything under the new queries — where it proves
/// the reuse oracle kept its promise to never advertise quarantined
/// state. Mid-execution the same condition is legal (a query drains
/// *around* a leaf that failed under it), so this is a separate pass the
/// post-graft hook adds on top of [`verify_manager`].
pub fn verify_no_quarantined_grafts(manager: &QsManager, path: &str) -> Vec<Violation> {
    let graph = manager.graph();
    let mut out = Vec::new();
    for &node_id in graph.rank_merge_ids() {
        if graph.subtree_quarantined(node_id) {
            let uq = graph.rank_merge(node_id).uq();
            out.push(Violation::new(
                ViolationClass::QuarantineLeak,
                format!("{path}/rank_merges[{uq}]"),
                "freshly grafted query is fed by a quarantined stream leaf",
            ));
        }
    }
    out
}

// ---------------------------------------------------------------------------
// Lane entry point.
// ---------------------------------------------------------------------------

/// Verify one execution lane end to end: interner arena and the plan graph
/// with module-refcount accounting. Pure and read-only (borrows the lane's
/// interner for reading; never mutates).
pub fn verify_lane(manager: &QsManager) -> VerifyReport {
    let mut out = Vec::new();
    let interner_cell = manager.shared_interner();
    let interner = interner_cell.borrow();
    out.extend(verify_interner(&interner, "lane/interner"));
    drop(interner);
    out.extend(verify_manager(manager, "lane/graph"));
    VerifyReport { violations: out }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qsys_types::{JoinCond, RelId};

    fn sig(rels: &[u32]) -> SubExprSig {
        SubExprSig::new(
            rels.iter().map(|&r| (RelId::new(r), None)).collect(),
            Vec::new(),
        )
    }

    #[test]
    fn clean_entries_verify_clean() {
        let entries = vec![sig(&[0]), sig(&[1]), sig(&[0, 1])];
        assert!(verify_interner_entries(&entries, "t").is_empty());
    }

    #[test]
    fn duplicate_signature_is_flagged() {
        let entries = vec![sig(&[0]), sig(&[1]), sig(&[0])];
        let v = verify_interner_entries(&entries, "t");
        assert!(
            v.iter().any(|v| v.class == ViolationClass::MalformedSig),
            "{v:?}"
        );
    }

    #[test]
    fn flipped_or_unsorted_joins_are_flagged() {
        let join = |l: u32, r: u32| JoinCond {
            left: RelId::new(l),
            left_col: 0,
            right: RelId::new(r),
            right_col: 1,
        };
        let with_joins = |joins: Vec<JoinCond>| SubExprSig {
            joins,
            ..sig(&[0, 1, 2])
        };
        let clean = with_joins(vec![join(0, 1), join(1, 2)]);
        assert!(verify_interner_entries(&[clean], "t").is_empty());
        for bad in [
            with_joins(vec![join(1, 0), join(1, 2)]),
            with_joins(vec![join(1, 2), join(0, 1)]),
            with_joins(vec![join(0, 1), join(0, 1)]),
        ] {
            let v = verify_interner_entries(&[bad], "t");
            assert_eq!(v.len(), 1, "{v:?}");
            assert_eq!(v[0].class, ViolationClass::MalformedSig);
        }
    }

    #[test]
    fn report_display_lists_violations() {
        let report = VerifyReport {
            violations: vec![Violation::new(
                ViolationClass::MalformedSig,
                "lane/interner/sig[3]",
                "atoms not in canonical order",
            )],
        };
        let text = report.to_string();
        assert!(text.contains("MalformedSig"));
        assert!(text.contains("lane/interner/sig[3]"));
        assert!(!report.is_clean());
        assert_eq!(report.classes(), vec![ViolationClass::MalformedSig]);
    }
}
