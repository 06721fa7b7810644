//! The schema graph (Figure 1 of the paper).
//!
//! Nodes are relations; edges represent foreign keys, hyperlinks, and
//! potential join relationships — including the orange "record link" tables
//! that bridge databases. Each relation may carry a node cost (how
//! authoritative the source is) and each edge a cost (how useful the join
//! is); the Q System scoring model (Section 2.1) combines these, and they
//! may be overridden per user.

use crate::stats::RelationStats;
use qsys_types::{RelId, SourceId};
use std::collections::{BinaryHeap, HashMap};
use std::fmt;
use std::sync::{Arc, Mutex, RwLock};

/// Identifier of a schema-graph edge.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct EdgeId(pub u32);

impl EdgeId {
    /// Raw index for arena addressing.
    #[inline]
    pub const fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Debug for EdgeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "E{}", self.0)
    }
}

impl fmt::Display for EdgeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "E{}", self.0)
    }
}

/// The nature of a schema edge.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum EdgeKind {
    /// Key / foreign-key relationship within one database.
    ForeignKey,
    /// Cross-database record-linking table relationship (orange squared
    /// rectangles in Figure 1). These usually carry a similarity score.
    RecordLink,
    /// Hyperlink or other discovered join relationship.
    Link,
}

/// A relation (table) in the schema graph.
#[derive(Clone, Debug)]
pub struct Relation {
    /// Identifier (index into [`Catalog::relations`]).
    pub id: RelId,
    /// Human-readable name (e.g., `"GeneInfo"`).
    pub name: String,
    /// Which remote database hosts this relation.
    pub source_db: SourceId,
    /// Column names; positions are the canonical column indices.
    pub columns: Vec<String>,
    /// Index of the similarity-score attribute, if the relation has one.
    /// Relations without a score attribute contribute a constant to every
    /// result's score — the optimizer treats them as probe-only sources
    /// unless tiny (Section 5.1.1, second heuristic).
    pub score_col: Option<usize>,
    /// Node cost: how (un)authoritative this source is, used by the
    /// Q System scoring model. Lower is better.
    pub node_cost: f64,
    /// Statistics used for cost estimation.
    pub stats: RelationStats,
}

impl Relation {
    /// Resolve a column name to its index.
    #[cfg(test)]
    pub(crate) fn column_index(&self, name: &str) -> Option<usize> {
        self.columns.iter().position(|c| c == name)
    }

    /// Whether the relation has a score attribute (drives the streaming vs.
    /// probing decision in the optimizer).
    pub fn has_score(&self) -> bool {
        self.score_col.is_some()
    }
}

/// A join edge between two relations.
#[derive(Clone, Debug)]
pub struct Edge {
    /// Identifier (index into [`Catalog::edges`]).
    pub id: EdgeId,
    /// One endpoint.
    pub from: RelId,
    /// Join column on `from`.
    pub from_col: usize,
    /// Other endpoint.
    pub to: RelId,
    /// Join column on `to`.
    pub to_col: usize,
    /// What kind of relationship the edge represents.
    pub kind: EdgeKind,
    /// Default edge cost for the Q System scoring model (may be overridden
    /// per user). Lower is better.
    pub cost: f64,
    /// Average number of matching tuples on `to` per distinct key of
    /// `from` (and symmetrically; we store the forward fanout and derive the
    /// reverse from cardinalities).
    pub fanout: f64,
}

impl Edge {
    /// Given one endpoint, return the other and the (local, remote) join
    /// columns oriented from `rel`'s perspective.
    pub fn other(&self, rel: RelId) -> Option<(RelId, usize, usize)> {
        if rel == self.from {
            Some((self.to, self.from_col, self.to_col))
        } else if rel == self.to {
            Some((self.from, self.to_col, self.from_col))
        } else {
            None
        }
    }

    /// The expected number of join partners when probing *into* `target`
    /// from the opposite side.
    #[cfg(test)]
    pub(crate) fn fanout_into(&self, target: RelId, catalog: &Catalog) -> f64 {
        if target == self.to {
            self.fanout
        } else {
            // Reverse direction: scale by relative cardinalities.
            let from_card = catalog.relation(self.from).stats.cardinality.max(1) as f64;
            let to_card = catalog.relation(self.to).stats.cardinality.max(1) as f64;
            (self.fanout * from_card / to_card).max(1e-6)
        }
    }
}

/// One edge as seen from one endpoint: the other endpoint, the edge's
/// [`Catalog::edge_weight`] and its id. Each relation's hops are built once,
/// in [`CatalogBuilder::build`], in edge-id order; they are the catalog's
/// adjacency.
#[derive(Clone, Debug)]
struct Hop {
    to: RelId,
    weight: u64,
    edge: EdgeId,
}

/// One single-source shortest-path search over the schema graph, dense by
/// `RelId::index()` and paused after the relation the last question needed.
/// Dijkstra over [`Catalog::edge_weight`]: the heap order (equal distances
/// pop the larger `RelId` first) and the strict-improvement relaxation fix
/// every tie, and the path table's answers inherit them.
struct PathSearch {
    /// The edge the search never crosses.
    banned: Option<EdgeId>,
    /// Best distance found so far (`u64::MAX` = not reached), final once
    /// settled. Freed with the frontier when the search runs out.
    dist: Vec<u64>,
    /// Settle order of each relation (`u32::MAX` = not settled yet). An
    /// unsettled relation settles after every settled one, so once any
    /// member of a target set is settled, the one with the smallest rank is
    /// what an early-exit search for that set would have stopped at.
    rank: Vec<u32>,
    /// The edge each relation was reached through (unset for the source and
    /// for unreached relations). A settled relation's chain is final.
    back: Vec<EdgeId>,
    /// Reached, unsettled relations by distance; may hold stale entries.
    frontier: BinaryHeap<u128>,
    /// How many relations are settled.
    settled: u32,
    /// The target set of the question being answered, kept to reuse its
    /// allocation.
    asked: Vec<RelId>,
}

/// A frontier entry packed so that the max-heap pops the smallest distance
/// first and, among equal distances, the larger `RelId` first.
fn key(d: u64, rel: RelId) -> u128 {
    ((!d as u128) << 32) | rel.0 as u128
}

impl PathSearch {
    fn new(relations: usize, from: RelId, banned: Option<EdgeId>) -> PathSearch {
        let mut dist = vec![u64::MAX; relations];
        dist[from.index()] = 0;
        PathSearch {
            banned,
            dist,
            rank: vec![u32::MAX; relations],
            back: vec![EdgeId(u32::MAX); relations],
            frontier: BinaryHeap::from([key(0, from)]),
            settled: 0,
            asked: Vec::new(),
        }
    }

    /// The member of `targets` the search settles first, advancing it only
    /// until one is settled; `None` when none is reachable.
    fn nearest(
        &mut self,
        hops: &[Vec<Hop>],
        targets: impl IntoIterator<Item = RelId>,
    ) -> Option<RelId> {
        self.asked.clear();
        self.asked.extend(targets);
        let first = self
            .asked
            .iter()
            .copied()
            .min_by_key(|t| self.rank[t.index()])?;
        if self.rank[first.index()] != u32::MAX {
            return Some(first);
        }
        while let Some(rel) = self.settle_next(hops) {
            if self.asked.contains(&rel) {
                return Some(rel);
            }
        }
        None
    }

    /// Settle the nearest reached relation and relax its hops; `None` once
    /// the frontier is empty, when `dist` and the frontier are freed.
    fn settle_next(&mut self, hops: &[Vec<Hop>]) -> Option<RelId> {
        while let Some(k) = self.frontier.pop() {
            let (d, rel) = (!((k >> 32) as u64), RelId::new(k as u32));
            if self.dist[rel.index()] < d {
                continue; // stale entry
            }
            self.rank[rel.index()] = self.settled;
            self.settled += 1;
            for hop in &hops[rel.index()] {
                if self.banned == Some(hop.edge) {
                    continue;
                }
                let nd = d + hop.weight;
                if nd < self.dist[hop.to.index()] {
                    self.dist[hop.to.index()] = nd;
                    self.back[hop.to.index()] = hop.edge;
                    self.frontier.push(key(nd, hop.to));
                }
            }
            return Some(rel);
        }
        self.dist = Vec::new();
        self.frontier = BinaryHeap::new();
        None
    }
}

/// The lazily filled schema-path table: one [`PathSearch`] per `(source,
/// banned edge)` ever asked about, each advanced only as far as the
/// questions so far needed. Edge costs are fixed at
/// [`CatalogBuilder::build`], so a search is a pure function of the catalog
/// and clones share one table. The map's lock guards only the map; each
/// search has its own.
#[derive(Clone, Default)]
struct PathTable(Arc<RwLock<PathSearches>>);

type PathSearches = HashMap<(RelId, Option<EdgeId>), Arc<Mutex<PathSearch>>>;

impl PathTable {
    fn len(&self) -> usize {
        self.0.read().expect(PATHS_POISONED).len()
    }

    /// The search from `from` avoiding `banned`, started if new.
    fn search(
        &self,
        relations: usize,
        from: RelId,
        banned: Option<EdgeId>,
    ) -> Arc<Mutex<PathSearch>> {
        let key = (from, banned);
        if let Some(search) = self.0.read().expect(PATHS_POISONED).get(&key) {
            return Arc::clone(search);
        }
        let mut table = self.0.write().expect(PATHS_POISONED);
        Arc::clone(
            table
                .entry(key)
                .or_insert_with(|| Arc::new(Mutex::new(PathSearch::new(relations, from, banned)))),
        )
    }

    /// How many relations the `(from, banned)` search has settled, if it
    /// was ever started.
    #[cfg(test)]
    fn settled(&self, from: RelId, banned: Option<EdgeId>) -> Option<u32> {
        let table = self.0.read().expect(PATHS_POISONED);
        let search = table.get(&(from, banned))?;
        let settled = search.lock().expect(PATHS_POISONED).settled;
        Some(settled)
    }
}

/// A search that panicked mid-relaxation is half-updated, and a panic on a
/// thread holding the map is a bug too: either is worth stopping on.
const PATHS_POISONED: &str = "a thread panicked while holding the schema-path table";

impl fmt::Debug for PathTable {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "PathTable({} trees)", self.len())
    }
}

/// The largest path-search weight of an edge. Relation ids are `u32`, so a
/// simple path has at most `u32::MAX` edges and no distance sum can overflow
/// a `u64`.
const MAX_WEIGHT: u64 = u32::MAX as u64;

/// An edge cost in thousandths, clamped to `1..=MAX_WEIGHT`.
fn path_weight(cost: f64) -> u64 {
    (cost * 1000.0).max(1.0).min(MAX_WEIGHT as f64) as u64
}

/// The global schema graph with adjacency and name lookup.
#[derive(Clone, Debug, Default)]
pub struct Catalog {
    relations: Vec<Relation>,
    edges: Vec<Edge>,
    hops: Vec<Vec<Hop>>,
    by_name: HashMap<String, RelId>,
    paths: PathTable,
}

impl Catalog {
    /// Start building a catalog.
    pub fn builder() -> CatalogBuilder {
        CatalogBuilder::default()
    }

    /// All relations.
    pub fn relations(&self) -> &[Relation] {
        &self.relations
    }

    /// All edges.
    pub fn edges(&self) -> &[Edge] {
        &self.edges
    }

    /// Number of relations.
    pub fn relation_count(&self) -> usize {
        self.relations.len()
    }

    /// Look up a relation by id. Panics on an id not minted by this catalog
    /// (ids are never exposed except via the builder).
    pub fn relation(&self, id: RelId) -> &Relation {
        &self.relations[id.index()]
    }

    /// Checked relation lookup.
    #[cfg(test)]
    pub(crate) fn try_relation(&self, id: RelId) -> qsys_types::QsysResult<&Relation> {
        self.relations
            .get(id.index())
            .ok_or(qsys_types::QsysError::UnknownRelation(id))
    }

    /// Look up an edge by id.
    pub fn edge(&self, id: EdgeId) -> &Edge {
        &self.edges[id.index()]
    }

    /// Relation by name.
    pub fn relation_by_name(&self, name: &str) -> Option<&Relation> {
        self.by_name.get(name).map(|id| self.relation(*id))
    }

    /// Edges incident to `rel`.
    pub fn incident_edges(&self, rel: RelId) -> impl Iterator<Item = EdgeId> + '_ {
        self.hops[rel.index()].iter().map(|hop| hop.edge)
    }

    /// Neighboring `(edge, relation)` pairs of `rel`.
    #[cfg(test)]
    pub(crate) fn neighbors(&self, rel: RelId) -> impl Iterator<Item = (&Edge, &Relation)> + '_ {
        self.hops[rel.index()]
            .iter()
            .map(|hop| (self.edge(hop.edge), self.relation(hop.to)))
    }

    /// The edge connecting `a` and `b` on specific columns, if present.
    pub fn edge_between(&self, a: RelId, b: RelId) -> Option<&Edge> {
        self.hops[a.index()]
            .iter()
            .find(|hop| hop.to == b)
            .map(|hop| self.edge(hop.edge))
    }

    /// Mutable access to a relation's stats (used by generators and by the
    /// runtime statistics refresh).
    #[cfg(test)]
    pub(crate) fn stats_mut(&mut self, id: RelId) -> &mut RelationStats {
        &mut self.relations[id.index()].stats
    }

    /// Integer weight of an edge in path searches: its cost in thousandths,
    /// at least 1 (zero, negative and NaN costs clamp to 1) and at most
    /// `u32::MAX` (so a path's sum cannot overflow), so distances are exact
    /// and strictly increasing along a path.
    pub fn edge_weight(&self, id: EdgeId) -> u64 {
        path_weight(self.edge(id).cost)
    }

    /// The cheapest edge-path from `from` to the nearest relation in
    /// `targets`, never crossing `banned`; `None` when no target is
    /// reachable. Among equally near targets, and equally cheap routes, the
    /// choice is the one a Dijkstra search stopping at the first settled
    /// target makes (equal distances settle the larger `RelId` first, a
    /// relation keeps the first cheapest edge that reached it).
    ///
    /// Answered from the catalog's path table: each `(from, banned)` pair
    /// has one search, paused after the last relation a question needed. A
    /// question whose target is already settled is a rank scan and a chain
    /// walk; otherwise the search resumes until a target settles or it runs
    /// out.
    pub fn cheapest_path(
        &self,
        from: RelId,
        targets: impl IntoIterator<Item = RelId>,
        banned: Option<EdgeId>,
    ) -> Option<Vec<EdgeId>> {
        let search = self.paths.search(self.relations.len(), from, banned);
        let mut search = search.lock().expect(PATHS_POISONED);
        let nearest = search.nearest(&self.hops, targets)?;
        let mut path = Vec::new();
        let mut cur = nearest;
        while cur != from {
            let eid = search.back[cur.index()];
            path.push(eid);
            (cur, _, _) = self
                .edge(eid)
                .other(cur)
                .expect("back edge touches its node");
        }
        path.reverse();
        Some(path)
    }
}

/// Incremental catalog construction.
#[derive(Default)]
pub struct CatalogBuilder {
    relations: Vec<Relation>,
    edges: Vec<Edge>,
}

impl CatalogBuilder {
    /// Add a relation; returns its id. (The argument count mirrors the
    /// relation's definition; a config struct here would only rename the
    /// same seven facts.)
    #[allow(clippy::too_many_arguments)]
    pub fn relation(
        &mut self,
        name: impl Into<String>,
        source_db: SourceId,
        columns: Vec<String>,
        score_col: Option<usize>,
        node_cost: f64,
        stats: RelationStats,
    ) -> RelId {
        let id = RelId::new(self.relations.len() as u32);
        let name = name.into();
        if let Some(col) = score_col {
            assert!(col < columns.len(), "score column out of range for {name}");
        }
        self.relations.push(Relation {
            id,
            name,
            source_db,
            columns,
            score_col,
            node_cost,
            stats,
        });
        id
    }

    /// Add an edge; returns its id. (Mirrors the edge definition.)
    #[allow(clippy::too_many_arguments)]
    pub fn edge(
        &mut self,
        from: RelId,
        from_col: usize,
        to: RelId,
        to_col: usize,
        kind: EdgeKind,
        cost: f64,
        fanout: f64,
    ) -> EdgeId {
        assert!(from.index() < self.relations.len(), "unknown from-relation");
        assert!(to.index() < self.relations.len(), "unknown to-relation");
        assert_ne!(from, to, "self-loop edges are not supported");
        assert!(
            from_col < self.relations[from.index()].columns.len(),
            "from_col out of range"
        );
        assert!(
            to_col < self.relations[to.index()].columns.len(),
            "to_col out of range"
        );
        let id = EdgeId(self.edges.len() as u32);
        self.edges.push(Edge {
            id,
            from,
            from_col,
            to,
            to_col,
            kind,
            cost,
            fanout,
        });
        id
    }

    /// Finish, computing adjacency (as hop lists) and the name index.
    pub fn build(self) -> Catalog {
        let mut hops = vec![Vec::new(); self.relations.len()];
        for e in &self.edges {
            let weight = path_weight(e.cost);
            let hop = |to| Hop {
                to,
                weight,
                edge: e.id,
            };
            hops[e.from.index()].push(hop(e.to));
            hops[e.to.index()].push(hop(e.from));
        }
        let by_name = self
            .relations
            .iter()
            .map(|r| (r.name.clone(), r.id))
            .collect();
        Catalog {
            relations: self.relations,
            edges: self.edges,
            hops,
            by_name,
            paths: PathTable::default(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::RelationStats;

    fn small_catalog() -> Catalog {
        let mut b = Catalog::builder();
        let t = b.relation(
            "Term",
            SourceId::new(0),
            vec!["gid".into(), "name".into(), "score".into()],
            Some(2),
            1.0,
            RelationStats::with_cardinality(100),
        );
        let g2g = b.relation(
            "Gene2GO",
            SourceId::new(0),
            vec!["gid".into(), "giId".into()],
            None,
            1.0,
            RelationStats::with_cardinality(500),
        );
        let gi = b.relation(
            "GeneInfo",
            SourceId::new(1),
            vec!["giId".into(), "gene".into()],
            None,
            0.5,
            RelationStats::with_cardinality(200),
        );
        b.edge(t, 0, g2g, 0, EdgeKind::ForeignKey, 1.0, 5.0);
        b.edge(g2g, 1, gi, 0, EdgeKind::ForeignKey, 1.0, 1.0);
        b.build()
    }

    #[test]
    fn lookup_by_name_and_id() {
        let c = small_catalog();
        let t = c.relation_by_name("Term").unwrap();
        assert_eq!(t.columns.len(), 3);
        assert!(t.has_score());
        assert_eq!(t.column_index("score"), Some(2));
        assert_eq!(c.relation(t.id).name, "Term");
        assert!(c.relation_by_name("Nope").is_none());
    }

    #[test]
    fn adjacency_is_symmetric() {
        let c = small_catalog();
        let t = c.relation_by_name("Term").unwrap().id;
        let g2g = c.relation_by_name("Gene2GO").unwrap().id;
        let gi = c.relation_by_name("GeneInfo").unwrap().id;
        assert_eq!(c.incident_edges(t).count(), 1);
        assert_eq!(c.incident_edges(g2g).count(), 2);
        let neighbors: Vec<_> = c.neighbors(g2g).map(|(_, r)| r.id).collect();
        assert!(neighbors.contains(&t));
        assert!(neighbors.contains(&gi));
    }

    #[test]
    fn edge_other_orients_columns() {
        let c = small_catalog();
        let t = c.relation_by_name("Term").unwrap().id;
        let g2g = c.relation_by_name("Gene2GO").unwrap().id;
        let e = c.edge_between(t, g2g).unwrap();
        let (other, local, remote) = e.other(t).unwrap();
        assert_eq!(other, g2g);
        assert_eq!(local, 0);
        assert_eq!(remote, 0);
        let (other, local, remote) = e.other(g2g).unwrap();
        assert_eq!(other, t);
        assert_eq!(local, 0);
        assert_eq!(remote, 0);
        assert!(e.other(RelId::new(99)).is_none());
    }

    #[test]
    fn reverse_fanout_scales_with_cardinality() {
        let c = small_catalog();
        let t = c.relation_by_name("Term").unwrap().id;
        let g2g = c.relation_by_name("Gene2GO").unwrap().id;
        let e = c.edge_between(t, g2g).unwrap();
        // Forward: Term -> Gene2GO has fanout 5.
        assert!((e.fanout_into(g2g, &c) - 5.0).abs() < 1e-9);
        // Reverse: 5 * 100 / 500 = 1.
        assert!((e.fanout_into(t, &c) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn checked_lookup_errors() {
        let c = small_catalog();
        assert!(c.try_relation(RelId::new(99)).is_err());
        assert!(c.try_relation(RelId::new(0)).is_ok());
    }

    #[test]
    fn edge_weight_is_thousandths_clamped_to_one() {
        let mut b = Catalog::builder();
        let stats = || RelationStats::with_cardinality(1);
        let x = b.relation("X", SourceId::new(0), vec!["k".into()], None, 1.0, stats());
        let y = b.relation("Y", SourceId::new(0), vec!["k".into()], None, 1.0, stats());
        let costs = [1.5, 0.0, -3.0, f64::NAN, 0.0004, f64::INFINITY, 1e300];
        let ids: Vec<EdgeId> = costs
            .iter()
            .map(|&cost| b.edge(x, 0, y, 0, EdgeKind::Link, cost, 1.0))
            .collect();
        let c = b.build();
        let weights: Vec<u64> = ids.iter().map(|&e| c.edge_weight(e)).collect();
        let cap = u64::from(u32::MAX);
        assert_eq!(weights, [1500, 1, 1, 1, 1, cap, cap]);
        // No distance sum overflows: the search relaxes the capped edges,
        // keeps the first cheapest one and returns.
        assert_eq!(c.cheapest_path(x, [y], None), Some(vec![ids[1]]));
    }

    #[test]
    fn path_table_fills_lazily_and_is_shared_by_clones() {
        let c = small_catalog();
        let t = c.relation_by_name("Term").unwrap().id;
        let g2g = c.relation_by_name("Gene2GO").unwrap().id;
        let gi = c.relation_by_name("GeneInfo").unwrap().id;
        assert_eq!(c.paths.len(), 0, "nothing is precomputed");
        // A near question settles only as far as its answer.
        assert_eq!(c.cheapest_path(t, [g2g], None), Some(vec![EdgeId(0)]));
        assert_eq!(
            c.paths.settled(t, None),
            Some(2),
            "GeneInfo is left unsettled"
        );
        assert_eq!(c.cheapest_path(t, [gi, t], None), Some(Vec::new()));
        assert_eq!(
            c.paths.settled(t, None),
            Some(2),
            "answered from the settled prefix"
        );
        assert_eq!(c.cheapest_path(t, [gi], Some(EdgeId(1))), None);
        assert_eq!(c.paths.len(), 2, "one search per (from, banned)");

        // A clone (the engine's copy, a lane's copy) reads and advances the
        // same searches; stats edits do not detach it.
        let mut clone = c.clone();
        clone.stats_mut(t).cardinality = 7;
        let path = clone.cheapest_path(t, [gi], None).expect("connected");
        assert_eq!(path, [EdgeId(0), EdgeId(1)]);
        assert_eq!(
            c.paths.settled(t, None),
            Some(3),
            "the far question resumed it"
        );
        assert_eq!(clone.cheapest_path(gi, [t], None).map(|p| p.len()), Some(2));
        assert_eq!(c.paths.len(), 3);
        // Debug names the table by size only.
        assert!(format!("{c:?}").contains("PathTable(3 trees)"));
    }
}
