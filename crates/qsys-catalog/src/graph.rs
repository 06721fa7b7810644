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
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};
use std::fmt;
use std::sync::{Arc, RwLock};

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

    /// Whether the edge touches `rel`.
    pub(crate) fn touches(&self, rel: RelId) -> bool {
        self.from == rel || self.to == rel
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

/// One full single-source shortest-path tree over the schema graph, dense
/// by `RelId::index()`.
struct PathTree {
    /// Settle order of each relation (`u32::MAX` = unreachable). An
    /// early-exit search for any target set stops at the member settled
    /// first, so the member with the smallest rank is its answer.
    rank: Vec<u32>,
    /// The edge each relation was settled through (unset for the source and
    /// for unreachable relations). A settled relation's chain is final.
    back: Vec<EdgeId>,
}

/// The lazily filled schema-path table: one [`PathTree`] per `(source,
/// banned edge)` ever asked about. Edge costs are fixed at
/// [`CatalogBuilder::build`], so a tree is a pure function of the catalog
/// and clones share one table.
#[derive(Clone, Default)]
struct PathTable(Arc<RwLock<PathTrees>>);

type PathTrees = HashMap<(RelId, Option<EdgeId>), Arc<PathTree>>;

impl PathTable {
    fn len(&self) -> usize {
        self.0.read().expect(PATHS_POISONED).len()
    }
}

/// Trees are inserted whole, so a poisoned lock still guards valid data —
/// but a panic on a thread holding it is a bug worth stopping on.
const PATHS_POISONED: &str = "a thread panicked while holding the schema-path table";

impl fmt::Debug for PathTable {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "PathTable({} trees)", self.len())
    }
}

/// The global schema graph with adjacency and name lookup.
#[derive(Clone, Debug, Default)]
pub struct Catalog {
    relations: Vec<Relation>,
    edges: Vec<Edge>,
    adjacency: Vec<Vec<EdgeId>>,
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
    pub fn incident_edges(&self, rel: RelId) -> &[EdgeId] {
        &self.adjacency[rel.index()]
    }

    /// Neighboring `(edge, relation)` pairs of `rel`.
    #[cfg(test)]
    pub(crate) fn neighbors(&self, rel: RelId) -> impl Iterator<Item = (&Edge, &Relation)> + '_ {
        self.adjacency[rel.index()].iter().map(move |eid| {
            let e = self.edge(*eid);
            let (other, _, _) = e.other(rel).expect("adjacency is consistent");
            (e, self.relation(other))
        })
    }

    /// The edge connecting `a` and `b` on specific columns, if present.
    pub fn edge_between(&self, a: RelId, b: RelId) -> Option<&Edge> {
        self.adjacency[a.index()]
            .iter()
            .map(|eid| self.edge(*eid))
            .find(|e| e.touches(b))
    }

    /// Mutable access to a relation's stats (used by generators and by the
    /// runtime statistics refresh).
    #[cfg(test)]
    pub(crate) fn stats_mut(&mut self, id: RelId) -> &mut RelationStats {
        &mut self.relations[id.index()].stats
    }

    /// Integer weight of an edge in path searches: its cost in thousandths,
    /// at least 1 (zero, negative and NaN costs clamp to 1), so distances
    /// are exact and strictly increasing along a path.
    pub fn edge_weight(&self, id: EdgeId) -> u64 {
        (self.edge(id).cost * 1000.0).max(1.0) as u64
    }

    /// The cheapest edge-path from `from` to the nearest relation in
    /// `targets`, never crossing `banned`; `None` when no target is
    /// reachable. Among equally near targets, and equally cheap routes, the
    /// choice is the one a Dijkstra search stopping at the first settled
    /// target makes (equal distances settle the larger `RelId` first, a
    /// relation keeps the first cheapest edge that reached it).
    ///
    /// Answered from the catalog's path table: the first question about a
    /// `(from, banned)` pair builds its full shortest-path tree, every later
    /// one — whatever its target set — is a rank scan and a chain walk.
    pub fn cheapest_path(
        &self,
        from: RelId,
        targets: impl IntoIterator<Item = RelId>,
        banned: Option<EdgeId>,
    ) -> Option<Vec<EdgeId>> {
        let tree = self.path_tree(from, banned);
        let nearest = targets
            .into_iter()
            .min_by_key(|t| tree.rank[t.index()])
            .filter(|t| tree.rank[t.index()] != u32::MAX)?;
        let mut path = Vec::new();
        let mut cur = nearest;
        while cur != from {
            let eid = tree.back[cur.index()];
            path.push(eid);
            (cur, _, _) = self
                .edge(eid)
                .other(cur)
                .expect("back edge touches its node");
        }
        path.reverse();
        Some(path)
    }

    fn path_tree(&self, from: RelId, banned: Option<EdgeId>) -> Arc<PathTree> {
        let key = (from, banned);
        if let Some(tree) = self.paths.0.read().expect(PATHS_POISONED).get(&key) {
            return Arc::clone(tree);
        }
        // Built outside the lock; a racing builder computed the same tree.
        let tree = Arc::new(self.build_path_tree(from, banned));
        let mut table = self.paths.0.write().expect(PATHS_POISONED);
        Arc::clone(table.entry(key).or_insert(tree))
    }

    /// Dijkstra from `from` over [`Catalog::edge_weight`], run to
    /// exhaustion. The heap order (equal distances pop the larger `RelId`
    /// first) and the strict-improvement relaxation fix every tie, and the
    /// path table's answers inherit them.
    fn build_path_tree(&self, from: RelId, banned: Option<EdgeId>) -> PathTree {
        let n = self.relations.len();
        let mut dist = vec![u64::MAX; n];
        let mut rank = vec![u32::MAX; n];
        let mut back = vec![EdgeId(u32::MAX); n];
        let mut heap: BinaryHeap<(Reverse<u64>, RelId)> = BinaryHeap::new();
        let mut settled = 0u32;
        dist[from.index()] = 0;
        heap.push((Reverse(0), from));
        while let Some((Reverse(d), rel)) = heap.pop() {
            if dist[rel.index()] < d {
                continue; // stale entry
            }
            rank[rel.index()] = settled;
            settled += 1;
            for &eid in self.incident_edges(rel) {
                if banned == Some(eid) {
                    continue;
                }
                let (next, _, _) = self.edge(eid).other(rel).expect("incident edge");
                let nd = d + self.edge_weight(eid);
                if nd < dist[next.index()] {
                    dist[next.index()] = nd;
                    back[next.index()] = eid;
                    heap.push((Reverse(nd), next));
                }
            }
        }
        PathTree { rank, back }
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

    /// Finish, computing adjacency and the name index.
    pub fn build(self) -> Catalog {
        let mut adjacency = vec![Vec::new(); self.relations.len()];
        for e in &self.edges {
            adjacency[e.from.index()].push(e.id);
            adjacency[e.to.index()].push(e.id);
        }
        let by_name = self
            .relations
            .iter()
            .map(|r| (r.name.clone(), r.id))
            .collect();
        Catalog {
            relations: self.relations,
            edges: self.edges,
            adjacency,
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
        assert_eq!(c.incident_edges(t).len(), 1);
        assert_eq!(c.incident_edges(g2g).len(), 2);
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
        let costs = [1.5, 0.0, -3.0, f64::NAN, 0.0004];
        let ids: Vec<EdgeId> = costs
            .iter()
            .map(|&cost| b.edge(x, 0, y, 0, EdgeKind::Link, cost, 1.0))
            .collect();
        let c = b.build();
        let weights: Vec<u64> = ids.iter().map(|&e| c.edge_weight(e)).collect();
        assert_eq!(weights, [1500, 1, 1, 1, 1]);
    }

    #[test]
    fn path_table_fills_lazily_and_is_shared_by_clones() {
        let c = small_catalog();
        let t = c.relation_by_name("Term").unwrap().id;
        let gi = c.relation_by_name("GeneInfo").unwrap().id;
        assert_eq!(c.paths.len(), 0, "nothing is precomputed");
        let path = c.cheapest_path(t, [gi], None).expect("connected");
        assert_eq!(path, [EdgeId(0), EdgeId(1)]);
        assert_eq!(c.cheapest_path(t, [gi, t], None), Some(Vec::new()));
        assert_eq!(c.cheapest_path(t, [gi], Some(EdgeId(1))), None);
        assert_eq!(c.paths.len(), 2, "one tree per (from, banned)");

        // A clone (the engine's copy, a lane's copy) reads and fills the
        // same table; stats edits do not detach it.
        let mut clone = c.clone();
        clone.stats_mut(t).cardinality = 7;
        assert_eq!(clone.cheapest_path(gi, [t], None).map(|p| p.len()), Some(2));
        assert_eq!(c.paths.len(), 3);
        // Debug names the table by size only.
        assert!(format!("{c:?}").contains("PathTable(3 trees)"));
    }
}
