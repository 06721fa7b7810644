//! The synthetic GUS workload (Section 7, "Synthetic workload").
//!
//! "Our synthetic dataset made use of the Genomics Unified Schema (GUS),
//! which has 358 relations. We created 4 simulated database instances by
//! populating the relations in schema with 20,000–100,000 randomly
//! generated tuples apiece. ... Scores, join keys, and coefficients on the
//! score functions for the various user queries were drawn from a Zipfian
//! distribution. ... We generated a suite of 15 user queries by choosing
//! pairs of keywords from a list of common biological terms, using a Zipf
//! distribution on the keywords."
//!
//! The schema generator reproduces GUS's *shape*: 358 relations spread
//! over a handful of databases, hub relations for core concepts (preferred
//! attachment), record-linking bridge tables without score attributes, and
//! synonym/relationship tables carrying similarity scores.

use crate::tables::{SharedTables, TableGenSpec};
use crate::{Workload, WorkloadQuery};
use qsys_catalog::{
    CatalogBuilder, ColumnStats, EdgeKind, KeywordIndex, KeywordMatch, MatchKind, RelationStats,
};
use qsys_types::dist::{seeded_rng, Zipf};
use qsys_types::{RelId, SourceId, UserId, Value};
use rand::Rng;
use std::collections::HashMap;

/// Vocabulary of "common biological terms" (Section 7).
pub(crate) const BIO_TERMS: &[&str] = &[
    "protein",
    "gene",
    "plasma membrane",
    "metabolism",
    "kinase",
    "receptor",
    "transcription",
    "binding",
    "transport",
    "signal",
    "enzyme",
    "pathway",
    "nucleus",
    "mitochondrion",
    "ribosome",
    "cytoplasm",
    "homolog",
    "mutation",
    "expression",
    "regulation",
    "domain",
    "motif",
    "sequence",
    "structure",
    "antibody",
    "ligand",
    "catalysis",
    "phosphorylation",
    "transferase",
    "hydrolase",
    "oxidoreductase",
    "membrane",
    "chromosome",
    "plasmid",
    "promoter",
    "repressor",
    "operon",
    "ortholog",
    "paralog",
    "synthase",
];

const NAME_PREFIXES: &[&str] = &[
    "Gene",
    "Protein",
    "Transcript",
    "Sequence",
    "GO",
    "Entry",
    "Term",
    "Family",
    "Motif",
    "Domain",
    "Taxon",
    "Assay",
    "Clone",
    "Library",
    "Spot",
    "Array",
    "Feature",
    "Interaction",
];
const NAME_SUFFIXES: &[&str] = &[
    "Info",
    "Feature",
    "Synonym",
    "Category",
    "Instance",
    "Attribute",
    "Relationship",
    "Evidence",
    "Annotation",
    "Ref",
    "Map",
    "Link",
];

/// Generator parameters.
#[derive(Clone, Debug)]
pub struct GusConfig {
    /// RNG seed (the paper used 4 instances; vary the seed).
    pub seed: u64,
    /// Number of relations (GUS has 358).
    pub relations: usize,
    /// Rows per relation drawn uniformly from this range.
    pub min_rows: u64,
    /// Upper end of the rows range.
    pub max_rows: u64,
    /// Number of user queries in the script (paper: 15).
    pub user_queries: usize,
    /// Zipf exponent for keys, scores, and keyword choice.
    pub skew: f64,
    /// Maximum inter-arrival gap (paper: 6 s).
    pub arrival_spread_us: u64,
}

impl GusConfig {
    /// Laptop-scale default: full schema, reduced rows. Preserves every
    /// structural property; only the absolute stream depths shrink.
    pub fn small(seed: u64) -> GusConfig {
        GusConfig {
            seed,
            relations: 358,
            min_rows: 1_000,
            max_rows: 5_000,
            user_queries: 15,
            skew: 1.0,
            arrival_spread_us: 6_000_000,
        }
    }

    /// The paper's scale: 20k–100k rows per relation.
    pub fn paper(seed: u64) -> GusConfig {
        GusConfig {
            min_rows: 20_000,
            max_rows: 100_000,
            ..GusConfig::small(seed)
        }
    }
}

/// Generate the synthetic workload.
pub fn generate(config: &GusConfig) -> Workload {
    let mut rng = seeded_rng(config.seed);
    let n = config.relations;

    // --- Schema graph -----------------------------------------------------
    let mut builder = CatalogBuilder::default();
    let mut specs: HashMap<RelId, TableGenSpec> = HashMap::new();
    let attach_zipf = Zipf::new(n.max(2) - 1, 0.8); // hub bias
    let mut rel_ids = Vec::with_capacity(n);
    for i in 0..n {
        let rows = rng.random_range(config.min_rows..=config.max_rows);
        // Roughly a third of GUS tables are link/bridge tables without
        // score attributes (probe-only under heuristic 2).
        let scored = rng.random::<f64>() > 0.35;
        let name = format!(
            "{}{}{}",
            NAME_PREFIXES[i % NAME_PREFIXES.len()],
            NAME_SUFFIXES[(i / NAME_PREFIXES.len()) % NAME_SUFFIXES.len()],
            i
        );
        let key_domain = (rows / rng.random_range(1u64..3)).max(16);
        let mut stats = RelationStats::with_cardinality(rows);
        stats.columns = vec![
            ColumnStats {
                distinct: key_domain,
            },
            ColumnStats {
                distinct: key_domain,
            },
            ColumnStats { distinct: 997 },
        ];
        stats.max_score = 1.0;
        let source_db = SourceId::new(rng.random_range(0..6)); // a handful of DBs
        let node_cost = 0.2 + rng.random::<f64>() * 1.3;
        let rel = builder.relation(
            name,
            source_db,
            vec!["k1".into(), "k2".into(), "term".into(), "score".into()],
            scored.then_some(3),
            node_cost,
            stats,
        );
        specs.insert(
            rel,
            TableGenSpec {
                rows,
                key_domain,
                scored,
                terms: Vec::new(),
                skew: config.skew,
                ..TableGenSpec::default()
            },
        );
        rel_ids.push(rel);
        // Spanning-tree edge to an earlier relation (hub-biased), plus
        // occasional extra edges for density.
        if i > 0 {
            let parent = rel_ids[attach_zipf.sample(&mut rng).min(i) - 1];
            let (fc, tc) = (rng.random_range(0..2), rng.random_range(0..2));
            let kind = if rng.random::<f64>() < 0.3 {
                EdgeKind::RecordLink
            } else {
                EdgeKind::ForeignKey
            };
            let cost = 0.5 + rng.random::<f64>() * 1.5;
            let fanout = 1.0 + rng.random::<f64>() * 3.0;
            builder.edge(parent, fc, rel, tc, kind, cost, fanout);
            if i > 2 && rng.random::<f64>() < 0.4 {
                let other = rel_ids[rng.random_range(0..i - 1)];
                if other != parent {
                    builder.edge(
                        other,
                        rng.random_range(0..2),
                        rel,
                        rng.random_range(0..2),
                        EdgeKind::Link,
                        0.5 + rng.random::<f64>() * 1.5,
                        1.0 + rng.random::<f64>() * 3.0,
                    );
                }
            }
        }
    }
    let catalog = builder.build();

    // --- Keyword index ----------------------------------------------------
    // Each term matches 2–4 relations, hub-biased; content matches on
    // scored relations get the term embedded in their data.
    let mut index = KeywordIndex::new();
    let rel_zipf = Zipf::new(n, 0.8);
    for term in BIO_TERMS {
        let matches = rng.random_range(2..=4);
        let mut chosen = Vec::new();
        while chosen.len() < matches {
            let rel = rel_ids[rel_zipf.sample(&mut rng) - 1];
            if chosen.contains(&rel) {
                continue;
            }
            chosen.push(rel);
            let scored = catalog.relation(rel).has_score();
            let similarity = 0.4 + rng.random::<f64>() * 0.6;
            if scored {
                let selectivity = 0.005 + rng.random::<f64>() * 0.03;
                specs
                    .get_mut(&rel)
                    .expect("spec exists")
                    .terms
                    .push((term.to_string(), selectivity));
                index.insert(
                    term,
                    KeywordMatch {
                        rel,
                        similarity,
                        kind: MatchKind::Content {
                            column: 2,
                            value: Value::str(*term),
                        },
                        selectivity,
                    },
                );
            } else {
                index.insert(
                    term,
                    KeywordMatch {
                        rel,
                        similarity: similarity * 0.7,
                        kind: MatchKind::Metadata,
                        selectivity: 1.0,
                    },
                );
            }
        }
    }

    // --- Query script -----------------------------------------------------
    let term_zipf = Zipf::new(BIO_TERMS.len(), config.skew);
    let mut queries = Vec::new();
    let mut arrival = 0u64;
    for uq in 0..config.user_queries {
        let a = BIO_TERMS[term_zipf.sample(&mut rng) - 1];
        let mut b = a;
        while b == a {
            b = BIO_TERMS[term_zipf.sample(&mut rng) - 1];
        }
        let quote = |t: &str| {
            if t.contains(' ') {
                format!("'{t}'")
            } else {
                t.to_string()
            }
        };
        // Per-user Zipfian coefficients on the score functions: learned
        // edge-cost overrides for a random subset of schema edges.
        let cost_zipf = Zipf::new(16, config.skew);
        let mut edge_costs = HashMap::new();
        for e in catalog.edges() {
            if rng.random::<f64>() < 0.1 {
                edge_costs.insert(e.id, cost_zipf.sample(&mut rng) as f64 * 0.25);
            }
        }
        arrival += rng.random_range(0..=config.arrival_spread_us);
        queries.push(WorkloadQuery {
            keywords: format!("{} {}", quote(a), quote(b)),
            user: UserId::new(uq as u32),
            edge_costs: Some(edge_costs),
            arrival_us: arrival,
        });
    }

    Workload {
        catalog,
        index,
        tables: SharedTables::new(config.seed, specs),
        queries,
        name: "gus",
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schema_has_paper_shape() {
        let w = generate(&GusConfig::small(1));
        assert_eq!(w.catalog.relation_count(), 358);
        assert!(w.catalog.edges().len() >= 357, "connected schema");
        // A healthy mix of scored and probe-only relations.
        let scored = w
            .catalog
            .relations()
            .iter()
            .filter(|r| r.has_score())
            .count();
        assert!(scored > 150 && scored < 320, "scored = {scored}");
        assert_eq!(w.queries.len(), 15);
    }

    #[test]
    fn keywords_resolve_to_matches() {
        let w = generate(&GusConfig::small(2));
        for q in &w.queries {
            for term in KeywordIndex::tokenize(&q.keywords) {
                assert!(
                    !w.index.lookup(&term).is_empty(),
                    "term '{term}' must match"
                );
            }
        }
    }

    #[test]
    fn content_matches_exist_in_data() {
        let w = generate(&GusConfig::small(3));
        // Find one content match and verify the generated table contains
        // rows satisfying its selection.
        let mut checked = 0;
        for term in BIO_TERMS.iter().take(8) {
            for m in w.index.lookup(term) {
                if let MatchKind::Content { column, value } = &m.kind {
                    let table = w.tables.table(m.rel);
                    let hits = table
                        .rows()
                        .iter()
                        .filter(|r| r.values[*column] == *value)
                        .count();
                    assert!(hits > 0, "term '{term}' embedded in {}", m.rel);
                    checked += 1;
                }
            }
        }
        assert!(checked > 0, "at least one content match verified");
    }

    #[test]
    fn different_seeds_differ() {
        // Same-seed repeatability is pinned row by row in
        // `tables::tests::generated_tables_are_pinned`.
        let a = generate(&GusConfig::small(10));
        let c = generate(&GusConfig::small(11));
        let same = a
            .queries
            .iter()
            .zip(c.queries.iter())
            .all(|(x, y)| x.keywords == y.keywords);
        assert!(!same, "different seeds should differ somewhere");
    }

    #[test]
    fn arrivals_are_monotone_with_bounded_gaps() {
        let w = generate(&GusConfig::small(4));
        let mut last = 0;
        for q in &w.queries {
            assert!(q.arrival_us >= last);
            assert!(q.arrival_us - last <= 6_000_000);
            last = q.arrival_us;
        }
    }
}
