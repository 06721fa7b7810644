//! The Pfam/InterPro workload (Section 7.5, "Real-data workload").
//!
//! The paper integrated Pfam (protein families, with relationship tables to
//! sequences) and InterPro (families + sequence information), bridged by a
//! mapping table, matched keywords with MySQL full-text similarity, and
//! added the publication year as an extra score attribute.
//!
//! We cannot ship those database dumps, so this module builds a faithful
//! miniature: the same relation topology (including
//! the Pfam↔InterPro mapping table), synthetic text-similarity scores, a
//! publication-year-scored literature table, and **substantially larger
//! cardinalities** than the GUS workload — the property that drives
//! Section 7.5's finding that ATC-FULL gains little (contention on bigger
//! data) while clustering wins big.

use crate::tables::{ScoreKind, SharedTables, TableGenSpec};
use crate::{Workload, WorkloadQuery};
use qsys_catalog::{
    CatalogBuilder, ColumnStats, EdgeKind, KeywordIndex, KeywordMatch, MatchKind, RelationStats,
};
use qsys_types::dist::{seeded_rng, Zipf};
use qsys_types::{RelId, SourceId, UserId, Value};
use rand::Rng;
use std::collections::HashMap;

/// Protein-family search terms (matched against family / sequence /
/// publication text).
pub(crate) const PFAM_TERMS: &[&str] = &[
    "kinase",
    "domain",
    "binding",
    "transferase",
    "receptor",
    "zinc finger",
    "helicase",
    "protease",
    "immunoglobulin",
    "transcription factor",
    "membrane",
    "signal peptide",
    "phosphatase",
    "dehydrogenase",
    "ribosomal",
    "polymerase",
];

/// Generator parameters.
#[derive(Clone, Debug)]
pub struct PfamConfig {
    /// RNG seed.
    pub seed: u64,
    /// Cardinality scale factor: 1.0 ≈ tens of thousands of rows in the
    /// large tables (the workload must be *bigger* than GUS's default).
    pub scale: f64,
    /// Number of user queries (paper: 15).
    pub user_queries: usize,
    /// Maximum inter-arrival gap (paper: 6 s, posed in sequence).
    pub arrival_spread_us: u64,
}

impl PfamConfig {
    /// Laptop-scale default.
    pub fn small(seed: u64) -> PfamConfig {
        PfamConfig {
            seed,
            scale: 0.2,
            user_queries: 15,
            arrival_spread_us: 6_000_000,
        }
    }

    /// Paper-comparable scale.
    pub fn paper(seed: u64) -> PfamConfig {
        PfamConfig {
            scale: 1.0,
            ..PfamConfig::small(seed)
        }
    }
}

/// Generate the Pfam/InterPro-style workload.
pub fn generate(config: &PfamConfig) -> Workload {
    let mut rng = seeded_rng(config.seed);
    let s = config.scale;
    let rows = |base: f64| -> u64 { ((base * s) as u64).max(500) };

    let pfam_db = SourceId::new(0);
    let interpro_db = SourceId::new(1);

    let mut b = CatalogBuilder::default();
    let mut specs: HashMap<RelId, TableGenSpec> = HashMap::new();
    let mk = |b: &mut CatalogBuilder,
              specs: &mut HashMap<RelId, TableGenSpec>,
              name: &str,
              db: SourceId,
              n: u64,
              scored: bool,
              score_kind: ScoreKind,
              key_domain: u64,
              node_cost: f64| {
        let mut stats = RelationStats::with_cardinality(n);
        stats.columns = vec![
            ColumnStats {
                distinct: key_domain,
            },
            ColumnStats {
                distinct: key_domain,
            },
            ColumnStats { distinct: 997 },
        ];
        let rel = b.relation(
            name,
            db,
            vec!["k1".into(), "k2".into(), "text".into(), "score".into()],
            scored.then_some(3),
            node_cost,
            stats,
        );
        specs.insert(
            rel,
            TableGenSpec {
                rows: n,
                key_domain,
                scored,
                score_kind,
                terms: Vec::new(),
                skew: 1.0,
            },
        );
        rel
    };

    // Pfam side.
    let pfam_a = mk(
        &mut b,
        &mut specs,
        "pfamA",
        pfam_db,
        rows(18_000.0),
        true,
        ScoreKind::ZipfSimilarity,
        rows(18_000.0) / 2,
        0.4,
    );
    let pfamseq = mk(
        &mut b,
        &mut specs,
        "pfamseq",
        pfam_db,
        rows(120_000.0),
        true,
        ScoreKind::ZipfSimilarity,
        rows(120_000.0) / 6,
        0.5,
    );
    let pfam_reg = mk(
        &mut b,
        &mut specs,
        "pfamA_reg_full",
        pfam_db,
        rows(150_000.0),
        false,
        ScoreKind::ZipfSimilarity,
        rows(18_000.0) / 2,
        1.0,
    );
    let literature = mk(
        &mut b,
        &mut specs,
        "literature_ref",
        pfam_db,
        rows(30_000.0),
        true,
        ScoreKind::PublicationYear,
        rows(18_000.0) / 2,
        0.8,
    );
    // InterPro side.
    let entry = mk(
        &mut b,
        &mut specs,
        "interpro_entry",
        interpro_db,
        rows(25_000.0),
        true,
        ScoreKind::ZipfSimilarity,
        rows(25_000.0) / 2,
        0.4,
    );
    let entry2go = mk(
        &mut b,
        &mut specs,
        "interpro2go",
        interpro_db,
        rows(40_000.0),
        false,
        ScoreKind::ZipfSimilarity,
        rows(25_000.0) / 2,
        1.0,
    );
    let go_term = mk(
        &mut b,
        &mut specs,
        "go_term",
        interpro_db,
        rows(20_000.0),
        true,
        ScoreKind::ZipfSimilarity,
        rows(20_000.0) / 2,
        0.6,
    );
    let entry_pub = mk(
        &mut b,
        &mut specs,
        "entry_pub",
        interpro_db,
        rows(35_000.0),
        false,
        ScoreKind::ZipfSimilarity,
        rows(25_000.0) / 2,
        1.0,
    );
    // The cross-database mapping table ("the former database contains a
    // mapping table that relates Pfam families to Interpro entries").
    let pfam2interpro = mk(
        &mut b,
        &mut specs,
        "pfam2interpro",
        pfam_db,
        rows(20_000.0),
        true,
        ScoreKind::ZipfSimilarity,
        rows(18_000.0) / 2,
        0.7,
    );

    b.edge(pfam_a, 0, pfam_reg, 0, EdgeKind::ForeignKey, 0.8, 8.0);
    b.edge(pfam_reg, 1, pfamseq, 0, EdgeKind::ForeignKey, 0.8, 1.0);
    b.edge(pfam_a, 0, literature, 0, EdgeKind::ForeignKey, 1.0, 2.0);
    b.edge(pfam_a, 0, pfam2interpro, 0, EdgeKind::RecordLink, 0.6, 1.2);
    b.edge(pfam2interpro, 1, entry, 0, EdgeKind::RecordLink, 0.6, 1.0);
    b.edge(entry, 0, entry2go, 0, EdgeKind::ForeignKey, 0.9, 1.5);
    b.edge(entry2go, 1, go_term, 0, EdgeKind::ForeignKey, 0.9, 1.0);
    b.edge(entry, 0, entry_pub, 0, EdgeKind::ForeignKey, 1.0, 1.4);
    b.edge(entry_pub, 1, literature, 0, EdgeKind::Link, 1.2, 1.0);
    let catalog = b.build();

    // Keyword index: full-text content matches on the text-bearing tables
    // (pfamA descriptions, sequence annotations, InterPro entries, GO
    // terms, publication titles).
    let mut index = KeywordIndex::new();
    let text_rels = [pfam_a, pfamseq, entry, go_term, literature];
    for term in PFAM_TERMS {
        let matches = rng.random_range(2..=3);
        let mut chosen: Vec<RelId> = Vec::new();
        while chosen.len() < matches {
            let rel = text_rels[rng.random_range(0..text_rels.len())];
            if chosen.contains(&rel) {
                continue;
            }
            chosen.push(rel);
            let selectivity = 0.004 + rng.random::<f64>() * 0.02;
            specs
                .get_mut(&rel)
                .expect("spec")
                .terms
                .push((term.to_string(), selectivity));
            index.insert(
                term,
                KeywordMatch {
                    rel,
                    similarity: 0.5 + rng.random::<f64>() * 0.5,
                    kind: MatchKind::Content {
                        column: 2,
                        value: Value::str(*term),
                    },
                    selectivity,
                },
            );
        }
    }

    // 15 two-keyword queries, posed in sequence with random delays ≤ 6 s.
    let term_zipf = Zipf::new(PFAM_TERMS.len(), 1.0);
    let mut queries = Vec::new();
    let mut arrival = 0u64;
    for uq in 0..config.user_queries {
        let a = PFAM_TERMS[term_zipf.sample(&mut rng) - 1];
        let mut b2 = a;
        while b2 == a {
            b2 = PFAM_TERMS[term_zipf.sample(&mut rng) - 1];
        }
        let quote = |t: &str| {
            if t.contains(' ') {
                format!("'{t}'")
            } else {
                t.to_string()
            }
        };
        arrival += rng.random_range(0..=config.arrival_spread_us);
        queries.push(WorkloadQuery {
            keywords: format!("{} {}", quote(a), quote(b2)),
            user: UserId::new(uq as u32),
            edge_costs: None,
            arrival_us: arrival,
        });
    }

    Workload {
        catalog,
        index,
        tables: SharedTables::new(config.seed, specs),
        queries,
        name: "pfam",
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schema_matches_pfam_interpro_topology() {
        let w = generate(&PfamConfig::small(1));
        assert_eq!(w.catalog.relation_count(), 9);
        let pfam_a = w.catalog.relation_by_name("pfamA").unwrap();
        let entry = w.catalog.relation_by_name("interpro_entry").unwrap();
        let mapping = w.catalog.relation_by_name("pfam2interpro").unwrap();
        // The mapping table bridges the two databases.
        assert!(w.catalog.edge_between(pfam_a.id, mapping.id).is_some());
        assert!(w.catalog.edge_between(mapping.id, entry.id).is_some());
        assert_ne!(pfam_a.source_db, entry.source_db);
    }

    #[test]
    fn larger_than_gus_default() {
        let w = generate(&PfamConfig::small(1));
        let pfamseq = w.catalog.relation_by_name("pfamseq").unwrap();
        assert!(pfamseq.stats.cardinality >= 20_000, "big sequence table");
    }

    #[test]
    fn publication_year_scores_are_normalized() {
        let w = generate(&PfamConfig::small(2));
        let lit = w.catalog.relation_by_name("literature_ref").unwrap().id;
        let t = w.tables.table(lit);
        for r in t.rows().iter().take(100) {
            assert!(r.raw_score > 0.2 && r.raw_score <= 1.0);
        }
    }

    #[test]
    fn all_query_terms_match() {
        let w = generate(&PfamConfig::small(3));
        assert_eq!(w.queries.len(), 15);
        for q in &w.queries {
            for term in KeywordIndex::tokenize(&q.keywords) {
                assert!(!w.index.lookup(&term).is_empty(), "'{term}'");
            }
        }
    }

    #[test]
    fn link_tables_are_scoreless() {
        let w = generate(&PfamConfig::small(4));
        for name in ["pfamA_reg_full", "interpro2go", "entry_pub"] {
            assert!(
                !w.catalog.relation_by_name(name).unwrap().has_score(),
                "{name} is a probe-only link table"
            );
        }
    }
}
