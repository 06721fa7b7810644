//! User-query clustering (Section 6.1, "Preventing over-sharing").
//!
//! "To improve concurrency, we can generate multiple query plan graphs,
//! each with their own ATC. We accomplish this by clustering user queries
//! in a simple hierarchical fashion. Given the initial set of conjunctive
//! queries, we identify the most frequently occurring source relations in
//! the workload. We build an initial cluster for each source by adding the
//! set of user queries that reference the source more than T_m times. Then
//! we repeatedly merge clusters whose Jaccard similarity exceeds a second
//! threshold T_c, until it is no longer possible to merge."

use qsys_query::cqset::{CqIdx, CqSet};
use qsys_types::{RelId, UqId};
use std::collections::BTreeMap;

/// Clustering thresholds.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ClusterConfig {
    /// `T_m`: a user query joins a source's seed cluster when its CQs
    /// reference the source more than this many times.
    pub t_m: usize,
    /// `T_c`: clusters merge while their Jaccard similarity exceeds this.
    pub t_c: f64,
}

impl Default for ClusterConfig {
    fn default() -> Self {
        ClusterConfig { t_m: 1, t_c: 0.5 }
    }
}

/// Partition user queries into plan-graph clusters. Input: per user query,
/// the multiset of relations its CQs reference (one entry per CQ atom).
/// Output: disjoint clusters covering every input UQ.
///
/// Clusters are dense bitmasks over a per-call user-query index (the same
/// [`CqSet`] machinery the optimizer uses for conjunctive queries — the
/// bitset is index-generic), so Jaccard similarity is two popcounts and a
/// merge is a word-wise union. The bitset's element-lexicographic `Ord`
/// matches `BTreeSet` ordering, keeping the deterministic merge loop's
/// decisions identical to the set-based implementation.
pub fn cluster_user_queries(
    references: &BTreeMap<UqId, Vec<RelId>>,
    config: ClusterConfig,
) -> Vec<Vec<UqId>> {
    // Dense UQ index: references is a BTreeMap, so ids arrive sorted.
    let uq_ids: Vec<UqId> = references.keys().copied().collect();
    assert!(
        uq_ids.len() <= u16::MAX as usize + 1,
        "clustering {} UQs exceeds the dense-index range",
        uq_ids.len()
    );
    let uq_idx = |uq: UqId| CqIdx(uq_ids.binary_search(&uq).expect("known UQ") as u16);

    // Reference counts per (uq, rel).
    let mut counts: BTreeMap<(UqId, RelId), usize> = BTreeMap::new();
    for (uq, rels) in references {
        for rel in rels {
            *counts.entry((*uq, *rel)).or_insert(0) += 1;
        }
    }
    // Seed clusters: one per source relation, holding UQs referencing it
    // more than T_m times.
    let mut seeds: BTreeMap<RelId, CqSet> = BTreeMap::new();
    for ((uq, rel), n) in &counts {
        if *n > config.t_m {
            seeds.entry(*rel).or_default().insert(uq_idx(*uq));
        }
    }
    let mut clusters: Vec<CqSet> = seeds.into_values().filter(|c| !c.is_empty()).collect();
    clusters.sort();
    clusters.dedup();

    // Merge while any pair exceeds T_c.
    loop {
        let mut merged = false;
        'outer: for i in 0..clusters.len() {
            for j in i + 1..clusters.len() {
                if jaccard(&clusters[i], &clusters[j]) > config.t_c {
                    let absorbed = clusters.remove(j);
                    clusters[i].union_with(&absorbed);
                    merged = true;
                    break 'outer;
                }
            }
        }
        if !merged {
            break;
        }
    }

    // Make the partition disjoint: a UQ stays in the largest cluster that
    // claims it; everything unclaimed forms singletons.
    clusters.sort_by_key(|c| std::cmp::Reverse(c.len()));
    let mut assigned = CqSet::new();
    let mut out: Vec<Vec<UqId>> = Vec::new();
    for cluster in clusters {
        let fresh: Vec<UqId> = cluster
            .iter()
            .filter(|i| assigned.insert(*i))
            .map(|i| uq_ids[i.index()])
            .collect();
        if !fresh.is_empty() {
            out.push(fresh);
        }
    }
    for (i, uq) in uq_ids.iter().enumerate() {
        if assigned.insert(CqIdx(i as u16)) {
            out.push(vec![*uq]);
        }
    }
    out
}

fn jaccard(a: &CqSet, b: &CqSet) -> f64 {
    let inter = a.intersection_len(b);
    let union = a.len() + b.len() - inter;
    if union == 0 {
        0.0
    } else {
        inter as f64 / union as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    fn refs(pairs: &[(u32, &[u32])]) -> BTreeMap<UqId, Vec<RelId>> {
        pairs
            .iter()
            .map(|(uq, rels)| {
                (
                    UqId::new(*uq),
                    rels.iter().map(|&r| RelId::new(r)).collect(),
                )
            })
            .collect()
    }

    #[test]
    fn disjoint_workloads_form_separate_clusters() {
        // UQs 0,1 hammer relation 0; UQs 2,3 hammer relation 9.
        let r = refs(&[
            (0, &[0, 0, 1]),
            (1, &[0, 0, 2]),
            (2, &[9, 9, 8]),
            (3, &[9, 9, 7]),
        ]);
        let clusters = cluster_user_queries(&r, ClusterConfig { t_m: 1, t_c: 0.5 });
        assert_eq!(clusters.len(), 2);
        let find = |uq: u32| {
            clusters
                .iter()
                .position(|c| c.contains(&UqId::new(uq)))
                .unwrap()
        };
        assert_eq!(find(0), find(1));
        assert_eq!(find(2), find(3));
        assert_ne!(find(0), find(2));
    }

    #[test]
    fn partition_is_disjoint_and_total() {
        let r = refs(&[
            (0, &[0, 0, 1, 1]),
            (1, &[0, 0, 1, 1]),
            (2, &[1, 1, 2, 2]),
            (3, &[5]),
        ]);
        let clusters = cluster_user_queries(&r, ClusterConfig::default());
        let mut seen = BTreeSet::new();
        for c in &clusters {
            for uq in c {
                assert!(seen.insert(*uq), "duplicate {uq}");
            }
        }
        assert_eq!(seen.len(), 4, "every UQ assigned");
    }

    #[test]
    fn high_tc_prevents_merging() {
        let r = refs(&[(0, &[0, 0, 1, 1]), (1, &[0, 0]), (2, &[1, 1])]);
        let loose = cluster_user_queries(&r, ClusterConfig { t_m: 1, t_c: 0.2 });
        let strict = cluster_user_queries(&r, ClusterConfig { t_m: 1, t_c: 0.99 });
        assert!(loose.len() <= strict.len());
    }

    #[test]
    fn lone_queries_become_singletons() {
        let r = refs(&[(0, &[0]), (1, &[1])]);
        // No relation referenced more than once → no seed clusters.
        let clusters = cluster_user_queries(&r, ClusterConfig { t_m: 1, t_c: 0.5 });
        assert_eq!(clusters.len(), 2);
        assert!(clusters.iter().all(|c| c.len() == 1));
    }
}
