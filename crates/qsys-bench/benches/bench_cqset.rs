//! Micro-benchmark: per-batch `CqSet` bitmasks vs `BTreeSet<CqId>`.
//!
//! Compares the two query-set representations on exactly the three
//! operations the BestPlan recursion performs per explored branch —
//! set difference (line 14's `S′[J′] = S[J′] − S[J]` adjustment), the
//! emptiness test that decides whether the reduced candidate survives,
//! and cloning a candidate's set into the next search state — at batch
//! sizes bracketing the reference workload (the first 5-UQ batch of the
//! GUS seed-41 script is 71 CQs, which notably does not fit one `u64`
//! word).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use qsys::query::{CqIdx, CqSet};
use qsys::types::CqId;
use std::collections::BTreeSet;
use std::hint::black_box;

/// A pair of half-overlapping sets over a universe of `n` queries: evens
/// vs multiples of three — the shape line 14 differences all day.
fn dense_pair(n: u16) -> (CqSet, CqSet) {
    let a = CqSet::from_indices((0..n).filter(|i| i % 2 == 0).map(CqIdx));
    let b = CqSet::from_indices((0..n).filter(|i| i % 3 == 0).map(CqIdx));
    (a, b)
}

fn btree_pair(n: u16) -> (BTreeSet<CqId>, BTreeSet<CqId>) {
    let a = (0..n)
        .filter(|i| i % 2 == 0)
        .map(|i| CqId::new(i as u32))
        .collect();
    let b = (0..n)
        .filter(|i| i % 3 == 0)
        .map(|i| CqId::new(i as u32))
        .collect();
    (a, b)
}

fn bench_cqset(c: &mut Criterion) {
    let mut group = c.benchmark_group("cqset");
    group.sample_size(50);

    for n in [8u16, 64, 128] {
        // Difference: the S′ adjustment.
        let (a, b) = dense_pair(n);
        group.bench_with_input(BenchmarkId::new("difference_cqset", n), &n, |bench, _| {
            bench.iter(|| {
                let mut survivors = 0usize;
                for _ in 0..64 {
                    let d = black_box(&a).difference(black_box(&b));
                    survivors += usize::from(!d.is_empty());
                }
                black_box(survivors)
            });
        });
        let (ta, tb) = btree_pair(n);
        group.bench_with_input(
            BenchmarkId::new("difference_btreeset", n),
            &n,
            |bench, _| {
                bench.iter(|| {
                    let mut survivors = 0usize;
                    for _ in 0..64 {
                        let d: BTreeSet<CqId> =
                            black_box(&ta).difference(black_box(&tb)).copied().collect();
                        survivors += usize::from(!d.is_empty());
                    }
                    black_box(survivors)
                });
            },
        );

        // Emptiness: the survival test on an (empty) reduced set.
        let empty = a.difference(&a);
        group.bench_with_input(BenchmarkId::new("is_empty_cqset", n), &n, |bench, _| {
            bench.iter(|| {
                let mut hits = 0usize;
                for _ in 0..64 {
                    hits += usize::from(black_box(&empty).is_empty() && black_box(&a).is_empty());
                }
                black_box(hits)
            });
        });
        let tempty: BTreeSet<CqId> = BTreeSet::new();
        group.bench_with_input(BenchmarkId::new("is_empty_btreeset", n), &n, |bench, _| {
            bench.iter(|| {
                let mut hits = 0usize;
                for _ in 0..64 {
                    hits += usize::from(black_box(&tempty).is_empty() && black_box(&ta).is_empty());
                }
                black_box(hits)
            });
        });

        // Clone: carrying a candidate into the next search state.
        group.bench_with_input(BenchmarkId::new("clone_cqset", n), &n, |bench, _| {
            bench.iter(|| {
                let mut total = 0usize;
                for _ in 0..64 {
                    total += black_box(&a).clone().len();
                }
                black_box(total)
            });
        });
        group.bench_with_input(BenchmarkId::new("clone_btreeset", n), &n, |bench, _| {
            bench.iter(|| {
                let mut total = 0usize;
                for _ in 0..64 {
                    total += black_box(&ta).clone().len();
                }
                black_box(total)
            });
        });
    }

    group.finish();
}

criterion_group!(benches, bench_cqset);
criterion_main!(benches);
