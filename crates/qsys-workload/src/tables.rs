//! Lazy, shared table materialization.
//!
//! The paper populated all 358 GUS relations with 20k–100k tuples each; we
//! keep the same per-relation recipe but materialize a relation only when a
//! query first touches it (top-k execution reads small prefixes anyway —
//! generating the rest of the schema would be pure overhead). Generated
//! tables are shared across engine lanes via `Arc`, so clustered ATCs see
//! one dataset.
//!
//! What is built where:
//! - **per store** ([`SharedTables::new`]): what every table draws from
//!   alike — the 1,000-rank score Zipf for each distinct `skew`, the
//!   similarity curve `(1/z)^0.35` over those ranks, and the 997 filler
//!   strings;
//! - **per table**: the RNG stream (from the workload seed and the
//!   relation id), the key Zipf over the table's own key domain, and the
//!   table's embedded terms as values;
//! - **per row**: the draws — two keys, a term or a filler, a score — and
//!   the row itself; a term or filler is an `Arc` clone, a similarity
//!   score a table lookup times the jitter.

use qsys_source::{Table, TableProvider};
use qsys_types::dist::{seeded_rng, Zipf};
use qsys_types::{BaseTuple, RelId, Value};
use rand::Rng;
use std::collections::HashMap;
use std::sync::{Arc, Mutex};

/// How a relation's score attribute is distributed.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum ScoreKind {
    /// Zipfian similarity in `(0, 1]` (IR-style keyword scores).
    #[default]
    ZipfSimilarity,
    /// Publication-year score: uniform years normalized into `(0, 1]` —
    /// the extra score attribute of the Pfam/InterPro workload (§7.5).
    PublicationYear,
}

/// Generation recipe for one relation.
///
/// Row layout is fixed across the workspace's generated schemas:
/// `c0` = key-1 (Int), `c1` = key-2 (Int), `c2` = term (Str),
/// `c3` = score (Float; meaningful only when `scored`).
#[derive(Clone, Debug)]
pub struct TableGenSpec {
    /// Number of rows.
    pub rows: u64,
    /// Join-key domain size (keys drawn Zipfian over `0..key_domain`).
    pub key_domain: u64,
    /// Whether the relation carries a similarity-score attribute.
    pub scored: bool,
    /// Score distribution.
    pub score_kind: ScoreKind,
    /// Terms embedded in column `c2`, with target selectivities — content
    /// keyword matches select on these.
    pub terms: Vec<(String, f64)>,
    /// Zipf exponent for keys and scores.
    pub skew: f64,
}

impl Default for TableGenSpec {
    fn default() -> Self {
        TableGenSpec {
            rows: 2_000,
            key_domain: 512,
            scored: true,
            score_kind: ScoreKind::ZipfSimilarity,
            terms: Vec::new(),
            skew: 1.0,
        }
    }
}

/// Shared lazy table store; clones share the cache. `Send + Sync`: when
/// clustered ATC lanes run on threads, every lane's source registry pulls
/// from this one materialized dataset. The map lock is held only for slot
/// lookup; generation happens under the relation's own `OnceLock`, so two
/// lanes first-touching the *same* relation wait (generate-once) while
/// first touches of *different* relations generate concurrently.
#[derive(Clone)]
pub struct SharedTables {
    inner: Arc<Inner>,
}

type TableSlot = Arc<std::sync::OnceLock<Arc<Table>>>;

struct Inner {
    seed: u64,
    specs: HashMap<RelId, TableGenSpec>,
    common: Common,
    cache: Mutex<HashMap<RelId, TableSlot>>,
}

/// Ranks of the similarity-score Zipf.
const SCORE_RANKS: usize = 1_000;
/// Distinct filler strings in the term column.
const FILLERS: usize = 997;

/// What every table of one store draws from alike, built once per store.
struct Common {
    /// The score Zipf over `1..=SCORE_RANKS`, one per distinct `skew`
    /// (keyed by its bits).
    score_zipfs: Vec<(u64, Zipf)>,
    /// `similarity[z - 1]` is rank `z`'s similarity, `(1/z)^0.35`.
    similarity: Vec<f64>,
    /// `fillers[i]` is `"filler{i}"`.
    fillers: Vec<Value>,
}

impl Common {
    fn new(specs: &HashMap<RelId, TableGenSpec>) -> Common {
        let mut score_zipfs: Vec<(u64, Zipf)> = Vec::new();
        for spec in specs.values() {
            let bits = spec.skew.to_bits();
            if !score_zipfs.iter().any(|(b, _)| *b == bits) {
                score_zipfs.push((bits, Zipf::new(SCORE_RANKS, spec.skew)));
            }
        }
        Common {
            score_zipfs,
            similarity: (1..=SCORE_RANKS)
                .map(|z| (1.0 / z as f64).powf(0.35))
                .collect(),
            fillers: (0..FILLERS)
                .map(|i| Value::str(format!("filler{i}")))
                .collect(),
        }
    }

    fn score_zipf(&self, skew: f64) -> &Zipf {
        let bits = skew.to_bits();
        let (_, zipf) = self
            .score_zipfs
            .iter()
            .find(|(b, _)| *b == bits)
            .expect("a score Zipf for every spec's skew");
        zipf
    }
}

impl SharedTables {
    /// Build a store from per-relation specs, with the generation state its
    /// tables share.
    pub fn new(seed: u64, specs: HashMap<RelId, TableGenSpec>) -> SharedTables {
        SharedTables {
            inner: Arc::new(Inner {
                seed,
                common: Common::new(&specs),
                specs,
                cache: Mutex::new(HashMap::new()),
            }),
        }
    }

    /// The table for `rel`, generating it deterministically on first use.
    pub fn table(&self, rel: RelId) -> Arc<Table> {
        let slot = {
            let mut cache = self.inner.cache.lock().unwrap_or_else(|e| e.into_inner());
            Arc::clone(cache.entry(rel).or_default())
        };
        Arc::clone(slot.get_or_init(|| {
            let spec = self
                .inner
                .specs
                .get(&rel)
                .unwrap_or_else(|| panic!("no generation spec for {rel}"));
            Arc::new(generate_table(
                rel,
                spec,
                self.inner.seed,
                &self.inner.common,
            ))
        }))
    }

    /// Number of currently materialized tables.
    pub fn materialized(&self) -> usize {
        self.inner
            .cache
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .values()
            .filter(|slot| slot.get().is_some())
            .count()
    }

    /// Adapt into the `Sources` provider interface.
    pub fn provider(&self) -> TableProvider {
        let store = self.clone();
        Box::new(move |rel| store.table(rel))
    }
}

/// Deterministic table generation from `(workload seed, relation id)`.
fn generate_table(rel: RelId, spec: &TableGenSpec, seed: u64, common: &Common) -> Table {
    let mut rng = seeded_rng(seed ^ (0x9e37_79b9_7f4a_7c15u64.wrapping_mul(rel.0 as u64 + 1)));
    // Join keys are Zipfian (§7) but with a softened exponent: the full
    // exponent would put >10 % of rows on the single hottest key, and the
    // resulting quadratic hot-key join blowup swamps the network costs the
    // paper's evaluation is about.
    let key_zipf = Zipf::new(spec.key_domain.max(1) as usize, (spec.skew * 0.55).min(0.7));
    let score_zipf = common.score_zipf(spec.skew);
    let terms: Vec<(Value, f64)> = spec
        .terms
        .iter()
        .map(|(t, sel)| (Value::str(t.as_str()), *sel))
        .collect();
    let mut rows = Vec::with_capacity(spec.rows as usize);
    for i in 0..spec.rows {
        let k1 = (key_zipf.sample(&mut rng) - 1) as i64;
        let k2 = (key_zipf.sample(&mut rng) - 1) as i64;
        // Term column: embedded keyword terms with their selectivities,
        // otherwise filler.
        let term_value = match terms.iter().find(|(_, sel)| rng.random::<f64>() < *sel) {
            Some((t, _)) => t.clone(),
            None => common.fillers[rng.random_range(0..FILLERS)].clone(),
        };
        // Zipfian similarity score in (0, 1]: rank 1 → 1.0, heavy tail.
        let raw_score = if spec.scored {
            match spec.score_kind {
                ScoreKind::ZipfSimilarity => {
                    // Continuous jitter breaks the mass of exact ties the
                    // discrete Zipf would otherwise put at 1.0 — IR
                    // similarity scores are real-valued, and top-k
                    // thresholds need the bound to actually descend.
                    let z = score_zipf.sample(&mut rng);
                    let jitter = 0.85 + 0.15 * rng.random::<f64>();
                    common.similarity[z - 1] * jitter
                }
                ScoreKind::PublicationYear => {
                    // Years 1980–2010 normalized: newer ranks higher.
                    let year = rng.random_range(1980..=2010) as f64;
                    (year - 1970.0) / 40.0
                }
            }
        } else {
            1.0
        };
        rows.push(Arc::new(BaseTuple::new(
            rel,
            i,
            vec![
                Value::Int(k1),
                Value::Int(k2),
                term_value,
                Value::float(raw_score),
            ],
            raw_score,
        )));
    }
    Table::new(rel, rows)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn store() -> SharedTables {
        let mut specs = HashMap::new();
        specs.insert(
            RelId::new(0),
            TableGenSpec {
                rows: 500,
                terms: vec![("protein".into(), 0.05)],
                ..TableGenSpec::default()
            },
        );
        specs.insert(
            RelId::new(1),
            TableGenSpec {
                rows: 300,
                scored: false,
                ..TableGenSpec::default()
            },
        );
        SharedTables::new(42, specs)
    }

    #[test]
    fn generation_is_lazy_and_cached() {
        let s = store();
        assert_eq!(s.materialized(), 0);
        let t1 = s.table(RelId::new(0));
        assert_eq!(s.materialized(), 1);
        let t2 = s.table(RelId::new(0));
        assert!(Arc::ptr_eq(&t1, &t2));
    }

    #[test]
    fn generation_is_deterministic() {
        let a = store().table(RelId::new(0));
        let b = store().table(RelId::new(0));
        assert_eq!(a.len(), b.len());
        for (x, y) in a.rows().iter().zip(b.rows().iter()) {
            assert_eq!(x.row_id, y.row_id);
            assert_eq!(x.values, y.values);
        }
    }

    #[test]
    fn scored_tables_sorted_scoreless_flat() {
        let s = store();
        let scored = s.table(RelId::new(0));
        assert!(scored.rows()[0].raw_score >= scored.rows()[10].raw_score);
        assert!(scored.max_score() <= 1.0);
        let flat = s.table(RelId::new(1));
        assert!(flat.rows().iter().all(|r| r.raw_score == 1.0));
    }

    #[test]
    fn embedded_terms_hit_target_selectivity() {
        let s = store();
        let t = s.table(RelId::new(0));
        let hits = t
            .rows()
            .iter()
            .filter(|r| r.values[2].as_str() == Some("protein"))
            .count();
        // 5% of 500 = 25 expected; accept a generous band.
        assert!((5..=60).contains(&hits), "got {hits}");
    }

    /// FNV-1a over every generated row of every relation of `w`:
    /// `(rel, row_id, raw_score bits, values)` in table order.
    fn digest(w: &crate::Workload) -> u64 {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        let mut eat = |bytes: &[u8]| {
            for b in bytes {
                h = (h ^ u64::from(*b)).wrapping_mul(0x0100_0000_01b3);
            }
        };
        for r in w.catalog.relations() {
            for row in w.tables.table(r.id).rows() {
                eat(&row.rel.0.to_le_bytes());
                eat(&row.row_id.to_le_bytes());
                eat(&row.raw_score.to_bits().to_le_bytes());
                for v in row.values.iter() {
                    match v {
                        Value::Null => eat(&[0]),
                        Value::Int(i) => {
                            eat(&[1]);
                            eat(&i.to_le_bytes());
                        }
                        Value::Float(f) => {
                            eat(&[2]);
                            eat(&f.to_bits().to_le_bytes());
                        }
                        Value::Str(s) => {
                            eat(&[3]);
                            eat(s.as_bytes());
                            eat(&[0xff]);
                        }
                    }
                }
            }
        }
        h
    }

    /// Every generated row is pinned: a change to the generator that moves
    /// one key, term, score bit or row order fails here.
    #[test]
    fn generated_tables_are_pinned() {
        let gus = crate::gus::generate(&crate::GusConfig {
            user_queries: 10,
            min_rows: 100,
            max_rows: 300,
            ..crate::GusConfig::small(41)
        });
        let pfam = crate::pfam::generate(&crate::PfamConfig::small(1));
        assert_eq!(
            (digest(&gus), digest(&pfam)),
            (0xe875_fd29_3b51_1bb6, 0xc3dd_a16d_9284_9a28)
        );
    }

    #[test]
    fn clones_share_the_cache() {
        let s = store();
        let s2 = s.clone();
        let _ = s.table(RelId::new(0));
        assert_eq!(s2.materialized(), 1);
    }
}
